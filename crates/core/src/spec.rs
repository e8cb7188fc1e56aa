//! Network specifications — the four designs of the paper as one enum —
//! and the text form of an experiment.
//!
//! The `minnet` options, a [`crate::JobSpec`]'s strings and `.scn` keys
//! spell one vocabulary, read here and nowhere else: [`parse_wiring`],
//! [`parse_network`], [`parse_pattern`], [`parse_clusters`],
//! [`parse_rates`], [`parse_sizes`], [`geometry`], [`parse_load`] and
//! [`parse_loads`]
//! (clusterings and rates have no `JobSpec` or `.scn` key yet: only the
//! CLI's `--clusters` / `--rates` read them, and [`crate::figures`] names
//! its clusterings through [`parse_clusters`]). Each refuses a value no
//! run can use — it runs the type's own `validate()` — so the error
//! surfaces where the text is read.
//! Each door frames the message (`--flag`, a config error, `file:line`)
//! and keeps its own defaults; every door refuses a load outside (0, 1],
//! the one-port bound, by one rule (`check_load`).

use minnet_sim::EngineConfig;
use minnet_topology::{build_bmin, build_unidir, BitCube, Geometry, NetworkGraph, UnidirKind};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern};
use std::fmt::Display;

/// The unidirectional wirings by name, for [`parse_wiring`] and
/// [`NetworkSpec::name`].
const WIRINGS: [(&str, UnidirKind); 4] = [
    ("cube", UnidirKind::Cube),
    ("butterfly", UnidirKind::Butterfly),
    ("omega", UnidirKind::Omega),
    ("baseline", UnidirKind::Baseline),
];

/// One of the four switch-based wormhole networks under evaluation.
///
/// Unless stated otherwise the unidirectional networks use the **cube**
/// interconnection — §5.2 shows it dominates the butterfly wiring for
/// partitioned workloads, and the paper's §5.3 comparison uses cube
/// TMIN/DMIN/VMIN against the butterfly BMIN.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetworkSpec {
    /// Traditional MIN: one channel per port, one VC.
    Tmin(UnidirKind),
    /// d-dilated MIN (the paper evaluates `d = 2`).
    Dmin(UnidirKind, u8),
    /// MIN with `v` virtual channels per physical channel (paper: 2).
    Vmin(UnidirKind, u8),
    /// Bidirectional butterfly MIN (fat tree, turnaround routing).
    Bmin,
}

impl NetworkSpec {
    /// Cube TMIN.
    pub fn tmin() -> NetworkSpec {
        NetworkSpec::Tmin(UnidirKind::Cube)
    }

    /// Cube DMIN with dilation `d`.
    pub fn dmin(d: u8) -> NetworkSpec {
        NetworkSpec::Dmin(UnidirKind::Cube, d)
    }

    /// Cube VMIN with `v` virtual channels.
    pub fn vmin(v: u8) -> NetworkSpec {
        NetworkSpec::Vmin(UnidirKind::Cube, v)
    }

    /// The four §5.3 contenders: TMIN, DMIN(2), VMIN(2), BMIN.
    pub fn paper_lineup() -> [NetworkSpec; 4] {
        [
            NetworkSpec::tmin(),
            NetworkSpec::dmin(2),
            NetworkSpec::vmin(2),
            NetworkSpec::Bmin,
        ]
    }

    /// Build the static network graph for geometry `g`.
    pub fn build(&self, g: Geometry) -> NetworkGraph {
        match *self {
            NetworkSpec::Tmin(kind) => build_unidir(g, kind, 1),
            NetworkSpec::Dmin(kind, d) => build_unidir(g, kind, d),
            NetworkSpec::Vmin(kind, _) => build_unidir(g, kind, 1),
            NetworkSpec::Bmin => build_bmin(g),
        }
    }

    /// Virtual channels per physical channel this design uses.
    pub fn vcs(&self) -> u8 {
        match *self {
            NetworkSpec::Vmin(_, v) => v,
            _ => 1,
        }
    }

    /// Short display name matching the paper's terminology.
    pub fn name(&self) -> String {
        let wiring = |k| WIRINGS.iter().find(|w| w.1 == k).map_or("", |w| w.0);
        match *self {
            NetworkSpec::Tmin(k) => format!("TMIN({})", wiring(k)),
            NetworkSpec::Dmin(k, d) => format!("DMIN({}, d={d})", wiring(k)),
            NetworkSpec::Vmin(k, v) => format!("VMIN({}, v={v})", wiring(k)),
            NetworkSpec::Bmin => "BMIN".to_string(),
        }
    }

    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            NetworkSpec::Dmin(_, 0) => Err("dilation must be at least 1".into()),
            NetworkSpec::Vmin(_, 0) => Err("at least one virtual channel is required".into()),
            _ => Ok(()),
        }
    }
}

/// A wiring: `cube | butterfly | omega | baseline`.
pub fn parse_wiring(s: &str) -> Result<UnidirKind, String> {
    let w = WIRINGS.iter().find(|w| w.0 == s);
    w.map(|w| w.1).ok_or_else(|| format!("unknown wiring {s:?}"))
}

/// A network: `tmin | dmin | vmin | bmin` on `wiring`, DMIN with
/// `dilation` and VMIN with `vcs` (the other kinds ignore both), refused
/// where [`NetworkSpec::validate`] refuses it or the engine refuses its
/// lane count.
pub fn parse_network(
    kind: &str,
    wiring: UnidirKind,
    dilation: u8,
    vcs: u8,
) -> Result<NetworkSpec, String> {
    let net = match kind {
        "tmin" => NetworkSpec::Tmin(wiring),
        "dmin" => NetworkSpec::Dmin(wiring, dilation),
        "vmin" => NetworkSpec::Vmin(wiring, vcs),
        "bmin" => NetworkSpec::Bmin,
        _ => return Err(format!("unknown network {kind:?}")),
    };
    net.validate()?;
    let lanes = EngineConfig { vcs: net.vcs(), ..EngineConfig::default() };
    lanes.validate().map(|()| net).map_err(String::from)
}

/// A destination pattern: `uniform | shuffle | hotspot:F | butterfly:I`,
/// refused where [`TrafficPattern::validate`] refuses it (`hotspot:NaN`).
pub fn parse_pattern(s: &str) -> Result<TrafficPattern, String> {
    let p = match s.split_once(':') {
        None if s == "uniform" => TrafficPattern::Uniform,
        None if s == "shuffle" => TrafficPattern::SHUFFLE,
        Some(("hotspot", x)) => TrafficPattern::HotSpot {
            extra: x.parse().map_err(|e| format!("hotspot {x:?}: {e}"))?,
        },
        Some(("butterfly", i)) => {
            TrafficPattern::butterfly(i.parse().map_err(|e| format!("butterfly {i:?}: {e}"))?)
        }
        _ => return Err(format!("unknown pattern {s:?}")),
    };
    p.validate().map(|()| p)
}

/// A node clustering over `g`: `global`, `msd` / `lsd` (the `k` digit
/// cubes that fix the most / least significant digit: `0XX … 3XX` /
/// `XX0 … XX3` at 64 nodes) or `halves` (the two binary cubes that fix
/// the top address bit, `0XXXXX` / `1XXXXX`; `k` a power of two).
pub fn parse_clusters(g: &Geometry, s: &str) -> Result<Clustering, String> {
    let digit_cubes = |fix_msd: bool| {
        let free = "X".repeat(g.n() as usize - 1);
        let pats: Vec<String> = (0..g.k())
            .map(|v| if fix_msd { format!("{v}{free}") } else { format!("{free}{v}") })
            .collect();
        Clustering::cubes_from_patterns(g, &pats.iter().map(String::as_str).collect::<Vec<_>>())
    };
    match s {
        "global" => Ok(Clustering::Global),
        "msd" => digit_cubes(true),
        "lsd" => digit_cubes(false),
        "halves" if g.k().is_power_of_two() => {
            let top = 1u32 << (g.n() * g.k().trailing_zeros() - 1);
            Ok(Clustering::BitCubes(vec![BitCube::new(g, top, 0), BitCube::new(g, top, top)]))
        }
        "halves" => Err("halves needs k to be a power of two".into()),
        _ => Err(format!("unknown clustering {s:?}")),
    }
}

/// Per-cluster relative rates, `a,b,…` (§5.2's `4,1,1,1`). Their count
/// and signs are checked against the clustering when the workload is
/// built.
pub fn parse_rates(s: &str) -> Result<Vec<f64>, String> {
    let rate = |x: &str| x.trim().parse().map_err(|e| format!("rate {x:?}: {e}"));
    s.split(',').map(rate).collect()
}

/// Message sizes: `paper | fixed:N | bimodal:S,L,P` (lengths in flits,
/// `P` the share of short messages), refused where
/// [`MessageSizeDist::validate`] refuses them (`fixed:0`).
pub fn parse_sizes(s: &str) -> Result<MessageSizeDist, String> {
    let d = match s.split_once(':') {
        None if s == "paper" => MessageSizeDist::PAPER,
        Some(("fixed", len)) => {
            MessageSizeDist::Fixed(len.parse().map_err(|e| format!("fixed {len:?}: {e}"))?)
        }
        Some(("bimodal", rest)) => {
            let [short, long, p_short] = rest.split(',').collect::<Vec<_>>()[..] else {
                return Err("bimodal needs short,long,p_short".into());
            };
            let bad = |x: &str, e: &dyn Display| format!("bimodal {x:?}: {e}");
            MessageSizeDist::Bimodal {
                short: short.parse().map_err(|e| bad(short, &e))?,
                long: long.parse().map_err(|e| bad(long, &e))?,
                p_short: p_short.parse().map_err(|e| bad(p_short, &e))?,
            }
        }
        _ => return Err(format!("unknown sizes {s:?}")),
    };
    d.validate().map(|()| d)
}

/// The `k`-ary `n`-stage geometry once both are read as numbers, refused
/// where [`Geometry::try_new`] or [`minnet_topology::graph::check_limits`]
/// refuses it; the error names the parameter first (`k = 1: …`).
pub fn geometry(k: u32, n: u32) -> Result<Geometry, String> {
    Geometry::try_new(k, n).and_then(minnet_topology::graph::check_limits)
}

/// An offered load a door accepts: in (0, 1], flits per cycle per node,
/// where 1 is the one-port injection bound. Past the bound a run only
/// grows its source queues, and a huge load never ends its first cycle's
/// arrivals; `NaN` fails both comparisons.
pub(crate) fn check_load(l: f64) -> Result<f64, String> {
    if l > 0.0 && l <= 1.0 {
        Ok(l)
    } else {
        Err(format!(
            "load {l:?} is outside (0, 1] (1.0 = the one-port injection bound)"
        ))
    }
}

/// One offered load, refused outside (0, 1] by the doors' one rule
/// (`check_load`).
pub fn parse_load(s: &str) -> Result<f64, String> {
    let l = s.trim().parse().map_err(|e| format!("load {s:?}: {e}"))?;
    check_load(l)
}

/// A comma-separated list of offered loads, each read by [`parse_load`].
pub fn parse_loads(s: &str) -> Result<Vec<f64>, String> {
    s.split(',').map(parse_load).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_have_expected_shapes() {
        let g = Geometry::new(4, 3);
        assert_eq!(NetworkSpec::tmin().build(g).num_channels(), 256);
        assert_eq!(NetworkSpec::dmin(2).build(g).num_channels(), 384);
        assert_eq!(NetworkSpec::vmin(2).build(g).num_channels(), 256);
        assert_eq!(NetworkSpec::Bmin.build(g).num_channels(), 384);
        assert_eq!(NetworkSpec::vmin(2).vcs(), 2);
        assert_eq!(NetworkSpec::Bmin.vcs(), 1);
    }

    #[test]
    fn names() {
        assert_eq!(NetworkSpec::tmin().name(), "TMIN(cube)");
        assert_eq!(NetworkSpec::dmin(2).name(), "DMIN(cube, d=2)");
        assert_eq!(NetworkSpec::vmin(2).name(), "VMIN(cube, v=2)");
        assert_eq!(NetworkSpec::Bmin.name(), "BMIN");
        assert_eq!(
            NetworkSpec::Tmin(UnidirKind::Butterfly).name(),
            "TMIN(butterfly)"
        );
    }

    #[test]
    fn clusterings_are_the_paper_patterns() {
        let g = Geometry::new(4, 3);
        let cubes = |pats: &[&str]| Clustering::cubes_from_patterns(&g, pats).unwrap();
        let bits = |pats: [&str; 2]| {
            Clustering::BitCubes(pats.map(|p| BitCube::parse(&g, p).unwrap()).to_vec())
        };
        for (name, want) in [
            ("global", Clustering::Global),
            ("msd", cubes(&["0XX", "1XX", "2XX", "3XX"])),
            ("lsd", cubes(&["XX0", "XX1", "XX2", "XX3"])),
            ("halves", bits(["0XXXXX", "1XXXXX"])),
        ] {
            let got = parse_clusters(&g, name).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name}");
        }
        assert_eq!(parse_clusters(&g, "nope").unwrap_err(), "unknown clustering \"nope\"");
        let err = parse_clusters(&Geometry::new(3, 3), "halves").unwrap_err();
        assert!(err.contains("power of two"), "{err}");
    }

    #[test]
    fn rates_are_numbers() {
        assert_eq!(parse_rates("4, 1,1,0").unwrap(), [4.0, 1.0, 1.0, 0.0]);
        assert!(parse_rates("4,x").unwrap_err().starts_with("rate \"x\""));
    }

    #[test]
    fn validation() {
        assert!(NetworkSpec::dmin(0).validate().is_err());
        assert!(NetworkSpec::vmin(0).validate().is_err());
        assert!(NetworkSpec::dmin(2).validate().is_ok());
        for s in NetworkSpec::paper_lineup() {
            assert!(s.validate().is_ok());
        }
    }
}
