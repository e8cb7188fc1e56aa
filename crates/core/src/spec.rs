//! Network specifications — the four designs of the paper as one enum —
//! and the text form of an experiment.
//!
//! The three doors of an experiment — the `minnet` flags, a
//! [`crate::JobSpec`]'s fields and `.scn` keys — hand their `key = value`
//! text to one reader, [`Settings`], the only code that maps a key to an
//! [`Experiment`] field. [`Settings::set`] reads one value (each parser
//! runs the type's own `validate()`); [`Settings::finish`] judges what
//! takes several keys, then `Experiment::check`: all that `compile`
//! refuses without building a graph. So a value no run can use is
//! refused where it is read, as a [`Refusal`] naming its key, which each
//! door frames (`--flag`, a config error, `file:line`). Every door
//! refuses a load outside (0, 1], the one-port bound, by one rule
//! (`check_load`).

use crate::experiment::Experiment;
use minnet_topology::{
    build_bmin, build_unidir, BitCube, CubeSpec, Geometry, NetworkGraph, UnidirKind,
};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern};
use std::fmt::Display;
use std::num::ParseIntError;

/// The unidirectional wirings by name, for the `wiring` key and
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

/// A value [`Settings`] refuses: the key charged with it and why.
#[derive(Clone, Debug, PartialEq)]
pub struct Refusal {
    /// The key charged with it: for the network's four keys `network`,
    /// for `k` and `n` together `k`.
    pub key: String,
    /// Why, without the key.
    pub why: String,
    /// Whether the text form names the key: not for a number or flag that
    /// does not parse, an unknown key, or a geometry (`k = 1: …`).
    keyed: bool,
}

impl Display for Refusal {
    /// As a `.scn` line and a job's config error state it: `key: why`,
    /// or `why` alone.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.keyed {
            write!(f, "{}: ", self.key)?;
        }
        f.write_str(&self.why)
    }
}

/// The experiment vocabulary read one `key = value` at a time (the keys
/// are the arms of [`Settings::set`]) over the paper's default: cube TMIN
/// (DMIN dilation 2, VMIN 2 lanes), `k = 4`, `n = 3`, global uniform
/// traffic, paper sizes, the engine's defaults. A door sets its own
/// defaults the same way, before its text. `sim.vcs` is never written:
/// the lane count is the network's.
#[derive(Clone, Debug)]
pub struct Settings {
    exp: Experiment,
    network: String,
    wiring: UnidirKind,
    dilation: u8,
    vcs: u8,
    k: u32,
    n: u32,
    clusters: Option<String>,
}

impl Default for Settings {
    fn default() -> Settings {
        let exp = Experiment::paper_default(NetworkSpec::tmin());
        Settings {
            network: "tmin".into(),
            wiring: UnidirKind::Cube,
            dilation: 2,
            vcs: 2,
            k: exp.geometry.k(),
            n: exp.geometry.n(),
            clusters: None,
            exp,
        }
    }
}

impl Settings {
    /// Read `value` for `key`, refusing what no run can use on its own:
    /// text a parser refuses, a number past the type it is stored in
    /// (`vcs = 300` is not `vcs = 44`), `k` or `n` past what a graph can
    /// hold with the other at its smallest, an unknown key.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), Refusal> {
        self.read(key, value).map_err(|(why, keyed)| Refusal { key: key.into(), why, keyed })
    }

    /// [`Settings::set`], refusing with why and whether the text form
    /// names the key.
    fn read(&mut self, key: &str, value: &str) -> Result<(), (String, bool)> {
        fn num<T: std::str::FromStr<Err = ParseIntError>>(v: &str) -> Result<T, (String, bool)> {
            v.parse().map_err(|e: ParseIntError| (e.to_string(), false))
        }
        let keyed = |why| (why, true);
        let sim = &mut self.exp.sim;
        match key {
            "network" => self.network = value.into(),
            "wiring" => {
                let w = WIRINGS.iter().find(|w| w.0 == value);
                self.wiring = w.ok_or_else(|| keyed(format!("unknown wiring {value:?}")))?.1;
            }
            "dilation" => self.dilation = num(value)?,
            "vcs" => self.vcs = num(value)?,
            "k" => {
                self.k = num(value)?;
                geometry(self.k, 1).map_err(|why| (why, false))?;
            }
            "n" => {
                self.n = num(value)?;
                geometry(2, self.n).map_err(|why| (why, false))?;
            }
            "pattern" => self.exp.pattern = parse_pattern(value).map_err(keyed)?,
            "clusters" => self.clusters = Some(value.into()),
            "rates" => self.exp.rates = Some(parse_rates(value).map_err(keyed)?),
            "sizes" => self.exp.sizes = parse_sizes(value).map_err(keyed)?,
            "seed" => sim.seed = num(value)?,
            "warmup" => sim.warmup = num(value)?,
            "measure" => sim.measure = num(value)?,
            "queue_limit" => sim.queue_limit = num(value)?,
            "buffer_depth" => sim.buffer_depth = num(value)?,
            "watchdog_window" => sim.watchdog_window = num(value)?,
            "fault_abort" => {
                let why = || (format!("expected true/false, got {value:?}"), false);
                sim.fault_abort = parse_flag(value).ok_or_else(why)?;
            }
            "budget_cycles" => sim.budget.max_cycles = num(value)?,
            "budget_ms" => sim.budget.max_wall_ms = num(value)?,
            _ => return Err((format!("unknown key {key:?}"), false)),
        }
        Ok(())
    }

    /// The key [`Settings::finish`] charges when `key` is at fault:
    /// `network` for the network's four keys, `k` for `k` and `n`.
    pub(crate) fn charged(key: &str) -> &str {
        match key {
            "network" | "wiring" | "dilation" | "vcs" => "network",
            "k" | "n" => "k",
            other => other,
        }
    }

    /// The experiment, once what takes more than one key holds: the
    /// geometry, the network with its dilation and lanes, the clustering
    /// on the geometry, and `Experiment::check`.
    pub fn finish(self) -> Result<Experiment, Refusal> {
        let refusal = |key: &str, keyed, why| Refusal { key: key.into(), why, keyed };
        let mut exp = self.exp;
        exp.geometry = geometry(self.k, self.n).map_err(|why| refusal("k", false, why))?;
        exp.network = match self.network.as_str() {
            "tmin" => NetworkSpec::Tmin(self.wiring),
            "dmin" => NetworkSpec::Dmin(self.wiring, self.dilation),
            "vmin" => NetworkSpec::Vmin(self.wiring, self.vcs),
            "bmin" => NetworkSpec::Bmin,
            kind => return Err(refusal("network", true, format!("unknown network {kind:?}"))),
        };
        if let Some(c) = &self.clusters {
            let clustering = parse_clusters(&exp.geometry, c);
            exp.clustering = clustering.map_err(|why| refusal("clusters", true, why))?;
        }
        exp.check().map_err(|(field, why)| refusal(Settings::charged(field), true, why))?;
        Ok(exp)
    }
}

/// Accept `true/false`, `on/off` and `yes/no`.
pub(crate) fn parse_flag(v: &str) -> Option<bool> {
    match v {
        "true" | "on" | "yes" => Some(true),
        "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

/// A destination pattern: `uniform | shuffle | hotspot:F | butterfly:I`,
/// refused where [`TrafficPattern::validate`] refuses it (`hotspot:NaN`).
fn parse_pattern(s: &str) -> Result<TrafficPattern, String> {
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
    let digit_cubes =
        |i| Ok(Clustering::Cubes((0..g.k()).map(|v| CubeSpec::fixing(g, i, v)).collect()));
    match s {
        "global" => Ok(Clustering::Global),
        "msd" => digit_cubes(g.n() - 1),
        "lsd" => digit_cubes(0),
        "halves" if g.k().is_power_of_two() => {
            let top = 1u32 << (g.n() * g.k().trailing_zeros() - 1);
            Ok(Clustering::BitCubes(vec![BitCube::new(g, top, 0), BitCube::new(g, top, top)]))
        }
        "halves" => Err("halves needs k to be a power of two".into()),
        _ => Err(format!("unknown clustering {s:?}")),
    }
}

/// Per-cluster relative rates, `a,b,…` (§5.2's `4,1,1,1`). Their count
/// and signs are checked against the clustering by [`Settings::finish`].
fn parse_rates(s: &str) -> Result<Vec<f64>, String> {
    let rate = |x: &str| x.trim().parse().map_err(|e| format!("rate {x:?}: {e}"));
    s.split(',').map(rate).collect()
}

/// Message sizes: `paper | fixed:N | bimodal:S,L,P` (lengths in flits,
/// `P` the share of short messages), refused where
/// [`MessageSizeDist::validate`] refuses them (`fixed:0`).
fn parse_sizes(s: &str) -> Result<MessageSizeDist, String> {
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
fn geometry(k: u32, n: u32) -> Result<Geometry, String> {
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
    fn refusals_name_the_key_they_are_charged_to() {
        let refused = |pairs: &[(&str, &str)]| {
            let mut s = Settings::default();
            for (key, value) in pairs {
                s.set(key, value)?;
            }
            s.finish().map(drop)
        };
        for (pairs, key, text) in [
            (&[("pattern", "butterfly:3")][..], "pattern", "pattern: butterfly index 3 out"),
            (&[("rates", "4,1")], "rates", "rates: 2 rate entries for 1 clusters"),
            (&[("buffer_depth", "0")], "buffer_depth", "buffer_depth: channel buffers must"),
            (&[("measure", "0")], "measure", "measure: measurement window must be"),
            (&[("network", "vmin"), ("vcs", "65")], "network", "network: at most 64 virtual"),
            (&[("dilation", "0"), ("network", "dmin")], "network", "network: dilation must be"),
            (&[("clusters", "halves"), ("k", "3")], "clusters", "clusters: halves needs k"),
            (&[("k", "32"), ("n", "9")], "k", "k = 32, n = 9: "),
            (&[("vcs", "300")], "vcs", "number too large to fit in target type"),
            (&[("fault_abort", "maybe")], "fault_abort", "expected true/false, got \"maybe\""),
            (&[("bogus", "1")], "bogus", "unknown key \"bogus\""),
        ] {
            let r = refused(pairs).unwrap_err();
            assert_eq!(r.key, key, "{pairs:?}");
            assert!(r.to_string().starts_with(text), "{pairs:?}: {r}");
        }
        // The lane count is the network's: the reader leaves `sim.vcs` alone.
        let mut s = Settings::default();
        s.set("network", "vmin").unwrap();
        s.set("vcs", "4").unwrap();
        let exp = s.finish().unwrap();
        assert_eq!((exp.network, exp.sim.vcs), (NetworkSpec::vmin(4), 1));
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
