//! The experiment bundle behind every evaluation figure.
//!
//! Each [`FigureDef`] lists the curves (labelled [`Experiment`]s) of one
//! paper figure; the qualitative claim the paper makes about it is
//! recorded in `EXPERIMENTS.md`. Every figure sweeps [`LOADS`]. The
//! `figures` binary regenerates them, and `tests/paper_claims.rs` takes
//! each claim's experiment from here by (figure id, curve label).

use crate::spec::parse_clusters;
use crate::{Experiment, NetworkSpec};
use minnet_topology::UnidirKind;
use minnet_traffic::{MessageSizeDist, TrafficPattern};

/// The offered loads (flits/cycle/node) every figure sweeps.
pub const LOADS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// One figure to regenerate: an id like `fig18a` and a set of labelled
/// experiment curves.
pub struct FigureDef {
    /// Identifier (`fig16a` … `fig20b`, `ext_*`).
    pub id: &'static str,
    /// Human title echoing the paper's caption.
    pub title: &'static str,
    /// Labelled curves.
    pub curves: Vec<(String, Experiment)>,
}

fn base(network: NetworkSpec) -> Experiment {
    Experiment::paper_default(network)
}

/// `e` with its nodes grouped by the [`parse_clusters`] name `clusters`.
fn clustered(e: Experiment, clusters: &str) -> Experiment {
    let clustering = parse_clusters(&e.geometry, clusters).expect("a clustering of 64 nodes");
    Experiment { clustering, ..e }
}

fn with_rates(e: &Experiment, rates: [f64; 4]) -> Experiment {
    Experiment { rates: Some(rates.to_vec()), ..e.clone() }
}

fn lineup_curves(f: impl Fn(Experiment) -> Experiment) -> Vec<(String, Experiment)> {
    NetworkSpec::paper_lineup()
        .into_iter()
        .map(|spec| (spec.name(), f(base(spec))))
        .collect()
}

/// All figure definitions, in paper order.
pub fn all_figures() -> Vec<FigureDef> {
    let mut figs = Vec::new();

    // ---- Fig. 16: cube vs butterfly TMIN ---------------------------------
    figs.push(FigureDef {
        id: "fig16a",
        title: "Cube vs butterfly TMIN, global uniform traffic",
        curves: vec![
            ("cube TMIN".into(), base(NetworkSpec::Tmin(UnidirKind::Cube))),
            (
                "butterfly TMIN".into(),
                base(NetworkSpec::Tmin(UnidirKind::Butterfly)),
            ),
        ],
    });

    let cube16 = clustered(base(NetworkSpec::Tmin(UnidirKind::Cube)), "msd");
    let bf_reduced = clustered(base(NetworkSpec::Tmin(UnidirKind::Butterfly)), "msd");
    let bf_shared = clustered(base(NetworkSpec::Tmin(UnidirKind::Butterfly)), "lsd");
    figs.push(FigureDef {
        id: "fig16b",
        title: "Cube vs butterfly TMIN, cluster-16 uniform traffic",
        curves: vec![
            ("cube TMIN (balanced)".into(), cube16.clone()),
            ("butterfly TMIN (reduced)".into(), bf_reduced.clone()),
            ("butterfly TMIN (shared)".into(), bf_shared.clone()),
        ],
    });

    // ---- Fig. 17: cluster rate ratios ------------------------------------
    figs.push(FigureDef {
        id: "fig17a",
        title: "Cube vs butterfly TMIN, four 16-node clusters, rates 4:1:1:1",
        curves: vec![
            (
                "cube TMIN (balanced)".into(),
                with_rates(&cube16, [4.0, 1.0, 1.0, 1.0]),
            ),
            (
                "butterfly TMIN (reduced)".into(),
                with_rates(&bf_reduced, [4.0, 1.0, 1.0, 1.0]),
            ),
            (
                "butterfly TMIN (shared)".into(),
                with_rates(&bf_shared, [4.0, 1.0, 1.0, 1.0]),
            ),
        ],
    });
    figs.push(FigureDef {
        id: "fig17b",
        title: "Cube (balanced) vs butterfly (shared) TMIN, rates 1:0:0:0 and 4:1:1:1",
        curves: vec![
            (
                "cube TMIN 1:0:0:0".into(),
                with_rates(&cube16, [1.0, 0.0, 0.0, 0.0]),
            ),
            (
                "butterfly shared 1:0:0:0".into(),
                with_rates(&bf_shared, [1.0, 0.0, 0.0, 0.0]),
            ),
            (
                "cube TMIN 4:1:1:1".into(),
                with_rates(&cube16, [4.0, 1.0, 1.0, 1.0]),
            ),
            (
                "butterfly shared 4:1:1:1".into(),
                with_rates(&bf_shared, [4.0, 1.0, 1.0, 1.0]),
            ),
        ],
    });

    // ---- Fig. 18: four networks, uniform ---------------------------------
    figs.push(FigureDef {
        id: "fig18a",
        title: "TMIN / DMIN / VMIN / BMIN, global uniform traffic",
        curves: lineup_curves(|e| e),
    });
    figs.push(FigureDef {
        id: "fig18b",
        title: "TMIN / DMIN / VMIN / BMIN, cluster-16 uniform traffic",
        curves: lineup_curves(|e| clustered(e, "msd")),
    });

    // ---- Fig. 19: hot spots ----------------------------------------------
    let lineup_with = |pattern: TrafficPattern| lineup_curves(|e| Experiment { pattern, ..e });
    figs.push(FigureDef {
        id: "fig19a",
        title: "Four networks, global 5% hot-spot traffic",
        curves: lineup_with(TrafficPattern::HotSpot { extra: 0.05 }),
    });
    figs.push(FigureDef {
        id: "fig19b",
        title: "Four networks, global 10% hot-spot traffic",
        curves: lineup_with(TrafficPattern::HotSpot { extra: 0.10 }),
    });

    // ---- Fig. 20: permutations ---------------------------------------------
    figs.push(FigureDef {
        id: "fig20a",
        title: "Four networks, perfect-shuffle permutation traffic",
        curves: lineup_with(TrafficPattern::SHUFFLE),
    });
    figs.push(FigureDef {
        id: "fig20b",
        title: "Four networks, 2nd butterfly permutation traffic",
        curves: lineup_with(TrafficPattern::butterfly(2)),
    });

    // ---- Extensions (paper §5 text and §6 future work) --------------------
    let mut c32 = lineup_curves(|e| clustered(e, "halves"));
    let bf32 = clustered(base(NetworkSpec::Tmin(UnidirKind::Butterfly)), "halves");
    c32.push(("TMIN(butterfly)".into(), bf32));
    figs.push(FigureDef {
        id: "ext_cluster32",
        title: "Cluster-32 uniform traffic (two binary 5-cube clusters)",
        curves: c32,
    });

    figs.push(FigureDef {
        id: "ext_bimodal",
        title: "Four networks, bimodal message sizes (90% 8-flit, 10% 1024-flit)",
        curves: lineup_curves(|e| Experiment {
            sizes: MessageSizeDist::Bimodal {
                short: 8,
                long: 1024,
                p_short: 0.9,
            },
            ..e
        }),
    });

    let wiring_curves = [
        UnidirKind::Cube,
        UnidirKind::Omega,
        UnidirKind::Butterfly,
        UnidirKind::Baseline,
    ]
    .into_iter()
    .map(|w| (NetworkSpec::Tmin(w).name(), clustered(base(NetworkSpec::Tmin(w)), "msd")))
    .collect();
    figs.push(FigureDef {
        id: "ext_wirings",
        title: "Delta wirings under cluster-16 uniform traffic (paper §6: omega ~ cube, baseline ~ butterfly)",
        curves: wiring_curves,
    });

    let mut buffer_curves = Vec::new();
    for spec in [NetworkSpec::tmin(), NetworkSpec::Bmin] {
        for depth in [1u16, 4] {
            let mut e = base(spec);
            e.sim.buffer_depth = depth;
            buffer_curves.push((format!("{} depth={depth}", spec.name()), e));
        }
    }
    figs.push(FigureDef {
        id: "ext_buffers",
        title: "Deeper channel buffers (the paper's results assume one flit buffer per channel)",
        curves: buffer_curves,
    });

    figs.push(FigureDef {
        id: "ext_vc4",
        title: "More virtual channels: TMIN vs VMIN(2) vs VMIN(4) vs DMIN(2)",
        curves: vec![
            ("TMIN(cube)".into(), base(NetworkSpec::tmin())),
            ("VMIN(cube, v=2)".into(), base(NetworkSpec::vmin(2))),
            ("VMIN(cube, v=4)".into(), base(NetworkSpec::vmin(4))),
            ("DMIN(cube, d=2)".into(), base(NetworkSpec::dmin(2))),
        ],
    });

    figs
}

/// Look up a figure definition by id.
pub fn figure_by_id(id: &str) -> Option<FigureDef> {
    all_figures().into_iter().find(|f| f.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_complete_and_unique() {
        let figs = all_figures();
        let ids: Vec<&str> = figs.iter().map(|f| f.id).collect();
        for want in [
            "fig16a", "fig16b", "fig17a", "fig17b", "fig18a", "fig18b", "fig19a", "fig19b",
            "fig20a", "fig20b", "ext_cluster32", "ext_bimodal", "ext_wirings", "ext_buffers",
            "ext_vc4",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate figure ids");
    }

    #[test]
    fn every_curve_compiles_its_workload() {
        // Catch invalid clustering/rate combinations at definition time,
        // and run one short mid-grid point of every curve: nothing else
        // executes the `ext_*` definitions short of a full regeneration.
        for fig in all_figures() {
            let load = LOADS[LOADS.len() / 2];
            for (label, exp) in &fig.curves {
                let mut exp = exp.clone();
                exp.sim.warmup = 500;
                exp.sim.measure = 3_000;
                exp.run(load)
                    .unwrap_or_else(|e| panic!("{}/{label} at load {load}: {e}", fig.id));
            }
        }
    }

    #[test]
    fn figure_lookup() {
        assert!(figure_by_id("fig18a").is_some());
        assert!(figure_by_id("nope").is_none());
    }
}
