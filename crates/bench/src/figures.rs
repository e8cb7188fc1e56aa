//! The experiment bundle behind every evaluation figure.
//!
//! Each [`FigureDef`] lists the curves (labelled [`Experiment`]s) of one
//! paper figure, its offered-load grid, and the qualitative claim the
//! paper makes about it (recorded in `EXPERIMENTS.md`).

use minnet::{Experiment, NetworkSpec};
use minnet_topology::{Geometry, UnidirKind};
use minnet_traffic::{Clustering, MessageSizeDist, TrafficPattern};

/// One figure to regenerate: an id like `fig18a`, a set of labelled
/// experiment curves, and the load grid to sweep.
pub struct FigureDef {
    /// Identifier (`fig16a` … `fig20b`, `ext_*`).
    pub id: &'static str,
    /// Human title echoing the paper's caption.
    pub title: &'static str,
    /// Labelled curves.
    pub curves: Vec<(String, Experiment)>,
    /// Offered loads (flits/cycle/node) to sweep.
    pub loads: Vec<f64>,
}

/// The paper's geometry: 64 nodes of 4×4 switches, three stages.
pub fn paper_geometry() -> Geometry {
    Geometry::new(4, 3)
}

fn base(network: NetworkSpec) -> Experiment {
    Experiment::paper_default(network)
}

fn msd_clusters() -> Clustering {
    Clustering::cubes_from_patterns(&paper_geometry(), &["0XX", "1XX", "2XX", "3XX"])
        .expect("valid patterns")
}

fn lsd_clusters() -> Clustering {
    Clustering::cubes_from_patterns(&paper_geometry(), &["XX0", "XX1", "XX2", "XX3"])
        .expect("valid patterns")
}

fn cluster32() -> Clustering {
    use minnet_topology::BitCube;
    let g = paper_geometry();
    Clustering::BitCubes(vec![
        BitCube::parse(&g, "0XXXXX").expect("valid"),
        BitCube::parse(&g, "1XXXXX").expect("valid"),
    ])
}

fn default_loads() -> Vec<f64> {
    (1..=9).map(|i| i as f64 / 10.0).collect()
}

fn lineup_curves(mutate: impl Fn(&mut Experiment)) -> Vec<(String, Experiment)> {
    NetworkSpec::paper_lineup()
        .into_iter()
        .map(|spec| {
            let mut e = base(spec);
            mutate(&mut e);
            (spec.name(), e)
        })
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
        loads: default_loads(),
    });

    let mut cube16 = base(NetworkSpec::Tmin(UnidirKind::Cube));
    cube16.clustering = msd_clusters();
    let mut bf_reduced = base(NetworkSpec::Tmin(UnidirKind::Butterfly));
    bf_reduced.clustering = msd_clusters();
    let mut bf_shared = base(NetworkSpec::Tmin(UnidirKind::Butterfly));
    bf_shared.clustering = lsd_clusters();
    figs.push(FigureDef {
        id: "fig16b",
        title: "Cube vs butterfly TMIN, cluster-16 uniform traffic",
        curves: vec![
            ("cube TMIN (balanced)".into(), cube16.clone()),
            ("butterfly TMIN (reduced)".into(), bf_reduced.clone()),
            ("butterfly TMIN (shared)".into(), bf_shared.clone()),
        ],
        loads: default_loads(),
    });

    // ---- Fig. 17: cluster rate ratios ------------------------------------
    let with_rates = |e: &Experiment, rates: [f64; 4]| {
        let mut e = e.clone();
        e.rates = Some(rates.to_vec());
        e
    };
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
        loads: default_loads(),
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
        loads: default_loads(),
    });

    // ---- Fig. 18: four networks, uniform ---------------------------------
    figs.push(FigureDef {
        id: "fig18a",
        title: "TMIN / DMIN / VMIN / BMIN, global uniform traffic",
        curves: lineup_curves(|_| {}),
        loads: default_loads(),
    });
    figs.push(FigureDef {
        id: "fig18b",
        title: "TMIN / DMIN / VMIN / BMIN, cluster-16 uniform traffic",
        curves: lineup_curves(|e| e.clustering = msd_clusters()),
        loads: default_loads(),
    });

    // ---- Fig. 19: hot spots ----------------------------------------------
    figs.push(FigureDef {
        id: "fig19a",
        title: "Four networks, global 5% hot-spot traffic",
        curves: lineup_curves(|e| e.pattern = TrafficPattern::HotSpot { extra: 0.05 }),
        loads: default_loads(),
    });
    figs.push(FigureDef {
        id: "fig19b",
        title: "Four networks, global 10% hot-spot traffic",
        curves: lineup_curves(|e| e.pattern = TrafficPattern::HotSpot { extra: 0.10 }),
        loads: default_loads(),
    });

    // ---- Fig. 20: permutations ---------------------------------------------
    figs.push(FigureDef {
        id: "fig20a",
        title: "Four networks, perfect-shuffle permutation traffic",
        curves: lineup_curves(|e| e.pattern = TrafficPattern::SHUFFLE),
        loads: default_loads(),
    });
    figs.push(FigureDef {
        id: "fig20b",
        title: "Four networks, 2nd butterfly permutation traffic",
        curves: lineup_curves(|e| e.pattern = TrafficPattern::butterfly(2)),
        loads: default_loads(),
    });

    // ---- Extensions (paper §5 text and §6 future work) --------------------
    let mut c32 = lineup_curves(|e| e.clustering = cluster32());
    let mut bf32 = base(NetworkSpec::Tmin(UnidirKind::Butterfly));
    bf32.clustering = cluster32();
    c32.push(("TMIN(butterfly)".into(), bf32));
    figs.push(FigureDef {
        id: "ext_cluster32",
        title: "Cluster-32 uniform traffic (two binary 5-cube clusters)",
        curves: c32,
        loads: default_loads(),
    });

    figs.push(FigureDef {
        id: "ext_bimodal",
        title: "Four networks, bimodal message sizes (90% 8-flit, 10% 1024-flit)",
        curves: lineup_curves(|e| {
            e.sizes = MessageSizeDist::Bimodal {
                short: 8,
                long: 1024,
                p_short: 0.9,
            }
        }),
        loads: default_loads(),
    });

    let wiring_curves = [
        UnidirKind::Cube,
        UnidirKind::Omega,
        UnidirKind::Butterfly,
        UnidirKind::Baseline,
    ]
    .into_iter()
    .map(|w| {
        let mut e = base(NetworkSpec::Tmin(w));
        e.clustering = msd_clusters();
        (NetworkSpec::Tmin(w).name(), e)
    })
    .collect();
    figs.push(FigureDef {
        id: "ext_wirings",
        title: "Delta wirings under cluster-16 uniform traffic (paper §6: omega ~ cube, baseline ~ butterfly)",
        curves: wiring_curves,
        loads: default_loads(),
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
        loads: default_loads(),
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
        loads: default_loads(),
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
            let load = fig.loads[fig.loads.len() / 2];
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
