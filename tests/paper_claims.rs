//! Qualitative reproduction of the paper's §5 claims, as assertions.
//!
//! These use shorter measurement windows than the `figures` harness, so
//! they check *orderings and shapes*, not absolute numbers. Every claim
//! cites the paper passage it encodes, and runs the experiments of the
//! figure that draws it: [`curve`] takes them from `minnet::figures`.

use minnet::figures::figure_by_id;
use minnet::{Experiment, NetworkSpec};
use minnet_sim::SimReport;

fn run(mut exp: Experiment, load: f64) -> SimReport {
    exp.sim.warmup = 8_000;
    exp.sim.measure = 40_000;
    exp.run(load).expect("experiment runs")
}

/// The experiment of the curve labelled `label` in figure `id`.
fn curve(id: &str, label: &str) -> Experiment {
    let fig = figure_by_id(id).unwrap_or_else(|| panic!("no figure {id}"));
    let found = fig.curves.into_iter().find(|(l, _)| l == label);
    found.unwrap_or_else(|| panic!("{id} has no curve {label:?}")).1
}

/// Fig. 16a: "For the global uniform traffic, there is no difference
/// between their performance as expected because the whole system is one
/// partition."
#[test]
fn fig16a_cube_equals_butterfly_globally() {
    let cube = run(curve("fig16a", "cube TMIN"), 0.4);
    let butterfly = run(curve("fig16a", "butterfly TMIN"), 0.4);
    let rel = (cube.mean_latency_cycles - butterfly.mean_latency_cycles).abs()
        / cube.mean_latency_cycles;
    assert!(rel < 0.15, "cube vs butterfly differ by {rel:.2} under global uniform");
}

/// Fig. 16b: "the communication interference between four clusters in the
/// butterfly TMIN degrades the system performance … the channel-reduced
/// clustering provides the worst performance."
#[test]
fn fig16b_cluster16_orderings() {
    let cube = curve("fig16b", "cube TMIN (balanced)");
    let reduced = curve("fig16b", "butterfly TMIN (reduced)");

    // At a load the balanced cube network handles comfortably, the
    // channel-reduced butterfly (4 channels for 16 nodes) is saturated.
    let rc = run(cube, 0.4);
    let rr = run(reduced, 0.4);
    assert!(
        rc.mean_latency_cycles < rr.mean_latency_cycles,
        "cube {} vs reduced butterfly {}",
        rc.mean_latency_cycles,
        rr.mean_latency_cycles
    );
    assert!(rc.accepted_flits_per_node_cycle > rr.accepted_flits_per_node_cycle);
}

/// Fig. 17a: "In this case, the channel-shared partitioning of the
/// butterfly TMIN provides the best performance" (ratios 4:1:1:1).
#[test]
fn fig17a_channel_shared_wins_under_skew() {
    let mut cube = curve("fig17a", "cube TMIN (balanced)");
    let mut shared = curve("fig17a", "butterfly TMIN (shared)");

    // The hot cluster runs at 16/7 ≈ 2.3x nominal; the cube's 16 balanced
    // channels are its bottleneck while the shared butterfly spreads the
    // hot cluster over all 64 channels. Nominal load 0.25 puts the hot
    // cluster right at the cube's knee, where the gap is decisive on both
    // metrics (verified stable across seeds with 80k-cycle windows).
    cube.sim.warmup = 15_000;
    cube.sim.measure = 80_000;
    shared.sim.warmup = 15_000;
    shared.sim.measure = 80_000;
    let rc = cube.run(0.25).unwrap();
    let rs = shared.run(0.25).unwrap();
    assert!(
        rs.mean_latency_cycles < rc.mean_latency_cycles,
        "shared butterfly {} vs balanced cube {}",
        rs.mean_latency_cycles,
        rc.mean_latency_cycles
    );
    assert!(
        rs.accepted_flits_per_node_cycle > rc.accepted_flits_per_node_cycle,
        "shared butterfly accepted {} vs balanced cube {}",
        rs.accepted_flits_per_node_cycle,
        rc.accepted_flits_per_node_cycle
    );
}

/// Fig. 17b: "The ratio 1:0:0:0 provides a smaller maximum network
/// throughput because only one cluster of 16 nodes is able to generate
/// network traffic" — accepted throughput caps at ~25% of the 64-node
/// bound.
#[test]
fn fig17b_single_active_cluster_caps_at_quarter() {
    let mut exp = curve("fig17b", "cube TMIN 1:0:0:0");
    // Deep overload for the active cluster. Accepted throughput counts
    // flits of window-generated packets only; under overload a warmup
    // backlog would delay those far into the window and attenuate the
    // measured rate, so measure from cycle 0 — the startup transient is
    // a few hundred cycles.
    exp.sim.warmup = 0;
    exp.sim.measure = 60_000;
    let r = exp.run(0.9).expect("experiment runs");
    assert!(
        r.accepted_flits_per_node_cycle <= 0.25 + 1e-9,
        "accepted {} exceeds the 25% structural cap",
        r.accepted_flits_per_node_cycle
    );
    assert!(r.accepted_flits_per_node_cycle > 0.10, "active cluster barely moves");
}

/// Fig. 18a: "The TMIN performs the worst … The DMIN performs consistently
/// the best … the performance of the VMIN is always slightly better than
/// that of the BMIN."
#[test]
fn fig18a_four_network_ordering() {
    let load = 0.5;
    let tmin = run(curve("fig18a", "TMIN(cube)"), load);
    let dmin = run(curve("fig18a", "DMIN(cube, d=2)"), load);
    let vmin = run(curve("fig18a", "VMIN(cube, v=2)"), load);
    let bmin = run(curve("fig18a", "BMIN"), load);
    assert!(dmin.mean_latency_cycles < vmin.mean_latency_cycles, "DMIN best");
    assert!(dmin.mean_latency_cycles < bmin.mean_latency_cycles);
    assert!(tmin.mean_latency_cycles > vmin.mean_latency_cycles, "TMIN worst");
    assert!(tmin.mean_latency_cycles > bmin.mean_latency_cycles);
    assert!(
        vmin.mean_latency_cycles < bmin.mean_latency_cycles,
        "VMIN ({}) should edge out BMIN ({})",
        vmin.mean_latency_cycles,
        bmin.mean_latency_cycles
    );
    // Throughput ordering at the same offered load.
    assert!(dmin.accepted_flits_per_node_cycle >= tmin.accepted_flits_per_node_cycle);
}

/// Fig. 18b: the ordering survives cluster-16 partitioning.
#[test]
fn fig18b_ordering_survives_clustering() {
    let load = 0.5;
    let results = NetworkSpec::paper_lineup().map(|spec| run(curve("fig18b", &spec.name()), load));
    let lat = |i: usize| results[i].mean_latency_cycles;
    // lineup order: TMIN, DMIN, VMIN, BMIN.
    assert!(lat(1) < lat(0), "DMIN beats TMIN");
    assert!(lat(1) < lat(3), "DMIN beats BMIN");
    assert!(lat(0) > lat(2), "TMIN worse than VMIN");
}

/// Fig. 19: hot spots congest every network; the DMIN's 5% degradation is
/// modest while 10% cuts throughput sharply (78% → 70% → ~45% in the
/// paper).
#[test]
fn fig19_hot_spot_degradation() {
    let overload = 0.9; // probe the saturated regime
    let dmin = |fig: &str| run(curve(fig, "DMIN(cube, d=2)"), overload).accepted_flits_per_node_cycle;
    let uni = dmin("fig18a");
    let h5 = dmin("fig19a");
    let h10 = dmin("fig19b");
    assert!(h5 < uni, "5% hot spot must cost throughput ({h5} vs {uni})");
    assert!(h10 < h5, "10% must cost more ({h10} vs {h5})");
    // The 10% hot spot roughly halves the uniform saturation throughput.
    assert!(h10 < 0.75 * uni, "10% hot spot only reached {h10} vs {uni}");
    // TMIN remains the worst network under hot spots.
    let tmin10 = run(curve("fig19b", "TMIN(cube)"), overload).accepted_flits_per_node_cycle;
    assert!(tmin10 <= h10 + 0.02, "TMIN ({tmin10}) must not beat DMIN ({h10})");
}

/// Fig. 20: under permutation traffic "Both the TMIN and the VMIN have a
/// poor performance … The VMIN has worse performance than that of the
/// TMIN … Both the DMIN and the BMIN demonstrate a better performance."
#[test]
fn fig20_permutation_traffic() {
    let load = 0.6;
    // fig20a is the perfect shuffle, fig20b the 2nd butterfly.
    for fig in ["fig20a", "fig20b"] {
        let tmin = run(curve(fig, "TMIN(cube)"), load);
        let vmin = run(curve(fig, "VMIN(cube, v=2)"), load);
        let dmin = run(curve(fig, "DMIN(cube, d=2)"), load);
        let bmin = run(curve(fig, "BMIN"), load);
        // DMIN and BMIN clearly beat TMIN and VMIN on accepted throughput.
        for good in [&dmin, &bmin] {
            for bad in [&tmin, &vmin] {
                assert!(
                    good.accepted_flits_per_node_cycle > bad.accepted_flits_per_node_cycle,
                    "{fig}: good {} vs bad {}",
                    good.accepted_flits_per_node_cycle,
                    bad.accepted_flits_per_node_cycle
                );
            }
        }
        // The paper's counterintuitive VMIN < TMIN claim: fair flit-level
        // multiplexing gives all contending packets similarly long delays.
        assert!(
            vmin.mean_latency_cycles > tmin.mean_latency_cycles,
            "{fig}: VMIN ({}) should be slower than TMIN ({})",
            vmin.mean_latency_cycles,
            tmin.mean_latency_cycles
        );
    }
}

/// §6 future work: more virtual channels help the VMIN ("The performance
/// of the VMIN is expected to be better if there are additional virtual
/// channels"). Going from one lane (a TMIN) to two is a large step; two
/// to four is a small one (the full `ext_vc4` figure quantifies it), so
/// we assert the strong step strictly and the weak one with slack.
#[test]
fn ext_more_vcs_help_vmin() {
    let load = 0.5;
    let longer = |mut e: Experiment| {
        e.sim.warmup = 15_000;
        e.sim.measure = 80_000;
        e.run(load).unwrap()
    };
    // No figure draws the one-lane VMIN (it is a TMIN).
    let v1 = longer(Experiment::paper_default(NetworkSpec::vmin(1)));
    let v2 = longer(curve("ext_vc4", "VMIN(cube, v=2)"));
    let v4 = longer(curve("ext_vc4", "VMIN(cube, v=4)"));
    // 1 → 2 VCs is a large, unambiguous improvement on both metrics.
    assert!(
        v2.mean_latency_cycles < v1.mean_latency_cycles,
        "vcs=2 ({}) should clearly beat vcs=1 ({})",
        v2.mean_latency_cycles,
        v1.mean_latency_cycles
    );
    assert!(v2.accepted_flits_per_node_cycle > v1.accepted_flits_per_node_cycle);
    // 2 → 4 VCs is a marginal gain (see the ext_vc4 figure); assert it at
    // least does not cost throughput.
    assert!(
        v4.accepted_flits_per_node_cycle > v2.accepted_flits_per_node_cycle - 0.02,
        "vcs=4 accepted {} fell below vcs=2 {}",
        v4.accepted_flits_per_node_cycle,
        v2.accepted_flits_per_node_cycle
    );
}

/// §5.2 text: "The cube interconnection also showed performance
/// improvement over the butterfly interconnection" for cluster-32.
#[test]
fn ext_cluster32_cube_beats_butterfly() {
    let rc = run(curve("ext_cluster32", "TMIN(cube)"), 0.45);
    let rb = run(curve("ext_cluster32", "TMIN(butterfly)"), 0.45);
    assert!(
        rc.mean_latency_cycles < rb.mean_latency_cycles,
        "cube {} vs butterfly {}",
        rc.mean_latency_cycles,
        rb.mean_latency_cycles
    );
}
