//! Campaign resilience integration tests: the kill-at-random-point +
//! resume bitwise-identity contract, across all four paper networks,
//! and the graceful-degradation campaign's §3 path-diversity result.
//!
//! The property: take a replicated or degradation campaign
//! checkpointed to a JSONL file, simulate a SIGKILL by truncating the
//! file after an arbitrary number of completed tasks (optionally with a
//! torn half-line, which is exactly what a kill mid-`write` leaves),
//! resume from the truncated checkpoint — and the resumed curve must be
//! **bitwise identical** to an uninterrupted run without any checkpoint
//! at all.
//! This holds because per-task seeds are schedule- and thread-count
//! independent, and floats are checkpointed as `f64::to_bits` patterns.

use minnet::{
    campaign_degradation_curve, campaign_replicated_curve, outcome_counts, CampaignPolicy,
    Experiment, NetworkSpec, PointOutcome,
};
use minnet_traffic::MessageSizeDist;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn quick(spec: NetworkSpec, seed: u64) -> Experiment {
    let mut e = Experiment::paper_default(spec);
    e.sizes = MessageSizeDist::Fixed(32);
    e.sim.warmup = 500;
    e.sim.measure = 4_000;
    e.sim.seed = seed;
    e
}

/// A unique temp path per call (proptest cases and tests run in
/// parallel).
fn temp_ckpt() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("minnet_campaign_{}_{n}.jsonl", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Two campaigns' reports are equal, bit for bit, task by task.
fn assert_same_reports<'a>(
    a: impl Iterator<Item = &'a Vec<PointOutcome>>,
    b: impl Iterator<Item = &'a Vec<PointOutcome>>,
    what: &str,
) {
    let (a, b): (Vec<_>, Vec<_>) = (a.flatten().collect(), b.flatten().collect());
    assert_eq!(a.len(), b.len(), "{what}: task count");
    for (r, s) in a.iter().zip(&b) {
        let r = r.ok_report().expect("healthy campaign: all Ok");
        let s = s.ok_report().expect("healthy campaign: all Ok");
        assert!(r.bitwise_eq(s), "{what}: reports diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_curve_bitwise(
        net_idx in 0usize..4,
        seed in 1u64..1_000_000,
        // Which campaign is killed: the replicated load curve, or the
        // degradation curve (masked tables, refusals, its own header).
        degradation in proptest::bool::ANY,
        // How many completed tasks survive the "kill" (grid is
        // 2 points × 2 replications = 4 tasks; 0..=4 keeps every
        // truncation point reachable).
        survivors in 0usize..=4,
        torn_tail in proptest::bool::ANY,
    ) {
        let spec = NetworkSpec::paper_lineup()[net_idx];
        let exp = quick(spec, seed);
        let loads = [0.1, 0.3];
        let fault_counts = [0, 2];
        let replications = 2;
        // Per point: the replication outcomes, and the aggregate's
        // latency mean / CI bits.
        let run = |policy: &CampaignPolicy| -> (Vec<Vec<PointOutcome>>, Vec<[u64; 2]>) {
            if degradation {
                campaign_degradation_curve(&exp, 0.2, &fault_counts, replications, 2, policy)
                    .unwrap()
                    .into_iter()
                    .map(|p| {
                        let s = p.ok_stats.expect("healthy campaign: all Ok");
                        let (mean, ci95) = (s.mean_latency_cycles, s.latency_ci95_cycles);
                        (p.outcomes, [mean.to_bits(), ci95.to_bits()])
                    })
                    .unzip()
            } else {
                campaign_replicated_curve(&exp, &loads, replications, 2, policy)
                    .unwrap()
                    .into_iter()
                    .map(|p| {
                        let s = p.ok_stats.expect("healthy campaign: all Ok");
                        let (mean, ci95) = (s.mean_latency_cycles, s.latency_ci95_cycles);
                        (p.outcomes, [mean.to_bits(), ci95.to_bits()])
                    })
                    .unzip()
            }
        };

        // The uninterrupted references: the default policy (no
        // checkpoint file at all — the strict surface's own runs) and a
        // checkpointed campaign run to completion.
        let (fragile, _) = run(&CampaignPolicy::default());
        let path = temp_ckpt();
        let _cleanup = Cleanup(path.clone());
        let (uninterrupted, uninterrupted_stats) = run(&CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        });

        // Simulate the SIGKILL: keep the header + `survivors` task
        // lines, optionally followed by the torn half-line an in-flight
        // `write` leaves behind.
        let full = std::fs::read_to_string(&path).unwrap();
        prop_assert_eq!(full.lines().count(), 1 + loads.len() * replications);
        let mut truncated: String =
            full.split_inclusive('\n').take(1 + survivors).collect();
        if torn_tail {
            truncated.push_str("{\"task\":3,\"attempts\":1,\"outcome\":\"ok\",\"rep");
        }
        std::fs::write(&path, truncated).unwrap();

        let (resumed, resumed_stats) = run(&CampaignPolicy {
            checkpoint: Some(path.clone()),
            require_existing: true,
            ..CampaignPolicy::default()
        });

        prop_assert_eq!(resumed.len(), loads.len());
        prop_assert!(resumed.iter().all(|outcomes| outcomes.len() == replications));
        assert_same_reports(resumed.iter(), uninterrupted.iter(), "resumed vs uninterrupted");
        assert_same_reports(resumed.iter(), fragile.iter(), "resumed vs the strict surface");
        prop_assert_eq!(resumed_stats, uninterrupted_stats);
    }
}

#[test]
fn zero_fault_degradation_equals_the_replicated_curve_on_every_network() {
    // `campaign_degradation_curve`'s doc comment: a lone `[0]` entry
    // reproduces the replicated curve's reports at one load bit-exactly.
    let policy = CampaignPolicy::default();
    for spec in NetworkSpec::paper_lineup() {
        let exp = quick(spec, 11);
        let degraded = campaign_degradation_curve(&exp, 0.2, &[0], 3, 2, &policy).unwrap();
        let plain = campaign_replicated_curve(&exp, &[0.2], 3, 2, &policy).unwrap();
        assert_same_reports(
            degraded.iter().map(|p| &p.outcomes),
            plain.iter().map(|p| &p.outcomes),
            &spec.name(),
        );
    }
}

#[test]
fn degradation_curve_separates_path_diversity_from_single_paths() {
    // The §3 path-diversity result as EXPERIMENTS.md tabulates it: load
    // 0.2, 64-flit messages, the default seed, 0 / 1 / 2 / 4 dead
    // inter-stage links, 3 replications. BMIN and DMIN route around
    // every fault set; TMIN and VMIN have one path per (src, dst) and
    // refuse strictly more traffic at each step — counted, never
    // stalled — while what is still connected keeps its throughput.
    let policy = CampaignPolicy::default();
    for spec in NetworkSpec::paper_lineup() {
        let name = spec.name();
        let mut exp = Experiment::paper_default(spec);
        exp.sizes = MessageSizeDist::Fixed(64);
        exp.sim.warmup = 500;
        exp.sim.measure = 4_000;
        let curve = |threads| {
            campaign_degradation_curve(&exp, 0.2, &[0, 1, 2, 4], 3, threads, &policy).unwrap()
        };
        let points = curve(1);
        assert_same_reports(
            points.iter().map(|p| &p.outcomes),
            curve(4).iter().map(|p| &p.outcomes),
            &format!("{name}, threads 1 vs 4"),
        );

        let diverse = matches!(spec, NetworkSpec::Bmin | NetworkSpec::Dmin(..));
        let mut refused_before = 0.0;
        for p in &points {
            let at = format!("{name} at {} faults", p.fault_count);
            assert_eq!(outcome_counts(&p.outcomes), (3, 0, 0), "{at}");
            let s = p.ok_stats.as_ref().expect("three ok replications");
            let accepted = s.accepted_flits_per_node_cycle;
            assert!(accepted >= 0.18, "{at}: accepted {accepted}");
            let refused = s.mean_undeliverable_packets;
            if diverse || p.fault_count == 0 {
                assert_eq!(refused, 0.0, "{at}");
                assert_eq!(s.mean_aborted_packets, 0.0, "{at}");
            } else {
                assert!(refused > refused_before, "{at}: {refused} refused");
            }
            refused_before = refused;
        }
    }
}

#[test]
fn mismatched_config_hash_is_refused_with_a_clear_error() {
    let exp = quick(NetworkSpec::tmin(), 7);
    let loads = [0.1, 0.3];
    let path = temp_ckpt();
    let _cleanup = Cleanup(path.clone());
    let policy = CampaignPolicy {
        checkpoint: Some(path.clone()),
        ..CampaignPolicy::default()
    };
    campaign_replicated_curve(&exp, &loads, 2, 2, &policy).unwrap();

    // Same checkpoint, different experiment seed → different campaign.
    let other = quick(NetworkSpec::tmin(), 8);
    let err = campaign_replicated_curve(&other, &loads, 2, 2, &policy).unwrap_err();
    assert!(err.contains("config hash"), "unhelpful refusal: {err}");
    assert!(err.contains("refusing to resume"), "{err}");

    // A curve-kind campaign may not resume a replicated checkpoint.
    let err = minnet::campaign_curve(&exp, &loads, 2, &policy).unwrap_err();
    assert!(err.contains("campaign"), "{err}");
}
