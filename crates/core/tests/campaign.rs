//! Campaign resilience integration tests: the kill-at-random-point +
//! resume bitwise-identity contract, across all four paper networks.
//!
//! The property: take a replicated campaign checkpointed to a JSONL
//! file, simulate a SIGKILL by truncating the file after an arbitrary
//! number of completed tasks (optionally with a torn half-line, which
//! is exactly what a kill mid-`write` leaves), resume from the
//! truncated checkpoint — and the resumed curve must be **bitwise
//! identical** to an uninterrupted run without any checkpoint at all.
//! This holds because per-task seeds are schedule- and thread-count
//! independent, and floats are checkpointed as `f64::to_bits` patterns.

use minnet::{
    campaign_replicated_curve, replicated_curve, CampaignPolicy, Experiment, NetworkSpec,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_curve_bitwise(
        net_idx in 0usize..4,
        seed in 1u64..1_000_000,
        // How many completed tasks survive the "kill" (grid is
        // 2 loads × 2 replications = 4 tasks; 0..=4 keeps every
        // truncation point reachable).
        survivors in 0usize..=4,
        torn_tail in proptest::bool::ANY,
    ) {
        let spec = NetworkSpec::paper_lineup()[net_idx];
        let exp = quick(spec, seed);
        let loads = [0.1, 0.3];
        let replications = 2;

        // The uninterrupted references: the strict surface (default
        // policy, no checkpoint file at all) and a checkpointed
        // campaign run to completion.
        let fragile = replicated_curve(&exp, &loads, replications, 2).unwrap();
        let path = temp_ckpt();
        let _cleanup = Cleanup(path.clone());
        let policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            ..CampaignPolicy::default()
        };
        let uninterrupted =
            campaign_replicated_curve(&exp, &loads, replications, 2, &policy).unwrap();

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

        let resume_policy = CampaignPolicy {
            checkpoint: Some(path.clone()),
            require_existing: true,
            ..CampaignPolicy::default()
        };
        let resumed =
            campaign_replicated_curve(&exp, &loads, replications, 2, &resume_policy).unwrap();

        prop_assert_eq!(resumed.len(), loads.len());
        for ((r, u), f) in resumed.iter().zip(&uninterrupted).zip(&fragile) {
            prop_assert_eq!(r.outcomes.len(), replications);
            for ((ro, uo), fr) in r.outcomes.iter().zip(&u.outcomes).zip(&f.replications) {
                let ro = ro.ok_report().expect("healthy campaign: all Ok");
                prop_assert!(ro.bitwise_eq(uo.ok_report().unwrap()),
                    "resumed point diverged from uninterrupted campaign");
                prop_assert!(ro.bitwise_eq(fr),
                    "resumed point diverged from the strict surface");
            }
            let (rs, us) = (r.ok_stats.as_ref().unwrap(), u.ok_stats.as_ref().unwrap());
            prop_assert_eq!(
                rs.mean_latency_cycles.to_bits(),
                us.mean_latency_cycles.to_bits()
            );
            prop_assert_eq!(
                rs.latency_ci95_cycles.to_bits(),
                us.latency_ci95_cycles.to_bits()
            );
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
