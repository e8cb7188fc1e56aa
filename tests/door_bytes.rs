//! The bytes each door of an experiment produces, pinned by digest: a
//! `minnet sweep`'s CSV (`campaign_curve` + `curve_csv`), a `minnetd`
//! job's result JSON (`run_job`, retries and injected panics included)
//! and a `minnet scenario run --json` report (`Scenario::run` +
//! `verdict_report_json`). The same bytes at full size are what the
//! benchmark's golden digests hold; these are small enough for every
//! test run.

use minnet::{
    campaign_curve, curve_csv, run_job, verdict_report_json, CampaignPolicy, Experiment, JobSpec,
    NetworkSpec, Scenario, ScenarioSet, SweepPoint,
};
use minnet_traffic::{MessageSizeDist, TrafficPattern};

/// FNV-1a 64 of `bytes`, as hex.
fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn curve_csv_bytes_are_pinned() {
    let mut exp = Experiment::paper_default(NetworkSpec::dmin(2));
    exp.pattern = TrafficPattern::HotSpot { extra: 0.05 };
    exp.sizes = MessageSizeDist::Fixed(32);
    (exp.sim.warmup, exp.sim.measure, exp.sim.seed) = (500, 3_000, 11);
    let points = campaign_curve(&exp, &[0.1, 0.4], 2, &CampaignPolicy::default()).unwrap();
    let completed: Vec<SweepPoint> = points
        .iter()
        .map(|p| SweepPoint {
            offered: p.offered,
            report: p.outcome.ok_report().expect("every point completes").clone(),
        })
        .collect();
    let csv = curve_csv(&exp.network.name(), &completed);
    assert_eq!(digest(csv.as_bytes()), "e591575b709ab55f", "{csv}");
}

#[test]
fn job_result_bytes_are_pinned() {
    let spec = JobSpec {
        network: "vmin".into(),
        sizes: "fixed:32".into(),
        loads: vec![0.15, 0.3],
        warmup: 500,
        measure: 3_000,
        seed: 5,
        retries: 1,
        chaos_panic_attempts: 1,
        ..JobSpec::default()
    };
    let result = run_job(&spec, None, 2).unwrap();
    assert_eq!(digest(result.as_bytes()), "1cc41b0f524396be", "{result}");
}

#[test]
fn verdict_report_bytes_are_pinned() {
    let texts = [
        (
            "faulted.scn",
            "network = bmin\nsizes = fixed:32\nwarmup = 500\nmeasure = 3000\nseed = 3\n\
             loads = 0.1, 0.3\nfault = channel 20 @ 100..900\nchaos.target = channel\n\
             chaos.count = 1\nchaos.min_onset = 200\nchaos.max_onset = 600\n\
             chaos.duration = 200\nexpect.delivery = 0.5\nexpect.no_stall = true\n",
        ),
        (
            "scripted.scn",
            "network = vmin\nwarmup = 0\nmeasure = 5000\nmessage = 0 0 63 40\n\
             message = 10 5 12 8\nmessage = 10 6 12 8\nexpect.delivery = 1\n",
        ),
    ];
    let mut set = ScenarioSet {
        verdicts: Vec::new(),
        skipped: Vec::new(),
    };
    for (origin, text) in texts {
        let scenario = Scenario::parse(text, origin).unwrap();
        set.verdicts.push(scenario.run(2, &CampaignPolicy::default()).unwrap());
    }
    let json = verdict_report_json(&set);
    assert_eq!(digest(json.as_bytes()), "94cef4e96e185870", "{json}");
}
