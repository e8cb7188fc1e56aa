//! # minnet
//!
//! A from-scratch reproduction of **"Performance Evaluation of
//! Switch-Based Wormhole Networks"** (Lionel M. Ni, Yadong Gui, Sherry
//! Moore; ICPP 1995 / IEEE TPDS 8(5), May 1997): flit-level simulation of
//! the four wormhole multistage interconnection networks the paper
//! compares —
//!
//! * **TMIN** — traditional unidirectional MIN (cube or butterfly wiring),
//! * **DMIN** — d-dilated MIN (the paper evaluates dilation 2),
//! * **VMIN** — MIN with virtual channels (2 VCs per physical channel),
//! * **BMIN** — bidirectional butterfly MIN (a fat tree) with turnaround
//!   routing,
//!
//! plus the workload generators, partitionability theory (§4), and the
//! experiment harness needed to regenerate every evaluation figure (§5).
//!
//! ## Quickstart
//!
//! ```
//! use minnet::{Experiment, NetworkSpec};
//! use minnet_topology::Geometry;
//!
//! // The paper's 64-node network of 4×4 switches, dilation-2 DMIN,
//! // global uniform traffic at 40% load:
//! let mut exp = Experiment::paper_default(NetworkSpec::dmin(2));
//! exp.sim.warmup = 2_000;   // small windows for the doctest
//! exp.sim.measure = 10_000;
//! let report = exp.run(0.4).unwrap();
//! assert!(report.sustainable);
//! assert!(report.mean_latency_us() > 0.0);
//! ```
//!
//! ## Curves, scenarios, jobs: one runner
//!
//! Anything larger than a single run — a latency–throughput curve,
//! replications, a degradation study, a [`Scenario`], a `minnetd` job —
//! is a grid of independent runs executed by the one experiment runner
//! in [`campaign`] (worker pool, retry ladder, checkpoint/resume) and
//! comes back annotated per point ([`PointOutcome`]). A replicated or
//! degradation point is one [`ReplicatedCampaignPoint`] — its load, its
//! fault count and one [`ReplicatedStats`] aggregate of the replications
//! that completed. [`latency_throughput_curve`] is [`campaign_curve`]
//! under the default policy with the outcomes collapsed to
//! all-or-nothing; [`sweep`] otherwise holds the saturation search.
//!
//! The lower layers are re-exported: [`minnet_topology`] (networks &
//! theory), [`minnet_routing`] (destination-tag / turnaround routing,
//! deadlock analysis), [`minnet_traffic`] (workloads), [`minnet_sim`]
//! (the engine, whose switch is the paper's: random lane choice and
//! flit-level round-robin VC multiplexing) and [`minnet_partition`] (§4
//! analysis). The differential oracle and its switch model sit behind
//! `minnet_sim`'s `reference-engine` feature, which this crate never
//! enables. Every door of an experiment — the CLI, a [`JobSpec`], a
//! `.scn` — reads its text through [`spec`], and refuses a load outside
//! (0, 1] by one rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiment;
pub mod figures;
pub mod jsonl;
pub mod model;
pub mod output;
pub mod scenario;
pub mod service;
pub mod spec;
pub mod sweep;
pub mod table;

pub use campaign::{
    campaign_curve, campaign_degradation_curve, campaign_replicated_curve, outcome_counts,
    CampaignPoint, CampaignPolicy, PointOutcome, ReplicatedCampaignPoint, ReplicatedStats,
};
pub use experiment::{CompiledExperiment, Experiment};
pub use output::OutputFile;
pub use service::{run_job, JobSpec, Request, Response, ServiceClient, ServiceStats};
pub use scenario::{
    run_scenario_files, scenario_files, verdict_report_json, CheckResult, CheckStatus, Scenario,
    ScenarioPoint, ScenarioSet, Verdict, VerdictStatus,
};
pub use spec::NetworkSpec;
pub use sweep::{find_saturation, latency_throughput_curve, saturation_load, SweepPoint};
pub use table::{curve_csv, curve_table};

// Re-export the layer crates under stable names.
pub use minnet_mcast as mcast;
pub use minnet_partition as partition;
pub use minnet_routing as routing;
pub use minnet_sim as sim;
pub use minnet_topology as topology;
pub use minnet_traffic as traffic;
