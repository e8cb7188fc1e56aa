//! Benchmarks for the compile-once / run-many pipeline.
//!
//! Two questions, one bench each (plus the compile cost for context):
//!
//! * **Setup amortization** — what fraction of a short probe's cost was
//!   per-run setup (spec validation, graph build, workload compilation,
//!   ~20 state allocations)? `one_shot` pays it every iteration;
//!   `compiled` pays it once outside the timer and only re-runs the
//!   simulation against a reused [`EngineState`].
//! * **Saturation search** — `find_saturation` end to end, the sweep
//!   primitive the figures pipeline leans on hardest; compiling must not
//!   regress its hot loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minnet::{find_saturation, CompiledExperiment, Experiment, NetworkSpec};
use minnet_sim::EngineState;
use minnet_traffic::MessageSizeDist;

/// A short probe — the shape `find_saturation` and replicated sweeps
/// issue by the dozen, where fixed setup cost bites hardest.
fn probe_experiment(spec: NetworkSpec) -> Experiment {
    let mut exp = Experiment::paper_default(spec);
    exp.sizes = MessageSizeDist::Fixed(64);
    exp.sim.warmup = 200;
    exp.sim.measure = 2_000;
    exp
}

fn setup_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_setup");
    group.sample_size(10);
    for spec in [NetworkSpec::tmin(), NetworkSpec::Bmin] {
        let exp = probe_experiment(spec);
        group.bench_with_input(
            BenchmarkId::new("one_shot", spec.name()),
            &exp,
            |b, exp| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    exp.run_seeded(0.3, seed).expect("simulation runs")
                });
            },
        );
        let compiled = exp.compile().expect("experiment compiles");
        group.bench_with_input(
            BenchmarkId::new("compiled", spec.name()),
            &compiled,
            |b, compiled| {
                let mut st = EngineState::new();
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    compiled
                        .run_with(0.3, seed, &mut st)
                        .expect("simulation runs")
                });
            },
        );
    }
    group.finish();
}

fn saturation_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_saturation");
    group.sample_size(10);
    let exp = probe_experiment(NetworkSpec::dmin(2));
    group.bench_function("find_saturation", |b| {
        b.iter(|| {
            find_saturation(&exp, 0.1, 1.0, 5)
                .expect("search runs")
                .expect("bracket holds")
        });
    });
    group.finish();
}

fn compile_cost(c: &mut Criterion) {
    // The fixed cost a sweep pays once — for context against the per-run
    // numbers above.
    let mut group = c.benchmark_group("compiled_build");
    group.sample_size(10);
    for spec in [NetworkSpec::tmin(), NetworkSpec::Bmin] {
        let exp = probe_experiment(spec);
        group.bench_with_input(BenchmarkId::from_parameter(spec.name()), &exp, |b, exp| {
            b.iter(|| CompiledExperiment::compile(exp).expect("experiment compiles"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    setup_amortization,
    saturation_search,
    compile_cost
);
criterion_main!(benches);
