//! E6 — runtime scaling of `OptResAssignment` (the exact O(n²) dynamic
//! program for two processors, Theorem 5), dense versus sparse variant,
//! on random instances and on the Figure 3 family.
//!
//! Neither the sparse variant nor the Figure 3 family appears in
//! `bench_exact` or a `BENCH_pipeline.json` table, so these cases keep their
//! own bench.  Run with `cargo bench -p cr-bench --bench bench_opt2`; it
//! prints one `median … ns/iter` line per case.

use cr_algos::{opt_two_makespan, opt_two_makespan_sparse};
use cr_core::Instance;
use cr_instances::{random_unit_instance, round_robin_worst_case, RandomConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 15;
const WARM_UP: Duration = Duration::from_millis(400);

/// Times `solve` on `instance`: a warm-up, then the median of
/// [`SAMPLES`] single runs.
fn bench(label: &str, instance: &Instance, solve: fn(&Instance) -> usize) {
    let warm_up = Instant::now();
    while warm_up.elapsed() < WARM_UP {
        black_box(solve(black_box(instance)));
    }
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(solve(black_box(instance)));
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[SAMPLES / 2].as_nanos();
    println!("bench {label:<52} median {median:>12} ns/iter");
}

fn main() {
    for n in [32usize, 128, 512, 1024] {
        let instance = random_unit_instance(&RandomConfig::uniform(2, n), 11);
        bench(&format!("opt_two/dense/{n}"), &instance, opt_two_makespan);
        bench(
            &format!("opt_two/sparse/{n}"),
            &instance,
            opt_two_makespan_sparse,
        );
    }
    for n in [100usize, 400] {
        let instance = round_robin_worst_case(n);
        bench(
            &format!("opt_two_fig3_family/dense/{n}"),
            &instance,
            opt_two_makespan,
        );
    }
}
