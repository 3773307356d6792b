//! Golden responses of the schedule-producing methods.
//!
//! Every polynomial heuristic, `Bounds`, the online `sim:GreedyBalance`
//! and the schedule replays of `OptM`/`OptTwo` are rendered through
//! [`wire::process_batch`] for every engine preference, with and without
//! `want_schedule`, over seeded percent grids (`k = 1` from 2×1 to 8×16
//! and `k = 2` `resources` grids) plus hand-built `instance` corner cases:
//! sized volumes with a zero-requirement job and an empty processor, a
//! requirement grid that overflows `u64`, a scheduling grid that overflows
//! while the solver grid fits, and a `k = 2` instance whose extra layer
//! overflows.  The rendered lines must match
//! `tests/data/heuristics_golden.jsonl` byte for byte.
//!
//! Regenerate deliberately (after an intended behaviour change) with
//!
//! ```text
//! $ cargo test -p cr-service --test heuristics_golden -- --ignored
//! ```

use cr_algos::solver::POLY_METHODS;
use cr_core::{ratio, Instance, InstanceBuilder, Job, Ratio};
use cr_service::{wire, SolverService};
use std::path::PathBuf;

const ENGINES: [&str; 3] = ["auto", "scaled", "rational"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/heuristics_golden.jsonl")
}

/// A tiny deterministic generator (64-bit LCG, high bits), so the golden
/// inputs never depend on another crate's random stream.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }

    /// An `m × n` grid of percentages in `1..=100`.
    fn grid(&mut self, m: usize, n: usize) -> Vec<Vec<u64>> {
        (0..m)
            .map(|_| (0..n).map(|_| 1 + self.below(100)).collect())
            .collect()
    }
}

fn grid_json(grid: &[Vec<u64>]) -> String {
    serde_json::to_string(grid).expect("grids serialize")
}

/// One instance of the golden corpus: its wire fragment and whether the
/// exact methods are cheap enough to run on it.
struct Case {
    fragment: String,
    exact: bool,
}

fn cases() -> Vec<Case> {
    let mut rng = Lcg(0x5eed_2014);
    let mut out = Vec::new();
    for (m, n) in [(2, 1), (2, 3), (3, 3), (3, 4), (4, 4), (5, 6), (8, 16)] {
        let grid = rng.grid(m, n);
        out.push(Case {
            fragment: format!(r#""rows":{}"#, grid_json(&grid)),
            exact: m * n <= 9,
        });
    }
    for (m, n) in [(2, 2), (3, 3), (4, 5)] {
        let rows = rng.grid(m, n);
        let layer = rng.grid(m, n);
        out.push(Case {
            fragment: format!(
                r#""rows":{},"resources":[{}]"#,
                grid_json(&rows),
                grid_json(&layer)
            ),
            exact: m * n <= 9,
        });
    }
    let instance = |inst: &Instance| {
        format!(
            r#""instance":{}"#,
            serde_json::to_string(inst).expect("instances serialize")
        )
    };
    // Sized volumes, a zero-requirement job and an empty processor.
    let sized = InstanceBuilder::new()
        .processor_jobs([
            Job::new(Ratio::ZERO, ratio(5, 2)),
            Job::new(ratio(3, 4), ratio(3, 2)),
        ])
        .processor_jobs([Job::new(ratio(1, 3), ratio(7, 3)), Job::unit(ratio(1, 2))])
        .empty_processor()
        .processor_jobs([Job::new(ratio(9, 10), ratio(1, 2))])
        .build();
    out.push(Case {
        fragment: instance(&sized),
        exact: false,
    });
    // Two coprime denominators near 2^32: the requirement grid overflows
    // u64 (the sums the solvers form stay within `Ratio`'s i128 range).
    let (p0, p1): (i128, i128) = (4_294_967_291, 4_294_967_279);
    let overflow = InstanceBuilder::new()
        .processor([ratio(1, p0), ratio(1, 2)])
        .processor([ratio(3, p1)])
        .build();
    out.push(Case {
        fragment: instance(&overflow),
        exact: true,
    });
    // A prime denominator near 7·10^18: the solvers' `2·D` grid fits, the
    // scheduling layer's `(m + 1)·D` grid does not.
    let p: i128 = 7_000_000_000_000_000_013;
    let wide = InstanceBuilder::new()
        .processor([ratio(p - 1, p), ratio(1, p)])
        .processor([ratio(2, p)])
        .build();
    out.push(Case {
        fragment: instance(&wide),
        exact: true,
    });
    // k = 2 with a fitting base layer and an overflowing extra layer.
    let split = InstanceBuilder::new()
        .processor([ratio(3, 10), ratio(7, 10)])
        .processor([ratio(1, 2), ratio(1, 5)])
        .processor([ratio(9, 10)])
        .extra_layer([
            vec![ratio(1, p0), ratio(1, 2)],
            vec![ratio(3, p1), ratio(1, 4)],
            vec![ratio(1, 2)],
        ])
        .build();
    out.push(Case {
        fragment: instance(&split),
        exact: false,
    });
    out
}

fn request_lines() -> Vec<String> {
    let mut methods: Vec<&str> = POLY_METHODS.to_vec();
    methods.extend(["Bounds", "sim:GreedyBalance"]);
    let mut lines = Vec::new();
    for case in cases() {
        let mut case_methods = methods.clone();
        if case.exact {
            case_methods.extend(["OptM", "OptTwo"]);
        }
        for method in case_methods {
            for engine in ENGINES {
                for want in [false, true] {
                    lines.push(format!(
                        r#"{{"method":"{method}","engine":"{engine}","want_schedule":{want},{}}}"#,
                        case.fragment
                    ));
                }
            }
        }
    }
    lines
}

fn render() -> String {
    let service = SolverService::with_standard_registry();
    let mut out = String::new();
    for line in wire::process_batch(&service, &request_lines(), 0) {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn responses_match_the_golden() {
    let rendered = render();
    let golden = std::fs::read_to_string(golden_path())
        .expect("tests/data/heuristics_golden.jsonl exists (run the ignored regenerate test)");
    let requests = request_lines();
    let (got, want): (Vec<&str>, Vec<&str>) =
        (rendered.lines().collect(), golden.lines().collect());
    assert_eq!(got.len(), want.len(), "response count diverged");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "line {i} diverged; request: {}", requests[i]);
    }
}

#[test]
#[ignore = "rewrites tests/data/heuristics_golden.jsonl"]
fn regenerate_golden() {
    std::fs::write(golden_path(), render()).expect("golden file is writable");
}
