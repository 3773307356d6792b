//! The three seeded request streams the benchmark sends.
//!
//! Each workload turns into a stream of *flushes*: the request lines one
//! blank-line flush carries.  The server only ever sees these lines; the
//! seed fixes them byte for byte.

use cr_algos::solver::POLY_METHODS;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed of the fixed `exact_optm` corpus (see [`Kind::ExactOptm`]).
pub const EXACT_CORPUS_SEED: u64 = 0x0E_0A_C7;

/// Instances in the `serve_compare` pool.
const COMPARE_POOL: usize = 8;

/// `exact_optm` corpus: `k = 1` instances of 4 processors × 3 jobs.
const EXACT_K1: usize = 24;

/// `exact_optm` corpus: `k = 2` instances of 3 processors × 6 jobs.
const EXACT_K2: usize = 60;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The production-shaped loadgen stream, one request per flush, a fresh
    /// instance on every line.
    ServeMix,
    /// Method-comparison flushes: one 8 × 16 instance through the six
    /// polynomial schedulers (with schedules), `Bounds` and
    /// `sim:GreedyBalance`, cycling a small seeded pool.
    ServeCompare,
    /// One `OptM` request per flush over a fixed corpus of `k = 1` and
    /// `k = 2` instances, in whole passes whose order the seed shuffles.
    /// The corpus is fixed because exact-search cost is heavy-tailed: a
    /// corpus drawn per seed moves the pass time by far more than any
    /// bound the benchmark could hold.
    ExactOptm,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::ServeMix, Kind::ServeCompare, Kind::ExactOptm];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeMix => "serve_mix",
            Kind::ServeCompare => "serve_compare",
            Kind::ExactOptm => "exact_optm",
        }
    }
}

/// The request lines of one flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flush {
    /// One JSON request per line, no trailing newline.
    pub lines: Vec<String>,
    /// Index into the workload's repeating pool: flushes with equal keys
    /// carry equal lines.  `None` for never-repeating flushes.
    pub key: Option<usize>,
}

/// A seeded, endless stream of flushes.
pub struct Stream {
    kind: Kind,
    rng: StdRng,
    slot: usize,
    pool: Vec<Vec<String>>,
    order: Vec<usize>,
}

/// A percent grid of `m` rows × `n` jobs, requirements uniform on 1..=100.
fn percent_grid(rng: &mut StdRng, m: usize, n: usize) -> String {
    let rows: Vec<String> = (0..m)
        .map(|_| {
            let row: Vec<String> = (0..n)
                .map(|_| rng.random_range(1u64..=100).to_string())
                .collect();
            format!("[{}]", row.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The eight lines of one method-comparison flush on one instance.
fn compare_flush(rows: &str) -> Vec<String> {
    let mut lines: Vec<String> = POLY_METHODS
        .iter()
        .map(|m| format!(r#"{{"method":"{m}","want_schedule":true,"rows":{rows}}}"#))
        .collect();
    for m in ["Bounds", "sim:GreedyBalance"] {
        lines.push(format!(r#"{{"method":"{m}","rows":{rows}}}"#));
    }
    lines
}

/// The fixed `exact_optm` corpus: the `k = 1` half, then the `k = 2` half.
fn exact_corpus() -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(EXACT_CORPUS_SEED);
    let mut corpus = Vec::with_capacity(EXACT_K1 + EXACT_K2);
    for _ in 0..EXACT_K1 {
        let rows = percent_grid(&mut rng, 4, 3);
        corpus.push(vec![format!(r#"{{"method":"OptM","rows":{rows}}}"#)]);
    }
    for _ in 0..EXACT_K2 {
        let rows = percent_grid(&mut rng, 3, 6);
        let layer = percent_grid(&mut rng, 3, 6);
        corpus.push(vec![format!(
            r#"{{"method":"OptM","rows":{rows},"resources":[{layer}]}}"#
        )]);
    }
    corpus
}

impl Stream {
    /// The stream of `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = match kind {
            Kind::ServeMix => Vec::new(),
            Kind::ServeCompare => (0..COMPARE_POOL)
                .map(|_| compare_flush(&percent_grid(&mut rng, 8, 16)))
                .collect(),
            Kind::ExactOptm => exact_corpus(),
        };
        Stream {
            kind,
            rng,
            slot: 0,
            pool,
            order: Vec::new(),
        }
    }

    /// Flushes in one pass over the pool (`None` for the endless mix).
    pub fn pass_len(&self) -> Option<usize> {
        (!self.pool.is_empty()).then_some(self.pool.len())
    }

    /// Flushes sent before timing starts.  They warm the server's cache and
    /// form the fixed count window whose work counters repeat exactly.
    pub fn warmup_flushes(&self) -> usize {
        match self.kind {
            Kind::ServeMix => 1000,
            Kind::ServeCompare => 2 * COMPARE_POOL,
            Kind::ExactOptm => self.pool.len(),
        }
    }

    /// The next flush.
    pub fn next_flush(&mut self) -> Flush {
        let slot = self.slot;
        self.slot += 1;
        match self.kind {
            Kind::ServeMix => Flush {
                lines: vec![cr_bench::loadgen::request_line(&mut self.rng, slot, 0)],
                key: None,
            },
            Kind::ServeCompare => {
                let key = slot % self.pool.len();
                Flush {
                    lines: self.pool[key].clone(),
                    key: Some(key),
                }
            }
            Kind::ExactOptm => {
                let pos = slot % self.pool.len();
                if pos == 0 {
                    self.order = (0..self.pool.len()).collect();
                    for i in (1..self.order.len()).rev() {
                        let j = self.rng.random_range(0..=i as u64) as usize;
                        self.order.swap(i, j);
                    }
                }
                let key = self.order[pos];
                Flush {
                    lines: self.pool[key].clone(),
                    key: Some(key),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(kind: Kind, seed: u64, flushes: usize) -> String {
        let mut stream = Stream::new(kind, seed);
        (0..flushes)
            .map(|_| stream.next_flush().lines.join("\n"))
            .collect::<Vec<_>>()
            .join("\n\n")
    }

    #[test]
    fn the_seed_fixes_the_byte_stream() {
        for kind in Kind::ALL {
            let n = 2 * Stream::new(kind, 0).warmup_flushes();
            assert_eq!(bytes(kind, 7, n), bytes(kind, 7, n), "{}", kind.name());
            assert_ne!(bytes(kind, 7, n), bytes(kind, 8, n), "{}", kind.name());
        }
    }

    #[test]
    fn pooled_flushes_repeat_their_lines() {
        let mut stream = Stream::new(Kind::ExactOptm, 3);
        let pass = stream.pass_len().expect("exact_optm cycles a corpus");
        let flushes: Vec<Flush> = (0..2 * pass).map(|_| stream.next_flush()).collect();
        let first = &flushes[..pass];
        let mut keys: Vec<usize> = first.iter().filter_map(|f| f.key).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            (0..pass).collect::<Vec<_>>(),
            "a pass visits every entry once"
        );
        for a in &flushes {
            for b in &flushes {
                if a.key == b.key {
                    assert_eq!(a.lines, b.lines);
                }
            }
        }
    }
}
