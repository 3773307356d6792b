//! Exhaustive optimal solver used as ground truth in tests and experiments.
//!
//! The solver explores the same normalized step space as
//! [`crate::opt_m`] (at least one frontier job completes per step, the
//! leftover goes to at most one job per resource — justified by Lemma 1),
//! but performs a memoized depth-first search **without** the domination
//! pruning of Algorithm 2.  Its running time is exponential, which is fine
//! for the small instances where it serves as an independent reference for
//! `OptResAssignment`, `OptResAssignment2` and the approximation-ratio
//! experiments.
//!
//! The DFS lives in the internal `config_search` module next to the
//! round-by-round search, written once over both arithmetics; this module
//! picks `u64` units when the instance's grid fits and exact `Ratio`s
//! otherwise, and [`brute_force_makespan_rational`] always runs on `Ratio`s
//! for cross-checking.

use crate::config_search::{self, SearchUnit, View};
use cr_core::{bounds, CancelToken, Instance, ScaledInstance};

/// Search statistics of a brute-force run (useful for reporting how much
/// work the domination pruning of Algorithm 2 saves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of distinct configurations memoized.
    pub states: usize,
    /// Number of successor expansions performed.
    pub expansions: usize,
}

fn assert_unit(instance: &Instance) {
    assert!(
        instance.is_unit_size(),
        "brute force solver requires unit-size jobs"
    );
}

/// The uncancellable DFS on one view.
fn run<V: SearchUnit>(view: &View<V>) -> (usize, SearchStats) {
    let (best, states, expansions) = config_search::brute_force(view, &CancelToken::never())
        // lint: allow(panic_hygiene) — a never-token cannot fire
        .expect("a never token cannot fire");
    (best, SearchStats { states, expansions })
}

/// Computes the optimal makespan by exhaustive search.
///
/// # Panics
///
/// Panics if the instance contains non-unit size jobs.
#[must_use]
pub fn brute_force_makespan(instance: &Instance) -> usize {
    brute_force_with_stats(instance).0
}

/// Like [`brute_force_makespan`] but also reports search statistics.
///
/// Runs on `u64` units whenever the instance's requirement denominators
/// admit a `u64` LCM, and on exact rationals otherwise.
///
/// # Panics
///
/// Panics if the instance contains non-unit size jobs.
#[must_use]
pub fn brute_force_with_stats(instance: &Instance) -> (usize, SearchStats) {
    assert_unit(instance);
    match ScaledInstance::try_new(instance) {
        Some(scaled) => run(&View::from_scaled(&scaled)),
        None => run(&View::rational(instance)),
    }
}

/// The exhaustive search in exact `Ratio` arithmetic (reference path).
///
/// # Panics
///
/// Panics if the instance contains non-unit size jobs.
#[must_use]
pub fn brute_force_makespan_rational(instance: &Instance) -> usize {
    brute_force_with_stats_rational(instance).0
}

/// Like [`brute_force_makespan_rational`] but also reports statistics.
///
/// # Panics
///
/// Panics if the instance contains non-unit size jobs.
#[must_use]
pub fn brute_force_with_stats_rational(instance: &Instance) -> (usize, SearchStats) {
    assert_unit(instance);
    run(&View::rational(instance))
}

/// Convenience wrapper asserting that a claimed makespan is optimal; returns
/// the brute-force optimum so callers can report both.
#[must_use]
pub fn verify_optimal(instance: &Instance, claimed: usize) -> usize {
    let opt = brute_force_makespan(instance);
    assert_eq!(
        opt, claimed,
        "claimed optimal makespan {claimed} differs from brute-force optimum {opt}"
    );
    opt
}

/// Returns `true` when the instance is small enough for the brute-force
/// solver to be practical (a heuristic guard used by experiment drivers).
#[must_use]
pub fn is_tractable(instance: &Instance) -> bool {
    instance.total_jobs() <= 14 && instance.processors() <= 5
}

/// The trivial lower bound re-exported here so experiment code can report
/// `(lower bound, brute force, algorithm)` triples from one import.
#[must_use]
pub fn instance_lower_bound(instance: &Instance) -> usize {
    bounds::trivial_lower_bound(instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_balance::GreedyBalance;
    use crate::opt_m::opt_m_makespan;
    use crate::opt_two::opt_two_makespan;
    use crate::round_robin::RoundRobin;
    use crate::traits::Scheduler;

    #[test]
    fn matches_opt_two_on_two_processor_instances() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]),
            Instance::unit_from_percentages(&[&[100, 1, 100], &[1, 100, 1]]),
            Instance::unit_from_percentages(&[&[55, 45, 35], &[65, 75, 85]]),
            Instance::unit_from_percentages(&[&[30, 30, 30], &[70, 70, 70]]),
        ];
        for inst in instances {
            assert_eq!(
                brute_force_makespan(&inst),
                opt_two_makespan(&inst),
                "{inst}"
            );
        }
    }

    #[test]
    fn matches_opt_m_on_three_processor_instances() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
            Instance::unit_from_percentages(&[&[100], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[50, 50, 50, 50], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[90, 5], &[80, 15], &[70, 25]]),
        ];
        for inst in instances {
            assert_eq!(brute_force_makespan(&inst), opt_m_makespan(&inst), "{inst}");
        }
    }

    #[test]
    fn optimum_is_between_lower_bound_and_heuristics() {
        let inst = Instance::unit_from_percentages(&[&[80, 20], &[70, 30], &[10, 90]]);
        let opt = brute_force_makespan(&inst);
        assert!(opt >= instance_lower_bound(&inst));
        assert!(opt <= GreedyBalance::new().makespan(&inst));
        assert!(opt <= RoundRobin::new().makespan(&inst));
    }

    #[test]
    fn verify_optimal_accepts_correct_claims() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50]]);
        assert_eq!(verify_optimal(&inst, 1), 1);
    }

    #[test]
    #[should_panic(expected = "differs from brute-force optimum")]
    fn verify_optimal_rejects_wrong_claims() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50]]);
        let _ = verify_optimal(&inst, 2);
    }

    #[test]
    fn tractability_guard() {
        assert!(is_tractable(&Instance::unit_from_percentages(&[
            &[50, 50],
            &[50, 50]
        ])));
        let big =
            Instance::unit_from_requirements(vec![vec![cr_core::Ratio::from_percent(10); 20]; 6]);
        assert!(!is_tractable(&big));
    }

    #[test]
    fn stats_are_populated() {
        let inst = Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]);
        let (opt, stats) = brute_force_with_stats(&inst);
        assert_eq!(opt, 2);
        assert!(stats.states > 0);
        assert!(stats.expansions > 0);
    }

    #[test]
    fn cancelled_rational_brute_force_stops_early() {
        let inst = Instance::unit_from_percentages(&[&[80, 20], &[70, 30], &[10, 90]]);
        let rational = View::rational(&inst);
        let scaled = View::from_scaled(&ScaledInstance::try_new(&inst).unwrap());
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Err(cr_core::CancelReason::Cancelled);
        assert_eq!(config_search::brute_force(&rational, &token), cancelled);
        assert_eq!(config_search::brute_force(&scaled, &token), cancelled);
        let live = CancelToken::new();
        let (opt, stats) = brute_force_with_stats(&inst);
        assert_eq!(
            config_search::brute_force(&scaled, &live).unwrap(),
            (opt, stats.states, stats.expansions)
        );
    }

    #[test]
    fn scaled_and_rational_paths_agree() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]),
            Instance::unit_from_percentages(&[&[80, 20], &[70, 30], &[10, 90]]),
            Instance::unit_from_percentages(&[&[0, 100], &[100, 0], &[50, 50]]),
            Instance::unit_from_percentages(&[&[50, 50, 50, 50], &[100], &[100]]),
        ];
        for inst in instances {
            assert_eq!(
                brute_force_makespan(&inst),
                brute_force_makespan_rational(&inst),
                "{inst}"
            );
        }
    }
}
