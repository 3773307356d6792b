//! `OptResAssignment2` — the exact polynomial-time algorithm for any fixed
//! number of processors `m` (Algorithm 2, Theorem 6 of the paper).
//!
//! The algorithm performs a breadth-first search over *configurations*: the
//! vector of per-processor completed-job counts together with the amount of
//! resource already spent on each processor's current frontier job.  Round by
//! round it expands every configuration into its possible successors
//! (restricted, as justified by Lemma 1, to non-wasting and progressive
//! steps, i.e. a set of frontier jobs that complete plus at most one job that
//! receives the leftover), removes duplicates and *dominated* configurations
//! (Lemma 4), and stops as soon as a configuration with all jobs completed
//! appears.  The number of surviving configurations is polynomial in `n` for
//! fixed `m`, which yields Theorem 6's polynomial running time.
//!
//! The search itself lives in the internal `config_search` module, written
//! once over both arithmetics.  This module only picks the view: `u64`
//! units on the instance's grid whenever its denominators admit a `u64`
//! LCM, and exact `Ratio`s when they do not, when a `u64` round outgrows
//! the `u32` parent indices (a structured [`SearchError`], which
//! [`try_opt_m_makespan`] surfaces), and in [`opt_m_makespan_rational`].

use crate::config_search::{self, SearchError, View};
use crate::traits::Scheduler;
use cr_core::{CancelToken, Instance, Ratio, ScaledInstance, Schedule};

fn assert_unit(instance: &Instance) {
    assert!(
        instance.is_unit_size(),
        "OptResAssignment2 requires unit-size jobs (the setting of Theorem 6)"
    );
}

/// The optimal makespan computed by the configuration search.
///
/// Runs on `u64` units whenever the instance's requirement denominators
/// admit a `u64` LCM (always, for the families in this repository), and on
/// exact rationals otherwise or when a `u64` round outgrows its `u32`
/// parent indices.
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes.
#[must_use]
pub fn opt_m_makespan(instance: &Instance) -> usize {
    try_opt_m_makespan(instance).unwrap_or_else(|_| opt_m_makespan_rational(instance))
}

/// Like [`opt_m_makespan`], but surfaces the `u64` search's structured
/// failure instead of recovering through the rational search.
///
/// Instances whose denominators do not scale at all still run (and succeed)
/// on the rational path; the only `Err` is a round outgrowing the `u32`
/// parent indices, which callers can report or recover from via
/// [`opt_m_makespan_rational`] (exactly what [`opt_m_makespan`] does).
///
/// # Errors
///
/// [`SearchError::RoundTooLarge`] when a `u64` search round holds more
/// nodes than `u32` parent indices can address.
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes.
pub fn try_opt_m_makespan(instance: &Instance) -> Result<usize, SearchError> {
    assert_unit(instance);
    match ScaledInstance::try_new(instance) {
        Some(scaled) => Ok(rounds(&View::from_scaled(&scaled))?.len() - 1),
        None => Ok(opt_m_makespan_rational(instance)),
    }
}

/// The configuration search in exact `Ratio` arithmetic (the reference the
/// property tests cross-check the `u64` search against).
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes.
#[must_use]
pub fn opt_m_makespan_rational(instance: &Instance) -> usize {
    assert_unit(instance);
    rational_rounds(&View::rational(instance)).len() - 1
}

/// An uncapped, uncancellable search.
fn rounds<V: config_search::SearchUnit>(
    view: &View<V>,
) -> Result<Vec<config_search::Round<V>>, SearchError> {
    let found = config_search::search(view, None, &CancelToken::never())?;
    // lint: allow(panic_hygiene) — an uncapped search always reaches a final configuration and a never-token cannot fire
    Ok(found.expect("an uncapped search reaches a final configuration"))
}

/// [`rounds`] on the rational view, which cannot fail.
fn rational_rounds(view: &View<Ratio>) -> Vec<config_search::Round<Ratio>> {
    // lint: allow(panic_hygiene) — the rational view's usize parent indices never run out, so the only error cannot occur
    rounds(view).expect("usize parent indices never run out")
}

/// The exact algorithm for an arbitrary fixed number of processors.
///
/// # Examples
///
/// ```
/// use cr_algos::{OptM, Scheduler};
/// use cr_core::Instance;
///
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[40, 60], &[100]]);
/// assert_eq!(OptM::new().makespan(&inst), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OptM;

impl OptM {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        OptM
    }
}

impl Scheduler for OptM {
    fn name(&self) -> &'static str {
        "OptResAssignment2"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        assert_unit(instance);
        if let Some(scaled) = ScaledInstance::try_new(instance) {
            let view = View::from_scaled(&scaled);
            if let Ok(rounds) = rounds(&view) {
                return config_search::schedule(instance, &view, &rounds);
            }
        }
        let view = View::rational(instance);
        config_search::schedule(instance, &view, &rational_rounds(&view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_balance::GreedyBalance;
    use crate::opt_two::opt_two_makespan;
    use cr_core::{bounds, Ratio};

    #[test]
    fn matches_two_processor_dp() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]),
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100, 1, 100], &[1, 100, 1]]),
            Instance::unit_from_percentages(&[&[25, 75], &[75, 25]]),
        ];
        for inst in instances {
            assert_eq!(opt_m_makespan(&inst), opt_two_makespan(&inst), "{inst}");
        }
    }

    #[test]
    fn three_processor_instances() {
        // Three jobs of 100% on three processors: only one can run per step.
        let inst = Instance::unit_from_percentages(&[&[100], &[100], &[100]]);
        assert_eq!(opt_m_makespan(&inst), 3);

        // Perfectly packable columns.
        let inst = Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]);
        assert_eq!(opt_m_makespan(&inst), 2);

        // The Figure 2 input needs 4 steps (2 + 0.5·4 = 4 total workload, chain 4).
        let inst = Instance::unit_from_percentages(&[&[50, 50, 50, 50], &[100], &[100]]);
        assert_eq!(opt_m_makespan(&inst), 4);
    }

    #[test]
    fn schedule_reconstruction_matches_makespan() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
            Instance::unit_from_percentages(&[
                &[20, 10, 10, 10],
                &[50, 55, 90, 55, 10],
                &[50, 40, 95],
            ]),
            Instance::unit_from_percentages(&[&[90, 5], &[80, 15], &[70, 25]]),
        ];
        for inst in instances {
            let value = opt_m_makespan(&inst);
            let schedule = OptM::new().schedule(&inst);
            assert_eq!(schedule.makespan(&inst).unwrap(), value);
            assert!(value >= bounds::trivial_lower_bound(&inst));
            assert!(value <= GreedyBalance::new().makespan(&inst));
        }
    }

    #[test]
    fn optimum_never_exceeds_greedy_and_respects_bounds() {
        let inst = Instance::unit_from_percentages(&[
            &[80, 20, 60],
            &[70, 30, 50],
            &[10, 90, 25],
            &[55, 45, 35],
        ]);
        let opt = opt_m_makespan(&inst);
        let greedy = GreedyBalance::new().makespan(&inst);
        assert!(opt <= greedy);
        assert!(opt >= bounds::trivial_lower_bound(&inst));
        let m = inst.processors() as f64;
        assert!(greedy as f64 <= (2.0 - 1.0 / m) * opt as f64 + 1e-9);
    }

    #[test]
    fn scaled_and_rational_paths_agree() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
            Instance::unit_from_percentages(&[&[0, 100], &[100, 0], &[50, 50]]),
            Instance::unit_from_percentages(&[&[90, 5], &[80, 15], &[70, 25]]),
        ];
        for inst in instances {
            let scaled = opt_m_makespan(&inst);
            let rational = opt_m_makespan_rational(&inst);
            assert_eq!(scaled, rational, "{inst}");
            assert_eq!(OptM::new().schedule(&inst).makespan(&inst).unwrap(), scaled);
        }
    }

    #[test]
    fn try_variant_agrees_with_the_silent_fallback_entry_point() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]),
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
        ];
        for inst in instances {
            assert_eq!(try_opt_m_makespan(&inst).unwrap(), opt_m_makespan(&inst));
        }
    }

    #[test]
    fn forty_processor_oversubscribed_instance_solves_exactly() {
        // 40 simultaneously active processors: 4 oversubscribed heavies
        // (90% each — any two exceed the resource) plus 36 processors whose
        // chains of zero-requirement jobs keep them in the active set.  The
        // pre-ISSUE-4 scaled engine asserted `k < 32`; the rational path
        // shift-overflowed `1u32 << 40` (a debug panic, and a silent wrap to
        // a wrong enumeration in release).
        let mut reqs: Vec<Vec<Ratio>> = vec![vec![Ratio::from_percent(90)]; 4];
        reqs.extend(vec![vec![Ratio::ZERO; 2]; 36]);
        let inst = Instance::unit_from_requirements(reqs);

        // Workload 3.6 rounds up to 4: finish one heavy per step, handing
        // the growing leftover to the next (10, 20, 30 units).
        let scaled = opt_m_makespan(&inst);
        assert_eq!(scaled, 4);
        assert_eq!(opt_m_makespan_rational(&inst), 4);
        assert_eq!(crate::brute_force::brute_force_makespan(&inst), 4);
        let schedule = OptM::new().schedule(&inst);
        assert_eq!(schedule.makespan(&inst).unwrap(), 4);
    }

    #[test]
    fn empty_instance_has_zero_makespan() {
        let inst = cr_core::InstanceBuilder::new()
            .empty_processor()
            .empty_processor()
            .build();
        assert_eq!(opt_m_makespan(&inst), 0);
        assert_eq!(OptM::new().schedule(&inst).num_steps(), 0);
    }

    #[test]
    fn cancelled_rational_search_stops_early() {
        let inst = Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]);
        let view = View::rational(&inst);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            config_search::search(&view, None, &token),
            Err(SearchError::Cancelled {
                reason: cr_core::CancelReason::Cancelled
            })
        );
        // A live token reproduces the plain path exactly.
        let live = CancelToken::new();
        assert_eq!(
            config_search::search(&view, None, &live).unwrap(),
            Some(rounds(&view).unwrap())
        );
    }

    #[test]
    fn domination_is_reflexive_and_ordered() {
        let words = |completed: [u32; 2], spent: [i64; 2]| -> Vec<Ratio> {
            let mut w: Vec<Ratio> = completed.iter().map(|&c| Ratio::from(c)).collect();
            w.extend(spent.iter().map(|&p| Ratio::from_percent(p)));
            w
        };
        let a = words([2, 1], [0, 30]);
        let b = words([1, 1], [90, 10]);
        let dominates = |x: &[Ratio], y: &[Ratio]| config_search::dominates(2, 1, x, y);
        assert!(dominates(&a, &a));
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }
}
