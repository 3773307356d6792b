//! Baseline heuristics.
//!
//! The discrete-continuous scheduling literature surveyed in Section 2 of the
//! paper mostly relies on heuristics without worst-case guarantees.  The
//! heuristics in this module play that role in the experiment harness: they
//! are natural resource-arbitration policies a practitioner might deploy on a
//! shared-bus many-core, and the benchmarks compare them against the paper's
//! algorithms.
//!
//! * [`EqualShare`] — split the resource uniformly among active processors,
//!   ignoring requirements entirely (wastes whatever a job cannot absorb).
//! * [`ProportionalShare`] — split the resource proportionally to the active
//!   jobs' current step demands.
//! * [`LargestRequirementFirst`] — serve active jobs in order of decreasing
//!   remaining requirement (a "clear the big rocks first" greedy).
//! * [`SmallestRequirementFirst`] — serve active jobs in order of increasing
//!   remaining requirement (maximizes the number of jobs finished per step;
//!   this is the schedule depicted in Figure 1 of the paper).
//!
//! All four run on the shared step rules in the crate's `multi_sched`
//! module, like [`GreedyBalance`](crate::GreedyBalance) and
//! [`RoundRobin`](crate::RoundRobin).
//!
//! # Exact splits on the unit grid
//!
//! The splitting heuristics divide the resource as a pool of `D` integer
//! units (`D` = the instance's requirement/workload denominator LCM, see
//! [`cr_core::scaled::layer_grid`]), with deterministic largest-remainder
//! rounding ([`cr_core::scaled::largest_remainder_split`]).  Shares
//! therefore always sum to exactly one pool — no sliver is wasted, and a
//! positive demand is only ever given zero units when the whole pool went
//! to other positive demands, so no core starves.  The exact
//! [`Ratio`](cr_core::Ratio) engine applies the same split on the same
//! grid, and divides exactly only when the grid overflows `u64`.

use crate::multi_sched::{self, PolyKind};
use crate::traits::Scheduler;
use cr_core::{Instance, Schedule};

/// Splits the resource uniformly among all active processors.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualShare;

impl EqualShare {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Self {
        EqualShare
    }
}

impl Scheduler for EqualShare {
    fn name(&self) -> &'static str {
        "EqualShare"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::EqualShare, instance)
    }
}

/// Splits the resource proportionally to the active jobs' step demands.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProportionalShare;

impl ProportionalShare {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Self {
        ProportionalShare
    }
}

impl Scheduler for ProportionalShare {
    fn name(&self) -> &'static str {
        "ProportionalShare"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::ProportionalShare, instance)
    }
}

/// Serves active jobs in order of decreasing remaining requirement.
#[derive(Debug, Clone, Copy, Default)]
pub struct LargestRequirementFirst;

impl LargestRequirementFirst {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Self {
        LargestRequirementFirst
    }
}

impl Scheduler for LargestRequirementFirst {
    fn name(&self) -> &'static str {
        "LargestRequirementFirst"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::LargestRequirementFirst, instance)
    }
}

/// Serves active jobs in order of increasing remaining requirement,
/// greedily maximizing the number of jobs finished per step (the schedule of
/// Figure 1 in the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct SmallestRequirementFirst;

impl SmallestRequirementFirst {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Self {
        SmallestRequirementFirst
    }
}

impl Scheduler for SmallestRequirementFirst {
    fn name(&self) -> &'static str {
        "SmallestRequirementFirst"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::SmallestRequirementFirst, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{registry, EnginePreference, SolveRequest};
    use cr_core::bounds;
    use cr_core::properties::{is_non_wasting, is_progressive};
    use cr_core::{ratio, InstanceBuilder, Ratio};

    fn sample_instances() -> Vec<Instance> {
        vec![
            Instance::unit_from_percentages(&[
                &[20, 10, 10, 10],
                &[50, 55, 90, 55, 10],
                &[50, 40, 95],
            ]),
            Instance::unit_from_percentages(&[&[100], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[25, 75], &[75, 25], &[50, 50]]),
            Instance::unit_from_percentages(&[&[0, 50], &[100, 0]]),
        ]
    }

    #[test]
    fn all_heuristics_produce_feasible_schedules() {
        let heuristics: Vec<Box<dyn Scheduler>> = vec![
            Box::new(EqualShare::new()),
            Box::new(ProportionalShare::new()),
            Box::new(LargestRequirementFirst::new()),
            Box::new(SmallestRequirementFirst::new()),
        ];
        for inst in sample_instances() {
            for h in &heuristics {
                let schedule = h.schedule(&inst);
                let trace = schedule.trace(&inst).unwrap();
                assert!(
                    trace.makespan() >= bounds::trivial_lower_bound(&inst).min(trace.makespan()),
                    "{} produced impossible makespan",
                    h.name()
                );
            }
        }
    }

    /// The schedule `method` produces through the registry on `engine`.
    fn engine_schedule(method: &str, inst: &Instance, engine: EnginePreference) -> Schedule {
        let request = SolveRequest::new(method, inst.clone())
            .with_engine(engine)
            .with_schedule();
        let outcome = registry().solve(&request).expect("heuristics always solve");
        assert_eq!(outcome.engine.as_str(), engine.as_str(), "{method}");
        outcome.schedule.expect("the schedule was requested")
    }

    #[test]
    fn scaled_and_rational_paths_agree_on_samples() {
        for inst in sample_instances() {
            for method in [
                "EqualShare",
                "ProportionalShare",
                "LargestRequirementFirst",
                "SmallestRequirementFirst",
            ] {
                assert_eq!(
                    engine_schedule(method, &inst, EnginePreference::Scaled),
                    engine_schedule(method, &inst, EnginePreference::Rational),
                    "{method} diverged on {inst}"
                );
            }
        }
    }

    #[test]
    fn priority_heuristics_are_non_wasting_and_progressive() {
        for inst in sample_instances() {
            for h in [
                Box::new(LargestRequirementFirst::new()) as Box<dyn Scheduler>,
                Box::new(SmallestRequirementFirst::new()),
            ] {
                let trace = h.schedule(&inst).trace(&inst).unwrap();
                assert!(is_non_wasting(&trace), "{}", h.name());
                assert!(is_progressive(&trace), "{}", h.name());
            }
        }
    }

    #[test]
    fn smallest_first_reproduces_figure1_makespan() {
        let inst = Instance::unit_from_percentages(&[
            &[20, 10, 10, 10],
            &[50, 55, 90, 55, 10],
            &[50, 40, 95],
        ]);
        assert_eq!(SmallestRequirementFirst::new().makespan(&inst), 6);
    }

    #[test]
    fn equal_share_can_be_wasteful_but_is_feasible() {
        // Two processors, requirements 100% and 10%: the uniform split gives
        // each 50%, wasting 40% on the small job.
        let inst = Instance::unit_from_percentages(&[&[100], &[10]]);
        let schedule = EqualShare::new().schedule(&inst);
        assert_eq!(schedule.share(0, 0), Ratio::new(1, 2));
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.makespan(), 2);
        // GreedyBalance-style serving would have finished in 2 steps as well,
        // but EqualShare needs 2 steps even though total workload is 1.1.
        assert!(!is_non_wasting(&trace) || trace.makespan() == 2);
    }

    #[test]
    fn equal_share_hands_out_the_whole_pool() {
        // Three actives on an odd grid: 7/20 + 7/20 + 6/20 = 1 — the old
        // SHARE_GRID floor would have left a sliver of the resource unused.
        let inst = Instance::unit_from_percentages(&[&[20], &[55], &[95]]);
        let schedule = EqualShare::new().schedule(&inst);
        assert_eq!(schedule.share(0, 0), ratio(7, 20));
        assert_eq!(schedule.share(0, 1), ratio(7, 20));
        assert_eq!(schedule.share(0, 2), ratio(6, 20));
        assert_eq!(schedule.assigned_total(0), Ratio::ONE);
    }

    #[test]
    fn proportional_share_finishes_exact_fits_in_one_step() {
        let inst = Instance::unit_from_percentages(&[&[40], &[60]]);
        assert_eq!(ProportionalShare::new().makespan(&inst), 1);
    }

    #[test]
    fn proportional_share_scales_down_when_oversubscribed() {
        let inst = Instance::unit_from_percentages(&[&[80], &[80]]);
        let schedule = ProportionalShare::new().schedule(&inst);
        // The exact largest-remainder split of the 5-unit pool between equal
        // demands of 4 units is 3 + 2 (the extra unit goes to the lower
        // index); both jobs need 80% → finish in step 1 (second).
        assert_eq!(schedule.makespan(&inst).unwrap(), 2);
        assert_eq!(schedule.share(0, 0), ratio(3, 5));
        assert_eq!(schedule.share(0, 1), ratio(2, 5));
        assert_eq!(schedule.assigned_total(0), Ratio::ONE);
    }

    #[test]
    fn proportional_share_does_not_starve_tiny_demands() {
        // Regression test for the SHARE_GRID quantization bug: one huge
        // demand next to several tiny ones.  The old fixed `1/100 000` floor
        // quantized `tiny/total` to a *zero* share, starving the tiny cores
        // (and, with no step limit in the offline loop, risking a livelock).
        // The exact largest-remainder split gives every tiny demand its unit
        // as long as the pool allows: here the tiny jobs finish in the very
        // first step.
        let tiny = ratio(1, 1_000_000);
        let inst = InstanceBuilder::new()
            .processor([Ratio::ONE, Ratio::ONE, Ratio::ONE])
            .processor([tiny])
            .processor([tiny])
            .processor([tiny])
            .processor([tiny])
            .build();
        let schedule = ProportionalShare::new().schedule(&inst);
        let trace = schedule.trace(&inst).unwrap();
        for p in 1..=4 {
            assert_eq!(
                trace.completion_step(cr_core::JobId::new(p, 0)),
                Some(0),
                "tiny demand on processor {p} was starved"
            );
        }
        // While oversubscribed the whole pool is handed out, so the huge
        // chain finishes within its workload bound: 3 full jobs plus the
        // sliver lost to the tiny cores in step 0 → 4 steps total.
        assert_eq!(trace.makespan(), 4);
        assert_eq!(schedule.assigned_total(0), Ratio::ONE);
        // And the same run on the exact rational engine is identical.
        assert_eq!(
            schedule,
            engine_schedule("ProportionalShare", &inst, EnginePreference::Rational)
        );
    }
}
