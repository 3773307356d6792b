//! Extensions beyond unit-size jobs (Section 9 of the paper).
//!
//! The paper's analysis is for unit-size jobs, but its model is defined for
//! arbitrary processing volumes, and footnote 3 observes that resource
//! requirements above 1 reduce to requirements of exactly 1 with rescaled
//! volumes.  This module provides:
//!
//! * [`rescaled_job`] / [`build_rescaled_instance`] — the footnote 3
//!   reduction `(r > 1, p) → (1, r·p)`;
//! * [`split_into_unit_jobs`] — a discretization that splits a job of
//!   integral volume `k` into `k` unit-size jobs with the same requirement,
//!   making the exact unit-size algorithms applicable;
//! * the observation (exercised by tests) that [`crate::GreedyBalance`] and
//!   [`crate::RoundRobin`] remain feasible, work-conserving schedulers for
//!   arbitrary volumes because they are built on the step-demand interface of
//!   `cr_core::MultiStepper`.

use cr_core::{Instance, Job, Ratio};

/// Applies the footnote 3 rescaling to a single `(requirement, volume)` pair:
/// a job with requirement `r > 1` and volume `p` behaves exactly like a job
/// with requirement `1` and volume `r · p` (its workload `r·p` is unchanged,
/// and its maximal per-step volume progress `1/r · r = 1` is preserved).
#[must_use]
pub fn rescaled_job(requirement: Ratio, volume: Ratio) -> Job {
    assert!(
        requirement.is_positive() || requirement.is_zero(),
        "requirements must be non-negative"
    );
    assert!(volume.is_positive(), "volumes must be positive");
    if requirement > Ratio::ONE {
        Job::new(Ratio::ONE, requirement * volume)
    } else {
        Job::new(requirement, volume)
    }
}

/// Builds an instance from raw `(requirement, volume)` rows, rescaling any
/// requirement above 1 via [`rescaled_job`].
///
/// # Panics
///
/// Panics if a volume is non-positive or a requirement negative.
#[must_use]
pub fn build_rescaled_instance(rows: Vec<Vec<(Ratio, Ratio)>>) -> Instance {
    let jobs = rows
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|(r, p)| rescaled_job(r, p))
                .collect::<Vec<_>>()
        })
        .collect();
    Instance::new(jobs).expect("rescaled instance is valid by construction")
}

/// Splits every job with an **integral** volume `k ≥ 1` into `k` unit-size
/// jobs with the same requirement.  The resulting unit-size instance has the
/// same total workload and, step for step, admits exactly the same progress
/// as the original instance (a volume-`k` job advances by at most one volume
/// unit per step either way), so optimal makespans coincide.  Returns `None`
/// if some volume is not a positive integer.
#[must_use]
pub fn split_into_unit_jobs(instance: &Instance) -> Option<Instance> {
    let mut rows = Vec::with_capacity(instance.processors());
    for i in 0..instance.processors() {
        let mut row = Vec::new();
        for job in instance.processor_jobs(i) {
            if job.volume.denom() != 1 || !job.volume.is_positive() {
                return None;
            }
            let copies = job.volume.numer();
            for _ in 0..copies {
                row.push(Job::unit(job.requirement));
            }
        }
        rows.push(row);
    }
    // lint: allow(panic_hygiene) — splitting a valid instance's jobs into unit pieces preserves every `Instance::new` invariant
    Some(Instance::new(rows).expect("unit split of a valid instance is valid"))
}

/// The total workload of a raw `(requirement, volume)` table, before any
/// rescaling — convenient for asserting that rescaling preserves workloads.
#[must_use]
pub fn raw_workload(rows: &[Vec<(Ratio, Ratio)>]) -> Ratio {
    rows.iter()
        .flat_map(|row| row.iter())
        .map(|&(r, p)| r * p)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyBalance, OptM, RoundRobin, Scheduler};
    use cr_core::{bounds, ratio, InstanceBuilder};

    #[test]
    fn rescaling_clamps_requirement_and_preserves_workload() {
        let job = rescaled_job(ratio(3, 2), ratio(2, 1));
        assert_eq!(job.requirement, Ratio::ONE);
        assert_eq!(job.volume, ratio(3, 1));
        assert_eq!(job.workload(), ratio(3, 1));
        // Requirements within [0, 1] are untouched.
        let job = rescaled_job(ratio(1, 2), ratio(2, 1));
        assert_eq!(job.requirement, ratio(1, 2));
        assert_eq!(job.volume, ratio(2, 1));
    }

    #[test]
    fn build_rescaled_instance_accepts_oversized_requirements() {
        let rows = vec![
            vec![(ratio(5, 4), Ratio::ONE), (ratio(1, 2), Ratio::ONE)],
            vec![(ratio(2, 1), ratio(3, 2))],
        ];
        let expected_workload = raw_workload(&rows);
        let inst = build_rescaled_instance(rows);
        assert_eq!(inst.total_workload(), expected_workload);
        assert!(inst.max_requirement() <= Ratio::ONE);
    }

    #[test]
    fn split_into_unit_jobs_preserves_optimum_on_small_instances() {
        // p0: one job of volume 2 with requirement 60%; p1: two unit jobs.
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(ratio(3, 5), ratio(2, 1))])
            .processor([ratio(2, 5), ratio(2, 5)])
            .build();
        let unit = split_into_unit_jobs(&inst).expect("integral volumes");
        assert!(unit.is_unit_size());
        assert_eq!(unit.total_workload(), inst.total_workload());
        assert_eq!(unit.jobs_on(0), 2);

        // The unit-size optimum equals the makespan GreedyBalance reaches on
        // the original instance here (columns pack perfectly).
        let opt_unit = crate::opt_m::opt_m_makespan(&unit);
        assert_eq!(opt_unit, 2);
        let greedy_orig = GreedyBalance::new().makespan(&inst);
        assert_eq!(greedy_orig, opt_unit);
    }

    #[test]
    fn split_rejects_fractional_volumes() {
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(ratio(1, 2), ratio(3, 2))])
            .build();
        assert!(split_into_unit_jobs(&inst).is_none());
    }

    #[test]
    fn greedy_and_round_robin_handle_arbitrary_volumes() {
        let inst = InstanceBuilder::new()
            .processor_jobs([
                Job::new(ratio(3, 10), ratio(5, 2)),
                Job::new(ratio(9, 10), Ratio::ONE),
            ])
            .processor_jobs([Job::new(ratio(6, 10), ratio(2, 1))])
            .processor_jobs([
                Job::new(ratio(2, 10), ratio(4, 1)),
                Job::new(ratio(5, 10), ratio(1, 2)),
            ])
            .build();
        for scheduler in [
            Box::new(GreedyBalance::new()) as Box<dyn Scheduler>,
            Box::new(RoundRobin::new()),
        ] {
            let schedule = scheduler.schedule(&inst);
            let trace = schedule.trace(&inst).unwrap();
            assert!(
                trace.makespan() >= bounds::trivial_lower_bound(&inst),
                "{} beat the lower bound",
                scheduler.name()
            );
            // Work conservation keeps them within factor 2 + chain slack of the
            // trivial bound on this instance.
            assert!(trace.makespan() <= 3 * bounds::trivial_lower_bound(&inst));
        }
    }

    #[test]
    fn unit_size_exact_algorithms_reject_arbitrary_volumes() {
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(ratio(1, 2), ratio(2, 1))])
            .processor([ratio(1, 2)])
            .build();
        let result = std::panic::catch_unwind(|| OptM::new().makespan(&inst));
        assert!(result.is_err(), "OptM must reject non-unit volumes");
    }
}
