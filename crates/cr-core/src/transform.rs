//! The Lemma 1 normalization: every schedule can be turned into a
//! *non-wasting*, *progressive* and *nested* schedule without increasing its
//! makespan.
//!
//! The paper proves this with a sequence of local exchange arguments.  This
//! module implements an equivalent *constructive* normalization for unit-size
//! jobs: jobs are assigned a fixed priority according to their completion
//! step in the original schedule (predecessors on a chain always complete
//! strictly earlier, so the priority order respects the chain order), and a
//! new schedule is built step by step, always serving active jobs in priority
//! order and giving each job as much of the remaining resource as it can
//! still use.
//!
//! * The new schedule is **non-wasting**: a step only leaves resource unused
//!   when every active job has been completed in it.
//! * It is **progressive**: jobs are filled one after the other, so at most
//!   one resourced job per step is left partially processed.
//! * It is **nested**: a lower-priority job only receives resource in a step
//!   in which every active higher-priority job completes, so a job that
//!   started earlier can never run while a later-started job is unfinished.
//! * No completion time increases: every job completes no later than in the
//!   original schedule, hence the makespan does not increase.  (This is the
//!   standard list-scheduling argument for work-conserving policies whose
//!   priority order is consistent with the precedence order; the property is
//!   additionally exercised by randomized tests.)

use crate::instance::Instance;
use crate::job::JobId;
use crate::multi::MultiStepper;
use crate::rational::Ratio;
use crate::schedule::{Schedule, ScheduleTrace};

/// Normalizes `schedule` for `instance` into a non-wasting, progressive and
/// nested schedule whose makespan does not exceed the original one
/// (Lemma 1 of the paper).
///
/// The guarantee is stated for unit-size jobs, the setting of the paper's
/// analysis; the function also accepts general instances, where it still
/// produces a feasible normalized schedule but the makespan guarantee is
/// only heuristic.
///
/// # Panics
///
/// Panics if `schedule` is not feasible for `instance`.
#[must_use]
pub fn normalize(instance: &Instance, schedule: &Schedule) -> Schedule {
    let trace = schedule
        .trace(instance)
        .expect("normalize requires a feasible schedule");
    normalize_from_trace(instance, &trace)
}

/// Same as [`normalize`] but starts from an already computed trace.
#[must_use]
pub fn normalize_from_trace(instance: &Instance, trace: &ScheduleTrace) -> Schedule {
    // Priority of a job: (original completion step, original start step
    // descending).  Lower tuple = served earlier.  Completion steps exist for
    // every job of a validated trace.
    let priority = |id: JobId| -> (usize, i64) {
        let completion = trace.completion_step(id).unwrap_or(usize::MAX);
        let start = trace.start_step(id).unwrap_or(0) as i64;
        (completion, -start)
    };

    // A schedule is single-resource: like the trace, normalization only
    // sees the base resource of a multi-resource instance.
    let instance = &*instance.base_resource();
    let m = instance.processors();
    let mut stepper = MultiStepper::new_rational(instance);
    // Safety valve: a normalized schedule never needs more steps than the
    // total number of jobs plus the original makespan.
    let step_limit = trace.makespan() + instance.total_jobs() + 1;
    let mut order: Vec<usize> = Vec::with_capacity(m);
    let mut shares = vec![Ratio::ZERO; m];

    while !stepper.all_done() {
        assert!(
            stepper.current_step() < step_limit,
            "normalization failed to terminate — schedule or instance is inconsistent"
        );
        order.clear();
        order.extend((0..m).filter(|&i| stepper.is_active(i)));
        // lint: allow(panic_hygiene) — `order` was filtered to active processors on the previous line
        order.sort_by_key(|&i| priority(stepper.active_job(i).expect("active")));

        shares.fill(Ratio::ZERO);
        let mut left = Ratio::ONE;
        for &i in &order {
            if left.is_zero() {
                break;
            }
            let give = stepper.step_demand(i, 0).min(left);
            shares[i] = give;
            left -= give;
        }
        stepper.push_step(&shares);
    }
    let schedule = stepper.finish();
    // lint: allow(panic_hygiene) — the instance was reduced to one resource above
    schedule.expect("single-resource runs finish to a schedule")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::properties::PropertyReport;
    use crate::rational::ratio;

    fn fig2_instance() -> Instance {
        InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2), ratio(1, 2), ratio(1, 2)])
            .processor([Ratio::ONE])
            .processor([Ratio::ONE])
            .build()
    }

    #[test]
    fn normalizing_the_unnested_figure2_schedule() {
        let inst = fig2_instance();
        // Figure 2c: non-wasting and progressive but not nested.
        let unnested = Schedule::new(vec![
            vec![ratio(1, 2), ratio(1, 2), Ratio::ZERO],
            vec![ratio(1, 2), Ratio::ZERO, ratio(1, 2)],
            vec![ratio(1, 2), ratio(1, 2), Ratio::ZERO],
            vec![ratio(1, 2), Ratio::ZERO, ratio(1, 2)],
        ]);
        assert_eq!(unnested.makespan(&inst).unwrap(), 4);

        let normalized = normalize(&inst, &unnested);
        let trace = normalized.trace(&inst).unwrap();
        assert!(trace.makespan() <= 4);
        let report = PropertyReport::analyze(&trace);
        assert!(
            report.is_normalized(),
            "violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn normalizing_a_wasteful_schedule_shrinks_it() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2)])
            .processor([ratio(1, 4)])
            .build();
        // A deliberately wasteful schedule: one job per step.
        let wasteful = Schedule::new(vec![
            vec![ratio(1, 2), Ratio::ZERO],
            vec![Ratio::ZERO, ratio(1, 4)],
            vec![ratio(1, 2), Ratio::ZERO],
        ]);
        assert_eq!(wasteful.makespan(&inst).unwrap(), 3);
        let normalized = normalize(&inst, &wasteful);
        let trace = normalized.trace(&inst).unwrap();
        assert!(trace.makespan() <= 3);
        let report = PropertyReport::analyze(&trace);
        assert!(report.is_normalized());
        // The workload is only 1.25, so the normalized schedule needs 2 steps.
        assert_eq!(trace.makespan(), 2);
    }

    #[test]
    fn normalized_schedule_is_idempotent_in_makespan() {
        let inst = fig2_instance();
        let nested = Schedule::new(vec![
            vec![ratio(1, 2), ratio(1, 2), Ratio::ZERO],
            vec![ratio(1, 2), ratio(1, 2), Ratio::ZERO],
            vec![ratio(1, 2), Ratio::ZERO, ratio(1, 2)],
            vec![ratio(1, 2), Ratio::ZERO, ratio(1, 2)],
        ]);
        let once = normalize(&inst, &nested);
        let twice = normalize(&inst, &once);
        assert_eq!(
            once.makespan(&inst).unwrap(),
            twice.makespan(&inst).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "feasible schedule")]
    fn normalize_rejects_infeasible_schedules() {
        let inst = fig2_instance();
        let bad = Schedule::new(vec![vec![Ratio::ONE, Ratio::ONE, Ratio::ONE]]);
        let _ = normalize(&inst, &bad);
    }
}
