//! Resource-assignment schedules, their simulation and validation.
//!
//! A [`Schedule`] is nothing more than the matrix `Rᵢ(t)` of resource shares
//! handed to each processor at each discrete time step — exactly the object
//! the CRSharing scheduler controls.  Everything else (which job is active,
//! how much progress it makes, when it completes) follows deterministically
//! from the instance, and is computed by [`Schedule::trace`].
//!
//! Algorithms construct schedules through
//! [`MultiStepper`](crate::multi::MultiStepper), a forward simulator that
//! keeps track of the per-processor frontier job and its remaining work so
//! that the algorithm can base its next decision on the current state.

use crate::error::ScheduleError;
use crate::instance::Instance;
use crate::job::JobId;
use crate::rational::Ratio;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A feasible-or-not resource assignment: `steps[t][i]` is the share `Rᵢ(t)`
/// of the resource granted to processor `i` in time step `t` (zero-based).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    steps: Vec<Vec<Ratio>>,
}

impl Schedule {
    /// Wraps a raw share matrix.
    #[must_use]
    pub fn new(steps: Vec<Vec<Ratio>>) -> Self {
        Schedule { steps }
    }

    /// An empty schedule (zero time steps).
    #[must_use]
    pub fn empty() -> Self {
        Schedule { steps: Vec::new() }
    }

    /// Number of time steps in the assignment.
    #[must_use]
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// The share `Rᵢ(t)`.
    #[must_use]
    pub fn share(&self, step: usize, processor: usize) -> Ratio {
        self.steps[step][processor]
    }

    /// All shares of one step.
    #[must_use]
    pub fn step(&self, step: usize) -> &[Ratio] {
        &self.steps[step]
    }

    /// Raw access to the share matrix.
    #[must_use]
    pub fn steps(&self) -> &[Vec<Ratio>] {
        &self.steps
    }

    /// Mutable access to the share matrix (used by the Lemma 1 transforms).
    pub fn steps_mut(&mut self) -> &mut Vec<Vec<Ratio>> {
        &mut self.steps
    }

    /// Total share assigned in one step (may exceed the useful consumption if
    /// the schedule over-provisions a job).
    #[must_use]
    pub fn assigned_total(&self, step: usize) -> Ratio {
        Ratio::sum_slice(&self.steps[step])
    }

    /// Simulates the schedule against `instance`, checking feasibility
    /// (shares in `[0, 1]`, no resource overuse, all jobs complete) and
    /// returning the full execution trace.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] describing the first violated constraint.
    pub fn trace(&self, instance: &Instance) -> Result<ScheduleTrace, ScheduleError> {
        ScheduleTrace::compute(instance, self)
    }

    /// Convenience: validates the schedule and returns its makespan (number
    /// of time steps needed until every job is complete).
    pub fn makespan(&self, instance: &Instance) -> Result<usize, ScheduleError> {
        Ok(self.trace(instance)?.makespan())
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Schedule with {} step(s):", self.num_steps())?;
        for (t, row) in self.steps.iter().enumerate() {
            write!(f, "  t{t}:")?;
            for share in row {
                write!(f, " {share}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The complete execution trace of a schedule on an instance.
///
/// Time steps are zero-based.  `unfinished[t][i]` is the paper's `nᵢ(t+1)`
/// evaluated *at the start of* step `t`; the extra final entry
/// `unfinished[T][i]` describes the state after the last step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTrace {
    num_steps: usize,
    makespan: usize,
    processors: usize,
    /// `active[t][i]`: the job processor `i` works on in step `t` (its first
    /// unfinished job), or `None` if the processor is idle (out of jobs).
    active: Vec<Vec<Option<JobId>>>,
    /// Volume progress of the active job in step `t` on processor `i`.
    progress: Vec<Vec<Ratio>>,
    /// Useful resource consumption (`progress · r`) per step and processor.
    consumed: Vec<Vec<Ratio>>,
    /// The raw assigned shares (copied from the schedule).
    assigned: Vec<Vec<Ratio>>,
    /// Remaining volume of the active job at the *start* of step `t`.
    remaining_before: Vec<Vec<Ratio>>,
    /// Number of unfinished jobs per processor at the start of each step,
    /// plus one trailing entry for the state after the final step.
    unfinished: Vec<Vec<usize>>,
    /// `starts[i][j]`: first step in which job `(i, j)` makes progress.
    starts: Vec<Vec<Option<usize>>>,
    /// `completions[i][j]`: step in which job `(i, j)` completes.
    completions: Vec<Vec<Option<usize>>>,
}

impl ScheduleTrace {
    fn compute(instance: &Instance, schedule: &Schedule) -> Result<Self, ScheduleError> {
        let m = instance.processors();
        let num_steps = schedule.num_steps();

        let mut next_job = vec![0usize; m];
        let mut remaining_volume: Vec<Ratio> = (0..m)
            .map(|i| {
                if instance.jobs_on(i) > 0 {
                    instance.job(JobId::new(i, 0)).volume
                } else {
                    Ratio::ZERO
                }
            })
            .collect();

        let mut active = Vec::with_capacity(num_steps);
        let mut progress = Vec::with_capacity(num_steps);
        let mut consumed = Vec::with_capacity(num_steps);
        let mut assigned = Vec::with_capacity(num_steps);
        let mut remaining_before = Vec::with_capacity(num_steps);
        let mut unfinished = Vec::with_capacity(num_steps + 1);
        let mut starts = vec![vec![None; 0]; m];
        let mut completions = vec![vec![None; 0]; m];
        for i in 0..m {
            starts[i] = vec![None; instance.jobs_on(i)];
            completions[i] = vec![None; instance.jobs_on(i)];
        }

        let mut makespan = 0usize;

        for t in 0..num_steps {
            let row = &schedule.steps()[t];
            if row.len() != m {
                return Err(ScheduleError::WrongProcessorCount {
                    step: t,
                    expected: m,
                    found: row.len(),
                });
            }
            let mut total = Ratio::ZERO;
            for (i, &share) in row.iter().enumerate() {
                if !share.in_unit_interval() {
                    return Err(ScheduleError::ShareOutOfRange {
                        step: t,
                        processor: i,
                        share,
                    });
                }
                total += share;
            }
            if total > Ratio::ONE {
                return Err(ScheduleError::ResourceOveruse { step: t, total });
            }

            unfinished.push(
                (0..m)
                    .map(|i| instance.jobs_on(i) - next_job[i])
                    .collect::<Vec<_>>(),
            );

            let mut active_row = vec![None; m];
            let mut progress_row = vec![Ratio::ZERO; m];
            let mut consumed_row = vec![Ratio::ZERO; m];
            let mut remaining_row = vec![Ratio::ZERO; m];

            for i in 0..m {
                if next_job[i] >= instance.jobs_on(i) {
                    continue;
                }
                let id = JobId::new(i, next_job[i]);
                let job = instance.job(id);
                active_row[i] = Some(id);
                remaining_row[i] = remaining_volume[i];

                let share = row[i];
                // Volume progress: min(share / r, 1, remaining volume); a job
                // with zero requirement runs at full speed for free.
                let speed = if job.requirement.is_zero() {
                    Ratio::ONE
                } else {
                    (share / job.requirement).min(Ratio::ONE)
                };
                let step_progress = speed.min(remaining_volume[i]);
                if step_progress.is_positive() && starts[i][id.index].is_none() {
                    starts[i][id.index] = Some(t);
                }
                progress_row[i] = step_progress;
                consumed_row[i] = step_progress * job.requirement;
                remaining_volume[i] -= step_progress;

                if remaining_volume[i].is_zero() {
                    completions[i][id.index] = Some(t);
                    if starts[i][id.index].is_none() {
                        // Zero-workload job: it "runs" in its completion step.
                        starts[i][id.index] = Some(t);
                    }
                    makespan = makespan.max(t + 1);
                    next_job[i] += 1;
                    if next_job[i] < instance.jobs_on(i) {
                        remaining_volume[i] = instance.job(JobId::new(i, next_job[i])).volume;
                    }
                }
            }

            active.push(active_row);
            progress.push(progress_row);
            consumed.push(consumed_row);
            assigned.push(row.clone());
            remaining_before.push(remaining_row);
        }

        unfinished.push(
            (0..m)
                .map(|i| instance.jobs_on(i) - next_job[i])
                .collect::<Vec<_>>(),
        );

        let leftovers: Vec<JobId> = (0..m)
            .flat_map(|i| (next_job[i]..instance.jobs_on(i)).map(move |j| JobId::new(i, j)))
            .collect();
        if !leftovers.is_empty() {
            return Err(ScheduleError::UnfinishedJobs {
                unfinished: leftovers,
            });
        }

        Ok(ScheduleTrace {
            num_steps,
            makespan,
            processors: m,
            active,
            progress,
            consumed,
            assigned,
            remaining_before,
            unfinished,
            starts,
            completions,
        })
    }

    /// Number of steps in the underlying schedule (may exceed the makespan if
    /// the schedule has trailing idle steps).
    #[must_use]
    pub fn num_steps(&self) -> usize {
        self.num_steps
    }

    /// The makespan: the number of time steps until the last job completes.
    #[must_use]
    pub fn makespan(&self) -> usize {
        self.makespan
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The job processor `i` works on in step `t`, if any.
    #[must_use]
    pub fn active_job(&self, step: usize, processor: usize) -> Option<JobId> {
        self.active[step][processor]
    }

    /// Whether processor `i` is *active* in step `t` in the paper's sense
    /// (it still has unfinished jobs at the start of the step).
    #[must_use]
    pub fn is_active(&self, step: usize, processor: usize) -> bool {
        self.unfinished[step][processor] > 0
    }

    /// Whether the active job of processor `i` actually runs (makes strictly
    /// positive progress) in step `t`.
    #[must_use]
    pub fn is_running(&self, step: usize, processor: usize) -> bool {
        self.progress[step][processor].is_positive()
    }

    /// Volume progress of processor `i`'s active job in step `t`.
    #[must_use]
    pub fn progress(&self, step: usize, processor: usize) -> Ratio {
        self.progress[step][processor]
    }

    /// Useful resource consumption of processor `i` in step `t`.
    #[must_use]
    pub fn consumed(&self, step: usize, processor: usize) -> Ratio {
        self.consumed[step][processor]
    }

    /// Total useful resource consumption in step `t`.
    #[must_use]
    pub fn consumed_total(&self, step: usize) -> Ratio {
        Ratio::sum_slice(&self.consumed[step])
    }

    /// The raw assigned share (which may exceed the useful consumption).
    #[must_use]
    pub fn assigned(&self, step: usize, processor: usize) -> Ratio {
        self.assigned[step][processor]
    }

    /// Total assigned share in step `t`.
    #[must_use]
    pub fn assigned_total(&self, step: usize) -> Ratio {
        Ratio::sum_slice(&self.assigned[step])
    }

    /// Remaining volume of processor `i`'s active job at the start of step `t`.
    #[must_use]
    pub fn remaining_before(&self, step: usize, processor: usize) -> Ratio {
        self.remaining_before[step][processor]
    }

    /// `nᵢ(t)`: the number of unfinished jobs on processor `i` at the start
    /// of step `t`; `t` may equal `num_steps()` for the final state.
    #[must_use]
    pub fn unfinished_jobs(&self, step: usize, processor: usize) -> usize {
        self.unfinished[step][processor]
    }

    /// First step in which job `(i, j)` makes progress (the paper's `S(i,j)`).
    #[must_use]
    pub fn start_step(&self, id: JobId) -> Option<usize> {
        self.starts[id.processor][id.index]
    }

    /// Step in which job `(i, j)` completes (the paper's `C(i,j)`).
    #[must_use]
    pub fn completion_step(&self, id: JobId) -> Option<usize> {
        self.completions[id.processor][id.index]
    }

    /// Whether job `(i, j)` completes in step `t`.
    #[must_use]
    pub fn completes_in(&self, id: JobId, step: usize) -> bool {
        self.completion_step(id) == Some(step)
    }

    /// Edge `e_t` of the scheduling hypergraph: the set of jobs active in
    /// step `t` (only meaningful for steps `t < makespan()`).
    #[must_use]
    pub fn edge(&self, step: usize) -> Vec<JobId> {
        (0..self.processors)
            .filter_map(|i| {
                if self.is_active(step, i) {
                    self.active[step][i]
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::job::Job;
    use crate::multi::MultiStepper;
    use crate::rational::ratio;

    fn two_proc_instance() -> Instance {
        // p0: 0.5, 0.5   p1: 0.75, 0.25
        InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2)])
            .processor([ratio(3, 4), ratio(1, 4)])
            .build()
    }

    #[test]
    fn trace_simple_schedule() {
        let inst = two_proc_instance();
        // Step 0: finish (0,0) [0.5] and half of (1,0) [0.375 of 0.75].
        // Step 1: finish (1,0) [remaining 0.375] and finish (0,1) [0.5].
        // Step 2: finish (1,1) [0.25].
        let schedule = Schedule::new(vec![
            vec![ratio(1, 2), ratio(3, 8)],
            vec![ratio(1, 2), ratio(3, 8)],
            vec![Ratio::ZERO, ratio(1, 4)],
        ]);
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.makespan(), 3);
        assert_eq!(trace.completion_step(JobId::new(0, 0)), Some(0));
        assert_eq!(trace.completion_step(JobId::new(0, 1)), Some(1));
        assert_eq!(trace.completion_step(JobId::new(1, 0)), Some(1));
        assert_eq!(trace.completion_step(JobId::new(1, 1)), Some(2));
        assert_eq!(trace.start_step(JobId::new(1, 0)), Some(0));
        assert_eq!(trace.unfinished_jobs(0, 0), 2);
        assert_eq!(trace.unfinished_jobs(1, 0), 1);
        assert_eq!(trace.unfinished_jobs(1, 1), 2);
        assert_eq!(trace.unfinished_jobs(2, 0), 0);
        assert_eq!(trace.unfinished_jobs(2, 1), 1);
        assert_eq!(trace.unfinished_jobs(3, 1), 0);
        assert!(trace.is_active(1, 0));
        assert!(!trace.is_active(2, 0));
        assert_eq!(trace.edge(0), vec![JobId::new(0, 0), JobId::new(1, 0)]);
        assert_eq!(trace.edge(2), vec![JobId::new(1, 1)]);
    }

    #[test]
    fn overuse_is_rejected() {
        let inst = two_proc_instance();
        let schedule = Schedule::new(vec![vec![ratio(3, 4), ratio(1, 2)]]);
        assert!(matches!(
            schedule.trace(&inst),
            Err(ScheduleError::ResourceOveruse { step: 0, .. })
        ));
    }

    #[test]
    fn share_out_of_range_rejected() {
        let inst = two_proc_instance();
        let schedule = Schedule::new(vec![vec![ratio(-1, 4), ratio(1, 2)]]);
        assert!(matches!(
            schedule.trace(&inst),
            Err(ScheduleError::ShareOutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_processor_count_rejected() {
        let inst = two_proc_instance();
        let schedule = Schedule::new(vec![vec![ratio(1, 4)]]);
        assert!(matches!(
            schedule.trace(&inst),
            Err(ScheduleError::WrongProcessorCount { .. })
        ));
    }

    #[test]
    fn unfinished_jobs_rejected() {
        let inst = two_proc_instance();
        let schedule = Schedule::new(vec![vec![ratio(1, 2), ratio(1, 2)]]);
        let err = schedule.trace(&inst).unwrap_err();
        match err {
            ScheduleError::UnfinishedJobs { unfinished } => {
                assert!(unfinished.contains(&JobId::new(0, 1)));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn overprovisioning_is_wasted_not_faster() {
        // A job cannot be sped up beyond its requirement: granting the full
        // resource to a job with requirement 1/4 and volume 2 still only
        // processes one volume unit per step.
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(ratio(1, 4), ratio(2, 1))])
            .build();
        let schedule = Schedule::new(vec![vec![Ratio::ONE], vec![Ratio::ONE]]);
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.makespan(), 2);
        assert_eq!(trace.progress(0, 0), Ratio::ONE);
        assert_eq!(trace.consumed(0, 0), ratio(1, 4));
        assert_eq!(trace.assigned(0, 0), Ratio::ONE);
    }

    #[test]
    fn zero_requirement_job_runs_for_free() {
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(2, 1))])
            .processor([Ratio::ONE])
            .build();
        let schedule = Schedule::new(vec![
            vec![Ratio::ZERO, Ratio::ONE],
            vec![Ratio::ZERO, Ratio::ZERO],
        ]);
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.makespan(), 2);
        assert_eq!(trace.completion_step(JobId::new(0, 0)), Some(1));
        assert_eq!(trace.completion_step(JobId::new(1, 0)), Some(0));
    }

    #[test]
    fn trailing_idle_steps_do_not_count_towards_makespan() {
        let inst = InstanceBuilder::new().processor([ratio(1, 2)]).build();
        let schedule = Schedule::new(vec![vec![ratio(1, 2)], vec![Ratio::ZERO]]);
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.num_steps(), 2);
        assert_eq!(trace.makespan(), 1);
    }

    #[test]
    fn builder_tracks_state() {
        let inst = two_proc_instance();
        let mut b = MultiStepper::new_rational(&inst);
        assert_eq!(b.unfinished_jobs(0), 2);
        assert_eq!(b.step_demand(0, 0), ratio(1, 2));
        assert_eq!(b.step_demand(1, 0), ratio(3, 4));

        b.push_step(&[ratio(1, 2), ratio(1, 2)]);
        assert_eq!(b.unfinished_jobs(0), 1);
        assert_eq!(b.active_job(0), Some(JobId::new(0, 1)));
        // (1,0) had requirement 3/4 and received 1/2 → remaining workload 1/4.
        assert_eq!(b.remaining(1, 0), ratio(1, 4));
        assert_eq!(b.active_job(1), Some(JobId::new(1, 0)));

        b.push_step(&[ratio(1, 2), ratio(1, 4)]);
        assert_eq!(b.unfinished_jobs(0), 0);
        assert_eq!(b.active_job(1), Some(JobId::new(1, 1)));

        b.push_step(&[Ratio::ZERO, ratio(1, 4)]);
        assert!(b.all_done());
        let schedule = b.finish().expect("k = 1 runs finish to a schedule");
        assert_eq!(schedule.makespan(&inst).unwrap(), 3);
    }

    #[test]
    #[should_panic(expected = "oversubscribes resource 0")]
    fn builder_rejects_overuse() {
        let inst = two_proc_instance();
        let mut b = MultiStepper::new_rational(&inst);
        b.push_step(&[ratio(3, 4), ratio(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "unfinished jobs")]
    fn builder_finish_requires_completion() {
        let inst = two_proc_instance();
        let b = MultiStepper::new_rational(&inst);
        let _ = b.finish();
    }

    #[test]
    fn builder_and_trace_agree() {
        let inst = two_proc_instance();
        let mut b = MultiStepper::new_rational(&inst);
        while !b.all_done() {
            // Naive: give everything to the lowest-indexed active processor.
            let mut shares = vec![Ratio::ZERO; inst.processors()];
            let mut left = Ratio::ONE;
            for (i, share) in shares.iter_mut().enumerate() {
                if b.is_active(i) {
                    let give = b.step_demand(i, 0).min(left);
                    *share = give;
                    left -= give;
                }
            }
            b.push_step(&shares);
        }
        let schedule = b.finish().expect("k = 1 runs finish to a schedule");
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.makespan(), schedule.num_steps());
    }

    #[test]
    fn schedule_display() {
        let s = Schedule::new(vec![vec![ratio(1, 2), ratio(1, 2)]]);
        let text = s.to_string();
        assert!(text.contains("1 step"));
        assert!(text.contains("1/2"));
    }
}
