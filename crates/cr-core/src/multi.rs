//! Multi-resource stepping: the forward step simulator every scheduler,
//! schedule replay and online simulation in this repository is built on.
//!
//! The paper's model shares **one** continuous resource; real many-core
//! traffic contends on several at once (memory bandwidth, bus, cache
//! slices).  An [`Instance`] may carry extra resource layers (see
//! [`Instance::extra_layers`]), and the paper's single resource is the
//! `k = 1` case of that model.  This module provides:
//!
//! * [`StepUnit`] — the shared arithmetic surface of the two exact
//!   representations: `u64` units on a per-resource LCM grid and [`Ratio`]
//!   (exact rational arithmetic with capacity `1`);
//! * [`MultiStepper`] — per step, every resource `r` hands out its own
//!   capacity, and a job advances on each resource independently under the
//!   decoupled workload model below.  The stepper records every step, and
//!   at `k = 1` [`MultiStepper::finish`] returns the [`Schedule`].
//!
//! # The decoupled per-resource workload model
//!
//! Job `(i, j)` has the requirement vector `(r⁰, …, r^{k−1})` and one
//! volume `p`.  On every resource `r` with `r^r > 0` the job must absorb
//! the layer workload `r^r · p`, at most `r^r` per time step; it completes
//! once **every** positive layer has been delivered in full.  Because each
//! positive layer needs at least `⌈p⌉` steps on its own, completion takes
//! at least `⌈p⌉` steps, exactly as in the scalar model.  A job whose
//! entire requirement vector is zero occupies `⌈p⌉` steps for free, again
//! mirroring the scalar convention.  For `k = 1` the model *is* the
//! paper's model: the single layer's workload and per-step cap coincide
//! with the scalar ones, so the recorded shares replay through
//! [`Schedule::trace`] to the same completion steps.

use crate::instance::Instance;
use crate::job::JobId;
use crate::rational::Ratio;
use crate::scaled::layer_grid;
use crate::schedule::Schedule;

/// The arithmetic a per-resource quantity must support: exact comparison,
/// overflow-checked addition and (contract-guarded) subtraction.
///
/// Implemented by `u64` (units on a per-resource LCM grid) and [`Ratio`]
/// (exact rational arithmetic with per-resource capacity `1`).  The generic
/// engines in `cr-algos` and the stepper below are written once against
/// this trait so the scaled and rational paths share every line of search
/// and scheduling logic — which is what makes their cross-check meaningful.
pub trait StepUnit: Copy + Ord + std::fmt::Debug {
    /// The additive identity.
    const ZERO: Self;
    /// Overflow-checked addition.
    fn checked_add(self, other: Self) -> Option<Self>;
    /// Subtraction; callers guarantee `other ≤ self`.
    fn sub(self, other: Self) -> Self;
    /// The exact share of the resource this quantity is on a resource of
    /// capacity `capacity`.
    fn to_share(self, capacity: Self) -> Ratio;
}

impl StepUnit for u64 {
    const ZERO: Self = 0;
    fn checked_add(self, other: Self) -> Option<Self> {
        u64::checked_add(self, other)
    }
    fn sub(self, other: Self) -> Self {
        self - other
    }
    fn to_share(self, capacity: Self) -> Ratio {
        Ratio::new(i128::from(self), i128::from(capacity))
    }
}

impl StepUnit for Ratio {
    const ZERO: Self = Ratio::ZERO;
    fn checked_add(self, other: Self) -> Option<Self> {
        Ratio::checked_add(self, other)
    }
    fn sub(self, other: Self) -> Self {
        self - other
    }
    fn to_share(self, _capacity: Self) -> Ratio {
        self
    }
}

/// Forward-simulating multi-resource schedule stepper, generic over the
/// representation (`u64` units or exact [`Ratio`]s).
///
/// Every resource `r` lives on its own grid: a full time step hands out
/// exactly [`capacity(r)`](Self::capacity) units of resource `r`.  The
/// stepper tracks, per processor, the active job's remaining workload on
/// every layer and advances it by the consumed units (`min(share, step
/// demand)`) per layer.  Shares are passed flat and processor-major: entry
/// `i·k + r` is processor `i`'s share of resource `r`.
///
/// # Examples
///
/// ```
/// use cr_core::multi::MultiStepper;
/// use cr_core::{ratio, InstanceBuilder, Ratio};
///
/// let inst = InstanceBuilder::new()
///     .processor([ratio(1, 2)])
///     .processor([ratio(1, 2)])
///     .extra_layer([vec![ratio(1, 1)], vec![Ratio::ZERO]])
///     .build();
/// let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
/// assert_eq!(stepper.resources(), 2);
/// // Both processors can run on resource 0, but processor 0 saturates
/// // resource 1 on its own.
/// let d0 = stepper.capacity(0);
/// let d1 = stepper.capacity(1);
/// stepper.push_step(&[d0 / 2, d1, d0 / 2, 0]);
/// assert!(!stepper.is_active(0) && !stepper.is_active(1));
/// ```
#[derive(Debug, Clone)]
pub struct MultiStepper<V> {
    /// Number of resources `k`.
    resources: usize,
    /// Per-resource capacities, length `k`.
    caps: Vec<V>,
    /// Per-resource unit grids ([`layer_grid`]), `None` where a layer's
    /// grid overflows `u64`; length `k`.
    grids: Vec<Option<u64>>,
    /// Row start offsets into the per-job arrays; length `processors + 1`.
    offsets: Vec<u32>,
    /// Per-step requirement caps, `total_jobs × k`, job-major.
    reqs: Vec<V>,
    /// Initial layer workloads `r^r · p`, `total_jobs × k`, job-major.
    costs: Vec<V>,
    /// Remaining step count `⌈p⌉` for jobs whose whole requirement vector
    /// is zero; `0` for every other job.
    free_steps: Vec<u64>,
    /// Index of each processor's next unfinished job within its row.
    next_job: Vec<usize>,
    /// Remaining layer workloads of each processor's frontier job,
    /// `processors × k`.
    frontier: Vec<V>,
    /// Remaining free steps of each processor's frontier job.
    frontier_free: Vec<u64>,
    /// Units usefully consumed per resource in the last step, length `k`.
    consumed: Vec<V>,
    /// Every applied step's shares, `steps × processors × k`.
    log: Vec<V>,
    /// Number of steps applied so far.
    steps: usize,
}

impl MultiStepper<u64> {
    /// Builds the scaled stepper: every resource on its own unit grid `D_r`
    /// ([`layer_grid`]).  Returns `None` when any layer's grid — or any
    /// job's workload in units — overflows `u64`; callers fall back to the
    /// exact rational stepper.
    #[must_use]
    pub fn try_new_scaled(instance: &Instance) -> Option<Self> {
        let grids: Vec<Option<u64>> = (0..instance.resources())
            .map(|r| layer_grid(instance, r))
            .collect();
        let caps = grids.iter().copied().collect::<Option<Vec<u64>>>()?;
        Self::build(instance, caps, grids, |req, workload, cap| {
            let num = u64::try_from(req.numer()).ok()?;
            let den = u64::try_from(req.denom()).ok()?;
            let req_units = num * (cap / den);
            let num = u64::try_from(workload.numer()).ok()?;
            let den = u64::try_from(workload.denom()).ok()?;
            Some((req_units, num.checked_mul(cap / den)?))
        })
    }
}

impl MultiStepper<Ratio> {
    /// Builds the exact rational stepper: every resource has capacity `1`
    /// and all quantities are exact [`Ratio`]s.  It keeps each layer's
    /// [`layer_grid`] (or `None` where that grid overflows), so splitting
    /// rules can round to the same grid the `u64` stepper runs on.
    ///
    /// # Panics
    ///
    /// Panics if a job's workload `r · p` overflows [`Ratio`], or if a job
    /// that is free on every layer has a volume whose ceiling overflows
    /// `u64` (neither could ever finish).
    #[must_use]
    pub fn new_rational(instance: &Instance) -> Self {
        let k = instance.resources();
        let grids = (0..k).map(|r| layer_grid(instance, r)).collect();
        Self::build(instance, vec![Ratio::ONE; k], grids, |req, workload, _| {
            Some((req, workload))
        })
        .expect("workloads and free step counts fit")
    }
}

impl<V: StepUnit> MultiStepper<V> {
    /// Shared constructor: `convert(req, workload, cap)` produces the
    /// per-step cap and layer workload of one job on one resource.
    fn build(
        instance: &Instance,
        caps: Vec<V>,
        grids: Vec<Option<u64>>,
        mut convert: impl FnMut(Ratio, Ratio, V) -> Option<(V, V)>,
    ) -> Option<Self> {
        let m = instance.processors();
        let k = instance.resources();
        let total = instance.total_jobs();
        let mut offsets = Vec::with_capacity(m + 1);
        let mut reqs = Vec::with_capacity(total * k);
        let mut costs = Vec::with_capacity(total * k);
        let mut free_steps = Vec::with_capacity(total);
        offsets.push(0u32);
        for i in 0..m {
            for (j, job) in instance.processor_jobs(i).iter().enumerate() {
                let id = JobId::new(i, j);
                let mut any_positive = false;
                for (r, &cap) in caps.iter().enumerate() {
                    let req = instance.requirement_on(r, id);
                    any_positive |= req.is_positive();
                    let workload = if job.volume == Ratio::ONE {
                        req
                    } else {
                        req.checked_mul(job.volume)?
                    };
                    let (req_v, cost_v) = convert(req, workload, cap)?;
                    reqs.push(req_v);
                    costs.push(cost_v);
                }
                free_steps.push(if any_positive {
                    0
                } else {
                    u64::try_from(job.volume.ceil()).ok()?
                });
            }
            offsets.push(u32::try_from(free_steps.len()).ok()?);
        }
        let mut stepper = MultiStepper {
            resources: k,
            caps,
            grids,
            offsets,
            reqs,
            costs,
            free_steps,
            next_job: vec![0; m],
            frontier: vec![V::ZERO; m * k],
            frontier_free: vec![0; m],
            consumed: vec![V::ZERO; k],
            log: Vec::new(),
            steps: 0,
        };
        for i in 0..m {
            stepper.load_frontier(i);
        }
        Some(stepper)
    }

    /// (Re)loads processor `i`'s frontier arrays from its next job.
    fn load_frontier(&mut self, processor: usize) {
        let k = self.resources;
        if let Some(slot) = self.job_slot(processor) {
            self.frontier[processor * k..(processor + 1) * k]
                .copy_from_slice(&self.costs[slot * k..(slot + 1) * k]);
            self.frontier_free[processor] = self.free_steps[slot];
        } else {
            self.frontier[processor * k..(processor + 1) * k].fill(V::ZERO);
            self.frontier_free[processor] = 0;
        }
    }

    fn job_slot(&self, processor: usize) -> Option<usize> {
        let slot = self.offsets[processor] as usize + self.next_job[processor];
        (slot < self.offsets[processor + 1] as usize).then_some(slot)
    }

    /// Number of shared resources `k`.
    #[must_use]
    pub fn resources(&self) -> usize {
        self.resources
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Capacity of resource `resource`: the units one time step hands out.
    #[must_use]
    pub fn capacity(&self, resource: usize) -> V {
        self.caps[resource]
    }

    /// All per-resource capacities, in resource order.
    #[must_use]
    pub fn capacities(&self) -> &[V] {
        &self.caps
    }

    /// The unit grid `D_r` of resource `resource` ([`layer_grid`]), or
    /// `None` when it overflows `u64` (only possible on the rational
    /// stepper).
    #[must_use]
    pub fn grid(&self, resource: usize) -> Option<u64> {
        self.grids[resource]
    }

    /// Number of steps applied so far.
    #[must_use]
    pub fn current_step(&self) -> usize {
        self.steps
    }

    /// Whether processor `i` still has unfinished jobs.
    #[must_use]
    pub fn is_active(&self, processor: usize) -> bool {
        self.job_slot(processor).is_some()
    }

    /// The active (first unfinished) job of processor `i`.
    #[must_use]
    pub fn active_job(&self, processor: usize) -> Option<JobId> {
        self.job_slot(processor)
            .map(|_| JobId::new(processor, self.next_job[processor]))
    }

    /// Number of unfinished jobs on processor `i` (the paper's `nᵢ(t)`).
    #[must_use]
    pub fn unfinished_jobs(&self, processor: usize) -> usize {
        (self.offsets[processor + 1] as usize - self.offsets[processor] as usize)
            - self.next_job[processor]
    }

    /// Per-step requirement cap of the active job of processor `i` on
    /// resource `resource` (`None` when the processor is idle).
    #[must_use]
    pub fn active_requirement(&self, processor: usize, resource: usize) -> Option<V> {
        self.job_slot(processor)
            .map(|slot| self.reqs[slot * self.resources + resource])
    }

    /// Remaining workload of processor `i`'s active job on resource
    /// `resource` (zero when idle, or when the job needs none of it).
    #[must_use]
    pub fn remaining(&self, processor: usize, resource: usize) -> V {
        self.frontier[processor * self.resources + resource]
    }

    /// The remaining workloads of processor `i`'s active job on every
    /// resource, in resource order — borrowed, so ordering rules can
    /// compare rows without allocating.
    #[must_use]
    pub fn remaining_row(&self, processor: usize) -> &[V] {
        &self.frontier[processor * self.resources..(processor + 1) * self.resources]
    }

    /// Maximum share of resource `resource` the active job of processor `i`
    /// can usefully absorb this step: `min(remaining layer workload, per-step
    /// cap)`.
    #[must_use]
    pub fn step_demand(&self, processor: usize, resource: usize) -> V {
        match self.job_slot(processor) {
            Some(slot) => self.frontier[processor * self.resources + resource]
                .min(self.reqs[slot * self.resources + resource]),
            None => V::ZERO,
        }
    }

    /// Whether every job of the instance has been completed.
    #[must_use]
    pub fn all_done(&self) -> bool {
        (0..self.processors()).all(|i| !self.is_active(i))
    }

    /// Applies and records one time step, `shares[i·k + r]` being processor
    /// `i`'s share of resource `r`, and returns the units usefully consumed
    /// per resource.
    ///
    /// # Panics
    ///
    /// Panics (in debug and release builds alike) if the shares are
    /// malformed, negative, or oversubscribe any resource — algorithms must
    /// never emit an infeasible step.
    pub fn push_step(&mut self, shares: &[V]) -> &[V] {
        let k = self.resources;
        let m = self.processors();
        assert_eq!(
            shares.len(),
            m * k,
            "step must assign {k} share(s) to each of the {m} processors"
        );
        for (r, &cap) in self.caps.iter().enumerate() {
            let mut total = V::ZERO;
            for i in 0..m {
                let share = shares[i * k + r];
                assert!(
                    V::ZERO <= share && share <= cap,
                    "share {share:?} for processor {i} lies outside [0, {cap:?}] on resource {r}"
                );
                total = total
                    .checked_add(share)
                    .unwrap_or_else(|| panic!("share total overflows on resource {r}"));
            }
            assert!(
                total <= cap,
                "step oversubscribes resource {r}: {total:?} assigned, capacity {cap:?}"
            );
        }

        self.consumed.fill(V::ZERO);
        for i in 0..m {
            let Some(slot) = self.job_slot(i) else {
                continue;
            };
            if self.frontier_free[i] > 0 {
                // A job with an all-zero requirement vector advances one
                // volume unit per step regardless of its shares.
                self.frontier_free[i] -= 1;
            } else {
                for r in 0..k {
                    let remaining = self.frontier[i * k + r];
                    let used = shares[i * k + r].min(remaining.min(self.reqs[slot * k + r]));
                    self.frontier[i * k + r] = remaining.sub(used);
                    self.consumed[r] = self.consumed[r]
                        .checked_add(used)
                        .unwrap_or_else(|| panic!("consumption overflows on resource {r}"));
                }
            }
            let done = self.frontier_free[i] == 0
                && self.frontier[i * k..(i + 1) * k]
                    .iter()
                    .all(|&w| w == V::ZERO);
            if done {
                self.next_job[i] += 1;
                self.load_frontier(i);
            }
        }
        self.log.extend_from_slice(shares);
        self.steps += 1;
        &self.consumed
    }

    /// Finalizes the run.  At `k = 1` it returns the recorded steps as a
    /// [`Schedule`]: `u64` units convert to the exact share `units / D`,
    /// [`Ratio`] shares are returned unchanged.  A multi-resource run has
    /// no [`Schedule`] form (it is single-resource) and returns `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cr_core::{Instance, MultiStepper, Ratio};
    ///
    /// let inst = Instance::unit_from_percentages(&[&[60], &[40]]);
    /// let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
    /// assert_eq!(stepper.capacity(0), 5);
    /// assert_eq!(stepper.step_demand(0, 0), 3);
    /// stepper.push_step(&[3, 2]);
    /// let schedule = stepper.finish().unwrap();
    /// assert_eq!(schedule.share(0, 0), Ratio::from_percent(60));
    /// assert_eq!(schedule.makespan(&inst).unwrap(), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if jobs remain unfinished — that would be an algorithm bug.
    #[must_use]
    pub fn finish(self) -> Option<Schedule> {
        assert!(
            self.all_done(),
            "MultiStepper::finish called with unfinished jobs"
        );
        if self.resources != 1 {
            return None;
        }
        let cap = self.caps[0];
        let m = self.processors();
        Some(Schedule::new(
            self.log
                .chunks_exact(m)
                .map(|row| row.iter().map(|&share| share.to_share(cap)).collect())
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::job::Job;
    use crate::rational::ratio;

    fn two_resource_instance() -> Instance {
        InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 4)])
            .processor([ratio(3, 4)])
            .extra_layer([vec![ratio(1, 3), ratio(5, 6)], vec![Ratio::ZERO]])
            .build()
    }

    #[test]
    fn scaled_and_rational_steppers_agree_step_for_step() {
        let inst = two_resource_instance();
        let mut scaled = MultiStepper::try_new_scaled(&inst).unwrap();
        let mut rational = MultiStepper::new_rational(&inst);
        let k = inst.resources();
        let m = inst.processors();
        let to_ratio = |v: u64, cap: u64| Ratio::new(i128::from(v), i128::from(cap));
        let mut guard = 0;
        while !scaled.all_done() {
            assert!(!rational.all_done());
            for i in 0..m {
                assert_eq!(scaled.is_active(i), rational.is_active(i));
                assert_eq!(scaled.active_job(i), rational.active_job(i));
                for r in 0..k {
                    assert_eq!(
                        to_ratio(scaled.step_demand(i, r), scaled.capacity(r)),
                        rational.step_demand(i, r)
                    );
                    assert_eq!(
                        to_ratio(scaled.remaining(i, r), scaled.capacity(r)),
                        rational.remaining(i, r)
                    );
                }
            }
            // Serve in processor order on every resource independently.
            let mut unit_shares = vec![0u64; m * k];
            let mut left: Vec<u64> = scaled.capacities().to_vec();
            for (slot, cell) in unit_shares.iter_mut().enumerate() {
                let (i, r) = (slot / k, slot % k);
                *cell = scaled.step_demand(i, r).min(left[r]);
                left[r] -= *cell;
            }
            let ratio_shares: Vec<Ratio> = unit_shares
                .iter()
                .enumerate()
                .map(|(slot, &u)| to_ratio(u, scaled.capacity(slot % k)))
                .collect();
            let consumed_units = scaled.push_step(&unit_shares).to_vec();
            let consumed = rational.push_step(&ratio_shares);
            for r in 0..k {
                assert_eq!(to_ratio(consumed_units[r], scaled.capacity(r)), consumed[r]);
            }
            guard += 1;
            assert!(guard < 100, "stepper failed to make progress");
        }
        assert!(rational.all_done());
        assert_eq!(scaled.current_step(), rational.current_step());
        // A multi-resource run has no single-resource schedule form.
        assert_eq!(scaled.finish(), None);
        assert_eq!(rational.finish(), None);
    }

    #[test]
    fn binding_resource_throttles_progress() {
        // Both jobs are cheap on resource 0 but together oversubscribe
        // resource 1, so they cannot both finish in one step.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
        let d0 = stepper.capacity(0);
        let d1 = stepper.capacity(1);
        // Give everything to processor 0 on resource 1.
        assert_eq!(
            stepper.remaining_row(0),
            &[stepper.step_demand(0, 0), stepper.step_demand(0, 1)]
        );
        stepper.push_step(&[
            stepper.step_demand(0, 0),
            stepper.step_demand(0, 1),
            d0 - stepper.step_demand(0, 0),
            d1 - stepper.step_demand(0, 1),
        ]);
        assert!(!stepper.is_active(0));
        assert_eq!(stepper.remaining_row(0), &[0, 0]);
        // Processor 1 got the leftover of resource 1 (not enough: 1/4 < 3/4
        // needed), so it is still active.
        assert!(stepper.is_active(1));
        stepper.push_step(&[0, 0, stepper.step_demand(1, 0), stepper.step_demand(1, 1)]);
        assert!(stepper.all_done());
        assert_eq!(stepper.current_step(), 2);
    }

    #[test]
    #[should_panic(expected = "oversubscribes resource 1")]
    fn oversubscribed_layer_is_rejected() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2)])
            .processor([ratio(1, 2)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
        let d1 = stepper.capacity(1);
        let d0 = stepper.capacity(0);
        stepper.push_step(&[d0 / 2, d1, d0 / 2, d1]);
    }

    #[test]
    #[should_panic(expected = "share -1/2 for processor 0 lies outside [0, 1/1] on resource 0")]
    fn negative_rational_shares_are_rejected() {
        // A negative share would raise processor 0's remaining workload and
        // let processor 1 finish a full job on a column total of 1/2.
        let inst = Instance::unit_from_percentages(&[&[50], &[100]]);
        let mut stepper = MultiStepper::new_rational(&inst);
        stepper.push_step(&[ratio(-1, 2), Ratio::ONE]);
    }

    #[test]
    fn all_zero_requirement_vector_jobs_take_ceil_volume_steps() {
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 2))])
            .extra_layer([vec![Ratio::ZERO]])
            .build();
        let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
        for _ in 0..3 {
            assert!(stepper.is_active(0));
            stepper.push_step(&[0, 0]);
        }
        assert!(stepper.all_done());
        assert_eq!(stepper.current_step(), 3);
    }

    #[test]
    fn rational_stepper_keeps_each_layers_grid() {
        let primes: [i128; 4] = [4_294_967_291, 4_294_967_279, 4_294_967_231, 4_294_967_197];
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 4)])
            .processor([ratio(3, 4)])
            .extra_layer([
                vec![ratio(1, primes[0]), ratio(1, primes[1])],
                vec![ratio(1, primes[2] * primes[3])],
            ])
            .build();
        let rational = MultiStepper::new_rational(&inst);
        assert_eq!(rational.grid(0), Some(4));
        assert_eq!(rational.grid(1), None);
        assert!(MultiStepper::try_new_scaled(&inst).is_none());
    }
}
