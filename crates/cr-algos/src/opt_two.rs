//! `OptResAssignment` — the exact `O(n₁ · n₂)` dynamic program for **two**
//! processors (Algorithm 1, Theorem 5 of the paper).
//!
//! The dynamic program fills a table indexed by the pair `(c₁, c₂)` of job
//! counts already completed on the two processors.  Each cell stores the
//! earliest time step `t` by which this can be achieved together with the
//! smallest possible sum `r` of remaining requirements of the two frontier
//! jobs at that time (Lemma 3 shows this pair of values is all that matters).
//! A sparse variant that only visits reachable cells (the priority-queue
//! implementation sketched after Theorem 5) is provided as
//! [`opt_two_makespan_sparse`].
//!
//! In every time step of a normalized optimal schedule at least one frontier
//! job completes (Lemma 1), which leaves exactly three transitions:
//!
//! * the remaining requirements of both frontier jobs sum to at most 1 —
//!   finish both;
//! * otherwise finish only the first processor's frontier job and give the
//!   leftover resource to the second processor's frontier job;
//! * or vice versa.
//!
//! The table is one flat `(n₁+1)·(n₂+1)` array, written once over
//! [`StepUnit`]: `u64` units on the [`ScaledInstance`] grid (capacity `D`),
//! or exact [`Ratio`]s with capacity 1 when the grid overflows `u64` and as
//! [`opt_two_makespan_rational`].  Cells are filled row by row; the paper's
//! pseudo code goes diagonal by diagonal, but both orders relax each cell
//! from its three predecessors in the same order (both-finish, then
//! first-finishes, then second-finishes), so ties resolve identically.  A
//! cell value is one frontier requirement plus one carried leftover, each at
//! most the capacity, which is exactly the `2·D` headroom
//! [`ScaledInstance::try_new`] reserves.

use crate::traits::Scheduler;
use cr_core::{
    CancelReason, CancelToken, Instance, MultiStepper, Ratio, ScaledInstance, Schedule, StepUnit,
};
use rustc_hash::FxHashMap;
use std::ops::Add;

/// How many DP cells between token checks: a cell is a few additions and
/// comparisons, so the gate's cost is amortized over many of them.
const DP_CHECK_STRIDE: u32 = 1024;

/// Marks a cell no path has reached yet.
const UNREACHED: u32 = u32::MAX;

/// Which jobs complete in a time step of the reconstructed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Both frontier jobs finish in this step.
    AdvanceBoth,
    /// Only processor 0's frontier job finishes; the leftover goes to
    /// processor 1's frontier job.
    FinishFirst,
    /// Only processor 1's frontier job finishes; the leftover goes to
    /// processor 0's frontier job.
    FinishSecond,
}

/// One cell of the flat table.
#[derive(Debug, Clone, Copy)]
struct Cell<V> {
    /// Earliest step count reaching this cell (`UNREACHED` if none yet).
    t: u32,
    /// Smallest achievable sum of remaining frontier requirements at `t`.
    r: V,
    /// Decision taken in the last step on the best path into this cell.
    decision: Option<Decision>,
}

/// The two job chains and the capacity one DP runs on.
#[derive(Debug, Clone)]
pub(crate) struct Chains<V> {
    rows: [Vec<V>; 2],
    cap: V,
}

impl Chains<u64> {
    /// Both chains in units of the instance's grid.
    pub(crate) fn from_scaled(scaled: &ScaledInstance) -> Self {
        Chains {
            rows: [scaled.row(0).to_vec(), scaled.row(1).to_vec()],
            cap: scaled.capacity(),
        }
    }
}

impl Chains<Ratio> {
    /// Both chains as exact requirements, capacity 1.
    pub(crate) fn rational(instance: &Instance) -> Self {
        let row = |i: usize| {
            instance
                .processor_jobs(i)
                .iter()
                .map(|job| job.requirement)
                .collect()
        };
        Chains {
            rows: [row(0), row(1)],
            cap: Ratio::ONE,
        }
    }
}

impl<V: StepUnit + Add<Output = V>> Chains<V> {
    /// Requirement of the `c`-th job (zero-based) on processor `p`, or zero
    /// when the chain is exhausted (the paper's dummy 0-entry).
    fn req(&self, p: usize, c: usize) -> V {
        self.rows[p].get(c).copied().unwrap_or(V::ZERO)
    }

    /// Fills the table and back-traces the optimal decisions from the final
    /// cell, in forward (replay) order; their count is the makespan.  Polls
    /// `token` every [`DP_CHECK_STRIDE`] cells.
    pub(crate) fn decisions(&self, token: &CancelToken) -> Result<Vec<Decision>, CancelReason> {
        let _dp_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPT_TWO_DP);
        let (n1, n2) = (self.rows[0].len(), self.rows[1].len());
        let stride = n2 + 1;
        let unreached = Cell {
            t: UNREACHED,
            r: V::ZERO,
            decision: None,
        };
        let mut cells = vec![unreached; (n1 + 1) * stride];
        cells[0] = Cell {
            t: 0,
            r: self.req(0, 0) + self.req(1, 0),
            decision: None,
        };
        let relax = |cell: &mut Cell<V>, t: u32, r: V, decision: Decision| {
            if cell.t == UNREACHED || t < cell.t || (t == cell.t && r < cell.r) {
                *cell = Cell {
                    t,
                    r,
                    decision: Some(decision),
                };
            }
        };

        // Row-major order visits every predecessor before its successors:
        // all three transitions strictly increase (c1, c2) lexicographically.
        let mut gate = token.gate(DP_CHECK_STRIDE);
        for c1 in 0..=n1 {
            for c2 in 0..=n2 {
                gate.tick()?;
                let cell = cells[c1 * stride + c2];
                if cell.t == UNREACHED || (c1 == n1 && c2 == n2) {
                    continue;
                }
                let (t, r) = (cell.t + 1, cell.r);
                if c2 == n2 {
                    let next = self.req(0, c1 + 1);
                    relax(
                        &mut cells[(c1 + 1) * stride + c2],
                        t,
                        next,
                        Decision::FinishFirst,
                    );
                } else if c1 == n1 {
                    let next = self.req(1, c2 + 1);
                    relax(
                        &mut cells[c1 * stride + c2 + 1],
                        t,
                        next,
                        Decision::FinishSecond,
                    );
                } else if r <= self.cap {
                    let next = self.req(0, c1 + 1) + self.req(1, c2 + 1);
                    relax(
                        &mut cells[(c1 + 1) * stride + c2 + 1],
                        t,
                        next,
                        Decision::AdvanceBoth,
                    );
                } else {
                    let carried = r.sub(self.cap);
                    let first = self.req(0, c1 + 1) + carried;
                    relax(
                        &mut cells[(c1 + 1) * stride + c2],
                        t,
                        first,
                        Decision::FinishFirst,
                    );
                    let second = carried + self.req(1, c2 + 1);
                    relax(
                        &mut cells[c1 * stride + c2 + 1],
                        t,
                        second,
                        Decision::FinishSecond,
                    );
                }
            }
        }

        let mut decisions = Vec::new();
        let (mut c1, mut c2) = (n1, n2);
        // lint: allow(cancel_coverage) — back-trace: every step decrements c1 + c2, so at most n1 + n2 iterations after the gated fill
        while let Some(decision) = cells[c1 * stride + c2].decision {
            decisions.push(decision);
            match decision {
                Decision::AdvanceBoth => {
                    c1 -= 1;
                    c2 -= 1;
                }
                Decision::FinishFirst => c1 -= 1,
                Decision::FinishSecond => c2 -= 1,
            }
        }
        debug_assert_eq!((c1, c2), (0, 0), "back-trace must reach the origin");
        decisions.reverse();
        Ok(decisions)
    }
}

/// The optimal decisions on the instance's grid when it fits `u64`, with
/// exact rationals otherwise.
fn decisions(instance: &Instance) -> Vec<Decision> {
    let never = CancelToken::never();
    let result = match ScaledInstance::try_new(instance) {
        Some(scaled) => Chains::from_scaled(&scaled).decisions(&never),
        None => Chains::rational(instance).decisions(&never),
    };
    // lint: allow(panic_hygiene) — a never-token cannot fire
    result.expect("a never token cannot fire")
}

/// Exact two-processor solver.
///
/// # Examples
///
/// ```
/// use cr_algos::{OptTwo, Scheduler};
/// use cr_core::Instance;
///
/// // The columns (60, 40) and (40, 60) each sum to exactly the full
/// // resource, so an optimal schedule finishes one column per step.
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[40, 60]]);
/// assert_eq!(OptTwo::new().makespan(&inst), 2);
///
/// // Swapping the second processor's jobs makes the first column overflow;
/// // three steps become necessary.
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]);
/// assert_eq!(OptTwo::new().makespan(&inst), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OptTwo;

impl OptTwo {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        OptTwo
    }
}

/// Requirement of the `c`-th job (zero-based) on processor `i`, or zero when
/// the chain is exhausted (the paper's dummy 0-entry).
fn req_or_zero(instance: &Instance, processor: usize, c: usize) -> Ratio {
    if c < instance.jobs_on(processor) {
        instance.processor_jobs(processor)[c].requirement
    } else {
        Ratio::ZERO
    }
}

fn assert_two_unit_processors(instance: &Instance) {
    assert_eq!(
        instance.processors(),
        2,
        "OptTwo only handles instances with exactly two processors"
    );
    assert!(
        instance.is_unit_size(),
        "OptTwo requires unit-size jobs (the setting of Theorem 5)"
    );
}

/// The optimal makespan for a two-processor unit-size instance, computed by
/// the dense dynamic program of Algorithm 1 — on the `u64` grid whenever the
/// instance's requirement denominators admit a `u64` LCM, with exact
/// rationals otherwise.
///
/// # Panics
///
/// Panics if the instance does not have exactly two processors or contains
/// non-unit job sizes.
#[must_use]
pub fn opt_two_makespan(instance: &Instance) -> usize {
    assert_two_unit_processors(instance);
    decisions(instance).len()
}

/// The dense dynamic program in exact `Ratio` arithmetic (the reference the
/// property tests cross-check the `u64` table against).
///
/// # Panics
///
/// Panics if the instance does not have exactly two processors or contains
/// non-unit job sizes.
#[must_use]
pub fn opt_two_makespan_rational(instance: &Instance) -> usize {
    assert_two_unit_processors(instance);
    Chains::rational(instance)
        .decisions(&CancelToken::never())
        .expect("a never token cannot fire")
        .len()
}

/// Sparse variant of [`opt_two_makespan`]: cells are held in a hash map and
/// only reachable cells are expanded, mirroring the priority-queue
/// implementation discussed after Theorem 5.  Produces the same value as the
/// dense dynamic program.
#[must_use]
pub fn opt_two_makespan_sparse(instance: &Instance) -> usize {
    assert_two_unit_processors(instance);
    let n1 = instance.jobs_on(0);
    let n2 = instance.jobs_on(1);

    let mut cells: FxHashMap<(usize, usize), (usize, Ratio)> = FxHashMap::default();
    cells.insert(
        (0, 0),
        (0, req_or_zero(instance, 0, 0) + req_or_zero(instance, 1, 0)),
    );

    let relax = |cells: &mut FxHashMap<(usize, usize), (usize, Ratio)>,
                 key: (usize, usize),
                 t: usize,
                 r: Ratio| {
        let better = match cells.get(&key) {
            None => true,
            Some(&(ot, or)) => t < ot || (t == ot && r < or),
        };
        if better {
            cells.insert(key, (t, r));
        }
    };

    // lint: allow(cancel_coverage) — the sparse reference variant takes no token and is not reachable from the solver layer, which runs the gated dense table
    for diag in 0..=(n1 + n2) {
        let keys: Vec<(usize, usize)> = cells
            .keys()
            .copied()
            .filter(|&(c1, c2)| c1 + c2 == diag)
            .collect();
        // lint: allow(cancel_coverage) — the sparse reference variant is not reachable from the solver layer (see above)
        for (c1, c2) in keys {
            let (t, r) = cells[&(c1, c2)];
            if c1 == n1 && c2 == n2 {
                continue;
            }
            if c1 < n1 && c2 == n2 {
                relax(
                    &mut cells,
                    (c1 + 1, c2),
                    t + 1,
                    req_or_zero(instance, 0, c1 + 1),
                );
            } else if c1 == n1 && c2 < n2 {
                relax(
                    &mut cells,
                    (c1, c2 + 1),
                    t + 1,
                    req_or_zero(instance, 1, c2 + 1),
                );
            } else if r <= Ratio::ONE {
                relax(
                    &mut cells,
                    (c1 + 1, c2 + 1),
                    t + 1,
                    req_or_zero(instance, 0, c1 + 1) + req_or_zero(instance, 1, c2 + 1),
                );
            } else {
                let carried = r - Ratio::ONE;
                relax(
                    &mut cells,
                    (c1 + 1, c2),
                    t + 1,
                    req_or_zero(instance, 0, c1 + 1) + carried,
                );
                relax(
                    &mut cells,
                    (c1, c2 + 1),
                    t + 1,
                    carried + req_or_zero(instance, 1, c2 + 1),
                );
            }
        }
    }
    cells[&(n1, n2)].0
}

/// Replays a DP decision sequence into an explicit resource assignment,
/// tracking the exact remaining requirement of both frontier jobs.
pub(crate) fn replay_decisions(instance: &Instance, decisions: Vec<Decision>) -> Schedule {
    let mut stepper = MultiStepper::new_rational(instance);
    // lint: allow(cancel_coverage) — bounded: one step per decision of the gated DP
    for decision in decisions {
        let v0 = stepper.remaining(0, 0);
        let v1 = stepper.remaining(1, 0);
        let shares = match decision {
            Decision::AdvanceBoth => {
                debug_assert!(v0 + v1 <= Ratio::ONE);
                [v0, v1]
            }
            Decision::FinishFirst => {
                let leftover = (Ratio::ONE - v0).min(v1).max(Ratio::ZERO);
                [v0, leftover]
            }
            Decision::FinishSecond => {
                let leftover = (Ratio::ONE - v1).min(v0).max(Ratio::ZERO);
                [leftover, v1]
            }
        };
        stepper.push_step(&shares);
    }
    let schedule = stepper.finish();
    // lint: allow(panic_hygiene) — the two-processor DP runs single-resource instances only
    schedule.expect("single-resource runs finish to a schedule")
}

impl Scheduler for OptTwo {
    fn name(&self) -> &'static str {
        "OptResAssignment(m=2)"
    }

    /// Runs the dynamic program and reconstructs an optimal schedule by
    /// back-tracing the table and replaying the per-step decisions.
    fn schedule(&self, instance: &Instance) -> Schedule {
        assert_two_unit_processors(instance);
        replay_decisions(instance, decisions(instance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::bounds;
    use cr_core::InstanceBuilder;

    #[test]
    fn trivial_instances() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50]]);
        assert_eq!(opt_two_makespan(&inst), 1);
        let inst = Instance::unit_from_percentages(&[&[100], &[100]]);
        assert_eq!(opt_two_makespan(&inst), 2);
        let inst = Instance::unit_from_percentages(&[&[100, 100], &[100]]);
        assert_eq!(opt_two_makespan(&inst), 3);
    }

    #[test]
    fn empty_chain_on_one_processor() {
        let inst = InstanceBuilder::new()
            .processor([Ratio::from_percent(40), Ratio::from_percent(90)])
            .empty_processor()
            .build();
        assert_eq!(opt_two_makespan(&inst), 2);
        assert_eq!(opt_two_makespan_sparse(&inst), 2);
        let schedule = OptTwo::new().schedule(&inst);
        assert_eq!(schedule.makespan(&inst).unwrap(), 2);
    }

    #[test]
    fn round_robin_worst_case_is_solved_optimally() {
        // The Theorem 3 lower-bound family for n = 4: r1j = j/4, r2j = 1 + 1/4 − j/4.
        let reqs1: Vec<Ratio> = (1..=4).map(|j| Ratio::new(j, 4)).collect();
        let reqs2: Vec<Ratio> = (1..=4)
            .map(|j| Ratio::new(5, 4) - Ratio::new(j, 4))
            .collect();
        let inst = InstanceBuilder::new()
            .processor(reqs1)
            .processor(reqs2)
            .build();
        // OPT finishes it in n + 1 = 5 steps (Figure 3a).
        assert_eq!(opt_two_makespan(&inst), 5);
        assert_eq!(opt_two_makespan_sparse(&inst), 5);
        let schedule = OptTwo::new().schedule(&inst);
        assert_eq!(schedule.makespan(&inst).unwrap(), 5);
    }

    #[test]
    fn schedule_matches_dp_value_and_lower_bounds() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100, 1, 100, 1], &[1, 100, 1, 100]]),
            Instance::unit_from_percentages(&[&[55, 45, 35, 25], &[65, 75, 85, 95]]),
        ];
        for inst in instances {
            let dp = opt_two_makespan(&inst);
            let sparse = opt_two_makespan_sparse(&inst);
            assert_eq!(dp, sparse);
            let schedule = OptTwo::new().schedule(&inst);
            assert_eq!(schedule.makespan(&inst).unwrap(), dp);
            assert!(dp >= bounds::trivial_lower_bound(&inst));
        }
    }

    #[test]
    fn scaled_and_rational_paths_agree() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100, 1, 100, 1], &[1, 100, 1, 100]]),
            Instance::unit_from_percentages(&[&[0, 50, 100], &[100, 50, 0]]),
            Instance::unit_from_percentages(&[&[55, 45, 35, 25], &[65, 75, 85, 95]]),
        ];
        for inst in instances {
            let scaled = opt_two_makespan(&inst);
            assert_eq!(scaled, opt_two_makespan_rational(&inst), "{inst}");
            assert_eq!(
                OptTwo::new().schedule(&inst).makespan(&inst).unwrap(),
                scaled
            );
        }
    }

    #[test]
    fn dp_sweeps_poll_cancellation_mid_table() {
        // Deterministic mid-sweep check: a pre-cancelled token on a table
        // larger than the poll stride must stop both DP engines inside the
        // cell loop (neither back-trace entry point re-checks up front).
        let reqs: Vec<i64> = (0..120).map(|j| 1 + j % 97).collect();
        let chain: Vec<&[i64]> = vec![&reqs, &reqs];
        let inst = Instance::unit_from_percentages(&chain);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let rational = Chains::rational(&inst);
        assert!(rational.decisions(&cancelled).is_err());
        let scaled = Chains::from_scaled(&ScaledInstance::try_new(&inst).unwrap());
        assert!(scaled.decisions(&cancelled).is_err());
        // A never-token reproduces the ungated result on both units.
        assert_eq!(
            rational.decisions(&CancelToken::never()).unwrap(),
            decisions(&inst)
        );
    }

    #[test]
    #[should_panic(expected = "exactly two processors")]
    fn rejects_three_processors() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50], &[50]]);
        let _ = opt_two_makespan(&inst);
    }

    #[test]
    fn dominates_greedy_balance() {
        use crate::greedy_balance::GreedyBalance;
        let instances = vec![
            Instance::unit_from_percentages(&[&[90, 10, 90, 10], &[10, 90, 10, 90]]),
            Instance::unit_from_percentages(&[&[75, 50, 25], &[25, 50, 75]]),
        ];
        for inst in instances {
            assert!(opt_two_makespan(&inst) <= GreedyBalance::new().makespan(&inst));
        }
    }
}
