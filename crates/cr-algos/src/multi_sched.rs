//! The six polynomial heuristics, written once for every resource count
//! and both exact representations.
//!
//! Each rule drives a [`MultiStepper`] — the exact per-resource step
//! simulator from `cr-core` — splitting **every resource pool
//! independently** with the heuristic's share rule, until all chains drain.
//! The paper's single shared resource is the `k = 1` case; for `k ≥ 2` the
//! binding resource sets the pace automatically: a processor advances its
//! frontier job only once every positive layer has absorbed its full
//! per-step demand.  At `k = 1` the stepper finishes to the [`Schedule`].
//!
//! * Ordering heuristics (`GreedyBalance`, `Largest`/`Smallest`
//!   `RequirementFirst`) rank processors by the **frontier job's remaining
//!   workload vector**, compared lexicographically layer by layer (at
//!   `k = 1`, the remaining workload itself).
//! * Splitting heuristics (`EqualShare`, `ProportionalShare`) divide each
//!   pool with largest-remainder rounding on the layer's unit grid: the
//!   `u64` stepper splits its integer pool, the [`Ratio`] stepper applies
//!   the identical split in exact arithmetic on the same grid
//!   ([`largest_remainder_split_ratio`]), and divides exactly only on a
//!   layer whose grid overflows `u64`.  Wherever both steppers exist they
//!   therefore hand out the same shares.
//!
//! Termination: in serve-in-order rules the first-ranked processor always
//! receives its full per-step demand on every layer (a single demand never
//! exceeds the layer capacity), and in the split rules the largest-remainder
//! tie-break hands the lowest-ranked active processor at least one unit per
//! layer, so some chain always drains and finished chains leave the active
//! set.

use cr_core::scaled::{largest_remainder_split, largest_remainder_split_ratio};
use cr_core::{Instance, MultiStepper, Ratio, Schedule, StepUnit};

/// Which polynomial share rule a run applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolyKind {
    /// Equal split of every pool over the active processors.
    EqualShare,
    /// Grant demands outright when they fit, else split proportionally.
    ProportionalShare,
    /// Serve in order: unfinished jobs desc, remaining vector desc, index.
    GreedyBalance,
    /// Serve in order of lexicographically largest remaining vector.
    LargestRequirementFirst,
    /// Serve in order of lexicographically smallest remaining vector.
    SmallestRequirementFirst,
    /// Phase over job indices, serving same-phase processors in order.
    RoundRobin,
}

/// A [`StepUnit`] that can additionally split one resource pool over
/// weighted claimants.
pub(crate) trait SplitUnit: StepUnit {
    /// Splits the pool of `stepper`'s resource `resource` over `weights`;
    /// all-zero weights yield all-zero shares.
    fn split_pool(stepper: &MultiStepper<Self>, resource: usize, weights: &[Self]) -> Vec<Self>;
}

impl SplitUnit for u64 {
    fn split_pool(stepper: &MultiStepper<Self>, resource: usize, weights: &[Self]) -> Vec<Self> {
        largest_remainder_split(stepper.capacity(resource), weights)
    }
}

impl SplitUnit for Ratio {
    fn split_pool(stepper: &MultiStepper<Self>, resource: usize, weights: &[Self]) -> Vec<Self> {
        if let Some(grid) = stepper.grid(resource) {
            return largest_remainder_split_ratio(i128::from(grid), weights);
        }
        let total: Ratio = weights.iter().sum();
        if total.is_zero() {
            return vec![Ratio::ZERO; weights.len()];
        }
        weights.iter().map(|&w| w / total).collect()
    }
}

/// Runs `kind` to completion on `stepper` and returns its step count and,
/// at `k = 1`, the finished [`Schedule`].
pub(crate) fn run<V: SplitUnit>(
    kind: PolyKind,
    mut stepper: MultiStepper<V>,
) -> (usize, Option<Schedule>) {
    match kind {
        PolyKind::EqualShare | PolyKind::ProportionalShare => run_split(kind, &mut stepper),
        PolyKind::GreedyBalance
        | PolyKind::LargestRequirementFirst
        | PolyKind::SmallestRequirementFirst => run_serve_order(kind, &mut stepper),
        PolyKind::RoundRobin => run_round_robin(&mut stepper),
    }
    (stepper.current_step(), stepper.finish())
}

/// The [`Schedule`] `kind` produces for `instance`: on the `u64` stepper
/// when every layer's grid fits, on the [`Ratio`] stepper otherwise.  A
/// schedule is single-resource, so a multi-resource instance is scheduled
/// on its base resource, like [`Schedule::trace`] reads it.
pub(crate) fn schedule(kind: PolyKind, instance: &Instance) -> Schedule {
    let instance = &*instance.base_resource();
    let (_, schedule) = match MultiStepper::try_new_scaled(instance) {
        Some(stepper) => run(kind, stepper),
        None => run(kind, MultiStepper::new_rational(instance)),
    };
    // lint: allow(panic_hygiene) — the instance was reduced to one resource above
    schedule.expect("single-resource runs finish to a schedule")
}

/// Splits every layer's pool independently until all chains drain:
/// uniformly over the active processors (`EqualShare`), or by granting the
/// step demands outright when they fit and splitting proportionally to
/// them otherwise (`ProportionalShare`).
fn run_split<V: SplitUnit>(kind: PolyKind, stepper: &mut MultiStepper<V>) {
    let m = stepper.processors();
    let k = stepper.resources();
    let mut shares = vec![V::ZERO; m * k];
    let mut weights: Vec<V> = Vec::with_capacity(m);
    // lint: allow(cancel_coverage) — bounded by the termination argument in the module docs
    while !stepper.all_done() {
        for r in 0..k {
            let cap = stepper.capacity(r);
            weights.clear();
            if kind == PolyKind::EqualShare {
                // Equal positive weight per active processor; the layer's
                // own capacity is the one positive `V` always at hand.
                weights.extend((0..m).map(|i| if stepper.is_active(i) { cap } else { V::ZERO }));
            } else {
                weights.extend((0..m).map(|i| stepper.step_demand(i, r)));
            }
            let fits = kind == PolyKind::ProportionalShare
                && weights
                    .iter()
                    .try_fold(V::ZERO, |total, &d| total.checked_add(d))
                    .is_some_and(|total| total <= cap);
            let split;
            let row = if fits {
                &weights
            } else {
                split = V::split_pool(stepper, r, &weights);
                &split
            };
            for (i, &share) in row.iter().enumerate() {
                shares[i * k + r] = share;
            }
        }
        stepper.push_step(&shares);
    }
}

/// Serves processors in the rule's priority order, granting each its full
/// per-layer demand while the layer's pool lasts.
fn run_serve_order<V: SplitUnit>(kind: PolyKind, stepper: &mut MultiStepper<V>) {
    let m = stepper.processors();
    let k = stepper.resources();
    let mut order: Vec<usize> = Vec::with_capacity(m);
    let mut shares = vec![V::ZERO; m * k];
    let mut left = vec![V::ZERO; k];
    // lint: allow(cancel_coverage) — bounded by the termination argument in the module docs
    while !stepper.all_done() {
        order.clear();
        order.extend((0..m).filter(|&i| stepper.is_active(i)));
        let s = &*stepper;
        // Every comparator ends on the processor index, so the order is
        // total and an unstable sort is deterministic.
        match kind {
            PolyKind::GreedyBalance => order.sort_unstable_by(|&a, &b| {
                s.unfinished_jobs(b)
                    .cmp(&s.unfinished_jobs(a))
                    .then_with(|| s.remaining_row(b).cmp(s.remaining_row(a)))
                    .then_with(|| a.cmp(&b))
            }),
            PolyKind::SmallestRequirementFirst => order.sort_unstable_by(|&a, &b| {
                s.remaining_row(a)
                    .cmp(s.remaining_row(b))
                    .then_with(|| a.cmp(&b))
            }),
            _ => order.sort_unstable_by(|&a, &b| {
                s.remaining_row(b)
                    .cmp(s.remaining_row(a))
                    .then_with(|| a.cmp(&b))
            }),
        }
        serve_in_order(stepper, &order, &mut shares, &mut left);
        stepper.push_step(&shares);
    }
}

/// RoundRobin: one phase per job index; within a phase, every processor
/// whose frontier job sits at that index is served in processor order
/// until the phase drains.
fn run_round_robin<V: SplitUnit>(stepper: &mut MultiStepper<V>) {
    let m = stepper.processors();
    let k = stepper.resources();
    let phases = (0..m)
        .map(|i| stepper.unfinished_jobs(i))
        .max()
        .unwrap_or(0);
    let mut participants: Vec<usize> = Vec::with_capacity(m);
    let mut shares = vec![V::ZERO; m * k];
    let mut left = vec![V::ZERO; k];
    // lint: allow(cancel_coverage) — bounded: one pass over the chain's job indices
    for phase in 0..phases {
        // lint: allow(cancel_coverage) — bounded by the termination argument in the module docs
        loop {
            participants.clear();
            participants.extend(
                (0..m).filter(|&i| stepper.active_job(i).is_some_and(|id| id.index == phase)),
            );
            if participants.is_empty() {
                break;
            }
            serve_in_order(stepper, &participants, &mut shares, &mut left);
            stepper.push_step(&shares);
        }
    }
}

/// Fills `shares` by granting each processor in `order` `min(step demand,
/// pool left)` on every layer; `left` is scratch space of length `k`.  The
/// first processor always receives its full demand (a single demand never
/// exceeds a layer's capacity), which drives termination.
fn serve_in_order<V: SplitUnit>(
    stepper: &MultiStepper<V>,
    order: &[usize],
    shares: &mut [V],
    left: &mut [V],
) {
    let k = stepper.resources();
    shares.fill(V::ZERO);
    left.copy_from_slice(stepper.capacities());
    for &i in order {
        for (r, pool) in left.iter_mut().enumerate() {
            let grant = stepper.step_demand(i, r).min(*pool);
            shares[i * k + r] = grant;
            *pool = pool.sub(grant);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{ratio, InstanceBuilder};

    const ALL: [PolyKind; 6] = [
        PolyKind::EqualShare,
        PolyKind::ProportionalShare,
        PolyKind::GreedyBalance,
        PolyKind::LargestRequirementFirst,
        PolyKind::SmallestRequirementFirst,
        PolyKind::RoundRobin,
    ];

    fn scaled(kind: PolyKind, instance: &Instance) -> usize {
        run(
            kind,
            MultiStepper::try_new_scaled(instance).expect("grid fits"),
        )
        .0
    }

    fn rational(kind: PolyKind, instance: &Instance) -> usize {
        run(kind, MultiStepper::new_rational(instance)).0
    }

    fn sample() -> Instance {
        InstanceBuilder::new()
            .processor([ratio(6, 10), ratio(4, 10)])
            .processor([ratio(3, 10), ratio(9, 10)])
            .processor([ratio(1, 2), ratio(1, 2)])
            .extra_layer([
                vec![ratio(1, 4), ratio(3, 4)],
                vec![ratio(7, 10), ratio(1, 10)],
                vec![ratio(1, 2), ratio(1, 2)],
            ])
            .build()
    }

    #[test]
    fn every_rule_drains_a_two_resource_instance() {
        let inst = sample();
        let total_jobs = 6;
        for kind in ALL {
            // Any makespan is at least the binding workload bound and at
            // most one step per unit of work per job.
            for value in [scaled(kind, &inst), rational(kind, &inst)] {
                assert!(value >= 2, "{kind:?} produced {value}");
                assert!(value <= 4 * total_jobs, "{kind:?} produced {value}");
            }
        }
    }

    #[test]
    fn binding_second_resource_slows_the_heuristics_down() {
        // Layer 1 workload is 3 → every rule needs at least 3 steps even
        // though layer 0 is nearly free.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 100)])
            .processor([ratio(1, 100)])
            .processor([ratio(1, 100)])
            .extra_layer([vec![Ratio::ONE], vec![Ratio::ONE], vec![Ratio::ONE]])
            .build();
        for kind in ALL {
            assert!(scaled(kind, &inst) >= 3);
            assert!(rational(kind, &inst) >= 3);
        }
    }

    #[test]
    fn serve_order_rules_agree_across_engines() {
        // The rational stepper rounds its splits to the same per-layer
        // grid the u64 stepper runs on, so every rule — splitting ones
        // included — agrees exactly at k = 2.
        let inst = sample();
        for kind in ALL {
            assert_eq!(
                scaled(kind, &inst),
                rational(kind, &inst),
                "{kind:?} diverged across engines"
            );
        }
    }

    #[test]
    fn empty_instance_takes_zero_steps() {
        let inst = InstanceBuilder::new().empty_processor().build();
        for kind in ALL {
            assert_eq!(scaled(kind, &inst), 0);
            assert_eq!(rational(kind, &inst), 0);
        }
    }
}
