//! Scaled-integer view of an instance's resource requirements, and the
//! scaled scheduling layer built on top of it.
//!
//! The exact solvers spend essentially all of their time comparing and
//! summing [`Ratio`] requirements: every `Ratio` addition runs Euclid's gcd
//! on `i128` operands, and every comparison cross-multiplies.  For a *fixed*
//! instance none of that generality is needed — all requirements live on the
//! common grid `1/D`, where `D` is the least common multiple of their
//! denominators (bounded, for every instance family shipped in this
//! repository, by a few million — see the `rational` module docs).
//!
//! [`ScaledInstance`] precomputes `D` once and re-expresses every requirement
//! as a plain `u64` number of *units* with resource capacity `D`.  Sums,
//! "does it exceed the resource?" tests and leftover computations then become
//! single integer operations with no gcd anywhere.  The conversion is exact
//! in both directions: [`ScaledInstance::to_ratio`] returns the original
//! requirement value bit-for-bit (same reduced fraction), which is what lets
//! the solver cores run on units internally while the public API keeps
//! speaking exact [`Ratio`]s.
//!
//! # The scheduling layer's grids
//!
//! Schedule construction runs on a [`MultiStepper`](crate::multi::MultiStepper),
//! which tracks the remaining **workload** `r·p` of each frontier job, so
//! its grid must also cover the workload denominators: [`layer_grid`] is
//! the LCM `D_r` of one resource layer's requirement *and* positive
//! workload denominators.  A time step hands out exactly `D_r` units of
//! that resource, and granting `c ≤ min(workload, r·D_r)` units reduces the
//! remaining workload by exactly `c`.
//!
//! [`largest_remainder_split`] is the companion primitive for policies that
//! *divide* the resource (uniform or demand-proportional shares): it splits
//! the `D`-unit pool proportionally to integer weights with deterministic
//! largest-remainder rounding, so shares always sum to exactly one pool —
//! no sliver of the resource is silently wasted, and a positive demand is
//! only ever given zero units when the entire pool went to other positive
//! demands.  [`largest_remainder_split_ratio`] is the same split in exact
//! [`Ratio`] arithmetic, which the rational stepper applies on the same
//! grid so both steppers hand out identical shares.
//!
//! Construction is fallible ([`ScaledInstance::try_new`], [`layer_grid`]):
//! if the LCM blows past the overflow-safe bound, callers fall back to the
//! rational-arithmetic path.  The two grids reserve different headroom
//! above the LCM `D`: [`ScaledInstance`] only needs `2 · D` (the
//! two-processor DP's requirement-plus-carry cells; the wide configuration
//! engines in `cr-algos` overflow-check their own `m`-fold sums), while
//! [`layer_grid`] keeps `(m + 1) · D` so a step's `m` shares plus a carry
//! always fit `u64`.

use crate::instance::Instance;
use crate::rational::Ratio;

/// An instance's requirements re-expressed as integer units on the common
/// grid `1/capacity`.
///
/// Rows are stored in one flat buffer (CSR-style) so iterating a processor's
/// chain is a contiguous slice scan.
///
/// # Examples
///
/// ```
/// use cr_core::{Instance, Ratio, ScaledInstance};
///
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[50]]);
/// let scaled = ScaledInstance::try_new(&inst).unwrap();
/// // 60%, 40% and 50% share the grid 1/5 after reduction (3/5, 2/5, 1/2 → lcm 10).
/// assert_eq!(scaled.capacity(), 10);
/// assert_eq!(scaled.row(0), &[6, 4]);
/// assert_eq!(scaled.row(1), &[5]);
/// assert_eq!(scaled.to_ratio(6), Ratio::from_percent(60));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaledInstance {
    /// The shared resource capacity `D` (the requirement denominators' LCM).
    capacity: u64,
    /// Row start offsets into `units`; length `processors + 1`.
    offsets: Vec<u32>,
    /// All requirements in units, processor-major.
    units: Vec<u64>,
    /// Extra resource layers (`extra[r − 1]` is resource `r`), each on its
    /// **own** per-resource LCM grid and sharing `offsets`.  Empty for
    /// single-resource instances, whose representation is bit-for-bit what
    /// it was before the multi-resource generalization.
    extra: Vec<ScaledLayer>,
}

/// One extra resource layer of a [`ScaledInstance`]: its own unit grid plus
/// the per-job requirements in units, addressed through the instance's
/// shared CSR offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScaledLayer {
    /// The layer's capacity `D_r` (LCM of the layer's requirement
    /// denominators, with the same `2 · D_r` headroom as the base grid).
    capacity: u64,
    /// The layer's requirements in units, processor-major.
    units: Vec<u64>,
}

/// Greatest common divisor (Euclid) on `u64`.
pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl ScaledInstance {
    /// Builds the scaled view, or `None` when the denominators' LCM `D` is
    /// so large that `2 · D` would overflow `u64`.  Callers treat `None` as
    /// "use the rational path".
    ///
    /// # Headroom invariant
    ///
    /// The factor-two headroom is exactly what the two-processor dynamic
    /// program needs: its cell values are one frontier requirement plus one
    /// carried leftover, each at most `D`.  Wider sums — over the
    /// *m*-processor active set of the configuration search — are **not**
    /// covered and may exceed `u64`; the engines in `cr-algos` use
    /// overflow-checked additions for those (an overflowing sum is, a
    /// fortiori, oversubscribed).  Before ISSUE 4 this reserved
    /// `(m + 1) · D` instead, needlessly pushing wide many-core instances
    /// with large denominators onto the slow rational path.
    ///
    /// The scheduling layer's grid ([`layer_grid`]) still reserves
    /// `(m + 1) · D`.
    #[must_use]
    pub fn try_new(instance: &Instance) -> Option<Self> {
        let m = instance.processors();
        // LCM of all requirement denominators.  Denominators are positive and
        // requirements lie in [0, 1], so they fit u64.
        let mut capacity: u64 = 1;
        for (_, job) in instance.iter_jobs() {
            let den = u64::try_from(job.requirement.denom()).ok()?;
            let g = gcd(capacity, den);
            capacity = capacity.checked_mul(den / g)?;
            // Keep headroom for one requirement plus one carried leftover.
            capacity.checked_mul(2)?;
        }
        let mut offsets = Vec::with_capacity(m + 1);
        let mut units = Vec::with_capacity(instance.total_jobs());
        offsets.push(0u32);
        for i in 0..m {
            for job in instance.processor_jobs(i) {
                let num = u64::try_from(job.requirement.numer()).ok()?;
                let den = u64::try_from(job.requirement.denom()).ok()?;
                // num ≤ den divides capacity, so num · (capacity / den) ≤ capacity.
                units.push(num * (capacity / den));
            }
            offsets.push(u32::try_from(units.len()).ok()?);
        }
        // Each extra resource layer gets its own denominator-LCM grid with
        // the same factor-two headroom discipline as the base resource.
        let mut extra = Vec::with_capacity(instance.extra_layers().len());
        for layer in instance.extra_layers() {
            let mut layer_capacity: u64 = 1;
            for row in layer {
                for req in row {
                    let den = u64::try_from(req.denom()).ok()?;
                    let g = gcd(layer_capacity, den);
                    layer_capacity = layer_capacity.checked_mul(den / g)?;
                    layer_capacity.checked_mul(2)?;
                }
            }
            let mut layer_units = Vec::with_capacity(units.len());
            for row in layer {
                for req in row {
                    let num = u64::try_from(req.numer()).ok()?;
                    let den = u64::try_from(req.denom()).ok()?;
                    layer_units.push(num * (layer_capacity / den));
                }
            }
            extra.push(ScaledLayer {
                capacity: layer_capacity,
                units: layer_units,
            });
        }
        Some(ScaledInstance {
            capacity,
            offsets,
            units,
            extra,
        })
    }

    /// Number of shared resources `k` (`1` plus the extra layers).
    #[must_use]
    pub fn resources(&self) -> usize {
        1 + self.extra.len()
    }

    /// The capacity `D_r` of resource `resource` (`0` is the base
    /// resource): a full time step hands out `layer_capacity(r)` units *of
    /// resource `r`*.  Each resource lives on its own grid.
    #[must_use]
    pub fn layer_capacity(&self, resource: usize) -> u64 {
        if resource == 0 {
            self.capacity
        } else {
            self.extra[resource - 1].capacity
        }
    }

    /// Requirements of processor `i` on resource `resource` in that
    /// resource's units, in chain order.
    #[must_use]
    pub fn layer_row(&self, resource: usize, processor: usize) -> &[u64] {
        let range = self.offsets[processor] as usize..self.offsets[processor + 1] as usize;
        if resource == 0 {
            &self.units[range]
        } else {
            &self.extra[resource - 1].units[range]
        }
    }

    /// Requirement of job `(processor, index)` on resource `resource` in
    /// that resource's units.
    #[must_use]
    pub fn layer_unit_req(&self, resource: usize, processor: usize, index: usize) -> u64 {
        let slot = self.offsets[processor] as usize + index;
        if resource == 0 {
            self.units[slot]
        } else {
            self.extra[resource - 1].units[slot]
        }
    }

    /// Converts a unit count of resource `resource` back to the exact
    /// rational share `units / D_r` (reduced — round-trips the original
    /// requirement).
    #[must_use]
    pub fn to_ratio_on(&self, resource: usize, units: u64) -> Ratio {
        Ratio::new(i128::from(units), i128::from(self.layer_capacity(resource)))
    }

    /// The resource capacity `D`: a full time step hands out exactly
    /// `capacity` units.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of jobs on processor `i`.
    #[must_use]
    pub fn jobs_on(&self, processor: usize) -> usize {
        (self.offsets[processor + 1] - self.offsets[processor]) as usize
    }

    /// Total number of jobs over all processors.
    #[must_use]
    pub fn total_jobs(&self) -> usize {
        self.units.len()
    }

    /// Requirements of processor `i` in units, in chain order.
    #[must_use]
    pub fn row(&self, processor: usize) -> &[u64] {
        &self.units[self.offsets[processor] as usize..self.offsets[processor + 1] as usize]
    }

    /// Requirement of job `(processor, index)` in units.
    #[must_use]
    pub fn unit_req(&self, processor: usize, index: usize) -> u64 {
        self.units[self.offsets[processor] as usize + index]
    }

    /// Converts a unit count back to the exact rational share
    /// `units / capacity` (reduced — round-trips the original requirement).
    #[must_use]
    pub fn to_ratio(&self, units: u64) -> Ratio {
        Ratio::new(i128::from(units), i128::from(self.capacity))
    }
}

/// The scheduling layer's unit grid of resource `resource`: the LCM `D_r`
/// of the layer's requirement denominators and of the denominators of its
/// positive workloads `r·p`, or `None` when `(m + 1)·D_r` would overflow
/// `u64` (the headroom keeps a step's `m` shares plus a carry in range).
///
/// A job whose requirement on the layer is zero contributes only its
/// requirement's denominator: it has no workload there, and a job that is
/// free on every layer is tracked by step count instead.
///
/// # Examples
///
/// ```
/// use cr_core::scaled::layer_grid;
/// use cr_core::{ratio, InstanceBuilder, Job};
///
/// // Requirement 1/3 with volume 5/2: the workload 5/6 forces grid 6.
/// let inst = InstanceBuilder::new()
///     .processor_jobs([Job::new(ratio(1, 3), ratio(5, 2))])
///     .build();
/// assert_eq!(layer_grid(&inst, 0), Some(6));
/// ```
#[must_use]
pub fn layer_grid(instance: &Instance, resource: usize) -> Option<u64> {
    let headroom = instance.processors() as u64 + 1;
    let mut capacity: u64 = 1;
    let mut fold = |den: i128| -> Option<()> {
        let den = u64::try_from(den).ok()?;
        capacity = capacity.checked_mul(den / gcd(capacity, den))?;
        capacity.checked_mul(headroom)?;
        Some(())
    };
    for (id, job) in instance.iter_jobs() {
        let req = instance.requirement_on(resource, id);
        fold(req.denom())?;
        // A unit volume's workload is the requirement itself.
        if req.is_positive() && job.volume != Ratio::ONE {
            fold(req.checked_mul(job.volume)?.denom())?;
        }
    }
    Some(capacity)
}

/// Splits a pool of `pool` resource units proportionally to integer
/// `weights`, with deterministic largest-remainder rounding.
///
/// Each entry receives `⌊pool·wᵢ/Σw⌋` units, and the remaining units are
/// handed out one each in order of decreasing fractional part
/// `(pool·wᵢ) mod Σw` (ties broken towards the lower index).  The result
/// always sums to exactly `pool` (or to zero when all weights are zero), a
/// zero weight always receives zero units, and no entry exceeds
/// `⌈pool·wᵢ/Σw⌉` — in particular, when `Σw > pool` no entry exceeds its own
/// weight, so demand-proportional splits never over-allocate a job.
///
/// # Examples
///
/// ```
/// use cr_core::scaled::largest_remainder_split;
///
/// // A 10-unit pool split uniformly among three actives: 4 + 3 + 3.
/// assert_eq!(largest_remainder_split(10, &[1, 1, 1]), vec![4, 3, 3]);
/// // Proportional to demands 7 and 3 (oversubscribed pool of 5): 4 + 1.
/// assert_eq!(largest_remainder_split(5, &[7, 3]), vec![4, 1]);
/// ```
#[must_use]
pub fn largest_remainder_split(pool: u64, weights: &[u64]) -> Vec<u64> {
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if total == 0 {
        return vec![0; weights.len()];
    }
    let mut shares = vec![0u64; weights.len()];
    let mut fracs: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let product = u128::from(pool) * u128::from(w);
        // product / total ≤ pool, so the quotient fits u64.
        let base = (product / total) as u64;
        shares[i] = base;
        assigned += base;
        fracs.push((product % total, i));
    }
    // Σ fracᵢ = rest·total with every frac < total, so rest < len and every
    // bumped entry has a strictly positive fractional part (zero weights are
    // never bumped).
    let rest = (pool - assigned) as usize;
    fracs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    for &(_, i) in fracs.iter().take(rest) {
        shares[i] += 1;
    }
    shares
}

/// The [`Ratio`]-arithmetic twin of [`largest_remainder_split`]: splits the
/// full unit pool (`1`) proportionally to `weights` on the grid `1/grid`.
///
/// For weights that are multiples of `1/grid` this produces exactly the
/// shares `largest_remainder_split(grid, unit_weights)` produces (divided by
/// `grid`) — it is how the rational stepper's splitting heuristics hand out
/// the same shares as the `u64` stepper on the same [`layer_grid`], which
/// the cross-check property tests in `cr-algos` assert.
///
/// # Panics
///
/// Panics if `grid` is not positive.
#[must_use]
pub fn largest_remainder_split_ratio(grid: i128, weights: &[Ratio]) -> Vec<Ratio> {
    assert!(grid > 0, "split grid must be positive");
    let total: Ratio = weights.iter().sum();
    if total.is_zero() {
        return vec![Ratio::ZERO; weights.len()];
    }
    let step = Ratio::new(1, grid);
    let mut shares = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(Ratio, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = Ratio::ZERO;
    for (i, &w) in weights.iter().enumerate() {
        let ideal = w / total;
        let base = ideal.floor_to_denominator(grid);
        assigned += base;
        fracs.push((ideal - base, i));
        shares.push(base);
    }
    // 1 − Σ base is a non-negative multiple of 1/grid.
    let rest = ((Ratio::ONE - assigned) * Ratio::new(grid, 1)).numer();
    let rest = usize::try_from(rest).expect("largest-remainder rest count fits usize");
    fracs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    for &(_, i) in fracs.iter().take(rest) {
        shares[i] += step;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::multi::MultiStepper;
    use crate::rational::ratio;

    #[test]
    fn lcm_and_units_are_exact() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 3), ratio(1, 4)])
            .processor([ratio(5, 6)])
            .build();
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.capacity(), 12);
        assert_eq!(scaled.row(0), &[4, 3]);
        assert_eq!(scaled.row(1), &[10]);
        assert_eq!(scaled.processors(), 2);
        assert_eq!(scaled.total_jobs(), 3);
        assert_eq!(scaled.jobs_on(0), 2);
        assert_eq!(scaled.unit_req(1, 0), 10);
    }

    #[test]
    fn round_trips_every_requirement() {
        let inst = Instance::unit_from_percentages(&[&[20, 10, 0, 100], &[55, 90], &[33]]);
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        for i in 0..inst.processors() {
            for (j, job) in inst.processor_jobs(i).iter().enumerate() {
                assert_eq!(scaled.to_ratio(scaled.unit_req(i, j)), job.requirement);
            }
        }
    }

    #[test]
    fn empty_processors_give_empty_rows() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2)])
            .empty_processor()
            .build();
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.jobs_on(1), 0);
        assert!(scaled.row(1).is_empty());
    }

    #[test]
    fn zero_and_full_requirements() {
        let inst = Instance::unit_from_percentages(&[&[0, 100], &[100, 0]]);
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.capacity(), 1);
        assert_eq!(scaled.row(0), &[0, 1]);
        assert_eq!(scaled.to_ratio(0), Ratio::ZERO);
        assert_eq!(scaled.to_ratio(1), Ratio::ONE);
    }

    #[test]
    fn near_u64_max_capacity_is_accepted_for_solvers() {
        // Largest prime below 2^63: `2·D` still fits u64, so the solver view
        // scales regardless of the processor count (the pre-ISSUE-4
        // `(m + 1)·D` headroom would have rejected this for m ≥ 2), while
        // the scheduling-layer grid keeps its wider `(m + 1)·D` reserve and
        // correctly declines.
        let p: i128 = 9_223_372_036_854_775_783;
        let inst = InstanceBuilder::new()
            .processor([ratio(p - 1, p)])
            .processor([ratio(p - 1, p)])
            .processor([ratio(p - 1, p)])
            .build();
        let scaled = ScaledInstance::try_new(&inst).expect("2·D headroom fits u64");
        assert_eq!(scaled.capacity(), 9_223_372_036_854_775_783u64);
        assert_eq!(scaled.row(0), &[9_223_372_036_854_775_782u64]);
        assert_eq!(scaled.to_ratio(scaled.unit_req(0, 0)), ratio(p - 1, p));
        assert!(layer_grid(&inst, 0).is_none());
        assert!(MultiStepper::try_new_scaled(&inst).is_none());
    }

    #[test]
    fn overflowing_lcm_is_rejected() {
        // Denominators are pairwise-coprime large primes: the LCM exceeds the
        // u64 headroom bound and construction must decline, not panic.
        let primes: [i128; 4] = [4_294_967_291, 4_294_967_279, 4_294_967_231, 4_294_967_197];
        let inst = InstanceBuilder::new()
            .processor(primes.map(|p| ratio(1, p)))
            .build();
        assert!(ScaledInstance::try_new(&inst).is_none());
        assert!(layer_grid(&inst, 0).is_none());
        assert!(MultiStepper::try_new_scaled(&inst).is_none());
    }

    #[test]
    fn largest_remainder_sums_to_pool_and_respects_weights() {
        assert_eq!(largest_remainder_split(10, &[1, 1, 1]), vec![4, 3, 3]);
        assert_eq!(largest_remainder_split(5, &[7, 3]), vec![4, 1]);
        assert_eq!(largest_remainder_split(7, &[0, 0]), vec![0, 0]);
        assert_eq!(
            largest_remainder_split(3, &[1, 0, 1, 0, 1]),
            vec![1, 0, 1, 0, 1]
        );
        // One huge and many tiny demands: the pool is fully assigned and the
        // huge demand never exceeds the pool it can absorb.
        let shares = largest_remainder_split(100, &[1_000_000, 1, 1, 1]);
        assert_eq!(shares.iter().sum::<u64>(), 100);
        for (share, weight) in shares.iter().zip([1_000_000u64, 1, 1, 1]) {
            assert!(*share <= weight);
        }
        // Oversubscribed splits never exceed the weight (demand cap).
        for pool in 1..=20u64 {
            for weights in [vec![3u64, 9, 8, 1], vec![20, 1, 1], vec![5, 5, 5, 5]] {
                let total: u64 = weights.iter().sum();
                if total <= pool {
                    continue;
                }
                let shares = largest_remainder_split(pool, &weights);
                assert_eq!(shares.iter().sum::<u64>(), pool);
                assert!(shares.iter().zip(&weights).all(|(s, w)| s <= w));
            }
        }
    }

    #[test]
    fn ratio_split_matches_integer_split_on_the_same_grid() {
        let grid = 60u64;
        for weights in [
            vec![7u64, 3, 0, 12],
            vec![1, 1, 1],
            vec![59, 1],
            vec![60, 60, 60],
        ] {
            let integer = largest_remainder_split(grid, &weights);
            let ratios: Vec<Ratio> = weights
                .iter()
                .map(|&w| Ratio::new(i128::from(w), i128::from(grid)))
                .collect();
            let rational = largest_remainder_split_ratio(i128::from(grid), &ratios);
            for (u, r) in integer.iter().zip(&rational) {
                assert_eq!(Ratio::new(i128::from(*u), i128::from(grid)), *r);
            }
        }
    }

    #[test]
    fn schedule_builder_mirrors_ratio_builder() {
        // At k = 1 the u64 stepper and the rational stepper agree step for
        // step and finish to the same exact schedule.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2)])
            .processor([ratio(3, 4), ratio(1, 4)])
            .build();
        let mut scaled = MultiStepper::try_new_scaled(&inst).unwrap();
        let mut rational = MultiStepper::new_rational(&inst);
        assert_eq!(scaled.capacity(0), 4);
        let d = i128::from(scaled.capacity(0));
        while !scaled.all_done() {
            assert!(!rational.all_done());
            let m = scaled.processors();
            for i in 0..m {
                assert_eq!(scaled.is_active(i), rational.is_active(i));
                assert_eq!(scaled.active_job(i), rational.active_job(i));
                assert_eq!(scaled.unfinished_jobs(i), rational.unfinished_jobs(i));
                assert_eq!(
                    Ratio::new(i128::from(scaled.step_demand(i, 0)), d),
                    rational.step_demand(i, 0)
                );
                assert_eq!(
                    Ratio::new(i128::from(scaled.remaining(i, 0)), d),
                    rational.remaining(i, 0)
                );
            }
            // Serve in processor order.
            let mut units = vec![0u64; m];
            let mut left = scaled.capacity(0);
            for (i, unit) in units.iter_mut().enumerate() {
                *unit = scaled.step_demand(i, 0).min(left);
                left -= *unit;
            }
            let shares: Vec<Ratio> = units
                .iter()
                .map(|&u| Ratio::new(i128::from(u), d))
                .collect();
            rational.push_step(&shares);
            scaled.push_step(&units);
        }
        assert!(rational.all_done());
        assert_eq!(scaled.finish(), rational.finish());
    }

    #[test]
    fn schedule_builder_handles_volumes_and_zero_requirements() {
        use crate::job::{Job, JobId};
        // p0: a 2.5-step zero-requirement job then a 50% job;
        // p1: a volume-3 job at requirement 1/4 (workload 3/4).
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 2)), Job::unit(ratio(1, 2))])
            .processor_jobs([Job::new(ratio(1, 4), ratio(3, 1))])
            .build();
        let mut b = MultiStepper::try_new_scaled(&inst).unwrap();
        assert_eq!(b.capacity(0), 4);
        // Zero-requirement frontier: no demand, no workload.
        assert_eq!(b.step_demand(0, 0), 0);
        assert_eq!(b.remaining(0, 0), 0);
        assert_eq!(b.active_requirement(0, 0), Some(0));
        // Volume-3 job: demand capped at one step's worth (r·D = 1 unit).
        assert_eq!(b.step_demand(1, 0), 1);
        assert_eq!(b.remaining(1, 0), 3);
        for step in 0..3 {
            assert_eq!(b.unfinished_jobs(0), 2, "step {step}");
            b.push_step(&[0, 1]);
        }
        // The free job took ⌈5/2⌉ = 3 steps; p1's volume job finished too.
        assert_eq!(b.unfinished_jobs(0), 1);
        assert_eq!(b.unfinished_jobs(1), 0);
        assert_eq!(b.step_demand(0, 0), 2);
        b.push_step(&[2, 0]);
        assert!(b.all_done());
        let schedule = b.finish().expect("k = 1 runs finish to a schedule");
        assert_eq!(schedule.makespan(&inst).unwrap(), 4);
        assert_eq!(schedule.share(3, 0), ratio(1, 2));
        // The exact trace agrees with the scaled bookkeeping step for step.
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.completion_step(JobId::new(0, 0)), Some(2));
        assert_eq!(trace.completion_step(JobId::new(1, 0)), Some(2));
        assert_eq!(trace.completion_step(JobId::new(0, 1)), Some(3));
    }

    #[test]
    #[should_panic(expected = "oversubscribes resource 0")]
    fn schedule_builder_rejects_overuse() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50]]);
        let mut b = MultiStepper::try_new_scaled(&inst).unwrap();
        let over = b.capacity(0);
        b.push_step(&[over, 1]);
    }

    #[test]
    #[should_panic(expected = "unfinished jobs")]
    fn schedule_builder_finish_requires_completion() {
        let inst = Instance::unit_from_percentages(&[&[50]]);
        let b = MultiStepper::try_new_scaled(&inst).unwrap();
        let _ = b.finish();
    }

    #[test]
    fn extra_layers_get_their_own_exact_grids() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 4)])
            .processor([ratio(3, 4)])
            .extra_layer([vec![ratio(1, 3), ratio(5, 6)], vec![Ratio::ZERO]])
            .build();
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.resources(), 2);
        // The base layer is untouched by the extra one…
        assert_eq!(scaled.capacity(), 4);
        assert_eq!(scaled.layer_capacity(0), 4);
        assert_eq!(scaled.layer_row(0, 0), &[2, 1]);
        // …and the extra layer lives on its own LCM grid (1/3, 5/6 → 6).
        assert_eq!(scaled.layer_capacity(1), 6);
        assert_eq!(scaled.layer_row(1, 0), &[2, 5]);
        assert_eq!(scaled.layer_row(1, 1), &[0]);
        assert_eq!(scaled.layer_unit_req(1, 0, 1), 5);
        // Exact rational round-trip per layer.
        for i in 0..inst.processors() {
            for j in 0..inst.jobs_on(i) {
                for r in 0..2 {
                    assert_eq!(
                        scaled.to_ratio_on(r, scaled.layer_unit_req(r, i, j)),
                        inst.requirement_on(r, crate::job::JobId::new(i, j))
                    );
                }
            }
        }
    }

    #[test]
    fn single_resource_scaling_is_unchanged_by_the_multi_extension() {
        let inst = Instance::unit_from_percentages(&[&[60, 40], &[50]]);
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.resources(), 1);
        assert_eq!(scaled.layer_capacity(0), scaled.capacity());
        assert_eq!(scaled.layer_row(0, 0), scaled.row(0));
        assert_eq!(scaled.to_ratio_on(0, 6), scaled.to_ratio(6));
    }

    #[test]
    fn overflowing_extra_layer_is_rejected() {
        let primes: [i128; 4] = [4_294_967_291, 4_294_967_279, 4_294_967_231, 4_294_967_197];
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2), ratio(1, 2), ratio(1, 2)])
            .extra_layer([primes.map(|p| ratio(1, p)).to_vec()])
            .build();
        assert!(ScaledInstance::try_new(&inst).is_none());
    }

    #[test]
    fn schedule_grid_covers_workload_denominators() {
        use crate::job::Job;
        // Requirement 1/3 with volume 5/2: the workload 5/6 forces grid 6.
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(ratio(1, 3), ratio(5, 2))])
            .build();
        assert_eq!(layer_grid(&inst, 0), Some(6));
        // A zero-requirement job's fractional volume does not inflate the
        // grid (it is tracked by step count, not workload units).
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 7))])
            .processor([ratio(1, 2)])
            .build();
        assert_eq!(layer_grid(&inst, 0), Some(2));
    }
}
