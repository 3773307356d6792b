//! The exact configuration search: Algorithm 2 (Theorem 6) and its
//! memoized brute-force reference, written once for every resource count
//! `k` and both arithmetics.
//!
//! The search runs on a [`View`] of the instance: `u64` units on the
//! per-layer grids of a [`ScaledInstance`] (layer `r` has capacity
//! [`ScaledInstance::layer_capacity`]`(r)`), or exact [`Ratio`]s with
//! capacity 1 on every layer.  `OptM`, `BruteForce` and the
//! multi-resource `OptTwo` path all run here; the rational view is the
//! fallback when a grid overflows `u64` and the reference the property
//! tests cross-check against.
//!
//! # Configurations
//!
//! A configuration of `m` processors and `k` layers is `m + m·k` words of
//! the unit type: each processor's completed-job count (Algorithm 2's
//! `jᵢ(t)`), then, processor-major, what has been spent on its frontier
//! job on every layer (`vᵢ(t)`).  A round keeps its configurations back to
//! back in one buffer with a parent index each (`u32` on the `u64` view,
//! which keeps big rounds compact, `usize` on the [`Ratio`] view), and
//! deduplicates by probing an index table with the candidate's words, so
//! neither a duplicate nor a new successor allocates.
//!
//! # The normalized step class
//!
//! One step completes a non-empty set `S` of active frontier jobs (every
//! layer of a job in `S` receives its full remaining requirement) and hands
//! each layer's leftover to at most one further job whose remaining on
//! that layer exceeds the leftover, so the receiver does not complete.  At
//! `k = 1` this is Lemma 1's class of non-wasting, progressive steps.  For
//! `k ≥ 2` a single receiver over all layers is not without loss of
//! generality, so receivers are chosen per layer, and the search is exact
//! within this class.  Every choice completes a job (a single frontier
//! always fits), so the search ends within `total_jobs + 1` rounds.
//!
//! The enumerator leaves out every choice that another emitted choice
//! dominates (Lemma 4's order, see below):
//!
//! * a frontier with nothing left on any layer completes in every choice:
//!   withholding it reaches the same configuration with one job fewer
//!   completed;
//! * when every active job fits on every layer at once, the only choice
//!   completes them all;
//! * on a layer with a positive leftover, one of the outside jobs whose
//!   remaining exceeds it receives the leftover, and "no receiver" is
//!   offered only when there is no such job: without a receiver the same
//!   step spends less on that job's frontier;
//! * a set that has no receiver on any layer is dropped when some outside
//!   job still fits it on every layer: adding that job to `S` completes one
//!   more job.
//!
//! Each dropped choice reaches a configuration that an emitted one
//! dominates, so no round's survivors change.  At `k = 1` the emitted
//! choices are exactly the fitting subsets plus one receiver of a positive
//! leftover.
//!
//! Subsets are visited by a DFS over the positive entries sorted ascending
//! by their layer-0 remaining, ties by index.  A layer-0 sum above the
//! capacity ends the DFS level, because every later entry needs at least
//! as much there; a sum above the capacity on another layer only skips the
//! entry.  All sums are overflow-checked, and an overflowing sum exceeds any
//! capacity.  The work is proportional to the fitting subsets, not to
//! `2^active`, so any number of processors may be active.
//!
//! # Round order
//!
//! Configuration `a` dominates `b` when every processor has completed more
//! jobs in `a`, or equally many with at least as much spent on every layer.
//! Each round ends with the shared indexed domination filter of the
//! `frontier` module, which needs every dominator processed before what it
//! dominates.  The processing order and the order the survivors are kept in
//! depend on the unit:
//!
//! * `u64`: (Σ completed, Σ spent, index) descending, with Σ spent in
//!   `u128`; the survivors keep this order.  A dominator has at least the
//!   completed sum, and on equal completed vectors at least the spent sum.
//! * [`Ratio`]: the progress order, Σ completed descending and then the
//!   configuration words lexicographically descending, ties to the lower
//!   index; the survivors keep their insertion order.  A `Ratio` sum of
//!   spent values can overflow `i128`, so spent values are only compared.
//!
//! Both keep the same survivor sets.  The listing, though, fixes the parent
//! indices a schedule replay walks, and the processing order fixes the
//! filter's work counters.  Each unit keeps the order its committed
//! responses and `BENCH_exact.json` figures were recorded with.
//!
//! # Parallel rounds, replay and brute force
//!
//! A large round is expanded by rayon in contiguous chunks of parents.
//! Each chunk deduplicates locally, and the shards are merged in chunk
//! order, which is the order a serial scan produces, so parallel runs are
//! identical to serial ones.  A `u64` round that outgrows the `u32` parent
//! indices is a structured [`SearchError::RoundTooLarge`]; callers fall
//! back to the rational view, whose `usize` parents cannot run out.
//!
//! At `k = 1` a schedule is replayed from the parent pointers: a step's
//! finished processors are those whose completed count grew, and the
//! receiver is the one whose spent amount grew, by the leftover.  The
//! decisions go through the exact [`Ratio`] stepper.
//!
//! [`brute_force`] is the reference without Lemma 4: a memoized DFS over
//! the same successors, with no domination filter.
//!
//! Every loop polls a [`CancelGate`], the rounds honour a round cap, and
//! the search records the `optm.*` spans and counters plus
//! `subset_dfs.nodes` at every `k`.

use crate::frontier::{DominanceFilter, FILTER_CHECK_STRIDE};
use cr_core::{
    CancelGate, CancelReason, CancelToken, Instance, JobId, MultiStepper, Ratio, ScaledInstance,
    Schedule, StepUnit,
};
use rayon::prelude::*;
use rustc_hash::{FxHashMap, FxHasher};
use std::cmp::Reverse;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// How many DFS extensions and emitted successors pass between token
/// checks: each is a handful of word operations, so even pathological
/// frontiers check far more often than
/// [`cr_core::cancel::CHECK_INTERVAL_MS`] demands.
const CHOICE_CHECK_STRIDE: u32 = 1024;

/// Below this round size a parallel expansion cannot win: the vendored
/// rayon starts one OS thread per chunk, which costs more than expanding a
/// few hundred configurations serially.
const MIN_PARALLEL_ROUND: usize = 256;

/// Structured failure of the configuration search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchError {
    /// A `u64` search round holds more configurations than `u32` parent
    /// indices can address.
    RoundTooLarge {
        /// The 0-based round whose node count overflowed.
        round: usize,
        /// Its node count.
        nodes: usize,
    },
    /// The search's [`CancelToken`] fired (deadline passed or the request
    /// was cancelled externally) and the loops stopped cooperatively.
    Cancelled {
        /// Why the token fired.
        reason: CancelReason,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::RoundTooLarge { round, nodes } => write!(
                f,
                "configuration-search round {round} holds {nodes} nodes, \
                 exceeding the u32 parent-index headroom"
            ),
            SearchError::Cancelled { reason } => {
                write!(f, "configuration search stopped: {reason}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

impl From<CancelReason> for SearchError {
    fn from(reason: CancelReason) -> Self {
        SearchError::Cancelled { reason }
    }
}

/// The arithmetic of one search: `u64` units or exact [`Ratio`]s.  Both
/// store completed-job counts as words next to the spent amounts.
pub(crate) trait SearchUnit: StepUnit + Hash + Default + Send + Sync {
    /// Whether survivors keep the processing order (otherwise their
    /// insertion order); see the module docs.
    const KEEP_PROCESSING_ORDER: bool;

    /// A round's index into the previous round.
    type Parent: ParentIndex;

    /// A completed-job count as a configuration word.
    fn from_count(count: usize) -> Self;

    /// The completed-job count a configuration word holds.
    fn to_count(self) -> usize;

    /// The round's processing order for the domination filter: every
    /// dominator before what it dominates.
    fn processing_order(round: &Round<Self>, m: usize) -> Vec<usize>;
}

impl SearchUnit for u64 {
    const KEEP_PROCESSING_ORDER: bool = true;
    type Parent = u32;

    fn from_count(count: usize) -> Self {
        count as u64
    }

    fn to_count(self) -> usize {
        self as usize
    }

    fn processing_order(round: &Round<u64>, m: usize) -> Vec<usize> {
        let mut order: Vec<(u64, u128, usize)> = (0..round.len())
            .map(|i| {
                let config = round.config(i);
                let completed = config[..m].iter().sum();
                let spent = config[m..].iter().map(|&s| u128::from(s)).sum();
                (completed, spent, i)
            })
            .collect();
        order.sort_unstable_by(|a, b| b.cmp(a));
        order.into_iter().map(|(_, _, i)| i).collect()
    }
}

impl SearchUnit for Ratio {
    const KEEP_PROCESSING_ORDER: bool = false;
    type Parent = usize;

    fn from_count(count: usize) -> Self {
        Ratio::from_integer(count as i64)
    }

    fn to_count(self) -> usize {
        self.numer() as usize
    }

    fn processing_order(round: &Round<Ratio>, m: usize) -> Vec<usize> {
        let mut order: Vec<(usize, usize)> = (0..round.len())
            .map(|i| (round.config(i)[..m].iter().map(|c| c.to_count()).sum(), i))
            .collect();
        order.sort_unstable_by(|&(sa, a), &(sb, b)| {
            Reverse(sa)
                .cmp(&Reverse(sb))
                .then_with(|| round.config(b).cmp(round.config(a)))
                .then(a.cmp(&b))
        });
        order.into_iter().map(|(_, i)| i).collect()
    }
}

/// A parent index: `u32` keeps a `u64` round compact, `usize` never runs
/// out.  The maximum value marks the initial configuration, which has no
/// parent.
pub(crate) trait ParentIndex: Copy + Eq + fmt::Debug + Send + Sync {
    /// The initial configuration's parent.
    const NONE: Self;

    /// `index` as a parent, or `None` when it does not fit.
    fn from_index(index: usize) -> Option<Self>;

    /// The index into the previous round.
    fn index(self) -> usize;
}

impl ParentIndex for u32 {
    const NONE: Self = u32::MAX;

    fn from_index(index: usize) -> Option<Self> {
        u32::try_from(index).ok()
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl ParentIndex for usize {
    const NONE: Self = usize::MAX;

    fn from_index(index: usize) -> Option<Self> {
        Some(index)
    }

    fn index(self) -> usize {
        self
    }
}

/// The requirement table one search runs on: per-layer capacities plus
/// every job's requirement vector, in the unit `V`.
#[derive(Debug, Clone)]
pub(crate) struct View<V> {
    /// Per-layer capacities, length `k`.
    caps: Vec<V>,
    /// Row start offsets into `reqs`, in jobs; length `m + 1`.
    offsets: Vec<usize>,
    /// Per-job requirement vectors, `total_jobs × k`, job-major.
    reqs: Vec<V>,
}

impl View<u64> {
    /// The unit view: layer `r` on the grid of
    /// [`ScaledInstance::layer_capacity`]`(r)`.
    pub(crate) fn from_scaled(scaled: &ScaledInstance) -> Self {
        let caps = (0..scaled.resources())
            .map(|r| scaled.layer_capacity(r))
            .collect();
        let jobs: Vec<usize> = (0..scaled.processors())
            .map(|i| scaled.jobs_on(i))
            .collect();
        View::new(caps, &jobs, |r, i, j| scaled.layer_unit_req(r, i, j))
    }
}

impl View<Ratio> {
    /// The exact view: every layer has capacity `1`.
    pub(crate) fn rational(instance: &Instance) -> Self {
        let caps = vec![Ratio::ONE; instance.resources()];
        let jobs: Vec<usize> = (0..instance.processors())
            .map(|i| instance.jobs_on(i))
            .collect();
        View::new(caps, &jobs, |r, i, j| {
            instance.requirement_on(r, JobId::new(i, j))
        })
    }
}

impl<V: SearchUnit> View<V> {
    /// Collects `req(r, i, j)` for `jobs[i]` jobs per processor and the
    /// `caps.len()` layers.
    pub(crate) fn new(
        caps: Vec<V>,
        jobs: &[usize],
        req: impl Fn(usize, usize, usize) -> V,
    ) -> Self {
        let k = caps.len();
        let mut offsets = vec![0];
        let mut reqs = Vec::with_capacity(jobs.iter().sum::<usize>() * k);
        // lint: allow(cancel_coverage) — bounded: one setup pass over the processors
        for (i, &n) in jobs.iter().enumerate() {
            reqs.extend(
                (0..n)
                    .flat_map(|j| (0..k).map(move |r| (r, j)))
                    .map(|(r, j)| req(r, i, j)),
            );
            offsets.push(offsets[i] + n);
        }
        View {
            caps,
            offsets,
            reqs,
        }
    }

    pub(crate) fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    pub(crate) fn resources(&self) -> usize {
        self.caps.len()
    }

    fn jobs_on(&self, processor: usize) -> usize {
        self.offsets[processor + 1] - self.offsets[processor]
    }

    fn total_jobs(&self) -> usize {
        self.offsets[self.processors()]
    }

    /// Words per configuration: `m` counts plus `m·k` spent amounts.
    fn width(&self) -> usize {
        self.processors() * (1 + self.resources())
    }

    /// Requirement of processor `i`'s `index`-th job on layer `r`.
    fn req(&self, processor: usize, index: usize, r: usize) -> V {
        self.reqs[(self.offsets[processor] + index) * self.resources() + r]
    }

    /// Whether every processor has completed all of its jobs.
    fn is_final(&self, config: &[V]) -> bool {
        (0..self.processors()).all(|i| config[i].to_count() >= self.jobs_on(i))
    }
}

/// Lemma 4's order over flat configurations: every processor has completed
/// more jobs in `a`, or equally many with at least as much spent on every
/// layer.
pub(crate) fn dominates<V: Ord>(m: usize, k: usize, a: &[V], b: &[V]) -> bool {
    (0..m).all(|i| {
        a[i] > b[i] || (a[i] == b[i] && (m + i * k..m + (i + 1) * k).all(|s| a[s] >= b[s]))
    })
}

/// One search round: configurations back to back plus their parents'
/// indices in the previous round ([`ParentIndex::NONE`] for the initial
/// one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Round<V: SearchUnit> {
    width: usize,
    words: Vec<V>,
    parents: Vec<V::Parent>,
}

impl<V: SearchUnit> Round<V> {
    pub(crate) fn new(width: usize) -> Self {
        Round {
            width,
            words: Vec::new(),
            parents: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    pub(crate) fn config(&self, index: usize) -> &[V] {
        &self.words[index * self.width..(index + 1) * self.width]
    }

    pub(crate) fn parent(&self, index: usize) -> V::Parent {
        self.parents[index]
    }

    pub(crate) fn push(&mut self, config: &[V], parent: V::Parent) {
        self.words.extend_from_slice(config);
        self.parents.push(parent);
    }
}

/// An open-addressing index over one round's configurations, probed with a
/// candidate's words.  Slots hold `index + 1`; zero is empty.
#[derive(Debug, Default)]
struct Dedup {
    slots: Vec<usize>,
}

/// The slot hash of a configuration: Fx, with the high half folded into
/// the low bits the table masks.
fn hash_words<V: Hash>(words: &[V]) -> usize {
    let mut hasher = FxHasher::default();
    words.hash(&mut hasher);
    let hash = hasher.finish();
    (hash ^ (hash >> 32)) as usize
}

impl Dedup {
    /// Appends `config` to `round` unless an equal configuration is
    /// already there (the first representative wins).
    fn insert<V: SearchUnit>(&mut self, round: &mut Round<V>, config: &[V], parent: V::Parent) {
        if 2 * (round.len() + 1) > self.slots.len() {
            self.rebuild(round, (2 * self.slots.len()).max(64));
        }
        let mask = self.slots.len() - 1;
        let mut at = hash_words(config) & mask;
        // lint: allow(cancel_coverage) — bounded: linear probing in a table kept at most half full
        loop {
            match self.slots[at] {
                0 => {
                    self.slots[at] = round.len() + 1;
                    round.push(config, parent);
                    return;
                }
                slot if round.config(slot - 1) == config => return,
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Re-seats `round`'s configurations in `size` (a power of two) slots.
    fn rebuild<V: SearchUnit>(&mut self, round: &Round<V>, size: usize) {
        self.slots.clear();
        self.slots.resize(size, 0);
        let mask = size - 1;
        // lint: allow(cancel_coverage) — bounded: one pass over the round per doubling
        for index in 0..round.len() {
            let mut at = hash_words(round.config(index)) & mask;
            // lint: allow(cancel_coverage) — bounded: linear probing in a table at most half full
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = index + 1;
        }
    }
}

/// Reusable buffers of the successor enumeration (one per search chunk,
/// not one per expansion).
#[derive(Debug, Default)]
pub(crate) struct Successors<V> {
    /// Processor of each active entry.
    active: Vec<usize>,
    /// Remaining requirement per active entry and layer, entry-major.
    rem: Vec<V>,
    /// Positive entries, ascending by layer-0 remaining, ties by index.
    order: Vec<usize>,
    /// The finished set: the all-zero entries, then the DFS stack.
    set: Vec<usize>,
    /// Membership flags of `set` over the active entries.
    in_set: Vec<bool>,
    /// Per-layer sums of the chosen entries, `k` words per DFS depth.
    sums: Vec<V>,
    /// The current set's leftover per layer.
    leftovers: Vec<V>,
    /// Receiver entries of every layer, flat; layer `r` owns
    /// `receivers[bounds[r]..bounds[r + 1]]`.
    receivers: Vec<usize>,
    bounds: Vec<usize>,
    /// Odometer over the per-layer receiver lists.
    pick: Vec<usize>,
    /// The parent with the current set completed.
    completed: Vec<V>,
    /// The successor being emitted.
    next: Vec<V>,
}

impl<V: SearchUnit> Successors<V> {
    /// Streams every normalized successor of `config` into `emit` (see the
    /// module docs for the class).  The slice handed to `emit` is scratch:
    /// keep a copy.  Polls `gate` per DFS extension and per emission;
    /// successors emitted before a cut are not unwound.
    pub(crate) fn for_each(
        &mut self,
        view: &View<V>,
        config: &[V],
        gate: &mut CancelGate,
        emit: &mut impl FnMut(&[V]),
    ) -> Result<(), CancelReason> {
        let (m, k) = (view.processors(), view.resources());
        self.active.clear();
        self.rem.clear();
        // lint: allow(cancel_coverage) — bounded: one pass over the m processors per expansion; the DFS below is gated
        for i in 0..m {
            let done = config[i].to_count();
            if done < view.jobs_on(i) {
                self.active.push(i);
                let spent = &config[m + i * k..m + (i + 1) * k];
                self.rem
                    .extend((0..k).map(|r| view.req(i, done, r).sub(spent[r])));
            }
        }
        let a = self.active.len();
        if a == 0 {
            return Ok(());
        }
        self.set.clear();
        self.order.clear();
        self.in_set.clear();
        self.in_set.resize(a, false);
        // lint: allow(cancel_coverage) — bounded: one pass over the <= m active entries
        for e in 0..a {
            if self.rem[e * k..(e + 1) * k].iter().all(|&v| v == V::ZERO) {
                self.set.push(e);
                self.in_set[e] = true;
            } else {
                self.order.push(e);
            }
        }

        let (rem, order) = (&self.rem, &self.order);
        let fits_all = (0..k).all(|r| {
            order
                .iter()
                .try_fold(V::ZERO, |total, &e| total.checked_add(rem[e * k + r]))
                .is_some_and(|total| total <= view.caps[r])
        });
        if fits_all {
            self.set.clear();
            self.set.extend(0..a);
            self.complete_set(view, config);
            emit(&self.completed);
            return Ok(());
        }

        self.order
            .sort_unstable_by(|&x, &y| rem[x * k].cmp(&rem[y * k]).then(x.cmp(&y)));
        self.sums.clear();
        self.sums.resize((self.order.len() + 1) * k, V::ZERO);
        // DFS extensions accumulate locally and flush once per expansion.
        let mut nodes = 0u64;
        let result = self.descend(view, config, 0, 0, gate, &mut nodes, emit);
        crate::obs::subset_dfs_nodes().add(nodes);
        result
    }

    /// One DFS level: extends the `depth` chosen entries by each later
    /// positive entry that fits, emitting the set's successors on the way
    /// down.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &mut self,
        view: &View<V>,
        config: &[V],
        start: usize,
        depth: usize,
        gate: &mut CancelGate,
        nodes: &mut u64,
        emit: &mut impl FnMut(&[V]),
    ) -> Result<(), CancelReason> {
        let k = view.resources();
        for pos in start..self.order.len() {
            gate.tick()?;
            *nodes += 1;
            let e = self.order[pos];
            let (below, above) = self.sums.split_at_mut((depth + 1) * k);
            let level = &below[depth * k..];
            let rem = &self.rem[e * k..(e + 1) * k];
            let over = (0..k).find(|&r| match level[r].checked_add(rem[r]) {
                Some(sum) if sum <= view.caps[r] => {
                    above[r] = sum;
                    false
                }
                _ => true,
            });
            match over {
                Some(0) => break,
                Some(_) => continue,
                None => {}
            }
            self.set.push(e);
            self.in_set[e] = true;
            self.emit_set(view, config, depth + 1, gate, emit)?;
            self.descend(view, config, pos + 1, depth + 1, gate, nodes, emit)?;
            self.in_set[e] = false;
            self.set.pop();
        }
        Ok(())
    }

    /// Emits the current set with every combination of per-layer receivers.
    fn emit_set(
        &mut self,
        view: &View<V>,
        config: &[V],
        level: usize,
        gate: &mut CancelGate,
        emit: &mut impl FnMut(&[V]),
    ) -> Result<(), CancelReason> {
        let (m, k, a) = (view.processors(), view.resources(), self.active.len());
        let sums = &self.sums[level * k..(level + 1) * k];
        self.leftovers.clear();
        self.leftovers
            .extend((0..k).map(|r| view.caps[r].sub(sums[r])));
        self.receivers.clear();
        self.bounds.clear();
        self.bounds.push(0);
        let (rem, in_set, left) = (&self.rem, &self.in_set, &self.leftovers);
        // lint: allow(cancel_coverage) — bounded: k layers, each one pass over the <= m active entries
        for r in 0..k {
            if left[r] > V::ZERO {
                self.receivers
                    .extend((0..a).filter(|&e| !in_set[e] && rem[e * k + r] > left[r]));
            }
            self.bounds.push(self.receivers.len());
        }
        if self.receivers.is_empty()
            && (0..a).any(|e| !in_set[e] && (0..k).all(|r| rem[e * k + r] <= left[r]))
        {
            return Ok(());
        }
        self.complete_set(view, config);
        if self.receivers.is_empty() {
            emit(&self.completed);
            return Ok(());
        }

        self.pick.clear();
        self.pick.resize(k, 0);
        loop {
            gate.tick()?;
            self.next.clone_from(&self.completed);
            // lint: allow(cancel_coverage) — bounded: k layers per gated emission
            for r in 0..k {
                if let Some(&e) =
                    self.receivers[self.bounds[r]..self.bounds[r + 1]].get(self.pick[r])
                {
                    let i = self.active[e];
                    // New spent = requirement − (remaining − leftover); the
                    // receiver's remaining exceeds the leftover.
                    let req = view.req(i, config[i].to_count(), r);
                    self.next[m + i * k + r] = req.sub(self.rem[e * k + r].sub(self.leftovers[r]));
                }
            }
            emit(&self.next);

            // Advance the odometer over the layers that have receivers,
            // layer 0 fastest.
            let mut r = 0;
            // lint: allow(cancel_coverage) — bounded: k odometer digits per gated emission
            while r < k {
                let len = self.bounds[r + 1] - self.bounds[r];
                if len > 0 {
                    self.pick[r] += 1;
                    if self.pick[r] < len {
                        break;
                    }
                    self.pick[r] = 0;
                }
                r += 1;
            }
            if r == k {
                return Ok(());
            }
        }
    }

    /// Fills `completed` with `config` after every job of `set` completed.
    fn complete_set(&mut self, view: &View<V>, config: &[V]) {
        let (m, k) = (view.processors(), view.resources());
        self.completed.clear();
        self.completed.extend_from_slice(config);
        // lint: allow(cancel_coverage) — bounded: the set holds at most the m active entries
        for &e in &self.set {
            let i = self.active[e];
            self.completed[i] = V::from_count(config[i].to_count() + 1);
            self.completed[m + i * k..m + (i + 1) * k].fill(V::ZERO);
        }
    }
}

/// Expands the parents `range` of `prev` into their successor round, in
/// parent order and deduplicated (first representative wins).
fn expand<V: SearchUnit>(
    view: &View<V>,
    prev: &Round<V>,
    range: Range<usize>,
    successors: &mut Successors<V>,
    token: &CancelToken,
) -> Result<Round<V>, CancelReason> {
    let mut gate = token.gate(CHOICE_CHECK_STRIDE);
    let mut dedup = Dedup::default();
    let mut out = Round::new(prev.width);
    for parent in range {
        // Rounds are admitted only while their indices fit the parent type.
        let index = V::Parent::from_index(parent).unwrap_or(V::Parent::NONE);
        successors.for_each(view, prev.config(parent), &mut gate, &mut |next| {
            dedup.insert(&mut out, next, index);
        })?;
    }
    Ok(out)
}

/// Runs the configuration search to the first round holding a final
/// configuration and returns every round's survivors.
///
/// `Ok(None)` when `round_cap` cut the search off first.  Every loop polls
/// `token`, so the search stops within one check interval of it firing.
///
/// # Errors
///
/// [`SearchError::RoundTooLarge`] when a `u64` round outgrows the `u32`
/// parent indices, [`SearchError::Cancelled`] when the token fired.
pub(crate) fn search<V: SearchUnit>(
    view: &View<V>,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<Vec<Round<V>>>, SearchError> {
    search_chunked(view, None, round_cap, token)
}

/// [`search`] with an explicit expansion chunk size (`None`: one chunk per
/// rayon worker, and serial below [`MIN_PARALLEL_ROUND`]).  The output does
/// not depend on it.
pub(crate) fn search_chunked<V: SearchUnit>(
    view: &View<V>,
    chunk_size: Option<usize>,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<Vec<Round<V>>>, SearchError> {
    let _search_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_SEARCH);
    let (m, k) = (view.processors(), view.resources());
    let mut initial = Round::new(view.width());
    initial.push(&vec![V::ZERO; view.width()], V::Parent::NONE);
    let mut rounds = vec![initial];
    if view.is_final(rounds[0].config(0)) {
        return Ok(Some(rounds));
    }
    let mut successors = Successors::default();
    let mut filter = DominanceFilter::new(m);
    let max_rounds = view.total_jobs() + 1;
    let round_limit = round_cap.map_or(max_rounds, |cap| cap.min(max_rounds));
    for _ in 0..round_limit {
        token.check()?;
        let _round_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_ROUND);
        crate::obs::optm_rounds().inc();
        let prev = &rounds[rounds.len() - 1];
        let chunk = chunk_size
            .unwrap_or_else(|| prev.len().div_ceil(rayon::current_num_threads()))
            .max(1);
        let serial =
            chunk >= prev.len() || (chunk_size.is_none() && prev.len() < MIN_PARALLEL_ROUND);
        let next = if serial {
            expand(view, prev, 0..prev.len(), &mut successors, token)?
        } else {
            let ranges: Vec<Range<usize>> = (0..prev.len())
                .step_by(chunk)
                .map(|start| start..(start + chunk).min(prev.len()))
                .collect();
            let shards: Vec<Result<Round<V>, CancelReason>> = ranges
                .par_iter()
                .map(|range| expand(view, prev, range.clone(), &mut Successors::default(), token))
                .collect();
            // Shards arrive in chunk order, each in parent order, so the
            // merge sees successors in the order of a serial scan.
            let mut dedup = Dedup::default();
            let mut merged = Round::new(view.width());
            // lint: allow(cancel_coverage) — bounded: one merge pass per shard; the shards' expansion was gated
            for shard in shards {
                let shard = shard?;
                // lint: allow(cancel_coverage) — bounded: one pass over a shard the gated expansion produced
                for i in 0..shard.len() {
                    dedup.insert(&mut merged, shard.config(i), shard.parent(i));
                }
            }
            merged
        };
        // The round after this one must be able to point into it.
        if V::Parent::from_index(next.len()).is_none() {
            return Err(SearchError::RoundTooLarge {
                round: rounds.len(),
                nodes: next.len(),
            });
        }

        let survivors = {
            let _filter_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_FILTER);
            let mut gate = token.gate(FILTER_CHECK_STRIDE);
            let out = filter.filter(
                V::processing_order(&next, m),
                |i| &next.config(i)[..m],
                |a, b| dominates(m, k, next.config(a), next.config(b)),
                &mut gate,
            )?;
            crate::obs::optm_dominance_checks().add(out.checks);
            let mut kept = out.kept.to_vec();
            if !V::KEEP_PROCESSING_ORDER {
                kept.sort_unstable();
            }
            let mut survivors = Round::new(view.width());
            // lint: allow(cancel_coverage) — bounded: one copy per survivor of the gated filter
            for &i in &kept {
                survivors.push(next.config(i), next.parent(i));
            }
            survivors
        };
        crate::obs::optm_round_candidates().add(crate::obs::delta(next.len()));
        crate::obs::optm_round_survivors().add(crate::obs::delta(survivors.len()));
        let done = (0..survivors.len()).any(|i| view.is_final(survivors.config(i)));
        rounds.push(survivors);
        if done {
            return Ok(Some(rounds));
        }
    }
    debug_assert!(
        round_cap.is_some(),
        "every choice completes a job, so the uncapped search must terminate"
    );
    Ok(None)
}

/// Replays a finished `k = 1` search into an optimal schedule: walks the
/// parent pointers back from the first final configuration, reads each
/// step's decision off the parent/child pair and pushes it through the
/// exact [`Ratio`] stepper.
///
/// # Panics
///
/// Panics if the view has more than one layer (the [`Schedule`] type is
/// single-resource) or `rounds` does not end on a final configuration.
pub(crate) fn schedule<V: SearchUnit>(
    instance: &Instance,
    view: &View<V>,
    rounds: &[Round<V>],
) -> Schedule {
    assert_eq!(view.resources(), 1, "schedules are single-resource");
    let last = rounds.len() - 1;
    let winner = (0..rounds[last].len())
        .position(|i| view.is_final(rounds[last].config(i)))
        .expect("the search ends on a final configuration");
    let mut path = vec![winner; last + 1];
    // lint: allow(cancel_coverage) — bounded: one node per round of the already-gated search
    for t in (1..=last).rev() {
        path[t - 1] = rounds[t].parent(path[t]).index();
    }
    let m = view.processors();
    let mut stepper = MultiStepper::new_rational(instance);
    let mut shares = vec![Ratio::ZERO; m];
    // lint: allow(cancel_coverage) — bounded: replays one already-gated round per step
    for t in 1..=last {
        let (parent, child) = (rounds[t - 1].config(path[t - 1]), rounds[t].config(path[t]));
        // lint: allow(cancel_coverage) — bounded: one share per processor
        for (i, share) in shares.iter_mut().enumerate() {
            *share = if child[i] > parent[i] {
                stepper.remaining(i, 0)
            } else {
                child[m + i].sub(parent[m + i]).to_share(view.caps[0])
            };
        }
        stepper.push_step(&shares);
    }
    stepper
        .finish()
        .expect("single-resource runs finish to a schedule")
}

/// The memoized exhaustive search: the optimal makespan over the same
/// successors, without the domination filter.  Returns `(makespan,
/// memoized states, expansions)`; polls `token` on every expansion and
/// inside the enumeration.
pub(crate) fn brute_force<V: SearchUnit>(
    view: &View<V>,
    token: &CancelToken,
) -> Result<(usize, usize, usize), CancelReason> {
    token.check()?;
    let mut dfs = BruteForce {
        view,
        memo: FxHashMap::default(),
        successors: Successors::default(),
        gate: token.gate(CHOICE_CHECK_STRIDE),
        expansions: 0,
    };
    let best = dfs.visit(&vec![V::ZERO; view.width()])?;
    Ok((best, dfs.memo.len(), dfs.expansions))
}

struct BruteForce<'a, V> {
    view: &'a View<V>,
    memo: FxHashMap<Box<[V]>, usize>,
    successors: Successors<V>,
    gate: CancelGate,
    expansions: usize,
}

impl<V: SearchUnit> BruteForce<'_, V> {
    fn visit(&mut self, config: &[V]) -> Result<usize, CancelReason> {
        if self.view.is_final(config) {
            return Ok(0);
        }
        if let Some(&best) = self.memo.get(config) {
            return Ok(best);
        }
        self.gate.tick()?;
        self.expansions += 1;
        // Collected first: the enumeration buffers are reused below.
        let mut next: Vec<V> = Vec::new();
        self.successors
            .for_each(self.view, config, &mut self.gate, &mut |successor| {
                next.extend_from_slice(successor);
            })?;
        let mut best = usize::MAX;
        // lint: allow(cancel_coverage) — bounded: each recursive visit polls the gate
        for successor in next.chunks(config.len()) {
            let sub = self.visit(successor)?;
            if sub != usize::MAX {
                best = best.min(sub + 1);
            }
        }
        self.memo.insert(config.into(), best);
        Ok(best)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One `k = 1` successor with the decision it encodes: the words, the
    /// finished processors (ascending) and the receiver with its amount.
    pub(crate) type Choice<V> = (Vec<V>, Vec<u32>, Option<(u32, V)>);

    /// Every successor of `config` on a one-layer view, with its decision
    /// read off the parent/child pair as the schedule replay does.
    pub(crate) fn choices<V: SearchUnit>(view: &View<V>, config: &[V]) -> Vec<Choice<V>> {
        let m = view.processors();
        let mut out = Vec::new();
        Successors::default()
            .for_each(
                view,
                config,
                &mut CancelToken::never().gate(1),
                &mut |next| {
                    let finished = (0..m)
                        .filter(|&i| next[i] > config[i])
                        .map(|i| i as u32)
                        .collect();
                    let partial = (0..m)
                        .find(|&i| next[i] == config[i] && next[m + i] > config[m + i])
                        .map(|i| (i as u32, next[m + i].sub(config[m + i])));
                    out.push((next.to_vec(), finished, partial));
                },
            )
            .unwrap();
        out
    }

    /// Percent rows snapped onto the grid `1/den`.
    pub(crate) fn percent_instance(den: u64, rows: &[Vec<u64>]) -> Instance {
        let reqs = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&pct| Ratio::from_parts(pct * den / 100, den))
                    .collect()
            })
            .collect();
        Instance::unit_from_requirements(reqs)
    }

    fn never() -> CancelToken {
        CancelToken::never()
    }

    /// Only the `u64` view's `u32` parents can run out, so the rational
    /// fallback of a too-large round always has room.
    #[test]
    fn only_u32_parent_indices_run_out() {
        let last = u32::MAX as usize;
        assert_eq!(
            <u32 as ParentIndex>::from_index(last - 1),
            Some(u32::MAX - 1)
        );
        assert_eq!(<u32 as ParentIndex>::from_index(last), Some(u32::NONE));
        assert_eq!(<u32 as ParentIndex>::from_index(last + 1), None);
        assert_eq!(<usize as ParentIndex>::from_index(last + 1), Some(last + 1));
        assert_eq!(
            <<Ratio as SearchUnit>::Parent as ParentIndex>::index(last + 1),
            last + 1
        );
    }

    /// A round's configurations as exact words: counts as they are,
    /// `u64` spent units divided by the capacity.
    fn exact_words(round: &Round<u64>, m: usize, cap: u64) -> BTreeSet<Vec<Ratio>> {
        (0..round.len())
            .map(|i| {
                let config = round.config(i);
                let counts = config[..m].iter().map(|&c| Ratio::from_count(c as usize));
                counts
                    .chain(config[m..].iter().map(|&s| s.to_share(cap)))
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// At `k = 1` the `u64` and the `Ratio` view keep the same survivor
        /// set every round (listed in their own orders), reach the same
        /// makespan, and both replays are feasible schedules of it; the
        /// brute-force DFS agrees on both views.
        #[test]
        fn both_units_keep_the_same_survivors(
            den in 1u64..=24,
            rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=4), 1..=4),
        ) {
            let inst = percent_instance(den, &rows);
            let scaled = ScaledInstance::try_new(&inst).expect("small denominators scale");
            let (units, exact) = (View::from_scaled(&scaled), View::rational(&inst));
            let a = search(&units, None, &never()).unwrap().unwrap();
            let b = search(&exact, None, &never()).unwrap().unwrap();
            prop_assert_eq!(a.len(), b.len());
            let m = inst.processors();
            for (ra, rb) in a.iter().zip(&b) {
                let rb_words: BTreeSet<Vec<Ratio>> = (0..rb.len()).map(|i| rb.config(i).to_vec()).collect();
                prop_assert_eq!(exact_words(ra, m, scaled.capacity()), rb_words);
            }
            let makespan = a.len() - 1;
            prop_assert_eq!(schedule(&inst, &units, &a).makespan(&inst).unwrap(), makespan);
            prop_assert_eq!(schedule(&inst, &exact, &b).makespan(&inst).unwrap(), makespan);
            if inst.total_jobs() <= 10 {
                let (best, states, expansions) = brute_force(&units, &never()).unwrap();
                prop_assert_eq!(best, makespan);
                prop_assert_eq!(brute_force(&exact, &never()).unwrap(), (best, states, expansions));
            }
        }
    }

    /// Every successor of `config` in the unpruned class: each fitting
    /// subset of the positive entries (all-zero entries always complete),
    /// times, per layer, no receiver or any outside entry whose remaining
    /// exceeds a positive leftover; a step where everything fits only
    /// completes everything.
    fn reference_successors(view: &View<u64>, config: &[u64]) -> Vec<Vec<u64>> {
        let (m, k) = (view.processors(), view.resources());
        let active: Vec<usize> = (0..m)
            .filter(|&i| (config[i] as usize) < view.jobs_on(i))
            .collect();
        let rem = |e: usize, r: usize| {
            let i = active[e];
            view.req(i, config[i] as usize, r) - config[m + i * k + r]
        };
        let a = active.len();
        let zero = |e: usize| (0..k).all(|r| rem(e, r) == 0);
        let complete = |set: &[usize]| {
            let mut next = config.to_vec();
            for &e in set {
                let i = active[e];
                next[i] += 1;
                next[m + i * k..m + (i + 1) * k].fill(0);
            }
            next
        };
        let fits = |set: &[usize]| {
            (0..k).all(|r| {
                set.iter().map(|&e| u128::from(rem(e, r))).sum::<u128>() <= u128::from(view.caps[r])
            })
        };
        let all: Vec<usize> = (0..a).collect();
        if fits(&all) {
            return vec![complete(&all)];
        }
        let mut out = Vec::new();
        for mask in 1u32..(1 << a) {
            let set: Vec<usize> = (0..a).filter(|&e| mask & (1 << e) != 0).collect();
            let withholds_a_zero = (0..a).any(|e| zero(e) && mask & (1 << e) == 0);
            if withholds_a_zero || set.iter().all(|&e| zero(e)) || !fits(&set) {
                continue;
            }
            let left: Vec<u64> = (0..k)
                .map(|r| view.caps[r] - set.iter().map(|&e| rem(e, r)).sum::<u64>())
                .collect();
            // Receiver picks, one option per layer, as an odometer.
            let options: Vec<Vec<Option<usize>>> = (0..k)
                .map(|r| {
                    let outside = (0..a).filter(|&e| mask & (1 << e) == 0 && rem(e, r) > left[r]);
                    let mut o = vec![None];
                    if left[r] > 0 {
                        o.extend(outside.map(Some));
                    }
                    o
                })
                .collect();
            let mut pick = vec![0usize; k];
            loop {
                let mut next = complete(&set);
                for r in 0..k {
                    if let Some(e) = options[r][pick[r]] {
                        next[m + active[e] * k + r] += left[r];
                    }
                }
                out.push(next);
                let Some(r) = (0..k).find(|&r| pick[r] + 1 < options[r].len()) else {
                    break;
                };
                pick[r] += 1;
                pick[..r].fill(0);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// For `k ∈ {2, 3}` and up to five active frontiers (some already
        /// part-way done), the pruned enumeration emits a subset of the
        /// unpruned class, and every successor of the class is emitted or
        /// dominated by an emitted one.
        #[test]
        fn pruned_multi_layer_successors_dominate_the_full_class(
            k in 2usize..=3,
            m in 1usize..=5,
            reqs in prop::collection::vec(0u64..=100, 15..=15),
            spent in prop::collection::vec(0u64..=100, 15..=15),
        ) {
            let view = View::new(vec![100; k], &vec![1; m], |r, i, _| reqs[i * 3 + r]);
            let mut config = vec![0u64; m * (1 + k)];
            for i in 0..m {
                for r in 0..k {
                    config[m + i * k + r] = spent[i * 3 + r] % (reqs[i * 3 + r] + 1);
                }
            }
            let mut pruned = Vec::new();
            Successors::default()
                .for_each(&view, &config, &mut never().gate(1), &mut |next| pruned.push(next.to_vec()))
                .unwrap();
            let reference = reference_successors(&view, &config);
            for next in &pruned {
                prop_assert!(reference.contains(next), "{next:?} is outside the class");
            }
            for next in &reference {
                prop_assert!(
                    pruned.iter().any(|p| dominates(m, k, p, next)),
                    "{next:?} is neither emitted nor dominated"
                );
            }
        }
    }
}
