//! The Lemma 4 domination filter shared by every OPT(m) search.
//!
//! Each round of Algorithm 2 ends by deleting every configuration that
//! another configuration of the same round dominates (Lemma 4): `a`
//! dominates `b` when every processor has completed more jobs in `a`, or
//! equally many with at least as much resource spent on the frontier job.
//! The survivors are the unique maximal antichain of that order.  The
//! scalar engine (`scaled_engine`), the multi-resource engine
//! (`multi_engine`) and the rational reference (`opt_m`) all call
//! [`DominanceFilter::filter`]; each supplies its own `dominates`.
//!
//! # How the filter works
//!
//! The caller hands in the round's candidates in an order where every
//! dominator comes before the configurations it dominates.  A dominated
//! candidate is then dominated by some maximal one, which was processed
//! earlier and kept, so checking each candidate against the survivors kept
//! so far is exact.
//!
//! Domination implies a componentwise `≥` on the completed-count vectors,
//! so the kept survivors are bucketed by that vector and a candidate is
//! checked only against buckets whose key is componentwise at least its
//! own.  Incomparable buckets — most of a round, once completions spread
//! over the processors — cost one short key compare instead of one
//! `dominates` call per member.  Buckets are scanned in creation order,
//! which for every caller's order puts the most-completed ones first.
//!
//! Survivors come out in processing order.  The buffers (bucket keys,
//! member lists, the kept list) live in the filter value, so a search that
//! keeps one filter across its rounds allocates them once.

use cr_core::{CancelGate, CancelReason};
use std::cmp::Reverse;

/// How many candidates pass between token checks: one candidate costs a
/// scan of the bucket keys plus its `dominates` calls (microseconds on the
/// largest observed rounds), so this stride checks far more often than the
/// [`cr_core::cancel::CHECK_INTERVAL_MS`] contract requires.
pub(crate) const FILTER_CHECK_STRIDE: u32 = 64;

/// The indexed domination filter with its reusable buffers; `C` is the
/// engine's completed-count type.
#[derive(Debug)]
pub(crate) struct DominanceFilter<C> {
    /// Completed-count vector length (the processor count).
    m: usize,
    /// Bucket keys, `m` completed counts per bucket, flat.
    keys: Vec<C>,
    /// Kept candidates per bucket, in processing order.  Only the lists of
    /// the current round's buckets are live; the rest keep their capacity
    /// for later rounds.
    members: Vec<Vec<usize>>,
    /// The last round's survivors, in processing order.
    kept: Vec<usize>,
}

/// The result of one [`DominanceFilter::filter`] call.
#[derive(Debug)]
pub(crate) struct Filtered<'a> {
    /// Surviving candidate indices, in processing order.
    pub kept: &'a [usize],
    /// How many `dominates` calls the round made.
    pub checks: u64,
}

impl<C: Copy + Ord> DominanceFilter<C> {
    /// An empty filter for configurations of `m` processors.
    pub(crate) fn new(m: usize) -> Self {
        DominanceFilter {
            m,
            keys: Vec::new(),
            members: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Filters one round.
    ///
    /// `order` lists the candidate indices so that every dominator precedes
    /// what it dominates; `completed(i)` is candidate `i`'s completed-count
    /// vector (length `m`) and `dominates(a, b)` the engine's Lemma 4 test.
    /// Distinct candidates must not dominate each other both ways (exact
    /// duplicates are removed before the filter).  Polls `gate` once per
    /// candidate.
    pub(crate) fn filter<'c>(
        &mut self,
        order: impl IntoIterator<Item = usize>,
        completed: impl Fn(usize) -> &'c [C],
        mut dominates: impl FnMut(usize, usize) -> bool,
        gate: &mut CancelGate,
    ) -> Result<Filtered<'_>, CancelReason>
    where
        C: 'c,
    {
        let m = self.m;
        self.keys.clear();
        self.kept.clear();
        let mut buckets = 0usize;
        let mut checks = 0u64;
        for candidate in order {
            gate.tick()?;
            let key = completed(candidate);
            let mut home = None;
            let mut dominated = false;
            // lint: allow(cancel_coverage) — bounded: one pass over this round's buckets per gated candidate
            'scan: for bucket in 0..buckets {
                let bucket_key = &self.keys[bucket * m..(bucket + 1) * m];
                if !bucket_key.iter().zip(key).all(|(b, c)| b >= c) {
                    continue;
                }
                if bucket_key == key {
                    home = Some(bucket);
                }
                // lint: allow(cancel_coverage) — bounded: the bucket's survivors, a subset of this round's candidates
                for &kept in &self.members[bucket] {
                    checks += 1;
                    if dominates(kept, candidate) {
                        dominated = true;
                        break 'scan;
                    }
                }
            }
            if dominated {
                continue;
            }
            self.kept.push(candidate);
            match home {
                Some(bucket) => self.members[bucket].push(candidate),
                None => {
                    self.keys.extend_from_slice(key);
                    if let Some(list) = self.members.get_mut(buckets) {
                        list.clear();
                        list.push(candidate);
                    } else {
                        self.members.push(vec![candidate]);
                    }
                    buckets += 1;
                }
            }
        }
        Ok(Filtered {
            kept: &self.kept,
            checks,
        })
    }
}

/// The processing order of the `opt_m` and `multi_engine` rounds: by
/// Σ completed descending, then by (completed, spent) lexicographically
/// descending, ties to the lower index.  A dominator has a componentwise
/// greater-or-equal completed vector, and on equal vectors a greater-or-
/// equal spent vector, so it comes first.  Spent values are only
/// compared, never summed, so no sum can overflow.
fn progress_order<'c, C, S>(
    len: usize,
    completed: impl Fn(usize) -> &'c [C],
    spent: impl Fn(usize) -> &'c [S],
) -> Vec<usize>
where
    C: Copy + Ord + TryInto<u64> + 'c,
    S: Ord + 'c,
{
    let mut order: Vec<(u64, usize)> = (0..len)
        .map(|i| {
            let total = completed(i).iter().fold(0u64, |sum, &c| {
                sum.saturating_add(c.try_into().unwrap_or(u64::MAX))
            });
            (total, i)
        })
        .collect();
    order.sort_unstable_by(|&(ta, a), &(tb, b)| {
        Reverse(ta)
            .cmp(&Reverse(tb))
            .then_with(|| completed(b).cmp(completed(a)))
            .then_with(|| spent(b).cmp(spent(a)))
            .then(a.cmp(&b))
    });
    order.into_iter().map(|(_, i)| i).collect()
}

/// [`DominanceFilter::filter`] over [`progress_order`], for the `opt_m`
/// and `multi_engine` rounds, which keep their survivors in insertion
/// order: returns a keep flag per candidate plus the `dominates` call count.
pub(crate) fn keep_mask<'c, C, S>(
    filter: &mut DominanceFilter<C>,
    len: usize,
    completed: impl Fn(usize) -> &'c [C],
    spent: impl Fn(usize) -> &'c [S],
    dominates: impl FnMut(usize, usize) -> bool,
    gate: &mut CancelGate,
) -> Result<(Vec<bool>, u64), CancelReason>
where
    C: Copy + Ord + TryInto<u64> + 'c,
    S: Ord + 'c,
{
    let order = progress_order(len, &completed, spent);
    let filtered = filter.filter(order, completed, dominates, gate)?;
    let mut keep = vec![false; len];
    // lint: allow(cancel_coverage) — bounded: one flag per survivor of the gated filter above
    for &i in filtered.kept {
        keep[i] = true;
    }
    Ok((keep, filtered.checks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{CancelToken, Ratio};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A test configuration: completed counts plus `m × k` spent values,
    /// processor-major (the `multi_engine` layout; `k = 1` is the scalar
    /// layout).
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Cfg<V> {
        completed: Vec<u32>,
        spent: Vec<V>,
    }

    /// The Lemma 4 order over `k` layers.
    fn dominates<V: Ord>(a: &Cfg<V>, b: &Cfg<V>, k: usize) -> bool {
        a.completed
            .iter()
            .zip(&b.completed)
            .enumerate()
            .all(|(i, (ca, cb))| {
                ca > cb || (ca == cb && (i * k..(i + 1) * k).all(|s| a.spent[s] >= b.spent[s]))
            })
    }

    /// The naive quadratic reference: a candidate survives when no other
    /// candidate dominates it.
    fn reference<V: Ord>(cands: &[Cfg<V>], k: usize) -> Vec<bool> {
        (0..cands.len())
            .map(|b| !(0..cands.len()).any(|a| a != b && dominates(&cands[a], &cands[b], k)))
            .collect()
    }

    fn never_gate() -> CancelGate {
        CancelToken::never().gate(FILTER_CHECK_STRIDE)
    }

    /// Runs the filter in `order` on a filter whose buffers are dirty from
    /// an earlier round, and checks the survivors against the reference:
    /// same set, emitted in processing order.
    fn check_order<V: Ord>(
        filter: &mut DominanceFilter<u32>,
        cands: &[Cfg<V>],
        k: usize,
        order: &[usize],
    ) -> Result<(), TestCaseError> {
        let want: Vec<usize> = {
            let survives = reference(cands, k);
            order.iter().copied().filter(|&i| survives[i]).collect()
        };
        let got = filter
            .filter(
                order.iter().copied(),
                |i| &cands[i].completed,
                |a, b| dominates(&cands[a], &cands[b], k),
                &mut never_gate(),
            )
            .expect("a never gate cannot fire");
        prop_assert_eq!(got.kept, &want[..]);
        Ok(())
    }

    fn check_all<V: Ord + Clone>(
        raw: Vec<Cfg<V>>,
        m: usize,
        k: usize,
    ) -> Result<(), TestCaseError> {
        let cands: Vec<Cfg<V>> = raw
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut filter = DominanceFilter::new(m);
        // Dirty the buffers with a different round first.
        let half: Vec<Cfg<V>> = cands.iter().step_by(2).cloned().collect();
        let order = progress_order(half.len(), |i| &half[i].completed, |i| &half[i].spent);
        check_order(&mut filter, &half, k, &order)?;

        let order = progress_order(cands.len(), |i| &cands[i].completed, |i| &cands[i].spent);
        check_order(&mut filter, &cands, k, &order)?;
        let (keep, checks) = keep_mask(
            &mut filter,
            cands.len(),
            |i| &cands[i].completed,
            |i| &cands[i].spent,
            |a, b| dominates(&cands[a], &cands[b], k),
            &mut never_gate(),
        )
        .expect("a never gate cannot fire");
        prop_assert_eq!(keep, reference(&cands, k));
        // Never more than the quadratic filter's pairs.
        let n = cands.len() as u64;
        prop_assert!(checks <= n * n.saturating_sub(1));
        Ok(())
    }

    /// Raw configurations for up to 4 processors and 3 layers, cut to
    /// `m` processors and `k` layers by [`cut`].  Completed counts lie in
    /// `0..=2`, so many candidates share a completed vector, and spent
    /// values in `0..=3`, so domination inside a bucket is common.
    fn raw_configs() -> impl Strategy<Value = Vec<(Vec<u32>, Vec<u64>)>> {
        prop::collection::vec(
            (
                prop::collection::vec(0u32..=2, 4),
                prop::collection::vec(0u64..=3, 12),
            ),
            0..48,
        )
    }

    fn cut<V>(
        raw: &[(Vec<u32>, Vec<u64>)],
        m: usize,
        k: usize,
        to: impl Fn(u64) -> V,
    ) -> Vec<Cfg<V>> {
        raw.iter()
            .map(|(completed, spent)| Cfg {
                completed: completed[..m].to_vec(),
                spent: spent[..m * k].iter().map(|&s| to(s)).collect(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over `u64`: the progress order and the scalar engine's
        /// (Σ completed, Σ spent) descending order both keep exactly the
        /// reference's survivors, in processing order.
        #[test]
        fn filter_matches_the_quadratic_reference_over_u64(
            m in 1usize..=4,
            k in 1usize..=3,
            raw in raw_configs(),
        ) {
            let cands = cut(&raw, m, k, |s| s);
            check_all(cands.clone(), m, k)?;
            if k == 1 {
                let cands: Vec<Cfg<u64>> =
                    cands.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
                let mut order: Vec<(u64, u64, usize)> = cands
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let sc: u64 = c.completed.iter().map(|&x| u64::from(x)).sum();
                        (sc, c.spent.iter().sum(), i)
                    })
                    .collect();
                order.sort_unstable_by(|a, b| b.cmp(a));
                let order: Vec<usize> = order.into_iter().map(|(_, _, i)| i).collect();
                check_order(&mut DominanceFilter::new(m), &cands, 1, &order)?;
            }
        }

        /// Over `Ratio`: the same configurations with spent values in
        /// thirds.
        #[test]
        fn filter_matches_the_quadratic_reference_over_ratio(
            m in 1usize..=4,
            k in 1usize..=3,
            raw in raw_configs(),
        ) {
            check_all(cut(&raw, m, k, |s| Ratio::new(i128::from(s), 3)), m, k)?;
        }
    }

    #[test]
    fn strictly_greater_completed_count_dominates_across_buckets() {
        // completed [2, 1] / spent [0, 30] dominates [1, 1] / [90, 10] only
        // through processor 0's greater count (it spent less there), so the
        // two sit in different buckets and the candidate must still go.
        let configs: [[u64; 4]; 2] = [[2, 1, 0, 30], [1, 1, 90, 10]];
        let m = 2;
        let mut filter = DominanceFilter::new(m);
        let out = filter
            .filter(
                [0, 1],
                |i| &configs[i][..m],
                |a, b| crate::scaled_engine::dominates(m, &configs[a], &configs[b]),
                &mut never_gate(),
            )
            .unwrap();
        assert_eq!(out.kept, &[0]);
        assert_eq!(out.checks, 1);
    }

    #[test]
    fn incomparable_buckets_cost_no_checks() {
        // [1, 0] and [0, 1] are incomparable: neither bucket is scanned for
        // the other, so nothing is compared and both survive.
        let configs: [[u64; 4]; 2] = [[1, 0, 0, 5], [0, 1, 5, 0]];
        let m = 2;
        let mut filter = DominanceFilter::new(m);
        let out = filter
            .filter(
                [0, 1],
                |i| &configs[i][..m],
                |a, b| crate::scaled_engine::dominates(m, &configs[a], &configs[b]),
                &mut never_gate(),
            )
            .unwrap();
        assert_eq!(out.kept, &[0, 1]);
        assert_eq!(out.checks, 0);
    }

    #[test]
    fn a_fired_token_stops_the_filter() {
        let configs: [[u64; 2]; 1] = [[0, 0]];
        let token = CancelToken::new();
        token.cancel();
        let mut filter = DominanceFilter::new(1);
        let err = filter
            .filter(
                [0],
                |i| &configs[i][..1],
                |a, b| crate::scaled_engine::dominates(1, &configs[a], &configs[b]),
                &mut token.gate(1),
            )
            .unwrap_err();
        assert_eq!(err, CancelReason::Cancelled);
    }
}
