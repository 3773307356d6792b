//! The Lemma 4 domination filter shared by every OPT(m) search.
//!
//! Each round of Algorithm 2 ends by deleting every configuration that
//! another configuration of the same round dominates (Lemma 4): `a`
//! dominates `b` when every processor has completed more jobs in `a`, or
//! equally many with at least as much resource spent on the frontier job.
//! The survivors are the unique maximal antichain of that order.  The
//! configuration search (`config_search`) calls [`DominanceFilter::filter`]
//! for every resource count and both units, in the processing order its
//! unit prescribes.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_search::{dominates, ParentIndex, Round, SearchUnit};
    use cr_core::{CancelToken, Ratio};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The naive quadratic reference: a candidate survives when no other
    /// candidate dominates it.
    fn reference<V: Ord>(cands: &[Vec<V>], m: usize, k: usize) -> Vec<bool> {
        (0..cands.len())
            .map(|b| !(0..cands.len()).any(|a| a != b && dominates(m, k, &cands[a], &cands[b])))
            .collect()
    }

    fn never_gate() -> CancelGate {
        CancelToken::never().gate(FILTER_CHECK_STRIDE)
    }

    /// Runs the filter in `order` on a filter whose buffers may be dirty
    /// from an earlier round, and checks the survivors against the
    /// reference: same set, emitted in processing order, and never more
    /// checks than the quadratic filter's pairs.
    fn check_order<V: SearchUnit>(
        filter: &mut DominanceFilter<V>,
        cands: &[Vec<V>],
        m: usize,
        k: usize,
        order: &[usize],
    ) -> Result<(), TestCaseError> {
        let want: Vec<usize> = {
            let survives = reference(cands, m, k);
            order.iter().copied().filter(|&i| survives[i]).collect()
        };
        let got = filter
            .filter(
                order.iter().copied(),
                |i| &cands[i][..m],
                |a, b| dominates(m, k, &cands[a], &cands[b]),
                &mut never_gate(),
            )
            .expect("a never gate cannot fire");
        prop_assert_eq!(got.kept, &want[..]);
        let n = cands.len() as u64;
        prop_assert!(got.checks <= n * n.saturating_sub(1));
        Ok(())
    }

    /// Deduplicates `raw` and filters it twice, the second time on dirty
    /// buffers, in the unit's own processing order.
    fn check_all<V: SearchUnit>(raw: Vec<Vec<V>>, m: usize, k: usize) -> Result<(), TestCaseError> {
        let cands: Vec<Vec<V>> = raw
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let order_of = |cands: &[Vec<V>]| {
            let mut round = Round::new(m * (1 + k));
            for c in cands {
                round.push(c, ParentIndex::NONE);
            }
            V::processing_order(&round, m)
        };
        let mut filter = DominanceFilter::new(m);
        let half: Vec<Vec<V>> = cands.iter().step_by(2).cloned().collect();
        check_order(&mut filter, &half, m, k, &order_of(&half))?;
        check_order(&mut filter, &cands, m, k, &order_of(&cands))
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

    /// Flat configurations: `m` completed counts, then `m × k` spent
    /// values, processor-major.
    fn cut<V: SearchUnit>(
        raw: &[(Vec<u32>, Vec<u64>)],
        m: usize,
        k: usize,
        to: impl Fn(u64) -> V,
    ) -> Vec<Vec<V>> {
        raw.iter()
            .map(|(completed, spent)| {
                let counts = completed[..m].iter().map(|&c| V::from_count(c as usize));
                counts
                    .chain(spent[..m * k].iter().map(|&s| to(s)))
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over `u64`, in the (Σ completed, Σ spent) descending order: the
        /// filter keeps exactly the reference's survivors.
        #[test]
        fn filter_matches_the_quadratic_reference_over_u64(
            m in 1usize..=4,
            k in 1usize..=3,
            raw in raw_configs(),
        ) {
            check_all(cut(&raw, m, k, |s| s), m, k)?;
        }

        /// Over `Ratio`, in the progress order: the same configurations with
        /// spent values in thirds.
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
                |a, b| dominates(m, 1, &configs[a], &configs[b]),
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
                |a, b| dominates(m, 1, &configs[a], &configs[b]),
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
                |a, b| dominates(1, 1, &configs[a], &configs[b]),
                &mut token.gate(1),
            )
            .unwrap_err();
        assert_eq!(err, CancelReason::Cancelled);
    }
}
