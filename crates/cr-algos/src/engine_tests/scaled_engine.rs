//! Unit tests of the configuration search on `u64` units at `k = 1`,
//! filed under the module path the suite has always reported them with.

#[cfg(test)]
mod tests {
    use crate::config_search::tests::{choices, percent_instance, Choice};
    use crate::config_search::{
        brute_force, dominates, schedule, search, search_chunked, Round, SearchError, View,
    };
    use crate::opt_two::Chains;
    use cr_core::{CancelReason, CancelToken, Instance, InstanceBuilder, Ratio, ScaledInstance};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn never() -> CancelToken {
        CancelToken::never()
    }

    fn scaled(rows: &[&[i64]]) -> ScaledInstance {
        ScaledInstance::try_new(&Instance::unit_from_percentages(rows)).unwrap()
    }

    fn rounds(view: &View<u64>) -> Vec<Round<u64>> {
        search(view, None, &never()).unwrap().unwrap()
    }

    fn makespan(s: &ScaledInstance) -> usize {
        rounds(&View::from_scaled(s)).len() - 1
    }

    fn initial(m: usize) -> Vec<u64> {
        vec![0; 2 * m]
    }

    fn enumerator_choices(view: &View<u64>, config: &[u64]) -> BTreeSet<Choice<u64>> {
        let all = choices(view, config);
        let set: BTreeSet<Choice<u64>> = all.iter().cloned().collect();
        assert_eq!(
            set.len(),
            all.len(),
            "the enumerator must not emit a choice twice"
        );
        set
    }

    /// The reference `2^k` bitmask scan, normalized to the rule that
    /// zero-remaining frontiers always complete (the variants that skip
    /// them are strictly dominated and the enumerator does not emit them).
    /// Only valid for `k ≤ 31` active processors.
    fn mask_scan_choices(s: &ScaledInstance, config: &[u64]) -> BTreeSet<Choice<u64>> {
        let m = s.processors();
        let mut active = Vec::new();
        let mut remaining = Vec::new();
        for i in 0..m {
            let done = config[i] as usize;
            if done < s.jobs_on(i) {
                active.push(i);
                remaining.push(s.unit_req(i, done) - config[m + i]);
            }
        }
        let mut out = BTreeSet::new();
        if active.is_empty() {
            return out;
        }
        let k = active.len();
        assert!(k < 32, "the reference mask scan is limited to 31 actives");
        let cap = s.capacity();
        let build = |mask: u32, partial: Option<(u32, u64)>| -> Choice<u64> {
            let mut cfg = config.to_vec();
            let mut finished = Vec::new();
            for (bit, &p) in active.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    cfg[p] += 1;
                    cfg[m + p] = 0;
                    finished.push(u32::try_from(p).unwrap());
                }
            }
            if let Some((p, amount)) = partial {
                cfg[m + p as usize] += amount;
            }
            (cfg, finished, partial)
        };
        let total: u128 = remaining.iter().map(|&r| u128::from(r)).sum();
        if total <= u128::from(cap) {
            out.insert(build((1u32 << k) - 1, None));
            return out;
        }
        for mask in 1u32..(1u32 << k) {
            if remaining
                .iter()
                .enumerate()
                .any(|(bit, &r)| r == 0 && mask & (1 << bit) == 0)
            {
                continue;
            }
            let sum: u128 = remaining
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &r)| u128::from(r))
                .sum();
            if sum > u128::from(cap) {
                continue;
            }
            let leftover = cap - u64::try_from(sum).unwrap();
            if leftover == 0 {
                out.insert(build(mask, None));
                continue;
            }
            for (bit, &p) in active.iter().enumerate() {
                if mask & (1 << bit) == 0 && remaining[bit] > leftover {
                    out.insert(build(mask, Some((u32::try_from(p).unwrap(), leftover))));
                }
            }
        }
        out
    }

    #[test]
    fn successor_streaming_matches_manual_enumeration() {
        let s = scaled(&[&[60, 40], &[60, 40]]);
        let seen = choices(&View::from_scaled(&s), &initial(2));
        // 60 + 60 > 100: either frontier may finish, the other carries 40.
        assert_eq!(seen.len(), 2);
        for (cfg, finished, partial) in &seen {
            assert_eq!(finished.len(), 1);
            let (p, amount) = partial.unwrap();
            assert_eq!(s.to_ratio(amount), Ratio::from_percent(40));
            assert_eq!(cfg[2 + p as usize], amount);
            assert_ne!(finished[0], p);
        }
    }

    #[test]
    fn all_fit_step_finishes_everything() {
        let s = scaled(&[&[30], &[30], &[40]]);
        let seen = choices(&View::from_scaled(&s), &initial(3));
        assert_eq!(seen.len(), 1);
        let (cfg, finished, partial) = &seen[0];
        assert_eq!(finished, &[0, 1, 2]);
        assert!(partial.is_none());
        assert_eq!(&cfg[..3], &[1, 1, 1]);
    }

    #[test]
    fn wide_active_sets_no_longer_assert() {
        // 40 active processors: 4 oversubscribed heavies plus 36 free
        // (zero-requirement) frontiers, beyond any 32-bit subset mask.
        let mut rows: Vec<&[i64]> = Vec::new();
        for _ in 0..4 {
            rows.push(&[90]);
        }
        for _ in 0..36 {
            rows.push(&[0]);
        }
        let s = scaled(&rows);
        let seen = choices(&View::from_scaled(&s), &initial(40));
        // The 36 free frontiers complete in every choice, exactly one heavy
        // completes, and another heavy carries the leftover.
        assert_eq!(seen.len(), 4 * 3);
        for (_, finished, partial) in &seen {
            assert_eq!(finished.len(), 37);
            assert!(partial.is_some());
        }
    }

    #[test]
    fn near_max_capacity_sums_are_checked_not_wrapped() {
        // Largest prime below 2^63: the capacity consumes all but one bit of
        // u64, so the three-fold remaining sum overflows and must be treated
        // as oversubscribed, not wrap around.
        let p: i128 = 9_223_372_036_854_775_783;
        let inst = InstanceBuilder::new()
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .build();
        let s = ScaledInstance::try_new(&inst).expect("2·D headroom admits capacities up to 2^63");
        assert_eq!(s.capacity(), 9_223_372_036_854_775_783u64);
        let view = View::from_scaled(&s);
        let rounds = rounds(&view);
        // One job finishes per step; the one-unit leftover barely helps.
        assert_eq!(rounds.len() - 1, 3);
        assert_eq!(schedule(&inst, &view, &rounds).makespan(&inst).unwrap(), 3);
    }

    #[test]
    fn domination_is_reflexive_and_ordered() {
        // completed = [2, 1] / spent = [0, 30] dominates [1, 1] / [90, 10].
        let a = [2u64, 1, 0, 30];
        let b = [1u64, 1, 90, 10];
        assert!(dominates(2, 1, &a, &a));
        assert!(dominates(2, 1, &a, &b));
        assert!(!dominates(2, 1, &b, &a));
    }

    #[test]
    fn survivor_order_is_pinned() {
        // Each round keeps its survivors in the domination filter's
        // processing order, (Σ completed, Σ spent) descending with ties to
        // the higher index; the schedule replay reads parents by index, so
        // this order is part of every replayed response.
        let s = scaled(&[&[60, 40], &[30, 90], &[55, 45]]);
        assert_eq!(s.capacity(), 20);
        let configs: Vec<Vec<Vec<u64>>> = rounds(&View::from_scaled(&s))
            .iter()
            .map(|round| (0..round.len()).map(|i| round.config(i).to_vec()).collect())
            .collect();
        let want: Vec<Vec<Vec<u64>>> = vec![
            vec![vec![0, 0, 0, 0, 0, 0]],
            vec![
                vec![0, 1, 1, 3, 0, 0],
                vec![1, 1, 0, 0, 0, 2],
                vec![0, 0, 1, 9, 0, 0],
                vec![1, 0, 0, 0, 0, 8],
            ],
            vec![
                vec![2, 1, 1, 0, 3, 0],
                vec![1, 1, 2, 0, 2, 0],
                vec![2, 1, 0, 0, 12, 2],
                vec![0, 1, 2, 3, 11, 0],
                vec![1, 1, 1, 0, 11, 0],
                vec![0, 2, 1, 3, 0, 2],
                vec![0, 2, 1, 5, 0, 0],
                vec![1, 2, 0, 0, 0, 4],
                vec![1, 2, 0, 2, 0, 2],
            ],
            vec![
                vec![2, 1, 2, 0, 14, 0],
                vec![2, 2, 1, 0, 0, 5],
                vec![1, 2, 2, 4, 0, 0],
            ],
            vec![vec![2, 2, 2, 0, 0, 0]],
        ];
        assert_eq!(configs, want);
    }

    #[test]
    fn search_solves_known_instances() {
        assert_eq!(makespan(&scaled(&[&[100], &[100], &[100]])), 3);
        assert_eq!(makespan(&scaled(&[&[50, 20], &[30, 30], &[20, 50]])), 2);
        assert_eq!(makespan(&scaled(&[&[50, 50, 50, 50], &[100], &[100]])), 4);
    }

    #[test]
    fn empty_instance_is_final_immediately() {
        let inst = InstanceBuilder::new()
            .empty_processor()
            .empty_processor()
            .build();
        let view = View::from_scaled(&ScaledInstance::try_new(&inst).unwrap());
        let rounds = rounds(&view);
        assert_eq!(rounds.len() - 1, 0);
        assert_eq!(schedule(&inst, &view, &rounds).num_steps(), 0);
    }

    #[test]
    fn flat_dp_matches_search_on_two_processors() {
        for rows in [
            &[&[60i64, 40][..], &[60, 40][..]][..],
            &[&[100, 1, 100][..], &[1, 100, 1][..]][..],
            &[&[55, 45, 35][..], &[65, 75, 85][..]][..],
        ] {
            let s = scaled(rows);
            let dp = Chains::from_scaled(&s).decisions(&never()).unwrap();
            assert_eq!(dp.len(), makespan(&s));
        }
    }

    #[test]
    fn brute_force_agrees_with_search() {
        for rows in [
            &[&[50i64, 20][..], &[30, 30][..], &[20, 50][..]][..],
            &[&[90, 5][..], &[80, 15][..], &[70, 25][..]][..],
        ] {
            let s = scaled(rows);
            let (best, states, expansions) = brute_force(&View::from_scaled(&s), &never()).unwrap();
            assert_eq!(best, makespan(&s));
            assert!(states > 0);
            assert!(expansions > 0);
        }
    }

    #[test]
    fn cancelled_search_surfaces_a_structured_error() {
        let view = View::from_scaled(&scaled(&[&[100], &[100], &[100]]));
        let token = CancelToken::new();
        token.cancel();
        let err = search(&view, None, &token).unwrap_err();
        assert_eq!(
            err,
            SearchError::Cancelled {
                reason: CancelReason::Cancelled
            }
        );
        assert!(err.to_string().contains("cancelled externally"));
        assert_eq!(
            brute_force(&view, &token).unwrap_err(),
            CancelReason::Cancelled
        );
        // An unfired token changes nothing: same rounds as the plain entry.
        let live = CancelToken::new();
        assert_eq!(search(&view, None, &live).unwrap().unwrap(), rounds(&view));
    }

    #[test]
    fn search_error_displays_the_offending_round() {
        let err = SearchError::RoundTooLarge {
            round: 7,
            nodes: 5_000_000_000,
        };
        assert!(err.to_string().contains("round 7"));
        assert!(err.to_string().contains("5000000000"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pruned DFS enumerator emits exactly the successor set of the
        /// reference mask scan for active widths up to 12, on the initial
        /// configuration and on a sample of first-round successors.
        #[test]
        fn enumerator_matches_reference_mask_scan(
            den in 1u64..=24,
            rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=2), 1..=12),
        ) {
            let inst = percent_instance(den, &rows);
            let s = ScaledInstance::try_new(&inst).expect("small denominators always scale");
            let view = View::from_scaled(&s);
            let init = initial(s.processors());
            prop_assert_eq!(enumerator_choices(&view, &init), mask_scan_choices(&s, &init));
            // Wide oversubscribed frontiers can have hundreds of first-round
            // successors; re-checking a prefix keeps the reference 2^k scan
            // affordable while still covering non-initial spent states.
            for (config, _, _) in enumerator_choices(&view, &init).into_iter().take(16) {
                prop_assert_eq!(
                    enumerator_choices(&view, &config),
                    mask_scan_choices(&s, &config)
                );
            }
        }

        /// Parallel round expansion is identical to serial: every chunk
        /// granularity produces the same rounds (nodes and parents) and
        /// therefore the same reconstructed schedule.
        #[test]
        fn parallel_search_is_bit_identical_to_serial(
            den in 1u64..=24,
            rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=3), 2..=4),
        ) {
            let inst = percent_instance(den, &rows);
            let s = ScaledInstance::try_new(&inst).expect("small denominators always scale");
            let view = View::from_scaled(&s);
            let chunked = |chunk| search_chunked(&view, Some(chunk), None, &never()).unwrap().unwrap();
            let serial = chunked(usize::MAX);
            for chunk in [1usize, 2, 3] {
                prop_assert_eq!(&chunked(chunk), &serial);
            }
            let default = rounds(&view);
            prop_assert_eq!(&default, &serial);
            prop_assert_eq!(schedule(&inst, &view, &default), schedule(&inst, &view, &serial));
        }
    }
}
