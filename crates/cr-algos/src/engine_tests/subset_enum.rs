//! Unit tests of the configuration search's subset enumeration at `k = 1`,
//! filed under the module path the suite has always reported them with.
//! Each case is one step from the initial configuration of one job per
//! processor, so entry `i` is processor `i` and its remaining requirement
//! is the job's.

#[cfg(test)]
mod tests {
    use crate::config_search::tests::choices;
    use crate::config_search::{SearchUnit, Successors, View};
    use cr_core::{CancelReason, CancelToken, Ratio};

    /// One emitted choice: finished entries plus the partial receiver.
    type Choice<V> = (Vec<u32>, Option<(u32, V)>);

    fn view<V: SearchUnit>(remaining: &[V], cap: V) -> View<V> {
        View::new(vec![cap], &vec![1; remaining.len()], |_, i, _| remaining[i])
    }

    fn collect_choices<V: SearchUnit>(remaining: &[V], cap: V) -> Vec<Choice<V>> {
        let initial = vec![V::ZERO; 2 * remaining.len()];
        choices(&view(remaining, cap), &initial)
            .into_iter()
            .map(|(_, finished, partial)| (finished, partial))
            .collect()
    }

    #[test]
    fn all_fit_emits_single_full_choice() {
        let choices = collect_choices(&[30u64, 40, 30], 100);
        assert_eq!(choices, vec![(vec![0, 1, 2], None)]);
    }

    #[test]
    fn oversubscribed_pair_emits_both_partials() {
        // 60 + 60 > 100: either entry finishes, the other carries 40.
        let choices = collect_choices(&[60u64, 60], 100);
        assert_eq!(choices.len(), 2);
        for (finished, partial) in choices {
            assert_eq!(finished.len(), 1);
            let (receiver, amount) = partial.unwrap();
            assert_ne!(finished[0], receiver);
            assert_eq!(amount, 40);
        }
    }

    #[test]
    fn exact_fill_has_no_partial_receiver() {
        // {0, 1} sums to exactly the capacity.
        let choices = collect_choices(&[40u64, 60, 90], 100);
        assert!(choices.contains(&(vec![0, 1], None)));
        // Singleton 40 leaves 60, which only entry 2 (90 > 60) can carry.
        assert!(choices.contains(&(vec![0], Some((2, 60)))));
        assert!(!choices.contains(&(vec![0], Some((1, 60)))));
    }

    #[test]
    fn zero_remaining_entries_complete_in_every_choice() {
        let choices = collect_choices(&[0u64, 70, 70, 0], 100);
        assert!(!choices.is_empty());
        for (finished, _) in &choices {
            assert!(finished.contains(&0), "zero entry 0 always completes");
            assert!(finished.contains(&3), "zero entry 3 always completes");
        }
    }

    #[test]
    fn sums_near_u64_max_do_not_wrap() {
        // Three entries just below the capacity: the total overflows u64,
        // which must read as "oversubscribed", not wrap to a small sum.
        let cap = u64::MAX / 2;
        let r = cap - 1;
        let choices = collect_choices(&[r, r, r], cap);
        // Only singletons fit; each leaves 1 unit for one of the others.
        assert_eq!(choices.len(), 6);
        for (finished, partial) in choices {
            assert_eq!(finished.len(), 1);
            assert_eq!(partial.unwrap().1, 1);
        }
    }

    #[test]
    fn ratio_values_enumerate_like_units() {
        let remaining = [Ratio::from_percent(60), Ratio::from_percent(60)];
        let choices = collect_choices(&remaining, Ratio::ONE);
        assert_eq!(choices.len(), 2);
        for (_, partial) in choices {
            assert_eq!(partial.unwrap().1, Ratio::from_percent(40));
        }
    }

    #[test]
    fn empty_active_list_emits_nothing() {
        let choices = collect_choices::<u64>(&[], 100);
        assert!(choices.is_empty());
    }

    #[test]
    fn cancelled_token_stops_the_dfs_early() {
        let token = CancelToken::new();
        token.cancel();
        let mut gate = token.gate(1);
        // Oversubscribed: the full enumeration would emit 8·7 = 56 partial
        // choices; a pre-cancelled stride-1 gate stops at the first check.
        let remaining = vec![60u64; 8];
        let mut emitted = 0usize;
        let result = Successors::default().for_each(
            &view(&remaining, 100),
            &[0; 16],
            &mut gate,
            &mut |_| emitted += 1,
        );
        assert_eq!(result, Err(CancelReason::Cancelled));
        assert_eq!(emitted, 0);
    }
}
