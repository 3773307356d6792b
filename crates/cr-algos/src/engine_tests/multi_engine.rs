//! Unit tests of the configuration search on instances with extra
//! resource layers, filed under the module path the suite has always
//! reported them with.

#[cfg(test)]
mod tests {
    use crate::config_search::{search, SearchError, SearchUnit, View};
    use cr_core::{
        ratio, CancelReason, CancelToken, Instance, InstanceBuilder, Ratio, ScaledInstance,
    };

    fn never() -> CancelToken {
        CancelToken::never()
    }

    fn makespan<V: SearchUnit>(view: &View<V>) -> usize {
        search(view, None, &never()).unwrap().unwrap().len() - 1
    }

    fn scaled_makespan(inst: &Instance) -> usize {
        makespan(&View::from_scaled(
            &ScaledInstance::try_new(inst).expect("grid fits"),
        ))
    }

    fn rational_makespan(inst: &Instance) -> usize {
        makespan(&View::rational(inst))
    }

    #[test]
    fn zero_extra_layer_matches_the_scalar_search() {
        let base = Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]);
        let with_layer = InstanceBuilder::new()
            .processor([ratio(6, 10), ratio(4, 10), ratio(8, 10)])
            .processor([ratio(3, 10), ratio(9, 10), ratio(1, 10)])
            .extra_layer([vec![Ratio::ZERO; 3], vec![Ratio::ZERO; 3]])
            .build();
        assert_eq!(with_layer.resources(), 2);
        let scalar = crate::opt_m_makespan(&base);
        assert_eq!(scaled_makespan(&with_layer), scalar);
        assert_eq!(rational_makespan(&with_layer), scalar);
    }

    #[test]
    fn binding_second_resource_raises_the_makespan() {
        // Cheap on the base resource, oversubscribed on the extra one:
        // workload bound on layer 1 is 1.5 → at least 2 steps.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        assert_eq!(scaled_makespan(&inst), 2);
        assert_eq!(rational_makespan(&inst), 2);
    }

    #[test]
    fn per_resource_receivers_split_across_processors() {
        // Job 0 saturates resource 0, job 1 saturates resource 1; the
        // third processor's job needs both.  Finishing jobs 0 and 1 first
        // leaves the pair of leftovers to processor 2 on different layers.
        let inst = InstanceBuilder::new()
            .processor([Ratio::ONE])
            .processor([ratio(1, 100)])
            .processor([ratio(3, 5)])
            .extra_layer([vec![ratio(1, 100)], vec![Ratio::ONE], vec![ratio(3, 5)]])
            .build();
        let value = scaled_makespan(&inst);
        assert_eq!(value, rational_makespan(&inst));
        // Workload: layer 0 and 1 both sum to 1.61 → lower bound 2.
        assert_eq!(value, 2);
    }

    #[test]
    fn round_cap_cuts_the_search_off() {
        let inst = InstanceBuilder::new()
            .processor([Ratio::ONE])
            .processor([Ratio::ONE])
            .extra_layer([vec![Ratio::ONE], vec![Ratio::ONE]])
            .build();
        let view = View::rational(&inst);
        assert_eq!(search(&view, Some(1), &never()).unwrap(), None);
        let full = search(&view, Some(2), &never())
            .unwrap()
            .expect("two rounds suffice");
        assert_eq!(full.len() - 1, 2);
    }

    #[test]
    fn cancelled_search_stops_early() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2)])
            .processor([ratio(1, 2), ratio(1, 2)])
            .extra_layer([vec![ratio(1, 3); 2], vec![ratio(2, 3); 2]])
            .build();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            search(&View::rational(&inst), None, &token),
            Err(SearchError::Cancelled {
                reason: CancelReason::Cancelled
            })
        );
    }

    #[test]
    fn empty_instance_finishes_in_zero_rounds() {
        let inst = InstanceBuilder::new()
            .empty_processor()
            .empty_processor()
            .build();
        let rounds = search(&View::rational(&inst), None, &never())
            .unwrap()
            .unwrap();
        // Only the initial configuration: nothing was expanded.
        assert_eq!(rounds.len(), 1);
    }
}
