//! Property-based tests for the core model: rational arithmetic laws,
//! schedule-builder/trace agreement and feasibility invariants.

use cr_core::{Instance, MultiStepper, Ratio, Schedule};
use proptest::prelude::*;

/// Strategy for moderate rationals (numerators/denominators small enough that
/// products of several of them stay far from overflow).
fn small_ratio() -> impl Strategy<Value = Ratio> {
    (-200i128..=200, 1i128..=200).prop_map(|(n, d)| Ratio::new(n, d))
}

/// Strategy for requirements on the percent grid.
fn requirement() -> impl Strategy<Value = Ratio> {
    (1i64..=100).prop_map(Ratio::from_percent)
}

fn unit_instance() -> impl Strategy<Value = Instance> {
    prop::collection::vec(prop::collection::vec(requirement(), 1..=5), 1..=4)
        .prop_map(Instance::unit_from_requirements)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn addition_is_commutative_and_associative(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_distributes_over_addition(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn subtraction_and_negation_agree(a in small_ratio(), b in small_ratio()) {
        prop_assert_eq!(a - b, a + (-b));
        prop_assert_eq!(a - a, Ratio::ZERO);
    }

    #[test]
    fn division_inverts_multiplication(a in small_ratio(), b in small_ratio()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!((a * b) / b, a);
    }

    #[test]
    fn ordering_is_consistent_with_subtraction(a in small_ratio(), b in small_ratio()) {
        prop_assert_eq!(a < b, (a - b).is_negative());
        prop_assert_eq!(a == b, (a - b).is_zero());
        prop_assert_eq!(a.min(b) <= a.max(b), true);
    }

    #[test]
    fn floor_ceil_bracket_the_value(a in small_ratio()) {
        let fl = Ratio::from_integer(a.floor() as i64);
        let ce = Ratio::from_integer(a.ceil() as i64);
        prop_assert!(fl <= a);
        prop_assert!(a <= ce);
        prop_assert!(ce - fl <= Ratio::ONE);
    }

    #[test]
    fn display_parse_roundtrip(a in small_ratio()) {
        let text = a.to_string();
        prop_assert_eq!(text.parse::<Ratio>().unwrap(), a);
    }

    /// The builder's internal state always agrees with re-simulating the
    /// produced schedule through the trace machinery.
    #[test]
    fn builder_and_trace_agree(instance in unit_instance(), seed in 0u64..1000) {
        // A deterministic pseudo-random work-conserving policy.
        let m = instance.processors();
        let mut builder = MultiStepper::new_rational(&instance);
        let mut state = seed;
        let mut guard = 0usize;
        while !builder.all_done() {
            guard += 1;
            prop_assert!(guard <= instance.total_jobs() * 2 + 4, "policy failed to terminate");
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let offset = (state >> 33) as usize % m.max(1);
            let mut shares = vec![Ratio::ZERO; m];
            let mut left = Ratio::ONE;
            for k in 0..m {
                let i = (k + offset) % m;
                if !builder.is_active(i) {
                    continue;
                }
                let give = builder.step_demand(i, 0).min(left);
                shares[i] = give;
                left -= give;
            }
            builder.push_step(&shares);
        }
        let schedule = builder.finish().expect("k = 1 runs finish to a schedule");
        let trace = schedule.trace(&instance).expect("builder produced a feasible schedule");
        prop_assert_eq!(trace.makespan(), schedule.num_steps());
        // The total useful consumption equals the total workload.
        let consumed: Ratio = (0..trace.num_steps()).map(|t| trace.consumed_total(t)).sum();
        prop_assert_eq!(consumed, instance.total_workload());
    }

    /// Truncating a feasible schedule leaves jobs unfinished (the validator
    /// notices), and over-assigning shares is rejected.
    #[test]
    fn validator_rejects_bad_schedules(instance in unit_instance()) {
        prop_assume!(instance.total_workload() > Ratio::ONE);
        // One step cannot finish everything.
        let single_step = Schedule::new(vec![vec![Ratio::new(1, instance.processors() as i128); instance.processors()]]);
        prop_assert!(single_step.trace(&instance).is_err());

        let overused = Schedule::new(vec![vec![Ratio::ONE; instance.processors()]]);
        if instance.processors() > 1 {
            prop_assert!(overused.trace(&instance).is_err());
        }
    }
}
