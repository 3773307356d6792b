//! Cached handles into the process-wide observability registry.
//!
//! The engines record per-round aggregates (never per-node atomics on the
//! hot path — DFS extensions accumulate in a local and flush once per
//! enumerator call), so each handle is looked up once per process and the
//! steady-state cost is one relaxed atomic add per round or call.

use std::sync::OnceLock;

use cr_obs::{names, Counter, Registry};

fn cached(cell: &'static OnceLock<Counter>, name: &'static str) -> &'static Counter {
    cell.get_or_init(|| Registry::global().counter(name))
}

/// Rounds executed by the configuration search, on either unit.
pub(crate) fn optm_rounds() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_ROUNDS)
}

/// Configurations entering the round's domination filter.
pub(crate) fn optm_round_candidates() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_ROUND_CANDIDATES)
}

/// Configurations surviving the round's domination filter.
pub(crate) fn optm_round_survivors() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_ROUND_SURVIVORS)
}

/// `dominates` calls made by the rounds' domination filter.
pub(crate) fn optm_dominance_checks() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_DOMINANCE_CHECKS)
}

/// Subset-DFS extension steps in the shared choice enumerator.
pub(crate) fn subset_dfs_nodes() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::SUBSET_DFS_NODES)
}

/// Solve dispatches through the solver registry.
pub(crate) fn solve_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::SERVICE_SOLVE_TOTAL)
}

/// Solve dispatches that returned a structured error.
pub(crate) fn solve_errors() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::SERVICE_SOLVE_ERRORS)
}

/// `usize` losslessly widened for counter deltas (no panic path).
pub(crate) fn delta(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Records one solver-registry dispatch: the total moves first and the
/// per-method family second, so a snapshot (which reads the
/// alphabetically-earlier `by_method` cells before the total) always sees
/// `sum(by_method) <= total`.  Only *registered* methods get a per-method
/// counter — unknown client-supplied keys must not grow the registry.
pub(crate) fn record_dispatch(method: &str, known: bool, ok: bool) {
    let registry = Registry::global();
    if !registry.enabled() {
        return;
    }
    solve_total().inc();
    if known {
        registry
            .counter(&format!("service.solve.by_method.{method}"))
            .inc();
    }
    if !ok {
        solve_errors().inc();
    }
}
