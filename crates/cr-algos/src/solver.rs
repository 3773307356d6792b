//! The unified, fallible `Solve` surface over every algorithm in this crate.
//!
//! Historically each algorithm family had its own entry points: the
//! infallible [`Scheduler`](crate::Scheduler) trait for the polynomial schedulers, free
//! functions (`opt_m_makespan` / `try_opt_m_makespan` /
//! `opt_m_makespan_rational`, and the `opt_two_*` / `brute_force_*` twins)
//! for the exact engines, and ad-hoc bound helpers.  This module replaces
//! that patchwork with one request/response interface:
//!
//! * [`SolveRequest`] — the instance, a string method selector (a registry
//!   key), an [`EnginePreference`], a [`Budget`] and optional per-processor
//!   arrival times (consumed by the online solvers in `cr-sim`);
//! * [`SolveOutcome`] — makespan and/or schedule, the instance's
//!   [`LowerBounds`], the [`Engine`] actually used, the fallbacks taken and
//!   step/round counters;
//! * [`SolveError`] — every failure the old surfaces expressed as a panic or
//!   crate-specific error ([`SearchError`], grid overflow, infeasible
//!   schedules, exhausted budgets, malformed requests);
//! * [`Solver`] — `fn solve(&SolveRequest) -> Result<SolveOutcome,
//!   SolveError>`, implemented by every heuristic, both exact engines and
//!   the bounds-only evaluator;
//! * [`registry`] — the string-keyed line-up of all offline solvers.
//!
//! # Engine preference and fallback contract
//!
//! Every offline method has two interchangeable cores: the scaled-integer
//! hot path (`u64` units on the instance's denominator-LCM grid) and the
//! exact `Ratio` reference path.  [`EnginePreference`] selects between them:
//!
//! * [`EnginePreference::Auto`] (the default) runs the scaled core whenever
//!   the instance's grid fits `u64` and transparently falls back to the
//!   rational core otherwise — or when the scaled configuration search
//!   reports a structured [`SearchError`].  Every fallback taken is recorded
//!   in [`SolveOutcome::fallbacks`], and [`SolveOutcome::engine`] names the
//!   core that actually produced the result.  `Auto` never fails for engine
//!   reasons.
//! * [`EnginePreference::Scaled`] demands the scaled core: if the grid
//!   overflows the request fails with [`SolveError::GridOverflow`], and a
//!   [`SearchError`] surfaces as [`SolveError::RoundTooLarge`] instead of
//!   falling back.
//! * [`EnginePreference::Rational`] runs the retained reference core — the
//!   cross-checking path of the property-test suites.  The online simulator
//!   methods in `cr-sim` are integer-native and reject this preference with
//!   [`SolveError::EngineUnavailable`].
//!
//! Both cores produce identical makespans (enforced by the `proptest_scaled`
//! suites), so the preference changes performance and failure modes, never
//! values.
//!
//! # Budgets
//!
//! [`Budget::max_steps`] caps the schedule length of the answer; requests
//! whose result would exceed it fail with [`SolveError::BudgetExhausted`].
//! Every method enforces it and pre-checks it against the instance's
//! trivial lower bound, so a provably over-budget request fails before any
//! work runs.  [`Budget::max_rounds`] applies only to the `"OptM"`
//! configuration search (the one method with rounds; everyone else ignores
//! it): both the scaled and the rational search genuinely stop expanding
//! after that many rounds, so a deliberately over-budget request costs at
//! most the capped expansion.  The polynomial schedulers always terminate
//! in linear time, so their `max_steps` budget is verified on the finished
//! schedule (a response-size contract, not a watchdog); the online
//! simulator methods enforce `max_steps` as a hard step limit while
//! simulating.
//!
//! [`Budget::max_wall_ms`] is the one *time*-shaped knob: it derives a
//! [`CancelToken`] deadline that every long-running loop observes within
//! [`cr_core::cancel::CHECK_INTERVAL_MS`], failing the request with
//! [`SolveError::DeadlineExceeded`] instead of pinning a worker forever.
//! The serving tier combines it with a per-connection token through
//! [`Solver::solve_cancellable`], so a dying connection also stops its
//! in-flight work.

use crate::config_search::{self, SearchError, SearchUnit, View};
use crate::greedy_balance::GreedyBalance;
use crate::heuristics::{
    EqualShare, LargestRequirementFirst, ProportionalShare, SmallestRequirementFirst,
};
use crate::multi_sched::{self, PolyKind};
use crate::opt_two::{self, Chains};
use crate::round_robin::RoundRobin;
use crate::OptM;
use crate::OptTwo;
use cr_core::scaled::layer_grid;
use cr_core::{
    bounds, CancelReason, CancelToken, Instance, MultiStepper, ScaledInstance, Schedule,
    ScheduleError, SchedulingGraph,
};
use std::fmt;
use std::sync::Arc;

/// Which of a method's two cores a request may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePreference {
    /// Scaled-integer core when the grid fits, rational core otherwise
    /// (fallbacks recorded in [`SolveOutcome::fallbacks`]).  The default.
    #[default]
    Auto,
    /// Scaled-integer core only; fails with [`SolveError::GridOverflow`] /
    /// [`SolveError::RoundTooLarge`] instead of falling back.
    Scaled,
    /// The exact `Ratio` reference core only.
    Rational,
}

impl EnginePreference {
    /// Stable lower-case name used on the service wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EnginePreference::Auto => "auto",
            EnginePreference::Scaled => "scaled",
            EnginePreference::Rational => "rational",
        }
    }
}

/// The core that actually produced a [`SolveOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The scaled-integer hot path.
    Scaled,
    /// The exact `Ratio` reference path.
    Rational,
}

impl Engine {
    /// Stable lower-case name used on the service wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Scaled => "scaled",
            Engine::Rational => "rational",
        }
    }
}

/// Resource limits of one request (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Cap on the schedule length (time steps) of the answer.
    pub max_steps: Option<usize>,
    /// Cap on the expanded rounds of the exact configuration search.
    pub max_rounds: Option<usize>,
    /// Wall-clock deadline for the whole request, in milliseconds (the wire
    /// layer's `deadline_ms` field).  Unlike the shape-based caps above this
    /// bounds *time*: every long-running loop checks a [`CancelToken`]
    /// derived from it and stops within [`cr_core::cancel::CHECK_INTERVAL_MS`]
    /// of the deadline, failing with [`SolveError::DeadlineExceeded`].
    pub max_wall_ms: Option<u64>,
}

impl Budget {
    /// No limits (the default).
    pub const UNLIMITED: Budget = Budget {
        max_steps: None,
        max_rounds: None,
        max_wall_ms: None,
    };
}

/// One solve request: an instance plus everything needed to route it.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// The problem instance.
    pub instance: Instance,
    /// Registry key of the method to run (`"GreedyBalance"`, `"OptM"`, …).
    pub method: String,
    /// Which engine core the method may use.
    pub engine: EnginePreference,
    /// Resource limits for this request.
    pub budget: Budget,
    /// Whether the response should carry the full schedule (makespan and
    /// bounds are always computed; schedules can be large on the wire).
    pub want_schedule: bool,
    /// Per-processor arrival times for the online simulator methods: core
    /// `i` is invisible to the policy before step `arrivals[i]`.  Offline
    /// methods reject requests carrying arrivals with
    /// [`SolveError::ArrivalsUnsupported`].
    pub arrivals: Option<Vec<usize>>,
}

impl SolveRequest {
    /// A makespan-only request with default engine preference and no budget.
    #[must_use]
    pub fn new(method: impl Into<String>, instance: Instance) -> Self {
        SolveRequest {
            instance,
            method: method.into(),
            engine: EnginePreference::Auto,
            budget: Budget::UNLIMITED,
            want_schedule: false,
            arrivals: None,
        }
    }

    /// Requests the full schedule in the response.
    #[must_use]
    pub fn with_schedule(mut self) -> Self {
        self.want_schedule = true;
        self
    }

    /// Overrides the engine preference.
    #[must_use]
    pub fn with_engine(mut self, engine: EnginePreference) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches per-processor arrival times (online methods only).
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: Vec<usize>) -> Self {
        self.arrivals = Some(arrivals);
        self
    }
}

/// The instance-only lower bounds reported with every outcome, plus the
/// schedule-derived bound the `"Bounds"` evaluator computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerBounds {
    /// Observation 1: `⌈Σ workload⌉`.
    pub workload: usize,
    /// The longest chain (jobs are processed sequentially per processor).
    pub chain: usize,
    /// The volume-weighted chain bound (relevant for arbitrary job sizes).
    pub volume_chain: usize,
    /// `max(workload, chain, volume_chain)` — the strongest instance-only
    /// bound.
    pub trivial: usize,
    /// The best schedule-derived bound (Observation 1, components, classes
    /// of the scheduling hypergraph); only computed by the `"Bounds"`
    /// method, `None` elsewhere.
    pub best: Option<usize>,
}

impl LowerBounds {
    /// Computes the instance-only bounds.
    #[must_use]
    pub fn compute(instance: &Instance) -> Self {
        LowerBounds {
            workload: bounds::workload_bound_steps(instance),
            chain: bounds::chain_bound(instance),
            volume_chain: bounds::volume_chain_bound(instance),
            trivial: bounds::trivial_lower_bound(instance),
            best: None,
        }
    }
}

/// A successful solve: the answer plus provenance counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Registry key of the method that ran.
    pub method: String,
    /// The engine core that actually produced the result.
    pub engine: Engine,
    /// Human-readable descriptions of every fallback taken (empty when the
    /// preferred core ran directly).
    pub fallbacks: Vec<String>,
    /// The computed makespan (`None` for the bounds-only evaluator).
    pub makespan: Option<usize>,
    /// The full schedule, when requested and the method produces one.
    pub schedule: Option<Schedule>,
    /// Lower bounds of the instance (with `best` filled by `"Bounds"`).
    pub lower_bounds: LowerBounds,
    /// Schedule steps materialized while solving (0 for value-only methods).
    pub steps: usize,
    /// Search rounds (OPT(m)) or memoized expansions (brute force) the exact
    /// engines performed; 0 for the polynomial schedulers.
    pub rounds: usize,
}

/// Which budget knob a [`SolveError::BudgetExhausted`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`Budget::max_steps`].
    Steps,
    /// [`Budget::max_rounds`].
    Rounds,
}

impl BudgetKind {
    /// Stable lower-case name used on the service wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Rounds => "rounds",
        }
    }
}

/// Structured failure of one solve request.
///
/// Absorbs every failure mode of the pre-redesign surfaces: the scaled
/// search's [`SearchError`], grid overflow (previously a silent internal
/// fallback or a panic), infeasible schedules (previously
/// `Scheduler::makespan`'s `expect`), exhausted budgets and malformed
/// requests.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The request named a method the registry does not know.
    UnknownMethod {
        /// The unknown registry key.
        method: String,
    },
    /// The method requires unit-size jobs (Theorems 5/6) but the instance
    /// has sized jobs.
    NonUnitJobs {
        /// The rejecting method.
        method: String,
    },
    /// The method requires a fixed processor count (OptTwo: exactly 2).
    WrongProcessorCount {
        /// The rejecting method.
        method: String,
        /// Required processor count.
        expected: usize,
        /// The instance's processor count.
        found: usize,
    },
    /// [`EnginePreference::Scaled`] was demanded but the instance's unit
    /// grid overflows `u64`.
    GridOverflow {
        /// The rejecting method.
        method: String,
    },
    /// The method does not implement the requested engine core at all
    /// (e.g. the integer-native online simulator asked for `Rational`).
    EngineUnavailable {
        /// The rejecting method.
        method: String,
        /// The unavailable preference.
        engine: EnginePreference,
    },
    /// The scaled configuration search outgrew its `u32` parent-index
    /// headroom (absorbs [`SearchError::RoundTooLarge`]).
    RoundTooLarge {
        /// The 0-based round whose node count overflowed.
        round: usize,
        /// Its node count.
        nodes: usize,
    },
    /// The request's [`Budget`] was exhausted before an answer within it
    /// could be produced.
    BudgetExhausted {
        /// The method that ran out of budget.
        method: String,
        /// Which budget knob was exhausted.
        kind: BudgetKind,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A produced schedule failed validation (absorbs [`ScheduleError`];
    /// previously `Scheduler::makespan` panicked on this).
    Infeasible {
        /// The underlying schedule validation error.
        error: ScheduleError,
    },
    /// An offline method received arrival traces.
    ArrivalsUnsupported {
        /// The rejecting method.
        method: String,
    },
    /// The arrival vector does not have one entry per processor.
    InvalidArrivals {
        /// Processors in the instance.
        expected: usize,
        /// Entries in the arrival vector.
        found: usize,
    },
    /// The request's wall-clock deadline ([`Budget::max_wall_ms`] or the
    /// wire layer's `deadline_ms`) passed — or the request was cancelled
    /// externally (its connection died) — before an answer was produced.
    DeadlineExceeded {
        /// Whether the deadline fired or the request was cancelled.
        reason: CancelReason,
    },
    /// The solver panicked; the panic was contained (sibling requests in
    /// the same batch are unaffected) and surfaced as this structured row.
    Internal {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The request asked for something the multi-resource (`k ≥ 2`) paths
    /// do not produce — today, a full schedule (`want_schedule`): the
    /// [`Schedule`] type is single-resource, so `k ≥ 2` requests report
    /// makespans and bounds only.
    ResourceMismatch {
        /// The rejecting method.
        method: String,
        /// The instance's resource count.
        resources: usize,
    },
    /// [`EnginePreference::Scaled`] was demanded but a resource layer's
    /// unit grid overflows `u64` (the multi-resource analogue of
    /// [`SolveError::GridOverflow`], which keeps naming the base grid).
    ResourceOverflow {
        /// The rejecting method.
        method: String,
    },
}

impl SolveError {
    /// Every stable `kind()` string a solver can emit, in variant order.
    ///
    /// The wire layer (`cr-service`) adds its own transport-level kinds on
    /// top (`bad_request`, `quota_exceeded`, `overloaded`, `draining`); the
    /// union of both lists is the complete error vocabulary of the serving
    /// surface, and `docs/WIRE.md` documents every entry (an enumerated test
    /// in `cr-service` keeps the document honest).
    ///
    /// ```
    /// assert!(cr_algos::solver::SolveError::ALL_KINDS.contains(&"budget_exhausted"));
    /// ```
    pub const ALL_KINDS: [&'static str; 14] = [
        "unknown_method",
        "non_unit_jobs",
        "wrong_processor_count",
        "grid_overflow",
        "engine_unavailable",
        "round_too_large",
        "budget_exhausted",
        "infeasible",
        "arrivals_unsupported",
        "invalid_arrivals",
        "deadline_exceeded",
        "internal_error",
        "resource_mismatch",
        "resource_overflow",
    ];

    /// Stable snake_case discriminant used on the service wire.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SolveError::UnknownMethod { .. } => "unknown_method",
            SolveError::NonUnitJobs { .. } => "non_unit_jobs",
            SolveError::WrongProcessorCount { .. } => "wrong_processor_count",
            SolveError::GridOverflow { .. } => "grid_overflow",
            SolveError::EngineUnavailable { .. } => "engine_unavailable",
            SolveError::RoundTooLarge { .. } => "round_too_large",
            SolveError::BudgetExhausted { .. } => "budget_exhausted",
            SolveError::Infeasible { .. } => "infeasible",
            SolveError::ArrivalsUnsupported { .. } => "arrivals_unsupported",
            SolveError::InvalidArrivals { .. } => "invalid_arrivals",
            SolveError::DeadlineExceeded { .. } => "deadline_exceeded",
            SolveError::Internal { .. } => "internal_error",
            SolveError::ResourceMismatch { .. } => "resource_mismatch",
            SolveError::ResourceOverflow { .. } => "resource_overflow",
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::UnknownMethod { method } => {
                write!(f, "unknown method `{method}` (not in the registry)")
            }
            SolveError::NonUnitJobs { method } => {
                write!(f, "method {method} requires unit-size jobs")
            }
            SolveError::WrongProcessorCount {
                method,
                expected,
                found,
            } => write!(
                f,
                "method {method} requires exactly {expected} processors, instance has {found}"
            ),
            SolveError::GridOverflow { method } => write!(
                f,
                "method {method}: the instance's unit grid overflows u64 and the scaled engine \
                 was demanded (use the auto or rational engine preference)"
            ),
            SolveError::EngineUnavailable { method, engine } => {
                write!(f, "method {method} has no {} engine core", engine.as_str())
            }
            SolveError::RoundTooLarge { round, nodes } => write!(
                f,
                "configuration-search round {round} holds {nodes} nodes, exceeding the u32 \
                 parent-index headroom"
            ),
            SolveError::BudgetExhausted {
                method,
                kind,
                limit,
            } => write!(
                f,
                "method {method} exhausted its {} budget of {limit}",
                kind.as_str()
            ),
            SolveError::Infeasible { error } => {
                write!(f, "produced schedule is infeasible: {error}")
            }
            SolveError::ArrivalsUnsupported { method } => write!(
                f,
                "method {method} is offline and does not accept arrival traces"
            ),
            SolveError::InvalidArrivals { expected, found } => write!(
                f,
                "arrival vector has {found} entries for {expected} processors"
            ),
            SolveError::DeadlineExceeded { reason } => {
                write!(f, "request stopped: {reason}")
            }
            SolveError::Internal { message } => {
                write!(f, "solver panicked (contained): {message}")
            }
            SolveError::ResourceMismatch { method, resources } => write!(
                f,
                "method {method}: schedules are single-resource, so this {resources}-resource \
                 request must not set want_schedule (makespan and bounds only)"
            ),
            SolveError::ResourceOverflow { method } => write!(
                f,
                "method {method}: a resource layer's unit grid overflows u64 and the scaled \
                 engine was demanded (use the auto or rational engine preference)"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<SearchError> for SolveError {
    fn from(err: SearchError) -> Self {
        match err {
            SearchError::RoundTooLarge { round, nodes } => {
                SolveError::RoundTooLarge { round, nodes }
            }
            SearchError::Cancelled { reason } => SolveError::DeadlineExceeded { reason },
        }
    }
}

impl From<CancelReason> for SolveError {
    fn from(reason: CancelReason) -> Self {
        SolveError::DeadlineExceeded { reason }
    }
}

impl From<ScheduleError> for SolveError {
    fn from(error: ScheduleError) -> Self {
        SolveError::Infeasible { error }
    }
}

/// Warm per-instance state shared by every solve against one instance: the
/// scaled-integer conversion of the exact engines, the scheduling layer's
/// grid viability, and the instance-only lower bounds.
///
/// [`Solver::solve`] builds one on the fly; the batch service in
/// `cr-service` memoizes them so repeated requests against one instance pay
/// for the conversion once.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The exact engines' scaled conversion (`None`: grid overflows `u64`).
    pub scaled: Option<Arc<ScaledInstance>>,
    /// Whether every resource layer's scheduling grid
    /// ([`layer_grid`]) fits `u64` — the gate the polynomial schedulers
    /// route on.
    pub sched_scaled: bool,
    /// Instance-only lower bounds ([`LowerBounds::best`] left `None`).
    pub lower_bounds: LowerBounds,
}

impl Prepared {
    /// Performs the conversions for `instance`.
    #[must_use]
    pub fn new(instance: &Instance) -> Self {
        Prepared {
            scaled: ScaledInstance::try_new(instance).map(Arc::new),
            sched_scaled: (0..instance.resources()).all(|r| layer_grid(instance, r).is_some()),
            lower_bounds: LowerBounds::compute(instance),
        }
    }
}

/// A solving policy behind the unified request/response interface.
///
/// Implementations must be deterministic: the same request always produces
/// the same outcome, regardless of thread count (the batch service's
/// byte-identity contract builds on this).
pub trait Solver: Send + Sync {
    /// Solves `request` with pre-computed per-instance state.
    ///
    /// # Errors
    ///
    /// Any [`SolveError`] applicable to the method (see the variants).
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError>;

    /// Solves `request`, deriving the per-instance state on the fly.
    ///
    /// # Errors
    ///
    /// Any [`SolveError`] applicable to the method (see the variants).
    fn solve(&self, request: &SolveRequest) -> Result<SolveOutcome, SolveError> {
        self.solve_prepared(request, &Prepared::new(&request.instance))
    }

    /// Solves `request` under cooperative cancellation: the effective token
    /// is `cancel` (typically the serving tier's per-flush token, cancelled
    /// when the requesting connection dies) *combined with* the request's own
    /// [`Budget::max_wall_ms`] deadline.
    ///
    /// The default implementation checks the token once up front and then
    /// runs [`Solver::solve_prepared`] — exactly right for the polynomial
    /// schedulers, whose linear-time runs finish well within any sensible
    /// deadline.  The exact engines override this with genuinely
    /// interruptible searches.
    ///
    /// # Errors
    ///
    /// [`SolveError::DeadlineExceeded`] once the token fires, plus anything
    /// [`Solver::solve_prepared`] reports.
    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        token.check()?;
        self.solve_prepared(request, prepared)
    }
}

/// Rejects arrival traces on offline methods.
fn reject_arrivals(method: &str, request: &SolveRequest) -> Result<(), SolveError> {
    if request.arrivals.is_some() {
        return Err(SolveError::ArrivalsUnsupported {
            method: method.to_string(),
        });
    }
    Ok(())
}

/// Fails fast when the trivial lower bound already exceeds a budget cap
/// (any answer would too); `kind` names the knob the cap came from.
fn precheck_cap(
    method: &str,
    kind: BudgetKind,
    cap: Option<usize>,
    lower_bounds: &LowerBounds,
) -> Result<(), SolveError> {
    if let Some(limit) = cap {
        if lower_bounds.trivial > limit {
            return Err(SolveError::BudgetExhausted {
                method: method.to_string(),
                kind,
                limit,
            });
        }
    }
    Ok(())
}

/// Post-hoc `max_steps` check on a finished answer.
fn check_steps_budget(method: &str, budget: &Budget, makespan: usize) -> Result<(), SolveError> {
    if let Some(limit) = budget.max_steps {
        if makespan > limit {
            return Err(SolveError::BudgetExhausted {
                method: method.to_string(),
                kind: BudgetKind::Steps,
                limit,
            });
        }
    }
    Ok(())
}

/// The standard fallback note recorded when `Auto` routes around an
/// unrepresentable grid.
fn grid_fallback_note() -> String {
    "unit grid overflows u64: fell back to the rational core".to_string()
}

/// The multi-resource analogue of [`grid_fallback_note`]: some layer's
/// per-resource grid overflowed.
fn multi_grid_fallback_note() -> String {
    "a resource layer's unit grid overflows u64: fell back to the rational core".to_string()
}

/// Rejects `want_schedule` on multi-resource requests: [`Schedule`] is
/// single-resource, so `k ≥ 2` answers are makespan-and-bounds only.
fn reject_multi_schedule(method: &str, request: &SolveRequest) -> Result<(), SolveError> {
    if request.want_schedule {
        return Err(SolveError::ResourceMismatch {
            method: method.to_string(),
            resources: request.instance.resources(),
        });
    }
    Ok(())
}

/// The failure of an `EnginePreference::Scaled` request whose grid does not
/// fit: [`SolveError::GridOverflow`] at `k = 1`,
/// [`SolveError::ResourceOverflow`] for multi-resource instances.
fn overflow_error(method: &str, instance: &Instance) -> SolveError {
    let method = method.to_string();
    if instance.resources() > 1 {
        SolveError::ResourceOverflow { method }
    } else {
        SolveError::GridOverflow { method }
    }
}

/// The note an `Auto` request records when it falls back to the rational
/// core, worded by resource count.
fn fallback_note(instance: &Instance) -> String {
    if instance.resources() > 1 {
        multi_grid_fallback_note()
    } else {
        grid_fallback_note()
    }
}

/// The shared engine-routing contract of the scheduling-layer methods: runs
/// `kind` on the `u64` stepper when the preference allows it and every
/// grid fits, on the [`cr_core::Ratio`] stepper otherwise, recording any
/// `Auto` fallback taken.  Returns the engine, the fallbacks, the step
/// count and (at `k = 1`) the schedule.
fn route_schedule(
    method: &str,
    kind: PolyKind,
    engine: EnginePreference,
    prepared: &Prepared,
    instance: &Instance,
) -> Result<(Engine, Vec<String>, usize, Option<Schedule>), SolveError> {
    let scaled = match engine {
        EnginePreference::Rational => None,
        _ if !prepared.sched_scaled => None,
        _ => MultiStepper::try_new_scaled(instance),
    };
    let fallbacks = match (engine, scaled) {
        (_, Some(stepper)) => {
            let (steps, schedule) = multi_sched::run(kind, stepper);
            return Ok((Engine::Scaled, Vec::new(), steps, schedule));
        }
        (EnginePreference::Scaled, None) => return Err(overflow_error(method, instance)),
        (EnginePreference::Auto, None) => vec![fallback_note(instance)],
        (EnginePreference::Rational, None) => Vec::new(),
    };
    let (steps, schedule) = multi_sched::run(kind, MultiStepper::new_rational(instance));
    Ok((Engine::Rational, fallbacks, steps, schedule))
}

/// Shared solve logic of the six polynomial schedulers, for every resource
/// count: engine routing, feasibility validation and budget enforcement.
/// `max_rounds` does not apply (there is no search); only `max_steps` is
/// enforced.  At `k = 1` the schedule is always built and validated; a
/// multi-resource run is makespan-only.
fn solve_polynomial(
    method: &str,
    kind: PolyKind,
    request: &SolveRequest,
    prepared: &Prepared,
) -> Result<SolveOutcome, SolveError> {
    reject_arrivals(method, request)?;
    precheck_cap(
        method,
        BudgetKind::Steps,
        request.budget.max_steps,
        &prepared.lower_bounds,
    )?;
    let instance = &request.instance;
    if instance.resources() > 1 {
        reject_multi_schedule(method, request)?;
    }
    let (engine, fallbacks, steps, schedule) =
        route_schedule(method, kind, request.engine, prepared, instance)?;
    let makespan = match &schedule {
        Some(schedule) => schedule.makespan(instance)?,
        None => steps,
    };
    check_steps_budget(method, &request.budget, makespan)?;
    Ok(SolveOutcome {
        method: method.to_string(),
        engine,
        fallbacks,
        makespan: Some(makespan),
        steps,
        rounds: 0,
        schedule: schedule.filter(|_| request.want_schedule),
        lower_bounds: prepared.lower_bounds,
    })
}

/// An exact answer before it becomes a [`SolveOutcome`].
struct Found {
    makespan: usize,
    /// Search rounds, or the brute-force DFS's expansions.
    rounds: usize,
    schedule: Option<Schedule>,
}

/// The exact configuration search shared by `OptM`, `BruteForce` and the
/// multi-resource `OptTwo` path, for every resource count: `u64` units when
/// the preference and the grids allow it, exact rationals otherwise or when
/// an `Auto` request's `u64` round outgrows the `u32` parent indices (every
/// fallback recorded).  `BruteForce` runs the memoized DFS at `k = 1` and
/// the round search at `k ≥ 2`, where the DFS without Lemma 4's filter
/// visits far more states, and reports the expanded configurations as
/// `rounds` either way; the others report the search's rounds (the
/// makespan), and `max_rounds` caps it for `"OptM"` only.  Schedules are
/// replayed at `k = 1` except for `BruteForce`, which is value-only; a
/// `k ≥ 2` request for one is [`SolveError::ResourceMismatch`] (see the
/// `config_search` module docs for the step class).
fn solve_exact(
    method: &str,
    request: &SolveRequest,
    prepared: &Prepared,
    token: &CancelToken,
) -> Result<SolveOutcome, SolveError> {
    let instance = &request.instance;
    if instance.resources() > 1 {
        reject_multi_schedule(method, request)?;
    }
    let mut fallbacks = Vec::new();
    let scaled = match (request.engine, &prepared.scaled) {
        (EnginePreference::Rational, _) => None,
        (EnginePreference::Scaled, None) => return Err(overflow_error(method, instance)),
        (EnginePreference::Auto, None) => {
            fallbacks.push(fallback_note(instance));
            None
        }
        (_, Some(scaled)) => Some(scaled),
    };
    let mut found = None;
    if let Some(scaled) = scaled {
        match run_exact(method, request, &View::from_scaled(scaled), token) {
            Err(err @ SolveError::RoundTooLarge { .. })
                if request.engine == EnginePreference::Auto =>
            {
                fallbacks.push(format!("{err}: fell back to the rational search"));
            }
            result => found = Some(result?),
        }
    }
    let (engine, found) = match found {
        Some(found) => (Engine::Scaled, found),
        None => (
            Engine::Rational,
            run_exact(method, request, &View::rational(instance), token)?,
        ),
    };
    Ok(SolveOutcome {
        method: method.to_string(),
        engine,
        fallbacks,
        makespan: Some(found.makespan),
        steps: found.schedule.as_ref().map_or(0, Schedule::num_steps),
        rounds: found.rounds,
        schedule: found.schedule,
        lower_bounds: prepared.lower_bounds,
    })
}

/// One exact search of [`solve_exact`] on one view, with the budget checks.
fn run_exact<V: SearchUnit>(
    method: &str,
    request: &SolveRequest,
    view: &View<V>,
    token: &CancelToken,
) -> Result<Found, SolveError> {
    let budget = &request.budget;
    if method == "BruteForce" && view.resources() == 1 {
        let (makespan, _, expansions) = config_search::brute_force(view, token)?;
        check_steps_budget(method, budget, makespan)?;
        return Ok(Found {
            makespan,
            rounds: expansions,
            schedule: None,
        });
    }
    let round_cap = if method == "OptM" {
        budget.max_rounds
    } else {
        None
    };
    let Some(rounds) = config_search::search(view, round_cap, token)? else {
        return Err(SolveError::BudgetExhausted {
            method: method.to_string(),
            kind: BudgetKind::Rounds,
            // lint: allow(panic_hygiene) — the search stops short only when the max_rounds cap cut it, so the cap is present
            limit: round_cap.expect("cap produced the cutoff"),
        });
    };
    let makespan = rounds.len() - 1;
    check_steps_budget(method, budget, makespan)?;
    if method == "BruteForce" {
        return Ok(Found {
            makespan,
            rounds: rounds[..makespan]
                .iter()
                .map(config_search::Round::len)
                .sum(),
            schedule: None,
        });
    }
    let schedule = request
        .want_schedule
        .then(|| config_search::schedule(&request.instance, view, &rounds));
    Ok(Found {
        makespan,
        rounds: makespan,
        schedule,
    })
}

macro_rules! impl_polynomial_solver {
    ($ty:ty, $kind:ident) => {
        impl Solver for $ty {
            fn solve_prepared(
                &self,
                request: &SolveRequest,
                prepared: &Prepared,
            ) -> Result<SolveOutcome, SolveError> {
                solve_polynomial(stringify!($kind), PolyKind::$kind, request, prepared)
            }
        }
    };
}

impl_polynomial_solver!(GreedyBalance, GreedyBalance);
impl_polynomial_solver!(RoundRobin, RoundRobin);
impl_polynomial_solver!(EqualShare, EqualShare);
impl_polynomial_solver!(ProportionalShare, ProportionalShare);
impl_polynomial_solver!(LargestRequirementFirst, LargestRequirementFirst);
impl_polynomial_solver!(SmallestRequirementFirst, SmallestRequirementFirst);

/// Validates the unit-size precondition of the exact engines.
fn require_unit(method: &str, instance: &Instance) -> Result<(), SolveError> {
    if !instance.is_unit_size() {
        return Err(SolveError::NonUnitJobs {
            method: method.to_string(),
        });
    }
    Ok(())
}

impl Solver for OptTwo {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        self.solve_cancellable(request, prepared, &CancelToken::never())
    }

    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        const METHOD: &str = "OptTwo";
        reject_arrivals(METHOD, request)?;
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        // Fail fast on an already-fired token; the DP's own polls are
        // strided and would let a tiny table run to completion.
        token.check()?;
        let instance = &request.instance;
        if instance.processors() != 2 {
            return Err(SolveError::WrongProcessorCount {
                method: METHOD.to_string(),
                expected: 2,
                found: instance.processors(),
            });
        }
        require_unit(METHOD, instance)?;
        // The DP has no configuration-search rounds, so only max_steps
        // applies.
        precheck_cap(
            METHOD,
            BudgetKind::Steps,
            request.budget.max_steps,
            &prepared.lower_bounds,
        )?;
        if instance.resources() > 1 {
            // The two-processor DP is single-resource; multi-resource
            // requests run the shared configuration search instead (for
            // m = 2 it explores exactly the two-processor choice space).
            return solve_exact(METHOD, request, prepared, &token);
        }

        let (engine, fallbacks, decisions) = match (request.engine, &prepared.scaled) {
            (EnginePreference::Scaled, None) => {
                return Err(SolveError::GridOverflow {
                    method: METHOD.to_string(),
                })
            }
            (EnginePreference::Scaled | EnginePreference::Auto, Some(scaled)) => (
                Engine::Scaled,
                Vec::new(),
                Chains::from_scaled(scaled).decisions(&token)?,
            ),
            (EnginePreference::Auto, None) => (
                Engine::Rational,
                vec![grid_fallback_note()],
                Chains::rational(instance).decisions(&token)?,
            ),
            (EnginePreference::Rational, _) => (
                Engine::Rational,
                Vec::new(),
                Chains::rational(instance).decisions(&token)?,
            ),
        };
        let makespan = decisions.len();
        check_steps_budget(METHOD, &request.budget, makespan)?;
        let schedule = request
            .want_schedule
            .then(|| opt_two::replay_decisions(instance, decisions));
        Ok(SolveOutcome {
            method: METHOD.to_string(),
            engine,
            fallbacks,
            makespan: Some(makespan),
            steps: schedule.as_ref().map_or(0, Schedule::num_steps),
            rounds: 0,
            schedule,
            lower_bounds: prepared.lower_bounds,
        })
    }
}

impl Solver for OptM {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        self.solve_cancellable(request, prepared, &CancelToken::never())
    }

    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        const METHOD: &str = "OptM";
        reject_arrivals(METHOD, request)?;
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        let instance = &request.instance;
        require_unit(METHOD, instance)?;
        // A round of the configuration search advances the makespan by one,
        // so both caps are makespan-shaped here and prechecked against the
        // trivial lower bound.
        precheck_cap(
            METHOD,
            BudgetKind::Steps,
            request.budget.max_steps,
            &prepared.lower_bounds,
        )?;
        precheck_cap(
            METHOD,
            BudgetKind::Rounds,
            request.budget.max_rounds,
            &prepared.lower_bounds,
        )?;
        solve_exact(METHOD, request, prepared, &token)
    }
}

/// The exhaustive reference solver behind the `"BruteForce"` registry key.
///
/// Value-only: it reports the optimal makespan and search statistics but
/// never reconstructs a schedule (use `"OptM"` for schedules).
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceSolver;

impl Solver for BruteForceSolver {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        self.solve_cancellable(request, prepared, &CancelToken::never())
    }

    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        const METHOD: &str = "BruteForce";
        reject_arrivals(METHOD, request)?;
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        let instance = &request.instance;
        require_unit(METHOD, instance)?;
        // The memoized DFS has no rounds; only max_steps applies.
        precheck_cap(
            METHOD,
            BudgetKind::Steps,
            request.budget.max_steps,
            &prepared.lower_bounds,
        )?;
        solve_exact(METHOD, request, prepared, &token)
    }
}

/// The bounds-only evaluator behind the `"Bounds"` registry key.
///
/// Reports no makespan; instead it fills [`LowerBounds::best`] — the best
/// schedule-derived lower bound, computed from a GreedyBalance schedule's
/// scheduling hypergraph (Observation 1, component and class bounds).  The
/// engine preference routes the internal GreedyBalance schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundsOnly;

impl Solver for BoundsOnly {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        const METHOD: &str = "Bounds";
        reject_arrivals(METHOD, request)?;
        let instance = &request.instance;
        if instance.resources() > 1 {
            // The scheduling hypergraph is single-resource; a k ≥ 2 request
            // reports the instance-only bounds (whose workload component
            // already takes the binding resource) as the best bound.
            let mut lower_bounds = prepared.lower_bounds;
            lower_bounds.best = Some(lower_bounds.trivial);
            return Ok(SolveOutcome {
                method: METHOD.to_string(),
                engine: Engine::Rational,
                fallbacks: Vec::new(),
                makespan: None,
                steps: 0,
                rounds: 0,
                schedule: None,
                lower_bounds,
            });
        }
        let (engine, fallbacks, _, schedule) = route_schedule(
            METHOD,
            PolyKind::GreedyBalance,
            request.engine,
            prepared,
            instance,
        )?;
        // lint: allow(panic_hygiene) — multi-resource requests returned above, and k = 1 runs finish to a schedule
        let schedule = schedule.expect("single-resource runs finish to a schedule");
        let trace = schedule.trace(instance)?;
        let graph = SchedulingGraph::build(instance, &trace);
        let mut lower_bounds = prepared.lower_bounds;
        lower_bounds.best = Some(bounds::best_lower_bound(instance, &graph));
        Ok(SolveOutcome {
            method: METHOD.to_string(),
            engine,
            fallbacks,
            makespan: None,
            steps: 0,
            rounds: 0,
            schedule: None,
            lower_bounds,
        })
    }
}

/// Registry keys of the six polynomial schedulers, in line-up order.
pub const POLY_METHODS: [&str; 6] = [
    "GreedyBalance",
    "RoundRobin",
    "EqualShare",
    "ProportionalShare",
    "LargestRequirementFirst",
    "SmallestRequirementFirst",
];

/// A string-keyed line-up of [`Solver`]s.
///
/// Registration order is preserved (and is the iteration order of
/// [`Registry::names`]); keys are unique — re-registering a key replaces the
/// previous solver.
#[derive(Default)]
pub struct Registry {
    entries: Vec<(String, Box<dyn Solver>)>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("methods", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers `solver` under `key`, replacing any previous entry.
    pub fn register(&mut self, key: impl Into<String>, solver: Box<dyn Solver>) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = solver;
        } else {
            self.entries.push((key, solver));
        }
    }

    /// Looks up a solver by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&dyn Solver> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, s)| s.as_ref())
    }

    /// The registered keys, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Dispatches `request` to the solver registered under its method key.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownMethod`] for unregistered keys, plus anything
    /// the solver itself reports.
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveOutcome, SolveError> {
        self.solve_prepared(request, &Prepared::new(&request.instance))
    }

    /// [`Registry::solve`] with pre-computed per-instance state (the batch
    /// service's memoized path).
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownMethod`] for unregistered keys, plus anything
    /// the solver itself reports.
    pub fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        let Some(solver) = self.get(&request.method) else {
            crate::obs::record_dispatch(&request.method, false, false);
            return Err(SolveError::UnknownMethod {
                method: request.method.clone(),
            });
        };
        let result = solver.solve_prepared(request, prepared);
        crate::obs::record_dispatch(&request.method, true, result.is_ok());
        result
    }

    /// [`Registry::solve_prepared`] under cooperative cancellation (see
    /// [`Solver::solve_cancellable`]) — the serving tier's entry point.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownMethod`] for unregistered keys,
    /// [`SolveError::DeadlineExceeded`] once the token fires, plus anything
    /// the solver itself reports.
    pub fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        let Some(solver) = self.get(&request.method) else {
            crate::obs::record_dispatch(&request.method, false, false);
            return Err(SolveError::UnknownMethod {
                method: request.method.clone(),
            });
        };
        let result = solver.solve_cancellable(request, prepared, cancel);
        crate::obs::record_dispatch(&request.method, true, result.is_ok());
        result
    }
}

/// The standard offline line-up: the six polynomial schedulers, both exact
/// engines, the exhaustive reference and the bounds-only evaluator.
///
/// The online simulator methods register on top via
/// `cr_sim::register_online`.
#[must_use]
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register("GreedyBalance", Box::new(GreedyBalance::new()));
    r.register("RoundRobin", Box::new(RoundRobin::new()));
    r.register("EqualShare", Box::new(EqualShare::new()));
    r.register("ProportionalShare", Box::new(ProportionalShare::new()));
    r.register(
        "LargestRequirementFirst",
        Box::new(LargestRequirementFirst::new()),
    );
    r.register(
        "SmallestRequirementFirst",
        Box::new(SmallestRequirementFirst::new()),
    );
    r.register("OptTwo", Box::new(OptTwo::new()));
    r.register("OptM", Box::new(OptM::new()));
    r.register("BruteForce", Box::new(BruteForceSolver));
    r.register("Bounds", Box::new(BoundsOnly));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::Ratio;

    fn fig_like() -> Instance {
        Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]])
    }

    #[test]
    fn registry_contains_every_offline_method() {
        let reg = registry();
        let names: Vec<&str> = reg.names().collect();
        for method in POLY_METHODS {
            assert!(names.contains(&method), "{method} missing");
        }
        for method in ["OptTwo", "OptM", "BruteForce", "Bounds"] {
            assert!(names.contains(&method), "{method} missing");
        }
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn unknown_method_is_a_structured_error() {
        let err = registry()
            .solve(&SolveRequest::new("NoSuchMethod", fig_like()))
            .unwrap_err();
        assert_eq!(err.kind(), "unknown_method");
    }

    #[test]
    fn every_method_agrees_with_its_legacy_entry_point() {
        let reg = registry();
        let inst = fig_like();
        for method in POLY_METHODS {
            let outcome = reg.solve(&SolveRequest::new(method, inst.clone())).unwrap();
            assert_eq!(outcome.engine, Engine::Scaled);
            assert!(outcome.fallbacks.is_empty());
            assert!(outcome.makespan.unwrap() >= outcome.lower_bounds.trivial);
        }
        let opt_m_outcome = reg.solve(&SolveRequest::new("OptM", inst.clone())).unwrap();
        assert_eq!(
            opt_m_outcome.makespan.unwrap(),
            crate::opt_m_makespan(&inst)
        );
        assert_eq!(opt_m_outcome.rounds, opt_m_outcome.makespan.unwrap());
        let opt_two_outcome = reg
            .solve(&SolveRequest::new("OptTwo", inst.clone()))
            .unwrap();
        assert_eq!(
            opt_two_outcome.makespan.unwrap(),
            crate::opt_two_makespan(&inst)
        );
        let bf = reg
            .solve(&SolveRequest::new("BruteForce", inst.clone()))
            .unwrap();
        assert_eq!(bf.makespan, opt_m_outcome.makespan);
        assert!(bf.rounds > 0, "brute force reports expansions");
    }

    #[test]
    fn engine_preferences_agree_on_values() {
        let reg = registry();
        let inst = fig_like();
        for method in ["GreedyBalance", "OptM", "OptTwo", "BruteForce"] {
            let auto = reg.solve(&SolveRequest::new(method, inst.clone())).unwrap();
            let scaled = reg
                .solve(
                    &SolveRequest::new(method, inst.clone()).with_engine(EnginePreference::Scaled),
                )
                .unwrap();
            let rational = reg
                .solve(
                    &SolveRequest::new(method, inst.clone())
                        .with_engine(EnginePreference::Rational),
                )
                .unwrap();
            assert_eq!(auto.makespan, scaled.makespan, "{method}");
            assert_eq!(auto.makespan, rational.makespan, "{method}");
            assert_eq!(rational.engine, Engine::Rational);
            assert_eq!(scaled.engine, Engine::Scaled);
        }
    }

    #[test]
    fn schedules_are_returned_only_on_request() {
        let reg = registry();
        let inst = fig_like();
        let without = reg.solve(&SolveRequest::new("OptM", inst.clone())).unwrap();
        assert!(without.schedule.is_none());
        let with = reg
            .solve(&SolveRequest::new("OptM", inst.clone()).with_schedule())
            .unwrap();
        let schedule = with.schedule.expect("schedule requested");
        assert_eq!(schedule.makespan(&inst).unwrap(), with.makespan.unwrap());
        assert_eq!(with.steps, schedule.num_steps());
    }

    #[test]
    fn round_budget_cuts_the_search_off() {
        // Three full-resource jobs: makespan 3, so a 1-round budget fails.
        let inst = Instance::unit_from_percentages(&[&[100], &[100], &[100]]);
        let err = registry()
            .solve(
                &SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
                    max_rounds: Some(1),
                    ..Budget::UNLIMITED
                }),
            )
            .unwrap_err();
        match err {
            SolveError::BudgetExhausted { kind, limit, .. } => {
                assert_eq!(limit, 1);
                assert_eq!(kind.as_str(), "rounds");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // A sufficient budget succeeds with the exact value.
        let ok = registry()
            .solve(
                &SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
                    max_rounds: Some(3),
                    ..Budget::UNLIMITED
                }),
            )
            .unwrap();
        assert_eq!(ok.makespan, Some(3));

        // The rational reference search honors the cap too — the capped
        // entry point (checked directly, below the precheck layer) stops
        // expanding at the cap instead of running to completion, and the
        // registry path reports the same structured error.
        let view = View::rational(&inst);
        let never = CancelToken::never();
        assert_eq!(config_search::search(&view, Some(1), &never), Ok(None));
        let rounds = config_search::search(&view, Some(3), &never).unwrap();
        assert_eq!(rounds.map(|rounds| rounds.len() - 1), Some(3));
        let err = registry()
            .solve(
                &SolveRequest::new("OptM", inst)
                    .with_engine(EnginePreference::Rational)
                    .with_budget(Budget {
                        max_rounds: Some(1),
                        ..Budget::UNLIMITED
                    }),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "budget_exhausted");
    }

    #[test]
    fn round_budget_is_ignored_by_methods_without_rounds() {
        // Chain of three 100% jobs on one processor: makespan 3.  max_rounds
        // must not reject methods that have no configuration search.
        let inst = Instance::unit_from_percentages(&[&[100], &[100], &[100]]);
        let budget = Budget {
            max_rounds: Some(1),
            ..Budget::UNLIMITED
        };
        for method in ["GreedyBalance", "EqualShare", "BruteForce"] {
            let outcome = registry()
                .solve(&SolveRequest::new(method, inst.clone()).with_budget(budget))
                .unwrap_or_else(|e| panic!("{method} must ignore max_rounds: {e}"));
            assert_eq!(outcome.makespan, Some(3), "{method}");
        }
    }

    #[test]
    fn step_budget_applies_to_heuristics() {
        let inst = Instance::unit_from_percentages(&[&[100], &[100], &[100]]);
        let err = registry()
            .solve(
                &SolveRequest::new("EqualShare", inst.clone()).with_budget(Budget {
                    max_steps: Some(1),
                    ..Budget::UNLIMITED
                }),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "budget_exhausted");
    }

    #[test]
    fn opt_two_validates_its_preconditions() {
        let three = Instance::unit_from_percentages(&[&[50], &[50], &[50]]);
        let err = registry()
            .solve(&SolveRequest::new("OptTwo", three))
            .unwrap_err();
        assert_eq!(err.kind(), "wrong_processor_count");

        let sized = Instance::new(vec![vec![cr_core::Job::new(
            Ratio::from_percent(50),
            Ratio::new(3, 2),
        )]])
        .unwrap();
        let err = registry()
            .solve(&SolveRequest::new("OptM", sized))
            .unwrap_err();
        assert_eq!(err.kind(), "non_unit_jobs");
    }

    #[test]
    fn offline_methods_reject_arrival_traces() {
        let err = registry()
            .solve(&SolveRequest::new("GreedyBalance", fig_like()).with_arrivals(vec![0, 0]))
            .unwrap_err();
        assert_eq!(err.kind(), "arrivals_unsupported");
    }

    #[test]
    fn bounds_only_fills_the_best_bound() {
        let outcome = registry()
            .solve(&SolveRequest::new("Bounds", fig_like()))
            .unwrap();
        assert!(outcome.makespan.is_none());
        assert!(outcome.schedule.is_none());
        let best = outcome.lower_bounds.best.expect("best bound computed");
        assert!(best >= outcome.lower_bounds.trivial);
    }

    #[test]
    fn grid_overflow_is_an_error_only_when_scaled_is_demanded() {
        // A denominator of exactly 2^63 makes both the exact-engine grid
        // (2·D) and the scheduling grid ((m+1)·D) overflow u64, while the
        // rational fallback's i128 arithmetic stays comfortably in range.
        let inst = Instance::unit_from_requirements(vec![vec![Ratio::new(1, 1i128 << 63)]]);
        assert!(Prepared::new(&inst).scaled.is_none());
        let reg = registry();

        let err = reg
            .solve(
                &SolveRequest::new("GreedyBalance", inst.clone())
                    .with_engine(EnginePreference::Scaled),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "grid_overflow");

        let auto = reg
            .solve(&SolveRequest::new("GreedyBalance", inst))
            .unwrap();
        assert_eq!(auto.engine, Engine::Rational);
        assert_eq!(auto.fallbacks.len(), 1, "fallback recorded");
    }

    #[test]
    fn all_kinds_enumerates_every_variant_without_duplicates() {
        let samples: Vec<SolveError> = vec![
            SolveError::UnknownMethod { method: "x".into() },
            SolveError::NonUnitJobs { method: "x".into() },
            SolveError::WrongProcessorCount {
                method: "x".into(),
                expected: 2,
                found: 3,
            },
            SolveError::GridOverflow { method: "x".into() },
            SolveError::EngineUnavailable {
                method: "x".into(),
                engine: EnginePreference::Rational,
            },
            SolveError::RoundTooLarge { round: 1, nodes: 2 },
            SolveError::BudgetExhausted {
                method: "x".into(),
                kind: BudgetKind::Steps,
                limit: 1,
            },
            SolveError::Infeasible {
                error: ScheduleError::WrongProcessorCount {
                    step: 0,
                    expected: 1,
                    found: 2,
                },
            },
            SolveError::ArrivalsUnsupported { method: "x".into() },
            SolveError::InvalidArrivals {
                expected: 1,
                found: 2,
            },
            SolveError::DeadlineExceeded {
                reason: CancelReason::DeadlineExceeded,
            },
            SolveError::Internal {
                message: "x".into(),
            },
            SolveError::ResourceMismatch {
                method: "x".into(),
                resources: 2,
            },
            SolveError::ResourceOverflow { method: "x".into() },
        ];
        assert_eq!(samples.len(), SolveError::ALL_KINDS.len());
        let mut seen = std::collections::HashSet::new();
        for err in &samples {
            assert!(
                SolveError::ALL_KINDS.contains(&err.kind()),
                "{} missing from ALL_KINDS",
                err.kind()
            );
            assert!(seen.insert(err.kind()), "duplicate kind {}", err.kind());
        }
    }

    #[test]
    fn cancelled_requests_surface_deadline_exceeded() {
        let reg = registry();
        let inst = fig_like();
        let prepared = Prepared::new(&inst);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        // Exact engines and (via the default entry check) heuristics alike.
        for method in ["OptM", "BruteForce", "GreedyBalance", "OptTwo"] {
            let mut req = SolveRequest::new(method, inst.clone());
            if method == "OptTwo" {
                req.instance = Instance::unit_from_percentages(&[&[60, 40], &[40, 60]]);
            }
            let prep = Prepared::new(&req.instance);
            let err = reg.solve_cancellable(&req, &prep, &cancelled).unwrap_err();
            assert_eq!(err.kind(), "deadline_exceeded", "{method}");
            assert!(err.to_string().contains("cancelled externally"));
        }
        // A zero-millisecond wall budget fires the deadline reason, and the
        // rational core observes it too (no fallback-and-retry).
        for engine in [EnginePreference::Auto, EnginePreference::Rational] {
            let req = SolveRequest::new("OptM", inst.clone())
                .with_engine(engine)
                .with_budget(Budget {
                    max_wall_ms: Some(0),
                    ..Budget::UNLIMITED
                });
            let err = reg
                .solve_cancellable(&req, &prepared, &CancelToken::never())
                .unwrap_err();
            assert_eq!(
                err,
                SolveError::DeadlineExceeded {
                    reason: CancelReason::DeadlineExceeded
                },
                "{engine:?}"
            );
        }
        // A live token with a generous budget reproduces the plain outcome.
        let req = SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
            max_wall_ms: Some(60_000),
            ..Budget::UNLIMITED
        });
        let outcome = reg
            .solve_cancellable(&req, &prepared, &CancelToken::new())
            .unwrap();
        assert_eq!(
            outcome.makespan,
            reg.solve(&SolveRequest::new("OptM", inst))
                .unwrap()
                .makespan
        );
    }

    #[test]
    fn opt_two_honors_deadlines_mid_dp() {
        // Regression: OptTwo used to inherit the default entry-check-only
        // cancellation, so a deadline that fired after the first cell never
        // stopped the `O(n1·n2)` table fill.  Both DP engines now poll a
        // strided gate inside the sweep: on a ~9M-cell table a 1ms deadline
        // passes the entry check but must be caught mid-fill (the rational
        // Ratio-arithmetic sweep alone would otherwise run for seconds).
        let reg = registry();
        let reqs: Vec<i64> = (0..3000).map(|j| 1 + j % 97).collect();
        let chain: Vec<&[i64]> = vec![&reqs, &reqs];
        let inst = Instance::unit_from_percentages(&chain);
        let prepared = Prepared::new(&inst);
        for engine in [EnginePreference::Scaled, EnginePreference::Rational] {
            let req = SolveRequest::new("OptTwo", inst.clone())
                .with_engine(engine)
                .with_budget(Budget {
                    max_wall_ms: Some(1),
                    ..Budget::UNLIMITED
                });
            let err = reg
                .solve_cancellable(&req, &prepared, &CancelToken::new())
                .unwrap_err();
            assert_eq!(err.kind(), "deadline_exceeded", "{engine:?}");
        }
        // A generous deadline reproduces the plain outcome bit for bit.
        let req = SolveRequest::new("OptTwo", inst.clone()).with_budget(Budget {
            max_wall_ms: Some(60_000),
            ..Budget::UNLIMITED
        });
        let outcome = reg
            .solve_cancellable(&req, &prepared, &CancelToken::new())
            .unwrap();
        assert_eq!(
            outcome.makespan,
            reg.solve(&SolveRequest::new("OptTwo", inst))
                .unwrap()
                .makespan
        );
    }

    fn multi_fig_like() -> Instance {
        cr_core::InstanceBuilder::new()
            .processor([Ratio::from_percent(60), Ratio::from_percent(40)])
            .processor([Ratio::from_percent(30), Ratio::from_percent(90)])
            .extra_layer([
                vec![Ratio::from_percent(25), Ratio::from_percent(75)],
                vec![Ratio::from_percent(70), Ratio::from_percent(10)],
            ])
            .build()
    }

    #[test]
    fn every_method_answers_multi_resource_requests() {
        let reg = registry();
        let inst = multi_fig_like();
        let prepared = Prepared::new(&inst);
        for method in POLY_METHODS {
            let outcome = reg
                .solve_prepared(&SolveRequest::new(method, inst.clone()), &prepared)
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            assert!(outcome.schedule.is_none(), "{method}");
            assert!(
                outcome.makespan.unwrap() >= outcome.lower_bounds.trivial,
                "{method}"
            );
        }
        for method in ["OptTwo", "OptM", "BruteForce"] {
            let outcome = reg
                .solve_prepared(&SolveRequest::new(method, inst.clone()), &prepared)
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            assert_eq!(outcome.engine, Engine::Scaled, "{method}");
            assert!(outcome.schedule.is_none(), "{method}");
            assert!(
                outcome.makespan.unwrap() >= outcome.lower_bounds.trivial,
                "{method}"
            );
        }
        let bounds = reg
            .solve_prepared(&SolveRequest::new("Bounds", inst.clone()), &prepared)
            .unwrap();
        assert!(bounds.makespan.is_none());
        assert_eq!(bounds.lower_bounds.best, Some(bounds.lower_bounds.trivial));
    }

    #[test]
    fn multi_resource_exact_engines_agree_across_cores_and_methods() {
        let reg = registry();
        let inst = multi_fig_like();
        let prepared = Prepared::new(&inst);
        let mut values = Vec::new();
        for method in ["OptTwo", "OptM", "BruteForce"] {
            for engine in [
                EnginePreference::Auto,
                EnginePreference::Scaled,
                EnginePreference::Rational,
            ] {
                let outcome = reg
                    .solve_prepared(
                        &SolveRequest::new(method, inst.clone()).with_engine(engine),
                        &prepared,
                    )
                    .unwrap_or_else(|e| panic!("{method}/{engine:?}: {e}"));
                values.push((method, engine, outcome.makespan.unwrap()));
            }
        }
        let first = values[0].2;
        for (method, engine, value) in values {
            assert_eq!(value, first, "{method}/{engine:?} diverged");
        }
    }

    #[test]
    fn zero_extra_layer_reproduces_the_scalar_optimum() {
        // A k = 2 instance whose second layer is all-zero adds no
        // constraints: the exact multi search must reproduce the scalar
        // OPT(m) value bit for bit.
        let base = fig_like();
        let inst = cr_core::InstanceBuilder::new()
            .processor([
                Ratio::from_percent(60),
                Ratio::from_percent(40),
                Ratio::from_percent(80),
            ])
            .processor([
                Ratio::from_percent(30),
                Ratio::from_percent(90),
                Ratio::from_percent(10),
            ])
            .extra_layer([vec![Ratio::ZERO; 3], vec![Ratio::ZERO; 3]])
            .build();
        let scalar = crate::opt_m_makespan(&base);
        let multi = registry()
            .solve(&SolveRequest::new("OptM", inst))
            .unwrap()
            .makespan
            .unwrap();
        assert_eq!(multi, scalar);
    }

    #[test]
    fn multi_resource_schedules_are_a_structured_error() {
        let reg = registry();
        let inst = multi_fig_like();
        for method in ["GreedyBalance", "OptTwo", "OptM", "BruteForce"] {
            let err = reg
                .solve(&SolveRequest::new(method, inst.clone()).with_schedule())
                .unwrap_err();
            assert_eq!(err.kind(), "resource_mismatch", "{method}");
            assert!(err.to_string().contains("single-resource"));
        }
    }

    #[test]
    fn multi_resource_layer_overflow_routes_like_grid_overflow() {
        // A layer requirement with a 2^63 denominator makes the layer grid
        // unrepresentable: Scaled fails with resource_overflow, Auto falls
        // back to the rational stepper and records the fallback.
        let huge = Ratio::new(1, 1i128 << 63);
        let inst = cr_core::InstanceBuilder::new()
            .processor([Ratio::from_percent(50)])
            .processor([Ratio::from_percent(50)])
            .extra_layer([vec![huge], vec![huge]])
            .build();
        let reg = registry();
        for method in ["EqualShare", "OptM"] {
            let err = reg
                .solve(
                    &SolveRequest::new(method, inst.clone()).with_engine(EnginePreference::Scaled),
                )
                .unwrap_err();
            assert_eq!(err.kind(), "resource_overflow", "{method}");
            let auto = reg.solve(&SolveRequest::new(method, inst.clone())).unwrap();
            assert_eq!(auto.engine, Engine::Rational, "{method}");
            assert_eq!(auto.fallbacks.len(), 1, "{method}");
        }
    }

    #[test]
    fn multi_resource_round_budget_still_applies_to_opt_m() {
        // Three two-layer full-requirement jobs: makespan 3, so a 1-round
        // cap fails while a 3-round cap answers exactly.
        let inst = cr_core::InstanceBuilder::new()
            .processor([Ratio::ONE])
            .processor([Ratio::ONE])
            .processor([Ratio::ONE])
            .extra_layer([vec![Ratio::ONE], vec![Ratio::ONE], vec![Ratio::ONE]])
            .build();
        let reg = registry();
        let err = reg
            .solve(
                &SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
                    max_rounds: Some(1),
                    ..Budget::UNLIMITED
                }),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "budget_exhausted");
        let ok = reg
            .solve(&SolveRequest::new("OptM", inst).with_budget(Budget {
                max_rounds: Some(3),
                ..Budget::UNLIMITED
            }))
            .unwrap();
        assert_eq!(ok.makespan, Some(3));
    }

    #[test]
    fn prepared_is_reusable_across_methods() {
        let inst = fig_like();
        let prepared = Prepared::new(&inst);
        assert!(prepared.scaled.is_some());
        assert!(prepared.sched_scaled);
        let reg = registry();
        let a = reg
            .solve_prepared(&SolveRequest::new("OptM", inst.clone()), &prepared)
            .unwrap();
        let b = reg.solve(&SolveRequest::new("OptM", inst)).unwrap();
        assert_eq!(a, b);
    }
}
