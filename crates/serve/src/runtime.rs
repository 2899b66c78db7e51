//! The concurrent batched, QoS-aware scoring runtime.
//!
//! Request flow:
//!
//! ```text
//!  client threads                     workers (config.workers)
//!  ──────────────                     ────────────────────────
//!  featurize plan                     wait for first request
//!  check row (width, finite)          drain min(queued, max_batch)
//!  tenant token bucket (grant /
//!  demote / reject)
//!  idle? → score inline ─────┐        WRR across levels, EDF within level
//!  else: per-level EDF queue ┼──────▶ lay rows out in one FeatureMatrix
//!  (full? shed BestEffort)   │        score_feature_batch → fulfill each
//!  wait on completion ◀──────┘        record deadline hit/miss per level
//! ```
//!
//! Scoring is pure (no RNG, no shared mutable state), so results are a
//! function of the submitted plan and the registered model only — batching,
//! worker count, service level, and scheduling order cannot change any
//! individual [`ResourceRequest`]. QoS affects *when* a request is scored
//! (its queueing delay, and whether it survives saturation), never
//! *answers*.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ae_engine::plan::QueryPlan;
use ae_ml::matrix::FeatureMatrix;
use ae_ml::portable::PortableModel;
use ae_obs::{EventKind, MetricSource, MetricValue};
use autoexecutor::features::{featurize_plan, full_feature_names};
use autoexecutor::optimizer::ResourceRequest;
use autoexecutor::registry::ModelRegistry;
use autoexecutor::scoring;
use autoexecutor::training::ParameterModel;
use parking_lot::RwLock;

use crate::breaker::{heuristic_request, Breaker};
use crate::config::RuntimeConfig;
use crate::fleet::resilience::{decode_fault, encode_fault, InducedFault};
use crate::obs::RuntimeObs;
use crate::qos::{self, PriceQuote, PriorityQueues, QueuedRequest, ServiceLevel};
use crate::stats::{RuntimeStats, StatsInner};
use crate::tenant::{Admission, TenantGovernor, TenantId};
use crate::{Result, ServeError};

/// Budgets are clamped so `Instant + budget` can never overflow (a year is
/// "forever" for a scoring call).
const MAX_DEADLINE_BUDGET: Duration = Duration::from_secs(365 * 24 * 3600);

/// Locks a std mutex, recovering from poisoning (a panicking worker must
/// not wedge every client).
pub(crate) fn lock<T>(mutex: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// One scoring request with its QoS envelope: what to score, at which
/// service level, on whose behalf, and under what deadline.
///
/// Build one with [`from_plan`](Self::from_plan) (featurizes the plan) or
/// [`from_features`](Self::from_features), then refine with the `with_*`
/// builders. The default envelope is [`ServiceLevel::Standard`], no tenant
/// (exempt from fairness policing), and the level's configured deadline
/// budget.
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    features: Vec<f64>,
    level: ServiceLevel,
    tenant: Option<TenantId>,
    deadline_budget: Option<Duration>,
}

impl ScoreRequest {
    /// A request for an optimized plan (featurized here, like
    /// [`ScoringRuntime::score`]).
    pub fn from_plan(plan: &QueryPlan) -> Self {
        Self::from_features(featurize_plan(plan))
    }

    /// A request for an already-featurized plan.
    pub fn from_features(features: Vec<f64>) -> Self {
        Self {
            features,
            level: ServiceLevel::Standard,
            tenant: None,
            deadline_budget: None,
        }
    }

    /// Sets the service level.
    pub fn with_level(mut self, level: ServiceLevel) -> Self {
        self.level = level;
        self
    }

    /// Attributes the request to a tenant (subject to the fairness policy).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Overrides the level's deadline budget for this request.
    /// `Duration::ZERO` is honored literally: the request is admitted and
    /// scored, and counts as a deadline miss.
    pub fn with_deadline_budget(mut self, budget: Duration) -> Self {
        self.deadline_budget = Some(budget);
        self
    }

    /// The requested service level.
    pub fn level(&self) -> ServiceLevel {
        self.level
    }

    /// The tenant the request is attributed to, if any. The fleet router
    /// keys consistent hashing on this.
    pub fn tenant(&self) -> Option<TenantId> {
        self.tenant
    }

    /// The featurized plan (the fleet router hashes untenanted requests
    /// by feature content so placement stays deterministic).
    pub(crate) fn features(&self) -> &[f64] {
        &self.features
    }
}

/// The answer to a [`ScoreRequest`]: the scored resource request plus its
/// QoS disposition.
#[derive(Debug, Clone)]
pub struct ScoreOutcome {
    /// The scored plan: executor count, predicted PPM, predicted curve —
    /// identical to what [`ScoringRuntime::score`] returns, regardless of
    /// level.
    pub request: ResourceRequest,
    /// The level the request was *served* at (differs from the requested
    /// level only when the tenant governor demoted it).
    pub level: ServiceLevel,
    /// True when the request was fulfilled after its deadline.
    pub missed_deadline: bool,
    /// Admission-to-fulfillment latency as observed by the runtime
    /// (queueing delay + batching + scoring; excludes client-side
    /// featurization).
    pub latency: Duration,
    /// True when the answer came from the heuristic fallback because the
    /// circuit breaker had the model path open (degraded mode). Always
    /// false when [`crate::RuntimeConfig::breaker`] is `None`.
    pub degraded: bool,
    /// Pricing inputs captured from the runtime's QoS config so
    /// [`quote`](Self::quote) can derive the price lazily.
    quote_targets: [f64; ServiceLevel::COUNT],
    quote_unit_price: f64,
}

impl ScoreOutcome {
    /// The price of this query's promise at the served level, derived on
    /// demand from the predicted curve (the plain `score` path never pays
    /// for pricing it discards). `None` only when the predicted curve is
    /// empty (never for a successfully scored request in practice).
    pub fn quote(&self) -> Option<PriceQuote> {
        qos::price_quote_parts(
            &self.request.predicted_curve,
            self.level,
            &self.quote_targets,
            self.quote_unit_price,
        )
    }
}

/// What a completion slot carries back to the submitter.
pub(crate) struct Scored {
    pub(crate) request: ResourceRequest,
    pub(crate) missed_deadline: bool,
    pub(crate) latency: Duration,
    pub(crate) degraded: bool,
}

/// A one-shot completion slot the submitting thread blocks on.
#[derive(Default)]
pub(crate) struct Completion {
    slot: StdMutex<Option<Result<Scored>>>,
    ready: Condvar,
}

impl Completion {
    pub(crate) fn fulfill(&self, result: Result<Scored>) {
        *lock(&self.slot) = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Scored> {
        let mut guard = lock(&self.slot);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout` and returns
    /// `None` — the slot stays armed, so a later wait can still redeem it.
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<Scored>> {
        let deadline = Instant::now() + timeout.min(MAX_DEADLINE_BUDGET);
        let mut guard = lock(&self.slot);
        loop {
            if let Some(result) = guard.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _timed_out) = self
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|poison| poison.into_inner());
            guard = next;
        }
    }
}

/// Builds the client-facing outcome, capturing the pricing inputs so the
/// quote can be derived lazily via [`ScoreOutcome::quote`].
fn make_outcome(shared: &Shared, scored: Scored, level: ServiceLevel) -> ScoreOutcome {
    ScoreOutcome {
        request: scored.request,
        level,
        missed_deadline: scored.missed_deadline,
        latency: scored.latency,
        degraded: scored.degraded,
        quote_targets: shared.config.qos.slowdown_targets,
        quote_unit_price: shared.config.qos.unit_price,
    }
}

/// A pending detached submission, returned by
/// [`ScoringRuntime::submit_detached`] /
/// [`ScoringRuntime::try_submit_detached`]: the request is admitted and
/// will be scored whether or not the ticket is redeemed; [`wait`](Self::wait)
/// blocks until the result is ready and returns the [`ScoreOutcome`].
/// Dropping a ticket abandons the *result*, not the request.
#[must_use = "the scored result is only observable by waiting on the ticket"]
pub struct ScoreTicket {
    shared: Arc<Shared>,
    done: Arc<Completion>,
    level: ServiceLevel,
}

impl ScoreTicket {
    /// The service level the request was admitted at (after any demotion).
    pub fn level(&self) -> ServiceLevel {
        self.level
    }

    /// Blocks until the request is fulfilled and returns its outcome.
    pub fn wait(self) -> Result<ScoreOutcome> {
        let scored = self.done.wait()?;
        Ok(make_outcome(&self.shared, scored, self.level))
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout`: the outer
    /// `Err` hands the (still-live) ticket back so the caller can retry,
    /// do other work, or drop it. The request itself is unaffected — it
    /// will still be scored, and a later `wait` still redeems the result.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> std::result::Result<Result<ScoreOutcome>, ScoreTicket> {
        match self.done.wait_timeout(timeout) {
            Some(result) => Ok(result.map(|scored| make_outcome(&self.shared, scored, self.level))),
            None => Err(self),
        }
    }
}

impl std::fmt::Debug for ScoreTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreTicket")
            .field("level", &self.level)
            .finish()
    }
}

/// State shared between the handle, submitters, and workers.
struct Shared {
    registry: Arc<ModelRegistry>,
    model_name: String,
    config: RuntimeConfig,
    feature_width: usize,
    /// The per-level EDF admission queues (WRR-drained; see
    /// [`crate::qos::PriorityQueues`]).
    queues: StdMutex<PriorityQueues>,
    /// Signalled when a request is enqueued (idle workers wait on it) and
    /// on shutdown.
    not_empty: Condvar,
    /// Signalled when a batch is drained (blocked submitters wait on it)
    /// and on shutdown.
    not_full: Condvar,
    /// Queued-but-undrained request count (the reported queue depth).
    pending: AtomicUsize,
    /// Requests anywhere in the system: being scored inline, queued, or in
    /// a batch currently being scored. The idle shortcut reads this —
    /// "idle" must mean *nothing in flight*, not merely "queue empty",
    /// otherwise concurrent submitters all take the inline path and the
    /// batcher never engages.
    in_flight: AtomicUsize,
    shutdown: AtomicBool,
    /// The per-tenant token-bucket governor (present only when the config
    /// enables fairness).
    governor: Option<TenantGovernor>,
    /// Decoded-model cache: `(registry handle, decoded model)`. Re-resolved
    /// by `Arc` pointer identity so an RCU re-registration in the registry
    /// is picked up by the next batch; scoring threads holding the old
    /// decoded model finish their batch against it unperturbed. The decoded
    /// [`ParameterModel`] carries the forest's compiled inference
    /// representation (flat SoA arenas), so a re-registration compiles the
    /// new model **once** here — never per batch — and every drain-loop
    /// batch runs the compiled batch-major kernel.
    model: RwLock<Option<(Arc<PortableModel>, Arc<ParameterModel>)>>,
    /// The degraded-mode circuit breaker (present only when the config
    /// enables it; see [`crate::breaker`]).
    breaker: Option<Breaker>,
    /// The chaos-injected fault word (see [`crate::fleet::resilience`]):
    /// zero when no fault is induced, so the production hot path pays one
    /// relaxed load per batch and stays bit-identical to a runtime built
    /// before fault injection existed.
    induced: AtomicU64,
    stats: StatsInner,
    /// Opt-in observability (event sink + latency histograms; see
    /// [`crate::obs`]). `None` keeps every instrumentation site to one
    /// untaken branch.
    obs: Option<RuntimeObs>,
}

impl Shared {
    /// Records a typed event when observability is enabled; a single
    /// branch otherwise.
    fn obs_event(&self, kind: EventKind) {
        if let Some(obs) = &self.obs {
            obs.events().record(kind);
        }
    }

    /// The currently induced chaos fault, if any (one relaxed load).
    fn induced(&self) -> Option<InducedFault> {
        let word = self.induced.load(Ordering::Relaxed);
        if word == 0 {
            None
        } else {
            decode_fault(word)
        }
    }

    /// Returns the decoded parameter model, fetching/decoding it if the
    /// registry holds a model the cache has not seen (never holds a cache
    /// lock across registry access or deserialization).
    fn resolve_model(&self) -> Result<Arc<ParameterModel>> {
        if matches!(self.induced(), Some(InducedFault::ModelOutage)) {
            return Err(ServeError::Model("induced model outage".into()));
        }
        let portable = self
            .registry
            .load(&self.model_name)
            .map_err(|e| ServeError::Model(e.to_string()))?;
        {
            let cached = self.model.read();
            if let Some((handle, decoded)) = cached.as_ref() {
                if Arc::ptr_eq(handle, &portable) {
                    return Ok(Arc::clone(decoded));
                }
            }
        }
        let decoded = Arc::new(
            ParameterModel::from_portable(&portable)
                .map_err(|e| ServeError::Model(e.to_string()))?,
        );
        let swapped = {
            let mut cached = self.model.write();
            // A swap replaces an existing decode; the first resolve is a
            // cold load, not a swap.
            let swapped = cached
                .as_ref()
                .is_some_and(|(handle, _)| !Arc::ptr_eq(handle, &portable));
            *cached = Some((portable, Arc::clone(&decoded)));
            swapped
        };
        if swapped {
            self.obs_event(EventKind::ModelSwap);
        }
        Ok(decoded)
    }

    /// Rejects a feature row that is not the full feature width every
    /// model consumes (feature sets project from the full vector) or that
    /// holds a non-finite value, which would be scored and priced as a
    /// confident answer. Submission checks it up front so a malformed
    /// request fails fast; the scoring paths check it again, so a row that
    /// reaches a worker some other way fails alone instead of panicking
    /// the worker.
    fn check_row(&self, features: &[f64]) -> Result<()> {
        if features.len() != self.feature_width {
            return Err(ServeError::InvalidRequest(format!(
                "feature vector has {} columns, the model expects {}",
                features.len(),
                self.feature_width
            )));
        }
        if let Some(column) = features.iter().position(|x| !x.is_finite()) {
            return Err(ServeError::InvalidRequest(format!(
                "feature {column} is {}",
                features[column]
            )));
        }
        Ok(())
    }

    /// The raw model path for one request: resolve, predict, select (with
    /// the configured risk adjustment). No breaker involvement.
    fn model_score_one(&self, features: &[f64]) -> Result<ResourceRequest> {
        let model = self.resolve_model()?;
        scoring::score_features_with_risk(
            &model,
            features,
            self.config.objective,
            &self.config.candidate_counts,
            self.config.preemption_risk.as_ref(),
        )
        .map(|scored| scored.request)
        .map_err(|e| ServeError::Scoring(e.to_string()))
    }

    /// The heuristic fallback for one request (degraded mode).
    fn fallback_one(&self, features: &[f64]) -> Result<ResourceRequest> {
        self.check_row(features)?;
        heuristic_request(
            features,
            self.config.objective,
            &self.config.candidate_counts,
        )
    }

    /// Records a breaker failure, counting the trip if this one opened it.
    fn breaker_failure(&self, breaker: &Breaker) {
        if breaker.record_failure(Instant::now()) {
            self.stats.record_breaker_trip();
            self.obs_event(EventKind::BreakerTrip);
        }
    }

    /// Records a breaker success, emitting a recovery event when it
    /// closed a non-closed breaker (half-open probe success).
    fn breaker_success(&self, breaker: &Breaker) {
        if breaker.record_success() {
            self.obs_event(EventKind::BreakerRecovered);
        }
    }

    /// Scores one request through the breaker-guarded model path. The
    /// returned flag marks a degraded (fallback-served) answer. Without a
    /// breaker this is exactly the model path.
    fn score_one(&self, features: &[f64]) -> Result<(ResourceRequest, bool)> {
        // An induced crash fails hard — past the breaker's fallback — so
        // the fleet health monitor sees real errors, like a dead process.
        if matches!(self.induced(), Some(InducedFault::Crash)) {
            return Err(ServeError::Scoring("induced shard crash".into()));
        }
        let Some(breaker) = &self.breaker else {
            return self.model_score_one(features).map(|r| (r, false));
        };
        if !breaker.allow_model(Instant::now()) {
            return self.fallback_one(features).map(|r| (r, true));
        }
        let begin = Instant::now();
        match self.model_score_one(features) {
            Ok(request) => {
                if breaker.over_budget(begin.elapsed()) {
                    // The answer is correct, only late: use it, but let the
                    // slowness count toward tripping the breaker.
                    self.breaker_failure(breaker);
                } else {
                    self.breaker_success(breaker);
                }
                Ok((request, false))
            }
            Err(_) => {
                self.breaker_failure(breaker);
                self.fallback_one(features).map(|r| (r, true))
            }
        }
    }

    /// Fulfills one batched request, recording its level's deadline
    /// hit/miss (and degraded service) at fulfillment time.
    fn fulfill(
        &self,
        queued: &QueuedRequest,
        result: Result<ResourceRequest>,
        degraded: bool,
        now: Instant,
    ) {
        match result {
            Ok(request) => {
                let missed = now > queued.deadline;
                let latency = now.saturating_duration_since(queued.admitted_at);
                self.stats.record_level_completed(queued.level, missed);
                if degraded {
                    self.stats.record_degraded();
                }
                if let Some(obs) = &self.obs {
                    obs.record_latency(queued.level, latency);
                }
                queued.done.fulfill(Ok(Scored {
                    request,
                    missed_deadline: missed,
                    latency,
                    degraded,
                }));
            }
            Err(e) => queued.done.fulfill(Err(e)),
        }
    }

    /// The raw model path for a multi-request batch: resolve once, lay the
    /// well-formed rows out in `matrix`, run the batched kernel. The outer
    /// error is a batch-wide model failure; a malformed row fails alone
    /// (its own inner error) and the other rows are still scored.
    fn model_score_batch(
        &self,
        matrix: &mut FeatureMatrix,
        batch: &[QueuedRequest],
    ) -> Result<Vec<Result<ResourceRequest>>> {
        let model = self.resolve_model()?;
        matrix.clear();
        let rows: Vec<Result<()>> = batch
            .iter()
            .map(|request| {
                self.check_row(&request.features)?;
                matrix
                    .push_row(&request.features)
                    .map_err(|e| ServeError::Scoring(e.to_string()))
            })
            .collect();
        let scored = if matrix.is_empty() {
            Vec::new()
        } else {
            scoring::score_feature_batch_with_risk(
                &model,
                matrix,
                self.config.objective,
                &self.config.candidate_counts,
                self.config.preemption_risk.as_ref(),
            )
            .map_err(|e| ServeError::Scoring(e.to_string()))?
        };
        let mut scored = scored.into_iter();
        Ok(rows
            .into_iter()
            .map(|row| {
                row.and_then(|()| {
                    scored.next().ok_or_else(|| {
                        ServeError::Scoring("batch scoring returned too few rows".into())
                    })
                })
            })
            .collect())
    }

    /// Records a scored batch and fulfills each row with its own result.
    fn complete_batch(
        &self,
        batch: &[QueuedRequest],
        results: Vec<Result<ResourceRequest>>,
        degraded: bool,
    ) {
        let errors = results.iter().filter(|r| r.is_err()).count();
        self.stats.record_batch(batch.len(), errors);
        let now = Instant::now();
        for (request, result) in batch.iter().zip(results) {
            self.fulfill(request, result, degraded, now);
        }
    }

    /// Serves a whole batch from the heuristic fallback (degraded mode).
    fn fallback_batch(&self, batch: &[QueuedRequest]) {
        let results = batch
            .iter()
            .map(|request| self.fallback_one(&request.features))
            .collect();
        self.complete_batch(batch, results, true);
    }

    /// Fails a whole batch with one error.
    fn fail_batch(&self, batch: &[QueuedRequest], error: ServeError) {
        self.stats.record_batch(batch.len(), batch.len());
        for request in batch {
            request.done.fulfill(Err(error.clone()));
        }
    }

    /// Scores one drained batch and fulfills every completion. The breaker
    /// (when configured) gates the whole batch: one model call, one
    /// success/failure observation.
    fn process_batch(&self, matrix: &mut FeatureMatrix, batch: Vec<QueuedRequest>) {
        debug_assert!(!batch.is_empty());
        match self.induced() {
            // A crashed shard fails the whole batch hard (no fallback):
            // that is what makes quarantine detectable and failover real.
            Some(InducedFault::Crash) => {
                self.fail_batch(&batch, ServeError::Scoring("induced shard crash".into()));
                return;
            }
            // A stalled shard still answers correctly — late. The delay
            // runs on the worker thread, so the queue backs up exactly
            // like a straggler's would.
            Some(InducedFault::Stall(delay)) if !delay.is_zero() => std::thread::sleep(delay),
            _ => {}
        }
        if batch.len() == 1 {
            // Inline callers were width-checked at submission; a drained
            // row is checked here, before the breaker, so a malformed row
            // fails alone and never counts toward tripping it.
            let features = &batch[0].features;
            let result = self
                .check_row(features)
                .and_then(|()| self.score_one(features));
            self.stats.record_batch(1, usize::from(result.is_err()));
            match result {
                Ok((request, degraded)) => {
                    self.fulfill(&batch[0], Ok(request), degraded, Instant::now())
                }
                Err(e) => self.fulfill(&batch[0], Err(e), false, Instant::now()),
            }
            return;
        }
        if let Some(breaker) = &self.breaker {
            if !breaker.allow_model(Instant::now()) {
                self.fallback_batch(&batch);
                return;
            }
        }
        let begin = Instant::now();
        match self.model_score_batch(matrix, &batch) {
            Ok(results) => {
                if let Some(breaker) = &self.breaker {
                    if breaker.over_budget(begin.elapsed()) {
                        self.breaker_failure(breaker);
                    } else {
                        self.breaker_success(breaker);
                    }
                }
                self.complete_batch(&batch, results, false);
            }
            Err(e) => {
                if let Some(breaker) = &self.breaker {
                    self.breaker_failure(breaker);
                    self.fallback_batch(&batch);
                } else {
                    self.fail_batch(&batch, e);
                }
            }
        }
    }
}

/// Publishes the runtime's own counters (and the batch-size histogram)
/// into a metrics registry at snapshot time, so the hot-path atomics in
/// [`StatsInner`] stay the single source of truth. Holds the runtime
/// weakly: a snapshot taken after the runtime is dropped simply omits
/// these metrics.
struct StatsSource {
    prefix: String,
    shared: Weak<Shared>,
}

impl MetricSource for StatsSource {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let stats = shared.stats.snapshot();
        let p = &self.prefix;
        let counters = [
            ("completed", stats.completed),
            ("inline_scored", stats.inline_scored),
            ("batches", stats.batches),
            ("dropped", stats.dropped),
            ("errors", stats.errors),
            ("demoted", stats.demoted),
            ("throttled", stats.throttled),
            ("degraded", stats.degraded),
            ("breaker_trips", stats.breaker_trips),
        ];
        for (name, value) in counters {
            out.push((format!("{p}.{name}"), MetricValue::Counter(value)));
        }
        for level in ServiceLevel::ALL {
            let counts = stats.level(level);
            let n = level.name();
            out.push((
                format!("{p}.level.{n}.completed"),
                MetricValue::Counter(counts.completed),
            ));
            out.push((
                format!("{p}.level.{n}.deadline_misses"),
                MetricValue::Counter(counts.deadline_misses),
            ));
            out.push((
                format!("{p}.level.{n}.shed"),
                MetricValue::Counter(counts.shed),
            ));
        }
        out.push((
            format!("{p}.batch_size"),
            MetricValue::Histogram(shared.stats.batch_histogram()),
        ));
        out.push((
            format!("{p}.queue_depth"),
            MetricValue::Gauge(shared.pending.load(Ordering::Acquire) as f64),
        ));
    }
}

/// Worker loop: wait for work, drain up to `max_batch` of whatever is
/// queued (WRR across levels, EDF within a level), score, repeat. The
/// worker never waits for more requests once one is queued, so batches
/// form from the backlog under load.
fn worker_loop(shared: Arc<Shared>) {
    let mut matrix = FeatureMatrix::with_capacity(shared.feature_width, shared.config.max_batch);
    loop {
        let batch = {
            let mut queues = lock(&shared.queues);
            // Wait for the first request (or shutdown).
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if !queues.is_empty() {
                    break;
                }
                queues = shared
                    .not_empty
                    .wait(queues)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            let take = queues.len().min(shared.config.max_batch);
            let batch = queues.pop_batch(take);
            shared.pending.fetch_sub(batch.len(), Ordering::AcqRel);
            shared.not_full.notify_all();
            batch
        };
        if !batch.is_empty() {
            let size = batch.len();
            if shared.obs.is_some() {
                let backlog = shared.pending.load(Ordering::Acquire);
                shared.obs_event(EventKind::BatchDrain {
                    size: size.min(u32::MAX as usize) as u32,
                    backlog: backlog.min(u32::MAX as usize) as u32,
                });
            }
            shared.process_batch(&mut matrix, batch);
            shared.in_flight.fetch_sub(size, Ordering::AcqRel);
        }
    }
}

/// A shared, concurrent, micro-batching, QoS-aware scoring service over one
/// registered model. See the crate docs for the architecture; construct
/// with [`ScoringRuntime::new`], score from any thread with
/// [`score`](Self::score) (plain) or [`submit`](Self::submit) /
/// [`try_submit`](Self::try_submit) and their detached forms (full QoS
/// envelope), inspect with [`stats`](Self::stats), and stop with
/// [`shutdown`](Self::shutdown) (or drop the handle).
pub struct ScoringRuntime {
    shared: Arc<Shared>,
    worker_count: usize,
    workers: StdMutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ScoringRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoringRuntime")
            .field("model_name", &self.shared.model_name)
            .field("workers", &self.worker_count)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

impl ScoringRuntime {
    /// Spawns the runtime over a registry and model name. The model is
    /// resolved lazily (first score), mirroring the optimizer rule, so the
    /// runtime may be built before the model is registered.
    pub fn new(
        registry: Arc<ModelRegistry>,
        model_name: impl Into<String>,
        config: RuntimeConfig,
    ) -> Self {
        let config = config.sanitized();
        let shared = Arc::new(Shared {
            registry,
            model_name: model_name.into(),
            feature_width: full_feature_names().len(),
            queues: StdMutex::new(PriorityQueues::new(&config.qos, config.queue_capacity)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            pending: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            governor: config.qos.fairness.map(TenantGovernor::new),
            model: RwLock::new(None),
            breaker: config.breaker.clone().map(Breaker::new),
            induced: AtomicU64::new(0),
            stats: StatsInner::new(config.max_batch),
            obs: config.observability.as_ref().map(RuntimeObs::new),
            config,
        });
        if let Some(obs_cfg) = &shared.config.observability {
            // The registry outlives the runtime in the common case; the
            // Weak breaks the registry → source → Shared → ObsConfig →
            // registry cycle and makes the source vanish with the runtime.
            obs_cfg.registry.register_source(Box::new(StatsSource {
                prefix: obs_cfg.prefix.clone(),
                shared: Arc::downgrade(&shared),
            }));
        }
        let workers: Vec<JoinHandle<()>> = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ae-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning a scoring worker")
            })
            .collect();
        Self {
            shared,
            worker_count: workers.len(),
            workers: StdMutex::new(workers),
        }
    }

    /// Pre-resolves (fetches and decodes) the model so the first scored
    /// query does not pay the cold-start cost.
    pub fn warm(&self) -> Result<()> {
        self.shared.resolve_model().map(|_| ())
    }

    /// Scores a plan at [`ServiceLevel::Standard`] with no tenant
    /// attribution, blocking while the admission queue is full
    /// (backpressure) and until the result is ready.
    pub fn score(&self, plan: &QueryPlan) -> Result<ResourceRequest> {
        self.submit(ScoreRequest::from_plan(plan))
            .map(|outcome| outcome.request)
    }

    /// The admit step shared by every submission: row check, tenant
    /// admission (the fairness policy may demote the level or reject
    /// outright), and the absolute deadline.
    fn admit(&self, request: &ScoreRequest) -> Result<(ServiceLevel, Instant)> {
        self.shared.check_row(&request.features)?;
        let now = Instant::now();
        let mut level = request.level;
        if let (Some(governor), Some(tenant)) = (&self.shared.governor, request.tenant) {
            match governor.admit(tenant, now) {
                Admission::Granted => {}
                Admission::Demoted => {
                    if level != ServiceLevel::BestEffort {
                        self.shared.obs_event(EventKind::Demotion {
                            from_level: level.index() as u8,
                        });
                        level = ServiceLevel::BestEffort;
                        self.shared.stats.record_demoted();
                    }
                }
                Admission::Rejected => {
                    self.shared.stats.record_throttled();
                    self.shared.obs_event(EventKind::Throttle);
                    return Err(ServeError::Throttled(tenant));
                }
            }
        }
        let budget = request
            .deadline_budget
            .unwrap_or_else(|| self.shared.config.qos.deadline_budget(level))
            .min(MAX_DEADLINE_BUDGET);
        Ok((level, now + budget))
    }

    /// A synchronous submission: admit, then score inline when a slot is
    /// free, else queue (waiting for room when `blocking`) and wait.
    fn call(&self, request: ScoreRequest, blocking: bool) -> Result<ScoreOutcome> {
        let (level, deadline) = self.admit(&request)?;
        if self.try_claim_inline() {
            return self.score_inline_claimed(request.features, level, deadline);
        }
        let scored = self
            .queue(request.features, level, deadline, blocking)?
            .wait()?;
        Ok(make_outcome(&self.shared, scored, level))
    }

    /// A detached submission: admit, queue, and hand back the ticket.
    /// Never takes the inline shortcut — the point is to keep the
    /// submitting thread free.
    fn detach(&self, request: ScoreRequest, blocking: bool) -> Result<ScoreTicket> {
        let (level, deadline) = self.admit(&request)?;
        let done = self.queue(request.features, level, deadline, blocking)?;
        Ok(ScoreTicket {
            shared: Arc::clone(&self.shared),
            done,
            level,
        })
    }

    /// Scores with a full QoS envelope, blocking while the admission queue
    /// is full (backpressure; a non-`BestEffort` request sheds the
    /// least-urgent queued `BestEffort` request beyond the protected floor
    /// instead of waiting, if one exists) and until the result is ready.
    pub fn submit(&self, request: ScoreRequest) -> Result<ScoreOutcome> {
        self.call(request, true)
    }

    /// [`submit`](Self::submit) without backpressure: fails fast with
    /// [`ServeError::Saturated`] (counting the request as dropped) when the
    /// queue is full and shedding cannot make room.
    pub fn try_submit(&self, request: ScoreRequest) -> Result<ScoreOutcome> {
        self.call(request, false)
    }

    /// Fire-and-forget [`submit`](Self::submit): admits the request (with
    /// backpressure) and returns a [`ScoreTicket`] to redeem later, instead
    /// of blocking until the result is ready. Detached submissions always
    /// go through the queues (never the inline shortcut).
    pub fn submit_detached(&self, request: ScoreRequest) -> Result<ScoreTicket> {
        self.detach(request, true)
    }

    /// Fire-and-forget [`try_submit`](Self::try_submit): like
    /// [`submit_detached`](Self::submit_detached) but fails fast with
    /// [`ServeError::Saturated`] instead of applying backpressure. This is
    /// what an open-loop load generator uses: arrivals keep their schedule
    /// and overload turns into sheds/drops rather than client-side queueing.
    pub fn try_submit_detached(&self, request: ScoreRequest) -> Result<ScoreTicket> {
        self.detach(request, false)
    }

    /// The queue step shared by every queued submission: waits for room
    /// (`blocking`) or fails fast, shedding the least-urgent `BestEffort`
    /// request to make room for a higher level when the queue is full. The
    /// shed victim is failed outside the queue lock.
    fn queue(
        &self,
        features: Vec<f64>,
        level: ServiceLevel,
        deadline: Instant,
        blocking: bool,
    ) -> Result<Arc<Completion>> {
        let mut shed_victim = None;
        let done = {
            let mut queues = lock(&self.shared.queues);
            loop {
                if self.shared.shutdown.load(Ordering::Acquire) {
                    return Err(ServeError::ShutDown);
                }
                if queues.len() < self.shared.config.queue_capacity {
                    break;
                }
                if level > ServiceLevel::BestEffort {
                    if let Some(victim) = queues.shed_best_effort() {
                        self.shared.pending.fetch_sub(1, Ordering::AcqRel);
                        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                        shed_victim = Some(victim);
                        break;
                    }
                }
                if !blocking {
                    self.shared.stats.record_dropped();
                    self.shared.obs_event(EventKind::Dropped {
                        level: level.index() as u8,
                    });
                    return Err(ServeError::Saturated);
                }
                queues = self
                    .shared
                    .not_full
                    .wait(queues)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            self.enqueue(&mut queues, features, level, deadline)
        };
        if let Some(victim) = shed_victim {
            self.shed(victim);
        }
        self.shared.obs_event(EventKind::Admission {
            level: level.index() as u8,
            queued: true,
        });
        self.shared.not_empty.notify_one();
        Ok(done)
    }

    fn enqueue(
        &self,
        queues: &mut StdMutexGuard<'_, PriorityQueues>,
        features: Vec<f64>,
        level: ServiceLevel,
        deadline: Instant,
    ) -> Arc<Completion> {
        let done = Arc::new(Completion::default());
        queues.push(QueuedRequest {
            features,
            level,
            admitted_at: Instant::now(),
            deadline,
            done: Arc::clone(&done),
        });
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        done
    }

    /// Fails a shed victim (outside the queue lock) and records the shed.
    fn shed(&self, victim: QueuedRequest) {
        self.shared.stats.record_shed(victim.level);
        self.shared.obs_event(EventKind::Shed {
            level: victim.level.index() as u8,
        });
        victim.done.fulfill(Err(ServeError::Shed));
    }

    /// Attempts to claim an inline-scoring slot: succeeds only when workers
    /// exist to drain the queue otherwise and fewer than
    /// `inline_max_in_flight` requests (`0` disables the shortcut) are in
    /// flight anywhere.
    /// Lightly loaded traffic is judged on the *in-flight* count, not on
    /// "queue empty" — under concurrent submission the queue stays empty
    /// exactly because everyone would take the shortcut. Load beyond the
    /// bound overflows into the queue, where batching amortizes it.
    /// On success the caller holds one in-flight slot and must score and
    /// release via [`score_inline_claimed`](Self::score_inline_claimed).
    fn try_claim_inline(&self) -> bool {
        if self.worker_count == 0 || self.shared.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let limit = self.shared.config.inline_max_in_flight;
        let mut current = self.shared.in_flight.load(Ordering::Acquire);
        while current < limit {
            match self.shared.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
        false
    }

    /// Scores on the submitting thread; the caller must hold an in-flight
    /// claim from [`try_claim_inline`](Self::try_claim_inline).
    fn score_inline_claimed(
        &self,
        features: Vec<f64>,
        level: ServiceLevel,
        deadline: Instant,
    ) -> Result<ScoreOutcome> {
        let begin = Instant::now();
        // No admission event here: the inline fast path makes no
        // scheduling decision (no queue, no demotion, no shed), and at
        // fast-path rates a per-request event record would be the single
        // largest observability cost. Inline traffic is fully accounted
        // by the latency histograms and the `inline_scored` counter.
        let result = self.shared.score_one(&features);
        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        match result {
            Ok((request, degraded)) => {
                self.shared.stats.record_inline();
                let now = Instant::now();
                let missed = now > deadline;
                let latency = now.saturating_duration_since(begin);
                self.shared.stats.record_level_completed(level, missed);
                if degraded {
                    self.shared.stats.record_degraded();
                }
                if let Some(obs) = &self.shared.obs {
                    obs.record_latency(level, latency);
                }
                Ok(make_outcome(
                    &self.shared,
                    Scored {
                        request,
                        missed_deadline: missed,
                        latency,
                        degraded,
                    },
                    level,
                ))
            }
            Err(e) => {
                self.shared.stats.record_error();
                Err(e)
            }
        }
    }

    /// Crate-internal (fleet work stealing): removes up to `max` of the
    /// least-urgent non-`Interactive` queued requests, transferring their
    /// pending/in-flight accounting out of this runtime. The stolen
    /// requests keep their admission timestamps, deadlines, and completion
    /// slots — whichever runtime scores them fulfills (and counts) them,
    /// so a stolen request is never double-counted.
    pub(crate) fn steal_backlog(&self, max: usize) -> Vec<QueuedRequest> {
        if max == 0 {
            return Vec::new();
        }
        let stolen = {
            let mut queues = lock(&self.shared.queues);
            queues.steal_least_urgent(max)
        };
        if !stolen.is_empty() {
            self.shared
                .pending
                .fetch_sub(stolen.len(), Ordering::AcqRel);
            self.shared
                .in_flight
                .fetch_sub(stolen.len(), Ordering::AcqRel);
            // Room opened up: unblock submitters waiting on a full queue.
            self.shared.not_full.notify_all();
        }
        stolen
    }

    /// Crate-internal (fleet work stealing): admits stolen requests into
    /// this runtime's queues, taking over their pending/in-flight
    /// accounting. Returns the batch unchanged (nothing admitted) when
    /// this runtime is shutting down — the caller must re-home or fail
    /// those requests; their completion slots are still unfulfilled.
    pub(crate) fn inject_backlog(&self, batch: Vec<QueuedRequest>) -> Vec<QueuedRequest> {
        if batch.is_empty() {
            return batch;
        }
        {
            let mut queues = lock(&self.shared.queues);
            // Checked under the queue lock: shutdown drains the queues
            // under this same lock, so an injection serialized before the
            // drain is drained (and failed) by it, and one serialized
            // after is rejected here. Either way no completion is lost.
            if self.shared.shutdown.load(Ordering::Acquire) {
                return batch;
            }
            let count = batch.len();
            for request in batch {
                queues.push(request);
            }
            self.shared.pending.fetch_add(count, Ordering::AcqRel);
            self.shared.in_flight.fetch_add(count, Ordering::AcqRel);
        }
        self.shared.not_empty.notify_all();
        Vec::new()
    }

    /// Crate-internal (fleet work stealing): fails stranded stolen
    /// requests (both runtimes shutting down) with
    /// [`ServeError::ShutDown`], counting them as errors here — the same
    /// accounting shutdown applies to its own abandoned queue.
    pub(crate) fn abandon_backlog(&self, batch: Vec<QueuedRequest>) {
        for request in batch {
            self.shared.stats.record_error();
            request.done.fulfill(Err(ServeError::ShutDown));
        }
    }

    /// Crate-internal (fleet chaos): induces or clears a fault on this
    /// runtime. Takes effect on the next batch/inline score; clearing
    /// restores normal service (modulo a still-open breaker cooling down).
    pub(crate) fn set_induced_fault(&self, fault: Option<InducedFault>) {
        self.shared
            .induced
            .store(encode_fault(fault), Ordering::Relaxed);
    }

    /// Crate-internal (fleet chaos): the currently induced fault, if any.
    pub(crate) fn induced_fault(&self) -> Option<InducedFault> {
        decode_fault(self.shared.induced.load(Ordering::Relaxed))
    }

    /// Crate-internal (fleet health): true while this runtime's breaker
    /// is open (degraded mode). Read-only — never consumes the half-open
    /// probe. Always false without a configured breaker.
    pub(crate) fn breaker_open(&self) -> bool {
        self.shared
            .breaker
            .as_ref()
            .is_some_and(|breaker| breaker.is_open(Instant::now()))
    }

    /// Crate-internal (fleet work stealing / evacuation): queued requests
    /// the steal hooks may migrate (`Standard` ∪ `BestEffort`; never
    /// `Interactive`).
    pub(crate) fn evacuable_backlog(&self) -> usize {
        lock(&self.shared.queues).evacuable_len()
    }

    /// Crate-internal (fleet work stealing): admission-queue slots
    /// currently free (capacity minus queued requests).
    pub(crate) fn free_queue_capacity(&self) -> usize {
        self.shared
            .config
            .queue_capacity
            .saturating_sub(self.shared.pending.load(Ordering::Acquire))
    }

    /// A point-in-time snapshot of the runtime counters.
    pub fn stats(&self) -> RuntimeStats {
        self.shared.stats.snapshot()
    }

    /// The runtime's live observability handles (event sink, per-level
    /// latency histograms), when [`crate::RuntimeConfig::observability`]
    /// is set.
    pub fn observability(&self) -> Option<&RuntimeObs> {
        self.shared.obs.as_ref()
    }

    /// Requests currently queued (excludes batches being scored).
    pub fn queue_depth(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// The model name this runtime serves.
    pub fn model_name(&self) -> &str {
        &self.shared.model_name
    }

    /// Stops the runtime: in-flight batches finish, queued-but-undrained
    /// requests across every priority level fail with
    /// [`ServeError::ShutDown`], workers are joined. Callable on a shared
    /// handle (e.g. through an `Arc`); subsequent calls are no-ops, and
    /// dropping the runtime shuts it down too.
    pub fn shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::AcqRel) {
            // First shutdown only: repeat calls are no-ops and must not
            // repeat the event.
            self.shared.obs_event(EventKind::Shutdown);
        }
        let abandoned: Vec<QueuedRequest> = {
            let mut queues = lock(&self.shared.queues);
            let abandoned = queues.drain_all();
            self.shared
                .pending
                .fetch_sub(abandoned.len(), Ordering::AcqRel);
            self.shared
                .in_flight
                .fetch_sub(abandoned.len(), Ordering::AcqRel);
            abandoned
        };
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for request in abandoned {
            self.shared.stats.record_error();
            request.done.fulfill(Err(ServeError::ShutDown));
        }
        for worker in lock(&self.workers).drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ScoringRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ae_workload::{ScaleFactor, WorkloadGenerator};
    use autoexecutor::config::AutoExecutorConfig;
    use autoexecutor::training::train_from_workload;

    /// A small registered model plus full-width feature rows to score.
    pub(crate) fn fixture() -> (
        Arc<ModelRegistry>,
        ParameterModel,
        AutoExecutorConfig,
        Vec<Vec<f64>>,
    ) {
        let generator = WorkloadGenerator::new(ScaleFactor::SF10);
        let training: Vec<_> = ["q3", "q19", "q55", "q68"]
            .iter()
            .map(|n| generator.instance(n))
            .collect();
        let mut config = AutoExecutorConfig::default();
        config.forest.n_estimators = 8;
        config.training_run.noise_cv = 0.0;
        let (_, model) = train_from_workload(&training, &config).unwrap();
        let registry = Arc::new(ModelRegistry::in_memory());
        registry
            .register("ppm", model.to_portable("ppm").unwrap())
            .unwrap();
        let rows = ["q7", "q11", "q27"]
            .iter()
            .map(|n| featurize_plan(&generator.instance(n).plan))
            .collect();
        (registry, model, config, rows)
    }

    fn queued(features: Vec<f64>) -> QueuedRequest {
        let now = Instant::now();
        QueuedRequest {
            features,
            level: ServiceLevel::Standard,
            admitted_at: now,
            deadline: now + Duration::from_secs(60),
            done: Arc::new(Completion::default()),
        }
    }

    /// `[good, too short, good, too wide, good]` over the fixture rows.
    fn mixed_batch(rows: &[Vec<f64>]) -> Vec<QueuedRequest> {
        let mut short = rows[1].clone();
        short.pop();
        let mut wide = rows[2].clone();
        wide.push(1.0);
        vec![
            queued(rows[0].clone()),
            queued(short),
            queued(rows[1].clone()),
            queued(wide),
            queued(rows[2].clone()),
        ]
    }

    /// Waits for one ticket; a dead worker fails the test instead of
    /// hanging it.
    fn redeem(done: &Completion) -> Result<Scored> {
        done.wait_timeout(Duration::from_secs(30))
            .expect("the ticket resolves (the worker is alive)")
    }

    /// The served request matches the sequential rule bit for bit.
    fn assert_matches_rule(
        served: &ResourceRequest,
        model: &ParameterModel,
        config: &AutoExecutorConfig,
        row: &[f64],
    ) {
        let counts = config.candidate_counts();
        let expected = scoring::score_features(model, row, config.objective, &counts)
            .unwrap()
            .request;
        assert_eq!(served.executors, expected.executors);
        let bits = |curve: &[(usize, f64)]| -> Vec<(usize, u64)> {
            curve.iter().map(|&(n, t)| (n, t.to_bits())).collect()
        };
        assert_eq!(
            bits(&served.predicted_curve),
            bits(&expected.predicted_curve)
        );
    }

    /// Waits for every ticket, checking the malformed ones (indices 1 and
    /// 3) were rejected as invalid and the good ones match the sequential
    /// rule bit for bit.
    fn assert_bad_rows_failed_alone(
        done: &[Arc<Completion>],
        model: &ParameterModel,
        config: &AutoExecutorConfig,
        rows: &[Vec<f64>],
    ) {
        let good = [(0, &rows[0]), (2, &rows[1]), (4, &rows[2])];
        for (slot, row) in good {
            let served = redeem(&done[slot]).expect("a good row is scored").request;
            assert_matches_rule(&served, model, config, row);
        }
        for slot in [1, 3] {
            assert!(
                matches!(redeem(&done[slot]), Err(ServeError::InvalidRequest(_))),
                "malformed row {slot} must be rejected as invalid"
            );
        }
    }

    #[test]
    fn process_batch_fails_a_wrong_width_row_alone() {
        let (registry, model, config, rows) = fixture();
        // No workers: this thread plays the worker.
        let runtime = ScoringRuntime::new(
            registry,
            "ppm",
            RuntimeConfig::deterministic(&config).with_workers(0),
        );
        let batch = mixed_batch(&rows);
        let done: Vec<Arc<Completion>> = batch.iter().map(|q| Arc::clone(&q.done)).collect();
        let mut matrix = FeatureMatrix::with_capacity(runtime.shared.feature_width, batch.len());
        runtime.shared.process_batch(&mut matrix, batch);
        assert_bad_rows_failed_alone(&done, &model, &config, &rows);
        let stats = runtime.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.errors, 2);
    }

    #[test]
    fn worker_survives_a_wrong_width_row() {
        let (registry, model, config, rows) = fixture();
        let runtime = ScoringRuntime::new(
            registry,
            "ppm",
            RuntimeConfig::deterministic(&config).with_max_batch(8),
        );
        runtime.warm().unwrap();
        // Injected rows skip admission's width check, as a row admitted
        // against a since-replaced model would.
        let batch = mixed_batch(&rows);
        let done: Vec<Arc<Completion>> = batch.iter().map(|q| Arc::clone(&q.done)).collect();
        assert!(runtime.inject_backlog(batch).is_empty());
        assert_bad_rows_failed_alone(&done, &model, &config, &rows);
        // A lone malformed row takes the single-row path.
        let lone = queued(vec![0.0; 3]);
        let lone_done = Arc::clone(&lone.done);
        assert!(runtime.inject_backlog(vec![lone]).is_empty());
        assert!(matches!(
            redeem(&lone_done),
            Err(ServeError::InvalidRequest(_))
        ));
        // The worker is still alive and serving.
        let after = runtime
            .submit(ScoreRequest::from_features(rows[0].clone()))
            .unwrap()
            .request;
        let expected = scoring::score_features(
            &model,
            &rows[0],
            config.objective,
            &config.candidate_counts(),
        )
        .unwrap()
        .request;
        assert_eq!(after.executors, expected.executors);
        let stats = runtime.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.errors, 3);
    }

    #[test]
    fn a_backlog_drains_in_max_batch_chunks() {
        let (registry, model, config, rows) = fixture();
        let runtime = ScoringRuntime::new(
            registry,
            "ppm",
            RuntimeConfig::deterministic(&config).with_max_batch(8),
        );
        runtime.warm().unwrap();
        // One lock holds all 12 pushes, so the idle worker wakes to the
        // whole backlog: one batch of 8, then one of 4.
        let backlog: Vec<QueuedRequest> = (0..12).map(|i| queued(rows[i % 3].clone())).collect();
        let done: Vec<Arc<Completion>> = backlog.iter().map(|q| Arc::clone(&q.done)).collect();
        assert!(runtime.inject_backlog(backlog).is_empty());
        for (i, slot) in done.iter().enumerate() {
            let served = redeem(slot).expect("a good row is scored").request;
            assert_matches_rule(&served, &model, &config, &rows[i % 3]);
        }
        let stats = runtime.stats();
        assert_eq!(stats.batches, 2);
        let mut histogram = vec![0; 8];
        histogram[3] = 1;
        histogram[7] = 1;
        assert_eq!(stats.batch_size_histogram, histogram);
        assert_eq!(stats.completed, 12);
    }
}
