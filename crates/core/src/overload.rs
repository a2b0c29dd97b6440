//! Overload control: priority lanes, deadlines, and bounded admission.
//!
//! OASIS's active-security guarantee — revocation takes effect immediately
//! (§5 of the paper) — is only as strong as the service's behaviour under
//! saturation. A validation flood must never starve the revocation traffic
//! that collapses dependent role subtrees. This module provides the
//! server-side half of that guarantee:
//!
//! * **Priority lanes** ([`Lane`]): every request is classified as
//!   `Control` (revocation, resync, heartbeat), `Validation` (credential
//!   callbacks), or `Issuance` (activation/invocation). Each lane has its
//!   own bounded queue and its own concurrency limit, so when the service
//!   saturates it sheds the *cheapest-to-retry* work first and control
//!   traffic never queues behind a validation storm.
//! * **Deadlines** ([`Deadline`]): clients propagate a budget with each
//!   request; the [`AdmissionController`] drops requests whose deadline
//!   passed while queued *before* doing any work, and never grants a permit
//!   past the deadline. A queued [`Ticket`] holds its request's deadline
//!   and nothing else of the request: the wire server keeps the request
//!   itself, with its causal trace context, beside the ticket.
//! * **One limit per lane** ([`LaneConfig`]): a lane runs at most its
//!   configured number of requests at once and queues the rest. The
//!   limit does not move at run time.
//! * **Shed hints**: rejected requests carry a `retry_after_ms` estimate
//!   derived from the lane's queue depth and EWMA *service* time (permit
//!   grant → completion), so clients back off proportionally to real load
//!   instead of guessing. Queue wait is smoothed apart
//!   ([`LaneSnapshot::ewma_queue_wait_ms`]) and only reported.
//!
//! Admission never blocks: [`AdmissionController::submit`] admits, queues,
//! sheds or refuses at once, and the owner of a queued [`Ticket`] resolves
//! it with [`AdmissionController::poll`] (the wire server polls its parked
//! tickets after every turn). That is the only admission path, and the
//! limits are always enforced.
//!
//! The controller belongs to the server that admits through it
//! (`WireServer` in `oasis-wire` builds one per server); the service it
//! guards holds no reference to it. Its stats are read from the
//! controller itself ([`AdmissionController::stats`]) or from its
//! registry ([`AdmissionController::metrics`]), which the server adopts
//! into the service's recorder as `<id>.overload`.
//!
//! Time is abstracted behind [`Clock`] so the deterministic simulator and
//! the virtual-clock tests can drive queue-expiry logic tick by tick
//! ([`ManualClock`]), while the wire server uses [`WallClock`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// A monotonic millisecond clock. Milliseconds are *units*, not necessarily
/// wall time: the simulator drives a [`ManualClock`] in virtual ticks.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds since an arbitrary epoch.
    fn now_ms(&self) -> u64;
}

/// Wall-clock milliseconds since the clock was created.
pub struct WallClock {
    epoch: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// A manually advanced clock for deterministic tests and the simulator.
/// Monotonic by construction: `set` never moves time backwards.
#[derive(Default)]
pub struct ManualClock {
    now_ms: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at `start_ms`.
    pub fn new(start_ms: u64) -> Self {
        Self {
            now_ms: AtomicU64::new(start_ms),
        }
    }

    /// Advance to `ms` (no-op if time is already past it).
    pub fn set(&self, ms: u64) {
        self.now_ms.fetch_max(ms, Ordering::SeqCst);
    }

    /// Advance by `delta_ms`.
    pub fn advance(&self, delta_ms: u64) {
        self.now_ms.fetch_add(delta_ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Lanes and deadlines
// ---------------------------------------------------------------------------

/// Priority lane for admission. Ordering is the shedding policy: under
/// saturation, `Issuance` and `Validation` work is dropped (it is cheap for
/// the client to retry, and a stale *allow* is the dangerous direction)
/// while `Control` traffic — revocation, resync, heartbeats — keeps its own
/// queue and limit so active security stays prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Revocation, resync, and heartbeat traffic. Highest priority: a
    /// delayed revocation extends the window in which a withdrawn
    /// credential still grants access (paper §5, Fig 5).
    Control,
    /// Credential-validation callbacks from relying services.
    Validation,
    /// Role activation and method invocation. Lowest priority: a shed
    /// activation denies service to one principal briefly; a shed
    /// revocation extends everyone's exposure.
    Issuance,
}

impl Lane {
    /// All lanes, highest priority first.
    pub const ALL: [Lane; 3] = [Lane::Control, Lane::Validation, Lane::Issuance];

    /// Stable lowercase name for stats and traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            Lane::Control => "control",
            Lane::Validation => "validation",
            Lane::Issuance => "issuance",
        }
    }

    fn idx(&self) -> usize {
        match self {
            Lane::Control => 0,
            Lane::Validation => 1,
            Lane::Issuance => 2,
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An absolute millisecond deadline (or none). Computed once at admission
/// from the client's *relative* budget so queue time counts against it.
///
/// The deadline is exclusive: a request is expired when `now >= deadline`,
/// so a budget of `0` is expired at the instant of admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Option<u64>);

impl Deadline {
    /// No deadline: the request waits as long as the queue allows.
    pub fn none() -> Self {
        Deadline(None)
    }

    /// Absolute deadline at `at_ms`.
    pub fn at(at_ms: u64) -> Self {
        Deadline(Some(at_ms))
    }

    /// Deadline from a client-supplied relative budget. `Some(0)` yields a
    /// deadline that is already expired — the degenerate budget means "only
    /// if you can do it instantly", which a queued server never can.
    pub fn from_budget(now_ms: u64, budget_ms: Option<u64>) -> Self {
        Deadline(budget_ms.map(|b| now_ms.saturating_add(b)))
    }

    /// True when the deadline has passed at `now_ms`.
    pub fn expired(&self, now_ms: u64) -> bool {
        match self.0 {
            Some(at) => now_ms >= at,
            None => false,
        }
    }

    /// Milliseconds remaining at `now_ms` (`None` = unbounded).
    pub fn remaining_ms(&self, now_ms: u64) -> Option<u64> {
        self.0.map(|at| at.saturating_sub(now_ms))
    }

    /// The absolute deadline, if any.
    pub fn at_ms(&self) -> Option<u64> {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Per-lane admission parameters.
#[derive(Debug, Clone)]
pub struct LaneConfig {
    /// Concurrency limit: requests the lane runs at once (a `0` admits
    /// one). It holds for the controller's lifetime.
    pub limit: u32,
    /// Bounded queue depth; arrivals beyond this are shed.
    pub queue_cap: usize,
}

/// Full overload-control configuration for a service front door.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Connection-servicing worker threads in the wire server. The
    /// workers wait together on kernel readiness for every live
    /// connection, and the one a connection's bytes wake serves that
    /// request, so this bounds *parallelism*, not the number of concurrent
    /// or persistent clients: an idle connection occupies no worker.
    pub workers: usize,
    /// Bound on connections parked in the wire server (open, not in a
    /// worker's hands); beyond it new connections are dropped at accept
    /// time.
    pub accept_queue: usize,
    /// Close a connection that has been idle (no frame read or written)
    /// for this many clock ms, freeing its slot. `0` disables the
    /// timeout. Live peers are expected to heartbeat (`Ping`) well within
    /// the window. An idle server wakes for this deadline and for nothing
    /// else.
    pub idle_conn_ms: u64,
    /// Per-lane parameters, indexed by [`Lane::ALL`] order.
    pub lanes: [LaneConfig; 3],
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            accept_queue: 64,
            idle_conn_ms: 60_000,
            lanes: [
                // Control: generous queue, never starved by other lanes.
                LaneConfig {
                    limit: 4,
                    queue_cap: 256,
                },
                // Validation: first to shed under a storm.
                LaneConfig {
                    limit: 4,
                    queue_cap: 64,
                },
                // Issuance: cheapest to retry end-to-end.
                LaneConfig {
                    limit: 4,
                    queue_cap: 32,
                },
            ],
        }
    }
}

impl OverloadConfig {
    /// The configuration for one lane.
    pub fn lane(&self, lane: Lane) -> &LaneConfig {
        &self.lanes[lane.idx()]
    }

    /// Mutable access, for builder-style tweaks in tests and benches.
    pub fn lane_mut(&mut self, lane: Lane) -> &mut LaneConfig {
        &mut self.lanes[lane.idx()]
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

oasis_obs::stats_set! {
    /// Point-in-time view of one lane. The counters count since the
    /// controller was built; `running`, `queue_depth`, `limit` and the two
    /// EWMAs are gauges the controller sets whenever the lane's state
    /// changes, the EWMAs in microseconds.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LaneSnapshot / LaneSeries {
        /// Requests granted a permit.
        admitted: u64 = counter,
        /// Requests refused because the lane queue was full.
        shed: u64 = counter,
        /// Requests whose deadline passed before execution started.
        expired: u64 = counter,
        /// Queued requests abandoned by their caller (the ticket was dropped
        /// without resolving) and pruned from the queue.
        cancelled: u64 = counter,
        /// Requests completed (permit dropped).
        completed: u64 = counter,
        /// Currently executing requests.
        running: u32 = gauge,
        /// Currently queued requests.
        queue_depth: usize = gauge,
        /// The lane's configured concurrency limit (at least 1).
        limit: u32 = gauge,
        /// Smoothed observed *service* latency (permit grant to completion)
        /// in clock ms; it sizes the shed hint's `retry_after_ms`.
        ewma_latency_ms: f64 = micros("ewma_latency_us"),
        /// Smoothed time from submission to permit grant in clock ms,
        /// tracked apart from service time so a backlog never inflates the
        /// per-request estimate behind the shed hint.
        ewma_queue_wait_ms: f64 = micros("ewma_queue_wait_us"),
    }
}

oasis_obs::stats_set! {
    /// Snapshot of the whole admission controller, read from its registry
    /// series ([`AdmissionController::metrics`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct OverloadStats / OverloadSeries {
        /// Per-lane snapshots in [`Lane::ALL`] order, each lane's series
        /// under its [`Lane::as_str`] name.
        lanes: [LaneSnapshot; 3] = each(LaneSeries, Lane::ALL.map(|l| l.as_str())),
        /// Connections handed to the worker pool.
        conns_accepted: u64 = counter,
        /// Connections dropped because the accept queue was full.
        conns_shed: u64 = counter,
        /// Connections closed by the server's idle timeout
        /// (`OverloadConfig::idle_conn_ms`).
        conns_idle_closed: u64 = counter,
    }
}

impl OverloadStats {
    /// The snapshot for one lane.
    pub fn lane(&self, lane: Lane) -> &LaneSnapshot {
        &self.lanes[lane.idx()]
    }
}

// ---------------------------------------------------------------------------
// Controller internals
// ---------------------------------------------------------------------------

/// Exponentially weighted moving average of one lane's observed latency
/// (service time or queue wait), in clock ms. The lane lock gives it
/// exterior mutability.
#[derive(Default)]
struct LoadTracker {
    ewma_ms: f64,
    samples: u64,
}

impl LoadTracker {
    /// Smoothing factor: recent samples dominate quickly, so a lane that
    /// suddenly slows raises its hints within a handful of completions.
    const ALPHA: f64 = 0.2;

    /// Records one latency sample; the first seeds the average exactly.
    fn observe(&mut self, latency_ms: u64) {
        self.samples += 1;
        if self.samples == 1 {
            self.ewma_ms = latency_ms as f64;
        } else {
            self.ewma_ms += Self::ALPHA * (latency_ms as f64 - self.ewma_ms);
        }
    }

    /// Current smoothed latency (0.0 until the first sample).
    fn ewma_ms(&self) -> f64 {
        self.ewma_ms
    }

    /// How long a newly arrived request would wait before *starting*
    /// service, given `queued` requests ahead of it and `concurrency`
    /// parallel executors: `ceil((queued + 1) / concurrency) * ewma`,
    /// floored at 1 so a shed client never retries in a zero-ms tight
    /// loop.
    fn drain_estimate_ms(&self, queued: usize, concurrency: u32) -> u64 {
        let conc = concurrency.max(1) as u64;
        let waves = (queued as u64 + 1).div_ceil(conc);
        let per_wave = if self.samples == 0 {
            1.0
        } else {
            self.ewma_ms.max(1.0)
        };
        ((waves as f64 * per_wave).ceil() as u64).max(1)
    }
}

struct QueuedTicket {
    id: u64,
    deadline: Deadline,
}

struct LaneState {
    limit: u32,
    running: u32,
    queue: VecDeque<QueuedTicket>,
    /// Lower bound on the earliest deadline among queued tickets
    /// (`u64::MAX` when none carries one). While the clock is below it no
    /// queued ticket can have expired, so [`LaneState::prune_expired`]
    /// skips its walk. A ticket leaving the queue any other way may leave
    /// the bound too low, which costs one walk and nothing else.
    earliest_deadline_ms: u64,
    next_ticket: u64,
    load: LoadTracker,
    queue_wait: LoadTracker,
    series: LaneSeries,
}

impl LaneState {
    fn new(cfg: &LaneConfig, series: LaneSeries) -> Self {
        let state = Self {
            limit: cfg.limit.max(1),
            running: 0,
            queue: VecDeque::new(),
            earliest_deadline_ms: u64::MAX,
            next_ticket: 0,
            load: LoadTracker::default(),
            queue_wait: LoadTracker::default(),
            series,
        };
        state.publish();
        state
    }

    /// Sets the lane's gauges from its state.
    fn publish(&self) {
        let micros = |ms: f64| (ms * 1000.0).round() as i64;
        self.series.running.set(i64::from(self.running));
        self.series.queue_depth.set(self.queue.len() as i64);
        self.series.limit.set(i64::from(self.limit));
        self.series.ewma_latency_ms.set(micros(self.load.ewma_ms()));
        self.series
            .ewma_queue_wait_ms
            .set(micros(self.queue_wait.ewma_ms()));
    }

    /// Drop queued tickets whose deadline has passed. Their owners learn of
    /// the expiry on their next `poll` (an expired ticket polls as
    /// `Expired` whether or not it is still queued).
    fn prune_expired(&mut self, now_ms: u64) {
        if now_ms < self.earliest_deadline_ms {
            return;
        }
        let mut earliest = u64::MAX;
        self.queue.retain(|t| {
            if t.deadline.expired(now_ms) {
                self.series.expired.inc();
                false
            } else {
                earliest = earliest.min(t.deadline.at_ms().unwrap_or(u64::MAX));
                true
            }
        });
        self.earliest_deadline_ms = earliest;
    }
}

/// A locked lane. Dropping it publishes the lane's gauges, so they never
/// drift from the state they mirror.
struct LaneGuard<'a>(MutexGuard<'a, LaneState>);

impl std::ops::Deref for LaneGuard<'_> {
    type Target = LaneState;

    fn deref(&self) -> &LaneState {
        &self.0
    }
}

impl std::ops::DerefMut for LaneGuard<'_> {
    fn deref_mut(&mut self) -> &mut LaneState {
        &mut self.0
    }
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        self.0.publish();
    }
}

/// Outcome of [`AdmissionController::submit`].
pub enum Submission {
    /// A permit was granted immediately; the request may execute now.
    Admitted(Permit),
    /// The request was queued; poll the ticket until it resolves.
    Queued(Ticket),
    /// The lane queue is full; the request was shed without work.
    Shed {
        /// Server-estimated drain time: retry no sooner than this.
        retry_after_ms: u64,
    },
    /// The deadline had already passed at submission.
    Expired,
}

/// Outcome of polling a queued [`Ticket`].
pub enum PollOutcome {
    /// The ticket reached the head of the queue and capacity freed up.
    Ready(Permit),
    /// Still queued.
    Waiting,
    /// The deadline passed while queued; the ticket is dead.
    Expired,
}

/// A queued admission request. Obtained from [`Submission::Queued`]; resolve
/// it with [`AdmissionController::poll`]. Dropping an unresolved ticket
/// *cancels* it: its queue entry is pruned so an abandoned request can never
/// stall the lane from the head of the queue.
pub struct Ticket {
    ctrl: Arc<AdmissionController>,
    lane: Lane,
    id: u64,
    deadline: Deadline,
    submitted_ms: u64,
}

impl Ticket {
    /// The lane this ticket queues in.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// The deadline carried by the queued request.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut state = self.ctrl.lane(self.lane);
        let before = state.queue.len();
        state.queue.retain(|t| t.id != self.id);
        // Unchanged length: already granted, expired, or pruned.
        if state.queue.len() < before {
            state.series.cancelled.inc();
        }
    }
}

/// An RAII execution permit. Holding it counts against the lane's
/// concurrency limit; dropping it records the *service* latency measured
/// from the grant (the shed hint's per-request estimate), and the freed
/// capacity goes to the queue head on its next
/// [`AdmissionController::poll`].
pub struct Permit {
    ctrl: Arc<AdmissionController>,
    lane: Lane,
    granted_ms: u64,
}

impl Permit {
    /// The lane the permit executes in.
    pub fn lane(&self) -> Lane {
        self.lane
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.ctrl.finish(self.lane, self.granted_ms);
    }
}

/// Priority-aware admission controller with per-lane bounded queues,
/// deadline enforcement, and one fixed concurrency limit per lane. See the
/// module docs for the model; see `WireServer::with_overload` in
/// `oasis-wire` for the deployment point.
pub struct AdmissionController {
    config: OverloadConfig,
    clock: Arc<dyn Clock>,
    lanes: [Mutex<LaneState>; 3],
    metrics: oasis_obs::Registry,
    series: OverloadSeries,
}

impl AdmissionController {
    /// Controller on wall-clock time.
    pub fn new(config: OverloadConfig) -> Arc<Self> {
        Self::with_clock(config, Arc::new(WallClock::new()))
    }

    /// Controller on an explicit clock (virtual time in tests/sim).
    pub fn with_clock(config: OverloadConfig, clock: Arc<dyn Clock>) -> Arc<Self> {
        let metrics = oasis_obs::Registry::new();
        let series = OverloadSeries::resolve(&metrics, "");
        let lanes = Lane::ALL.map(|lane| {
            let lane_series = series.lanes[lane.idx()].clone();
            Mutex::new(LaneState::new(config.lane(lane), lane_series))
        });
        Arc::new(Self {
            config,
            clock,
            lanes,
            metrics,
            series,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// The controller's own registry, holding the [`OverloadStats`]
    /// series; share it into a caller's recorder with
    /// [`oasis_obs::Recorder::adopt`].
    pub fn metrics(&self) -> &oasis_obs::Registry {
        &self.metrics
    }

    fn lane(&self, lane: Lane) -> LaneGuard<'_> {
        LaneGuard(self.lanes[lane.idx()].lock())
    }

    /// Current controller clock reading in ms.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Admission, without blocking: grants a permit when the lane has spare
    /// capacity and an empty queue, queues otherwise, sheds when the queue
    /// is at its bound, and refuses outright when the deadline has already
    /// passed.
    pub fn submit(self: &Arc<Self>, lane: Lane, deadline: Deadline) -> Submission {
        let now = self.clock.now_ms();
        let cfg = self.config.lane(lane);
        let mut state = self.lane(lane);
        if deadline.expired(now) {
            state.series.expired.inc();
            return Submission::Expired;
        }
        state.prune_expired(now);
        if state.queue.is_empty() && state.running < state.limit {
            state.running += 1;
            state.series.admitted.inc();
            state.queue_wait.observe(0);
            return Submission::Admitted(self.permit(lane, now));
        }
        if state.queue.len() >= cfg.queue_cap {
            state.series.shed.inc();
            let hint = state.load.drain_estimate_ms(state.queue.len(), state.limit);
            return Submission::Shed {
                retry_after_ms: hint,
            };
        }
        let id = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(QueuedTicket { id, deadline });
        if let Some(at) = deadline.at_ms() {
            state.earliest_deadline_ms = state.earliest_deadline_ms.min(at);
        }
        Submission::Queued(Ticket {
            ctrl: Arc::clone(self),
            lane,
            id,
            deadline,
            submitted_ms: now,
        })
    }

    fn permit(self: &Arc<Self>, lane: Lane, granted_ms: u64) -> Permit {
        Permit {
            ctrl: Arc::clone(self),
            lane,
            granted_ms,
        }
    }

    /// Poll a queued ticket: FIFO within the lane, granted as capacity
    /// frees. Returns [`PollOutcome::Expired`] as soon as the ticket's
    /// deadline passes, whether or not it is still queued.
    pub fn poll(self: &Arc<Self>, ticket: &Ticket) -> PollOutcome {
        let now = self.clock.now_ms();
        let mut state = self.lane(ticket.lane);
        if ticket.deadline.expired(now) {
            // Count the expiry only if the ticket is still queued; a prune
            // pass may already have counted and removed it.
            let before = state.queue.len();
            state.queue.retain(|t| t.id != ticket.id);
            if state.queue.len() < before {
                state.series.expired.inc();
            }
            return PollOutcome::Expired;
        }
        state.prune_expired(now);
        let at_head = state.queue.front().is_some_and(|t| t.id == ticket.id);
        if at_head && state.running < state.limit {
            state.queue.pop_front();
            state.running += 1;
            state.series.admitted.inc();
            state
                .queue_wait
                .observe(now.saturating_sub(ticket.submitted_ms));
            // The grant timestamp is *now*: service latency starts here,
            // not at submission, so queue wait never counts as service.
            return PollOutcome::Ready(self.permit(ticket.lane, now));
        }
        PollOutcome::Waiting
    }

    /// Record that an admitted request reached its execution point only
    /// after its deadline (a racy admission at the deadline boundary). The
    /// caller must drop the permit without doing work.
    pub fn note_expired_after_admit(&self, lane: Lane) {
        self.series.lanes[lane.idx()].expired.inc();
    }

    /// Completion path: called from [`Permit::drop`]. Frees the permit's
    /// slot and records its pure service time (grant → completion) for the
    /// shed hint.
    fn finish(&self, lane: Lane, granted_ms: u64) {
        let latency = self.clock.now_ms().saturating_sub(granted_ms);
        let mut state = self.lane(lane);
        state.running = state.running.saturating_sub(1);
        state.series.completed.inc();
        state.load.observe(latency);
    }

    /// Record a connection handed to the worker pool.
    pub fn note_conn_accepted(&self) {
        self.series.conns_accepted.inc();
    }

    /// Record a connection dropped because the accept queue was full.
    pub fn note_conn_shed(&self) {
        self.series.conns_shed.inc();
    }

    /// Record a connection closed by the server's idle timeout.
    pub fn note_conn_idle_closed(&self) {
        self.series.conns_idle_closed.inc();
    }

    /// Point-in-time stats snapshot, read from the controller's series.
    pub fn stats(&self) -> OverloadStats {
        self.series.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> OverloadConfig {
        let mut cfg = OverloadConfig::default();
        for lane in Lane::ALL {
            *cfg.lane_mut(lane) = LaneConfig {
                limit: 1,
                queue_cap: 2,
            };
        }
        cfg
    }

    fn manual(cfg: OverloadConfig) -> (Arc<AdmissionController>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new(0));
        let ctrl = AdmissionController::with_clock(cfg, Arc::clone(&clock) as Arc<dyn Clock>);
        (ctrl, clock)
    }

    #[test]
    fn grants_within_limit_queues_beyond() {
        let (ctrl, _clock) = manual(tiny_config());
        let p1 = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Admitted(p) => p,
            _ => panic!("first request should be admitted"),
        };
        let t2 = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Queued(t) => t,
            _ => panic!("second request should queue at limit 1"),
        };
        assert!(matches!(ctrl.poll(&t2), PollOutcome::Waiting));
        drop(p1);
        match ctrl.poll(&t2) {
            PollOutcome::Ready(_p) => {}
            _ => panic!("queued request should be granted after completion"),
        }
    }

    #[test]
    fn sheds_when_queue_full_with_positive_hint() {
        let (ctrl, _clock) = manual(tiny_config());
        let _p = ctrl.submit(Lane::Validation, Deadline::none());
        let _t1 = ctrl.submit(Lane::Validation, Deadline::none());
        let _t2 = ctrl.submit(Lane::Validation, Deadline::none());
        match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Shed { retry_after_ms } => assert!(retry_after_ms >= 1),
            _ => panic!("queue_cap 2 exceeded: fourth request should shed"),
        }
        let stats = ctrl.stats();
        assert_eq!(stats.lane(Lane::Validation).shed, 1);
        assert_eq!(stats.lane(Lane::Validation).queue_depth, 2);
    }

    #[test]
    fn lanes_are_independent() {
        let (ctrl, _clock) = manual(tiny_config());
        // Saturate validation completely.
        let _vp = ctrl.submit(Lane::Validation, Deadline::none());
        let _vt1 = ctrl.submit(Lane::Validation, Deadline::none());
        let _vt2 = ctrl.submit(Lane::Validation, Deadline::none());
        assert!(matches!(
            ctrl.submit(Lane::Validation, Deadline::none()),
            Submission::Shed { .. }
        ));
        // Control still admits immediately.
        assert!(matches!(
            ctrl.submit(Lane::Control, Deadline::none()),
            Submission::Admitted(_)
        ));
    }

    #[test]
    fn zero_budget_expires_at_admission() {
        let (ctrl, clock) = manual(tiny_config());
        clock.set(100);
        let d = Deadline::from_budget(clock.now_ms(), Some(0));
        assert!(matches!(ctrl.submit(Lane::Control, d), Submission::Expired));
        assert_eq!(ctrl.stats().lane(Lane::Control).expired, 1);
    }

    #[test]
    fn queued_ticket_expires_when_clock_passes_deadline() {
        let (ctrl, clock) = manual(tiny_config());
        let _p = ctrl.submit(Lane::Validation, Deadline::none());
        let t = match ctrl.submit(
            Lane::Validation,
            Deadline::from_budget(clock.now_ms(), Some(20)),
        ) {
            Submission::Queued(t) => t,
            _ => panic!("should queue"),
        };
        assert!(matches!(ctrl.poll(&t), PollOutcome::Waiting));
        clock.set(20);
        assert!(matches!(ctrl.poll(&t), PollOutcome::Expired));
        assert_eq!(ctrl.stats().lane(Lane::Validation).expired, 1);
        // Polling again must not double-count.
        assert!(matches!(ctrl.poll(&t), PollOutcome::Expired));
        assert_eq!(ctrl.stats().lane(Lane::Validation).expired, 1);
    }

    #[test]
    fn prune_bound_follows_the_earliest_queued_deadline() {
        let mut cfg = tiny_config();
        cfg.lane_mut(Lane::Validation).queue_cap = 8;
        let (ctrl, clock) = manual(cfg);
        let bound = || {
            ctrl.lanes[Lane::Validation.idx()]
                .lock()
                .earliest_deadline_ms
        };
        let queue = |deadline| match ctrl.submit(Lane::Validation, deadline) {
            Submission::Queued(t) => t,
            _ => panic!("must queue behind the held permit"),
        };
        let _hold = ctrl.submit(Lane::Validation, Deadline::none());

        let _idle = queue(Deadline::none());
        assert_eq!(bound(), u64::MAX, "deadline-less tickets set no bound");
        // A late deadline queued ahead of an early one: the bound is the
        // minimum, not the head's.
        let late = queue(Deadline::at(100));
        assert_eq!(bound(), 100);
        let early = queue(Deadline::at(20));
        assert_eq!(bound(), 20, "an earlier deadline lowers the bound");

        clock.set(19);
        assert!(matches!(ctrl.poll(&late), PollOutcome::Waiting));
        assert_eq!(ctrl.stats().lane(Lane::Validation).queue_depth, 3);

        // At the early deadline a poll of *another* ticket prunes it and
        // recomputes the bound from the survivors.
        clock.set(20);
        assert!(matches!(ctrl.poll(&late), PollOutcome::Waiting));
        let snap = ctrl.stats().lane(Lane::Validation).clone();
        assert_eq!((snap.expired, snap.queue_depth), (1, 2));
        assert_eq!(bound(), 100);
        // Its owner still learns of the expiry, counted once.
        assert!(matches!(ctrl.poll(&early), PollOutcome::Expired));
        assert_eq!(ctrl.stats().lane(Lane::Validation).expired, 1);

        let _earlier = queue(Deadline::at(50));
        assert_eq!(bound(), 50);
    }

    #[test]
    fn default_lane_limit_holds_under_slow_and_fast_service() {
        let (ctrl, clock) = manual(OverloadConfig::default());
        let serial = |n: usize, held_ms: u64| {
            for _ in 0..n {
                let p = match ctrl.submit(Lane::Validation, Deadline::none()) {
                    Submission::Admitted(p) => p,
                    _ => panic!("serial requests stay within the limit"),
                };
                clock.advance(held_ms);
                drop(p);
            }
        };
        let limit_binds_at_four = |phase: &str| {
            assert_eq!(
                ctrl.stats().lane(Lane::Validation).limit,
                4,
                "limit after {phase} service"
            );
            let held: Vec<Permit> = (0..4)
                .map(|_| match ctrl.submit(Lane::Validation, Deadline::none()) {
                    Submission::Admitted(p) => p,
                    _ => panic!("a free slot must admit after {phase} service"),
                })
                .collect();
            assert!(
                matches!(
                    ctrl.submit(Lane::Validation, Deadline::none()),
                    Submission::Queued(_)
                ),
                "a fifth request must queue after {phase} service"
            );
            drop(held);
        };
        serial(20, 200);
        limit_binds_at_four("slow");
        serial(400, 1);
        limit_binds_at_four("fast");
    }

    #[test]
    fn dropped_ticket_is_pruned_and_does_not_stall_the_lane() {
        let (ctrl, _clock) = manual(tiny_config());
        let p = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Admitted(p) => p,
            _ => panic!("free lane must admit"),
        };
        // Two deadline-less queued requests; the first is abandoned.
        let abandoned = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Queued(t) => t,
            _ => panic!("must queue"),
        };
        let survivor = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Queued(t) => t,
            _ => panic!("must queue"),
        };
        drop(abandoned);
        let stats = ctrl.stats().lane(Lane::Validation).clone();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.queue_depth, 1, "cancelled entry left the queue");
        // With the abandoned head gone, the survivor is granted as soon as
        // capacity frees — no permanent head-of-line stall.
        drop(p);
        assert!(matches!(ctrl.poll(&survivor), PollOutcome::Ready(_)));
    }

    #[test]
    fn resolved_ticket_drop_counts_no_cancellation() {
        let (ctrl, clock) = manual(tiny_config());
        let p = ctrl.submit(Lane::Validation, Deadline::none());
        let granted = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Queued(t) => t,
            _ => panic!("must queue"),
        };
        let expired = match ctrl.submit(
            Lane::Validation,
            Deadline::from_budget(clock.now_ms(), Some(5)),
        ) {
            Submission::Queued(t) => t,
            _ => panic!("must queue"),
        };
        clock.set(5);
        assert!(matches!(ctrl.poll(&expired), PollOutcome::Expired));
        drop(p);
        let _permit = match ctrl.poll(&granted) {
            PollOutcome::Ready(p) => p,
            _ => panic!("head must be granted"),
        };
        drop(granted);
        drop(expired);
        assert_eq!(ctrl.stats().lane(Lane::Validation).cancelled, 0);
    }

    #[test]
    fn first_sample_seeds_ewma_exactly() {
        let mut t = LoadTracker::default();
        assert_eq!(t.ewma_ms(), 0.0);
        t.observe(40);
        assert_eq!(t.ewma_ms(), 40.0);
        assert_eq!(t.samples, 1);
    }

    #[test]
    fn ewma_converges_toward_recent_latency() {
        let mut t = LoadTracker::default();
        t.observe(10);
        for _ in 0..50 {
            t.observe(100);
        }
        assert!(
            t.ewma_ms() > 90.0,
            "ewma {} should approach 100",
            t.ewma_ms()
        );
    }

    #[test]
    fn drain_estimate_scales_with_queue_and_concurrency() {
        let mut t = LoadTracker::default();
        t.observe(20);
        // 7 ahead + self = 8 requests, 4 lanes => 2 waves of ~20ms.
        assert_eq!(t.drain_estimate_ms(7, 4), 40);
        // Single executor: 8 waves.
        assert_eq!(t.drain_estimate_ms(7, 1), 160);
    }

    #[test]
    fn drain_estimate_never_zero() {
        let t = LoadTracker::default();
        assert!(t.drain_estimate_ms(0, 8) >= 1);
        let mut t = LoadTracker::default();
        t.observe(0);
        assert!(t.drain_estimate_ms(0, 8) >= 1);
    }

    #[test]
    fn queue_wait_is_tracked_apart_from_service_time() {
        // Limit 1: one long-held permit makes a queued ticket wait 1050ms
        // before its grant, then it is served in 5ms.
        let (ctrl, clock) = manual(tiny_config());
        let holder = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Admitted(p) => p,
            _ => panic!("free lane must admit"),
        };
        let queued = match ctrl.submit(Lane::Validation, Deadline::none()) {
            Submission::Queued(t) => t,
            _ => panic!("must queue"),
        };
        clock.set(1_000);
        drop(holder);
        clock.set(1_050);
        let permit = match ctrl.poll(&queued) {
            PollOutcome::Ready(p) => p,
            _ => panic!("freed lane must grant the head"),
        };
        clock.advance(5);
        drop(permit);
        // Queue wait surfaced through its own EWMA (samples: 0ms for the
        // immediate grant, then 1050ms for the queued one).
        let snap = ctrl.stats().lane(Lane::Validation).clone();
        assert!(
            snap.ewma_queue_wait_ms >= 100.0,
            "queue wait is tracked separately: {}",
            snap.ewma_queue_wait_ms
        );
    }
}
