//! Overload control: priority lanes, deadlines, and adaptive admission.
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
//!   past the deadline.
//! * **Adaptive concurrency** (AIMD): each lane's limit grows additively
//!   while observed *service* latency (permit grant → completion) stays
//!   under the lane's target and backs off multiplicatively when it
//!   overshoots, so the limit tracks the service's actual capacity
//!   instead of a hand-tuned constant. Queue wait is tracked as a
//!   separate signal ([`LaneSnapshot::ewma_queue_wait_ms`]): if it fed
//!   the limiter, any backlog would read as slow service and shrink the
//!   limit exactly when work is queued.
//! * **Shed hints**: rejected requests carry a `retry_after_ms` estimate
//!   derived from the lane's queue depth and EWMA service time
//!   ([`oasis_events::LoadTracker`]), so clients back off proportionally to
//!   real load instead of guessing.
//!
//! Admission never blocks: [`AdmissionController::submit`] admits, queues,
//! sheds or refuses at once, and the owner of a queued [`Ticket`] resolves
//! it with [`AdmissionController::poll`] (the wire server polls its parked
//! tickets after every turn). That is the only admission path, and the
//! limits are always enforced.
//!
//! Time is abstracted behind [`Clock`] so the deterministic simulator and
//! the virtual-clock tests can drive queue-expiry logic tick by tick
//! ([`ManualClock`]), while the wire server uses [`WallClock`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use oasis_events::LoadTracker;
use parking_lot::Mutex;

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
    /// Starting concurrency limit (AIMD adjusts from here).
    pub initial_limit: u32,
    /// Floor the multiplicative decrease never goes below.
    pub min_limit: u32,
    /// Ceiling the additive increase never exceeds.
    pub max_limit: u32,
    /// Bounded queue depth; arrivals beyond this are shed.
    pub queue_cap: usize,
    /// Latency target in clock ms; completions above it trigger a
    /// multiplicative decrease, completions at or below it an additive
    /// increase.
    pub target_latency_ms: u64,
}

impl LaneConfig {
    /// A fixed-concurrency lane: AIMD pinned at `limit`, queue bound `cap`.
    pub fn fixed(limit: u32, cap: usize, target_latency_ms: u64) -> Self {
        Self {
            initial_limit: limit,
            min_limit: limit,
            max_limit: limit,
            queue_cap: cap,
            target_latency_ms,
        }
    }
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
                    initial_limit: 4,
                    min_limit: 2,
                    max_limit: 16,
                    queue_cap: 256,
                    target_latency_ms: 50,
                },
                // Validation: first to shed under a storm.
                LaneConfig {
                    initial_limit: 4,
                    min_limit: 1,
                    max_limit: 16,
                    queue_cap: 64,
                    target_latency_ms: 50,
                },
                // Issuance: cheapest to retry end-to-end.
                LaneConfig {
                    initial_limit: 4,
                    min_limit: 1,
                    max_limit: 16,
                    queue_cap: 32,
                    target_latency_ms: 100,
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

/// Point-in-time view of one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// Requests granted a permit.
    pub admitted: u64,
    /// Requests refused because the lane queue was full.
    pub shed: u64,
    /// Requests whose deadline passed before execution started.
    pub expired: u64,
    /// Queued requests abandoned by their caller (the ticket was dropped
    /// without resolving) and pruned from the queue.
    pub cancelled: u64,
    /// Requests completed (permit dropped).
    pub completed: u64,
    /// Currently executing requests.
    pub running: u32,
    /// Currently queued requests.
    pub queue_depth: usize,
    /// Current AIMD concurrency limit (floor of the fractional limit).
    pub limit: u32,
    /// Smoothed observed *service* latency (permit grant to completion)
    /// in clock ms — the AIMD feedback signal.
    pub ewma_latency_ms: f64,
    /// Smoothed time from submission to permit grant in clock ms. Queue
    /// wait is tracked separately so a backlog cannot masquerade as slow
    /// service and collapse the AIMD limit.
    pub ewma_queue_wait_ms: f64,
}

/// Snapshot of the whole admission controller, for stats plumbing and the
/// chaos JSONL trace.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadStats {
    /// Per-lane snapshots in [`Lane::ALL`] order.
    pub lanes: [LaneSnapshot; 3],
    /// Connections handed to the worker pool.
    pub conns_accepted: u64,
    /// Connections dropped because the accept queue was full.
    pub conns_shed: u64,
    /// Connections closed by the server's idle timeout
    /// (`OverloadConfig::idle_conn_ms`).
    pub conns_idle_closed: u64,
}

impl OverloadStats {
    /// The snapshot for one lane.
    pub fn lane(&self, lane: Lane) -> &LaneSnapshot {
        &self.lanes[lane.idx()]
    }

    /// Compact single-line JSON for chaos traces, keys sorted (rendered
    /// by the shared `oasis-obs` canonical encoder).
    pub fn trace_json(&self) -> String {
        use oasis_obs::TraceValue;
        let lane_json = |s: &LaneSnapshot| {
            oasis_obs::kv_json(&[
                ("admitted", s.admitted.into()),
                ("cancelled", s.cancelled.into()),
                ("completed", s.completed.into()),
                (
                    "ewma_ms",
                    TraceValue::Raw(format!("{:.1}", s.ewma_latency_ms)),
                ),
                ("expired", s.expired.into()),
                ("limit", s.limit.into()),
                ("queue_depth", s.queue_depth.into()),
                (
                    "queue_wait_ms",
                    TraceValue::Raw(format!("{:.1}", s.ewma_queue_wait_ms)),
                ),
                ("shed", s.shed.into()),
            ])
        };
        let mut pairs: Vec<(&str, TraceValue)> = vec![
            ("conns_accepted", self.conns_accepted.into()),
            ("conns_idle_closed", self.conns_idle_closed.into()),
            ("conns_shed", self.conns_shed.into()),
        ];
        for lane in Lane::ALL.iter() {
            pairs.push((lane.as_str(), TraceValue::Raw(lane_json(self.lane(*lane)))));
        }
        oasis_obs::kv_json(&pairs)
    }
}

// ---------------------------------------------------------------------------
// Controller internals
// ---------------------------------------------------------------------------

struct QueuedTicket {
    id: u64,
    deadline: Deadline,
}

struct LaneState {
    limit: f64,
    running: u32,
    queue: VecDeque<QueuedTicket>,
    /// Lower bound on the earliest deadline among queued tickets
    /// (`u64::MAX` when none carries one). While the clock is below it no
    /// queued ticket can have expired, so [`LaneState::prune_expired`]
    /// skips its walk. A ticket leaving the queue any other way may leave
    /// the bound too low, which costs one walk and nothing else.
    earliest_deadline_ms: u64,
    next_ticket: u64,
    last_decrease_ms: u64,
    admitted: u64,
    shed: u64,
    expired: u64,
    cancelled: u64,
    completed: u64,
    load: LoadTracker,
    queue_wait: LoadTracker,
}

impl LaneState {
    fn new(cfg: &LaneConfig) -> Self {
        Self {
            limit: cfg.initial_limit.max(1) as f64,
            running: 0,
            queue: VecDeque::new(),
            earliest_deadline_ms: u64::MAX,
            next_ticket: 0,
            last_decrease_ms: 0,
            admitted: 0,
            shed: 0,
            expired: 0,
            cancelled: 0,
            completed: 0,
            load: LoadTracker::new(),
            queue_wait: LoadTracker::new(),
        }
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
                self.expired += 1;
                false
            } else {
                earliest = earliest.min(t.deadline.at_ms().unwrap_or(u64::MAX));
                true
            }
        });
        self.earliest_deadline_ms = earliest;
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
    trace: Option<oasis_obs::TraceCtx>,
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

    /// The causal trace context carried by the queued request, if the
    /// caller was traced ([`AdmissionController::submit_traced`]).
    pub fn trace(&self) -> Option<oasis_obs::TraceCtx> {
        self.trace
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut state = self.ctrl.lanes[self.lane.idx()].lock();
        let before = state.queue.len();
        state.queue.retain(|t| t.id != self.id);
        // Unchanged length: already granted, expired, or pruned.
        if state.queue.len() < before {
            state.cancelled += 1;
        }
    }
}

/// An RAII execution permit. Holding it counts against the lane's
/// concurrency limit; dropping it records the *service* latency measured
/// from the grant (feeding the AIMD limiter), and the freed capacity goes
/// to the queue head on its next [`AdmissionController::poll`]. Queue wait
/// is deliberately excluded from that signal: a backlog must not read as
/// slow service, or the limit would decay exactly when work is queued.
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
/// deadline enforcement, and AIMD concurrency adaptation. See the module
/// docs for the model; see `WireServer::with_overload` in `oasis-wire` for
/// the deployment point.
pub struct AdmissionController {
    config: OverloadConfig,
    clock: Arc<dyn Clock>,
    lanes: [Mutex<LaneState>; 3],
    conns_accepted: AtomicU64,
    conns_shed: AtomicU64,
    conns_idle_closed: AtomicU64,
}

impl AdmissionController {
    /// Controller on wall-clock time.
    pub fn new(config: OverloadConfig) -> Arc<Self> {
        Self::with_clock(config, Arc::new(WallClock::new()))
    }

    /// Controller on an explicit clock (virtual time in tests/sim).
    pub fn with_clock(config: OverloadConfig, clock: Arc<dyn Clock>) -> Arc<Self> {
        let lanes = [
            Mutex::new(LaneState::new(config.lane(Lane::Control))),
            Mutex::new(LaneState::new(config.lane(Lane::Validation))),
            Mutex::new(LaneState::new(config.lane(Lane::Issuance))),
        ];
        Arc::new(Self {
            config,
            clock,
            lanes,
            conns_accepted: AtomicU64::new(0),
            conns_shed: AtomicU64::new(0),
            conns_idle_closed: AtomicU64::new(0),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
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
        self.submit_traced(lane, deadline, None)
    }

    /// [`AdmissionController::submit`] carrying a causal trace context;
    /// a queued [`Ticket`] keeps the context so the executor can resume
    /// the causal chain when the ticket resolves.
    pub fn submit_traced(
        self: &Arc<Self>,
        lane: Lane,
        deadline: Deadline,
        trace: Option<oasis_obs::TraceCtx>,
    ) -> Submission {
        let now = self.clock.now_ms();
        let cfg = self.config.lane(lane);
        let mut state = self.lanes[lane.idx()].lock();
        if deadline.expired(now) {
            state.expired += 1;
            return Submission::Expired;
        }
        state.prune_expired(now);
        if state.queue.is_empty() && (state.running as f64) < state.limit {
            state.running += 1;
            state.admitted += 1;
            state.queue_wait.observe(0);
            return Submission::Admitted(self.permit(lane, now));
        }
        if state.queue.len() >= cfg.queue_cap {
            state.shed += 1;
            let hint = state
                .load
                .drain_estimate_ms(state.queue.len(), state.limit as u32);
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
            trace,
        })
    }

    /// Registers this controller's stats as a snapshot source named
    /// `name` on `recorder`.
    pub fn register_obs(self: &Arc<Self>, recorder: &dyn oasis_obs::Recorder, name: &str) {
        let ctrl = Arc::clone(self);
        recorder.register_source(name, Box::new(move || ctrl.stats().trace_json()));
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
        let mut state = self.lanes[ticket.lane.idx()].lock();
        if ticket.deadline.expired(now) {
            // Count the expiry only if the ticket is still queued; a prune
            // pass may already have counted and removed it.
            let before = state.queue.len();
            state.queue.retain(|t| t.id != ticket.id);
            if state.queue.len() < before {
                state.expired += 1;
            }
            return PollOutcome::Expired;
        }
        state.prune_expired(now);
        let at_head = state.queue.front().is_some_and(|t| t.id == ticket.id);
        if at_head && (state.running as f64) < state.limit {
            state.queue.pop_front();
            state.running += 1;
            state.admitted += 1;
            state
                .queue_wait
                .observe(now.saturating_sub(ticket.submitted_ms));
            // The grant timestamp is *now*: service latency starts here,
            // not at submission, so queue wait never feeds the AIMD loop.
            return PollOutcome::Ready(self.permit(ticket.lane, now));
        }
        PollOutcome::Waiting
    }

    /// Record that an admitted request reached its execution point only
    /// after its deadline (a racy admission at the deadline boundary). The
    /// caller must drop the permit without doing work.
    pub fn note_expired_after_admit(&self, lane: Lane) {
        let mut state = self.lanes[lane.idx()].lock();
        state.expired += 1;
    }

    /// Completion path: called from [`Permit::drop`]. The latency fed to
    /// the limiter is pure service time (grant → completion).
    fn finish(&self, lane: Lane, granted_ms: u64) {
        let now = self.clock.now_ms();
        let latency = now.saturating_sub(granted_ms);
        let cfg = self.config.lane(lane);
        let mut state = self.lanes[lane.idx()].lock();
        state.running = state.running.saturating_sub(1);
        state.completed += 1;
        state.load.observe(latency);
        if latency > cfg.target_latency_ms {
            // Multiplicative decrease, at most once per target window so
            // a burst of slow completions does not collapse the limit to
            // the floor in one step.
            if now.saturating_sub(state.last_decrease_ms) >= cfg.target_latency_ms {
                state.limit = (state.limit * 0.7).max(cfg.min_limit.max(1) as f64);
                state.last_decrease_ms = now;
            }
        } else {
            let step = 1.0 / state.limit.max(1.0);
            state.limit = (state.limit + step).min(cfg.max_limit.max(1) as f64);
        }
    }

    /// Record a connection handed to the worker pool.
    pub fn note_conn_accepted(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection dropped because the accept queue was full.
    pub fn note_conn_shed(&self) {
        self.conns_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection closed by the server's idle timeout.
    pub fn note_conn_idle_closed(&self) {
        self.conns_idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> OverloadStats {
        let snap = |lane: Lane| {
            let state = self.lanes[lane.idx()].lock();
            LaneSnapshot {
                admitted: state.admitted,
                shed: state.shed,
                expired: state.expired,
                cancelled: state.cancelled,
                completed: state.completed,
                running: state.running,
                queue_depth: state.queue.len(),
                limit: state.limit as u32,
                ewma_latency_ms: state.load.ewma_ms(),
                ewma_queue_wait_ms: state.queue_wait.ewma_ms(),
            }
        };
        OverloadStats {
            lanes: [
                snap(Lane::Control),
                snap(Lane::Validation),
                snap(Lane::Issuance),
            ],
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_shed: self.conns_shed.load(Ordering::Relaxed),
            conns_idle_closed: self.conns_idle_closed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> OverloadConfig {
        let mut cfg = OverloadConfig::default();
        for lane in Lane::ALL {
            *cfg.lane_mut(lane) = LaneConfig {
                initial_limit: 1,
                min_limit: 1,
                max_limit: 4,
                queue_cap: 2,
                target_latency_ms: 10,
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
    fn aimd_decreases_on_slow_completions_and_recovers() {
        let mut cfg = tiny_config();
        *cfg.lane_mut(Lane::Validation) = LaneConfig {
            initial_limit: 8,
            min_limit: 1,
            max_limit: 16,
            queue_cap: 64,
            target_latency_ms: 10,
        };
        let (ctrl, clock) = manual(cfg);
        // Slow completions: each takes 30ms > 10ms target.
        for _ in 0..20 {
            let p = match ctrl.submit(Lane::Validation, Deadline::none()) {
                Submission::Admitted(p) => p,
                _ => panic!("limit should not be exhausted by serial requests"),
            };
            clock.advance(30);
            drop(p);
        }
        let squeezed = ctrl.stats().lane(Lane::Validation).limit;
        assert!(squeezed < 8, "limit should shrink under slow completions");
        assert!(squeezed >= 1, "limit must respect the floor");
        // Fast completions: limit grows back (but stays capped).
        for _ in 0..400 {
            let p = match ctrl.submit(Lane::Validation, Deadline::none()) {
                Submission::Admitted(p) => p,
                _ => panic!("serial requests stay within limit"),
            };
            clock.advance(1);
            drop(p);
        }
        let recovered = ctrl.stats().lane(Lane::Validation).limit;
        assert!(
            recovered > squeezed,
            "limit should grow under fast completions"
        );
        assert!(recovered <= 16);
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
    fn aimd_measures_service_time_not_queue_wait() {
        // limit 1, target 10ms: one long-held permit forces a queued
        // ticket to wait far past the target before its grant.
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
        drop(holder); // slow completion; may trigger one decrease
        clock.set(1_050); // past the decrease window
        let limit_before = {
            let state = ctrl.lanes[Lane::Validation.idx()].lock();
            state.limit
        };
        let permit = match ctrl.poll(&queued) {
            PollOutcome::Ready(p) => p,
            _ => panic!("freed lane must grant the head"),
        };
        clock.advance(5); // service time 5ms, well under the 10ms target
        drop(permit);
        let state = ctrl.lanes[Lane::Validation.idx()].lock();
        assert!(
            state.limit > limit_before,
            "a fast completion after a long queue wait must increase the \
             limit ({} -> {}), not decay it toward the floor",
            limit_before,
            state.limit
        );
        drop(state);
        // Queue wait surfaced through its own EWMA (samples: 0ms for the
        // immediate grant, then 1050ms for the queued one).
        let snap = ctrl.stats().lane(Lane::Validation).clone();
        assert!(
            snap.ewma_queue_wait_ms >= 100.0,
            "queue wait is tracked separately: {}",
            snap.ewma_queue_wait_ms
        );
    }

    #[test]
    fn trace_json_is_well_formed() {
        let (ctrl, _clock) = manual(tiny_config());
        let _p = ctrl.submit(Lane::Control, Deadline::none());
        let json = ctrl.stats().trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"control\""));
        assert!(json.contains("\"conns_shed\":0"));
    }
}
