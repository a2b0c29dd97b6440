//! An OASIS-secured service: role entry, service use, credential records,
//! appointment, revocation, and active membership monitoring.
//!
//! This module implements Fig 2 of the paper:
//!
//! 1. a client presents credentials to activate a role (`activate_role`);
//! 2. the service checks its policy, validates the credentials (by
//!    callback to their issuers), and issues an RMC;
//! 3. the client presents RMCs with invocation requests (`invoke`);
//! 4. the service validates, checks constraints, and the call proceeds.
//!
//! and Fig 5: every issued certificate gets a credential record (CR);
//! records depend on the credentials and environmental facts retained by
//! the rule's *membership rule*; revocation events and fact retractions
//! propagate through the event bus and collapse dependent certificates
//! immediately and transitively.
//!
//! # Concurrency
//!
//! The service's interior state is split along its access pattern:
//!
//! * **Policy** (roles, activation/invocation rules, appointers) is
//!   read-mostly — written during setup, read on every activation and
//!   invocation — and lives behind a single [`RwLock`]. Rule vectors are
//!   held in `Arc`s so the hot path clones a pointer, not the rules.
//! * **Certificate records** (the credential records, the
//!   supporting-credential dependency index, and the retained-fact index)
//!   are written on every issue/revoke and are striped across
//!   [`SHARD_COUNT`] mutex-guarded shards: a record lives in the shard of
//!   its [`CertId`], dependency and fact entries in the shard of their
//!   key's hash.
//!
//! Lock discipline, which keeps the service deadlock-free:
//!
//! * at most **one shard lock** is held at any time — multi-shard
//!   operations (session teardown, expiry sweeps, membership rechecks,
//!   statistics) visit shards one at a time in ascending index order;
//! * **no lock is held** across an event-bus publication or a validator
//!   callback, so revocation cascades re-entering on the publisher's
//!   thread start from a lock-free state;
//! * the policy lock is never held while a shard lock is taken.
//!
//! Foreign-credential validations (callbacks to other issuers) can be
//! memoised with a TTL through
//! [`ServiceConfig::with_validation_cache`]; cached entries are evicted
//! the moment a revocation event for the credential crosses the shared
//! bus, so the cache never outlives a revocation that this service can
//! observe.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use oasis_crypto::{IssuerSecret, PublicKey, SecretEpoch, SecretKey};
use oasis_events::{DeliveredEvent, EventBus, HeartbeatMonitor, SourceHealth, SourceId, Topic};
use oasis_facts::{FactChange, FactStore};
use oasis_store::JournalStats;

use crate::audit::{AuditKind, AuditLog};
use crate::cert::{
    revocation_topic, AppointmentCertificate, CertEvent, CertEventKind, CredRecord, CredStatus,
    Credential, CredentialKind, Crr, Rmc,
};
use crate::durable::{
    self, CatchUpReport, RecoveryReport, RetainedEntry, SecurityEvent, ServiceJournal,
    ServiceSnapshot, SnapshotRecord, Watermark,
};
use crate::env::EnvContext;
use crate::error::OasisError;
use crate::ids::{CertId, PrincipalId, RoleName, ServiceId};
use crate::overload::{AdmissionController, OverloadStats};
use crate::pattern::{Bindings, Term};
use crate::plan::{CheckPlan, CredIndex, PlanSeries, PlanStats, RulePlan};
use crate::resilient::{classify_error, ErrorClass};
use crate::role::RoleDef;
use crate::rule::{ActivationRule, Atom, InvocationRule, RuleId, Solution};
use crate::validate::CredentialValidator;
use crate::value::{Value, ValueType};

/// Number of lock stripes over the certificate-record state. A power of
/// two so shard routing is a mask; 16 stripes keep contention negligible
/// for tens of threads while costing only a few hundred bytes of mutexes.
pub const SHARD_COUNT: usize = 16;

fn shard_of_hash<K: Hash + ?Sized>(key: &K) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) & (SHARD_COUNT - 1)
}

fn shard_of_cert(cert_id: CertId) -> usize {
    (cert_id.0 as usize) & (SHARD_COUNT - 1)
}

/// What a service does with cached validations for a foreign issuer
/// whose heartbeats have stopped (Fig 5: "silence means missed
/// revocations").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Refuse to grant on authority that cannot be freshly confirmed: a
    /// suspect cache entry is never served, and once the issuer is dead
    /// for the configured grace period, dependent roles are deactivated
    /// through the revocation cascade. The default.
    #[default]
    FailSafe,
    /// Availability over safety: while the issuer is late, a cached
    /// validation up to `max_stale_ticks` old may still be served when a
    /// fresh callback fails. Dead issuers are still evicted — staleness
    /// beyond the late window is never tolerated.
    FailOpen {
        /// Maximum cache-entry age (virtual ticks) servable while the
        /// issuer is late and unreachable.
        max_stale_ticks: u64,
    },
}

/// Tuning for the failure-aware validation layer
/// ([`ServiceConfig::with_heartbeats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Missed intervals before an issuer is classified dead (≥ 1; the
    /// window between one interval and this many is the *late* state).
    pub dead_after: u64,
    /// Virtual ticks an issuer must remain dead before a fail-safe
    /// service deactivates the roles depending on its credentials.
    pub grace: u64,
    /// Default policy for issuers without a per-issuer override.
    pub policy: DegradationPolicy,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        Self {
            dead_after: 3,
            grace: 10,
            policy: DegradationPolicy::FailSafe,
        }
    }
}

oasis_obs::stats_set! {
    /// Counters from the failure-aware validation layer (see
    /// [`ServiceConfig::with_heartbeats`]), alongside
    /// [`ValidationCacheStats`] and the decorator-side
    /// [`ResilientStats`](crate::ResilientStats); series `degradation.*`
    /// of the service's registry.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DegradationStats / DegradationSeries {
        /// Validations forced to a fresh callback because the issuer was
        /// late (the cache hit was suspect).
        suspect_revalidations: u64 = counter,
        /// Suspect cache entries served anyway under
        /// [`DegradationPolicy::FailOpen`].
        stale_served: u64 = counter,
        /// Suspect cache entries *refused* (fail-safe, or older than the
        /// fail-open bound) when the fresh callback failed.
        stale_refused: u64 = counter,
        /// Cache entries evicted because their issuer turned dead.
        dead_evictions: u64 = counter,
        /// Issuers whose dependent certificates were deactivated after the
        /// grace period.
        degraded_issuers: u64 = counter,
        /// Certificates revoked by those degradations (directly; cascades
        /// may collapse more).
        degraded_certs: u64 = counter,
        /// Dead issuers that heartbeated again and returned to service.
        issuer_recoveries: u64 = counter,
    }
}

/// Per-dead-issuer bookkeeping: when death was first observed, and which
/// irreversible steps have already run.
#[derive(Debug, Clone, Copy)]
struct DeadIssuer {
    since: u64,
    evicted: bool,
    degraded: bool,
}

/// The failure-aware half of the service: issuer heartbeats, degradation
/// policies, and the dead-issuer ledger.
struct FailureAware {
    monitor: HeartbeatMonitor,
    grace: u64,
    default_policy: DegradationPolicy,
    overrides: RwLock<HashMap<ServiceId, DegradationPolicy>>,
    dead: Mutex<HashMap<ServiceId, DeadIssuer>>,
    counters: DegradationSeries,
}

impl FailureAware {
    fn policy_for(&self, issuer: &ServiceId) -> DegradationPolicy {
        self.overrides
            .read()
            .get(issuer)
            .copied()
            .unwrap_or(self.default_policy)
    }

    fn source(issuer: &ServiceId) -> SourceId {
        SourceId::new(issuer.as_str())
    }
}

/// The durability half of the service: the write-ahead journal of
/// [`SecurityEvent`]s, snapshot cadence, and crash-recovery bookkeeping
/// (see the `durable` module docs).
struct Durable {
    store: ServiceJournal,
    /// Auto-snapshot after this many journal appends (`None` = manual
    /// snapshots only).
    snapshot_every: Option<u64>,
    appends_since_snapshot: AtomicU64,
    /// Held (shared) across issuance's journal-append → in-memory-apply
    /// window, and exclusively by [`OasisService::snapshot`], so a
    /// snapshot's `covered_seq` never claims an event whose effect is
    /// not yet applied. Revocation-side events need no guard: a
    /// revocation scope appends them only after they are applied.
    commit: RwLock<()>,
    /// True while [`OasisService::recover`] replays: suppresses
    /// journalling (replay must not re-journal itself) and bus
    /// publication.
    replaying: AtomicBool,
    /// True after recovery restored state, until
    /// [`OasisService::complete_catchup`]: the validation cache is
    /// treated as suspect because revocations may have been missed
    /// while the service was down.
    catchup: AtomicBool,
    /// Chaos hook: simulate a crash between the next journal append and
    /// its in-memory apply.
    crash_after_append: AtomicBool,
    /// topic → `(topic_seq, global_seq)` of the last bus event applied.
    watermarks: Mutex<HashMap<String, (u64, u64)>>,
    /// True when the service retains its own revocation topic: every
    /// own-topic publication is then journalled as
    /// [`SecurityEvent::RetainedPublished`], so a recovered (or
    /// replica-promoted) node rebuilds the retained ring with its
    /// original sequence numbers and keeps serving gap-free catch-ups.
    retain_publishes: bool,
}

/// Guard for a service's open revocation scope (see
/// [`OasisService::revocation_scope`]): dropping it flushes.
struct RevocationScope<'a> {
    service: &'a OasisService,
    durable: &'a Durable,
}

impl Drop for RevocationScope<'_> {
    fn drop(&mut self) {
        let events = durable::close_scope(self.service.scope_owner());
        // A journal failure does NOT undo a revocation: losing the
        // entries risks resurrecting a certificate on recovery, but
        // refusing to revoke would keep live authority standing —
        // strictly worse. The append error is deliberately dropped.
        if self.durable.store.append_batch(&events).is_ok() {
            self.durable
                .appends_since_snapshot
                .fetch_add(events.len() as u64, Ordering::Relaxed);
        }
        self.service.maybe_autosnapshot();
    }
}

/// Configuration for constructing an [`OasisService`].
pub struct ServiceConfig {
    id: ServiceId,
    bus: Option<EventBus<CertEvent>>,
    secret: Option<IssuerSecret>,
    validation_cache_ttl: Option<u64>,
    heartbeats: Option<HeartbeatConfig>,
    journal: Option<ServiceJournal>,
    snapshot_every: Option<u64>,
    revocation_retention: Option<usize>,
}

impl fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("id", &self.id)
            .field("validation_cache_ttl", &self.validation_cache_ttl)
            .field("heartbeats", &self.heartbeats)
            .field("journal", &self.journal.is_some())
            .field("snapshot_every", &self.snapshot_every)
            .field("revocation_retention", &self.revocation_retention)
            .finish_non_exhaustive()
    }
}

impl ServiceConfig {
    /// Starts a configuration for the service named `id`.
    pub fn new(id: impl Into<ServiceId>) -> Self {
        Self {
            id: id.into(),
            bus: None,
            secret: None,
            validation_cache_ttl: None,
            heartbeats: None,
            journal: None,
            snapshot_every: None,
            revocation_retention: None,
        }
    }

    /// Uses a shared event bus (services that must see each other's
    /// revocation events — i.e. any services with credential
    /// dependencies between them — must share a bus).
    #[must_use]
    pub fn with_bus(mut self, bus: EventBus<CertEvent>) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Uses a specific issuer secret (deterministic tests, CIV replicas).
    #[must_use]
    pub fn with_secret(mut self, secret: IssuerSecret) -> Self {
        self.secret = Some(secret);
        self
    }

    /// Enables the foreign-credential validation cache: a successful
    /// issuer callback for `(credential, presenter)` is remembered for
    /// `ttl` units of virtual time, and repeat validations within the
    /// window skip the callback. Revocation events arriving on the
    /// service's bus evict matching entries immediately, so within a
    /// shared-bus federation the cache never returns success for a
    /// credential this service could know is revoked. Off by default:
    /// without a shared bus, a cached entry can outlive a revocation at
    /// the issuer for up to `ttl`.
    #[must_use]
    pub fn with_validation_cache(mut self, ttl: u64) -> Self {
        self.validation_cache_ttl = Some(ttl);
        self
    }

    /// Enables the failure-aware validation layer: foreign issuers
    /// registered with [`OasisService::watch_issuer`] are heartbeat
    /// sources, and cached validations degrade with the issuer's health
    /// (Fig 5's "heartbeats or change events" links):
    ///
    /// * **healthy** — cache hits behave as configured by
    ///   [`ServiceConfig::with_validation_cache`];
    /// * **late** — hits are *suspect*: a fresh callback is required, and
    ///   on callback failure the [`DegradationPolicy`] decides;
    /// * **dead** — the issuer's cache entries are evicted, and under
    ///   [`DegradationPolicy::FailSafe`] its dependent roles are
    ///   deactivated once [`HeartbeatConfig::grace`] ticks pass (driven
    ///   by [`OasisService::tick_heartbeats`]).
    #[must_use]
    pub fn with_heartbeats(mut self, config: HeartbeatConfig) -> Self {
        self.heartbeats = Some(config);
        self
    }

    /// Makes the service durable: every security-relevant state change
    /// (certificate issue, revocation, expiry, foreign-revocation
    /// delivery, validation grant, epoch change) is appended to
    /// `journal` *before* it is acknowledged, and
    /// [`OasisService::recover`] rebuilds the full record and cache
    /// state from it after a crash.
    #[must_use]
    pub fn with_journal(mut self, journal: ServiceJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// With a journal configured, writes a [`ServiceSnapshot`] (and
    /// truncates the journal) automatically after every `appends`
    /// journal appends, bounding replay time after a crash. Manual
    /// [`OasisService::snapshot`] calls remain available either way.
    #[must_use]
    pub fn with_snapshot_every(mut self, appends: u64) -> Self {
        self.snapshot_every = Some(appends.max(1));
        self
    }

    /// Retains the last `capacity` events on this service's own
    /// revocation topic in the bus's replay ring
    /// ([`EventBus::retain`]), so subscribers that crash can close
    /// their delivery gap with [`OasisService::catch_up`] /
    /// [`EventBus::replay_after`] instead of missing revocations
    /// silently.
    #[must_use]
    pub fn with_revocation_retention(mut self, capacity: usize) -> Self {
        self.revocation_retention = Some(capacity.max(1));
        self
    }
}

/// The result of a successful role activation.
#[derive(Debug, Clone)]
pub struct ActivationOutcome {
    /// The issued role membership certificate.
    pub rmc: Rmc,
    /// Which activation rule fired.
    pub rule: RuleId,
    /// The variable bindings of the satisfied rule.
    pub bindings: Bindings,
}

/// The result of an authorised invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The method invoked.
    pub method: String,
    /// Which invocation rule authorised it.
    pub rule: RuleId,
    /// The variable bindings of the satisfied rule.
    pub bindings: Bindings,
    /// The credentials that authorised the call (recorded for audit, as in
    /// the cross-domain EHR scenario of Fig 3).
    pub used: Vec<Crr>,
}

/// A certificate's issuer-side state, including what its continued
/// validity depends on.
#[derive(Debug, Clone)]
struct RecordState {
    record: CredRecord,
    /// Credentials (by CRR) retained by the membership rule.
    depends_on: Vec<Crr>,
    /// Ground environmental conditions retained by the membership rule,
    /// re-evaluated on [`OasisService::recheck_memberships`]; `None` when
    /// the rule retains none. The plan compiles on the first sweep that
    /// evaluates it, not here. Shared with re-check sweeps via `Arc`, so
    /// a sweep clones a pointer and the compiled form outlives it. The
    /// plan keeps its source atoms, and those are the only copy: the
    /// journal event, the snapshot and the fact index all read
    /// [`RecordState::retained_checks`]. The plan itself is never
    /// serialised.
    check: Option<Arc<CheckPlan>>,
}

impl RecordState {
    /// Every way a record comes to exist (live issuance, snapshot restore,
    /// journal replay) builds it here, so each gets the same check plan.
    fn new(
        issuer: &ServiceId,
        record: CredRecord,
        depends_on: Vec<Crr>,
        retained_checks: Vec<Atom>,
    ) -> Self {
        Self {
            record,
            depends_on,
            check: (!retained_checks.is_empty())
                .then(|| Arc::new(CheckPlan::new(issuer, retained_checks))),
        }
    }

    fn retained_checks(&self) -> &[Atom] {
        self.check.as_deref().map_or(&[], CheckPlan::atoms)
    }
}

/// `(relation, ground tuple)` → dependents and whether each expects the
/// fact present (`true`) or absent (`false`).
type FactIndex = HashMap<(String, Vec<Value>), Vec<(CertId, bool)>>;

/// A rule as installed: the source (`rule`, what introspection and audit
/// report) and the decision plan compiled from it when it was added
/// (`plan`, what every decision evaluates).
#[derive(Clone)]
struct CompiledRule<R> {
    rule: R,
    plan: RulePlan,
}

/// The read-mostly half of the service state: written during policy
/// definition, read (briefly, under a shared lock) on every activation
/// and invocation.
#[derive(Default)]
struct PolicyTable {
    roles: HashMap<RoleName, RoleDef>,
    /// role → its activation rules, in trial order.
    activation_rules: HashMap<RoleName, Arc<Vec<CompiledRule<ActivationRule>>>>,
    /// method → its invocation rules, in trial order.
    invocation_rules: HashMap<String, Arc<Vec<CompiledRule<InvocationRule>>>>,
    /// appointment name → roles privileged to issue it.
    appointers: HashMap<String, HashSet<RoleName>>,
    /// Local prerequisite-role DAG: role → roles whose activation rules
    /// name it as a prerequisite (edges for this service's own roles
    /// only). Lets revocation tooling and filtered re-check sweeps
    /// compute the affected set in O(affected).
    prereq_children: HashMap<RoleName, HashSet<RoleName>>,
}

/// One stripe of the write-hot certificate state. Records are routed by
/// [`CertId`], dependency and fact entries by the hash of their key, so
/// the three maps of one shard do not necessarily describe the same
/// certificates.
#[derive(Default)]
struct CertShard {
    records: HashMap<CertId, RecordState>,
    /// supporting credential → certificates that retain it.
    dep_index: HashMap<Crr, HashSet<CertId>>,
    fact_index: FactIndex,
}

oasis_obs::stats_set! {
    /// Counters from the foreign-credential validation cache (see
    /// [`ServiceConfig::with_validation_cache`]); series `vcache.*` of the
    /// service's registry.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ValidationCacheStats / ValidationCacheSeries {
        /// Validations answered from the cache, with no issuer callback.
        hits: u64 = counter,
        /// Validations that went through to the issuer (and were cached on
        /// success).
        misses: u64 = counter,
        /// Entries evicted by revocation events from the bus.
        invalidations: u64 = counter,
    }
}

/// Memo of successful foreign validations keyed `(credential, presenter)`,
/// TTL-bounded in virtual time and evicted eagerly on revocation events.
struct ValidationCache {
    ttl: u64,
    /// `(crr, presenter)` → virtual time the callback succeeded.
    entries: Mutex<HashMap<(Crr, PrincipalId), u64>>,
    series: ValidationCacheSeries,
}

impl ValidationCache {
    fn new(ttl: u64, metrics: &oasis_obs::Registry) -> Self {
        Self {
            ttl,
            entries: Mutex::new(HashMap::new()),
            series: ValidationCacheSeries::resolve(metrics, "vcache"),
        }
    }

    /// Whether a cached success for `(crr, presenter)` is still fresh at
    /// `now`. Entries from the future (virtual clocks may be reset) are
    /// treated as stale.
    fn lookup(&self, crr: &Crr, presenter: &PrincipalId, now: u64) -> bool {
        let fresh = self
            .age(crr, presenter, now)
            .is_some_and(|age| age <= self.ttl);
        if fresh {
            self.series.hits.inc();
        } else {
            self.series.misses.inc();
        }
        fresh
    }

    /// Age (ticks since the successful callback) of the entry for
    /// `(crr, presenter)`, regardless of TTL; `None` if absent or from
    /// the future. Does not touch the hit/miss counters — callers on the
    /// degraded path account explicitly.
    fn age(&self, crr: &Crr, presenter: &PrincipalId, now: u64) -> Option<u64> {
        self.entries
            .lock()
            .get(&(crr.clone(), presenter.clone()))
            .and_then(|&at| now.checked_sub(at))
    }

    fn store(&self, crr: Crr, presenter: PrincipalId, now: u64) {
        self.entries.lock().insert((crr, presenter), now);
    }

    /// Drops every entry whose credential was issued by `issuer`,
    /// returning how many were evicted. Used when an issuer turns dead:
    /// with its event channel silent, none of its cached validations can
    /// be trusted to reflect revocations any more.
    fn invalidate_issuer(&self, issuer: &ServiceId) -> u64 {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|(entry_crr, _), _| entry_crr.issuer != *issuer);
        let evicted = (before - entries.len()) as u64;
        drop(entries);
        if evicted > 0 {
            self.series.invalidations.add(evicted);
        }
        evicted
    }

    /// Drops every entry for `crr`, whoever presented it.
    fn invalidate(&self, crr: &Crr) {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|(entry_crr, _), _| entry_crr != crr);
        let evicted = (before - entries.len()) as u64;
        drop(entries);
        if evicted > 0 {
            self.series.invalidations.add(evicted);
        }
    }
}

/// A service secured by OASIS access control (Fig 2), owning its roles,
/// policy, credential records, and audit log.
///
/// Constructed with [`OasisService::new`], which returns an `Arc` because
/// the service subscribes itself to the event bus and the fact store for
/// active security. See the [crate-level example](crate).
///
/// The installed recorder and its span sink, replaced by
/// [`OasisService::set_obs`]; a [`oasis_obs::NoopRecorder`] until then.
struct ServiceObs {
    recorder: Arc<dyn oasis_obs::Recorder>,
    sink: oasis_obs::SpanSink,
}

impl ServiceObs {
    fn attach(recorder: Arc<dyn oasis_obs::Recorder>) -> Self {
        Self {
            sink: recorder.spans(),
            recorder,
        }
    }
}

/// Request outcomes, counted in the service's own registry as
/// `activate.ok`, `activate.denied`, `invoke.ok`, `invoke.denied` and
/// `revocations`.
struct RequestCounters {
    activations_ok: oasis_obs::Counter,
    activations_denied: oasis_obs::Counter,
    invocations_ok: oasis_obs::Counter,
    invocations_denied: oasis_obs::Counter,
    revocations: oasis_obs::Counter,
}

impl RequestCounters {
    fn resolve(metrics: &oasis_obs::Registry) -> Self {
        use oasis_obs::Recorder;
        Self {
            activations_ok: metrics.counter("activate.ok"),
            activations_denied: metrics.counter("activate.denied"),
            invocations_ok: metrics.counter("invoke.ok"),
            invocations_denied: metrics.counter("invoke.denied"),
            revocations: metrics.counter("revocations"),
        }
    }
}

/// A service secured by OASIS access control (Fig 2), owning its roles,
/// policy, credential records, and audit log.
///
/// Constructed with [`OasisService::new`], which returns an `Arc` because
/// the service subscribes itself to the event bus and the fact store for
/// active security. See the [crate-level example](crate).
///
/// All operations are safe to call from many threads at once; see the
/// [module docs](self) for the locking architecture.
pub struct OasisService {
    id: ServiceId,
    secret: IssuerSecret,
    bus: EventBus<CertEvent>,
    facts: Arc<FactStore<Value>>,
    audit: AuditLog,
    policy: RwLock<PolicyTable>,
    shards: [Mutex<CertShard>; SHARD_COUNT],
    vcache: Option<ValidationCache>,
    fa: Option<FailureAware>,
    durable: Option<Durable>,
    validator: RwLock<Option<Arc<dyn CredentialValidator>>>,
    overload: RwLock<Option<Arc<AdmissionController>>>,
    obs: RwLock<ServiceObs>,
    /// The service's own registry: the request counters at its root and
    /// the `plan.*`, `vcache.*` and `degradation.*` sets.
    metrics: oasis_obs::Registry,
    requests: RequestCounters,
    plans: PlanSeries,
    next_cert: AtomicU64,
    next_rule: AtomicU64,
    /// Virtual time of the most recent operation; used to timestamp
    /// event-driven revocations, which arrive without a context.
    last_now: AtomicU64,
    /// Fact-store epoch at the *start* of the last full membership
    /// re-check sweep (`u64::MAX` = never swept). When the epoch has not
    /// moved since, fact-only retained checks cannot have changed and
    /// the sweep skips them.
    last_sweep_epoch: AtomicU64,
}

impl fmt::Debug for OasisService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let records: usize = self.shards.iter().map(|s| s.lock().records.len()).sum();
        f.debug_struct("OasisService")
            .field("id", &self.id)
            .field("roles", &self.policy.read().roles.len())
            .field("records", &records)
            .finish()
    }
}

impl OasisService {
    /// Creates a service and wires it to the event bus and fact store for
    /// active security (Fig 5).
    pub fn new(config: ServiceConfig, facts: Arc<FactStore<Value>>) -> Arc<Self> {
        let metrics = oasis_obs::Registry::new();
        let service = Arc::new(Self {
            id: config.id,
            secret: config.secret.unwrap_or_else(IssuerSecret::random),
            bus: config.bus.unwrap_or_default(),
            facts: Arc::clone(&facts),
            audit: AuditLog::new(),
            policy: RwLock::new(PolicyTable::default()),
            shards: std::array::from_fn(|_| Mutex::new(CertShard::default())),
            vcache: config
                .validation_cache_ttl
                .map(|ttl| ValidationCache::new(ttl, &metrics)),
            fa: config.heartbeats.map(|hb| FailureAware {
                monitor: HeartbeatMonitor::new(hb.dead_after),
                grace: hb.grace,
                default_policy: hb.policy,
                overrides: RwLock::new(HashMap::new()),
                dead: Mutex::new(HashMap::new()),
                counters: DegradationSeries::resolve(&metrics, "degradation"),
            }),
            durable: config.journal.map(|store| Durable {
                store,
                snapshot_every: config.snapshot_every,
                appends_since_snapshot: AtomicU64::new(0),
                commit: RwLock::new(()),
                replaying: AtomicBool::new(false),
                catchup: AtomicBool::new(false),
                crash_after_append: AtomicBool::new(false),
                watermarks: Mutex::new(HashMap::new()),
                retain_publishes: config.revocation_retention.is_some(),
            }),
            validator: RwLock::new(None),
            overload: RwLock::new(None),
            obs: RwLock::new(ServiceObs::attach(Arc::new(oasis_obs::NoopRecorder))),
            requests: RequestCounters::resolve(&metrics),
            plans: PlanSeries::resolve(&metrics, "plan"),
            metrics,
            next_cert: AtomicU64::new(1),
            next_rule: AtomicU64::new(1),
            last_now: AtomicU64::new(0),
            last_sweep_epoch: AtomicU64::new(u64::MAX),
        });

        if let Some(capacity) = config.revocation_retention {
            service
                .bus
                .retain(revocation_topic(&service.id).as_str(), capacity)
                .expect("exact topic is a valid pattern and capacity >= 1");
        }

        // Revocation push: collapse certificates depending on a revoked
        // credential the moment the event is published (same thread), and
        // evict any cached validation of it. Durable services also
        // journal the delivery watermark per topic (gap detection after
        // a crash).
        let weak = Arc::downgrade(&service);
        service
            .bus
            .subscribe_fn("cred.revoked.#", move |event| {
                if let Some(svc) = Weak::upgrade(&weak) {
                    svc.handle_revocation_delivery(event);
                }
            })
            .expect("static pattern is valid");

        // Fact push: collapse certificates whose retained environmental
        // facts change.
        let weak = Arc::downgrade(&service);
        facts.watch(move |change| {
            if let Some(svc) = Weak::upgrade(&weak) {
                svc.handle_fact_change(change);
            }
        });

        service
    }

    /// The service's identity.
    pub fn id(&self) -> &ServiceId {
        &self.id
    }

    /// The event bus this service publishes revocations on.
    pub fn bus(&self) -> &EventBus<CertEvent> {
        &self.bus
    }

    /// The service's fact store.
    pub fn facts(&self) -> &Arc<FactStore<Value>> {
        &self.facts
    }

    /// The service's audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The issuer secret (exposed for secret-rotation scenarios).
    pub fn secret(&self) -> &IssuerSecret {
        &self.secret
    }

    /// Counters from the validation cache, or `None` when the cache is
    /// not enabled (see [`ServiceConfig::with_validation_cache`]).
    pub fn validation_cache_stats(&self) -> Option<ValidationCacheStats> {
        self.vcache.as_ref().map(|cache| cache.series.read())
    }

    /// Installs the validator used for credentials issued by *other*
    /// services (a [`LocalRegistry`](crate::validate::LocalRegistry), a
    /// domain CIV client, or a network client).
    pub fn set_validator(&self, validator: Arc<dyn CredentialValidator>) {
        *self.validator.write() = Some(validator);
    }

    /// Installs the admission controller guarding this service's front
    /// door (normally done by `oasis-wire` when overload control is
    /// enabled), making its stats visible through the service. Its series
    /// are adopted into the installed recorder as `<id>.overload.*`,
    /// replacing a previous controller's.
    pub fn set_overload(&self, controller: Arc<AdmissionController>) {
        self.obs.read().recorder.adopt(
            &format!("{}.overload", self.id.as_str()),
            controller.metrics(),
        );
        *self.overload.write() = Some(controller);
    }

    /// The installed admission controller, if any.
    pub fn overload(&self) -> Option<Arc<AdmissionController>> {
        self.overload.read().clone()
    }

    /// Installs an observability recorder: causal spans are recorded
    /// through it, and it adopts the service's series — the request
    /// counters and the `plan`, `vcache` and `degradation` sets as
    /// `<id>.*`, the event bus as `<id>.bus.*` and, when installed, the
    /// admission controller as `<id>.overload.*` — so one
    /// [`oasis_obs::Recorder::snapshot_json`] call returns the whole
    /// service. The series count from construction on, whether or not a
    /// recorder is installed.
    pub fn set_obs(self: &Arc<Self>, recorder: Arc<dyn oasis_obs::Recorder>) {
        let id = self.id.as_str();
        recorder.adopt(id, &self.metrics);
        recorder.adopt(&format!("{id}.bus"), self.bus.metrics());
        if let Some(ctrl) = self.overload.read().as_ref() {
            recorder.adopt(&format!("{id}.overload"), ctrl.metrics());
        }
        *self.obs.write() = ServiceObs::attach(recorder);
    }

    /// The installed observability recorder (a
    /// [`oasis_obs::NoopRecorder`] until [`OasisService::set_obs`]).
    pub fn obs_recorder(&self) -> Arc<dyn oasis_obs::Recorder> {
        Arc::clone(&self.obs.read().recorder)
    }

    /// The service's own registry (see [`OasisService::set_obs`] for its
    /// series).
    pub fn metrics(&self) -> &oasis_obs::Registry {
        &self.metrics
    }

    /// Overload-control counters, or `None` when no admission controller
    /// is installed (see [`OasisService::set_overload`]).
    pub fn overload_stats(&self) -> Option<OverloadStats> {
        self.overload.read().as_ref().map(|c| c.stats())
    }

    /// Virtual time of the most recent operation this service handled.
    /// Event- and transport-driven code paths (which arrive without an
    /// [`EnvContext`]) use it to timestamp audit entries.
    pub fn last_seen_now(&self) -> u64 {
        self.last_now.load(Ordering::Relaxed)
    }

    fn record_shard(&self, cert_id: CertId) -> &Mutex<CertShard> {
        &self.shards[shard_of_cert(cert_id)]
    }

    // ------------------------------------------------------------------
    // Durability: write-ahead journal, snapshots, recovery, catch-up
    // ------------------------------------------------------------------

    /// Journals the event `event` builds (no-op without a journal, or
    /// while recovery is replaying — the event is then never built):
    /// buffered when this thread has a revocation scope open for this
    /// service — the scope's flush appends it — and appended right away
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`OasisError::Journal`] when the backing store rejects an
    /// immediate append — the caller decides whether that aborts the
    /// operation (issuance: yes) or merely loses durability
    /// (validation memo, epoch marker: no). Buffering cannot fail.
    fn journal(&self, event: impl FnOnce() -> SecurityEvent) -> Result<(), OasisError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        if d.replaying.load(Ordering::Relaxed) {
            return Ok(());
        }
        let Some(event) = durable::buffer_in_scope(self.scope_owner(), event()) else {
            return Ok(());
        };
        d.store
            .append(&event)
            .map_err(|e| OasisError::Journal(e.to_string()))?;
        d.appends_since_snapshot.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// This service's key in the per-thread revocation-scope table.
    fn scope_owner(&self) -> usize {
        std::ptr::from_ref(self).addr()
    }

    /// Opens this service's *revocation scope* on the calling thread,
    /// unless it is open already (`None`: the caller runs inside an
    /// outer operation's scope). Until the returned guard drops, every
    /// [`OasisService::journal`] call on this thread buffers; the drop
    /// appends the buffer as one batch — sequence numbers are assigned
    /// there, never while buffering — and then takes a due
    /// auto-snapshot. Every operation that revokes opens one, so the
    /// outermost flushes the whole cascade once, before it returns and
    /// hence before anything is acknowledged.
    ///
    /// Declare the guard *after* any `oasis_obs` scope guard: locals
    /// drop in reverse order, and the flush must still see the
    /// operation's trace context.
    ///
    /// Issuance never runs inside a scope (nothing a cascade calls
    /// issues a certificate), so its append stays write-ahead.
    fn revocation_scope(&self) -> Option<RevocationScope<'_>> {
        let durable = self.durable.as_ref()?;
        // Lazily: a guard built for a nested call would flush the outer
        // operation's buffer when it dropped.
        durable::open_scope(self.scope_owner()).then(|| RevocationScope {
            service: self,
            durable,
        })
    }

    /// True exactly once after [`OasisService::chaos_arm_crash_after_journal`]:
    /// the caller must return *without* applying the journalled change,
    /// simulating a crash inside the append→apply window.
    fn chaos_crash_pending(&self) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|d| d.crash_after_append.swap(false, Ordering::Relaxed))
    }

    /// Arms the kill-during-commit chaos hook: the next journalled
    /// operation appends its event and then "crashes" (returns a
    /// failure) without applying it in memory. Recovery replay must
    /// heal exactly this window. Returns `false` without a journal.
    #[doc(hidden)]
    pub fn chaos_arm_crash_after_journal(&self) -> bool {
        match &self.durable {
            Some(d) => {
                d.crash_after_append.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Takes an automatic snapshot when the configured append budget is
    /// spent. Called from mutating operations *after* their in-memory
    /// apply (revocations: after the scope's flush), with no lock held.
    fn maybe_autosnapshot(&self) {
        let Some(d) = &self.durable else {
            return;
        };
        let Some(every) = d.snapshot_every else {
            return;
        };
        if d.appends_since_snapshot.load(Ordering::Relaxed) >= every {
            let _ = self.snapshot();
        }
    }

    /// Memoises a successful foreign validation and journals it, so a
    /// recovered service restores its cache warmth instead of
    /// stampeding issuers with callbacks.
    fn remember_validation(&self, crr: &Crr, presenter: &PrincipalId, now: u64) {
        if let Some(cache) = &self.vcache {
            cache.store(crr.clone(), presenter.clone(), now);
            let _ = self.journal(|| SecurityEvent::ValidationGranted {
                crr: crr.clone(),
                presenter: presenter.clone(),
                at: now,
            });
            self.maybe_autosnapshot();
        }
    }

    /// Rotates the issuer secret to a fresh epoch, journalling the
    /// policy-epoch change. Certificates issued under previous epochs
    /// keep verifying until those epochs are retired.
    pub fn rotate_secret(&self, now: u64) -> SecretEpoch {
        self.last_now.store(now, Ordering::Relaxed);
        let epoch = self.secret.rotate();
        let _ = self.journal(|| SecurityEvent::EpochChanged {
            epoch: epoch.0,
            at: now,
        });
        self.maybe_autosnapshot();
        epoch
    }

    /// Journal append/byte/heal counters, or `None` without a journal.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.durable.as_ref().map(|d| d.store.journal_stats())
    }

    /// Writes a [`ServiceSnapshot`] of the full record, dependency, and
    /// watermark state and truncates the journal records it covers.
    /// Returns how many journal records were truncated (0 without a
    /// journal).
    ///
    /// # Errors
    ///
    /// [`OasisError::Journal`] when the snapshot store rejects the
    /// write; the journal is left untouched in that case.
    pub fn snapshot(&self) -> Result<u64, OasisError> {
        let Some(d) = &self.durable else {
            return Ok(0);
        };
        // Exclusive against every journal-append → apply window: no
        // event ≤ covered_seq can still be unapplied while we scan.
        let commit = d.commit.write();
        let covered = d.store.last_seq();
        let mut records: Vec<SnapshotRecord> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            records.extend(shard.records.values().map(|r| SnapshotRecord {
                record: r.record.clone(),
                depends_on: r.depends_on.clone(),
                retained_checks: r.retained_checks().to_vec(),
            }));
        }
        drop(commit);
        records.sort_by_key(|r| r.record.crr.cert_id.0);
        let watermarks = self.watermarks();
        // Capture the own-topic retained ring (empty when retention is
        // off): a replay from 0 returns exactly the ring contents.
        let retained = self
            .bus
            .replay_after(&revocation_topic(&self.id), 0)
            .0
            .iter()
            .map(RetainedEntry::from_delivered)
            .collect();
        let snap = ServiceSnapshot {
            next_cert: self.next_cert.load(Ordering::Relaxed),
            records,
            watermarks,
            retained,
        };
        let truncated = d
            .store
            .write_snapshot(covered, &snap)
            .map_err(|e| OasisError::Journal(e.to_string()))?;
        d.appends_since_snapshot.store(0, Ordering::Relaxed);
        Ok(truncated)
    }

    /// The per-topic revocation watermarks currently held, sorted by
    /// topic (empty without a journal).
    pub fn watermarks(&self) -> Vec<Watermark> {
        let Some(d) = &self.durable else {
            return Vec::new();
        };
        let wm = d.watermarks.lock();
        let mut out: Vec<Watermark> = wm
            .iter()
            .map(|(topic, &(topic_seq, global_seq))| Watermark {
                topic: topic.clone(),
                topic_seq,
                global_seq,
            })
            .collect();
        drop(wm);
        out.sort_by(|a, b| a.topic.cmp(&b.topic));
        out
    }

    /// Rebuilds the service's certificate, dependency, cache, and
    /// watermark state from the journal: loads the newest valid
    /// snapshot (a corrupt one is *ignored*, falling back to full
    /// replay) and replays the journal suffix idempotently. Policy
    /// (roles and rules) is configuration, not state — re-install it
    /// before or after calling this.
    ///
    /// When any state was restored, the report's `catchup_required` is
    /// set and [`OasisService::catchup_pending`] turns true: until
    /// [`OasisService::catch_up`] (or [`OasisService::complete_catchup`])
    /// runs, cached foreign validations are treated as suspect, because
    /// revocations may have been published while this service was down.
    ///
    /// Secret material is intentionally never journalled; a service
    /// whose secret rotated before the crash must be reconstructed with
    /// [`ServiceConfig::with_secret`].
    ///
    /// # Errors
    ///
    /// [`OasisError::Journal`] when the backing store cannot be read at
    /// all. Torn tails and corrupt snapshots are *not* errors — they
    /// are healed/skipped and reported in the [`RecoveryReport`].
    pub fn recover(&self, now: u64) -> Result<RecoveryReport, OasisError> {
        let Some(d) = &self.durable else {
            return Ok(RecoveryReport::default());
        };
        self.last_now.store(now, Ordering::Relaxed);
        let recovered = d
            .store
            .load()
            .map_err(|e| OasisError::Journal(e.to_string()))?;
        // A torn tail may have been healed when the journal was opened
        // (before this call) or surface now at load time; report both.
        let mut report = RecoveryReport {
            snapshot_corrupt: recovered.snapshot_corrupt,
            torn_tail_bytes: recovered.tail.torn_bytes + d.store.open_tail().torn_bytes,
            ..RecoveryReport::default()
        };
        d.replaying.store(true, Ordering::Relaxed);
        if let Some((covered, snapshot)) = recovered.snapshot {
            report.snapshot_covered_seq = covered;
            self.apply_snapshot(snapshot, &mut report);
        }
        for (_seq, event) in &recovered.events {
            self.apply_event(event, &mut report);
            report.events_replayed += 1;
        }
        d.replaying.store(false, Ordering::Relaxed);
        report.watermarks = self.watermarks();
        if report.records_restored > 0
            || report.events_replayed > 0
            || report.snapshot_covered_seq > 0
        {
            d.catchup.store(true, Ordering::Relaxed);
            report.catchup_required = true;
        }
        self.audit.record(
            now,
            AuditKind::Recovered {
                events_replayed: report.events_replayed,
                records_restored: report.records_restored,
            },
        );
        Ok(report)
    }

    /// Applies a loaded snapshot: records and their dependency edges,
    /// the next certificate id, and the delivery watermarks.
    fn apply_snapshot(&self, snapshot: ServiceSnapshot, report: &mut RecoveryReport) {
        for entry in snapshot.records {
            let cert_id = entry.record.crr.cert_id;
            if self
                .record_shard(cert_id)
                .lock()
                .records
                .contains_key(&cert_id)
            {
                continue;
            }
            self.install_record(RecordState::new(
                &self.id,
                entry.record,
                entry.depends_on,
                entry.retained_checks,
            ));
            report.records_restored += 1;
        }
        self.next_cert
            .fetch_max(snapshot.next_cert, Ordering::Relaxed);
        if let Some(d) = &self.durable {
            let mut wm = d.watermarks.lock();
            for mark in snapshot.watermarks {
                let entry = wm.entry(mark.topic).or_insert((0, 0));
                entry.0 = entry.0.max(mark.topic_seq);
                entry.1 = entry.1.max(mark.global_seq);
            }
        }
        for entry in &snapshot.retained {
            self.bus.restore_retained(entry.to_delivered());
            report.retained_restored += 1;
        }
    }

    /// Replays one journalled event. Idempotent: replaying an event
    /// whose effect is already present (snapshot overlap, duplicate
    /// replay, crash-after-apply) changes nothing.
    fn apply_event(&self, event: &SecurityEvent, report: &mut RecoveryReport) {
        match event {
            SecurityEvent::CertIssued {
                record,
                depends_on,
                retained_checks,
            } => {
                let cert_id = record.crr.cert_id;
                if self
                    .record_shard(cert_id)
                    .lock()
                    .records
                    .contains_key(&cert_id)
                {
                    return;
                }
                self.install_record(RecordState::new(
                    &self.id,
                    record.clone(),
                    depends_on.clone(),
                    retained_checks.clone(),
                ));
                self.next_cert.fetch_max(cert_id.0 + 1, Ordering::Relaxed);
                report.records_restored += 1;
            }
            SecurityEvent::ValidationGranted { crr, presenter, at } => {
                if let Some(cache) = &self.vcache {
                    cache.store(crr.clone(), presenter.clone(), *at);
                    report.validations_restored += 1;
                }
            }
            SecurityEvent::CertRevoked {
                cert_id,
                reason,
                at,
            } => {
                if self.replay_status_change(
                    *cert_id,
                    CredStatus::Revoked {
                        reason: reason.clone(),
                        at: *at,
                    },
                ) {
                    report.revocations_replayed += 1;
                }
            }
            SecurityEvent::CertExpired { cert_id, at } => {
                if self.replay_status_change(*cert_id, CredStatus::Expired { at: *at }) {
                    report.revocations_replayed += 1;
                }
            }
            SecurityEvent::RevocationApplied {
                topic,
                topic_seq,
                global_seq,
                crr,
            } => {
                if let Some(cache) = &self.vcache {
                    cache.invalidate(crr);
                }
                // The live cascade consumed this dependency entry and
                // journalled each collapsed certificate as its own
                // CertRevoked event, so replay only mirrors the index
                // removal and the watermark.
                self.shards[shard_of_hash(crr)].lock().dep_index.remove(crr);
                if let Some(d) = &self.durable {
                    let mut wm = d.watermarks.lock();
                    let entry = wm.entry(topic.clone()).or_insert((0, 0));
                    entry.0 = entry.0.max(*topic_seq);
                    entry.1 = entry.1.max(*global_seq);
                }
            }
            // Secret material is never journalled; the epoch marker is
            // an audit fact, not replayable state.
            SecurityEvent::EpochChanged { .. } => {}
            SecurityEvent::RetainedPublished { entry } => {
                // Rebuild the own-topic retained ring with the original
                // bus numbering; restore is idempotent and order-free,
                // so snapshot/journal overlap is harmless.
                self.bus.restore_retained(entry.to_delivered());
                report.retained_restored += 1;
            }
        }
    }

    /// Marks a record's status during replay, mirroring the index
    /// cleanup the live revocation path performs. Returns whether the
    /// record was active (i.e. the replay changed anything).
    fn replay_status_change(&self, cert_id: CertId, status: CredStatus) -> bool {
        let crr = {
            let mut shard = self.record_shard(cert_id).lock();
            let Some(rec) = shard.records.get_mut(&cert_id) else {
                return false;
            };
            if !rec.record.status.is_active() {
                return false;
            }
            rec.record.status = status;
            rec.record.crr.clone()
        };
        // The live publish→subscribe cycle removed the revoked
        // certificate's own dependency entry (cascade bookkeeping).
        self.shards[shard_of_hash(&crr)]
            .lock()
            .dep_index
            .remove(&crr);
        true
    }

    /// Inserts a record and its dependency/fact edges — edges first,
    /// then the record, one shard lock at a time (same ordering as
    /// live issuance). Inactive records get no edges: nothing may
    /// cascade off a revoked certificate.
    fn install_record(&self, state: RecordState) {
        let cert_id = state.record.crr.cert_id;
        if state.record.status.is_active() {
            for dep in &state.depends_on {
                self.shards[shard_of_hash(dep)]
                    .lock()
                    .dep_index
                    .entry(dep.clone())
                    .or_default()
                    .insert(cert_id);
            }
            for atom in state.retained_checks() {
                if let Atom::EnvFact {
                    relation,
                    args,
                    negated,
                } = atom
                {
                    if let Some(tuple) = args.iter().map(term_as_const).collect::<Option<Vec<_>>>()
                    {
                        let key = (relation.clone(), tuple);
                        self.shards[shard_of_hash(&key)]
                            .lock()
                            .fact_index
                            .entry(key)
                            .or_default()
                            .push((cert_id, !negated));
                    }
                }
            }
        }
        self.record_shard(cert_id)
            .lock()
            .records
            .insert(cert_id, state);
    }

    /// Whether recovery restored state that has not yet been reconciled
    /// with the bus ([`OasisService::catch_up`]). While pending, cached
    /// foreign validations never grant on their own.
    pub fn catchup_pending(&self) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|d| d.catchup.load(Ordering::Relaxed))
    }

    /// Clears the catch-up-pending flag. [`OasisService::catch_up`]
    /// does this implicitly only when its replay was gap-free; call it
    /// directly when the operator accepts the risk (or no issuers are
    /// involved).
    pub fn complete_catchup(&self) {
        if let Some(d) = &self.durable {
            d.catchup.store(false, Ordering::Relaxed);
        }
    }

    /// Closes the revocation-delivery gap for one topic after recovery:
    /// replays every event after our persisted watermark from the
    /// publisher's retained ring on `source`
    /// ([`EventBus::replay_after`]) and applies each one exactly once
    /// (already-seen sequence numbers are skipped).
    ///
    /// If the ring had already evicted part of the gap (`complete` is
    /// `false` in the report), every cached validation for that topic's
    /// issuer is dropped — missed revocations can then only be
    /// discovered by fresh issuer callbacks, which is the safe side.
    /// A gap-free replay clears [`OasisService::catchup_pending`].
    pub fn catch_up(&self, source: &EventBus<CertEvent>, topic: &str, now: u64) -> CatchUpReport {
        let after = self.watermark_for(topic);
        let (events, complete) = source.replay_after(&Topic::new(topic), after);
        self.catch_up_with(topic, &events, complete, now)
    }

    /// The persisted per-topic watermark: the highest `topic_seq` this
    /// service has applied from `topic` (0 when none). This is the
    /// `after` value to hand a remote publisher when requesting a
    /// resync over the wire.
    pub fn watermark_for(&self, topic: &str) -> u64 {
        self.durable
            .as_ref()
            .and_then(|d| d.watermarks.lock().get(topic).map(|&(ts, _)| ts))
            .unwrap_or(0)
    }

    /// Replays this service's own retained ring for `topic` — the
    /// publisher side of a catch-up resync. A server hosting this
    /// service answers a subscriber's resync request with exactly this.
    /// Requires [`ServiceConfig::with_revocation_retention`] (an
    /// unretained topic replays nothing, and `complete` is only `true`
    /// if nothing was ever published on it).
    pub fn replay_retained(
        &self,
        topic: &str,
        after_topic_seq: u64,
    ) -> (Vec<DeliveredEvent<CertEvent>>, bool) {
        self.bus.replay_after(&Topic::new(topic), after_topic_seq)
    }

    /// As [`OasisService::catch_up`], but applying an event batch
    /// fetched elsewhere — typically a wire-layer resync response from
    /// the publisher. `complete` must be the publisher's gap-free flag
    /// for the batch; passing `true` for an incomplete batch silently
    /// loses revocations.
    pub fn catch_up_with(
        &self,
        topic: &str,
        events: &[DeliveredEvent<CertEvent>],
        complete: bool,
        now: u64,
    ) -> CatchUpReport {
        let _batch = self.revocation_scope();
        self.last_now.store(now, Ordering::Relaxed);
        let mut report = CatchUpReport {
            replayed: events.len() as u64,
            applied: 0,
            complete,
        };
        for event in events {
            if self.apply_resynced(event) {
                report.applied += 1;
            }
        }
        if complete {
            self.complete_catchup();
        } else if let Some(cache) = &self.vcache {
            if let Some(issuer) = topic.strip_prefix("cred.revoked.") {
                cache.invalidate_issuer(&ServiceId::new(issuer));
            }
        }
        report
    }

    /// Applies one resynced revocation event unless its sequence number
    /// is at or below the topic watermark (already applied before the
    /// crash, or duplicated by overlapping catch-ups).
    fn apply_resynced(&self, event: &DeliveredEvent<CertEvent>) -> bool {
        if let Some(d) = &self.durable {
            let wm = d.watermarks.lock();
            if let Some(&(topic_seq, _)) = wm.get(event.topic.as_str()) {
                if event.topic_seq <= topic_seq {
                    return false;
                }
            }
        }
        self.handle_revocation_delivery(event);
        true
    }

    /// Every `cred.revoked.*` delivery lands here — live from the bus
    /// or resynced by [`OasisService::catch_up`]: evict the cache,
    /// journal the watermark (foreign topics only: our own revocations
    /// are already journalled as [`SecurityEvent::CertRevoked`]), and
    /// run the dependency cascade.
    fn handle_revocation_delivery(&self, event: &DeliveredEvent<CertEvent>) {
        // Cascade hop: parent this subscriber's work on the publication
        // that caused it, and pin the child context so transitive
        // collapses (which re-enter `revoke_certificate` on this thread)
        // chain onto this span.
        let sink = self.obs.read().sink.clone();
        let _scope = if sink.is_recording() {
            event.trace.map(|trace| {
                let child = sink.emit(
                    trace,
                    self.id.as_str(),
                    "svc.cascade",
                    event.timestamp,
                    event.timestamp,
                );
                oasis_obs::scope(child)
            })
        } else {
            None
        };
        let _batch = self.revocation_scope();
        if let Some(cache) = &self.vcache {
            cache.invalidate(&event.payload.crr);
        }
        if let Some(d) = self
            .durable
            .as_ref()
            .filter(|_| event.topic != revocation_topic(&self.id))
        {
            let _ = self.journal(|| SecurityEvent::RevocationApplied {
                topic: event.topic.as_str().to_string(),
                topic_seq: event.topic_seq,
                global_seq: event.global_seq,
                crr: event.payload.crr.clone(),
            });
            let mut wm = d.watermarks.lock();
            let entry = wm.entry(event.topic.as_str().to_string()).or_insert((0, 0));
            entry.0 = entry.0.max(event.topic_seq);
            entry.1 = entry.1.max(event.global_seq);
        }
        self.handle_revocation_event(&event.payload);
    }

    /// Publishes on this service's own revocation topic and — when the
    /// topic is retained and a journal is attached — journals the
    /// publication with its bus-assigned sequence numbers
    /// ([`SecurityEvent::RetainedPublished`]). The retained ring is the
    /// authoritative source subscribers catch up from, so it must
    /// survive a crash or replica failover with its numbering intact.
    fn publish_revocation_event(&self, event: CertEvent, now: u64) {
        let topic = revocation_topic(&self.id);
        let journalled = self
            .durable
            .as_ref()
            .is_some_and(|d| d.retain_publishes && !d.replaying.load(Ordering::Relaxed))
            .then(|| event.clone());
        let (topic_seq, global_seq, _delivered) = self.bus.publish_at_tracked(&topic, event, now);
        if let Some(event) = journalled {
            // Best-effort, like the CertRevoked append itself: losing
            // the ring entry degrades catch-up completeness, never
            // blocks the revocation.
            let _ = self.journal(|| SecurityEvent::RetainedPublished {
                entry: RetainedEntry {
                    topic: topic.as_str().to_string(),
                    topic_seq,
                    global_seq,
                    timestamp: now,
                    event,
                },
            });
        }
    }

    // ------------------------------------------------------------------
    // Failure awareness (issuer heartbeats and degradation)
    // ------------------------------------------------------------------

    /// Starts monitoring `issuer` as a heartbeat source expected to beat
    /// every `interval` ticks, with an implicit first beat at `now`.
    /// Re-watching a known issuer resets its beat clock and clears any
    /// dead-issuer state. Returns `false` when the failure-aware layer is
    /// off ([`ServiceConfig::with_heartbeats`] not configured).
    pub fn watch_issuer(&self, issuer: &ServiceId, interval: u64, now: u64) -> bool {
        match &self.fa {
            Some(fa) => {
                fa.monitor
                    .register(FailureAware::source(issuer), interval, now);
                fa.dead.lock().remove(issuer);
                true
            }
            None => false,
        }
    }

    /// Overrides the [`DegradationPolicy`] for one issuer (others keep the
    /// [`HeartbeatConfig::policy`] default). Returns `false` when the
    /// failure-aware layer is off.
    pub fn set_issuer_policy(&self, issuer: &ServiceId, policy: DegradationPolicy) -> bool {
        match &self.fa {
            Some(fa) => {
                fa.overrides.write().insert(issuer.clone(), policy);
                true
            }
            None => false,
        }
    }

    /// Records a heartbeat from `issuer` at `now`. A beat from an issuer
    /// previously observed dead clears its dead-issuer state (its evicted
    /// cache entries stay evicted, and any degraded roles stay revoked —
    /// clients re-activate against the live issuer). Returns `false` if
    /// the issuer is not watched or the layer is off.
    pub fn issuer_beat(&self, issuer: &ServiceId, now: u64) -> bool {
        let Some(fa) = &self.fa else {
            return false;
        };
        self.last_now.store(now, Ordering::Relaxed);
        if !fa.monitor.beat(&FailureAware::source(issuer), now) {
            return false;
        }
        if fa.dead.lock().remove(issuer).is_some() {
            fa.counters.issuer_recoveries.inc();
        }
        true
    }

    /// The health of a watched issuer at `now`, or `None` when the issuer
    /// is unwatched or the failure-aware layer is off.
    pub fn issuer_health(&self, issuer: &ServiceId, now: u64) -> Option<SourceHealth> {
        self.fa
            .as_ref()?
            .monitor
            .health(&FailureAware::source(issuer), now)
    }

    /// Counters from the failure-aware layer, or `None` when it is off.
    pub fn degradation_stats(&self) -> Option<DegradationStats> {
        self.fa.as_ref().map(|fa| fa.counters.read())
    }

    /// Advances the failure-aware layer to `now`: issuers newly observed
    /// dead get their cached validations evicted, and dead issuers past
    /// the [`HeartbeatConfig::grace`] period under
    /// [`DegradationPolicy::FailSafe`] have their dependent certificates
    /// deactivated through the ordinary revocation cascade. Call this
    /// periodically (each simulator tick, or on a maintenance timer).
    /// Returns the CRRs revoked directly by degradation.
    pub fn tick_heartbeats(&self, now: u64) -> Vec<Crr> {
        let Some(fa) = &self.fa else {
            return Vec::new();
        };
        self.last_now.store(now, Ordering::Relaxed);
        for (source, health) in fa.monitor.overdue(now) {
            if health == SourceHealth::Dead {
                self.note_issuer_dead(&ServiceId::new(source.0), now);
            }
        }
        // Collect grace-expired fail-safe issuers under the ledger lock,
        // then revoke with no lock held (cascades re-enter the shards).
        let mut expired: Vec<ServiceId> = Vec::new();
        {
            let mut dead = fa.dead.lock();
            for (issuer, entry) in dead.iter_mut() {
                if entry.degraded || now.saturating_sub(entry.since) < fa.grace {
                    continue;
                }
                if fa.policy_for(issuer) == DegradationPolicy::FailSafe {
                    entry.degraded = true;
                    expired.push(issuer.clone());
                }
            }
        }
        expired.sort();
        let mut revoked = Vec::new();
        for issuer in expired {
            fa.counters.degraded_issuers.inc();
            revoked.extend(self.deactivate_issuer_dependents(&issuer, now));
        }
        revoked
    }

    /// Enters `issuer` in the dead ledger (first observation stamps
    /// `since`) and evicts its cached validations, once.
    fn note_issuer_dead(&self, issuer: &ServiceId, now: u64) {
        let Some(fa) = &self.fa else {
            return;
        };
        let mut dead = fa.dead.lock();
        let entry = dead.entry(issuer.clone()).or_insert(DeadIssuer {
            since: now,
            evicted: false,
            degraded: false,
        });
        if entry.evicted {
            return;
        }
        entry.evicted = true;
        drop(dead);
        if let Some(cache) = &self.vcache {
            let evicted = cache.invalidate_issuer(issuer);
            fa.counters.dead_evictions.add(evicted);
        }
    }

    /// Revokes every active certificate that retains a credential issued
    /// by `issuer` (the fail-safe degradation step). Cascades collapse
    /// transitive dependents as for any other revocation.
    fn deactivate_issuer_dependents(&self, issuer: &ServiceId, now: u64) -> Vec<Crr> {
        let _batch = self.revocation_scope();
        let mut victims: Vec<Crr> = Vec::new();
        // Ascending shard order, one lock at a time.
        for shard in &self.shards {
            let shard = shard.lock();
            victims.extend(
                shard
                    .records
                    .values()
                    .filter(|r| {
                        r.record.status.is_active()
                            && r.depends_on.iter().any(|dep| dep.issuer == *issuer)
                    })
                    .map(|r| r.record.crr.clone()),
            );
        }
        victims.sort_by_key(|crr| crr.cert_id.0);
        let fa = self.fa.as_ref().expect("degradation requires heartbeats");
        let reason = format!("issuer `{issuer}` dead: fail-safe degradation");
        let mut revoked = Vec::new();
        for crr in victims {
            // Cascades may have collapsed later victims already.
            if self.revoke_certificate(crr.cert_id, &reason, now) {
                fa.counters.degraded_certs.inc();
                revoked.push(crr);
            }
        }
        revoked
    }

    // ------------------------------------------------------------------
    // Policy definition
    // ------------------------------------------------------------------

    /// Defines a role with a typed parameter schema.
    ///
    /// # Errors
    ///
    /// [`OasisError::DuplicateRole`] /
    /// [`OasisError::DuplicateParam`].
    pub fn define_role(
        &self,
        name: impl Into<RoleName>,
        params: &[(&str, ValueType)],
        initial: bool,
    ) -> Result<(), OasisError> {
        let name = name.into();
        let schema = params.iter().map(|(n, t)| ((*n).to_string(), *t)).collect();
        let def = RoleDef::new(name.clone(), schema, initial)?;
        let mut policy = self.policy.write();
        if policy.roles.contains_key(&name) {
            return Err(OasisError::DuplicateRole(name));
        }
        policy.roles.insert(name, def);
        Ok(())
    }

    /// The definition of a role, if present.
    pub fn role(&self, name: &RoleName) -> Option<RoleDef> {
        self.policy.read().roles.get(name).cloned()
    }

    /// Adds an activation rule `role(head_args) ← conditions`, with
    /// `membership` naming the condition indices that must remain true
    /// while the role is active.
    ///
    /// # Errors
    ///
    /// [`OasisError::UnknownRole`] if the role is undefined;
    /// [`OasisError::BadMembershipIndex`] for a bad membership index.
    pub fn add_activation_rule(
        &self,
        role: impl Into<RoleName>,
        head_args: Vec<Term>,
        conditions: Vec<Atom>,
        membership: Vec<usize>,
    ) -> Result<RuleId, OasisError> {
        let role = role.into();
        let id = RuleId(self.next_rule.fetch_add(1, Ordering::Relaxed));
        let rule = ActivationRule {
            id,
            role: role.clone(),
            head_args,
            conditions,
            membership,
        };
        rule.validate()?;
        let plan = RulePlan::compile(&self.id, &rule.head_args, &rule.conditions);
        let mut policy = self.policy.write();
        if !policy.roles.contains_key(&role) {
            return Err(OasisError::UnknownRole(role));
        }
        // Prerequisite DAG: local prereq → this role. (Foreign prereqs
        // are tracked per-certificate by the dependency index, not here.)
        for cond in &rule.conditions {
            if let Atom::Prereq {
                service,
                role: prereq,
                ..
            } = cond
            {
                if service.as_ref().is_none_or(|s| *s == self.id) {
                    policy
                        .prereq_children
                        .entry(prereq.clone())
                        .or_default()
                        .insert(role.clone());
                }
            }
        }
        self.plans.count(&plan);
        Arc::make_mut(policy.activation_rules.entry(role).or_default())
            .push(CompiledRule { rule, plan });
        Ok(id)
    }

    /// Adds a service-use rule for `method(head_args)`.
    pub fn add_invocation_rule(
        &self,
        method: impl Into<String>,
        head_args: Vec<Term>,
        conditions: Vec<Atom>,
    ) -> RuleId {
        let method = method.into();
        let id = RuleId(self.next_rule.fetch_add(1, Ordering::Relaxed));
        let rule = InvocationRule {
            id,
            method: method.clone(),
            head_args,
            conditions,
        };
        let plan = RulePlan::compile(&self.id, &rule.head_args, &rule.conditions);
        self.plans.count(&plan);
        let mut policy = self.policy.write();
        Arc::make_mut(policy.invocation_rules.entry(method).or_default())
            .push(CompiledRule { rule, plan });
        id
    }

    /// Grants `role` the privilege of issuing appointment certificates of
    /// kind `appointment`.
    ///
    /// # Errors
    ///
    /// [`OasisError::UnknownRole`] if the role is undefined.
    pub fn grant_appointer(
        &self,
        role: impl Into<RoleName>,
        appointment: impl Into<String>,
    ) -> Result<(), OasisError> {
        let role = role.into();
        let mut policy = self.policy.write();
        if !policy.roles.contains_key(&role) {
            return Err(OasisError::UnknownRole(role));
        }
        policy
            .appointers
            .entry(appointment.into())
            .or_default()
            .insert(role);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Credential validation
    // ------------------------------------------------------------------

    /// Validates a certificate *this service issued*: signature (against
    /// the presenting principal), issuer record, status, and expiry.
    /// This is the issuer side of the validation callback (Sect. 4).
    ///
    /// # Errors
    ///
    /// [`OasisError::InvalidCredential`] or
    /// [`OasisError::UnknownCertificate`].
    pub fn validate_own(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let key = self.own_key(credential)?;
        if !credential.verify(&key, presenter) {
            return Err(OasisError::InvalidCredential {
                crr: credential.crr().clone(),
                reason: "signature check failed (tampered, forged, or stolen)".into(),
            });
        }
        self.own_standing(credential, presenter, now)
    }

    /// The secret an own certificate was signed under: the credential
    /// names this service as its issuer, and its epoch's secret has not
    /// been retired.
    fn own_key(&self, credential: &Credential) -> Result<SecretKey, OasisError> {
        let crr = credential.crr();
        if crr.issuer != self.id {
            return Err(OasisError::InvalidCredential {
                crr: crr.clone(),
                reason: format!("not issued by `{}`", self.id),
            });
        }
        self.secret
            .key_for(credential.epoch())
            .ok_or_else(|| OasisError::InvalidCredential {
                crr: crr.clone(),
                reason: format!(
                    "secret {} retired; certificate must be re-issued",
                    credential.epoch()
                ),
            })
    }

    /// The standing of an own certificate whose MAC has been verified:
    /// not past its expiry (lazy expiry: an appointment certificate past
    /// its deadline is marked expired and its dependents collapse), its
    /// record present, held by `presenter`, and active. Together with
    /// `own_key` it is every check of [`OasisService::validate_own`] but
    /// the MAC.
    fn own_standing(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let crr = credential.crr();
        if let Credential::Appointment(appt) = credential {
            if appt.is_expired(now) {
                self.expire_certificate(crr.cert_id, now);
                return Err(OasisError::InvalidCredential {
                    crr: crr.clone(),
                    reason: "expired".into(),
                });
            }
        }

        let shard = self.record_shard(crr.cert_id).lock();
        let Some(rec) = shard.records.get(&crr.cert_id) else {
            drop(shard);
            return Err(OasisError::UnknownCertificate(crr.clone()));
        };
        if rec.record.principal != *presenter {
            return Err(OasisError::InvalidCredential {
                crr: crr.clone(),
                reason: "presented by a different principal".into(),
            });
        }
        match &rec.record.status {
            CredStatus::Active => Ok(()),
            status => Err(OasisError::InvalidCredential {
                crr: crr.clone(),
                reason: status.to_string(),
            }),
        }
    }

    /// Validates any credential: own certificates directly, foreign ones
    /// through the configured validator (callback to the issuer), with
    /// successful foreign validations memoised when the validation cache
    /// is enabled.
    ///
    /// When the failure-aware layer is on
    /// ([`ServiceConfig::with_heartbeats`]) and the credential's issuer is
    /// a watched heartbeat source, the cache is only authoritative while
    /// the issuer is healthy: a *late* issuer forces a fresh callback
    /// (with the [`DegradationPolicy`] deciding what a callback failure
    /// means), and a *dead* issuer's entries are evicted outright.
    ///
    /// # Errors
    ///
    /// As [`OasisService::validate_own`], plus [`OasisError::NoValidator`]
    /// when a foreign issuer is unreachable, or whatever transient error
    /// ([`OasisError::IssuerTimeout`], [`OasisError::CircuitOpen`]) the
    /// configured validator reports for an unreachable issuer.
    pub fn validate_credential(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        if credential.issuer() == &self.id {
            return self.validate_own(credential, presenter, now);
        }
        let issuer = credential.issuer().clone();
        // After a recovery, until catch-up confirms no revocation was
        // missed while the service was down, a cache hit alone never
        // grants: the entry may predate a revocation we did not see.
        if self.catchup_pending() {
            if self.fa.is_some() {
                return self.validate_suspect(credential, presenter, now, &issuer);
            }
            let result = self.issuer_callback(credential, presenter, now);
            if result.is_ok() {
                self.remember_validation(credential.crr(), presenter, now);
            }
            return result;
        }
        let health = self
            .fa
            .as_ref()
            .and_then(|fa| fa.monitor.health(&FailureAware::source(&issuer), now));
        match health {
            // Unwatched issuer, or failure-awareness off: the cache is
            // trusted within its TTL, exactly as before.
            None | Some(SourceHealth::Healthy) => {
                if let Some(cache) = &self.vcache {
                    if cache.lookup(credential.crr(), presenter, now) {
                        return Ok(());
                    }
                }
                let result = self.issuer_callback(credential, presenter, now);
                if result.is_ok() {
                    self.remember_validation(credential.crr(), presenter, now);
                }
                result
            }
            // Late: cached authority is suspect; require a fresh answer.
            Some(SourceHealth::Late) => self.validate_suspect(credential, presenter, now, &issuer),
            // Dead: cached authority is void; only a live answer grants.
            Some(SourceHealth::Dead) => {
                self.note_issuer_dead(&issuer, now);
                let result = self.issuer_callback(credential, presenter, now);
                if result.is_ok() {
                    // The issuer answered, so only its heartbeat path is
                    // broken; fresh authority is safe to memoise.
                    self.remember_validation(credential.crr(), presenter, now);
                }
                result
            }
        }
    }

    /// The late-issuer validation path: a cache hit alone no longer
    /// grants. A fresh callback is attempted; if it fails *transiently*,
    /// the degradation policy decides whether the suspect cache entry may
    /// still be served. A fatal answer (revoked, bad signature) always
    /// wins — stale cache never overrides an authoritative rejection.
    fn validate_suspect(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
        issuer: &ServiceId,
    ) -> Result<(), OasisError> {
        let fa = self.fa.as_ref().expect("suspect path requires heartbeats");
        fa.counters.suspect_revalidations.inc();
        let result = self.issuer_callback(credential, presenter, now);
        match result {
            Ok(()) => {
                self.remember_validation(credential.crr(), presenter, now);
                Ok(())
            }
            Err(error) if classify_error(&error) == ErrorClass::Transient => {
                let age = self
                    .vcache
                    .as_ref()
                    .and_then(|cache| cache.age(credential.crr(), presenter, now));
                match (fa.policy_for(issuer), age) {
                    (DegradationPolicy::FailOpen { max_stale_ticks }, Some(age))
                        if age <= max_stale_ticks =>
                    {
                        fa.counters.stale_served.inc();
                        Ok(())
                    }
                    (_, Some(_)) => {
                        fa.counters.stale_refused.inc();
                        Err(error)
                    }
                    (_, None) => Err(error),
                }
            }
            Err(error) => Err(error),
        }
    }

    /// Performs the callback to a foreign issuer through the configured
    /// validator.
    fn issuer_callback(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let validator = self.validator.read().clone();
        match validator {
            Some(v) => v.validate(credential, presenter, now),
            None => Err(OasisError::NoValidator(credential.issuer().clone())),
        }
    }

    /// Filters the presented credentials down to those that validate,
    /// auditing each rejection. Returns the input slice unchanged — no
    /// clones — in the common case where every credential validates.
    fn validated<'c>(
        &self,
        presented: &'c [Credential],
        presenter: &PrincipalId,
        now: u64,
    ) -> Cow<'c, [Credential]> {
        let mut surviving: Option<Vec<Credential>> = None;
        for (idx, cred) in presented.iter().enumerate() {
            match self.validate_credential(cred, presenter, now) {
                Ok(()) => {
                    if let Some(valid) = surviving.as_mut() {
                        valid.push(cred.clone());
                    }
                }
                Err(err) => {
                    if surviving.is_none() {
                        surviving = Some(presented[..idx].to_vec());
                    }
                    self.audit.record(
                        now,
                        AuditKind::CredentialRejected {
                            principal: presenter.clone(),
                            crr: cred.crr().clone(),
                            reason: err.to_string(),
                        },
                    );
                }
            }
        }
        match surviving {
            Some(valid) => Cow::Owned(valid),
            None => Cow::Borrowed(presented),
        }
    }

    // ------------------------------------------------------------------
    // Role activation (paths 1–2 of Fig 2)
    // ------------------------------------------------------------------

    /// Activates `role(args)` for `principal`, returning the RMC.
    ///
    /// See [`OasisService::activate_role_detailed`] for the full outcome,
    /// and `activate_role_with_key` to bind a session public key into the
    /// certificate.
    ///
    /// # Errors
    ///
    /// [`OasisError::UnknownRole`], [`OasisError::ArityMismatch`],
    /// [`OasisError::TypeMismatch`], or [`OasisError::ActivationDenied`]
    /// when no rule is satisfied.
    pub fn activate_role(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        presented: &[Credential],
        ctx: &EnvContext,
    ) -> Result<Rmc, OasisError> {
        self.activate_role_detailed(principal, role, args, presented, None, ctx)
            .map(|outcome| outcome.rmc)
    }

    /// As [`OasisService::activate_role`], additionally binding a session
    /// public key into the issued RMC (Sect. 4.1).
    pub fn activate_role_with_key(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        presented: &[Credential],
        holder_key: PublicKey,
        ctx: &EnvContext,
    ) -> Result<Rmc, OasisError> {
        self.activate_role_detailed(principal, role, args, presented, Some(holder_key), ctx)
            .map(|outcome| outcome.rmc)
    }

    /// The full-fat activation entry point: returns the fired rule and its
    /// bindings alongside the certificate.
    ///
    /// # Errors
    ///
    /// As [`OasisService::activate_role`].
    pub fn activate_role_detailed(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        presented: &[Credential],
        holder_key: Option<PublicKey>,
        ctx: &EnvContext,
    ) -> Result<ActivationOutcome, OasisError> {
        let result = self.activate_role_inner(principal, role, args, presented, holder_key, ctx);
        match &result {
            Ok(_) => self.requests.activations_ok.inc(),
            Err(_) => self.requests.activations_denied.inc(),
        }
        let obs = self.obs.read();
        if obs.sink.is_recording() {
            if let Some(trace) = ctx.trace().or_else(oasis_obs::current) {
                obs.sink.emit(
                    trace,
                    self.id.as_str(),
                    "svc.activate",
                    ctx.now(),
                    ctx.now(),
                );
            }
        }
        result
    }

    fn activate_role_inner(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        presented: &[Credential],
        holder_key: Option<PublicKey>,
        ctx: &EnvContext,
    ) -> Result<ActivationOutcome, OasisError> {
        self.last_now.store(ctx.now(), Ordering::Relaxed);
        // Argument checking happens under the read lock — no RoleDef
        // clone per activation.
        let rules = {
            let policy = self.policy.read();
            policy
                .roles
                .get(role)
                .ok_or_else(|| OasisError::UnknownRole(role.clone()))?
                .check_args(args)?;
            policy
                .activation_rules
                .get(role)
                .cloned()
                .unwrap_or_default()
        };

        let creds = self.validated(presented, principal, ctx.now());

        // One credential index for the whole request, indexed candidate
        // fetches per rule.
        let index = CredIndex::build(&creds);
        for CompiledRule { rule, plan } in rules.iter() {
            if let Some(solution) = plan.eval(args, &index, &self.facts, ctx) {
                return self.issue_rmc(
                    principal, role, args, rule, solution, &creds, holder_key, ctx,
                );
            }
        }

        self.audit.record(
            ctx.now(),
            AuditKind::ActivationDenied {
                principal: principal.clone(),
                role: role.clone(),
                reason: format!("none of {} rule(s) satisfied", rules.len()),
            },
        );
        Err(OasisError::ActivationDenied {
            role: role.clone(),
            principal: principal.clone(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_rmc(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        rule: &ActivationRule,
        solution: Solution,
        creds: &[Credential],
        holder_key: Option<PublicKey>,
        ctx: &EnvContext,
    ) -> Result<ActivationOutcome, OasisError> {
        let cert_id = CertId(self.next_cert.fetch_add(1, Ordering::Relaxed));
        let crr = Crr::new(self.id.clone(), cert_id);
        let rmc = Rmc::issue(
            &self.secret.current(),
            self.secret.current_epoch(),
            principal,
            crr.clone(),
            role.clone(),
            args.to_vec(),
            ctx.now(),
            holder_key,
        );

        // Membership rule: collect what must *remain* true.
        let mut depends_on: Vec<Crr> = Vec::new();
        let mut retained_checks: Vec<Atom> = Vec::new();
        for &idx in &rule.membership {
            let atom = &rule.conditions[idx];
            if atom.is_credential() {
                if let Some((_, used_crr)) = solution.used.iter().find(|(cond, _)| *cond == idx) {
                    if !depends_on.contains(used_crr) {
                        depends_on.push(used_crr.clone());
                    }
                }
            } else {
                retained_checks.push(substitute_atom(atom, &solution.bindings));
            }
        }

        let record = CredRecord {
            crr: crr.clone(),
            principal: principal.clone(),
            kind: CredentialKind::Rmc,
            name: role.as_str().to_string(),
            args: args.to_vec(),
            issued_at: ctx.now(),
            expires_at: None,
            status: CredStatus::Active,
        };

        // Journal before acknowledging: a journal failure aborts the
        // issuance (the certificate must never outlive a crash its
        // issuer cannot remember). The commit guard keeps a concurrent
        // snapshot from covering this append before the record lands.
        let retained_creds = depends_on.clone();
        let state = RecordState::new(&self.id, record, depends_on, retained_checks);
        {
            let _commit = self.durable.as_ref().map(|d| d.commit.read());
            self.journal(|| SecurityEvent::CertIssued {
                record: state.record.clone(),
                depends_on: state.depends_on.clone(),
                retained_checks: state.retained_checks().to_vec(),
            })?;
            if self.chaos_crash_pending() {
                return Err(OasisError::Journal(
                    "chaos: crashed between journal append and apply".into(),
                ));
            }
            // Dependency and fact edges go in first (one shard lock at a
            // time), then the record itself. A revocation racing this
            // window may find an edge pointing at a record that does not
            // exist yet and drop the cascade — the re-validation below
            // closes exactly that hole.
            self.install_record(state);
        }

        // Close the race with concurrent revocation: the supporting
        // credentials were validated *before* the dependency edges above
        // existed, so a revocation landing in between would have found no
        // dependents. Re-validate now that the edges are in place; any
        // revocation from here on cascades normally. An own credential's
        // MAC was verified on these same bytes moments ago, so only its
        // standing is re-checked; a foreign one takes the full path.
        for dep in &retained_creds {
            let Some(cred) = creds.iter().find(|c| c.crr() == dep) else {
                continue;
            };
            let revalidated = if cred.issuer() == &self.id {
                self.own_key(cred)
                    .and_then(|_| self.own_standing(cred, principal, ctx.now()))
            } else {
                self.validate_credential(cred, principal, ctx.now())
            };
            if revalidated.is_err() {
                self.revoke_certificate(
                    cert_id,
                    &format!("supporting credential {dep} was revoked during activation"),
                    ctx.now(),
                );
                self.audit.record(
                    ctx.now(),
                    AuditKind::ActivationDenied {
                        principal: principal.clone(),
                        role: role.clone(),
                        reason: format!("supporting credential {dep} revoked concurrently"),
                    },
                );
                return Err(OasisError::ActivationDenied {
                    role: role.clone(),
                    principal: principal.clone(),
                });
            }
        }

        self.audit.record(
            ctx.now(),
            AuditKind::RoleActivated {
                principal: principal.clone(),
                role: role.clone(),
                args: args.to_vec(),
                crr,
            },
        );
        self.maybe_autosnapshot();

        Ok(ActivationOutcome {
            rmc,
            rule: rule.id,
            bindings: solution.bindings,
        })
    }

    // ------------------------------------------------------------------
    // Service use (paths 3–4 of Fig 2)
    // ------------------------------------------------------------------

    /// Authorises an invocation of `method(args)` under the service-use
    /// policy.
    ///
    /// # Errors
    ///
    /// [`OasisError::InvocationDenied`] when no invocation rule is
    /// satisfied (including when the method has no rules at all — deny by
    /// default).
    pub fn invoke(
        &self,
        principal: &PrincipalId,
        method: &str,
        args: &[Value],
        presented: &[Credential],
        ctx: &EnvContext,
    ) -> Result<Invocation, OasisError> {
        let result = self.invoke_inner(principal, method, args, presented, ctx);
        match &result {
            Ok(_) => self.requests.invocations_ok.inc(),
            Err(_) => self.requests.invocations_denied.inc(),
        }
        let obs = self.obs.read();
        if obs.sink.is_recording() {
            if let Some(trace) = ctx.trace().or_else(oasis_obs::current) {
                obs.sink
                    .emit(trace, self.id.as_str(), "svc.invoke", ctx.now(), ctx.now());
            }
        }
        result
    }

    fn invoke_inner(
        &self,
        principal: &PrincipalId,
        method: &str,
        args: &[Value],
        presented: &[Credential],
        ctx: &EnvContext,
    ) -> Result<Invocation, OasisError> {
        self.last_now.store(ctx.now(), Ordering::Relaxed);
        let rules = self
            .policy
            .read()
            .invocation_rules
            .get(method)
            .cloned()
            .unwrap_or_default();
        let creds = self.validated(presented, principal, ctx.now());

        let index = CredIndex::build(&creds);
        for CompiledRule { rule, plan } in rules.iter() {
            if let Some(solution) = plan.eval(args, &index, &self.facts, ctx) {
                let used: Vec<Crr> = solution.used.into_iter().map(|(_, c)| c).collect();
                self.audit.record(
                    ctx.now(),
                    AuditKind::Invoked {
                        principal: principal.clone(),
                        method: method.to_string(),
                        args: args.to_vec(),
                        credentials: used.clone(),
                    },
                );
                return Ok(Invocation {
                    method: method.to_string(),
                    rule: rule.id,
                    bindings: solution.bindings,
                    used,
                });
            }
        }

        self.audit.record(
            ctx.now(),
            AuditKind::InvocationDenied {
                principal: principal.clone(),
                method: method.to_string(),
                reason: format!("none of {} rule(s) satisfied", rules.len()),
            },
        );
        Err(OasisError::InvocationDenied {
            method: method.to_string(),
            principal: principal.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Appointment (Sect. 2)
    // ------------------------------------------------------------------

    /// Issues an appointment certificate of kind `name` to `appointee`.
    ///
    /// The `appointer` must present a *valid RMC of this service* for a
    /// role that has been granted the appointer privilege for `name`
    /// (via [`OasisService::grant_appointer`]). The certificate's lifetime
    /// is independent of the appointer's session: revoking the appointer's
    /// RMC later does **not** cascade to the appointment.
    ///
    /// # Errors
    ///
    /// [`OasisError::NotAppointer`] when no presented credential carries
    /// the privilege.
    #[allow(clippy::too_many_arguments)]
    pub fn issue_appointment(
        &self,
        appointer: &PrincipalId,
        appointer_creds: &[Credential],
        name: &str,
        args: Vec<Value>,
        appointee: &PrincipalId,
        expires_at: Option<u64>,
        holder_key: Option<PublicKey>,
        ctx: &EnvContext,
    ) -> Result<AppointmentCertificate, OasisError> {
        self.last_now.store(ctx.now(), Ordering::Relaxed);
        let allowed_roles = self
            .policy
            .read()
            .appointers
            .get(name)
            .cloned()
            .unwrap_or_default();

        let creds = self.validated(appointer_creds, appointer, ctx.now());
        let entitled = creds.iter().any(|c| match c {
            Credential::Rmc(rmc) => rmc.crr.issuer == self.id && allowed_roles.contains(&rmc.role),
            Credential::Appointment(_) => false,
        });
        if !entitled {
            return Err(OasisError::NotAppointer {
                principal: appointer.clone(),
                appointment: name.to_string(),
            });
        }

        let cert_id = CertId(self.next_cert.fetch_add(1, Ordering::Relaxed));
        let crr = Crr::new(self.id.clone(), cert_id);
        let cert = AppointmentCertificate::issue(
            &self.secret.current(),
            self.secret.current_epoch(),
            appointee,
            crr.clone(),
            name.to_string(),
            args.clone(),
            ctx.now(),
            expires_at,
            holder_key,
        );

        let record = CredRecord {
            crr: crr.clone(),
            principal: appointee.clone(),
            kind: CredentialKind::Appointment,
            name: name.to_string(),
            args,
            issued_at: ctx.now(),
            expires_at,
            status: CredStatus::Active,
        };
        {
            let _commit = self.durable.as_ref().map(|d| d.commit.read());
            self.journal(|| SecurityEvent::CertIssued {
                record: record.clone(),
                depends_on: Vec::new(),
                retained_checks: Vec::new(),
            })?;
            if self.chaos_crash_pending() {
                return Err(OasisError::Journal(
                    "chaos: crashed between journal append and apply".into(),
                ));
            }
            self.record_shard(cert_id).lock().records.insert(
                cert_id,
                RecordState::new(&self.id, record, Vec::new(), Vec::new()),
            );
        }

        self.audit.record(
            ctx.now(),
            AuditKind::AppointmentIssued {
                appointer: appointer.clone(),
                appointee: appointee.clone(),
                name: name.to_string(),
                crr,
            },
        );
        self.maybe_autosnapshot();
        Ok(cert)
    }

    // ------------------------------------------------------------------
    // Revocation and active security (Fig 5)
    // ------------------------------------------------------------------

    /// Revokes a certificate this service issued. Dependent certificates
    /// — at this service and at any service sharing the event bus —
    /// collapse transitively before this call returns.
    ///
    /// Returns `true` if the certificate was active.
    pub fn revoke_certificate(&self, cert_id: CertId, reason: &str, now: u64) -> bool {
        let sink = self.obs.read().sink.clone();
        // When the caller is traced (ambient context set by the wire
        // server or a bench driver), emit the revocation span and pin
        // its child as the ambient context for the journal append (the
        // replicated CIV's spans) and the bus publication (cascade
        // fan-out spans) that run inside the inner call.
        let _scope = if sink.is_recording() {
            oasis_obs::current().map(|trace| {
                let child = sink.emit(trace, self.id.as_str(), "svc.revoke", now, now);
                oasis_obs::scope(child)
            })
        } else {
            None
        };
        let _batch = self.revocation_scope();
        let revoked = self.revoke_certificate_inner(cert_id, reason, now);
        if revoked {
            self.requests.revocations.inc();
        }
        revoked
    }

    fn revoke_certificate_inner(&self, cert_id: CertId, reason: &str, now: u64) -> bool {
        self.last_now.store(now, Ordering::Relaxed);
        // Check without mutating first: the journal entry must only be
        // written for a revocation that will actually happen.
        {
            let shard = self.record_shard(cert_id).lock();
            match shard.records.get(&cert_id) {
                Some(rec) if rec.record.status.is_active() => {}
                _ => return false,
            }
        }
        let crr = {
            let _ = self.journal(|| SecurityEvent::CertRevoked {
                cert_id,
                reason: reason.to_string(),
                at: now,
            });
            // The scope still flushes on the way out: journalled, not
            // applied.
            if self.chaos_crash_pending() {
                return false;
            }
            let mut shard = self.record_shard(cert_id).lock();
            let Some(rec) = shard.records.get_mut(&cert_id) else {
                return false;
            };
            if !rec.record.status.is_active() {
                // Lost a race with a concurrent revocation; the extra
                // journal entry replays as a no-op.
                return false;
            }
            rec.record.status = CredStatus::Revoked {
                reason: reason.to_string(),
                at: now,
            };
            rec.record.crr.clone()
        };
        self.audit.record(
            now,
            AuditKind::CertRevoked {
                crr: crr.clone(),
                reason: reason.to_string(),
            },
        );
        // Publishing triggers dependent collapse synchronously (subscribed
        // callbacks run on this thread, with no shard lock held) — the
        // "active security" property.
        self.publish_revocation_event(
            CertEvent {
                crr,
                kind: CertEventKind::Revoked {
                    reason: reason.to_string(),
                },
            },
            now,
        );
        true
    }

    /// Ends a principal's session at this service: revokes every active
    /// RMC issued to them ("if a single initial role is deactivated, for
    /// example the user logs out, all the active roles dependent on it
    /// collapse and that session terminates", Sect. 4). Dependents at
    /// other services on the shared bus collapse too. Appointment
    /// certificates are *not* touched — their lifetime is independent of
    /// sessions. Returns how many certificates were revoked directly.
    pub fn end_session(&self, principal: &PrincipalId, reason: &str, now: u64) -> usize {
        let _batch = self.revocation_scope();
        let mut to_revoke: Vec<CertId> = Vec::new();
        // Ascending shard order, one lock at a time.
        for shard in &self.shards {
            let shard = shard.lock();
            to_revoke.extend(
                shard
                    .records
                    .values()
                    .filter(|r| {
                        r.record.status.is_active()
                            && r.record.kind == CredentialKind::Rmc
                            && r.record.principal == *principal
                    })
                    .map(|r| r.record.crr.cert_id),
            );
        }
        let mut revoked = 0;
        for cert_id in to_revoke {
            // Cascades may have revoked later entries already.
            if self.revoke_certificate(cert_id, reason, now) {
                revoked += 1;
            }
        }
        revoked
    }

    /// Marks a certificate expired and collapses its dependents, exactly
    /// like a revocation but recorded as expiry.
    fn expire_certificate(&self, cert_id: CertId, now: u64) {
        let _batch = self.revocation_scope();
        {
            let shard = self.record_shard(cert_id).lock();
            match shard.records.get(&cert_id) {
                Some(rec) if rec.record.status.is_active() => {}
                _ => return,
            }
        }
        let crr = {
            let _ = self.journal(|| SecurityEvent::CertExpired { cert_id, at: now });
            if self.chaos_crash_pending() {
                return;
            }
            let mut shard = self.record_shard(cert_id).lock();
            let Some(rec) = shard.records.get_mut(&cert_id) else {
                return;
            };
            if !rec.record.status.is_active() {
                return;
            }
            rec.record.status = CredStatus::Expired { at: now };
            rec.record.crr.clone()
        };
        self.audit
            .record(now, AuditKind::CertExpired { crr: crr.clone() });
        self.publish_revocation_event(
            CertEvent {
                crr,
                kind: CertEventKind::Revoked {
                    reason: "expired".into(),
                },
            },
            now,
        );
    }

    /// Proactively expires every appointment certificate past its deadline
    /// at `now`; returns how many lapsed. (Expiry is otherwise noticed
    /// lazily at validation time.)
    pub fn expire_certificates(&self, now: u64) -> usize {
        let _batch = self.revocation_scope();
        let mut due: Vec<CertId> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            due.extend(
                shard
                    .records
                    .iter()
                    .filter(|(_, r)| {
                        r.record.status.is_active() && r.record.expires_at.is_some_and(|d| now > d)
                    })
                    .map(|(id, _)| *id),
            );
        }
        for cert_id in &due {
            self.expire_certificate(*cert_id, now);
        }
        due.len()
    }

    /// Handles a revocation event from the bus: any certificate that
    /// *retains* the revoked credential is revoked in turn.
    fn handle_revocation_event(&self, event: &CertEvent) {
        let CertEventKind::Revoked { reason } = &event.kind;
        let dependents: Vec<CertId> = {
            let mut shard = self.shards[shard_of_hash(&event.crr)].lock();
            shard
                .dep_index
                .remove(&event.crr)
                .map(|set| {
                    let mut v: Vec<CertId> = set.into_iter().collect();
                    v.sort_unstable();
                    v
                })
                .unwrap_or_default()
        };
        let now = self.last_now.load(Ordering::Relaxed);
        for cert_id in dependents {
            self.revoke_certificate(
                cert_id,
                &format!(
                    "cascade: supporting credential {} revoked ({reason})",
                    event.crr
                ),
                now,
            );
        }
    }

    /// Handles a fact-store change: certificates whose membership rule
    /// retained the fact (positively or negatively) are revoked when the
    /// fact flips.
    fn handle_fact_change(&self, change: &FactChange<Value>) {
        let _batch = self.revocation_scope();
        let expected_present = match change {
            FactChange::Retracted { .. } => true,
            FactChange::Inserted { .. } => false,
        };
        let key = (change.relation().to_string(), change.tuple().to_vec());
        let hit: Vec<CertId> = {
            let mut shard = self.shards[shard_of_hash(&key)].lock();
            match shard.fact_index.get_mut(&key) {
                Some(entries) => {
                    let (fire, keep): (Vec<_>, Vec<_>) = entries
                        .drain(..)
                        .partition(|(_, expect)| *expect == expected_present);
                    *entries = keep;
                    fire.into_iter().map(|(id, _)| id).collect()
                }
                None => Vec::new(),
            }
        };
        let now = self.last_now.load(Ordering::Relaxed);
        let verb = if expected_present {
            "retracted"
        } else {
            "asserted"
        };
        for cert_id in hit {
            self.revoke_certificate(
                cert_id,
                &format!(
                    "membership condition broken: fact {}({}) {verb}",
                    key.0,
                    key.1
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                now,
            );
        }
    }

    /// Re-evaluates every active certificate's retained environmental
    /// conditions at the current context (time-window constraints and
    /// custom predicates cannot be push-notified, so services sweep them —
    /// typically on a heartbeat). Returns the revoked certificates.
    ///
    /// The sweep evaluates each record's [`CheckPlan`] (compiled by the
    /// first sweep that reaches it), memoises identical check bodies
    /// within the sweep, and — when the fact store's mutation epoch has
    /// not moved since the last full sweep — skips fact-only checks
    /// entirely: an unchanged epoch proves no fact changed, and every
    /// fact-only check either passed the previous sweep or held at
    /// issuance, so it still holds.
    pub fn recheck_memberships(&self, ctx: &EnvContext) -> Vec<Crr> {
        self.recheck(ctx, None)
    }

    /// As [`OasisService::recheck_memberships`], but sweeps only RMCs
    /// whose role is in `roles` or depends on one transitively through
    /// the local prerequisite-role DAG — O(affected records) instead of
    /// a full scan. Use after a targeted policy or environment change
    /// known to affect specific roles.
    pub fn recheck_role_memberships(&self, roles: &[RoleName], ctx: &EnvContext) -> Vec<Crr> {
        let mut affected: HashSet<RoleName> = HashSet::new();
        {
            let policy = self.policy.read();
            let mut queue: Vec<RoleName> = roles.to_vec();
            while let Some(role) = queue.pop() {
                if affected.insert(role.clone()) {
                    if let Some(children) = policy.prereq_children.get(&role) {
                        queue.extend(children.iter().cloned());
                    }
                }
            }
        }
        self.recheck(ctx, Some(&affected))
    }

    fn recheck(&self, ctx: &EnvContext, roles: Option<&HashSet<RoleName>>) -> Vec<Crr> {
        let _batch = self.revocation_scope();
        self.last_now.store(ctx.now(), Ordering::Relaxed);
        // Epoch read *before* collecting: a fact change racing the sweep
        // lands at a higher epoch than the watermark we store, forcing
        // the next sweep to look at everything.
        let sweep_epoch = self.facts.epoch();
        let skip_fact_only = self.last_sweep_epoch.load(Ordering::Acquire) == sweep_epoch;

        let mut to_check: Vec<(CertId, Arc<CheckPlan>)> = Vec::new();
        // Ascending shard order, one lock at a time; checks are evaluated
        // after the locks are released (evaluation may be arbitrarily
        // slow).
        for shard in &self.shards {
            let shard = shard.lock();
            for (id, r) in &shard.records {
                if !r.record.status.is_active() {
                    continue;
                }
                let Some(plan) = &r.check else {
                    continue;
                };
                if let Some(filter) = roles {
                    let covered = r.record.kind == CredentialKind::Rmc
                        && filter.contains(&RoleName::new(r.record.name.clone()));
                    if !covered {
                        continue;
                    }
                }
                if skip_fact_only && !plan.is_time_sensitive() {
                    continue;
                }
                to_check.push((*id, Arc::clone(plan)));
            }
        }

        let no_creds: [Credential; 0] = [];
        let empty_index = CredIndex::build(&no_creds);
        // Identical retained bodies (common under templated policies)
        // evaluate once per sweep.
        let mut memo: HashMap<&[Atom], bool> = HashMap::new();
        let mut revoked = Vec::new();
        for (cert_id, plan) in &to_check {
            let ok = *memo
                .entry(plan.atoms())
                .or_insert_with(|| plan.eval(&empty_index, &self.facts, ctx));
            if !ok
                && self.revoke_certificate(
                    *cert_id,
                    "membership condition no longer holds",
                    ctx.now(),
                )
            {
                revoked.push(Crr::new(self.id.clone(), *cert_id));
            }
        }
        // Only a full sweep proves all fact-only checks held at
        // `sweep_epoch`; a filtered sweep says nothing about the rest.
        if roles.is_none() {
            self.last_sweep_epoch.store(sweep_epoch, Ordering::Release);
        }
        revoked
    }

    /// Roles that transitively depend on `role` through this service's
    /// prerequisite-role DAG (excluding `role` itself unless it appears
    /// in a cycle), sorted by name. These are the roles whose activation
    /// rules can be affected when `role`'s memberships collapse.
    pub fn role_dependents(&self, role: &RoleName) -> Vec<RoleName> {
        let policy = self.policy.read();
        let mut seen: HashSet<RoleName> = HashSet::new();
        let mut queue: Vec<&RoleName> = policy
            .prereq_children
            .get(role)
            .map(|c| c.iter().collect())
            .unwrap_or_default();
        while let Some(next) = queue.pop() {
            if seen.insert(next.clone()) {
                if let Some(children) = policy.prereq_children.get(next) {
                    queue.extend(children.iter());
                }
            }
        }
        let mut out: Vec<RoleName> = seen.into_iter().collect();
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The credential record for a certificate, if this service issued it.
    pub fn record(&self, cert_id: CertId) -> Option<CredRecord> {
        self.record_shard(cert_id)
            .lock()
            .records
            .get(&cert_id)
            .map(|r| r.record.clone())
    }

    /// The credentials a certificate's membership rule retains — i.e. the
    /// supporting credentials whose revocation will collapse it (Fig 5's
    /// event-channel edges, viewed from the dependent side).
    pub fn dependencies(&self, cert_id: CertId) -> Option<Vec<Crr>> {
        self.record_shard(cert_id)
            .lock()
            .records
            .get(&cert_id)
            .map(|r| r.depends_on.clone())
    }

    /// Number of records in each status: `(active, revoked, expired)`.
    pub fn record_stats(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for shard in &self.shards {
            let shard = shard.lock();
            for r in shard.records.values() {
                match r.record.status {
                    CredStatus::Active => counts.0 += 1,
                    CredStatus::Revoked { .. } => counts.1 += 1,
                    CredStatus::Expired { .. } => counts.2 += 1,
                }
            }
        }
        counts
    }

    /// All roles defined at this service, sorted by name.
    pub fn roles(&self) -> Vec<RoleDef> {
        let policy = self.policy.read();
        let mut roles: Vec<RoleDef> = policy.roles.values().cloned().collect();
        roles.sort_by(|a, b| a.name().cmp(b.name()));
        roles
    }

    /// The activation rules installed for a role, in trial order.
    pub fn activation_rules(&self, role: &RoleName) -> Vec<ActivationRule> {
        self.policy
            .read()
            .activation_rules
            .get(role)
            .map(|rules| rules.iter().map(|r| r.rule.clone()).collect())
            .unwrap_or_default()
    }

    /// The invocation rules installed for a method, in trial order.
    pub fn invocation_rules(&self, method: &str) -> Vec<InvocationRule> {
        self.policy
            .read()
            .invocation_rules
            .get(method)
            .map(|rules| rules.iter().map(|r| r.rule.clone()).collect())
            .unwrap_or_default()
    }

    /// Counters over the compiled decision plans (activation and
    /// invocation), for diagnostics: a nonzero `always_fail` usually
    /// indicates a rule with a typo'd variable that can never bind.
    pub fn plan_stats(&self) -> PlanStats {
        self.plans.read()
    }

    /// Consistency warnings between role flags and installed rules.
    ///
    /// The paper defines an *initial role* as one whose activation rule
    /// includes no prerequisite roles (Sect. 2) — activating it starts a
    /// session. This check reports descriptive mismatches:
    ///
    /// * a role not flagged `initial` but having a rule with no
    ///   prerequisite atoms (it can in fact start a session);
    /// * a role flagged `initial` all of whose rules require
    ///   prerequisites (it can never start one);
    /// * a defined role with no activation rules at all (unactivatable).
    ///
    /// These are warnings, not errors: the flag is descriptive metadata
    /// and services may stage policy installation.
    pub fn policy_warnings(&self) -> Vec<String> {
        let policy = self.policy.read();
        let mut warnings = Vec::new();
        let mut names: Vec<&RoleName> = policy.roles.keys().collect();
        names.sort();
        for name in names {
            let def = &policy.roles[name];
            let rules = policy.activation_rules.get(name);
            match rules {
                None => warnings.push(format!(
                    "role `{name}` has no activation rules and can never be activated"
                )),
                Some(rules) => {
                    let has_prereq_free_rule = rules
                        .iter()
                        .any(|r| !r.rule.conditions.iter().any(Atom::is_credential_prereq));
                    if has_prereq_free_rule && !def.is_initial() {
                        warnings.push(format!(
                            "role `{name}` is not flagged initial but has a rule without \
                             prerequisite roles; activating it starts a session"
                        ));
                    }
                    if !has_prereq_free_rule && def.is_initial() {
                        warnings.push(format!(
                            "role `{name}` is flagged initial but every rule requires a \
                             prerequisite role; it cannot start a session"
                        ));
                    }
                }
            }
        }
        warnings
    }

    /// All active credential records (for operator tooling).
    pub fn active_records(&self) -> Vec<CredRecord> {
        let mut records: Vec<CredRecord> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            records.extend(
                shard
                    .records
                    .values()
                    .filter(|r| r.record.status.is_active())
                    .map(|r| r.record.clone()),
            );
        }
        records.sort_by_key(|r| r.crr.cert_id);
        records
    }
}

/// Substitutes bound variables with their values, leaving `$`-reserved
/// variables (re-bound at evaluation time) and unbound variables alone.
fn substitute_atom(atom: &Atom, bindings: &Bindings) -> Atom {
    let sub_term = |t: &Term| -> Term {
        if let Term::Var(name) = t {
            if name.0.starts_with('$') {
                return t.clone();
            }
            if let Some(v) = bindings.get(name) {
                return Term::Const(v.clone());
            }
        }
        t.clone()
    };
    let sub_terms = |ts: &[Term]| ts.iter().map(sub_term).collect();
    match atom {
        Atom::Prereq {
            service,
            role,
            args,
        } => Atom::Prereq {
            service: service.clone(),
            role: role.clone(),
            args: sub_terms(args),
        },
        Atom::Appointment { issuer, name, args } => Atom::Appointment {
            issuer: issuer.clone(),
            name: name.clone(),
            args: sub_terms(args),
        },
        Atom::EnvFact {
            relation,
            args,
            negated,
        } => Atom::EnvFact {
            relation: relation.clone(),
            args: sub_terms(args),
            negated: *negated,
        },
        Atom::EnvCompare { left, op, right } => Atom::EnvCompare {
            left: sub_term(left),
            op: *op,
            right: sub_term(right),
        },
        Atom::EnvPredicate { name, args } => Atom::EnvPredicate {
            name: name.clone(),
            args: sub_terms(args),
        },
    }
}

fn term_as_const(t: &Term) -> Option<Value> {
    match t {
        Term::Const(v) => Some(v.clone()),
        _ => None,
    }
}
