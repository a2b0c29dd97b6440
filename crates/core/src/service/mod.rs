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

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use oasis_crypto::IssuerSecret;
use oasis_events::{EventBus, HeartbeatMonitor, SourceId};
use oasis_facts::FactStore;

use crate::audit::AuditLog;
use crate::cert::{revocation_topic, CertEvent, CredRecord, Crr, Seal};
use crate::durable::ServiceJournal;
use crate::ids::{CertId, RoleName, ServiceId};
use crate::pattern::Term;
use crate::plan::{CheckPlan, PlanSeries, RulePlan};
use crate::role::RoleDef;
use crate::rule::{ActivationRule, Atom, InvocationRule};
use crate::validate::CredentialValidator;
use crate::value::Value;

mod degradation;
mod issuance;
mod journal;
mod policy;
mod recovery;
mod revocation;
mod validation;

pub use degradation::DegradationStats;
pub use issuance::{ActivationOutcome, Invocation};
pub use validation::ValidationCacheStats;

use degradation::DegradationSeries;
use validation::ValidationCache;

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

/// Missed heartbeat intervals before a watched issuer is classified dead;
/// between one interval and this many it is late.
const DEAD_AFTER: u64 = 3;

/// A watched issuer: its heartbeat interval, which is also the grace it
/// gets once dead before its dependent roles are deactivated, and its
/// death, once observed.
struct WatchedIssuer {
    interval: u64,
    dead: Option<DeadIssuer>,
}

/// When an issuer's death was first observed (its cached validations
/// were evicted then), and whether its dependents have been deactivated.
struct DeadIssuer {
    since: u64,
    degraded: bool,
}

/// The failure-aware half of the service: issuer heartbeats and the
/// watched-issuer ledger.
struct FailureAware {
    monitor: HeartbeatMonitor,
    watched: Mutex<HashMap<ServiceId, WatchedIssuer>>,
    counters: DegradationSeries,
}

impl FailureAware {
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

/// Configuration for constructing an [`OasisService`].
pub struct ServiceConfig {
    id: ServiceId,
    bus: Option<EventBus<CertEvent>>,
    secret: Option<IssuerSecret>,
    validation_cache_ttl: Option<u64>,
    heartbeats: bool,
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
            heartbeats: false,
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
    /// * **late** (more than one interval since the last beat) — hits
    ///   are *suspect*: a fresh callback is required, and if it fails the
    ///   suspect entry is refused, never served;
    /// * **dead** (more than three intervals) — the issuer's cache
    ///   entries are evicted, and once it has stayed dead for one more
    ///   interval its dependent roles are deactivated through the
    ///   revocation cascade (driven by
    ///   [`OasisService::tick_heartbeats`]).
    ///
    /// The layer has no settings: it is fail-safe, and every duration is
    /// a multiple of the interval each issuer was watched with.
    #[must_use]
    pub fn with_heartbeats(mut self) -> Self {
        self.heartbeats = true;
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
    ///
    /// [`ServiceSnapshot`]: crate::durable::ServiceSnapshot
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
    /// What this process signed for the certificate, when it issued it:
    /// a presented certificate that matches the record and the seal is
    /// validated without recomputing its MAC
    /// ([`OasisService::validate_own`]). `None` for every record restored
    /// by recovery, whose certificates take the HMAC check: the seal is
    /// never journalled or snapshotted.
    seal: Option<Seal>,
}

impl RecordState {
    /// Every way a record comes to exist (live issuance, snapshot restore,
    /// journal replay) builds it here, so each gets the same check plan.
    /// Only live issuance has a `seal`.
    fn new(
        issuer: &ServiceId,
        record: CredRecord,
        depends_on: Vec<Crr>,
        retained_checks: Vec<Atom>,
        seal: Option<Seal>,
    ) -> Self {
        Self {
            record,
            depends_on,
            check: (!retained_checks.is_empty())
                .then(|| Arc::new(CheckPlan::new(issuer, retained_checks))),
            seal,
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
            fa: config.heartbeats.then(|| FailureAware {
                monitor: HeartbeatMonitor::new(DEAD_AFTER),
                watched: Mutex::new(HashMap::new()),
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

    /// Installs the validator used for credentials issued by *other*
    /// services (a [`LocalRegistry`](crate::validate::LocalRegistry), a
    /// domain CIV client, or a network client).
    pub fn set_validator(&self, validator: Arc<dyn CredentialValidator>) {
        *self.validator.write() = Some(validator);
    }

    /// Installs an observability recorder: causal spans are recorded
    /// through it, and it adopts the service's series — the request
    /// counters and the `plan`, `vcache` and `degradation` sets as
    /// `<id>.*` and the event bus as `<id>.bus.*` — so one
    /// [`oasis_obs::Recorder::snapshot_json`] call returns the whole
    /// service. The series count from construction on, whether or not a
    /// recorder is installed.
    ///
    /// A server serving the service (`WireServer` in `oasis-wire`) adds
    /// its own series to the recorder installed when it starts serving,
    /// its admission controller's as `<id>.overload.*` among them; install
    /// the recorder before serving.
    pub fn set_obs(self: &Arc<Self>, recorder: Arc<dyn oasis_obs::Recorder>) {
        let id = self.id.as_str();
        recorder.adopt(id, &self.metrics);
        recorder.adopt(&format!("{id}.bus"), self.bus.metrics());
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

    fn record_shard(&self, cert_id: CertId) -> &Mutex<CertShard> {
        &self.shards[shard_of_cert(cert_id)]
    }

    /// Visits every record and collects what `pick` returns for it. The
    /// shards are visited in ascending order, one lock at a time, and no
    /// lock is held once it returns, so the caller may revoke what it
    /// found.
    fn scan<T>(&self, mut pick: impl FnMut(&RecordState) -> Option<T>) -> Vec<T> {
        let mut found = Vec::new();
        for shard in &self.shards {
            found.extend(shard.lock().records.values().filter_map(&mut pick));
        }
        found
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
}

fn term_as_const(t: &Term) -> Option<Value> {
    match t {
        Term::Const(v) => Some(v.clone()),
        _ => None,
    }
}
