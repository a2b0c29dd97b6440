//! Durability types: the security-event journal and service snapshots.
//!
//! OASIS credential records are *authoritative* state — Fig 5's cascade
//! semantics only work if the issuer's record of what was issued, what
//! it depends on, and what has been revoked survives a crash. This
//! module defines the event vocabulary journalled by
//! [`OasisService`](crate::OasisService) through an
//! [`oasis_store::DurableStore`]:
//!
//! * every state change is appended (and synced) *before* it is
//!   acknowledged to the caller. Issuance is write-ahead: one append,
//!   then the in-memory apply. Revocation, expiry, delivery watermarks
//!   and retained publications are applied as the cascade runs and
//!   buffered in a per-service, per-thread *revocation scope* that
//!   the outermost operation flushes as **one** append before it
//!   returns — a cascade of N certificates is one quorum round on a
//!   replicated journal, not 2N. A crash inside that window loses
//!   nothing that was acknowledged: it is a crash before the append;
//! * [`OasisService::recover`](crate::OasisService::recover) rebuilds
//!   the full record/dependency/cache state by loading the latest
//!   [`ServiceSnapshot`] and replaying the journal suffix idempotently;
//! * per-topic revocation watermarks ([`Watermark`]) are journalled as
//!   [`SecurityEvent::RevocationApplied`], so a restarted service knows
//!   exactly which bus events it has applied and can ask the publisher's
//!   retained ring for the gap
//!   ([`OasisService::catch_up`](crate::OasisService::catch_up)).
//!
//! The `oasis-store` crate stays generic (bytes, frames, checksums);
//! the *meaning* of a journal record — what replaying it does to a
//! service — is defined here.

use std::cell::RefCell;

use oasis_events::{DeliveredEvent, Topic};
use oasis_json::{json_enum, json_struct, FromJson, JsonError, Reader, ToJson};
use oasis_store::DurableStore;

use crate::cert::{CertEvent, CredRecord, Crr};
use crate::ids::{CertId, PrincipalId};
use crate::rule::Atom;

/// One security-relevant state change, journalled before it is applied.
///
/// Replay is idempotent: applying a prefix of the journal and then the
/// whole journal yields the same state as applying the whole journal
/// once, so a crash *after* the append but *before* the in-memory apply
/// is healed by recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum SecurityEvent {
    /// A certificate (RMC or appointment) was issued, together with the
    /// dependency edges and retained environmental checks its
    /// membership rule established.
    CertIssued {
        /// The issuer-side credential record.
        record: CredRecord,
        /// Supporting credentials retained by the membership rule.
        depends_on: Vec<Crr>,
        /// Ground environmental conditions retained by the rule.
        retained_checks: Vec<Atom>,
    },
    /// A foreign credential validated successfully (issuer callback
    /// answered yes) and was memoised. Replaying repopulates the
    /// validation cache so a restart does not stampede issuers.
    ValidationGranted {
        /// The validated credential's record reference.
        crr: Crr,
        /// Who presented it.
        presenter: PrincipalId,
        /// Virtual time of the successful callback.
        at: u64,
    },
    /// A certificate this service issued was revoked.
    CertRevoked {
        /// The local certificate id.
        cert_id: CertId,
        /// Why.
        reason: String,
        /// Virtual time of the revocation.
        at: u64,
    },
    /// A certificate this service issued lapsed at its deadline.
    CertExpired {
        /// The local certificate id.
        cert_id: CertId,
        /// Virtual time the expiry was recorded.
        at: u64,
    },
    /// A *foreign* revocation event from the bus was applied locally
    /// (cache evicted, dependents collapsed). Journalling the event's
    /// sequence numbers per topic gives recovery an exact watermark for
    /// gap detection.
    RevocationApplied {
        /// The bus topic the event arrived on (`cred.revoked.<issuer>`).
        topic: String,
        /// Per-topic sequence number of the applied event.
        topic_seq: u64,
        /// Bus-global sequence number of the applied event.
        global_seq: u64,
        /// The revoked credential.
        crr: Crr,
    },
    /// The issuer secret rotated to a new epoch.
    EpochChanged {
        /// The new current epoch.
        epoch: u64,
        /// Virtual time of the rotation.
        at: u64,
    },
    /// This service published a retained event on its own revocation
    /// topic, with the sequence numbers the bus assigned. Journalled
    /// (and therefore replicated) so a restarted or failed-over node
    /// can rebuild its retained ring with the *original* numbering and
    /// keep serving gap-free `catch_up` replays to subscribers — the
    /// publisher's ring is authoritative state, not a cache.
    RetainedPublished {
        /// The published event as the bus delivered it.
        entry: RetainedEntry,
    },
}

/// A retained publication in journal/snapshot form: a
/// [`DeliveredEvent`] of the service's own revocation topic, with the
/// bus-assigned sequence numbers that make replays gap-checkable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedEntry {
    /// The topic published on (`cred.revoked.<this service>`).
    pub topic: String,
    /// Per-topic sequence the bus assigned.
    pub topic_seq: u64,
    /// Bus-global sequence the bus assigned.
    pub global_seq: u64,
    /// Virtual timestamp of the publication.
    pub timestamp: u64,
    /// The event payload.
    pub event: CertEvent,
}

impl RetainedEntry {
    /// Captures a delivered bus event for journalling.
    pub fn from_delivered(event: &DeliveredEvent<CertEvent>) -> Self {
        Self {
            topic: event.topic.as_str().to_string(),
            topic_seq: event.topic_seq,
            global_seq: event.global_seq,
            timestamp: event.timestamp,
            event: event.payload.clone(),
        }
    }

    /// Rebuilds the bus-side event for
    /// [`EventBus::restore_retained`](oasis_events::EventBus::restore_retained).
    pub fn to_delivered(&self) -> DeliveredEvent<CertEvent> {
        DeliveredEvent {
            topic: Topic::new(self.topic.clone()),
            topic_seq: self.topic_seq,
            global_seq: self.global_seq,
            timestamp: self.timestamp,
            payload: self.event.clone(),
            // Trace contexts are per-request, not durable state; a
            // restored retained event replays without one.
            trace: None,
        }
    }
}

/// One credential record plus its live dependency state, as captured in
/// a [`ServiceSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// The credential record (any status — revoked history is kept).
    pub record: CredRecord,
    /// Supporting credentials retained by the membership rule.
    pub depends_on: Vec<Crr>,
    /// Retained ground environmental conditions.
    pub retained_checks: Vec<Atom>,
}

/// The last bus event applied from one revocation topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watermark {
    /// The topic (`cred.revoked.<issuer>`).
    pub topic: String,
    /// Per-topic sequence of the last applied event.
    pub topic_seq: u64,
    /// Bus-global sequence of the last applied event.
    pub global_seq: u64,
}

/// Full recoverable state of an [`OasisService`](crate::OasisService)
/// at a journal sequence number.
///
/// Policy (roles and rules) is *not* snapshotted: it is code-like
/// configuration the operator re-installs at startup, not runtime state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceSnapshot {
    /// The next certificate id to allocate.
    pub next_cert: u64,
    /// Every credential record with its dependency state.
    pub records: Vec<SnapshotRecord>,
    /// Per-topic revocation watermarks at snapshot time.
    pub watermarks: Vec<Watermark>,
    /// The service's own retained revocation ring at snapshot time, in
    /// topic-sequence order. Restoring it lets a recovered (or
    /// failed-over) publisher keep serving gap-free `catch_up` replays.
    pub retained: Vec<RetainedEntry>,
}

/// What [`OasisService::recover`](crate::OasisService::recover) did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Journal sequence the loaded snapshot covered (0 = no snapshot).
    pub snapshot_covered_seq: u64,
    /// Whether snapshot bytes were present but corrupt (recovery fell
    /// back to replaying the whole journal).
    pub snapshot_corrupt: bool,
    /// Journal events replayed after the snapshot.
    pub events_replayed: u64,
    /// Credential records restored (all statuses).
    pub records_restored: u64,
    /// Revocations/expiries applied during replay.
    pub revocations_replayed: u64,
    /// Cached foreign validations restored.
    pub validations_restored: u64,
    /// Bytes of torn journal tail healed at open.
    pub torn_tail_bytes: u64,
    /// Per-topic revocation watermarks after recovery — the starting
    /// point for [`OasisService::catch_up`](crate::OasisService::catch_up).
    pub watermarks: Vec<Watermark>,
    /// True when state was restored and the service should catch up on
    /// missed revocation events before trusting its validation cache.
    pub catchup_required: bool,
    /// Own-topic retained publications restored into the bus ring.
    pub retained_restored: u64,
}

/// What one [`OasisService::catch_up`](crate::OasisService::catch_up)
/// call did for one topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CatchUpReport {
    /// Events the publisher's retained ring replayed to us.
    pub replayed: u64,
    /// Of those, events actually applied (not already seen).
    pub applied: u64,
    /// Whether the replay was gap-free. `false` means the ring had
    /// already evicted part of the range: every cached validation for
    /// that issuer has been dropped in compensation.
    pub complete: bool,
}

/// The concrete journal + snapshot store an `OasisService` recovers from.
pub type ServiceJournal = DurableStore<SecurityEvent, ServiceSnapshot>;

thread_local! {
    /// The revocation scopes open on this thread: `(owner, events
    /// buffered so far)`, one entry per service. Ambient (like
    /// [`oasis_obs::scope`]) because a cascade re-enters the service
    /// through synchronous bus callbacks; more than one entry only when
    /// the cascade crosses services sharing a bus, each with its own
    /// journal.
    static SCOPES: RefCell<Vec<(usize, Vec<SecurityEvent>)>> = const { RefCell::new(Vec::new()) };
}

/// Opens `owner`'s revocation scope on this thread. Returns `false`,
/// changing nothing, when one is open already: only the caller that got
/// `true` may [`close_scope`].
pub(crate) fn open_scope(owner: usize) -> bool {
    SCOPES.with(|scopes| {
        let mut scopes = scopes.borrow_mut();
        let outermost = scopes.iter().all(|(o, _)| *o != owner);
        if outermost {
            scopes.push((owner, Vec::new()));
        }
        outermost
    })
}

/// Buffers `event` in `owner`'s open scope. Hands the event back when
/// this thread has no scope open for `owner`.
pub(crate) fn buffer_in_scope(owner: usize, event: SecurityEvent) -> Option<SecurityEvent> {
    SCOPES.with(
        |scopes| match scopes.borrow_mut().iter_mut().find(|(o, _)| *o == owner) {
            Some((_, events)) => {
                events.push(event);
                None
            }
            None => Some(event),
        },
    )
}

/// Closes `owner`'s scope and returns what it buffered, in order.
pub(crate) fn close_scope(owner: usize) -> Vec<SecurityEvent> {
    SCOPES.with(|scopes| {
        let mut scopes = scopes.borrow_mut();
        match scopes.iter().position(|(o, _)| *o == owner) {
            Some(at) => scopes.remove(at).1,
            None => Vec::new(),
        }
    })
}

json_enum! { SecurityEvent {
    CertIssued { record, depends_on, retained_checks },
    ValidationGranted { crr, presenter, at },
    CertRevoked { cert_id, reason, at },
    CertExpired { cert_id, at },
    RevocationApplied { topic, topic_seq, global_seq, crr },
    EpochChanged { epoch, at },
    RetainedPublished { entry },
} }
json_struct! { SnapshotRecord { record, depends_on, retained_checks } }
json_struct! { RetainedEntry { topic, topic_seq, global_seq, timestamp, event } }
json_struct! { Watermark { topic, topic_seq, global_seq } }

impl ToJson for ServiceSnapshot {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"next_cert\":");
        self.next_cert.write_json(out);
        out.push_str(",\"records\":");
        self.records.write_json(out);
        out.push_str(",\"watermarks\":");
        self.watermarks.write_json(out);
        out.push_str(",\"retained\":");
        self.retained.write_json(out);
        out.push('}');
    }
}

/// Not `json_struct!`: `retained` is absent in snapshots written before
/// retained-ring replication existed, and defaults to an empty ring.
impl FromJson for ServiceSnapshot {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let (mut next_cert, mut records, mut watermarks, mut retained) = (None, None, None, None);
        r.object(|r, key| {
            match key {
                "next_cert" if next_cert.is_none() => next_cert = Some(r.u64()?),
                "records" if records.is_none() => records = Some(FromJson::read_json(r)?),
                "watermarks" if watermarks.is_none() => {
                    watermarks = Some(FromJson::read_json(r)?);
                }
                "retained" if retained.is_none() => retained = Some(FromJson::read_json(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(ServiceSnapshot {
            next_cert: next_cert.ok_or_else(|| JsonError::missing("next_cert"))?,
            records: records.ok_or_else(|| JsonError::missing("records"))?,
            watermarks: watermarks.ok_or_else(|| JsonError::missing("watermarks"))?,
            retained: retained.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CredStatus, CredentialKind};
    use crate::ids::ServiceId;
    use crate::pattern::Term;
    use crate::value::Value;

    fn sample_record(id: u64, status: CredStatus) -> CredRecord {
        CredRecord {
            crr: Crr::new(ServiceId::new("svc"), CertId(id)),
            principal: PrincipalId::new("alice"),
            kind: CredentialKind::Rmc,
            name: "doctor".into(),
            args: vec![Value::id("dr-1")],
            issued_at: 3,
            expires_at: None,
            status,
        }
    }

    fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(value: &T) {
        let text = oasis_json::to_string(value);
        let back: T = oasis_json::from_str(&text).unwrap();
        assert_eq!(&back, value, "{text}");
    }

    #[test]
    fn every_event_variant_round_trips() {
        let crr = Crr::new(ServiceId::new("nhs"), CertId(9));
        for event in [
            SecurityEvent::CertIssued {
                record: sample_record(1, CredStatus::Active),
                depends_on: vec![crr.clone()],
                retained_checks: vec![Atom::EnvFact {
                    relation: "on_duty".into(),
                    args: vec![Term::val(Value::id("dr-1"))],
                    negated: false,
                }],
            },
            SecurityEvent::ValidationGranted {
                crr: crr.clone(),
                presenter: PrincipalId::new("alice"),
                at: 7,
            },
            SecurityEvent::CertRevoked {
                cert_id: CertId(1),
                reason: "logout".into(),
                at: 8,
            },
            SecurityEvent::CertExpired {
                cert_id: CertId(2),
                at: 9,
            },
            SecurityEvent::RevocationApplied {
                topic: "cred.revoked.nhs".into(),
                topic_seq: 4,
                global_seq: 17,
                crr,
            },
            SecurityEvent::EpochChanged { epoch: 2, at: 10 },
            SecurityEvent::RetainedPublished {
                entry: sample_retained(3),
            },
        ] {
            round_trip(&event);
        }
    }

    fn sample_retained(topic_seq: u64) -> RetainedEntry {
        RetainedEntry {
            topic: "cred.revoked.svc".into(),
            topic_seq,
            global_seq: topic_seq + 10,
            timestamp: 21,
            event: crate::cert::CertEvent {
                crr: Crr::new(ServiceId::new("svc"), CertId(topic_seq)),
                kind: crate::cert::CertEventKind::Revoked {
                    reason: "logout".into(),
                },
            },
        }
    }

    #[test]
    fn retained_entries_convert_to_and_from_delivered_events() {
        let entry = sample_retained(5);
        let delivered = entry.to_delivered();
        assert_eq!(delivered.topic.as_str(), "cred.revoked.svc");
        assert_eq!(RetainedEntry::from_delivered(&delivered), entry);
    }

    #[test]
    fn snapshots_without_a_retained_field_still_parse() {
        // A snapshot written before retained-ring replication existed.
        let legacy = r#"{"next_cert":1,"records":[],"watermarks":[]}"#;
        let snap: ServiceSnapshot = oasis_json::from_str(legacy).unwrap();
        assert!(snap.retained.is_empty());
        assert_eq!(snap.next_cert, 1);
    }

    #[test]
    fn snapshots_round_trip() {
        round_trip(&ServiceSnapshot::default());
        round_trip(&ServiceSnapshot {
            next_cert: 5,
            records: vec![SnapshotRecord {
                record: sample_record(
                    4,
                    CredStatus::Revoked {
                        reason: "cascade".into(),
                        at: 11,
                    },
                ),
                depends_on: vec![Crr::new(ServiceId::new("login"), CertId(2))],
                retained_checks: vec![],
            }],
            watermarks: vec![Watermark {
                topic: "cred.revoked.login".into(),
                topic_seq: 3,
                global_seq: 12,
            }],
            retained: vec![sample_retained(1), sample_retained(2)],
        });
    }

    #[test]
    fn events_survive_a_durable_store_cycle() {
        let store: ServiceJournal = ServiceJournal::in_memory();
        store
            .append(&SecurityEvent::CertRevoked {
                cert_id: CertId(1),
                reason: "test".into(),
                at: 1,
            })
            .unwrap();
        let recovered = store.load().unwrap();
        assert_eq!(recovered.events.len(), 1);
        assert!(recovered.snapshot.is_none());
    }
}
