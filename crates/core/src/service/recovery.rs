//! Crash recovery: snapshot and journal replay, and catch-up on the
//! revocations published while the service was down.

use std::sync::atomic::Ordering;

use oasis_events::{DeliveredEvent, EventBus, Topic};

use super::{shard_of_hash, OasisService, RecordState};
use crate::audit::AuditKind;
use crate::cert::{CertEvent, CredStatus};
use crate::durable::{CatchUpReport, RecoveryReport, SecurityEvent, ServiceSnapshot};
use crate::error::OasisError;
use crate::ids::{CertId, ServiceId};

impl OasisService {
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
    ///
    /// [`ServiceConfig::with_secret`]: super::ServiceConfig::with_secret
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
    ///
    /// [`ServiceConfig::with_revocation_retention`]: super::ServiceConfig::with_revocation_retention
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
}
