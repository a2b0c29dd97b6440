//! Durability: the write-ahead journal, the revocation scope that
//! batches a cascade's entries into one append, and snapshots.

use std::sync::atomic::Ordering;

use oasis_crypto::SecretEpoch;
use oasis_store::JournalStats;

use super::{Durable, OasisService};
use crate::cert::revocation_topic;
use crate::durable::{
    self, RetainedEntry, SecurityEvent, ServiceSnapshot, SnapshotRecord, Watermark,
};
use crate::error::OasisError;

/// Guard for a service's open revocation scope (see
/// [`OasisService::revocation_scope`]): dropping it flushes.
pub(super) struct RevocationScope<'a> {
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

impl OasisService {
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
    pub(super) fn journal(&self, event: impl FnOnce() -> SecurityEvent) -> Result<(), OasisError> {
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
    pub(super) fn revocation_scope(&self) -> Option<RevocationScope<'_>> {
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
    pub(super) fn chaos_crash_pending(&self) -> bool {
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
    pub(super) fn maybe_autosnapshot(&self) {
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
        let mut records = self.scan(|r| {
            Some(SnapshotRecord {
                record: r.record.clone(),
                depends_on: r.depends_on.clone(),
                retained_checks: r.retained_checks().to_vec(),
            })
        });
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
}
