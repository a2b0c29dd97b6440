//! Revocation and active security (Fig 5): revoke, the dependency
//! cascade, fact changes, expiry and membership re-checks.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use oasis_events::DeliveredEvent;
use oasis_facts::FactChange;

use super::{shard_of_hash, OasisService};
use crate::audit::AuditKind;
use crate::cert::{
    revocation_topic, CertEvent, CertEventKind, CredStatus, Credential, CredentialKind, Crr,
};
use crate::durable::{RetainedEntry, SecurityEvent};
use crate::env::EnvContext;
use crate::ids::{CertId, PrincipalId, RoleName};
use crate::plan::CredIndex;
use crate::rule::Atom;
use crate::value::Value;

impl OasisService {
    /// Every `cred.revoked.*` delivery lands here — live from the bus
    /// or resynced by [`OasisService::catch_up`]: evict the cache,
    /// journal the watermark (foreign topics only: our own revocations
    /// are already journalled as [`SecurityEvent::CertRevoked`]), and
    /// run the dependency cascade.
    pub(super) fn handle_revocation_delivery(&self, event: &DeliveredEvent<CertEvent>) {
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
        self.last_now.store(now, Ordering::Relaxed);
        let status = CredStatus::Revoked {
            reason: reason.to_string(),
            at: now,
        };
        let revoked = self.end_certificate(cert_id, status, now);
        if revoked {
            self.requests.revocations.inc();
        }
        revoked
    }

    /// Ends an active certificate with `status` (revoked or expired):
    /// journals the change, marks the record, audits it and publishes
    /// the revocation event, whose subscribers collapse the dependents.
    /// Returns `false` when the certificate was not active.
    pub(super) fn end_certificate(&self, cert_id: CertId, status: CredStatus, now: u64) -> bool {
        let _batch = self.revocation_scope();
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
            let _ = self.journal(|| match &status {
                CredStatus::Revoked { reason, .. } => SecurityEvent::CertRevoked {
                    cert_id,
                    reason: reason.clone(),
                    at: now,
                },
                _ => SecurityEvent::CertExpired { cert_id, at: now },
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
            rec.record.status = status.clone();
            rec.record.crr.clone()
        };
        let reason = match status {
            CredStatus::Revoked { reason, .. } => {
                let audit = AuditKind::CertRevoked {
                    crr: crr.clone(),
                    reason: reason.clone(),
                };
                self.audit.record(now, audit);
                reason
            }
            _ => {
                self.audit
                    .record(now, AuditKind::CertExpired { crr: crr.clone() });
                "expired".into()
            }
        };
        // Publishing triggers dependent collapse synchronously (subscribed
        // callbacks run on this thread, with no shard lock held) — the
        // "active security" property.
        self.publish_revocation_event(
            CertEvent {
                crr,
                kind: CertEventKind::Revoked { reason },
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
        let to_revoke = self.scan(|r| {
            (r.record.status.is_active()
                && r.record.kind == CredentialKind::Rmc
                && r.record.principal == *principal)
                .then_some(r.record.crr.cert_id)
        });
        let mut revoked = 0;
        for cert_id in to_revoke {
            // Cascades may have revoked later entries already.
            if self.revoke_certificate(cert_id, reason, now) {
                revoked += 1;
            }
        }
        revoked
    }

    /// Proactively expires every appointment certificate past its deadline
    /// at `now`; returns how many lapsed. (Expiry is otherwise noticed
    /// lazily at validation time.)
    pub fn expire_certificates(&self, now: u64) -> usize {
        let _batch = self.revocation_scope();
        let due = self.scan(|r| {
            (r.record.status.is_active() && r.record.expires_at.is_some_and(|d| now > d))
                .then_some(r.record.crr.cert_id)
        });
        for cert_id in &due {
            self.end_certificate(*cert_id, CredStatus::Expired { at: now }, now);
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
    pub(super) fn handle_fact_change(&self, change: &FactChange<Value>) {
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
    ///
    /// [`CheckPlan`]: crate::plan::CheckPlan
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

        // Checks are evaluated after the scan has released its locks
        // (evaluation may be arbitrarily slow).
        let to_check = self.scan(|r| {
            let plan = r.check.as_ref().filter(|_| r.record.status.is_active())?;
            if let Some(filter) = roles {
                let covered = r.record.kind == CredentialKind::Rmc
                    && filter.contains(&RoleName::new(r.record.name.clone()));
                if !covered {
                    return None;
                }
            }
            if skip_fact_only && !plan.is_time_sensitive() {
                return None;
            }
            Some((r.record.crr.cert_id, Arc::clone(plan)))
        });

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
}
