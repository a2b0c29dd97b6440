//! Failure awareness: issuer heartbeats, and fail-safe degradation of a
//! silent issuer's cached validations and dependent roles.

use std::sync::atomic::Ordering;

use oasis_events::SourceHealth;

use super::{DeadIssuer, FailureAware, OasisService, WatchedIssuer};
use crate::cert::Crr;
use crate::ids::ServiceId;

oasis_obs::stats_set! {
    /// Counters from the failure-aware validation layer (see
    /// [`ServiceConfig::with_heartbeats`]), alongside
    /// [`ValidationCacheStats`] and the decorator-side
    /// [`ResilientStats`](crate::ResilientStats); series `degradation.*`
    /// of the service's registry. The layer is fail-safe: a suspect cache
    /// entry is never served.
    ///
    /// [`ServiceConfig::with_heartbeats`]: super::ServiceConfig::with_heartbeats
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DegradationStats / DegradationSeries {
        /// Validations forced to a fresh callback because the issuer was
        /// late (the cache hit was suspect).
        suspect_revalidations: u64 = counter,
        /// Suspect cache entries refused because the fresh callback
        /// failed.
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

impl OasisService {
    /// Starts monitoring `issuer` as a heartbeat source expected to beat
    /// every `interval` ticks, with an implicit first beat at `now`. The
    /// same interval is the grace a dead issuer gets before its dependent
    /// roles are deactivated. Re-watching a known issuer resets its beat
    /// clock and clears any dead-issuer state. Returns `false` when the
    /// failure-aware layer is off ([`ServiceConfig::with_heartbeats`] not
    /// configured).
    ///
    /// [`ServiceConfig::with_heartbeats`]: super::ServiceConfig::with_heartbeats
    pub fn watch_issuer(&self, issuer: &ServiceId, interval: u64, now: u64) -> bool {
        match &self.fa {
            Some(fa) => {
                fa.monitor
                    .register(FailureAware::source(issuer), interval, now);
                fa.watched.lock().insert(
                    issuer.clone(),
                    WatchedIssuer {
                        interval,
                        dead: None,
                    },
                );
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
        let recovered = fa
            .watched
            .lock()
            .get_mut(issuer)
            .and_then(|w| w.dead.take())
            .is_some();
        if recovered {
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
    /// dead get their cached validations evicted, and issuers dead for
    /// one heartbeat interval (the one [`OasisService::watch_issuer`]
    /// registered) have their dependent certificates deactivated through
    /// the ordinary revocation cascade. Call this periodically (each
    /// simulator tick, or on a maintenance timer). Returns the CRRs
    /// revoked directly by degradation.
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
        // Collect grace-expired issuers under the ledger lock, then
        // revoke with no lock held (cascades re-enter the shards).
        let mut expired: Vec<ServiceId> = Vec::new();
        for (issuer, watched) in fa.watched.lock().iter_mut() {
            let Some(dead) = &mut watched.dead else {
                continue;
            };
            if !dead.degraded && now.saturating_sub(dead.since) >= watched.interval {
                dead.degraded = true;
                expired.push(issuer.clone());
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

    /// Marks the watched `issuer` dead (the first observation stamps
    /// `since`) and evicts its cached validations, once.
    pub(super) fn note_issuer_dead(&self, issuer: &ServiceId, now: u64) {
        let Some(fa) = &self.fa else {
            return;
        };
        {
            let mut watched = fa.watched.lock();
            let Some(watched) = watched.get_mut(issuer) else {
                return;
            };
            if watched.dead.is_some() {
                return;
            }
            watched.dead = Some(DeadIssuer {
                since: now,
                degraded: false,
            });
        }
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
        let mut victims = self.scan(|r| {
            (r.record.status.is_active() && r.depends_on.iter().any(|dep| dep.issuer == *issuer))
                .then(|| r.record.crr.clone())
        });
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
}
