//! Credential validation: own certificates directly, foreign ones by
//! callback to their issuer (Fig 4), memoised in the validation cache.

use std::collections::HashMap;

use parking_lot::Mutex;

use oasis_crypto::SecretKey;
use oasis_events::SourceHealth;

use super::{FailureAware, OasisService};
use crate::cert::{CredStatus, Credential, Crr};
use crate::durable::SecurityEvent;
use crate::error::OasisError;
use crate::ids::{PrincipalId, ServiceId};
use crate::resilient::{classify_error, ErrorClass};

oasis_obs::stats_set! {
    /// Counters from the foreign-credential validation cache (see
    /// [`ServiceConfig::with_validation_cache`]); series `vcache.*` of the
    /// service's registry.
    ///
    /// [`ServiceConfig::with_validation_cache`]: super::ServiceConfig::with_validation_cache
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
pub(super) struct ValidationCache {
    ttl: u64,
    /// `(crr, presenter)` → virtual time the callback succeeded.
    entries: Mutex<HashMap<(Crr, PrincipalId), u64>>,
    series: ValidationCacheSeries,
}

impl ValidationCache {
    pub(super) fn new(ttl: u64, metrics: &oasis_obs::Registry) -> Self {
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

    pub(super) fn store(&self, crr: Crr, presenter: PrincipalId, now: u64) {
        self.entries.lock().insert((crr, presenter), now);
    }

    /// Drops every entry whose credential was issued by `issuer`,
    /// returning how many were evicted. Used when an issuer turns dead:
    /// with its event channel silent, none of its cached validations can
    /// be trusted to reflect revocations any more.
    pub(super) fn invalidate_issuer(&self, issuer: &ServiceId) -> u64 {
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
    pub(super) fn invalidate(&self, crr: &Crr) {
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

impl OasisService {
    /// Counters from the validation cache, or `None` when the cache is
    /// not enabled (see [`ServiceConfig::with_validation_cache`]).
    ///
    /// [`ServiceConfig::with_validation_cache`]: super::ServiceConfig::with_validation_cache
    pub fn validation_cache_stats(&self) -> Option<ValidationCacheStats> {
        self.vcache.as_ref().map(|cache| cache.series.read())
    }

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
    pub(super) fn own_key(&self, credential: &Credential) -> Result<SecretKey, OasisError> {
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
    pub(super) fn own_standing(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let crr = credential.crr();
        if let Credential::Appointment(appt) = credential {
            if appt.is_expired(now) {
                self.end_certificate(crr.cert_id, CredStatus::Expired { at: now }, now);
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
    /// (whose failure refuses the credential, cached or not), and a
    /// *dead* issuer's entries are evicted outright.
    ///
    /// # Errors
    ///
    /// As [`OasisService::validate_own`], plus [`OasisError::NoValidator`]
    /// when a foreign issuer is unreachable, or whatever transient error
    /// ([`OasisError::IssuerTimeout`], [`OasisError::CircuitOpen`]) the
    /// configured validator reports for an unreachable issuer.
    ///
    /// [`ServiceConfig::with_heartbeats`]: super::ServiceConfig::with_heartbeats
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
                return self.validate_suspect(credential, presenter, now);
            }
            return self.issuer_callback(credential, presenter, now);
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
                self.issuer_callback(credential, presenter, now)
            }
            // Late: cached authority is suspect; require a fresh answer.
            Some(SourceHealth::Late) => self.validate_suspect(credential, presenter, now),
            // Dead: cached authority is void; only a live answer grants.
            Some(SourceHealth::Dead) => {
                self.note_issuer_dead(&issuer, now);
                self.issuer_callback(credential, presenter, now)
            }
        }
    }

    /// The late-issuer validation path: a cache hit alone no longer
    /// grants, and only a fresh answer from the issuer does. A suspect
    /// cache entry whose callback failed *transiently* is refused and
    /// counted; a fatal answer (revoked, bad signature) is returned as
    /// it came.
    fn validate_suspect(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let fa = self.fa.as_ref().expect("suspect path requires heartbeats");
        fa.counters.suspect_revalidations.inc();
        let result = self.issuer_callback(credential, presenter, now);
        if let Err(error) = &result {
            let cached = self
                .vcache
                .as_ref()
                .and_then(|cache| cache.age(credential.crr(), presenter, now))
                .is_some();
            if cached && classify_error(error) == ErrorClass::Transient {
                fa.counters.stale_refused.inc();
            }
        }
        result
    }

    /// Performs the callback to a foreign issuer through the configured
    /// validator. A success is memoised in the validation cache and
    /// journalled, so a recovered service restores its cache warmth
    /// instead of stampeding issuers with callbacks. A fresh answer is
    /// safe to memoise whatever the issuer's heartbeat health: the issuer
    /// answered, so at worst its heartbeat path is broken.
    fn issuer_callback(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let validator = self.validator.read().clone();
        let result = match validator {
            Some(v) => v.validate(credential, presenter, now),
            None => Err(OasisError::NoValidator(credential.issuer().clone())),
        };
        if let (Ok(()), Some(cache)) = (&result, &self.vcache) {
            let crr = credential.crr();
            cache.store(crr.clone(), presenter.clone(), now);
            let _ = self.journal(|| SecurityEvent::ValidationGranted {
                crr: crr.clone(),
                presenter: presenter.clone(),
                at: now,
            });
            self.maybe_autosnapshot();
        }
        result
    }
}
