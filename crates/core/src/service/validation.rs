//! Credential validation: own certificates directly, foreign ones by
//! callback to their issuer (Fig 4), memoised in the validation cache.

use std::collections::HashMap;

use parking_lot::Mutex;

use oasis_crypto::SecretKey;
use oasis_events::SourceHealth;

use super::{FailureAware, OasisService, RecordState};
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

/// The standing a present record gives the certificate `crr`: held by
/// `presenter`, and active.
fn standing(rec: &RecordState, crr: &Crr, presenter: &PrincipalId) -> Result<(), OasisError> {
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
    /// The issuer validates against the record it keeps (Fig 4): when
    /// this process issued the certificate and it is presented unaltered
    /// by its holder, every MAC input, the epoch and the MAC equal what
    /// was signed, so the match stands in for recomputing the MAC, and
    /// the record's standing is read under the same shard lock.
    /// Everything else (a record restored by recovery, any altered field,
    /// another presenter, an appointment past its expiry) takes the HMAC
    /// check. Either way the answer is the one the HMAC check gives.
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
        let crr = credential.crr();
        if !matches!(credential, Credential::Appointment(appt) if appt.is_expired(now)) {
            let shard = self.record_shard(crr.cert_id).lock();
            if let Some(rec) = shard.records.get(&crr.cert_id) {
                if rec
                    .seal
                    .as_ref()
                    .is_some_and(|seal| credential.is_sealed(&rec.record, seal, presenter))
                {
                    return standing(rec, crr, presenter);
                }
            }
        }
        if !credential.verify(&key, presenter) {
            return Err(OasisError::InvalidCredential {
                crr: crr.clone(),
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
        standing(rec, crr, presenter)
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use oasis_crypto::{IssuerSecret, PublicKey, SecretEpoch, SecretKey};
    use oasis_facts::FactStore;
    use oasis_store::MemBackend;

    use super::*;
    use crate::cert::AppointmentCertificate;
    use crate::durable::ServiceJournal;
    use crate::ids::RoleName;
    use crate::pattern::Term;
    use crate::{EnvContext, ServiceConfig, Value, ValueType};

    fn alice() -> PrincipalId {
        PrincipalId::new("alice")
    }

    fn bob() -> PrincipalId {
        PrincipalId::new("bob")
    }

    /// A service over `journal` whose secret is the same in every
    /// process, with a parametrised initial role whose holders appoint.
    fn service(journal: ServiceJournal) -> Arc<OasisService> {
        let secret = IssuerSecret::from_key(SecretKey::from_bytes([7; 32]));
        let svc = OasisService::new(
            ServiceConfig::new("svc")
                .with_secret(secret)
                .with_journal(journal),
            Arc::new(FactStore::new()),
        );
        svc.define_role(
            "boss",
            &[("unit", ValueType::Id), ("level", ValueType::Int)],
            true,
        )
        .unwrap();
        svc.add_activation_rule("boss", vec![Term::var("U"), Term::var("L")], vec![], vec![])
            .unwrap();
        svc.grant_appointer("boss", "deputy").unwrap();
        svc
    }

    fn journal(backends: &(MemBackend, MemBackend)) -> ServiceJournal {
        ServiceJournal::open(Arc::new(backends.0.clone()), Arc::new(backends.1.clone())).unwrap()
    }

    /// `validate_own` as it was before the record match: the issuer and
    /// epoch checks, the HMAC, then the record's standing.
    fn with_the_mac(
        svc: &OasisService,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let key = svc.own_key(credential)?;
        if !credential.verify(&key, presenter) {
            return Err(OasisError::InvalidCredential {
                crr: credential.crr().clone(),
                reason: "signature check failed (tampered, forged, or stolen)".into(),
            });
        }
        svc.own_standing(credential, presenter, now)
    }

    /// The certificate as issued, then every single alteration of what
    /// its MAC covers, each labelled.
    fn variants(issued: &Credential, live_epoch: SecretEpoch) -> Vec<(String, Credential)> {
        let mut out = vec![("as issued".to_string(), issued.clone())];
        let mut push = |label: String, change: &dyn Fn(&mut Credential)| {
            let mut c = issued.clone();
            change(&mut c);
            out.push((label, c));
        };
        fn fields(
            c: &mut Credential,
        ) -> (
            &mut Crr,
            &mut Vec<Value>,
            &mut u64,
            &mut Option<PublicKey>,
            &mut SecretEpoch,
            &mut [u8; 32],
        ) {
            match c {
                Credential::Rmc(r) => (
                    &mut r.crr,
                    &mut r.args,
                    &mut r.issued_at,
                    &mut r.holder_key,
                    &mut r.epoch,
                    &mut r.signature.0,
                ),
                Credential::Appointment(a) => (
                    &mut a.crr,
                    &mut a.args,
                    &mut a.issued_at,
                    &mut a.holder_key,
                    &mut a.epoch,
                    &mut a.signature.0,
                ),
            }
        }
        push("kind".into(), &|c| {
            *c = match c.clone() {
                Credential::Rmc(r) => Credential::Appointment(AppointmentCertificate {
                    crr: r.crr,
                    name: r.role.as_str().to_string(),
                    args: r.args,
                    issued_at: r.issued_at,
                    expires_at: None,
                    holder_key: r.holder_key,
                    epoch: r.epoch,
                    signature: r.signature,
                }),
                Credential::Appointment(a) => Credential::Rmc(crate::cert::Rmc {
                    crr: a.crr,
                    role: RoleName::new(a.name),
                    args: a.args,
                    issued_at: a.issued_at,
                    holder_key: a.holder_key,
                    epoch: a.epoch,
                    signature: a.signature,
                }),
            }
        });
        push("issuer".into(), &|c| {
            fields(c).0.issuer = ServiceId::new("other")
        });
        push("cert id".into(), &|c| fields(c).0.cert_id.0 += 1);
        push("name".into(), &|c| match c {
            Credential::Rmc(r) => r.role = RoleName::new("bosss"),
            Credential::Appointment(a) => a.name.push('s'),
        });
        for i in 0..issued.args().len() {
            push(format!("arg {i}"), &|c| {
                let arg = &mut fields(c).1[i];
                *arg = match arg {
                    Value::Int(n) => Value::Int(*n + 1),
                    _ => Value::id("elsewhere"),
                }
            });
        }
        push("one arg more".into(), &|c| fields(c).1.push(Value::Int(0)));
        push("one arg fewer".into(), &|c| {
            fields(c).1.pop();
        });
        push("issued_at".into(), &|c| *fields(c).2 += 1);
        if let Credential::Appointment(a) = issued {
            let deadline = a.expires_at.expect("issued with an expiry");
            for (label, expires_at) in [("later", Some(deadline + 1)), ("none", None)] {
                push(format!("expires_at {label}"), &|c| {
                    if let Credential::Appointment(a) = c {
                        a.expires_at = expires_at;
                    }
                });
            }
        }
        push("holder key".into(), &|c| {
            *fields(c).3 = Some(PublicKey([9; 32]))
        });
        push("no holder key".into(), &|c| *fields(c).3 = None);
        push("live epoch".into(), &|c| *fields(c).4 = live_epoch);
        push("unknown epoch".into(), &|c| *fields(c).4 = SecretEpoch(99));
        for byte in 0..32 {
            push(format!("MAC byte {byte}"), &|c| fields(c).5[byte] ^= 1);
        }
        out
    }

    /// Every case gives the same answer from `validate_own` as from the
    /// HMAC pipeline: the issued certificate, each single alteration of a
    /// MAC input, another live epoch, each MAC byte, and another
    /// presenter; active, revoked and expired. A service recovered from
    /// the journal has no seals and accepts the issued certificates by
    /// their MACs.
    #[test]
    fn record_match_agrees_with_the_mac() {
        let backends = (MemBackend::new(), MemBackend::new());
        let svc = service(journal(&backends));
        let ctx = EnvContext::new(10);
        let boss: Credential = svc
            .activate_role_with_key(
                &alice(),
                &RoleName::new("boss"),
                &[Value::id("ward"), Value::Int(3)],
                &[],
                PublicKey([1; 32]),
                &ctx,
            )
            .unwrap()
            .into();
        let deputy: Credential = svc
            .issue_appointment(
                &alice(),
                std::slice::from_ref(&boss),
                "deputy",
                vec![Value::id("ward"), Value::Int(4)],
                &bob(),
                Some(50),
                Some(PublicKey([2; 32])),
                &ctx,
            )
            .unwrap()
            .into();
        let live_epoch = svc.rotate_secret(10);

        let check = |svc: &OasisService, holder: &PrincipalId, issued: &Credential, now: u64| {
            for (label, credential) in variants(issued, live_epoch) {
                for presenter in [holder.clone(), PrincipalId::new("mallory")] {
                    let got = svc.validate_own(&credential, &presenter, now);
                    let want = with_the_mac(svc, &credential, &presenter, now);
                    assert_eq!(got, want, "{label}, presented by {presenter} at {now}");
                }
            }
        };
        for (holder, issued) in [(alice(), &boss), (bob(), &deputy)] {
            assert_eq!(svc.validate_own(issued, &holder, 20), Ok(()));
            check(&svc, &holder, issued, 20);
        }

        // A recovered process holds no seal: its answers come from the MAC.
        let recovered = service(journal(&backends));
        recovered.recover(20).unwrap();
        for (holder, issued) in [(alice(), &boss), (bob(), &deputy)] {
            let cert_id = issued.crr().cert_id;
            let shard = recovered.record_shard(cert_id).lock();
            assert!(
                shard.records[&cert_id].seal.is_none(),
                "no seal is journalled"
            );
            drop(shard);
            assert_eq!(recovered.validate_own(issued, &holder, 20), Ok(()));
            check(&recovered, &holder, issued, 20);
        }

        svc.revoke_certificate(boss.crr().cert_id, "shift over", 30);
        check(&svc, &alice(), &boss, 30);
        // Past its expiry the appointment ends, whichever path sees it.
        check(&svc, &bob(), &deputy, 60);
        assert!(svc.validate_own(&deputy, &bob(), 20).is_err());
    }
}
