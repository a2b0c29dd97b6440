//! Failure-aware issuer callbacks: retries, error classification, and a
//! per-issuer circuit breaker.
//!
//! A validation callback crosses the network in a real deployment, and
//! networks fail in two very different ways. A *transient* failure (the
//! issuer is briefly unreachable, a packet timed out) says nothing about
//! the credential and deserves a retry; a *fatal* answer (the issuer
//! responded "revoked") is authoritative and must never be retried into
//! success. [`ResilientValidator`] decorates any
//! [`CredentialValidator`] with exactly that split:
//!
//! * transient errors are retried under the shared [`RetryPolicy`] —
//!   capped exponential backoff with deterministic jitter, bounded by a
//!   total-delay budget;
//! * each issuer gets a circuit breaker (closed → open → half-open):
//!   after 3 consecutive exhausted retry sequences the breaker opens and
//!   calls fast-fail with [`OasisError::CircuitOpen`] instead of burning
//!   a timeout each, until a cooldown of 30 ticks admits a single
//!   half-open probe.
//!
//! Both numbers are fixed. A tick is the caller's clock: the `now`
//! already threaded through every `validate` call, a virtual tick in the
//! deterministic simulator and a millisecond of the server's clock on a
//! wire server. The breaker thus composes with the heartbeat machinery
//! in [`OasisService`](crate::OasisService).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::cert::Credential;
use crate::error::OasisError;
use crate::ids::{PrincipalId, ServiceId};
use crate::retry::{Backoff, RetryPolicy};
use crate::validate::CredentialValidator;

/// Whether an error from a validation callback may be retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The issuer could not be reached (or answered too slowly); a retry
    /// may succeed and the credential's status is unknown.
    Transient,
    /// The issuer (or local checking) gave an authoritative answer;
    /// retrying cannot change it.
    Fatal,
}

/// Classifies a validation error as transient or fatal.
///
/// Unreachable-issuer conditions ([`OasisError::NoValidator`],
/// [`OasisError::IssuerTimeout`], [`OasisError::CircuitOpen`]) and
/// saturation sheds ([`OasisError::Overloaded`]) are transient; everything
/// else — bad signature, revoked, unknown record, policy denials — is an
/// authoritative answer and fatal.
pub fn classify_error(error: &OasisError) -> ErrorClass {
    match error {
        OasisError::NoValidator(_)
        | OasisError::IssuerTimeout(_)
        | OasisError::CircuitOpen(_)
        | OasisError::Overloaded { .. } => ErrorClass::Transient,
        _ => ErrorClass::Fatal,
    }
}

/// Consecutive exhausted retry sequences before a breaker opens.
const FAILURE_THRESHOLD: u32 = 3;

/// Ticks of the caller's clock a breaker stays open before admitting one
/// half-open probe.
const COOLDOWN_TICKS: u64 = 30;

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { since: u64 },
    HalfOpen,
}

impl Default for BreakerState {
    fn default() -> Self {
        BreakerState::Closed {
            consecutive_failures: 0,
        }
    }
}

oasis_obs::stats_set! {
    /// Counters from a [`ResilientValidator`], the decorator-side complement
    /// of [`ValidationCacheStats`](crate::ValidationCacheStats), read from
    /// its registry series ([`ResilientValidator::metrics`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ResilientStats / ResilientSeries {
        /// `validate` calls received.
        calls: u64 = counter,
        /// Calls that ultimately succeeded.
        successes: u64 = counter,
        /// Individual retries performed (beyond first attempts).
        retries: u64 = counter,
        /// Attempts that failed with a transient error (excluding overload
        /// sheds, which are counted separately — a shed is an answer from a
        /// live service, not evidence of a broken transport).
        transient_failures: u64 = counter,
        /// Attempts the issuer shed with [`OasisError::Overloaded`]. These
        /// never count toward opening the issuer's circuit breaker.
        overload_sheds: u64 = counter,
        /// Attempts that failed with a fatal (authoritative) error.
        fatal_failures: u64 = counter,
        /// Times a breaker transitioned to open.
        breaker_opens: u64 = counter,
        /// Calls answered instantly with [`OasisError::CircuitOpen`].
        breaker_fast_fails: u64 = counter,
        /// Times a breaker closed again (successful probe or answer).
        breaker_closes: u64 = counter,
    }
}

type Sleeper = dyn Fn(Duration) + Send + Sync;

/// A [`CredentialValidator`] decorator adding retries with backoff and a
/// per-issuer circuit breaker. See the [module docs](self).
///
/// # Example
///
/// ```
/// use oasis_core::{LocalRegistry, ResilientValidator};
/// use oasis_core::retry::RetryPolicy;
/// use std::sync::Arc;
///
/// let registry = Arc::new(LocalRegistry::new());
/// let validator = ResilientValidator::new(registry)
///     .with_retry(RetryPolicy::immediate(3));
/// assert_eq!(validator.stats().calls, 0);
/// ```
pub struct ResilientValidator {
    inner: Arc<dyn CredentialValidator>,
    retry: RetryPolicy,
    breakers: Mutex<HashMap<ServiceId, BreakerState>>,
    sleeper: Box<Sleeper>,
    jitter_seed: AtomicU64,
    metrics: oasis_obs::Registry,
    counters: ResilientSeries,
}

impl std::fmt::Debug for ResilientValidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientValidator")
            .field("retry", &self.retry)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResilientValidator {
    /// Wraps `inner` with the default retry policy.
    pub fn new(inner: Arc<dyn CredentialValidator>) -> Self {
        let metrics = oasis_obs::Registry::new();
        Self {
            inner,
            retry: RetryPolicy::default(),
            breakers: Mutex::new(HashMap::new()),
            sleeper: Box::new(|d| {
                if d > Duration::ZERO {
                    std::thread::sleep(d);
                }
            }),
            jitter_seed: AtomicU64::new(0x5DEE_CE66_D001_u64),
            counters: ResilientSeries::resolve(&metrics, ""),
            metrics,
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the function used to sleep between retries (tests inject
    /// a no-op; deployments keep the default `thread::sleep`).
    #[must_use]
    pub fn with_sleeper(mut self, sleeper: impl Fn(Duration) + Send + Sync + 'static) -> Self {
        self.sleeper = Box::new(sleeper);
        self
    }

    /// A snapshot of the retry/breaker counters.
    pub fn stats(&self) -> ResilientStats {
        self.counters.read()
    }

    /// The validator's own registry, holding the [`ResilientStats`]
    /// series; share it into a caller's recorder with
    /// [`oasis_obs::Recorder::adopt`].
    pub fn metrics(&self) -> &oasis_obs::Registry {
        &self.metrics
    }

    /// The breaker state for `issuer`: `"closed"`, `"open"`, or
    /// `"half-open"` (a never-contacted issuer reads as closed).
    pub fn breaker_state(&self, issuer: &ServiceId) -> &'static str {
        match self.breakers.lock().get(issuer) {
            None | Some(BreakerState::Closed { .. }) => "closed",
            Some(BreakerState::Open { .. }) => "open",
            Some(BreakerState::HalfOpen) => "half-open",
        }
    }

    /// Gate a call through the breaker. `Ok(())` admits the call (and may
    /// have moved the breaker to half-open, making this call the probe).
    fn admit(&self, issuer: &ServiceId, now: u64) -> Result<(), OasisError> {
        let mut breakers = self.breakers.lock();
        let state = breakers.entry(issuer.clone()).or_default();
        match *state {
            BreakerState::Closed { .. } => Ok(()),
            BreakerState::Open { since } if now >= since.saturating_add(COOLDOWN_TICKS) => {
                *state = BreakerState::HalfOpen;
                Ok(())
            }
            BreakerState::Open { .. } | BreakerState::HalfOpen => {
                self.counters.breaker_fast_fails.inc();
                Err(OasisError::CircuitOpen(issuer.clone()))
            }
        }
    }

    /// The issuer answered (success or authoritative rejection): reset
    /// the breaker.
    fn record_answer(&self, issuer: &ServiceId) {
        let mut breakers = self.breakers.lock();
        let state = breakers.entry(issuer.clone()).or_default();
        if !matches!(
            *state,
            BreakerState::Closed {
                consecutive_failures: 0
            }
        ) {
            if matches!(*state, BreakerState::Open { .. } | BreakerState::HalfOpen) {
                self.counters.breaker_closes.inc();
            }
            *state = BreakerState::default();
        }
    }

    /// A retry sequence exhausted without an answer: count it against the
    /// breaker.
    fn record_unreachable(&self, issuer: &ServiceId, now: u64) {
        let mut breakers = self.breakers.lock();
        let state = breakers.entry(issuer.clone()).or_default();
        let open = match *state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let failures = consecutive_failures + 1;
                if failures >= FAILURE_THRESHOLD {
                    true
                } else {
                    *state = BreakerState::Closed {
                        consecutive_failures: failures,
                    };
                    false
                }
            }
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => false,
        };
        if open {
            *state = BreakerState::Open { since: now };
            self.counters.breaker_opens.inc();
        }
    }
}

impl CredentialValidator for ResilientValidator {
    fn validate(
        &self,
        credential: &Credential,
        presenter: &PrincipalId,
        now: u64,
    ) -> Result<(), OasisError> {
        let issuer = credential.issuer();
        self.counters.calls.inc();
        self.admit(issuer, now)?;

        let seed = self.jitter_seed.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::with_seed(self.retry, seed);
        loop {
            match self.inner.validate(credential, presenter, now) {
                Ok(()) => {
                    self.counters.successes.inc();
                    self.record_answer(issuer);
                    return Ok(());
                }
                Err(error) => match classify_error(&error) {
                    ErrorClass::Fatal => {
                        self.counters.fatal_failures.inc();
                        // The issuer *answered*; its reachability is fine.
                        self.record_answer(issuer);
                        return Err(error);
                    }
                    ErrorClass::Transient => {
                        let shed_hint = match &error {
                            OasisError::Overloaded { retry_after_ms, .. } => Some(*retry_after_ms),
                            _ => None,
                        };
                        if shed_hint.is_some() {
                            self.counters.overload_sheds.inc();
                        } else {
                            self.counters.transient_failures.inc();
                        }
                        match backoff.next_delay() {
                            Some(delay) => {
                                self.counters.retries.inc();
                                // An overloaded issuer said exactly when to
                                // come back: its hint replaces the generic
                                // backoff delay, still bounded by the
                                // policy's total-delay budget.
                                let delay = match shed_hint {
                                    Some(ms) => {
                                        Duration::from_millis(ms).min(self.retry.total_delay_cap)
                                    }
                                    None => delay,
                                };
                                (self.sleeper)(delay);
                            }
                            None => {
                                // A shed is an answer from a live service;
                                // it proves reachability rather than
                                // refuting it, so it resets the breaker
                                // instead of charging it.
                                match shed_hint {
                                    Some(_) => self.record_answer(issuer),
                                    None => self.record_unreachable(issuer, now),
                                }
                                return Err(error);
                            }
                        }
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    struct Flaky {
        up: Arc<AtomicBool>,
        attempts: AtomicU64,
        fail_first: u64,
    }

    impl CredentialValidator for Flaky {
        fn validate(
            &self,
            credential: &Credential,
            _presenter: &PrincipalId,
            _now: u64,
        ) -> Result<(), OasisError> {
            let n = self.attempts.fetch_add(1, Ordering::Relaxed);
            if !self.up.load(Ordering::Relaxed) || n < self.fail_first {
                return Err(OasisError::IssuerTimeout(credential.issuer().clone()));
            }
            Ok(())
        }
    }

    fn world(up: bool, fail_first: u64) -> (Arc<Flaky>, ResilientValidator, Credential) {
        let flaky = Arc::new(Flaky {
            up: Arc::new(AtomicBool::new(up)),
            attempts: AtomicU64::new(0),
            fail_first,
        });
        let validator = ResilientValidator::new(Arc::clone(&flaky) as Arc<dyn CredentialValidator>)
            .with_retry(RetryPolicy::immediate(3));
        let secret = oasis_crypto::IssuerSecret::random();
        let rmc = crate::cert::Rmc::issue(
            &secret.current(),
            secret.current_epoch(),
            &PrincipalId::new("alice"),
            crate::cert::Crr::new(ServiceId::new("issuer"), crate::ids::CertId(1)),
            crate::ids::RoleName::new("guest"),
            vec![],
            0,
            None,
        );
        (flaky, validator, Credential::Rmc(rmc))
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let (flaky, validator, cred) = world(true, 2);
        validator
            .validate(&cred, &PrincipalId::new("alice"), 0)
            .unwrap();
        assert_eq!(flaky.attempts.load(Ordering::Relaxed), 3);
        let stats = validator.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.successes, 1);
        assert_eq!(stats.transient_failures, 2);
    }

    #[test]
    fn breaker_opens_after_threshold_and_fast_fails() {
        let (flaky, validator, cred) = world(false, 0);
        let alice = PrincipalId::new("alice");
        // Three exhausted sequences (the threshold) open the breaker.
        assert!(validator.validate(&cred, &alice, 0).is_err());
        assert!(validator.validate(&cred, &alice, 1).is_err());
        assert_eq!(validator.breaker_state(cred.issuer()), "closed");
        assert!(validator.validate(&cred, &alice, 2).is_err());
        assert_eq!(validator.breaker_state(cred.issuer()), "open");
        let attempts_before = flaky.attempts.load(Ordering::Relaxed);

        // While open, calls never reach the inner validator.
        let err = validator.validate(&cred, &alice, 3).unwrap_err();
        assert!(matches!(err, OasisError::CircuitOpen(_)));
        assert_eq!(flaky.attempts.load(Ordering::Relaxed), attempts_before);
        assert_eq!(validator.stats().breaker_fast_fails, 1);
        assert_eq!(validator.stats().breaker_opens, 1);
    }

    #[test]
    fn half_open_probe_closes_breaker_on_recovery() {
        let (flaky, validator, cred) = world(false, 0);
        let alice = PrincipalId::new("alice");
        for _ in 0..FAILURE_THRESHOLD {
            assert!(validator.validate(&cred, &alice, 0).is_err());
        }
        assert_eq!(validator.breaker_state(cred.issuer()), "open");

        // Still open one tick short of the cooldown.
        let err = validator.validate(&cred, &alice, COOLDOWN_TICKS - 1);
        assert!(matches!(err, Err(OasisError::CircuitOpen(_))));

        // Cooldown (30 ticks) passes and the issuer recovers.
        flaky.up.store(true, Ordering::Relaxed);
        validator
            .validate(&cred, &alice, COOLDOWN_TICKS + 1)
            .unwrap();
        assert_eq!(validator.breaker_state(cred.issuer()), "closed");
        assert_eq!(validator.stats().breaker_closes, 1);

        // And stays closed for subsequent traffic.
        validator
            .validate(&cred, &alice, COOLDOWN_TICKS + 2)
            .unwrap();
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let (_flaky, validator, cred) = world(false, 0);
        let alice = PrincipalId::new("alice");
        for _ in 0..FAILURE_THRESHOLD {
            assert!(validator.validate(&cred, &alice, 0).is_err());
        }
        // Probe after cooldown fails: re-open, counted as another open.
        assert!(validator
            .validate(&cred, &alice, 2 * COOLDOWN_TICKS)
            .is_err());
        assert_eq!(validator.breaker_state(cred.issuer()), "open");
        assert_eq!(validator.stats().breaker_opens, 2);
        // And the fresh open means fast-fail again before the next cooldown.
        let err = validator
            .validate(&cred, &alice, 2 * COOLDOWN_TICKS + 1)
            .unwrap_err();
        assert!(matches!(err, OasisError::CircuitOpen(_)));
    }

    #[test]
    fn fatal_errors_are_not_retried_and_do_not_trip_breaker() {
        struct Rejecting;
        impl CredentialValidator for Rejecting {
            fn validate(
                &self,
                credential: &Credential,
                _presenter: &PrincipalId,
                _now: u64,
            ) -> Result<(), OasisError> {
                Err(OasisError::UnknownCertificate(credential.crr().clone()))
            }
        }
        let validator =
            ResilientValidator::new(Arc::new(Rejecting)).with_retry(RetryPolicy::immediate(5));
        let (_, _, cred) = world(true, 0);
        let alice = PrincipalId::new("alice");
        // More fatal answers than the breaker's threshold.
        for now in 0..5 {
            let err = validator.validate(&cred, &alice, now).unwrap_err();
            assert!(matches!(err, OasisError::UnknownCertificate(_)));
        }
        let stats = validator.stats();
        assert_eq!(stats.retries, 0, "fatal answers are never retried");
        assert_eq!(stats.fatal_failures, 5);
        assert_eq!(validator.breaker_state(cred.issuer()), "closed");
    }

    /// An inner validator that always sheds with a fixed retry hint.
    struct Shedding {
        retry_after_ms: u64,
    }

    impl CredentialValidator for Shedding {
        fn validate(
            &self,
            credential: &Credential,
            _presenter: &PrincipalId,
            _now: u64,
        ) -> Result<(), OasisError> {
            Err(OasisError::Overloaded {
                service: credential.issuer().clone(),
                retry_after_ms: self.retry_after_ms,
            })
        }
    }

    #[test]
    fn overload_hint_replaces_generic_backoff_delay() {
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let slept2 = Arc::clone(&slept);
        let validator = ResilientValidator::new(Arc::new(Shedding { retry_after_ms: 37 }))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(200),
                total_delay_cap: Duration::from_secs(10),
                jitter: 0.0,
            })
            .with_sleeper(move |d| slept2.lock().push(d));
        let (_, _, cred) = world(true, 0);
        let err = validator
            .validate(&cred, &PrincipalId::new("alice"), 0)
            .unwrap_err();
        assert!(matches!(err, OasisError::Overloaded { .. }));
        // Both retries slept the server's hint, not the 10/20ms schedule.
        assert_eq!(
            *slept.lock(),
            vec![Duration::from_millis(37), Duration::from_millis(37)]
        );
    }

    #[test]
    fn overload_hint_is_clamped_to_total_delay_cap() {
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let slept2 = Arc::clone(&slept);
        let validator = ResilientValidator::new(Arc::new(Shedding {
            retry_after_ms: 60_000,
        }))
        .with_retry(RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
            total_delay_cap: Duration::from_millis(250),
            jitter: 0.0,
        })
        .with_sleeper(move |d| slept2.lock().push(d));
        let (_, _, cred) = world(true, 0);
        let _ = validator.validate(&cred, &PrincipalId::new("alice"), 0);
        assert_eq!(*slept.lock(), vec![Duration::from_millis(250)]);
    }

    #[test]
    fn overload_sheds_counted_separately_and_spare_the_breaker() {
        let validator = ResilientValidator::new(Arc::new(Shedding { retry_after_ms: 5 }))
            .with_retry(RetryPolicy::immediate(2));
        let (_, _, cred) = world(true, 0);
        let alice = PrincipalId::new("alice");
        // Threshold is 3: three exhausted *transport* sequences would
        // open the breaker. Four exhausted shed sequences must not.
        for now in 0..4 {
            let err = validator.validate(&cred, &alice, now).unwrap_err();
            assert!(matches!(err, OasisError::Overloaded { .. }));
        }
        let stats = validator.stats();
        assert_eq!(stats.overload_sheds, 8, "2 attempts x 4 calls");
        assert_eq!(stats.transient_failures, 0);
        assert_eq!(stats.breaker_opens, 0);
        assert_eq!(validator.breaker_state(cred.issuer()), "closed");
    }

    #[test]
    fn classification_table() {
        let sid = ServiceId::new("x");
        assert_eq!(
            classify_error(&OasisError::NoValidator(sid.clone())),
            ErrorClass::Transient
        );
        assert_eq!(
            classify_error(&OasisError::IssuerTimeout(sid.clone())),
            ErrorClass::Transient
        );
        assert_eq!(
            classify_error(&OasisError::CircuitOpen(sid.clone())),
            ErrorClass::Transient
        );
        assert_eq!(
            classify_error(&OasisError::Overloaded {
                service: sid.clone(),
                retry_after_ms: 10
            }),
            ErrorClass::Transient
        );
        assert_eq!(
            classify_error(&OasisError::UnknownRole(crate::ids::RoleName::new("r"))),
            ErrorClass::Fatal
        );
    }
}
