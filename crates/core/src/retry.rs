//! Capped exponential backoff with deterministic jitter.
//!
//! The shared retry schedule for everything in the system that talks to a
//! possibly-dead peer. Each call has one retry owner that runs it: the
//! [`ResilientValidator`](crate::ResilientValidator) for issuer callbacks
//! (`oasis-wire`'s `RemoteValidator` beneath it makes one attempt), and
//! `oasis-wire`'s `FailoverClient` for clients of a replicated cluster.
//! One implementation so both back off the same way and tests can reason
//! about the schedule.
//!
//! Jitter is *deterministic*: the spread comes from a seeded xorshift
//! stream, so two [`Backoff`]s built with the same seed produce the same
//! delays. That keeps the chaos harness and the wire tests exactly
//! repeatable while still decorrelating real deployments (seed per
//! connection).

use std::time::Duration;

/// The retry schedule: how many attempts, how delays grow, and the caps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total tries, including the first (so `max_attempts = 1` means no
    /// retries at all).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling any single delay is clamped to.
    pub max_delay: Duration,
    /// Total-deadline budget: once the accumulated delay would exceed
    /// this, retrying stops even if attempts remain.
    pub total_delay_cap: Duration,
    /// Fraction of each delay randomised, in `[0, 1]`. A jitter of 0.5
    /// spreads each delay uniformly over `[0.75d, 1.25d]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            total_delay_cap: Duration::from_secs(1),
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no delays).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// A zero-delay policy for virtual-time tests: `max_attempts` tries
    /// with no real sleeping between them.
    pub fn immediate(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            total_delay_cap: Duration::ZERO,
            jitter: 0.0,
        }
    }
}

/// One retry sequence: yields the delay to sleep before each retry, or
/// `None` when the policy is exhausted.
///
/// # Example
///
/// ```
/// use oasis_core::retry::{Backoff, RetryPolicy};
/// use std::time::Duration;
///
/// let policy = RetryPolicy {
///     max_attempts: 3,
///     base_delay: Duration::from_millis(10),
///     max_delay: Duration::from_millis(40),
///     total_delay_cap: Duration::from_secs(1),
///     jitter: 0.0,
/// };
/// let mut backoff = Backoff::new(policy);
/// assert_eq!(backoff.next_delay(), Some(Duration::from_millis(10)));
/// assert_eq!(backoff.next_delay(), Some(Duration::from_millis(20)));
/// assert_eq!(backoff.next_delay(), None, "3 attempts = 2 retries");
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    retries_done: u32,
    accumulated: Duration,
    rng: u64,
}

impl Backoff {
    /// Starts a sequence with a fixed default seed (fully deterministic).
    pub fn new(policy: RetryPolicy) -> Self {
        Self::with_seed(policy, 0x9E37_79B9_7F4A_7C15)
    }

    /// Starts a sequence whose jitter stream is derived from `seed`.
    pub fn with_seed(policy: RetryPolicy, seed: u64) -> Self {
        Self {
            policy,
            retries_done: 0,
            accumulated: Duration::ZERO,
            // xorshift must not start at 0.
            rng: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// The delay to sleep before the next retry, or `None` when attempts
    /// or the total-delay budget are exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.retries_done + 1 >= self.policy.max_attempts {
            return None;
        }
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << self.retries_done.min(16));
        let capped = exp.min(self.policy.max_delay);
        let jittered = if self.policy.jitter > 0.0 && capped > Duration::ZERO {
            let j = self.policy.jitter.clamp(0.0, 1.0);
            // Uniform in [1 - j/2, 1 + j/2].
            let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            capped.mul_f64(1.0 - j / 2.0 + j * unit)
        } else {
            capped
        };
        if self.retries_done > 0 && self.accumulated + jittered > self.policy.total_delay_cap {
            return None;
        }
        self.retries_done += 1;
        self.accumulated += jittered;
        Some(jittered)
    }

    /// Retries consumed so far.
    pub fn retries(&self) -> u32 {
        self.retries_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            total_delay_cap: Duration::from_secs(10),
            jitter: 0.0,
        }
    }

    #[test]
    fn doubles_and_caps() {
        let mut b = Backoff::new(no_jitter(6));
        let delays: Vec<u64> = std::iter::from_fn(|| b.next_delay())
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![10, 20, 40, 80, 80], "doubling, capped at 80");
    }

    #[test]
    fn single_attempt_never_delays() {
        let mut b = Backoff::new(RetryPolicy::none());
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn jitter_stays_within_band_and_is_deterministic() {
        let policy = RetryPolicy {
            jitter: 0.5,
            ..no_jitter(50)
        };
        let mut a = Backoff::with_seed(policy, 7);
        let mut b = Backoff::with_seed(policy, 7);
        for _ in 0..40 {
            let da = a.next_delay();
            assert_eq!(da, b.next_delay(), "same seed, same schedule");
            if let Some(d) = da {
                // First delay is 10ms nominal; all are within ±25%.
                assert!(d >= Duration::from_micros(7_500));
                assert!(d <= Duration::from_millis(100));
            }
        }
    }

    #[test]
    fn total_delay_cap_truncates() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(10),
            total_delay_cap: Duration::from_millis(25),
            jitter: 0.0,
        };
        let mut b = Backoff::new(policy);
        let mut count = 0;
        while b.next_delay().is_some() {
            count += 1;
        }
        assert_eq!(count, 2, "third 10ms delay would exceed the 25ms budget");
    }

    #[test]
    fn immediate_policy_yields_zero_delays() {
        let mut b = Backoff::new(RetryPolicy::immediate(3));
        assert_eq!(b.next_delay(), Some(Duration::ZERO));
        assert_eq!(b.next_delay(), Some(Duration::ZERO));
        assert_eq!(b.next_delay(), None);
    }
}
