//! Issuer secrets with rotation epochs.
//!
//! Section 4.1 observes that a long-lived appointment certificate "is more
//! vulnerable to attack than an RMC and it is likely that appointment
//! certificates would be re-issued, encrypted with a new server secret,
//! from time to time". [`IssuerSecret`] supports exactly that lifecycle:
//! the issuer signs with the *current* epoch, continues to verify
//! certificates signed under recent epochs, and can retire old epochs once
//! their certificates have been re-issued.

use std::fmt;

use parking_lot::RwLock;
use rand::RngCore;

use crate::hmac::HmacSha256;

/// Identifies one generation of an issuer's signing secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SecretEpoch(pub u64);

impl fmt::Display for SecretEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch-{}", self.0)
    }
}

/// A 32-byte HMAC key, with the MAC it keys ready to clone. The raw bytes
/// are deliberately not printable.
#[derive(Clone)]
pub struct SecretKey {
    bytes: [u8; 32],
    /// `HmacSha256::new(&bytes)`, computed once: every signature and
    /// verification under this key starts from a copy of it.
    mac: HmacSha256,
}

impl PartialEq for SecretKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for SecretKey {}

impl SecretKey {
    /// Creates a key from raw bytes (useful for deterministic tests).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self {
            mac: HmacSha256::new(&bytes),
            bytes,
        }
    }

    /// Generates a fresh random key from the OS RNG.
    pub fn random() -> Self {
        let mut bytes = [0u8; 32];
        rand::rng().fill_bytes(&mut bytes);
        Self::from_bytes(bytes)
    }

    /// A MAC keyed by this key, nothing absorbed yet.
    pub(crate) fn mac(&self) -> HmacSha256 {
        self.mac.clone()
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("SecretKey(…)")
    }
}

#[derive(Debug)]
struct Epochs {
    /// (epoch, key) pairs still accepted for verification, oldest first.
    live: Vec<(SecretEpoch, SecretKey)>,
    next: u64,
}

/// An issuing service's rotating secret.
///
/// Thread-safe; signing always uses the newest epoch, verification may use
/// any live epoch.
///
/// # Example
///
/// ```
/// use oasis_crypto::IssuerSecret;
///
/// let secret = IssuerSecret::random();
/// let first = secret.current_epoch();
/// let second = secret.rotate();
/// assert!(second > first);
/// assert!(secret.key_for(first).is_some(), "old epoch still verifies");
/// secret.retire_before(second);
/// assert!(secret.key_for(first).is_none(), "retired epoch no longer verifies");
/// ```
#[derive(Debug)]
pub struct IssuerSecret {
    epochs: RwLock<Epochs>,
}

impl IssuerSecret {
    /// Creates a secret whose first epoch uses a random key.
    pub fn random() -> Self {
        Self::from_key(SecretKey::random())
    }

    /// Creates a secret whose first epoch uses the given key
    /// (deterministic tests and replicated CIV services).
    pub fn from_key(key: SecretKey) -> Self {
        Self {
            epochs: RwLock::new(Epochs {
                live: vec![(SecretEpoch(0), key)],
                next: 1,
            }),
        }
    }

    /// The epoch new signatures are issued under.
    pub fn current_epoch(&self) -> SecretEpoch {
        let epochs = self.epochs.read();
        epochs.live.last().expect("at least one live epoch").0
    }

    /// The key for the current epoch.
    pub fn current(&self) -> SecretKey {
        let epochs = self.epochs.read();
        epochs
            .live
            .last()
            .expect("at least one live epoch")
            .1
            .clone()
    }

    /// The key for a specific epoch, if that epoch is still live.
    pub fn key_for(&self, epoch: SecretEpoch) -> Option<SecretKey> {
        let epochs = self.epochs.read();
        epochs
            .live
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, k)| k.clone())
    }

    /// Installs a fresh random key as the new current epoch and returns it.
    /// Previous epochs remain live for verification until retired.
    pub fn rotate(&self) -> SecretEpoch {
        self.rotate_to(SecretKey::random())
    }

    /// Installs a specific key as the new current epoch (replica sync).
    pub fn rotate_to(&self, key: SecretKey) -> SecretEpoch {
        let mut epochs = self.epochs.write();
        let epoch = SecretEpoch(epochs.next);
        epochs.next += 1;
        epochs.live.push((epoch, key));
        epoch
    }

    /// Stops verifying signatures from every epoch older than `epoch`.
    ///
    /// The current epoch can never be retired; if `epoch` is newer than the
    /// current epoch, all but the current epoch are retired.
    pub fn retire_before(&self, epoch: SecretEpoch) {
        let mut epochs = self.epochs.write();
        let current = epochs.live.last().expect("at least one live epoch").0;
        let cutoff = epoch.min(current);
        epochs.live.retain(|(e, _)| *e >= cutoff);
    }

    /// Epochs still accepted for verification, oldest first.
    pub fn live_epochs(&self) -> Vec<SecretEpoch> {
        self.epochs.read().live.iter().map(|(e, _)| *e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_epoch_zero() {
        let s = IssuerSecret::random();
        assert_eq!(s.current_epoch(), SecretEpoch(0));
        assert_eq!(s.live_epochs(), vec![SecretEpoch(0)]);
    }

    #[test]
    fn rotation_advances_epoch_and_changes_key() {
        let s = IssuerSecret::random();
        let k0 = s.current();
        let e1 = s.rotate();
        assert_eq!(e1, SecretEpoch(1));
        assert_eq!(s.current_epoch(), e1);
        assert_ne!(s.current(), k0);
    }

    #[test]
    fn old_epoch_keys_remain_until_retired() {
        let s = IssuerSecret::from_key(SecretKey::from_bytes([7; 32]));
        s.rotate();
        s.rotate();
        assert_eq!(
            s.key_for(SecretEpoch(0)).unwrap(),
            SecretKey::from_bytes([7; 32]),
            "epoch 0 key still available"
        );
        s.retire_before(SecretEpoch(2));
        assert!(s.key_for(SecretEpoch(0)).is_none());
        assert!(s.key_for(SecretEpoch(1)).is_none());
        assert!(s.key_for(SecretEpoch(2)).is_some());
    }

    #[test]
    fn current_epoch_survives_aggressive_retire() {
        let s = IssuerSecret::random();
        s.rotate();
        s.retire_before(SecretEpoch(999));
        assert_eq!(s.live_epochs(), vec![SecretEpoch(1)]);
        assert!(s.key_for(SecretEpoch(1)).is_some());
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let s = SecretKey::from_bytes([0xAB; 32]);
        let repr = format!("{s:?}");
        assert!(
            !repr.contains("ab"),
            "debug output must not contain key bytes"
        );
        assert!(
            !repr.contains("171"),
            "debug output must not contain key bytes"
        );
    }

    #[test]
    fn random_keys_differ() {
        assert_ne!(SecretKey::random(), SecretKey::random());
    }
}
