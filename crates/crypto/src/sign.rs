//! The certificate signature function `F(principal_id, fields, SECRET)`.
//!
//! Fig 4 of the paper leaves `F` abstract; we realise it as HMAC-SHA256
//! over a *canonical encoding* of the inputs. The encoding is
//! length-prefixed so that field boundaries cannot be confused — without
//! it, `["ab", "c"]` and `["a", "bc"]` would MAC identically and an
//! attacker could shift bytes between a role name and a parameter.

use crate::hex;
use crate::hmac::HmacSha256;
use crate::secret::SecretKey;

/// A 32-byte HMAC-SHA256 certificate signature.
///
/// Displayed as lowercase hex. Comparison of signatures for *verification*
/// must go through [`verify_fields`], which is constant-time; `PartialEq`
/// on this type is ordinary comparison intended for tests and map keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacSignature(pub [u8; 32]);

impl MacSignature {
    /// The signature bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Parses a signature from 64 hex characters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::Malformed`] for non-hex input and
    /// [`crate::CryptoError::InvalidLength`] for wrong lengths.
    pub fn from_hex(s: &str) -> Result<Self, crate::CryptoError> {
        let bytes = hex::decode(s)
            .ok_or_else(|| crate::CryptoError::Malformed(format!("not hex: {s:?}")))?;
        let arr: [u8; 32] =
            bytes
                .try_into()
                .map_err(|v: Vec<u8>| crate::CryptoError::InvalidLength {
                    what: "MAC signature",
                    expected: 32,
                    actual: v.len(),
                })?;
        Ok(Self(arr))
    }
}

impl std::fmt::Display for MacSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&hex::encode(&self.0))
    }
}

/// `F(principal_id, fields, SECRET)` fed one field at a time, for
/// callers whose fields are not already one list of byte strings: the
/// input is the canonical encoding [`sign_fields`] hashes, streamed into
/// the HMAC with no buffer in between.
///
/// # Panics
///
/// Feeding more fields than announced panics, and so do
/// [`FieldMac::sign`] and [`FieldMac::verify`] before every announced
/// field was fed: the count is part of the MAC input.
///
/// # Example
///
/// ```
/// use oasis_crypto::{secret::SecretKey, sign_fields, FieldMac};
///
/// let key = SecretKey::from_bytes([1; 32]);
/// let mut mac = FieldMac::new(&key, b"alice", 2);
/// mac.field(b"role");
/// mac.field_parts(&[b"par", b"am"]);
/// assert_eq!(mac.sign(), sign_fields(&key, b"alice", &[b"role", b"param"]));
/// ```
pub struct FieldMac {
    mac: HmacSha256,
    fields_left: u64,
}

impl FieldMac {
    /// Starts the MAC of `fields` fields under `key` for `principal_id`.
    pub fn new(key: &SecretKey, principal_id: &[u8], fields: usize) -> Self {
        let mut mac = key.mac();
        // Canonical encoding: u64-LE length prefix before every component.
        mac.update(&(principal_id.len() as u64).to_le_bytes());
        mac.update(principal_id);
        let fields = fields as u64;
        mac.update(&fields.to_le_bytes());
        Self {
            mac,
            fields_left: fields,
        }
    }

    /// Feeds the next field.
    pub fn field(&mut self, bytes: &[u8]) {
        self.field_parts(&[bytes]);
    }

    /// Feeds the next field, given as consecutive parts: the MAC is that
    /// of one field holding their concatenation.
    pub fn field_parts(&mut self, parts: &[&[u8]]) {
        self.fields_left = self.fields_left.checked_sub(1).expect(ANNOUNCED);
        let len: usize = parts.iter().map(|p| p.len()).sum();
        self.mac.update(&(len as u64).to_le_bytes());
        for part in parts {
            self.mac.update(part);
        }
    }

    fn finish(self) -> HmacSha256 {
        assert_eq!(self.fields_left, 0, "{ANNOUNCED}");
        self.mac
    }

    /// The signature.
    pub fn sign(self) -> MacSignature {
        MacSignature(self.finish().finalize())
    }

    /// Compares the MAC with `signature` in constant time.
    pub fn verify(self, signature: &MacSignature) -> bool {
        self.finish().verify(&signature.0)
    }
}

const ANNOUNCED: &str = "a MAC must get every field it announced, and no more";

fn mac_of(key: &SecretKey, principal_id: &[u8], fields: &[&[u8]]) -> FieldMac {
    let mut mac = FieldMac::new(key, principal_id, fields.len());
    for field in fields {
        mac.field(field);
    }
    mac
}

/// Computes `F(principal_id, fields, secret)`.
///
/// The `principal_id` participates in the MAC but is *not* stored in the
/// certificate, which is what makes certificates principal-specific
/// (Sect. 4.1, "Protection of RMCs from theft").
///
/// # Example
///
/// ```
/// use oasis_crypto::{secret::SecretKey, sign_fields, verify_fields};
///
/// let key = SecretKey::from_bytes([1; 32]);
/// let sig = sign_fields(&key, b"alice", &[b"role", b"param"]);
/// assert!(verify_fields(&key, b"alice", &[b"role", b"param"], &sig));
/// ```
pub fn sign_fields(key: &SecretKey, principal_id: &[u8], fields: &[&[u8]]) -> MacSignature {
    mac_of(key, principal_id, fields).sign()
}

/// Verifies a signature in constant time.
pub fn verify_fields(
    key: &SecretKey,
    principal_id: &[u8],
    fields: &[&[u8]],
    signature: &MacSignature,
) -> bool {
    mac_of(key, principal_id, fields).verify(signature)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SecretKey {
        SecretKey::from_bytes([b; 32])
    }

    #[test]
    fn round_trip_verifies() {
        let k = key(1);
        let sig = sign_fields(&k, b"p", &[b"a", b"b"]);
        assert!(verify_fields(&k, b"p", &[b"a", b"b"], &sig));
    }

    #[test]
    fn tampered_field_fails() {
        let k = key(1);
        let sig = sign_fields(&k, b"p", &[b"role", b"ward-3"]);
        assert!(!verify_fields(&k, b"p", &[b"role", b"ward-4"], &sig));
    }

    #[test]
    fn wrong_principal_fails_theft_protection() {
        let k = key(1);
        let sig = sign_fields(&k, b"alice", &[b"doctor"]);
        assert!(!verify_fields(&k, b"mallory", &[b"doctor"], &sig));
    }

    #[test]
    fn wrong_key_fails_forgery_protection() {
        let sig = sign_fields(&key(1), b"p", &[b"doctor"]);
        assert!(!verify_fields(&key(2), b"p", &[b"doctor"], &sig));
    }

    #[test]
    fn field_boundaries_are_unambiguous() {
        let k = key(3);
        let a = sign_fields(&k, b"p", &[b"ab", b"c"]);
        let b = sign_fields(&k, b"p", &[b"a", b"bc"]);
        assert_ne!(a, b, "length prefixing must separate field boundaries");
        let c = sign_fields(&k, b"p", &[b"abc"]);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn field_count_is_bound() {
        let k = key(3);
        let a = sign_fields(&k, b"p", &[b""]);
        let b = sign_fields(&k, b"p", &[]);
        assert_ne!(a, b);
    }

    #[test]
    fn principal_vs_field_boundary_is_unambiguous() {
        let k = key(3);
        let a = sign_fields(&k, b"px", &[b"y"]);
        let b = sign_fields(&k, b"p", &[b"xy"]);
        assert_ne!(a, b);
    }

    #[test]
    fn streamed_fields_mac_like_the_field_list() {
        let k = key(4);
        let sig = sign_fields(&k, b"p", &[b"kind", b"", b"Iward-3"]);
        let mut mac = FieldMac::new(&k, b"p", 3);
        mac.field_parts(&[b"ki", b"nd"]);
        mac.field_parts(&[]);
        mac.field_parts(&[b"I", b"ward-3"]);
        assert!(mac.verify(&sig));
    }

    #[test]
    #[should_panic(expected = "every field it announced")]
    fn a_streamed_mac_must_get_every_announced_field() {
        let mut mac = FieldMac::new(&key(4), b"p", 2);
        mac.field(b"only one");
        let _ = mac.sign();
    }

    #[test]
    #[should_panic(expected = "and no more")]
    fn a_streamed_mac_refuses_an_unannounced_field() {
        let mut mac = FieldMac::new(&key(4), b"p", 1);
        mac.field(b"one");
        mac.field(b"two");
    }

    #[test]
    fn signature_hex_round_trip() {
        let sig = sign_fields(&key(9), b"p", &[b"f"]);
        let restored = MacSignature::from_hex(&sig.to_string()).unwrap();
        assert_eq!(sig, restored);
    }

    #[test]
    fn signature_from_bad_hex_rejected() {
        assert!(MacSignature::from_hex("zz").is_err());
        assert!(MacSignature::from_hex("abcd").is_err()); // wrong length
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let k = key(5);
        assert_eq!(
            sign_fields(&k, b"p", &[b"x"]),
            sign_fields(&k, b"p", &[b"x"])
        );
    }
}
