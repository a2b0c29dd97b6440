//! In-tree HMAC-SHA256 (RFC 2104), used by the certificate signature
//! function `F`. Verification is constant-time.

use crate::hash::Sha256;

const BLOCK: usize = 64;

/// Incremental HMAC-SHA256. A fresh instance holds the key as the two
/// hash states that have absorbed `key ^ ipad` and `key ^ opad`, so a
/// clone of it is a keyed MAC with no key schedule left to compute.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC keyed by `key` (any length; long keys are hashed).
    pub fn new(key: &[u8]) -> Self {
        let mut padded = [0u8; BLOCK];
        if key.len() > BLOCK {
            padded[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            padded[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut hash = Sha256::new();
            hash.update(&padded.map(|b| b ^ pad));
            hash
        };
        Self {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// Constant-time comparison of the final tag against `expected`.
    pub fn verify(self, expected: &[u8; 32]) -> bool {
        constant_time_eq(&self.finalize(), expected)
    }
}

/// Constant-time equality for equal-length byte strings.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn rfc_style_vector() {
        // Verified against Python's hmac module.
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"The quick brown fox jumps over the lazy dog");
        assert_eq!(
            hex::encode(&mac.finalize()),
            "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
        );
    }

    #[test]
    fn long_keys_are_hashed_down() {
        let long_key = vec![0x42u8; 200];
        let mut a = HmacSha256::new(&long_key);
        a.update(b"m");
        let mut b = HmacSha256::new(&Sha256::digest(&long_key));
        b.update(b"m");
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"data");
        let tag = mac.clone().finalize();
        assert!(mac.clone().verify(&tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!mac.verify(&bad));
    }

    /// RFC 2104 spelled out over the byte-at-a-time reference digest: the
    /// key schedule on every call, nothing kept between calls.
    fn hmac_reference(key: &[u8], message: &[u8]) -> [u8; 32] {
        use crate::hash::tests::sha256_bytewise;
        let mut padded = [0u8; BLOCK];
        if key.len() > BLOCK {
            padded[..32].copy_from_slice(&sha256_bytewise(key));
        } else {
            padded[..key.len()].copy_from_slice(key);
        }
        let mut inner: Vec<u8> = padded.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = padded.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&sha256_bytewise(&inner));
        sha256_bytewise(&outer)
    }

    #[test]
    fn a_cloned_template_macs_like_a_fresh_key_schedule() {
        let template = HmacSha256::new(&[9; 32]);
        for message in [
            &b""[..],
            b"a",
            &[0x5a; 55],
            &[0x5a; 56],
            &[0x5a; 64],
            &[0x5a; 200],
        ] {
            let mut mac = template.clone();
            mac.update(message);
            assert_eq!(mac.finalize(), hmac_reference(&[9; 32], message));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn macs_match_the_reference(
                key in proptest::collection::vec(any::<u8>(), 0..100),
                message in proptest::collection::vec(any::<u8>(), 0..300),
            ) {
                let mut mac = HmacSha256::new(&key);
                mac.update(&message);
                prop_assert_eq!(mac.finalize(), hmac_reference(&key, &message));
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut a = HmacSha256::new(b"k");
        a.update(b"hello ");
        a.update(b"world");
        let mut b = HmacSha256::new(b"k");
        b.update(b"hello world");
        assert_eq!(a.finalize(), b.finalize());
    }
}
