//! Minimal hexadecimal encoding used for displaying digests and keys.

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Encodes bytes as lowercase hexadecimal.
///
/// # Example
///
/// ```
/// assert_eq!(oasis_crypto::hex::encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// The value of one ASCII hex digit, either case.
fn nibble(digit: u8) -> Option<u8> {
    match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        b'A'..=b'F' => Some(digit - b'A' + 10),
        _ => None,
    }
}

/// Decodes lowercase or uppercase hexadecimal into bytes.
///
/// Returns `None` for odd-length input or non-hex characters.
///
/// # Example
///
/// ```
/// assert_eq!(oasis_crypto::hex::decode("DEad"), Some(vec![0xde, 0xad]));
/// assert_eq!(oasis_crypto::hex::decode("xyz"), None);
/// ```
pub fn decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_known_vector() {
        assert_eq!(encode(&[0x00, 0x0f, 0xf0, 0xff]), "000ff0ff");
    }

    #[test]
    fn decode_rejects_odd_length() {
        assert_eq!(decode("abc"), None);
    }

    #[test]
    fn decode_rejects_bad_chars() {
        assert_eq!(decode("zz"), None);
    }

    #[test]
    fn round_trip_all_bytes() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&bytes)), Some(bytes));
    }

    #[test]
    fn empty_round_trip() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode(""), Some(vec![]));
    }

    #[test]
    fn decode_rejects_multi_byte_characters() {
        // Two bytes long, so the length check alone does not catch it.
        assert_eq!(decode("é"), None);
        assert_eq!(decode("0é1"), None);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn round_trips_in_either_case(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
                let lower = encode(&bytes);
                prop_assert_eq!(lower.len(), bytes.len() * 2);
                prop_assert!(lower.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')));
                prop_assert_eq!(decode(&lower), Some(bytes.clone()));
                prop_assert_eq!(decode(&lower.to_uppercase()), Some(bytes));
            }

            #[test]
            fn odd_length_is_rejected(bytes in proptest::collection::vec(any::<u8>(), 0..32), extra in 0usize..16) {
                let mut text = encode(&bytes);
                text.push(char::from(DIGITS[extra]));
                prop_assert_eq!(decode(&text), None);
            }

            #[test]
            fn one_non_hex_character_is_rejected(
                bytes in proptest::collection::vec(any::<u8>(), 1..32),
                at in any::<usize>(),
                bad in any::<u8>(),
            ) {
                let mut text = encode(&bytes).into_bytes();
                let bad = bad & 0x7f;
                if !bad.is_ascii_hexdigit() {
                    let at = at % text.len();
                    text[at] = bad;
                    let text = String::from_utf8(text).expect("ascii");
                    prop_assert_eq!(decode(&text), None);
                }
            }
        }
    }
}
