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
    let mut out = String::new();
    encode_into(&mut out, bytes);
    out
}

/// Appends `bytes` to `out` as lowercase hexadecimal.
pub fn encode_into(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    // Thirty-two bytes at a time through a stack buffer: one `push_str`
    // per chunk instead of a capacity check per digit.
    let mut digits = [0u8; 64];
    for chunk in bytes.chunks(32) {
        for (pair, b) in digits.chunks_exact_mut(2).zip(chunk) {
            pair[0] = DIGITS[usize::from(b >> 4)];
            pair[1] = DIGITS[usize::from(b & 0xf)];
        }
        let digits = &digits[..chunk.len() * 2];
        out.push_str(std::str::from_utf8(digits).expect("hex digits are ascii"));
    }
}

/// The value of each byte as an ASCII hex digit of either case; `NOT_HEX`
/// for every other byte.
const NIBBLES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[DIGITS[i] as usize] = i as u8;
        table[DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};
const NOT_HEX: u8 = 0xff;

/// The byte two hex digits spell.
fn byte_of(pair: &[u8]) -> Option<u8> {
    let (hi, lo) = (NIBBLES[usize::from(pair[0])], NIBBLES[usize::from(pair[1])]);
    // A valid nibble has no high bits; `NOT_HEX` has them all.
    ((hi | lo) & 0xf0 == 0).then_some(hi << 4 | lo)
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
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        out.push(byte_of(pair)?);
    }
    Some(out)
}

/// Decodes exactly `N` bytes of hexadecimal, either case, without
/// allocating. `None` for any other length or a non-hex character.
pub fn decode_array<const N: usize>(s: &str) -> Option<[u8; N]> {
    if s.len() != N * 2 {
        return None;
    }
    let mut out = [0u8; N];
    for (byte, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
        *byte = byte_of(pair)?;
    }
    Some(out)
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
    fn decode_array_wants_the_exact_length() {
        assert_eq!(decode_array::<2>("DEad"), Some([0xde, 0xad]));
        assert_eq!(decode_array::<2>("dead00"), None);
        assert_eq!(decode_array::<2>("dea"), None);
        assert_eq!(decode_array::<2>("dexd"), None);
        assert_eq!(decode_array::<0>(""), Some([]));
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
