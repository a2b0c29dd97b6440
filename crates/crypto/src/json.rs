//! JSON conversions for the crypto types that travel inside certificates
//! on the wire. Byte strings are hex-encoded, written straight into the
//! output and decoded straight from the text.

use oasis_json::{FromJson, JsonError, Reader, ToJson};

use crate::hex;
use crate::keys::{PublicKey, SignatureBytes};
use crate::secret::SecretEpoch;
use crate::sign::MacSignature;

/// A byte string of any length as a JSON hex string: the `as` codec of
/// `oasis_json::json_struct!` for `Vec<u8>` fields.
pub struct HexBytes;

impl HexBytes {
    /// Appends `bytes` as a quoted lowercase hex string.
    pub fn write_json(bytes: &[u8], out: &mut String) {
        out.push('"');
        hex::encode_into(out, bytes);
        out.push('"');
    }

    /// Reads a hex string of either case.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Vec<u8>, JsonError> {
        hex::decode(&r.str()?).ok_or_else(|| JsonError::new("invalid hex payload"))
    }
}

macro_rules! hex_array_json {
    ($($t:ident, $len:literal, $what:literal;)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                HexBytes::write_json(&self.0, out);
            }
        }

        impl FromJson for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
                hex::decode_array::<$len>(&r.str()?)
                    .map($t)
                    .ok_or_else(|| JsonError::expected(concat!($len, " hex bytes of ", $what)))
            }
        }
    )*};
}

hex_array_json! {
    PublicKey, 32, "public key";
    MacSignature, 32, "MAC";
    SignatureBytes, 64, "signature";
}

impl ToJson for SecretEpoch {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl FromJson for SecretEpoch {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.u64().map(SecretEpoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_json::{from_str, to_string};

    #[test]
    fn public_key_round_trips() {
        let pk = crate::KeyPair::from_seed([7; 32]).public_key();
        let text = to_string(&pk);
        assert_eq!(text, format!("\"{pk}\""));
        assert_eq!(from_str::<PublicKey>(&text).unwrap(), pk);
        assert_eq!(from_str::<PublicKey>(&text.to_uppercase()).unwrap(), pk);
        assert!(from_str::<PublicKey>("\"zz\"").is_err());
        assert!(from_str::<PublicKey>("3").is_err());
    }

    #[test]
    fn mac_and_epoch_round_trip() {
        let mac = MacSignature([0xAB; 32]);
        assert_eq!(from_str::<MacSignature>(&to_string(&mac)).unwrap(), mac);
        let epoch = SecretEpoch(u64::MAX);
        assert_eq!(from_str::<SecretEpoch>(&to_string(&epoch)).unwrap(), epoch);
    }

    #[test]
    fn signature_bytes_round_trip() {
        let sig = SignatureBytes([0x5A; 64]);
        let back: SignatureBytes = from_str(&to_string(&sig)).unwrap();
        assert_eq!(back.0, sig.0);
        assert!(from_str::<SignatureBytes>("\"aabb\"").is_err());
    }

    #[test]
    fn byte_strings_of_any_length_round_trip() {
        for bytes in [vec![], vec![0u8], (0..=255).collect::<Vec<u8>>()] {
            let mut text = String::new();
            HexBytes::write_json(&bytes, &mut text);
            assert_eq!(text, format!("\"{}\"", hex::encode(&bytes)));
            let mut r = Reader::new(&text);
            assert_eq!(HexBytes::read_json(&mut r).unwrap(), bytes);
        }
        assert!(HexBytes::read_json(&mut Reader::new("\"abc\"")).is_err());
        assert!(HexBytes::read_json(&mut Reader::new("[1]")).is_err());
        // An escape inside the string is undone before the hex is read.
        let mut r = Reader::new("\"\\u0061b\"");
        assert_eq!(HexBytes::read_json(&mut r).unwrap(), [0xab]);
    }
}
