//! Cryptographic substrate for OASIS certificates and authentication.
//!
//! Section 4 of the paper (Fig 4) specifies that a role membership
//! certificate (RMC) carries a signature
//!
//! ```text
//! F(principal_id, protected RMC fields, SECRET) = signature
//! ```
//!
//! where `SECRET` is held by the issuing service. A keyed MAC is exactly
//! this construction; this crate implements `F` as HMAC-SHA256 over a
//! canonical field encoding ([`sign`]). Properties delivered (Sect. 4.1):
//!
//! * **Tampering** — any change to a protected field invalidates the MAC.
//! * **Forgery** — a valid MAC cannot be produced without the issuer secret.
//! * **Theft** — the principal id is an *input* to the MAC without being a
//!   readable field, so a stolen certificate fails verification when
//!   presented by a different principal.
//!
//! The paper further integrates OASIS with public-key cryptography: a
//! session public key is bound into certificates, and the issuer can run an
//! ISO/9798-style challenge–response at any time to confirm the presenter
//! holds the matching private key. [`keys`] wraps Ed25519 key pairs and
//! [`challenge`] implements the protocol (see that module for the
//! documented substitution of a signature-based variant, ISO/9798-3, for
//! the paper's encryption-phrased sketch). [`secret`] adds the secret
//! rotation the paper prescribes for long-lived appointment certificates,
//! and [`nonce`] the replay cache.
//!
//! # Example
//!
//! ```
//! use oasis_crypto::{secret::IssuerSecret, sign};
//!
//! let secret = IssuerSecret::random();
//! let sig = sign::sign_fields(&secret.current(), b"principal-7", &[b"doctor", b"ward-3"]);
//! assert!(sign::verify_fields(&secret.current(), b"principal-7", &[b"doctor", b"ward-3"], &sig));
//! // A thief presenting the same certificate under another identity fails:
//! assert!(!sign::verify_fields(&secret.current(), b"principal-8", &[b"doctor", b"ward-3"], &sig));
//! ```

// One `unsafe` block in this crate: the call into the SHA-extension
// compression function after the CPU check (`hash::Sha256::compress`).
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod challenge;
pub mod ed25519;
mod error;
pub mod hash;
pub mod hex;
pub mod hmac;
pub mod json;
pub mod keys;
pub mod nonce;
pub mod secret;
pub mod sign;

pub use error::CryptoError;
pub use json::HexBytes;
pub use keys::{KeyPair, PublicKey, SignatureBytes};
pub use secret::{IssuerSecret, SecretEpoch, SecretKey};
pub use sign::{sign_fields, verify_fields, MacSignature};
