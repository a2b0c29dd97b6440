//! In-tree SHA-256 and SHA-512 (FIPS 180-4).
//!
//! The build environment has no crate registry, so the digests the
//! certificate MAC and Ed25519 need are implemented here. Both are the
//! textbook Merkle–Damgård constructions; correctness is pinned by the
//! standard test vectors in the module tests.
//!
//! SHA-256 has two compression functions with identical outputs: the
//! portable loop, and on x86-64 CPUs with the SHA extensions one built on
//! `sha256rnds2`/`sha256msg1`/`sha256msg2`, chosen per call by run-time
//! feature detection. Every certificate MAC, journal checksum and
//! replicated-log chain hash goes through it.

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H256: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H256,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Compresses `blocks`, a whole number of 64-byte blocks, into
    /// `state`: with the SHA extensions when this CPU has them, else with
    /// [`Self::compress_portable`] a block at a time.
    fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            #[allow(unsafe_code)]
            // SAFETY: `sha_ni::compress` is a safe function whose only
            // requirement is that the CPU supports the features it is
            // compiled for, and `detected()` has just checked exactly
            // those four. It takes no pointers and its body has no
            // `unsafe`.
            return unsafe { sha_ni::compress(state, blocks) };
        }
        for block in blocks.chunks_exact(64) {
            Self::compress_portable(state, block);
        }
    }

    /// The FIPS 180-4 compression of one block: the path on CPUs without
    /// the SHA extensions, and the reference the tests hold the hardware
    /// path to.
    fn compress_portable(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..(i + 1) * 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K256[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, Self::compress);
    }

    /// [`Self::update`] over a given compression function, so the tests
    /// can run the same buffering through either one.
    fn update_with(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.length = self.length.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            } else {
                // Input exhausted into a still-partial buffer; the tail
                // below must not clobber `buffered` with `data.len()` (0).
                return;
            }
        }
        // Every whole block in one call: the hardware path moves the
        // state in and out of its registers once per run.
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Pads and returns the digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(Self::compress)
    }

    /// [`Self::finalize`] over a given compression function.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        // `0x80`, zeros to 56 mod 64, the bit length: in this block when
        // the length still fits behind the data, else in one more.
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let end = if self.buffered < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.length.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &tail[..end]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }
}

/// The SHA-256 compression function on the x86-64 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K256;

    /// Whether this CPU has every feature [`compress`] is compiled for.
    /// The standard library caches the answer, so this is a load.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four big-endian message words, word `i` in lane `i`.
    #[target_feature(enable = "sse2")]
    fn load(words: &[u8]) -> __m128i {
        let w = |i: usize| {
            u32::from_be_bytes([
                words[4 * i],
                words[4 * i + 1],
                words[4 * i + 2],
                words[4 * i + 3],
            ]) as i32
        };
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    /// Compresses `blocks`, a whole number of 64-byte blocks, into
    /// `state`. The state is held as the two registers `sha256rnds2`
    /// works on, `ABEF` and `CDGH` (lane 3 first), for the whole run.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let s = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Message words 4q..4q + 4 of quad q live in w[q % 4].
            let mut w = [
                load(&block[..16]),
                load(&block[16..32]),
                load(&block[32..48]),
                load(&block[48..]),
            ];
            for q in 0..16 {
                if q >= 4 {
                    // W[t] from W[t-16], W[t-15], W[t-7] and W[t-2],
                    // four at a time.
                    let w16_sigma0 = _mm_sha256msg1_epu32(w[q % 4], w[(q + 1) % 4]);
                    let w7 = _mm_alignr_epi8(w[(q + 3) % 4], w[(q + 2) % 4], 4);
                    w[q % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(w16_sigma0, w7), w[(q + 3) % 4]);
                }
                let k = &K256[4 * q..4 * q + 4];
                let wk = _mm_add_epi32(
                    w[q % 4],
                    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
                );
                // Two rounds each; after two rounds the old ABEF is the
                // new CDGH, so the registers swap roles.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let out = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ];
        *state = out.map(|v| v as u32);
    }
}

// ---------------------------------------------------------------------------
// SHA-512
// ---------------------------------------------------------------------------

const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

const H512: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Incremental SHA-512.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; 128],
    buffered: usize,
    length: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H512,
            buffer: [0; 128],
            buffered: 0,
            length: 0,
        }
    }

    fn compress(state: &mut [u64; 8], block: &[u8]) {
        let mut w = [0u64; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u64::from_be_bytes(block[i * 8..(i + 1) * 8].try_into().unwrap());
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K512[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u128);
        if self.buffered > 0 {
            let take = (128 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 128 {
                let block = self.buffer;
                Self::compress(&mut self.state, &block);
                self.buffered = 0;
            } else {
                // Input exhausted into a still-partial buffer; the tail
                // below must not clobber `buffered` with `data.len()` (0).
                return;
            }
        }
        while data.len() >= 128 {
            Self::compress(&mut self.state, &data[..128]);
            data = &data[128..];
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffered = data.len();
    }

    /// Pads and returns the digest.
    pub fn finalize(mut self) -> [u8; 64] {
        // As SHA-256, with 128-byte blocks and a 16-byte length.
        let mut block = self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 112 {
            Self::compress(&mut self.state, &block);
            block = [0; 128];
        }
        block[112..].copy_from_slice(&self.length.wrapping_mul(8).to_be_bytes());
        Self::compress(&mut self.state, &block);
        let mut out = [0u8; 64];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 64] {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex;

    /// [`Sha256::compress_portable`] over a run of blocks.
    fn portable(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            Sha256::compress_portable(state, block);
        }
    }

    /// Whether [`Sha256::compress`] runs on the SHA extensions here; when
    /// not, prints that `test` skipped the hardware path.
    fn hardware_path(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            return true;
        }
        println!("{test}: hardware path skipped, this CPU has no SHA extensions");
        false
    }

    /// SHA-256 of `data` through [`Sha256`]'s own buffering and padding,
    /// on the portable compression function only.
    fn sha256_portable(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_with(data, portable);
        h.finalize_with(portable)
    }

    /// SHA-256 with the padding this module shipped before it padded in
    /// one step: `0x80` and every zero through `update`, a byte at a time,
    /// on the portable compression function. The reference both
    /// compression functions and the one-step padding must match.
    pub(crate) fn sha256_bytewise(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_with(data, portable);
        let bit_length = h.length.wrapping_mul(8);
        h.update_with(&[0x80], portable);
        while h.buffered != 56 {
            h.update_with(&[0], portable);
        }
        let mut block = h.buffer;
        block[56..64].copy_from_slice(&bit_length.to_be_bytes());
        Sha256::compress_portable(&mut h.state, &block);
        let mut out = [0u8; 32];
        for (i, word) in h.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// As [`sha256_bytewise`], for SHA-512.
    fn sha512_bytewise(data: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(data);
        let bit_length = h.length.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buffered != 112 {
            h.update(&[0]);
        }
        let mut block = h.buffer;
        block[112..128].copy_from_slice(&bit_length.to_be_bytes());
        Sha512::compress(&mut h.state, &block);
        let mut out = [0u8; 64];
        for (i, word) in h.state.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn one_step_padding_matches_bytewise_at_every_boundary() {
        // Every length across two SHA-512 blocks: 55/56/63/64 and
        // 111/112/127/128 are where the padding changes shape.
        // `Sha256::digest` takes the hardware path wherever there is one;
        // `sha256_portable` never does.
        hardware_path("one_step_padding_matches_bytewise_at_every_boundary");
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        for len in 0..=data.len() {
            let data = &data[..len];
            let reference = sha256_bytewise(data);
            assert_eq!(Sha256::digest(data), reference, "len {len}");
            assert_eq!(sha256_portable(data), reference, "len {len}");
            assert_eq!(Sha512::digest(data), sha512_bytewise(data), "len {len}");
        }
    }

    #[test]
    fn sha256_long_vectors_on_both_paths() {
        hardware_path("sha256_long_vectors_on_both_paths");
        let million_a = vec![b'a'; 1_000_000];
        for (data, expected) in [
            (
                &b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"[..],
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a[..],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ] {
            assert_eq!(hex::encode(&Sha256::digest(data)), expected);
            assert_eq!(hex::encode(&sha256_portable(data)), expected);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn compression_functions_agree(
                state in any::<[u8; 32]>(),
                bytes in proptest::collection::vec(any::<u8>(), 64..=256),
            ) {
                if !hardware_path("compression_functions_agree") {
                    return;
                }
                // One to four blocks in one call, as `update` hands them.
                let blocks = &bytes[..bytes.len() / 64 * 64];
                let mut hardware: [u32; 8] = std::array::from_fn(|i| {
                    u32::from_le_bytes(state[4 * i..4 * i + 4].try_into().unwrap())
                });
                let mut reference = hardware;
                Sha256::compress(&mut hardware, blocks);
                portable(&mut reference, blocks);
                prop_assert_eq!(hardware, reference);
            }

            #[test]
            fn digests_match_the_bytewise_reference(
                data in proptest::collection::vec(any::<u8>(), 0..300),
                split in 0usize..300,
            ) {
                let split = split.min(data.len());
                let mut h256 = Sha256::new();
                let mut h512 = Sha512::new();
                h256.update(&data[..split]);
                h256.update(&data[split..]);
                h512.update(&data[..split]);
                h512.update(&data[split..]);
                prop_assert_eq!(h256.finalize(), sha256_bytewise(&data));
                prop_assert_eq!(h512.finalize(), sha512_bytewise(&data));
            }
        }
    }

    #[test]
    fn sha256_standard_vectors() {
        assert_eq!(
            hex::encode(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex::encode(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha512_standard_vectors() {
        assert_eq!(
            hex::encode(&Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
        );
        assert_eq!(
            hex::encode(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        for split in [0, 1, 63, 64, 65, 127, 128, 129, 500] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split {split}");

            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha512::digest(&data), "split {split}");
        }
    }

    #[test]
    fn multi_block_lengths() {
        // Cross the padding boundaries.
        for len in [55, 56, 57, 63, 64, 111, 112, 119, 120, 127, 128, 256] {
            let data = vec![0xA5u8; len];
            // Compare incremental byte-at-a-time against one-shot.
            let mut h256 = Sha256::new();
            let mut h512 = Sha512::new();
            for b in &data {
                h256.update(std::slice::from_ref(b));
                h512.update(std::slice::from_ref(b));
            }
            assert_eq!(h256.finalize(), Sha256::digest(&data), "len {len}");
            assert_eq!(h512.finalize(), Sha512::digest(&data), "len {len}");
        }
    }
}
