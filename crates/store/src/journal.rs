//! The append-only, checksummed write-ahead journal.
//!
//! # On-disk format
//!
//! The journal is a flat sequence of framed records:
//!
//! ```text
//! ┌──────────────┬──────────────┬───────────────────┬─────────────┐
//! │ len: u32 LE  │ seq: u64 LE  │ checksum: u64 LE  │ payload …   │
//! └──────────────┴──────────────┴───────────────────┴─────────────┘
//! ```
//!
//! `len` counts payload bytes only; `checksum` is the first eight
//! bytes of `SHA-256(seq_le ‖ payload)`. Payloads are the compact
//! JSON encoding of the journaled event (via [`ToJson`]).
//!
//! # Torn tails
//!
//! A crash mid-append leaves a truncated or corrupted final frame.
//! [`Journal::open`] scans the region, accepts the longest prefix of
//! valid frames with strictly increasing sequence numbers, and
//! *heals* the backend down to that prefix — it never panics and
//! never trusts bytes past the first bad frame. The discarded byte
//! count is reported in [`TailReport`] so recovery can surface it.

use std::marker::PhantomData;
use std::sync::Arc;

use oasis_crypto::hash::Sha256;
use oasis_json::{FromJson, ToJson};
use parking_lot::Mutex;

use crate::backend::StorageBackend;
use crate::error::StoreError;

/// Frame header size: u32 len + u64 seq + u64 checksum.
const HEADER: usize = 4 + 8 + 8;

/// Hard cap on a single record's payload, so a corrupted length field
/// cannot make the scanner attempt a multi-gigabyte read.
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// What the tail scan found when the journal was opened or loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailReport {
    /// Bytes past the last valid frame that were discarded.
    pub torn_bytes: u64,
    /// Whether any bytes were discarded.
    pub torn: bool,
}

/// Counters for one journal handle (shared across clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Records appended through this handle's shared state — records,
    /// not backend appends: a batch of four counts four.
    pub appended: u64,
    /// Payload + framing bytes written by appends.
    pub bytes_written: u64,
    /// Records dropped by [`Journal::truncate_through`] calls.
    pub truncated_records: u64,
    /// Torn-tail bytes healed away at open.
    pub healed_bytes: u64,
}

/// One decoded journal load.
#[derive(Debug, Clone)]
pub struct LoadedJournal<T> {
    /// Every valid record, in append order, with its sequence number.
    pub records: Vec<(u64, T)>,
    /// Tail damage found (and skipped) during the scan.
    pub tail: TailReport,
}

struct JournalState {
    next_seq: u64,
    stats: JournalStats,
}

/// A typed append-only journal over a [`StorageBackend`].
///
/// Clones share the backend and the sequence counter, so any clone may
/// append; the store layer serialises appends through the state lock.
pub struct Journal<T> {
    backend: Arc<dyn StorageBackend>,
    state: Arc<Mutex<JournalState>>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Journal<T> {
    fn clone(&self) -> Self {
        Self {
            backend: Arc::clone(&self.backend),
            state: Arc::clone(&self.state),
            _marker: PhantomData,
        }
    }
}

fn checksum(seq: u64, payload: &[u8]) -> u64 {
    let mut hash = Sha256::new();
    hash.update(&seq.to_le_bytes());
    hash.update(payload);
    let digest = hash.finalize();
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// Appends one frame to `out`.
fn push_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    out.reserve(HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&checksum(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One raw frame recovered by the scanner.
struct RawFrame<'a> {
    seq: u64,
    payload: &'a [u8],
}

/// Bounds-checked little-endian u32 read; `None` when the buffer is
/// too short — a torn tail, never a panic.
pub(crate) fn read_u32_le(bytes: &[u8], pos: usize) -> Option<u32> {
    let raw = bytes.get(pos..pos.checked_add(4)?)?;
    Some(u32::from_le_bytes(raw.try_into().ok()?))
}

/// Bounds-checked little-endian u64 read; `None` when short.
pub(crate) fn read_u64_le(bytes: &[u8], pos: usize) -> Option<u64> {
    let raw = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(raw.try_into().ok()?))
}

/// Scans `bytes`, returning the valid frames and the byte length of
/// the valid prefix. Stops (without failing) at the first frame that
/// is truncated, has an implausible length, fails its checksum, or
/// regresses the sequence number. Every header field and the payload
/// slice is read through a bounds-checked path, so a buffer shorter
/// than its declared frame is a torn tail, never a panic.
fn scan(bytes: &[u8]) -> (Vec<RawFrame<'_>>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let mut last_seq = 0u64;
    while let Some(len) = read_u32_le(bytes, pos).map(|l| l as usize) {
        if len > MAX_PAYLOAD {
            break;
        }
        let (Some(seq), Some(sum)) = (read_u64_le(bytes, pos + 4), read_u64_le(bytes, pos + 12))
        else {
            break;
        };
        let Some(payload) = pos
            .checked_add(HEADER)
            .and_then(|start| Some(start..start.checked_add(len)?))
            .and_then(|range| bytes.get(range))
        else {
            break;
        };
        if checksum(seq, payload) != sum || (last_seq != 0 && seq <= last_seq) {
            break;
        }
        frames.push(RawFrame { seq, payload });
        last_seq = seq;
        pos += HEADER + len;
    }
    (frames, pos)
}

impl<T: ToJson + FromJson> Journal<T> {
    /// Opens a journal over `backend`, scanning existing contents to
    /// resume the sequence counter and healing any torn tail.
    pub fn open(backend: Arc<dyn StorageBackend>) -> Result<(Self, TailReport), StoreError> {
        let bytes = backend.read()?;
        let (frames, valid_len) = scan(&bytes);
        let torn_bytes = (bytes.len() - valid_len) as u64;
        if torn_bytes > 0 {
            backend.replace(&bytes[..valid_len])?;
        }
        let next_seq = frames.last().map(|f| f.seq + 1).unwrap_or(1);
        let tail = TailReport {
            torn_bytes,
            torn: torn_bytes > 0,
        };
        let journal = Self {
            backend,
            state: Arc::new(Mutex::new(JournalState {
                next_seq,
                stats: JournalStats {
                    healed_bytes: torn_bytes,
                    ..JournalStats::default()
                },
            })),
            _marker: PhantomData,
        };
        Ok((journal, tail))
    }

    /// Appends one record; returns its sequence number once the bytes
    /// have reached the backend. Nothing is acknowledged before the
    /// backend accepts the write.
    pub fn append(&self, record: &T) -> Result<u64, StoreError> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Appends `records` as consecutive frames in **one** backend
    /// append — over a replicated backend, one quorum round — and
    /// returns the last sequence number assigned (the current
    /// [`Journal::last_seq`] for an empty batch, which writes nothing).
    /// The region bytes equal those of appending the records one at a
    /// time; all of them are acknowledged together or none is.
    pub fn append_batch(&self, records: &[T]) -> Result<u64, StoreError> {
        let payloads: Vec<String> = records.iter().map(|r| oasis_json::to_string(r)).collect();
        let mut state = self.state.lock();
        if payloads.is_empty() {
            return Ok(state.next_seq - 1);
        }
        let mut framed = Vec::new();
        for (seq, payload) in (state.next_seq..).zip(&payloads) {
            push_frame(&mut framed, seq, payload.as_bytes());
        }
        self.backend.append(&framed)?;
        state.next_seq += payloads.len() as u64;
        state.stats.appended += payloads.len() as u64;
        state.stats.bytes_written += framed.len() as u64;
        Ok(state.next_seq - 1)
    }

    /// Reads and decodes every valid record, tolerating (and
    /// reporting) a torn or corrupted tail.
    pub fn load(&self) -> Result<LoadedJournal<T>, StoreError> {
        let bytes = self.backend.read()?;
        let (frames, valid_len) = scan(&bytes);
        let mut records = Vec::with_capacity(frames.len());
        for f in &frames {
            let text = std::str::from_utf8(f.payload)
                .map_err(|e| StoreError::Codec(format!("record {}: {e}", f.seq)))?;
            let value = oasis_json::from_str(text)
                .map_err(|e| StoreError::Codec(format!("record {}: {e}", f.seq)))?;
            records.push((f.seq, value));
        }
        let torn_bytes = (bytes.len() - valid_len) as u64;
        Ok(LoadedJournal {
            records,
            tail: TailReport {
                torn_bytes,
                torn: torn_bytes > 0,
            },
        })
    }

    /// Drops every record with `seq <= through` (after a snapshot has
    /// made them redundant), rewriting the backend atomically.
    pub fn truncate_through(&self, through: u64) -> Result<u64, StoreError> {
        let mut state = self.state.lock();
        let bytes = self.backend.read()?;
        let (frames, _) = scan(&bytes);
        let mut kept = Vec::new();
        let mut dropped = 0u64;
        for f in &frames {
            if f.seq > through {
                push_frame(&mut kept, f.seq, f.payload);
            } else {
                dropped += 1;
            }
        }
        self.backend.replace(&kept)?;
        state.stats.truncated_records += dropped;
        Ok(dropped)
    }

    /// The sequence number of the most recent append (0 if none ever).
    pub fn last_seq(&self) -> u64 {
        self.state.lock().next_seq - 1
    }

    /// Counters for this journal.
    pub fn stats(&self) -> JournalStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use oasis_json::{JsonError, Reader};

    #[derive(Debug, Clone, PartialEq)]
    struct Note(String);

    impl ToJson for Note {
        fn write_json(&self, out: &mut String) {
            self.0.write_json(out);
        }
    }

    impl FromJson for Note {
        fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
            String::read_json(r).map(Note)
        }
    }

    fn mem_journal() -> (Journal<Note>, MemBackend) {
        let backend = MemBackend::new();
        let (j, _) = Journal::open(Arc::new(backend.clone())).unwrap();
        (j, backend)
    }

    #[test]
    fn append_load_round_trip() {
        let (j, _) = mem_journal();
        for i in 0..5 {
            assert_eq!(j.append(&Note(format!("n{i}"))).unwrap(), i + 1);
        }
        let loaded = j.load().unwrap();
        assert_eq!(loaded.records.len(), 5);
        assert!(!loaded.tail.torn);
        assert_eq!(loaded.records[3], (4, Note("n3".into())));
    }

    #[test]
    fn reopen_resumes_sequence() {
        let (j, backend) = mem_journal();
        j.append(&Note("a".into())).unwrap();
        j.append(&Note("b".into())).unwrap();
        let (j2, tail) = Journal::<Note>::open(Arc::new(backend)).unwrap();
        assert!(!tail.torn);
        assert_eq!(j2.append(&Note("c".into())).unwrap(), 3);
    }

    #[test]
    fn truncation_at_every_byte_heals_never_panics() {
        let reference = {
            let (j, backend) = mem_journal();
            j.append(&Note("alpha".into())).unwrap();
            j.append(&Note("beta".into())).unwrap();
            backend.read().unwrap()
        };
        for cut in 0..reference.len() {
            let backend = MemBackend::new();
            backend.append_garbage(&reference[..cut]);
            let (j, tail) = Journal::<Note>::open(Arc::new(backend)).unwrap();
            let loaded = j.load().unwrap();
            // A cut inside frame k keeps exactly the frames before it:
            // open heals, load decodes, nothing panics.
            assert!(loaded.records.len() <= 2, "cut {cut}");
            if tail.torn {
                assert!(tail.torn_bytes as usize <= cut, "cut {cut}");
            } else {
                // Only a frame boundary survives a cut untorn.
                assert!(loaded.records.iter().all(|(s, _)| *s >= 1), "cut {cut}");
            }
        }
    }

    /// Counts the writes that reach the wrapped region.
    struct CountingBackend {
        inner: MemBackend,
        appends: std::sync::atomic::AtomicUsize,
    }

    impl StorageBackend for CountingBackend {
        fn read(&self) -> Result<Vec<u8>, StoreError> {
            self.inner.read()
        }
        fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
            self.appends
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.append(bytes)
        }
        fn replace(&self, bytes: &[u8]) -> Result<(), StoreError> {
            self.inner.replace(bytes)
        }
    }

    fn notes(names: &[&str]) -> Vec<Note> {
        names.iter().map(|n| Note((*n).to_string())).collect()
    }

    #[test]
    fn batch_is_one_backend_append_with_consecutive_seqs() {
        let backend = Arc::new(CountingBackend {
            inner: MemBackend::new(),
            appends: Default::default(),
        });
        let (j, _) =
            Journal::<Note>::open(Arc::clone(&backend) as Arc<dyn StorageBackend>).unwrap();
        assert_eq!(j.append(&Note("first".into())).unwrap(), 1);
        assert_eq!(j.append_batch(&notes(&["a", "b", "c"])).unwrap(), 4);
        assert_eq!(backend.appends.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert_eq!(j.stats().appended, 4, "records, not backend appends");

        // An empty batch writes nothing and burns no sequence number.
        assert_eq!(j.append_batch(&[]).unwrap(), 4);
        assert_eq!(backend.appends.load(std::sync::atomic::Ordering::SeqCst), 2);
        assert_eq!(j.append(&Note("last".into())).unwrap(), 5);

        // The region is what one-at-a-time appends write.
        let (one_by_one, plain) = mem_journal();
        for note in notes(&["first", "a", "b", "c", "last"]) {
            one_by_one.append(&note).unwrap();
        }
        assert_eq!(backend.read().unwrap(), plain.read().unwrap());
        let seqs: Vec<u64> = j.load().unwrap().records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn failed_batch_acknowledges_nothing() {
        let (j, backend) = mem_journal();
        j.append(&Note("kept".into())).unwrap();
        backend.poison("disk full");
        assert!(j.append_batch(&notes(&["x", "y"])).is_err());
        backend.heal();
        assert_eq!(j.last_seq(), 1);
        assert_eq!(j.append_batch(&notes(&["x", "y"])).unwrap(), 3);
    }

    #[test]
    fn tear_inside_a_batch_heals_to_the_last_whole_frame() {
        let (j, backend) = mem_journal();
        j.append_batch(&notes(&["one", "two", "three", "four"]))
            .unwrap();
        let whole = backend.read().unwrap();
        let frame_len = |text: &str| HEADER + text.len() + 2; // JSON quotes
        let two_frames = frame_len("one") + frame_len("two");
        // Crash mid-write: the region ends a few bytes into frame 3.
        let torn = MemBackend::new();
        torn.append_garbage(&whole[..two_frames + HEADER + 2]);
        let (reopened, tail) = Journal::<Note>::open(Arc::new(torn.clone())).unwrap();
        assert!(tail.torn);
        assert_eq!(tail.torn_bytes as usize, HEADER + 2);
        assert_eq!(torn.len(), two_frames, "healed to the 2-frame boundary");
        assert_eq!(reopened.load().unwrap().records.len(), 2);
        assert_eq!(reopened.append(&Note("next".into())).unwrap(), 3);
    }

    #[test]
    fn truncate_keeps_later_records() {
        let (j, _) = mem_journal();
        for i in 0..6 {
            j.append(&Note(format!("n{i}"))).unwrap();
        }
        assert_eq!(j.truncate_through(4).unwrap(), 4);
        let loaded = j.load().unwrap();
        let seqs: Vec<u64> = loaded.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![5, 6]);
        // Appends continue past the pre-truncation sequence.
        assert_eq!(j.append(&Note("n6".into())).unwrap(), 7);
    }
}
