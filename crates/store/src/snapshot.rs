//! Snapshot storage: one checksummed blob holding the full state as
//! of a journal sequence number.
//!
//! A snapshot is one frame of the journal's codec —
//! `[len: u32][covered_seq: u64][checksum: u64][payload]`, written by
//! its `push_frame` and read by its `read_frame` — where `covered_seq`
//! is the last journal sequence number the snapshot subsumes. Writing a
//! new snapshot atomically replaces the previous one; there is never
//! more than one. A snapshot that fails its checksum is *ignored*, not
//! trusted: recovery reports it and falls back to replaying the full
//! journal.

use std::marker::PhantomData;
use std::sync::Arc;

use oasis_json::{FromJson, ToJson};

use crate::backend::StorageBackend;
use crate::error::StoreError;
use crate::journal::{push_frame, read_frame};

/// Hard cap on the snapshot's payload: a snapshot holds the whole state,
/// so it may be far larger than one journal record.
const MAX_PAYLOAD: usize = 256 * 1024 * 1024;

/// Result of reading the snapshot region.
pub struct SnapshotLoad<S> {
    /// The decoded snapshot and the journal sequence it covers, if a
    /// valid one was present.
    pub snapshot: Option<(u64, S)>,
    /// True when bytes were present but failed validation — the
    /// caller should replay the whole journal instead.
    pub corrupt: bool,
}

/// Typed snapshot store over a [`StorageBackend`].
pub struct SnapshotStore<S> {
    backend: Arc<dyn StorageBackend>,
    _marker: PhantomData<fn() -> S>,
}

impl<S> Clone for SnapshotStore<S> {
    fn clone(&self) -> Self {
        Self {
            backend: Arc::clone(&self.backend),
            _marker: PhantomData,
        }
    }
}

impl<S: ToJson + FromJson> SnapshotStore<S> {
    /// Wraps `backend` as the snapshot region.
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        Self {
            backend,
            _marker: PhantomData,
        }
    }

    /// Replaces the stored snapshot with `state`, recorded as covering
    /// journal records up to and including `covered_seq`.
    pub fn write(&self, covered_seq: u64, state: &S) -> Result<(), StoreError> {
        let payload = oasis_json::to_string(state).into_bytes();
        let mut out = Vec::new();
        push_frame(&mut out, covered_seq, &payload);
        self.backend.replace(&out)
    }

    /// Reads the stored snapshot, treating any validation failure as
    /// "no snapshot" (with `corrupt` set) rather than an error.
    pub fn load(&self) -> Result<SnapshotLoad<S>, StoreError> {
        let bytes = self.backend.read()?;
        if bytes.is_empty() {
            return Ok(SnapshotLoad {
                snapshot: None,
                corrupt: false,
            });
        }
        let corrupt = SnapshotLoad {
            snapshot: None,
            corrupt: true,
        };
        // Bytes after the frame are ignored.
        let Some((frame, _)) = read_frame(&bytes, 0, MAX_PAYLOAD) else {
            return Ok(corrupt);
        };
        let text = match std::str::from_utf8(frame.payload) {
            Ok(t) => t,
            Err(_) => return Ok(corrupt),
        };
        let state = match oasis_json::from_str(text) {
            Ok(s) => s,
            Err(_) => return Ok(corrupt),
        };
        Ok(SnapshotLoad {
            snapshot: Some((frame.seq, state)),
            corrupt: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use oasis_json::{JsonError, Reader};

    #[derive(Debug, Clone, PartialEq)]
    struct Blob(String);

    impl ToJson for Blob {
        fn write_json(&self, out: &mut String) {
            self.0.write_json(out);
        }
    }

    impl FromJson for Blob {
        fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
            String::read_json(r).map(Blob)
        }
    }

    #[test]
    fn truncation_at_every_byte_is_corrupt_never_panics() {
        let reference = {
            let backend = MemBackend::new();
            let store: SnapshotStore<Blob> = SnapshotStore::new(Arc::new(backend.clone()));
            store.write(17, &Blob("snapshot-state".into())).unwrap();
            backend.read().unwrap()
        };
        for cut in 0..=reference.len() {
            let backend = MemBackend::new();
            backend.append_garbage(&reference[..cut]);
            let store: SnapshotStore<Blob> = SnapshotStore::new(Arc::new(backend));
            let load = store.load().unwrap();
            if cut == reference.len() {
                assert_eq!(load.snapshot, Some((17, Blob("snapshot-state".into()))));
                assert!(!load.corrupt);
            } else if cut == 0 {
                assert!(load.snapshot.is_none());
                assert!(!load.corrupt);
            } else {
                assert!(load.snapshot.is_none(), "cut {cut}");
                assert!(load.corrupt, "cut {cut}");
            }
        }
    }
}
