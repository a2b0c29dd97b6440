//! Durable storage for OASIS services.
//!
//! OASIS's active-security guarantee — revoke a supporting credential
//! and the dependent roles collapse *immediately* — is only as strong
//! as the issuing service's memory. This crate makes that memory
//! survive a crash:
//!
//! * [`Journal`] — an append-only, checksummed write-ahead log of
//!   security events, written *before* any state change is
//!   acknowledged. A torn tail (crash mid-append) is detected by
//!   checksum, healed, and reported — never trusted and never a
//!   panic.
//! * [`SnapshotStore`] — a single checksummed blob of the full state
//!   as of a journal sequence number, so recovery does not replay the
//!   journal from the beginning of time.
//! * [`DurableStore`] — the pairing the service layer uses: append
//!   events, then periodically snapshot and truncate the log.
//!
//! The crate is deliberately generic: it journals any `ToJson +
//! FromJson` payload and knows nothing about certificates or roles.
//! `oasis-core` defines the `SecurityEvent` / `ServiceSnapshot` types
//! and owns replay semantics; this crate owns bytes, checksums, and
//! crash-tolerance.
//!
//! # Backends
//!
//! [`MemBackend`] keeps bytes in a shared buffer that survives as
//! long as any clone of the handle — the crash model used by the
//! simulator and chaos tests (drop the service, keep the handle,
//! restart from it). [`FileBackend`] is the same contract against a
//! real file, with atomic replace via rename.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod error;
mod journal;
pub mod replicated;
mod snapshot;

pub use backend::{FileBackend, MemBackend, StorageBackend};
pub use error::StoreError;
pub use journal::{Journal, JournalStats, LoadedJournal, TailReport};
pub use replicated::{
    LocalMesh, LogEntry, PeerReply, PeerRequest, RegionOp, ReplicaConfig, ReplicaNode,
    ReplicaStats, ReplicatedStore, ReplicationTransport, Role,
};
pub use snapshot::{SnapshotLoad, SnapshotStore};

use std::path::Path;
use std::sync::Arc;

use oasis_json::{FromJson, ToJson};

/// What [`DurableStore::load`] recovered.
#[derive(Debug)]
pub struct Recovered<E, S> {
    /// The latest valid snapshot, if any, with the journal sequence
    /// it covers.
    pub snapshot: Option<(u64, S)>,
    /// True when snapshot bytes were present but failed validation;
    /// the events below then cover the whole journal.
    pub snapshot_corrupt: bool,
    /// Journal records *after* the snapshot's covered sequence, in
    /// append order.
    pub events: Vec<(u64, E)>,
    /// Tail damage found in the journal (skipped, not fatal).
    pub tail: TailReport,
}

/// Journal + snapshot pair for one service.
///
/// Clones share both backends, so a test can keep a handle across a
/// simulated crash and hand it to the restarted service.
pub struct DurableStore<E, S> {
    journal: Journal<E>,
    snapshots: SnapshotStore<S>,
    open_tail: TailReport,
}

impl<E, S> Clone for DurableStore<E, S> {
    fn clone(&self) -> Self {
        Self {
            journal: self.journal.clone(),
            snapshots: self.snapshots.clone(),
            open_tail: self.open_tail,
        }
    }
}

impl<E, S> DurableStore<E, S>
where
    E: ToJson + FromJson,
    S: ToJson + FromJson,
{
    /// Opens a store over explicit journal and snapshot backends.
    pub fn open(
        journal_backend: Arc<dyn StorageBackend>,
        snapshot_backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, StoreError> {
        let (journal, open_tail) = Journal::open(journal_backend)?;
        Ok(Self {
            journal,
            snapshots: SnapshotStore::new(snapshot_backend),
            open_tail,
        })
    }

    /// An in-memory store (fresh, empty backends).
    pub fn in_memory() -> Self {
        Self::open(Arc::new(MemBackend::new()), Arc::new(MemBackend::new()))
            .expect("in-memory open cannot fail")
    }

    /// Opens (creating if needed) `dir/journal.log` and
    /// `dir/snapshot.bin`.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        Self::open(
            Arc::new(FileBackend::open(dir.join("journal.log"))?),
            Arc::new(FileBackend::open(dir.join("snapshot.bin"))?),
        )
    }

    /// Appends one event; returns its journal sequence number. The
    /// caller must not apply the corresponding state change until
    /// this returns `Ok`.
    pub fn append(&self, event: &E) -> Result<u64, StoreError> {
        self.journal.append(event)
    }

    /// Appends `events` in one backend append (see
    /// [`Journal::append_batch`]); returns the last sequence number
    /// assigned.
    pub fn append_batch(&self, events: &[E]) -> Result<u64, StoreError> {
        self.journal.append_batch(events)
    }

    /// Loads the snapshot (if valid) and every journal record after
    /// it, tolerating a torn journal tail and a corrupt snapshot.
    pub fn load(&self) -> Result<Recovered<E, S>, StoreError> {
        let snap = self.snapshots.load()?;
        let covered = snap.snapshot.as_ref().map(|(seq, _)| *seq).unwrap_or(0);
        let loaded = self.journal.load()?;
        let events = loaded
            .records
            .into_iter()
            .filter(|(seq, _)| *seq > covered)
            .collect();
        Ok(Recovered {
            snapshot: snap.snapshot,
            snapshot_corrupt: snap.corrupt,
            events,
            tail: loaded.tail,
        })
    }

    /// Writes a snapshot covering journal records up to and including
    /// `covered_seq`, then truncates those records from the journal.
    /// Returns how many records were truncated.
    pub fn write_snapshot(&self, covered_seq: u64, state: &S) -> Result<u64, StoreError> {
        self.snapshots.write(covered_seq, state)?;
        self.journal.truncate_through(covered_seq)
    }

    /// The sequence number of the most recent append (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.journal.last_seq()
    }

    /// Journal counters.
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// Tail damage found (and healed) when this store was opened.
    pub fn open_tail(&self) -> TailReport {
        self.open_tail
    }
}
