//! Satellite: corrupt-tail tolerance.
//!
//! A crash mid-append leaves a truncated or bit-flipped final frame.
//! These tests damage the journal tail every way a disk can and
//! assert recovery stops cleanly at the last valid checksummed
//! record — no panic, no trusting garbage, and the healed journal
//! accepts further appends with a correctly resumed sequence.

use std::sync::Arc;

use oasis_json::json_struct;
use oasis_store::{DurableStore, Journal, MemBackend};

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    id: u64,
    label: String,
}

json_struct! { Entry { id, label } }

fn entry(i: u64) -> Entry {
    Entry {
        id: i,
        label: format!("entry-{i}"),
    }
}

fn filled(n: u64) -> (Journal<Entry>, MemBackend) {
    let backend = MemBackend::new();
    let (journal, tail) = Journal::open(Arc::new(backend.clone())).unwrap();
    assert!(!tail.torn);
    for i in 1..=n {
        journal.append(&entry(i)).unwrap();
    }
    (journal, backend)
}

#[test]
fn truncated_tail_recovers_valid_prefix() {
    // Chop off part of the final frame at every possible boundary.
    for cut in 1..=8 {
        let (_, backend) = filled(4);
        backend.truncate_tail(cut);
        let (journal, tail) = Journal::<Entry>::open(Arc::new(backend)).unwrap();
        assert!(tail.torn, "cut of {cut} bytes must be detected");
        assert!(tail.torn_bytes > 0);
        let loaded = journal.load().unwrap();
        assert_eq!(loaded.records.len(), 3, "cut {cut}: last record dropped");
        assert_eq!(loaded.records[2].1, entry(3));
    }
}

#[test]
fn flipped_payload_byte_drops_only_the_tail_record() {
    let (_, backend) = filled(5);
    backend.corrupt_tail(2); // inside the last record's payload
    let (journal, tail) = Journal::<Entry>::open(Arc::new(backend)).unwrap();
    assert!(tail.torn);
    let loaded = journal.load().unwrap();
    assert_eq!(loaded.records.len(), 4);
    assert_eq!(loaded.records.last().unwrap().1, entry(4));
}

#[test]
fn garbage_after_valid_records_is_ignored() {
    let (_, backend) = filled(3);
    backend.append_garbage(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01]);
    let (journal, tail) = Journal::<Entry>::open(Arc::new(backend)).unwrap();
    assert!(tail.torn);
    assert_eq!(tail.torn_bytes, 6);
    assert_eq!(journal.load().unwrap().records.len(), 3);
}

#[test]
fn garbage_length_field_cannot_cause_huge_read() {
    let (_, backend) = filled(2);
    // A frame header whose length field claims 4 GiB.
    let mut bogus = Vec::new();
    bogus.extend_from_slice(&u32::MAX.to_le_bytes());
    bogus.extend_from_slice(&3u64.to_le_bytes());
    bogus.extend_from_slice(&0u64.to_le_bytes());
    backend.append_garbage(&bogus);
    let (journal, tail) = Journal::<Entry>::open(Arc::new(backend)).unwrap();
    assert!(tail.torn);
    assert_eq!(journal.load().unwrap().records.len(), 2);
}

#[test]
fn healed_journal_resumes_appends_after_damage() {
    let (_, backend) = filled(4);
    backend.truncate_tail(5);
    let (journal, _) = Journal::<Entry>::open(Arc::new(backend.clone())).unwrap();
    // Record 4 was torn away; the next append must reuse seq 4, and a
    // clean reopen must see a fully valid log.
    assert_eq!(journal.append(&entry(40)).unwrap(), 4);
    let (journal2, tail2) = Journal::<Entry>::open(Arc::new(backend)).unwrap();
    assert!(!tail2.torn, "healed journal must reopen clean");
    let loaded = journal2.load().unwrap();
    assert_eq!(loaded.records.len(), 4);
    assert_eq!(loaded.records[3].1, entry(40));
}

#[test]
fn corrupt_snapshot_falls_back_to_full_replay() {
    let journal_backend = MemBackend::new();
    let snap_backend = MemBackend::new();
    let store: DurableStore<Entry, Entry> = DurableStore::open(
        Arc::new(journal_backend.clone()),
        Arc::new(snap_backend.clone()),
    )
    .unwrap();
    for i in 1..=6 {
        store.append(&entry(i)).unwrap();
    }
    store.write_snapshot(4, &entry(999)).unwrap();
    snap_backend.corrupt_tail(1);

    let reopened: DurableStore<Entry, Entry> =
        DurableStore::open(Arc::new(journal_backend), Arc::new(snap_backend)).unwrap();
    let recovered = reopened.load().unwrap();
    assert!(recovered.snapshot.is_none());
    assert!(recovered.snapshot_corrupt);
    // Only post-truncation records remain (5, 6) — the caller learns
    // the snapshot was bad and can refuse to serve, which is the
    // fail-safe outcome.
    let seqs: Vec<u64> = recovered.events.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, vec![5, 6]);
}

#[test]
fn file_backend_round_trip_with_torn_tail() {
    let dir = std::env::temp_dir().join(format!(
        "oasis-store-test-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let store: DurableStore<Entry, Entry> = DurableStore::open_dir(&dir).unwrap();
    for i in 1..=3 {
        store.append(&entry(i)).unwrap();
    }
    drop(store);

    // Tear the file's tail directly.
    let path = dir.join("journal.log");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let store: DurableStore<Entry, Entry> = DurableStore::open_dir(&dir).unwrap();
    assert!(store.open_tail().torn);
    let recovered = store.load().unwrap();
    assert_eq!(recovered.events.len(), 2);
    assert_eq!(recovered.events[1].1, entry(2));

    std::fs::remove_dir_all(&dir).ok();
}
