//! Byte-level storage backends for the journal and snapshot stores.
//!
//! A backend is a single growable byte region with three operations:
//! read it all, append to the end, and atomically replace the whole
//! region (used by log truncation and snapshot writes). The journal
//! layer above owns framing and checksums; backends never interpret
//! the bytes.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::StoreError;

/// A single append-only byte region.
///
/// Implementations must be safe to share across threads; the journal
/// serialises writers itself, so backends only need interior
/// mutability, not their own ordering guarantees.
pub trait StorageBackend: Send + Sync {
    /// Reads the entire region.
    fn read(&self) -> Result<Vec<u8>, StoreError>;

    /// Appends `bytes` to the end of the region.
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Atomically replaces the entire region with `bytes`.
    fn replace(&self, bytes: &[u8]) -> Result<(), StoreError>;
}

/// An in-memory backend whose contents survive as long as any clone of
/// the handle does.
///
/// Clones share one buffer, which is exactly the crash model the
/// simulator needs: drop the service (losing all volatile state) while
/// a test keeps a cloned handle, then hand the same handle to the
/// restarted instance — the journal "survives the crash".
#[derive(Clone, Default)]
pub struct MemBackend {
    buf: Arc<Mutex<Vec<u8>>>,
    fault: Arc<Mutex<Option<String>>>,
}

impl MemBackend {
    /// Creates an empty in-memory region.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chops `n` bytes off the end — simulates a torn final write.
    pub fn truncate_tail(&self, n: usize) {
        let mut buf = self.buf.lock();
        let keep = buf.len().saturating_sub(n);
        buf.truncate(keep);
    }

    /// Flips every bit of the byte `offset_from_end` bytes before the
    /// end — simulates tail corruption from a partial sector write.
    pub fn corrupt_tail(&self, offset_from_end: usize) {
        let mut buf = self.buf.lock();
        let len = buf.len();
        if offset_from_end < len {
            buf[len - 1 - offset_from_end] ^= 0xFF;
        }
    }

    /// Appends raw garbage — simulates a write that never completed
    /// framing.
    pub fn append_garbage(&self, bytes: &[u8]) {
        self.buf.lock().extend_from_slice(bytes);
    }

    /// Makes every subsequent write fail with `reason` — simulates a
    /// full or failing disk. Reads keep working, as they do on a real
    /// disk that has stopped accepting writes.
    pub fn poison(&self, reason: &str) {
        *self.fault.lock() = Some(reason.to_string());
    }

    /// Clears a previous [`MemBackend::poison`]: writes succeed again.
    pub fn heal(&self) {
        *self.fault.lock() = None;
    }

    fn check_fault(&self) -> Result<(), StoreError> {
        match &*self.fault.lock() {
            Some(reason) => Err(StoreError::Io(reason.clone())),
            None => Ok(()),
        }
    }
}

impl StorageBackend for MemBackend {
    fn read(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.buf.lock().clone())
    }

    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.check_fault()?;
        self.buf.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.check_fault()?;
        *self.buf.lock() = bytes.to_vec();
        Ok(())
    }
}

/// A file-backed region. Appends go straight to the file; `replace`
/// writes a sibling temp file and renames it into place so a crash
/// mid-truncation leaves either the old or the new region, never a
/// mix.
#[derive(Clone)]
pub struct FileBackend {
    path: PathBuf,
    // Serialises append/replace against each other within one process.
    lock: Arc<Mutex<()>>,
}

impl FileBackend {
    /// Opens (creating if absent) the region at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            lock: Arc::new(Mutex::new(())),
        })
    }

    /// The file this backend writes.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl StorageBackend for FileBackend {
    fn read(&self) -> Result<Vec<u8>, StoreError> {
        let _guard = self.lock.lock();
        let mut buf = Vec::new();
        File::open(&self.path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let _guard = self.lock.lock();
        let mut f = OpenOptions::new().append(true).open(&self.path)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        Ok(())
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let _guard = self.lock.lock();
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        // The rename is an entry in the directory: until the directory is
        // synced, a crash can bring the old region back.
        #[cfg(unix)]
        {
            let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    }
}
