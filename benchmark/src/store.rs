//! The benchmark's wrapper around each shard's real `FileStore`.
//!
//! It does three jobs, none of which touch the bytes on their way down:
//!
//! * while `recording` is on, it records a span around every `append`,
//!   `sync` and `checkpoint` (the traced run's view of the file layer);
//! * it counts log bytes, so `wal_bytes_per_put` needs no read of the
//!   log;
//! * it remembers how far the log was synced, so the simulated power
//!   cut can *discard* what was appended but never synced. A killed
//!   process leaves such bytes in the OS cache, where a recovery would
//!   find them; a machine that lost power would not.

use crate::span::{self, Kind, Span};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use stm_wal::{CrashSwitch, FileStore, StoreError, WalStore};

pub struct TracedStore {
    inner: Arc<FileStore>,
    shard: u32,
    switch: Arc<CrashSwitch>,
    /// Ladder rung 3: report `sync` done without doing it.
    suppress_sync: bool,
    recording: AtomicBool,
    spans: Mutex<Vec<Span>>,
    /// Bytes appended to the current log generation.
    log_len: AtomicU64,
    /// Prefix of the current log generation known to be synced.
    synced_len: AtomicU64,
    /// Bytes appended since the store was opened.
    appended_total: AtomicU64,
}

impl TracedStore {
    pub fn new(
        inner: Arc<FileStore>,
        shard: usize,
        switch: Arc<CrashSwitch>,
        suppress_sync: bool,
    ) -> Arc<TracedStore> {
        Arc::new(TracedStore {
            inner,
            shard: shard as u32,
            switch,
            suppress_sync,
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            log_len: AtomicU64::new(0),
            synced_len: AtomicU64::new(0),
            appended_total: AtomicU64::new(0),
        })
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Take the spans recorded so far.
    pub fn drain_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock poisoned"))
    }

    pub fn appended_total(&self) -> u64 {
        self.appended_total.load(Ordering::Relaxed)
    }

    fn timed<R>(&self, kind: Kind, bytes: usize, call: impl FnOnce() -> R) -> R {
        if !self.recording.load(Ordering::Relaxed) {
            return call();
        }
        let start_ns = span::now_ns();
        let result = call();
        let end_ns = span::now_ns();
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(Span {
                kind,
                shard: self.shard,
                who: span::thread_no(),
                arg: bytes as u64,
                start_ns,
                end_ns,
            });
        result
    }

    /// After the crash switch was cut and every writer has stopped:
    /// truncate the log file to its synced prefix, as the power loss
    /// would have. Returns the bytes discarded.
    pub fn discard_unsynced(&self) -> std::io::Result<u64> {
        assert!(self.switch.is_cut(), "discard_unsynced before the cut");
        let path = self
            .inner
            .dir()
            .join(format!("wal-{}.log", self.inner.generation()));
        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
        let on_disk = file.metadata()?.len();
        let keep = on_disk.min(self.synced_len.load(Ordering::SeqCst));
        file.set_len(keep)?;
        file.sync_all()?;
        Ok(on_disk - keep)
    }
}

impl WalStore for TracedStore {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.timed(Kind::StoreAppend, bytes.len(), || self.inner.append(bytes))?;
        if !self.switch.is_cut() {
            self.log_len.fetch_add(bytes.len() as u64, Ordering::SeqCst);
            self.appended_total
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        if self.suppress_sync {
            return Ok(());
        }
        let upto = self.log_len.load(Ordering::SeqCst);
        self.timed(Kind::StoreSync, 0, || self.inner.sync())?;
        // A sync that raced the cut proves nothing to anyone: the
        // client that waits on it checks the switch after its ack and
        // does not count it either.
        if !self.switch.is_cut() {
            self.synced_len.fetch_max(upto, Ordering::SeqCst);
        }
        Ok(())
    }

    fn log_bytes(&self) -> Vec<u8> {
        self.inner.log_bytes()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }

    fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        self.timed(Kind::StoreCheckpoint, snapshot.len(), || {
            self.inner.checkpoint(snapshot)
        })?;
        // The checkpoint started a fresh, empty log generation (a cut
        // store ignored it and keeps the old one).
        if !self.switch.is_cut() {
            self.log_len.store(0, Ordering::SeqCst);
            self.synced_len.store(0, Ordering::SeqCst);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        crate::env::test_dir(&format!("store-{tag}"))
    }

    #[test]
    fn the_power_cut_discards_what_was_never_synced() {
        let dir = scratch("cut");
        let switch = CrashSwitch::unlimited();
        let file = FileStore::with_switch(&dir, Arc::clone(&switch)).unwrap();
        let store = TracedStore::new(file, 0, Arc::clone(&switch), false);
        store.append(b"synced--").unwrap();
        store.sync().unwrap();
        store.append(b"pending").unwrap();
        assert_eq!(store.log_bytes(), b"synced--pending");
        switch.cut_now();
        store.append(b"void").unwrap();
        store.sync().unwrap();
        assert_eq!(store.discard_unsynced().unwrap(), 7);
        assert_eq!(FileStore::open(&dir).unwrap().log_bytes(), b"synced--");
        assert_eq!(store.appended_total(), 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_starts_a_new_synced_prefix() {
        let dir = scratch("ckpt");
        let switch = CrashSwitch::unlimited();
        let file = FileStore::with_switch(&dir, Arc::clone(&switch)).unwrap();
        let store = TracedStore::new(file, 0, Arc::clone(&switch), false);
        store.append(b"old-generation").unwrap();
        store.sync().unwrap();
        store.checkpoint(b"snap").unwrap();
        store.append(b"new").unwrap();
        switch.cut_now();
        assert_eq!(store.discard_unsynced().unwrap(), 3);
        let reopened = FileStore::open(&dir).unwrap();
        assert!(reopened.log_bytes().is_empty());
        assert_eq!(reopened.snapshot().unwrap(), b"snap");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_are_recorded_only_while_recording() {
        let dir = scratch("spans");
        let switch = CrashSwitch::unlimited();
        let file = FileStore::with_switch(&dir, Arc::clone(&switch)).unwrap();
        let store = TracedStore::new(file, 3, switch, false);
        store.append(b"quiet").unwrap();
        store.set_recording(true);
        store.append(b"loud").unwrap();
        store.sync().unwrap();
        store.set_recording(false);
        store.sync().unwrap();
        let spans = store.drain_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, Kind::StoreAppend);
        assert_eq!((spans[0].shard, spans[0].arg), (3, 4));
        assert_eq!(spans[1].kind, Kind::StoreSync);
        assert!(spans[1].end_ns >= spans[1].start_ns);
        assert!(store.drain_spans().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
