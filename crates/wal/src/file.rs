//! File-backed [`WalStore`]: one directory per shard, real appends,
//! real fsync, generation-named logs for atomic checkpoints.
//!
//! ## Layout
//!
//! ```text
//! <dir>/snap           [gen: u64 LE][Snapshot bytes]   (absent = fresh)
//! <dir>/wal-<gen>.log  append-only record frames
//! ```
//!
//! The snapshot file carries a **generation counter** in front of the
//! encoded [`crate::snapshot::Snapshot`], and the live log file is
//! named by that generation. A checkpoint then needs no multi-file
//! atomicity dance:
//!
//! 1. write `snap.tmp` = `[gen+1][snapshot]`, fsync it;
//! 2. `rename(snap.tmp, snap)` — the atomic commit point;
//! 3. fsync the directory, start appending to `wal-<gen+1>.log`,
//!    delete the old log lazily.
//!
//! A crash anywhere in that sequence recovers correctly: before the
//! rename, the old `(snap, wal-<gen>.log)` pair is untouched; after
//! it, the new snapshot points at a log that either does not exist yet
//! (empty log — the snapshot already holds every commit, since it was
//! taken inside a quiesce fence) or holds only post-checkpoint records.
//! There is no window where old log records replay on top of a newer
//! snapshot — the failure mode a truncate-in-place checkpoint has.
//!
//! ## Error classification
//!
//! Append distinguishes *how much* reached the file: an error before
//! any byte was written is [`StoreError::Transient`] or
//! [`StoreError::Permanent`] by `io::ErrorKind`; an error after a
//! partial write is [`StoreError::Torn`] (the log now ends in a
//! damaged frame that only a checkpoint can clear). A failed
//! `sync_data` is always [`StoreError::Permanent`]: after fsync
//! reports failure the kernel may have dropped the dirty pages, so
//! re-running fsync proves nothing (the "fsyncgate" lesson).
//!
//! An optional [`CrashSwitch`] gives file stores the same byte-budget
//! power-cut simulation [`crate::store::MemStore`] has: once cut,
//! appends silently persist only admitted prefixes and checkpoints
//! stop taking effect — while still reporting `Ok`, because a machine
//! that lost power never observes its last write failing.

use crate::store::{CrashSwitch, StoreError, WalStore};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Length of the generation prefix in the snapshot file.
const GEN_PREFIX: usize = 8;

struct FileInner {
    /// Current log generation (named into the log file).
    gen: u64,
    /// Open append handle to `wal-<gen>.log`.
    log: File,
}

/// Durable storage backed by real files in one directory.
pub struct FileStore {
    dir: PathBuf,
    inner: Mutex<FileInner>,
    switch: Arc<CrashSwitch>,
}

fn classify_io(e: &std::io::Error, what: &str) -> StoreError {
    let detail = format!("{what}: {e}");
    match e.kind() {
        // Plausibly-momentary conditions: nothing persisted, retry ok.
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            StoreError::Transient(detail)
        }
        _ => StoreError::Permanent(detail),
    }
}

impl FileStore {
    /// Open (or create) the store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Arc<FileStore>, StoreError> {
        FileStore::with_switch(dir, CrashSwitch::unlimited())
    }

    /// Open with a crash switch for power-cut simulation (tests and the
    /// harness; production stores pass [`CrashSwitch::unlimited`]).
    pub fn with_switch(
        dir: impl AsRef<Path>,
        switch: Arc<CrashSwitch>,
    ) -> Result<Arc<FileStore>, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| classify_io(&e, "create store dir"))?;
        let gen = match fs::read(dir.join("snap")) {
            Ok(bytes) if bytes.len() >= GEN_PREFIX => {
                u64::from_le_bytes(bytes[..GEN_PREFIX].try_into().unwrap())
            }
            _ => 0,
        };
        let log = open_log(&dir, gen)?;
        Ok(Arc::new(FileStore {
            dir,
            inner: Mutex::new(FileInner { gen, log }),
            switch,
        }))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current log generation (advances by one per checkpoint).
    pub fn generation(&self) -> u64 {
        self.inner.lock().gen
    }

    fn log_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("wal-{gen}.log"))
    }

    /// Best-effort removal of every `wal-<gen>.log` whose generation is
    /// not `live` (superseded by a completed checkpoint). Failures are
    /// ignored: a stale log is wasted space, never a correctness
    /// hazard — recovery only ever reads the generation named by the
    /// snapshot.
    fn remove_stale_logs(&self, live: u64) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(gen) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|g| g.parse::<u64>().ok())
            else {
                continue;
            };
            if gen != live {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

fn open_log(dir: &Path, gen: u64) -> Result<File, StoreError> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(format!("wal-{gen}.log")))
        .map_err(|e| classify_io(&e, "open log file"))
}

impl WalStore for FileStore {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        // Power-cut simulation: persist only the admitted prefix and
        // report success — the "machine" died, it never saw an error.
        let admitted = self.switch.admit(bytes.len());
        let to_write = &bytes[..admitted];
        let mut written = 0usize;
        while written < to_write.len() {
            match inner.log.write(&to_write[written..]) {
                Ok(0) => {
                    let e = std::io::Error::new(ErrorKind::WriteZero, "wrote 0 bytes");
                    return Err(torn_or(written, &e, "log append"));
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(torn_or(written, &e, "log append")),
            }
        }
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        if self.switch.is_cut() {
            return Ok(()); // simulated power loss: nothing to sync to
        }
        let inner = self.inner.lock();
        inner
            .log
            .sync_data()
            .map_err(|e| StoreError::Permanent(format!("fsync failed: {e}")))
    }

    fn log_bytes(&self) -> Vec<u8> {
        let gen = self.inner.lock().gen;
        fs::read(self.log_path(gen)).unwrap_or_default()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        match fs::read(self.dir.join("snap")) {
            // Strip the generation prefix; a file too short to carry it
            // is surfaced (not hidden) so Snapshot::decode fails loudly.
            Ok(bytes) if bytes.len() >= GEN_PREFIX => Some(bytes[GEN_PREFIX..].to_vec()),
            Ok(bytes) => Some(bytes),
            Err(_) => None,
        }
    }

    fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        if self.switch.is_cut() {
            return Ok(()); // the machine is "off"; nothing reaches disk
        }
        let mut inner = self.inner.lock();
        let next_gen = inner.gen + 1;
        let tmp = self.dir.join("snap.tmp");
        // 1. Stage the new snapshot. Any failure here leaves the old
        //    (snap, log) pair fully intact: transient.
        let stage = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&next_gen.to_le_bytes())?;
            f.write_all(snapshot)?;
            f.sync_data()
        })();
        if let Err(e) = stage {
            return Err(StoreError::Transient(format!("stage snapshot: {e}")));
        }
        // 2. Atomic commit point.
        if let Err(e) = fs::rename(&tmp, self.dir.join("snap")) {
            return Err(StoreError::Transient(format!("install snapshot: {e}")));
        }
        // 3. Make the rename durable, switch to the new-generation log.
        //    Failures past the rename leave the store *consistent* (the
        //    new snapshot + an empty-or-missing new log) but this handle
        //    unusable: permanent.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all(); // best-effort on platforms without dir fsync
        }
        inner.log = open_log(&self.dir, next_gen)?;
        inner.gen = next_gen;
        // Lazy cleanup of *every* superseded log generation, not just
        // the immediately-prior one: a crash between the rename and the
        // remove leaves that generation's file behind, and the next
        // checkpoint (which only knew about its own predecessor) used
        // to strand it on disk forever. Sweeping by name keeps the
        // directory at exactly one live log regardless of how many
        // crash-interrupted checkpoints came before.
        self.remove_stale_logs(next_gen);
        Ok(())
    }
}

fn torn_or(written: usize, e: &std::io::Error, what: &str) -> StoreError {
    if written > 0 {
        StoreError::Torn {
            persisted: written,
            detail: format!("{what}: {e}"),
        }
    } else {
        classify_io(e, what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupCommitConfig, GroupCommitter};
    use crate::log::{recover_store, TailStatus, WalError};
    use crate::snapshot::Snapshot;
    use crate::writer::LogWriter;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test, cleaned before use.
    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "stm-wal-filestore-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn committer(store: &Arc<FileStore>) -> Arc<GroupCommitter> {
        let writer = LogWriter::new(0, Arc::clone(store) as Arc<dyn WalStore>, 0);
        GroupCommitter::new(Arc::new(writer), GroupCommitConfig::default())
    }

    fn write_commits(store: &Arc<FileStore>, n: u64) {
        let gc = committer(store);
        for i in 0..n {
            gc.commit(0, i + 1, &[(i, i * 10)]).unwrap();
        }
    }

    #[test]
    fn round_trip_across_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let store = FileStore::open(&dir).unwrap();
            write_commits(&store, 3);
        } // handle dropped: only the files survive
        let store = FileStore::open(&dir).unwrap();
        let r = recover_store(&*store).unwrap();
        assert!(r.tail.is_clean());
        assert_eq!(r.records.len(), 3);
        assert_eq!(
            r.state.into_iter().collect::<Vec<_>>(),
            vec![(0, 0), (1, 10), (2, 20)]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_advances_generation_and_clears_log() {
        let dir = tmpdir("checkpoint");
        let store = FileStore::open(&dir).unwrap();
        write_commits(&store, 2);
        let snap = Snapshot {
            epoch: 1,
            entries: vec![(0, 0), (1, 10)],
        };
        store.checkpoint(&snap.encode()).unwrap();
        assert_eq!(store.generation(), 1);
        assert!(store.log_bytes().is_empty());
        // Reopen: recovery = snapshot only.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.generation(), 1);
        let r = recover_store(&*reopened).unwrap();
        assert_eq!(r.snapshot_epoch, 1);
        assert!(r.records.is_empty());
        assert_eq!(
            r.state.into_iter().collect::<Vec<_>>(),
            vec![(0, 0), (1, 10)]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_on_real_file_recovers_prefix() {
        let dir = tmpdir("torn");
        let store = FileStore::open(&dir).unwrap();
        write_commits(&store, 3);
        drop(store);
        // Tear the last record: chop a few bytes off the log file.
        let store = FileStore::open(&dir).unwrap();
        let log_path = store.log_path(0);
        let len = fs::metadata(&log_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&log_path).unwrap();
        f.set_len(len - 5).unwrap();
        let r = recover_store(&*store).unwrap();
        assert!(matches!(r.tail, TailStatus::Torn { .. }));
        assert_eq!(r.records.len(), 2, "intact prefix survives the tear");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_bit_flip_on_real_file_is_loud() {
        let dir = tmpdir("bitflip");
        let store = FileStore::open(&dir).unwrap();
        write_commits(&store, 3);
        let log_path = store.log_path(0);
        let mut bytes = fs::read(&log_path).unwrap();
        bytes[10] ^= 0x20; // payload of the first record
        fs::write(&log_path, &bytes).unwrap();
        assert!(matches!(
            recover_store(&*store),
            Err(WalError::InteriorCorruption { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_switch_cuts_appends_and_checkpoints_silently() {
        let dir = tmpdir("cut");
        let switch = CrashSwitch::after_bytes(30);
        let store = FileStore::with_switch(&dir, Arc::clone(&switch)).unwrap();
        let gc = committer(&store);
        for i in 0..4u64 {
            // All succeed from the writer's point of view (power cut,
            // not I/O error) even though later bytes never land.
            gc.commit(0, i + 1, &[(i, i)]).unwrap();
        }
        assert!(switch.is_cut());
        store.checkpoint(&Snapshot::default().encode()).unwrap(); // ignored
        drop(store);
        // Reboot: the surviving prefix (30 bytes = one record + a torn
        // second) recovers; the lost tail is reported, not fatal.
        let rebooted = FileStore::open(&dir).unwrap();
        assert_eq!(rebooted.generation(), 0, "cut checkpoint took no effect");
        let r = recover_store(&*rebooted).unwrap();
        assert!(!r.tail.is_clean());
        assert!(r.records.len() < 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_sweeps_stale_log_generations() {
        // Regression: checkpoint used to delete only the immediately
        // prior generation's log, so generations stranded by a crash
        // between the snapshot rename and the remove stayed on disk
        // forever. The sweep must leave exactly the live log.
        let dir = tmpdir("stale-gens");
        let store = FileStore::open(&dir).unwrap();
        write_commits(&store, 2);
        // Plant the leftovers such a crash leaves: superseded logs
        // whose checkpoints never got to their lazy remove.
        fs::write(store.log_path(90), b"stranded").unwrap();
        fs::write(store.log_path(91), b"stranded").unwrap();
        let snap = Snapshot {
            epoch: 1,
            entries: vec![(0, 0), (1, 10)],
        };
        store.checkpoint(&snap.encode()).unwrap();
        assert_eq!(store.generation(), 1);
        let logs: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .filter(|n| n.starts_with("wal-"))
            .collect();
        assert_eq!(
            logs,
            vec!["wal-1.log".to_string()],
            "only the live log survives"
        );
        // The swept store still recovers cleanly.
        let r = recover_store(&*store).unwrap();
        assert_eq!(r.snapshot_epoch, 1);
        assert!(r.records.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_snapshot_install_and_new_log_is_consistent() {
        // Simulate dying right after the rename: the snap file carries
        // gen 1 but wal-1.log was never created; wal-0.log still holds
        // pre-checkpoint records. Recovery must see snapshot + empty
        // log — never the old records replayed on the new snapshot.
        let dir = tmpdir("window");
        let store = FileStore::open(&dir).unwrap();
        write_commits(&store, 2);
        drop(store);
        let snap = Snapshot {
            epoch: 3,
            entries: vec![(0, 0), (1, 10)],
        };
        let mut snap_file = 1u64.to_le_bytes().to_vec();
        snap_file.extend_from_slice(&snap.encode());
        fs::write(dir.join("snap"), &snap_file).unwrap();
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert!(reopened.log_bytes().is_empty());
        let r = recover_store(&*reopened).unwrap();
        assert_eq!(r.snapshot_epoch, 3);
        assert!(r.records.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
