//! The write log: stripe ownership records and word entries.
//!
//! When a transaction acquires a lock it publishes a pointer to a
//! [`StripeRecord`] in the lock word (see `lockword.rs`). The record
//! identifies the owner and, for write-back, heads a chain of
//! [`WordEntry`]s so a read-after-write finds the buffered value in O(1)
//! per stripe — the paper contrasts this with TL2's Bloom-filter +
//! write-set scan.
//!
//! Records and entries live in per-thread chunked arenas: their addresses
//! are stable (lock words point at them) and they are recycled across
//! attempts without reallocation. A *foreign* thread only ever reads the
//! `owner` field of a record it found through a lock word — possibly a
//! stale one from a finished transaction — so `owner` is atomic while all
//! other fields are owner-private plain data.

use core::sync::atomic::{AtomicUsize, Ordering};

/// Arena chunk size (records/entries per allocation).
const CHUNK: usize = 64;

/// A growable arena of `T` with stable addresses and O(1) reset.
#[derive(Debug)]
pub struct Arena<T: Default> {
    chunks: Vec<Box<[T]>>,
    len: usize,
}

impl<T: Default> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> Arena<T> {
    /// Empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of live objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no objects are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocate the next slot and return its stable address.
    ///
    /// The slot retains whatever state its previous user left; callers
    /// must initialize every field they later read.
    #[inline]
    pub fn alloc(&mut self) -> *mut T {
        let idx = self.len;
        let chunk_idx = idx / CHUNK;
        if chunk_idx == self.chunks.len() {
            let chunk: Vec<T> = (0..CHUNK).map(|_| T::default()).collect();
            self.chunks.push(chunk.into_boxed_slice());
        }
        self.len += 1;
        &mut self.chunks[chunk_idx][idx % CHUNK] as *mut T
    }

    /// Address of live object `i` (`i < len`).
    #[inline]
    pub fn get(&self, i: usize) -> *const T {
        debug_assert!(i < self.len);
        &self.chunks[i / CHUNK][i % CHUNK] as *const T
    }

    /// Mutable address of live object `i` (`i < len`).
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> *mut T {
        debug_assert!(i < self.len);
        &mut self.chunks[i / CHUNK][i % CHUNK] as *mut T
    }

    /// Forget all live objects; capacity (and addresses) are retained.
    #[inline]
    pub fn reset(&mut self) {
        self.len = 0;
    }

    /// Forget the most recently allocated object (used to recycle a
    /// record whose publishing CAS failed).
    #[inline]
    pub fn pop(&mut self) {
        debug_assert!(self.len > 0);
        self.len -= 1;
    }
}

/// Ownership record published in a lock word while a stripe is acquired.
///
/// `repr(C)` with the atomic first keeps the layout predictable; the
/// arena allocation guarantees word alignment, so bit 0 of the record
/// address is free for the lock bit.
#[repr(C)]
#[derive(Debug, Default)]
pub struct StripeRecord {
    /// Address of the owning thread's `ThreadState`. Read by foreign
    /// threads (possibly staleley through an old lock word), hence
    /// atomic. A stale read can only produce some *other* thread's
    /// state address or garbage — never the checking thread's own — so
    /// the "is it mine?" test is reliable.
    owner: AtomicUsize,
    /// Lock word observed when the stripe was acquired (unowned
    /// encoding). Restored on abort; its version feeds validation of
    /// self-owned stripes. Owner-private.
    pub prior_word: usize,
    /// Index of the lock this record owns. Owner-private.
    pub lock_idx: usize,
    /// Head of the write-back entry chain for this stripe (null for
    /// write-through). Owner-private.
    pub first_entry: *mut WordEntry,
}

impl StripeRecord {
    /// Publish `owner_addr` (called by the owner before the record
    /// pointer is CAS-ed into a lock word).
    #[inline]
    pub fn set_owner(&self, owner_addr: usize) {
        self.owner.store(owner_addr, Ordering::Release);
    }

    /// Read the owner field (any thread).
    #[inline]
    pub fn owner(&self) -> usize {
        self.owner.load(Ordering::Acquire)
    }
}

/// A buffered write-back update, chained per stripe.
#[derive(Debug)]
pub struct WordEntry {
    /// Target address.
    pub addr: *mut usize,
    /// Value to write at commit.
    pub value: usize,
    /// Next entry covering the same stripe (addresses differ).
    pub next: *mut WordEntry,
}

impl Default for WordEntry {
    fn default() -> Self {
        WordEntry {
            addr: core::ptr::null_mut(),
            value: 0,
            next: core::ptr::null_mut(),
        }
    }
}

/// A write-through undo record (restored in reverse order on abort).
#[derive(Debug, Clone, Copy)]
pub struct UndoEntry {
    /// Address that was overwritten.
    pub addr: *mut usize,
    /// Value to restore on abort.
    pub old_value: usize,
}

/// Per-thread write log: record arena + entry arena + undo log.
#[derive(Debug, Default)]
pub struct WriteLog {
    records: Arena<StripeRecord>,
    entries: Arena<WordEntry>,
    /// Write-through undo log, in program order.
    pub undo: Vec<UndoEntry>,
}

impl WriteLog {
    /// Fresh empty log.
    pub fn new() -> WriteLog {
        WriteLog::default()
    }

    /// Clear for a new attempt (capacity retained).
    pub fn reset(&mut self) {
        self.records.reset();
        self.entries.reset();
        self.undo.clear();
    }

    /// Number of owned stripes.
    #[inline]
    pub fn n_records(&self) -> usize {
        self.records.len()
    }

    /// Total buffered write-back entries.
    #[inline]
    pub fn n_entries(&self) -> usize {
        self.entries.len()
    }

    /// Allocate and initialize a record for a newly acquired stripe.
    ///
    /// Returns the stable record address to encode into the lock word.
    pub fn new_record(
        &mut self,
        owner_addr: usize,
        prior_word: usize,
        lock_idx: usize,
    ) -> *mut StripeRecord {
        let rec = self.records.alloc();
        // SAFETY: `rec` is a live arena slot; we initialize every field.
        unsafe {
            (*rec).set_owner(owner_addr);
            (*rec).prior_word = prior_word;
            (*rec).lock_idx = lock_idx;
            (*rec).first_entry = core::ptr::null_mut();
        }
        rec
    }

    /// Prepend a write-back entry to `rec`'s chain.
    ///
    /// # Safety
    /// `rec` must be a record from this log's current attempt.
    pub unsafe fn add_entry(&mut self, rec: *mut StripeRecord, addr: *mut usize, value: usize) {
        let e = self.entries.alloc();
        (*e).addr = addr;
        (*e).value = value;
        (*e).next = (*rec).first_entry;
        (*rec).first_entry = e;
    }

    /// Find the buffered value for `addr` in `rec`'s chain (write-back
    /// read-after-write).
    ///
    /// # Safety
    /// `rec` must be a record from this log's current attempt.
    pub unsafe fn find_entry(
        &self,
        rec: *const StripeRecord,
        addr: *const usize,
    ) -> Option<*mut WordEntry> {
        let mut cur = (*rec).first_entry;
        while !cur.is_null() {
            if std::ptr::eq((*cur).addr, addr) {
                return Some(cur);
            }
            cur = (*cur).next;
        }
        None
    }

    /// Record an overwritten value for the write-through undo log.
    pub fn push_undo(&mut self, addr: *mut usize, old_value: usize) {
        self.undo.push(UndoEntry { addr, old_value });
    }

    /// Iterate over the records of the current attempt.
    pub fn records(&self) -> impl Iterator<Item = *const StripeRecord> + '_ {
        (0..self.records.len()).map(move |i| self.records.get(i))
    }

    /// Iterate over the buffered write-back entries of the current
    /// attempt (each stripe chain's entries, every chain).
    pub fn entries(&self) -> impl Iterator<Item = *const WordEntry> + '_ {
        (0..self.entries.len()).map(move |i| self.entries.get(i))
    }

    /// Recycle the most recent record: its publishing CAS failed, so no
    /// lock word ever pointed at it.
    pub fn abandon_last_record(&mut self) {
        self.records.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_addresses_are_stable_across_growth() {
        let mut a: Arena<StripeRecord> = Arena::new();
        let first = a.alloc();
        let addrs: Vec<usize> = (0..10 * CHUNK).map(|_| a.alloc() as usize).collect();
        // Growing by many chunks must not move earlier slots.
        assert_eq!(a.get(0) as usize, first as usize);
        for (i, &addr) in addrs.iter().enumerate() {
            assert_eq!(a.get(i + 1) as usize, addr);
        }
    }

    #[test]
    fn arena_reset_recycles_addresses() {
        let mut a: Arena<WordEntry> = Arena::new();
        let p1 = a.alloc() as usize;
        a.reset();
        let p2 = a.alloc() as usize;
        assert_eq!(p1, p2, "reset must reuse slot 0");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn record_addresses_are_word_aligned() {
        let mut log = WriteLog::new();
        for i in 0..200 {
            let r = log.new_record(0x1000, 0, i);
            assert_eq!(r as usize & 1, 0, "record address has bit 0 set");
        }
    }

    #[test]
    fn record_owner_roundtrip() {
        let mut log = WriteLog::new();
        let r = log.new_record(0xabc0, 42, 7);
        // SAFETY: r is live in the arena.
        unsafe {
            assert_eq!((*r).owner(), 0xabc0);
            assert_eq!((*r).prior_word, 42);
            assert_eq!((*r).lock_idx, 7);
            assert!((*r).first_entry.is_null());
        }
    }

    #[test]
    fn chain_lookup_finds_latest_value() {
        let mut log = WriteLog::new();
        let r = log.new_record(1, 0, 0);
        let mut w1: usize = 0;
        let mut w2: usize = 0;
        let a1 = &mut w1 as *mut usize;
        let a2 = &mut w2 as *mut usize;
        unsafe {
            log.add_entry(r, a1, 100);
            log.add_entry(r, a2, 200);
            // Re-write of a1 is modelled by the caller updating the found
            // entry in place.
            let e = log.find_entry(r, a1).expect("a1 present");
            assert_eq!((*e).value, 100);
            (*e).value = 150;
            let e = log.find_entry(r, a1).unwrap();
            assert_eq!((*e).value, 150);
            let e2 = log.find_entry(r, a2).unwrap();
            assert_eq!((*e2).value, 200);
            assert!(log.find_entry(r, &w1 as *const usize).is_some());
            let other: usize = 0;
            assert!(log.find_entry(r, &other as *const usize).is_none());
        }
        assert_eq!(log.n_entries(), 2);
    }

    #[test]
    fn undo_log_preserves_order() {
        let mut log = WriteLog::new();
        let mut words = [0usize; 3];
        for (i, w) in words.iter_mut().enumerate() {
            log.push_undo(w as *mut usize, i + 10);
        }
        assert_eq!(log.undo.len(), 3);
        assert_eq!(log.undo[0].old_value, 10);
        assert_eq!(log.undo[2].old_value, 12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut log = WriteLog::new();
        let r = log.new_record(1, 0, 0);
        let mut w: usize = 0;
        unsafe { log.add_entry(r, &mut w as *mut usize, 1) };
        log.push_undo(&mut w as *mut usize, 2);
        log.reset();
        assert_eq!(log.n_records(), 0);
        assert_eq!(log.n_entries(), 0);
        assert!(log.undo.is_empty());
    }

    #[test]
    fn records_iterator_in_acquisition_order() {
        let mut log = WriteLog::new();
        for i in 0..5 {
            log.new_record(1, i, i);
        }
        let idxs: Vec<usize> = log.records().map(|r| unsafe { (*r).lock_idx }).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4]);
    }
}
