//! Spans recorded from the benchmark's own files around the calls into
//! each layer: a root `client.put` per request, and `store.append` /
//! `store.sync` / `store.checkpoint` around each shard's `FileStore`.
//! They stay in memory during the run and are written out at exit.
//!
//! A store span is the child of every `client.put` span on the same
//! shard whose interval contains it (one group flush serves several
//! requests). A span's self time is its duration minus the part of its
//! interval its children cover.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ClientPut,
    StoreAppend,
    StoreSync,
    StoreCheckpoint,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClientPut => "client.put",
            Kind::StoreAppend => "store.append",
            Kind::StoreSync => "store.sync",
            Kind::StoreCheckpoint => "store.checkpoint",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub shard: u32,
    /// Client id for `client.put`; the calling thread for store spans.
    pub who: u32,
    /// Request number for `client.put`; bytes for store spans.
    pub arg: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds since the first call in this process: one clock for
/// every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small stable number for the calling thread.
pub fn thread_no() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NO: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NO.with(|n| *n)
}

/// Self time, in nanoseconds, of each span of `parents`: its duration
/// minus the union of the `children` intervals it contains. Children
/// are matched on `shard`; both slices may be in any order.
pub fn self_times(parents: &[Span], children: &[Span]) -> Vec<u64> {
    let mut sorted: Vec<&Span> = children.iter().collect();
    sorted.sort_by_key(|c| (c.shard, c.start_ns));
    parents
        .iter()
        .map(|p| {
            let first = sorted.partition_point(|c| (c.shard, c.start_ns) < (p.shard, p.start_ns));
            let mut covered = 0u64;
            let mut covered_to = p.start_ns;
            for c in &sorted[first..] {
                if c.shard != p.shard || c.start_ns > p.end_ns {
                    break;
                }
                if c.end_ns > p.end_ns {
                    continue;
                }
                // Children arrive by start time: count only what lies
                // past the part already covered.
                let from = c.start_ns.max(covered_to);
                if c.end_ns > from {
                    covered += c.end_ns - from;
                    covered_to = c.end_ns;
                }
            }
            p.duration_ns() - covered
        })
        .collect()
}

/// Write `spans` as JSON lines: name, trial, shard, who, arg, start, end.
pub fn write_jsonl(out: &mut impl Write, trial: usize, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"trial\":{trial},\"shard\":{},\"who\":{},\"arg\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.kind.name(),
            s.shard,
            s.who,
            s.arg,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, shard: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            shard,
            who: 0,
            arg: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_contained_children() {
        let parents = [span(Kind::ClientPut, 0, 100, 1_000)];
        let children = [
            span(Kind::StoreAppend, 0, 200, 300),
            span(Kind::StoreSync, 0, 300, 800),
            // Another shard's sync: not a child.
            span(Kind::StoreSync, 1, 150, 900),
            // Starts inside, ends after the parent: not contained.
            span(Kind::StoreSync, 0, 900, 1_100),
            // Starts before the parent: not contained.
            span(Kind::StoreAppend, 0, 50, 150),
        ];
        assert_eq!(self_times(&parents, &children), vec![900 - 600]);
    }

    #[test]
    fn overlapping_parents_share_a_child() {
        // Two requests on one shard ride the same group flush.
        let parents = [
            span(Kind::ClientPut, 0, 0, 1_000),
            span(Kind::ClientPut, 0, 100, 1_200),
            span(Kind::ClientPut, 0, 500, 1_300),
        ];
        let children = [
            span(Kind::StoreAppend, 0, 200, 250),
            span(Kind::StoreSync, 0, 250, 900),
        ];
        // The third request arrived after the flush began: no child.
        assert_eq!(self_times(&parents, &children), vec![300, 400, 800]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let parents = [span(Kind::ClientPut, 0, 0, 1_000)];
        let children = [
            span(Kind::StoreSync, 0, 100, 600),
            span(Kind::StoreSync, 0, 400, 700),
            span(Kind::StoreSync, 0, 450, 500),
        ];
        assert_eq!(self_times(&parents, &children), vec![1_000 - 600]);
    }

    #[test]
    fn spans_serialize_one_per_line() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, 2, &[span(Kind::StoreSync, 1, 5, 9)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let line = stm_perf::json::parse(text.trim()).unwrap();
        assert_eq!(
            line.get("name").and_then(|j| j.as_str()),
            Some("store.sync")
        );
        assert_eq!(line.get("trial").and_then(|j| j.as_u64()), Some(2));
        assert_eq!(line.get("end_ns").and_then(|j| j.as_u64()), Some(9));
    }
}
