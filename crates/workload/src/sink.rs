//! Completion sinks: where the kernel's retirement stream goes.
//!
//! A simulation retires one [`Completion`] per request. What should
//! happen to it depends on the caller: figure binaries want the full
//! vector ([`VecSink`]), cluster sweeps want aggregate stats only
//! ([`DiscardSink`]; their latency percentiles come from the telemetry
//! `StatsCollector`'s sketch), and the 10⁷-request
//! exactness oracle wants every completion *without holding any of
//! them* — a buffered on-disk spill with a sorted replay
//! ([`SpillSink`]). The kernel is generic over the [`CompletionSink`]
//! trait, so the choice is a type parameter with zero per-event
//! dispatch cost: the sink call inlines, and for [`DiscardSink`] the
//! whole record path folds away.
//!
//! # Spill format
//!
//! [`SpillSink`] implements an external merge sort keyed by request id.
//! Completions buffer in memory; every `chunk` records the buffer is
//! sorted by id and flushed as one *run* file of fixed
//! [`RECORD_BYTES`]-byte little-endian records:
//!
//! | offset | bytes | field |
//! |--------|-------|----------------------------------|
//! | 0      | 8     | request id (`u64`)               |
//! | 8      | 4     | network (`u32` index in [`DnnId::ALL`]) |
//! | 12     | 4     | priority (`u32`)                 |
//! | 16     | 8     | arrival seconds (`f64` bits)     |
//! | 24     | 8     | QoS bound seconds (`f64` bits)   |
//! | 32     | 8     | finish seconds (`f64` bits)      |
//! | 40     | 8     | dynamic energy pJ (`f64` bits)   |
//!
//! Within a run, ids ascend; across runs, [`SpillReader`] k-way merges
//! on the (unique, monotone) id, so replay yields completions in global
//! id order — the same order [`SimResult`] sorts into — while peak
//! memory stays at one buffer plus one `BufReader` per run, independent
//! of the trace length. Floats round-trip by bit pattern, so a replayed
//! stream digests identically to the in-memory vector (pinned in
//! `crates/sim/tests/spill_exactness.rs`).
//!
//! [`SimResult`]: crate::SimResult

use crate::request::Completion;
use crate::Request;
use planaria_model::units::{Cycles, Picojoules};
use planaria_model::DnnId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

/// A destination for retired requests, chosen at kernel construction.
///
/// `record` is on the hot retirement path: implementations must not
/// allocate per event (amortized buffering is fine — that is the spill
/// sink's whole design) and must tolerate any retirement order; callers
/// needing a canonical order sort (or merge-replay) afterwards.
pub trait CompletionSink {
    /// Accepts one retired request. `latency` is the exact end-to-end
    /// integer-cycle latency (retirement cycle minus admission cycle) —
    /// already computed by the kernel, so sketch-style sinks need no
    /// float reconstruction.
    fn record(&mut self, completion: Completion, latency: Cycles);
}

/// Keeps every completion in memory — the default sink behind
/// `SimResult`-producing runs.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Completions in retirement order.
    pub completions: Vec<Completion>,
}

impl CompletionSink for VecSink {
    fn record(&mut self, completion: Completion, _latency: Cycles) {
        self.completions.push(completion);
    }
}

/// Drops every completion: aggregate tallies only (the kernel keeps
/// those itself). The record path compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardSink;

impl CompletionSink for DiscardSink {
    fn record(&mut self, _completion: Completion, _latency: Cycles) {}
}

/// Bytes per spilled completion record (see the module docs for the
/// layout).
pub const RECORD_BYTES: usize = 48;

/// Default completions buffered per run: 64Ki records ≈ 3 MiB of run
/// file, a couple of MiB of buffer — flat regardless of trace length.
pub const DEFAULT_SPILL_CHUNK: usize = 1 << 16;

fn encode(c: &Completion) -> [u8; RECORD_BYTES] {
    let dnn = DnnId::ALL
        .iter()
        .position(|&d| d == c.request.dnn)
        // lint: DnnId::ALL enumerates the whole enum by construction
        .expect("every DnnId appears in DnnId::ALL") as u32;
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..8].copy_from_slice(&c.request.id.to_le_bytes());
    rec[8..12].copy_from_slice(&dnn.to_le_bytes());
    rec[12..16].copy_from_slice(&c.request.priority.to_le_bytes());
    rec[16..24].copy_from_slice(&c.request.arrival.to_bits().to_le_bytes());
    rec[24..32].copy_from_slice(&c.request.qos.to_bits().to_le_bytes());
    rec[32..40].copy_from_slice(&c.finish.to_bits().to_le_bytes());
    rec[40..48].copy_from_slice(&c.energy.as_pj().to_bits().to_le_bytes());
    rec
}

fn decode(rec: &[u8; RECORD_BYTES]) -> io::Result<Completion> {
    let word = |r: std::ops::Range<usize>| {
        // lint: caller passes constant 8-byte ranges into a 48-byte record
        u64::from_le_bytes(rec[r].try_into().expect("range is 8 bytes"))
    };
    // lint: constant 4-byte slice of a fixed-size record
    let dnn_idx = u32::from_le_bytes(rec[8..12].try_into().expect("range is 4 bytes")) as usize;
    let dnn = *DnnId::ALL.get(dnn_idx).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "spill record names an unknown DnnId",
        )
    })?;
    Ok(Completion {
        request: Request {
            id: word(0..8),
            dnn,
            arrival: f64::from_bits(word(16..24)),
            // lint: constant 4-byte slice of a fixed-size record
            priority: u32::from_le_bytes(rec[12..16].try_into().expect("range is 4 bytes")),
            qos: f64::from_bits(word(24..32)),
        },
        finish: f64::from_bits(word(32..40)),
        energy: Picojoules::new(f64::from_bits(word(40..48))),
    })
}

/// External-merge-sort completion sink: buffers `chunk` completions,
/// spills each buffer as an id-sorted binary run file, and replays the
/// whole stream in global id order through [`SpillReader`]. Peak memory
/// is O(chunk + runs), independent of how many requests retire.
///
/// I/O errors while spilling panic (the sink sits inside the kernel's
/// infallible retirement path); errors while opening or merging surface
/// through [`finish`](SpillSink::finish) and the reader.
#[derive(Debug)]
pub struct SpillSink {
    dir: PathBuf,
    buf: Vec<Completion>,
    chunk: usize,
    runs: Vec<PathBuf>,
    /// Completions recorded (spilled + buffered).
    pub recorded: u64,
}

impl SpillSink {
    /// A spill sink writing run files `spill-run-N.bin` under `dir`
    /// (which must exist), with the default chunk size.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_chunk(dir, DEFAULT_SPILL_CHUNK)
    }

    /// [`SpillSink::new`] with an explicit records-per-run chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_chunk(dir: impl Into<PathBuf>, chunk: usize) -> Self {
        assert!(chunk > 0, "spill chunk must be positive");
        Self {
            dir: dir.into(),
            buf: Vec::with_capacity(chunk),
            chunk,
            runs: Vec::new(),
            recorded: 0,
        }
    }

    /// Sorts the buffer by id and writes it out as one run file.
    fn flush_run(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.buf.sort_unstable_by_key(|c| c.request.id);
        let path = self.dir.join(format!("spill-run-{}.bin", self.runs.len()));
        // lint: the infallible CompletionSink::record contract cannot
        // surface io::Result; a spill-disk failure mid-run is fatal anyway
        let file = File::create(&path).expect("create spill run file");
        let mut w = BufWriter::new(file);
        for c in &self.buf {
            // lint: same infallible-record contract as File::create above
            w.write_all(&encode(c)).expect("write spill record");
        }
        // lint: same infallible-record contract as File::create above
        w.flush().expect("flush spill run file");
        self.runs.push(path);
        self.buf.clear();
    }

    /// Flushes the tail run and opens the k-way merge replay reader.
    pub fn finish(mut self) -> io::Result<SpillReader> {
        self.flush_run();
        SpillReader::open(std::mem::take(&mut self.runs))
    }
}

impl CompletionSink for SpillSink {
    fn record(&mut self, completion: Completion, _latency: Cycles) {
        self.buf.push(completion);
        self.recorded += 1;
        if self.buf.len() >= self.chunk {
            self.flush_run();
        }
    }
}

/// One open run in the merge: a buffered reader plus its lookahead.
struct RunCursor {
    reader: BufReader<File>,
}

impl RunCursor {
    fn next(&mut self) -> io::Result<Option<Completion>> {
        let mut rec = [0u8; RECORD_BYTES];
        match self.reader.read_exact(&mut rec) {
            Ok(()) => decode(&rec).map(Some),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Replays a [`SpillSink`]'s run files as one stream in global request-id
/// order (ids are unique per trace, so the merge order is total). Run
/// files are deleted when the reader drops.
pub struct SpillReader {
    cursors: Vec<RunCursor>,
    /// Min-heap of (id, run) lookaheads; the completion at the heap top
    /// is the globally next one.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
    /// The buffered completion behind each heap entry.
    lookahead: Vec<Option<Completion>>,
    paths: Vec<PathBuf>,
}

impl SpillReader {
    fn open(paths: Vec<PathBuf>) -> io::Result<Self> {
        let mut cursors = Vec::with_capacity(paths.len());
        let mut heads = BinaryHeap::with_capacity(paths.len());
        let mut lookahead = Vec::with_capacity(paths.len());
        for (i, p) in paths.iter().enumerate() {
            let mut cur = RunCursor {
                reader: BufReader::new(File::open(p)?),
            };
            let head = cur.next()?;
            if let Some(c) = &head {
                heads.push(Reverse((c.request.id, i)));
            }
            lookahead.push(head);
            cursors.push(cur);
        }
        Ok(Self {
            cursors,
            heads,
            lookahead,
            paths,
        })
    }

    /// The next completion in global id order, or `None` at end of
    /// stream.
    pub fn try_next(&mut self) -> io::Result<Option<Completion>> {
        let Some(Reverse((_, run))) = self.heads.pop() else {
            return Ok(None);
        };
        let out = self.lookahead[run]
            .take()
            // lint: heads entries are pushed only alongside a Some lookahead
            .expect("heap entry always has a buffered completion");
        let refill = self.cursors[run].next()?;
        if let Some(c) = &refill {
            self.heads.push(Reverse((c.request.id, run)));
        }
        self.lookahead[run] = refill;
        Ok(out.into())
    }
}

impl Iterator for SpillReader {
    type Item = Completion;

    /// Iterator convenience over [`try_next`](SpillReader::try_next).
    ///
    /// # Panics
    ///
    /// Panics on I/O or format errors (use `try_next` to handle them).
    fn next(&mut self) -> Option<Completion> {
        // lint: documented panicking convenience; try_next is the fallible path
        self.try_next().expect("read spill run file")
    }
}

impl Drop for SpillReader {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(id: u64, finish: f64) -> Completion {
        Completion {
            request: Request {
                id,
                dnn: DnnId::ALL[(id % DnnId::ALL.len() as u64) as usize],
                arrival: finish - 0.25,
                priority: (id % 11) as u32 + 1,
                qos: 0.125 * (id + 1) as f64,
            },
            finish,
            energy: Picojoules::new(1.5 * id as f64 + 0.0625),
        }
    }

    #[test]
    fn record_roundtrips_bit_exactly() {
        for id in [0, 1, 7, u64::MAX / 3] {
            let c = completion(id, 1.0 + id as f64 * 1e-3);
            let rec = encode(&c);
            assert_eq!(decode(&rec).expect("valid record"), c);
        }
    }

    #[test]
    fn decode_rejects_unknown_dnn() {
        let mut rec = encode(&completion(1, 1.0));
        rec[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&rec).is_err());
    }

    #[test]
    fn vec_sink_keeps_retirement_order() {
        let mut s = VecSink::default();
        s.record(completion(2, 1.0), Cycles::new(10));
        s.record(completion(1, 2.0), Cycles::new(20));
        assert_eq!(s.completions.len(), 2);
        assert_eq!(s.completions[0].request.id, 2);
    }

    #[test]
    fn spill_replays_in_global_id_order_across_runs() {
        let dir = std::env::temp_dir().join("planaria-sink-test-order");
        std::fs::create_dir_all(&dir).expect("create test dir");
        // Tiny chunk forces many runs; ids arrive in a shuffled
        // (retirement-like) order.
        let mut sink = SpillSink::with_chunk(&dir, 3);
        let ids: Vec<u64> = (0..50).map(|i| (i * 37) % 50).collect();
        for &id in &ids {
            sink.record(completion(id, 1.0 + id as f64), Cycles::new(id));
        }
        let replayed: Vec<Completion> = sink.finish().expect("open reader").collect();
        assert_eq!(replayed.len(), 50);
        for (i, c) in replayed.iter().enumerate() {
            assert_eq!(c.request.id, i as u64);
            assert_eq!(*c, completion(i as u64, 1.0 + i as f64));
        }
        // Run files are cleaned up by the reader's Drop.
        assert_eq!(
            std::fs::read_dir(&dir)
                .expect("dir readable")
                .filter_map(Result::ok)
                .count(),
            0
        );
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn empty_spill_replays_empty() {
        let dir = std::env::temp_dir().join("planaria-sink-test-empty");
        std::fs::create_dir_all(&dir).expect("create test dir");
        let sink = SpillSink::new(&dir);
        assert_eq!(sink.finish().expect("open reader").count(), 0);
        let _ = std::fs::remove_dir(&dir);
    }
}
