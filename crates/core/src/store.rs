//! Persistent, content-addressed FOM result store.
//!
//! Memoization (`xlda_num::memo`) stops at the circuit constructors:
//! every request still re-evaluates full sweep points, so the serve
//! tier's warm-hit-rate-1.0 story only holds within one process
//! lifetime. This module caches at the *result* level and persists it:
//!
//! - [`Digest`] — a 128-bit content address of a scenario's complete
//!   parameter set, derived through [`DigestWriter`] from the scenario
//!   kind tag, the tech/config fingerprints, and every `f64` parameter
//!   by its exact bit pattern, the key policy the memo caches use
//!   ([`memo::f64_key`]). Two scenarios that would evaluate
//!   identically share a digest; anything that can change a result
//!   changes it. Scheduling-only knobs (MC `batch`/`threads`) are
//!   deliberately excluded — results are bit-identical across them by
//!   the trial-stream contract, so they must hit the same entry.
//! - [`ResultStore`] — a sharded in-memory index over an append-only
//!   on-disk segment file. Records are FNV-checksummed and loaded
//!   crash-safely: a torn tail (the process was killed mid-append) or a
//!   corrupted record truncates the file back to the last good record
//!   instead of poisoning the store. Values round-trip `f64` results
//!   bit-exactly (`to_bits`/`from_bits`), so a stored result is
//!   indistinguishable from a recomputed one — pinned by
//!   `tests/store_transparency.rs`.
//! - [`ResultStore::sweep`] — the sweep-engine integration: a
//!   `par_try_map` whose evaluator consults the store before
//!   evaluating and appends every fresh result.
//! - [`successive_halving`] — incremental DSE on top of the store:
//!   rank a grid by evaluating a strided fraction first, then refine
//!   around the survivors, halving the stride each round. Exact for
//!   every point it touches because misses fall through to the normal
//!   engine.
//!
//! # Invalidation
//!
//! The on-disk header carries a format version (record layout) and a
//! model version ([`MODEL_VERSION`]). Bump the model version whenever a
//! constructor or evaluator changes numerically: every existing store
//! then resets itself (truncates to a fresh header) on next open
//! instead of serving stale FOMs. See DESIGN.md §13.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use crate::error::XldaError;
use crate::evaluate::{Evaluation, Scenario};
use crate::fom::{Candidate, Fom};
use crate::mc::McDistribution;
use crate::order::desc_nan_last;
use crate::sweep::{memo, par_try_map, PointFailure, SweepOptions};
use crate::triage::{rank, Objective};
use xlda_num::trial::Summary;

/// On-disk record layout version. Bump when the framing, the payload
/// encoding or the digest derivation changes (version 2: `f64`
/// parameters digest by their exact bits instead of 44-bit rounding, so
/// version-1 files reset rather than alias).
pub const FORMAT_VERSION: u32 = 2;

/// Model/semantics version baked into both the file header and every
/// digest derivation. Bump whenever any evaluator, constructor, or
/// scenario default changes numerically: stores written by older code
/// reset themselves on open instead of serving stale results.
pub const MODEL_VERSION: u32 = 1;

/// File magic; the trailing byte versions the header layout itself.
const MAGIC: &[u8; 8] = b"XLDASTR\x01";

/// Header length: magic + format version + model version.
pub const HEADER_LEN: u64 = 16;

/// Sanity cap on one record's payload; a corrupt length field must not
/// drive a multi-gigabyte allocation.
const MAX_RECORD: u32 = 16 << 20;

/// Shards in the in-memory index (same scale as `xlda_num::memo`).
const SHARDS: usize = 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// Second-lane offset basis (low half of the 128-bit FNV basis), giving
/// the digest an independent stream over the same words.
const FNV_OFFSET_LO: u64 = 0x6c62_272e_07bb_0142;

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

/// A 128-bit content address of one scenario's full parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest {
    /// High 64 bits (primary FNV-1a lane).
    pub hi: u64,
    /// Low 64 bits (independent second lane).
    pub lo: u64,
}

impl Digest {
    /// Renders the digest as 32 lowercase hex digits (`hi` then `lo`),
    /// the wire format the serve `refine` request kind exchanges.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`to_hex`](Digest::to_hex) form.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(Digest {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

/// Incremental digest builder used by [`Scenario::store_key`]
/// implementations.
///
/// Folds words into two FNV-1a lanes with independent offsets (the
/// second lane also rotates each word, so the lanes never degenerate
/// into copies). `f64` parameters go through [`memo::f64_key`] first:
/// their exact bit pattern, with only `-0.0` and NaN canonicalized, so
/// two parameters share a digest only when they are the same number.
#[derive(Debug, Clone)]
pub struct DigestWriter {
    hi: u64,
    lo: u64,
    words: u64,
}

impl DigestWriter {
    /// Starts a digest for one scenario kind. The kind tag, the model
    /// version, and the digest schema are all part of the address.
    pub fn new(kind: &str) -> Self {
        let mut w = Self {
            hi: FNV_OFFSET,
            lo: FNV_OFFSET_LO,
            words: 0,
        };
        w.word(u64::from(MODEL_VERSION));
        w.bytes(kind.as_bytes());
        w
    }

    /// Folds one raw 64-bit word.
    pub fn word(&mut self, v: u64) -> &mut Self {
        self.hi = (self.hi ^ v).wrapping_mul(FNV_PRIME);
        self.lo = (self.lo ^ v.rotate_left(31)).wrapping_mul(FNV_PRIME);
        self.words += 1;
        self
    }

    /// Folds a usize parameter.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.word(v as u64)
    }

    /// Folds an `f64` parameter by its exact bits (memo key policy).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.word(memo::f64_key(v))
    }

    /// Folds a byte string (length-prefixed, so `("ab","c")` and
    /// `("a","bc")` cannot collide).
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.word(b.len() as u64);
        for &byte in b {
            self.word(u64::from(byte));
        }
        self
    }

    /// Finishes the digest; the folded word count guards against
    /// extension ambiguity.
    pub fn finish(&self) -> Digest {
        let mut hi = (self.hi ^ self.words).wrapping_mul(FNV_PRIME);
        let mut lo = (self.lo ^ self.words.rotate_left(31)).wrapping_mul(FNV_PRIME);
        // One avalanche round per lane so near-identical folds differ
        // in more than the low bits.
        hi ^= hi >> 29;
        hi = hi.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        lo ^= lo >> 29;
        lo = lo.wrapping_mul(0x94d0_49bb_1331_11eb);
        Digest {
            hi: hi ^ (hi >> 32),
            lo: lo ^ (lo >> 32),
        }
    }
}

// ---------------------------------------------------------------------------
// Record serialization (hand-rolled, little-endian, bit-exact f64)
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    put_u16(out, b.len().min(u16::MAX as usize) as u16);
    out.extend_from_slice(&b[..b.len().min(u16::MAX as usize)]);
}

/// Byte-walking reader over one record payload; every getter returns
/// `None` past the end, which the loader treats as a corrupt record.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Some(s)
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
}

fn checksum_bytes(payload: &[u8]) -> u64 {
    payload.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

fn encode_record(digest: Digest, kind: &str, eval: &Evaluation) -> Vec<u8> {
    let mut payload = Vec::with_capacity(128);
    put_u64(&mut payload, digest.hi);
    put_u64(&mut payload, digest.lo);
    put_str(&mut payload, kind);
    put_u32(&mut payload, eval.candidates.len() as u32);
    for c in &eval.candidates {
        put_str(&mut payload, &c.name);
        put_f64(&mut payload, c.fom.latency_s);
        put_f64(&mut payload, c.fom.energy_j);
        put_f64(&mut payload, c.fom.area_mm2);
        put_f64(&mut payload, c.fom.accuracy);
    }
    put_u32(&mut payload, eval.distributions.len() as u32);
    for d in &eval.distributions {
        put_str(&mut payload, d.name);
        put_str(&mut payload, d.unit);
        put_str(&mut payload, d.criterion);
        put_u64(&mut payload, d.summary.trials as u64);
        put_u64(&mut payload, d.summary.nan_count as u64);
        for v in [
            d.summary.mean,
            d.summary.std_dev,
            d.summary.min,
            d.summary.max,
            d.summary.p5,
            d.summary.p50,
            d.summary.p95,
        ] {
            put_f64(&mut payload, v);
        }
        put_f64(&mut payload, d.yield_fraction);
        put_u64(&mut payload, d.checksum);
    }
    let mut record = Vec::with_capacity(payload.len() + 12);
    put_u32(&mut record, payload.len() as u32);
    record.extend_from_slice(&payload);
    put_u64(&mut record, checksum_bytes(&payload));
    record
}

fn decode_payload(payload: &[u8]) -> Option<(Digest, Evaluation)> {
    let mut c = Cursor::new(payload);
    let digest = Digest {
        hi: c.u64()?,
        lo: c.u64()?,
    };
    let _kind = c.str()?;
    let n_cands = c.u32()? as usize;
    if n_cands > MAX_RECORD as usize {
        return None;
    }
    let mut candidates = Vec::with_capacity(n_cands.min(1024));
    for _ in 0..n_cands {
        let name = c.str()?;
        let fom = Fom {
            latency_s: c.f64()?,
            energy_j: c.f64()?,
            area_mm2: c.f64()?,
            accuracy: c.f64()?,
        };
        candidates.push(Candidate { name, fom });
    }
    let n_dists = c.u32()? as usize;
    if n_dists > MAX_RECORD as usize {
        return None;
    }
    let mut distributions = Vec::with_capacity(n_dists.min(64));
    for _ in 0..n_dists {
        let name = intern(&c.str()?);
        let unit = intern(&c.str()?);
        let criterion = intern(&c.str()?);
        let trials = c.u64()? as usize;
        let nan_count = c.u64()? as usize;
        let summary = Summary {
            trials,
            nan_count,
            mean: c.f64()?,
            std_dev: c.f64()?,
            min: c.f64()?,
            max: c.f64()?,
            p5: c.f64()?,
            p50: c.f64()?,
            p95: c.f64()?,
        };
        let yield_fraction = c.f64()?;
        let checksum = c.u64()?;
        distributions.push(McDistribution {
            name,
            unit,
            criterion,
            summary,
            yield_fraction,
            checksum,
        });
    }
    if c.at != payload.len() {
        return None; // trailing garbage: not a record this version wrote
    }
    Some((
        digest,
        Evaluation {
            candidates,
            distributions,
        },
    ))
}

/// Interns a distribution label so deserialized [`McDistribution`]s can
/// carry the `&'static str` fields the in-process type uses. The label
/// vocabulary is tiny and fixed (a handful of outcome names per MC
/// scenario kind), so the one-time leak per unique string is bounded.
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = pool.iter().find(|&&p| p == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.push(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Construction knobs for [`ResultStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOptions {
    /// In-memory index bound; `0` = unbounded. When exceeded, the
    /// oldest entries (insertion order) are evicted from the index —
    /// they stay on disk and reload (subject to the same bound) on the
    /// next open.
    pub max_entries: usize,
}

/// What loading the segment file found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Complete, checksum-valid records restored into the index.
    pub recovered_records: u64,
    /// Bytes truncated off the tail (torn final append or corruption).
    pub truncated_bytes: u64,
    /// The file had a different format/model version (or was not a
    /// store at all) and was reset to an empty store.
    pub reset: bool,
}

/// Counters for one store at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the index.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Fresh results appended (disk + index).
    pub inserted: u64,
    /// Entries evicted from the in-memory index by `max_entries`.
    pub evictions: u64,
    /// Entries currently indexed.
    pub entries: u64,
    /// Bytes in the segment file (header + records).
    pub persisted_bytes: u64,
    /// Disk appends that failed; the evaluation still succeeded, the
    /// result just was not persisted.
    pub io_errors: u64,
}

impl StoreStats {
    /// Hits over total lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A persistent, content-addressed [`Evaluation`] store: sharded
/// in-memory index over an append-only, FNV-checksummed segment file.
pub struct ResultStore {
    shards: Vec<RwLock<HashMap<Digest, Evaluation>>>,
    /// Insertion order for FIFO eviction under `max_entries`.
    order: Mutex<VecDeque<Digest>>,
    /// `None` for a purely in-memory store.
    file: Option<Mutex<File>>,
    path: Option<PathBuf>,
    opts: StoreOptions,
    load: LoadReport,
    entries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserted: AtomicU64,
    evictions: AtomicU64,
    persisted_bytes: AtomicU64,
    io_errors: AtomicU64,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultStore {
    fn empty(opts: StoreOptions) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            order: Mutex::new(VecDeque::new()),
            file: None,
            path: None,
            opts,
            load: LoadReport::default(),
            entries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persisted_bytes: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// A store with no backing file (tests, transient refine sessions).
    pub fn in_memory() -> Self {
        Self::empty(StoreOptions::default())
    }

    /// Opens (creating if needed) the store at `path` with default
    /// options and replays its records into the index.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with(path, StoreOptions::default())
    }

    /// [`open`](ResultStore::open) with explicit [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, missing parent
    /// directory). Corruption never errors: torn tails and bad records
    /// are truncated away, incompatible versions reset the file, and
    /// both outcomes are reported in [`load_report`](Self::load_report).
    pub fn open_with(path: impl AsRef<Path>, opts: StoreOptions) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        // O_APPEND: every record lands atomically at EOF, so two store
        // instances on one path interleave at record granularity
        // instead of corrupting each other (reads still honor seek).
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut store = Self::empty(opts);
        store.load = store.replay(&mut file)?;
        store
            .persisted_bytes
            .store(file.metadata()?.len(), Ordering::Relaxed);
        store.path = Some(path);
        store.file = Some(Mutex::new(file));
        Ok(store)
    }

    /// Replays the segment file into the empty index, truncating the
    /// torn/corrupt tail and resetting incompatible files.
    fn replay(&self, file: &mut File) -> std::io::Result<LoadReport> {
        let mut report = LoadReport::default();
        let len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        file.seek(SeekFrom::Start(0))?;
        let have_header = len >= HEADER_LEN && {
            file.read_exact(&mut header)?;
            &header[..8] == MAGIC
                && u32::from_le_bytes(header[8..12].try_into().unwrap()) == FORMAT_VERSION
                && u32::from_le_bytes(header[12..16].try_into().unwrap()) == MODEL_VERSION
        };
        if !have_header {
            // Not ours, or written by a different format/model version:
            // reset rather than serve stale results.
            report.reset = len > 0;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut h = Vec::with_capacity(HEADER_LEN as usize);
            h.extend_from_slice(MAGIC);
            h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            h.extend_from_slice(&MODEL_VERSION.to_le_bytes());
            file.write_all(&h)?;
            file.sync_data().ok();
            return Ok(report);
        }
        let mut buf = Vec::with_capacity((len - HEADER_LEN) as usize);
        file.read_to_end(&mut buf)?;
        let mut at = 0usize;
        let mut good_end = 0usize; // relative to the record region
        while at + 4 <= buf.len() {
            let rec_len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
            if rec_len > MAX_RECORD {
                break;
            }
            let payload_start = at + 4;
            let payload_end = match payload_start.checked_add(rec_len as usize) {
                Some(e) if e + 8 <= buf.len() => e,
                _ => break, // torn tail: record extends past EOF
            };
            let payload = &buf[payload_start..payload_end];
            let want = u64::from_le_bytes(buf[payload_end..payload_end + 8].try_into().unwrap());
            if checksum_bytes(payload) != want {
                break; // bit flip; everything after an append-only break is suspect
            }
            let Some((digest, eval)) = decode_payload(payload) else {
                break;
            };
            self.index_insert(digest, eval);
            report.recovered_records += 1;
            at = payload_end + 8;
            good_end = at;
        }
        let good_len = HEADER_LEN + good_end as u64;
        if good_len < len {
            report.truncated_bytes = len - good_len;
            file.set_len(good_len)?;
            file.sync_data().ok();
        }
        file.seek(SeekFrom::End(0))?;
        Ok(report)
    }

    fn shard(&self, d: &Digest) -> &RwLock<HashMap<Digest, Evaluation>> {
        &self.shards[(d.hi as usize) % SHARDS]
    }

    /// Inserts into the index only (no disk, no `inserted` counter);
    /// shared by replay and [`insert`](Self::insert). First write wins,
    /// like the memo caches — content addressing makes duplicates
    /// identical anyway.
    fn index_insert(&self, digest: Digest, eval: Evaluation) -> bool {
        let fresh = {
            let mut shard = self
                .shard(&digest)
                .write()
                .unwrap_or_else(|e| e.into_inner());
            match shard.entry(digest) {
                std::collections::hash_map::Entry::Occupied(_) => false,
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(eval);
                    true
                }
            }
        };
        if !fresh {
            return false;
        }
        self.entries.fetch_add(1, Ordering::Relaxed);
        if self.opts.max_entries > 0 {
            let mut order = self.order.lock().unwrap_or_else(|e| e.into_inner());
            order.push_back(digest);
            while order.len() > self.opts.max_entries {
                if let Some(old) = order.pop_front() {
                    let removed = self
                        .shard(&old)
                        .write()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&old)
                        .is_some();
                    if removed {
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        true
    }

    /// Looks up a digest, counting the hit or miss.
    pub fn get(&self, digest: &Digest) -> Option<Evaluation> {
        let hit = self
            .shard(digest)
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(digest)
            .cloned();
        match hit {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether the index holds `digest`, without touching the counters.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.shard(digest)
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(digest)
    }

    /// Stores one evaluated result: appends the checksummed record to
    /// the segment file (one `write(2)` in append mode, so concurrent
    /// writers interleave at record granularity) and indexes it.
    pub fn insert(&self, digest: Digest, kind: &str, eval: &Evaluation) {
        if !self.index_insert(digest, eval.clone()) {
            return; // already present; disk already has it (or will)
        }
        self.inserted.fetch_add(1, Ordering::Relaxed);
        if let Some(file) = &self.file {
            let record = encode_record(digest, kind, eval);
            let mut f = file.lock().unwrap_or_else(|e| e.into_inner());
            match f.write_all(&record) {
                Ok(()) => {
                    self.persisted_bytes
                        .fetch_add(record.len() as u64, Ordering::Relaxed);
                }
                Err(_) => {
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Flushes the segment file to stable storage.
    pub fn flush(&self) {
        if let Some(file) = &self.file {
            let f = file.lock().unwrap_or_else(|e| e.into_inner());
            let _ = f.sync_data();
        }
    }

    /// Evaluates `scenario` through the store: a digest hit returns the
    /// stored result (bit-exact, indistinguishable from recomputing);
    /// a miss falls through to [`Scenario::evaluate`] and persists the
    /// result. Scenarios without a [`Scenario::store_key`] bypass the
    /// store entirely.
    ///
    /// # Errors
    ///
    /// Exactly [`Scenario::evaluate`]'s contract; errors are never
    /// cached (a transiently infeasible point stays re-evaluable).
    pub fn evaluate_cached(&self, scenario: &dyn Scenario) -> Result<Evaluation, XldaError> {
        let Some(digest) = scenario.store_key() else {
            return scenario.evaluate();
        };
        if let Some(hit) = self.get(&digest) {
            return Ok(hit);
        }
        let eval = scenario.evaluate()?;
        self.insert(digest, scenario.kind(), &eval);
        Ok(eval)
    }

    /// Sweeps `scenarios` on the parallel engine with the store
    /// consulted before every evaluation (`par_try_map` + per-point
    /// containment semantics).
    pub fn sweep<S: Scenario + Sync>(
        &self,
        scenarios: &[S],
        opts: &SweepOptions,
    ) -> Vec<Result<Evaluation, PointFailure<XldaError>>> {
        par_try_map(scenarios, |s| self.evaluate_cached(s), opts)
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            persisted_bytes: self.persisted_bytes.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }

    /// Entries currently indexed.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What the open-time replay found (recovered/truncated/reset).
    pub fn load_report(&self) -> LoadReport {
        self.load
    }

    /// Backing file path, if persistent.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

// ---------------------------------------------------------------------------
// Successive-halving triage (incremental DSE)
// ---------------------------------------------------------------------------

/// Knobs for [`successive_halving`].
#[derive(Debug, Clone, Copy)]
pub struct HalvingConfig {
    /// Fraction of the grid evaluated in the first round (stride
    /// `ceil(1/fraction)`); clamped to `(0, 1]`. Default 0.25.
    pub fraction: f64,
    /// Ranking objective scoring each evaluated point by its best
    /// candidate.
    pub objective: Objective,
}

impl Default for HalvingConfig {
    fn default() -> Self {
        Self {
            fraction: 0.25,
            objective: Objective::latency_first(None),
        }
    }
}

/// One evaluated, scored grid point in a halving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct HalvingRanked {
    /// Index into the input grid.
    pub index: usize,
    /// Best candidate's name at this point (empty when the point
    /// failed to evaluate).
    pub name: String,
    /// Best candidate's objective score (NaN when the point failed).
    pub score: f64,
}

/// What [`successive_halving`] evaluated and concluded.
#[derive(Debug)]
pub struct HalvingOutcome {
    /// Evaluated points, best first (failed points rank last).
    pub ranking: Vec<HalvingRanked>,
    /// Per-grid-index results; `None` = never evaluated (pruned).
    pub results: Vec<Option<Result<Evaluation, PointFailure<XldaError>>>>,
    /// Points actually evaluated (store hits included).
    pub evaluated: usize,
    /// Total grid size.
    pub grid: usize,
}

/// Ranks a scenario grid by evaluating a strided fraction first, then
/// refining around the survivors with the stride halved each round
/// until it reaches 1. Every touched point is evaluated exactly
/// (store hit or fresh engine evaluation — bit-identical either way),
/// so the returned scores are true scores; only *pruned* points are
/// approximate in the sense of never being scored. With a store warmed
/// by a prior full sweep, the whole procedure is pure lookups.
pub fn successive_halving<S: Scenario + Sync>(
    store: &ResultStore,
    scenarios: &[S],
    opts: &SweepOptions,
    config: &HalvingConfig,
) -> HalvingOutcome {
    let n = scenarios.len();
    let mut results: Vec<Option<Result<Evaluation, PointFailure<XldaError>>>> =
        (0..n).map(|_| None).collect();
    if n == 0 {
        return HalvingOutcome {
            ranking: Vec::new(),
            results,
            evaluated: 0,
            grid: 0,
        };
    }
    let fraction = if config.fraction.is_finite() {
        config.fraction.clamp(1e-6, 1.0)
    } else {
        0.25
    };
    let mut stride = ((1.0 / fraction).ceil() as usize).clamp(1, n);
    let mut frontier: Vec<usize> = (0..n).step_by(stride).collect();
    let score_of = |r: &Result<Evaluation, PointFailure<XldaError>>| -> f64 {
        match r {
            Ok(ev) => rank(&ev.candidates, &config.objective)
                .first()
                .map_or(f64::NAN, |best| best.score),
            Err(_) => f64::NAN,
        }
    };
    loop {
        let todo: Vec<usize> = frontier
            .iter()
            .copied()
            .filter(|&i| results[i].is_none())
            .collect();
        if !todo.is_empty() {
            let batch: Vec<&S> = todo.iter().map(|&i| &scenarios[i]).collect();
            let outs = par_try_map(&batch, |s| store.evaluate_cached(*s), opts);
            for (&i, out) in todo.iter().zip(outs) {
                results[i] = Some(out);
            }
        }
        if stride == 1 {
            break;
        }
        // Keep the top half of the current frontier (at least one) and
        // refine around each survivor at half the stride.
        let mut scored: Vec<(usize, f64)> = frontier
            .iter()
            .map(|&i| {
                let s = results[i].as_ref().map_or(f64::NAN, &score_of);
                (i, s)
            })
            .collect();
        scored.sort_by(|a, b| desc_nan_last(a.1, b.1).then_with(|| a.0.cmp(&b.0)));
        let keep = scored.len().div_ceil(2);
        stride /= 2;
        let mut next = Vec::new();
        for &(i, _) in scored.iter().take(keep) {
            for j in [i.saturating_sub(stride), i, (i + stride).min(n - 1)] {
                if !next.contains(&j) {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        frontier = next;
    }
    let mut ranking: Vec<HalvingRanked> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
        .map(|(index, r)| match r {
            Ok(ev) => {
                let best = rank(&ev.candidates, &config.objective);
                HalvingRanked {
                    index,
                    name: best.first().map(|b| b.name.clone()).unwrap_or_default(),
                    score: best.first().map_or(f64::NAN, |b| b.score),
                }
            }
            Err(_) => HalvingRanked {
                index,
                name: String::new(),
                score: f64::NAN,
            },
        })
        .collect();
    let evaluated = ranking.len();
    ranking.sort_by(|a, b| desc_nan_last(a.score, b.score).then_with(|| a.index.cmp(&b.index)));
    HalvingOutcome {
        ranking,
        results,
        evaluated,
        grid: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::HdcScenario;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xlda_store_unit_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = DigestWriter::new("hdc").f64(1.25).usize(26).finish();
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"a".repeat(31)), None);
    }

    #[test]
    fn digest_separates_kind_and_params() {
        let a = DigestWriter::new("hdc").usize(26).finish();
        let b = DigestWriter::new("mann").usize(26).finish();
        let c = DigestWriter::new("hdc").usize(27).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Parameters one ulp apart get distinct digests, like the memo
        // keys.
        let x = DigestWriter::new("hdc").f64(1.0).finish();
        let y = DigestWriter::new("hdc")
            .f64(f64::from_bits(1.0f64.to_bits() + 1))
            .finish();
        assert_ne!(x, y);
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let eval = HdcScenario::default().evaluate().unwrap();
        let d = HdcScenario::default().store_key().unwrap();
        let rec = encode_record(d, "hdc", &eval);
        let payload = &rec[4..rec.len() - 8];
        let (got_d, got_eval) = decode_payload(payload).unwrap();
        assert_eq!(got_d, d);
        assert_eq!(got_eval, eval);
    }

    #[test]
    fn in_memory_store_hits_after_insert() {
        let store = ResultStore::in_memory();
        let s = HdcScenario::default();
        let first = store.evaluate_cached(&s).unwrap();
        let second = store.evaluate_cached(&s).unwrap();
        assert_eq!(first, second);
        let st = store.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        assert_eq!(st.hit_rate(), 0.5);
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        let mut p = tmp("evict");
        p.set_extension("bin");
        let _ = std::fs::remove_file(&p);
        let store = ResultStore::open_with(&p, StoreOptions { max_entries: 2 }).expect("open");
        let ev = Evaluation {
            candidates: vec![],
            distributions: vec![],
        };
        for i in 0..4u64 {
            store.insert(Digest { hi: i, lo: i }, "t", &ev);
        }
        let st = store.stats();
        assert_eq!(st.entries, 2);
        assert_eq!(st.evictions, 2);
        assert!(!store.contains(&Digest { hi: 0, lo: 0 }));
        assert!(store.contains(&Digest { hi: 3, lo: 3 }));
        // Disk keeps everything; reload re-applies the bound.
        drop(store);
        let store = ResultStore::open_with(&p, StoreOptions { max_entries: 2 }).expect("reopen");
        assert_eq!(store.load_report().recovered_records, 4);
        assert_eq!(store.stats().entries, 2);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn halving_evaluates_a_fraction_and_is_exact() {
        let grid: Vec<HdcScenario> = (0..16)
            .map(|i| HdcScenario {
                classes: 10 + i,
                ..HdcScenario::default()
            })
            .collect();
        let store = ResultStore::in_memory();
        let out = successive_halving(
            &store,
            &grid,
            &SweepOptions::builder().threads(1).build(),
            &HalvingConfig::default(),
        );
        assert_eq!(out.grid, 16);
        assert!(out.evaluated < 16, "halving must prune: {}", out.evaluated);
        assert!(out.evaluated >= 4, "first round covers the stride sample");
        // Every touched point is exact.
        for r in out.ranking.iter() {
            let direct = grid[r.index].evaluate().unwrap();
            let stored = out.results[r.index].as_ref().unwrap().as_ref().unwrap();
            assert_eq!(stored, &direct);
        }
        // Warmed store: a rerun is pure lookups.
        let warm = ResultStore::in_memory();
        for s in &grid {
            warm.insert(s.store_key().unwrap(), s.kind(), &s.evaluate().unwrap());
        }
        let before = warm.stats();
        let again = successive_halving(
            &warm,
            &grid,
            &SweepOptions::builder().threads(1).build(),
            &HalvingConfig::default(),
        );
        let after = warm.stats();
        assert_eq!(after.misses, before.misses, "warm halving must not miss");
        assert_eq!(again.evaluated, out.evaluated);
        assert_eq!(
            again.ranking.first().map(|r| r.index),
            out.ranking.first().map(|r| r.index)
        );
    }
}
