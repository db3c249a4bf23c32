//! Disk-backed, content-addressed `(layer, config) → mapping outcome`
//! store: the persistent tier below [`crate::CodesignEvaluator`]'s sharded
//! in-memory caches.
//!
//! # Layout
//!
//! A cache directory holds only **record segments** (`seg-<id>.edc`):
//! append-only files of length-prefixed records behind a 16-byte header
//! (magic + format version). Each record stores the canonical key string,
//! its 64-bit FNV-1a hash, the serialized value, and a checksum over the
//! whole body. Appends never rewrite existing bytes; every handle that
//! writes creates a fresh segment of its own, so readers of old segments
//! are never invalidated. Any other file in the directory is ignored.
//!
//! # Opening and crash safety
//!
//! Opening scans every segment and verifies every record's checksum; the
//! in-memory hash → location map is built from that scan, so nothing on
//! disk is trusted unchecked. Appends are not flushed per record, so a
//! crash can tear the tail of a segment: the scan stops at the first
//! record that is torn or fails its checksum and **truncates the segment
//! to the surviving prefix** (logically — the file is never modified)
//! instead of failing. A segment whose header carries an unknown format
//! version is skipped whole. Each such event is counted in
//! [`DiskCacheStats`] and emitted as a `disk_cache/*` telemetry counter.
//!
//! # Trusting vs. checked reads
//!
//! By default, lookups trust the bytes the open scan verified and only
//! compare the stored key string against the requested key (which makes
//! hash collisions harmless). With the `validation` cargo feature — the CI
//! configuration — every read additionally re-verifies the record checksum
//! and key hash before deserializing, which also catches bytes changed
//! after open. Either way, a record that fails any check is evicted and
//! treated as a miss: the evaluator recomputes and re-appends, so
//! corruption can cost time but never changes results.

use accel_model::{AcceleratorConfig, ExecutionProfile};
use edse_telemetry::{Collector, Level};
use mapper::MappedLayer;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use workloads::LayerShape;

/// Magic bytes opening every record segment.
const SEGMENT_MAGIC: &[u8; 8] = b"EDSECSEG";
/// On-disk format version; segments written by a different version are
/// skipped whole (never deleted, never appended to).
pub const DISKCACHE_VERSION: u32 = 1;
/// Segment header size: magic + version + reserved word.
const HEADER_LEN: u64 = 16;
/// Fixed per-record framing: body-length prefix + trailing checksum.
const FRAME_LEN: u64 = 8;
/// Minimum body: key hash (8) + key length (4).
const MIN_BODY: u32 = 12;
/// Read-buffer size for the open scan (records are a few hundred bytes to
/// a few KiB, so one buffer fill serves many records).
const SCAN_BUF: usize = 64 << 10;

pub use integrity::READ_CHECKS;

#[cfg(feature = "validation")]
mod integrity {
    /// Whether lookups re-verify record checksums and key hashes before
    /// deserializing (`true` under the `validation` feature — the CI
    /// configuration; default builds rely on the checksums verified at
    /// open and only compare the stored key string).
    pub const READ_CHECKS: bool = true;
}

#[cfg(not(feature = "validation"))]
mod integrity {
    /// Whether lookups re-verify record checksums and key hashes before
    /// deserializing (`true` under the `validation` feature — the CI
    /// configuration; default builds rely on the checksums verified at
    /// open and only compare the stored key string).
    pub const READ_CHECKS: bool = false;
}

/// 64-bit FNV-1a. [`std::hash::DefaultHasher`] is explicitly not stable
/// across Rust releases, so content-addressed keys that live on disk get a
/// hand-rolled hash that never changes.
pub fn key_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Record checksum: the key hash folded to 32 bits.
fn checksum(body: &[u8]) -> u32 {
    let h = key_hash(body);
    (h ^ (h >> 32)) as u32
}

/// The persisted outcome of mapping one layer onto one configuration —
/// the disk-resident form of the evaluator's layer-cache values. Both
/// fields `None` records a pair that was searched and found unmappable
/// with no diagnostic available (just as expensive to rediscover as a
/// feasible mapping).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StoredLayer {
    /// The optimized mapping, when one was feasible.
    pub mapped: Option<MappedLayer>,
    /// The diagnostic relaxed-NoC profile for infeasible pairs.
    pub diagnostic: Option<ExecutionProfile>,
}

/// The canonical key representation: mapper fingerprint + evaluation
/// inputs, serialized to one deterministic JSON string. Serde field order
/// is declaration order, so equal inputs always produce byte-equal keys.
#[derive(serde::Serialize, serde::Deserialize)]
struct KeyRepr {
    mapper: String,
    shape: LayerShape,
    cfg: AcceleratorConfig,
}

/// Builds the canonical content-address for one `(mapper, layer, config)`
/// triple. The mapper component must be a [`mapper::MappingOptimizer::fingerprint`]
/// — an identity that captures every result-changing knob (seeds included),
/// so two runs that would compute different outcomes never share a key.
///
/// # Errors
///
/// Returns the serialization failure (practically unreachable for these
/// always-finite types).
pub fn layer_key(
    mapper_fingerprint: &str,
    shape: &LayerShape,
    cfg: &AcceleratorConfig,
) -> Result<String, String> {
    serde_json::to_string(&KeyRepr {
        mapper: mapper_fingerprint.to_string(),
        shape: *shape,
        cfg: *cfg,
    })
    .map_err(|e| format!("serialize cache key: {e}"))
}

/// Counters describing one [`DiskCache`]'s traffic and recovery history,
/// as reported by [`DiskCache::stats`] and folded into
/// [`crate::evaluate::CacheStats`]. All counts are since open (the cache
/// does not persist its own statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Readable records.
    pub entries: usize,
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups not present (or evicted as unreadable).
    pub misses: u64,
    /// Records appended by this process.
    pub appends: u64,
    /// Segments whose scan stopped early at a torn or corrupt record.
    pub torn_tails: u64,
    /// Segments skipped whole for carrying an unknown format version.
    pub skipped_segments: u64,
    /// Records evicted after failing a read-time check.
    pub read_errors: u64,
    /// Appends lost to I/O errors (the cache degrades to pass-through;
    /// results are unaffected).
    pub write_failures: u64,
}

impl DiskCacheStats {
    /// Fraction of lookups served from disk (1.0 when there was no
    /// traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Where one record lives: segment slot, byte offset of its length
/// prefix, and total on-disk length (frame included).
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: usize,
    offset: u64,
    len: u32,
}

struct Segment {
    path: PathBuf,
    file: File,
    /// Readable byte length (the open scan may logically truncate past
    /// this).
    len: u64,
}

struct Inner {
    index: HashMap<u64, Loc>,
    segments: Vec<Segment>,
    /// Slot in `segments` this process appends to, once created.
    active: Option<usize>,
    next_id: u64,
}

/// The disk-backed, content-addressed store. Cheap trusting reads by
/// default, checked reads under the `validation` feature; see the module
/// docs for the on-disk layout and crash-safety contract.
///
/// Any number of handles — in one process or several — may share a cache
/// directory: each writer appends only to segments it created itself
/// (`create_new`, taking the next free id), so appends never interleave,
/// and a handle sees records other handles appended after it opened only
/// once reopened. [`DiskCache::compact`] is the exception: it deletes the
/// segments it merged, so run it only while no other handle is open.
/// Within a process, share one [`DiskCache`] through an
/// [`std::sync::Arc`] — all methods take `&self`.
pub struct DiskCache {
    dir: PathBuf,
    telemetry: Collector,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
    torn_tails: AtomicU64,
    skipped_segments: AtomicU64,
    read_errors: AtomicU64,
    write_failures: AtomicU64,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately lock-free: Debug must stay usable from a thread
        // that already holds `inner`.
        f.debug_struct("DiskCache")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl DiskCache {
    /// Opens (creating if needed) the cache at `dir` with no telemetry.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure. Corrupt cache *contents*
    /// are never an error — they are recovered from (see the module docs);
    /// only an unusable directory is.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_with(dir, Collector::noop())
    }

    /// [`DiskCache::open`] with a telemetry collector: the cache then
    /// emits `disk_cache/{hit,miss,append}` traffic counters and
    /// `disk_cache/{torn_tails,skipped_segments,read_errors,write_failures}`
    /// recovery counters, plus one warning log per recovery or I/O event.
    ///
    /// # Errors
    ///
    /// As [`DiskCache::open`].
    pub fn open_with(dir: impl Into<PathBuf>, telemetry: Collector) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;
        let cache = DiskCache {
            dir,
            telemetry,
            inner: Mutex::new(Inner {
                index: HashMap::new(),
                segments: Vec::new(),
                active: None,
                next_id: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            torn_tails: AtomicU64::new(0),
            skipped_segments: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        };
        cache.recover()?;
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of readable records.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("disk cache poisoned").index.len()
    }

    /// Whether the cache holds no readable records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a record with this content hash is present (used by the
    /// checkpoint layer to reference, not duplicate, disk-resident
    /// entries).
    pub fn contains_hash(&self, hash: u64) -> bool {
        self.inner
            .lock()
            .expect("disk cache poisoned")
            .index
            .contains_key(&hash)
    }

    /// A point-in-time snapshot of this cache's counters.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            entries: self.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            torn_tails: self.torn_tails.load(Ordering::Relaxed),
            skipped_segments: self.skipped_segments.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
        }
    }

    fn event(&self, counter: &'static str, stat: &AtomicU64, detail: &str) {
        stat.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.active() {
            self.telemetry.counter(&format!("disk_cache/{counter}"), 1);
            self.telemetry
                .log(Level::Warn, &format!("disk cache: {detail}"));
        }
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Scans every segment in id order, verifying every record, and builds
    /// the hash → location map. The first readable copy of a hash wins.
    fn recover(&self) -> Result<(), String> {
        let mut seg_paths: Vec<(u64, PathBuf)> = Vec::new();
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("read cache dir {}: {e}", self.dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read cache dir: {e}"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".edc"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            {
                seg_paths.push((id, entry.path()));
            }
        }
        seg_paths.sort();

        let mut inner = self.inner.lock().expect("disk cache poisoned");
        inner.next_id = seg_paths.last().map_or(0, |(id, _)| id + 1);
        for (_, path) in seg_paths {
            let file = File::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
            let file_len = file
                .metadata()
                .map_err(|e| format!("stat {}: {e}", path.display()))?
                .len();
            let mut reader = BufReader::with_capacity(SCAN_BUF, &file);
            if !header_ok(&mut reader) {
                self.event(
                    "skipped_segments",
                    &self.skipped_segments,
                    &format!("{}: unknown segment format, skipping", path.display()),
                );
                continue;
            }
            let (records, end, torn) = scan_records(&mut reader, file_len);
            let seg = inner.segments.len();
            for (hash, offset, len) in records {
                inner.index.entry(hash).or_insert(Loc { seg, offset, len });
            }
            if torn {
                self.event(
                    "torn_tails",
                    &self.torn_tails,
                    &format!("{}: truncated torn tail at byte {end}", path.display()),
                );
            }
            inner.segments.push(Segment {
                path,
                file,
                len: end,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookup / append
    // ------------------------------------------------------------------

    /// Looks up the stored outcome for a canonical key built by
    /// [`layer_key`]. The stored key string is always compared against
    /// `key` (hash collisions are harmless); under the `validation`
    /// feature the record checksum is re-verified too. Unreadable records
    /// are evicted and reported as misses.
    pub fn get_outcome(&self, key: &str) -> Option<StoredLayer> {
        let hash = key_hash(key.as_bytes());
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        let Some(loc) = inner.index.get(&hash).copied() else {
            drop(inner);
            self.miss();
            return None;
        };
        let outcome = read_record(&mut inner, loc).and_then(|(stored_hash, stored_key, value)| {
            if stored_hash != hash || stored_key != key.as_bytes() {
                return Err("stored key does not match".into());
            }
            std::str::from_utf8(&value)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str::<StoredLayer>(s).map_err(|e| e.to_string()))
        });
        match outcome {
            Ok(v) => {
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if self.telemetry.active() {
                    self.telemetry.counter("disk_cache/hit", 1);
                }
                Some(v)
            }
            Err(e) => {
                inner.index.remove(&hash);
                drop(inner);
                self.event(
                    "read_errors",
                    &self.read_errors,
                    &format!("evicted unreadable record {hash:016x}: {e}"),
                );
                self.miss();
                None
            }
        }
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.active() {
            self.telemetry.counter("disk_cache/miss", 1);
        }
    }

    /// Appends one outcome under its canonical key. A no-op when the key
    /// is already present (content-addressed: first write wins). Append
    /// failures degrade the cache to pass-through — counted and logged,
    /// never surfaced — because persistence must not be able to fail a
    /// run.
    pub fn put_outcome(&self, key: &str, value: &StoredLayer) {
        let val = match serde_json::to_string(value) {
            Ok(v) => v,
            Err(e) => {
                self.event(
                    "write_failures",
                    &self.write_failures,
                    &format!("serialize record: {e}"),
                );
                return;
            }
        };
        let hash = key_hash(key.as_bytes());
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        if inner.index.contains_key(&hash) {
            return;
        }
        match append_record(&mut inner, &self.dir, hash, key.as_bytes(), val.as_bytes()) {
            Ok(loc) => {
                inner.index.insert(hash, loc);
                drop(inner);
                self.appends.fetch_add(1, Ordering::Relaxed);
                if self.telemetry.active() {
                    self.telemetry.counter("disk_cache/append", 1);
                }
            }
            Err(e) => {
                drop(inner);
                self.event("write_failures", &self.write_failures, &e);
            }
        }
    }

    /// Resolves a checkpoint reference: the full `(mapper fingerprint,
    /// shape, config, outcome)` for a record hash. Does not count toward
    /// hit/miss traffic (references come from snapshots, not lookups);
    /// unreadable records are evicted exactly like [`DiskCache::get_outcome`].
    pub fn resolve_hash(
        &self,
        hash: u64,
    ) -> Option<(String, LayerShape, AcceleratorConfig, StoredLayer)> {
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        let loc = inner.index.get(&hash).copied()?;
        let resolved = read_record(&mut inner, loc).and_then(|(stored_hash, key, value)| {
            if stored_hash != hash {
                return Err("stored hash does not match".into());
            }
            let key: KeyRepr = std::str::from_utf8(&key)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))?;
            let value: StoredLayer = std::str::from_utf8(&value)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))?;
            Ok((key.mapper, key.shape, key.cfg, value))
        });
        match resolved {
            Ok(v) => Some(v),
            Err(e) => {
                inner.index.remove(&hash);
                drop(inner);
                self.event(
                    "read_errors",
                    &self.read_errors,
                    &format!("evicted unreadable record {hash:016x}: {e}"),
                );
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Rewrites every live record into one fresh segment and deletes the
    /// old segments. Records are written in key-hash order, so equal
    /// contents always compact to byte-equal segments. The old segments
    /// are deleted only after the new one is fully written; a crash in
    /// between leaves duplicate records, and the next open keeps the
    /// older copy of each.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure; the cache stays usable on
    /// its old segments when compaction fails.
    pub fn compact(&self) -> Result<(), String> {
        let mut inner = self.inner.lock().expect("disk cache poisoned");
        let mut hashes: Vec<u64> = inner.index.keys().copied().collect();
        hashes.sort_unstable();
        let mut buf = Vec::new();
        let mut index = HashMap::with_capacity(hashes.len());
        for hash in hashes {
            let loc = inner.index[&hash];
            let (stored_hash, key, value) =
                read_record(&mut inner, loc).map_err(|e| format!("compact read: {e}"))?;
            let offset = HEADER_LEN + buf.len() as u64;
            let len = encode_record(&mut buf, stored_hash, &key, &value);
            index.insert(
                stored_hash,
                Loc {
                    seg: 0,
                    offset,
                    len,
                },
            );
        }

        let (path, mut file) = create_segment(&mut inner, &self.dir)?;
        if let Err(e) = file.write_all(&buf) {
            let _ = std::fs::remove_file(&path);
            return Err(format!("write {}: {e}", path.display()));
        }
        let fresh = Segment {
            path,
            file,
            len: HEADER_LEN + buf.len() as u64,
        };
        let old = std::mem::replace(&mut inner.segments, vec![fresh]);
        inner.active = None;
        inner.index = index;
        drop(inner);
        for seg in old {
            let _ = std::fs::remove_file(seg.path);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Free helpers (operate on Inner / files; no self-borrows)
// ---------------------------------------------------------------------------

fn segment_name(id: u64) -> String {
    format!("seg-{id:016x}.edc")
}

/// Reads and validates a segment header.
fn header_ok(reader: &mut impl Read) -> bool {
    let mut header = [0u8; HEADER_LEN as usize];
    reader.read_exact(&mut header).is_ok()
        && &header[..8] == SEGMENT_MAGIC
        && u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) == DISKCACHE_VERSION
}

/// Appends `[len | body | checksum]` to `buf`; body is
/// `[hash | key_len | key | value]`. Returns the total record length.
fn encode_record(buf: &mut Vec<u8>, hash: u64, key: &[u8], value: &[u8]) -> u32 {
    let body_len = MIN_BODY as usize + key.len() + value.len();
    buf.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_start = buf.len();
    buf.extend_from_slice(&hash.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
    let sum = checksum(&buf[body_start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    (FRAME_LEN as usize + body_len) as u32
}

/// Splits a record body into `(hash, key, value)`.
fn decode_body(body: &[u8]) -> Result<(u64, &[u8], &[u8]), String> {
    if body.len() < MIN_BODY as usize {
        return Err(format!("record body too short ({} bytes)", body.len()));
    }
    let hash = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let key_len = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    if MIN_BODY as usize + key_len > body.len() {
        return Err(format!("key length {key_len} exceeds record body"));
    }
    let (key, value) = body[12..].split_at(key_len);
    Ok((hash, key, value))
}

/// Scans the records following a segment header (the reader sits just
/// past it), verifying each checksum. Returns the valid
/// `(hash, offset, total_len)` triples, the byte offset scanning stopped
/// at, and whether it stopped early on a torn or corrupt record.
fn scan_records(reader: &mut impl Read, file_len: u64) -> (Vec<(u64, u64, u32)>, u64, bool) {
    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    let mut frame = Vec::new();
    while offset < file_len {
        let mut len_buf = [0u8; 4];
        if file_len - offset < FRAME_LEN || reader.read_exact(&mut len_buf).is_err() {
            return (records, offset, true);
        }
        let body_len = u32::from_le_bytes(len_buf) as u64;
        if body_len < MIN_BODY as u64 || offset + FRAME_LEN + body_len > file_len {
            return (records, offset, true);
        }
        frame.resize(body_len as usize + 4, 0);
        if reader.read_exact(&mut frame).is_err() {
            return (records, offset, true);
        }
        let (body, sum) = frame.split_at(body_len as usize);
        if checksum(body) != u32::from_le_bytes(sum.try_into().expect("4 bytes")) {
            return (records, offset, true);
        }
        let Ok((hash, _, _)) = decode_body(body) else {
            return (records, offset, true);
        };
        records.push((hash, offset, (FRAME_LEN + body_len) as u32));
        offset += FRAME_LEN + body_len;
    }
    (records, offset, false)
}

/// Reads one record at `loc`, returning `(hash, key, value)`. Trusting
/// reads validate framing and (implicitly) the key; checked reads
/// ([`READ_CHECKS`]) also re-verify the checksum and hash/key agreement.
fn read_record(inner: &mut Inner, loc: Loc) -> Result<(u64, Vec<u8>, Vec<u8>), String> {
    let seg = inner
        .segments
        .get_mut(loc.seg)
        .ok_or("record points at a missing segment")?;
    if loc.offset + loc.len as u64 > seg.len {
        return Err("record extends past the readable segment".into());
    }
    seg.file
        .seek(SeekFrom::Start(loc.offset))
        .map_err(|e| format!("seek: {e}"))?;
    let mut raw = vec![0u8; loc.len as usize];
    seg.file
        .read_exact(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    if raw.len() < FRAME_LEN as usize {
        return Err("record shorter than its frame".into());
    }
    let body_len = u32::from_le_bytes(raw[..4].try_into().expect("4 bytes")) as usize;
    if body_len + FRAME_LEN as usize != raw.len() {
        return Err("record length disagrees with its location".into());
    }
    let body = &raw[4..4 + body_len];
    if READ_CHECKS {
        let stored_sum = u32::from_le_bytes(raw[4 + body_len..].try_into().expect("4 bytes"));
        if checksum(body) != stored_sum {
            return Err("checksum mismatch".into());
        }
    }
    let (hash, key, value) = decode_body(body)?;
    if READ_CHECKS && key_hash(key) != hash {
        return Err("stored hash disagrees with stored key".into());
    }
    Ok((hash, key.to_vec(), value.to_vec()))
}

/// Creates a segment under the next free id and writes its header.
/// Another handle on the same directory may have taken ids since this one
/// opened; `create_new` refuses to reuse them, and the next id is tried.
fn create_segment(inner: &mut Inner, dir: &Path) -> Result<(PathBuf, File), String> {
    loop {
        let path = dir.join(segment_name(inner.next_id));
        inner.next_id += 1;
        let mut file = match OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(format!("create {}: {e}", path.display())),
        };
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&DISKCACHE_VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| format!("write header {}: {e}", path.display()))?;
        return Ok((path, file));
    }
}

/// Appends one record to the active segment, creating a fresh segment on
/// first write.
fn append_record(
    inner: &mut Inner,
    dir: &Path,
    hash: u64,
    key: &[u8],
    value: &[u8],
) -> Result<Loc, String> {
    let seg = match inner.active {
        Some(seg) => seg,
        None => {
            let (path, file) = create_segment(inner, dir)?;
            inner.segments.push(Segment {
                path,
                file,
                len: HEADER_LEN,
            });
            let seg = inner.segments.len() - 1;
            inner.active = Some(seg);
            seg
        }
    };
    let mut buf = Vec::new();
    let len = encode_record(&mut buf, hash, key, value);
    let segment = &mut inner.segments[seg];
    let offset = segment.len;
    segment
        .file
        .write_all(&buf)
        .map_err(|e| format!("append {}: {e}", segment.path.display()))?;
    segment.len += buf.len() as u64;
    Ok(Loc { seg, offset, len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapper::{FixedMapper, MappingOptimizer};
    use std::sync::atomic::AtomicU64 as SeqCounter;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: SeqCounter = SeqCounter::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("edse-diskcache-{}-{tag}-{n}", std::process::id()))
    }

    fn sample_entries(n: usize) -> Vec<(String, StoredLayer)> {
        let cfg = AcceleratorConfig::edge_baseline();
        (0..n)
            .map(|i| {
                let shape = LayerShape::conv(1, 16 + i as u64, 16, 14, 14, 3, 3, 1);
                let mapped = FixedMapper.optimize(&shape, &cfg);
                let key = layer_key("fixed-os", &shape, &cfg).unwrap();
                let value = StoredLayer {
                    mapped,
                    diagnostic: None,
                };
                (key, value)
            })
            .collect()
    }

    #[test]
    fn fnv_hash_is_the_published_constant_function() {
        // Published FNV-1a test vectors: stability across builds is the
        // whole point of hand-rolling the hash.
        assert_eq!(key_hash(b""), 0xcbf29ce484222325);
        assert_eq!(key_hash(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(key_hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn put_get_round_trips_and_counts() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let entries = sample_entries(3);
        for (key, value) in &entries {
            assert_eq!(cache.get_outcome(key), None);
            cache.put_outcome(key, value);
        }
        for (key, value) in &entries {
            assert_eq!(cache.get_outcome(key).as_ref(), Some(value));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.torn_tails, 0);
        // Duplicate put is a no-op.
        cache.put_outcome(&entries[0].0, &entries[0].1);
        assert_eq!(cache.stats().appends, 3);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_a_crash_finds_every_record() {
        let dir = temp_dir("crash");
        let entries = sample_entries(3);
        {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
            std::mem::forget(cache); // crash: the handle is never dropped
        }
        let cache = DiskCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.torn_tails, 0);
        for (key, value) in &entries {
            assert_eq!(cache.get_outcome(key).as_ref(), Some(value));
        }
        assert_eq!(cache.stats().hit_rate(), 1.0);
        drop(cache);
        // Segments are the only state a cache leaves on disk.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(name.starts_with("seg-") && name.ends_with(".edc"), "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn altered_value_is_never_returned() {
        let dir = temp_dir("altered");
        let entries = sample_entries(3);
        {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
        }
        // Change one digit of the first record's stored latency: same
        // length, still valid JSON, but not what the mapper computed.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let field = b"\"latency_cycles\":";
        let at = bytes
            .windows(field.len())
            .position(|w| w == field)
            .expect("stored profile has a latency")
            + field.len();
        bytes[at] = if bytes[at] == b'9' {
            b'8'
        } else {
            bytes[at] + 1
        };
        assert!(bytes[at].is_ascii_digit());
        std::fs::write(&seg, &bytes).unwrap();

        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.get_outcome(&entries[0].0), None, "altered key misses");
        for (key, value) in &entries {
            if let Some(got) = cache.get_outcome(key) {
                assert_eq!(&got, value, "an altered value came back");
            }
        }
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_handles_on_one_directory_lose_no_record() {
        let dir = temp_dir("two-handles");
        let entries = sample_entries(2);
        let a = DiskCache::open(&dir).unwrap();
        let b = DiskCache::open(&dir).unwrap();
        a.put_outcome(&entries[0].0, &entries[0].1);
        b.put_outcome(&entries[1].0, &entries[1].1);
        assert_eq!(a.stats().write_failures, 0);
        assert_eq!(b.stats().write_failures, 0);
        drop((a, b));
        let cache = DiskCache::open(&dir).unwrap();
        for (key, value) in &entries {
            assert_eq!(cache.get_outcome(key).as_ref(), Some(value));
        }
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_surviving_prefix() {
        let dir = temp_dir("torn");
        let entries = sample_entries(3);
        let seg_path = {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
            let inner = cache.inner.lock().unwrap();
            let path = inner.segments[0].path.clone();
            drop(inner);
            std::mem::forget(cache);
            path
        };
        // Kill the append mid-record: chop 5 bytes off the tail.
        let len = std::fs::metadata(&seg_path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg_path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let cache = DiskCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "the torn third record is gone");
        assert_eq!(stats.torn_tails, 1);
        assert_eq!(
            cache.get_outcome(&entries[0].0).as_ref(),
            Some(&entries[0].1)
        );
        assert_eq!(
            cache.get_outcome(&entries[1].0).as_ref(),
            Some(&entries[1].1)
        );
        assert_eq!(cache.get_outcome(&entries[2].0), None);
        // The lost pair can be re-appended (new segment, old one untouched).
        cache.put_outcome(&entries[2].0, &entries[2].1);
        assert_eq!(
            cache.get_outcome(&entries[2].0).as_ref(),
            Some(&entries[2].1)
        );
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_segment_version_is_skipped_not_fatal() {
        let dir = temp_dir("version");
        let entries = sample_entries(2);
        {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
        }
        // Bump the version in every segment header.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "edc") {
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[8..12].copy_from_slice(&(DISKCACHE_VERSION + 1).to_le_bytes());
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let cache = DiskCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "future-format segments are opaque");
        assert!(stats.skipped_segments >= 1);
        // New appends land in a fresh segment with a fresh id.
        cache.put_outcome(&entries[0].0, &entries[0].1);
        assert_eq!(
            cache.get_outcome(&entries[0].0).as_ref(),
            Some(&entries[0].1)
        );
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_segments_and_survives_reopen() {
        let dir = temp_dir("compact");
        let entries = sample_entries(4);
        // Two write sessions → two segments.
        {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries[..2] {
                cache.put_outcome(key, value);
            }
        }
        {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries[2..] {
                cache.put_outcome(key, value);
            }
            assert_eq!(cache.inner.lock().unwrap().segments.len(), 2);
            cache.compact().unwrap();
            assert_eq!(cache.inner.lock().unwrap().segments.len(), 1);
            for (key, value) in &entries {
                assert_eq!(cache.get_outcome(key).as_ref(), Some(value));
            }
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.stats().entries, 4);
        for (key, value) in &entries {
            assert_eq!(cache.get_outcome(key).as_ref(), Some(value));
        }
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resolve_hash_returns_the_typed_key_and_value() {
        let dir = temp_dir("resolve");
        let cache = DiskCache::open(&dir).unwrap();
        let cfg = AcceleratorConfig::edge_baseline();
        let shape = LayerShape::conv(1, 8, 8, 7, 7, 3, 3, 1);
        let key = layer_key("fixed-os", &shape, &cfg).unwrap();
        let value = StoredLayer {
            mapped: FixedMapper.optimize(&shape, &cfg),
            diagnostic: None,
        };
        cache.put_outcome(&key, &value);
        let hash = key_hash(key.as_bytes());
        assert!(cache.contains_hash(hash));
        let (mapper, got_shape, got_cfg, got_value) = cache.resolve_hash(hash).unwrap();
        assert_eq!(mapper, "fixed-os");
        assert_eq!(got_shape, shape);
        assert_eq!(got_cfg, cfg);
        assert_eq!(got_value, value);
        assert!(cache.resolve_hash(hash ^ 1).is_none());
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_reports_traffic_and_recovery() {
        use edse_telemetry::MemorySink;
        let dir = temp_dir("telemetry");
        let entries = sample_entries(2);
        let seg_path = {
            let cache = DiskCache::open(&dir).unwrap();
            for (key, value) in &entries {
                cache.put_outcome(key, value);
            }
            let inner = cache.inner.lock().unwrap();
            inner.segments[0].path.clone()
        };
        let len = std::fs::metadata(&seg_path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg_path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        let collector = Collector::builder().sink(MemorySink::new()).build();
        let cache = DiskCache::open_with(&dir, collector.clone()).unwrap();
        assert_eq!(collector.counter_value("disk_cache/torn_tails"), 1);
        let _ = cache.get_outcome(&entries[0].0);
        let _ = cache.get_outcome("no such key");
        cache.put_outcome(&entries[0].0, &entries[0].1); // dedup: no append
        assert_eq!(collector.counter_value("disk_cache/hit"), 1);
        assert_eq!(collector.counter_value("disk_cache/miss"), 1);
        assert_eq!(collector.counter_value("disk_cache/append"), 0);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn layer_keys_are_canonical_and_distinct() {
        let cfg = AcceleratorConfig::edge_baseline();
        let a = LayerShape::conv(1, 8, 8, 7, 7, 3, 3, 1);
        let b = LayerShape::conv(1, 16, 8, 7, 7, 3, 3, 1);
        assert_eq!(
            layer_key("m", &a, &cfg).unwrap(),
            layer_key("m", &a, &cfg).unwrap()
        );
        assert_ne!(
            layer_key("m", &a, &cfg).unwrap(),
            layer_key("m", &b, &cfg).unwrap()
        );
        assert_ne!(
            layer_key("random-10-seed1", &a, &cfg).unwrap(),
            layer_key("random-10-seed2", &a, &cfg).unwrap()
        );
    }
}
