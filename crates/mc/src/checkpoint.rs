//! Crash-tolerant checkpoints for the exploration engines.
//!
//! A long exhaustive run is the heaviest artifact this crate produces,
//! and before this module a killed process threw all of it away. A
//! checkpoint snapshots everything an engine needs to continue — the
//! 64-shard visited set, the work frontier, the accumulated outcome
//! and deadlock sets, and the durable [`crate::ExplorationStats`]
//! counters — into one versioned, checksummed, zero-dependency file,
//! so that `kill -9` at any checkpoint boundary degrades a run into a
//! *resumable partial certificate* instead of nothing.
//!
//! ## Format
//!
//! One file, `weakord.ckpt`, in the checkpoint directory:
//!
//! ```text
//! [0..6)   magic  b"WOCKPT"
//! [6]      format version (currently 2, [`CKPT_VERSION`])
//! [7]      reserved (0)
//! [8..16)  FNV-1a-64 checksum of every byte from offset 16 on (LE)
//! [16..)   configuration fingerprint (LEB128 varint; see below), then
//!          a tag byte (always 0), then the engine's [`Snapshot`]
//!          ([`Codec`]-encoded)
//! ```
//!
//! The **configuration fingerprint** hashes the program text (its
//! canonical unparse), the machine name, the state cap, and the
//! reduction mode. A resume refuses a checkpoint whose fingerprint
//! does not match the resuming run's configuration — continuing a
//! `wo-def2` exploration with an `sc` machine, a different program, or
//! a different cap would silently produce a certificate for the wrong
//! question. Thread count and wall-clock deadline are deliberately
//! *excluded*: a resumed run may use more workers or a fresh budget
//! without changing what is being proved.
//!
//! Serialization is the in-tree [`Codec`] trait (LEB128 varint
//! integers, length-prefixed sequences): the repo builds offline with
//! no serde, and the binary format round-trips machine states
//! byte-exactly where JSON would be both larger and lossier. Varints
//! matter beyond disk size: the lock-free explorer dedups on these
//! bytes, so every byte saved is saved again in the per-arc encode,
//! fingerprint, and payload-compare, and again in the spill file. A
//! typical litmus state (tiny values, short buffers) shrinks ~5x
//! versus the fixed-width v1 encoding.
//! Writes go to a temp file first and are published with an atomic
//! rename, so a crash *during* a checkpoint leaves the previous one
//! intact.

use std::collections::BTreeSet;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use weakord_core::{Loc, ProcId, Value};
use weakord_progs::{unparse_program, Outcome, Program, ThreadState, N_REGS};

use crate::explore::{nanos, ExplorationStats, Limits, Reduction, TruncationReason};
use crate::fxhash::fingerprint;

/// Current on-disk format version. v2 switched the [`Codec`] integer
/// representation from fixed-width little-endian to LEB128 varints.
pub const CKPT_VERSION: u8 = 2;

const MAGIC: &[u8; 6] = b"WOCKPT";
/// Offset of the first checksummed byte.
const BODY_AT: usize = 16;
/// File name inside the checkpoint directory.
const FILE_NAME: &str = "weakord.ckpt";

/// The IO seam every durable checkpoint goes through.
///
/// The engines never touch the filesystem directly: `save`/`load`
/// route through this trait, so a caller can substitute a faulty or
/// instrumented store (the serve crate's `Vfs` adapters do exactly
/// that) without the engines knowing. The contract is small on
/// purpose — one crash-safe publish, one whole-file read, one
/// best-effort delete — so that every implementation can uphold it
/// under fault injection.
pub trait CkptStore: Send + Sync {
    /// Atomically publish `bytes` at `path`: after `Ok(())`, a crash
    /// at any later instant must surface either these bytes or a
    /// previously published version, never a torn mix.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Read the entire file at `path`.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Remove the file at `path` (used to demote a corrupt checkpoint
    /// to a fresh start).
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
}

/// Default [`CkptStore`]: the real filesystem, with the audited fsync
/// discipline. The temp file is `sync_all`'d *before* the rename (so
/// the rename never publishes bytes that have not hit the platter)
/// and the parent directory is fsynced *after* it (so the rename
/// itself — a directory-entry update — survives a crash too).
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskStore;

impl DiskStore {
    /// Fsync `dir` so a just-renamed directory entry is durable.
    /// Returns `Ok(())` on platforms/filesystems where opening a
    /// directory for sync is not supported.
    pub fn sync_parent_dir(dir: &Path) -> std::io::Result<()> {
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            // Not being able to open the directory (e.g. exotic
            // filesystems) must not fail the write that already
            // landed; the rename is still atomic, just not yet
            // guaranteed durable.
            Err(_) => Ok(()),
        }
    }
}

impl CkptStore for DiskStore {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let parent = path.parent().unwrap_or_else(|| Path::new("."));
        std::fs::create_dir_all(parent)?;
        let tmp = path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        DiskStore::sync_parent_dir(parent)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// How an exploration persists and restores its progress.
#[derive(Clone)]
pub struct CheckpointCfg {
    /// Directory the checkpoint file lives in (created if missing).
    pub dir: PathBuf,
    /// Autosave period, in admitted states; `0` disables periodic
    /// saves (a final checkpoint is still written when the run stops,
    /// so deadline-truncated runs are always resumable).
    pub every: usize,
    /// Test hook: stop the run with
    /// [`TruncationReason::Resumable`] after this many periodic
    /// checkpoints have been written. This is how the kill/resume
    /// equivalence harness injects a deterministic "crash" exactly at
    /// a checkpoint boundary.
    pub abort_after: Option<u32>,
    /// The store checkpoint IO goes through; `None` means the real
    /// filesystem ([`DiskStore`]). Ignored by `Debug`/`PartialEq`:
    /// two configs that checkpoint the same file with the same cadence
    /// describe the same run, whatever disk they land on.
    pub store: Option<Arc<dyn CkptStore>>,
}

impl fmt::Debug for CheckpointCfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointCfg")
            .field("dir", &self.dir)
            .field("every", &self.every)
            .field("abort_after", &self.abort_after)
            .field("store", &self.store.as_ref().map(|_| "<custom>"))
            .finish()
    }
}

impl PartialEq for CheckpointCfg {
    fn eq(&self, other: &Self) -> bool {
        self.dir == other.dir && self.every == other.every && self.abort_after == other.abort_after
    }
}

impl Eq for CheckpointCfg {}

impl CheckpointCfg {
    /// Checkpoint into `dir` every 10 000 admitted states.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointCfg { dir: dir.into(), every: 10_000, abort_after: None, store: None }
    }

    /// Same, with an explicit autosave period.
    pub fn every(dir: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointCfg { dir: dir.into(), every, abort_after: None, store: None }
    }

    /// Path of the checkpoint file.
    pub fn file(&self) -> PathBuf {
        self.dir.join(FILE_NAME)
    }

    /// The store this config's IO goes through.
    pub(crate) fn store(&self) -> Arc<dyn CkptStore> {
        self.store.clone().unwrap_or_else(|| Arc::new(DiskStore))
    }
}

/// Why a checkpoint could not be written or used.
///
/// Every variant renders as a one-line, actionable message — a corrupt
/// or mismatched checkpoint must *never* take down the tool with a
/// panic.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure, with the path and the underlying error.
    Io(PathBuf, std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not one this build reads.
    BadVersion(u8),
    /// The checksum does not cover the bytes on disk: the file is
    /// corrupt (torn write, bit rot, or truncation past the header).
    BadChecksum {
        /// Checksum the header promises.
        expected: u64,
        /// Checksum of the bytes actually on disk.
        found: u64,
    },
    /// The checkpoint was taken under a different machine, program,
    /// state cap, or reduction mode than the run trying to resume it.
    ConfigMismatch {
        /// Fingerprint the resuming run computed for itself.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The payload decoded inconsistently (e.g. ran out of bytes or
    /// contained an out-of-range discriminant) despite a good
    /// checksum.
    Malformed(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(path, e) => write!(f, "checkpoint I/O at {}: {e}", path.display()),
            CheckpointError::BadMagic => {
                write!(f, "not a weakord checkpoint (bad magic); refusing to resume")
            }
            CheckpointError::BadVersion(v) => write!(
                f,
                "checkpoint format version {v} is not supported (this build reads \
                 version {CKPT_VERSION}); re-run without --resume"
            ),
            CheckpointError::BadChecksum { expected, found } => write!(
                f,
                "checkpoint is corrupt: checksum {found:#018x} != recorded {expected:#018x}; \
                 delete it and re-run without --resume"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration: its fingerprint is \
                 {found:#018x}, this run computed {expected:#018x} — machine, program, state \
                 cap, and reduction mode must all match to resume"
            ),
            CheckpointError::Malformed(what) => {
                write!(f, "checkpoint payload is malformed ({what}); delete it and re-run")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit, the format's integrity check: tiny, dependency-free,
/// and plenty for detecting torn writes and bit rot (it is not a MAC).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The configuration a checkpoint is pinned to: everything that
/// changes *what is being explored*, nothing that only changes how
/// fast (threads, deadline, memory budget). Checkpoints of the retired
/// sleep-set engine carry the reduction name `"sleep"`, which no
/// current configuration produces, so they are refused as
/// [`CheckpointError::ConfigMismatch`] before their payload is read.
pub fn config_fingerprint(machine_name: &str, prog: &Program, limits: &Limits) -> u64 {
    let reduction = match limits.reduction {
        Reduction::Full => "full",
        Reduction::Ample => "ample",
    };
    fingerprint(&(machine_name, unparse_program(prog), limits.max_states as u64, reduction))
}

// ---------------------------------------------------------------------
// The in-tree serialization trait.
// ---------------------------------------------------------------------

/// Decode-side failure: the byte stream did not contain a valid value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

/// Cursor over an encoded byte buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError("unexpected end of payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// In-tree binary serialization: LEB128 varint integers, varint
/// length prefixes on sequences. Implemented by everything a
/// checkpoint stores, including every machine's state type.
///
/// The encoding is *canonical*: `encode` is a deterministic function
/// of the value and emits the minimal varint form, so equal values
/// always produce equal bytes and (with the self-delimiting property)
/// distinct values produce distinct byte strings even under
/// concatenation. The exact visited set relies on this — byte
/// equality of encodings *is* state equality.
///
/// `decode` must tolerate arbitrary bytes without panicking — the
/// checksum catches accidental corruption, but the decoder is still
/// the last line of defense and returns [`DecodeError`] instead.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one value back.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

impl Codec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.take(1)?[0])
    }
}

/// Appends `v` in minimal LEB128 form: 7 value bits per byte, high bit
/// set on every byte but the last. Small values — almost everything a
/// machine state holds — cost one byte instead of a fixed width.
fn encode_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn decode_varint(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = r.take(1)?[0];
        let chunk = u64::from(b & 0x7f);
        // The 10th byte holds bit 63 only; anything above overflows.
        if shift == 63 && chunk > 1 {
            return Err(DecodeError("varint overflows u64"));
        }
        v |= chunk << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError("varint too long"));
        }
    }
}

macro_rules! varint_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                encode_varint(u64::from(*self), out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                <$t>::try_from(decode_varint(r)?)
                    .map_err(|_| DecodeError("varint out of range for type"))
            }
        }
    )*};
}

varint_codec!(u16, u32, u64);

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        usize::try_from(u64::decode(r)?).map_err(|_| DecodeError("usize overflow"))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("bool out of range")),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError("Option tag out of range")),
        }
    }
}

fn decode_len(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let n = usize::try_from(u32::decode(r)?).map_err(|_| DecodeError("length overflow"))?;
    // Each element needs at least one byte; a length promising more
    // elements than bytes remain is malformed (and would otherwise let
    // a corrupt length pre-allocate unbounded memory).
    if n > r.remaining() {
        return Err(DecodeError("sequence length exceeds payload"));
    }
    Ok(n)
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (u32::try_from(self.len()).expect("sequence too long for checkpoint")).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = decode_len(r)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Codec for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        self.get().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Value::new(u64::decode(r)?))
    }
}

impl Codec for Loc {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = u32::decode(r)?;
        // `Loc::new` panics on the reserved augment index; a corrupt
        // checkpoint must not.
        if raw == u32::MAX {
            return Err(DecodeError("reserved location index"));
        }
        Ok(Loc::new(raw))
    }
}

impl Codec for ProcId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ProcId::new(u16::decode(r)?))
    }
}

impl Codec for [Value; N_REGS] {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut a = [Value::ZERO; N_REGS];
        for slot in &mut a {
            *slot = Value::decode(r)?;
        }
        Ok(a)
    }
}

impl Codec for ThreadState {
    fn encode(&self, out: &mut Vec<u8>) {
        let (pc, regs, status) = self.snapshot();
        pc.encode(out);
        regs.encode(out);
        status.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let pc = u32::decode(r)?;
        let regs = <[Value; N_REGS]>::decode(r)?;
        let status = u8::decode(r)?;
        ThreadState::restore(pc, regs, status).ok_or(DecodeError("thread status out of range"))
    }
}

impl Codec for Outcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.regs.encode(out);
        self.memory.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Outcome { regs: Vec::decode(r)?, memory: Vec::decode(r)? })
    }
}

impl Codec for TruncationReason {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            TruncationReason::MaxStates => 0,
            TruncationReason::Deadline => 1,
            TruncationReason::WorkerPanic => 2,
            TruncationReason::Resumable => 3,
            TruncationReason::Cancelled => 4,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => TruncationReason::MaxStates,
            1 => TruncationReason::Deadline,
            2 => TruncationReason::WorkerPanic,
            3 => TruncationReason::Resumable,
            4 => TruncationReason::Cancelled,
            _ => return Err(DecodeError("TruncationReason out of range")),
        })
    }
}

// ---------------------------------------------------------------------
// Snapshots: what the engine persists.
// ---------------------------------------------------------------------

/// A quiescent image of the engine: per-shard visited sets plus the
/// merged frontier, the results so far and the run's stats record. The
/// engine takes one only between segments, with every worker joined, so
/// the frontier holds *exactly* the admitted-but-unexpanded states, and
/// re-seeding both sets reproduces the remaining exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot<S> {
    /// Outcomes collected so far.
    pub outcomes: BTreeSet<Outcome>,
    /// Deadlocked states counted so far.
    pub deadlocks: u64,
    /// The run's record when the snapshot was taken, this checkpoint
    /// included in `checkpoints`. Format v2 saves the cumulative
    /// counters a resume adds to (states, dedup hits and probes, pruned
    /// arcs, steals, peak frontier, duration, checkpoints and their
    /// time, worker panics, deadline overshoot) and the truncation
    /// reason, which is informational: a resume clears it and keeps
    /// exploring. The other fields describe one leg and load as zero.
    pub stats: ExplorationStats,
    /// Visited set contents, per shard ([`crate::N_SHARDS`] entries).
    pub shards: Vec<Vec<S>>,
    /// Admitted states not yet expanded.
    pub frontier: Vec<S>,
}

fn encode_outcomes(outcomes: &BTreeSet<Outcome>, out: &mut Vec<u8>) {
    (u32::try_from(outcomes.len()).expect("outcome set too large")).encode(out);
    for o in outcomes {
        o.encode(out);
    }
}

fn decode_outcomes(r: &mut Reader<'_>) -> Result<BTreeSet<Outcome>, DecodeError> {
    let n = decode_len(r)?;
    let mut set = BTreeSet::new();
    for _ in 0..n {
        set.insert(Outcome::decode(r)?);
    }
    Ok(set)
}

/// Writes the part of `stats` a checkpoint keeps (see
/// [`Snapshot::stats`]) in format v2's order.
fn encode_stats(stats: &ExplorationStats, out: &mut Vec<u8>) {
    stats.distinct_states.encode(out);
    stats.dedup_hits.encode(out);
    stats.dedup_probes.encode(out);
    stats.pruned_arcs.encode(out);
    stats.steals.encode(out);
    stats.peak_frontier.encode(out);
    nanos(stats.duration).encode(out);
    stats.checkpoints.encode(out);
    nanos(stats.checkpoint_time).encode(out);
    stats.worker_panics.encode(out);
    nanos(stats.deadline_overshoot).encode(out);
    stats.truncation.encode(out);
}

/// Reads what [`encode_stats`] wrote; every other field is zero.
fn decode_stats(r: &mut Reader<'_>) -> Result<ExplorationStats, DecodeError> {
    // Struct fields evaluate in the order written, which is the format's.
    Ok(ExplorationStats {
        distinct_states: usize::decode(r)?,
        dedup_hits: u64::decode(r)?,
        dedup_probes: u64::decode(r)?,
        pruned_arcs: u64::decode(r)?,
        steals: u64::decode(r)?,
        peak_frontier: usize::decode(r)?,
        duration: Duration::from_nanos(u64::decode(r)?),
        checkpoints: u32::decode(r)?,
        checkpoint_time: Duration::from_nanos(u64::decode(r)?),
        worker_panics: u32::decode(r)?,
        deadline_overshoot: Duration::from_nanos(u64::decode(r)?),
        truncation: Option::decode(r)?,
        ..ExplorationStats::default()
    })
}

/// The payload's leading tag byte. Format v2 once used `1` for the
/// retired sleep-set engine; such files fail their fingerprint check
/// first, and any other non-zero tag is malformed.
const SNAPSHOT_TAG: u8 = 0;

impl<S: Codec> Codec for Snapshot<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(SNAPSHOT_TAG);
        encode_outcomes(&self.outcomes, out);
        self.deadlocks.encode(out);
        encode_stats(&self.stats, out);
        self.shards.encode(out);
        self.frontier.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        if u8::decode(r)? != SNAPSHOT_TAG {
            return Err(DecodeError("snapshot tag out of range"));
        }
        Ok(Snapshot {
            outcomes: decode_outcomes(r)?,
            deadlocks: u64::decode(r)?,
            stats: decode_stats(r)?,
            shards: Vec::decode(r)?,
            frontier: Vec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// File I/O.
// ---------------------------------------------------------------------

/// Serializes `snap` and atomically publishes it at `cfg.file()`
/// through the config's [`CkptStore`] (temp file + fsync + rename +
/// parent-directory fsync on the default [`DiskStore`]: a crash
/// mid-write leaves the previous checkpoint intact, and a crash
/// after the write cannot lose it). Creates the directory if needed.
pub fn save<S: Codec>(
    cfg: &CheckpointCfg,
    config_fp: u64,
    snap: &Snapshot<S>,
) -> Result<(), CheckpointError> {
    let mut bytes = Vec::with_capacity(4096);
    bytes.extend_from_slice(MAGIC);
    bytes.push(CKPT_VERSION);
    bytes.push(0); // reserved
    bytes.extend_from_slice(&[0u8; 8]); // checksum backpatched below
    config_fp.encode(&mut bytes);
    snap.encode(&mut bytes);
    let sum = fnv1a(&bytes[BODY_AT..]);
    bytes[8..16].copy_from_slice(&sum.to_le_bytes());

    let path = cfg.file();
    cfg.store().write_atomic(&path, &bytes).map_err(|e| CheckpointError::Io(path, e))
}

/// Loads, verifies (magic, version, checksum, configuration
/// fingerprint), and decodes the checkpoint at `cfg.file()`.
pub fn load<S: Codec>(cfg: &CheckpointCfg, config_fp: u64) -> Result<Snapshot<S>, CheckpointError> {
    let path = cfg.file();
    let bytes = cfg.store().read(&path).map_err(|e| CheckpointError::Io(path.clone(), e))?;
    let mut r = verify_header(&bytes)?;
    let stored_fp = u64::decode(&mut r).map_err(|e| CheckpointError::Malformed(e.0))?;
    if stored_fp != config_fp {
        return Err(CheckpointError::ConfigMismatch { expected: config_fp, found: stored_fp });
    }
    Snapshot::decode(&mut r).map_err(|e| CheckpointError::Malformed(e.0))
}

/// Checks magic, version, and checksum; on success returns a reader
/// positioned at the checksummed body (fingerprint first).
fn verify_header(bytes: &[u8]) -> Result<Reader<'_>, CheckpointError> {
    if bytes.len() < BODY_AT || &bytes[..6] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes[6] != CKPT_VERSION {
        return Err(CheckpointError::BadVersion(bytes[6]));
    }
    let expected = u64::from_le_bytes(bytes[8..16].try_into().expect("sized header"));
    let found = fnv1a(&bytes[BODY_AT..]);
    if expected != found {
        return Err(CheckpointError::BadChecksum { expected, found });
    }
    Ok(Reader::new(&bytes[BODY_AT..]))
}

/// Validates a checkpoint image without decoding its engine payload:
/// magic, version, whole-body checksum. This is what a scrub pass
/// wants — "is this file intact?" — independent of which run's
/// fingerprint it belongs to.
pub fn verify_bytes(bytes: &[u8]) -> Result<(), CheckpointError> {
    verify_header(bytes).map(|_| ())
}

/// [`verify_bytes`] for a file on disk.
pub fn verify_file(path: &Path) -> Result<(), CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io(path.to_path_buf(), e))?;
    verify_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        42u8.encode(&mut buf);
        7u16.encode(&mut buf);
        9u32.encode(&mut buf);
        u64::MAX.encode(&mut buf);
        true.encode(&mut buf);
        Some(3u32).encode(&mut buf);
        Option::<u32>::None.encode(&mut buf);
        vec![1u64, 2, 3].encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(u8::decode(&mut r).unwrap(), 42);
        assert_eq!(u16::decode(&mut r).unwrap(), 7);
        assert_eq!(u32::decode(&mut r).unwrap(), 9);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(Option::<u32>::decode(&mut r).unwrap(), Some(3));
        assert_eq!(Option::<u32>::decode(&mut r).unwrap(), None);
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn mismatch_errors_name_both_sides() {
        let msg =
            CheckpointError::ConfigMismatch { expected: 0xdead_beef, found: 0xcafe }.to_string();
        assert!(msg.contains("0x00000000deadbeef"), "{msg}");
        assert!(msg.contains("0x000000000000cafe"), "{msg}");
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        vec![1u64, 2, 3].encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Vec::<u64>::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // A 4 GiB length with a 4-byte payload must not allocate.
        let mut buf = Vec::new();
        u32::MAX.encode(&mut buf);
        buf.extend_from_slice(&[0; 4]);
        assert!(Vec::<u8>::decode(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_pins_machine_program_cap_and_reduction() {
        let lit = weakord_progs::litmus::fig1_dekker();
        let base = Limits::default();
        let fp = config_fingerprint("sc", &lit.program, &base);
        assert_eq!(fp, config_fingerprint("sc", &lit.program, &base));
        assert_ne!(fp, config_fingerprint("wo-def2", &lit.program, &base));
        assert_ne!(fp, config_fingerprint("sc", &lit.program, &Limits { max_states: 17, ..base }));
        assert_ne!(
            fp,
            config_fingerprint("sc", &lit.program, &Limits { reduction: Reduction::Ample, ..base })
        );
        // Threads and deadline are resources, not semantics.
        assert_eq!(fp, config_fingerprint("sc", &lit.program, &Limits { threads: 9, ..base }));
    }

    /// Fingerprints are serve job ids, result-cache keys and checkpoint
    /// pins, so they must not drift between releases. The values were
    /// measured before the sleep-set engine became a reduction mode;
    /// explicit limits keep `WEAKORD_MAX_STATES` out of the picture.
    #[test]
    fn fingerprints_are_stable_across_releases() {
        let lit = weakord_progs::litmus::fig1_dekker();
        let fp = |reduction| {
            let limits = Limits {
                max_states: 100_000,
                threads: 1,
                deadline: None,
                reduction,
                memory_budget: None,
            };
            config_fingerprint("wo-def2", &lit.program, &limits)
        };
        assert_eq!(fp(Reduction::Full), 0x3a72_0bf8_e2df_70f3);
        assert_eq!(fp(Reduction::Ample), 0x3fb9_6954_4e3e_e000);
    }

    /// The snapshot encoding is format v2: its bytes must not drift
    /// while `CKPT_VERSION` stays 2, or checkpoints and serve state dirs
    /// written by one build stop resuming on the next. Every saved
    /// counter holds a distinct non-zero value, so a reordered or
    /// dropped field changes the bytes. The hex is what the encoder
    /// wrote before its counter block became an `ExplorationStats`.
    #[test]
    fn snapshot_bytes_are_pinned_to_format_v2() {
        let outcome = |r: u64, m: u64| Outcome {
            regs: vec![[Value::new(r); N_REGS]],
            memory: vec![Value::new(m), Value::ZERO],
        };
        let snap = Snapshot::<u64> {
            outcomes: [outcome(1, 2), outcome(0, 300)].into_iter().collect(),
            deadlocks: 3,
            stats: ExplorationStats {
                distinct_states: 11,
                dedup_hits: 12,
                dedup_probes: 130,
                pruned_arcs: 14,
                steals: 15,
                peak_frontier: 16,
                duration: Duration::from_nanos(1_700_000_017),
                checkpoints: 18,
                checkpoint_time: Duration::from_nanos(190_019),
                worker_panics: 20,
                deadline_overshoot: Duration::from_nanos(21),
                truncation: Some(TruncationReason::Deadline),
                ..ExplorationStats::default()
            },
            shards: vec![vec![1, 2], vec![300]],
            frontier: vec![2, 300],
        };
        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "000201000000000000000002ac0200010101010101010101020200030b0c82010e0f1091e2cfaa0612c3cc0b141501010202010201ac020202ac02"
        );
        assert_eq!(Snapshot::<u64>::decode(&mut Reader::new(&bytes)), Ok(snap));
    }

    /// A checkpoint of the retired sleep-set engine (payload tag 1,
    /// fingerprinted with the reduction name `"sleep"`) is refused by
    /// its fingerprint before the payload is read; a tag-1 payload
    /// under a matching fingerprint is malformed, never a panic.
    #[test]
    fn retired_sleep_set_checkpoints_are_refused() {
        let prog = weakord_progs::litmus::iriw().program;
        let limits = Limits::reduced();
        let text = unparse_program(&prog);
        let sleep_fp = fingerprint(&("wo-def2", text, limits.max_states as u64, "sleep"));
        let ample_fp = config_fingerprint("wo-def2", &prog, &limits);
        assert_ne!(sleep_fp, ample_fp);
        let dir = std::env::temp_dir().join(format!("weakord-ckpt-tag-{}", std::process::id()));
        let cfg = CheckpointCfg::every(&dir, 0);
        for fp in [sleep_fp, ample_fp] {
            let snap = Snapshot::<u64> {
                outcomes: BTreeSet::new(),
                deadlocks: 0,
                stats: ExplorationStats::default(),
                shards: Vec::new(),
                frontier: Vec::new(),
            };
            save(&cfg, fp, &snap).expect("saves");
            let mut bytes = std::fs::read(cfg.file()).expect("written");
            let mut fp_bytes = Vec::new();
            fp.encode(&mut fp_bytes);
            bytes[BODY_AT + fp_bytes.len()] = 1;
            let sum = fnv1a(&bytes[BODY_AT..]);
            bytes[8..16].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(cfg.file(), &bytes).expect("rewritten");
            match load::<u64>(&cfg, ample_fp) {
                Err(CheckpointError::ConfigMismatch { found, .. }) if fp == sleep_fp => {
                    assert_eq!(found, sleep_fp);
                }
                Err(CheckpointError::Malformed(_)) if fp == ample_fp => {}
                other => panic!("unexpected load result {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
