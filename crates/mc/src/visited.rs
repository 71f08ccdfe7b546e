//! The lock-free visited set behind the parallel explorer.
//!
//! This module replaces the old 64-mutex-shard `HashSet` design with a
//! byte-oriented, mostly lock-free structure sized for state spaces
//! bounded by disk rather than RAM:
//!
//! * **Admission is keyed on encoded bytes.** A state is identified by
//!   its [`crate::checkpoint::Codec`] encoding. The codec round-trips
//!   every machine state (`decode(encode(s)) == s`, pinned by the
//!   checkpoint tests), so the encoding is injective: equal bytes iff
//!   equal states, and byte comparison keeps admission *semantically
//!   exact* — the fingerprint table is only an index, never the
//!   authority.
//! * **An open-addressing CAS-free fingerprint table per shard.** Each
//!   shard (top 6 bits of the fingerprint) holds a directory of
//!   geometrically growing levels of atomic `u64` slots. A slot packs
//!   `tag(32) | entry_index+1(32)`; probing is linear from
//!   `fp & (slots-1)`. The *read path is lock-free*: a dedup probe —
//!   the hot operation once exploration warms up — takes no lock, only
//!   `Acquire` loads. Insertions (one per distinct state, ever)
//!   serialize on a small per-shard mutex, which is what makes "exactly
//!   one admission per state" trivially auditable; slots are published
//!   with `Release` stores so concurrent readers observe fully written
//!   entries.
//! * **Growth by migration.** When the active level passes 75% load the
//!   inserter (already exclusive) allocates the next level (8× the
//!   slots), re-homes every entry into it from the exact store, and
//!   publishes it with a `Release` store of `active`. Readers that
//!   raced ahead keep probing the old level — a stale *hit* is still a
//!   genuine hit (entries are never removed), and a stale *miss* is
//!   revalidated under the insert lock before anything is admitted.
//! * **Nothing allocated before it is needed.** A fresh shard holds no
//!   level and no slab segment: its first insert builds a 32-slot level
//!   and a 16-entry segment, and both grow from there by the rules
//!   above, so a run of a few dozen states costs a few dozen states'
//!   memory while a big run grows through the 256-, 2,048- and
//!   16,384-slot levels. A probe of a shard with no level is a miss.
//! * **An exact store of encoded states, spillable to disk.** Entry
//!   payloads live in per-shard append-only slabs (lock-free reads via
//!   per-entry `OnceLock`). With a memory budget configured, payloads
//!   past the budget append to an anonymous temp file in `WOCKPT`
//!   style — each record is `[fnv1a(bytes) u64][bytes]`, verified on
//!   every read — so capacity is bounded by disk, not RAM, while the
//!   in-RAM index costs ~50–100 bytes per state.
//!
//! The explorer's frontier stores the `u64` ids this module hands out
//! (shard ‖ entry index) instead of boxed state clones; states are
//! decoded back out of the exact store only when expanded.

use std::fs::File;
#[cfg(not(unix))]
use std::io::{Read as _, Seek as _, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::checkpoint::fnv1a;

/// Number of visited-set shards. A power of two; the shard of a state
/// is the top `log2(N_SHARDS)` bits of its fingerprint.
pub const N_SHARDS: usize = 64;

/// Slots in a shard's first level, built on its first insert; each
/// further level has 8× more (256, 2,048, 16,384, …).
const LEVEL0_SLOTS: usize = 32;
/// Upper bound on levels per shard (level 16 alone holds 2^53 slots —
/// the id space runs out long before the directory does).
const MAX_LEVELS: usize = 17;
/// Entries in a shard's first slab segment, allocated on its first
/// insert; each further segment doubles.
const SEG0: usize = 16;
/// Slab segments per shard (segment 28 already ends past the 32-bit
/// entry index).
const SEGS: usize = 29;
/// Approximate in-RAM bookkeeping cost of one entry (slab record, slot,
/// and allocator overhead), counted against the memory budget alongside
/// the payload bytes.
const ENTRY_OVERHEAD: usize = 64;

/// The verdict of probing one encoded state against the visited set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// New state, admitted under the cap; the id names it forever.
    New(u64),
    /// Already admitted (possibly by a concurrent worker), under this
    /// id.
    Seen(u64),
    /// New state, but the cap is full: the exploration is truncated.
    Capped,
}

/// A worker-local batch of probe counters, accumulated by
/// [`VisitedSet::admit_batched`] and drained into the set's shared
/// counters by [`VisitedSet::flush_telemetry`]. Plain fields: updating
/// them costs nothing and touches no cache line another worker reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeTelemetry {
    /// Admission probes issued.
    pub probes: u64,
    /// Probes that found their state already admitted.
    pub hits: u64,
    /// Table slots walked across all probes.
    pub steps: u64,
}

/// Snapshot of the set's diagnostic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct VisitedCounters {
    /// Probes that found their state already admitted.
    pub dedup_hits: u64,
    /// Total [`VisitedSet::admit`] probes.
    pub dedup_probes: u64,
    /// Total slot inspections across all probes (probe length =
    /// `probe_steps / dedup_probes`).
    pub probe_steps: u64,
    /// Entries whose payload lives in the spill file.
    pub spilled_states: u64,
    /// Bytes appended to the spill file.
    pub spill_bytes: u64,
    /// In-RAM payload bytes (encoded states kept in the slabs, plus a
    /// fixed bookkeeping estimate per entry).
    pub mem_bytes: u64,
    /// Bytes held by the fingerprint levels and slab segment spines
    /// built so far (0 before the first admission).
    pub table_bytes: u64,
    /// Total slots across every shard's *active* level (occupancy =
    /// `admitted / table_capacity`).
    pub table_capacity: u64,
}

/// One level of a shard's slot directory.
struct Level {
    /// `0` = empty; otherwise `tag(fp high 32) << 32 | entry_idx + 1`.
    slots: Box<[AtomicU64]>,
}

impl Level {
    fn new(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        Level { slots: (0..cap).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Writes `idx` under `fp` into the first free slot of its probe
    /// chain. Caller must be the exclusive inserter and have verified
    /// `fp`'s state is not already present in this level.
    fn place(&self, fp: u64, idx: u32) {
        let mask = self.slots.len() - 1;
        let mut i = (fp as usize) & mask;
        loop {
            if self.slots[i].load(Ordering::Relaxed) == 0 {
                self.slots[i].store(pack_slot(fp, idx), Ordering::Release);
                return;
            }
            i = (i + 1) & mask;
        }
    }
}

fn pack_slot(fp: u64, idx: u32) -> u64 {
    (fp >> 32) << 32 | u64::from(idx) + 1
}

/// Where one entry's payload lives.
enum Payload {
    /// Encoded bytes, in RAM.
    Ram(Box<[u8]>),
    /// `[fnv1a(bytes) u64][bytes]` record at `off` in the spill file;
    /// `len` is the payload length (record is `len + 8`).
    Disk { off: u64, len: u32 },
}

/// One admitted state: its fingerprint (kept in RAM so growth never
/// rereads the disk) and its payload.
struct Entry {
    fp: u64,
    payload: Payload,
}

/// One shard: a level directory indexing an append-only slab. Both
/// start empty; the shard's first insert builds level 0 and segment 0.
struct Shard {
    levels: [OnceLock<Level>; MAX_LEVELS],
    /// Index of the level inserts and (fresh) probes use. Stored with
    /// `Release` after the level is fully built and migrated; level 0
    /// may not be built yet.
    active: AtomicUsize,
    /// Slab segments; segment `k` holds `SEG0 << k` entries.
    segs: [OnceLock<Box<[OnceLock<Entry>]>>; SEGS],
    /// Entries admitted to this shard (== slab length).
    count: AtomicUsize,
    /// Serializes inserts and growth; never taken by the probe path.
    insert: Mutex<()>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            levels: std::array::from_fn(|_| OnceLock::new()),
            active: AtomicUsize::new(0),
            segs: std::array::from_fn(|_| OnceLock::new()),
            count: AtomicUsize::new(0),
            insert: Mutex::new(()),
        }
    }

    fn entry(&self, idx: u32) -> &Entry {
        let (seg, within) = seg_of(idx as usize);
        self.segs[seg].get().expect("entry segment exists")[within].get().expect("entry published")
    }
}

/// Maps a slab index to its (segment, offset-within-segment).
fn seg_of(idx: usize) -> (usize, usize) {
    let n = idx / SEG0 + 1;
    let seg = (usize::BITS - 1 - n.leading_zeros()) as usize;
    let base = SEG0 * ((1 << seg) - 1);
    (seg, idx - base)
}

/// Platform face of the spill file: concurrent positioned reads and
/// writes.
#[cfg(unix)]
struct SpillIo {
    file: File,
}

#[cfg(unix)]
impl SpillIo {
    fn write_all_at(&self, buf: &[u8], off: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(&self.file, buf, off)
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, off)
    }
}

/// Fallback for non-unix hosts: positioned access serialized behind a
/// mutex (correct, slower; the unix path is the measured one).
#[cfg(not(unix))]
struct SpillIo {
    file: Mutex<File>,
    path: std::path::PathBuf,
}

#[cfg(not(unix))]
impl SpillIo {
    fn write_all_at(&self, buf: &[u8], off: u64) -> std::io::Result<()> {
        let mut f = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f.seek(std::io::SeekFrom::Start(off))?;
        f.write_all(buf)
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> std::io::Result<()> {
        let mut f = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f.seek(std::io::SeekFrom::Start(off))?;
        f.read_exact(buf)
    }
}

#[cfg(not(unix))]
impl Drop for SpillIo {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The disk half of the exact store: an anonymous append-only temp
/// file of checksummed records.
struct Spill {
    io: SpillIo,
    /// Next free offset (reserved with `fetch_add`, so concurrent
    /// shards append to disjoint ranges).
    tail: AtomicU64,
}

/// Distinguishes concurrently created spill files within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl Spill {
    fn create() -> std::io::Result<Spill> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("weakord-spill-{}-{seq}.tmp", std::process::id()));
        let file = File::options().read(true).write(true).create_new(true).open(&path)?;
        // On unix the name is removed immediately: the kernel reclaims
        // the space when the last handle closes, however the process
        // exits. Elsewhere the Drop impl removes it.
        #[cfg(unix)]
        let io = {
            let _ = std::fs::remove_file(&path);
            SpillIo { file }
        };
        #[cfg(not(unix))]
        let io = SpillIo { file: Mutex::new(file), path };
        Ok(Spill { io, tail: AtomicU64::new(0) })
    }

    /// Appends one `[fnv1a][bytes]` record; returns its offset.
    fn append(&self, bytes: &[u8]) -> u64 {
        let mut rec = Vec::with_capacity(8 + bytes.len());
        rec.extend_from_slice(&fnv1a(bytes).to_le_bytes());
        rec.extend_from_slice(bytes);
        let off = self.tail.fetch_add(rec.len() as u64, Ordering::Relaxed);
        self.io.write_all_at(&rec, off).expect("visited-set spill write failed");
        off
    }

    /// Reads the record at `off` back into `out` (cleared), verifying
    /// its checksum.
    fn read(&self, off: u64, len: u32, out: &mut Vec<u8>) {
        out.clear();
        out.resize(8 + len as usize, 0);
        self.io.read_exact_at(out, off).expect("visited-set spill read failed");
        let sum = u64::from_le_bytes(out[..8].try_into().expect("8-byte prefix"));
        out.drain(..8);
        assert_eq!(sum, fnv1a(out), "visited-set spill record corrupt at offset {off}");
    }
}

/// The visited set: an exact, deduplicating store of encoded states,
/// sharded [`N_SHARDS`] ways, with a lock-free probe path and an
/// optional disk spill. See the module docs for the design.
pub struct VisitedSet {
    shards: Vec<Shard>,
    /// Distinct states admitted (the cap ledger: incremented only when
    /// a slot under `max_states` is reserved).
    admitted: AtomicUsize,
    dedup_hits: AtomicU64,
    dedup_probes: AtomicU64,
    probe_steps: AtomicU64,
    spilled_states: AtomicU64,
    mem_bytes: AtomicUsize,
    table_bytes: AtomicUsize,
    /// RAM ceiling for payloads + index, in bytes; admissions past it
    /// spill payloads to disk.
    budget: Option<usize>,
    spill: OnceLock<Spill>,
}

/// The shard of a fingerprint: its top `log2(N_SHARDS)` bits.
fn shard_of(fp: u64) -> usize {
    debug_assert!(N_SHARDS.is_power_of_two());
    (fp >> (64 - N_SHARDS.trailing_zeros())) as usize
}

fn pack_id(shard: usize, idx: u32) -> u64 {
    (shard as u64) << 32 | u64::from(idx)
}

fn unpack_id(id: u64) -> (usize, u32) {
    ((id >> 32) as usize, id as u32)
}

impl VisitedSet {
    /// An empty set. With a `memory_budget`, encoded payloads past the
    /// budget (payload bytes + index overhead, in bytes) go to an
    /// anonymous temp file instead of RAM.
    pub fn new(memory_budget: Option<usize>) -> Self {
        VisitedSet {
            shards: (0..N_SHARDS).map(|_| Shard::new()).collect(),
            admitted: AtomicUsize::new(0),
            dedup_hits: AtomicU64::new(0),
            dedup_probes: AtomicU64::new(0),
            probe_steps: AtomicU64::new(0),
            spilled_states: AtomicU64::new(0),
            mem_bytes: AtomicUsize::new(0),
            table_bytes: AtomicUsize::new(0),
            budget: memory_budget,
            spill: OnceLock::new(),
        }
    }

    /// Distinct states admitted.
    pub fn len(&self) -> usize {
        self.admitted.load(Ordering::Relaxed)
    }

    /// `true` before the first admission.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probes `bytes` (an encoded state with fingerprint `fp`, normally
    /// [`crate::fxhash::hash_bytes`] of the bytes) and admits it under
    /// the `max_states` cap. Counts toward the dedup telemetry.
    ///
    /// Concurrent-safe: exactly one caller is told [`Admit::New`] for
    /// any given byte string, everyone else [`Admit::Seen`] with the
    /// same id.
    pub fn admit(&self, fp: u64, bytes: &[u8], max_states: usize) -> Admit {
        let mut tel = ProbeTelemetry::default();
        let r = self.admit_batched(fp, bytes, max_states, &mut tel);
        self.flush_telemetry(&mut tel);
        r
    }

    /// [`VisitedSet::admit`] with caller-side telemetry: probe counts
    /// accumulate in `tel` (plain fields, no shared cache lines) and
    /// reach the set's counters only at [`VisitedSet::flush_telemetry`].
    /// The per-arc hot path of a parallel explorer must use this form —
    /// three shared `fetch_add`s per arc ping-pong a cache line between
    /// every worker.
    pub fn admit_batched(
        &self,
        fp: u64,
        bytes: &[u8],
        max_states: usize,
        tel: &mut ProbeTelemetry,
    ) -> Admit {
        tel.probes += 1;
        match self.admit_inner(fp, bytes, Some(max_states), &mut tel.steps) {
            hit @ Admit::Seen(_) => {
                tel.hits += 1;
                hit
            }
            other => other,
        }
    }

    /// Adds `tel` to the shared counters and resets it. Call when a
    /// worker retires (checkpoint snapshots and the result read the
    /// shared counters once every worker has joined) and before a
    /// progress publication reads them.
    pub fn flush_telemetry(&self, tel: &mut ProbeTelemetry) {
        if tel.probes != 0 || tel.steps != 0 {
            self.dedup_probes.fetch_add(tel.probes, Ordering::Relaxed);
            self.dedup_hits.fetch_add(tel.hits, Ordering::Relaxed);
            self.probe_steps.fetch_add(tel.steps, Ordering::Relaxed);
        }
        *tel = ProbeTelemetry::default();
    }

    /// Admits `bytes` with no cap and no dedup telemetry; returns its
    /// id and whether it was new. Used to seed roots and rebuild from
    /// checkpoints, mirroring the old engine's unconditional root
    /// insert.
    pub fn insert(&self, fp: u64, bytes: &[u8]) -> (u64, bool) {
        let mut steps = 0;
        let r = match self.admit_inner(fp, bytes, None, &mut steps) {
            Admit::New(id) => (id, true),
            Admit::Seen(id) => (id, false),
            Admit::Capped => unreachable!("uncapped insert"),
        };
        self.probe_steps.fetch_add(steps, Ordering::Relaxed);
        r
    }

    fn admit_inner(&self, fp: u64, bytes: &[u8], cap: Option<usize>, steps: &mut u64) -> Admit {
        let shard = shard_of(fp);
        let sh = &self.shards[shard];
        // Lock-free fast path: the state is usually already admitted.
        if let Some(idx) = self.probe(sh, fp, bytes, steps) {
            return Admit::Seen(pack_id(shard, idx));
        }
        let guard = sh.insert.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Revalidate: the optimistic probe may have raced a concurrent
        // insert (or probed a level that grew underneath it).
        if let Some(idx) = self.probe(sh, fp, bytes, steps) {
            return Admit::Seen(pack_id(shard, idx));
        }
        // Stage the payload before reserving anything: a spill I/O
        // panic here leaves the set untouched.
        let payload = self.store_payload(bytes);
        if let Some(max) = cap {
            if self.admitted.fetch_add(1, Ordering::Relaxed) >= max {
                self.admitted.fetch_sub(1, Ordering::Relaxed);
                return Admit::Capped;
            }
        } else {
            self.admitted.fetch_add(1, Ordering::Relaxed);
        }
        let idx = self.publish(sh, fp, payload);
        drop(guard);
        Admit::New(pack_id(shard, idx))
    }

    /// Probes without admitting or counting. Returns the id if the
    /// state was ever admitted.
    pub fn find(&self, fp: u64, bytes: &[u8]) -> Option<u64> {
        let shard = shard_of(fp);
        let mut steps = 0;
        let found = self.probe(&self.shards[shard], fp, bytes, &mut steps);
        self.probe_steps.fetch_add(steps, Ordering::Relaxed);
        found.map(|idx| pack_id(shard, idx))
    }

    /// The lock-free probe: scan the active level's chain, compare
    /// payload bytes on tag matches. `None` here is only authoritative
    /// under the shard's insert lock. Slots walked accumulate into
    /// `steps` — the *caller* owns flushing them to the shared counter;
    /// a shard with no level yet reads as one empty slot.
    fn probe(&self, sh: &Shard, fp: u64, bytes: &[u8], steps: &mut u64) -> Option<u32> {
        let Some(level) = sh.levels[sh.active.load(Ordering::Acquire)].get() else {
            *steps += 1;
            return None;
        };
        let mask = level.slots.len() - 1;
        let tag = (fp >> 32) as u32;
        let mut i = (fp as usize) & mask;
        loop {
            *steps += 1;
            let v = level.slots[i].load(Ordering::Acquire);
            if v == 0 {
                return None;
            }
            if (v >> 32) as u32 == tag {
                let idx = (v as u32).wrapping_sub(1);
                if self.entry_matches(sh, idx, fp, bytes) {
                    return Some(idx);
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn entry_matches(&self, sh: &Shard, idx: u32, fp: u64, bytes: &[u8]) -> bool {
        let e = sh.entry(idx);
        if e.fp != fp {
            return false;
        }
        match &e.payload {
            Payload::Ram(b) => &b[..] == bytes,
            Payload::Disk { off, len } => {
                if *len as usize != bytes.len() {
                    return false;
                }
                let mut buf = Vec::new();
                self.spill.get().expect("disk entry implies spill").read(*off, *len, &mut buf);
                buf == bytes
            }
        }
    }

    /// Decides RAM vs disk for one payload and stages it.
    fn store_payload(&self, bytes: &[u8]) -> Payload {
        let need = bytes.len() + ENTRY_OVERHEAD;
        let resident =
            self.mem_bytes.load(Ordering::Relaxed) + self.table_bytes.load(Ordering::Relaxed);
        if self.budget.is_some_and(|b| resident + need > b) {
            let spill = self
                .spill
                .get_or_init(|| Spill::create().expect("visited-set spill file creation failed"));
            let off = spill.append(bytes);
            self.spilled_states.fetch_add(1, Ordering::Relaxed);
            let len = u32::try_from(bytes.len()).expect("encoded state fits u32");
            return Payload::Disk { off, len };
        }
        self.mem_bytes.fetch_add(need, Ordering::Relaxed);
        Payload::Ram(bytes.into())
    }

    /// Appends the staged entry to the shard's slab and publishes its
    /// slot. Caller holds the shard's insert lock.
    fn publish(&self, sh: &Shard, fp: u64, payload: Payload) -> u32 {
        let count = sh.count.load(Ordering::Relaxed);
        let idx = u32::try_from(count).expect("shard entry index fits u32");
        assert!(idx < u32::MAX, "shard slab full"); // idx+1 must fit the slot's low half
        if count == 0 {
            self.table_bytes.fetch_add(LEVEL0_SLOTS * 8, Ordering::Relaxed);
            sh.levels[0].set(Level::new(LEVEL0_SLOTS)).ok().expect("level 0 built once");
        }
        let (seg, within) = seg_of(count);
        if sh.segs[seg].get().is_none() {
            let len = SEG0 << seg;
            let fresh: Box<[OnceLock<Entry>]> = (0..len).map(|_| OnceLock::new()).collect();
            self.table_bytes
                .fetch_add(len * std::mem::size_of::<OnceLock<Entry>>(), Ordering::Relaxed);
            sh.segs[seg].set(fresh).ok().expect("segment set once");
        }
        sh.segs[seg].get().expect("segment just ensured")[within]
            .set(Entry { fp, payload })
            .ok()
            .expect("entry set once");
        // Grow (migrating every entry, this one included) when the
        // active level would pass 75% load.
        let li = sh.active.load(Ordering::Relaxed);
        let slots = sh.levels[li].get().expect("active level").slots.len();
        if count + 1 > slots - slots / 4 {
            self.grow(sh, li, count + 1);
        } else {
            sh.levels[li].get().expect("active level").place(fp, idx);
        }
        // Publish the slab length last: anyone iterating `0..count`
        // (snapshots at quiescence) sees only fully written entries.
        sh.count.store(count + 1, Ordering::Release);
        idx
    }

    /// Builds the next level and re-homes every entry into it. The old
    /// level stays readable forever, so probes that already loaded it
    /// race safely (misses are revalidated under the insert lock).
    fn grow(&self, sh: &Shard, li: usize, count: usize) {
        let next = li + 1;
        assert!(next < MAX_LEVELS, "visited-set shard exceeded the level directory");
        let cap = LEVEL0_SLOTS << (3 * next);
        let level = Level::new(cap);
        self.table_bytes.fetch_add(cap * 8, Ordering::Relaxed);
        for idx in 0..count {
            let idx = idx as u32;
            level.place(sh.entry(idx).fp, idx);
        }
        sh.levels[next].set(level).ok().expect("level built once");
        sh.active.store(next, Ordering::Release);
    }

    /// Runs `f` over the encoded bytes of the state `id` names.
    ///
    /// RAM payloads are borrowed in place; spilled payloads are read
    /// (and checksum-verified) into a scratch buffer first.
    pub fn with_bytes<R>(&self, id: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        let (shard, idx) = unpack_id(id);
        let e = self.shards[shard].entry(idx);
        match &e.payload {
            Payload::Ram(b) => f(b),
            Payload::Disk { off, len } => {
                let mut buf = Vec::new();
                self.spill.get().expect("disk entry implies spill").read(*off, *len, &mut buf);
                f(&buf)
            }
        }
    }

    /// Admitted states per shard (the load-balance signal).
    pub fn shard_sizes(&self) -> [usize; N_SHARDS] {
        let mut sizes = [0usize; N_SHARDS];
        for (i, sh) in self.shards.iter().enumerate() {
            sizes[i] = sh.count.load(Ordering::Acquire);
        }
        sizes
    }

    /// Runs `f` over every admitted state's bytes in shard `shard`, in
    /// admission order. Callers guarantee quiescence if they need a
    /// complete image (a racing insert may or may not be included).
    pub fn for_each_in_shard(&self, shard: usize, mut f: impl FnMut(&[u8])) {
        let sh = &self.shards[shard];
        let count = sh.count.load(Ordering::Acquire);
        let mut buf = Vec::new();
        for idx in 0..count {
            match &sh.entry(idx as u32).payload {
                Payload::Ram(b) => f(b),
                Payload::Disk { off, len } => {
                    self.spill.get().expect("disk entry implies spill").read(*off, *len, &mut buf);
                    f(&buf);
                }
            }
        }
    }

    /// Current diagnostic counters.
    pub fn counters(&self) -> VisitedCounters {
        let spill_bytes = self.spill.get().map_or(0, |s| s.tail.load(Ordering::Relaxed));
        let table_capacity: u64 = self
            .shards
            .iter()
            .map(|sh| {
                sh.levels[sh.active.load(Ordering::Acquire)].get().map_or(0, |l| l.slots.len())
                    as u64
            })
            .sum();
        VisitedCounters {
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            dedup_probes: self.dedup_probes.load(Ordering::Relaxed),
            probe_steps: self.probe_steps.load(Ordering::Relaxed),
            spilled_states: self.spilled_states.load(Ordering::Relaxed),
            spill_bytes,
            mem_bytes: self.mem_bytes.load(Ordering::Relaxed) as u64,
            table_bytes: self.table_bytes.load(Ordering::Relaxed) as u64,
            table_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::hash_bytes;

    fn bytes_of(n: u64, len: usize) -> Vec<u8> {
        // Seeded LCG so payloads are deterministic but well spread.
        let mut x = n.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len.max(8))
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn admit_then_seen_roundtrip() {
        let v = VisitedSet::new(None);
        let b = bytes_of(7, 24);
        let fp = hash_bytes(&b);
        let id = match v.admit(fp, &b, 100) {
            Admit::New(id) => id,
            other => panic!("expected New, got {other:?}"),
        };
        assert_eq!(v.admit(fp, &b, 100), Admit::Seen(id));
        assert_eq!(v.find(fp, &b), Some(id));
        assert_eq!(v.len(), 1);
        v.with_bytes(id, |got| assert_eq!(got, &b[..]));
        let c = v.counters();
        assert_eq!((c.dedup_probes, c.dedup_hits), (2, 1));
        assert!(c.mem_bytes > 0 && c.spilled_states == 0);
    }

    #[test]
    fn cap_reports_capped_and_holds_the_ledger() {
        let v = VisitedSet::new(None);
        for n in 0..5u64 {
            let b = bytes_of(n, 16);
            assert!(matches!(v.admit(hash_bytes(&b), &b, 5), Admit::New(_)));
        }
        let b = bytes_of(99, 16);
        assert_eq!(v.admit(hash_bytes(&b), &b, 5), Admit::Capped);
        assert_eq!(v.len(), 5);
        // A re-probe of an admitted state still hits under a full cap.
        let b0 = bytes_of(0, 16);
        assert!(matches!(v.admit(hash_bytes(&b0), &b0, 5), Admit::Seen(_)));
    }

    #[test]
    fn growth_across_levels_keeps_every_entry_findable() {
        let v = VisitedSet::new(None);
        let n = 50_000u64; // ~780/shard: levels of 32, 256 and 2,048 slots
        for i in 0..n {
            let b = bytes_of(i, 16);
            assert!(matches!(v.admit(hash_bytes(&b), &b, usize::MAX), Admit::New(_)), "i={i}");
        }
        assert_eq!(v.len(), n as usize);
        assert_eq!(v.shard_sizes().iter().sum::<usize>(), n as usize);
        for i in 0..n {
            let b = bytes_of(i, 16);
            let id = v.find(hash_bytes(&b), &b).expect("present after growth");
            v.with_bytes(id, |got| assert_eq!(got, &b[..]));
        }
        let c = v.counters();
        assert_eq!(c.dedup_probes, n);
        assert_eq!(c.dedup_hits, 0);
        assert!(c.table_capacity >= n, "active levels hold every entry");
    }

    /// The exactness property under contention: N threads racing
    /// overlapping streams admit each distinct payload exactly once,
    /// with adversarial fingerprints (4 values across all payloads)
    /// forcing every insert into the same shard's probe chains.
    #[test]
    fn concurrent_inserters_never_lose_or_double_admit() {
        const THREADS: u64 = 8;
        const PER: u64 = 600;
        // Pair p covers p*PER .. p*PER + 3/2*PER, so consecutive pairs
        // overlap by PER/2 and the union is (THREADS/2)*PER + PER/2.
        const DISTINCT: u64 = (THREADS / 2) * PER + PER / 2;
        let v = VisitedSet::new(None);
        let news = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let v = &v;
                let news = &news;
                s.spawn(move || {
                    let lo = (t / 2) * PER; // pairs share a stream
                    for k in lo..lo + PER + PER / 2 {
                        let k = k % DISTINCT;
                        let b = bytes_of(k, 20);
                        let fp = k % 4; // adversarial: shard 0, 4 chains
                        match v.admit(fp, &b, usize::MAX) {
                            Admit::New(_) => {
                                news.fetch_add(1, Ordering::Relaxed);
                            }
                            Admit::Seen(_) => {}
                            Admit::Capped => panic!("uncapped run capped"),
                        }
                    }
                });
            }
        });
        // No lost insertion (every distinct payload is in) and no
        // double admission (New fired once per payload).
        assert_eq!(v.len(), DISTINCT as usize);
        assert_eq!(news.load(Ordering::Relaxed), DISTINCT as usize);
        for k in 0..DISTINCT {
            let b = bytes_of(k, 20);
            assert!(v.find(k % 4, &b).is_some(), "payload {k} lost");
        }
    }

    #[test]
    fn spill_keeps_admission_exact_past_the_budget() {
        // Budget below one entry's overhead: everything spills.
        let v = VisitedSet::new(Some(1));
        let n = 500u64;
        for i in 0..n {
            let b = bytes_of(i, 40);
            assert!(matches!(v.admit(hash_bytes(&b), &b, usize::MAX), Admit::New(_)));
        }
        for i in 0..n {
            let b = bytes_of(i, 40);
            let fp = hash_bytes(&b);
            assert!(matches!(v.admit(fp, &b, usize::MAX), Admit::Seen(_)), "false New after spill");
            let id = v.find(fp, &b).expect("spilled state findable");
            v.with_bytes(id, |got| assert_eq!(got, &b[..], "spill payload roundtrip"));
        }
        let c = v.counters();
        assert_eq!(c.spilled_states, n);
        assert_eq!(c.spill_bytes, n * (40 + 8));
        assert_eq!(c.mem_bytes, 0, "no payload stayed resident");
        // Shard iteration reads spilled payloads back, too.
        let mut seen = 0usize;
        for s in 0..N_SHARDS {
            v.for_each_in_shard(s, |b| {
                assert_eq!(b.len(), 40);
                seen += 1;
            });
        }
        assert_eq!(seen, n as usize);
    }

    /// Bytes of the levels and slab segments the shards have actually
    /// built, read off the structure itself.
    fn built_bytes(v: &VisitedSet) -> u64 {
        let entry = std::mem::size_of::<OnceLock<Entry>>();
        v.shards
            .iter()
            .map(|sh| {
                let levels: usize =
                    sh.levels.iter().filter_map(OnceLock::get).map(|l| l.slots.len() * 8).sum();
                let segs: usize =
                    sh.segs.iter().filter_map(OnceLock::get).map(|s| s.len() * entry).sum();
                (levels + segs) as u64
            })
            .sum()
    }

    fn untouched(sh: &Shard) -> bool {
        sh.levels.iter().all(|l| l.get().is_none()) && sh.segs.iter().all(|s| s.get().is_none())
    }

    #[test]
    fn a_fresh_set_holds_no_level_or_segment() {
        let v = VisitedSet::new(None);
        let c = v.counters();
        assert_eq!((c.table_bytes, c.table_capacity, c.mem_bytes), (0, 0, 0));
        assert!(v.shards.iter().all(untouched));
    }

    #[test]
    fn probing_an_untouched_shard_misses_without_building_it() {
        let v = VisitedSet::new(None);
        let b = bytes_of(3, 24);
        let fp = hash_bytes(&b);
        assert_eq!(v.find(fp, &b), None);
        assert!(v.shards.iter().all(untouched), "find built a level or segment");
        assert_eq!(v.counters().probe_steps, 1, "an unbuilt level reads as one empty slot");
        // Admitting into one shard builds that shard alone; a probe of
        // another still misses without building anything.
        assert!(matches!(v.admit(fp, &b, 10), Admit::New(_)));
        let other =
            (0u64..).map(|n| bytes_of(n, 24)).find(|o| shard_of(hash_bytes(o)) != shard_of(fp));
        let o = other.expect("some payload lands in another shard");
        assert_eq!(v.find(hash_bytes(&o), &o), None);
        assert_eq!(v.shards.iter().filter(|sh| !untouched(sh)).count(), 1);
        let built = LEVEL0_SLOTS * 8 + SEG0 * std::mem::size_of::<OnceLock<Entry>>();
        assert_eq!(v.counters().table_bytes, built as u64);
    }

    #[test]
    fn table_bytes_count_exactly_what_growth_built() {
        let v = VisitedSet::new(None);
        for (i, n) in [1u64, 10, 100, 2_000, 20_000, 60_000].into_iter().enumerate() {
            let from = if i == 0 { 0 } else { [1u64, 10, 100, 2_000, 20_000][i - 1] };
            for k in from..n {
                let b = bytes_of(k, 16);
                assert!(matches!(v.admit(hash_bytes(&b), &b, usize::MAX), Admit::New(_)));
            }
            assert_eq!(v.counters().table_bytes, built_bytes(&v), "after {n} admissions");
        }
        // 60,000 states put ~940 in each shard, past level 1's 75% mark
        // (192 entries) and short of level 2's (1,536): every shard is
        // on the 2,048-slot level 2.
        let c = v.counters();
        assert_eq!(c.table_capacity, (N_SHARDS * (LEVEL0_SLOTS << 6)) as u64);
    }

    #[test]
    fn slab_segment_math_is_contiguous() {
        let mut expect = (0usize, 0usize);
        for idx in 0..100_000 {
            let got = seg_of(idx);
            assert_eq!(got, expect, "idx {idx}");
            expect = if expect.1 + 1 == SEG0 << expect.0 {
                (expect.0 + 1, 0)
            } else {
                (expect.0, expect.1 + 1)
            };
        }
    }
}
