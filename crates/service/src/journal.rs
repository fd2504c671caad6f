//! The write-ahead job journal.
//!
//! Crash-only operation needs one durable artifact: an append-only log
//! of every job's lifecycle — admission, quota reservation, walker
//! checkpoints, settlement — from which a restarted service can rebuild
//! exactly the in-flight work it lost. [`Journal`] is that log:
//!
//! - **Record format.** Each record is `[len: u32 LE][crc32: u32 LE]
//!   [payload]`, where the payload is the JSON encoding of a
//!   [`JournalRecord`]. Length-prefixing makes the stream seekable
//!   without parsing; the CRC makes torn or bit-flipped tails
//!   detectable.
//! - **Torn-tail tolerance.** A crash mid-append leaves a partial (or
//!   corrupt) final record. [`decode_records`] stops at the first record
//!   that fails its length, checksum, or parse check and reports how
//!   many bytes it dropped; [`Journal::open`] truncates the file back to
//!   the last good boundary so the writer never appends after garbage.
//! - **Batched durability.** Appends buffer in the OS and are fsync'd in
//!   batches: every [`SYNC_BATCH`] records, and immediately for the
//!   records recovery correctness depends on ([`JournalRecord::Settle`],
//!   [`JournalRecord::Interrupted`]). An append that closes a batch, or
//!   a critical one, returns only after an fsync that started after its
//!   own write. Frames are written under the writer lock, but the fsync
//!   runs after the lock is released, on a second handle of the same
//!   file (`fdatasync` flushes the file, so it covers every frame
//!   written before it started): one worker's fsync no longer stalls the
//!   other workers' appends, and the guarantees are unchanged. Each sync
//!   is stamped with a logical-clock tick so trace timelines can order
//!   durability points against job events.
//! - **Records.** A job's lifecycle is `Admit`, `Reserve`, its walker
//!   checkpoints, then `Settle` (or `Interrupted`). The first checkpoint
//!   a [`Journal`] handle writes for a job is a whole
//!   [`JournalRecord::Checkpoint`]; each later one is a
//!   [`JournalRecord::CheckpointDelta`] whose client key lists hold only
//!   the keys added since the job's previous checkpoint record (see
//!   [`Journal::append_checkpoint`]).
//! - **Replay.** [`replay`] folds a record stream into a
//!   [`ReplaySummary`]: which jobs settled (and what they consumed, for
//!   [`GlobalQuota::adopt`](crate::GlobalQuota::adopt)), and which were
//!   in flight — each with its latest checkpoint — for the service to
//!   requeue. A whole checkpoint replaces the job's folded one; a delta
//!   unions its keys into it, and a delta with nothing to extend leaves
//!   the job with no checkpoint (it restarts from scratch). Duplicate
//!   settle records are idempotent: a job settles once no matter how
//!   often the record appears, so replay can never double-charge the
//!   quota.
//!
//! This module is the only place in `crates/service` (and `crates/core`)
//! allowed to touch `std::fs` for writing — the `fs-write` lint rule
//! keeps every other durable side effect out of the estimation stack.

use crate::request::JobSpec;
use microblog_analyzer::WalkerCheckpoint;
use microblog_api::ClientState;
use microblog_obs::TelemetryClock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One journaled lifecycle event.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A job passed admission control.
    Admit {
        /// The service-assigned job id.
        job: u64,
        /// The full job specification, enough to re-run it.
        spec: JobSpec,
    },
    /// The job's budget was reserved from the global quota.
    Reserve {
        /// The job id.
        job: u64,
        /// Reserved call count (the job's budget).
        amount: u64,
    },
    /// A walker checkpoint was taken: the job's first since this
    /// journal handle opened, or one that dropped a memo key.
    Checkpoint {
        /// The job id.
        job: u64,
        /// The resumable walker state, boxed so this variant does not
        /// dwarf the others (3–82 KB for a Small-world job, most of it
        /// the client's memo key lists).
        checkpoint: Box<WalkerCheckpoint>,
    },
    /// A later walker checkpoint of a job, relative to the job's
    /// previous checkpoint record (its *base*). Replay unions the key
    /// lists into the base, so the folded checkpoint is exactly the one
    /// the walker emitted.
    CheckpointDelta {
        /// The job id.
        job: u64,
        /// The checkpoint, except that its client key lists hold only
        /// the keys added since the base; every other field is whole.
        delta: Box<WalkerCheckpoint>,
    },
    /// The job finished and its reservation was settled.
    Settle {
        /// The job id.
        job: u64,
        /// Calls actually charged (the rest of the reservation was
        /// refunded).
        used: u64,
    },
    /// The job was journaled as interrupted (shutdown drain deadline or
    /// a torn-journal crash); it is still unsettled and will be
    /// recovered on restart.
    Interrupted {
        /// The job id.
        job: u64,
    },
}

impl JournalRecord {
    /// The job id the record belongs to.
    pub fn job(&self) -> u64 {
        match self {
            JournalRecord::Admit { job, .. }
            | JournalRecord::Reserve { job, .. }
            | JournalRecord::Checkpoint { job, .. }
            | JournalRecord::CheckpointDelta { job, .. }
            | JournalRecord::Settle { job, .. }
            | JournalRecord::Interrupted { job } => *job,
        }
    }

    /// Records recovery correctness depends on; these force an fsync.
    fn is_critical(&self) -> bool {
        matches!(
            self,
            JournalRecord::Settle { .. } | JournalRecord::Interrupted { .. }
        )
    }
}

/// Appends per fsync batch (critical records sync immediately).
pub const SYNC_BATCH: u64 = 32;

/// Upper bound on a single record's payload; anything larger is treated
/// as corruption (a whole checkpoint of a Small-world job is at most
/// about 82 KB; records in the `durable` benchmark average about 5 KB).
const MAX_RECORD: u32 = 64 << 20;

/// The journal file name inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the bytewise IEEE table
/// (reflected polynomial `0xEDB8_8320`), and `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table lookups
/// advance the CRC over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // ma-lint: allow(panic-safety) reason="const loop bounds i < 256 over [u32; 256] tables"
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // ma-lint: allow(panic-safety) reason="const loop bounds k < 8, i < 256; the inner index is masked to 0..=255"
            let prev = tables[k - 1][i];
            // ma-lint: allow(panic-safety) reason="const loop bounds k < 8, i < 256; the inner index is masked to 0..=255"
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Table entry `k` for the low byte of `x`.
fn crc_entry(k: usize, x: u32) -> u32 {
    // ma-lint: allow(panic-safety) reason="callers pass k < 8; the byte index is masked to 0..=255"
    CRC_TABLES[k][(x & 0xFF) as usize]
}

/// IEEE CRC-32 of `bytes` (the checksum in every record header),
/// slice-by-8: eight bytes per step through [`CRC_TABLES`], then the
/// remainder a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().unwrap_or_default());
        let lo = word as u32 ^ crc;
        let hi = (word >> 32) as u32;
        crc = crc_entry(7, lo)
            ^ crc_entry(6, lo >> 8)
            ^ crc_entry(5, lo >> 16)
            ^ crc_entry(4, lo >> 24)
            ^ crc_entry(3, hi)
            ^ crc_entry(2, hi >> 8)
            ^ crc_entry(1, hi >> 16)
            ^ crc_entry(0, hi >> 24);
    }
    for &b in words.remainder() {
        crc = crc_entry(0, crc ^ b as u32) ^ (crc >> 8);
    }
    !crc
}

/// What decoding a journal byte stream produced.
#[derive(Debug)]
pub struct DecodedJournal {
    /// Every record up to the first corrupt or partial one.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (the repair truncation point).
    pub valid_len: u64,
    /// Bytes after the valid prefix that were dropped.
    pub dropped_bytes: u64,
}

/// Decodes a journal byte stream, stopping — never panicking — at the
/// first torn, truncated, oversized, checksum-mismatched, or unparseable
/// record. Everything after the first bad record is dropped: a torn
/// write makes the rest of the stream untrustworthy.
pub fn decode_records(bytes: &[u8]) -> DecodedJournal {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let Some(len) = le_u32_at(bytes, offset) {
        let Some(crc) = le_u32_at(bytes, offset + 4) else {
            break;
        };
        if len > MAX_RECORD {
            break;
        }
        let start = offset + 8;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(record) = serde_json::from_str::<JournalRecord>(text) else {
            break;
        };
        records.push(record);
        offset = start + len as usize;
    }
    DecodedJournal {
        records,
        valid_len: offset as u64,
        dropped_bytes: (bytes.len() - offset) as u64,
    }
}

/// Little-endian `u32` at byte offset `at`, or `None` past the end —
/// decoding must stay panic-free on arbitrary bytes.
fn le_u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let field = bytes.get(at..at.checked_add(4)?)?;
    let mut word = 0u32;
    for (shift, &b) in field.iter().enumerate() {
        word |= (b as u32) << (8 * shift as u32);
    }
    Some(word)
}

/// A job the journal shows as admitted but never settled; the service
/// requeues it at startup.
#[derive(Clone, Debug)]
pub struct RecoveredJob {
    /// The job id (reused, so its later records extend the same trail).
    pub job: u64,
    /// The job specification to re-run.
    pub spec: JobSpec,
    /// The latest checkpoint, when the walker got far enough to emit
    /// one; `None` restarts the job from scratch.
    pub checkpoint: Option<Box<WalkerCheckpoint>>,
    /// Whether the job was journaled as interrupted at shutdown.
    pub interrupted: bool,
}

/// The outcome of replaying a journal.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// Valid records replayed.
    pub records: u64,
    /// Bytes dropped off a torn or corrupt tail.
    pub dropped_bytes: u64,
    /// Jobs the journal shows as settled.
    pub settled_jobs: u64,
    /// Calls those settled jobs consumed (adopted into the quota).
    pub consumed: u64,
    /// Unsettled jobs to requeue, in admission order.
    pub recovered: Vec<RecoveredJob>,
    /// First job id the restarted service may assign without colliding
    /// with a journaled one.
    pub next_job_id: u64,
}

/// Folds a decoded record stream into the state a restarted service
/// needs. Settle records are idempotent per job — replay counts a job's
/// consumption exactly once however often its settle appears, so a
/// journal can never double-charge the quota.
pub fn replay(decoded: &DecodedJournal) -> ReplaySummary {
    #[derive(Default)]
    struct JobFold {
        spec: Option<JobSpec>,
        checkpoint: Option<Box<WalkerCheckpoint>>,
        settled: Option<u64>,
        interrupted: bool,
        order: u64,
    }
    let mut jobs: std::collections::BTreeMap<u64, JobFold> = std::collections::BTreeMap::new();
    let mut admitted = 0u64;
    let mut next_job_id = 0u64;
    for record in &decoded.records {
        next_job_id = next_job_id.max(record.job() + 1);
        let fold = jobs.entry(record.job()).or_default();
        match record {
            JournalRecord::Admit { spec, .. } => {
                if fold.spec.is_none() {
                    fold.spec = Some(spec.clone());
                    fold.order = admitted;
                    admitted += 1;
                }
            }
            JournalRecord::Reserve { .. } => {}
            JournalRecord::Checkpoint { checkpoint, .. } => {
                fold.checkpoint = Some(checkpoint.clone());
            }
            JournalRecord::CheckpointDelta { delta, .. } => {
                // Without a base the job keeps no checkpoint and
                // restarts from scratch: slower, but still correct.
                fold.checkpoint = fold
                    .checkpoint
                    .take()
                    .map(|base| Box::new(apply_delta(&base.client, delta)));
            }
            JournalRecord::Settle { used, .. } => {
                // First settle wins; duplicates are replay noise.
                fold.settled.get_or_insert(*used);
            }
            JournalRecord::Interrupted { .. } => fold.interrupted = true,
        }
    }
    let mut summary = ReplaySummary {
        records: decoded.records.len() as u64,
        dropped_bytes: decoded.dropped_bytes,
        next_job_id,
        ..ReplaySummary::default()
    };
    let mut recovered: Vec<(u64, RecoveredJob)> = Vec::new();
    for (job, fold) in jobs {
        if let Some(used) = fold.settled {
            summary.settled_jobs += 1;
            summary.consumed += used;
        } else if let Some(spec) = fold.spec {
            recovered.push((
                fold.order,
                RecoveredJob {
                    job,
                    spec,
                    checkpoint: fold.checkpoint,
                    interrupted: fold.interrupted,
                },
            ));
        }
    }
    recovered.sort_by_key(|(order, _)| *order);
    summary.recovered = recovered.into_iter().map(|(_, job)| job).collect();
    summary
}

/// `delta` with each client key list unioned with `base`'s.
fn apply_delta(base: &ClientState, delta: &WalkerCheckpoint) -> WalkerCheckpoint {
    fn union<K: Copy + Ord>(base: &[K], added: &[K]) -> Vec<K> {
        let mut keys = [base, added].concat();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
    let mut full = delta.clone();
    full.client.searches = union(&base.searches, &delta.client.searches);
    full.client.timelines = union(&base.timelines, &delta.client.timelines);
    full.client.connections = union(&base.connections, &delta.client.connections);
    full
}

/// `next`'s client state with each key list cut to the keys added since
/// `base`, or `None` when a base key is missing from `next` — a delta
/// cannot express a removal.
fn client_delta(base: &ClientState, next: &ClientState) -> Option<ClientState> {
    fn added<K: Copy + Ord>(base: &[K], next: &[K]) -> Option<Vec<K>> {
        let mut base = base.iter().peekable();
        let mut added = Vec::new();
        for &key in next {
            match base.peek() {
                Some(&&old) if old < key => return None,
                Some(&&old) if old == key => {
                    base.next();
                }
                _ => added.push(key),
            }
        }
        base.peek().is_none().then_some(added)
    }
    Some(ClientState {
        searches: added(&base.searches, &next.searches)?,
        timelines: added(&base.timelines, &next.timelines)?,
        connections: added(&base.connections, &next.connections)?,
        stats: next.stats,
        meter: next.meter,
        charged: next.charged,
    })
}

struct Writer {
    file: File,
    len: u64,
    /// Appends written since the last fsync claim.
    pending: u64,
    /// Set by crash injection tearing the tail: the stream past `len` is
    /// untrustworthy, so further appends are discarded instead of being
    /// written after garbage.
    torn: bool,
}

/// What one fsync covers: the file length it makes durable and the
/// appends it took off [`Writer::pending`].
struct Claim {
    len: u64,
    appends: u64,
}

impl Writer {
    /// Claims every append written so far for the caller's fsync.
    fn claim(&mut self) -> Claim {
        Claim {
            len: self.len,
            appends: std::mem::take(&mut self.pending),
        }
    }
}

/// The append side of the write-ahead journal. Thread-safe: workers
/// write whole frames under one mutex and fsync through a second handle
/// after releasing it; the file is the only shared state.
pub struct Journal {
    path: PathBuf,
    writer: Mutex<Writer>,
    /// A second handle on the journal file, fsynced outside the writer
    /// lock: `fdatasync` flushes the file, not the handle, so it covers
    /// every frame written through `writer` before it started.
    syncer: File,
    /// The longest file prefix a completed fsync covered. Stored with
    /// `Release` after the fsync returns and loaded with `Acquire` by
    /// [`Journal::sync`], which skips its fsync only when a completed
    /// one already covers every append.
    synced_len: AtomicU64,
    clock: Arc<TelemetryClock>,
    appended: AtomicU64,
    syncs: AtomicU64,
    last_sync_tick: AtomicU64,
    dropped_appends: AtomicU64,
    /// Per job, the client state of the last checkpoint record this
    /// handle wrote: the base its next checkpoint may be a delta of.
    bases: Mutex<HashMap<u64, ClientState>>,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, repairs any torn
    /// tail, and returns the replay summary of what the log contained.
    pub fn open(dir: &Path, clock: Arc<TelemetryClock>) -> io::Result<(Journal, ReplaySummary)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let decoded = decode_records(&bytes);
        if decoded.dropped_bytes > 0 {
            // Repair: chop the torn tail so appends restart at the last
            // good record boundary.
            file.set_len(decoded.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(decoded.valid_len))?;
        let summary = replay(&decoded);
        let syncer = file.try_clone()?;
        let journal = Journal {
            path,
            syncer,
            synced_len: AtomicU64::new(decoded.valid_len),
            writer: Mutex::new(Writer {
                file,
                len: decoded.valid_len,
                pending: 0,
                torn: false,
            }),
            clock,
            appended: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            last_sync_tick: AtomicU64::new(0),
            dropped_appends: AtomicU64::new(0),
            bases: Mutex::new(HashMap::new()),
        };
        Ok((journal, summary))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, fsyncing per the batching policy (immediately
    /// for critical records, every [`SYNC_BATCH`] otherwise). After a
    /// torn tail the append is counted as dropped instead of written —
    /// the stream past the tear is already untrustworthy.
    ///
    /// The job's delta base is dropped: a `Settle` or `Interrupted` ends
    /// the job, and a checkpoint record written here would supersede the
    /// base. Walker checkpoints go through [`Journal::append_checkpoint`].
    pub fn append(&self, record: &JournalRecord) -> io::Result<()> {
        self.bases().remove(&record.job());
        self.write(record).map(drop)
    }

    /// Appends a walker checkpoint of `job`. The job's first checkpoint
    /// since this handle opened is written whole
    /// ([`JournalRecord::Checkpoint`]); every later one is a
    /// [`JournalRecord::CheckpointDelta`] against the job's previous
    /// checkpoint record, unless a key of that record is missing from
    /// `checkpoint`, which is written whole again. A failed or dropped
    /// append leaves the job without a base, so its next checkpoint is
    /// whole.
    ///
    /// One job's checkpoints must be appended by one thread at a time,
    /// as the engine's one-walker-per-job rule guarantees: a delta has to
    /// follow its base in the file.
    pub fn append_checkpoint(&self, job: u64, checkpoint: &WalkerCheckpoint) -> io::Result<()> {
        let base = self.bases().remove(&job);
        let record = match base.and_then(|base| client_delta(&base, &checkpoint.client)) {
            Some(client) => JournalRecord::CheckpointDelta {
                job,
                delta: Box::new(WalkerCheckpoint {
                    algorithm: checkpoint.algorithm.clone(),
                    seed: checkpoint.seed,
                    steps: checkpoint.steps,
                    rng: checkpoint.rng.clone(),
                    client,
                    sampler: checkpoint.sampler.clone(),
                }),
            },
            None => JournalRecord::Checkpoint {
                job,
                checkpoint: Box::new(checkpoint.clone()),
            },
        };
        if self.write(&record)? {
            self.bases().insert(job, checkpoint.client.clone());
        }
        Ok(())
    }

    fn bases(&self) -> std::sync::MutexGuard<'_, HashMap<u64, ClientState>> {
        // Each update is one map operation, so a poisoned map is whole.
        self.bases.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Frames and writes one record; `Ok(false)` when a torn tail made
    /// it a dropped append. A record that closes a sync batch, or a
    /// critical one, is fsynced before this returns, by an fsync that
    /// starts after the write; the fsync runs after the writer lock is
    /// released, so other workers' appends are not stalled behind it.
    fn write(&self, record: &JournalRecord) -> io::Result<bool> {
        let payload = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let payload = payload.as_bytes();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let claim = {
            let mut writer = self.writer();
            if writer.torn {
                self.dropped_appends.fetch_add(1, Ordering::Relaxed);
                return Ok(false);
            }
            writer.file.write_all(&frame)?;
            writer.len += frame.len() as u64;
            writer.pending += 1;
            self.appended.fetch_add(1, Ordering::Relaxed);
            (record.is_critical() || writer.pending >= SYNC_BATCH).then(|| writer.claim())
        };
        if let Some(claim) = claim {
            self.fsync(claim)?;
        }
        Ok(true)
    }

    /// Forces an fsync of everything appended so far, unless a completed
    /// fsync already covered it.
    pub fn sync(&self) -> io::Result<()> {
        let claim = self.writer().claim();
        if self.synced_len.load(Ordering::Acquire) >= claim.len {
            return Ok(());
        }
        self.fsync(claim)
    }

    /// Fsyncs `claim` through the second handle, outside the writer
    /// lock. A failed fsync hands the claimed appends back, so the next
    /// append retries it.
    fn fsync(&self, claim: Claim) -> io::Result<()> {
        if let Err(e) = self.syncer.sync_data() {
            self.writer().pending += claim.appends;
            return Err(e);
        }
        self.synced_len.fetch_max(claim.len, Ordering::Release);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        // Stamp the durability point on the logical clock so traces can
        // order it against job events. Concurrent fsyncs can finish in
        // either order; the stamp only moves forward.
        self.last_sync_tick
            .fetch_max(self.clock.now().as_micros() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn writer(&self) -> std::sync::MutexGuard<'_, Writer> {
        // Crash injection poisons this mutex when it kills a worker
        // mid-append path; the inner state is still consistent (writes
        // are whole-frame), so recover the guard rather than propagate.
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Crash injection: tears `drop` bytes off the journal tail,
    /// simulating a crash mid-append. Subsequent appends are discarded
    /// (and counted) until the journal is reopened and repaired.
    pub fn truncate_tail(&self, drop: u64) -> io::Result<()> {
        let mut writer = self.writer();
        writer.len = writer.len.saturating_sub(drop);
        writer.file.set_len(writer.len)?;
        writer.file.sync_data()?;
        writer.torn = true;
        Ok(())
    }

    /// Records appended (excluding drops) since this handle opened.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Fsyncs performed (batches, critical records and forced syncs).
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Logical-clock tick (µs) of the most recent fsync.
    pub fn last_sync_tick(&self) -> u64 {
        self.last_sync_tick.load(Ordering::Relaxed)
    }

    /// Appends discarded after a torn tail.
    pub fn dropped_appends(&self) -> u64 {
        self.dropped_appends.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("appended", &self.appended())
            .field("syncs", &self.syncs())
            .finish()
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microblog_analyzer::query::parse::parse_query;
    use microblog_analyzer::Algorithm;
    use microblog_obs::{TelemetryClock, TelemetryMode};
    use microblog_platform::scenario::{twitter_2013, Scale};

    fn clock() -> Arc<TelemetryClock> {
        Arc::new(TelemetryClock::new(TelemetryMode::Logical))
    }

    fn spec(budget: u64, seed: u64) -> JobSpec {
        let scenario = twitter_2013(Scale::Tiny, 2014);
        let query = parse_query(
            "SELECT COUNT(*) FROM USERS WHERE KEYWORD = 'privacy'",
            scenario.platform.keywords(),
        )
        .unwrap();
        JobSpec::new(query, Algorithm::MaTarw { interval: None }, budget, seed)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ma-journal-{tag}-{}",
            std::process::id() as u64 ^ (tag.as_ptr() as u64)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let dir = tempdir("roundtrip");
        let records = vec![
            JournalRecord::Admit {
                job: 0,
                spec: spec(1_000, 7),
            },
            JournalRecord::Reserve {
                job: 0,
                amount: 1_000,
            },
            JournalRecord::Settle { job: 0, used: 412 },
        ];
        {
            let (journal, summary) = Journal::open(&dir, clock()).unwrap();
            assert_eq!(summary.records, 0);
            for r in &records {
                journal.append(r).unwrap();
            }
        }
        let (_, summary) = Journal::open(&dir, clock()).unwrap();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.settled_jobs, 1);
        assert_eq!(summary.consumed, 412);
        assert!(summary.recovered.is_empty());
        assert_eq!(summary.next_job_id, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsettled_jobs_are_recovered_in_admission_order() {
        let decoded = DecodedJournal {
            records: vec![
                JournalRecord::Admit {
                    job: 3,
                    spec: spec(500, 1),
                },
                JournalRecord::Admit {
                    job: 1,
                    spec: spec(700, 2),
                },
                JournalRecord::Interrupted { job: 1 },
                JournalRecord::Admit {
                    job: 2,
                    spec: spec(900, 3),
                },
                JournalRecord::Settle { job: 2, used: 900 },
            ],
            valid_len: 0,
            dropped_bytes: 0,
        };
        let summary = replay(&decoded);
        assert_eq!(summary.settled_jobs, 1);
        assert_eq!(summary.consumed, 900);
        assert_eq!(summary.next_job_id, 4);
        let ids: Vec<u64> = summary.recovered.iter().map(|r| r.job).collect();
        assert_eq!(ids, vec![3, 1], "admission order, not id order");
        assert!(summary.recovered[1].interrupted);
    }

    #[test]
    fn duplicate_settles_count_once() {
        let decoded = DecodedJournal {
            records: vec![
                JournalRecord::Admit {
                    job: 5,
                    spec: spec(400, 9),
                },
                JournalRecord::Settle { job: 5, used: 100 },
                JournalRecord::Settle { job: 5, used: 100 },
                JournalRecord::Settle { job: 5, used: 999 },
            ],
            valid_len: 0,
            dropped_bytes: 0,
        };
        let summary = replay(&decoded);
        assert_eq!(summary.settled_jobs, 1);
        assert_eq!(summary.consumed, 100, "first settle wins, exactly once");
        assert!(summary.recovered.is_empty());
    }

    #[test]
    fn torn_tail_is_repaired_on_reopen() {
        let dir = tempdir("torn");
        let good_len;
        {
            let (journal, _) = Journal::open(&dir, clock()).unwrap();
            journal
                .append(&JournalRecord::Admit {
                    job: 0,
                    spec: spec(1_000, 7),
                })
                .unwrap();
            journal.sync().unwrap();
            good_len = std::fs::metadata(journal.path()).unwrap().len();
            journal
                .append(&JournalRecord::Reserve {
                    job: 0,
                    amount: 1_000,
                })
                .unwrap();
            // Crash mid-append: lose the tail of the reserve record.
            journal.truncate_tail(5).unwrap();
            // Post-tear appends are discarded, not written after garbage.
            journal
                .append(&JournalRecord::Settle { job: 0, used: 1 })
                .unwrap();
            assert_eq!(journal.dropped_appends(), 1);
        }
        let (journal, summary) = Journal::open(&dir, clock()).unwrap();
        assert_eq!(summary.records, 1, "only the admit survived");
        assert!(summary.dropped_bytes > 0);
        assert_eq!(summary.recovered.len(), 1, "job is still in flight");
        assert_eq!(
            std::fs::metadata(journal.path()).unwrap().len(),
            good_len,
            "reopen truncates back to the last good boundary"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_stop_decoding_without_panic() {
        let mut bytes = Vec::new();
        for (i, record) in [
            JournalRecord::Admit {
                job: 0,
                spec: spec(100, 1),
            },
            JournalRecord::Settle { job: 0, used: 50 },
        ]
        .iter()
        .enumerate()
        {
            let payload = serde_json::to_string(record).unwrap();
            let payload = payload.as_bytes();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
            if i == 0 {
                // Flip a bit in the middle of the first record's payload.
                let at = bytes.len() - payload.len() / 2;
                bytes[at] ^= 0x10;
            }
        }
        let decoded = decode_records(&bytes);
        assert_eq!(decoded.records.len(), 0, "corrupt first record drops all");
        assert_eq!(decoded.valid_len, 0);
        assert_eq!(decoded.dropped_bytes, bytes.len() as u64);
        let summary = replay(&decoded);
        assert_eq!(summary.settled_jobs, 0);
    }

    #[test]
    fn critical_records_sync_immediately() {
        let dir = tempdir("sync");
        let (journal, _) = Journal::open(&dir, clock()).unwrap();
        journal
            .append(&JournalRecord::Reserve { job: 0, amount: 1 })
            .unwrap();
        assert_eq!(journal.syncs(), 0, "plain records batch");
        journal
            .append(&JournalRecord::Settle { job: 0, used: 1 })
            .unwrap();
        assert_eq!(journal.syncs(), 1, "settle forces the batch out");
        assert!(journal.last_sync_tick() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC check: crc32(b"123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 loop slice-by-8 replaced, kept as the
    /// reference it must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_offset() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let buffer: Vec<u8> = (0..4_096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        // Every length up to 64 at every offset covers each remainder
        // length after every number of whole eight-byte words, at every
        // alignment.
        for offset in 0..buffer.len() {
            let rest = &buffer[offset..];
            for len in 0..=rest.len().min(64) {
                let bytes = &rest[..len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
        assert_eq!(crc32(&buffer), crc32_bytewise(&buffer));
    }

    /// A checkpoint of `job` whose `steps` is its sequence number and
    /// whose timeline keys grow with it, so later ones are deltas.
    fn numbered_checkpoint(job: u64, seq: u64) -> WalkerCheckpoint {
        WalkerCheckpoint {
            algorithm: "MA-SRW".to_string(),
            seed: job,
            steps: seq,
            rng: microblog_analyzer::RngState::default(),
            client: ClientState {
                timelines: (0..=seq as u32).map(microblog_platform::UserId).collect(),
                ..ClientState::default()
            },
            sampler: microblog_analyzer::SamplerState::Pilot(
                microblog_analyzer::checkpoint::PilotState::default(),
            ),
        }
    }

    #[test]
    fn concurrent_appends_stay_whole_ordered_and_synced() {
        const THREADS: u64 = 3;
        const JOBS: u64 = 4;
        const CHECKPOINTS: u64 = 40;
        let dir = tempdir("concurrent");
        let (journal, _) = Journal::open(&dir, clock()).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        // The writers start together, so their appends and fsyncs overlap.
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let mut last = 0;
                while !done.load(Ordering::Relaxed) {
                    let tick = journal.last_sync_tick();
                    assert!(tick >= last, "last_sync_tick went back: {last} -> {tick}");
                    last = tick;
                    std::thread::yield_now();
                }
            });
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (journal, start) = (&journal, &start);
                    scope.spawn(move || {
                        start.wait();
                        for job in (0..JOBS).map(|j| t * JOBS + j) {
                            for seq in 0..CHECKPOINTS {
                                journal
                                    .append_checkpoint(job, &numbered_checkpoint(job, seq))
                                    .unwrap();
                            }
                            journal
                                .append(&JournalRecord::Settle { job, used: job })
                                .unwrap();
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            watcher.join().unwrap();
        });
        let settles = THREADS * JOBS;
        let total = settles * (CHECKPOINTS + 1);
        assert_eq!(journal.appended(), total);
        assert!(journal.syncs() >= settles, "{} syncs", journal.syncs());
        drop(journal);

        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let decoded = decode_records(&bytes);
        assert_eq!(decoded.dropped_bytes, 0, "every frame is whole");
        assert_eq!(decoded.records.len() as u64, total);
        let mut next: HashMap<u64, u64> = HashMap::new();
        for record in &decoded.records {
            let seq = next.entry(record.job()).or_default();
            match record {
                JournalRecord::Checkpoint { checkpoint: cp, .. }
                | JournalRecord::CheckpointDelta { delta: cp, .. } => {
                    assert_eq!(cp.steps, *seq, "job {} out of order", record.job());
                    assert_eq!(
                        matches!(record, JournalRecord::Checkpoint { .. }),
                        *seq == 0,
                        "only a job's first checkpoint is whole"
                    );
                }
                JournalRecord::Settle { .. } => assert_eq!(*seq, CHECKPOINTS, "settle comes last"),
                other => panic!("unexpected record {other:?}"),
            }
            *seq += 1;
        }
        assert_eq!(next.len() as u64, settles);
        let summary = replay(&decoded);
        assert_eq!(summary.settled_jobs, settles);
        assert!(summary.recovered.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
