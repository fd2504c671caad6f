//! The durability layer as seen from outside: what the service's journal
//! holds after a run, and what `Journal::append` costs on its records.

use microblog_service::journal::decode_records;
use microblog_service::{Journal, TelemetryClock, TelemetryMode};
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How much of the service's journal the append probe replays.
const PROBE_BYTES: u64 = 32 << 20;

#[derive(Default)]
pub struct JournalStats {
    pub appends: u64,
    pub syncs: u64,
    pub bytes: u64,
    /// `Journal::append` times, in microseconds, of the run's own
    /// records appended to a fresh journal.
    pub append_us: Vec<f64>,
}

impl JournalStats {
    pub fn absorb(&mut self, other: JournalStats) {
        self.appends += other.appends;
        self.syncs += other.syncs;
        self.bytes += other.bytes;
        self.append_us.extend(other.append_us);
    }
}

/// Reads the journal's counters and size, then appends a prefix of its
/// records to a fresh journal in `probe_dir`, timing each append.
pub fn probe(journal: &Journal, probe_dir: &Path) -> std::io::Result<JournalStats> {
    let bytes = std::fs::metadata(journal.path())?.len();
    let mut prefix = Vec::new();
    File::open(journal.path())?
        .take(PROBE_BYTES)
        .read_to_end(&mut prefix)?;
    let records = decode_records(&prefix).records;
    let (fresh, _) = Journal::open(
        probe_dir,
        Arc::new(TelemetryClock::new(TelemetryMode::Wall)),
    )?;
    let mut spans = Vec::with_capacity(records.len());
    for record in &records {
        let started = Instant::now();
        fresh.append(record)?;
        spans.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(JournalStats {
        appends: journal.appended(),
        syncs: journal.syncs(),
        bytes,
        append_us: spans,
    })
}
