//! The write-ahead job journal: crash durability for accepted jobs.
//!
//! Every accepted submission is appended — framed, checksummed and
//! fsync'd — *before* the server acknowledges it with a `202`, and every
//! terminal transition is appended the same way. After a hard crash
//! (SIGKILL, OOM, power loss) the next boot replays the journal,
//! re-enqueues every job that was accepted but never reached a terminal
//! state under its **original id**, and sweeps resume bit-identically
//! from their spool checkpoints.
//!
//! # Frame format
//!
//! One record per line:
//!
//! ```text
//! EJ1 <len:08x> <fnv1a:016x> <payload>\n
//! ```
//!
//! `len` is the payload's byte length, `fnv1a` the FNV-1a 64-bit digest
//! of the payload bytes, and the payload one JSON-encoded
//! [`JournalRecord`] (serde_json never emits raw newlines, so the frame
//! boundary is unambiguous). A torn tail — truncation or a flipped bit
//! anywhere in the last partially-written frame — fails the length or
//! checksum test and replay stops there, keeping every fully-framed
//! prior entry; [`Journal::open`] then truncates the file back to the
//! last good frame so later appends never chain onto garbage.
//!
//! # Compaction
//!
//! Terminal records accumulate. [`live_records`] distils a replayed
//! history down to what the next boot actually needs — unfinished jobs,
//! plus submitted/terminal pairs for finished jobs that carried an
//! idempotency key (so a client retry after a restart still maps to the
//! original id) — and [`Journal::compact`] rewrites the file atomically
//! (tmp + fsync + rename). The server compacts at boot and every
//! [`COMPACT_EVERY`] terminal appends.

use crate::protocol::{JobState, SubmitRequest};
use ecripse_stats::{fnv1a, FNV_OFFSET};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame magic: journal format version 1.
const MAGIC: &[u8] = b"EJ1 ";
/// `MAGIC + 8 hex len + ' ' + 16 hex checksum + ' '`.
const HEADER_LEN: usize = 4 + 8 + 1 + 16 + 1;
/// Terminal appends between automatic compactions.
pub const COMPACT_EVERY: u64 = 64;

/// What a journal line records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalKind {
    /// A job was accepted into the queue.
    Submitted,
    /// A job reached a terminal state.
    Terminal,
}

impl JournalKind {
    /// The snake_case wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JournalKind::Submitted => "submitted",
            JournalKind::Terminal => "terminal",
        }
    }
}

impl Serialize for JournalKind {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::String(self.name().to_owned())
    }
}

impl Deserialize for JournalKind {
    fn from_value(value: &serde::json::Value) -> Option<Self> {
        match value.as_str()? {
            "submitted" => Some(JournalKind::Submitted),
            "terminal" => Some(JournalKind::Terminal),
            _ => None,
        }
    }
}

/// One journal entry: a submission (carrying the full wire request, so
/// replay can rebuild the job verbatim) or a terminal transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Submission or terminal transition.
    pub kind: JournalKind,
    /// The server-assigned job id the entry describes.
    pub id: u64,
    /// The accepted request, verbatim, for [`JournalKind::Submitted`].
    #[serde(default)]
    pub request: Option<SubmitRequest>,
    /// The terminal state reached, for [`JournalKind::Terminal`].
    #[serde(default)]
    pub state: Option<JobState>,
    /// The failure/cancellation description, when one exists.
    #[serde(default)]
    pub error: Option<String>,
}

impl JournalRecord {
    /// A submission entry.
    pub fn submitted(id: u64, request: SubmitRequest) -> Self {
        Self {
            kind: JournalKind::Submitted,
            id,
            request: Some(request),
            state: None,
            error: None,
        }
    }

    /// A terminal-transition entry.
    pub fn terminal(id: u64, state: JobState, error: Option<String>) -> Self {
        Self {
            kind: JournalKind::Terminal,
            id,
            request: None,
            state: Some(state),
            error,
        }
    }
}

/// What replaying an existing journal found.
#[derive(Debug)]
pub struct Replay {
    /// Every fully-framed, checksum-valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes discarded from a torn or corrupt tail (0 for a clean file).
    pub dropped_bytes: u64,
}

/// One recovered job: its original id, the request as accepted, and the
/// last terminal state it reached (`None` = unfinished, re-enqueue it).
///
/// A [`JobState::Persisted`] terminal is reported as *unfinished*: a
/// persisted sweep is by definition a resumable checkpoint waiting for a
/// worker, and a durable boot is exactly when it should resume.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// The id the job was accepted under (and recovers under).
    pub id: u64,
    /// The submission, verbatim.
    pub request: SubmitRequest,
    /// Last terminal state + error, `None` when the job never finished.
    pub state: Option<(JobState, Option<String>)>,
}

/// Folds a replayed record sequence into per-job outcomes, in
/// submission order, resolving duplicate terminals last-wins. Terminal
/// records without a matching submission (their submission was
/// compacted away or lost to a torn tail) are dropped — there is
/// nothing to re-enqueue or report for them.
pub fn recover(records: &[JournalRecord]) -> Vec<RecoveredJob> {
    let mut order: Vec<u64> = Vec::new();
    let mut jobs: std::collections::HashMap<u64, RecoveredJob> = std::collections::HashMap::new();
    for record in records {
        match record.kind {
            JournalKind::Submitted => {
                if let Some(request) = &record.request {
                    if !jobs.contains_key(&record.id) {
                        order.push(record.id);
                    }
                    jobs.insert(
                        record.id,
                        RecoveredJob {
                            id: record.id,
                            request: request.clone(),
                            state: None,
                        },
                    );
                }
            }
            JournalKind::Terminal => {
                if let (Some(job), Some(state)) = (jobs.get_mut(&record.id), record.state) {
                    // Persisted = "resumable checkpoint exists"; treat
                    // it as unfinished so the boot path re-enqueues it.
                    job.state = if state == JobState::Persisted {
                        None
                    } else {
                        Some((state, record.error.clone()))
                    };
                }
            }
        }
    }
    order
        .into_iter()
        .filter_map(|id| jobs.remove(&id))
        .collect()
}

/// The minimal record set a fresh journal needs to describe `jobs`:
/// a submission per unfinished job, and submission + terminal pairs for
/// finished jobs that carried an idempotency key (their ids must stay
/// answerable across restarts; keyless finished jobs are dropped).
pub fn live_records(jobs: &[RecoveredJob]) -> Vec<JournalRecord> {
    let mut out = Vec::new();
    for job in jobs {
        match &job.state {
            None => out.push(JournalRecord::submitted(job.id, job.request.clone())),
            Some((state, error)) => {
                if job.request.idempotency_key.is_some() {
                    out.push(JournalRecord::submitted(job.id, job.request.clone()));
                    out.push(JournalRecord::terminal(job.id, *state, error.clone()));
                }
            }
        }
    }
    out
}

/// Encodes one record as a framed line (exposed for the corruption
/// tests, which build journals byte-by-byte).
///
/// # Errors
///
/// Serialisation failures surface as `io::ErrorKind::InvalidData`.
pub fn encode_frame(record: &JournalRecord) -> std::io::Result<Vec<u8>> {
    let payload = serde_json::to_string(record).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("encode record: {e}"),
        )
    })?;
    let payload = payload.into_bytes();
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 1);
    let checksum = fnv1a(FNV_OFFSET, &payload);
    frame.extend_from_slice(format!("EJ1 {:08x} {checksum:016x} ", payload.len()).as_bytes());
    frame.extend_from_slice(&payload);
    frame.push(b'\n');
    Ok(frame)
}

/// Parses a hex field of fixed width. Only canonical lowercase hex is
/// accepted — the writer emits lowercase, so an uppercase digit can only
/// mean a flipped case bit, and treating it as an alternate spelling
/// would let that corruption through undetected.
fn parse_hex(bytes: &[u8]) -> Option<u64> {
    if !bytes
        .iter()
        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b))
    {
        return None;
    }
    let s = std::str::from_utf8(bytes).ok()?;
    u64::from_str_radix(s, 16).ok()
}

/// Decodes a journal byte image into its valid prefix: every
/// fully-framed, checksum-valid record plus how many tail bytes were
/// discarded. Pure — the proptests drive it directly with truncated and
/// bit-flipped images.
pub fn decode(bytes: &[u8]) -> Replay {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            break;
        }
        let Some(frame_len) = decode_frame(rest, &mut records) else {
            break;
        };
        offset += frame_len;
    }
    Replay {
        records,
        dropped_bytes: (bytes.len() - offset) as u64,
    }
}

/// Decodes one frame at the start of `rest`, appending the record on
/// success and returning the frame's total byte length. `None` = torn
/// or corrupt here; the caller stops.
fn decode_frame(rest: &[u8], records: &mut Vec<JournalRecord>) -> Option<usize> {
    if rest.len() < HEADER_LEN || &rest[..4] != MAGIC {
        return None;
    }
    if rest[12] != b' ' || rest[29] != b' ' {
        return None;
    }
    let len = parse_hex(&rest[4..12])? as usize;
    let checksum = parse_hex(&rest[13..29])?;
    let end = HEADER_LEN.checked_add(len)?;
    if rest.len() < end + 1 || rest[end] != b'\n' {
        return None;
    }
    let payload = &rest[HEADER_LEN..end];
    if fnv1a(FNV_OFFSET, payload) != checksum {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let record: JournalRecord = serde_json::from_str(text).ok()?;
    records.push(record);
    Some(end + 1)
}

/// An open, append-only journal. All appends are fsync'd before they
/// return — the durability guarantee the `202` acknowledgement rests on.
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    terminal_appends: AtomicU64,
    /// Current on-disk size (bytes of valid frames); kept in step with
    /// every append and compaction so `/metrics` never has to stat.
    bytes: AtomicU64,
    /// Compactions completed since this handle was opened.
    compactions: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// Opens (creating if missing) the journal at `path`, replays every
    /// valid record, and truncates any torn tail so subsequent appends
    /// start on a clean frame boundary.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; corrupt *content* is never an error
    /// (the valid prefix wins and the rest is dropped).
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(Self, Replay)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let replay = decode(&bytes);
        let good_len = bytes.len() as u64 - replay.dropped_bytes;
        if replay.dropped_bytes > 0 {
            file.set_len(good_len)?;
            file.sync_data()?;
        }
        file.seek(std::io::SeekFrom::Start(good_len))?;
        Ok((
            Self {
                path,
                file: Mutex::new(file),
                terminal_appends: AtomicU64::new(0),
                bytes: AtomicU64::new(good_len),
                compactions: AtomicU64::new(0),
            },
            replay,
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs before returning. Only after this
    /// succeeds may the server acknowledge the event it records.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures — the caller must then *not*
    /// acknowledge the event.
    pub fn append(&self, record: &JournalRecord) -> std::io::Result<()> {
        let frame = encode_frame(record)?;
        let mut file = self.file.lock();
        file.write_all(&frame)?;
        file.sync_data()?;
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Current on-disk size of the journal in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Compactions completed since this journal handle was opened.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Whether enough terminal records have accumulated since the last
    /// compaction to warrant another one. Calling this consumes the
    /// trigger (resets the counter) when it fires.
    pub fn should_compact(&self) -> bool {
        if self.terminal_appends.fetch_add(1, Ordering::Relaxed) + 1 >= COMPACT_EVERY {
            self.terminal_appends.store(0, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Atomically rewrites the journal to exactly `records`: frames are
    /// written to a sibling tmp file, fsync'd, and renamed over the
    /// journal, then the append handle is reopened on the new file. A
    /// crash at any point leaves either the old journal or the new one —
    /// never a mix.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; the old journal stays in place on
    /// failure.
    pub fn compact(&self, records: &[JournalRecord]) -> std::io::Result<()> {
        let mut file = self.file.lock();
        let tmp = self.path.with_extension("tmp");
        {
            let mut out = File::create(&tmp)?;
            for record in records {
                out.write_all(&encode_frame(record)?)?;
            }
            out.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let mut reopened = OpenOptions::new().read(true).write(true).open(&self.path)?;
        let end = reopened.seek(std::io::SeekFrom::End(0))?;
        *file = reopened;
        self.bytes.store(end, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobSpec;
    use ecripse_core::ecripse::EcripseConfig;

    fn request(seed: u64) -> SubmitRequest {
        let config = EcripseConfig {
            seed,
            ..EcripseConfig::default()
        };
        SubmitRequest::new(config, JobSpec::rdf_only(1.0))
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ecripse-journal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = scratch("roundtrip");
        let path = dir.join("journal.jsonl");
        let (journal, replay) = Journal::open(&path).expect("open");
        assert!(replay.records.is_empty());
        journal
            .append(&JournalRecord::submitted(1, request(7)))
            .expect("append");
        journal
            .append(&JournalRecord::submitted(2, request(8)))
            .expect("append");
        journal
            .append(&JournalRecord::terminal(1, JobState::Completed, None))
            .expect("append");
        drop(journal);

        let (_journal, replay) = Journal::open(&path).expect("reopen");
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.dropped_bytes, 0);
        let jobs = recover(&replay.records);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 1);
        assert_eq!(jobs[0].state, Some((JobState::Completed, None)));
        assert_eq!(jobs[1].id, 2);
        assert_eq!(jobs[1].state, None, "job 2 never finished");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = scratch("torn");
        let path = dir.join("journal.jsonl");
        let (journal, _) = Journal::open(&path).expect("open");
        journal
            .append(&JournalRecord::submitted(1, request(1)))
            .expect("append");
        journal
            .append(&JournalRecord::submitted(2, request(2)))
            .expect("append");
        drop(journal);
        // Tear the tail mid-frame (a crash between write and sync).
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("tear");

        let (journal, replay) = Journal::open(&path).expect("reopen");
        assert_eq!(replay.records.len(), 1, "only the intact frame survives");
        assert!(replay.dropped_bytes > 0);
        journal
            .append(&JournalRecord::submitted(3, request(3)))
            .expect("append after truncation");
        drop(journal);
        let (_j, replay) = Journal::open(&path).expect("third open");
        assert_eq!(replay.dropped_bytes, 0, "truncation left a clean file");
        let ids: Vec<u64> = replay.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_payload_is_caught_by_checksum() {
        let dir = scratch("flip");
        let path = dir.join("journal.jsonl");
        let (journal, _) = Journal::open(&path).expect("open");
        journal
            .append(&JournalRecord::submitted(1, request(1)))
            .expect("append");
        journal
            .append(&JournalRecord::submitted(2, request(2)))
            .expect("append");
        drop(journal);
        let mut bytes = std::fs::read(&path).expect("read");
        let target = bytes.len() - 20; // inside the second payload
        bytes[target] ^= 0x08;
        std::fs::write(&path, &bytes).expect("flip");

        let replay = decode(&std::fs::read(&path).expect("read"));
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].id, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_terminal_recovers_as_unfinished() {
        let records = vec![
            JournalRecord::submitted(4, request(4)),
            JournalRecord::terminal(4, JobState::Persisted, None),
        ];
        let jobs = recover(&records);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, None, "persisted sweeps resume on boot");
    }

    #[test]
    fn compaction_keeps_unfinished_and_keyed_terminal_jobs() {
        let mut keyed = request(5);
        keyed.idempotency_key = Some("retry-me".into());
        let records = vec![
            JournalRecord::submitted(1, request(1)),
            JournalRecord::submitted(2, keyed),
            JournalRecord::submitted(3, request(3)),
            JournalRecord::terminal(1, JobState::Completed, None),
            JournalRecord::terminal(2, JobState::Failed, Some("boom".into())),
        ];
        let live = live_records(&recover(&records));
        // Job 1 finished keyless → dropped. Job 2 finished with a key →
        // pair kept. Job 3 unfinished → submission kept.
        let ids: Vec<(JournalKind, u64)> = live.iter().map(|r| (r.kind, r.id)).collect();
        assert_eq!(
            ids,
            vec![
                (JournalKind::Submitted, 2),
                (JournalKind::Terminal, 2),
                (JournalKind::Submitted, 3),
            ]
        );

        let dir = scratch("compact");
        let path = dir.join("journal.jsonl");
        let (journal, _) = Journal::open(&path).expect("open");
        for record in &records {
            journal.append(record).expect("append");
        }
        journal.compact(&live).expect("compact");
        // The handle stays usable after the rename swap.
        journal
            .append(&JournalRecord::terminal(3, JobState::Completed, None))
            .expect("append after compact");
        drop(journal);
        let (_j, replay) = Journal::open(&path).expect("reopen");
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.dropped_bytes, 0);
        let jobs = recover(&replay.records);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 2);
        assert_eq!(jobs[1].id, 3);
        assert_eq!(jobs[1].state, Some((JobState::Completed, None)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_and_compaction_counters_track_the_file() {
        let dir = scratch("counters");
        let path = dir.join("journal.jsonl");
        let (journal, _) = Journal::open(&path).expect("open");
        assert_eq!(journal.bytes(), 0);
        assert_eq!(journal.compactions(), 0);
        journal
            .append(&JournalRecord::submitted(1, request(1)))
            .expect("append");
        journal
            .append(&JournalRecord::terminal(1, JobState::Completed, None))
            .expect("append");
        let on_disk = std::fs::metadata(&path).expect("stat").len();
        assert_eq!(journal.bytes(), on_disk, "append keeps the size in step");

        // Compacting an unkeyed finished job empties the journal.
        journal.compact(&[]).expect("compact");
        assert_eq!(journal.compactions(), 1);
        assert_eq!(journal.bytes(), 0);
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 0);

        // A reopened handle starts from the on-disk size again.
        journal
            .append(&JournalRecord::submitted(2, request(2)))
            .expect("append");
        let size = journal.bytes();
        drop(journal);
        let (journal, _) = Journal::open(&path).expect("reopen");
        assert_eq!(journal.bytes(), size);
        assert_eq!(journal.compactions(), 0, "compactions count per handle");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_trigger_fires_every_n_terminals() {
        let dir = scratch("trigger");
        let (journal, _) = Journal::open(dir.join("j.jsonl")).expect("open");
        let mut fired = 0;
        for _ in 0..(2 * COMPACT_EVERY) {
            if journal.should_compact() {
                fired += 1;
            }
        }
        assert_eq!(fired, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
