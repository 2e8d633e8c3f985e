//! The crash-safe job journal behind `wavesim serve`.
//!
//! One append-only JSONL file (`journal.jsonl` in the serve directory)
//! records the service's durable state transitions: a `job` line when a
//! submission is admitted (written *before* the client sees `accepted`,
//! so an acknowledged job can never be lost), and a `done` line when it
//! reaches a terminal record. Replaying the file yields exactly the
//! restart obligations: jobs without a `done` are pending and re-run —
//! bit-identically, because the simulator is deterministic — and
//! completed records are kept addressable for `query`.
//!
//! The same torn-write discipline as the sweep's shard sinks
//! (`sweep::shard`): append + flush (optionally fsync) per line, tail
//! repair through the open handle on reopen, and byte-safe lenient
//! replay. On top of that, every line carries an FNV-1a digest of its
//! record — the journal's per-line version of the footer-verified
//! snapshot documents — so a half-flushed or bit-damaged line is
//! *detected* and skipped with a warning instead of silently decoding to
//! garbage.
//!
//! The journal is also where `query` answers come from: it keeps only a
//! `(fnv1a(id), byte offset)` pair per `done` line in memory and reads
//! the record back from the file on demand, so the service's resident
//! cost per completed job does not depend on the record size.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};
use std::path::Path;

use tracefmt::fnv1a_64;
use tracefmt::json::{FromJson, Json, ToJson};

use crate::sweep::{Scenario, ScenarioResult};

/// Version tag on every journal line.
pub(crate) const JOURNAL_FORMAT: u64 = 1;

/// One durable state transition.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JournalRecord {
    /// A submission passed admission under this job number.
    Job {
        /// Monotonic job number.
        job: u64,
        /// The admitted scenario, boxed: it dwarfs a `Done` record.
        scenario: Box<Scenario>,
    },
    /// The job reached a terminal record.
    Done {
        /// The job number from the matching [`JournalRecord::Job`] line.
        job: u64,
        /// The terminal record, byte-identical to a sweep's.
        result: ScenarioResult,
    },
}

tracefmt::json_codec! {
    enum JournalRecord in "type" {
        Job { job, scenario } = "job",
        Done { job, result } = "done",
    }
}

/// What a replay of the journal found.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    /// Admitted jobs without a `done` line, in job order: the restart
    /// obligations.
    pub pending: Vec<(u64, Scenario)>,
    /// The next unused job number.
    pub next_job: u64,
    /// Lines that were skipped (torn tail, digest mismatch, unknown
    /// future record) — surfaced, never silently dropped.
    pub warnings: Vec<String>,
}

/// The open append handle and the `query` index over its `done` lines.
///
/// The index holds one `(key, offset)` pair per `done` line, the key
/// being `fnv1a(id)`. A lookup walks its key's offsets newest first and
/// reads each line back until one decodes, verified, to a record with
/// the wanted id; a hash collision or a damaged line just moves it on to
/// the next offset. A record whose `done` append failed is held in
/// memory instead, so `query` still answers it in this lifetime.
pub(crate) struct Journal {
    file: std::fs::File,
    fsync: bool,
    /// The file's length: the offset the next appended line starts at.
    len: u64,
    done_lines: BTreeSet<(u64, u64)>,
    unjournaled: BTreeMap<String, ScenarioResult>,
    /// The index key of an id: [`index_key`], except in collision tests.
    key: fn(&str) -> u64,
}

fn index_key(id: &str) -> u64 {
    fnv1a_64(id.as_bytes())
}

impl Journal {
    /// Open (or create) `dir/journal.jsonl`, repair a torn tail through
    /// the open handle, and replay the surviving lines into the restart
    /// obligations and the `query` index.
    pub(crate) fn open(dir: &Path, fsync: bool) -> io::Result<(Journal, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("journal.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut len = bytes.len() as u64;
        if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
            file.write_all(b"\n")?;
            file.flush()?;
            len += 1;
        }
        let (recovery, done_lines) = replay(&bytes, &path);
        let journal = Journal {
            file,
            fsync,
            len,
            done_lines,
            unjournaled: BTreeMap::new(),
            key: index_key,
        };
        Ok((journal, recovery))
    }

    /// Append one record, flushed (and optionally fsynced) before the
    /// caller acknowledges anything downstream of it. Returns the byte
    /// offset the record's line starts at.
    pub(crate) fn append(&mut self, record: &JournalRecord) -> io::Result<u64> {
        let rec = record.to_json();
        let digest = fnv1a_64(rec.dump().as_bytes());
        let mut line = Json::obj(vec![
            ("journal_format", JOURNAL_FORMAT.to_json()),
            ("digest", digest.to_json()),
            ("rec", rec),
        ])
        .dump();
        line.push('\n');
        let offset = self.len;
        if let Err(e) = self.file.write_all(line.as_bytes()) {
            // A partial write moved the end of the file by an unknown
            // amount; later offsets must still point at line starts.
            self.len = self.file.metadata().map_or(self.len, |m| m.len());
            return Err(e);
        }
        self.len += line.len() as u64;
        self.file.flush()?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(offset)
    }

    /// Read back the line starting at `offset` and decode it as a
    /// verified record; `Err` names why the line is unusable.
    fn read_at(&self, offset: u64) -> Result<JournalRecord, String> {
        // Appends go to the end whatever the read position (O_APPEND).
        let mut reader = io::BufReader::new(&self.file);
        let mut line = Vec::new();
        reader
            .seek(SeekFrom::Start(offset))
            .and_then(|_| reader.read_until(b'\n', &mut line))
            .map_err(|e| e.to_string())?;
        if line.pop() != Some(b'\n') {
            return Err("no complete line at this offset".to_string());
        }
        decode_line(&line)
    }

    /// Journal `result` as job `job`'s terminal record and make it the
    /// answer to `query` for its id — from memory if the append fails.
    pub(crate) fn complete(&mut self, job: u64, result: &ScenarioResult) -> io::Result<()> {
        let appended = self.append(&JournalRecord::Done {
            job,
            result: result.clone(),
        });
        match appended {
            Ok(offset) => {
                self.done_lines.insert(((self.key)(&result.id), offset));
                self.unjournaled.remove(&result.id);
                Ok(())
            }
            Err(e) => {
                self.unjournaled.insert(result.id.clone(), result.clone());
                Err(e)
            }
        }
    }

    /// The latest terminal record for `id`, if any.
    pub(crate) fn lookup(&self, id: &str) -> Option<ScenarioResult> {
        if let Some(record) = self.unjournaled.get(id) {
            return Some(record.clone());
        }
        let key = (self.key)(id);
        // A line that no longer verifies is skipped here, not warned
        // about: repeated queries must not grow the warning list. The
        // next restart's replay reports it.
        self.done_lines
            .range((key, 0)..=(key, u64::MAX))
            .rev()
            .find_map(|&(_, offset)| match self.read_at(offset) {
                Ok(JournalRecord::Done { result, .. }) if result.id == id => Some(result),
                _ => None,
            })
    }

    /// Index every id under one key, forcing collisions.
    #[cfg(test)]
    fn collide_all_keys(&mut self) {
        assert!(self.done_lines.is_empty(), "set the key before indexing");
        self.key = |_| 0;
    }
}

/// Decode one journal line (newline excluded), checking its digest.
fn decode_line(line: &[u8]) -> Result<JournalRecord, String> {
    // A torn tail may be cut mid-UTF-8-codepoint or mid-JSON: both are
    // expected crash artifacts.
    let text = std::str::from_utf8(line).map_err(|_| "not UTF-8 (torn tail)")?;
    let v = Json::parse(text).map_err(|_| "unparseable (torn tail)")?;
    let (Some(digest), Some(body)) = (v.get("digest").and_then(Json::as_u64), v.get("rec")) else {
        return Err("missing digest or rec".to_string());
    };
    if fnv1a_64(body.dump().as_bytes()) != digest {
        return Err("digest mismatch".to_string());
    }
    JournalRecord::from_json(body).map_err(|e| e.0)
}

/// Lenient, digest-checking replay of the journal bytes: the recovery
/// plus the `query` index entries of the completed records.
fn replay(bytes: &[u8], path: &Path) -> (Recovery, BTreeSet<(u64, u64)>) {
    let mut rec = Recovery::default();
    let mut jobs: Vec<(u64, Scenario)> = Vec::new();
    let mut done: BTreeSet<u64> = BTreeSet::new();
    let mut done_lines = BTreeSet::new();
    let mut offset = 0u64;
    for (lineno, line) in bytes.split(|&b| b == b'\n').enumerate() {
        let start = offset;
        offset += line.len() as u64 + 1;
        if line.is_empty() {
            continue;
        }
        match decode_line(line) {
            Ok(JournalRecord::Job { job, scenario }) => {
                rec.next_job = rec.next_job.max(job + 1);
                jobs.push((job, *scenario));
            }
            Ok(JournalRecord::Done { job, result }) => {
                rec.next_job = rec.next_job.max(job + 1);
                done.insert(job);
                done_lines.insert((index_key(&result.id), start));
            }
            Err(why) => rec.warnings.push(skipped(path, lineno, &why)),
        }
    }
    jobs.sort_by_key(|&(job, _)| job);
    rec.pending = jobs
        .into_iter()
        .filter(|(job, _)| !done.contains(job))
        .collect();
    (rec, done_lines)
}

fn skipped(path: &Path, lineno: usize, why: &str) -> String {
    format!(
        "journal {} line {}: skipped — {why}",
        path.display(),
        lineno + 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ScenarioStatus;
    use mpisim::SimConfig;
    use netmodel::presets;
    use std::path::PathBuf;
    use workload::{Boundary, CommPattern, Direction};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wavesim-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn scenario(id: &str) -> Scenario {
        Scenario::new(
            id,
            SimConfig::baseline(
                presets::loggopsim_like(4),
                CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Periodic),
                3,
            ),
        )
    }

    fn result(id: &str) -> ScenarioResult {
        ScenarioResult {
            id: id.into(),
            status: ScenarioStatus::Ok,
            attempts: 1,
            error: None,
            summary: None,
            config_fingerprint: Some(1),
        }
    }

    #[test]
    fn replay_separates_pending_from_completed() {
        let dir = tmp("replay");
        {
            let (mut j, rec) = Journal::open(&dir, false).expect("open");
            assert_eq!(rec.next_job, 0);
            j.append(&JournalRecord::Job {
                job: 0,
                scenario: Box::new(scenario("a")),
            })
            .expect("append");
            j.append(&JournalRecord::Job {
                job: 1,
                scenario: Box::new(scenario("b")),
            })
            .expect("append");
            j.append(&JournalRecord::Done {
                job: 0,
                result: result("a"),
            })
            .expect("append");
        }
        let (j, rec) = Journal::open(&dir, false).expect("reopen");
        assert_eq!(rec.next_job, 2);
        assert_eq!(j.lookup("a"), Some(result("a")));
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.pending[0].0, 1);
        assert_eq!(rec.pending[0].1.id, "b");
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_and_bit_damage_are_skipped_with_warnings() {
        let dir = tmp("torn");
        {
            let (mut j, _) = Journal::open(&dir, false).expect("open");
            j.append(&JournalRecord::Job {
                job: 0,
                scenario: Box::new(scenario("a")),
            })
            .expect("append");
            j.append(&JournalRecord::Done {
                job: 0,
                result: result("a"),
            })
            .expect("append");
        }
        let path = dir.join("journal.jsonl");
        let mut bytes = std::fs::read(&path).expect("read back");
        // Flip one content byte of the *done* line so its digest fails,
        // then append a torn half-line with an invalid UTF-8 tail.
        let second_line = bytes.iter().position(|&b| b == b'\n').expect("newline") + 1;
        let flip = second_line
            + bytes[second_line..]
                .windows(4)
                .position(|w| w == b"\"ok\"")
                .expect("status text")
            + 1;
        bytes[flip] ^= 0x20;
        bytes.extend(b"{\"journal_format\":1,\"digest\":9,\"rec\"\xff");
        std::fs::write(&path, bytes).expect("rewrite");

        let (j, rec) = Journal::open(&dir, false).expect("reopen");
        // The damaged done line is ignored, so job 0 is pending again —
        // re-running it is always safe (determinism) and never wrong.
        assert_eq!(rec.pending.len(), 1, "{:?}", rec.warnings);
        assert_eq!(j.lookup("a"), None);
        assert!(
            rec.warnings.iter().any(|w| w.contains("digest mismatch")),
            "{:?}",
            rec.warnings
        );
        assert!(
            rec.warnings.iter().any(|w| w.contains("torn tail")),
            "{:?}",
            rec.warnings
        );
        // The reopen newline-terminated the torn tail: the next append
        // starts on a fresh line and replays cleanly.
        let (mut j, _) = Journal::open(&dir, false).expect("third open");
        j.append(&JournalRecord::Done {
            job: 0,
            result: result("a"),
        })
        .expect("append after repair");
        let (j, rec) = Journal::open(&dir, false).expect("fourth open");
        assert!(rec.pending.is_empty());
        assert_eq!(j.lookup("a"), Some(result("a")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_before_job_is_tolerated() {
        // The worker may journal `done` concurrently with nothing else —
        // a future version interleaving differently must still replay.
        let dir = tmp("order");
        {
            let (mut j, _) = Journal::open(&dir, false).expect("open");
            j.append(&JournalRecord::Done {
                job: 5,
                result: result("z"),
            })
            .expect("append");
        }
        let (j, rec) = Journal::open(&dir, false).expect("reopen");
        assert!(rec.pending.is_empty());
        assert_eq!(j.lookup("z"), Some(result("z")));
        assert_eq!(rec.next_job, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn result_attempts(id: &str, attempts: u32) -> ScenarioResult {
        ScenarioResult {
            attempts,
            ..result(id)
        }
    }

    #[test]
    fn query_answers_each_id_with_its_latest_record_across_a_reopen() {
        let dir = tmp("index-latest");
        let (mut j, _) = Journal::open(&dir, false).expect("open");
        j.complete(0, &result_attempts("a", 1)).expect("a");
        j.complete(1, &result_attempts("b", 1)).expect("b");
        j.complete(2, &result_attempts("a", 2)).expect("a again");
        assert_eq!(j.lookup("a"), Some(result_attempts("a", 2)));
        assert_eq!(j.lookup("b"), Some(result_attempts("b", 1)));
        assert_eq!(j.lookup("c"), None);
        drop(j);

        let (mut j, rec) = Journal::open(&dir, false).expect("reopen");
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        assert_eq!(j.lookup("a"), Some(result_attempts("a", 2)));
        assert_eq!(j.lookup("b"), Some(result_attempts("b", 1)));
        // Offsets taken from the replay and from this lifetime's appends
        // index the same file.
        j.complete(3, &result_attempts("b", 3)).expect("b again");
        assert_eq!(j.lookup("b"), Some(result_attempts("b", 3)));
        assert_eq!(j.lookup("a"), Some(result_attempts("a", 2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_done_line_damaged_after_indexing_reads_as_no_result() {
        let dir = tmp("index-damage");
        let (mut j, _) = Journal::open(&dir, false).expect("open");
        j.complete(0, &result("a")).expect("a");
        j.complete(1, &result("b")).expect("b");
        j.complete(2, &result("c")).expect("c");
        let path = dir.join("journal.jsonl");
        let mut bytes = std::fs::read(&path).expect("read back");
        // Turn a's `attempts` from 1 into 3: the line still decodes to a
        // record for "a", and only its digest shows the damage.
        let flip = bytes
            .windows(12)
            .position(|w| w == b"\"attempts\":1")
            .expect("a's attempts")
            + 11;
        bytes[flip] ^= 0x02;
        // Cut the file inside c's line.
        let c_line = bytes
            .windows(5)
            .rposition(|w| w == b"\"c\",\"")
            .expect("c's id");
        bytes.truncate(c_line);
        std::fs::write(&path, bytes).expect("rewrite");

        assert_eq!(j.lookup("a"), None);
        assert_eq!(j.lookup("b"), Some(result("b")));
        assert_eq!(j.lookup("c"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_sharing_an_index_key_each_find_their_own_record() {
        let dir = tmp("index-collide");
        let (mut j, _) = Journal::open(&dir, false).expect("open");
        j.collide_all_keys();
        j.complete(0, &result_attempts("a", 1)).expect("a");
        j.complete(1, &result_attempts("b", 1)).expect("b");
        j.complete(2, &result_attempts("a", 2)).expect("a again");
        j.complete(3, &result_attempts("c", 1)).expect("c");
        assert_eq!(j.lookup("a"), Some(result_attempts("a", 2)));
        assert_eq!(j.lookup("b"), Some(result_attempts("b", 1)));
        assert_eq!(j.lookup("c"), Some(result_attempts("c", 1)));
        assert_eq!(j.lookup("d"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_whose_append_failed_is_answered_from_memory() {
        let dir = tmp("index-unjournaled");
        let (mut j, _) = Journal::open(&dir, false).expect("open");
        j.complete(0, &result_attempts("a", 1)).expect("a");
        // Swap in a read-only handle: every append now fails.
        let path = dir.join("journal.jsonl");
        j.file = std::fs::File::open(&path).expect("read-only handle");
        j.complete(1, &result_attempts("a", 2))
            .expect_err("append to a read-only handle fails");
        assert_eq!(j.lookup("a"), Some(result_attempts("a", 2)));
        // Once appends work again, a journaled record supersedes it.
        j.file = std::fs::OpenOptions::new()
            .append(true)
            .read(true)
            .open(&path)
            .expect("append handle");
        j.complete(2, &result_attempts("a", 3)).expect("a");
        assert_eq!(j.lookup("a"), Some(result_attempts("a", 3)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
