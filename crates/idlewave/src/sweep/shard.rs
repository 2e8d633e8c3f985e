//! Sharded crash-safe result persistence.
//!
//! During a sweep every scenario's terminal record is appended to one of
//! `N` per-shard JSONL files (`<out>.shard-K.jsonl`, `K = index % N`) the
//! moment it finishes — flushed per line, optionally fsynced
//! ([`crate::sweep::SweepOptions::fsync`]), so a crash of the sweep
//! process loses at most the scenarios still in flight. Which *worker*
//! ran a scenario never matters: the shard is a function of the
//! scenario's input index, so steal order cannot move records between
//! files.
//!
//! The suite's config-fingerprint header lives in `<out>.manifest`
//! (written atomically before any scenario runs) so a resume after a
//! crash can still validate configs. On completion the fabric merges
//! everything into the final `<out>` report — header line plus one
//! record per scenario in input order, written to a temp file and
//! renamed into place — then deletes the manifest and shard files.
//! Readers of `<out>` therefore only ever see a complete report;
//! mid-sweep state is always reconstructible from manifest + shards.
//!
//! Torn writes are expected, not fatal: a reopened shard file gets its
//! unterminated tail newline-terminated so the next record starts on a
//! fresh line, and the loaders skip unparseable tails byte-safely (a
//! line may be cut mid-UTF-8-codepoint). Parseable records whose status
//! string is unknown (written by a future version) are *surfaced* as
//! warnings instead of silently vanishing — their scenarios re-run.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use tracefmt::json::{self, FromJson, Json};

use super::{ScenarioResult, ScenarioStatus};

/// The per-shard sink file for shard `k` of the report at `out`.
pub(crate) fn shard_path(out: &Path, k: usize) -> PathBuf {
    sibling(out, &format!(".shard-{k}.jsonl"))
}

/// The manifest file carrying the header line while shards are live.
pub(crate) fn manifest_path(out: &Path) -> PathBuf {
    sibling(out, ".manifest")
}

/// `<out><suffix>` next to the report file.
fn sibling(out: &Path, suffix: &str) -> PathBuf {
    let mut name = out
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "sweep".to_string());
    name.push_str(suffix);
    out.with_file_name(name)
}

/// Every existing shard file of `out`, in shard order — including shards
/// beyond the current run's count, left behind by a crashed run with a
/// different sharding.
pub(crate) fn existing_shard_files(out: &Path) -> io::Result<Vec<PathBuf>> {
    let dir = match out.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!(
        "{}.shard-",
        out.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "sweep".to_string())
    );
    let mut found: Vec<(usize, PathBuf)> = Vec::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(k) = rest
            .strip_suffix(".jsonl")
            .and_then(|digits| digits.parse::<usize>().ok())
        else {
            continue;
        };
        found.push((k, entry.path()));
    }
    found.sort();
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

/// One shard's append-only sink.
pub(crate) struct ShardSink {
    file: std::fs::File,
    fsync: bool,
}

impl ShardSink {
    /// Open (or create) the sink in append mode, repairing a torn tail: a
    /// crash mid-write can leave a final line with no newline — possibly
    /// cut mid-UTF-8-codepoint — so the tail is newline-terminated and
    /// the next record starts on a fresh line.
    pub(crate) fn open(path: &Path, fsync: bool) -> io::Result<ShardSink> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)
            .map_err(|e| with_path(path, e))?;
        // Inspect the tail through the open handle, not the path — the
        // handle stays valid whatever happens to the directory entry.
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| with_path(path, e))?;
        if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
            file.write_all(b"\n").map_err(|e| with_path(path, e))?;
            file.flush().map_err(|e| with_path(path, e))?;
        }
        Ok(ShardSink { file, fsync })
    }

    /// Append one record and flush it before acknowledging; with `fsync`,
    /// additionally push it to stable storage so even an OS-level crash
    /// immediately after the acknowledgement cannot lose it.
    pub(crate) fn persist(&mut self, result: &ScenarioResult) -> io::Result<()> {
        self.file.write_all(json::to_string(result).as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// Annotate a bare OS error with the path it was about, so a harness
/// failure surfaces as "<path>: No such file ..." instead of an
/// undiagnosable raw errno.
fn with_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Write `contents` atomically: temp file + rename, so readers only ever
/// see a complete file.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| with_path(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| with_path(path, e))
}

/// Merge a finished sweep into the final report at `out` — header line
/// plus one record per scenario in input order, atomically — then delete
/// the manifest and every shard file. A crash *before* the rename leaves
/// the previous `out` (if any) plus the complete shard set; a crash
/// *after* it leaves at worst orphaned shard files a later run deletes.
pub(crate) fn merge(out: &Path, header: &Json, results: &[ScenarioResult]) -> io::Result<()> {
    let mut text = json::to_string(header);
    text.push('\n');
    for r in results {
        text.push_str(&json::to_string(r));
        text.push('\n');
    }
    write_atomic(out, &text)?;
    let _ = std::fs::remove_file(manifest_path(out));
    for shard in existing_shard_files(out)? {
        let _ = std::fs::remove_file(shard);
    }
    Ok(())
}

/// Reload persisted records leniently. Unparseable lines are skipped, not
/// fatal: that covers the header line (not a record), a torn final line
/// after a crash mid-write, and — because the file is read as bytes and
/// each line checked for UTF-8 individually — a final line truncated
/// *mid-UTF-8-codepoint*, which would make the whole file unreadable via
/// `read_to_string`.
pub fn load_results(path: &Path) -> io::Result<Vec<ScenarioResult>> {
    load_results_checked(path).map(|(results, _)| results)
}

/// [`load_results`], but records that *parse* as JSON objects with an
/// `id` and still fail to decode — most importantly an unknown
/// `status` written by a future version — come back as warnings instead
/// of silently vanishing. Their scenarios simply re-run; the warning
/// tells the operator why.
pub(crate) fn load_results_checked(path: &Path) -> io::Result<(Vec<ScenarioResult>, Vec<String>)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), Vec::new())),
        Err(e) => return Err(e),
    };
    let mut results = Vec::new();
    let mut warnings = Vec::new();
    for line in bytes.split(|&b| b == b'\n') {
        // Torn tails may not be UTF-8 or JSON at all: skip silently.
        let Ok(text) = std::str::from_utf8(line) else {
            continue;
        };
        let Ok(v) = Json::parse(text) else {
            continue;
        };
        match ScenarioResult::from_json(&v) {
            Ok(r) => results.push(r),
            Err(e) => {
                // Header and other non-record lines have no id; a line
                // *with* one is a record this version cannot honour —
                // say so instead of dropping it on the floor.
                if let Some(id) = v.get("id").and_then(|j| j.as_str()) {
                    let status = v
                        .get("status")
                        .and_then(|j| j.as_str())
                        .unwrap_or("<missing>");
                    let known = ScenarioStatus::from_json(&Json::Str(status.into())).is_ok();
                    warnings.push(format!(
                        "scenario '{id}': undecodable record in {} ({}) — \
                         ignoring it and re-running the scenario",
                        path.display(),
                        if known {
                            e.0.clone()
                        } else {
                            format!("unknown status '{status}', written by a newer version?")
                        }
                    ));
                }
            }
        }
    }
    Ok((results, warnings))
}

/// Everything a crashed or finished sweep left behind for `out`: records
/// from the merged report (if one exists) overlaid with records from
/// every surviving shard file, deduplicated by scenario id (shard
/// records win — they are at least as new as a stale merged report).
pub(crate) fn load_previous(out: &Path) -> io::Result<(Vec<ScenarioResult>, Vec<String>)> {
    let (mut results, mut warnings) = load_results_checked(out)?;
    for shard in existing_shard_files(out)? {
        let (shard_results, shard_warnings) = load_results_checked(&shard)?;
        warnings.extend(shard_warnings);
        for r in shard_results {
            if let Some(slot) = results.iter_mut().find(|have| have.id == r.id) {
                *slot = r;
            } else {
                results.push(r);
            }
        }
    }
    Ok((results, warnings))
}
