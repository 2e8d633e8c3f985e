//! The content-addressed sweep result cache.
//!
//! A scenario whose config fingerprint ([`mpisim::config_fingerprint`],
//! FNV-1a of the canonical config JSON) was already simulated to a clean
//! completion does not need to be simulated again: the cache stores, per
//! fingerprint, everything the persisted [`ScenarioResult`] needs —
//! attempts and [`RunSummary`] — so a cache-served record is
//! *byte-identical* to the record the original computation persisted.
//! That property is what lets the self-chaos drill demand bit-identical
//! merged reports across cold and warm caches.
//!
//! Entries are never trusted blindly:
//!
//! * every entry is a two-line footered document
//!   ([`tracefmt::digest::encode_footered`]) whose FNV-1a footer is
//!   verified on load — torn or bit-flipped entries are **quarantined**
//!   (moved into `quarantine/`, kept for post-mortems) and the scenario
//!   is re-simulated;
//! * the entry body embeds the full canonical config JSON, which is
//!   compared against the scenario's — a *fingerprint collision* (or a
//!   corrupted-but-digest-valid file planted by a buggy tool) is
//!   quarantined the same way instead of serving a different config's
//!   numbers (`SC027` warns about it in pre-flight).
//!
//! Only clean results are cached: terminal status `ok`, no harness chaos
//! on the scenario, no explicit per-scenario watchdog override, and no
//! run-aborting event cap — anything else makes the outcome depend on
//! more than the config, which is all the key hashes.
//!
//! Writes are atomic (temp + rename); a crash mid-store leaves at worst
//! a stale `.tmp` next to the previous complete entry.

use std::io;
use std::path::{Path, PathBuf};

use tracefmt::digest::{decode_footered, encode_footered};
use tracefmt::json::{self, FromJson, Json, ToJson};

use super::RunSummary;

/// The footer key of a cache entry's integrity line.
const FOOTER_KEY: &str = "cache_digest";

/// Version tag inside every entry body.
const CACHE_FORMAT: u64 = 1;

/// A directory of verified, fingerprint-addressed sweep results.
pub(crate) struct ResultCache {
    dir: PathBuf,
}

/// Outcome of a cache lookup.
pub(crate) enum Lookup {
    /// A verified entry for this exact config: serve it without running.
    Hit {
        /// Attempts recorded by the original computation.
        attempts: u32,
        /// The original run's summary.
        summary: RunSummary,
    },
    /// No entry — simulate and store.
    Miss,
    /// An entry existed but failed verification (torn, bit-flipped, or a
    /// different config behind the same fingerprint); it was moved to
    /// `quarantine/` and the scenario re-simulates.
    Quarantined(String),
}

impl ResultCache {
    /// Open the cache, creating the directory if missing and probing it
    /// for writability — an unwritable cache dir surfaces as `Err` (the
    /// caller degrades to an uncached sweep with an `SC026` warning)
    /// instead of failing every store mid-sweep.
    ///
    /// A directory this call just created is ours and writable (the
    /// `mkdir` succeeded), so it skips the probe file unless its
    /// permissions say read-only; a directory that already existed is
    /// always probed.
    pub(crate) fn open(dir: &Path) -> Result<ResultCache, String> {
        let made = match std::fs::create_dir(dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => dir
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::create_dir(dir)),
            made => made,
        };
        let fresh = match made {
            Ok(()) => true,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => false,
            Err(e) => return Err(e.to_string()),
        };
        if !fresh || std::fs::metadata(dir).map_or(true, |m| m.permissions().readonly()) {
            let probe = dir.join(".probe.tmp");
            std::fs::write(&probe, b"probe")
                .and_then(|()| std::fs::remove_file(&probe))
                .map_err(|e| e.to_string())?;
        }
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The entry file for a config fingerprint.
    pub(crate) fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.entry"))
    }

    /// Look up `fingerprint`, verifying integrity and that the stored
    /// config is byte-for-byte `config_json`.
    pub(crate) fn lookup(&self, config_json: &str, fingerprint: u64) -> Lookup {
        let path = self.entry_path(fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return self.quarantine(fingerprint, format!("unreadable entry: {e}")),
        };
        let body = match decode_footered(&bytes, FOOTER_KEY) {
            Ok(b) => b,
            Err(reason) => return self.quarantine(fingerprint, reason),
        };
        match parse_entry(body, config_json) {
            Ok((attempts, summary)) => Lookup::Hit { attempts, summary },
            Err(reason) => self.quarantine(fingerprint, reason),
        }
    }

    /// Store a clean result under `fingerprint`, atomically.
    pub(crate) fn store(
        &self,
        config_json: &str,
        fingerprint: u64,
        attempts: u32,
        summary: &RunSummary,
    ) -> io::Result<()> {
        let body = json::to_string(&Json::obj(vec![
            ("cache_format", CACHE_FORMAT.to_json()),
            ("config_fingerprint", fingerprint.to_json()),
            ("config", Json::Str(config_json.to_string())),
            ("attempts", attempts.to_json()),
            ("summary", summary.to_json()),
        ]));
        let doc = encode_footered(&body, FOOTER_KEY);
        let path = self.entry_path(fingerprint);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, doc)?;
        std::fs::rename(&tmp, path)
    }

    /// Move a failed entry into `quarantine/` (best-effort — if even the
    /// rename fails, fall back to deleting it so it cannot be served
    /// next time) and report why.
    fn quarantine(&self, fingerprint: u64, reason: String) -> Lookup {
        let path = self.entry_path(fingerprint);
        let qdir = self.dir.join("quarantine");
        let moved = std::fs::create_dir_all(&qdir).is_ok()
            && std::fs::rename(&path, qdir.join(format!("{fingerprint:016x}.entry"))).is_ok();
        if !moved {
            let _ = std::fs::remove_file(&path);
        }
        Lookup::Quarantined(reason)
    }

    /// Pre-flight collision scan for `SC027`: fingerprints whose cached
    /// entry verifies but stores a *different* config. The run-time
    /// lookup would quarantine these anyway; the pre-flight warning
    /// names them before any cycles are spent.
    pub(crate) fn collisions<'a>(
        &self,
        entries: impl Iterator<Item = (&'a str, &'a str, u64)>,
    ) -> Vec<(String, u64)> {
        let mut hits = Vec::new();
        for (id, config_json, fingerprint) in entries {
            let Ok(bytes) = std::fs::read(self.entry_path(fingerprint)) else {
                continue;
            };
            let Ok(body) = decode_footered(&bytes, FOOTER_KEY) else {
                continue; // corrupt, not a collision: run-time quarantine handles it
            };
            if matches!(&parse_entry(body, config_json), Err(reason) if reason.contains("different config"))
            {
                hits.push((id.to_string(), fingerprint));
            }
        }
        hits
    }
}

/// Decode a verified entry body and check it stores exactly this config.
fn parse_entry(body: &str, config_json: &str) -> Result<(u32, RunSummary), String> {
    let v = Json::parse(body).map_err(|e| format!("entry body is not JSON: {}", e.0))?;
    let format = v
        .get("cache_format")
        .and_then(|j| j.as_u64())
        .ok_or("entry has no cache_format")?;
    if format != CACHE_FORMAT {
        return Err(format!(
            "entry cache_format {format} is not the supported {CACHE_FORMAT}"
        ));
    }
    let stored = v
        .get("config")
        .and_then(|j| j.as_str())
        .ok_or("entry has no config")?;
    if stored != config_json {
        return Err("entry stores a different config behind this fingerprint \
             (FNV collision or planted entry)"
            .to_string());
    }
    let attempts = v
        .get("attempts")
        .and_then(|j| j.as_u64())
        .ok_or("entry has no attempts")? as u32;
    let summary = v
        .field("summary")
        .map_err(|e| e.0.clone())
        .and_then(|s| RunSummary::from_json(s).map_err(|e| e.0))?;
    Ok((attempts, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RunSummary {
        RunSummary {
            runtime_ns: 42,
            events: 7,
            messages: 3,
            retransmissions: 0,
            dropped: 0,
            corrupted: 0,
            trace_fingerprint: 0xdead_beef,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("idlewave-cache-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = ResultCache::open(&tmp("round_trip")).expect("writable");
        let cfg = "{\"ranks\":4}";
        let fp = tracefmt::fnv1a_64(cfg.as_bytes());
        assert!(matches!(cache.lookup(cfg, fp), Lookup::Miss));
        cache.store(cfg, fp, 2, &summary()).expect("store");
        match cache.lookup(cfg, fp) {
            Lookup::Hit {
                attempts,
                summary: s,
            } => {
                assert_eq!(attempts, 2);
                assert_eq!(s, summary());
            }
            _ => panic!("expected a hit"),
        }
    }

    #[test]
    fn bit_flips_are_quarantined_and_not_served_twice() {
        let dir = tmp("bit_flip");
        let cache = ResultCache::open(&dir).expect("writable");
        let cfg = "{\"ranks\":8}";
        let fp = tracefmt::fnv1a_64(cfg.as_bytes());
        cache.store(cfg, fp, 1, &summary()).expect("store");
        let path = cache.entry_path(fp);
        let mut bytes = std::fs::read(&path).expect("entry");
        bytes[10] ^= 0x20;
        std::fs::write(&path, &bytes).expect("corrupt");
        match cache.lookup(cfg, fp) {
            Lookup::Quarantined(reason) => assert!(reason.contains("mismatch"), "{reason}"),
            _ => panic!("corruption must quarantine"),
        }
        assert!(!path.exists(), "entry must be moved out of the way");
        assert!(
            dir.join("quarantine")
                .join(format!("{fp:016x}.entry"))
                .exists(),
            "quarantined entry kept for post-mortems"
        );
        assert!(matches!(cache.lookup(cfg, fp), Lookup::Miss));
    }

    #[test]
    fn truncation_and_collisions_are_quarantined() {
        let dir = tmp("torn");
        let cache = ResultCache::open(&dir).expect("writable");
        let cfg = "{\"ranks\":16}";
        let fp = tracefmt::fnv1a_64(cfg.as_bytes());
        cache.store(cfg, fp, 1, &summary()).expect("store");
        let path = cache.entry_path(fp);
        let bytes = std::fs::read(&path).expect("entry");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(matches!(cache.lookup(cfg, fp), Lookup::Quarantined(_)));

        // A verified entry that stores a *different* config behind this
        // fingerprint: valid footer, wrong payload.
        let other = "{\"ranks\":32}";
        cache.store(other, fp, 1, &summary()).expect("plant");
        let collisions = cache.collisions([("victim", cfg, fp)].iter().map(|&(a, b, c)| (a, b, c)));
        assert_eq!(collisions, vec![("victim".to_string(), fp)]);
        match cache.lookup(cfg, fp) {
            Lookup::Quarantined(reason) => {
                assert!(reason.contains("different config"), "{reason}")
            }
            _ => panic!("collision must quarantine"),
        }
    }

    #[test]
    fn a_fresh_cache_dir_is_opened_without_a_probe_file() {
        let root = tmp("fresh_parent");
        // Missing parents are created too, and the new leaf is ours.
        let dir = root.join("nested").join("cache");
        let cache = ResultCache::open(&dir).expect("writable");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir exists")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert!(names.is_empty(), "fresh cache dir holds {names:?}");
        // The skipped probe did not skip writability: a store lands.
        cache
            .store("{}", 7, 1, &summary())
            .expect("store into a fresh dir");
        assert!(cache.entry_path(7).exists());
        // Reopening an existing directory probes it and cleans up.
        ResultCache::open(&dir).expect("reopen");
        assert!(!dir.join(".probe.tmp").exists());
    }

    #[test]
    fn unwritable_dir_is_reported_not_fatal() {
        // A path that cannot be a directory: a file stands in its way.
        let dir = tmp("blocked");
        std::fs::create_dir_all(dir.parent().expect("parent")).expect("parent dir");
        std::fs::write(&dir, b"not a directory").expect("blocker");
        assert!(ResultCache::open(&dir).is_err());
    }
}
