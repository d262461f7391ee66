//! Crash-safe persistence for the plan cache: snapshot + write-ahead log.
//!
//! A restart of the daemon used to lose every cached plan. This module
//! makes the [`crate::PlanStore`] durable with the classic two-file scheme
//! (DESIGN.md §16):
//!
//! * **`plans.wal`** — an append-only log of [`ad_util::record`]-framed
//!   entries, one per freshly planned cache insert. Appends are
//!   `write_all` + `flush`; a crash mid-append leaves at most one torn
//!   record at the tail, which recovery truncates (and counts) without
//!   touching the valid prefix.
//! * **`plans.snap`** — a periodic compaction of the live cache, written
//!   to `plans.snap.tmp`, fsynced, then atomically renamed over the old
//!   snapshot. A crash mid-compaction therefore leaves either the old
//!   snapshot or the new one, never a half-written mix. After a successful
//!   rename the WAL is reset.
//!
//! Recovery replays the snapshot then the WAL (later records win), so the
//! rebuilt cache equals the pre-crash cache minus at most the single entry
//! whose append was torn. **Byte identity**: the plan payload is persisted
//! verbatim — raw response bytes, never re-parsed through a JSON value
//! (whose `f64` numbers could reformat) — so a recovered hit returns
//! exactly the bytes the original miss returned. Per-record checksums
//! ([`ad_util::record::record_checksum`]) make silent corruption a counted
//! *drop*, never a served plan.
//!
//! Each record payload is self-describing:
//!
//! ```text
//! v2 <graph_fp> <config_fp>\n
//! <plan bytes, verbatim>
//! ```
//!
//! Any other version tag fails to decode and is dropped and counted in
//! [`PersistStats::undecodable_records`]. That includes `v1` records,
//! which carried atom specs and batch coordinates for a neighbour index
//! the store no longer keeps, and whose plans could differ from what the
//! request alone plans.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use ad_util::record::{encode_record, scan_records};
use ad_util::{Fingerprint, Json};

/// Snapshot file name inside the cache directory.
const SNAP_FILE: &str = "plans.snap";
/// WAL file name inside the cache directory.
pub(crate) const WAL_FILE: &str = "plans.wal";
/// Temp name the next snapshot is staged under before the atomic rename.
const SNAP_TMP_FILE: &str = "plans.snap.tmp";

/// Compaction triggers when the WAL holds at least this many records and
/// at least twice the live entry count (so a small steady-state cache is
/// not re-snapshotted on every insert).
const COMPACT_MIN_WAL_RECORDS: u64 = 64;

/// One durable cache entry, as stored in a record and as handed back to
/// the store on recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRecord {
    /// Graph half of the cache key.
    pub graph_fp: Fingerprint,
    /// Config half of the cache key.
    pub config_fp: Fingerprint,
    /// The plan payload, byte-for-byte as first served.
    pub plan: String,
}

impl PlanRecord {
    /// Serializes the record into a framing-ready payload (see the module
    /// docs for the layout).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = format!("v2 {} {}\n", self.graph_fp, self.config_fp).into_bytes();
        out.extend_from_slice(self.plan.as_bytes());
        out
    }

    /// Decodes a record payload. `None` means the payload does not parse —
    /// counted as corruption by the caller (the checksum already passed,
    /// so this indicates a format mismatch, e.g. another version).
    pub fn decode_payload(payload: &[u8]) -> Option<Self> {
        let header_end = payload.iter().position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(&payload[..header_end]).ok()?;
        let plan = std::str::from_utf8(&payload[header_end + 1..]).ok()?;

        let mut fields = header.split(' ');
        if fields.next()? != "v2" {
            return None;
        }
        let graph_fp = Fingerprint::parse(fields.next()?)?;
        let config_fp = Fingerprint::parse(fields.next()?)?;
        if fields.next().is_some() {
            return None;
        }
        Some(PlanRecord {
            graph_fp,
            config_fp,
            plan: plan.to_string(),
        })
    }
}

/// Durability counters, surfaced through the daemon's `stats` op and the
/// chaos harness audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistStats {
    /// Entries restored into the cache at open.
    pub recovered: usize,
    /// Torn tails truncated during recovery (crash mid-append).
    pub torn_records: u64,
    /// Corrupt records dropped during recovery (checksum mismatch).
    pub corrupt_records: u64,
    /// Undecodable-but-checksum-valid records dropped during recovery.
    pub undecodable_records: u64,
    /// Records appended to the WAL since it was last reset.
    pub wal_records: u64,
    /// Snapshot compactions performed by this process.
    pub compactions: u64,
    /// Persistence I/O errors swallowed while serving (the cache keeps
    /// working in memory; durability of the affected entries is lost).
    pub io_errors: u64,
}

impl PersistStats {
    /// Whether the last recovery found no defects at all.
    pub fn is_clean_load(&self) -> bool {
        self.torn_records == 0 && self.corrupt_records == 0 && self.undecodable_records == 0
    }

    /// The counters as a [`Json`] object (nested under `persist` in the
    /// `stats` op payload).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("recovered".into(), Json::from(self.recovered)),
            ("torn_records".into(), Json::from(self.torn_records)),
            ("corrupt_records".into(), Json::from(self.corrupt_records)),
            (
                "undecodable_records".into(),
                Json::from(self.undecodable_records),
            ),
            ("wal_records".into(), Json::from(self.wal_records)),
            ("compactions".into(), Json::from(self.compactions)),
            ("io_errors".into(), Json::from(self.io_errors)),
        ])
    }
}

/// The persistence backend of one [`crate::PlanStore`]: owns the cache
/// directory, the open WAL handle, and the durability counters.
#[derive(Debug)]
pub struct Persist {
    dir: PathBuf,
    wal: File,
    stats: PersistStats,
}

impl Persist {
    /// Opens (creating if absent) the cache directory, recovers every
    /// valid entry from snapshot + WAL, truncates any torn WAL tail, and
    /// returns the backend plus the recovered records in replay order
    /// (snapshot first, then WAL — later records for the same key win).
    ///
    /// # Errors
    ///
    /// Directory creation or file open/read failures. A *torn or corrupt*
    /// log is not an error — that is the crash artifact this module
    /// exists to absorb.
    pub fn open(dir: &Path) -> std::io::Result<(Self, Vec<PlanRecord>)> {
        std::fs::create_dir_all(dir)?;
        let mut stats = PersistStats::default();
        let mut records = Vec::new();

        // Snapshot: written atomically, so defects here mean outside
        // interference (disk fault) rather than a crash; tolerated the
        // same way — valid prefix kept, the rest dropped and counted.
        let snap_path = dir.join(SNAP_FILE);
        if let Some(buf) = read_if_exists(&snap_path)? {
            let scan = scan_records(&buf);
            stats.torn_records += scan.torn_records;
            stats.corrupt_records += scan.corrupt_records;
            decode_into(&mut records, scan.records, &mut stats);
        }

        // WAL: truncate the torn/corrupt tail so the next append lands on
        // a clean record boundary.
        let wal_path = dir.join(WAL_FILE);
        let mut wal_records = 0u64;
        if let Some(buf) = read_if_exists(&wal_path)? {
            let scan = scan_records(&buf);
            stats.torn_records += scan.torn_records;
            stats.corrupt_records += scan.corrupt_records;
            if !scan.is_clean() {
                let f = OpenOptions::new().write(true).open(&wal_path)?;
                f.set_len(cast_u64(scan.clean_len))?;
                f.sync_all()?;
            }
            wal_records = cast_u64(scan.records.len());
            decode_into(&mut records, scan.records, &mut stats);
        }
        stats.wal_records = wal_records;
        stats.recovered = records.len();

        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        Ok((
            Self {
                dir: dir.to_path_buf(),
                wal,
                stats,
            },
            records,
        ))
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }

    /// Counts one swallowed persistence I/O error (the caller keeps
    /// serving from memory).
    pub fn note_io_error(&mut self) {
        self.stats.io_errors += 1;
    }

    /// Appends one entry to the WAL. Durable against torn writes: a crash
    /// inside this call costs at most this one record on recovery.
    ///
    /// # Errors
    ///
    /// Underlying file write errors.
    pub fn append(&mut self, rec: &PlanRecord) -> std::io::Result<()> {
        let framed = encode_record(&rec.encode_payload());
        self.wal.write_all(&framed)?;
        self.wal.flush()?;
        self.stats.wal_records += 1;
        Ok(())
    }

    /// Whether the WAL has grown enough (relative to the live entry
    /// count) that folding it into a fresh snapshot is worthwhile.
    pub fn wants_compaction(&self, live_entries: usize) -> bool {
        self.stats.wal_records >= COMPACT_MIN_WAL_RECORDS
            && self.stats.wal_records >= cast_u64(live_entries) * 2
    }

    /// Rewrites the snapshot from the live entries and resets the WAL.
    /// Crash-safe: the new snapshot is staged under a temp name, fsynced,
    /// then atomically renamed; the WAL is reset only after the rename, so
    /// every entry is always in at least one of the two files.
    ///
    /// # Errors
    ///
    /// Underlying file write/rename errors; on error the old snapshot and
    /// WAL are still intact.
    pub fn compact<'a>(
        &mut self,
        entries: impl Iterator<Item = &'a PlanRecord>,
    ) -> std::io::Result<()> {
        let tmp_path = self.dir.join(SNAP_TMP_FILE);
        let snap_path = self.dir.join(SNAP_FILE);
        {
            let mut tmp = File::create(&tmp_path)?;
            for rec in entries {
                tmp.write_all(&encode_record(&rec.encode_payload()))?;
            }
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &snap_path)?;
        // Reset the WAL through the open append handle.
        self.wal.set_len(0)?;
        self.wal.sync_all()?;
        self.stats.wal_records = 0;
        self.stats.compactions += 1;
        Ok(())
    }
}

/// Reads a whole file, mapping "not found" to `None`.
fn read_if_exists(path: &Path) -> std::io::Result<Option<Vec<u8>>> {
    match File::open(path) {
        Ok(mut f) => {
            let mut buf = Vec::new();
            f.read_to_end(&mut buf)?;
            Ok(Some(buf))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Decodes checksum-valid payloads, counting (not failing on) the
/// undecodable ones.
fn decode_into(out: &mut Vec<PlanRecord>, payloads: Vec<Vec<u8>>, stats: &mut PersistStats) {
    for p in payloads {
        match PlanRecord::decode_payload(&p) {
            Some(rec) => out.push(rec),
            None => stats.undecodable_records += 1,
        }
    }
}

/// usize → u64 widening (never lossy on supported platforms).
fn cast_u64(n: usize) -> u64 {
    n as u64 // ad-lint: allow(c1) — usize → u64 widens on every supported platform
}

#[cfg(test)]
mod tests {
    use super::*;
    use ad_util::record::RECORD_HEADER_BYTES;

    fn rec(k: u64, plan: &str) -> PlanRecord {
        PlanRecord {
            graph_fp: Fingerprint(k),
            config_fp: Fingerprint(k + 1),
            plan: plan.to_string(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ad-serve-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn payload_round_trip_is_exact() {
        let r = rec(10, "{\"plan\":{\"x\":1.5}}");
        assert_eq!(PlanRecord::decode_payload(&r.encode_payload()), Some(r));
        // A plan containing newlines survives.
        let r = rec(11, "{\"a\":\n2}");
        assert_eq!(PlanRecord::decode_payload(&r.encode_payload()), Some(r));
    }

    #[test]
    fn decode_rejects_format_damage() {
        let good = rec(1, "{}").encode_payload();
        assert!(PlanRecord::decode_payload(b"").is_none());
        assert!(PlanRecord::decode_payload(b"v2 only-header\n{}").is_none());
        let v9 = String::from_utf8(good).unwrap().replacen("v2", "v9", 1);
        assert!(PlanRecord::decode_payload(v9.as_bytes()).is_none());
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let dir = tmp_dir("roundtrip");
        let (mut p, recovered) = Persist::open(&dir).unwrap();
        assert!(recovered.is_empty());
        p.append(&rec(1, "{\"p\":1}")).unwrap();
        p.append(&rec(2, "{\"p\":2}")).unwrap();
        drop(p); // simulated crash: no graceful close exists to forget

        let (p, recovered) = Persist::open(&dir).unwrap();
        assert_eq!(recovered, vec![rec(1, "{\"p\":1}"), rec(2, "{\"p\":2}")]);
        assert_eq!(p.stats().recovered, 2);
        assert!(p.stats().torn_records == 0 && p.stats().corrupt_records == 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_counted() {
        let dir = tmp_dir("torn");
        let (mut p, _) = Persist::open(&dir).unwrap();
        p.append(&rec(1, "{\"p\":1}")).unwrap();
        p.append(&rec(2, "{\"p\":2}")).unwrap();
        drop(p);

        // Tear the tail: chop bytes off the last record.
        let wal = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (p, recovered) = Persist::open(&dir).unwrap();
        assert_eq!(recovered, vec![rec(1, "{\"p\":1}")]);
        assert_eq!(p.stats().torn_records, 1);
        // The tail was physically truncated: a fresh append then a clean
        // reopen recovers both records.
        drop(p);
        let (mut p, _) = Persist::open(&dir).unwrap();
        p.append(&rec(3, "{\"p\":3}")).unwrap();
        drop(p);
        let (p, recovered) = Persist::open(&dir).unwrap();
        assert_eq!(recovered, vec![rec(1, "{\"p\":1}"), rec(3, "{\"p\":3}")]);
        assert!(p.stats().is_clean_load());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_wal_record_is_dropped_and_counted() {
        let dir = tmp_dir("corrupt");
        let (mut p, _) = Persist::open(&dir).unwrap();
        p.append(&rec(1, "{\"p\":1}")).unwrap();
        p.append(&rec(2, "{\"p\":2}")).unwrap();
        drop(p);

        // Flip a byte inside the second record's payload.
        let wal = dir.join(WAL_FILE);
        let mut buf = std::fs::read(&wal).unwrap();
        let first_len = RECORD_HEADER_BYTES + rec(1, "{\"p\":1}").encode_payload().len();
        buf[first_len + RECORD_HEADER_BYTES + 4] ^= 0x20;
        std::fs::write(&wal, &buf).unwrap();

        let (p, recovered) = Persist::open(&dir).unwrap();
        assert_eq!(recovered, vec![rec(1, "{\"p\":1}")]);
        assert_eq!(p.stats().corrupt_records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_wal_into_snapshot_atomically() {
        let dir = tmp_dir("compact");
        let (mut p, _) = Persist::open(&dir).unwrap();
        let live = vec![rec(1, "{\"p\":1}"), rec(2, "{\"p\":2}")];
        for r in &live {
            p.append(r).unwrap();
        }
        p.compact(live.iter()).unwrap();
        assert_eq!(p.stats().compactions, 1);
        assert_eq!(p.stats().wal_records, 0);
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        drop(p);

        let (p, recovered) = Persist::open(&dir).unwrap();
        assert_eq!(recovered, live);
        // Later WAL records win over snapshot entries on replay order.
        drop(p);
        let (mut p, _) = Persist::open(&dir).unwrap();
        p.append(&rec(1, "{\"p\":1-updated}")).unwrap();
        drop(p);
        let (_, recovered) = Persist::open(&dir).unwrap();
        assert_eq!(recovered.last().unwrap().plan, "{\"p\":1-updated}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_threshold_scales_with_live_entries() {
        let dir = tmp_dir("threshold");
        let (mut p, _) = Persist::open(&dir).unwrap();
        assert!(!p.wants_compaction(0), "empty WAL never compacts");
        p.stats.wal_records = COMPACT_MIN_WAL_RECORDS;
        assert!(p.wants_compaction(8));
        assert!(
            !p.wants_compaction(64),
            "a WAL smaller than 2x the live set stays"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
