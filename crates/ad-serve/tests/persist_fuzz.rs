//! Seeded mutational fuzzing of plan-cache recovery ([`Persist::open`]).
//!
//! Each case lays out a snapshot and a WAL of valid records exactly as the
//! store writes them (`encode_record` over `PlanRecord::encode_payload`),
//! then damages one or both files: duplicated or reordered records (valid
//! framing, a different record sequence), then bit flips, truncations and
//! overwritten length fields. The oracle is the first byte where a file
//! differs from its undamaged layout: every record that ends before it must
//! come back, in order, and nothing else. On every mutant:
//!
//! - `open` returns without panicking;
//! - the recovered records equal that valid prefix of the snapshot followed
//!   by that of the WAL;
//! - each damaged file counts exactly one torn or corrupt record, and an
//!   undamaged one none;
//! - the WAL is truncated to its valid prefix, so a reopen recovers the same
//!   records, is clean when the snapshot was undamaged, and a new append
//!   lands on a record boundary;
//! - the bytes allocated while opening stay within a small multiple of the
//!   two files' size, whatever their length fields claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ad_serve::{Persist, PlanRecord};
use ad_util::record::encode_record;
use ad_util::{Fingerprint, Rng64};

/// Counts live heap bytes and their high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counters are process-wide: fuzz runs take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allowed allocation while opening: this many bytes per byte on disk (the
/// file buffer, the scanned payloads and the decoded plans each copy the
/// data once), plus a fixed allowance for paths, handles and vectors.
const ALLOC_PER_FILE_BYTE: usize = 8;
const ALLOC_SLACK: usize = 64 * 1024;

/// A random record: random keys and a plan of printable
/// ASCII, newlines and multi-byte UTF-8.
fn random_record(rng: &mut Rng64) -> PlanRecord {
    const PLAN_CHARS: [char; 10] = ['{', '}', '"', ':', ',', '1', 'x', '\n', ' ', 'é'];
    PlanRecord {
        graph_fp: Fingerprint(rng.next_u64()),
        config_fp: Fingerprint(rng.next_u64()),
        plan: (0..rng.below(200))
            .map(|_| PLAN_CHARS[rng.below(PLAN_CHARS.len())])
            .collect(),
    }
}

/// The framed bytes of `records`, back to back.
fn layout(records: &[PlanRecord]) -> Vec<u8> {
    records
        .iter()
        .flat_map(|r| encode_record(&r.encode_payload()))
        .collect()
}

/// Byte offset where each record of `records` ends in [`layout`].
fn record_ends(records: &[PlanRecord]) -> Vec<usize> {
    records
        .iter()
        .scan(0usize, |end, r| {
            *end += encode_record(&r.encode_payload()).len();
            Some(*end)
        })
        .collect()
}

/// One damaged file: the record sequence it was laid out from and its
/// bytes after byte-level damage.
struct Mutant {
    records: Vec<PlanRecord>,
    bytes: Vec<u8>,
}

impl Mutant {
    /// Record-level mutations: framing stays valid, the sequence changes.
    fn reshape(mut records: Vec<PlanRecord>, rng: &mut Rng64) -> Self {
        if !records.is_empty() && rng.chance(0.3) {
            let k = rng.below(records.len());
            let dup = records[k].clone();
            records.insert(k + 1, dup);
        }
        if records.len() >= 2 && rng.chance(0.3) {
            let k = rng.below(records.len() - 1);
            records.swap(k, k + 1);
        }
        let bytes = layout(&records);
        Self { records, bytes }
    }

    /// Byte-level damage: a bit flip, a truncation or an overwritten length
    /// field.
    fn damage(&mut self, rng: &mut Rng64) {
        if self.bytes.is_empty() {
            return;
        }
        match rng.below(3) {
            0 => {
                let at = rng.below(self.bytes.len());
                self.bytes[at] ^= 1 << rng.below(8);
            }
            1 => self.bytes.truncate(rng.below(self.bytes.len())),
            _ => {
                // A record whose length field is still on disk.
                let starts: Vec<usize> = std::iter::once(0)
                    .chain(record_ends(&self.records))
                    .filter(|&s| s + 4 <= self.bytes.len())
                    .collect();
                let Some(&start) = starts.get(rng.below(starts.len().max(1))) else {
                    return;
                };
                let len = match rng.below(4) {
                    0 => 0,
                    1 => u32::MAX,
                    2 => (1 << 30) + 1,
                    _ => u32::try_from(rng.next_u64() >> 32).unwrap_or(u32::MAX),
                };
                self.bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
            }
        }
    }

    /// The records recovery must return (every one that ends before the
    /// first damaged byte) and how many defects it must count (one when
    /// bytes past that prefix remain, else none).
    fn expected(&self) -> (Vec<PlanRecord>, u64, usize) {
        let pristine = layout(&self.records);
        let first_diff = pristine
            .iter()
            .zip(&self.bytes)
            .position(|(a, b)| a != b)
            .unwrap_or(pristine.len().min(self.bytes.len()));
        let ends = record_ends(&self.records);
        let kept = ends.iter().take_while(|&&e| e <= first_diff).count();
        let clean_len = if kept == 0 { 0 } else { ends[kept - 1] };
        let defects = u64::from(clean_len < self.bytes.len());
        (self.records[..kept].to_vec(), defects, clean_len)
    }
}

#[allow(clippy::expect_used)] // test helper; clippy only auto-exempts #[test] fns
fn write_or_remove(path: &Path, bytes: Option<&[u8]>) {
    match bytes {
        Some(b) => std::fs::write(path, b).expect("write mutant"),
        None => {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Opens `dir` inside `catch_unwind`, returning the recovered records, the
/// defect count and the peak bytes allocated during the call.
fn open_checked(dir: &Path, case: usize, seed: u64) -> (Persist, Vec<PlanRecord>, u64, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let opened = catch_unwind(AssertUnwindSafe(|| Persist::open(dir)))
        .unwrap_or_else(|_| panic!("case {case} (seed {seed:#x}): open panicked"));
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    let (persist, records) =
        opened.unwrap_or_else(|e| panic!("case {case} (seed {seed:#x}): open failed: {e}"));
    let stats = persist.stats();
    assert_eq!(
        stats.undecodable_records, 0,
        "case {case}: a checksum-valid record failed to decode"
    );
    let defects = stats.torn_records + stats.corrupt_records;
    (persist, records, defects, peak)
}

#[allow(clippy::expect_used)] // test helper; clippy only auto-exempts #[test] fns
fn run_cases(seed: u64, cases: usize) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "ad-serve-persist-fuzz-{seed:x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fuzz dir");
    let (snap_path, wal_path) = (dir.join("plans.snap"), dir.join("plans.wal"));
    let mut rng = Rng64::new(seed);
    let mut damaged = 0usize;

    for case in 0..cases {
        let snap_records: Vec<PlanRecord> =
            (0..rng.below(4)).map(|_| random_record(&mut rng)).collect();
        let wal_records: Vec<PlanRecord> =
            (0..rng.below(6)).map(|_| random_record(&mut rng)).collect();
        let mut snap = Mutant::reshape(snap_records, &mut rng);
        let mut wal = Mutant::reshape(wal_records, &mut rng);
        for _ in 0..rng.below(3) {
            let target = if rng.chance(0.4) { &mut snap } else { &mut wal };
            target.damage(&mut rng);
        }
        let has_snap = !snap.bytes.is_empty() || rng.chance(0.5);
        write_or_remove(&snap_path, has_snap.then_some(snap.bytes.as_slice()));
        write_or_remove(&wal_path, Some(wal.bytes.as_slice()));

        let (snap_want, snap_defects, _) = snap.expected();
        let (wal_want, wal_defects, wal_clean_len) = wal.expected();
        let want: Vec<PlanRecord> = snap_want.iter().chain(&wal_want).cloned().collect();
        damaged += usize::from(snap_defects + wal_defects > 0);

        let (persist, got, defects, peak) = open_checked(&dir, case, seed);
        assert_eq!(
            got, want,
            "case {case} (seed {seed:#x}): not the valid prefix"
        );
        assert_eq!(persist.stats().recovered, want.len(), "case {case}");
        assert_eq!(
            defects,
            snap_defects + wal_defects,
            "case {case} (seed {seed:#x}): torn/corrupt count"
        );
        let file_bytes = snap.bytes.len() + wal.bytes.len();
        assert!(
            peak <= ALLOC_PER_FILE_BYTE * file_bytes + ALLOC_SLACK,
            "case {case} (seed {seed:#x}): open allocated {peak} B for {file_bytes} B on disk"
        );
        drop(persist);
        let wal_len = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
        assert_eq!(
            wal_len, wal_clean_len as u64,
            "case {case}: the WAL must be cut back to its valid prefix"
        );

        // Reopen: the truncated WAL is clean; the snapshot is read-only, so
        // its defect (if any) is counted again.
        let (mut persist, again, defects, _) = open_checked(&dir, case, seed);
        assert_eq!(again, want, "case {case}: reopen changed the records");
        assert_eq!(defects, snap_defects, "case {case}: reopen must be clean");
        let fresh = random_record(&mut rng);
        persist.append(&fresh).expect("append after reopen");
        drop(persist);
        let (_, after, defects, _) = open_checked(&dir, case, seed);
        let mut want_after = want;
        want_after.push(fresh);
        assert_eq!(after, want_after, "case {case}: append after recovery");
        assert_eq!(
            defects, snap_defects,
            "case {case}: append landed mid-record"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    // The mutations must reach both outcomes, or the fuzzer tests nothing.
    assert!(
        damaged > 0 && damaged < cases,
        "{damaged} of {cases} cases damaged"
    );
}

#[test]
fn mutated_logs_recover_their_valid_prefix() {
    run_cases(0x9E25_15F0, 600);
}

#[test]
#[ignore = "long fuzz run; CI runs it in release"]
fn mutated_logs_recover_their_valid_prefix_long() {
    run_cases(0xD00D_9E25, 20_000);
}
