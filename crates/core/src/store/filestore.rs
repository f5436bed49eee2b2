//! File-backed sweep durability: an append-only JSON-lines journal, the
//! only file in its directory.
//!
//! # On-disk format
//!
//! `journal.jsonl` holds one *unit* per completed cell, appended with a
//! single `write` and fsync'd as the cell finishes:
//!
//! ```text
//! {"begin":"3","name":"…","policy":"…","workload":"…","seed":"42","qos_pct":0.95,"qos_target_s":0.01,"n":"60"}
//! {…interval 0, exactly as `interval_to_jsonl` renders it…}
//! …n lines…
//! {"end":"3"}                      (or {"end":"3","deadline_miss_pct":12.5})
//! ```
//!
//! plus single-line quarantine units
//! `{"quarantine":"5","name":"…","seed":"17","panic":"…"}`. Seeds and
//! indices travel as decimal strings — a JSON number read back through
//! `f64` would corrupt values above 2⁵³.
//!
//! # Crash recovery
//!
//! [`FileStore::open`] keeps the longest valid prefix of journal units: a
//! torn final line (partial append at the kill point), trailing garbage,
//! or a `begin` with no matching `end` is discarded and the file truncated
//! back to the last complete unit — those cells simply re-run on resume.
//! Recovery never panics on arbitrary bytes.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use hipster_sim::json::JsonObj;
use hipster_sim::{interval_from_jsonl, interval_to_jsonl, QosTarget};

use super::{QuarantineRecord, StoreError, SweepRecord, SweepStore};

fn io_err(context: &str) -> impl FnOnce(std::io::Error) -> StoreError + '_ {
    move |source| StoreError::Io {
        context: context.to_owned(),
        source,
    }
}

/// Newline-terminated lines of a byte buffer, with end offsets. An
/// unterminated final chunk (a torn write) is never yielded.
struct Lines<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Lines<'a> {
    /// The next complete line (without its newline) and the byte offset
    /// just past the newline.
    fn next_line(&mut self) -> Option<(&'a [u8], usize)> {
        let rest = self.data.get(self.pos..)?;
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let line = &rest[..nl];
        let end = self.pos + nl + 1;
        self.pos = end;
        Some((line, end))
    }
}

fn parse_line(line: &[u8]) -> Option<JsonObj> {
    std::str::from_utf8(line).ok().and_then(JsonObj::parse)
}

fn begin_line(r: &SweepRecord) -> String {
    JsonObj::new()
        .u64("begin", r.index)
        .str("name", &r.name)
        .str("policy", &r.policy)
        .str("workload", &r.workload)
        .u64("seed", r.seed)
        .num("qos_pct", r.qos.percentile)
        .num("qos_target_s", r.qos.target_s)
        .u64("n", r.intervals.len() as u64)
        .render()
}

fn end_line(r: &SweepRecord) -> String {
    let obj = JsonObj::new().u64("end", r.index);
    match r.deadline_miss_pct {
        Some(miss) => obj.num("deadline_miss_pct", miss).render(),
        None => obj.render(),
    }
}

/// Renders one complete journal unit — begin + n intervals + end — as
/// [`FileStore::record`] appends it in one write.
fn render_unit(record: &SweepRecord) -> String {
    let mut unit = String::with_capacity(256 + 512 * record.intervals.len());
    unit.push_str(&begin_line(record));
    unit.push('\n');
    for iv in &record.intervals {
        unit.push_str(&interval_to_jsonl(iv));
        unit.push('\n');
    }
    unit.push_str(&end_line(record));
    unit.push('\n');
    unit
}

fn quarantine_line(q: &QuarantineRecord) -> String {
    JsonObj::new()
        .u64("quarantine", q.index)
        .str("name", &q.name)
        .u64("seed", q.seed)
        .str("panic", &q.message)
        .render()
}

struct Recovered {
    records: BTreeMap<u64, SweepRecord>,
    quarantine: BTreeMap<u64, QuarantineRecord>,
    good_len: u64,
    file_len: u64,
}

/// Parses the longest valid prefix of a journal. Never panics: any parse
/// failure ends the scan and everything from that point on is dropped.
fn recover_journal(path: &Path) -> Result<Recovered, StoreError> {
    let data = match fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("read journal")(e)),
    };
    let mut lines = Lines {
        data: &data,
        pos: 0,
    };
    let mut records: BTreeMap<u64, SweepRecord> = BTreeMap::new();
    let mut quarantine: BTreeMap<u64, QuarantineRecord> = BTreeMap::new();
    let mut good_len = 0usize;
    'scan: while let Some((line, _)) = lines.next_line() {
        let Some(obj) = parse_line(line) else { break };
        if let Some(index) = obj.get_u64("begin") {
            let (
                Some(name),
                Some(policy),
                Some(workload),
                Some(seed),
                Some(pct),
                Some(target),
                Some(n),
            ) = (
                obj.get_str("name"),
                obj.get_str("policy"),
                obj.get_str("workload"),
                obj.get_u64("seed"),
                obj.get_num("qos_pct"),
                obj.get_num("qos_target_s"),
                obj.get_u64("n"),
            )
            else {
                break;
            };
            let mut intervals = Vec::new();
            for _ in 0..n {
                let Some((iv_line, _)) = lines.next_line() else {
                    break 'scan;
                };
                let Some(iv) = std::str::from_utf8(iv_line)
                    .ok()
                    .and_then(interval_from_jsonl)
                else {
                    break 'scan;
                };
                intervals.push(iv);
            }
            let Some((close, close_end)) = lines.next_line() else {
                break;
            };
            let Some(close) = parse_line(close) else {
                break;
            };
            if close.get_u64("end") != Some(index) {
                break;
            }
            records.insert(
                index,
                SweepRecord {
                    index,
                    name: name.to_owned(),
                    policy: policy.to_owned(),
                    workload: workload.to_owned(),
                    seed,
                    qos: QosTarget {
                        percentile: pct,
                        target_s: target,
                    },
                    deadline_miss_pct: close.get_num("deadline_miss_pct"),
                    intervals,
                },
            );
            good_len = close_end;
        } else if let Some(index) = obj.get_u64("quarantine") {
            let (Some(name), Some(seed), Some(message)) = (
                obj.get_str("name"),
                obj.get_u64("seed"),
                obj.get_str("panic"),
            ) else {
                break;
            };
            quarantine.insert(
                index,
                QuarantineRecord {
                    index,
                    name: name.to_owned(),
                    seed,
                    message: message.to_owned(),
                },
            );
            good_len = lines.pos;
        } else {
            break;
        }
    }
    // A retried quarantine that later completed is completed, full stop.
    quarantine.retain(|index, _| !records.contains_key(index));
    Ok(Recovered {
        records,
        quarantine,
        good_len: good_len as u64,
        file_len: data.len() as u64,
    })
}

fn open_append(path: &Path, context: &str) -> Result<File, StoreError> {
    OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(io_err(context))
}

/// Best-effort fsync of a directory so renames/creates inside it survive
/// power loss (a no-op on filesystems that reject directory syncs).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The file-backed [`SweepStore`]: `journal.jsonl` in one directory.
/// See the module docs for the format and crash-recovery guarantees.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    journal: File,
    records: BTreeMap<u64, SweepRecord>,
    quarantine: BTreeMap<u64, QuarantineRecord>,
}

impl FileStore {
    /// The journal file inside `dir`.
    pub fn journal_path(dir: &Path) -> PathBuf {
        dir.join("journal.jsonl")
    }

    /// Starts a fresh store in `dir` (created if missing), discarding any
    /// previous journal there.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(io_err("create store directory"))?;
        fs::write(Self::journal_path(dir), b"").map_err(io_err("truncate journal"))?;
        sync_dir(dir);
        Self::open(dir)
    }

    /// Opens (or initialises) the store in `dir`, recovering from any
    /// torn writes: the journal is truncated back to its last complete
    /// unit.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(io_err("create store directory"))?;
        let journal_path = Self::journal_path(&dir);
        let recovered = recover_journal(&journal_path)?;
        if recovered.good_len < recovered.file_len {
            let f = OpenOptions::new()
                .write(true)
                .open(&journal_path)
                .map_err(io_err("open journal for truncation"))?;
            f.set_len(recovered.good_len)
                .map_err(io_err("truncate torn journal tail"))?;
            f.sync_data().map_err(io_err("sync truncated journal"))?;
        }
        Ok(FileStore {
            journal: open_append(&journal_path, "open journal")?,
            dir,
            records: recovered.records,
            quarantine: recovered.quarantine,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of completed cells on record.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.quarantine.is_empty()
    }

    fn append_journal(&mut self, unit: &str) -> Result<(), StoreError> {
        self.journal
            .write_all(unit.as_bytes())
            .map_err(io_err("append journal"))?;
        self.journal.sync_data().map_err(io_err("sync journal"))
    }
}

impl SweepStore for FileStore {
    fn completed_indices(&self) -> Vec<u64> {
        self.records.keys().copied().collect()
    }

    fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.quarantine
            .values()
            .filter(|q| !self.records.contains_key(&q.index))
            .cloned()
            .collect()
    }

    fn fetch(&self, index: u64) -> Option<SweepRecord> {
        self.records.get(&index).cloned()
    }

    fn record(&mut self, record: &SweepRecord) -> Result<(), StoreError> {
        // One buffered append per cell: begin + n intervals + end, then a
        // single fsync, so a kill can only tear the not-yet-committed
        // tail of this unit.
        self.append_journal(&render_unit(record))?;
        self.records.insert(record.index, record.clone());
        Ok(())
    }

    fn record_quarantine(&mut self, q: &QuarantineRecord) -> Result<(), StoreError> {
        let mut unit = quarantine_line(q);
        unit.push('\n');
        self.append_journal(&unit)?;
        self.quarantine.insert(q.index, q.clone());
        Ok(())
    }
}

/// A lighter journal for *named* cells whose payload is a single flat
/// JSON object — the cluster experiments record one line per finished
/// (node-count × policy) cell instead of a full per-interval trace.
///
/// Same durability contract as [`FileStore`]: append-only, fsync per put,
/// and [`CellJournal::open`] keeps the longest valid prefix, truncating a
/// torn tail. Re-putting a name overwrites (last write wins on recovery).
#[derive(Debug)]
pub struct CellJournal {
    path: PathBuf,
    file: File,
    cells: BTreeMap<String, JsonObj>,
}

impl CellJournal {
    /// Starts a fresh journal at `path`, discarding any previous one.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(io_err("create journal directory"))?;
            }
        }
        fs::write(path, b"").map_err(io_err("truncate cell journal"))?;
        Self::open(path)
    }

    /// Opens (or initialises) the journal at `path`, truncating any torn
    /// tail back to the last complete line.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(io_err("create journal directory"))?;
            }
        }
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read cell journal")(e)),
        };
        let mut lines = Lines {
            data: &data,
            pos: 0,
        };
        let mut cells = BTreeMap::new();
        let mut good_len = 0usize;
        while let Some((line, end)) = lines.next_line() {
            let Some(obj) = parse_line(line) else { break };
            let Some(name) = obj.get_str("cell") else {
                break;
            };
            cells.insert(name.to_owned(), obj.clone());
            good_len = end;
        }
        if good_len < data.len() {
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(io_err("open cell journal for truncation"))?;
            f.set_len(good_len as u64)
                .map_err(io_err("truncate torn cell journal"))?;
            f.sync_data()
                .map_err(io_err("sync truncated cell journal"))?;
        }
        let file = open_append(&path, "open cell journal")?;
        Ok(CellJournal { path, file, cells })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The recorded payload for `name` (includes the `"cell"` field).
    pub fn get(&self, name: &str) -> Option<&JsonObj> {
        self.cells.get(name)
    }

    /// True if `name` has a durable record.
    pub fn contains(&self, name: &str) -> bool {
        self.cells.contains_key(name)
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Durably records `payload` for `name` (appended with a `"cell"`
    /// envelope field, then fsync'd before returning).
    pub fn put(&mut self, name: &str, payload: JsonObj) -> Result<(), StoreError> {
        let stamped = payload.prepend_str("cell", name);
        let mut line = stamped.render();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(io_err("append cell journal"))?;
        self.file.sync_data().map_err(io_err("sync cell journal"))?;
        self.cells.insert(name.to_owned(), stamped);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique scratch directory per test invocation (no tempfile crate
    /// in the build environment).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hipster-store-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_record(index: u64, seed: u64) -> SweepRecord {
        use crate::baselines::StaticPolicy;
        use crate::policy::Policy;
        use hipster_platform::Platform;
        use hipster_workloads::{memcached, Diurnal};
        let outcome = crate::ScenarioSpec::new(format!("cell-{index}"), Platform::juno_r1())
            .workload_with(|| Box::new(memcached()))
            .load(Diurnal::paper())
            .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .intervals(4)
            .seed(seed)
            .run()
            .expect("valid scenario");
        SweepRecord::from_outcome(index, &outcome)
    }

    #[test]
    fn create_record_reopen_round_trips_exactly() {
        let dir = scratch("roundtrip");
        let r0 = sample_record(0, 100);
        let r2 = sample_record(2, 102);
        let q = QuarantineRecord {
            index: 1,
            name: "bomb \"quoted\"\nline".into(),
            seed: u64::MAX,
            message: "panicked at 'boom: {\"json\": true}'".into(),
        };
        {
            let mut store = FileStore::create(&dir).expect("create");
            store.record(&r0).unwrap();
            store.record_quarantine(&q).unwrap();
            store.record(&r2).unwrap();
        }
        let store = FileStore::open(&dir).expect("reopen");
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["journal.jsonl"], "the journal is the only file");
        assert_eq!(store.completed_indices(), vec![0, 2]);
        assert_eq!(store.quarantined(), vec![q]);
        assert_eq!(store.fetch(0), Some(r0));
        assert_eq!(store.fetch(2), Some(r2));
        assert_eq!(store.fetch(1), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = scratch("torn");
        let r0 = sample_record(0, 100);
        let r1 = sample_record(1, 101);
        {
            let mut store = FileStore::create(&dir).expect("create");
            store.record(&r0).unwrap();
            store.record(&r1).unwrap();
        }
        let journal = FileStore::journal_path(&dir);
        let full = fs::read(&journal).unwrap();
        // Cut mid-way through the second unit: recovery must keep exactly
        // the first record and truncate the file back to it.
        let cut = full.len() - 37;
        fs::write(&journal, &full[..cut]).unwrap();
        let store = FileStore::open(&dir).expect("recover");
        assert_eq!(store.completed_indices(), vec![0]);
        assert_eq!(store.fetch(0), Some(r0.clone()));
        let recovered_len = fs::metadata(&journal).unwrap().len();
        assert!(recovered_len < cut as u64, "file was truncated");
        // The recovered prefix is byte-identical to the original's first
        // unit, so a re-run of cell 1 appends cleanly.
        assert_eq!(fs::read(&journal).unwrap(), &full[..recovered_len as usize]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_tail_and_unterminated_line_are_recovered() {
        let dir = scratch("garbage");
        let r0 = sample_record(0, 100);
        {
            let mut store = FileStore::create(&dir).expect("create");
            store.record(&r0).unwrap();
        }
        let journal = FileStore::journal_path(&dir);
        let mut data = fs::read(&journal).unwrap();
        data.extend_from_slice(b"{\"begin\":\"1\",\xff\xfe not json");
        fs::write(&journal, &data).unwrap();
        let store = FileStore::open(&dir).expect("recover");
        assert_eq!(store.completed_indices(), vec![0]);
        assert_eq!(store.fetch(0), Some(r0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_discards_previous_journal() {
        let dir = scratch("fresh");
        {
            let mut store = FileStore::create(&dir).expect("create");
            store.record(&sample_record(0, 100)).unwrap();
        }
        let store = FileStore::create(&dir).expect("recreate");
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_journal_round_trips_and_recovers() {
        let dir = scratch("cells");
        let path = dir.join("cluster_cells.jsonl");
        {
            let mut j = CellJournal::create(&path).expect("create");
            j.put(
                "cluster/64/hipster",
                JsonObj::new().num("qos", 99.25).u64("digest", u64::MAX - 3),
            )
            .unwrap();
            j.put("cluster/64/static", JsonObj::new().num("qos", 97.5))
                .unwrap();
            // Overwrite: last write wins.
            j.put("cluster/64/static", JsonObj::new().num("qos", 98.0))
                .unwrap();
        }
        let mut data = fs::read(&path).unwrap();
        data.extend_from_slice(b"{\"cell\":\"cluster/256/hip");
        fs::write(&path, &data).unwrap();
        let j = CellJournal::open(&path).expect("recover");
        assert_eq!(j.len(), 2);
        assert!(j.contains("cluster/64/hipster"));
        let hip = j.get("cluster/64/hipster").unwrap();
        assert_eq!(hip.get_num("qos"), Some(99.25));
        assert_eq!(hip.get_u64("digest"), Some(u64::MAX - 3));
        assert_eq!(
            j.get("cluster/64/static").unwrap().get_num("qos"),
            Some(98.0)
        );
        assert!(!j.contains("cluster/256/hipster"));
        let _ = fs::remove_dir_all(&dir);
    }
}
