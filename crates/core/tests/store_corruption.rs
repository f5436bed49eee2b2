//! Property tests for [`FileStore`]/[`CellJournal`] crash recovery: a
//! journal mangled by arbitrary truncation, byte flips and garbage
//! appends must never panic on open — recovery keeps a valid prefix of
//! complete units (each byte-identical to what was written), truncates
//! the rest, and the recovered store stays fully usable.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use hipster_core::{
    CellJournal, FileStore, Policy, QuarantineRecord, ScenarioSpec, StaticPolicy, SweepRecord,
    SweepStore,
};
use hipster_platform::Platform;
use hipster_sim::json::JsonObj;
use hipster_workloads::{memcached, Constant};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hipster-corrupt-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn cell_record(index: u64) -> SweepRecord {
    let outcome = ScenarioSpec::new(format!("cell-{index}"), Platform::juno_r1())
        .workload_with(|| Box::new(memcached()))
        .load(Constant::new(0.4, 10.0))
        .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
        .intervals(3)
        .seed(500 + index)
        .run()
        .expect("valid scenario");
    SweepRecord::from_outcome(index, &outcome)
}

/// A healthy journal built once: three completed cells plus a quarantine,
/// as raw bytes, with the records they encode.
fn baseline() -> &'static (Vec<u8>, BTreeMap<u64, SweepRecord>, QuarantineRecord) {
    static BASE: OnceLock<(Vec<u8>, BTreeMap<u64, SweepRecord>, QuarantineRecord)> =
        OnceLock::new();
    BASE.get_or_init(|| {
        let dir = scratch("baseline");
        let mut records = BTreeMap::new();
        let q = QuarantineRecord {
            index: 1,
            name: "bomb".into(),
            seed: u64::MAX - 7,
            message: "panicked: \"boom\"\nwith a newline".into(),
        };
        {
            let mut store = FileStore::create(&dir).expect("create baseline store");
            for index in [0u64, 2, 3] {
                let rec = cell_record(index);
                store.record(&rec).expect("record");
                records.insert(index, rec);
            }
            store.record_quarantine(&q).expect("quarantine");
        }
        let bytes = fs::read(FileStore::journal_path(&dir)).expect("read baseline journal");
        let _ = fs::remove_dir_all(&dir);
        (bytes, records, q)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mangled_journal_recovers_without_panic(
        cut_frac in 0.0f64..1.0,
        flip_at in any::<usize>(),
        flip_bits in any::<u8>(),
        do_flip in any::<bool>(),
        garbage in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        let (healthy, expected, expected_q) = baseline();
        let mut data = healthy.clone();
        data.truncate((healthy.len() as f64 * cut_frac) as usize);
        if do_flip && !data.is_empty() {
            let pos = flip_at % data.len();
            data[pos] ^= flip_bits | 1;
        }
        data.extend_from_slice(&garbage);

        let dir = scratch("mangle");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(FileStore::journal_path(&dir), &data).expect("plant journal");

        // Open must not panic, and every recovered cell must be exactly
        // what the healthy journal recorded (corruption can only lose
        // units, never alter one).
        let store = FileStore::open(&dir).expect("recovery is not an error");
        for index in store.completed_indices() {
            let rec = store.fetch(index).expect("listed cell fetches");
            let original = expected.get(&index);
            prop_assert!(original.is_some(), "recovered unknown cell #{index}");
            prop_assert_eq!(&rec, original.unwrap());
        }
        for q in store.quarantined() {
            prop_assert_eq!(&q, expected_q);
        }

        // Recovery is idempotent: a second open sees the same state and
        // leaves the truncated journal untouched.
        let completed = store.completed_indices();
        let quarantined = store.quarantined();
        drop(store);
        let after_first = fs::read(FileStore::journal_path(&dir)).expect("read recovered");
        let reopened = FileStore::open(&dir).expect("reopen");
        prop_assert_eq!(reopened.completed_indices(), completed);
        prop_assert_eq!(reopened.quarantined(), quarantined);
        drop(reopened);
        let after_second = fs::read(FileStore::journal_path(&dir)).expect("read again");
        prop_assert_eq!(after_first, after_second);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_store_accepts_new_records(
        cut in any::<usize>(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (healthy, expected, _) = baseline();
        let mut data = healthy.clone();
        data.truncate(cut % (healthy.len() + 1));
        data.extend_from_slice(&garbage);

        let dir = scratch("reuse");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(FileStore::journal_path(&dir), &data).expect("plant journal");

        let mut store = FileStore::open(&dir).expect("recover");
        let before = store.len();
        // Appending after recovery must land cleanly on the truncated
        // prefix and survive a reopen.
        let fresh = cell_record(7);
        store.record(&fresh).expect("record after recovery");
        drop(store);
        let store = FileStore::open(&dir).expect("reopen");
        prop_assert_eq!(store.len(), before + 1);
        prop_assert_eq!(store.fetch(7), Some(fresh));
        for index in store.completed_indices() {
            if index != 7 {
                prop_assert_eq!(store.fetch(index), expected.get(&index).cloned());
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mangled_cell_journal_recovers_without_panic(
        cut_frac in 0.0f64..1.0,
        garbage in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        let dir = scratch("cells");
        let path = dir.join("cells.jsonl");
        let mut journal = CellJournal::create(&path).expect("create");
        let mut expected = BTreeMap::new();
        for i in 0..4 {
            let name = format!("cluster/{}/hipster", 1 << (4 + i));
            let payload = JsonObj::new()
                .num("qos", 90.0 + i as f64)
                .u64("digest", u64::MAX - i);
            journal.put(&name, payload.clone()).expect("put");
            expected.insert(name, payload);
        }
        drop(journal);
        let healthy = fs::read(&path).expect("read healthy");
        let mut data = healthy.clone();
        data.truncate((healthy.len() as f64 * cut_frac) as usize);
        data.extend_from_slice(&garbage);
        fs::write(&path, &data).expect("plant");

        let journal = CellJournal::open(&path).expect("recover");
        prop_assert!(journal.len() <= expected.len());
        for (name, payload) in &expected {
            if let Some(got) = journal.get(name) {
                // The recovered payload is the original plus the "cell"
                // envelope field.
                prop_assert_eq!(got, &payload.clone().prepend_str("cell", name));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Deterministic sweep of every truncation point around unit boundaries:
/// recovery is monotone (longer prefixes never recover fewer cells) and
/// never panics exactly at the seams.
#[test]
fn truncation_at_unit_boundaries_is_monotone() {
    let (healthy, ..) = baseline();
    // Unit boundaries are newline offsets; probe each boundary and its
    // neighbourhood rather than all ~10⁴ byte offsets (each open fsyncs).
    let mut cuts: Vec<usize> = vec![0, healthy.len()];
    for (pos, b) in healthy.iter().enumerate() {
        if *b == b'\n' {
            for delta in 0..3usize {
                cuts.push((pos + 1).saturating_sub(delta));
                cuts.push((pos + 1 + delta).min(healthy.len()));
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    let dir = scratch("boundaries");
    fs::create_dir_all(&dir).expect("mkdir");
    let mut last_recovered = 0usize;
    for cut in cuts {
        fs::write(FileStore::journal_path(&dir), &healthy[..cut]).expect("plant");
        let store = FileStore::open(&dir).expect("recover");
        let recovered = store.len() + store.quarantined().len();
        assert!(
            recovered >= last_recovered,
            "recovery went backwards at cut {cut}: {recovered} < {last_recovered}"
        );
        last_recovered = recovered;
    }
    assert_eq!(last_recovered, 4, "full journal recovers all four units");
    let _ = fs::remove_dir_all(&dir);
}
