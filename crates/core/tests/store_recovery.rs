//! Corruption-recovery tests for the persistent result store.
//!
//! The segment file is append-only, so every failure mode a kill or a
//! disk hiccup can produce is a *suffix* problem: a torn final record,
//! a bit flip that breaks one record's checksum, or a file that is not
//! a store at all. Loading must never error or serve a corrupt result —
//! it truncates back to the last good record (or resets an alien file)
//! and reports exactly what it did.

use std::fs;
use std::path::PathBuf;
use xlda_core::evaluate::{HdcScenario, MannScenario, Scenario};
use xlda_core::store::{ResultStore, StoreOptions, HEADER_LEN, MODEL_FINGERPRINT};

/// Unique temp path per test so parallel test threads never collide.
fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "xlda_store_rec_{}_{}.bin",
        std::process::id(),
        name
    ));
    let _ = fs::remove_file(&p);
    p
}

/// A small mixed grid with distinct digests.
fn grid() -> Vec<HdcScenario> {
    (0..6)
        .map(|i| HdcScenario {
            classes: 10 + i,
            ..HdcScenario::default()
        })
        .collect()
}

fn populate(store: &ResultStore, grid: &[HdcScenario]) {
    for s in grid {
        store
            .evaluate_cached(s)
            .expect("default-adjacent points model");
    }
    store.flush();
}

#[test]
fn reopen_recovers_every_record_bit_exactly() {
    let path = tmp("roundtrip");
    let grid = grid();
    {
        let store = ResultStore::open(&path).expect("open");
        assert_eq!(store.load_report().recovered_records, 0);
        populate(&store, &grid);
    }
    let store = ResultStore::open(&path).expect("reopen");
    let rep = store.load_report();
    assert_eq!(rep.recovered_records, grid.len() as u64);
    assert_eq!(rep.truncated_bytes, 0);
    assert!(!rep.reset);
    for s in &grid {
        let direct = s.evaluate().expect("evaluates");
        let stored = store
            .get(&s.store_key().expect("keyed"))
            .expect("recovered");
        assert_eq!(stored, direct, "stored result must be bit-exact");
    }
    assert_eq!(store.stats().misses, 0);
    let _ = fs::remove_file(&path);
}

#[test]
fn torn_tail_is_truncated_not_fatal() {
    let path = tmp("torn");
    let grid = grid();
    {
        let store = ResultStore::open(&path).expect("open");
        populate(&store, &grid);
    }
    let clean_len = fs::metadata(&path).expect("meta").len();
    // Simulate a kill mid-append: garbage that parses as a plausible
    // record length followed by not enough bytes.
    let mut bytes = fs::read(&path).expect("read");
    bytes.extend_from_slice(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe]);
    fs::write(&path, &bytes).expect("write");

    let store = ResultStore::open(&path).expect("recover");
    let rep = store.load_report();
    assert_eq!(rep.recovered_records, grid.len() as u64);
    assert_eq!(rep.truncated_bytes, 7);
    assert!(!rep.reset);
    assert_eq!(fs::metadata(&path).expect("meta").len(), clean_len);
    // The store keeps working after recovery: a fresh insert survives
    // another reopen.
    let extra = MannScenario::default();
    store.evaluate_cached(&extra).expect("evaluates");
    store.flush();
    drop(store);
    let store = ResultStore::open(&path).expect("reopen");
    assert_eq!(store.load_report().recovered_records, grid.len() as u64 + 1);
    assert!(store.contains(&extra.store_key().expect("keyed")));
    let _ = fs::remove_file(&path);
}

#[test]
fn bit_flipped_checksum_truncates_from_the_bad_record() {
    let path = tmp("bitflip");
    let grid = grid();
    {
        let store = ResultStore::open(&path).expect("open");
        populate(&store, &grid);
    }
    // Flip one bit a few records in; append-only means everything from
    // the flipped record on is suspect and must be dropped.
    let mut bytes = fs::read(&path).expect("read");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    fs::write(&path, &bytes).expect("write");

    let store = ResultStore::open(&path).expect("recover");
    let rep = store.load_report();
    assert!(
        rep.recovered_records < grid.len() as u64,
        "the flipped record must not load"
    );
    assert!(rep.truncated_bytes > 0);
    assert!(!rep.reset);
    // Whatever loaded is bit-exact; the dropped points just re-evaluate.
    let mut hits = 0;
    for s in &grid {
        if let Some(stored) = store.get(&s.store_key().expect("keyed")) {
            assert_eq!(stored, s.evaluate().expect("evaluates"));
            hits += 1;
        }
    }
    assert_eq!(hits as u64, rep.recovered_records);
    let _ = fs::remove_file(&path);
}

#[test]
fn alien_or_version_mismatched_file_resets() {
    let path = tmp("alien");
    fs::write(&path, b"this is not a store file at all............").expect("write");
    let store = ResultStore::open(&path).expect("open resets");
    let rep = store.load_report();
    assert!(rep.reset);
    assert_eq!(rep.recovered_records, 0);
    assert_eq!(fs::metadata(&path).expect("meta").len(), HEADER_LEN);
    // And it is a working store from here on.
    let s = HdcScenario::default();
    store.evaluate_cached(&s).expect("evaluates");
    store.flush();
    drop(store);
    let store = ResultStore::open(&path).expect("reopen");
    assert_eq!(store.load_report().recovered_records, 1);
    assert!(!store.load_report().reset);
    drop(store);

    // This build's magic and format, another model fingerprint, then one
    // well-formed record: the record was computed by other numerics, so
    // the file resets instead of serving it.
    let bytes = fs::read(&path).expect("read");
    let header = &bytes[..HEADER_LEN as usize];
    let fp_at = HEADER_LEN as usize - 8;
    assert_eq!(header[fp_at..], MODEL_FINGERPRINT.to_le_bytes());
    let mut foreign = bytes.clone();
    foreign[fp_at..HEADER_LEN as usize].copy_from_slice(&(!MODEL_FINGERPRINT).to_le_bytes());
    fs::write(&path, &foreign).expect("write foreign");
    let store = ResultStore::open(&path).expect("open resets");
    let rep = store.load_report();
    assert!(rep.reset);
    assert_eq!(rep.recovered_records, 0);
    drop(store);
    assert_eq!(fs::read(&path).expect("reread"), header);
    let _ = fs::remove_file(&path);
}

#[test]
fn concurrent_opens_interleave_at_record_granularity() {
    let path = tmp("concurrent");
    // Two live store instances on the same path (two daemons, or a
    // daemon plus a bench run). O_APPEND keeps each record append
    // atomic, so both instances' records survive a reload.
    let a = ResultStore::open(&path).expect("open a");
    let b = ResultStore::open(&path).expect("open b");
    let grid = grid();
    std::thread::scope(|scope| {
        let (ga, gb) = grid.split_at(3);
        let a = &a;
        let b = &b;
        scope.spawn(move || populate(a, ga));
        scope.spawn(move || populate(b, gb));
    });
    drop(a);
    drop(b);
    let store = ResultStore::open(&path).expect("reopen");
    let rep = store.load_report();
    assert_eq!(rep.recovered_records, grid.len() as u64);
    assert_eq!(rep.truncated_bytes, 0);
    for s in &grid {
        assert_eq!(
            store.get(&s.store_key().expect("keyed")).expect("present"),
            s.evaluate().expect("evaluates")
        );
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn capacity_bound_survives_reload() {
    let path = tmp("cap");
    {
        let store = ResultStore::open_with(&path, StoreOptions { max_entries: 2 }).expect("open");
        populate(&store, &grid());
    }
    let store = ResultStore::open_with(&path, StoreOptions { max_entries: 2 }).expect("reopen");
    // Disk kept everything; the index re-applies the bound on replay.
    assert_eq!(store.load_report().recovered_records, 6);
    assert_eq!(store.stats().entries, 2);
    assert_eq!(store.stats().evictions, 4);
    let _ = fs::remove_file(&path);
}
