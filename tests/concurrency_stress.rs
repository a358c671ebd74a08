//! Concurrency stress over the full stack: many threads, many files,
//! reads + writes + migrations + autotier epochs all racing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mux::BLOCK;
use tvfs::{FileSystem, FileType, ROOT_INO};

#[test]
fn parallel_migrations_of_independent_files() {
    let (mux, _clock, _devs) = mux_repro::default_hierarchy(128 << 20, 256 << 20, 1 << 30);
    let mux = Arc::new(mux);
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let mux = Arc::clone(&mux);
        handles.push(std::thread::spawn(move || {
            let f = mux
                .create(ROOT_INO, &format!("par{t}"), FileType::Regular, 0o644)
                .unwrap();
            let blocks = 32u64;
            let stamp = (t + 1) as u8;
            mux.write(f.ino, 0, &vec![stamp; (blocks * BLOCK) as usize])
                .unwrap();
            for round in 0..10u64 {
                let to = ((t + round) % 3) as u32;
                mux.migrate_range(f.ino, 0, blocks, to).unwrap();
                let mut buf = vec![0u8; (blocks * BLOCK) as usize];
                mux.read(f.ino, 0, &mut buf).unwrap();
                assert!(
                    buf.iter().all(|&b| b == stamp),
                    "thread {t} saw foreign data after round {round}"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Exactly one migration stream per file: no cross-talk in OCC stats.
    // Threads 0 and 3 start with a no-op hop (data already on tier 0),
    // so 58 of the 60 requests actually move blocks.
    let (migs, _, _, _, moved) = mux.occ_stats().snapshot();
    assert_eq!(migs, 58);
    assert_eq!(moved, 58 * 32);
}

#[test]
fn concurrent_migration_of_same_file_is_rejected_not_corrupted() {
    let (mux, _clock, _devs) = mux_repro::default_hierarchy(128 << 20, 256 << 20, 1 << 30);
    let mux = Arc::new(mux);
    let f = mux
        .create(ROOT_INO, "hot", FileType::Regular, 0o644)
        .unwrap();
    let blocks = 1024u64;
    mux.write(f.ino, 0, &vec![5u8; (blocks * BLOCK) as usize])
        .unwrap();
    let busy_seen = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let mux = Arc::clone(&mux);
        let busy_seen = Arc::clone(&busy_seen);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            for round in 0..20u64 {
                // All four threads fire together every round, so per-file
                // serialization is guaranteed to collide.
                barrier.wait();
                let to = ((t + round) % 3) as u32;
                match mux.migrate_range(f.ino, 0, blocks, to) {
                    Ok(_) => {}
                    Err(tvfs::VfsError::Busy) => {
                        busy_seen.store(true, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // With 4 threads hammering one file, at least one Busy is expected
    // (per-file migrations are serialized, §2.4) — and the data survives.
    assert!(
        busy_seen.load(Ordering::Relaxed),
        "migrations never collided"
    );
    let mut buf = vec![0u8; (blocks * BLOCK) as usize];
    mux.read(f.ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 5));
}

#[test]
fn readers_writers_and_policy_passes_race_safely() {
    let (mux, clock, _devs) = mux_repro::default_hierarchy(32 << 20, 256 << 20, 1 << 30);
    let n_files = 8u64;
    let blocks = 16u64;
    let mut inos = Vec::new();
    for i in 0..n_files {
        let f = mux
            .create(ROOT_INO, &format!("f{i}"), FileType::Regular, 0o644)
            .unwrap();
        mux.write(f.ino, 0, &vec![i as u8; (blocks * BLOCK) as usize])
            .unwrap();
        inos.push(f.ino);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let inos = Arc::new(inos);
    let mut handles = Vec::new();
    // Writers: each owns two files, stamping block headers.
    for t in 0..4u64 {
        let mux = Arc::clone(&mux);
        let stop = Arc::clone(&stop);
        let inos = Arc::clone(&inos);
        handles.push(std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for k in 0..2u64 {
                    let idx = (t * 2 + k) as usize;
                    let mut page = vec![idx as u8; BLOCK as usize];
                    page[..8].copy_from_slice(&round.to_le_bytes());
                    mux.write(inos[idx], (round % blocks) * BLOCK, &page)
                        .unwrap();
                }
                round += 1;
            }
        }));
    }
    // Readers: verify every block belongs to the right file.
    for _ in 0..2 {
        let mux = Arc::clone(&mux);
        let stop = Arc::clone(&stop);
        let inos = Arc::clone(&inos);
        handles.push(std::thread::spawn(move || {
            let mut buf = vec![0u8; BLOCK as usize];
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let idx = (i % n_files) as usize;
                let b = i % blocks;
                mux.read(inos[idx], b * BLOCK, &mut buf).unwrap();
                let tail = buf[BLOCK as usize - 1];
                assert!(
                    tail == idx as u8,
                    "file {idx} block {b} contains file {tail}'s data"
                );
                i += 1;
            }
        }));
    }
    // Autotier epochs churn placements underneath everyone.
    for _ in 0..12 {
        clock.advance(mux::AutotierConfig::default().epoch_ns);
        mux.maintenance_tick();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}
