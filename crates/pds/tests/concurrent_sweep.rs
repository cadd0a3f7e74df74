//! Tentpole acceptance: concurrent persistent structures survive crashes.
//!
//! Three tiers:
//!
//! * **Racing sweeps** — 2 (exhaustively 4) OS threads drive
//!   `insert_sync`/`remove_sync` on the hash map (per-bucket locks) and
//!   the skiplist (global lock) while a [`FaultPlan`] crash trips at a
//!   swept persist event; after an adversarial power failure and
//!   recovery, the structure must pass its full structural check with
//!   every surviving key holding exactly its canonical value — at shards
//!   1 and 4.
//! * **Deterministic 2-lane sweep** — a fixed interleaved schedule over
//!   *both* structures through locked `run_on`, crashed at every strided
//!   persist event; the recovered media must be byte-identical at shard
//!   counts 1 and 4 (the determinism contract extended to locked
//!   transactions), and a second
//!   recovery must change nothing (idempotence).
//! * **Explorer over the real concurrent hash map** — a schedule
//!   recorded from genuinely racing `insert_sync` threads feeds the
//!   PR 8 [`Explorer`], which must enumerate its interleavings and crash
//!   prefixes with zero invariant violations (the injected-bug hunt
//!   stays covered by `explore_pds.rs`).
//!
//! The stride-1, 4-thread exhaustive tier runs behind `--ignored`
//! (CI: `workflow_dispatch` with `full_sweep=true`).

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

use clobber_nvm::{
    ArgList, Backend, ExploreOptions, Explorer, Runtime, RuntimeOptions, Schedule, TxError,
};
use clobber_pds::workload::{value_of, ExploreWorkload};
use clobber_pds::{hashmap, skiplist, HashMap, SkipList};
use clobber_pmem::{CacheImpl, CrashConfig, FaultPlan, PmemPool, PoolMode, PoolOptions, Tracer};

const KEYS_PER_THREAD: u64 = 10;

/// Small logs keep the many replayed pools cheap.
fn rt_options() -> RuntimeOptions {
    let mut opts = RuntimeOptions::new(Backend::clobber());
    opts.clobber_log_cap = 32 << 10;
    opts.redo_log_cap = 32 << 10;
    opts
}

fn recover_opts() -> clobber_nvm::RecoveryOptions {
    clobber_nvm::RecoveryOptions::default().no_wait()
}

enum Handle {
    H(HashMap),
    S(SkipList),
}

impl Handle {
    fn root(&self) -> clobber_pmem::PAddr {
        match self {
            Handle::H(x) => x.root(),
            Handle::S(x) => x.root(),
        }
    }
}

fn setup(structure: &str, shards: u32) -> (Arc<PmemPool>, Runtime, Handle) {
    let opts = PoolOptions::crash_sim(8 << 20).with_shards(shards);
    let pool = Arc::new(PmemPool::create(opts).unwrap());
    let rt = Runtime::create(pool.clone(), rt_options()).unwrap();
    let h = match structure {
        "hashmap" => {
            HashMap::register(&rt);
            Handle::H(HashMap::create(&rt).unwrap())
        }
        "skiplist" => {
            SkipList::register(&rt);
            Handle::S(SkipList::create(&rt).unwrap())
        }
        _ => unreachable!(),
    };
    rt.set_app_root(h.root()).unwrap();
    (pool, rt, h)
}

/// `threads` racing workers, each inserting its own key range through the
/// `*_sync` locked entry points, then removing its first key. Workers
/// stop at the first error — after a fault trips, every pool op fails.
fn run_racing(rt: &Runtime, h: &Handle, threads: usize) {
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let (rt, start, h) = (rt, &start, h);
            s.spawn(move || {
                start.wait();
                let work = || -> Result<(), TxError> {
                    for i in 0..KEYS_PER_THREAD {
                        let key = t * 1000 + i;
                        match h {
                            Handle::H(x) => x.insert_sync(rt, key, &value_of(key))?,
                            Handle::S(x) => x.insert_sync(rt, key, &value_of(key))?,
                        };
                    }
                    match h {
                        Handle::H(x) => x.remove_sync(rt, t * 1000)?,
                        Handle::S(x) => x.remove_sync(rt, t * 1000)?,
                    };
                    Ok(())
                };
                let _ = work();
            });
        }
    });
}

/// Persist events a full racing run issues (approximate — racing runs are
/// schedule-dependent — but a fine sweep upper bound).
fn count_racing_events(structure: &str, shards: u32, threads: usize) -> u64 {
    let (pool, rt, h) = setup(structure, shards);
    pool.arm_faults(FaultPlan::count_only());
    run_racing(&rt, &h, threads);
    pool.disarm_faults()
}

/// The subset-robust invariant: structurally sound, no duplicate keys,
/// every present key holding exactly `value_of(key)`.
fn check_contents(pool: &PmemPool, h: &Handle, ctx: &str) {
    let pairs = match h {
        Handle::H(x) => x.dump(pool).unwrap(),
        Handle::S(x) => x.dump(pool).unwrap(),
    };
    let mut seen = BTreeSet::new();
    for (k, v) in pairs {
        assert!(seen.insert(k), "{ctx}: key {k} present twice");
        assert_eq!(v, value_of(k), "{ctx}: key {k} holds torn bytes");
    }
}

/// One racing crash point: race to event `k`, adversarial power failure,
/// recover at the same shard count, full structural + value check, and
/// the recovered structure keeps serving locked transactions.
fn racing_crash_point(structure: &str, shards: u32, threads: usize, k: u64) {
    let ctx = format!("{structure} shards={shards} threads={threads} k={k}");
    let (pool, rt, h) = setup(structure, shards);
    pool.arm_faults(FaultPlan::crash_at(k));
    run_racing(&rt, &h, threads);
    if pool.fault_tripped().is_none() {
        // This particular interleaving finished before event k; the race
        // itself must still have produced a consistent structure.
        pool.disarm_faults();
        check_contents(&pool, &h, &ctx);
        return;
    }
    let media = pool
        .crash(&CrashConfig::drop_all(0xD15C ^ k))
        .unwrap()
        .media_snapshot();

    let pool2 = Arc::new(
        PmemPool::open_from_media_with(media, PoolMode::CrashSim, CacheImpl::Dense, shards)
            .unwrap(),
    );
    let rt2 = Runtime::open(pool2.clone(), rt_options()).unwrap();
    let h2 = match structure {
        "hashmap" => {
            HashMap::register(&rt2);
            Handle::H(HashMap::open(rt2.app_root().unwrap()))
        }
        "skiplist" => {
            SkipList::register(&rt2);
            Handle::S(SkipList::open(rt2.app_root().unwrap()))
        }
        _ => unreachable!(),
    };
    rt2.recover_with(&recover_opts())
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    pool2.check_heap().unwrap();
    check_contents(&pool2, &h2, &ctx);
    // Idempotence: nothing left ongoing.
    let again = rt2.recover_with(&recover_opts()).unwrap();
    assert!(
        again.is_clean(),
        "{ctx}: second recover did work: {again:?}"
    );
    // The recovered structure keeps working through the locked paths.
    match &h2 {
        Handle::H(x) => x.insert_sync(&rt2, 777_777, &value_of(777_777)).unwrap(),
        Handle::S(x) => x.insert_sync(&rt2, 777_777, &value_of(777_777)).unwrap(),
    }
    check_contents(&pool2, &h2, &ctx);
}

fn racing_sweep(structure: &str, threads: usize, stride_div: u64) {
    for shards in [1u32, 4] {
        let events = count_racing_events(structure, shards, threads);
        assert!(events > 0, "{structure}: racing run issues persist events");
        let stride = (events / stride_div).max(1);
        let mut k = 0;
        while k < events {
            racing_crash_point(structure, shards, threads, k);
            k += stride;
        }
    }
}

/// Tier-1 racing sweep: 2 threads, strided crash points, shards {1, 4}.
#[test]
fn racing_hashmap_sweep_recovers_at_shards_1_and_4() {
    racing_sweep("hashmap", 2, 8);
}

/// Tier-1 racing sweep over the single-lock skiplist.
#[test]
fn racing_skiplist_sweep_recovers_at_shards_1_and_4() {
    racing_sweep("skiplist", 2, 8);
}

/// Exhaustive tier (CI `full_sweep=true`): 4 racing threads, every
/// persist event.
#[test]
#[ignore = "stride-1 exhaustive racing sweep; run explicitly or via CI full_sweep"]
fn racing_sweep_exhaustive() {
    racing_sweep("hashmap", 4, u64::MAX);
    racing_sweep("skiplist", 4, u64::MAX);
}

// ---------------------------------------------------------------------------
// Deterministic 2-lane sweep: byte-identical recovery across shard counts.

/// Both structures in one pool, built in a fixed order so the layout is
/// identical at every shard count.
fn setup_two(shards: u32) -> (Arc<PmemPool>, Runtime, HashMap, SkipList) {
    let opts = PoolOptions::crash_sim(4 << 20).with_shards(shards);
    let pool = Arc::new(PmemPool::create(opts).unwrap());
    let rt = Runtime::create(pool.clone(), rt_options()).unwrap();
    HashMap::register(&rt);
    SkipList::register(&rt);
    let map = HashMap::create(&rt).unwrap();
    let sl = SkipList::create(&rt).unwrap();
    rt.set_app_root(map.root()).unwrap();
    (pool, rt, map, sl)
}

/// The fixed 2-lane locked schedule: lane 0 works the hash map, lane 1
/// the skiplist, strictly alternating. Stops at the first error (dead
/// pool after a trip).
fn run_two_lane(rt: &Runtime, map: &HashMap, sl: &SkipList) -> Result<(), TxError> {
    let hm_args = |k: u64| {
        ArgList::new()
            .with_u64(map.root().offset())
            .with_u64(k)
            .with_bytes(&value_of(k))
    };
    let sl_args = |k: u64| {
        ArgList::new()
            .with_u64(sl.root().offset())
            .with_u64(k)
            .with_bytes(&value_of(k))
    };
    let key_args =
        |root: clobber_pmem::PAddr, k: u64| ArgList::new().with_u64(root.offset()).with_u64(k);
    for k in [1u64, 2, 3] {
        rt.run_on(0, &[map.lock_for(k, true)], hashmap::TX_INSERT, &hm_args(k))?;
        rt.run_on(
            1,
            &[sl.lock_for(true)],
            skiplist::TX_INSERT,
            &sl_args(10 * k),
        )?;
    }
    rt.run_on(
        0,
        &[map.lock_for(1, true)],
        hashmap::TX_REMOVE,
        &key_args(map.root(), 1),
    )?;
    rt.run_on(
        1,
        &[sl.lock_for(true)],
        skiplist::TX_REMOVE,
        &key_args(sl.root(), 10),
    )?;
    Ok(())
}

/// Crash the 2-lane schedule at event `k` with `shards` shards, recover, and
/// return the recovered pool's full media image.
fn two_lane_recovered_media(shards: u32, k: u64) -> Vec<u8> {
    let (pool, rt, map, sl) = setup_two(shards);
    pool.arm_faults(FaultPlan::crash_at(k));
    let _ = run_two_lane(&rt, &map, &sl);
    assert_eq!(pool.fault_tripped(), Some(k), "event {k} must trip");
    let media = pool
        .crash(&CrashConfig::drop_all(0x2A17 ^ k))
        .unwrap()
        .media_snapshot();
    let pool2 = Arc::new(
        PmemPool::open_from_media_with(media, PoolMode::CrashSim, CacheImpl::Dense, shards)
            .unwrap(),
    );
    let rt2 = Runtime::open(pool2.clone(), rt_options()).unwrap();
    HashMap::register(&rt2);
    SkipList::register(&rt2);
    rt2.recover_with(&recover_opts())
        .unwrap_or_else(|e| panic!("{shards} shards k={k}: recovery failed: {e}"));
    // Structural sanity on top of the byte comparison.
    check_contents(
        &pool2,
        &Handle::H(HashMap::open(rt2.app_root().unwrap())),
        &format!("{shards} shards k={k}"),
    );
    check_contents(&pool2, &Handle::S(sl), &format!("{shards} shards k={k}"));
    // Idempotence: a second recovery must not move a single byte.
    let snap = pool2.media_snapshot();
    let again = rt2.recover_with(&recover_opts()).unwrap();
    assert!(again.is_clean(), "{shards} shards k={k}: {again:?}");
    assert_eq!(
        snap,
        pool2.media_snapshot(),
        "{shards} shards k={k}: re-recovery moved bytes"
    );
    snap
}

/// The determinism contract, extended to locked transactions: crash the
/// fixed 2-lane schedule at every strided persist event and recover —
/// the recovered media is byte-identical at 4 shards and on the one-shard
/// reference.
#[test]
fn two_lane_sweep_recovers_byte_identically_across_engines() {
    // Count events once; the schedule is deterministic, so the count is
    // shard-count-invariant (asserted by the sweep below tripping
    // everywhere).
    let (pool, rt, map, sl) = setup_two(1);
    pool.arm_faults(FaultPlan::count_only());
    run_two_lane(&rt, &map, &sl).unwrap();
    let events = pool.disarm_faults();
    assert!(events > 0);

    let stride = (events / 12).max(1);
    let mut k = 0;
    let mut points = 0;
    while k < events {
        let golden = two_lane_recovered_media(1, k);
        let other = two_lane_recovered_media(4, k);
        assert_eq!(golden, other, "k={k}: recovered media diverged at 4 shards");
        points += 1;
        k += stride;
    }
    assert!(
        points >= 8,
        "sweep must cover a real spread of crash points"
    );
}

// ---------------------------------------------------------------------------
// Explorer over the real concurrent hash map.

/// Record a schedule from genuinely racing `insert_sync` threads, then
/// let the explorer enumerate its interleavings and crash prefixes: the
/// real concurrent hash map (not just the injected-bug workload) yields
/// zero violations.
#[test]
fn explorer_clears_schedule_recorded_from_racing_hashmap_threads() {
    let wl = ExploreWorkload::new(1);
    let (pool, rt) = wl.build();
    let map = HashMap::open(rt.app_root().unwrap());

    // Two real threads race through the locked path: one inserts keys 1
    // and 2, the other key 3 (the acceptance workload's shape, but with
    // the interleaving chosen by the scheduler, not by us). The `leased`
    // rendezvous after each thread's first insert keeps both slot leases
    // held concurrently — on a 1-CPU host a thread can otherwise finish
    // (and return its slot) before its peer starts, collapsing the
    // recorded schedule to one lane.
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    let start = Barrier::new(2);
    let leased = Barrier::new(2);
    std::thread::scope(|s| {
        for keys in [vec![1u64, 2], vec![3u64]] {
            let (rt, map, start, leased) = (&rt, &map, &start, &leased);
            s.spawn(move || {
                start.wait();
                let mut first = true;
                for k in keys {
                    map.insert_sync(rt, k, &value_of(k)).unwrap();
                    if std::mem::take(&mut first) {
                        leased.wait();
                    }
                }
            });
        }
    });
    pool.set_tracer(None);
    wl.check(&pool, &rt).expect("racing run is clean");

    let seed = Schedule::from_trace(&tracer.take()).expect("recorded schedule parses");
    assert_eq!(seed.len(), 3, "one op per recorded insert");
    let lanes: BTreeSet<usize> = seed.ops.iter().map(|o| o.slot).collect();
    assert_eq!(lanes.len(), 2, "two racing threads -> two lanes");

    let opts = ExploreOptions::default()
        .with_budget(64)
        .with_crash_stride(5)
        .with_max_crash_points(8)
        .with_seed(0x5EED);
    let explorer = Explorer::new(wl.session(), seed, opts);
    let report = explorer.run().expect("exploration runs");
    assert!(report.complete, "3-op schedule fits the budget");
    assert!(report.schedules_run >= 3, "all (2,1)-lane merges explored");
    assert!(report.crashes_planted > 0);
    assert!(
        report.failures.is_empty(),
        "concurrent hashmap must survive exploration: {:?}",
        report.failures
    );
}
