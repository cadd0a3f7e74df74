//! Persist-event crash-point sweep over the pds structures at multiple
//! shard counts.
//!
//! Mirrors the core bank-transfer sweep harness: learn the insert stream's
//! persist-event count with a `count_only` plan, then for strided crash
//! points `k` replay from scratch, trip an injected crash at `k`, take an
//! adversarial `drop_all` power failure, recover, and check the structure.
//! Because persist-event numbering is shard-count-invariant, the sweep
//! summary — and the recorded event trace — must be identical at every
//! shard count.

use std::collections::BTreeMap;
use std::sync::Arc;

use clobber_nvm::{Backend, Runtime, RuntimeOptions};
use clobber_pds::{HashMap, RbTree};
use clobber_pmem::{CacheImpl, CrashConfig, FaultPlan, PmemPool, PoolMode, PoolOptions, Tracer};

const KEYS: u64 = 12;

fn value_of(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v[63] = k as u8 ^ 0x5A;
    v
}

enum Handle {
    H(HashMap),
    R(RbTree),
}

fn register(structure: &str, rt: &Runtime) {
    match structure {
        "hashmap" => HashMap::register(rt),
        "rbtree" => RbTree::register(rt),
        _ => unreachable!(),
    }
}

/// Fresh pool + runtime with the structure created and set as app root.
fn setup(structure: &str, shards: u32) -> (Arc<PmemPool>, Runtime, Handle) {
    let opts = PoolOptions::crash_sim(8 << 20).with_shards(shards);
    let pool = Arc::new(PmemPool::create(opts).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap();
    register(structure, &rt);
    let h = match structure {
        "hashmap" => Handle::H(HashMap::create(&rt).unwrap()),
        "rbtree" => Handle::R(RbTree::create(&rt).unwrap()),
        _ => unreachable!(),
    };
    let root = match &h {
        Handle::H(x) => x.root(),
        Handle::R(x) => x.root(),
    };
    rt.set_app_root(root).unwrap();
    (pool, rt, h)
}

/// Inserts keys 0..KEYS, stopping at the first failure (a dead pool fails
/// every later transaction anyway).
fn run_inserts(rt: &Runtime, h: &Handle) {
    for k in 0..KEYS {
        let r = match h {
            Handle::H(x) => x.insert(rt, k, &value_of(k)),
            Handle::R(x) => x.insert(rt, k, &value_of(k)),
        };
        if r.is_err() {
            break;
        }
    }
}

/// Persist events the intact insert stream issues.
fn count_events(structure: &str, shards: u32) -> u64 {
    let (pool, rt, h) = setup(structure, shards);
    pool.arm_faults(FaultPlan::count_only());
    run_inserts(&rt, &h);
    pool.disarm_faults()
}

#[derive(Debug, Default, PartialEq, Eq)]
struct Summary {
    events: u64,
    crash_points: u64,
    reexecuted: u64,
    rolled_back: u64,
    keys_recovered: u64,
}

/// Sweeps strided crash points at the given shard count.
fn sweep(structure: &str, shards: u32) -> Summary {
    let mut summary = Summary {
        events: count_events(structure, shards),
        ..Summary::default()
    };
    let stride = (summary.events / 12).max(1);
    let mut k = 0;
    while k < summary.events {
        // Crash at event k, adversarial power failure.
        let (pool, rt, h) = setup(structure, shards);
        pool.arm_faults(FaultPlan::crash_at(k));
        run_inserts(&rt, &h);
        assert_eq!(pool.fault_tripped(), Some(k), "{structure}: event {k}");
        let media = pool
            .crash(&CrashConfig::drop_all(0xBEEF ^ k))
            .unwrap()
            .media_snapshot();

        // Reopen at the same shard count and recover.
        let pool2 = Arc::new(
            PmemPool::open_from_media_with(media, PoolMode::CrashSim, CacheImpl::Dense, shards)
                .unwrap(),
        );
        let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::new(Backend::clobber())).unwrap();
        register(structure, &rt2);
        let report = rt2.recover().unwrap();
        pool2.check_heap().unwrap();

        // Contents are exactly the prefix 0..len with every value intact:
        // clobber recovery completes the interrupted insert, never tears it.
        let root = rt2.app_root().unwrap();
        let pairs: BTreeMap<u64, Vec<u8>> = match structure {
            "hashmap" => HashMap::open(root)
                .dump(&pool2)
                .unwrap()
                .into_iter()
                .collect(),
            "rbtree" => RbTree::open(root)
                .dump(&pool2)
                .unwrap()
                .into_iter()
                .collect(),
            _ => unreachable!(),
        };
        let len = pairs.len() as u64;
        assert!(len <= KEYS, "{structure} crash@{k}");
        for key in 0..len {
            assert_eq!(
                pairs.get(&key),
                Some(&value_of(key)),
                "{structure} crash@{k}: key {key}"
            );
        }
        assert_eq!(report.rolled_back, 0, "{structure} crash@{k}");

        summary.crash_points += 1;
        summary.reexecuted += report.reexecuted.len() as u64;
        summary.keys_recovered += len;
        k += stride;
    }
    assert!(summary.crash_points > 0);
    summary
}

/// Satellite 1: the sweep passes on both structures at shards {1, 4}, and
/// — because crash draws and event numbering are shard-invariant — the
/// summaries agree exactly across shard counts.
#[test]
fn sharded_sweep_rbtree_and_hashmap() {
    for structure in ["rbtree", "hashmap"] {
        let base = sweep(structure, 1);
        let four = sweep(structure, 4);
        assert_eq!(
            base, four,
            "{structure}: sweep diverged across shard counts"
        );
    }
}

/// The insert stream's recorded trace is identical at shards 1 and 4 —
/// the pds workloads obey the same golden-trace contract as the core
/// script.
#[test]
fn insert_trace_is_shard_invariant() {
    for structure in ["rbtree", "hashmap"] {
        let mut traces = Vec::new();
        for shards in [1, 4] {
            let (pool, rt, h) = setup(structure, shards);
            let tracer = Arc::new(Tracer::new());
            pool.set_tracer(Some(tracer.clone()));
            run_inserts(&rt, &h);
            pool.set_tracer(None);
            traces.push(tracer.take());
        }
        assert!(!traces[0].events.is_empty(), "{structure}");
        assert!(
            traces[0].diff(&traces[1]).is_none(),
            "{structure}: {}",
            traces[0].diff(&traces[1]).unwrap()
        );
    }
}
