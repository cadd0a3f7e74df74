//! Unit-cost calibration: isolated calls to each layer's public primitive,
//! on a fresh pool with the workload's own engine and options.
//!
//! Each cost is the median over several rounds of the mean time per call
//! within a round. The traced run multiplies these by the workload's
//! counted events to give *attributed* (count × isolated unit cost) layer
//! times; they are never measured inside the program.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use clobber_nvm::rangeset::RangeSet;
use clobber_nvm::{ArgList, Backend, GroupCommit, LockRequest, Runtime, RuntimeOptions};
use clobber_pmem::{LogWriter, PmemPool, PoolOptions, Ulog};

use crate::util::{derive, median, Report};

const ROUNDS: usize = 7;

/// Isolated per-call costs in nanoseconds (pool creation in milliseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Calib {
    pub empty_tx_ns: f64,
    pub lock_pair_ns: f64,
    pub gc_fence_ns: f64,
    pub rangeset_ns: f64,
    pub read64_ns: f64,
    pub store64_flush_ns: f64,
    pub fence_ns: f64,
    pub ulog_append_ns: f64,
    pub ulog_sync_ns: f64,
    pub alloc_free_ns: f64,
    pub pool_create_ms: f64,
}

/// Median over rounds of the mean ns per call of `f` run `iters` times.
fn per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        rounds.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&mut rounds)
}

/// A read set shaped like one hash-map transaction's: the bucket head plus
/// the key/next words of `chain` nodes scattered over the heap.
fn workload_read_set(chain: usize) -> RangeSet {
    let mut rs = RangeSet::new();
    rs.insert(4096, 4104);
    for i in 0..chain as u64 {
        let node = 1 << 20 | (derive(7, i) % (1 << 24)) & !31;
        rs.insert(node, node + 8);
        rs.insert(node + 24, node + 32);
    }
    rs
}

fn err<E: std::fmt::Debug>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}

/// Calibrates every unit cost on a fresh pool built from `opts`.
/// `chain` is the workload's mean hash-chain length (read-set shape).
pub fn calibrate(opts: PoolOptions, chain: usize) -> Result<Calib, String> {
    let mut c = Calib::default();
    let mut creates = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let p = PmemPool::create(opts).map_err(err("pool create"))?;
        creates.push(t.elapsed().as_secs_f64() * 1e3);
        drop(p);
    }
    c.pool_create_ms = median(&mut creates);

    let pool = Arc::new(PmemPool::create(opts).map_err(err("pool create"))?);
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber()))
        .map_err(err("runtime create"))?;
    rt.register("perfbench_noop", |_tx, _args| Ok(None));
    let args = ArgList::new();
    c.empty_tx_ns = per_call(20_000, |_| {
        black_box(rt.run("perfbench_noop", &args).expect("no-op transaction"));
    });

    let locks = rt.locks();
    c.lock_pair_ns = per_call(200_000, |i| {
        drop(black_box(
            locks.acquire(&pool, &[LockRequest::exclusive(i & 255)]),
        ));
    });

    let gc = GroupCommit::new(1);
    c.gc_fence_ns = per_call(200_000, |_| gc.fence(&pool));

    let rs = workload_read_set(chain);
    let mut out = Vec::with_capacity(64);
    c.rangeset_ns = per_call(200_000, |i| {
        let s = 1 << 20 | (derive(9, i) % (1 << 24)) & !7;
        out.clear();
        rs.intersect_into(s, s + 16, &mut out);
        rs.subtract_into(s, s + 16, &mut out);
        black_box(&out);
    });

    let cell = pool.alloc(4096).map_err(err("alloc"))?;
    let mut word = [0u8; 8];
    c.read64_ns = per_call(200_000, |i| {
        pool.read_into(cell.add((i & 63) * 8), &mut word)
            .expect("read");
        black_box(&word);
    });
    c.store64_flush_ns = per_call(200_000, |i| {
        let a = cell.add((i & 63) * 64);
        pool.write_u64(a, i).expect("store");
        pool.flush(a, 8).expect("flush");
    });
    let store_flush_fence = per_call(200_000, |i| {
        let a = cell.add((i & 63) * 64);
        pool.write_u64(a, i).expect("store");
        pool.flush(a, 8).expect("flush");
        pool.fence();
    });
    c.fence_ns = store_flush_fence - c.store64_flush_ns;

    // v2 line-buffered log: 8-byte entries as one clobber_log preserve.
    let cap = 64 << 10;
    let base = pool.alloc(cap).map_err(err("log alloc"))?;
    let log = Ulog::format_v2(&pool, base, cap).map_err(err("log format"))?;
    let mut w = LogWriter::attach(&pool, log).map_err(err("log attach"))?;
    let old = [0x5Au8; 8];
    let per_reset = 1024;
    let appends = per_call(200_000, |i| {
        if i % per_reset == 0 {
            w.reset_unfenced(&pool).expect("log reset");
        }
        w.append(&pool, cell, &old).expect("log append");
    });
    let append_sync = per_call(200_000, |i| {
        if i % per_reset == 0 {
            w.reset_unfenced(&pool).expect("log reset");
        }
        w.append(&pool, cell, &old).expect("log append");
        w.sync(&pool).expect("log sync");
    });
    c.ulog_append_ns = appends;
    c.ulog_sync_ns = append_sync - appends;

    c.alloc_free_ns = per_call(100_000, |_| {
        let a = pool.alloc(256).expect("alloc");
        pool.free(black_box(a)).expect("free");
    });
    Ok(c)
}

/// Adds the calibration rows to a traced report.
pub fn report(r: &mut Report, c: &Calib) {
    r.line("unit-cost calibration (isolated public calls, median of rounds):".into());
    let rows: [(&str, f64, &'static str); 11] = [
        ("core.empty_tx_ns", c.empty_tx_ns, "ns"),
        ("core.lock_pair_ns", c.lock_pair_ns, "ns"),
        ("core.gc_fence_ns", c.gc_fence_ns, "ns"),
        ("core.rangeset_ns", c.rangeset_ns, "ns"),
        ("pmem.read64_ns", c.read64_ns, "ns"),
        ("pmem.store64_flush_ns", c.store64_flush_ns, "ns"),
        ("pmem.fence_ns", c.fence_ns, "ns"),
        ("pmem.ulog_append_ns", c.ulog_append_ns, "ns"),
        ("pmem.ulog_sync_ns", c.ulog_sync_ns, "ns"),
        ("pmem.alloc_free_ns", c.alloc_free_ns, "ns"),
        ("pmem.pool_create_ms", c.pool_create_ms, "ms"),
    ];
    for (name, v, unit) in rows {
        r.line(format!("  calib {name:<24} {v:>12.2} {unit}"));
        r.layer(name, v, unit, ROUNDS as u64);
    }
}
