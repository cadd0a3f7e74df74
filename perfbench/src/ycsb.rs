//! `tx_ycsb`: the library path. One thread, closed loop, YCSB-A (50 %
//! reads / 50 % updates, zipf 0.99, 256 B values) through
//! `HashMap::insert_sync` / `get_sync` on an 8 192-key map preloaded during
//! set-up, on the default crash-simulation pool with `Backend::clobber()`.

use std::collections::HashMap as Model;
use std::sync::Arc;
use std::time::Instant;

use clobber_nvm::{Backend, Runtime, RuntimeOptions, TxError};
use clobber_pds::hashmap::{HashMap, BUCKETS};
use clobber_pmem::{PmemPool, PoolMode, PoolOptions, StatsSnapshot};
use clobber_workloads::{KvOp, Workload, WorkloadKind};

use crate::calib::{self, Calib};
use crate::layers::{self, Row};
use crate::restart::{self, App, Cycle};
use crate::util::{
    derive, median_setup, peak_rss_mib, ratio, reset_peak_rss, Hist, Report, SETUPS,
};
use crate::RunOpts;

/// Preloaded keys. `Workload::new` ties its key space to its op count, so
/// the timed stream is a chain of `KEYS`-op streams with derived seeds:
/// every key it touches is one of the preloaded ones.
pub const KEYS: u64 = 8192;
pub const VALUE: usize = 256;
pub const CAPACITY: u64 = 64 << 20;
/// Counted metrics are taken over this fixed prefix of the timed stream,
/// so they repeat exactly for a seed whatever the run length.
pub const COUNT_WINDOW: u64 = 2 * KEYS;
const RESTARTS: usize = 15;

pub fn pool_options() -> PoolOptions {
    PoolOptions::crash_sim(CAPACITY)
}

struct State {
    pool: Arc<PmemPool>,
    rt: Runtime,
    map: HashMap,
    model: Model<u64, Vec<u8>>,
}

impl App for HashMap {
    fn register(rt: &Runtime) {
        HashMap::register(rt);
    }
    fn open(rt: &Runtime) -> Result<HashMap, TxError> {
        Ok(HashMap::open(rt.app_root()?))
    }
}

fn setup() -> Result<State, String> {
    let e = |what: &'static str| move |err: TxError| format!("{what}: {err:?}");
    let pool =
        Arc::new(PmemPool::create(pool_options()).map_err(|e| format!("pool create: {e:?}"))?);
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber()))
        .map_err(e("runtime create"))?;
    HashMap::register(&rt);
    let map = HashMap::create(&rt).map_err(e("map create"))?;
    rt.set_app_root(map.root()).map_err(e("app root"))?;
    let mut model = Model::new();
    for op in Workload::new(WorkloadKind::Load, KEYS, VALUE, 0) {
        if let KvOp::Insert { key, value } = op {
            map.insert_sync(&rt, key, &value).map_err(e("preload"))?;
            model.insert(key, value);
        }
    }
    Ok(State {
        pool,
        rt,
        map,
        model,
    })
}

/// The `chunk`-th block of the timed stream. Update values carry the
/// op's sequence number in their first 8 bytes so a stale read shows.
pub fn stream(seed: u64, chunk: u64) -> Vec<KvOp> {
    let base = chunk * KEYS;
    Workload::new(WorkloadKind::A, KEYS, VALUE, derive(seed, 0x1000 + chunk))
        .enumerate()
        .map(|(i, op)| match op {
            KvOp::Update { key, mut value } => {
                value[..8].copy_from_slice(&(base + i as u64 + 1).to_le_bytes());
                KvOp::Update { key, value }
            }
            other => other,
        })
        .collect()
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    write_us: Hist,
    read_us: Hist,
    busy_s: f64,
    /// Stats delta over the first `COUNT_WINDOW` ops and its op mix.
    window: Option<(StatsSnapshot, u64, u64)>,
    /// Traced only: per-kind stats sums (writes, reads).
    per_kind: Option<(StatsSnapshot, StatsSnapshot)>,
    next_chunk: u64,
}

fn add(acc: &mut StatsSnapshot, d: &StatsSnapshot) {
    acc.fences += d.fences;
    acc.flushes += d.flushes;
    acc.writes += d.writes;
    acc.write_bytes += d.write_bytes;
    acc.reads += d.reads;
    acc.lock_acquisitions += d.lock_acquisitions;
    acc.log_bytes += d.log_bytes;
    acc.vlog_bytes += d.vlog_bytes;
}

fn run_phase(
    st: &mut State,
    r: &mut Report,
    seed: u64,
    first_chunk: u64,
    seconds: f64,
    traced: bool,
) -> Phase {
    let stats = st.pool.stats().clone();
    let mut ph = Phase::default();
    let mut kinds = (StatsSnapshot::default(), StatsSnapshot::default());
    let start = stats.snapshot();
    let (mut ops, mut writes) = (0u64, 0u64);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut chunk = first_chunk;
    while Instant::now() < deadline || ops < COUNT_WINDOW {
        let ops_in = stream(seed, chunk);
        chunk += 1;
        let t_chunk = Instant::now();
        for op in &ops_in {
            let before = traced.then(|| stats.snapshot());
            r.attempted += 1;
            ops += 1;
            let t = Instant::now();
            match op {
                KvOp::Read { key } => {
                    let res = st.map.get_sync(&st.rt, *key);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    match res {
                        Ok(got) => {
                            ph.read_us.push(us);
                            if got.as_ref() != st.model.get(key) {
                                r.fail(true, &format!("get({key}) disagrees with the model"));
                            }
                        }
                        Err(e) => r.fail(false, &format!("get({key}): {e:?}")),
                    }
                }
                KvOp::Update { key, value } | KvOp::Insert { key, value } => {
                    let res = st.map.insert_sync(&st.rt, *key, value);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    writes += 1;
                    match res {
                        Ok(()) => {
                            ph.write_us.push(us);
                            st.model.insert(*key, value.clone());
                        }
                        Err(e) => r.fail(false, &format!("insert({key}): {e:?}")),
                    }
                }
            }
            if let Some(b) = before {
                let d = stats.snapshot().delta(&b);
                add(
                    if op.is_write() {
                        &mut kinds.0
                    } else {
                        &mut kinds.1
                    },
                    &d,
                );
            }
            if ops == COUNT_WINDOW && ph.window.is_none() {
                ph.window = Some((stats.snapshot().delta(&start), ops, writes));
            }
        }
        ph.busy_s += t_chunk.elapsed().as_secs_f64();
    }
    ph.next_chunk = chunk;
    if traced {
        ph.per_kind = Some(kinds);
    }
    ph
}

/// Crash the pool's media as is and time `RESTARTS` restarts of it.
fn restarts(st: State, r: &mut Report, phases: bool) -> Vec<Cycle> {
    let probe = *st.model.keys().min().expect("preloaded");
    let want = st.model[&probe].clone();
    let media = st.pool.media_snapshot();
    drop(st);
    let mut cycles = Vec::new();
    for _ in 0..RESTARTS {
        match restart::cycle::<HashMap>(media.clone(), PoolMode::CrashSim, phases, |rt, map| {
            Ok(map.get_sync(rt, probe)?.as_deref() == Some(&want[..]))
        }) {
            Ok((c, _, _)) => cycles.push(c),
            Err(e) => {
                r.attempted += 1;
                r.fail(true, &e);
            }
        }
    }
    cycles
}

fn latency_e2e(r: &mut Report, ph: &Phase) {
    let (nw, nr) = (ph.write_us.len() as u64, ph.read_us.len() as u64);
    r.e2e("write_p50_us", ph.write_us.pct(50.0), "us", nw);
    r.e2e("read_p50_us", ph.read_us.pct(50.0), "us", nr);
    r.e2e("write_p99_us", ph.write_us.pct(99.0), "us", nw);
    r.e2e("read_p99_us", ph.read_us.pct(99.0), "us", nr);
}

pub fn run(o: &RunOpts) -> Result<Report, String> {
    let mut r = Report::new();
    let (setup_s, st) = median_setup(setup);
    let mut st = st?;
    r.e2e("setup_s", setup_s, "s", SETUPS as u64);
    let chain = (KEYS / BUCKETS) as usize;

    // Tracing off: the end-to-end phase (the whole run, or its first part
    // when traced so the overhead of tracing can be measured).
    let share = if o.trace { 0.4 } else { 1.0 };
    reset_peak_rss()?;
    let plain = run_phase(&mut st, &mut r, o.seed, 0, o.seconds * share, false);
    r.e2e("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    let ops = (plain.write_us.len() + plain.read_us.len()) as u64;
    r.e2e("ops_per_s", ops as f64 / plain.busy_s, "ops/s", ops);
    let plain_us = plain.busy_s * 1e6 / ops as f64;
    let (window, wops, wwrites) = plain.window.expect("window reached");
    layers::counted_e2e(&mut r, &window, wwrites, VALUE as u64);
    latency_e2e(&mut r, &plain);

    let mut traced = None;
    if o.trace {
        let ph = run_phase(
            &mut st,
            &mut r,
            o.seed,
            plain.next_chunk,
            o.seconds * share,
            true,
        );
        traced = Some(ph);
    }
    let cycles = restarts(st, &mut r, o.trace);
    let m = restart::medians(&cycles);
    r.e2e("recover_ms", m.total_ms, "ms", cycles.len() as u64);

    if let Some(ph) = traced {
        let t_ops = (ph.write_us.len() + ph.read_us.len()) as u64;
        let traced_us = ph.busy_s * 1e6 / t_ops as f64;
        let n = ph.write_us.len() as u64;
        r.layer("pds.insert_sync_p50_us", ph.write_us.pct(50.0), "us", n);
        r.layer("pds.insert_sync_p99_us", ph.write_us.pct(99.0), "us", n);
        let n = ph.read_us.len() as u64;
        r.layer("pds.get_sync_p50_us", ph.read_us.pct(50.0), "us", n);
        r.layer("pds.get_sync_p99_us", ph.read_us.pct(99.0), "us", n);
        layers::counted_layers(&mut r, &window, wops, wwrites);
        if let Some((w, rd)) = &ph.per_kind {
            let nw = ph.write_us.len() as u64;
            let nr = ph.read_us.len() as u64;
            r.line(format!(
                "per kind (traced): insert_sync {:.2} fences, {:.1} pmem writes, {:.1} reads; \
                 get_sync {:.2} fences, {:.1} reads",
                ratio(w.fences, nw),
                ratio(w.writes, nw),
                ratio(w.reads, nw),
                ratio(rd.fences, nr),
                ratio(rd.reads, nr),
            ));
        }
        restart::layers(&mut r, &cycles);
        let c = calib::calibrate(pool_options(), chain)?;
        calib::report(&mut r, &c);
        decompose(&mut r, &c, &window, wops, plain_us);
        r.layer(
            "trace_overhead_frac",
            traced_us / plain_us - 1.0,
            "ratio",
            t_ops,
        );
    }
    Ok(r)
}

fn decompose(r: &mut Report, c: &Calib, d: &StatsSnapshot, ops: u64, e2e_us: f64) {
    let per = |v: u64| ratio(v, ops);
    let rows = [
        Row::Attributed {
            name: "core.tx (empty run)",
            per_op: 1.0,
            unit_ns: c.empty_tx_ns,
        },
        Row::Attributed {
            name: "core.lock (acquire+drop)",
            per_op: per(d.lock_acquisitions),
            unit_ns: c.lock_pair_ns,
        },
        Row::Attributed {
            name: "core.group_commit",
            per_op: per(d.gc_epochs),
            unit_ns: c.gc_fence_ns,
        },
        Row::Attributed {
            name: "core.rangeset (per store)",
            per_op: per(d.writes),
            unit_ns: c.rangeset_ns,
        },
        Row::Attributed {
            name: "pmem.store+flush",
            per_op: per(d.writes),
            unit_ns: c.store64_flush_ns,
        },
        Row::Attributed {
            name: "pmem.fence",
            per_op: per(d.fences),
            unit_ns: c.fence_ns,
        },
        Row::Attributed {
            name: "pmem.read",
            per_op: per(d.reads),
            unit_ns: c.read64_ns,
        },
        Row::Attributed {
            name: "pmem.ulog append",
            per_op: per(d.log_entries),
            unit_ns: c.ulog_append_ns,
        },
        Row::Attributed {
            name: "pmem.alloc+free",
            per_op: per(d.allocs + d.reserves),
            unit_ns: c.alloc_free_ns,
        },
    ];
    layers::decomposition(r, "tx_ycsb mean op (closed loop)", e2e_us, &rows);
}
