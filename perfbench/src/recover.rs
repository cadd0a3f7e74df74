//! `recover`: the operator's time to serve again after a crash. Set-up
//! (untimed) loads 8 192 keys into a `KvServer` on a 256 MiB crash-sim
//! pool, then crashes inside one `KvService::process_batch_on` batch at a
//! seed-chosen persist event (`FaultPlan`). Each timed cycle restarts a
//! copy of the crashed media: `open_from_media` → `Runtime::open` →
//! register → `recover()` → `KvServer::open` → the first served GET. Live
//! data (about 1 MiB) is far below the pool capacity on purpose, so a cost
//! that grows with capacity shows. After each cycle the table must equal
//! the model with the interrupted batch applied exactly once; then the
//! recovered service serves a short burst of SETs and GETs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use clobber_apps::KvServer;
use clobber_kvnet::{Envelope, KvRequest, KvResponse, KvService};
use clobber_pmem::{CrashConfig, FaultPlan, PmemPool, PoolMode, PoolOptions, StatsSnapshot};
use clobber_workloads::RequestStream;

use crate::calib;
use crate::kvtcp::{get_env, preload, service, set_env, value};
use crate::layers::{self, Row};
use crate::restart::{self, Cycle, Image};
use crate::util::{
    derive, median, median_setup, pct, peak_rss_mib, reset_peak_rss, Report, SETUPS,
};
use crate::RunOpts;

pub const KEYS: u64 = 8192;
pub const CAPACITY: u64 = 256 << 20;
/// SETs in the interrupted batch (the service's default `max_batch`).
pub const BATCH: usize = 16;
/// Requests served after each recovery, alternating SET and GET.
pub const POST: usize = 512;

pub fn pool_options() -> PoolOptions {
    PoolOptions::crash_sim(CAPACITY)
}

type Table = BTreeMap<u64, Vec<u8>>;

/// The interrupted batch: `BATCH` distinct seed-chosen keys, stamped
/// `KEYS + 1 ..` so their values differ from the preloaded ones.
pub fn batch(seed: u64) -> Vec<Envelope> {
    let mut keys = Vec::new();
    let mut i = 0;
    while keys.len() < BATCH {
        let k = derive(seed, 0xBA7C + i) % KEYS;
        if !keys.contains(&k) {
            keys.push(k);
        }
        i += 1;
    }
    keys.iter()
        .enumerate()
        .map(|(j, &k)| set_env(k, KEYS + 1 + j as u64))
        .collect()
}

/// Reopens and recovers a copy of `image` as a service.
fn reopen(image: &Image) -> Result<(Arc<PmemPool>, KvService), String> {
    let (_, rt, server) =
        restart::cycle::<KvServer>(image.media(), PoolMode::CrashSim, false, |_, _| Ok(true))?;
    Ok((rt.pool().clone(), KvService::new(rt, server)))
}

/// The loaded pool's media before the batch, and the model table.
fn load() -> Result<(Image, Table), String> {
    let pool =
        Arc::new(PmemPool::create(pool_options()).map_err(|e| format!("pool create: {e:?}"))?);
    let mut svc = service(pool.clone())?;
    preload(&mut svc, KEYS)?;
    let model = (0..KEYS).map(|k| (k, value(k, 0))).collect();
    Ok((Image::new(&pool.media_snapshot()), model))
}

/// Persist events the batch issues on a reopened copy of `image`.
fn count_events(image: &Image, batch: &[Envelope]) -> Result<u64, String> {
    let (pool, mut svc) = reopen(image)?;
    pool.arm_faults(FaultPlan::count_only());
    svc.process_batch_on(0, batch)
        .map_err(|e| format!("counting run: {e:?}"))?;
    Ok(pool.disarm_faults())
}

/// Runs the batch on a reopened copy of `image`, trips a crash at persist
/// event `k`, and returns the media an adversarial power failure leaves.
fn crash_at(image: &Image, batch: &[Envelope], k: u64, seed: u64) -> Result<Image, String> {
    let (pool, mut svc) = reopen(image)?;
    pool.arm_faults(FaultPlan::crash_at(k));
    let _ = svc.process_batch_on(0, batch);
    if pool.fault_tripped() != Some(k) {
        return Err(format!("persist event {k} did not trip"));
    }
    let crashed = pool
        .crash(&CrashConfig::drop_all(seed))
        .map_err(|e| format!("crash: {e:?}"))?;
    Ok(Image::new(&crashed.media_snapshot()))
}

/// What set-up leaves for the timed cycles.
pub struct Crashed {
    pub media: Image,
    /// The table recovery must produce: the load plus the batch, once.
    pub expect: Table,
    pub event: u64,
    pub events: u64,
}

/// Loads, picks a crash point from the seed and crashes there.
pub fn setup(seed: u64) -> Result<Crashed, String> {
    let (m0, mut expect) = load()?;
    let b = batch(seed);
    let events = count_events(&m0, &b)?;
    // The batch's transaction persists its v_log record in the first
    // events; a crash anywhere in the second half is mid-transaction, so
    // recovery must re-execute it.
    let event = events / 2 + derive(seed, 0xC4A5) % (events / 2 - 1).max(1);
    let media = crash_at(&m0, &b, event, seed)?;
    for env in &b {
        if let KvRequest::Set { key, value } = &env.req {
            expect.insert(clobber_kvnet::key_id(key), value.clone());
        }
    }
    Ok(Crashed {
        media,
        expect,
        event,
        events,
    })
}

/// One restart plus its oracle and post-recovery burst.
struct Served {
    cycle: Cycle,
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    delta: StatsSnapshot,
}

fn serve_once(c: &Crashed, seed: u64, phases: bool, r: &mut Report) -> Result<Served, String> {
    let probe = *c.expect.keys().next().expect("loaded");
    let want = c.expect[&probe].clone();
    let (cycle, rt, server) =
        restart::cycle::<KvServer>(c.media.media(), PoolMode::CrashSim, phases, |rt, server| {
            let mut svc = KvService::new(rt.clone(), *server);
            let resp = svc.process_batch_on(0, &[get_env(probe)])?;
            Ok(matches!(&resp[0].2, KvResponse::Value(v) if *v == want))
        })?;
    r.attempted += 1;
    let pool = rt.pool().clone();
    let table: Table = server
        .table()
        .dump(&pool)
        .map_err(|e| format!("dump: {e:?}"))?
        .into_iter()
        .collect();
    if table != c.expect {
        r.fail(
            true,
            "recovered table is not the load plus the batch applied once",
        );
    }
    if cycle.report.reexecuted.len() != 1 {
        r.fail(true, "recovery did not re-execute the interrupted batch");
    }
    let mut model = c.expect.clone();
    let mut svc = KvService::new(rt, server);
    let stats = pool.stats().clone();
    let before = stats.snapshot();
    let (mut write_us, mut read_us) = (Vec::new(), Vec::new());
    let keys: Vec<u64> = RequestStream::zipf(
        clobber_workloads::Mix::InsertMost,
        POST as u64 / 2,
        KEYS,
        derive(seed, 0x9057),
        0.99,
    )
    .map(|q| clobber_kvnet::key_id(q.key()))
    .collect();
    for (j, &k) in keys.iter().enumerate() {
        for env in [set_env(k, 2 * KEYS + j as u64), get_env(k)] {
            r.attempted += 1;
            let t = Instant::now();
            let resp = svc.process_batch_on(0, std::slice::from_ref(&env));
            let us = t.elapsed().as_secs_f64() * 1e6;
            match (&env.req, resp.as_deref()) {
                (KvRequest::Set { value, .. }, Ok([(_, _, KvResponse::Stored)])) => {
                    write_us.push(us);
                    model.insert(k, value.clone());
                }
                (KvRequest::Get { .. }, Ok([(_, _, KvResponse::Value(v))])) => {
                    read_us.push(us);
                    if Some(v) != model.get(&k) {
                        r.fail(
                            true,
                            &format!("GET {k} after recovery disagrees with the model"),
                        );
                    }
                }
                (_, Ok(other)) => r.fail(true, &format!("request answered {other:?}")),
                (_, Err(e)) => r.fail(false, &format!("{e:?}")),
            }
        }
    }
    Ok(Served {
        cycle,
        write_us,
        read_us,
        delta: stats.snapshot().delta(&before),
    })
}

pub fn run(o: &RunOpts) -> Result<Report, String> {
    let mut r = Report::new();
    let (setup_s, crashed) = median_setup(|| setup(o.seed));
    let crashed = crashed?;
    r.e2e("setup_s", setup_s, "s", SETUPS as u64);
    r.line(format!(
        "crash at persist event {} of the batch's {}; {} keys on a {} MiB pool",
        crashed.event,
        crashed.events,
        KEYS,
        CAPACITY >> 20
    ));

    // Traced, every other cycle takes no phase timestamps, so the overhead
    // of taking them compares like with like under the same host drift.
    let mut cycles = Vec::new();
    let mut plain_ms = Vec::new();
    let (mut write_us, mut read_us) = (Vec::new(), Vec::new());
    let mut delta = None;
    reset_peak_rss()?;
    let t0 = Instant::now();
    let budget = if o.trace { 0.8 } else { 1.0 } * o.seconds;
    while cycles.len() < 4 || t0.elapsed().as_secs_f64() < budget {
        let phases = o.trace && (cycles.len() + plain_ms.len()) % 2 == 0;
        let s = serve_once(&crashed, o.seed, phases, &mut r)?;
        if o.trace && !phases {
            plain_ms.push(s.cycle.total_ms);
        } else {
            cycles.push(s.cycle);
        }
        write_us.extend(s.write_us);
        read_us.extend(s.read_us);
        // Every cycle does identical work; the first one's counts stand
        // for all.
        delta.get_or_insert(s.delta);
    }
    r.e2e("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    let n = cycles.len() as u64;
    let m = restart::medians(&cycles);
    r.e2e("recover_ms", m.total_ms, "ms", n);
    // Restarts per second of restart time.
    r.e2e("ops_per_s", 1e3 / m.total_ms, "ops/s", n);
    let (nw, nr) = (write_us.len() as u64, read_us.len() as u64);
    r.e2e("write_p50_us", pct(&mut write_us, 50.0), "us", nw);
    r.e2e("write_p99_us", pct(&mut write_us, 99.0), "us", nw);
    r.e2e("read_p50_us", pct(&mut read_us, 50.0), "us", nr);
    r.e2e("read_p99_us", pct(&mut read_us, 99.0), "us", nr);
    let d = delta.expect("at least one cycle");
    let writes = POST as u64 / 2;
    layers::counted_e2e(&mut r, &d, writes, value(0, 0).len() as u64);

    if o.trace {
        layers::counted_layers(&mut r, &d, POST as u64, writes);
        restart::layers(&mut r, &cycles);
        let rows = [
            Row::Timed {
                name: "pmem open_from_media",
                us: m.open_media_ms * 1e3,
            },
            Row::Timed {
                name: "core Runtime::open",
                us: m.runtime_open_ms * 1e3,
            },
            Row::Timed {
                name: "apps register + open",
                us: m.app_open_ms * 1e3,
            },
            Row::Timed {
                name: "core recover()",
                us: m.recover_ms * 1e3,
            },
            Row::Timed {
                name: "apps first GET",
                us: m.first_get_ms * 1e3,
            },
        ];
        layers::decomposition(&mut r, "recover: median cycle", m.total_ms * 1e3, &rows);
        let c = calib::calibrate(pool_options(), (KEYS / 256) as usize)?;
        calib::report(&mut r, &c);
        // Tracing adds only the phase timestamps to a cycle: compare the
        // cycles that took them with the interleaved ones that did not.
        r.layer(
            "trace_overhead_frac",
            m.total_ms / median(&mut plain_ms) - 1.0,
            "ratio",
            n + plain_ms.len() as u64,
        );
    }
    Ok(r)
}
