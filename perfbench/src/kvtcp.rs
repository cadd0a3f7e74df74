//! `kv_tcp`: the networked service path. `serve()` over `TcpTransport` on
//! 127.0.0.1 in-process, with `ServeConfig::default()` and
//! `AdmissionConfig::default()`, on a performance-mode pool. One
//! connection, open loop: a sender thread frames requests with kvnet's own
//! `encode_request` / `write_frame` on the plain socket (no `TCP_NODELAY`,
//! exactly as `KvClient` does) and a receiver thread reads replies with
//! `read_frame` / `decode_response`. memslap `InsertMost` (75 % SET / 25 %
//! GET), zipf 0.99 over 4 096 preloaded keys, offered at a fixed ladder of
//! rates. Latency is timed from each request's due time.

use std::collections::HashMap as Model;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use clobber_apps::{KvServer, LockScheme};
use clobber_kvnet::{
    decode_response, encode_request, read_frame, serve, write_frame, Admission, AdmissionConfig,
    ConnId, Envelope, KvRequest, KvResponse, KvService, NetEvent, ServeConfig, TcpTransport,
    Transport,
};
use clobber_nvm::{Backend, Runtime, RuntimeOptions, TxError};
use clobber_pmem::{PmemPool, PoolMode, PoolOptions, StatsSnapshot};
use clobber_workloads::{Mix, Request, RequestStream};

use crate::calib;
use crate::layers::{self, Row};
use crate::restart::{self, App, Cycle};
use crate::util::{
    derive, mean, median, median_setup, pct, peak_rss_mib, ratio, reset_peak_rss, Clock, Report,
    SETUPS,
};
use crate::RunOpts;

pub const KEYS: u64 = 4096;
pub const CAPACITY: u64 = 64 << 20;
/// Offered rates (requests/s) and each rung's share of the run.
pub const LADDER: [(f64, f64); 3] = [(300.0, 0.3), (3_000.0, 0.4), (30_000.0, 0.3)];
/// The rung whose per-op latency is the end-to-end latency.
pub const MIDDLE: usize = 1;
/// Back-to-back connections per rung. The socket's stall behaviour settles
/// into a regime per connection, and now and then a connection's is far
/// slower; the rung's p50s are the median over its connections, so one
/// such connection does not decide a run.
pub const SEGMENTS: usize = 5;
/// The ladder's service-level objective on p99 latency.
pub const SLO_P99_US: f64 = 1_000.0;
/// A connection still draining replies this long after its last due time
/// had a growing backlog.
const BACKLOG_DRAIN_NS: u64 = 100_000_000;
const RESTARTS: usize = 25;
/// memslap value size (`RequestStream::value_bytes`).
const VALUE: u64 = 64;

pub fn pool_options() -> PoolOptions {
    PoolOptions::performance(CAPACITY)
}

impl App for KvServer {
    fn register(rt: &Runtime) {
        KvServer::register(rt);
    }
    fn open(rt: &Runtime) -> Result<KvServer, TxError> {
        KvServer::open(rt, LockScheme::BucketRw)
    }
}

/// The value a request carries: memslap's value for the key with the
/// request's stamp (0 = preload, else request index + 1) in its first 8
/// bytes, so a GET shows which SET it read.
pub fn value(key: u64, stamp: u64) -> Vec<u8> {
    let mut v = RequestStream::value_bytes(key);
    v[..8].copy_from_slice(&stamp.to_le_bytes());
    v
}

/// Stamp and key of a value; `None` if the bytes are not one of ours.
fn stamp_of(v: &[u8], key: u64) -> Option<u64> {
    let stamp = u64::from_le_bytes(v.get(..8)?.try_into().ok()?);
    (v.len() == VALUE as usize && v[8..] == RequestStream::value_bytes(key)[8..]).then_some(stamp)
}

/// One pre-generated request.
pub struct Req {
    pub key: u64,
    pub set: bool,
    pub frame: Vec<u8>,
}

/// A ladder's whole request stream: rung `i` gets `counts[i]` requests.
/// Opaque tokens (and value stamps) start at `base`, so several ladders on
/// one table never reuse a stamp.
pub fn requests(seed: u64, counts: &[u64], base: u64) -> Vec<Req> {
    let mut out = Vec::new();
    for (rung, &n) in counts.iter().enumerate() {
        let stream = RequestStream::zipf(Mix::InsertMost, n, KEYS, derive(seed, rung as u64), 0.99);
        for r in stream {
            let opaque = base + out.len() as u64;
            let (key, set, req) = match r {
                Request::Set { key, .. } => {
                    let k = clobber_kvnet::key_id(&key);
                    let value = value(k, opaque + 1);
                    (k, true, KvRequest::Set { key, value })
                }
                Request::Get { key } => {
                    (clobber_kvnet::key_id(&key), false, KvRequest::Get { key })
                }
            };
            out.push(Req {
                key,
                set,
                frame: encode_request(opaque, &req),
            });
        }
    }
    out
}

/// A SET of `key` carrying `value(key, stamp)`.
pub fn set_env(key: u64, stamp: u64) -> Envelope {
    Envelope {
        conn: 0,
        opaque: stamp,
        req: KvRequest::Set {
            key: RequestStream::key_bytes(key),
            value: value(key, stamp),
        },
    }
}

/// A GET of `key`.
pub fn get_env(key: u64) -> Envelope {
    Envelope {
        conn: 0,
        opaque: 0,
        req: KvRequest::Get {
            key: RequestStream::key_bytes(key),
        },
    }
}

/// Stores keys `0..keys` with stamp 0 through the service, a full batch
/// at a time.
pub fn preload(svc: &mut KvService, keys: u64) -> Result<(), String> {
    let batch = ServeConfig::default().max_batch as u64;
    for first in (0..keys).step_by(batch as usize) {
        let envs: Vec<Envelope> = (first..keys.min(first + batch))
            .map(|k| set_env(k, 0))
            .collect();
        svc.process_batch_on(0, &envs)
            .map_err(|e| format!("preload: {e:?}"))?;
    }
    Ok(())
}

/// A fresh clobber-backend service on `pool`.
pub fn service(pool: Arc<PmemPool>) -> Result<KvService, String> {
    let rt = Arc::new(
        Runtime::create(pool, RuntimeOptions::new(Backend::clobber()))
            .map_err(|e| format!("runtime: {e:?}"))?,
    );
    let server = KvServer::create(&rt, LockScheme::BucketRw).map_err(|e| format!("{e:?}"))?;
    Ok(KvService::new(rt, server))
}

fn setup() -> Result<KvService, String> {
    let pool = Arc::new(PmemPool::create(pool_options()).map_err(|e| format!("pool: {e:?}"))?);
    let mut svc = service(pool)?;
    preload(&mut svc, KEYS)?;
    Ok(svc)
}

/// Benchmark-side timing wrapper around the server transport: records when
/// each request is handed to the serve loop, when each response enters
/// `send`, and the serve thread's time outside `recv`.
pub struct Timed<T> {
    inner: T,
    clock: Clock,
    last_ret: u64,
    /// (opaque, ns) at which `recv` handed the request over.
    pub handed: Vec<(u64, u64)>,
    /// (opaque, ns) at which its response entered `send`.
    pub sent: Vec<(u64, u64)>,
    /// (call ns, return ns, requests) of every `recv`.
    pub recvs: Vec<(u64, u64, u32)>,
    /// (recv return ns, send entry ns, inner send ns, requests, sets) per
    /// executed batch.
    pub batches: Vec<(u64, u64, u64, u32, u32)>,
}

impl<T: Transport> Timed<T> {
    pub fn new(inner: T, clock: Clock) -> Timed<T> {
        Timed {
            inner,
            clock,
            last_ret: 0,
            handed: Vec::new(),
            sent: Vec::new(),
            recvs: Vec::new(),
            batches: Vec::new(),
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn recv(&mut self, max: usize) -> Option<Vec<NetEvent>> {
        let call = self.clock.ns();
        let out = self.inner.recv(max);
        let ret = self.clock.ns();
        self.last_ret = ret;
        let mut n = 0;
        for ev in out.iter().flatten() {
            if let NetEvent::Request(env) = ev {
                self.handed.push((env.opaque, ret));
                n += 1;
            }
        }
        self.recvs.push((call, ret, n));
        out
    }

    fn send(&mut self, responses: Vec<(ConnId, u64, KvResponse)>, cost_ns: u64) {
        let entry = self.clock.ns();
        let shed = responses
            .iter()
            .all(|(_, _, r)| matches!(r, KvResponse::Overloaded));
        let sets = responses
            .iter()
            .filter(|(_, _, r)| matches!(r, KvResponse::Stored))
            .count() as u32;
        let n = responses.len() as u32;
        self.sent
            .extend(responses.iter().map(|&(_, op, _)| (op, entry)));
        self.inner.send(responses, cost_ns);
        if !shed {
            let done = self.clock.ns();
            self.batches
                .push((self.last_ret, entry, done - entry, n, sets));
        }
    }
}

/// One connection's share of a rung.
#[derive(Clone, Copy)]
struct Seg {
    a: usize,
    b: usize,
    t0: u64,
    t_end: u64,
}

/// Client-side record of one rung.
struct Rung {
    rate: f64,
    /// The rung's request indices `[first, end)` within the ladder's
    /// stream, and how many of them were never sent because the generator
    /// fell too far behind.
    first: usize,
    end: usize,
    cut: usize,
    /// Each connection's requests `[a, b)` and its active time: first due
    /// time to last reply, in ns.
    segs: Vec<Seg>,
    /// ns of the rung's first due time and of its last reply.
    t0: u64,
    t_end: u64,
    delta: StatsSnapshot,
}

/// Everything the client saw, indexed like the request stream. A request
/// refused with `Overloaded` or `Retry` is resubmitted (same frame, same
/// opaque), as the protocol asks; `start` is its first send and
/// `written` / `got` belong to its last attempt.
#[derive(Default)]
struct Seen {
    due: Vec<u64>,
    start: Vec<u64>,
    written: Vec<u64>,
    got: Vec<u64>,
    resp: Vec<Option<KvResponse>>,
    refused: Vec<u32>,
    /// Final (non-refusal) replies in arrival order.
    order: Vec<usize>,
}

/// What one connection's receiver saw, indexed from the segment's first
/// request.
struct Replies {
    got: Vec<u64>,
    resp: Vec<Option<KvResponse>>,
    refused: Vec<u32>,
    order: Vec<usize>,
}

/// Paces `reqs[first..end]` at `rate` over a fresh connection, resubmits
/// refused requests, waits for every reply and closes the connection.
/// Fills `seen` for those requests; returns how many were sent before the
/// generator fell too far behind, and the first due time.
#[allow(clippy::too_many_arguments)]
fn segment(
    addr: std::net::SocketAddr,
    clock: Clock,
    reqs: &[Req],
    base: u64,
    first: usize,
    end: usize,
    rate: f64,
    seen: &mut Seen,
) -> Result<(usize, u64), String> {
    let n = end - first;
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rx = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let finished = Arc::new(AtomicU64::new(0));
    let rx_finished = finished.clone();
    let (retry_tx, retry_rx) = mpsc::channel::<usize>();
    let lo = base + first as u64;
    let receiver = thread::spawn(move || {
        let mut rep = Replies {
            got: vec![0; n],
            resp: vec![None; n],
            refused: vec![0; n],
            order: Vec::with_capacity(n),
        };
        // Reads until the server closes the connection.
        let err = loop {
            let payload = match read_frame(&mut rx) {
                Ok(Some(p)) => p,
                Ok(None) => break None,
                Err(e) => break Some(format!("read: {e}")),
            };
            let t = clock.ns();
            let Some((op, r)) = decode_response(&payload) else {
                break Some("malformed response".to_string());
            };
            let Some(i) = op.checked_sub(lo).map(|i| i as usize).filter(|&i| i < n) else {
                break Some("reply to an unknown opaque".to_string());
            };
            if matches!(r, KvResponse::Overloaded | KvResponse::Retry { .. }) {
                rep.refused[i] += 1;
                if retry_tx.send(i).is_err() {
                    break Some("sender gone".into());
                }
                continue;
            }
            rep.got[i] = t;
            rep.resp[i] = Some(r);
            rep.order.push(i);
            rx_finished.fetch_add(1, Ordering::Release);
        };
        (rep, err)
    });

    let period = 1e9 / rate;
    let t0 = clock.ns() + 1_000_000;
    // A rung the service cannot keep up with is cut once the generator
    // runs this far behind; its unsent requests are never attempted.
    let cutoff = (n as f64 * period * 0.25) as u64 + 200_000_000;
    let mut sent = 0;
    let mut err = None;
    let resubmit = |stream: &mut TcpStream, seen: &mut Seen| -> Result<(), String> {
        while let Ok(i) = retry_rx.try_recv() {
            write_frame(stream, &reqs[first + i].frame).map_err(|e| format!("write: {e}"))?;
            seen.written[first + i] = clock.ns();
        }
        Ok(())
    };
    'send: for j in 0..n {
        let due = t0 + (j as f64 * period) as u64;
        if clock.ns() > due + cutoff {
            break;
        }
        // Sleep while the next request is far off, then spin the last
        // stretch: a plain sleep overshoots by tens of microseconds.
        loop {
            if let Err(e) = resubmit(&mut stream, seen) {
                err = Some(e);
                break 'send;
            }
            let now = clock.ns();
            if now >= due {
                break;
            }
            let wait = due - now;
            if wait > 120_000 {
                thread::sleep(Duration::from_nanos(wait - 80_000));
            } else {
                std::hint::spin_loop();
            }
        }
        let op = first + j;
        seen.due[op] = due;
        seen.start[op] = clock.ns();
        if let Err(e) = write_frame(&mut stream, &reqs[op].frame) {
            err = Some(format!("write: {e}"));
            break;
        }
        seen.written[op] = clock.ns();
        sent += 1;
    }
    let limit = Instant::now() + Duration::from_secs(20);
    while err.is_none() && finished.load(Ordering::Acquire) < sent as u64 {
        if Instant::now() > limit || receiver.is_finished() {
            err = Some(format!("the {rate} rps rung never drained"));
        } else if let Err(e) = resubmit(&mut stream, seen) {
            err = Some(e);
        } else {
            thread::sleep(Duration::from_micros(50));
        }
    }
    // Closing the write half closes the connection on the server; on error
    // also unblock the receiver.
    let _ = stream.shutdown(if err.is_some() {
        Shutdown::Both
    } else {
        Shutdown::Write
    });
    let (rep, rerr) = receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_string())?;
    if let Some(e) = err.or(rerr) {
        return Err(e);
    }
    for i in 0..n {
        seen.got[first + i] = rep.got[i];
        seen.resp[first + i] = rep.resp[i].clone();
        seen.refused[first + i] = rep.refused[i];
    }
    seen.order.extend(rep.order.iter().map(|&i| first + i));
    Ok((sent, t0))
}

/// Paces `reqs` through the `plan`'s (rate, count) rungs, each split into
/// `SEGMENTS` back-to-back connections, and records what the client saw.
fn drive(
    addr: std::net::SocketAddr,
    clock: Clock,
    reqs: &[Req],
    base: u64,
    plan: &[(f64, u64)],
    stats: &clobber_pmem::PmemStats,
) -> Result<(Seen, Vec<Rung>), String> {
    let n = reqs.len();
    let mut seen = Seen {
        due: vec![0; n],
        start: vec![0; n],
        written: vec![0; n],
        got: vec![0; n],
        resp: vec![None; n],
        refused: vec![0; n],
        order: Vec::with_capacity(n),
    };
    let mut rungs = Vec::new();
    let mut first = 0usize;
    for &(rate, count) in plan {
        let before = stats.snapshot();
        let t0 = clock.ns();
        let mut cut = 0;
        let bounds: Vec<usize> = (0..=SEGMENTS)
            .map(|k| first + (count as usize * k) / SEGMENTS)
            .collect();
        let mut segs = Vec::with_capacity(SEGMENTS);
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (sent, t0) = segment(addr, clock, reqs, base, a, b, rate, &mut seen)?;
            cut += b - a - sent;
            let t_end = seen.got[a..b].iter().copied().max().unwrap_or(t0);
            segs.push(Seg { a, b, t0, t_end });
        }
        rungs.push(Rung {
            rate,
            first,
            end: first + count as usize,
            cut,
            segs,
            t0,
            t_end: clock.ns(),
            delta: stats.snapshot().delta(&before),
        });
        first += count as usize;
    }
    Ok((seen, rungs))
}

/// Checks every reply, in arrival order. Replies on the one connection
/// arrive in commit order, so a SET's `Stored` reply marks when its value
/// became the key's latest. SETs must be answered `Stored`. A GET must
/// return the key's latest value as of its reply, or that of a SET whose
/// `Stored` reply follows within one batch (a batch's writes commit before
/// its reads are answered); every key is preloaded, so `NotFound` is
/// wrong. `latest` maps each key to its last stored stamp and carries over
/// between ladders on one table.
fn oracle(r: &mut Report, reqs: &[Req], base: u64, seen: &Seen, latest: &mut Model<u64, u64>) {
    let max_batch = ServeConfig::default().max_batch;
    for (i, req) in reqs.iter().enumerate() {
        if seen.start[i] == 0 {
            continue; // cut from a rung the service could not keep up with
        }
        r.attempted += 1;
        match (&seen.resp[i], req.set) {
            (Some(KvResponse::Stored), true) | (Some(KvResponse::Value(_)), false) => {}
            (None, _) => r.fail(false, "no final reply"),
            (Some(other), _) => r.fail(true, &format!("request #{i} answered {other:?}")),
        }
    }
    for (pos, &i) in seen.order.iter().enumerate() {
        let req = &reqs[i];
        match &seen.resp[i] {
            Some(KvResponse::Stored) if req.set => {
                latest.insert(req.key, base + i as u64 + 1);
            }
            Some(KvResponse::Value(v)) if !req.set => {
                let now = latest.get(&req.key).copied().unwrap_or(0);
                let ok = match stamp_of(v, req.key) {
                    Some(s) if s == now => true,
                    Some(s) if s > base => {
                        // A SET of the same batch whose reply comes later.
                        let src = (s - base - 1) as usize;
                        src < reqs.len()
                            && reqs[src].set
                            && reqs[src].key == req.key
                            && seen.order[pos + 1..]
                                .iter()
                                .take(max_batch)
                                .any(|&j| j == src)
                    }
                    _ => false,
                };
                if !ok {
                    r.fail(
                        true,
                        &format!("GET #{i} of key {} read a stale or foreign value", req.key),
                    );
                }
            }
            _ => {}
        }
    }
}

/// One rung's latencies from due time (µs).
struct RungLat {
    set_us: Vec<f64>,
    get_us: Vec<f64>,
    /// Median over the rung's connections of each one's SET and GET p50.
    set_p50: f64,
    get_p50: f64,
    /// Every request; a failure reads +∞, so it misses any limit.
    all_us: Vec<f64>,
    failed: u64,
    backlog: bool,
}

fn rung_latency(reqs: &[Req], seen: &Seen, rung: &Rung) -> RungLat {
    let mut l = RungLat {
        set_us: Vec::new(),
        get_us: Vec::new(),
        set_p50: 0.0,
        get_p50: 0.0,
        all_us: Vec::new(),
        failed: 0,
        backlog: false,
    };
    let (mut set_p50, mut get_p50) = (Vec::new(), Vec::new());
    for seg in &rung.segs {
        let (s0, g0) = (l.set_us.len(), l.get_us.len());
        collect(&mut l, reqs, seen, seg.a, seg.b);
        if l.set_us.len() > s0 {
            set_p50.push(pct(&mut l.set_us[s0..].to_vec(), 50.0));
        }
        if l.get_us.len() > g0 {
            get_p50.push(pct(&mut l.get_us[g0..].to_vec(), 50.0));
        }
    }
    l.set_p50 = median(&mut set_p50);
    l.get_p50 = median(&mut get_p50);
    // A rung the service keeps up with drains within moments of its last
    // due time; a growing backlog takes far longer.
    let drains_late = rung.segs.iter().any(|g| {
        let last_due = seen.due[g.a..g.b].iter().copied().max().unwrap_or(g.t0);
        g.t_end.saturating_sub(last_due) > BACKLOG_DRAIN_NS
    });
    l.backlog = rung.cut > 0 || drains_late;
    l
}

/// Seconds the rung's connections were active.
fn active_s(rung: &Rung) -> f64 {
    rung.segs
        .iter()
        .map(|g| (g.t_end - g.t0) as f64)
        .sum::<f64>()
        / 1e9
}

/// Adds requests `[a, b)` to the rung's latency lists.
fn collect(l: &mut RungLat, reqs: &[Req], seen: &Seen, a: usize, b: usize) {
    for (i, req) in reqs.iter().enumerate().take(b).skip(a) {
        if seen.start[i] == 0 {
            continue; // cut
        }
        let us = seen.got[i].saturating_sub(seen.due[i]) as f64 / 1e3;
        if matches!(
            seen.resp[i],
            Some(KvResponse::Stored | KvResponse::Value(_))
        ) {
            if req.set {
                l.set_us.push(us);
            } else {
                l.get_us.push(us);
            }
            l.all_us.push(us);
        } else {
            l.failed += 1;
            l.all_us.push(f64::INFINITY);
        }
    }
}

/// The ladder plan for a run of `seconds`: (rate, request count) per rung.
pub fn plan(seconds: f64) -> Vec<(f64, u64)> {
    LADDER
        .iter()
        .map(|&(rate, share)| (rate, ((rate * share * seconds) as u64).max(200)))
        .collect()
}

/// One ladder against a fresh `serve()` thread. Returns what the client
/// saw, the rungs, the service and (traced) the wrapper's log.
#[allow(clippy::type_complexity)]
fn ladder(
    svc: KvService,
    reqs: &[Req],
    base: u64,
    plan: &[(f64, u64)],
    traced: bool,
) -> Result<(Seen, Vec<Rung>, KvService, Option<Timed<TcpTransport>>), String> {
    let clock = Clock::new();
    let transport = TcpTransport::bind("127.0.0.1:0", plan.len() * SEGMENTS)
        .map_err(|e| format!("bind 127.0.0.1: {e}"))?;
    let addr = transport.local_addr();
    let stats = svc.rt().pool().stats().clone();
    let server = thread::spawn(move || {
        let mut svc = svc;
        let mut adm = Admission::new(AdmissionConfig::default());
        let cfg = ServeConfig::default();
        if traced {
            let mut t = Timed::new(transport, clock);
            let res = serve(&mut svc, &mut adm, &mut t, &cfg);
            (res, svc, Some(t))
        } else {
            let mut t = transport;
            let res = serve(&mut svc, &mut adm, &mut t, &cfg);
            (res, svc, None)
        }
    });
    let client = drive(addr, clock, reqs, base, plan, &stats);
    if client.is_err() {
        // The transport still waits for the connections the client never
        // made; give it ones that close at once.
        for _ in 0..plan.len() * SEGMENTS {
            if server.is_finished() {
                break;
            }
            drop(TcpStream::connect(addr));
        }
    }
    let (res, svc, timed) = server
        .join()
        .map_err(|_| "serve thread panicked".to_string())?;
    res.map_err(|e| format!("serve: {e:?}"))?;
    let (seen, rungs) = client?;
    Ok((seen, rungs, svc, timed))
}

fn restarts(svc: KvService, r: &mut Report, phases: bool) -> Vec<Cycle> {
    let probe = 0u64;
    let want = svc
        .server()
        .table()
        .snapshot_get(svc.rt().pool(), probe)
        .ok()
        .flatten();
    let media = svc.rt().pool().media_snapshot();
    drop(svc);
    let mut cycles = Vec::new();
    for _ in 0..RESTARTS {
        match restart::cycle::<KvServer>(
            media.clone(),
            PoolMode::Performance,
            phases,
            |rt, server| Ok(server.table().snapshot_get(rt.pool(), probe)? == want),
        ) {
            Ok((c, _, _)) => cycles.push(c),
            Err(e) => {
                r.attempted += 1;
                r.fail(true, &e);
            }
        }
    }
    cycles
}

pub fn run(o: &RunOpts) -> Result<Report, String> {
    let mut r = Report::new();
    let (setup_s, svc) = median_setup(setup);
    let svc = svc?;
    r.e2e("setup_s", setup_s, "s", SETUPS as u64);

    // Tracing off: the whole ladder (its first part when traced).
    let plan = plan(if o.trace { o.seconds * 0.5 } else { o.seconds });
    let counts: Vec<u64> = plan.iter().map(|p| p.1).collect();
    let reqs = requests(o.seed, &counts, 0);
    reset_peak_rss()?;
    let (seen, rungs, svc, _) = ladder(svc, &reqs, 0, &plan, false)?;
    r.e2e("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    let mut latest = Model::new();
    oracle(&mut r, &reqs, 0, &seen, &mut latest);

    r.line(format!(
        "ladder (one connection, open loop, latency from due time; SLO p99 <= {SLO_P99_US} us):"
    ));
    let mut max_ok = 0.0;
    let mut lats = Vec::new();
    for rung in &rungs {
        let mut l = rung_latency(&reqs, &seen, rung);
        let p99 = pct(&mut l.all_us, 99.0);
        let ok = p99 <= SLO_P99_US && !l.backlog;
        if ok {
            max_ok = rung.rate;
        }
        let secs = active_s(rung);
        let mut lag: Vec<f64> = (rung.first..rung.end)
            .map(|i| seen.start[i].saturating_sub(seen.due[i]) as f64 / 1e3)
            .collect();
        r.line(format!(
            "  {:>6} rps offered: sent={} cut={} answered/s={:.0} p50={:.1} us p99={:.1} us \
             failed={} refused={} backlog={} gen_lag_p99={:.1} us -> {}",
            rung.rate,
            rung.end - rung.first,
            rung.cut,
            (rung.end - rung.first - l.failed as usize) as f64 / secs,
            pct(&mut l.all_us, 50.0),
            p99,
            l.failed,
            (rung.first..rung.end)
                .map(|i| seen.refused[i] as u64)
                .sum::<u64>(),
            l.backlog,
            pct(&mut lag, 99.0),
            if ok { "meets SLO" } else { "misses SLO" },
        ));
        lats.push(l);
    }
    r.line(format!(
        "  max_rps_at_slo = {max_ok} rps (highest rung meeting the SLO, no growing backlog; \
         failures count as misses)"
    ));
    r.e2e("max_rps_at_slo", max_ok, "ops/s", rungs.len() as u64);
    let mid = &rungs[MIDDLE];
    let l = &mut lats[MIDDLE];
    let (nw, nr) = (l.set_us.len() as u64, l.get_us.len() as u64);
    r.e2e("write_p50_us", l.set_p50, "us", nw);
    r.e2e("write_p99_us", pct(&mut l.set_us, 99.0), "us", nw);
    r.e2e("read_p50_us", l.get_p50, "us", nr);
    r.e2e("read_p99_us", pct(&mut l.get_us, 99.0), "us", nr);
    let mut mid_all = [&l.set_us[..], &l.get_us[..]].concat();
    let plain_p50_us = pct(&mut mid_all, 50.0);
    // Throughput delivered at the middle rung over its connections' active
    // time (first due time to last reply): it falls below the offered rate
    // if the service stops keeping up.
    r.e2e(
        "ops_per_s",
        mid_all.len() as f64 / active_s(mid),
        "ops/s",
        mid_all.len() as u64,
    );
    let d = mid.delta;
    layers::counted_e2e(&mut r, &d, d.net_batched, VALUE);

    let mut svc = svc;
    let mut traced = None;
    if o.trace {
        // Traced: the middle rung once more, through the timing wrapper,
        // with fresh requests whose stamps continue past the first ladder.
        let base = reqs.len() as u64;
        let tplan = [plan[MIDDLE]];
        let treqs = requests(derive(o.seed, 0x7ACE), &[tplan[0].1], base);
        let (tseen, trungs, tsvc, timed) = ladder(svc, &treqs, base, &tplan, true)?;
        oracle(&mut r, &treqs, base, &tseen, &mut latest);
        svc = tsvc;
        traced = Some((
            base,
            treqs,
            tseen,
            trungs,
            timed.ok_or("wrapper log missing")?,
        ));
    }
    let cycles = restarts(svc, &mut r, o.trace);
    let m = restart::medians(&cycles);
    r.e2e("recover_ms", m.total_ms, "ms", cycles.len() as u64);

    if let Some((base, treqs, tseen, trungs, timed)) = traced {
        let ops = (mid.end - mid.first) as u64;
        layers::counted_layers(&mut r, &d, ops, d.net_batched);
        traced_layers(
            &mut r,
            &treqs,
            &tseen,
            &trungs[0],
            base,
            &timed,
            plain_p50_us,
        );
        restart::layers(&mut r, &cycles);
        let c = calib::calibrate(pool_options(), (KEYS / 256) as usize)?;
        calib::report(&mut r, &c);
    }
    Ok(r)
}

/// The `kvnet.*` split of the traced middle rung, matched by opaque token,
/// and its decomposition. Per request: due → the last attempt's
/// `write_frame` return (client send: generator lag, the client library and
/// any refused attempts) → handed over by `recv` (wire in) → its response
/// enters `send` (exec: admission, `process_batch_on`, pricing) →
/// `read_frame` return (wire out). The spans telescope, so the residual is
/// only rounding.
fn traced_layers(
    r: &mut Report,
    reqs: &[Req],
    seen: &Seen,
    rung: &Rung,
    base: u64,
    t: &Timed<TcpTransport>,
    plain_p50_us: f64,
) {
    let n = reqs.len();
    let mut handed = vec![0u64; n];
    let mut sent = vec![0u64; n];
    for &(op, ts) in &t.handed {
        if let Some(h) = handed.get_mut(op.wrapping_sub(base) as usize) {
            *h = ts;
        }
    }
    for &(op, ts) in &t.sent {
        if let Some(s) = sent.get_mut(op.wrapping_sub(base) as usize) {
            *s = ts;
        }
    }
    let us = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e3;
    let (mut lag, mut gen_lag, mut wire_in, mut exec, mut wire_out, mut e2e) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for i in 0..n {
        if handed[i] == 0 || sent[i] == 0 || seen.got[i] == 0 {
            continue;
        }
        lag.push(us(seen.due[i], seen.written[i]));
        gen_lag.push(us(seen.due[i], seen.start[i]));
        wire_in.push(us(seen.written[i], handed[i]));
        exec.push(us(handed[i], sent[i]));
        wire_out.push(us(sent[i], seen.got[i]));
        e2e.push(us(seen.due[i], seen.got[i]));
    }
    let traced_mean = mean(&e2e);
    let traced_p50 = pct(&mut e2e.clone(), 50.0);
    let rows = [
        Row::Timed {
            name: "client send",
            us: mean(&lag),
        },
        Row::Timed {
            name: "kvnet wire in",
            us: mean(&wire_in),
        },
        Row::Timed {
            name: "kvnet exec",
            us: mean(&exec),
        },
        Row::Timed {
            name: "kvnet wire out",
            us: mean(&wire_out),
        },
    ];
    layers::decomposition(
        r,
        "kv_tcp mean request at the middle rung",
        traced_mean,
        &rows,
    );
    let m = e2e.len() as u64;
    r.layer("kvnet.wire_in_us", pct(&mut wire_in, 50.0), "us", m);
    r.layer("kvnet.wire_out_us", pct(&mut wire_out, 50.0), "us", m);
    r.line(format!(
        "  wire_in p99={:.1} us, wire_out p99={:.1} us, exec p99={:.1} us",
        pct(&mut wire_in, 99.0),
        pct(&mut wire_out, 99.0),
        pct(&mut exec, 99.0)
    ));
    r.layer("kvnet.gen_lag_us", pct(&mut gen_lag, 99.0), "us", m);

    let in_rung = |ts: u64| ts >= rung.t0 && ts <= rung.t_end;
    let batches: Vec<_> = t.batches.iter().filter(|b| in_rung(b.1)).collect();
    let mut exec_b: Vec<f64> = batches.iter().map(|b| us(b.0, b.1)).collect();
    let mut send_b: Vec<f64> = batches.iter().map(|b| b.2 as f64 / 1e3).collect();
    let nb = batches.len() as u64;
    r.layer("kvnet.exec_us", pct(&mut exec_b, 50.0), "us", nb);
    r.layer("kvnet.send_us", pct(&mut send_b, 50.0), "us", nb);
    let drains: Vec<f64> = t
        .recvs
        .iter()
        .filter(|c| in_rung(c.1) && c.2 > 0)
        .map(|c| c.2 as f64)
        .collect();
    r.layer(
        "kvnet.batch_reqs",
        mean(&drains),
        "count",
        drains.len() as u64,
    );
    let set_batches = batches.iter().filter(|b| b.4 > 0).count() as u64;
    let d = &rung.delta;
    r.layer(
        "kvnet.sets_per_tx",
        ratio(d.net_batched, set_batches),
        "count",
        set_batches,
    );
    r.layer(
        "kvnet.shed_frac",
        ratio(d.net_shed, d.net_shed + d.net_accepted),
        "ratio",
        d.net_shed + d.net_accepted,
    );
    // Share of the rung's wall time the serve thread spent outside recv.
    let idle: u64 = t
        .recvs
        .iter()
        .map(|&(call, ret, _)| ret.min(rung.t_end).saturating_sub(call.max(rung.t0)))
        .sum();
    let span = (rung.t_end - rung.t0) as f64;
    r.layer(
        "kvnet.serve_busy_frac",
        1.0 - idle as f64 / span,
        "ratio",
        t.recvs.len() as u64,
    );
    r.layer(
        "trace_overhead_frac",
        traced_p50 / plain_p50_us - 1.0,
        "ratio",
        m,
    );
}
