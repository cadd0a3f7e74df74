//! One timed restart: crashed media → `open_from_media` → `Runtime::open`
//! → register → `recover()` → app open → the first successful GET.
//!
//! `recover` keeps its crashed media between restarts as an [`Image`] of
//! the non-zero pages, and hands each restart a fresh buffer whose other
//! pages are left untouched, as a newly created pool's are: the memory
//! resident during its timed cycles is then the program's, not a copy the
//! benchmark holds. `tx_ycsb` and `kv_tcp` restart plain copies of their
//! pool's media after their peak RSS is taken.

use std::sync::Arc;
use std::time::Instant;

use clobber_nvm::{Backend, RecoveryReport, Runtime, RuntimeOptions, TxError};
use clobber_pmem::{PmemPool, PoolMode};

use crate::util::{median, Report};

/// Crashed media, kept as its non-zero pages.
pub struct Image {
    len: usize,
    /// Offsets of the kept pages, ascending.
    offsets: Vec<usize>,
    /// The kept pages, back to back.
    bytes: Vec<u8>,
}

const PAGE: usize = 4096;

impl Image {
    pub fn new(media: &[u8]) -> Image {
        let mut img = Image {
            len: media.len(),
            offsets: Vec::new(),
            bytes: Vec::new(),
        };
        for (i, page) in media.chunks(PAGE).enumerate() {
            if page.iter().any(|&b| b != 0) {
                img.offsets.push(i * PAGE);
                img.bytes.extend_from_slice(page);
            }
        }
        img
    }

    /// A fresh copy of the media. The zeroed buffer comes straight from
    /// the allocator, so its pages stay untouched until the pool uses them.
    pub fn media(&self) -> Vec<u8> {
        let mut m = vec![0u8; self.len];
        let mut from = 0;
        for &off in &self.offsets {
            let n = PAGE.min(self.len - off);
            m[off..off + n].copy_from_slice(&self.bytes[from..from + n]);
            from += n;
        }
        m
    }
}

/// Wall-clock spans of one restart, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    pub open_media_ms: f64,
    pub runtime_open_ms: f64,
    pub app_open_ms: f64,
    pub recover_ms: f64,
    pub first_get_ms: f64,
    pub total_ms: f64,
    pub report: RecoveryReport,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// How a workload reopens its application on a recovered runtime.
pub trait App: Sized {
    /// Registers the app's txfuncs (before recovery).
    fn register(rt: &Runtime);
    /// Adopts the app's persistent state (after recovery).
    fn open(rt: &Runtime) -> Result<Self, TxError>;
}

/// Phase timestamps of one restart; with `on` false it takes none and
/// every span reads 0.
struct Laps {
    on: bool,
    t: Instant,
}

impl Laps {
    /// Milliseconds since the previous lap.
    fn lap(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let span = ms(self.t);
        self.t = Instant::now();
        span
    }
}

/// Runs one restart of `media`, timing each phase if `phases`; `total_ms`
/// is always timed. `first_get` performs the first read and returns
/// whether it saw the expected value.
pub fn cycle<A: App>(
    media: Vec<u8>,
    mode: PoolMode,
    phases: bool,
    first_get: impl FnOnce(&Arc<Runtime>, &A) -> Result<bool, TxError>,
) -> Result<(Cycle, Arc<Runtime>, A), String> {
    let mut c = Cycle::default();
    let t0 = Instant::now();
    let mut laps = Laps { on: phases, t: t0 };
    let pool = PmemPool::open_from_media(media, mode).map_err(|e| format!("open: {e:?}"))?;
    c.open_media_ms = laps.lap();
    let rt = Arc::new(
        Runtime::open(Arc::new(pool), RuntimeOptions::new(Backend::clobber()))
            .map_err(|e| format!("runtime open: {e:?}"))?,
    );
    c.runtime_open_ms = laps.lap();
    A::register(&rt);
    c.app_open_ms = laps.lap();
    c.report = rt.recover().map_err(|e| format!("recover: {e:?}"))?;
    c.recover_ms = laps.lap();
    let app = A::open(&rt).map_err(|e| format!("app open: {e:?}"))?;
    c.app_open_ms += laps.lap();
    let ok = first_get(&rt, &app).map_err(|e| format!("first get: {e:?}"))?;
    c.first_get_ms = laps.lap();
    c.total_ms = ms(t0);
    if !ok {
        return Err("first GET after recovery returned a wrong value".into());
    }
    Ok((c, rt, app))
}

/// Median spans over `cycles`.
pub fn medians(cycles: &[Cycle]) -> Cycle {
    let med = |f: fn(&Cycle) -> f64| median(&mut cycles.iter().map(f).collect::<Vec<_>>());
    Cycle {
        open_media_ms: med(|c| c.open_media_ms),
        runtime_open_ms: med(|c| c.runtime_open_ms),
        app_open_ms: med(|c| c.app_open_ms),
        recover_ms: med(|c| c.recover_ms),
        first_get_ms: med(|c| c.first_get_ms),
        total_ms: med(|c| c.total_ms),
        report: cycles.last().map(|c| c.report.clone()).unwrap_or_default(),
    }
}

/// The restart's per-layer rows and its decomposition.
pub fn layers(r: &mut Report, cycles: &[Cycle]) {
    let m = medians(cycles);
    let n = cycles.len() as u64;
    r.layer("pmem.open_from_media_ms", m.open_media_ms, "ms", n);
    r.layer("core.runtime_open_ms", m.runtime_open_ms, "ms", n);
    r.layer("apps.kvserver_open_ms", m.app_open_ms, "ms", n);
    r.layer("core.recover_with_ms", m.recover_ms, "ms", n);
    r.layer("apps.first_get_us", m.first_get_ms * 1e3, "us", n);
    let mut slot_us: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.report.slot_durations.iter())
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let slots = slot_us.len() as u64;
    let slot_med = if slot_us.is_empty() {
        0.0
    } else {
        median(&mut slot_us)
    };
    r.layer("core.recover_slot_us", slot_med, "us", slots);
    let rep = &m.report;
    r.counted_layer(
        "core.rec_slots_scanned",
        rep.slots_scanned as f64,
        "count",
        n,
    );
    r.counted_layer(
        "core.rec_reexecuted",
        rep.reexecuted.len() as f64,
        "count",
        n,
    );
    r.counted_layer(
        "core.rec_entries_applied",
        rep.clobber_entries_applied as f64,
        "count",
        n,
    );
}
