//! End-to-end and per-layer benchmark of the Clobber-NVM reproduction.
//!
//! Three workloads drive the public API from outside the program: the
//! library path (`tx_ycsb`), the networked service over real TCP loopback
//! (`kv_tcp`) and crash recovery (`recover`). Every timing is wall clock,
//! taken around calls into each layer's public functions; every count is a
//! `StatsSnapshot` delta. Nothing here instruments program code.

pub mod calib;
pub mod kvtcp;
pub mod layers;
pub mod recover;
pub mod restart;
pub mod util;
pub mod ycsb;

pub use util::Report;

/// Options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tx_ycsb", "kv_tcp", "recover"];

/// Runs workload `name`.
///
/// # Errors
///
/// Returns a description of a set-up or I/O failure.
pub fn run(name: &str, o: &RunOpts) -> Result<Report, String> {
    match name {
        "tx_ycsb" => ycsb::run(o),
        "kv_tcp" => kvtcp::run(o),
        "recover" => recover::run(o),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// End-to-end metrics (tracing off) that every workload reports and the
/// result line carries: each is never 0 and repeats within its bound on a
/// shared host whose speed swings by up to 1.5× for minutes at a time.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("fences_per_write", "count"),
    ("log_bytes_per_write", "B"),
    ("media_bytes_per_user_byte", "B/B"),
    ("recover_ms", "ms"),
];

/// End-to-end metrics printed with the report but left out of the result
/// line, so the result line gates no latency or throughput. CPU-bound
/// timings follow the host's speed mode, which moved their run medians by
/// up to 40 % between runs; `kv_tcp` tails swing with the per-frame TCP
/// stall; the ladder's answer is a rung, 0 when none meets the SLO.
pub const REPORTED_ONLY: [(&str, &str); 6] = [
    ("ops_per_s", "ops/s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("write_p99_us", "us"),
    ("read_p99_us", "us"),
    ("max_rps_at_slo", "ops/s"),
];

/// Per-layer metrics (traced run). A workload that does not pass through a
/// layer reports 0 for it, with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("kvnet.wire_in_us", "us"),
    ("kvnet.wire_out_us", "us"),
    ("kvnet.exec_us", "us"),
    ("kvnet.send_us", "us"),
    ("kvnet.serve_busy_frac", "ratio"),
    ("kvnet.batch_reqs", "count"),
    ("kvnet.sets_per_tx", "count"),
    ("kvnet.shed_frac", "ratio"),
    ("kvnet.gen_lag_us", "us"),
    ("apps.kvserver_open_ms", "ms"),
    ("apps.first_get_us", "us"),
    ("pds.insert_sync_p50_us", "us"),
    ("pds.insert_sync_p99_us", "us"),
    ("pds.get_sync_p50_us", "us"),
    ("pds.get_sync_p99_us", "us"),
    ("core.empty_tx_ns", "ns"),
    ("core.lock_pair_ns", "ns"),
    ("core.gc_fence_ns", "ns"),
    ("core.rangeset_ns", "ns"),
    ("core.vlog_bytes_per_write", "B"),
    ("core.vlog_entries_per_write", "count"),
    ("core.lock_acquisitions_per_op", "count"),
    ("core.lock_waits_per_op", "count"),
    ("core.lock_conflicts_per_op", "count"),
    ("core.gc_epochs_per_op", "count"),
    ("core.gc_fences_saved_per_op", "count"),
    ("core.runtime_open_ms", "ms"),
    ("core.recover_with_ms", "ms"),
    ("core.recover_slot_us", "us"),
    ("core.rec_slots_scanned", "count"),
    ("core.rec_reexecuted", "count"),
    ("core.rec_entries_applied", "count"),
    ("pmem.fences_per_op", "count"),
    ("pmem.flushes_per_op", "count"),
    ("pmem.writes_per_op", "count"),
    ("pmem.write_bytes_per_op", "B"),
    ("pmem.reads_per_op", "count"),
    ("pmem.read64_ns", "ns"),
    ("pmem.store64_flush_ns", "ns"),
    ("pmem.fence_ns", "ns"),
    ("pmem.ulog_append_ns", "ns"),
    ("pmem.ulog_sync_ns", "ns"),
    ("pmem.ulog_bytes_per_write", "B"),
    ("pmem.ulog_entries_per_write", "count"),
    ("pmem.alloc_free_ns", "ns"),
    ("pmem.allocs_per_write", "count"),
    ("pmem.frees_per_write", "count"),
    ("pmem.reserves_per_write", "count"),
    ("pmem.publishes_per_write", "count"),
    ("pmem.pool_create_ms", "ms"),
    ("pmem.open_from_media_ms", "ms"),
    ("residual_us", "us"),
    ("trace_overhead_frac", "ratio"),
];
