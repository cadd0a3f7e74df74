//! Counted per-layer metrics from `StatsSnapshot` deltas, and the
//! "Σ attributed layers + residual = end to end" table.

use clobber_pmem::StatsSnapshot;

use crate::util::{ratio, Report};

/// The counted end-to-end metrics of a write-carrying window: fences and
/// log bytes per write, and pool bytes written per value byte.
pub fn counted_e2e(r: &mut Report, d: &StatsSnapshot, writes: u64, value_bytes: u64) {
    r.counted_e2e("fences_per_write", ratio(d.fences, writes), "count", writes);
    r.counted_e2e(
        "log_bytes_per_write",
        ratio(d.total_log_bytes(), writes),
        "B",
        writes,
    );
    r.counted_e2e(
        "media_bytes_per_user_byte",
        ratio(d.write_bytes, writes * value_bytes),
        "B/B",
        writes,
    );
}

/// The counted `pmem.*` and `core.*` per-op / per-write metrics.
pub fn counted_layers(r: &mut Report, d: &StatsSnapshot, ops: u64, writes: u64) {
    let per_op: [(&str, u64, &'static str); 10] = [
        ("pmem.fences_per_op", d.fences, "count"),
        ("pmem.flushes_per_op", d.flushes, "count"),
        ("pmem.writes_per_op", d.writes, "count"),
        ("pmem.write_bytes_per_op", d.write_bytes, "B"),
        ("pmem.reads_per_op", d.reads, "count"),
        (
            "core.lock_acquisitions_per_op",
            d.lock_acquisitions,
            "count",
        ),
        ("core.lock_waits_per_op", d.lock_waits, "count"),
        ("core.lock_conflicts_per_op", d.lock_conflicts, "count"),
        ("core.gc_epochs_per_op", d.gc_epochs, "count"),
        ("core.gc_fences_saved_per_op", d.gc_fences_saved, "count"),
    ];
    for (name, v, unit) in per_op {
        r.counted_layer(name, ratio(v, ops), unit, ops);
    }
    let per_write: [(&str, u64, &'static str); 8] = [
        ("pmem.ulog_bytes_per_write", d.log_bytes, "B"),
        ("pmem.ulog_entries_per_write", d.log_entries, "count"),
        ("pmem.allocs_per_write", d.allocs, "count"),
        ("pmem.frees_per_write", d.frees, "count"),
        ("pmem.reserves_per_write", d.reserves, "count"),
        ("pmem.publishes_per_write", d.publishes, "count"),
        ("core.vlog_bytes_per_write", d.vlog_bytes, "B"),
        ("core.vlog_entries_per_write", d.vlog_entries, "count"),
    ];
    for (name, v, unit) in per_write {
        r.counted_layer(name, ratio(v, writes), unit, writes);
    }
}

/// One row of the decomposition: either attributed (count per op × an
/// isolated unit cost) or a span timed directly around a public call.
pub enum Row {
    Attributed {
        name: &'static str,
        per_op: f64,
        unit_ns: f64,
    },
    Timed {
        name: &'static str,
        us: f64,
    },
}

/// Prints "Σ layers + residual = end to end" for one workload and records
/// `residual_us`.
pub fn decomposition(r: &mut Report, what: &str, e2e_us: f64, rows: &[Row]) {
    r.line(format!("decomposition of {what}, in µs:"));
    let mut sum = 0.0;
    for row in rows {
        match row {
            Row::Attributed {
                name,
                per_op,
                unit_ns,
            } => {
                let us = per_op * unit_ns / 1e3;
                sum += us;
                r.line(format!(
                    "  {name:<26} {us:>10.3}  attributed = {per_op:.3}/op × {unit_ns:.1} ns"
                ));
            }
            Row::Timed { name, us } => {
                sum += us;
                r.line(format!("  {name:<26} {us:>10.3}  measured span"));
            }
        }
    }
    let residual = e2e_us - sum;
    r.line(format!("  {:<26} {sum:>10.3}", "Σ layers"));
    r.line(format!("  {:<26} {residual:>10.3}", "residual_us"));
    r.line(format!("  {:<26} {e2e_us:>10.3}  measured", "= end to end"));
    r.layer("residual_us", residual, "us", rows.len() as u64);
}
