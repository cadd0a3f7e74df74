//! Self-check of the benchmark itself: with one seed, counted metrics
//! repeat exactly; a different seed changes the generated inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{kvtcp, recover, run, ycsb, RunOpts};

fn traced(seed: u64) -> RunOpts {
    RunOpts {
        seed,
        seconds: 0.5,
        trace: true,
    }
}

fn assert_counts_repeat(workload: &str) {
    let a = run(workload, &traced(7)).expect("first run");
    let b = run(workload, &traced(7)).expect("second run");
    assert!(a.correct && b.correct, "{workload}: oracle failed");
    assert_eq!(a.failed + b.failed, 0, "{workload}: operations failed");
    for name in [
        "fences_per_write",
        "log_bytes_per_write",
        "media_bytes_per_user_byte",
        "pmem.fences_per_op",
        "pmem.write_bytes_per_op",
        "core.vlog_bytes_per_write",
        "core.rec_slots_scanned",
    ] {
        assert!(
            a.counted.iter().any(|(n, _)| n == name),
            "{workload}: {name} is not counted"
        );
    }
    assert_eq!(
        a.counted, b.counted,
        "{workload}: counts differ for one seed"
    );
}

// One test, so the workloads (the recover pool is 256 MiB) never run
// side by side.
#[test]
fn counts_repeat_per_seed_and_inputs_follow_the_seed() {
    assert_counts_repeat("tx_ycsb");
    assert_counts_repeat("recover");

    assert_eq!(ycsb::stream(7, 0), ycsb::stream(7, 0));
    assert_ne!(ycsb::stream(7, 0), ycsb::stream(8, 0));
    assert_eq!(recover::batch(7), recover::batch(7));
    assert_ne!(recover::batch(7), recover::batch(8));
    let frames = |seed| -> Vec<Vec<u8>> {
        kvtcp::requests(seed, &[200, 200], 0)
            .into_iter()
            .map(|r| r.frame)
            .collect()
    };
    assert_eq!(frames(7), frames(7));
    assert_ne!(frames(7), frames(8));
}
