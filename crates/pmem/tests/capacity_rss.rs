//! Resident memory of a crash-sim pool follows the lines it touches, not
//! its capacity.
//!
//! A fresh pool's media is a zeroed allocation, so the OS commits its pages
//! only as they are written. The simulated cache's shadow must keep that
//! property: a store followed by a persist at a few spread addresses may
//! commit a few pages, never a capacity-sized buffer. A multi-shard pool
//! copies each media byte at most once while carving its shards, so it may
//! grow by at most one capacity.
//!
//! Linux-only (reads `VmRSS` from `/proc/self/status`). The file holds one
//! test so that its process measures nothing else.
#![cfg(target_os = "linux")]

use clobber_pmem::{PAddr, PmemPool, PoolOptions};

const CAPACITY: u64 = 128 << 20;
const MIB: u64 = 1 << 20;
/// Slack for the allocator, the test harness and the pages actually written.
const SLACK: u64 = 16 * MIB;

fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value in kB");
    kib * 1024
}

/// RSS growth across `create` plus a store and persist at three addresses
/// spread over the pool.
fn growth(shards: u32) -> u64 {
    let before = rss_bytes();
    let pool = PmemPool::create(PoolOptions::crash_sim(CAPACITY).with_shards(shards))
        .expect("create pool");
    for quarter in 1..=3 {
        let addr = PAddr::new(CAPACITY / 4 * quarter);
        pool.write_bytes(addr, &[0xA5; 256]).expect("store");
        pool.persist(addr, 256).expect("persist");
        assert_eq!(pool.read_bytes(addr, 256).expect("read"), [0xA5; 256]);
    }
    let after = rss_bytes();
    drop(pool);
    after.saturating_sub(before)
}

#[test]
fn crash_sim_rss_follows_touched_lines_not_capacity() {
    // The 8-shard pool runs last: freeing its shard-sized pieces can move
    // the allocator's mmap threshold, which would blur the other
    // measurement.
    let cases = [(1, SLACK), (8, CAPACITY + SLACK)];
    for (shards, bound) in cases {
        let grew = growth(shards);
        assert!(
            grew <= bound,
            "{shards} shards: RSS grew {} MiB, bound {} MiB",
            grew / MIB,
            bound / MIB
        );
    }
}
