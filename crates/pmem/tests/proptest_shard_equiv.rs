//! Lock-step equivalence of multi-shard pools against the one-shard
//! reference pool.
//!
//! The pool's state is partitioned into address-range shards; the
//! one-shard pool — one media cache under one lock — is the reference.
//! The contract is that the shard count is *unobservable* through the pool
//! API: random schedules of
//! store/flush/fence/crash operations — including armed [`FaultPlan`]s that
//! kill the pool mid-schedule and torn trip-point stores — must produce
//! identical volatile reads, identical per-step error results, identical
//! persist-event numbering and fault-trip points, bit-identical stats
//! counters, and identical durable media after a seeded crash, at every
//! shard count.
//!
//! PR 4 extends the schedules with the full allocator surface —
//! `alloc`/`free`/`reserve`/`publish`/`cancel` — so the sharded-arena
//! allocator is held to the same standard: identical addresses, identical
//! error results (`OutOfMemory`, `InvalidFree`, `InjectedCrash`), identical
//! `heap_used`, identical `check_heap` reports, and bit-identical durable
//! allocator metadata after a seeded crash, at every shard count.

use clobber_pmem::{CrashConfig, FaultPlan, PAddr, PmemError, PmemPool, PoolOptions};
use proptest::prelude::*;

const POOL_SIZE: u64 = 1 << 20;
const BLOCK: u64 = 16 << 10;

/// The candidate shard counts checked against the one-shard reference.
const CANDIDATES: &[u32] = &[2, 4, 16];

/// One step of the driver script. Offsets/lengths are pre-clipped to the
/// allocated block so pool metadata stays intact and a crashed pool can
/// always be reopened.
#[derive(Clone, Debug)]
enum Op {
    Write(u64, u64, u8),
    Flush(u64, u64),
    Fence,
    Crash(u64),
    /// Arm a plan tripping `delta` persist events from now (torn, seed).
    Arm(u64, bool, u64),
    Disarm,
    /// Immediate allocation of `size` bytes.
    Alloc(u64),
    /// Free the `i % len`-th tracked allocation (no-op when none exist).
    Free(usize),
    /// Zero-fence transactional reservation of `size` bytes.
    Reserve(u64),
    /// Publish the newest `k` outstanding reservations (clamped).
    Publish(usize),
    /// Cancel the newest `k` outstanding reservations (clamped).
    Cancel(usize),
}

/// Allocation sizes that exercise every interesting classifier bucket:
/// sub-minimum, small classes, the largest small class, and huge blocks.
fn size_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 1u64..300,
        1 => 3000u64..4097,
        1 => 4097u64..20_000,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..BLOCK, 1u64..256, 0u8..=255).prop_map(|(o, l, b)| Op::Write(o, l, b)),
        2 => (0u64..BLOCK, 1u64..512).prop_map(|(o, l)| Op::Flush(o, l)),
        2 => (0u64..4u64).prop_map(|_| Op::Fence),
        1 => (0u64..u64::MAX).prop_map(Op::Crash),
        1 => (0u64..12, 0u64..2, 0u64..u64::MAX)
            .prop_map(|(e, t, s)| Op::Arm(e, t == 1, s)),
        1 => (0u64..2u64).prop_map(|_| Op::Disarm),
        3 => size_strategy().prop_map(Op::Alloc),
        2 => (0usize..64).prop_map(Op::Free),
        3 => size_strategy().prop_map(Op::Reserve),
        2 => (0usize..4).prop_map(Op::Publish),
        2 => (0usize..4).prop_map(Op::Cancel),
    ]
}

/// The observable outcome of one op: `Ok` carries the returned address for
/// allocator ops (0 when the op returns no address), so address equality
/// across shard counts is part of the per-step comparison.
type Outcome = Result<u64, PmemError>;

/// Script-level allocator bookkeeping, driven by the *reference* pool's
/// results and shared by every candidate. Tracking may go stale after a
/// crash (rolled-back reservations, dropped publishes) — that is deliberate:
/// stale addresses exercise the `InvalidFree` paths, and every pool must
/// produce the same error for the same stale address.
#[derive(Default)]
struct Tracked {
    allocated: Vec<u64>,
    reserved: Vec<u64>,
}

impl Tracked {
    /// The argument block for a `Publish`/`Cancel` of the newest `k`.
    fn newest(&self, k: usize) -> Vec<PAddr> {
        let k = k.min(self.reserved.len());
        self.reserved[self.reserved.len() - k..]
            .iter()
            .map(|&o| PAddr::new(o))
            .collect()
    }
}

/// Applies one op, returning the (possibly reopened) pool and the op's
/// observable result. Every branch of this function must be a pure function
/// of the pool API — no peeking at shard internals — so a divergence here
/// is a real contract violation.
fn apply(pool: PmemPool, base: PAddr, tracked: &Tracked, op: &Op) -> (PmemPool, Outcome) {
    match *op {
        Op::Write(off, len, fill) => {
            let len = len.min(BLOCK - off);
            let data = vec![fill; len as usize];
            let r = pool.write_bytes(base.add(off), &data).map(|_| 0);
            (pool, r)
        }
        Op::Flush(off, len) => {
            let len = len.min(BLOCK - off);
            let r = pool.flush(base.add(off), len).map(|_| 0);
            (pool, r)
        }
        Op::Fence => {
            // Fences on a dead pool are silently lost; on a live pool they
            // succeed. Either way there is nothing to compare beyond the
            // event counter, checked by the caller.
            pool.fence();
            (pool, Ok(0))
        }
        Op::Crash(seed) => {
            let reopened = pool.crash(&CrashConfig::with_seed(seed)).unwrap();
            (reopened, Ok(0))
        }
        Op::Arm(delta, torn, seed) => {
            let plan = if torn {
                FaultPlan::torn_crash_at(delta, seed)
            } else {
                FaultPlan::crash_at(delta)
            };
            pool.arm_faults(plan);
            (pool, Ok(0))
        }
        Op::Disarm => {
            pool.disarm_faults();
            (pool, Ok(0))
        }
        Op::Alloc(size) => {
            let r = pool.alloc(size).map(|a| a.offset());
            (pool, r)
        }
        Op::Free(i) => {
            if tracked.allocated.is_empty() {
                return (pool, Ok(0));
            }
            let addr = tracked.allocated[i % tracked.allocated.len()];
            let r = pool.free(PAddr::new(addr)).map(|_| addr);
            (pool, r)
        }
        Op::Reserve(size) => {
            let r = pool.reserve(size).map(|a| a.offset());
            (pool, r)
        }
        Op::Publish(k) => {
            let blocks = tracked.newest(k);
            let r = pool.publish(&blocks).map(|_| 0);
            (pool, r)
        }
        Op::Cancel(k) => {
            let blocks = tracked.newest(k);
            let r = pool.cancel(&blocks).map(|_| 0);
            (pool, r)
        }
    }
}

/// Folds the reference outcome of an op back into the script's tracking, so
/// later `Free`/`Publish`/`Cancel` ops target real addresses.
fn track(tracked: &mut Tracked, op: &Op, outcome: &Outcome) {
    match (op, outcome) {
        (Op::Crash(_), _) => {
            // Unpublished reservations rolled back with the volatile mirror.
            // `allocated` is kept as-is: entries whose publish never became
            // durable are now stale and exercise `InvalidFree` on free.
            tracked.reserved.clear();
        }
        (Op::Alloc(_), Ok(addr)) => tracked.allocated.push(*addr),
        (Op::Free(_), Ok(addr)) => tracked.allocated.retain(|a| a != addr),
        (Op::Reserve(_), Ok(addr)) => tracked.reserved.push(*addr),
        (Op::Publish(k), Ok(_)) => {
            let k = (*k).min(tracked.reserved.len());
            let from = tracked.reserved.len() - k;
            let moved: Vec<u64> = tracked.reserved.drain(from..).collect();
            tracked.allocated.extend(moved);
        }
        (Op::Cancel(k), Ok(_)) => {
            let k = (*k).min(tracked.reserved.len());
            let from = tracked.reserved.len() - k;
            tracked.reserved.drain(from..);
        }
        _ => {}
    }
}

fn create(shards: u32) -> (PmemPool, PAddr) {
    let pool = PmemPool::create(PoolOptions::crash_sim(POOL_SIZE).with_shards(shards)).unwrap();
    let base = pool.alloc(BLOCK).unwrap();
    (pool, base)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline lock-step test: one schedule, four shard counts, every
    /// observable compared after every step.
    #[test]
    fn shard_counts_match_one_shard_reference(
        (ops, final_seed) in (proptest::collection::vec(op_strategy(), 1..60), 0u64..u64::MAX)
    ) {
        let (mut reference, base_r) = create(1);
        let mut candidates: Vec<(u32, Option<PmemPool>, PAddr)> = Vec::new();
        for &c in CANDIDATES {
            let (p, b) = create(c);
            prop_assert_eq!(b, base_r, "deterministic allocator diverged for {} shards", c);
            candidates.push((c, Some(p), b));
        }
        let mut tracked = Tracked::default();

        for op in &ops {
            let (r, res_r) = apply(reference, base_r, &tracked, op);
            reference = r;
            let vol_r = reference.read_bytes(base_r, BLOCK);
            let ev_r = reference.fault_events();
            let trip_r = reference.fault_tripped();
            let used_r = reference.heap_used();

            for (c, slot, base) in &mut candidates {
                let (p, res_c) = apply(slot.take().unwrap(), *base, &tracked, op);
                let pool = slot.insert(p);
                prop_assert_eq!(
                    &res_c, &res_r,
                    "op result diverged for {} shards after {:?}", c, op
                );
                // Persist-event numbering and trip points are the ordering
                // contract: the global fault mutex must observe the same
                // total order regardless of how the address space is split.
                prop_assert_eq!(pool.fault_events(), ev_r, "event count diverged for {} shards", c);
                prop_assert_eq!(pool.fault_tripped(), trip_r, "trip point diverged for {} shards", c);
                // The allocator frontier is part of the deterministic state.
                prop_assert_eq!(pool.heap_used(), used_r, "heap_used diverged for {} shards", c);
                // Volatile view (media + cache overlay, or InjectedCrash on
                // a dead pool) must agree after every step.
                let vol_c = pool.read_bytes(*base, BLOCK);
                prop_assert_eq!(&vol_c, &vol_r, "volatile reads diverged for {} shards after {:?}", c, op);
            }
            track(&mut tracked, op, &res_r);
        }

        // Counters are part of the contract. Pools route hot counts through
        // per-shard banks; `snapshot()` must fold them back into totals
        // bit-identical to the one-shard pool's.
        let snap_r = reference.stats().snapshot();
        for (c, slot, _) in &candidates {
            let pool = slot.as_ref().unwrap();
            prop_assert_eq!(pool.stats().snapshot(), snap_r.clone(), "counters diverged for {} shards", c);
        }

        // The same crash seed must draw the same per-line survival decisions
        // at every shard count (ascending-shard × ascending-line = global
        // ascending line order) and therefore produce identical durable
        // media — even when the schedule left the pool dead (tripped).
        let crashed_r = reference.crash(&CrashConfig::with_seed(final_seed)).unwrap();
        let durable_r = crashed_r.read_bytes(base_r, BLOCK).unwrap();
        // The recovered heap structure is part of the durable contract.
        let heap_r = crashed_r.check_heap();
        for (c, slot, base) in candidates {
            let pool = slot.unwrap();
            let crashed = pool.crash(&CrashConfig::with_seed(final_seed)).unwrap();
            prop_assert_eq!(
                crashed.shard_count(), pool.shard_count(),
                "crash() must preserve the shard count"
            );
            let durable = crashed.read_bytes(base, BLOCK).unwrap();
            prop_assert_eq!(&durable, &durable_r, "durable media diverged for {} shards", c);
            prop_assert_eq!(
                crashed.check_heap().is_ok(), heap_r.is_ok(),
                "check_heap verdict diverged for {} shards", c
            );
            if let (Ok(hc), Ok(hr)) = (crashed.check_heap(), heap_r.clone()) {
                prop_assert_eq!(hc, hr, "heap report diverged for {} shards", c);
            }
        }
    }
}
