//! Deterministic discrete-event executor.
//!
//! Reproduces the paper's thread-scaling experiments on one host thread:
//! logical threads acquire *simulated* reader-writer locks in the
//! paper's conservative strong-strict-2PL style (all locks at transaction
//! begin, released at commit, §2.2), operations execute **for real** against
//! the runtime — one at a time on the host thread, in simulated-lock-grant
//! order, so data is never racy — and each operation's simulated duration
//! comes from the cost model applied to its counted persistence events.
//!
//! Scalability shape therefore emerges from exactly the two factors the
//! paper credits: lock granularity (a global lock serializes, per-node
//! locks overlap) and per-operation persistence cost.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use clobber_nvm::{LockId, LockMode, LockRequest};

/// One simulated operation: the locks it holds for its duration, and a
/// closure that performs the real work and returns the simulated duration
/// in nanoseconds.
pub struct SimOp {
    /// Locks held from grant to completion (conservative 2PL).
    pub locks: Vec<LockRequest>,
    /// Executes the operation and returns its simulated duration.
    pub execute: Box<dyn FnOnce() -> u64>,
}

impl std::fmt::Debug for SimOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimOp")
            .field("locks", &self.locks)
            .finish_non_exhaustive()
    }
}

/// Supplies each logical thread's operation stream.
pub trait OpSource {
    /// The next operation for `thread`, or `None` when it is done.
    fn next_op(&mut self, thread: usize) -> Option<SimOp>;
}

/// Outcome of a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesResult {
    /// Operations completed across all threads.
    pub total_ops: u64,
    /// Simulated wall-clock: when the last thread finished, in ns.
    pub makespan_ns: u64,
    /// Operations per logical thread.
    pub per_thread_ops: Vec<u64>,
}

impl DesResult {
    /// Aggregate throughput in operations per second.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1e9 / self.makespan_ns as f64
    }
}

#[derive(Default)]
struct LockState {
    writer: Option<usize>,
    readers: HashSet<usize>,
}

impl LockState {
    fn compatible(&self, thread: usize, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self.writer.is_none_or(|w| w == thread),
            LockMode::Exclusive => {
                self.writer.is_none_or(|w| w == thread) && self.readers.iter().all(|&r| r == thread)
            }
        }
    }

    fn acquire(&mut self, thread: usize, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                self.readers.insert(thread);
            }
            LockMode::Exclusive => self.writer = Some(thread),
        }
    }

    fn release(&mut self, thread: usize) {
        if self.writer == Some(thread) {
            self.writer = None;
        }
        self.readers.remove(&thread);
    }
}

struct Waiter {
    seq: u64,
    thread: usize,
    op: SimOp,
}

/// Runs `threads` logical threads to completion over `source`.
///
/// Lock policy: an operation atomically acquires its whole lock set
/// (deadlock-free conservative 2PL); contended operations wait in global
/// FIFO arrival order and are granted as soon as their full set is
/// available. Re-entrant requests by the same thread are allowed (an op may
/// list the same lock twice).
pub fn run_des(threads: usize, source: &mut dyn OpSource) -> DesResult {
    let mut locks: HashMap<LockId, LockState> = HashMap::new();
    let mut waiters: VecDeque<Waiter> = VecDeque::new();
    // Completion events: (time, tie-break seq, thread, lock set released).
    let mut events: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut held: Vec<Vec<LockRequest>> = (0..threads).map(|_| Vec::new()).collect();
    let mut per_thread_ops = vec![0u64; threads];
    let mut total_ops = 0u64;
    let mut makespan = 0u64;
    let mut seq = 0u64;

    // Attempts to start `op` on `thread` at `now`; returns false if it must
    // wait.
    fn try_start(
        locks: &mut HashMap<LockId, LockState>,
        events: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
        held: &mut [Vec<LockRequest>],
        thread: usize,
        op: SimOp,
        now: u64,
        seq: &mut u64,
    ) -> Option<SimOp> {
        let ok = op
            .locks
            .iter()
            .all(|r| locks.entry(r.lock).or_default().compatible(thread, r.mode));
        if !ok {
            return Some(op);
        }
        for r in &op.locks {
            locks
                .get_mut(&r.lock)
                .expect("entry created")
                .acquire(thread, r.mode);
        }
        held[thread] = op.locks.clone();
        let duration = (op.execute)();
        *seq += 1;
        events.push(Reverse((now + duration.max(1), *seq, thread)));
        None
    }

    // Kick off every thread at t=0.
    for t in 0..threads {
        if let Some(op) = source.next_op(t) {
            seq += 1;
            if let Some(blocked) = try_start(&mut locks, &mut events, &mut held, t, op, 0, &mut seq)
            {
                waiters.push_back(Waiter {
                    seq,
                    thread: t,
                    op: blocked,
                });
            }
        }
    }

    while let Some(Reverse((now, _, thread))) = events.pop() {
        makespan = makespan.max(now);
        total_ops += 1;
        per_thread_ops[thread] += 1;
        // Release this op's locks.
        for r in held[thread].drain(..) {
            if let Some(st) = locks.get_mut(&r.lock) {
                st.release(thread);
            }
        }
        // The finishing thread's next op joins the wait list (FIFO fairness
        // with already-waiting ops).
        if let Some(op) = source.next_op(thread) {
            seq += 1;
            waiters.push_back(Waiter { seq, thread, op });
        }
        // Grant every waiter whose full lock set is now available, in
        // arrival order.
        let mut still_waiting: VecDeque<Waiter> = VecDeque::new();
        while let Some(w) = waiters.pop_front() {
            let mut s = w.seq;
            match try_start(
                &mut locks,
                &mut events,
                &mut held,
                w.thread,
                w.op,
                now,
                &mut s,
            ) {
                None => {}
                Some(op) => still_waiting.push_back(Waiter {
                    seq: w.seq,
                    thread: w.thread,
                    op,
                }),
            }
        }
        waiters = still_waiting;
    }

    debug_assert!(waiters.is_empty(), "deadlock: waiters left with no events");
    DesResult {
        total_ops,
        makespan_ns: makespan,
        per_thread_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Source handing each thread `n` ops of fixed duration and lock set.
    struct Fixed {
        remaining: Vec<u64>,
        duration: u64,
        lock_for: fn(usize) -> Vec<LockRequest>,
    }

    impl OpSource for Fixed {
        fn next_op(&mut self, thread: usize) -> Option<SimOp> {
            if self.remaining[thread] == 0 {
                return None;
            }
            self.remaining[thread] -= 1;
            let d = self.duration;
            Some(SimOp {
                locks: (self.lock_for)(thread),
                execute: Box::new(move || d),
            })
        }
    }

    #[test]
    fn independent_threads_overlap_perfectly() {
        // Each thread has its own lock: makespan = per-thread work.
        let mut src = Fixed {
            remaining: vec![10; 4],
            duration: 100,
            lock_for: |t| vec![LockRequest::exclusive(t as u64)],
        };
        let r = run_des(4, &mut src);
        assert_eq!(r.total_ops, 40);
        assert_eq!(r.makespan_ns, 1000, "4x overlap");
        assert_eq!(r.per_thread_ops, vec![10, 10, 10, 10]);
    }

    #[test]
    fn global_exclusive_lock_serializes() {
        let mut src = Fixed {
            remaining: vec![10; 4],
            duration: 100,
            lock_for: |_| vec![LockRequest::exclusive(0)],
        };
        let r = run_des(4, &mut src);
        assert_eq!(r.total_ops, 40);
        assert_eq!(r.makespan_ns, 4000, "no overlap under a global lock");
    }

    #[test]
    fn shared_locks_overlap() {
        let mut src = Fixed {
            remaining: vec![10; 4],
            duration: 100,
            lock_for: |_| vec![LockRequest::shared(0)],
        };
        let r = run_des(4, &mut src);
        assert_eq!(r.makespan_ns, 1000, "readers run concurrently");
    }

    /// Alternating readers and one writer on a single rwlock.
    struct Mixed {
        remaining: Vec<u64>,
    }

    impl OpSource for Mixed {
        fn next_op(&mut self, thread: usize) -> Option<SimOp> {
            if self.remaining[thread] == 0 {
                return None;
            }
            self.remaining[thread] -= 1;
            let mode = if thread == 0 {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            Some(SimOp {
                locks: vec![LockRequest { lock: 0, mode }],
                execute: Box::new(|| 100),
            })
        }
    }

    #[test]
    fn writer_excludes_readers() {
        let mut src = Mixed {
            remaining: vec![2, 2, 2],
        };
        let r = run_des(3, &mut src);
        assert_eq!(r.total_ops, 6);
        // 2 writer ops serialize against the reader groups; readers overlap
        // with each other. Lower bound: writer 200 + at least 2 reader
        // rounds of 100 = 400; upper bound: fully serial 600.
        assert!((400..=600).contains(&r.makespan_ns), "{}", r.makespan_ns);
    }

    #[test]
    fn multi_lock_ops_acquire_atomically() {
        // Thread 0 takes locks {0,1}; threads 1 and 2 take {0} and {1}.
        struct Multi {
            remaining: Vec<u64>,
        }
        impl OpSource for Multi {
            fn next_op(&mut self, thread: usize) -> Option<SimOp> {
                if self.remaining[thread] == 0 {
                    return None;
                }
                self.remaining[thread] -= 1;
                let locks = match thread {
                    0 => vec![LockRequest::exclusive(0), LockRequest::exclusive(1)],
                    1 => vec![LockRequest::exclusive(0)],
                    _ => vec![LockRequest::exclusive(1)],
                };
                Some(SimOp {
                    locks,
                    execute: Box::new(|| 100),
                })
            }
        }
        let r = run_des(
            3,
            &mut Multi {
                remaining: vec![5, 5, 5],
            },
        );
        assert_eq!(r.total_ops, 15);
        // Thread 0 conflicts with both: its 5 ops serialize against
        // everything; threads 1/2 overlap with each other.
        assert!(r.makespan_ns >= 1000);
        assert!(r.makespan_ns <= 1500);
    }

    #[test]
    fn empty_source_finishes_immediately() {
        struct Empty;
        impl OpSource for Empty {
            fn next_op(&mut self, _t: usize) -> Option<SimOp> {
                None
            }
        }
        let r = run_des(8, &mut Empty);
        assert_eq!(r.total_ops, 0);
        assert_eq!(r.makespan_ns, 0);
        assert_eq!(r.throughput_ops_per_sec(), 0.0);
    }

    #[test]
    fn zero_duration_ops_still_advance() {
        let mut src = Fixed {
            remaining: vec![3; 1],
            duration: 0,
            lock_for: |_| vec![],
        };
        let r = run_des(1, &mut src);
        assert_eq!(r.total_ops, 3);
        assert!(r.makespan_ns >= 3, "durations clamp to 1ns");
    }

    #[test]
    fn throughput_math_checks_out() {
        let r = DesResult {
            total_ops: 1000,
            makespan_ns: 1_000_000,
            per_thread_ops: vec![1000],
        };
        assert_eq!(r.throughput_ops_per_sec(), 1e6);
    }
}
