//! Property-based tests of the discrete-event executor.

use std::collections::VecDeque;

use clobber_nvm::{LockMode, LockRequest};
use clobber_sim::{run_des, OpSource, SimOp};
use proptest::prelude::*;

/// One scripted operation: lock id, mode, duration.
#[derive(Debug, Clone)]
struct Scripted {
    lock: u64,
    exclusive: bool,
    duration: u64,
}

struct ScriptSource {
    per_thread: Vec<VecDeque<Scripted>>,
}

impl OpSource for ScriptSource {
    fn next_op(&mut self, thread: usize) -> Option<SimOp> {
        let op = self.per_thread[thread].pop_front()?;
        let mode = if op.exclusive {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        Some(SimOp {
            locks: vec![LockRequest {
                lock: op.lock,
                mode,
            }],
            execute: Box::new(move || op.duration),
        })
    }
}

fn script_strategy() -> impl Strategy<Value = Vec<Scripted>> {
    proptest::collection::vec(
        (0u64..4, any::<bool>(), 1u64..200).prop_map(|(lock, exclusive, duration)| Scripted {
            lock,
            exclusive,
            duration,
        }),
        1..40,
    )
}

fn split(ops: &[Scripted], threads: usize) -> ScriptSource {
    let mut per_thread: Vec<VecDeque<Scripted>> = (0..threads).map(|_| VecDeque::new()).collect();
    for (i, op) in ops.iter().enumerate() {
        per_thread[i % threads].push_back(op.clone());
    }
    ScriptSource { per_thread }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every submitted operation completes, exactly once.
    #[test]
    fn all_operations_complete(ops in script_strategy(), threads in 1usize..6) {
        let r = run_des(threads, &mut split(&ops, threads));
        prop_assert_eq!(r.total_ops, ops.len() as u64);
        prop_assert_eq!(r.per_thread_ops.iter().sum::<u64>(), ops.len() as u64);
    }

    /// The makespan is bounded below by the longest single operation and
    /// above by fully serial execution.
    #[test]
    fn makespan_bounds(ops in script_strategy(), threads in 1usize..6) {
        let r = run_des(threads, &mut split(&ops, threads));
        let serial: u64 = ops.iter().map(|o| o.duration).sum();
        let longest: u64 = ops.iter().map(|o| o.duration).max().unwrap_or(0);
        prop_assert!(r.makespan_ns >= longest);
        prop_assert!(r.makespan_ns <= serial, "{} > serial {}", r.makespan_ns, serial);
    }

    /// One thread is exactly serial.
    #[test]
    fn single_thread_is_serial(ops in script_strategy()) {
        let r = run_des(1, &mut split(&ops, 1));
        let serial: u64 = ops.iter().map(|o| o.duration).sum();
        prop_assert_eq!(r.makespan_ns, serial);
    }

    /// Exclusive contention on one lock serializes regardless of threads.
    #[test]
    fn exclusive_single_lock_serializes(durations in proptest::collection::vec(1u64..100, 1..30), threads in 1usize..6) {
        let ops: Vec<Scripted> = durations
            .iter()
            .map(|&d| Scripted { lock: 0, exclusive: true, duration: d })
            .collect();
        let r = run_des(threads, &mut split(&ops, threads));
        prop_assert_eq!(r.makespan_ns, durations.iter().sum::<u64>());
    }

    /// Runs are deterministic: same script, same result.
    #[test]
    fn deterministic(ops in script_strategy(), threads in 1usize..6) {
        let a = run_des(threads, &mut split(&ops, threads));
        let b = run_des(threads, &mut split(&ops, threads));
        prop_assert_eq!(a, b);
    }

    /// Threads with disjoint exclusive locks overlap perfectly when load is
    /// balanced.
    #[test]
    fn disjoint_locks_overlap(durations in proptest::collection::vec(1u64..100, 1..24)) {
        let threads = 3usize;
        // Give thread t ops on its own private lock (id = 100 + t).
        let mut per_thread: Vec<VecDeque<Scripted>> = (0..threads).map(|_| VecDeque::new()).collect();
        for (i, &d) in durations.iter().enumerate() {
            let t = i % threads;
            per_thread[t].push_back(Scripted { lock: 100 + t as u64, exclusive: true, duration: d });
        }
        let per_thread_work: Vec<u64> = per_thread
            .iter()
            .map(|q| q.iter().map(|o| o.duration).sum())
            .collect();
        let r = run_des(threads, &mut ScriptSource { per_thread });
        prop_assert_eq!(r.makespan_ns, *per_thread_work.iter().max().unwrap());
    }
}
