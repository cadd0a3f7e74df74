//! Bounded model checking over persist-event schedules.
//!
//! PRs 2–7 verify crash consistency by sweeping *recorded* schedules: one
//! op order, every crash point. The [`Explorer`] searches the *schedule
//! space* instead. Starting from a seed [`Schedule`] it enumerates every
//! interleaving of the per-slot op lanes (the orders a real scheduler
//! could produce, since ops on one logical slot stay program-ordered),
//! prunes interleavings that provably commute with an already-explored one
//! (DPOR-style sleep sets keyed on the persist-address footprints that
//! [`tx_footprints`] extracts from a traced baseline run), and executes
//! every surviving candidate under the full crash-sweep invariant battery:
//!
//! 1. a clean run — workload invariant + [`check_heap`] must hold;
//! 2. a [`FaultPlan::crash_at`] trip planted at every explored persist
//!    prefix (the adversarial crash-timing model of *Delay-Free
//!    Concurrency on Faulty Persistent Memory*), followed by an
//!    adversarial [`CrashConfig::drop_all`] power failure, recovery,
//!    workload invariant, heap walk, recovery idempotence (a second
//!    recovery must be clean), and recovery *byte parity* (two
//!    independent recoveries of the same crashed media must produce
//!    byte-identical pools).
//!
//! Any violation funnels straight into [`minimize_schedule`], so the
//! explorer's output for a failure is a locally minimal culprit op list,
//! not a 3-thread interleaving dump.
//!
//! # Mutation operators and their boundaries
//!
//! * **Commutable-op reordering.** The interleaving enumeration reorders
//!   whole transactions across slots. Transaction boundaries *are* the
//!   group-commit-epoch boundaries (each commit closes an epoch), so this
//!   is reordering at epoch granularity.
//! * **Crash-prefix planting.** Within one interleaving, every persist
//!   event — i.e. every acquisition of the pool's fault mutex, which is
//!   taken under the shard locks' canonical order — is a preemption point
//!   for the crash adversary: `crash_at(k)` for each explored prefix `k`.
//! * **Bounded preemption.** [`ExploreOptions::preemption_bound`] caps
//!   how many times the enumeration may switch away from a slot that
//!   still has ops to run (CHESS-style iterative context bounding):
//!   bound 0 explores only run-to-completion orders, each increment adds
//!   interleavings with one more involuntary switch.
//!
//! # Pruning soundness
//!
//! Two transactions conflict when their persisted address ranges overlap,
//! when both use the allocator (reordering changes block placement), or
//! always, under [`ConflictPolicy::no_pruning`]. Swapping two *adjacent
//! non-conflicting* transactions cannot change any durable byte, so a
//! sleep set — ops whose exploration from this node is already covered by
//! an earlier sibling branch — soundly skips the swapped twin. The caveat
//! (pure reads are invisible to persist traces) is documented on
//! [`ConflictPolicy`]; workloads with read-only control dependences
//! should pass `no_pruning`.
//!
//! # Determinism, budget, and resume
//!
//! The enumeration order is a deterministic DFS (lanes in ascending slot
//! order), every derived crash seed is a pure function of
//! ([`ExploreOptions::seed`], candidate index, crash point), and every
//! candidate runs on a fresh pool with slots pre-created in canonical
//! order — so the same seed + budget yields the identical explored list,
//! outcome hashes, and `exp_*` counters at every pool shard count. A run
//! that exhausts [`ExploreOptions::max_schedules`] (or stops at
//! [`ExploreOptions::max_failures`]) reports the decision-vector
//! [`ExploreReport::frontier`] of its last executed candidate; passing it
//! back via [`ExploreOptions::resume_after`] seeks the DFS past every
//! already-explored subtree — replaying sleep-set bookkeeping along the
//! seek path without re-executing or re-counting — so a split run's
//! combined counters equal an uninterrupted run's exactly.
//!
//! [`check_heap`]: clobber_pmem::PmemPool::check_heap
//! [`FaultPlan::crash_at`]: clobber_pmem::FaultPlan::crash_at
//! [`CrashConfig::drop_all`]: clobber_pmem::CrashConfig::drop_all
//! [`tx_footprints`]: clobber_trace::tx_footprints
//! [`ConflictPolicy`]: clobber_trace::ConflictPolicy
//! [`ConflictPolicy::no_pruning`]: clobber_trace::ConflictPolicy::no_pruning

use std::sync::atomic::Ordering;
use std::sync::Arc;

use clobber_pmem::{CrashConfig, FaultPlan, PmemPool, PmemStats, Tracer};
use clobber_trace::{tx_footprints, ConflictPolicy};

use crate::recovery::RecoveryOptions;
use crate::replay::{minimize_schedule, Schedule};
use crate::runtime::Runtime;

/// Budget, adversary, and pruning knobs for one exploration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Maximum number of candidate schedules to *execute* (pruned
    /// subtrees are free). Exhausting the budget stops the run with a
    /// resumable [`ExploreReport::frontier`].
    pub max_schedules: u64,
    /// Plant a crash at every `crash_stride`-th persist event of each
    /// candidate (1 = every event).
    pub crash_stride: u64,
    /// Cap on crash points planted per candidate schedule.
    pub max_crash_points: u64,
    /// CHESS-style preemption bound: how many times the enumeration may
    /// switch away from a slot that still has runnable ops.
    /// `u32::MAX` = unbounded (full interleaving enumeration).
    pub preemption_bound: u32,
    /// What counts as a conflict for sleep-set pruning.
    pub policy: ConflictPolicy,
    /// Root seed for the per-crash-point [`CrashConfig::drop_all`] draws.
    ///
    /// [`CrashConfig::drop_all`]: clobber_pmem::CrashConfig::drop_all
    pub seed: u64,
    /// Stop after this many failures have been minimized (minimization
    /// replays many candidates; 1 keeps a failing exploration cheap).
    pub max_failures: usize,
    /// Resume frontier from a previous run's [`ExploreReport::frontier`]:
    /// skip (without re-executing or re-counting) every candidate up to
    /// and including this decision vector.
    pub resume_after: Option<Vec<u8>>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_schedules: 256,
            crash_stride: 1,
            max_crash_points: u64::MAX,
            preemption_bound: u32::MAX,
            policy: ConflictPolicy::sound(),
            seed: 0,
            max_failures: 1,
            resume_after: None,
        }
    }
}

impl ExploreOptions {
    /// Sets the executed-schedule budget.
    pub fn with_budget(mut self, max_schedules: u64) -> Self {
        self.max_schedules = max_schedules;
        self
    }

    /// Sets the crash-point stride.
    pub fn with_crash_stride(mut self, stride: u64) -> Self {
        self.crash_stride = stride.max(1);
        self
    }

    /// Caps crash points planted per candidate.
    pub fn with_max_crash_points(mut self, cap: u64) -> Self {
        self.max_crash_points = cap;
        self
    }

    /// Sets the preemption bound.
    pub fn with_preemption_bound(mut self, bound: u32) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Sets the conflict policy used for pruning.
    pub fn with_policy(mut self, policy: ConflictPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the root crash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the failure cap.
    pub fn with_max_failures(mut self, cap: usize) -> Self {
        self.max_failures = cap;
        self
    }

    /// Sets the resume frontier.
    pub fn resume_after(mut self, frontier: Vec<u8>) -> Self {
        self.resume_after = Some(frontier);
        self
    }
}

/// Factory building a fresh pool + runtime with all txfuncs registered
/// and the workload's roots initialised. Must be deterministic.
pub type BuildFn<'a> = Box<dyn Fn() -> (Arc<PmemPool>, Runtime) + 'a>;

/// Factory reopening a crashed media image as a pool + runtime ready for
/// `recover_with` (txfuncs registered, nothing else run).
pub type ReopenFn<'a> = Box<dyn Fn(Vec<u8>) -> (Arc<PmemPool>, Runtime) + 'a>;

/// Workload invariant check; `Err(reason)` marks the candidate as a
/// failure (e.g. counter conservation, committed-prefix shape).
pub type CheckFn<'a> = Box<dyn Fn(&PmemPool, &Runtime) -> Result<(), String> + 'a>;

/// How the explorer builds, reopens, and checks pools. The explorer owns
/// no workload knowledge: callers supply the factory closures the crash
/// sweeps already use.
pub struct ExploreSession<'a> {
    /// Builds the state every candidate starts from.
    pub build: BuildFn<'a>,
    /// Reopens a crashed media image for recovery.
    pub reopen: ReopenFn<'a>,
    /// The workload invariant.
    pub check: CheckFn<'a>,
}

/// Why an exploration could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The traced baseline replay of the seed schedule went wrong
    /// (slot pre-creation failed, trace overflowed, or the trace's
    /// `TxBegin` count disagrees with the seed's op count).
    Baseline(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Baseline(s) => write!(f, "explore baseline: {s}"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// One invariant violation the explorer found.
#[derive(Debug, Clone)]
pub struct ExploreFailure {
    /// The full candidate schedule that failed.
    pub schedule: Schedule,
    /// The persist event the planted crash tripped at, or `None` if the
    /// clean (crash-free) run already violated an invariant.
    pub crash_at: Option<u64>,
    /// Human-readable description of the violated invariant.
    pub reason: String,
    /// The ddmin-minimized culprit schedule (still failing).
    pub minimized: Schedule,
}

/// What one [`Explorer::run`] did.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Candidate schedules executed under the invariant battery.
    pub schedules_run: u64,
    /// Subtrees skipped (sleep-set hits + preemption-bound rejections).
    pub schedules_pruned: u64,
    /// Crash trips planted across all executed candidates.
    pub crashes_planted: u64,
    /// Invariant violations found, each with its minimized culprit list.
    pub failures: Vec<ExploreFailure>,
    /// Every executed candidate, in deterministic DFS order.
    pub explored: Vec<Schedule>,
    /// FNV-1a hash of each executed candidate's clean-run durable media,
    /// index-aligned with [`explored`](Self::explored). Disjoint-range
    /// reorderings that were *not* pruned can be checked to land on the
    /// same outcome hash — the commutativity fact pruning relies on.
    pub outcomes: Vec<u64>,
    /// Decision vector of the last executed candidate when the run
    /// stopped early; feed to [`ExploreOptions::resume_after`] to
    /// continue. `None` when the enumeration completed (or nothing ran).
    pub frontier: Option<Vec<u8>>,
    /// `true` if the enumeration visited every non-pruned interleaving
    /// within the budget (no early stop).
    pub complete: bool,
}

/// A bounded model checker over persist-event schedules. See the module
/// docs for the exploration model.
pub struct Explorer<'a> {
    session: ExploreSession<'a>,
    seed_schedule: Schedule,
    opts: ExploreOptions,
    stats: Arc<PmemStats>,
    /// Highest slot index any seed op touches; every fresh pool
    /// pre-creates slots `0..=max_slot` so the v_log slot chain (and
    /// therefore durable media) is identical across interleavings that
    /// first-touch slots in different orders.
    max_slot: Option<usize>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer over `seed`'s per-slot op lanes.
    pub fn new(session: ExploreSession<'a>, seed: Schedule, opts: ExploreOptions) -> Explorer<'a> {
        let max_slot = seed.ops.iter().map(|op| op.slot).max();
        Explorer {
            session,
            seed_schedule: seed,
            opts,
            stats: Arc::new(PmemStats::new()),
            max_slot,
        }
    }

    /// The explorer's own counter bank: `exp_schedules`, `exp_pruned`,
    /// `exp_crashes_planted`, `exp_failures_minimized` accumulate here
    /// (snapshot via [`PmemStats::snapshot`]).
    pub fn stats(&self) -> &Arc<PmemStats> {
        &self.stats
    }

    /// Runs the exploration to completion, budget exhaustion, or the
    /// failure cap, whichever comes first.
    pub fn run(&self) -> Result<ExploreReport, ExploreError> {
        let conflicts = self.conflict_matrix()?;
        // Per-slot op lanes in ascending slot order: ops on one logical
        // slot stay program-ordered, so an interleaving is a merge of
        // the lanes.
        let mut slots: Vec<usize> = self.seed_schedule.ops.iter().map(|op| op.slot).collect();
        slots.sort_unstable();
        slots.dedup();
        let lanes: Vec<Vec<usize>> = slots
            .iter()
            .map(|&s| {
                self.seed_schedule
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| op.slot == s)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let total = self.seed_schedule.ops.len();
        let mut dfs = Dfs {
            ex: self,
            lanes,
            conflicts,
            total,
            report: ExploreReport::default(),
            last_executed: None,
            stop: false,
        };
        let mut next = vec![0usize; dfs.lanes.len()];
        let mut chosen: Vec<usize> = Vec::with_capacity(total);
        let mut decisions: Vec<u8> = Vec::with_capacity(total);
        let seek = self.opts.resume_after.is_some();
        dfs.node(
            &mut next,
            &mut chosen,
            &mut decisions,
            Vec::new(),
            None,
            0,
            seek,
        );
        let mut report = dfs.report;
        report.complete = !dfs.stop;
        if dfs.stop {
            report.frontier = dfs.last_executed;
        }
        Ok(report)
    }

    /// Pre-creates slots `0..=max_slot` so slot-chain media layout is
    /// canonical regardless of which slot a candidate touches first.
    fn prepare(&self, rt: &Runtime) -> Result<(), String> {
        if let Some(max) = self.max_slot {
            rt.slot_handle(max)
                .map_err(|e| format!("slot pre-create: {e}"))?;
        }
        Ok(())
    }

    /// Replays the seed schedule once under a tracer and turns the
    /// per-transaction persist footprints into an op × op conflict
    /// matrix.
    fn conflict_matrix(&self) -> Result<Vec<Vec<bool>>, ExploreError> {
        let n = self.seed_schedule.ops.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let (pool, rt) = (self.session.build)();
        self.prepare(&rt).map_err(ExploreError::Baseline)?;
        let tracer = Arc::new(Tracer::new());
        pool.set_tracer(Some(tracer.clone()));
        let _ = self.seed_schedule.replay(&rt);
        pool.set_tracer(None);
        let trace = tracer.take();
        if trace.dropped > 0 {
            return Err(ExploreError::Baseline(format!(
                "baseline trace dropped {} events",
                trace.dropped
            )));
        }
        let fps = tx_footprints(&trace);
        if fps.len() != n {
            return Err(ExploreError::Baseline(format!(
                "baseline trace has {} TxBegin events for {} seed ops",
                fps.len(),
                n
            )));
        }
        let mut matrix = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                matrix[i][j] = self
                    .opts
                    .policy
                    .conflicts(&fps[i].footprint, &fps[j].footprint);
            }
        }
        Ok(matrix)
    }

    /// Executes one candidate under the full invariant battery: clean
    /// run, then a crash trip at every `crash_stride`-th persist event
    /// with recovery + heap walk + workload check + idempotence + byte
    /// parity. Does not touch the explorer's counters (so minimization
    /// probes stay invisible to the golden-pinned `exp_*` values).
    fn run_candidate(&self, sched: &Schedule, candidate_index: u64) -> CandidateOutcome {
        let mut out = CandidateOutcome::default();
        // Clean run: count persist events, check invariants, hash media.
        let (pool, rt) = (self.session.build)();
        if let Err(reason) = self.prepare(&rt) {
            out.violation = Some((None, reason));
            return out;
        }
        pool.arm_faults(FaultPlan::count_only());
        let _ = sched.replay(&rt);
        let events = pool.disarm_faults();
        if let Err(e) = pool.check_heap() {
            out.violation = Some((None, format!("clean run: heap check failed: {e}")));
        } else if let Err(reason) = (self.session.check)(&pool, &rt) {
            out.violation = Some((None, format!("clean run: {reason}")));
        }
        out.outcome_hash = fnv64(&pool.media_snapshot());
        drop(rt);
        drop(pool);
        if out.violation.is_some() {
            return out;
        }
        // Crash sweep over every explored prefix.
        let stride = self.opts.crash_stride.max(1);
        let mut k = 0u64;
        while k < events && out.planted < self.opts.max_crash_points {
            out.planted += 1;
            if let Some(reason) = self.crash_point(sched, candidate_index, k) {
                out.violation = Some((Some(k), reason));
                return out;
            }
            k += stride;
        }
        out
    }

    /// One crash point of one candidate; `Some(reason)` on violation.
    fn crash_point(&self, sched: &Schedule, candidate_index: u64, k: u64) -> Option<String> {
        let (pool, rt) = (self.session.build)();
        if let Err(reason) = self.prepare(&rt) {
            return Some(reason);
        }
        pool.arm_faults(FaultPlan::crash_at(k));
        let replay = sched.replay(&rt);
        if replay.tripped_at != Some(k) {
            pool.disarm_faults();
            return Some(format!(
                "crash_at({k}) did not trip (tripped_at={:?})",
                replay.tripped_at
            ));
        }
        // Adversarial power failure: drop every un-fenced line.
        let crash_seed = mix(self.opts.seed, candidate_index, k);
        let media = match pool.crash(&CrashConfig::drop_all(crash_seed)) {
            Ok(dead) => dead.media_snapshot(),
            Err(e) => return Some(format!("crash_at({k}): crash draw failed: {e}")),
        };
        drop(rt);
        drop(pool);
        let ropts = RecoveryOptions::default().no_wait();
        // Recovery #1: invariants + idempotence.
        let (p1, r1) = (self.session.reopen)(media.clone());
        if let Err(e) = r1.recover_with(&ropts) {
            return Some(format!("crash_at({k}): recovery failed: {e}"));
        }
        if let Err(e) = p1.check_heap() {
            return Some(format!("crash_at({k}): heap check failed: {e}"));
        }
        if let Err(reason) = (self.session.check)(&p1, &r1) {
            return Some(format!("crash_at({k}): {reason}"));
        }
        match r1.recover_with(&ropts) {
            Ok(second) if second.is_clean() => {}
            Ok(_) => return Some(format!("crash_at({k}): second recovery was not clean")),
            Err(e) => return Some(format!("crash_at({k}): second recovery failed: {e}")),
        }
        let recovered = p1.media_snapshot();
        drop(r1);
        drop(p1);
        // Recovery #2 on the same crashed media: byte parity.
        let (p2, r2) = (self.session.reopen)(media);
        if let Err(e) = r2.recover_with(&ropts) {
            return Some(format!("crash_at({k}): parity recovery failed: {e}"));
        }
        if p2.media_snapshot() != recovered {
            return Some(format!(
                "crash_at({k}): two recoveries of the same media diverged"
            ));
        }
        None
    }
}

/// Result of running one candidate (no counters touched).
#[derive(Debug, Default)]
struct CandidateOutcome {
    /// Crash trips planted.
    planted: u64,
    /// FNV-1a hash of the clean run's durable media.
    outcome_hash: u64,
    /// `(crash point, reason)`; crash point `None` = clean run failed.
    violation: Option<(Option<u64>, String)>,
}

/// The DFS over interleavings: sleep-set pruning, preemption bounding,
/// frontier seek on resume.
struct Dfs<'s, 'a> {
    ex: &'s Explorer<'a>,
    /// Op ids per lane (lanes in ascending slot order).
    lanes: Vec<Vec<usize>>,
    /// `conflicts[i][j]` — seed ops i and j do not commute.
    conflicts: Vec<Vec<bool>>,
    total: usize,
    report: ExploreReport,
    /// Decision vector of the most recently executed candidate.
    last_executed: Option<Vec<u8>>,
    stop: bool,
}

impl Dfs<'_, '_> {
    /// Explores one enumeration node.
    ///
    /// `next[l]` is each lane's progress, `chosen`/`decisions` the path
    /// here (op ids / lane picks), `sleep` the op ids whose subtrees an
    /// earlier sibling already covers, `cur_lane`/`preemptions` the
    /// context-bound state. `seek` means the path so far equals the
    /// resume frontier's prefix: already-explored branches are replayed
    /// for their sleep-set effects but neither executed nor counted.
    #[allow(clippy::too_many_arguments)]
    fn node(
        &mut self,
        next: &mut Vec<usize>,
        chosen: &mut Vec<usize>,
        decisions: &mut Vec<u8>,
        sleep: Vec<usize>,
        cur_lane: Option<usize>,
        preemptions: u32,
        seek: bool,
    ) {
        if self.stop {
            return;
        }
        if chosen.len() == self.total {
            self.leaf(chosen, decisions, seek);
            return;
        }
        let depth = decisions.len();
        let frontier_pick = if seek {
            self.ex
                .opts
                .resume_after
                .as_ref()
                .and_then(|f| f.get(depth).copied())
        } else {
            None
        };
        // Ops already explored from this node (by earlier sibling
        // branches); independent ones go to sleep in later children.
        let mut done: Vec<usize> = Vec::new();
        for lane in 0..self.lanes.len() {
            if self.stop {
                break;
            }
            if next[lane] >= self.lanes[lane].len() {
                continue;
            }
            let op = self.lanes[lane][next[lane]];
            // Frontier seek: branches lexicographically before the
            // frontier pick were fully handled by the interrupted run —
            // mirror their sleep-set bookkeeping without counting.
            let (pre_frontier, on_frontier) = match frontier_pick {
                Some(pick) => ((lane as u8) < pick, (lane as u8) == pick),
                None => (false, false),
            };
            if sleep.contains(&op) {
                // Covered by an earlier branch: skip the whole subtree.
                if !pre_frontier {
                    self.report.schedules_pruned += 1;
                    self.ex.stats.exp_pruned.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            // Preemption bound: switching away from a lane that still
            // has runnable ops costs one preemption.
            let is_preemption = match cur_lane {
                Some(cl) => cl != lane && next[cl] < self.lanes[cl].len(),
                None => false,
            };
            let p = preemptions + u32::from(is_preemption);
            if p > self.ex.opts.preemption_bound {
                if !pre_frontier {
                    self.report.schedules_pruned += 1;
                    self.ex.stats.exp_pruned.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            if pre_frontier {
                // The interrupted run explored this branch to completion.
                done.push(op);
                continue;
            }
            let child_sleep: Vec<usize> = sleep
                .iter()
                .chain(done.iter())
                .copied()
                .filter(|&b| !self.conflicts[op][b])
                .collect();
            next[lane] += 1;
            chosen.push(op);
            decisions.push(lane as u8);
            self.node(
                next,
                chosen,
                decisions,
                child_sleep,
                Some(lane),
                p,
                on_frontier,
            );
            decisions.pop();
            chosen.pop();
            next[lane] -= 1;
            done.push(op);
        }
    }

    /// A complete interleaving: execute it (unless it is the frontier
    /// candidate itself, which the interrupted run already executed).
    ///
    /// The budget stop is *eager* — the run halts the moment its
    /// budget-th candidate finishes, before any further node is visited —
    /// so every prune event is counted by exactly one run of a
    /// stop/resume chain and split-run counter sums equal an
    /// uninterrupted run's.
    fn leaf(&mut self, chosen: &[usize], decisions: &[u8], seek: bool) {
        if seek {
            return;
        }
        if self.report.schedules_run >= self.ex.opts.max_schedules {
            // Only reachable with a zero budget (or a zero-budget resume):
            // a non-zero budget stops eagerly below instead.
            self.stop = true;
            return;
        }
        let sched = Schedule {
            ops: chosen
                .iter()
                .map(|&i| self.ex.seed_schedule.ops[i].clone())
                .collect(),
        };
        self.report.schedules_run += 1;
        self.ex.stats.exp_schedules.fetch_add(1, Ordering::Relaxed);
        self.last_executed = Some(decisions.to_vec());
        let out = self.ex.run_candidate(&sched, self.report.schedules_run);
        self.report.crashes_planted += out.planted;
        self.ex
            .stats
            .exp_crashes_planted
            .fetch_add(out.planted, Ordering::Relaxed);
        self.report.explored.push(sched.clone());
        self.report.outcomes.push(out.outcome_hash);
        if let Some((crash_at, reason)) = out.violation {
            let minimized = minimize_schedule(&sched, |cand| {
                self.ex.run_candidate(cand, 0).violation.is_some()
            });
            self.ex
                .stats
                .exp_failures_minimized
                .fetch_add(1, Ordering::Relaxed);
            self.report.failures.push(ExploreFailure {
                schedule: sched,
                crash_at,
                reason,
                minimized,
            });
            if self.report.failures.len() >= self.ex.opts.max_failures {
                self.stop = true;
            }
        }
        if self.report.schedules_run >= self.ex.opts.max_schedules {
            self.stop = true;
        }
    }
}

/// FNV-1a, the same pocket hash the recovery checkpoints use.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic seed derivation: splitmix-style finalizer over
/// (root seed, candidate index, crash point).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in [a.wrapping_add(1), b.wrapping_add(1)] {
        h ^= v.wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(31);
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53) ^ (h >> 33);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn fnv_distinguishes_bytes() {
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn options_builders_compose() {
        let o = ExploreOptions::default()
            .with_budget(7)
            .with_crash_stride(0)
            .with_preemption_bound(2)
            .with_seed(9)
            .with_max_failures(3)
            .resume_after(vec![1, 0]);
        assert_eq!(o.max_schedules, 7);
        assert_eq!(o.crash_stride, 1, "stride clamps to at least 1");
        assert_eq!(o.preemption_bound, 2);
        assert_eq!(o.seed, 9);
        assert_eq!(o.max_failures, 3);
        assert_eq!(o.resume_after.as_deref(), Some(&[1u8, 0][..]));
    }
}
