//! Trace replay: re-driving a recorded schedule through a fresh runtime.
//!
//! A recorded [`Trace`] names every transaction dispatch as a `TxBegin`
//! event carrying the txfunc name, the logical slot index, and the
//! serialized arguments. [`Schedule::from_trace`] extracts that op list;
//! [`Schedule::replay`] re-runs it against a fresh, identically configured
//! runtime. Because the workload layer is deterministic given the op
//! sequence — and fault trip points count persist events, which the op
//! sequence fully determines on a single thread — replaying a schedule
//! under the same [`FaultPlan`](clobber_pmem::FaultPlan) reproduces a
//! crash-sweep failure point event-for-event: record both runs and
//! [`Trace::diff`] returns `None`.
//!
//! [`minimize_schedule`] wraps the generic [`ddmin`] delta-debugging
//! minimizer: given a predicate that replays a candidate schedule and
//! reports whether the failure still reproduces, it shrinks a failing
//! schedule to a locally minimal repro.

use clobber_pmem::{PmemError, Trace};
use clobber_trace::{ddmin, EventKind};

use crate::args::ArgList;
use crate::error::TxError;
use crate::runtime::Runtime;

/// One recorded transaction dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOp {
    /// Logical-thread slot index the op ran on.
    pub slot: usize,
    /// Registered txfunc name.
    pub name: String,
    /// The arguments it was invoked with.
    pub args: ArgList,
}

/// An ordered list of transaction dispatches extracted from a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// Ops in recorded dispatch order.
    pub ops: Vec<ScheduleOp>,
}

/// Why a trace could not be turned into a [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A `TxBegin` event's name id did not resolve (event index given).
    MissingName(usize),
    /// A `TxBegin` event's argument blob id did not resolve.
    MissingArgs(usize),
    /// A resolved argument blob failed to decode as an [`ArgList`].
    BadArgs(usize),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::MissingName(i) => write!(f, "TxBegin at event {i} has no name"),
            ScheduleError::MissingArgs(i) => write!(f, "TxBegin at event {i} has no args blob"),
            ScheduleError::BadArgs(i) => write!(f, "TxBegin at event {i}: args failed to decode"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Why a textual schedule (corpus `.sched` file) failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule text line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ScheduleParseError {}

/// What [`Schedule::replay`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Ops dispatched (including the one that tripped, if any).
    pub ops_run: usize,
    /// Ops that aborted with a non-crash error.
    pub aborted: usize,
    /// The persist event at which an injected crash tripped, if one did.
    /// Replay stops there — the pool is dead, exactly like the recorded run.
    pub tripped_at: Option<u64>,
}

impl Schedule {
    /// Extracts the dispatch schedule from a recorded trace: one op per
    /// `TxBegin` event, in trace order.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if a `TxBegin` event's name or argument
    /// blob fails to resolve — which indicates a truncated or foreign
    /// trace, not a recording bug.
    pub fn from_trace(trace: &Trace) -> Result<Schedule, ScheduleError> {
        let mut ops = Vec::new();
        for (i, e) in trace.events.iter().enumerate() {
            if e.kind != EventKind::TxBegin {
                continue;
            }
            let name = trace.name(e.name).ok_or(ScheduleError::MissingName(i))?;
            let blob = trace
                .blob(e.b as u32)
                .ok_or(ScheduleError::MissingArgs(i))?;
            let args = ArgList::from_bytes(blob).map_err(|_| ScheduleError::BadArgs(i))?;
            ops.push(ScheduleOp {
                slot: e.a as usize,
                name: name.to_string(),
                args,
            });
        }
        Ok(Schedule { ops })
    }

    /// Number of ops in the schedule.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the schedule holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Renders the schedule in the portable corpus text format: one
    /// `op <slot> <name> <hex-args>` line per op (`-` for empty args),
    /// `#`-prefixed lines and blank lines are comments.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let bytes = op.args.to_bytes();
            let args = if bytes.is_empty() {
                "-".to_string()
            } else {
                let mut s = String::with_capacity(bytes.len() * 2);
                for b in bytes {
                    s.push_str(&format!("{b:02x}"));
                }
                s
            };
            out.push_str(&format!("op {} {} {}\n", op.slot, op.name, args));
        }
        out
    }

    /// Parses the corpus text format produced by [`to_text`](Self::to_text).
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleParseError`] naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Schedule, ScheduleParseError> {
        let mut ops = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason: String| ScheduleParseError {
                line: i + 1,
                reason,
            };
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some("op") => {}
                Some(other) => return Err(err(format!("unknown directive {other:?}"))),
                None => unreachable!("blank lines are skipped"),
            }
            let slot: usize = fields
                .next()
                .ok_or_else(|| err("missing slot".into()))?
                .parse()
                .map_err(|e| err(format!("bad slot: {e}")))?;
            let name = fields
                .next()
                .ok_or_else(|| err("missing txfunc name".into()))?
                .to_string();
            let hex = fields.next().ok_or_else(|| err("missing args".into()))?;
            if fields.next().is_some() {
                return Err(err("trailing fields".into()));
            }
            let bytes = if hex == "-" {
                Vec::new()
            } else {
                if hex.len() % 2 != 0 {
                    return Err(err("odd-length hex args".into()));
                }
                let mut v = Vec::with_capacity(hex.len() / 2);
                for pair in hex.as_bytes().chunks(2) {
                    let s = std::str::from_utf8(pair).map_err(|_| err("non-ascii hex".into()))?;
                    v.push(u8::from_str_radix(s, 16).map_err(|e| err(format!("bad hex: {e}")))?);
                }
                v
            };
            let args =
                ArgList::from_bytes(&bytes).map_err(|e| err(format!("args decode: {e:?}")))?;
            ops.push(ScheduleOp { slot, name, args });
        }
        Ok(Schedule { ops })
    }

    /// Re-drives the schedule through `rt` in recorded order.
    ///
    /// Transaction aborts are part of a schedule's behaviour and are
    /// counted, not propagated. An injected crash stops the replay — the
    /// pool is dead and every later op would refuse anyway, which is also
    /// why stopping keeps the replayed trace identical to the recorded
    /// one. The trip is detected via [`PmemPool::fault_tripped`] rather
    /// than by matching the returned error, because a crash mid-commit can
    /// surface wrapped in abort-path errors (and a trip on a trailing
    /// fence can even leave the transaction completing `Ok`).
    ///
    /// [`PmemPool::fault_tripped`]: clobber_pmem::PmemPool::fault_tripped
    pub fn replay(&self, rt: &Runtime) -> ReplayReport {
        let mut report = ReplayReport::default();
        for op in &self.ops {
            report.ops_run += 1;
            let outcome = rt.run_on(op.slot, &[], &op.name, &op.args);
            if let Some(event) = rt.pool().fault_tripped() {
                report.tripped_at = Some(event);
                break;
            }
            match outcome {
                Ok(_) => {}
                Err(TxError::Pmem(PmemError::InjectedCrash { event })) => {
                    // Unarmed-plan safety net: a dead pool without an armed
                    // plan still reports the trip index through the error.
                    report.tripped_at = Some(event);
                    break;
                }
                Err(_) => report.aborted += 1,
            }
        }
        report
    }
}

/// Shrinks a failing schedule to a locally minimal one that still fails,
/// preserving op order. `fails` must be deterministic: typically it builds
/// a fresh pool + runtime, arms the fault plan under investigation, replays
/// the candidate, and reports whether the failure reproduced.
pub fn minimize_schedule(
    schedule: &Schedule,
    mut fails: impl FnMut(&Schedule) -> bool,
) -> Schedule {
    let ops = ddmin(&schedule.ops, |candidate| {
        fails(&Schedule {
            ops: candidate.to_vec(),
        })
    });
    Schedule { ops }
}
