//! Deterministic thread-scaling substrate for the Clobber-NVM reproduction.
//!
//! The paper's evaluation ran on a 2×24-core Optane testbed; the
//! reproduction host has 2 CPUs, far too few to show scaling to 24 threads
//! by wall clock, so multi-threaded throughput (Figs. 6 and 10) is
//! *modeled*: a discrete-event executor ([`des`]) over simulated
//! reader-writer locks (the lock types of `clobber_nvm`'s `LockManager`), and a persistence [`cost`] model that converts each
//! operation's counted flushes/fences/logged bytes into simulated time.
//! Operations still execute for real against the runtime — only *time* and
//! *concurrency* are simulated. See DESIGN.md for the substitution
//! rationale.

#![warn(missing_docs)]

pub mod cost;
pub mod des;

pub use cost::CostModel;
pub use des::{run_des, DesResult, OpSource, SimOp};
