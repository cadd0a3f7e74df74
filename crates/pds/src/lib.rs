//! Persistent data structures over the Clobber-NVM runtime.
//!
//! The four benchmark structures of the paper's §5.2 — [`BpTree`] (32-byte
//! keys, per-leaf locks), [`HashMap`] (256 rwlock buckets), [`SkipList`]
//! (32 levels, global lock), [`RbTree`] (global rwlock) — plus the
//! [`AvlTree`] used by vacation's data-structure swap (§5.7). All
//! operations are registered txfuncs, so every structure is failure-atomic
//! under any [`clobber_nvm::Backend`] and recoverable by re-execution
//! under the clobber backend.
//!
//! Each structure also owns its locking scheme: a `lock_for`/`locks_for`
//! method computes the lock set of one operation, which its own `*_sync`
//! methods run under and which the benchmark harness and the KV server
//! feed to the discrete-event executor.
//!
//! Each structure ships a `dump` checker that validates its full structural
//! invariants by reading the pool directly — the oracle the crash tests and
//! property tests compare against.

#![warn(missing_docs)]

pub mod avltree;
pub mod bptree;
pub mod hashmap;
pub mod rbtree;
pub mod skiplist;
pub mod value;
pub mod workload;

pub use avltree::AvlTree;
pub use bptree::BpTree;
pub use hashmap::HashMap;
pub use rbtree::RbTree;
pub use skiplist::SkipList;
pub use workload::ExploreWorkload;

use clobber_nvm::LockRequest;

/// `lock` in the mode an operation needs: exclusive for a write, shared
/// for a read (the paper's reader-writer locks, §5.2).
pub(crate) fn rw_lock(lock: u64, write: bool) -> LockRequest {
    if write {
        LockRequest::exclusive(lock)
    } else {
        LockRequest::shared(lock)
    }
}
