//! A memcached-like persistent key-value server.
//!
//! The paper ports memcached v1.2.5 to Clobber-NVM and PMDK and drives it
//! with memslap (§5.6). This server reproduces the persistent data path:
//! the item table is the 256-bucket persistent hash map, each request is
//! one failure-atomic transaction, and — like the paper's modified
//! memcached — the coarse original lock can be swapped for a spinlock or
//! reader-writer lock scheme ("spinlock works better for insert-intensive
//! workloads, and reader-writer lock provides better scalability for
//! search-intensive workloads").

use clobber_nvm::{LockRequest, Runtime, TxError};
use clobber_sim::SimOp;
use clobber_workloads::{Mix, Request, RequestStream};

use clobber_pds::hashmap::HashMap;

/// Lock scheme for the request path (paper §5.6's scalability fix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockScheme {
    /// One exclusive lock for the whole table (original memcached — the
    /// notorious coarse-grain lock).
    GlobalExclusive,
    /// One exclusive (spin) lock per bucket.
    BucketSpin,
    /// One reader-writer lock per bucket: gets share, sets exclude.
    BucketRw,
}

impl LockScheme {
    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            LockScheme::GlobalExclusive => "global",
            LockScheme::BucketSpin => "spinlock",
            LockScheme::BucketRw => "rwlock",
        }
    }
}

/// The persistent KV server.
#[derive(Debug, Clone, Copy)]
pub struct KvServer {
    table: HashMap,
    scheme: LockScheme,
}

impl KvServer {
    /// Creates a fresh server state in the runtime's pool.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    pub fn create(rt: &Runtime, scheme: LockScheme) -> Result<KvServer, TxError> {
        HashMap::register(rt);
        let table = HashMap::create(rt)?;
        rt.set_app_root(table.root())?;
        Ok(KvServer { table, scheme })
    }

    /// Reopens server state after a restart; call after
    /// [`KvServer::register`] and `Runtime::recover`.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the app root is unreadable.
    pub fn open(rt: &Runtime, scheme: LockScheme) -> Result<KvServer, TxError> {
        Ok(KvServer {
            table: HashMap::open(rt.app_root()?),
            scheme,
        })
    }

    /// Registers the server's txfuncs (the hash map's).
    pub fn register(rt: &Runtime) {
        HashMap::register(rt);
    }

    /// The backing table.
    pub fn table(&self) -> &HashMap {
        &self.table
    }

    /// Handles one request on the calling thread's slot.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn handle(&self, rt: &Runtime, req: &Request) -> Result<Option<Vec<u8>>, TxError> {
        match req {
            Request::Set { key, value } => {
                self.table.insert(rt, key_id(key), value)?;
                Ok(None)
            }
            Request::Get { key } => self.table.get(rt, key_id(key)),
        }
    }

    /// Handles one request on an explicit logical-thread slot.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn handle_on(
        &self,
        rt: &Runtime,
        slot: usize,
        req: &Request,
    ) -> Result<Option<Vec<u8>>, TxError> {
        match req {
            Request::Set { key, value } => {
                self.table.insert_on(rt, slot, key_id(key), value)?;
                Ok(None)
            }
            Request::Get { key } => self.table.get_on(rt, slot, key_id(key)),
        }
    }

    /// The lock set for `req` under the configured scheme, built from the
    /// table's own locks.
    pub fn locks_for(&self, req: &Request) -> Vec<LockRequest> {
        let key = key_id(req.key());
        let is_set = matches!(req, Request::Set { .. });
        vec![match self.scheme {
            LockScheme::GlobalExclusive => self.table.table_lock(),
            LockScheme::BucketSpin => self.table.lock_for(key, true),
            LockScheme::BucketRw => self.table.lock_for(key, is_set),
        }]
    }
}

/// Collapses a key's bytes to the table's `u64` key id (the workload
/// generator embeds the id in the first 8 bytes; shorter keys are
/// zero-extended so arbitrary client keys stay valid). Inlined across
/// crates: the service's batch path calls it once per request.
#[inline]
pub fn key_id(key: &[u8]) -> u64 {
    let mut id = [0u8; 8];
    let n = key.len().min(8);
    id[..n].copy_from_slice(&key[..n]);
    u64::from_le_bytes(id)
}

/// Builds a [`clobber_sim::OpSource`] over per-thread memslap request
/// streams for the throughput experiments (Fig. 10).
pub struct KvOpSource {
    server: KvServer,
    rt: std::sync::Arc<Runtime>,
    streams: Vec<RequestStream>,
    cost: clobber_sim::CostModel,
}

impl KvOpSource {
    /// One stream per logical thread, `ops_per_thread` requests each.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        server: KvServer,
        rt: std::sync::Arc<Runtime>,
        threads: usize,
        mix: Mix,
        ops_per_thread: u64,
        key_space: u64,
        seed: u64,
        cost: clobber_sim::CostModel,
    ) -> Self {
        let streams = (0..threads)
            .map(|t| RequestStream::new(mix, ops_per_thread, key_space, seed + t as u64))
            .collect();
        KvOpSource {
            server,
            rt,
            streams,
            cost,
        }
    }
}

impl clobber_sim::OpSource for KvOpSource {
    fn next_op(&mut self, thread: usize) -> Option<SimOp> {
        let req = self.streams[thread].next()?;
        let locks = self.server.locks_for(&req);
        let server = self.server;
        let rt = self.rt.clone();
        let cost = self.cost;
        Some(SimOp {
            locks,
            execute: Box::new(move || {
                let before = rt.pool().stats().snapshot();
                server.handle_on(&rt, thread, &req).expect("kv op");
                let delta = rt.pool().stats().snapshot().delta(&before);
                cost.op_cost(&delta)
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_nvm::{Backend, RuntimeOptions};
    use clobber_pds::hashmap;
    use clobber_pmem::{PmemPool, PoolOptions};
    use std::sync::Arc;

    fn setup(backend: Backend) -> (Arc<PmemPool>, Runtime, KvServer) {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        let srv = KvServer::create(&rt, LockScheme::BucketRw).unwrap();
        (pool, rt, srv)
    }

    #[test]
    fn set_then_get_round_trips() {
        let (_p, rt, srv) = setup(Backend::clobber());
        let key = RequestStream::key_bytes(42);
        let value = RequestStream::value_bytes(42);
        srv.handle(
            &rt,
            &Request::Set {
                key: key.clone(),
                value: value.clone(),
            },
        )
        .unwrap();
        let got = srv.handle(&rt, &Request::Get { key }).unwrap();
        assert_eq!(got, Some(value));
    }

    /// Keys shorter than the 8-byte id are zero-extended, not sliced past
    /// their end.
    #[test]
    fn short_keys_round_trip() {
        let (_p, rt, srv) = setup(Backend::clobber());
        let key = b"abc".to_vec();
        srv.handle(
            &rt,
            &Request::Set {
                key: key.clone(),
                value: b"short".to_vec(),
            },
        )
        .unwrap();
        assert_eq!(
            srv.handle(&rt, &Request::Get { key }).unwrap(),
            Some(b"short".to_vec())
        );
    }

    #[test]
    fn get_of_absent_key_is_none() {
        let (_p, rt, srv) = setup(Backend::clobber());
        let got = srv
            .handle(
                &rt,
                &Request::Get {
                    key: RequestStream::key_bytes(7),
                },
            )
            .unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn serves_a_full_memslap_stream() {
        for backend in [Backend::clobber(), Backend::Undo, Backend::Redo] {
            let (_p, rt, srv) = setup(backend);
            let mut last_set = std::collections::HashMap::new();
            for req in RequestStream::new(Mix::InsertMost, 500, 100, 1) {
                if let Request::Set { key, value } = &req {
                    last_set.insert(key.clone(), value.clone());
                }
                srv.handle(&rt, &req).unwrap();
            }
            for (key, value) in last_set {
                let got = srv.handle(&rt, &Request::Get { key }).unwrap();
                assert_eq!(got, Some(value), "backend {}", backend.label());
            }
        }
    }

    #[test]
    fn lock_schemes_shape_the_lock_sets() {
        let (_p, rt, _) = setup(Backend::clobber());
        let set = Request::Set {
            key: RequestStream::key_bytes(1),
            value: vec![0; 64],
        };
        let get = Request::Get {
            key: RequestStream::key_bytes(2),
        };
        // Exact ids, derived from the table root: a bucket lock is
        // `root * 31 + bucket`, the table-wide lock `root * 97`.
        let root = rt.app_root().unwrap().offset();
        let bucket_lock = |key: u64| root.wrapping_mul(31) + bucket(key);
        let table_lock = root.wrapping_mul(97);
        assert_ne!(bucket_lock(1), bucket_lock(2), "keys 1 and 2 hash apart");

        let global = KvServer::open(&rt, LockScheme::GlobalExclusive).unwrap();
        assert_eq!(
            global.locks_for(&set),
            vec![LockRequest::exclusive(table_lock)]
        );
        assert_eq!(
            global.locks_for(&get),
            vec![LockRequest::exclusive(table_lock)]
        );
        let rw = KvServer::open(&rt, LockScheme::BucketRw).unwrap();
        assert_eq!(
            rw.locks_for(&set),
            vec![LockRequest::exclusive(bucket_lock(1))]
        );
        assert_eq!(
            rw.locks_for(&get),
            vec![LockRequest::shared(bucket_lock(2))]
        );
        let spin = KvServer::open(&rt, LockScheme::BucketSpin).unwrap();
        assert_eq!(
            spin.locks_for(&set),
            vec![LockRequest::exclusive(bucket_lock(1))]
        );
        assert_eq!(
            spin.locks_for(&get),
            vec![LockRequest::exclusive(bucket_lock(2))]
        );
        // The same key maps to the same bucket lock for sets and gets.
        let get1 = Request::Get {
            key: RequestStream::key_bytes(1),
        };
        assert_eq!(
            rw.locks_for(&get1),
            vec![LockRequest::shared(bucket_lock(1))]
        );
    }

    /// The hash map's bucket function, restated so the test pins ids
    /// independently of the code under test.
    fn bucket(key: u64) -> u64 {
        key.wrapping_mul(0xFF51_AFD7_ED55_8CCD) % hashmap::BUCKETS
    }

    #[test]
    fn bucket_count_matches_the_paper() {
        assert_eq!(hashmap::BUCKETS, 256);
    }
}
