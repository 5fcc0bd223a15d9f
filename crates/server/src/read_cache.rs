//! The encoded-response cache behind the hot v1 read routes.
//!
//! A dashboard reads the same settled evaluation many times for every time
//! it is written. Each cached route derives its body from documents whose
//! changes all advance one version — an evaluation's
//! ([`ChronosControl::evaluation_version`]) or the store's
//! ([`ChronosControl::state_version`]) — so the finished `200` body is kept
//! under the request's path and query and served again while that version
//! stands. The path names the route and the evaluation, and no cached body
//! depends on who asks, so path and query are the whole key.
//!
//! One entry per key: a newer version *replaces* the entry, so a live
//! evaluation rewrites its handful of entries and cannot churn the rest
//! out. Least-recently-used entries go first once [`BUDGET_BYTES`] is
//! exceeded. Errors are never cached.
//!
//! The same version, behind a per-router boot nonce, is the route's strong
//! `ETag`: `If-None-Match` with the current tag is answered `304` from the
//! version alone. Versions restart at 0 with the process, hence the nonce —
//! a tag handed out before a restart must never validate after it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use chronos_core::{ChronosControl, CoreResult};
use chronos_http::{Request, Response, ServerMetrics, Status};
use chronos_util::Id;
use parking_lot::Mutex;

/// Bytes of keys, content types and bodies the cache may hold. A settled
/// 540-job evaluation's eight dashboard bodies come to about half a
/// megabyte, so this keeps the dashboards of some sixteen such evaluations
/// hot for less memory than one of them costs in job documents.
pub(crate) const BUDGET_BYTES: usize = 8 * 1024 * 1024;

/// Which version validates a route's body.
pub(crate) enum Scope {
    /// Everything the body reads belongs to this evaluation.
    Evaluation(Id),
    /// The body reads across the store.
    State,
}

struct Entry {
    version: u64,
    content_type: Arc<str>,
    body: Arc<[u8]>,
    /// Key into `Lru::by_use`.
    used: u64,
}

#[derive(Default)]
struct Lru {
    entries: HashMap<Arc<str>, Entry>,
    /// Last-use tick → key, least recently used first.
    by_use: BTreeMap<u64, Arc<str>>,
    tick: u64,
    bytes: usize,
}

fn cost(key: &str, content_type: &str, body: &[u8]) -> usize {
    key.len() + content_type.len() + body.len()
}

impl Lru {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn get(&mut self, key: &str, version: u64) -> Option<(Arc<str>, Arc<[u8]>)> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(key).filter(|entry| entry.version == version)?;
        let key = self.by_use.remove(&entry.used).expect("every entry is in the use order");
        self.by_use.insert(tick, key);
        entry.used = tick;
        Some((Arc::clone(&entry.content_type), Arc::clone(&entry.body)))
    }

    fn remove(&mut self, key: &str) {
        if let Some(entry) = self.entries.remove(key) {
            self.by_use.remove(&entry.used);
            self.bytes -= cost(key, &entry.content_type, &entry.body);
        }
    }

    fn put(&mut self, key: &str, version: u64, content_type: &str, body: &[u8]) {
        let size = cost(key, content_type, body);
        if size > BUDGET_BYTES {
            return; // served uncached rather than emptying the cache for it
        }
        if self.entries.get(key).is_some_and(|held| held.version > version) {
            return; // a slower reader must not replace a newer body
        }
        self.remove(key);
        while self.bytes + size > BUDGET_BYTES {
            let oldest = self.by_use.values().next().cloned().expect("bytes held, so entries");
            self.remove(&oldest);
        }
        let used = self.next_tick();
        let key: Arc<str> = key.into();
        self.by_use.insert(used, Arc::clone(&key));
        self.entries.insert(
            key,
            Entry { version, content_type: content_type.into(), body: body.into(), used },
        );
        self.bytes += size;
    }
}

/// The cached read path: versions from the control, bodies from the cache.
pub(crate) struct CachedReads {
    control: Arc<ChronosControl>,
    metrics: Arc<ServerMetrics>,
    /// Leads every `ETag` this router hands out.
    nonce: String,
    lru: Mutex<Lru>,
}

impl CachedReads {
    pub(crate) fn new(control: Arc<ChronosControl>, metrics: Arc<ServerMetrics>) -> Self {
        CachedReads {
            control,
            metrics,
            nonce: Id::generate().to_base32(),
            lru: Mutex::new(Lru::default()),
        }
    }

    /// Answers a cached route: `304` when the request's `If-None-Match`
    /// names the current version, the held body when there is one for it,
    /// else `compute`'s — kept if it is a `200`. The caller has already
    /// authenticated the request and checked its deadline.
    pub(crate) fn serve(
        &self,
        req: &Request,
        scope: Scope,
        compute: impl FnOnce() -> CoreResult<Response>,
    ) -> CoreResult<Response> {
        // Reader ordering rule: the version is loaded before any state is
        // read, and both the cache entry and the ETag carry this pre-read
        // value. Writers bump after their last mutation, so a body computed
        // across a concurrent write is at worst tagged too old and
        // recomputed by the next reader — never served stale.
        let (version, tag) = match scope {
            Scope::Evaluation(id) => {
                let version = self.control.evaluation_version(id);
                (version, format!("\"{}-e{}-{version}\"", self.nonce, id.to_base32()))
            }
            Scope::State => {
                let version = self.control.state_version();
                (version, format!("\"{}-s-{version}\"", self.nonce))
            }
        };
        let tagged = |mut response: Response| {
            response.headers.set("ETag", tag.as_str());
            response
        };
        let presented = req.headers.get("If-None-Match").unwrap_or("");
        if presented.split(',').any(|candidate| candidate.trim() == tag) {
            self.metrics.not_modified.inc();
            return Ok(tagged(Response::status(Status::NOT_MODIFIED)));
        }
        let key = format!("{}?{}", req.path, req.query);
        // The body is copied out after the lock is released.
        let held = self.lru.lock().get(&key, version);
        if let Some((content_type, body)) = held {
            self.metrics.read_cache_hits.inc();
            return Ok(tagged(Response::bytes(Status::OK, &content_type, body.to_vec())));
        }
        self.metrics.read_cache_misses.inc();
        let response = compute()?;
        if response.status != Status::OK {
            return Ok(response);
        }
        let content_type = response.headers.get("Content-Type").unwrap_or("");
        self.lru.lock().put(&key, version, content_type, &response.body);
        Ok(tagged(response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(lru: &Lru) -> usize {
        lru.entries.iter().map(|(key, e)| cost(key, &e.content_type, &e.body)).sum()
    }

    #[test]
    fn one_entry_per_key_however_often_its_version_moves() {
        let mut lru = Lru::default();
        for version in 0..1_000u64 {
            lru.put("/summary?", version, "application/json", &version.to_le_bytes());
            assert!(lru.get("/summary?", version).is_some());
            assert!(lru.get("/summary?", version + 1).is_none(), "another version is a miss");
            assert_eq!((lru.entries.len(), lru.by_use.len()), (1, 1));
        }
        // A reader that computed from an older version does not replace it.
        lru.put("/summary?", 5, "application/json", b"old");
        assert_eq!(&*lru.get("/summary?", 999).unwrap().1, &999u64.to_le_bytes()[..]);
        assert_eq!(lru.bytes, held(&lru));
    }

    #[test]
    fn the_budget_bounds_the_bytes_and_the_least_recently_used_go_first() {
        let mut lru = Lru::default();
        let body = vec![7u8; BUDGET_BYTES / 10];
        for i in 0..40 {
            lru.put(&format!("/{i}?"), 1, "text/csv", &body);
            // Keep the first key in use: it must outlive all the others.
            assert!(lru.get("/0?", 1).is_some(), "evicted the most recently used at {i}");
            assert!(lru.bytes <= BUDGET_BYTES && lru.bytes == held(&lru));
            assert_eq!(lru.entries.len(), lru.by_use.len());
        }
        assert_eq!(lru.entries.len(), 9, "nine tenths of the budget, plus keys, fit");
        assert!(lru.get("/39?", 1).is_some() && lru.get("/1?", 1).is_none());
        // A body beyond the whole budget is not kept and evicts nothing.
        lru.put("/huge?", 1, "text/csv", &vec![0u8; BUDGET_BYTES + 1]);
        assert!(lru.get("/huge?", 1).is_none());
        assert_eq!(lru.entries.len(), 9);
    }
}
