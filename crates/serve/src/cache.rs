//! Content-addressed result cache: canonical request string → response
//! bytes, with an LRU byte budget and single-flight computation.
//!
//! The digest in [`CacheKey`] is the shard/log address; *equality* is
//! always the full canonical string, so a 64-bit collision can never
//! serve the wrong bytes. Entries store the exact response body — the
//! golden-pinned JSON the simulator emitted — so a hit is byte-identical
//! to the miss that populated it.
//!
//! Single-flight: the first requester for a key becomes the *leader* and
//! computes; concurrent requesters for the same key block on a condvar
//! and receive the leader's bytes, so N simultaneous identical requests
//! cost one simulation. If the leader fails (admission rejection,
//! simulation error, a panicking job), waiters wake, see the slot
//! cleared, and the next one takes over leadership.

use mstacks_core::cachekey::CacheKey;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a resident entry.
    pub hits: u64,
    /// Requests that computed and inserted.
    pub misses: u64,
    /// Requests that waited for a concurrent leader's result.
    pub joined: u64,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Bytes currently resident (canonical keys + response bodies).
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

enum Slot {
    /// A leader is computing this entry.
    Building,
    /// Resident response with its LRU timestamp.
    Ready { body: Arc<Vec<u8>>, used: u64 },
}

struct Inner {
    slots: HashMap<String, Slot>,
    stats: CacheStats,
    tick: u64,
}

/// What a lookup resolved to.
pub enum Fetched {
    /// Served from cache (or from a concurrent leader's computation).
    Hit(Arc<Vec<u8>>),
    /// This caller computed and inserted the entry.
    Computed(Arc<Vec<u8>>),
}

impl Fetched {
    /// The response bytes either way, shared with the cache entry (a
    /// clone is a reference-count bump, not a copy).
    pub fn body(&self) -> &Arc<Vec<u8>> {
        match self {
            Fetched::Hit(b) | Fetched::Computed(b) => b,
        }
    }

    /// True when served without computing.
    pub fn was_hit(&self) -> bool {
        matches!(self, Fetched::Hit(_))
    }
}

/// The single-flight, LRU-bounded result cache (see module docs).
pub struct ResultCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    budget_bytes: usize,
}

impl ResultCache {
    /// A cache bounded at ~`budget_bytes` of resident keys + bodies.
    pub fn new(budget_bytes: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                stats: CacheStats::default(),
                tick: 0,
            }),
            ready: Condvar::new(),
            budget_bytes,
        }
    }

    /// Returns the cached bytes for `key`, computing them with `compute`
    /// on this thread if absent (single-flight across threads).
    ///
    /// `compute` errors propagate to the caller and leave no entry — the
    /// next requester retries.
    pub fn get_or_compute<E>(
        &self,
        key: &CacheKey,
        compute: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<Fetched, E> {
        let canon = key.canonical();
        let mut inner = self.inner.lock().expect("cache poisoned");
        loop {
            match inner.slots.get(canon) {
                Some(Slot::Ready { .. }) => {
                    inner.tick += 1;
                    inner.stats.hits += 1;
                    let now = inner.tick;
                    if let Some(Slot::Ready { body, used }) = inner.slots.get_mut(canon) {
                        *used = now;
                        return Ok(Fetched::Hit(body.clone()));
                    }
                    unreachable!("entry vanished under the lock");
                }
                Some(Slot::Building) => {
                    inner.stats.joined += 1;
                    inner = self.ready.wait(inner).expect("cache poisoned");
                    // Loop: either Ready now (hit), or the leader failed
                    // and the slot is gone (this caller leads the retry).
                }
                None => {
                    inner.slots.insert(canon.to_string(), Slot::Building);
                    inner.stats.misses += 1;
                    drop(inner);
                    let mut guard = ClearOnDrop {
                        cache: self,
                        canon,
                        armed: true,
                    };
                    let body = match compute() {
                        Ok(b) => Arc::new(b),
                        Err(e) => return Err(e), // guard clears Building
                    };
                    guard.armed = false;
                    drop(guard);
                    let mut inner = self.inner.lock().expect("cache poisoned");
                    inner.tick += 1;
                    let used = inner.tick;
                    inner.stats.resident_bytes += canon.len() + body.len();
                    inner.slots.insert(
                        canon.to_string(),
                        Slot::Ready {
                            body: body.clone(),
                            used,
                        },
                    );
                    inner.stats.entries = inner.slots.len();
                    self.evict_over_budget(&mut inner);
                    drop(inner);
                    self.ready.notify_all();
                    return Ok(Fetched::Computed(body));
                }
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache poisoned").stats
    }

    fn evict_over_budget(&self, inner: &mut Inner) {
        while inner.stats.resident_bytes > self.budget_bytes {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { used, .. } => Some((*used, k.clone())),
                    Slot::Building => None,
                })
                .min()
                .map(|(_, k)| k);
            let Some(k) = victim else { return };
            // Keep at least the newest entry resident even if it alone
            // exceeds the budget (otherwise an oversized response would
            // evict itself and thrash).
            if inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count()
                <= 1
            {
                return;
            }
            if let Some(Slot::Ready { body, .. }) = inner.slots.remove(&k) {
                inner.stats.resident_bytes = inner
                    .stats
                    .resident_bytes
                    .saturating_sub(k.len() + body.len());
                inner.stats.evictions += 1;
            }
            inner.stats.entries = inner.slots.len();
        }
    }
}

/// Clears a `Building` slot if the leader unwound or errored, waking
/// waiters so one of them can take over.
struct ClearOnDrop<'a> {
    cache: &'a ResultCache,
    canon: &'a str,
    armed: bool,
}

impl Drop for ClearOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut inner) = self.cache.inner.lock() {
                inner.slots.remove(self.canon);
                inner.stats.entries = inner.slots.len();
            }
            self.cache.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstacks_core::cachekey::KeyBuilder;

    fn key(tag: &str) -> CacheKey {
        KeyBuilder::new("test").field("tag", tag).finish()
    }

    #[test]
    fn hit_returns_the_exact_inserted_bytes() {
        let cache = ResultCache::new(1 << 20);
        let k = key("a");
        let first = cache
            .get_or_compute::<()>(&k, || Ok(b"{\"x\":1}".to_vec()))
            .unwrap();
        assert!(!first.was_hit());
        let second = cache
            .get_or_compute::<()>(&k, || panic!("must not recompute"))
            .unwrap();
        assert!(second.was_hit());
        assert_eq!(second.body().as_slice(), first.body().as_slice());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Budget fits two ~100-byte entries, not three.
        let cache = ResultCache::new(260);
        for tag in ["a", "b", "c"] {
            cache
                .get_or_compute::<()>(&key(tag), || Ok(vec![b'x'; 100]))
                .unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions >= 1, "{s:?}");
        assert!(s.resident_bytes <= 260, "{s:?}");
        // "a" was the least recently used entry: it recomputes.
        let again = cache
            .get_or_compute::<()>(&key("a"), || Ok(vec![b'x'; 100]))
            .unwrap();
        assert!(!again.was_hit());
    }

    #[test]
    fn recency_updates_on_hit() {
        let one = key("a").canonical().len() + 100;
        let cache = ResultCache::new(2 * one + 10);
        cache
            .get_or_compute::<()>(&key("a"), || Ok(vec![b'x'; 100]))
            .unwrap();
        cache
            .get_or_compute::<()>(&key("b"), || Ok(vec![b'x'; 100]))
            .unwrap();
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache
            .get_or_compute::<()>(&key("a"), || panic!("resident"))
            .unwrap()
            .was_hit());
        cache
            .get_or_compute::<()>(&key("c"), || Ok(vec![b'x'; 100]))
            .unwrap();
        assert!(cache
            .get_or_compute::<()>(&key("a"), || Err(()))
            .expect("a stayed resident")
            .was_hit());
        assert!(cache.get_or_compute::<()>(&key("b"), || Err(())).is_err());
    }

    #[test]
    fn failed_compute_leaves_no_entry() {
        let cache = ResultCache::new(1 << 20);
        let k = key("a");
        assert!(cache.get_or_compute(&k, || Err("boom")).is_err());
        let ok = cache
            .get_or_compute::<()>(&k, || Ok(b"fine".to_vec()))
            .unwrap();
        assert!(!ok.was_hit());
    }

    #[test]
    fn concurrent_same_key_requests_compute_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = Arc::new(ResultCache::new(1 << 20));
        let computes = AtomicU64::new(0);
        let k = key("shared");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let k = &k;
                let computes = &computes;
                s.spawn(move || {
                    let got = cache
                        .get_or_compute::<()>(k, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(b"body".to_vec())
                        })
                        .unwrap();
                    assert_eq!(got.body().as_slice(), b"body");
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight");
        let s = cache.stats();
        // Exactly one leader computed; every other thread resolved to a
        // hit (after joining the in-flight computation or arriving late).
        assert_eq!(s.misses, 1, "{s:?}");
        assert_eq!(s.hits, 7, "{s:?}");
    }
}
