//! Shared LRU buffer cache over decoded column blocks.
//!
//! One cache per [`Store`](super::Store), shared by every query against the
//! database — the analogue of a warehouse's local SSD cache in the paper's
//! Snowflake deployment. Entries are whole column blocks keyed by
//! `(partition file id, column index)`, held as the [`ColumnVec`] the
//! executor slices its batches from — dictionary- and run-length-coded
//! blocks stay *encoded*, so a compressed column occupies proportionally less
//! cache. A hit returns the shared `Arc<ColumnVec>` with **zero file I/O**,
//! which is why a warm disk scan reports `bytes_scanned = 0`. An entry is
//! charged its [`ColumnVec::estimated_size`], taken once when the block is
//! decoded.
//!
//! Interaction with the query governor: the cache itself is capacity-bounded
//! (in-memory bytes, LRU eviction), and each *miss* additionally
//! charges those bytes against the running query's
//! `STATEMENT_MEMORY_LIMIT` via
//! [`QueryGovernor::charge_memory`](crate::govern::QueryGovernor::charge_memory)
//! — the query that faults a block in pays for it, queries that merely reuse
//! it do not. Hit/miss/eviction counters are global monotone atomics exposed
//! through `EXPLAIN ANALYZE` and [`Store::cache_stats`](super::Store::cache_stats).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::column::ColumnVec;

/// Default cache capacity: 64 MiB of in-memory column data.
pub const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// Key of one cached block: `(partition file id, column index)`.
pub type BlockKey = (u64, u32);

/// Outcome of one cache access, reported into the query's scan stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheOutcome {
    /// True when the block was served from the cache (no file I/O).
    pub hit: bool,
    /// Number of blocks evicted to make room for this insertion.
    pub evictions: u64,
}

/// Monotone global counters for the cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Bytes of decoded data currently resident.
    pub used_bytes: u64,
    pub capacity_bytes: u64,
}

struct Entry {
    data: Arc<ColumnVec>,
    bytes: u64,
    /// Last-touch tick; smallest tick is the LRU victim.
    tick: u64,
}

struct Inner {
    map: HashMap<BlockKey, Entry>,
    used: u64,
    tick: u64,
}

impl std::fmt::Debug for BufferCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufferCache")
            .field("used_bytes", &s.used_bytes)
            .field("capacity_bytes", &s.capacity_bytes)
            .finish_non_exhaustive()
    }
}

/// Capacity-bounded LRU cache of decoded column blocks.
pub struct BufferCache {
    capacity: AtomicU64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BufferCache {
    pub fn new(capacity: u64) -> BufferCache {
        BufferCache {
            capacity: AtomicU64::new(capacity),
            inner: Mutex::new(Inner { map: HashMap::new(), used: 0, tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Changes the capacity; an immediate eviction pass enforces it.
    pub fn set_capacity(&self, bytes: u64) {
        self.capacity.store(bytes, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("cache lock");
        let evicted = evict_to_fit(&mut inner, bytes, 0);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    pub fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Looks up a block, bumping its recency on a hit.
    pub fn get(&self, key: BlockKey) -> Option<Arc<ColumnVec>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.data.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly-loaded block, evicting LRU entries to fit. Blocks
    /// larger than the whole capacity are *not* cached (they would evict
    /// everything for a single-use entry); they still flow to the caller.
    /// Returns the number of evictions performed.
    pub fn insert(&self, key: BlockKey, data: Arc<ColumnVec>, bytes: u64) -> u64 {
        let capacity = self.capacity();
        if bytes > capacity {
            return 0;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        let evicted = evict_to_fit(&mut inner, capacity, bytes);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(prev) = inner.map.insert(key, Entry { data, bytes, tick }) {
            inner.used -= prev.bytes;
        }
        inner.used += bytes;
        evicted
    }

    /// Drops every entry (used by the cold-scan benchmark and tests).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.clear();
        inner.used = 0;
    }

    /// Global counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            used_bytes: inner.used,
            capacity_bytes: self.capacity(),
        }
    }
}

/// Evicts least-recently-used entries until `incoming` more bytes fit under
/// `capacity`. Linear victim scan: the cache holds whole column blocks, so
/// entry counts are small (thousands, not millions) and an O(n) scan per
/// miss is cheaper than maintaining an ordered structure under contention.
fn evict_to_fit(inner: &mut Inner, capacity: u64, incoming: u64) -> u64 {
    let mut evicted = 0u64;
    while inner.used + incoming > capacity && !inner.map.is_empty() {
        let victim = inner
            .map
            .iter()
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| *k)
            .expect("non-empty map has a minimum");
        if let Some(e) = inner.map.remove(&victim) {
            inner.used -= e.bytes;
            evicted += 1;
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: i64) -> Arc<ColumnVec> {
        Arc::new(ColumnVec::from_variants(vec![crate::Variant::Int(n)]))
    }

    #[test]
    fn hit_returns_shared_block_and_counts() {
        let c = BufferCache::new(1024);
        assert!(c.get((1, 0)).is_none());
        c.insert((1, 0), block(7), 100);
        let got = c.get((1, 0)).unwrap();
        assert_eq!(got.get(0), crate::Variant::Int(7));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.used_bytes, 100);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let c = BufferCache::new(250);
        c.insert((1, 0), block(1), 100);
        c.insert((2, 0), block(2), 100);
        // Touch (1,0) so (2,0) becomes the LRU victim.
        c.get((1, 0)).unwrap();
        let evicted = c.insert((3, 0), block(3), 100);
        assert_eq!(evicted, 1);
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((2, 0)).is_none());
        assert!(c.get((3, 0)).is_some());
    }

    #[test]
    fn oversized_blocks_bypass_the_cache() {
        let c = BufferCache::new(50);
        c.insert((1, 0), block(1), 40);
        assert_eq!(c.insert((2, 0), block(2), 999), 0);
        // The resident entry survives; the oversized block was never cached.
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((2, 0)).is_none());
        assert_eq!(c.stats().used_bytes, 40);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let c = BufferCache::new(300);
        for i in 0..3 {
            c.insert((i, 0), block(i as i64), 100);
        }
        c.set_capacity(100);
        let s = c.stats();
        assert!(s.used_bytes <= 100, "{s:?}");
        assert!(s.evictions >= 2, "{s:?}");
    }
}
