//! Shared buffer cache over decoded column blocks, with frequency-based
//! admission.
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
//! Admission (TinyLFU's rule, Einziger, Friedman and Manes, ACM TOS 2017):
//! [`BufferCache::get`] counts every request per block key, hit or miss, and
//! every `aging_window` requests halves all counts and forgets the zeros,
//! so the counts stay bounded and old popularity fades. A block that fits
//! in the free space is always admitted. One that needs room walks the
//! resident blocks in least-recently-used order and is admitted only if its
//! count is *strictly greater* than that of every block it would evict; on
//! a tie the residents stay. That tie rule is what keeps a cyclic scan
//! larger than the cache from rotating it: under plain LRU every block of
//! the scan is evicted just before its next use, here the first blocks to
//! arrive stay resident and hit on every later pass. The outcome depends
//! only on the sequence of requests, never on hashing or timing.
//!
//! Interaction with the query governor: the cache itself is capacity-bounded
//! (in-memory bytes), and each *miss* additionally charges those bytes
//! against the running query's `STATEMENT_MEMORY_LIMIT` via
//! [`QueryGovernor::charge_memory`](crate::govern::QueryGovernor::charge_memory)
//! — the query that faults a block in pays for it whether or not the cache
//! keeps it, queries that merely reuse it do not. Hit/miss/eviction/
//! not-admitted counters are global monotone atomics exposed through
//! `EXPLAIN ANALYZE` and [`Store::cache_stats`](super::Store::cache_stats).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::column::ColumnVec;

/// Default cache capacity: 64 MiB of in-memory column data.
pub const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// Request counts halve every `AGING_FACTOR × max(resident entries,
/// AGING_FLOOR)` requests (see `aging_window`).
pub(crate) const AGING_FACTOR: u64 = 16;
/// The floor on the entry count in the aging window, so a cache of a few
/// large blocks still compares counts over a useful span of requests.
pub(crate) const AGING_FLOOR: u64 = 64;

/// Requests between two halvings of the counts for a cache of `entries`
/// resident blocks.
pub(crate) fn aging_window(entries: usize) -> u64 {
    AGING_FACTOR * (entries as u64).max(AGING_FLOOR)
}

/// Key of one cached block: `(partition file id, column index)`.
pub type BlockKey = (u64, u32);

/// Outcome of one cache access, reported into the query's scan stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheOutcome {
    /// True when the block was served from the cache (no file I/O).
    pub hit: bool,
    /// Number of blocks evicted to make room for this insertion.
    pub evictions: u64,
    /// True when a block read from its file was not kept: admission refused
    /// it, or it is larger than the whole cache.
    pub not_admitted: bool,
}

/// Monotone global counters for the cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Blocks read on a miss that the cache did not keep.
    pub not_admitted: u64,
    /// Bytes of decoded data currently resident.
    pub used_bytes: u64,
    pub capacity_bytes: u64,
}

struct Entry {
    data: Arc<ColumnVec>,
    bytes: u64,
    /// Last-touch tick, the entry's key in `Inner::lru`.
    tick: u64,
}

struct Inner {
    map: HashMap<BlockKey, Entry>,
    /// Resident keys by last-touch tick: least recently used first.
    lru: BTreeMap<u64, BlockKey>,
    used: u64,
    tick: u64,
    /// Requests per block key, resident or not, since the last halving.
    counts: HashMap<BlockKey, u32>,
    /// Requests since the last halving.
    requests: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn count(&self, key: &BlockKey) -> u32 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Counts one request for `key`, halving every count at the end of an
    /// aging window.
    fn record_request(&mut self, key: BlockKey) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.requests += 1;
        if self.requests >= aging_window(self.map.len()) {
            self.requests = 0;
            self.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    fn remove(&mut self, key: &BlockKey) -> Option<Entry> {
        let e = self.map.remove(key)?;
        self.lru.remove(&e.tick);
        self.used -= e.bytes;
        Some(e)
    }

    /// The least recently used residents whose bytes make room for
    /// `incoming` more under `capacity`; `None` when the cache could not
    /// hold them even empty.
    fn victims(&self, capacity: u64, incoming: u64) -> Option<Vec<BlockKey>> {
        let mut over = (self.used + incoming)
            .checked_sub(capacity)
            .filter(|&b| b > 0);
        let mut out = Vec::new();
        for key in self.lru.values() {
            let Some(need) = over else { break };
            out.push(*key);
            over = need.checked_sub(self.map[key].bytes).filter(|&b| b > 0);
        }
        over.is_none().then_some(out)
    }
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

/// Capacity-bounded cache of decoded column blocks: LRU victims,
/// frequency-based admission.
pub struct BufferCache {
    capacity: AtomicU64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    not_admitted: AtomicU64,
}

impl BufferCache {
    pub fn new(capacity: u64) -> BufferCache {
        BufferCache {
            capacity: AtomicU64::new(capacity),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                used: 0,
                tick: 0,
                counts: HashMap::new(),
                requests: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            not_admitted: AtomicU64::new(0),
        }
    }

    /// Changes the capacity; an immediate eviction pass (LRU order, counts
    /// ignored) enforces it.
    pub fn set_capacity(&self, bytes: u64) {
        self.capacity.store(bytes, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("cache lock");
        let victims = inner
            .victims(bytes, 0)
            .expect("the residents hold every used byte");
        let evicted: Vec<Entry> = victims.iter().filter_map(|k| inner.remove(k)).collect();
        drop(inner);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    pub fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Looks a block up, counting the request and bumping its recency on a
    /// hit. The store calls this before every [`insert`](Self::insert).
    pub fn get(&self, key: BlockKey) -> Option<Arc<ColumnVec>> {
        let mut guard = self.inner.lock().expect("cache lock");
        let inner = &mut *guard;
        inner.record_request(key);
        let tick = inner.next_tick();
        let Some(e) = inner.map.get_mut(&key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let old = std::mem::replace(&mut e.tick, tick);
        let data = e.data.clone();
        inner.lru.remove(&old);
        inner.lru.insert(tick, key);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(data)
    }

    /// Offers a block just read on a miss. It is kept when it fits in the
    /// free space, or when its request count beats every least recently used
    /// block it would evict (see the module documentation); a block larger
    /// than the whole capacity is never kept. Either way the caller keeps its
    /// `Arc`. Evicted blocks are freed after the cache lock is released.
    pub fn insert(&self, key: BlockKey, data: Arc<ColumnVec>, bytes: u64) -> CacheOutcome {
        let mut out = CacheOutcome::default();
        let capacity = self.capacity();
        let mut inner = self.inner.lock().expect("cache lock");
        let mut evicted = Vec::new();
        // A concurrent miss of the same block may have got there first.
        if !inner.map.contains_key(&key) {
            let count = inner.count(&key);
            let admit = inner
                .victims(capacity, bytes)
                .filter(|v| v.iter().all(|k| inner.count(k) < count));
            match admit {
                Some(victims) => {
                    evicted = victims.iter().filter_map(|k| inner.remove(k)).collect();
                    let tick = inner.next_tick();
                    inner.lru.insert(tick, key);
                    inner.map.insert(key, Entry { data, bytes, tick });
                    inner.used += bytes;
                }
                None => out.not_admitted = true,
            }
        }
        drop(inner);
        out.evictions = evicted.len() as u64;
        self.evictions.fetch_add(out.evictions, Ordering::Relaxed);
        if out.not_admitted {
            self.not_admitted.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Drops every entry and every request count (used by the cold-scan
    /// benchmark and tests).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        let map = std::mem::take(&mut inner.map);
        inner.lru.clear();
        inner.used = 0;
        inner.counts.clear();
        inner.requests = 0;
        drop(inner);
        drop(map);
    }

    /// Global counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            not_admitted: self.not_admitted.load(Ordering::Relaxed),
            used_bytes: inner.used,
            capacity_bytes: self.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: i64) -> Arc<ColumnVec> {
        Arc::new(ColumnVec::from_variants(vec![crate::Variant::Int(n)]))
    }

    /// What the store does for one block: look it up, offer it on a miss.
    /// True on a hit.
    fn request(c: &BufferCache, key: BlockKey, bytes: u64) -> bool {
        if c.get(key).is_some() {
            return true;
        }
        c.insert(key, block(key.0 as i64), bytes);
        false
    }

    fn resident(c: &BufferCache) -> Vec<BlockKey> {
        let mut keys: Vec<BlockKey> = c.inner.lock().unwrap().map.keys().copied().collect();
        keys.sort_unstable();
        keys
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
        // The newcomer is requested, as the store does before it inserts,
        // more often than the victim: admission lets it in.
        assert!(c.get((3, 0)).is_none());
        assert!(c.get((3, 0)).is_none());
        let evicted = c.insert((3, 0), block(3), 100).evictions;
        assert_eq!(evicted, 1);
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((2, 0)).is_none());
        assert!(c.get((3, 0)).is_some());
    }

    #[test]
    fn oversized_blocks_bypass_the_cache() {
        let c = BufferCache::new(50);
        c.insert((1, 0), block(1), 40);
        let out = c.insert((2, 0), block(2), 999);
        assert_eq!(out.evictions, 0);
        assert!(out.not_admitted);
        // The resident entry survives; the oversized block was never cached.
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((2, 0)).is_none());
        assert_eq!(c.stats().used_bytes, 40);
        assert_eq!(c.stats().not_admitted, 1);
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

    /// A cyclic scan over four times the capacity: plain LRU evicts every
    /// block just before its next use and never hits. With admission the
    /// resident set settles in the first pass and every later pass hits it.
    #[test]
    fn cyclic_scan_keeps_a_stable_resident_set() {
        // 15 blocks fit, 60 cycle; 60 does not divide the aging window, so
        // halvings fall mid-pass.
        let c = BufferCache::new(15 * 100);
        let keys: Vec<BlockKey> = (0..60).map(|i| (i, 0)).collect();
        let floor = 15.0 / 60.0 - 0.05;
        let mut after_first = Vec::new();
        for pass in 0..80 {
            let hits = keys.iter().filter(|&&k| request(&c, k, 100)).count();
            if pass == 0 {
                after_first = resident(&c);
                assert_eq!(after_first.len(), 15);
                continue;
            }
            let rate = hits as f64 / keys.len() as f64;
            assert!(rate >= floor, "pass {pass}: hit rate {rate} below {floor}");
            assert_eq!(resident(&c), after_first, "pass {pass}: resident set moved");
        }
        assert!(c.stats().not_admitted > 0);
    }

    /// Old popularity fades: after a working set goes cold, a new one that
    /// fits becomes resident within two aging windows' worth of passes,
    /// however long the old one was hot. Without halving it would need as
    /// many passes as the old set had (here 1000).
    #[test]
    fn a_new_working_set_displaces_a_cold_one() {
        let c = BufferCache::new(8 * 100);
        let old: Vec<BlockKey> = (0..8).map(|i| (i, 0)).collect();
        let new: Vec<BlockKey> = (100..108).map(|i| (i, 0)).collect();
        for _ in 0..1000 {
            for &k in &old {
                request(&c, k, 100);
            }
        }
        assert_eq!(resident(&c), old);
        let bound = 2 * aging_window(8) / new.len() as u64;
        let passes = (1..=bound)
            .find(|_| {
                for &k in &new {
                    request(&c, k, 100);
                }
                resident(&c) == new
            })
            .unwrap_or_else(|| panic!("the new set is not resident after {bound} passes"));
        assert!(passes > 1, "the new set displaced a hotter one at once");
    }

    #[test]
    fn one_shot_blocks_never_displace_reused_ones() {
        let c = BufferCache::new(4 * 100);
        let hot: Vec<BlockKey> = (0..4).map(|i| (i, 0)).collect();
        for _ in 0..3 {
            for &k in &hot {
                request(&c, k, 100);
            }
        }
        for i in 1000..3000 {
            assert!(!request(&c, (i, 0), 100));
        }
        assert_eq!(resident(&c), hot);
        assert!(hot.iter().all(|&k| c.get(k).is_some()));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn same_requests_same_contents() {
        let run = || {
            let c = BufferCache::new(20 * 100);
            let mut state = 0xCAC4Eu64;
            for _ in 0..20_000 {
                state = crate::govern::chaos::splitmix64(state);
                // A skewed key mix of two block sizes.
                let key = ((state % 97) * (state >> 60), (state >> 8) as u32 % 3);
                request(&c, key, 50 + 50 * u64::from(key.1 % 2));
            }
            let s = c.stats();
            (
                resident(&c),
                s.hits,
                s.misses,
                s.evictions,
                s.not_admitted,
                s.used_bytes,
            )
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.1 > 0 && a.3 > 0 && a.4 > 0, "{a:?}");
    }

    #[test]
    fn clear_forgets_counts() {
        let c = BufferCache::new(100);
        for _ in 0..5 {
            request(&c, (1, 0), 100);
        }
        c.clear();
        assert!(resident(&c).is_empty());
        // With its five requests remembered, (1,0) would take the room from
        // (2,0); forgotten, it only ties.
        request(&c, (2, 0), 100);
        assert!(c.get((1, 0)).is_none());
        assert!(
            c.insert((1, 0), block(1), 100).not_admitted,
            "tie with (2,0) after clear"
        );
    }
}
