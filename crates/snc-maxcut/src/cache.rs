//! Deterministic caching: one bounded, sharded LRU core and the SDP
//! memo built on it.
//!
//! The Burer–Monteiro factor the LIF-GW circuit programs into its
//! synapses is a pure function of `(graph, sdp seed, rank)` — it costs
//! ~13 of the ~20 ms a road-chesapeake solve spends end to end, and it
//! is bit-for-bit reproducible given those three inputs. [`SdpCache`]
//! memoizes exactly that function, so repeated solves of the same graph
//! (anneal restarts, repeated service requests, figure sweeps) pay the
//! SDP once and re-run only the stochastic circuit stage the paper
//! actually studies.
//!
//! ## Determinism contract
//!
//! A cache hit returns the *identical* factor matrix a cold solve would
//! have computed (the SDP is deterministic in its seed), and the factor
//! is consumed read-only by the sampling stage, whose RNG streams derive
//! from separate seed slots. Therefore [`crate::solve::solve_with_cache`]
//! with a warm cache produces bit-for-bit the outcome of a cold
//! [`crate::solve::solve`] — pinned by the cache-equivalence tests.
//!
//! ## The core: [`ShardedLru`]
//!
//! Every cache in the workspace is a thin wrapper over [`ShardedLru`]:
//! [`SdpCache`] here, charging 1 per entry, and `snc-server`'s
//! `ResponseCache`, charging each body's byte cost. The core owns the
//! policy both share:
//!
//! * **Shards.** A caller-supplied 64-bit digest picks a shard; each
//!   shard is an independent LRU list behind its own `parking_lot`
//!   mutex. Small capacities use fewer shards (down to one), so that the
//!   configured capacity stays exact and eviction order is predictable.
//! * **Bound.** Each shard owns `capacity / shards` cost units (floor
//!   division: the shards together never exceed the capacity). An entry
//!   costlier than a whole shard is dropped; otherwise inserting evicts
//!   least-recently-used entries until it fits. A capacity of `0`
//!   disables the cache: every lookup misses, inserts are dropped, and
//!   nothing panics.
//! * **Lookups** take the digest plus an equality predicate over the
//!   stored key, so a caller never builds (or clones) a probe key, and a
//!   digest collision degrades to a miss, never to a wrong value. Every
//!   lookup counts exactly one hit or one miss.
//! * **No lock is held across the computation** a miss triggers: the
//!   caller computes between [`ShardedLru::get`] and
//!   [`ShardedLru::insert`]. Two threads missing the same key
//!   concurrently both compute (identical) values; re-inserting a
//!   resident key is a no-op, so the first insert's value is kept.

use crate::gw::{solve_gw, GwConfig, GwSolution};
use parking_lot::Mutex;
use snc_graph::{Graph, GraphFingerprint};
use snc_linalg::{LinalgError, SdpConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most shards a cache will spread its capacity over.
const MAX_SHARDS: usize = 8;
/// SDP entries per shard below which adding another shard stops paying.
const MIN_ENTRIES_PER_SHARD: usize = 8;

/// Counters describing cache traffic (monotonic since construction)
/// and its occupancy, in the cache's own cost unit (entries for the
/// [`SdpCache`], bytes for the response cache).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Cost units currently charged against the capacity.
    pub used: u64,
    /// Total cost units the cache may hold.
    pub capacity: u64,
}

/// One resident entry: its routing digest, its charge, the full key
/// (for collision checking), and the value.
struct Slot<K, V> {
    digest: u64,
    cost: usize,
    key: K,
    value: V,
}

/// One shard: an LRU list (front = least recently used) and the cost
/// it currently carries.
struct Shard<K, V> {
    entries: VecDeque<Slot<K, V>>,
    used: usize,
}

/// A bounded, sharded, thread-safe LRU map with caller-supplied digests
/// and costs. See the module docs for the policy it implements.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K, V> ShardedLru<K, V> {
    /// Creates a cache holding at most `capacity` cost units in total,
    /// with no shard's share below `min_per_shard` units. `capacity == 0`
    /// disables the cache.
    pub fn new(capacity: usize, min_per_shard: usize) -> Self {
        let shards = shard_count(capacity, min_per_shard);
        Self {
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        entries: VecDeque::new(),
                        used: 0,
                    })
                })
                .collect(),
            per_shard: capacity.checked_div(shards).unwrap_or(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether the cache can retain anything at all.
    pub fn is_enabled(&self) -> bool {
        self.per_shard > 0
    }

    /// A traffic snapshot. Counters are monotonic; `entries` and `used`
    /// are current (each value is read atomically, the snapshot as a
    /// whole is not — consistent once traffic quiesces).
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut used) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.entries.len() as u64;
            used += shard.used as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            used,
            capacity: (self.per_shard * self.shards.len()) as u64,
        }
    }

    fn shard(&self, digest: u64) -> &Mutex<Shard<K, V>> {
        &self.shards[(digest % self.shards.len() as u64) as usize]
    }
}

impl<K: PartialEq, V: Clone> ShardedLru<K, V> {
    /// Returns the value stored under `digest` whose key satisfies
    /// `matches`, touching it as most recently used. Counts exactly one
    /// hit or one miss.
    pub fn get(&self, digest: u64, matches: impl Fn(&K) -> bool) -> Option<V> {
        if self.is_enabled() {
            let mut shard = self.shard(digest).lock();
            if let Some(idx) = shard
                .entries
                .iter()
                .position(|e| e.digest == digest && matches(&e.key))
            {
                let slot = shard.entries.remove(idx).expect("index from position");
                let value = slot.value.clone();
                shard.entries.push_back(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `value` under `key`, charging `cost` units, and reports
    /// whether it was stored. A resident equal key keeps its value; an
    /// entry costlier than a shard is dropped; otherwise LRU entries are
    /// evicted until the new one fits.
    pub fn insert(&self, digest: u64, cost: usize, key: K, value: V) -> bool {
        if cost > self.per_shard || !self.is_enabled() {
            return false;
        }
        let mut shard = self.shard(digest).lock();
        if shard.entries.iter().any(|e| e.digest == digest && e.key == key) {
            return false;
        }
        while shard.used + cost > self.per_shard {
            let evicted = shard.entries.pop_front().expect("used > 0 implies entries");
            shard.used -= evicted.cost;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.used += cost;
        shard.entries.push_back(Slot {
            digest,
            cost,
            key,
            value,
        });
        true
    }
}

/// Shard count for a capacity: enough shards to cut contention, never so
/// many that a shard's share of the capacity drops below
/// `min_per_shard` (and zero for a disabled cache).
fn shard_count(capacity: usize, min_per_shard: usize) -> usize {
    if capacity == 0 {
        0
    } else {
        (capacity / min_per_shard).clamp(1, MAX_SHARDS)
    }
}

/// Every input the SDP depends on — including the graph itself, so a
/// fingerprint collision reads as a miss, not a wrong factor.
#[derive(PartialEq)]
struct SdpKey {
    fingerprint: GraphFingerprint,
    seed: u64,
    rank: usize,
    graph: Graph,
}

/// A bounded, sharded, thread-safe memo of SDP factor/bound pairs keyed
/// by `(graph fingerprint, sdp seed, rank)` with full-key collision
/// checking, bounded by entry count. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct SdpCache {
    lru: ShardedLru<SdpKey, Arc<GwSolution>>,
}

impl SdpCache {
    /// Creates a cache retaining at most `capacity` factor entries in
    /// total. `capacity == 0` means *disabled*: every lookup misses,
    /// inserts are dropped, and nothing panics.
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: ShardedLru::new(capacity, MIN_ENTRIES_PER_SHARD),
        }
    }

    /// A traffic snapshot (`used`/`capacity` count entries).
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Returns the memoized SDP solution for `(graph, seed, rank)`,
    /// computing (and caching) it on a miss.
    ///
    /// The shard lock is held only for the lookup and the insert — never
    /// across the SDP solve itself, so concurrent solves of distinct
    /// graphs proceed in parallel and concurrent solves of the *same*
    /// graph merely duplicate (deterministic, identical) work.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the SDP stage; failures are not
    /// cached.
    pub fn get_or_solve(
        &self,
        graph: &Graph,
        seed: u64,
        rank: usize,
    ) -> Result<Arc<GwSolution>, LinalgError> {
        self.get_or_solve_traced(graph, seed, rank)
            .map(|(solution, _)| solution)
    }

    /// [`SdpCache::get_or_solve`], additionally reporting whether the
    /// solution was freshly solved (`true`) or served from the cache
    /// (`false`) — so callers timing the SDP stage can attribute the
    /// elapsed time to a real solve rather than a lookup.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the SDP stage; failures are not
    /// cached.
    pub fn get_or_solve_traced(
        &self,
        graph: &Graph,
        seed: u64,
        rank: usize,
    ) -> Result<(Arc<GwSolution>, bool), LinalgError> {
        let fingerprint = graph.fingerprint();
        let digest = fingerprint.fold();
        // Fingerprint first (cheap reject), then the full key.
        let hit = self.lru.get(digest, |k| {
            k.fingerprint == fingerprint && k.seed == seed && k.rank == rank && k.graph == *graph
        });
        if let Some(solution) = hit {
            return Ok((solution, false));
        }
        // No lock held: solve outside every shard.
        let cfg = GwConfig {
            sdp: SdpConfig {
                rank,
                seed,
                ..SdpConfig::default()
            },
        };
        let solution = Arc::new(solve_gw(graph, &cfg)?);
        if self.lru.is_enabled() {
            let key = SdpKey {
                fingerprint,
                seed,
                rank,
                graph: graph.clone(),
            };
            self.lru.insert(digest, 1, key, Arc::clone(&solution));
        }
        Ok((solution, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_graph::generators::erdos_renyi::gnp;

    /// A unit-cost core whose keys are their own digests.
    fn lru(capacity: usize) -> ShardedLru<u64, u64> {
        ShardedLru::new(capacity, MIN_ENTRIES_PER_SHARD)
    }

    fn get(cache: &ShardedLru<u64, u64>, key: u64) -> Option<u64> {
        cache.get(key, |k| *k == key)
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let cache = lru(2);
        assert_eq!(cache.stats().capacity, 2);
        for key in 0..3 {
            assert!(get(&cache, key).is_none());
            assert!(cache.insert(key, 1, key, key * 10));
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.used), (2, 2), "capacity is a hard bound");
        assert_eq!(stats.evictions, 1);
        // Key 0 was the LRU victim; 1 and 2 are warm.
        assert_eq!(get(&cache, 1), Some(10));
        assert_eq!(get(&cache, 2), Some(20));
        assert_eq!(get(&cache, 0), None, "the oldest entry went first");
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 4));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Variable costs: a single shard of 100 units; a 60-unit insert
        // evicts the two least recently used 30-unit entries it needs.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(100, 1024);
        for key in 0..3 {
            assert!(cache.insert(key, 30, key, key));
        }
        assert_eq!(get(&cache, 0), Some(0), "touch 0: 1 becomes LRU");
        assert!(cache.insert(3, 60, 3, 3));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries, stats.used), (2, 2, 90));
        assert!(stats.used <= stats.capacity, "budget is a hard bound");
        assert_eq!(get(&cache, 1), None, "1 was the LRU victim");
        assert_eq!(get(&cache, 2), None, "2 went next");
        assert_eq!(get(&cache, 0), Some(0));
        assert_eq!(get(&cache, 3), Some(3));
    }

    #[test]
    fn lru_touch_protects_recently_hit_entries() {
        let cache = lru(2);
        cache.insert(1, 1, 1, 1);
        cache.insert(2, 1, 2, 2);
        assert_eq!(get(&cache, 1), Some(1)); // touch 1: 2 is now LRU
        cache.insert(3, 1, 3, 3); // evicts 2
        assert_eq!(get(&cache, 1), Some(1), "1 survived");
        assert_eq!(get(&cache, 2), None, "2 was evicted");
    }

    #[test]
    fn capacity_zero_disables_without_panicking() {
        let cache = lru(0);
        assert!(!cache.is_enabled());
        assert!(!cache.insert(1, 0, 1, 1), "even a free entry is dropped");
        assert!(!cache.insert(1, 1, 1, 1));
        assert_eq!(get(&cache, 1), None);
        assert_eq!(get(&cache, 1), None, "still nothing after the inserts");
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 2,
                ..CacheStats::default()
            }
        );
        // The SDP memo on top of a disabled core still solves.
        let sdp = SdpCache::new(0);
        let g = gnp(8, 0.5, 4).unwrap();
        let a = sdp.get_or_solve(&g, 1, 2).unwrap();
        let b = sdp.get_or_solve(&g, 1, 2).unwrap();
        assert_eq!(a.factors, b.factors, "still deterministic, just uncached");
        assert_eq!((sdp.stats().misses, sdp.stats().entries), (2, 0));
    }

    #[test]
    fn capacity_one_holds_exactly_one_entry() {
        let cache = lru(1);
        assert_eq!(cache.stats().capacity, 1);
        cache.insert(1, 1, 1, 1);
        assert_eq!(get(&cache, 1), Some(1));
        cache.insert(2, 1, 2, 2);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1));
        assert_eq!(get(&cache, 2), Some(2));
    }

    #[test]
    fn tiny_budgets_reject_oversized_entries_instead_of_panicking() {
        // An entry costlier than a shard is dropped, never forced in, and
        // evicts nothing on the way out.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(1, 1024);
        assert!(cache.is_enabled());
        assert!(cache.insert(1, 1, 1, 1));
        assert!(!cache.insert(2, 2, 2, 2));
        assert_eq!(get(&cache, 2), None);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.used, stats.evictions), (1, 1, 0));
    }

    #[test]
    fn reinserting_a_resident_key_is_a_noop() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(100, 1024);
        assert!(cache.insert(4, 10, 4, 40));
        assert!(!cache.insert(4, 10, 4, 41), "resident key keeps its value");
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.used), (1, 10), "no double charge");
        assert_eq!(get(&cache, 4), Some(40));
    }

    #[test]
    fn digest_collisions_are_misses() {
        // Two keys sharing one digest: the predicate keeps them apart.
        let cache = lru(4);
        cache.insert(7, 1, 100, 1);
        assert_eq!(cache.get(7, |k| *k == 200), None);
        assert!(cache.insert(7, 1, 200, 2), "a colliding key is its own entry");
        assert_eq!(cache.get(7, |k| *k == 100), Some(1));
        assert_eq!(cache.get(7, |k| *k == 200), Some(2));
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        // Entry-counted (8 per shard) and byte-counted (64 KiB per shard)
        // capacities follow one rule.
        for (capacity, min_per_shard, shards) in [
            (0, 8, 0),
            (1, 8, 1),
            (7, 8, 1),
            (16, 8, 2),
            (64, 8, 8),
            (10_000, 8, 8), // clamped at MAX_SHARDS
            (4 * 1024, 64 * 1024, 1),
            (128 * 1024, 64 * 1024, 2),
            (8 << 20, 64 * 1024, 8),
        ] {
            assert_eq!(shard_count(capacity, min_per_shard), shards, "{capacity}/{min_per_shard}");
            let cache: ShardedLru<u64, u64> = ShardedLru::new(capacity, min_per_shard);
            assert_eq!(cache.shards.len(), shards.max(1));
        }
        // Capacity stays a hard bound under flooring.
        let floored: ShardedLru<u64, u64> = ShardedLru::new(65, 8);
        assert_eq!(floored.stats().capacity, 64);
        let exact: ShardedLru<u64, u64> = ShardedLru::new(8 << 20, 64 * 1024);
        assert_eq!(exact.stats().capacity, 8 << 20);
    }

    #[test]
    fn concurrent_misses_keep_the_first_insert() {
        const THREADS: u64 = 8;
        let cache = lru(16);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        let stored: Vec<(u64, bool)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cache, barrier) = (&cache, &barrier);
                    scope.spawn(move || {
                        // Everyone misses before anyone inserts.
                        assert_eq!(get(cache, 5), None);
                        barrier.wait();
                        let stored = cache.insert(5, 1, 5, t);
                        barrier.wait();
                        assert!(get(cache, 5).is_some());
                        (t, stored)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let first: Vec<u64> = stored.iter().filter(|(_, s)| *s).map(|(t, _)| *t).collect();
        assert_eq!(first.len(), 1, "exactly one insert is stored");
        assert_eq!(get(&cache, 5), Some(first[0]), "the first insert's value is kept");
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!((stats.misses, stats.hits), (THREADS, THREADS + 1));
        assert_eq!(stats.hits + stats.misses, 2 * THREADS + 1, "one count per lookup");
    }

    #[test]
    fn hit_returns_the_identical_solution() {
        let cache = SdpCache::new(4);
        let g = gnp(12, 0.5, 3).unwrap();
        let cold = cache.get_or_solve(&g, 9, 4).unwrap();
        let warm = cache.get_or_solve(&g, 9, 4).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "hit shares the stored factor");
        assert_eq!(cold.factors, warm.factors);
        assert_eq!(cold.sdp_bound, warm.sdp_bound);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.used, stats.capacity), (1, 4), "charged per entry");
    }

    #[test]
    fn distinct_seeds_ranks_and_graphs_are_distinct_entries() {
        let cache = SdpCache::new(8);
        let g = gnp(10, 0.5, 1).unwrap();
        let h = gnp(10, 0.5, 2).unwrap();
        let a = cache.get_or_solve(&g, 1, 4).unwrap();
        let b = cache.get_or_solve(&g, 2, 4).unwrap();
        let c = cache.get_or_solve(&g, 1, 3).unwrap();
        let d = cache.get_or_solve(&h, 1, 4).unwrap();
        assert_eq!(cache.stats().misses, 4, "four distinct keys");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(c.factors.cols(), 3);
        // Same key again: all hits.
        assert!(Arc::ptr_eq(&a, &cache.get_or_solve(&g, 1, 4).unwrap()));
        assert!(Arc::ptr_eq(&b, &cache.get_or_solve(&g, 2, 4).unwrap()));
        assert!(Arc::ptr_eq(&d, &cache.get_or_solve(&h, 1, 4).unwrap()));
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn errors_are_propagated_and_not_cached() {
        let cache = SdpCache::new(4);
        let g = gnp(6, 0.5, 1).unwrap();
        assert!(cache.get_or_solve(&g, 1, 0).is_err(), "rank 0 is invalid");
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get_or_solve(&g, 1, 2).is_ok());
    }
}
