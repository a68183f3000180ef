//! Cross-query LRU buffer manager.
//!
//! The paper's environment keeps every index "on a local disk" and pays
//! page I/O on first touch; a real server additionally keeps a buffer
//! pool whose contents *outlive a single query*, so hot extents and
//! data-table pages are read once per working set, not once per query.
//! [`BufferManager`] models exactly that: a page-capacity-bounded LRU
//! over storage objects with hit/miss/eviction counters.
//!
//! Objects are addressed by [`ObjectId`] — a storage-space tag plus a
//! numeric id — so extents of different index structures, page-packed
//! node records, posting lists, table pages and trie blocks never
//! collide in the pool.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::{Arc, Mutex};

use crate::pages::PageModel;
use crate::rank::{self, Guard, Rank};

/// Storage address spaces sharing one buffer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// `G_APEX` class-node extents (keyed by `XNodeId`).
    ApexExtent,
    /// Page-packed `G_APEX` node records (keyed by page number).
    ApexNode,
    /// Strong-DataGuide node extents (keyed by `DgNodeId`).
    GuideExtent,
    /// Page-packed DataGuide node records (keyed by page number).
    GuideNode,
    /// 1-index block extents (keyed by `BlockId`).
    OneExtent,
    /// Page-packed 1-index node records (keyed by page number).
    OneNode,
    /// Per-label edge posting lists of the naive evaluator (page number).
    LabelPosting,
    /// Page-packed `G_XML` adjacency lists (keyed by page number).
    GraphAdjacency,
    /// Data-table pages (keyed by page number; root page = `u64::MAX`).
    TablePage,
    /// Index Fabric trie blocks (keyed by block id).
    TrieBlock,
    /// Ids with no index structure behind them (pool-level tests).
    Raw,
}

/// A buffered storage object: one extent, record page, table page, …
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId {
    /// Which structure the object belongs to.
    pub space: Space,
    /// Object id within that space.
    pub id: u64,
}

impl ObjectId {
    /// Convenience constructor.
    #[inline]
    pub fn new(space: Space, id: u64) -> Self {
        ObjectId { space, id }
    }
}

/// Counters reported next to the Figure 13–15 numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Touches served from the pool.
    pub hits: u64,
    /// Touches that had to read the object.
    pub misses: u64,
    /// Objects evicted to respect the capacity.
    pub evictions: u64,
    /// Pages read by misses.
    pub pages_read: u64,
}

impl BufferStats {
    /// Hit fraction in `[0, 1]`; 0 when nothing was touched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Sub for BufferStats {
    type Output = BufferStats;
    /// Counter delta (`after - before`), for per-batch reporting.
    fn sub(self, before: BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            pages_read: self.pages_read - before.pages_read,
        }
    }
}

impl Add for BufferStats {
    type Output = BufferStats;
    /// Counter sum, for aggregating per-worker scoped deltas.
    fn add(self, other: BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            pages_read: self.pages_read + other.pages_read,
        }
    }
}

impl AddAssign for BufferStats {
    fn add_assign(&mut self, other: BufferStats) {
        *self = *self + other;
    }
}

impl fmt::Display for BufferStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} buf_pages={} hit_rate={:.1}%",
            self.hits,
            self.misses,
            self.evictions,
            self.pages_read,
            self.hit_rate() * 100.0
        )
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Frame {
    id: ObjectId,
    pages: u64,
    prev: usize,
    next: usize,
}

/// LRU buffer pool over storage objects, capacity counted in pages.
///
/// `touch` returns the pages read (0 on a hit); eviction drops whole
/// objects from the least-recently-used end until the pool fits.
///
/// Only this crate builds a pool: every other crate shares one through
/// a [`BufferHandle`], so no query can keep a private pool whose traffic
/// the cross-query counters never see.
///
/// ```compile_fail,E0624
/// use apex_storage::{BufferManager, PageModel};
/// let private = BufferManager::new(PageModel::default(), 64);
/// ```
#[derive(Debug)]
pub struct BufferManager {
    model: PageModel,
    capacity_pages: u64,
    map: HashMap<ObjectId, usize>,
    frames: Vec<Frame>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    resident_pages: u64,
    stats: BufferStats,
}

impl BufferManager {
    /// A pool holding at most `capacity_pages` pages.
    pub(crate) fn new(model: PageModel, capacity_pages: u64) -> Self {
        assert!(capacity_pages > 0, "buffer capacity must be non-zero");
        BufferManager {
            model,
            capacity_pages,
            map: HashMap::new(),
            frames: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_pages: 0,
            stats: BufferStats::default(),
        }
    }

    /// A pool that never evicts.
    pub(crate) fn unbounded(model: PageModel) -> Self {
        Self::new(model, u64::MAX)
    }

    /// The page model converting object bytes into pages.
    pub fn model(&self) -> &PageModel {
        &self.model
    }

    /// Capacity in pages (`u64::MAX` for unbounded pools).
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Touches object `id` occupying `bytes`; returns pages read
    /// (0 on a hit, `ceil(bytes/page).max(1)` on a miss).
    pub fn touch(&mut self, id: ObjectId, bytes: usize) -> u64 {
        let pages = self.model.pages_for_bytes(bytes).max(1);
        self.touch_pages(id, pages)
    }

    /// [`BufferManager::touch`] with an explicit page count.
    pub fn touch_pages(&mut self, id: ObjectId, pages: u64) -> u64 {
        self.touch_pages_delta(id, pages).pages_read
    }

    /// [`BufferManager::touch_pages`] returning the full counter delta of
    /// this one touch (exactly one of `hits`/`misses` is 1; `evictions`
    /// are attributed to the touch that forced them). Scoped handles sum
    /// these so per-worker deltas partition the pool-level delta.
    #[expect(
        clippy::indexing_slicing,
        reason = "frame slots come from `map`, `free` or `frames.len() - 1` and the LRU links only ever hold live slots, so every index is in `frames`"
    )]
    fn touch_pages_delta(&mut self, id: ObjectId, pages: u64) -> BufferStats {
        let mut delta = BufferStats::default();
        if let Some(&slot) = self.map.get(&id) {
            self.stats.hits += 1;
            delta.hits = 1;
            self.unlink(slot);
            self.push_front(slot);
            return delta;
        }
        self.stats.misses += 1;
        self.stats.pages_read += pages;
        delta.misses = 1;
        delta.pages_read = pages;
        let slot = match self.free.pop() {
            Some(s) => {
                self.frames[s] = Frame {
                    id,
                    pages,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.frames.push(Frame {
                    id,
                    pages,
                    prev: NIL,
                    next: NIL,
                });
                self.frames.len() - 1
            }
        };
        self.map.insert(id, slot);
        self.push_front(slot);
        self.resident_pages += pages;
        // Evict from the cold end; never evict the object just read.
        while self.resident_pages > self.capacity_pages && self.tail != slot {
            let victim = self.tail;
            self.unlink(victim);
            let f = &self.frames[victim];
            self.resident_pages -= f.pages;
            self.map.remove(&f.id);
            self.free.push(victim);
            self.stats.evictions += 1;
            delta.evictions += 1;
        }
        delta
    }

    /// Counters since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Zeroes the counters, keeping pool contents.
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }

    /// Number of resident objects.
    pub fn objects(&self) -> usize {
        self.map.len()
    }

    /// Pages currently held.
    pub fn resident_pages(&self) -> u64 {
        self.resident_pages
    }

    /// Drops every object and zeroes the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.resident_pages = 0;
        self.stats = BufferStats::default();
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`slot` and its LRU neighbours are live frame slots: links are set only by `push_front` to slots in `frames`"
    )]
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.frames[slot].prev, self.frames[slot].next);
        if prev == NIL {
            if self.head == slot {
                self.head = next;
            }
        } else {
            self.frames[prev].next = next;
        }
        if next == NIL {
            if self.tail == slot {
                self.tail = prev;
            }
        } else {
            self.frames[next].prev = prev;
        }
        self.frames[slot].prev = NIL;
        self.frames[slot].next = NIL;
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`slot` is a live frame slot and `head` is NIL or one, checked before use"
    )]
    fn push_front(&mut self, slot: usize) {
        self.frames[slot].prev = NIL;
        self.frames[slot].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// Cloneable, thread-safe handle to a shared [`BufferManager`].
///
/// `run_batch_parallel` workers and the interactive shell share one pool
/// through clones of this handle; all access is behind one mutex (the
/// touch path is a hash probe plus two list splices, so the critical
/// section is tiny).
///
/// Each handle additionally tallies the touches made *through it* in a
/// local [`BufferStats`] counter. `clone()` shares the local counter
/// (clones are the same logical client); [`BufferHandle::scoped`]
/// derives a handle over the same pool with a **fresh** local counter.
/// Because every pool-level counter movement is attributed to exactly
/// one touching handle, the scoped deltas of disjoint handles partition
/// the pool-level delta — the invariant the concurrency stress test
/// pins across index-snapshot swaps.
#[derive(Debug, Clone)]
pub struct BufferHandle {
    pool: Arc<Mutex<BufferManager>>,
    local: Arc<Mutex<BufferStats>>,
}

impl BufferHandle {
    /// Wraps a manager.
    pub(crate) fn new(mgr: BufferManager) -> Self {
        BufferHandle {
            pool: Arc::new(Mutex::new(mgr)),
            local: Arc::new(Mutex::new(BufferStats::default())),
        }
    }

    /// An unbounded pool over the default page model.
    pub fn unbounded() -> Self {
        Self::new(BufferManager::unbounded(PageModel::default()))
    }

    /// A bounded pool over the default page model.
    pub fn with_capacity_pages(pages: u64) -> Self {
        Self::new(BufferManager::new(PageModel::default(), pages))
    }

    /// A handle over the same pool with a fresh local counter: what each
    /// worker of a parallel or adaptive batch holds, so its share of the
    /// pool traffic is separable from the batch total.
    pub fn scoped(&self) -> BufferHandle {
        BufferHandle {
            pool: Arc::clone(&self.pool),
            local: Arc::new(Mutex::new(BufferStats::default())),
        }
    }

    fn lock(&self) -> Guard<'_, BufferManager> {
        // A worker panicking mid-touch leaves only counters in an
        // arguable state; the pool structure is updated atomically per
        // touch, so continuing past a poison is sound.
        rank::lock(&self.pool, Rank::BufferPool)
    }

    fn note_local(&self, delta: BufferStats) {
        let mut local = rank::lock(&self.local, Rank::BufferLocal);
        *local += delta;
    }

    /// Touches one object; returns pages read (0 on hit).
    pub fn touch(&self, id: ObjectId, bytes: usize) -> u64 {
        let delta = {
            let mut mgr = self.lock();
            let pages = mgr.model().pages_for_bytes(bytes).max(1);
            mgr.touch_pages_delta(id, pages)
        };
        self.note_local(delta);
        delta.pages_read
    }

    /// Touches every page overlapping `bytes` (half-open) in a
    /// page-packed `space`; returns pages read. Empty ranges are free.
    pub fn touch_byte_range(&self, space: Space, bytes: std::ops::Range<u64>) -> u64 {
        if bytes.start >= bytes.end {
            return 0;
        }
        let delta = {
            let mut mgr = self.lock();
            let psz = mgr.model().page_size as u64;
            let (first, last) = (bytes.start / psz, (bytes.end - 1) / psz);
            let mut delta = BufferStats::default();
            for page in first..=last {
                delta += mgr.touch_pages_delta(ObjectId::new(space, page), 1);
            }
            delta
        };
        self.note_local(delta);
        delta.pages_read
    }

    /// Counters for touches made through this handle (and its `clone`s)
    /// since creation or the last [`BufferHandle::reset_scoped_stats`].
    /// Handles from [`BufferHandle::scoped`] tally independently.
    pub fn scoped_stats(&self) -> BufferStats {
        *rank::lock(&self.local, Rank::BufferLocal)
    }

    /// Zeroes this handle's local counters (pool counters unaffected).
    pub fn reset_scoped_stats(&self) {
        let mut local = rank::lock(&self.local, Rank::BufferLocal);
        *local = BufferStats::default();
    }

    /// Current counters.
    pub fn stats(&self) -> BufferStats {
        self.lock().stats()
    }

    /// Zeroes the counters, keeping pool contents.
    pub fn reset_stats(&self) {
        self.lock().reset_stats()
    }

    /// Drops every object and zeroes the counters.
    pub fn clear(&self) {
        self.lock().clear()
    }

    /// Resident object count.
    pub fn objects(&self) -> usize {
        self.lock().objects()
    }

    /// Pages currently resident across all objects.
    pub fn resident_pages(&self) -> u64 {
        self.lock().resident_pages()
    }

    /// Capacity in pages (`u64::MAX` for unbounded pools).
    pub fn capacity_pages(&self) -> u64 {
        self.lock().capacity_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(id: u64) -> ObjectId {
        ObjectId::new(Space::ApexExtent, id)
    }

    #[test]
    fn hits_after_first_touch() {
        let mut m = BufferManager::unbounded(PageModel::default());
        assert_eq!(m.touch(ext(1), 10_000), 2);
        assert_eq!(m.touch(ext(1), 10_000), 0);
        assert_eq!(m.touch(ext(2), 1), 1);
        let s = m.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.pages_read), (1, 2, 0, 3));
        assert_eq!(m.objects(), 2);
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn spaces_do_not_collide() {
        let mut m = BufferManager::unbounded(PageModel::default());
        m.touch(ObjectId::new(Space::ApexExtent, 7), 8);
        assert_eq!(m.touch(ObjectId::new(Space::GuideExtent, 7), 8), 1);
        assert_eq!(m.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_cold_objects() {
        let mut m = BufferManager::new(PageModel::default(), 2);
        m.touch(ext(1), 1); // [1]
        m.touch(ext(2), 1); // [2 1]
        m.touch(ext(1), 1); // [1 2] — hit, promotes 1
        m.touch(ext(3), 1); // evicts 2
        assert_eq!(m.touch(ext(1), 1), 0, "1 was promoted, must survive");
        assert_eq!(m.touch(ext(2), 1), 1, "2 was the LRU victim");
        assert!(m.stats().evictions >= 1);
        assert!(m.resident_pages() <= 2);
    }

    #[test]
    fn oversized_object_is_admitted_then_alone() {
        let mut m = BufferManager::new(PageModel::default(), 2);
        m.touch(ext(1), 1);
        m.touch(ext(2), 1);
        // 5-page object exceeds capacity: everything else evicts, the
        // newly read object stays (never evict what was just read).
        assert_eq!(m.touch(ext(3), 5 * 8192), 5);
        assert_eq!(m.objects(), 1);
        assert_eq!(m.touch(ext(3), 5 * 8192), 0);
    }

    #[test]
    fn byte_ranges_touch_pages_once() {
        let h = BufferHandle::unbounded();
        // Pages 0..=2.
        assert_eq!(h.touch_byte_range(Space::GraphAdjacency, 0..3 * 8192), 3);
        // Overlapping range: page 2 is resident, page 3 is new.
        assert_eq!(
            h.touch_byte_range(Space::GraphAdjacency, 2 * 8192..4 * 8192),
            1
        );
        assert_eq!(h.touch_byte_range(Space::GraphAdjacency, 5..5), 0);
        let s = h.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn handle_is_shareable_across_threads() {
        let h = BufferHandle::with_capacity_pages(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        h.touch(ObjectId::new(Space::TablePage, (t * 100 + i) % 32), 100);
                    }
                });
            }
        });
        let s = h.stats();
        assert_eq!(s.hits + s.misses, 400);
        // 32 distinct objects, capacity 64 pages: all fit, so each
        // object missed exactly once regardless of interleaving.
        assert_eq!(s.misses, 32);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn scoped_handles_partition_pool_delta() {
        let h = BufferHandle::with_capacity_pages(8);
        let before = h.stats();
        let workers: Vec<BufferHandle> = (0..4).map(|_| h.scoped()).collect();
        std::thread::scope(|scope| {
            for (t, w) in workers.iter().enumerate() {
                scope.spawn(move || {
                    for i in 0..50u64 {
                        w.touch(
                            ObjectId::new(Space::TablePage, (t as u64 * 3 + i) % 16),
                            100,
                        );
                    }
                });
            }
        });
        let pool_delta = h.stats() - before;
        let summed = workers
            .iter()
            .map(|w| w.scoped_stats())
            .fold(BufferStats::default(), |a, b| a + b);
        assert_eq!(
            summed, pool_delta,
            "scoped deltas must partition the pool delta"
        );
        assert_eq!(summed.hits + summed.misses, 200);
        // The parent handle made no touches of its own.
        assert_eq!(h.scoped_stats(), BufferStats::default());
    }

    #[test]
    fn clones_share_a_local_counter_scoped_does_not() {
        let h = BufferHandle::unbounded();
        let c = h.clone();
        let s = h.scoped();
        h.touch(ext(1), 1);
        c.touch(ext(2), 1);
        s.touch(ext(3), 1);
        assert_eq!(
            h.scoped_stats().misses,
            2,
            "clone tallies into the same counter"
        );
        assert_eq!(s.scoped_stats().misses, 1);
        s.reset_scoped_stats();
        assert_eq!(s.scoped_stats(), BufferStats::default());
        // Pool-level counters saw everything.
        assert_eq!(h.stats().misses, 3);
    }

    #[test]
    fn stats_delta_and_display() {
        let h = BufferHandle::unbounded();
        h.touch(ext(1), 1);
        let before = h.stats();
        h.touch(ext(1), 1);
        h.touch(ext(2), 1);
        let d = h.stats() - before;
        assert_eq!((d.hits, d.misses), (1, 1));
        assert_eq!(d.hit_rate(), 0.5);
        assert!(format!("{d}").contains("hit_rate=50.0%"));
    }

    /// LRU buffer-manager laws: hits + misses partition the touches, the
    /// resident set respects capacity, and an unbounded pool never evicts.
    mod bufmgr_laws {
        use super::super::{BufferManager, ObjectId, Space};
        use crate::PageModel;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

            #[test]
            fn capacity_and_counter_invariants(
                capacity in 1u64..12,
                touches in proptest::collection::vec((0u64..16, 0usize..40_000), 1..120),
            ) {
                let mut pool = BufferManager::new(PageModel::default(), capacity);
                let mut max_obj = 0u64;
                for &(id, bytes) in &touches {
                    pool.touch(ObjectId::new(Space::Raw, id), bytes);
                    // A just-missed object is never evicted, so residency may
                    // exceed capacity only when one object is itself larger
                    // than the pool.
                    max_obj = max_obj.max(pool.model().pages_for_bytes(bytes).max(1));
                    prop_assert!(pool.resident_pages() <= capacity.max(max_obj));
                }
                let s = pool.stats();
                prop_assert_eq!(s.hits + s.misses, touches.len() as u64);
                prop_assert_eq!(s.pages_read > 0, s.misses > 0);
            }

            #[test]
            fn unbounded_pool_never_evicts_and_rereads(
                touches in proptest::collection::vec((0u64..16, 0usize..40_000), 1..120),
            ) {
                let mut pool = BufferManager::unbounded(PageModel::default());
                for &(id, bytes) in &touches {
                    pool.touch(ObjectId::new(Space::Raw, id), bytes);
                }
                let distinct: std::collections::HashSet<u64> =
                    touches.iter().map(|&(id, _)| id).collect();
                let s = pool.stats();
                prop_assert_eq!(s.evictions, 0);
                // Every distinct object misses exactly once.
                prop_assert_eq!(s.misses, distinct.len() as u64);
                prop_assert_eq!(pool.objects(), distinct.len());
            }
        }
    }
}
