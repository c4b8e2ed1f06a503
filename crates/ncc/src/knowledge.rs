//! KT0 knowledge tracking.
//!
//! In NCC0 a node may address only IDs it has *learned*. Knowledge spreads in
//! exactly two ways: receiving a message reveals the sender's ID, and a
//! message payload may carry explicit addresses. The engine maintains each
//! node's knowledge set and checks every outgoing message against it, so a
//! clean strict run is a machine-checked proof that the protocol is a legal
//! NCC0 algorithm.
//!
//! ## Storage: per-node sorted regions in a paged arena
//!
//! The tracker is engine-native rather than collection-backed: all learned
//! IDs live in **one** arena, and node `i` owns a contiguous region of it,
//! kept sorted. `knows` is a binary search over the node's region (no
//! hashing, cache-linear); `learn` of an already-known ID is the same
//! search and touches no memory. A new ID is inserted in place (one
//! `copy_within` inside the region) while the region has spare capacity;
//! when it is full, the region is re-homed to fresh arena space with twice
//! the capacity. Region capacities are powers of two, so the allocated
//! capacity — live regions plus abandoned predecessors — is bounded by
//! ~3x the live knowledge, and once every node's knowledge has stopped
//! growing (the steady state of every bounded-knowledge protocol) the
//! tracker performs **zero allocations**: the strict-KT0 probe in
//! `crates/ncc/tests/zero_alloc.rs` locks that in.
//!
//! The arena is a list of fixed-size **pages**, not one growable vector.
//! The first page holds `MIN_REGION` IDs per node, enough for path
//! seeding; later regions are carved from `PAGE`-ID pages appended as
//! needed, and a region larger than a page gets a page of its own.
//! Growth never reallocates or copies what is already stored, and every
//! page but the oversized ones has one of two sizes, so the allocator
//! reuses a finished run's pages for the next run instead of leaving the
//! holes a geometrically regrown vector leaves behind.

use crate::message::NodeId;

/// Smallest region capacity handed to a node on its first learned ID.
const MIN_REGION: usize = 4;

/// Size in IDs of every arena page after the first (256 KiB).
const PAGE: usize = 1 << 15;

/// Seeds the initial NCC0 knowledge along the directed path `G_k`, but
/// only for *participating* nodes: each participating node learns its own
/// ID and the ID of the **next participating** node on the path (dead or
/// filtered indices are skipped entirely, consistent with the engines'
/// `alive` masks — they are not on the path, so nobody's initial knowledge
/// may point at them).
#[cfg(any(test, feature = "threaded"))]
pub(crate) fn seed_path(
    tracker: &mut KnowledgeTracker,
    ids: &[NodeId],
    participating: impl Fn(usize) -> bool,
) {
    if !tracker.enabled() {
        return;
    }
    let mut prev: Option<usize> = None;
    for (i, &id) in ids.iter().enumerate() {
        if !participating(i) {
            continue;
        }
        tracker.learn(i, id);
        if let Some(p) = prev {
            // Node p's out-neighbor on the filtered path is node i.
            tracker.learn(p, id);
        }
        prev = Some(i);
    }
}

/// [`seed_path`] for a tracker indexed by the batched engine's **dense**
/// 0..k participant space: the j-th participating index of `ids` (in path
/// order) owns tracker row j. Used by the batched engine, whose per-node
/// arrays are sized to the participant count k on masked runs; the
/// threaded oracle keeps full-width rows and seeds with [`seed_path`].
pub(crate) fn seed_path_dense(
    tracker: &mut KnowledgeTracker,
    ids: &[NodeId],
    participating: impl Fn(usize) -> bool,
) {
    if !tracker.enabled() {
        return;
    }
    let mut dense = 0usize;
    for (i, &id) in ids.iter().enumerate() {
        if !participating(i) {
            continue;
        }
        tracker.learn(dense, id);
        if dense > 0 {
            // The previous participant's out-neighbor on the path is this
            // node.
            tracker.learn(dense - 1, id);
        }
        dense += 1;
    }
}

/// [`seed_path_dense`] for the ownership-sharded engine, where the dense
/// 0..k participant space is split across per-shard trackers: shard `s`
/// owns dense indices `bases[s]..bases[s + 1]` (with an implicit final
/// bound of k) and its tracker rows are indexed shard-locally. The one
/// boundary case the per-shard view crosses is the path link itself: the
/// last participant of shard `s` learns the ID of the first participant
/// of shard `s + 1`, written into shard `s`'s tracker.
pub(crate) fn seed_path_sharded(
    trackers: &mut [KnowledgeTracker],
    bases: &[usize],
    ids: &[NodeId],
    participating: impl Fn(usize) -> bool,
) {
    if trackers.first().is_none_or(|t| !t.enabled()) {
        return;
    }
    debug_assert_eq!(trackers.len(), bases.len());
    let owner = |d: usize| {
        let s = bases.partition_point(|&b| b <= d) - 1;
        (s, d - bases[s])
    };
    let mut dense = 0usize;
    for (i, &id) in ids.iter().enumerate() {
        if !participating(i) {
            continue;
        }
        let (s, local) = owner(dense);
        trackers[s].learn(local, id);
        if dense > 0 {
            // The previous participant's out-neighbor on the path is this
            // node — it may be owned by the previous shard.
            let (ps, plocal) = owner(dense - 1);
            trackers[ps].learn(plocal, id);
        }
        dense += 1;
    }
}

/// One node's region of the knowledge arena.
#[derive(Clone, Copy, Debug, Default)]
struct Region {
    /// Arena page holding the region.
    page: u32,
    /// Offset of the region within its page.
    start: u32,
    /// IDs currently stored (sorted ascending).
    len: u32,
    /// Region capacity (power of two; 0 before the first learn).
    cap: u32,
}

impl Region {
    #[inline]
    fn span(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Per-node knowledge sets, indexed by the engine's dense node index,
/// stored as sorted regions of a paged arena (see module docs).
#[derive(Debug)]
pub struct KnowledgeTracker {
    regions: Vec<Region>,
    /// Arena pages; regions are carved from the open page front to back.
    pages: Vec<Box<[NodeId]>>,
    /// The page new regions are carved from, and its fill mark.
    open: usize,
    used: usize,
    /// Sum of the capacities of every region handed out.
    allocated: usize,
    enabled: bool,
}

impl KnowledgeTracker {
    /// Creates a tracker for `n` nodes. When `enabled` is false all queries
    /// answer "known" and no memory is spent.
    pub fn new(n: usize, enabled: bool) -> Self {
        KnowledgeTracker {
            regions: if enabled {
                vec![Region::default(); n]
            } else {
                Vec::new()
            },
            // Path seeding gives most nodes 2-3 IDs; a first page of one
            // MIN_REGION block per node makes the seeding phase a single
            // allocation.
            pages: if enabled {
                vec![vec![0; MIN_REGION * n].into_boxed_slice()]
            } else {
                Vec::new()
            },
            open: 0,
            used: 0,
            allocated: 0,
            enabled,
        }
    }

    /// Whether tracking is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Node `node`'s sorted learned IDs.
    #[inline]
    fn region_slice(&self, node: usize) -> &[NodeId] {
        let r = self.regions[node];
        &self.pages[r.page as usize][r.span()]
    }

    /// Grants `node` knowledge of `id` (initial knowledge or learning).
    pub fn learn(&mut self, node: usize, id: NodeId) {
        if !self.enabled {
            return;
        }
        let pos = match self.region_slice(node).binary_search(&id) {
            Ok(_) => return, // already known: no writes, no allocation
            Err(pos) => pos,
        };
        let mut r = self.regions[node];
        if r.len == r.cap {
            r = self.rehome(r);
        }
        // Sorted insert: shift the tail of the region right by one.
        let region = &mut self.pages[r.page as usize][r.start as usize..][..r.len as usize + 1];
        region.copy_within(pos..r.len as usize, pos + 1);
        region[pos] = id;
        r.len += 1;
        self.regions[node] = r;
    }

    /// Moves a full region to fresh arena space with double capacity (the
    /// abandoned predecessor is never reclaimed — the geometric growth
    /// bounds total waste by the live size).
    fn rehome(&mut self, r: Region) -> Region {
        let cap = (r.cap as usize * 2).max(MIN_REGION);
        let (page, start) = if cap > PAGE {
            self.pages.push(vec![0; cap].into_boxed_slice());
            (self.pages.len() - 1, 0)
        } else {
            if self.used + cap > self.pages[self.open].len() {
                self.pages.push(vec![0; PAGE].into_boxed_slice());
                self.open = self.pages.len() - 1;
                self.used = 0;
            }
            self.used += cap;
            (self.open, self.used - cap)
        };
        self.allocated += cap;
        let moved = Region {
            page: u32::try_from(page).expect("knowledge arena page count fits u32"),
            start: u32::try_from(start).expect("knowledge page offset fits u32"),
            len: r.len,
            cap: u32::try_from(cap).expect("knowledge region capacity fits u32"),
        };
        let (from, to) = (r.page as usize, page);
        if from == to {
            self.pages[to].copy_within(r.span(), start);
        } else {
            let [old, new] = self
                .pages
                .get_disjoint_mut([from, to])
                .expect("distinct pages");
            new[start..][..r.len as usize].copy_from_slice(&old[r.span()]);
        }
        moved
    }

    /// Does `node` know `id`?
    pub fn knows(&self, node: usize, id: NodeId) -> bool {
        !self.enabled || self.region_slice(node).binary_search(&id).is_ok()
    }

    /// Number of IDs `node` has learned (0 when tracking is off).
    pub fn knowledge_size(&self, node: usize) -> usize {
        if self.enabled {
            self.regions[node].len as usize
        } else {
            0
        }
    }

    /// Allocated arena size in IDs: the capacities of live regions plus
    /// abandoned predecessors (page tails not yet carved are not counted,
    /// so the figure does not depend on the page size). Surfaced through
    /// [`EngineStats`](crate::EngineStats) so tests can assert that masked
    /// runs size knowledge storage by participant count, not network size.
    pub(crate) fn arena_len(&self) -> usize {
        self.allocated
    }

    /// A raw view over the regions and the arena pages for the batched
    /// engine's parallel learn sweep. Valid only while the tracker is not
    /// otherwise borrowed; see [`TrackerShard::try_learn`] for the aliasing
    /// contract.
    pub(crate) fn shard(&mut self) -> TrackerShard {
        TrackerShard {
            regions: self.regions.as_mut_ptr(),
            pages: self.pages.as_mut_ptr(),
        }
    }
}

/// Shared-arena view for the parallel learn sweep.
///
/// The sweep partitions slots into contiguous chunks, one worker per
/// chunk, so no two workers ever touch the same node's region — and
/// regions of distinct nodes occupy disjoint arena spans by construction,
/// so in-place inserts from different workers never alias. The one
/// operation that moves memory *between* regions (re-homing a full region
/// to fresh arena space, which may append a page) is excluded:
/// [`TrackerShard::try_learn`] refuses it and the engine journals the
/// learn for a sequential replay after the pass. Region contents are
/// sorted **sets**, so the replay order cannot change what any node knows
/// — only the (unobservable) arena layout.
pub(crate) struct TrackerShard {
    regions: *mut Region,
    pages: *mut Box<[NodeId]>,
}

// SAFETY: `regions` — workers read and write disjoint node entries (see
// struct docs). `pages` — the page list is neither grown nor dropped while a
// view is live (only `learn`, which needs `&mut KnowledgeTracker`, appends
// pages), and workers write disjoint spans of the pages through raw place
// projections. Both pointers are otherwise plain addresses.
unsafe impl Send for TrackerShard {}
unsafe impl Sync for TrackerShard {}

impl TrackerShard {
    /// Learns `id` for `node` in place when the node's region has spare
    /// capacity; returns `false` when the region is full and the learn
    /// must be replayed through [`KnowledgeTracker::learn`] (the only
    /// path that re-homes regions and grows the arena).
    ///
    /// # Safety
    ///
    /// `node` must be in bounds and the caller must hold exclusive access
    /// to `node`'s region for the duration of the call.
    pub(crate) unsafe fn try_learn(&self, node: usize, id: NodeId) -> bool {
        let region = &mut *self.regions.add(node);
        // A raw place projection through the page's box: no reference to
        // the page is formed, since other workers write other regions of
        // the same page concurrently.
        let page = std::ptr::addr_of_mut!(**self.pages.add(region.page as usize));
        let base = page.cast::<NodeId>().add(region.start as usize);
        let len = region.len as usize;
        let slice = std::slice::from_raw_parts(base, len);
        let pos = match slice.binary_search(&id) {
            Ok(_) => return true, // already known: no writes
            Err(pos) => pos,
        };
        if region.len == region.cap {
            return false; // needs re-homing: defer to the sequential replay
        }
        // Sorted insert inside the region: shift the tail right by one.
        let at = base.add(pos);
        std::ptr::copy(at, at.add(1), len - pos);
        at.write(id);
        region.len += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_skips_filtered_indices() {
        let ids: Vec<NodeId> = vec![10, 20, 30, 40, 50];
        let mut t = KnowledgeTracker::new(5, true);
        // Nodes 1 and 3 are filtered out of the network.
        seed_path(&mut t, &ids, |i| i != 1 && i != 3);
        // Participants know themselves and their next *participating*
        // successor.
        assert!(t.knows(0, 10) && t.knows(0, 30));
        assert!(t.knows(2, 30) && t.knows(2, 50));
        assert!(t.knows(4, 50));
        // Nobody is seeded with a filtered node's ID, and filtered nodes
        // learn nothing.
        assert!(!t.knows(0, 20));
        assert!(!t.knows(2, 40));
        assert_eq!(t.knowledge_size(1), 0);
        assert_eq!(t.knowledge_size(3), 0);
        // The tail learns only itself.
        assert_eq!(t.knowledge_size(4), 1);
    }

    #[test]
    fn dense_seeding_renumbers_participants_in_path_order() {
        let ids: Vec<NodeId> = vec![10, 20, 30, 40, 50];
        // Participants 0, 2, 4 own dense rows 0, 1, 2 — the tracker is
        // sized to the participant count, as in a masked batched run.
        let mut t = KnowledgeTracker::new(3, true);
        seed_path_dense(&mut t, &ids, |i| i != 1 && i != 3);
        assert!(t.knows(0, 10) && t.knows(0, 30));
        assert!(t.knows(1, 30) && t.knows(1, 50));
        // The tail learns only itself, and nobody learns a filtered ID.
        assert_eq!(t.knowledge_size(2), 1);
        assert!(t.knows(2, 50));
        assert!(!t.knows(0, 20) && !t.knows(1, 40));
    }

    #[test]
    fn sharded_seeding_matches_dense_across_the_boundary() {
        let ids: Vec<NodeId> = vec![10, 20, 30, 40, 50, 60];
        // Participants 0, 2, 3, 5 own dense rows 0..4, split 2/2 across
        // two shards — the path link 1 -> 2 crosses the shard boundary.
        let participating = |i: usize| i != 1 && i != 4;
        let mut dense = KnowledgeTracker::new(4, true);
        seed_path_dense(&mut dense, &ids, participating);
        let mut shards = vec![
            KnowledgeTracker::new(2, true),
            KnowledgeTracker::new(2, true),
        ];
        seed_path_sharded(&mut shards, &[0, 2], &ids, participating);
        for d in 0..4usize {
            let (s, local) = (d / 2, d % 2);
            assert_eq!(
                dense.knowledge_size(d),
                shards[s].knowledge_size(local),
                "row {d}"
            );
            for &id in &ids {
                assert_eq!(
                    dense.knows(d, id),
                    shards[s].knows(local, id),
                    "row {d} id {id}"
                );
            }
        }
    }

    #[test]
    fn dense_seeding_all_alive_matches_full_seeding() {
        let ids: Vec<NodeId> = vec![7, 8, 9];
        let mut full = KnowledgeTracker::new(3, true);
        let mut dense = KnowledgeTracker::new(3, true);
        seed_path(&mut full, &ids, |_| true);
        seed_path_dense(&mut dense, &ids, |_| true);
        for node in 0..3 {
            assert_eq!(full.knowledge_size(node), dense.knowledge_size(node));
            for &id in &ids {
                assert_eq!(full.knows(node, id), dense.knows(node, id));
            }
        }
    }

    #[test]
    fn shard_learns_in_place_and_defers_rehoming() {
        let mut t = KnowledgeTracker::new(2, true);
        t.learn(0, 10); // first learn grants node 0 a MIN_REGION block
        let shard = t.shard();
        unsafe {
            assert!(shard.try_learn(0, 5));
            assert!(shard.try_learn(0, 7));
            assert!(shard.try_learn(0, 7)); // idempotent, still in place
            assert!(shard.try_learn(0, 12));
            // Region now full: the next insert needs a re-home, which the
            // shard refuses.
            assert!(!shard.try_learn(0, 99));
            // A never-learned node has a zero-capacity region: defers too.
            assert!(!shard.try_learn(1, 1));
        }
        // The deferred learn replays through the owning tracker.
        t.learn(0, 99);
        for id in [5, 7, 10, 12, 99] {
            assert!(t.knows(0, id), "lost id {id}");
        }
        assert_eq!(t.knowledge_size(0), 5);
        assert_eq!(t.knowledge_size(1), 0);
    }

    #[test]
    fn paged_growth_keeps_sets_and_counts_region_capacities() {
        // Node 0 outgrows a page (its last region gets a page of its own)
        // while nodes 1 and 2 keep carving regions from shared pages.
        let mut t = KnowledgeTracker::new(3, true);
        let big = PAGE as u64 + 100;
        for k in 0..big {
            t.learn(0, 2 * k);
            if k % 64 == 0 {
                t.learn(1, k);
                t.learn(2, 3 * k + 1);
            }
        }
        assert!(t.pages.len() > 2, "growth must append pages");
        assert_eq!(t.pages.last().unwrap().len(), 2 * PAGE, "oversized region");
        assert_eq!(t.knowledge_size(0), big as usize);
        for k in 0..big {
            assert!(t.knows(0, 2 * k), "node 0 lost {}", 2 * k);
        }
        assert!(!t.knows(0, 1));
        let small = big.div_ceil(64) as usize;
        assert_eq!((t.knowledge_size(1), t.knowledge_size(2)), (small, small));
        // Every region's capacity doubles from MIN_REGION, so the arena
        // size is the sum of each node's doubling chain.
        let chain = |len: usize| {
            let mut cap = MIN_REGION;
            let mut sum = cap;
            while cap < len {
                cap *= 2;
                sum += cap;
            }
            sum
        };
        assert_eq!(t.arena_len(), chain(big as usize) + 2 * chain(small));
        // The parallel-sweep view writes into regions on later pages too.
        let shard = t.shard();
        // SAFETY: node 1 is in bounds and this thread is the only user.
        unsafe {
            assert!(shard.try_learn(1, 1_000_000_001));
        }
        assert!(t.knows(1, 1_000_000_001));
        assert_eq!(t.knowledge_size(1), small + 1);
    }

    #[test]
    fn seeding_all_alive_matches_plain_path() {
        let ids: Vec<NodeId> = vec![7, 8, 9];
        let mut t = KnowledgeTracker::new(3, true);
        seed_path(&mut t, &ids, |_| true);
        assert!(t.knows(0, 7) && t.knows(0, 8) && !t.knows(0, 9));
        assert!(t.knows(1, 8) && t.knows(1, 9));
        assert_eq!(t.knowledge_size(2), 1);
    }

    #[test]
    fn disabled_tracker_knows_everything() {
        let t = KnowledgeTracker::new(4, false);
        assert!(t.knows(0, 999));
        assert_eq!(t.knowledge_size(0), 0);
    }

    #[test]
    fn learning_is_per_node() {
        let mut t = KnowledgeTracker::new(2, true);
        t.learn(0, 7);
        assert!(t.knows(0, 7));
        assert!(!t.knows(1, 7));
        assert_eq!(t.knowledge_size(0), 1);
        assert_eq!(t.knowledge_size(1), 0);
    }

    #[test]
    fn learning_is_idempotent() {
        let mut t = KnowledgeTracker::new(1, true);
        t.learn(0, 7);
        t.learn(0, 7);
        assert_eq!(t.knowledge_size(0), 1);
    }

    #[test]
    fn regions_grow_and_stay_sorted_under_interleaved_learning() {
        // Interleave learning across nodes so regions are re-homed while
        // other regions sit between them in the arena.
        let mut t = KnowledgeTracker::new(3, true);
        for k in 0..64u64 {
            // Descending and alternating inserts exercise every insert
            // position.
            t.learn((k % 3) as usize, 1_000 - k);
            t.learn(((k + 1) % 3) as usize, 500 + (k % 7) * 13);
        }
        for node in 0..3 {
            let mut seen = Vec::new();
            for k in 0..64u64 {
                if (k % 3) as usize == node {
                    seen.push(1_000 - k);
                }
                if ((k + 1) % 3) as usize == node {
                    seen.push(500 + (k % 7) * 13);
                }
            }
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(t.knowledge_size(node), seen.len(), "node {node}");
            for &id in &seen {
                assert!(t.knows(node, id), "node {node} lost id {id}");
            }
            assert!(!t.knows(node, 2), "node {node} knows an unlearned id");
        }
    }
}
