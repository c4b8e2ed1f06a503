//! Allocation-free routing support: dense ID resolution and the reusable
//! counting-sort buffers of the batched engine.
//!
//! The batched executor routes a round in two passes over the node
//! outboxes: pass one validates each envelope and counts messages per
//! destination index, pass two scatters envelopes into a flat arena at
//! offsets derived from a prefix sum over the counts (a stable counting
//! sort keyed by destination — stable because sources are visited in dense
//! index order, which is exactly the threaded engine's canonical routing
//! order). Every buffer involved — counts, bucket starts, scatter cursors
//! and the envelope arena — lives in [`RouteBuffers`] and is reused across
//! rounds: after the arena has grown to the high-water message count, the
//! routing hot path performs no heap allocation at all.

use crate::config::IdAssignment;
use crate::error::Violation;
use crate::message::NodeId;
use crate::wire::WireEnvelope;
use rayon::prelude::*;

/// Raw pointer to a `u32` buffer written by parallel tasks at disjoint
/// indices (chunk sums / per-worker cursor rows partitioned by
/// destination range, and the delivery sweep's per-chunk totals).
pub(crate) struct RawU32(pub(crate) *mut u32);
unsafe impl Send for RawU32 {}
unsafe impl Sync for RawU32 {}

impl RawU32 {
    /// # Safety
    ///
    /// `at` must be owned exclusively by the calling task.
    pub(crate) unsafe fn write(&self, at: usize, v: u32) {
        unsafe { self.0.add(at).write(v) };
    }
}

/// Raw pointer to a table of envelope rows (the sharded engine's
/// `(src-shard, dst-shard)` exchange cells), written by parallel tasks at
/// disjoint row ranges: source shard `s` touches only rows
/// `s * shards..(s + 1) * shards` during its seal.
pub(crate) struct RawRows(pub(crate) *mut Vec<WireEnvelope>);
unsafe impl Send for RawRows {}
unsafe impl Sync for RawRows {}

impl RawRows {
    /// # Safety
    ///
    /// Row `at` must be owned exclusively by the calling task.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn row(&self, at: usize) -> &mut Vec<WireEnvelope> {
        unsafe { &mut *self.0.add(at) }
    }
}

/// Raw pointer to the queue span table, read and written by the parallel
/// delivery sweep at disjoint node indices (each dense index belongs to
/// exactly one slot, and slots are partitioned into disjoint chunks).
pub(crate) struct RawSpans(pub(crate) *mut (u32, u32));
unsafe impl Send for RawSpans {}
unsafe impl Sync for RawSpans {}

impl RawSpans {
    /// # Safety
    ///
    /// `at` must be owned exclusively by the calling task.
    pub(crate) unsafe fn read(&self, at: usize) -> (u32, u32) {
        unsafe { self.0.add(at).read() }
    }

    /// # Safety
    ///
    /// `at` must be owned exclusively by the calling task.
    pub(crate) unsafe fn write(&self, at: usize, v: (u32, u32)) {
        unsafe { self.0.add(at).write(v) };
    }
}

/// Per-worker `(counts, cursors)` row base pointers for the
/// destination-range-parallel cursor derivation: every parallel task
/// touches a disjoint destination range of *every* row, so the aliasing
/// is sound by construction.
struct RowTable(Vec<(*const u32, *mut u32)>);
unsafe impl Send for RowTable {}
unsafe impl Sync for RowTable {}

impl RowTable {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Sync` wrapper, not the raw-pointer `Vec` inside it.
    fn rows(&self) -> &[(*const u32, *mut u32)] {
        &self.0
    }
}

/// Maps node IDs to dense indices in O(1).
///
/// Sequential networks (`ids[i] == i + 1`) resolve arithmetically;
/// random-ID networks resolve through a deterministic open-addressing
/// table built once with the network: a power-of-two array of at least
/// `2n` slots, each holding a dense index (or [`EMPTY_SLOT`]), probed
/// linearly from a multiplicative (Fibonacci) hash of the ID. A slot's key
/// is read back from the path-order ID copy, so the whole resolver costs
/// 16–24 bytes per node (8 for the ID, 8–16 for the slots). No
/// `RandomState` is involved: the layout is a pure function of the IDs. Either way resolution happens once per
/// *send* (in [`RoundCtx::send`](crate::RoundCtx::send)), so the routing
/// passes themselves work purely on dense `u32` indices.
#[derive(Debug)]
pub(crate) enum Resolver {
    /// IDs are `1..=n` in path order.
    Sequential { n: usize },
    /// Linear-probing table of dense indices over random IDs.
    Table {
        /// IDs in path order (`ids[i]` is the key of index `i`).
        ids: Box<[NodeId]>,
        /// `2^bits` slots, `bits = 64 - shift`; at most half are full, so
        /// every probe sequence ends at an empty slot.
        slots: Box<[u32]>,
        /// Right shift that turns the 64-bit hash into a slot number.
        shift: u32,
    },
}

/// Marks an unoccupied slot of [`Resolver::Table`].
const EMPTY_SLOT: u32 = u32::MAX;

/// The slot where the probe for `id` starts: Fibonacci hashing, i.e. the
/// top `64 - shift` bits of `id · 2^64/φ`.
#[inline]
fn home_slot(id: NodeId, shift: u32) -> usize {
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

impl Resolver {
    /// Builds the resolver for `ids` (in path order).
    pub(crate) fn build(ids: &[NodeId], assignment: IdAssignment) -> Self {
        match assignment {
            IdAssignment::Sequential => Resolver::Sequential { n: ids.len() },
            IdAssignment::Random => {
                let bits = (2 * ids.len()).max(2).next_power_of_two().trailing_zeros();
                let mut slots = vec![EMPTY_SLOT; 1 << bits].into_boxed_slice();
                let mask = slots.len() - 1;
                let shift = 64 - bits;
                for (i, &id) in ids.iter().enumerate() {
                    let mut at = home_slot(id, shift);
                    while slots[at] != EMPTY_SLOT {
                        at = (at + 1) & mask;
                    }
                    slots[at] = i as u32;
                }
                Resolver::Table {
                    ids: ids.into(),
                    slots,
                    shift,
                }
            }
        }
    }

    /// The dense index of `id`, or `None` if no such node exists.
    #[inline]
    pub(crate) fn index_of(&self, id: NodeId) -> Option<u32> {
        match self {
            Resolver::Sequential { n } => (1..=*n as u64).contains(&id).then(|| (id - 1) as u32),
            Resolver::Table { ids, slots, shift } => {
                let mask = slots.len() - 1;
                let mut at = home_slot(id, *shift);
                loop {
                    let i = slots[at];
                    if i == EMPTY_SLOT {
                        return None;
                    }
                    if ids[i as usize] == id {
                        return Some(i);
                    }
                    at = (at + 1) & mask;
                }
            }
        }
    }
}

/// One routing worker's private accumulators for the parallel
/// validate-and-count and scatter passes. Rows are reused across rounds;
/// at steady state a clean round touches no allocator through them
/// (`violations` only grows when violations actually occur).
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch {
    /// Messages per destination index from this worker's slot range.
    pub(crate) counts: Vec<u32>,
    /// Scatter cursor per destination index (absolute arena offsets).
    pub(crate) cursors: Vec<u32>,
    /// Violations from this worker's slot range, in canonical (dense
    /// source index) order — replayed sequentially after the pass so
    /// violation accounting stays bit-identical to a sequential walk.
    pub(crate) violations: Vec<Violation>,
    /// Deliverable messages seen by this worker.
    pub(crate) round_messages: u64,
    /// Message volume (in words) seen by this worker.
    pub(crate) words: u64,
    /// Largest per-node send burst in this worker's range.
    pub(crate) max_sent: usize,
    /// Largest per-node delivery in this worker's range (the receive
    /// sweeps' half of the max fold; managed by the sweep, not
    /// [`WorkerScratch::begin_round`]).
    pub(crate) max_received: usize,
    /// Learns the parallel learn sweep could not apply in place (the
    /// node's region was full and needs re-homing, the one operation that
    /// grows the arena) — replayed sequentially after the pass. Empty at
    /// steady state, so a settled run never allocates through it.
    pub(crate) learns: Vec<(u32, NodeId)>,
}

impl WorkerScratch {
    /// Resets the per-round accumulators (counts are sized on first use).
    pub(crate) fn begin_round(&mut self, n: usize) {
        if self.counts.len() != n {
            self.counts = vec![0; n];
            self.cursors = vec![0; n];
        } else {
            self.counts.fill(0);
        }
        self.violations.clear();
        self.round_messages = 0;
        self.words = 0;
        self.max_sent = 0;
    }
}

/// The reusable buffers of one batched network's routing pass.
#[derive(Debug)]
pub(crate) struct RouteBuffers {
    /// Messages per destination index, this round.
    pub(crate) counts: Vec<u32>,
    /// Bucket start offset per destination index (prefix sums of counts).
    pub(crate) starts: Vec<u32>,
    /// Scatter cursor per destination index.
    cursor: Vec<u32>,
    /// Flat envelope arena; bucket `i` is `arena[starts[i]..][..counts[i]]`.
    pub(crate) arena: Vec<WireEnvelope>,
    /// Per-worker scratch rows for the parallel routing passes (empty
    /// until the first multi-worker round).
    pub(crate) scratch: Vec<WorkerScratch>,
    /// Per-destination-chunk message totals of the parallel fold (phase A
    /// writes them, phase B prefix-sums them into chunk base offsets).
    chunk_sums: Vec<u32>,
}

impl RouteBuffers {
    pub(crate) fn new(n: usize) -> Self {
        RouteBuffers {
            counts: vec![0; n],
            starts: vec![0; n],
            cursor: vec![0; n],
            arena: Vec::new(),
            scratch: Vec::new(),
            chunk_sums: Vec::new(),
        }
    }

    /// Ensures `workers` scratch rows exist; each worker resets its own
    /// row inside the parallel pass (`WorkerScratch::begin_round`), so the
    /// coordinating thread does no per-round `O(workers x n)` zero-fill.
    pub(crate) fn begin_parallel_round(&mut self, workers: usize) {
        if self.scratch.len() < workers {
            self.scratch.resize_with(workers, WorkerScratch::default);
        }
    }

    /// Folds the per-worker counts into the global per-destination counts
    /// and computes every worker's absolute scatter cursors: worker `w`'s
    /// region of bucket `d` starts after the regions of workers `< w`,
    /// which keeps bucket contents in dense source order — the exact
    /// order a sequential walk produces, for any worker count.
    ///
    /// Both the fold and the cursor derivation are parallelized over
    /// **destination ranges** (the former `O(workers x n)` coordinator
    /// pass was the routing bottleneck on dense rounds): phase A sums the
    /// worker rows per destination chunk, phase B is an `O(workers)`
    /// prefix over the chunk totals, and phase C derives `starts` and
    /// every worker's cursors within each chunk independently. Only a
    /// pointer-table allocation of `O(workers)` happens per call — and the
    /// adaptive router invokes this on dense rounds only, where it is
    /// noise against the message volume.
    ///
    /// Returns the round's total message count (and sizes the arena).
    pub(crate) fn seal_parallel(&mut self, workers: usize) -> usize {
        let n = self.counts.len();
        let chunk = n.div_ceil(workers).max(1);
        let nchunks = n.div_ceil(chunk).max(1);
        if self.chunk_sums.len() < nchunks {
            self.chunk_sums.resize(nchunks, 0);
        }

        // Phase A: counts[d] = Σ_w row_w[d], one destination chunk per
        // task, recording each chunk's message total.
        {
            let scratch = &self.scratch;
            let chunk_sums = RawU32(self.chunk_sums.as_mut_ptr());
            self.counts
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(c, counts_chunk)| {
                    let lo = c * chunk;
                    let mut sum: u32 = 0;
                    for (j, total) in counts_chunk.iter_mut().enumerate() {
                        let d = lo + j;
                        let mut t: u32 = 0;
                        for row in &scratch[..workers] {
                            t += row.counts[d];
                        }
                        *total = t;
                        sum += t;
                    }
                    // Sound: task `c` exclusively owns chunk_sums[c].
                    unsafe { chunk_sums.write(c, sum) };
                });
        }

        // Phase B: exclusive prefix over the chunk totals -> chunk bases.
        let mut acc: u32 = 0;
        for c in 0..nchunks {
            let s = self.chunk_sums[c];
            self.chunk_sums[c] = acc;
            acc += s;
        }
        let total = acc as usize;

        // Phase C: per chunk, derive bucket starts and the per-worker
        // scatter cursors (worker w's region of bucket d follows the
        // regions of workers < w).
        {
            let rows = RowTable(
                self.scratch[..workers]
                    .iter_mut()
                    .map(|s| (s.counts.as_ptr(), s.cursors.as_mut_ptr()))
                    .collect(),
            );
            let chunk_sums = &self.chunk_sums;
            self.starts
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(c, starts_chunk)| {
                    let lo = c * chunk;
                    let mut acc = chunk_sums[c];
                    for (j, start) in starts_chunk.iter_mut().enumerate() {
                        let d = lo + j;
                        *start = acc;
                        let mut cur = acc;
                        for &(counts_row, cursors_row) in rows.rows() {
                            // Sound: each task owns destination range
                            // [lo, lo + len) of every row.
                            unsafe {
                                cursors_row.add(d).write(cur);
                                cur += counts_row.add(d).read();
                            }
                        }
                        acc = cur;
                    }
                });
        }

        if self.arena.len() < total {
            self.arena.resize(total, WireEnvelope::EMPTY);
        }
        total
    }

    /// Computes bucket offsets from the counts over the given destination
    /// indices (ascending) and ensures the arena can hold the round's
    /// messages. The inline routing path passes the **live** indices only
    /// — exactly the compacted slot array's iteration order; messages can
    /// only be routed to live destinations, so skipping retired indices
    /// changes nothing and makes the seal `O(live)` instead of `O(n)` on
    /// long-tailed runs. Returns the total message count. Allocates only
    /// when the round exceeds every previous round's message count (the
    /// arena never shrinks).
    pub(crate) fn seal_counts_live(&mut self, live: impl Iterator<Item = usize>) -> usize {
        let mut acc: u32 = 0;
        for i in live {
            self.starts[i] = acc;
            self.cursor[i] = acc;
            acc += self.counts[i];
        }
        let total = acc as usize;
        if self.arena.len() < total {
            self.arena.resize(total, WireEnvelope::EMPTY);
        }
        total
    }

    /// Scatters one envelope into its destination bucket.
    #[inline]
    pub(crate) fn push(&mut self, env: WireEnvelope) {
        let dst = env.dst_idx as usize;
        let at = self.cursor[dst] as usize;
        self.arena[at] = env;
        self.cursor[dst] += 1;
    }

    /// The delivery bucket of destination index `i`.
    pub(crate) fn bucket(&self, i: usize) -> &[WireEnvelope] {
        &self.arena[self.starts[i] as usize..][..self.counts[i] as usize]
    }

    /// The `(start, len)` span of destination `i`'s bucket.
    pub(crate) fn span(&self, i: usize) -> (u32, u32) {
        (self.starts[i], self.counts[i])
    }

    /// The sealed arena's current length (an upper bound on the round's
    /// total bucket volume — the scenario fault pass sizes its swap
    /// arena from it).
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Rewrites destination `i`'s bucket span. The scenario fault pass
    /// rebuilds buckets into its own swap arena and re-points the spans
    /// at the rebuilt layout before installing it.
    pub(crate) fn set_span(&mut self, i: usize, start: u32, count: u32) {
        self.starts[i] = start;
        self.counts[i] = count;
    }

    /// Swaps `arena` in as the sealed delivery arena (the previous arena
    /// lands in `arena`, to be reused as next round's swap buffer — both
    /// vectors converge on their high-water capacity, so the exchange is
    /// allocation-free at steady state).
    pub(crate) fn install_arena(&mut self, arena: &mut Vec<WireEnvelope>) {
        std::mem::swap(&mut self.arena, arena);
    }
}

/// Flat-arena backlog for the [`Queue`](crate::CapacityPolicy::Queue)
/// capacity policy: per-node FIFO delivery queues as spans of one
/// double-buffered envelope arena, instead of `n` separate `VecDeque`s.
/// Every buffer is reused across rounds, so queued delivery is
/// allocation-free once the arenas reach the run's high-water backlog.
#[derive(Debug, Default)]
pub(crate) struct QueueBuffers {
    /// Per-node `(start, len)` span of its backlog in `cur`.
    pub(crate) spans: Vec<(u32, u32)>,
    /// Backlog carried over from the previous round.
    pub(crate) cur: Vec<WireEnvelope>,
    /// Backlog being assembled for the next round.
    pub(crate) next: Vec<WireEnvelope>,
    /// The round's delivery arena (what inbox spans point into).
    pub(crate) inbox: Vec<WireEnvelope>,
    /// Per-slot-chunk delivered totals of the parallel delivery sweep's
    /// measuring pass (phase A writes totals, the sequential prefix turns
    /// them into chunk base offsets for phase B). Reused across rounds.
    pub(crate) chunk_take: Vec<u32>,
    /// Per-slot-chunk re-queued totals (same protocol as `chunk_take`).
    pub(crate) chunk_queue: Vec<u32>,
    /// Per-slot-chunk max backlog length after delivery, folded into
    /// `max_queue_len` on the coordinating thread (max is commutative).
    pub(crate) chunk_qmax: Vec<u32>,
}

impl QueueBuffers {
    pub(crate) fn new(n: usize) -> Self {
        QueueBuffers {
            spans: vec![(0, 0); n],
            cur: Vec::new(),
            next: Vec::new(),
            inbox: Vec::new(),
            chunk_take: Vec::new(),
            chunk_queue: Vec::new(),
            chunk_qmax: Vec::new(),
        }
    }

    /// Ensures the per-chunk arrays of the parallel delivery sweep can
    /// hold `nchunks` entries (they never shrink — round-reused like
    /// every other engine buffer).
    pub(crate) fn ensure_chunks(&mut self, nchunks: usize) {
        if self.chunk_take.len() < nchunks {
            self.chunk_take.resize(nchunks, 0);
            self.chunk_queue.resize(nchunks, 0);
            self.chunk_qmax.resize(nchunks, 0);
        }
    }

    /// Opens a round's delivery sweep (the previous round's inbox arena
    /// has been consumed by the step phase by now).
    pub(crate) fn begin_round(&mut self) {
        self.inbox.clear();
        self.next.clear();
    }

    /// Merges node `i`'s carried backlog with its freshly routed bucket,
    /// delivers up to `cap` envelopes into the inbox arena (FIFO: backlog
    /// first, then the new bucket in routed order), and re-queues the
    /// rest. Returns `(inbox_start, delivered, queued_after)`.
    ///
    /// Call [`QueueBuffers::begin_round`] first, then this for
    /// `i = 0..n` in order, then [`QueueBuffers::end_round`].
    pub(crate) fn deliver(
        &mut self,
        i: usize,
        fresh: &[WireEnvelope],
        cap: usize,
    ) -> (u32, u32, usize) {
        let (bs, bl) = self.spans[i];
        let backlog_range = bs as usize..(bs + bl) as usize;
        let total = bl as usize + fresh.len();
        let take = total.min(cap);
        let start = self.inbox.len() as u32;
        let next_start = self.next.len() as u32;
        {
            let mut pending = self.cur[backlog_range].iter().chain(fresh.iter());
            self.inbox.extend(pending.by_ref().take(take).copied());
            self.next.extend(pending.copied());
        }
        self.spans[i] = (next_start, (total - take) as u32);
        (start, take as u32, total - take)
    }

    /// Swaps the backlog buffers after a full delivery sweep.
    pub(crate) fn end_round(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Envelopes still queued (undelivered) across all nodes.
    pub(crate) fn backlog_total(&self) -> u64 {
        self.spans.iter().map(|&(_, len)| len as u64).sum()
    }

    /// Envelopes currently queued for node `i`.
    pub(crate) fn backlog_len(&self, i: usize) -> usize {
        self.spans[i].1 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireMsg, NO_INDEX};

    #[test]
    fn sequential_resolution_is_arithmetic() {
        let ids: Vec<NodeId> = (1..=5).collect();
        let r = Resolver::build(&ids, IdAssignment::Sequential);
        assert_eq!(r.index_of(1), Some(0));
        assert_eq!(r.index_of(5), Some(4));
        assert_eq!(r.index_of(0), None);
        assert_eq!(r.index_of(6), None);
    }

    #[test]
    fn random_resolution_by_table() {
        let ids: Vec<NodeId> = vec![900, 17, 404, 3];
        let r = Resolver::build(&ids, IdAssignment::Random);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(r.index_of(id), Some(i as u32), "id {id}");
        }
        assert_eq!(r.index_of(5), None);
        assert_eq!(r.index_of(0), None);
        let Resolver::Table { slots, .. } = &r else {
            panic!("random IDs must resolve through the table");
        };
        assert_eq!(slots.len(), 8, "a power of two of at least 2n slots");
    }

    /// The table against a binary search over the sorted `(id, index)`
    /// pairs, on seeded random ID sets, for members and non-members alike.
    #[test]
    fn table_resolution_matches_a_binary_search_reference() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x1D5);
        for n in [1usize, 2, 3, 1000, 100_000] {
            // IDs as networks draw them ([1, n^3]) and over the whole
            // nonzero range.
            let cube = (n as u128).pow(3).min(u64::MAX as u128) as u64;
            for hi in [cube.max(n as u64 + 1), u64::MAX - 1] {
                let mut set = BTreeSet::new();
                let mut ids: Vec<NodeId> = Vec::with_capacity(n);
                while ids.len() < n {
                    let id = rng.gen_range(1..=hi);
                    if set.insert(id) {
                        ids.push(id);
                    }
                }
                let r = Resolver::build(&ids, IdAssignment::Random);
                let mut pairs: Vec<(NodeId, u32)> = ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, i as u32))
                    .collect();
                pairs.sort_unstable();
                let reference = |id: NodeId| {
                    pairs
                        .binary_search_by_key(&id, |&(k, _)| k)
                        .ok()
                        .map(|at| pairs[at].1)
                };
                for &id in &ids {
                    assert_eq!(r.index_of(id), reference(id), "n={n} id={id}");
                    assert!(r.index_of(id).is_some());
                    for near in [id.wrapping_sub(1), id.wrapping_add(1)] {
                        if !set.contains(&near) {
                            assert_eq!(r.index_of(near), None, "n={n} id={near}");
                        }
                    }
                }
                assert_eq!(r.index_of(0), None, "n={n}");
                assert_eq!(r.index_of(u64::MAX), None, "n={n}");
                let mut misses = 0;
                while misses < 10_000 {
                    let id: u64 = rng.gen();
                    if !set.contains(&id) {
                        assert_eq!(r.index_of(id), None, "n={n} id={id}");
                        misses += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn counting_sort_is_stable_by_source_order() {
        let mut b = RouteBuffers::new(3);
        // Destinations in arrival order: 2, 0, 2, 1, 0.
        let dsts = [2u32, 0, 2, 1, 0];
        for &d in &dsts {
            b.counts[d as usize] += 1;
        }
        assert_eq!(b.seal_counts_live(0..3), 5);
        for (k, &d) in dsts.iter().enumerate() {
            b.push(WireEnvelope {
                src: k as NodeId,
                msg: WireMsg::signal(0),
                dst: d as NodeId,
                dst_idx: d,
            });
        }
        // Bucket 0 sees sources 1 then 4 (arrival order preserved).
        let srcs = |i: usize| b.bucket(i).iter().map(|e| e.src).collect::<Vec<_>>();
        assert_eq!(srcs(0), vec![1, 4]);
        assert_eq!(srcs(1), vec![3]);
        assert_eq!(srcs(2), vec![0, 2]);
        let _ = NO_INDEX;
    }

    #[test]
    fn arena_never_shrinks() {
        let mut b = RouteBuffers::new(2);
        b.counts[0] = 4;
        assert_eq!(b.seal_counts_live(0..2), 4);
        let cap = b.arena.len();
        b.counts.fill(0);
        b.counts[1] = 1;
        assert_eq!(b.seal_counts_live(0..2), 1);
        assert_eq!(b.arena.len(), cap, "arena must be reused, not shrunk");
    }

    #[test]
    fn live_only_seal_skips_retired_indices() {
        let mut b = RouteBuffers::new(4);
        // Index 1 is retired with a stale count left behind; the live
        // seal must lay out buckets as if it did not exist.
        b.counts[0] = 2;
        b.counts[1] = 99;
        b.counts[2] = 1;
        b.counts[3] = 3;
        assert_eq!(b.seal_counts_live([0usize, 2, 3].into_iter()), 6);
        assert_eq!(b.span(0), (0, 2));
        assert_eq!(b.span(2), (2, 1));
        assert_eq!(b.span(3), (3, 3));
    }

    #[test]
    fn parallel_seal_matches_sequential_layout() {
        // 3 workers, 7 destinations: fold + cursors via seal_parallel
        // must equal a sequential walk of worker rows in worker order.
        let n = 7;
        let workers = 3;
        let mut b = RouteBuffers::new(n);
        b.begin_parallel_round(workers);
        let rows: [[u32; 7]; 3] = [
            [1, 0, 2, 0, 0, 1, 4],
            [0, 3, 1, 0, 2, 0, 0],
            [2, 1, 0, 0, 1, 1, 2],
        ];
        for (w, row) in rows.iter().enumerate() {
            b.scratch[w].begin_round(n);
            b.scratch[w].counts.copy_from_slice(row);
        }
        let total = b.seal_parallel(workers);
        assert_eq!(total, rows.iter().flatten().sum::<u32>() as usize);
        // Expected: bucket d starts at Σ_{d'<d} counts[d']; worker w's
        // cursor in bucket d follows workers < w.
        let mut acc = 0u32;
        for d in 0..n {
            assert_eq!(b.starts[d], acc, "start of bucket {d}");
            let mut cur = acc;
            for (w, row) in rows.iter().enumerate() {
                assert_eq!(b.scratch[w].cursors[d], cur, "cursor w={w} d={d}");
                cur += row[d];
            }
            assert_eq!(b.counts[d], rows.iter().map(|r| r[d]).sum::<u32>());
            acc = cur;
        }
    }
}
