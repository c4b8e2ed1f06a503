//! Allocation gate for the protocol stack: a quiescent protocol poll must
//! not touch the heap. Algorithm 3 (implicit degree realization) sends
//! about half a message per node-step, so almost every poll is a node
//! waiting out a primitive's fixed round budget — if working out that
//! budget allocates, the allocator dominates the run.
//!
//! The gate runs [`RealizeDegrees`] on the batched engine with one worker
//! (the inline path, so this thread sees every engine allocation) and KT0
//! tracking off, and bounds the heap operations (allocations plus
//! reallocations) of the whole run by `rounds · n / 20`. What remains is
//! per-phase protocol state, far below one operation per node-step.
//!
//! Counting is thread-local, as in `crates/ncc/tests/zero_alloc.rs`, so
//! tests measuring concurrently under the default runner do not see each
//! other's allocations.

use dgr_core::distributed::proto::{Flavor, RealizeDegrees};
use dgr_core::erdos_gallai::is_graphic;
use dgr_ncc::{Config, Network};
use dgr_primitives::sort::SortBackend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// True while this thread is inside a measured window (const-init, so
    /// reading it never allocates — safe inside the allocator).
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Heap operations this thread made inside measured windows.
    static OPERATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_measuring() {
    // Thread teardown can query TLS after destruction; treat that as
    // "not measuring" rather than panicking inside the allocator.
    let _ = MEASURING.try_with(|m| {
        if m.get() {
            OPERATIONS.with(|a| a.set(a.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A near-4-regular degree sequence (degrees 3, 4 and 5 in turn, the last
/// entry adjusted so the sum is even).
fn near_regular(n: usize) -> Vec<usize> {
    let mut degrees: Vec<usize> = (0..n).map(|i| 3 + (i * 7 + i / 3) % 3).collect();
    if degrees.iter().sum::<usize>() % 2 == 1 {
        degrees[n - 1] = 4;
    }
    assert!(is_graphic(&degrees));
    degrees
}

/// `(rounds, heap operations)` of one implicit, bitonic, batched,
/// single-worker, untracked realization over `n` nodes.
fn measure(n: usize) -> (u64, u64) {
    let mut config = Config::ncc0(7).with_worker_threads(1);
    config.track_knowledge = false;
    let net = Network::new(n, config);
    let by_id = net.assign_in_path_order(&near_regular(n));
    let before = OPERATIONS.with(Cell::get);
    MEASURING.with(|m| m.set(true));
    let result = net
        .run_protocol(|s| {
            RealizeDegrees::with_sort(by_id[&s.id], Flavor::Implicit, SortBackend::Bitonic)
        })
        .unwrap();
    MEASURING.with(|m| m.set(false));
    let operations = OPERATIONS.with(Cell::get) - before;
    assert!(result.metrics.is_clean(), "n={n}");
    assert!(
        result.outputs.iter().all(|(_, out)| out.is_ok()),
        "n={n}: a graphic sequence must be realized"
    );
    (result.metrics.rounds, operations)
}

fn assert_quiescent_steps_do_not_allocate(n: usize) {
    let (rounds, operations) = measure(n);
    let node_steps = rounds * n as u64;
    assert!(
        operations < node_steps / 20,
        "n={n}: {operations} heap operations over {rounds} rounds \
         ({:.3} per node-step; the gate is 0.05)",
        operations as f64 / node_steps as f64
    );
}

#[test]
fn implicit_realization_allocates_far_below_once_per_node_step_n512() {
    assert_quiescent_steps_do_not_allocate(512);
}

#[test]
fn implicit_realization_allocates_far_below_once_per_node_step_n2048() {
    assert_quiescent_steps_do_not_allocate(2048);
}
