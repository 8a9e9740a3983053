//! Counting-allocator regression test for the ingest channel's buffer
//! circulation: a producer that warmed up in lockstep with its consumer —
//! one batch in flight at a time — and then runs ahead to fill the queue
//! must draw only warmed buffers, so it allocates nothing.
//!
//! Everything runs inside a single `#[test]` on one thread, so the
//! schedule is deterministic and no concurrent test can pollute the
//! counter.

use lb_core::discrete::RoundEvents;
use lb_core::ingest;
use lb_core::{Task, TaskId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter update has
// no safety impact.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A fixed-size batch: four arrivals and four completions.
fn fill(batch: &mut RoundEvents, round: u64) {
    for k in 0..4u64 {
        batch
            .arrivals
            .push((k as usize, Task::new(TaskId(round * 4 + k), 1)));
        batch.completions.push((k as usize, 1));
    }
}

#[test]
fn a_producer_running_ahead_after_lockstep_warmup_does_not_allocate() {
    const CAPACITY: usize = 8;
    let (mut tx, mut rx) = ingest::bounded(CAPACITY);
    let mut round = 0u64;
    // Lockstep warm-up: every batch is received and recycled before the
    // next one is produced, as when the engine keeps pace with its feed.
    for _ in 0..4 * CAPACITY {
        let mut batch = tx.buffer();
        fill(&mut batch, round);
        tx.send(round, batch).expect("consumer alive");
        let (_, batch) = rx.recv().expect("batch arrives");
        rx.recycle(batch);
        round += 1;
    }
    // The producer runs ahead and fills the queue; then the consumer
    // drains it, twice over. Every buffer drawn must already be warm.
    for pass in 0..2 {
        let before = allocations();
        for _ in 0..CAPACITY {
            let mut batch = tx.buffer();
            fill(&mut batch, round);
            tx.send(round, batch).expect("consumer alive");
            round += 1;
        }
        for _ in 0..CAPACITY {
            let (_, batch) = rx.recv().expect("batch arrives");
            rx.recycle(batch);
        }
        let allocated = allocations() - before;
        assert_eq!(
            allocated, 0,
            "pass {pass}: {allocated} allocation(s) while the producer ran {CAPACITY} batches ahead"
        );
    }
}
