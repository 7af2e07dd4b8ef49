//! The reduce path's allocation budget: draining a merge of `k` runs
//! through [`ValueIter`] may allocate O(k) times — head buffers growing to
//! their run's longest record — never once per reduce group or per
//! record.
//!
//! A counting global allocator (this test binary only) keeps a per-thread
//! tally; the reducer samples it on the reduce task's own thread at its
//! first and last call, which brackets every group hand-over but the
//! merge's construction.

use mapreduce::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally is a plain thread-local `Cell`
// without a destructor, touched through `try_with` so a call during
// thread teardown is ignored instead of panicking inside the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

struct Identity;

impl Mapper for Identity {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn map(&mut self, k: &u32, v: &u64, ctx: &mut MapContext<'_, u32, u64>) {
        ctx.emit(k, v);
    }
}

/// Sums every group and emits nothing (an output sink allocates on its
/// own account), publishing the thread's allocation tally as first seen
/// and as last seen.
struct Tally {
    first: Arc<AtomicU64>,
    last: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
    started: bool,
}

impl Reducer for Tally {
    type Key = u32;
    type ValueIn = u64;
    type KeyOut = u32;
    type ValueOut = u64;
    fn reduce(
        &mut self,
        _key: u32,
        values: &mut ValueIter<'_, u64>,
        _ctx: &mut ReduceContext<'_, u32, u64>,
    ) {
        if !std::mem::replace(&mut self.started, true) {
            self.first.store(thread_allocs(), Ordering::Relaxed);
        }
        self.sum.fetch_add(values.sum::<u64>(), Ordering::Relaxed);
        self.last.store(thread_allocs(), Ordering::Relaxed);
    }
}

#[test]
fn draining_ten_thousand_groups_allocates_per_run_not_per_group() {
    const GROUPS: u32 = 10_000;
    const COPIES: u64 = 6;
    // Every key once per copy, keys of one to two varint bytes, copies
    // interleaved so each map task — and each of its spills — sees a
    // spread of the key space.
    let input: Vec<(u32, u64)> = (0..COPIES)
        .flat_map(|c| (0..GROUPS).map(move |k| (k, c + 1)))
        .collect();
    let mut config = JobConfig::named("reduce-alloc");
    config.num_map_tasks = 4;
    config.num_reduce_tasks = 1;
    config.sort_buffer_bytes = 16 * 1024;
    let (first, last, sum) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicU64::new(0)),
    );
    let make = {
        let (first, last, sum) = (first.clone(), last.clone(), sum.clone());
        move || Tally {
            first: first.clone(),
            last: last.clone(),
            sum: sum.clone(),
            started: false,
        }
    };
    let result = Job::<Identity, Tally>::new(config, || Identity, make)
        .run(&Cluster::new(2), input)
        .unwrap();

    let fan_in = result.counters.get(Counter::Spills);
    assert!(
        fan_in >= 8,
        "the merge must be a real one (fan-in {fan_in})"
    );
    assert_eq!(
        result.counters.get(Counter::ReduceInputGroups),
        u64::from(GROUPS)
    );
    assert_eq!(
        result.counters.get(Counter::ReduceInputRecords),
        u64::from(GROUPS) * COPIES
    );
    assert_eq!(
        sum.load(Ordering::Relaxed),
        u64::from(GROUPS) * (1..=COPIES).sum::<u64>()
    );
    // Two buffers per head, each allowed to grow a couple of times.
    let during = last.load(Ordering::Relaxed) - first.load(Ordering::Relaxed);
    assert!(
        during <= 4 * fan_in,
        "{during} allocations while draining {GROUPS} groups from {fan_in} runs"
    );
}
