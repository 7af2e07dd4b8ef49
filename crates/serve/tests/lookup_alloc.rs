//! The serving path's allocation budget: once a thread has made its
//! first segment query (which grows the per-thread block buffer and
//! decode state), a point lookup — present or absent — allocates nothing,
//! and `topk(k)` allocates O(k) for the rows it returns, not O(stored
//! top entries) for a merge it already did at open.
//!
//! A counting global allocator (this test binary only) keeps a per-thread
//! tally, so other test threads do not disturb the count.

use corpus::{generate, CorpusProfile};
use mapreduce::{Cluster, RunCodec};
use ngrams::{Computation, Method, NGramParams};
use serve::{build_index, IndexOptions, SegmentReader, SegmentWriter, StatsIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn lookups_allocate_nothing_after_a_threads_first_query() {
    for codec in [
        RunCodec::Plain,
        RunCodec::FrontCoded,
        RunCodec::PostingDelta,
    ] {
        let path = std::env::temp_dir().join(format!(
            "serve-lookup-alloc-{}-{}.seg",
            std::process::id(),
            codec.name()
        ));
        // Keys of 3 to 24 bytes, so block sizes and key lengths vary.
        let keys: Vec<Vec<u8>> = (0..5_000u32)
            .map(|i| {
                let mut k = i.to_be_bytes()[1..].to_vec();
                k.extend(std::iter::repeat_n(0xab, (i % 22) as usize));
                k
            })
            .collect();
        let mut w = SegmentWriter::create(&path, codec).unwrap();
        for (i, k) in keys.iter().enumerate() {
            w.push(k, i as u64 % 400 + 1).unwrap();
        }
        assert!(w.finish().unwrap().blocks > 4);
        let reader = SegmentReader::open(&path).unwrap();

        // The thread's first queries: the scratch grows to the largest
        // block and the longest key.
        reader.scan_all(&mut |_, _| Ok(())).unwrap();

        let mut absent = Vec::with_capacity(32);
        let before = thread_allocs();
        for i in 0..10_000usize {
            let key = &keys[(i * 7919) % keys.len()];
            if i % 2 == 0 {
                let count = reader.lookup(key).unwrap();
                assert_eq!(count, Some(((i * 7919) % keys.len()) as u64 % 400 + 1));
            } else {
                absent.clear();
                absent.extend_from_slice(key);
                absent.push(0x01);
                assert_eq!(reader.lookup(&absent).unwrap(), None);
            }
        }
        let spent = thread_allocs() - before;
        assert_eq!(
            spent, 0,
            "{codec:?}: 10 000 lookups allocated {spent} times"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn topk_allocates_for_its_rows_not_for_the_stored_tops() {
    let coll = generate(&CorpusProfile::tiny("topk-alloc", 60), 3);
    let cluster = Cluster::new(2);
    let mut params = NGramParams::new(1, 4);
    params.job.num_reduce_tasks = 3;
    let computation = Computation::new(Method::SuffixSigma, &params).input(&coll);
    let dir = std::env::temp_dir().join(format!("serve-topk-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let meta = build_index(
        &cluster,
        &computation,
        &coll.dictionary,
        "topk-alloc",
        &dir,
        &IndexOptions::default(),
    )
    .unwrap();
    assert!(
        meta.entries > 1_000,
        "the stored tops must dwarf k for the bound below to mean anything ({})",
        meta.entries
    );
    let index = StatsIndex::open(&dir).unwrap();
    let before = thread_allocs();
    let rows = index.topk(10).unwrap();
    let spent = thread_allocs() - before;
    assert_eq!(rows.len(), 10);
    // Per row: the decoded gram, its text (which may grow a few times),
    // and the result vector's share — nowhere near one per stored entry.
    assert!(
        spent <= 10 * 8,
        "topk(10) allocated {spent} times over {} stored entries",
        meta.entries
    );
    let _ = std::fs::remove_dir_all(&dir);
}
