//! Counting-allocator proof that the serial read path reuses the
//! thread-local `SearchScratch`: a warmed [`CollectionReader::search`]
//! allocates only the `SearchResult` it returns, however many segments it
//! fans out over (a scratch built per segment would cost a dozen
//! allocations each). Same harness as `crates/ivf/tests/alloc_free.rs`.
//!
//! This file holds exactly one test: the counter is process-global, so a
//! concurrently running test could allocate on another thread and produce a
//! false positive.

use rabitq_store::{Collection, CollectionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warmed_reader_search_allocates_only_its_result() {
    let dir = std::env::temp_dir().join(format!("rabitq-store-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dim = 16;
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = 200;
    config.auto_compact = false;
    let mut collection = Collection::open(&dir, config).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let rows = rabitq_math::rng::standard_normal_vec(&mut rng, 810 * dim);
    for row in rows.chunks_exact(dim) {
        collection.insert(row).unwrap();
    }
    assert_eq!(collection.n_segments(), 4);
    let reader = collection.reader();
    let queries: Vec<&[f32]> = rows.chunks_exact(dim).step_by(90).collect();

    // Warm-up: the same queries as the measured pass, so the thread-local
    // scratch reaches its final capacity.
    for query in &queries {
        reader.search(query, 10, 8, &mut rng);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut total_neighbors = 0usize;
    for query in &queries {
        total_neighbors += reader.search(query, 10, 8, &mut rng).neighbors.len();
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(total_neighbors, 10 * queries.len());
    // The merge heap and the sorted neighbor list are the result's own.
    assert!(
        allocs <= 2 * queries.len(),
        "{allocs} allocations across {} queries over 4 segments",
        queries.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
