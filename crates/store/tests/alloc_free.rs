//! Counting-allocator proof that the serial read path reuses the
//! thread-local `SearchScratch`: a warmed [`CollectionReader::search`]
//! allocates only the `SearchResult` it returns, however many segments it
//! fans out over (a scratch built per segment would cost a dozen
//! allocations each). Same harness as `crates/ivf/tests/alloc_free.rs`.
//!
//! The second case leaves rows in the memtable and deletes some of them:
//! the memtable scan walks its delete list in place, so the bound holds
//! there too.
//!
//! The counter is process-global, so the tests take a lock: one running
//! beside the other would allocate on its own thread and produce a false
//! positive.

use rabitq_store::{Collection, CollectionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

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

/// Ingests `n_rows` (a seal every 200), deletes `deletes`, warms the
/// reader, and asserts a measured pass over the same queries allocates
/// nothing beyond each result.
fn assert_warmed_search_allocates_only_its_result(tag: &str, n_rows: usize, deletes: &[u32]) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("rabitq-store-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dim = 16;
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = 200;
    config.auto_compact = false;
    let mut collection = Collection::open(&dir, config).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let rows = rabitq_math::rng::standard_normal_vec(&mut rng, n_rows * dim);
    for row in rows.chunks_exact(dim) {
        collection.insert(row).unwrap();
    }
    assert_eq!(collection.n_segments(), 4);
    assert_eq!(collection.memtable_len(), n_rows - 800);
    for &id in deletes {
        assert!(id >= 800, "delete a memtable row");
        assert!(collection.delete(id).unwrap());
    }
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

#[test]
fn warmed_reader_search_allocates_only_its_result() {
    assert_warmed_search_allocates_only_its_result("alloc", 810, &[]);
}

#[test]
fn warmed_reader_search_with_memtable_deletes_allocates_only_its_result() {
    // Five, not two: a per-query list of deleted ids would grow past its
    // first allocation and break the bound.
    let deletes = [801, 820, 845, 870, 888];
    assert_warmed_search_allocates_only_its_result("alloc-deletes", 890, &deletes);
}
