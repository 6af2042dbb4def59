//! Integration test with the tracking allocator actually installed —
//! exercising the real alloc/dealloc/realloc paths, which unit tests
//! cannot do (no `#[global_allocator]` in lib tests).

use kgtosa_memtrack::{format_bytes, live_bytes, measure_peak, peak_bytes, reset_peak};

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

/// The LIVE/PEAK counters are process-global, and every check below
/// asserts an exact byte bound: a single byte freed by another thread
/// inside a measuring window fails it. Run as separate `#[test]`s, the
/// checks overlap each other and the harness's own threads (a finished
/// test's teardown, result and output handling), even when a mutex
/// serializes the bodies. One test running them in sequence leaves the
/// process with no other thread that allocates.
#[test]
fn allocator_accounting() {
    tracks_vec_allocations();
    peak_survives_drop();
    measure_peak_isolates_phases();
    realloc_keeps_accounting_consistent();
}

fn tracks_vec_allocations() {
    let before = live_bytes();
    let v: Vec<u8> = vec![0u8; 1 << 20];
    assert!(
        live_bytes() >= before + (1 << 20),
        "1 MiB allocation must be visible"
    );
    drop(v);
    assert!(live_bytes() < before + (1 << 20));
}

fn peak_survives_drop() {
    reset_peak();
    let base = peak_bytes();
    {
        let _big: Vec<u64> = vec![0; 500_000]; // ~4 MB
        assert!(peak_bytes() >= base + 3_000_000);
    }
    // Dropped, but peak remembers.
    assert!(peak_bytes() >= base + 3_000_000);
    reset_peak();
    assert!(peak_bytes() < base + 3_000_000);
}

fn measure_peak_isolates_phases() {
    let (_, peak1) = measure_peak(|| {
        let _v: Vec<u8> = vec![1; 2 << 20];
    });
    let (_, peak2) = measure_peak(|| {
        let _v: Vec<u8> = vec![1; 64];
    });
    assert!(peak1 >= 2 << 20);
    assert!(peak2 < 1 << 20, "second phase must not inherit first peak: {peak2}");
}

fn realloc_keeps_accounting_consistent() {
    reset_peak();
    let before = live_bytes();
    let mut v: Vec<u8> = Vec::new();
    for i in 0..100_000u32 {
        v.push((i % 251) as u8); // forces repeated reallocs
    }
    assert!(live_bytes() >= before + 100_000);
    drop(v);
    // All growth returned (within noise from the test harness itself).
    assert!(live_bytes() < before + 100_000);
    assert!(!format_bytes(live_bytes()).is_empty());
}
