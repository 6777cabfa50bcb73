//! Pins what building a value tree costs in allocations: parsing a corpus
//! document, decoding its binary encoding and encoding a corpus each make
//! fewer allocations than the tree has object keys, because a key of up to
//! 22 bytes is stored inline.
//!
//! A counting global allocator counts allocations and reallocations made
//! by the current thread only, so the test harness's other threads do not
//! disturb the count. This file is its own test binary: the allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use thermsched_service::ScenarioSpec;
use thermsched_wire::{decode_value, encode_value, to_document, JsonValue, Wire};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` keeps allocations made while the thread tears down its
    // locals from panicking.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the only
// addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations and reallocations
/// it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Object keys in the whole tree.
fn object_keys(value: &JsonValue) -> u64 {
    match value {
        JsonValue::Array(items) => items.iter().map(object_keys).sum(),
        JsonValue::Object(entries) => entries
            .iter()
            .map(|(_, value)| 1 + object_keys(value))
            .sum(),
        _ => 0,
    }
}

#[test]
fn building_a_tree_allocates_less_often_than_it_has_keys() {
    let corpus = ScenarioSpec {
        scenarios: 16,
        seed: 1,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("the spec builds");
    let text = to_document(&corpus).render_pretty().expect("renders");

    let (tree, parse) = counted(|| JsonValue::parse(&text).expect("parses"));
    let keys = object_keys(&tree);
    assert!(keys > 1000, "a 16-scenario corpus has {keys} keys");
    assert!(
        parse < keys,
        "JsonValue::parse: {parse} allocations for {keys} keys"
    );

    let bytes = encode_value(&tree).expect("encodes");
    let (decoded, decode) = counted(|| decode_value(&bytes).expect("decodes"));
    assert_eq!(decoded, tree);
    assert!(
        decode < keys,
        "decode_value: {decode} allocations for {keys} keys"
    );

    let (body, encode) = counted(|| corpus.to_wire());
    let body_keys = object_keys(&body);
    assert!(
        encode < body_keys,
        "Corpus::to_wire: {encode} allocations for {body_keys} keys"
    );
}
