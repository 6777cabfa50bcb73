//! Pins what building and decoding a value tree costs in allocations:
//! parsing a corpus document, decoding its binary encoding, encoding a
//! corpus and decoding the typed corpus from its tree. Object keys and
//! string values of up to 22 bytes are stored inline, and each array and
//! object is allocated once at its final length, so a tree costs one
//! allocation per non-empty container plus one per longer string.
//!
//! Writing and reading binary payloads builds no tree at all: a payload
//! of typed values is written into one buffer, and read back allocating
//! only what the values own plus the payload's table of container ends.
//!
//! A counting global allocator counts allocations and reallocations made
//! by the current thread only, so the test harness's other threads do not
//! disturb the count, and records the largest single request. This file is
//! its own test binary: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use thermsched_service::{
    Corpus, JobResult, JobSpec, Scenario, ScenarioSpec, ServiceConfig, ServiceRunner, TraceFamily,
};
use thermsched_wire::{
    decode_value, encode_value, from_document, to_document, wire_struct, JsonValue, Payload, Wire,
    WireError,
};

/// Longest string a `WireStr` stores inline, in bytes.
const INLINE: usize = 22;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>, size: usize) {
    // `try_with` keeps allocations made while the thread tears down its
    // locals from panicking.
    let _ = counter.try_with(|count| count.set(count.get() + 1));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards to the system allocator unchanged; the only
// addition is thread-local counters that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATIONS, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATIONS, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCATIONS, new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What `f` asked of the allocator on this thread.
#[derive(Debug, PartialEq)]
struct Counts {
    /// Fresh allocations.
    allocations: u64,
    /// Reallocations: a container grown (or shrunk) after its first
    /// allocation.
    reallocations: u64,
    /// The largest single request, in bytes.
    largest: usize,
}

impl Counts {
    fn total(&self) -> u64 {
        self.allocations + self.reallocations
    }
}

/// Runs `f` and returns its result with what it asked of the allocator.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let allocations = ALLOCATIONS.with(Cell::get);
    let reallocations = REALLOCATIONS.with(Cell::get);
    LARGEST.with(|largest| largest.set(0));
    let value = f();
    let counts = Counts {
        allocations: ALLOCATIONS.with(Cell::get) - allocations,
        reallocations: REALLOCATIONS.with(Cell::get) - reallocations,
        largest: LARGEST.with(Cell::get),
    };
    (value, counts)
}

/// Runs `f` and returns its result with the allocations and reallocations
/// it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (value, counts) = measured(f);
    (value, counts.total())
}

/// What a tree is made of, for the allocations it should cost.
#[derive(Debug, Default)]
struct Shape {
    /// Object keys.
    keys: u64,
    /// Arrays and objects with at least one element; an empty one
    /// allocates nothing.
    containers: u64,
    /// Keys and string values longer than [`INLINE`] bytes.
    long_strings: u64,
    /// Values of every kind, the root included.
    values: u64,
}

fn shape(value: &JsonValue) -> Shape {
    fn walk(value: &JsonValue, shape: &mut Shape) {
        shape.values += 1;
        match value {
            JsonValue::String(text) => shape.long_strings += u64::from(text.len() > INLINE),
            JsonValue::Array(items) => {
                shape.containers += u64::from(!items.is_empty());
                items.iter().for_each(|item| walk(item, shape));
            }
            JsonValue::Object(entries) => {
                shape.containers += u64::from(!entries.is_empty());
                for (key, value) in entries {
                    shape.keys += 1;
                    shape.long_strings += u64::from(key.len() > INLINE);
                    walk(value, shape);
                }
            }
            _ => {}
        }
    }
    let mut shape = Shape::default();
    walk(value, &mut shape);
    shape
}

/// The same tree with every key and string value cut to [`INLINE`] bytes.
fn shortened(value: &JsonValue) -> JsonValue {
    let cut = |text: &str| {
        let mut end = text.len().min(INLINE);
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        text[..end].to_owned()
    };
    match value {
        JsonValue::String(text) => JsonValue::from(cut(text)),
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(shortened).collect()),
        JsonValue::Object(entries) => JsonValue::Object(
            entries
                .iter()
                .map(|(key, value)| (cut(key).into(), shortened(value)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn corpus() -> Corpus {
    ScenarioSpec {
        scenarios: 16,
        seed: 1,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("the spec builds")
}

#[test]
fn building_a_tree_allocates_less_often_than_it_has_keys() {
    let corpus = corpus();
    let text = to_document(&corpus).render_pretty().expect("renders");

    let (tree, parse) = counted(|| JsonValue::parse(&text).expect("parses"));
    let keys = shape(&tree).keys;
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
    let body_keys = shape(&body).keys;
    assert!(
        encode < body_keys,
        "Corpus::to_wire: {encode} allocations for {body_keys} keys"
    );
}

/// The JSON parser makes one allocation per non-empty array and object,
/// plus the first allocation of each of its two stacks (array items and
/// object entries), which then only grow: at most once per doubling of
/// their length. The binary decoder has no stacks and reserves each
/// container from its declared count, so it makes one allocation per
/// container and never grows one.
fn assert_one_allocation_per_container(tree: &JsonValue) {
    let Shape {
        containers,
        long_strings,
        values,
        ..
    } = shape(tree);
    let text = tree.render_pretty().expect("renders");
    let (parsed, parse) = measured(|| JsonValue::parse(&text).expect("parses"));
    assert_eq!(&parsed, tree);
    assert_eq!(
        parse.allocations,
        containers + long_strings + 2,
        "JsonValue::parse: {parse:?} for {containers} containers and {long_strings} long strings"
    );
    let doublings = u64::from(values.ilog2() + 1);
    assert!(
        parse.reallocations <= 2 * doublings,
        "JsonValue::parse grew its stacks {} times for {values} values",
        parse.reallocations
    );

    let bytes = encode_value(tree).expect("encodes");
    let (decoded, decode) = measured(|| decode_value(&bytes).expect("decodes"));
    assert_eq!(&decoded, tree);
    assert_eq!(
        (decode.allocations, decode.reallocations),
        (containers + long_strings, 0),
        "decode_value: {decode:?} for {containers} containers and {long_strings} long strings"
    );
}

#[test]
fn parse_and_decode_allocate_once_per_container_and_never_for_a_short_string() {
    let document = to_document(&corpus());
    let short = shortened(&document);
    let Shape {
        containers,
        long_strings,
        ..
    } = shape(&short);
    assert_eq!(long_strings, 0);
    assert!(containers > 500, "{containers} containers");
    assert_one_allocation_per_container(&short);
    // The corpus itself: its job labels and one session-model key are
    // longer than 22 bytes, and each costs one allocation more.
    assert!(shape(&document).long_strings > 0);
    assert_one_allocation_per_container(&document);
}

#[test]
fn encoding_a_corpus_allocates_only_its_containers_and_long_strings() {
    // Online jobs carry two more fields, a trace and a warm start.
    let online = ScenarioSpec {
        scenarios: 4,
        seed: 7,
        trace_families: vec![TraceFamily::Ramp, TraceFamily::IdleGap],
        warm_start_range: Some((48.0, 62.0)),
        ..ScenarioSpec::default()
    }
    .build()
    .expect("the spec builds");
    for corpus in [corpus(), online] {
        let (body, encode) = measured(|| corpus.to_wire());
        let Shape {
            containers,
            long_strings,
            ..
        } = shape(&body);
        assert!(long_strings > 0 && containers > 100);
        assert_eq!(
            encode.total(),
            containers + long_strings,
            "Corpus::to_wire: {encode:?} for {containers} containers and {long_strings} long strings"
        );
    }
}

#[test]
fn decoding_the_typed_corpus_allocates_a_pinned_count() {
    // The corpus's own strings and vectors, each allocated once. Before
    // vectors were decoded at their length (collecting through `Result`
    // grows them by doubling) and floorplans found block names in a sorted
    // id list (they copied each name into a `HashMap`), this decode made
    // 891 allocations.
    const ALLOCATIONS: u64 = 586;
    let corpus = corpus();
    let document =
        JsonValue::parse(&to_document(&corpus).render_pretty().expect("renders")).expect("parses");
    let (decoded, decode) = counted(|| from_document::<Corpus>(&document).expect("decodes"));
    assert_eq!(decoded.to_wire(), corpus.to_wire());
    assert_eq!(decode, ALLOCATIONS, "from_document::<Corpus>");
}

/// A binary object `{"corpus": <a corpus document>, "tail": <tail>}`: a
/// payload of a realistic size that ends in `tail`'s bytes. On a payload
/// of a few bytes even an array that holds its items as they come
/// outgrows the input, so a small one could not tell a reservation made
/// from the declared count from an honest one.
fn ending_in(tail: &[u8]) -> Vec<u8> {
    let field = |bytes: &mut Vec<u8>, name: &str| {
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
    };
    let mut bytes = vec![0x08];
    bytes.extend_from_slice(&2u32.to_le_bytes());
    field(&mut bytes, "corpus");
    bytes.extend(encode_value(&to_document(&corpus())).expect("encodes"));
    field(&mut bytes, "tail");
    bytes.extend_from_slice(tail);
    bytes
}

#[test]
fn a_hostile_count_is_truncated_without_allocating_for_it() {
    let hostile = u32::MAX.to_le_bytes();
    // An array of u32::MAX items with three null items left.
    let array = [&[0x07][..], &hostile, &[0x00, 0x00, 0x00]].concat();
    // An object of u32::MAX entries with one entry and two bytes left.
    let object = [&[0x08][..], &hostile, &[1, 0, 0, 0, b'a', 0x00, 0, 0]].concat();
    // The same counts nested one level down.
    let nested = [&[0x07][..], &1u32.to_le_bytes(), &array].concat();
    for tail in [&array, &object, &nested] {
        let payload = ending_in(tail);
        let (decoded, decode) = measured(|| decode_value(&payload));
        assert!(
            matches!(decoded, Err(WireError::Truncated { .. })),
            "{decoded:?}"
        );
        // The view's walk records the containers it meets, never the
        // count one declares.
        let (walked, walk) = measured(|| Payload::new(&payload).map(|_| ()));
        assert_eq!(walked, decoded.map(|_| ()));
        for counts in [decode, walk] {
            assert!(
                counts.largest <= payload.len(),
                "the largest request was {} bytes for a {}-byte payload",
                counts.largest,
                payload.len()
            );
        }
    }
}

/// A `WORK` payload entry of the multi-process protocol: a scenario with
/// its jobs, each under its corpus index.
struct WorkEntry {
    index: usize,
    scenario: Scenario,
    jobs: Vec<Dealt>,
}

struct Dealt {
    index: usize,
    job: JobSpec,
}

/// A `RESULT` payload: one job's result and what it added to the run's
/// counters.
struct Answer {
    index: usize,
    result: JobResult,
    accounting: Accounting,
}

struct Accounting {
    warm_cache_hits: usize,
    cached_validations: usize,
    injected_faults: usize,
    retried_attempts: usize,
    latency_seconds: f64,
}

wire_struct! {
    "work_entry" => WorkEntry { index, scenario, jobs };
    "dealt_job" => Dealt { index, job };
    "result_frame" => Answer { index, result, accounting };
    "job_accounting" => Accounting {
        warm_cache_hits,
        cached_validations,
        injected_faults,
        retried_attempts,
        latency_seconds,
    };
}

/// Arrays and objects in a tree, empty ones included.
fn containers(value: &JsonValue) -> u64 {
    match value {
        JsonValue::Array(items) => 1 + items.iter().map(containers).sum::<u64>(),
        JsonValue::Object(entries) => 1 + entries.iter().map(|(_, v)| containers(v)).sum::<u64>(),
        _ => 0,
    }
}

/// Encodes `value` straight into binary bytes and decodes it back through
/// the view, checking both against the tree path. Returns what encoding
/// and what decoding asked of the allocator, the decode as its excess
/// over decoding the same typed values from a tree.
fn binary_costs<T: Wire>(value: &T) -> (Counts, Counts) {
    let (bytes, encode) = measured(|| value.to_binary().expect("encodes"));
    let tree = value.to_wire();
    assert_eq!(bytes, encode_value(&tree).expect("the tree encodes"));
    let decoded = decode_value(&bytes).expect("decodes");
    let (from_tree, typed) = measured(|| T::from_wire(&decoded).expect("decodes from a tree"));
    let (from_binary, decode) = measured(|| T::from_binary(&bytes).expect("decodes from bytes"));
    assert_eq!(from_binary.to_binary().expect("re-encodes"), bytes);
    assert_eq!(from_tree.to_binary().expect("re-encodes"), bytes);
    // The view's one table holds an end per container, pushed one by one:
    // eight at its first allocation, then doubling.
    let ends = containers(&tree);
    let doublings = u64::from((ends.max(8) - 1).ilog2()) - 2;
    assert_eq!(
        (decode.allocations, decode.reallocations),
        (typed.allocations + 1, typed.reallocations + doublings),
        "from_binary: {decode:?}; from a tree: {typed:?}; {ends} containers"
    );
    let excess = Counts {
        allocations: decode.allocations - typed.allocations,
        reallocations: decode.reallocations - typed.reallocations,
        largest: decode.largest,
    };
    (encode, excess)
}

#[test]
fn binary_payloads_are_written_and_read_without_a_tree() {
    // Growth reallocations of each payload's output buffer, which starts
    // empty.
    const WORK_GROWTH: u64 = 15;
    const ANSWER_GROWTH: u64 = 7;
    // A WORK payload of 32 scenarios, each with its jobs.
    let corpus = ScenarioSpec {
        scenarios: 32,
        seed: 1,
        trace_families: vec![TraceFamily::Ramp, TraceFamily::Periodic],
        warm_start_range: Some((48.0, 62.0)),
        ..ScenarioSpec::default()
    }
    .build()
    .expect("the spec builds");
    let work: Vec<WorkEntry> = corpus
        .scenarios()
        .iter()
        .enumerate()
        .map(|(index, scenario)| WorkEntry {
            index,
            scenario: scenario.clone(),
            jobs: (corpus.jobs().iter().enumerate())
                .filter(|(_, job)| job.scenario == index)
                .map(|(index, job)| Dealt {
                    index,
                    job: job.clone(),
                })
                .collect(),
        })
        .collect();
    assert_eq!(work.iter().map(|entry| entry.jobs.len()).sum::<usize>(), 64);
    // Encoding allocates the output buffer once and grows it by doubling;
    // decoding allocates the typed values, plus the table of container
    // ends: once, and grown 9 times for this payload's 2 521 containers.
    let (encode, decode) = binary_costs(&work);
    assert_eq!((encode.allocations, encode.reallocations), (1, WORK_GROWTH));
    assert_eq!((decode.allocations, decode.reallocations), (1, 9));

    // A RESULT payload of a completed job.
    let report = ServiceRunner::new(ServiceConfig::default())
        .and_then(|runner| runner.run(&corpus))
        .expect("the corpus runs");
    let answer = Answer {
        index: 5,
        result: report.jobs()[5].clone(),
        accounting: Accounting {
            warm_cache_hits: 3,
            cached_validations: 2,
            injected_faults: 0,
            retried_attempts: 0,
            latency_seconds: 0.000_125,
        },
    };
    let (encode, decode) = binary_costs(&answer);
    assert_eq!(
        (encode.allocations, encode.reallocations),
        (1, ANSWER_GROWTH)
    );
    // Five objects: the table of ends is allocated once and never grown.
    assert_eq!((decode.allocations, decode.reallocations), (1, 0));
}
