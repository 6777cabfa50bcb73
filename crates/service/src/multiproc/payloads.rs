//! The protocol's payloads as bytes. Every payload of a 2-process run of
//! the seed-7 corpora keeps the bytes it had when each payload was built
//! as a value tree and then encoded, and every payload, and seeded
//! mutations of each, decodes through the binary view exactly as it does
//! through a tree: the same value, or the same error.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use thermsched_wire::{decode_value, encode_value};

use super::*;
use crate::{ScenarioSpec, TraceFamily};

/// The bytes `work_payload` writes for one frame.
fn work_bytes(corpus: &Corpus, frame: &[(usize, Vec<usize>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    work_payload(corpus, frame, &mut payload).unwrap();
    payload
}

/// FNV-1a 64 of `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every payload of a 2-process run of `corpus`, by kind, in the order
/// the workers are greeted and the frames are written and answered.
struct Payloads {
    hello: Vec<Vec<u8>>,
    work: Vec<Vec<u8>>,
    result: Vec<Vec<u8>>,
    fin: Vec<Vec<u8>>,
}

fn payloads(corpus: &Corpus, trace: bool) -> Payloads {
    let config = ServiceConfig {
        clock: crate::ClockKind::Virtual,
        ..ServiceConfig::default()
    };
    let mut all = Payloads {
        hello: Vec::new(),
        work: Vec::new(),
        result: Vec::new(),
        fin: Vec::new(),
    };
    for (worker, jobs) in deal(corpus, 2).iter().enumerate() {
        let hello = Hello {
            protocol: PROTOCOL_VERSION,
            worker,
            config,
            trace,
        }
        .to_binary()
        .unwrap();
        let mut input = Vec::new();
        write_frame(&mut input, FRAME_HELLO, &hello).unwrap();
        all.hello.push(hello);
        for frame in by_scenario(corpus, jobs).chunks(WORK_FRAME_SCENARIOS) {
            let payload = work_bytes(corpus, frame);
            write_frame(&mut input, FRAME_WORK, &payload).unwrap();
            all.work.push(payload);
        }
        write_frame(&mut input, FRAME_SHUTDOWN, &[]).unwrap();
        let mut output = Vec::new();
        worker_serve(input.as_slice(), &mut output, None).unwrap();
        let mut replies = output.as_slice();
        while let Some(frame) = read_frame(&mut replies).unwrap() {
            match frame.kind {
                FRAME_RESULT => all.result.push(frame.payload),
                FRAME_FIN => all.fin.push(frame.payload),
                other => panic!("unexpected reply kind {other}"),
            }
        }
    }
    all
}

/// The seed-7 corpora of the CLI smoke: offline, and online with every
/// trace family and a warm start on every job.
fn seed7(online: bool) -> Corpus {
    let mut spec = ScenarioSpec {
        seed: 7,
        scenarios: 2,
        ..ScenarioSpec::default()
    };
    if online {
        spec.trace_families = vec![
            TraceFamily::Ramp,
            TraceFamily::Periodic,
            TraceFamily::IdleGap,
        ];
        spec.warm_start_range = Some((48.0, 62.0));
    }
    spec.build().unwrap()
}

/// `(count, total bytes, FNV-1a 64 of their concatenation)` of each kind.
fn digests(payloads: &Payloads) -> [(usize, usize, u64); 4] {
    [
        &payloads.hello,
        &payloads.work,
        &payloads.result,
        &payloads.fin,
    ]
    .map(|kind| {
        (
            kind.len(),
            kind.iter().map(Vec::len).sum(),
            kind.iter()
                .fold(FNV_OFFSET, |hash, payload| fnv1a(hash, payload)),
        )
    })
}

/// `(count, total bytes, FNV-1a 64)` of the HELLO, WORK, RESULT and FIN
/// payloads of a 2-process run of the seed-7 offline corpus, untraced, as
/// written before the typed encoders wrote binary bytes directly.
const OFFLINE: [(usize, usize, u64); 4] = [
    (2, 936, 0x8229_8173_b123_f5e2),
    (2, 6317, 0x5ef6_7be5_01b9_7c7d),
    (4, 2428, 0x06c4_ae0e_1b88_ea9d),
    (2, 474, 0x0060_b509_626b_c697),
];

/// The same for the seed-7 online corpus, traced: its FIN payloads carry
/// the workers' spans.
const ONLINE_TRACED: [(usize, usize, u64); 4] = [
    (2, 936, 0x49ed_656f_d47d_3a32),
    (2, 7803, 0xf0ee_86f9_64f5_34c3),
    (4, 2500, 0xc958_40eb_5ccc_4c1d),
    (2, 9984, 0x06d8_923f_e1e0_41df),
];

#[test]
fn every_payload_keeps_its_bytes() {
    assert_eq!(digests(&payloads(&seed7(false), false)), OFFLINE);
    assert_eq!(digests(&payloads(&seed7(true), true)), ONLINE_TRACED);
}

/// A `WORK` entry as `Worker::work` reads it, declared so that a whole
/// frame decodes as one value.
struct WorkEntry {
    index: usize,
    scenario: Scenario,
    jobs: Vec<Dealt>,
}

/// One job of a `WORK` entry.
struct Dealt {
    index: usize,
    job: JobSpec,
}

wire_struct! {
    "work_entry" => WorkEntry { index, scenario, jobs };
    "dealt_job" => Dealt { index, job };
}

/// What `bytes` decode to as a payload of `kind`: through the binary view
/// (`from_binary`) and through `decode_value`'s tree (`from_wire`). An `Ok`
/// value is re-encoded, so the two compare as bytes.
type Decoded = std::result::Result<Vec<u8>, WireError>;

fn decoded(kind: u8, bytes: &[u8]) -> (Decoded, Decoded) {
    fn as_type<T: Wire>(bytes: &[u8]) -> (Decoded, Decoded) {
        let encode = |value: T| value.to_binary().expect("a decoded value encodes");
        (
            T::from_binary(bytes).map(encode),
            decode_value(bytes)
                .and_then(|tree| T::from_wire(&tree))
                .map(encode),
        )
    }
    match kind {
        FRAME_HELLO => as_type::<Hello>(bytes),
        FRAME_WORK => as_type::<Vec<WorkEntry>>(bytes),
        FRAME_RESULT => as_type::<Answer>(bytes),
        _ => as_type::<Fin>(bytes),
    }
}

/// Every payload of both seed-7 runs, with its kind.
fn every_payload() -> Vec<(u8, Vec<u8>)> {
    [payloads(&seed7(false), false), payloads(&seed7(true), true)]
        .into_iter()
        .flat_map(|run| {
            [
                (FRAME_HELLO, run.hello),
                (FRAME_WORK, run.work),
                (FRAME_RESULT, run.result),
                (FRAME_FIN, run.fin),
            ]
        })
        .flat_map(|(kind, payloads)| payloads.into_iter().map(move |payload| (kind, payload)))
        .collect()
}

#[test]
fn payloads_are_the_trees_bytes_and_decode_alike_through_the_view() {
    let mut spans = 0;
    for (kind, bytes) in every_payload() {
        let (view, tree) = decoded(kind, &bytes);
        assert_eq!(view, tree, "payload kind {kind}");
        // The sink writes what encoding the value's tree writes.
        let tree = decode_value(&bytes).unwrap();
        let rebuilt = match kind {
            FRAME_HELLO => Hello::from_wire(&tree).unwrap().to_wire(),
            FRAME_WORK => Vec::<WorkEntry>::from_wire(&tree).unwrap().to_wire(),
            FRAME_RESULT => Answer::from_wire(&tree).unwrap().to_wire(),
            _ => {
                let fin = Fin::from_wire(&tree).unwrap();
                spans += fin.spans.len();
                fin.to_wire()
            }
        };
        assert_eq!(
            encode_value(&rebuilt).unwrap(),
            bytes,
            "payload kind {kind}"
        );
        assert_eq!(view.unwrap(), bytes, "payload kind {kind}");
    }
    assert!(spans > 0, "the traced run's FIN payloads carry spans");
}

/// Where a payload can be mutated: its container counts, its floats and
/// its object entries.
#[derive(Default)]
struct Sites {
    /// Positions of the `u32` count of each array and object.
    counts: Vec<usize>,
    /// Positions of each float's eight bytes.
    floats: Vec<usize>,
    /// `(count position, start, end)` of each object entry.
    entries: Vec<(usize, usize, usize)>,
}

/// Records the sites of the well-formed value at `pos`; returns its end.
fn scan(bytes: &[u8], pos: usize, sites: &mut Sites) -> usize {
    let len = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    match bytes[pos] {
        0x00..=0x02 => pos + 1,
        0x03 | 0x04 => pos + 9,
        0x05 => {
            sites.floats.push(pos + 1);
            pos + 9
        }
        0x06 => pos + 5 + len(pos + 1),
        0x07 => {
            sites.counts.push(pos + 1);
            (0..len(pos + 1)).fold(pos + 5, |at, _| scan(bytes, at, sites))
        }
        _ => {
            sites.counts.push(pos + 1);
            let mut at = pos + 5;
            for _ in 0..len(pos + 1) {
                let start = at;
                at = scan(bytes, at + 4 + len(at), sites);
                sites.entries.push((pos + 1, start, at));
            }
            at
        }
    }
}

/// The seeded mutations of a payload.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate,
    Flip,
    InflateCount,
    DuplicateKey,
    NonFinite,
    Nest,
    Trailing,
}

const MUTATIONS: [Mutation; 7] = [
    Mutation::Truncate,
    Mutation::Flip,
    Mutation::InflateCount,
    Mutation::DuplicateKey,
    Mutation::NonFinite,
    Mutation::Nest,
    Mutation::Trailing,
];

/// SplitMix64: the next pseudo-random number of the sequence in `state`.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random index below `len`.
fn below(state: &mut u64, len: usize) -> usize {
    (next(state) % len as u64) as usize
}

fn mutate(bytes: &[u8], sites: &Sites, mutation: Mutation, rng: &mut u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let set_u32 = |out: &mut Vec<u8>, at: usize, value: u32| {
        out[at..at + 4].copy_from_slice(&value.to_le_bytes());
    };
    match mutation {
        Mutation::Truncate => out.truncate(below(rng, bytes.len())),
        Mutation::Flip => {
            let at = below(rng, bytes.len());
            out[at] ^= 1 + below(rng, 255) as u8;
        }
        Mutation::InflateCount => {
            let at = sites.counts[below(rng, sites.counts.len())];
            let count = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let inflated = match below(rng, 3) {
                0 => count.saturating_add(1 + below(rng, 4) as u32),
                1 => u32::MAX,
                _ => count.saturating_mul(1000).saturating_add(1),
            };
            set_u32(&mut out, at, inflated);
        }
        Mutation::DuplicateKey => {
            let (at, start, end) = sites.entries[below(rng, sites.entries.len())];
            let count = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            set_u32(&mut out, at, count + 1);
            out.splice(end..end, bytes[start..end].iter().copied());
        }
        Mutation::NonFinite => {
            const BITS: [u64; 5] = [
                0x7ff8_0000_0000_0000, // quiet NaN
                0xfff8_0000_0000_0001, // negative NaN with a payload
                0x7ff0_0000_0000_0001, // signalling NaN
                0x7ff0_0000_0000_0000, // +inf
                0xfff0_0000_0000_0000, // -inf
            ];
            if sites.floats.is_empty() {
                return mutate(bytes, sites, Mutation::Flip, rng);
            }
            let at = sites.floats[below(rng, sites.floats.len())];
            out[at..at + 8].copy_from_slice(&BITS[below(rng, BITS.len())].to_le_bytes());
        }
        Mutation::Nest => {
            // One-element arrays around the payload: from 100 to 128 of
            // them, so some payloads nest past the limit and the rest
            // are a wrong type.
            let mut nested = Vec::new();
            for _ in 0..100 + below(rng, 29) {
                nested.push(0x07);
                nested.extend_from_slice(&1u32.to_le_bytes());
            }
            nested.extend_from_slice(bytes);
            out = nested;
        }
        Mutation::Trailing => {
            for _ in 0..=below(rng, 8) {
                out.push(next(rng) as u8);
            }
        }
    }
    out
}

/// The variant name of an outcome, `Ok` for a value.
fn outcome(decoded: &Decoded) -> String {
    match decoded {
        Ok(_) => "Ok".to_owned(),
        Err(error) => format!("{error:?}")
            .split([' ', '{', '('])
            .next()
            .unwrap_or_default()
            .to_owned(),
    }
}

#[test]
fn mutated_payloads_decode_alike_through_the_view_and_a_tree() {
    const SEED: u64 = 0x7e57_2005;
    const BUDGET: Duration = Duration::from_secs(3);
    let payloads: Vec<(u8, Vec<u8>, Sites)> = every_payload()
        .into_iter()
        .map(|(kind, bytes)| {
            let mut sites = Sites::default();
            assert_eq!(scan(&bytes, 0, &mut sites), bytes.len());
            (kind, bytes, sites)
        })
        .collect();
    let mut rng = SEED;
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let started = Instant::now();
    let mut rounds = 0;
    // Each round mutates every payload once in every way. The first
    // rounds run whatever the time, so the outcomes checked below do not
    // depend on the host's speed; more run until the budget is spent.
    while rounds < 25 || started.elapsed() < BUDGET {
        rounds += 1;
        for (kind, bytes, sites) in &payloads {
            for mutation in MUTATIONS {
                let mutant = mutate(bytes, sites, mutation, &mut rng);
                let (view, tree) = decoded(*kind, &mutant);
                assert_eq!(
                    view, tree,
                    "{mutation:?} of a kind-{kind} payload (seed {SEED:#x})"
                );
                *seen.entry(outcome(&view)).or_default() += 1;
            }
        }
    }
    for expected in [
        "Ok",
        "Truncated",
        "BadTag",
        "Invalid",
        "NonFinite",
        "TooDeep",
        "WrongType",
        "MissingField",
    ] {
        assert!(seen.contains_key(expected), "no {expected} in {seen:?}");
    }
}
