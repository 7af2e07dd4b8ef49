//! The digest-refinement sort against its reference, the comparator-only
//! sort (`prefix_sort = false`): key order per comparator over adversarial
//! key sets, and output identity of the four methods with the digest path
//! on and off. The reduce-side loser-tree merge is held to the same
//! reference over the same key sets: a stable sort of its concatenated
//! runs.

use corpus::{generate, CorpusProfile};
use mapreduce::{
    ByteReader, BytewiseComparator, Cluster, Job, JobConfig, MapContext, Mapper, MergeStream,
    RawComparator, ReduceContext, Reducer, Run, RunCodec, RunWriter, ValueIter,
    VarintSeqComparator, Writable,
};
use ngrams::{Computation, Method, NGramParams, ReverseLexComparator};
use proptest::prelude::*;
use std::sync::Arc;

/// A key that is its bytes, with no framing of its own.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct RawKey(Vec<u8>);

impl Writable for RawKey {
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn read_from(r: &mut ByteReader<'_>) -> mapreduce::Result<Self> {
        Ok(RawKey(r.read_bytes(r.remaining())?.to_vec()))
    }
}

struct KeyMapper;

impl Mapper for KeyMapper {
    type InKey = u32;
    type InValue = RawKey;
    type OutKey = RawKey;
    type OutValue = u64;
    fn map(&mut self, _: &u32, key: &RawKey, ctx: &mut MapContext<'_, RawKey, u64>) {
        ctx.emit(key, &1);
    }
}

/// Sums a group; serves as reducer and as combiner.
struct SumReducer;

impl Reducer for SumReducer {
    type Key = RawKey;
    type ValueIn = u64;
    type KeyOut = RawKey;
    type ValueOut = u64;
    fn reduce(
        &mut self,
        key: RawKey,
        values: &mut ValueIter<'_, u64>,
        ctx: &mut ReduceContext<'_, RawKey, u64>,
    ) {
        ctx.emit(key, values.sum());
    }
}

#[derive(Clone, Copy, Debug)]
struct Shuffle {
    /// 2 KiB sort buffers (several spills, a real merge) or the default
    /// (one arena sort per map task).
    spilly: bool,
    maps: usize,
    combine: bool,
}

fn shuffle() -> impl Strategy<Value = Shuffle> {
    (any::<bool>(), 1usize..4, any::<bool>()).prop_map(|(spilly, maps, combine)| Shuffle {
        spilly,
        maps,
        combine,
    })
}

/// `(key, occurrences)` in the order one reducer sees the groups.
fn order_through_job(
    keys: &[Vec<u8>],
    cmp: impl RawComparator + 'static,
    shuffle: Shuffle,
) -> Vec<(Vec<u8>, u64)> {
    let mut config = JobConfig::named("sort-props");
    config.num_map_tasks = shuffle.maps;
    config.num_reduce_tasks = 1;
    config.prefix_sort = true;
    if shuffle.spilly {
        config.sort_buffer_bytes = 2048;
    }
    let mut job =
        Job::<KeyMapper, SumReducer>::new(config, || KeyMapper, || SumReducer).sort_comparator(cmp);
    if shuffle.combine {
        job = job.combiner(|| Box::new(SumReducer));
    }
    let input: Vec<(u32, RawKey)> = keys.iter().map(|k| (0, RawKey(k.clone()))).collect();
    let result = job.run(&Cluster::new(2), input).expect("job failed");
    assert_eq!(result.outputs.len(), 1);
    result
        .outputs
        .into_iter()
        .flatten()
        .map(|(k, n)| (k.0, n))
        .collect()
}

/// The same through `sort_by(cmp.compare)`: the reference order.
fn order_through_comparator(keys: &[Vec<u8>], cmp: &dyn RawComparator) -> Vec<(Vec<u8>, u64)> {
    let mut sorted = keys.to_vec();
    sorted.sort_by(|a, b| cmp.compare(a, b));
    let mut groups: Vec<(Vec<u8>, u64)> = Vec::new();
    for k in sorted {
        match groups.last_mut() {
            Some((last, n)) if cmp.compare(last, &k).is_eq() => *n += 1,
            _ => groups.push((k, 1)),
        }
    }
    groups
}

/// Tail elements: small ids, the one/two-byte varint boundary, the largest
/// packable id, the id that collides with the ended sentinel, and (past
/// `GRAM_TAILS`) elements only `VarintSeqComparator` keys can hold.
const TAILS: [u64; 9] = [
    0,
    1,
    127,
    128,
    300,
    u32::MAX as u64 - 1,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    u64::MAX,
];
const GRAM_TAILS: usize = 7;

/// A varint-sequence key: the first `len` terms of one of three stems (0
/// and 1 agree on their first 100 terms, 2 differs from the start), then
/// the tail. Few distinct lengths and tails make duplicates heavy.
fn varint_key((stem, len, tail): (usize, usize, Vec<usize>)) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..len {
        let s = if i < 100 && stem == 1 { 0 } else { stem };
        mapreduce::write_vu64(&mut out, ((i * 31 + s * 7) % 5) as u64 * 60);
    }
    for t in tail {
        mapreduce::write_vu64(&mut out, TAILS[t]);
    }
    out
}

fn varint_terms(terms: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    terms
        .iter()
        .for_each(|&t| mapreduce::write_vu64(&mut out, t));
    out
}

fn varint_keys(tails: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    let len = prop_oneof![
        Just(0usize),
        Just(1),
        Just(2),
        Just(3),
        Just(50),
        Just(101),
        Just(199),
        Just(200)
    ];
    let spec = (0usize..3, len, prop::collection::vec(0..tails, 0..3));
    prop::collection::vec(spec.prop_map(varint_key), 0..300)
}

/// A byte key: a stem on either side of the 7-byte digest boundary, a run
/// of zero bytes (the padding the digest itself uses), then the tail.
fn byte_key((stem, zeros, tail): (usize, usize, Vec<u8>)) -> Vec<u8> {
    let stems: [&[u8]; 5] = [b"", b"ab", b"abcdefg", b"abcdefgh", b"abcdefghijklmno"];
    let mut out = stems[stem].to_vec();
    out.resize(out.len() + zeros, 0);
    out.extend(tail);
    out
}

fn byte_keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let tail = prop::collection::vec(prop_oneof![Just(0u8), Just(1), Just(b'a'), Just(255)], 0..3);
    let spec = (0usize..5, 0usize..17, tail);
    prop::collection::vec(spec.prop_map(byte_key), 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn varint_seq_keys_sort_like_the_comparator(keys in varint_keys(TAILS.len()), s in shuffle()) {
        prop_assert_eq!(
            order_through_job(&keys, VarintSeqComparator, s),
            order_through_comparator(&keys, &VarintSeqComparator)
        );
    }

    #[test]
    fn reverse_lex_keys_sort_like_the_comparator(keys in varint_keys(GRAM_TAILS), s in shuffle()) {
        prop_assert_eq!(
            order_through_job(&keys, ReverseLexComparator, s),
            order_through_comparator(&keys, &ReverseLexComparator)
        );
    }

    #[test]
    fn bytewise_keys_sort_like_the_comparator(keys in byte_keys(), s in shuffle()) {
        prop_assert_eq!(
            order_through_job(&keys, BytewiseComparator, s),
            order_through_comparator(&keys, &BytewiseComparator)
        );
    }
}

/// How a key set is dealt into runs and merged.
#[derive(Clone, Debug)]
struct MergeCase {
    /// Fan-in: none, one, the smallest trees, an odd one, and fan-ins
    /// above the key count (most runs empty or one record long).
    k: usize,
    /// Run of key `i` is `deal[i] % k`.
    deal: Vec<usize>,
    codec: RunCodec,
    pipelined: bool,
    prefix_sort: bool,
}

fn merge_case() -> impl Strategy<Value = MergeCase> {
    let k = prop_oneof![
        Just(0usize),
        Just(1),
        Just(2),
        Just(3),
        Just(7),
        Just(64),
        Just(500)
    ];
    let codec = prop_oneof![
        Just(RunCodec::Plain),
        Just(RunCodec::FrontCoded),
        Just(RunCodec::PostingDelta)
    ];
    let deal = prop::collection::vec(0usize..500, 300..301);
    (k, deal, codec, any::<bool>(), any::<bool>()).prop_map(
        |(k, deal, codec, pipelined, prefix_sort)| MergeCase {
            k,
            deal,
            codec,
            pipelined,
            prefix_sort,
        },
    )
}

/// Deal `keys` into `case.k` sorted runs, each record's value naming the
/// key's position in `keys`, and merge them: the merged records and the
/// reference, a stable `sort_by(cmp.compare)` of the runs laid end to end
/// (equal keys in run order, values intact).
fn merge_and_reference(
    keys: &[Vec<u8>],
    cmp: impl RawComparator + 'static,
    case: &MergeCase,
) -> [Vec<(Vec<u8>, Vec<u8>)>; 2] {
    let mut dealt: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); case.k];
    if case.k > 0 {
        for (i, key) in keys.iter().enumerate() {
            dealt[case.deal[i] % case.k].push((key.clone(), mapreduce::to_bytes(&(i as u64))));
        }
    }
    let runs: Vec<Run> = dealt
        .iter_mut()
        .map(|records| {
            records.sort_by(|a, b| cmp.compare(&a.0, &b.0));
            let mut w = RunWriter::mem_codec(case.codec);
            for (k, v) in records.iter() {
                w.write_record(k, v).unwrap();
            }
            w.finish().unwrap()
        })
        .collect();
    let mut reference = dealt.concat();
    reference.sort_by(|a, b| cmp.compare(&a.0, &b.0));

    let mut stream =
        MergeStream::with_options(&runs, Arc::new(cmp), case.prefix_sort, case.pipelined).unwrap();
    let mut merged = Vec::with_capacity(reference.len());
    while let Some((k, v)) = stream.peek() {
        merged.push((k.to_vec(), v.to_vec()));
        stream.pop().unwrap();
    }
    [merged, reference]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn varint_seq_runs_merge_like_a_stable_sort(keys in varint_keys(TAILS.len()), case in merge_case()) {
        let [merged, reference] = merge_and_reference(&keys, VarintSeqComparator, &case);
        prop_assert_eq!(merged, reference);
    }

    #[test]
    fn reverse_lex_runs_merge_like_a_stable_sort(keys in varint_keys(GRAM_TAILS), case in merge_case()) {
        let [merged, reference] = merge_and_reference(&keys, ReverseLexComparator, &case);
        prop_assert_eq!(merged, reference);
    }

    #[test]
    fn bytewise_runs_merge_like_a_stable_sort(keys in byte_keys(), case in merge_case()) {
        let [merged, reference] = merge_and_reference(&keys, BytewiseComparator, &case);
        prop_assert_eq!(merged, reference);
    }
}

/// The two-word contract the merge relies on, over every pair of `keys`:
/// unequal word pairs order like the comparator, and equal pairs consumed
/// equal bytes — so two keys that end inside them are equal keys.
fn assert_two_word_contract(cmp: &dyn RawComparator, keys: &[Vec<u8>]) {
    let consumed = |key: &[u8]| {
        let (_, resume) = cmp.digest(key, 0).expect("word 1");
        cmp.digest(key, resume).expect("word 2").1
    };
    for a in keys {
        for b in keys {
            let wa = cmp.digest_words(a).expect("packable key");
            let wb = cmp.digest_words(b).expect("packable key");
            if wa != wb {
                assert_eq!(wa.cmp(&wb), cmp.compare(a, b), "{a:?} vs {b:?}");
                continue;
            }
            let (na, nb) = (consumed(a), consumed(b));
            assert_eq!(a[..na], b[..nb], "tie on unequal bytes: {a:?} vs {b:?}");
            if na == a.len() && nb == b.len() {
                assert!(cmp.compare(a, b).is_eq(), "{a:?} vs {b:?}");
            }
        }
    }
}

#[test]
fn two_digest_words_order_byte_keys_across_both_boundaries() {
    // A key and its `\0`-extensions pad to the same words; only the
    // consumed counts tell them apart. Lengths end inside word 1, at its
    // 7-byte boundary, inside word 2, at the 14-byte boundary and past it.
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for stem in [&b""[..], b"ab", b"abcdefg", b"abcdefghijklmn"] {
        for len in [0usize, 1, 2, 3, 6, 7, 8, 13, 14, 15, 16] {
            let mut key = stem.to_vec();
            key.resize(key.len().max(len), 0);
            keys.push(key);
        }
    }
    keys.extend([b"abcdefghijklmno".to_vec(), b"abcdefghijklmnp".to_vec()]);
    keys.extend([vec![255; 7], vec![255; 13], vec![255; 14], vec![255; 15]]);
    assert_two_word_contract(&BytewiseComparator, &keys);
    let words = |k: &[u8]| BytewiseComparator.digest_words(k).unwrap();
    assert!(words(b"ab") < words(b"ab\0"));
    assert!(words(b"abcdefg") < words(b"abcdefg\0"));
    assert!(words(b"abcdefghijklm") < words(b"abcdefghijklm\0"));
    // Past 14 bytes the words tie and the bytes decide.
    assert_eq!(words(b"abcdefghijklmn"), words(b"abcdefghijklmn\0"));
}

#[test]
fn two_digest_words_order_term_keys_with_sentinels_at_every_slot() {
    // Keys of zero to six terms — ending inside word 1, at its boundary,
    // inside word 2, at its boundary, past it — with the smallest term and
    // the largest packable one (one below the "ended" sentinels) at each
    // of the four slots.
    let max = mapreduce::PACKED_TERM_MAX;
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for len in 0..=6usize {
        keys.push(varint_terms(&vec![7; len]));
        for slot in 0..len.min(4) {
            for term in [0, 8, max] {
                let mut terms = vec![7u64; len];
                terms[slot] = term;
                keys.push(varint_terms(&terms));
            }
        }
    }
    assert_two_word_contract(&VarintSeqComparator, &keys);
    assert_two_word_contract(&ReverseLexComparator, &keys);
    // "Ended" sorts below every term in one order and above in the other,
    // at the first slot of word 2 as much as inside word 1.
    let (short, long) = (varint_terms(&[7, 7]), varint_terms(&[7, 7, max]));
    assert!(VarintSeqComparator.digest_words(&short) < VarintSeqComparator.digest_words(&long));
    assert!(ReverseLexComparator.digest_words(&short) > ReverseLexComparator.digest_words(&long));
}

#[test]
fn keys_above_the_digest_width_take_the_fallback() {
    // The property above only bites if its generator reaches the `None`
    // arm: the wide tails have no digest, the rest of the key does.
    let wide = varint_key((0, 4, vec![8]));
    assert!(VarintSeqComparator.digest(&wide, 0).is_some());
    assert!(VarintSeqComparator.digest(&wide, 4).is_none());
    let sentinel = varint_key((0, 4, vec![6]));
    assert!(ReverseLexComparator.digest(&sentinel, 4).is_none());
    assert!(ReverseLexComparator
        .digest(&varint_key((0, 4, vec![5])), 4)
        .is_some());
}

#[test]
fn all_methods_agree_with_digests_on_and_off() {
    let cluster = Cluster::new(2);
    for (seed, sort_buffer_bytes) in [(11, JobConfig::default().sort_buffer_bytes), (12, 512)] {
        let coll = generate(&CorpusProfile::tiny("digest-on-off", 40), seed);
        let mut outputs = Vec::new();
        for method in Method::ALL {
            for combiner in [true, false] {
                for prefix_sort in [true, false] {
                    let mut params = NGramParams::new(2, 6);
                    params.combiner = combiner;
                    params.job.prefix_sort = prefix_sort;
                    params.job.sort_buffer_bytes = sort_buffer_bytes;
                    let got = Computation::new(method, &params)
                        .input(&coll)
                        .run(&cluster)
                        .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()));
                    outputs.push((method.name(), combiner, prefix_sort, got.grams));
                }
            }
        }
        let (_, _, _, first) = &outputs[0];
        assert!(!first.is_empty());
        for (method, combiner, prefix_sort, grams) in &outputs {
            assert_eq!(
                grams, first,
                "{method} (combiner={combiner}, prefix_sort={prefix_sort}, seed={seed}) differs"
            );
        }
    }
}
