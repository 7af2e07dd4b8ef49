//! The digest-refinement sort against its reference, the comparator-only
//! sort (`prefix_sort = false`): key order per comparator over adversarial
//! key sets, and output identity of the four methods with the digest path
//! on and off.

use corpus::{generate, CorpusProfile};
use mapreduce::{
    ByteReader, BytewiseComparator, Cluster, Job, JobConfig, MapContext, Mapper, RawComparator,
    ReduceContext, Reducer, ValueIter, VarintSeqComparator, Writable,
};
use ngrams::{Computation, Method, NGramParams, ReverseLexComparator};
use proptest::prelude::*;

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
