//! The serving invariant, property-tested: every `(gram, count)` a
//! driver run produces is served back *identically* after the segment
//! round-trip — for all four methods, both count modes, and every block
//! codec. The index must also deny what was never computed: lookups of
//! unknown grams return nothing, and the full enumeration contains
//! exactly the computed record set.
//!
//! And the routing invariant: an index whose manifest names the job's
//! partitioner reads one segment per lookup, yet answers every query —
//! present keys, absent neighbours, prefixes, top-k — exactly as the
//! same directory does with the `partitioner` line removed (every segment
//! asked), and exactly as the computed output says.

use corpus::{generate, CorpusProfile};
use mapreduce::{to_bytes, Cluster, MrError, RunCodec};
use ngrams::{Computation, CountMode, Gram, Method, NGramParams, OutputMode, OutputPartitioner};
use proptest::prelude::*;
use serve::{build_index, IndexOptions, StatsIndex, MANIFEST_FILE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_index_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "serve-props-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

const CODECS: [RunCodec; 3] = [
    RunCodec::Plain,
    RunCodec::FrontCoded,
    RunCodec::PostingDelta,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn every_computed_gram_is_served_back_identically(
        seed in 0u64..10_000,
        docs in 10usize..30,
        tau in 2u64..4,
        sigma in 2usize..5,
        df in any::<bool>(),
        codec_ix in 0usize..3,
    ) {
        let coll = generate(&CorpusProfile::tiny("serve-prop", docs), seed);
        let cluster = Cluster::new(2);
        let mut params = NGramParams::new(tau, sigma);
        params.mode = if df { CountMode::Df } else { CountMode::Cf };
        let codec = CODECS[codec_ix];
        for method in Method::ALL {
            let computation = Computation::new(method, &params).input(&coll);
            let expected = computation.run(&cluster)
                .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()))
                .grams;
            let dir = temp_index_dir();
            let opts = IndexOptions { codec, ..IndexOptions::default() };
            let meta = build_index(&cluster, &computation, &coll.dictionary, "prop", &dir, &opts)
                .unwrap_or_else(|e| panic!("{} index build failed: {e}", method.name()));
            prop_assert_eq!(meta.entries, expected.len() as u64);
            let index = StatsIndex::open(&dir)
                .unwrap_or_else(|e| panic!("{} index open failed: {e}", method.name()));

            // Point lookups: identical counts for every computed gram.
            for (gram, count) in &expected {
                prop_assert_eq!(
                    index.lookup_gram(gram.terms()).unwrap(),
                    Some(*count),
                    "{} codec {:?}: gram {:?} served wrong",
                    method.name(), codec, gram
                );
            }
            // Denial: a term id beyond the dictionary was never counted.
            let absent = [u32::MAX - 1];
            prop_assert_eq!(index.lookup_gram(&absent).unwrap(), None);

            // Enumeration: the empty prefix returns exactly the computed
            // set, decoded — same size, same multiset of counts.
            let all = index.prefix("", usize::MAX).unwrap();
            prop_assert_eq!(all.len(), expected.len());
            let mut served: Vec<u64> = all.iter().map(|(_, c)| *c).collect();
            let mut computed: Vec<u64> = expected.iter().map(|(_, c)| *c).collect();
            served.sort_unstable();
            computed.sort_unstable();
            prop_assert_eq!(served, computed);

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Rewrite the manifest's `partitioner` line: `None` removes it (what an
/// index built before the line existed looks like), `Some` sets it.
fn set_partitioner(dir: &Path, value: Option<&str>) {
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let mut lines: Vec<String> = manifest
        .lines()
        .filter(|l| !l.starts_with("partitioner\t"))
        .map(str::to_string)
        .collect();
    if let Some(v) = value {
        lines.push(format!("partitioner\t{v}"));
    }
    std::fs::write(dir.join(MANIFEST_FILE), lines.join("\n") + "\n").unwrap();
}

/// Every present gram plus its absent neighbours: last term ± 1, each
/// proper prefix, an extension by one term, and the empty gram.
fn probes(expected: &BTreeMap<Gram, u64>) -> Vec<Gram> {
    let mut out = vec![Gram::default(), Gram(vec![u32::MAX - 1])];
    for gram in expected.keys() {
        let terms = gram.terms();
        out.push(gram.clone());
        let (&last, head) = terms.split_last().unwrap();
        for bumped in [last.wrapping_sub(1), last + 1] {
            out.push(Gram([head, &[bumped]].concat()));
        }
        out.extend((1..terms.len()).map(|n| Gram::new(&terms[..n])));
        out.push(Gram([terms, &[0]].concat()));
        out.push(Gram([terms, &[59]].concat()));
    }
    out
}

/// The whole query surface of `index` against the computed output.
fn assert_answers(index: &StatsIndex, expected: &BTreeMap<Gram, u64>, what: &str) {
    for probe in probes(expected) {
        assert_eq!(
            index.lookup_gram(probe.terms()).unwrap(),
            expected.get(&probe).copied(),
            "{what}: lookup of {probe:?}"
        );
    }
    // Segment order is key-byte order; so is the served prefix order.
    let mut by_key: Vec<(Vec<u8>, &Gram, u64)> =
        expected.iter().map(|(g, c)| (to_bytes(g), g, *c)).collect();
    by_key.sort();
    let decode = |g: &Gram| index.dictionary().decode(g.terms());
    let mut prefixes = vec![Gram::default()];
    prefixes.extend(expected.keys().filter(|g| g.len() <= 2).cloned());
    for prefix in prefixes {
        for limit in [1usize, 3, usize::MAX] {
            let want: Vec<(String, u64)> = by_key
                .iter()
                .filter(|(_, g, _)| prefix.is_prefix_of(g))
                .take(limit)
                .map(|(_, g, c)| (decode(g), *c))
                .collect();
            assert_eq!(
                index.prefix(&decode(&prefix), limit).unwrap(),
                want,
                "{what}: prefix {prefix:?} limit {limit}"
            );
        }
    }
    let mut by_count = by_key;
    by_count.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    for k in [0usize, 1, 5, expected.len() + 10] {
        let want: Vec<(String, u64)> = by_count
            .iter()
            .take(k)
            .map(|(_, g, c)| (decode(g), *c))
            .collect();
        assert_eq!(index.topk(k).unwrap(), want, "{what}: topk({k})");
    }
}

#[test]
fn routed_index_equals_probe_all_equals_computed() {
    let coll = generate(&CorpusProfile::tiny("routed", 14), 23);
    let cluster = Cluster::new(2);
    let mut builds = 0usize;
    for df in [false, true] {
        for method in Method::ALL {
            for partitions in [1usize, 2, 3, 5] {
                for codec in CODECS {
                    let mut params = NGramParams::new(2, 3);
                    params.mode = if df { CountMode::Df } else { CountMode::Cf };
                    params.job.num_reduce_tasks = partitions;
                    let computation = Computation::new(method, &params).input(&coll);
                    let expected: BTreeMap<Gram, u64> = computation
                        .run(&cluster)
                        .unwrap()
                        .grams
                        .into_iter()
                        .collect();
                    assert!(expected.len() > 20, "corpus too small to witness anything");
                    let what = format!(
                        "{} R={partitions} {} {}",
                        method.name(),
                        codec.name(),
                        if df { "df" } else { "cf" }
                    );
                    let dir = temp_index_dir();
                    // Two stored top entries on the odd builds: top-k then
                    // has to fall back to scanning.
                    let opts = IndexOptions {
                        codec,
                        top_entries: if builds.is_multiple_of(2) { 1024 } else { 2 },
                    };
                    builds += 1;
                    let meta = build_index(
                        &cluster,
                        &computation,
                        &coll.dictionary,
                        "routed",
                        &dir,
                        &opts,
                    )
                    .unwrap();
                    let want_partitioner = match method {
                        Method::SuffixSigma => Some(OutputPartitioner::FirstTerm),
                        Method::Naive => Some(OutputPartitioner::KeyHash),
                        Method::AprioriScan | Method::AprioriIndex => None,
                    };
                    assert_eq!(meta.partitioner, want_partitioner, "{what}");
                    if want_partitioner.is_some() {
                        assert_eq!(meta.segments, partitions as u64, "{what}");
                    }

                    let routed = StatsIndex::open(&dir).unwrap();
                    assert_eq!(routed.meta().partitioner, want_partitioner, "{what}");
                    assert_answers(&routed, &expected, &format!("{what} as built"));
                    drop(routed);

                    set_partitioner(&dir, None);
                    let probe_all = StatsIndex::open(&dir).unwrap();
                    assert_eq!(probe_all.meta().partitioner, None);
                    assert_answers(&probe_all, &expected, &format!("{what} without the line"));
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

#[test]
fn maximal_output_is_served_unrouted() {
    // The maximal/closed post-filter job partitions by *last* term, so no
    // one rule places its output: no partitioner line, every segment asked.
    let coll = generate(&CorpusProfile::tiny("maximal", 14), 29);
    let cluster = Cluster::new(2);
    let mut params = NGramParams::new(2, 3);
    params.output = OutputMode::Maximal;
    params.job.num_reduce_tasks = 3;
    let computation = Computation::new(Method::SuffixSigma, &params).input(&coll);
    let expected: BTreeMap<Gram, u64> = computation
        .run(&cluster)
        .unwrap()
        .grams
        .into_iter()
        .collect();
    assert!(!expected.is_empty());
    let dir = temp_index_dir();
    let meta = build_index(
        &cluster,
        &computation,
        &coll.dictionary,
        "maximal",
        &dir,
        &IndexOptions::default(),
    )
    .unwrap();
    assert_eq!(meta.partitioner, None);
    assert_eq!(meta.segments, 3);
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    assert!(!manifest.contains("partitioner"));
    assert_answers(&StatsIndex::open(&dir).unwrap(), &expected, "maximal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_partitioner_that_disagrees_with_the_segments_is_refused_at_open() {
    let coll = generate(&CorpusProfile::tiny("refuse", 14), 31);
    let cluster = Cluster::new(2);
    let mut params = NGramParams::new(2, 3);
    params.job.num_reduce_tasks = 3;
    let refused = |dir: &Path, what: &str| match StatsIndex::open(dir) {
        Err(MrError::Corrupt(_)) => {}
        Err(other) => panic!("{what}: wanted Corrupt, got {other:?}"),
        Ok(_) => panic!("{what}: a manifest the segments contradict must not open"),
    };
    for (method, own, wrong) in [
        (Method::SuffixSigma, "first-term", "key-hash"),
        (Method::Naive, "key-hash", "first-term"),
    ] {
        let computation = Computation::new(method, &params).input(&coll);
        let dir = temp_index_dir();
        build_index(
            &cluster,
            &computation,
            &coll.dictionary,
            "refuse",
            &dir,
            &IndexOptions::default(),
        )
        .unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert!(
            manifest.contains(&format!("partitioner\t{own}\n")),
            "{manifest}"
        );

        set_partitioner(&dir, Some(wrong));
        refused(&dir, &format!("{} as {wrong}", method.name()));
        set_partitioner(&dir, Some("by-moon-phase"));
        refused(&dir, "unknown partitioner");

        // The right rule over misplaced files: two segments swapped.
        set_partitioner(&dir, Some(own));
        assert!(StatsIndex::open(&dir).is_ok());
        let (a, b) = (dir.join("part-00000.seg"), dir.join("part-00001.seg"));
        std::fs::rename(&a, dir.join("swap")).unwrap();
        std::fs::rename(&b, &a).unwrap();
        std::fs::rename(dir.join("swap"), &b).unwrap();
        refused(&dir, &format!("{} with swapped segments", method.name()));
        // Unrouted, the same files answer: placement no longer matters.
        set_partitioner(&dir, None);
        assert!(StatsIndex::open(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_routed_query_reads_only_the_segment_its_partitioner_names() {
    // Witness by damage: with segment 1's only block corrupted (the
    // footer, and so `open`, untouched), every query routed elsewhere
    // still answers — it never reads that block — while the same index
    // without the `partitioner` line trips over it on a miss.
    let coll = generate(&CorpusProfile::tiny("witness", 14), 37);
    let cluster = Cluster::new(2);
    let mut params = NGramParams::new(2, 3);
    params.job.num_reduce_tasks = 3;
    let computation = Computation::new(Method::SuffixSigma, &params).input(&coll);
    let expected = computation.run(&cluster).unwrap().grams;
    let dir = temp_index_dir();
    build_index(
        &cluster,
        &computation,
        &coll.dictionary,
        "witness",
        &dir,
        &IndexOptions::default(),
    )
    .unwrap();
    let victim = dir.join("part-00001.seg");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[serve::SEGMENT_MAGIC.len()] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();

    let segment_of = |g: &Gram| OutputPartitioner::FirstTerm.partition(g, 3);
    let routed = StatsIndex::open_with_cache(&dir, 0).unwrap();
    let (mut elsewhere, mut in_victim) = (0, 0);
    for (gram, count) in &expected {
        let absent = Gram([gram.terms(), &[59, 59, 59]].concat());
        if segment_of(gram) == 1 {
            in_victim += 1;
            assert!(matches!(
                routed.lookup_gram(gram.terms()),
                Err(MrError::ChecksumMismatch { .. })
            ));
        } else {
            elsewhere += 1;
            assert_eq!(routed.lookup_gram(gram.terms()).unwrap(), Some(*count));
            assert_eq!(routed.lookup_gram(absent.terms()).unwrap(), None);
            let text = routed.dictionary().decode(&gram.terms()[..1]);
            assert!(!routed.prefix(&text, 3).unwrap().is_empty());
        }
    }
    assert!(elsewhere > 0 && in_victim > 0, "{elsewhere} / {in_victim}");
    drop(routed);

    set_partitioner(&dir, None);
    let probe_all = StatsIndex::open_with_cache(&dir, 0).unwrap();
    let tripped = expected
        .iter()
        .filter(|(g, _)| segment_of(g) == 2)
        .filter(|(g, _)| probe_all.lookup_gram(g.terms()).is_err())
        .count();
    assert!(
        tripped > 0,
        "asking every segment must reach the damaged one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
