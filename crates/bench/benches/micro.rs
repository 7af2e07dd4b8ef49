//! Criterion micro-benchmarks for the load-bearing primitives: the
//! varbyte codec, the raw vs deserializing comparator (§V), shuffle
//! sorting, the reduce-side k-way merge, the suffix-stack reducer path,
//! serving-segment lookups and prefix scans, posting-list joins, the LRU
//! cache, the kvstore, and Zipf sampling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mapreduce::{
    from_bytes, to_bytes, MergeStream, RawComparator, Run, RunCodec, RunWriter, Writable,
};
use ngrams::{reverse_lex, Gram, Posting, PostingList, ReverseLexComparator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{SegmentReader, SegmentWriter};
use std::hint::black_box;
use std::sync::Arc;

fn random_grams(n: usize, max_len: usize, vocab: u32, seed: u64) -> Vec<Gram> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.random_range(1..=max_len);
            Gram((0..len).map(|_| rng.random_range(0..vocab)).collect())
        })
        .collect()
}

fn bench_varbyte(c: &mut Criterion) {
    let grams = random_grams(10_000, 8, 50_000, 1);
    let total_terms: usize = grams.iter().map(Gram::len).sum();
    let mut group = c.benchmark_group("varbyte");
    group.throughput(Throughput::Elements(total_terms as u64));
    group.bench_function("encode", |b| {
        let mut buf = Vec::with_capacity(total_terms * 3);
        b.iter(|| {
            buf.clear();
            for g in &grams {
                g.write_to(&mut buf);
            }
            black_box(buf.len())
        });
    });
    let encoded: Vec<Vec<u8>> = grams.iter().map(to_bytes).collect();
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut terms = 0usize;
            for bytes in &encoded {
                let g: Gram = from_bytes(bytes).unwrap();
                terms += g.len();
            }
            black_box(terms)
        });
    });
    group.finish();
}

fn bench_comparators(c: &mut Criterion) {
    let grams = random_grams(2_000, 6, 100, 2);
    let encoded: Vec<Vec<u8>> = grams.iter().map(to_bytes).collect();
    let mut group = c.benchmark_group("comparator");
    group.throughput(Throughput::Elements((encoded.len() * encoded.len()) as u64));
    group.bench_function("raw_reverse_lex", |b| {
        let cmp = ReverseLexComparator;
        b.iter(|| {
            let mut acc = 0usize;
            for a in encoded.iter().take(200) {
                for bb in encoded.iter().take(200) {
                    acc += cmp.compare(a, bb) as usize;
                }
            }
            black_box(acc)
        });
    });
    group.bench_function("deserializing_reverse_lex", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for a in encoded.iter().take(200) {
                for bb in encoded.iter().take(200) {
                    let ga: Gram = from_bytes(a).unwrap();
                    let gb: Gram = from_bytes(bb).unwrap();
                    acc += reverse_lex(&ga, &gb) as usize;
                }
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_shuffle_sort(c: &mut Criterion) {
    // Sort serialized suffix keys the way a map task's spill does.
    let grams = random_grams(50_000, 10, 5_000, 3);
    let encoded: Vec<Vec<u8>> = grams.iter().map(to_bytes).collect();
    let mut group = c.benchmark_group("shuffle_sort");
    group.throughput(Throughput::Elements(encoded.len() as u64));
    group.bench_function("sort_50k_serialized_suffixes", |b| {
        let cmp = ReverseLexComparator;
        b.iter_batched(
            || encoded.clone(),
            |mut keys| {
                keys.sort_unstable_by(|a, bb| cmp.compare(a, bb));
                black_box(keys.len())
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    // What a SUFFIX-σ reduce task merges: suffixes of up to five terms
    // that all begin with the partition's few first terms, so every head
    // of the merge sits at the same two-term frontier and one digest word
    // ties. Dealt into `fan_in` sorted runs, many keys recurring across
    // runs.
    const RECORDS: usize = 60_000;
    let mut rng = StdRng::seed_from_u64(8);
    let keys: Vec<Vec<u8>> = (0..RECORDS)
        .map(|_| {
            let len = rng.random_range(1..=5usize);
            let mut terms = vec![rng.random_range(0..4u32), rng.random_range(0..16u32)];
            terms.extend((2..len).map(|_| rng.random_range(0..300u32)));
            terms.truncate(len);
            to_bytes(&Gram(terms))
        })
        .collect();
    let cmp = ReverseLexComparator;
    let mut group = c.benchmark_group("merge");
    group.throughput(Throughput::Elements(RECORDS as u64));
    for fan_in in [8usize, 64, 512] {
        for codec in [RunCodec::Plain, RunCodec::FrontCoded] {
            let mut dealt: Vec<Vec<&[u8]>> = vec![Vec::new(); fan_in];
            for key in &keys {
                dealt[rng.random_range(0..fan_in)].push(key);
            }
            let runs: Vec<Run> = dealt
                .iter_mut()
                .map(|run| {
                    run.sort_by(|a, b| cmp.compare(a, b));
                    let mut w = RunWriter::mem_codec(codec);
                    run.iter().for_each(|k| w.write_record(k, &[1]).unwrap());
                    w.finish().unwrap()
                })
                .collect();
            group.bench_function(&format!("fan_in_{fan_in}_{}", codec.name()), |b| {
                b.iter(|| {
                    let mut stream =
                        MergeStream::new(&runs, Arc::new(ReverseLexComparator)).unwrap();
                    let mut bytes = 0usize;
                    while let Some((key, val)) = stream.peek() {
                        bytes += key.len() + val.len();
                        stream.pop().unwrap();
                    }
                    black_box(bytes)
                });
            });
        }
    }
    group.finish();
}

fn bench_segment(c: &mut Criterion) {
    // What one SUFFIX-σ reduce partition seals: ≈ 46 k distinct grams of
    // one to five terms over a Zipf-ish vocabulary, one- or two-byte
    // counts. A lookup reads one of ≈ 60 blocks; half the probes are for
    // keys that are not there (a present key with its last byte bumped).
    const KEYS: usize = 46_000;
    const PROBES: usize = 2_000;
    let mut rng = StdRng::seed_from_u64(14);
    let mut keys: Vec<Vec<u8>> = (0..KEYS * 2)
        .map(|_| {
            let len = rng.random_range(1..=5usize);
            let terms = (0..len)
                .map(|_| {
                    let cap = rng.random_range(1..4_000u32);
                    rng.random_range(0..cap)
                })
                .collect();
            to_bytes(&Gram(terms))
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys.truncate(KEYS);
    let present: Vec<&[u8]> = (0..PROBES)
        .map(|_| keys[rng.random_range(0..keys.len())].as_slice())
        .collect();
    let absent: Vec<Vec<u8>> = present
        .iter()
        .map(|k| {
            let mut k = k.to_vec();
            *k.last_mut().unwrap() ^= 0x40;
            k
        })
        .filter(|k| keys.binary_search(k).is_err())
        .collect();
    // One-term prefixes of frequent first terms: each has far more than
    // 50 extensions.
    let prefixes: Vec<Vec<u8>> = (0..32u32).map(|t| to_bytes(&Gram(vec![t]))).collect();

    let mut group = c.benchmark_group("segment");
    for codec in [RunCodec::FrontCoded, RunCodec::Plain] {
        let path = std::env::temp_dir().join(format!(
            "micro-segment-{}-{}.seg",
            std::process::id(),
            codec.name()
        ));
        let mut w = SegmentWriter::create(&path, codec).unwrap();
        for (i, k) in keys.iter().enumerate() {
            w.push(k, 5 + (i as u64 * 7) % 300).unwrap();
        }
        w.finish().unwrap();
        let reader = SegmentReader::open(&path).unwrap();

        group.throughput(Throughput::Elements(present.len() as u64));
        group.bench_function(&format!("lookup_present_{}", codec.name()), |b| {
            b.iter(|| {
                let found = present.iter().filter_map(|k| reader.lookup(k).unwrap());
                black_box(found.sum::<u64>())
            });
        });
        group.throughput(Throughput::Elements(absent.len() as u64));
        group.bench_function(&format!("lookup_absent_{}", codec.name()), |b| {
            b.iter(|| {
                let found = absent.iter().filter_map(|k| reader.lookup(k).unwrap());
                black_box(found.count())
            });
        });
        group.throughput(Throughput::Elements(prefixes.len() as u64));
        group.bench_function(&format!("scan_prefix_50_{}", codec.name()), |b| {
            b.iter(|| {
                let mut rows = 0usize;
                for p in &prefixes {
                    let base = rows;
                    reader
                        .scan_prefix(p, &mut |k, c| {
                            black_box((k, c));
                            rows += 1;
                            Ok(rows - base < 50)
                        })
                        .unwrap();
                }
                black_box(rows)
            });
        });
        let _ = std::fs::remove_file(&path);
    }
    group.finish();
}

fn bench_posting_join(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let make_list = |docs: usize, positions: usize, rng: &mut StdRng| PostingList {
        postings: (0..docs as u64)
            .map(|did| {
                let mut pos: Vec<u32> = (0..positions)
                    .map(|_| rng.random_range(0..10_000))
                    .collect();
                pos.sort_unstable();
                pos.dedup();
                Posting {
                    did: did * 2,
                    positions: pos,
                }
            })
            .collect(),
    };
    let a = make_list(500, 20, &mut rng);
    let b = make_list(500, 20, &mut rng);
    let mut group = c.benchmark_group("postings");
    group.throughput(Throughput::Elements(a.cf() + b.cf()));
    group.bench_function("positional_join_500x500_docs", |bch| {
        bch.iter(|| black_box(a.join(&b)).cf());
    });
    group.bench_function("serialize_gap_coded", |bch| {
        bch.iter(|| black_box(to_bytes(&a).len()));
    });
    group.finish();
}

fn bench_lru(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_cache");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("put_get_zipf_keys", |b| {
        let zipf = corpus::Zipf::new(5_000, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let keys: Vec<[u8; 4]> = (0..10_000)
            .map(|_| zipf.sample(&mut rng).to_le_bytes())
            .collect();
        b.iter_batched(
            || kvstore::LruCache::new(64 * 1024),
            |mut cache| {
                let mut hits = 0u32;
                for k in &keys {
                    if cache.get(k).is_some() {
                        hits += 1;
                    } else {
                        cache.put(k, k);
                    }
                }
                black_box(hits)
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_kvstore(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("kv-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = kvstore::KvStore::open(&dir, kvstore::Options::default()).unwrap();
    let mut group = c.benchmark_group("kvstore");
    group.throughput(Throughput::Elements(1_000));
    let mut counter = 0u64;
    group.bench_function("put_1k", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                counter += 1;
                store
                    .put(&counter.to_le_bytes(), &counter.to_le_bytes())
                    .unwrap();
            }
        });
    });
    group.bench_function("get_hot_1k", |b| {
        b.iter(|| {
            let mut found = 0u32;
            for i in 1..=1_000u64 {
                if store.get(&i.to_le_bytes()).unwrap().is_some() {
                    found += 1;
                }
            }
            black_box(found)
        });
    });
    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_zipf(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("alias_sample_100k_vocab50k", |b| {
        let zipf = corpus::Zipf::new(50_000, 1.05);
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc += u64::from(zipf.sample(&mut rng));
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    // Whole-method comparison on a small corpus: the headline contrast,
    // plus the single-machine suffix-sorting baseline (§VIII).
    let coll = corpus::generate(&corpus::CorpusProfile::tiny("bench", 150), 9);
    let cluster = mapreduce::Cluster::new(2);
    let params = ngrams::NGramParams::new(3, 5);
    let mut group = c.benchmark_group("end_to_end_tiny");
    group.sample_size(20);
    for method in [ngrams::Method::SuffixSigma, ngrams::Method::Naive] {
        group.bench_function(method.name(), |b| {
            b.iter(|| {
                let r = ngrams::Computation::new(method, &params)
                    .input(&coll)
                    .run(&cluster)
                    .unwrap();
                black_box(r.grams.len())
            });
        });
    }
    let input = ngrams::prepare_input(&coll, 3, true);
    group.bench_function("single-machine suffix sort", |b| {
        b.iter(|| black_box(ngrams::suffix_sort_counts(&input, 3, 5)).len());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_varbyte,
    bench_comparators,
    bench_shuffle_sort,
    bench_merge,
    bench_segment,
    bench_posting_join,
    bench_lru,
    bench_kvstore,
    bench_zipf,
    bench_end_to_end,
);
criterion_main!(benches);
