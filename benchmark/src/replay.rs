//! Layer replay: each layer of the engine run on its own, single-threaded,
//! on the workload's own store and its own SUFFIX-σ output, with a
//! harness-recorded span around every public call. These numbers say where
//! a change to one layer should show; they are reported by the traced run
//! only.

use crate::compute::{check_rep, compute_rep, Env, Expected};
use crate::gate::{Digest, Gate};
use crate::metrics::Report;
use crate::serving::QuerySet;
use crate::spans::SpanLog;
use crate::stats::{median, percentile, Rng};
use crate::workload::Workload;
use corpus::{CorpusReader, Document};
use mapreduce::{BytewiseComparator, Cluster, MergeStream, Run, RunCodec, RunWriter, TempDir};
use ngrams::{flatten_document, Gram, Method, NGramParams};
use serve::{SegmentReader, SegmentWriter, StatsIndex};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Point lookups timed per replay (fewer when the output is smaller).
const LOOKUP_SAMPLES: usize = 10_000;

/// `corpus.store.*` and `ngrams.input.*`: open the store, read and decode
/// every block, flatten every document with the footer's unigram counts.
pub fn store_and_input(
    log: &mut SpanLog,
    w: &Workload,
    store: &Path,
    report: &mut Report,
    gate: &mut Gate,
) {
    let mut opens = Vec::new();
    let mut reader = None;
    for _ in 0..5 {
        let (r, secs) = log.time("corpus.store.open", || CorpusReader::open(store));
        opens.push(secs);
        reader = r.ok();
    }
    gate.check(reader.is_some(), || "store does not open".into());
    let Some(reader) = reader else { return };
    report.set_median("corpus.store.open_s", opens);

    let mut docs: Vec<Document> = Vec::new();
    let (read_ok, read_s) = log.time("corpus.store.read", || {
        (0..reader.num_blocks()).try_for_each(|i| reader.read_block(i).map(|b| docs.extend(b)))
    });
    gate.check(
        read_ok.is_ok() && docs.len() as u64 == reader.meta().num_docs,
        || format!("store read back {} docs: {read_ok:?}", docs.len()),
    );
    report.set("corpus.store.read_s", read_s);
    report.set("corpus.store.blocks", reader.num_blocks() as f64);
    report.set("corpus.store.disk_bytes", reader.meta().data_bytes as f64);
    report.set(
        "corpus.store.raw_bytes",
        reader.meta().raw_data_bytes as f64,
    );

    let cf = Arc::clone(reader.unigram_cf());
    let lookup = move |t: u32| cf.get(t as usize).copied().unwrap_or(0);
    let mut records = 0u64;
    let (_, flatten_s) = log.time("ngrams.input.flatten", || {
        for d in &docs {
            flatten_document(
                d.id,
                d.year,
                &d.sentences,
                w.tau,
                Some(&lookup),
                &mut |did, seq| {
                    records += 1;
                    black_box((did, seq));
                    Ok(())
                },
            )
            .expect("the emit closure never fails");
        }
    });
    report.set("ngrams.input.flatten_s", flatten_s);
    report.set("ngrams.input.records", records as f64);
}

/// `ngrams.suffix_sigma.slots1_s`: the whole SUFFIX-σ computation on a
/// one-slot cluster, the baseline parallel efficiency is read against.
pub fn single_slot(
    log: &mut SpanLog,
    env: &Env,
    store: &Path,
    params: &NGramParams,
    expected: &Digest,
    report: &mut Report,
    gate: &mut Gate,
) {
    let out = env.output_path("slots1");
    let (rep, _) = log.time("ngrams.suffix_sigma.slots1", || {
        compute_rep(store, Method::SuffixSigma, params, &Cluster::new(1), &out)
    });
    gate.attempted += 1;
    match rep {
        Ok(rep) => {
            check_rep(gate, "slots1", &rep, &out, expected);
            report.set("ngrams.suffix_sigma.slots1_s", rep.wall);
        }
        Err(e) => gate.fail(format!("slots1: compute failed: {e}")),
    }
}

/// `mapreduce.run.*` and `mapreduce.merge.*`: the sorted records split
/// round-robin into `fan_in` sorted runs (memory- or file-backed, in the
/// workload's run codec), written, read back, then k-way merged.
pub fn runs_and_merge(
    log: &mut SpanLog,
    w: &Workload,
    env: &Env,
    expected: &Expected,
    report: &mut Report,
    gate: &mut Gate,
) {
    let k = w.replay_fan_in;
    let codec = w.run_codec();
    let records = &expected.records;
    let values: Vec<Vec<u8>> = records
        .iter()
        .map(|(_, c)| mapreduce::to_bytes(c))
        .collect();
    // File-backed runs live here until the replay is over.
    let temp = match w
        .lowmem
        .then(|| TempDir::create(Some(&env.scratch)))
        .transpose()
    {
        Ok(temp) => temp,
        Err(e) => return gate.fail(format!("cannot create run directory: {e}")),
    };
    let (runs, encode_s) = log.time("mapreduce.run.encode", || -> mapreduce::Result<Vec<Run>> {
        let mut writers = (0..k)
            .map(|_| match &temp {
                Some(dir) => RunWriter::file_codec(dir, codec),
                None => Ok(RunWriter::mem_codec(codec)),
            })
            .collect::<mapreduce::Result<Vec<_>>>()?;
        for (i, ((key, _), val)) in records.iter().zip(&values).enumerate() {
            writers[i % k].write_record(key, val)?;
        }
        writers.into_iter().map(RunWriter::finish).collect()
    });
    gate.check(runs.is_ok(), || {
        format!("run write failed: {:?}", runs.as_ref().err())
    });
    let Ok(runs) = runs else { return };
    report.set("mapreduce.run.encode_s", encode_s);
    let (encoded, raw): (u64, u64) = runs
        .iter()
        .fold((0, 0), |(e, r), run| (e + run.bytes, r + run.raw_bytes));
    report.set("mapreduce.run.ratio", encoded as f64 / raw.max(1) as f64);

    let (decoded, decode_s) = log.time("mapreduce.run.decode", || -> mapreduce::Result<u64> {
        let (mut key, mut val) = (Vec::new(), Vec::new());
        let mut n = 0u64;
        for run in &runs {
            let mut reader = run.reader()?;
            while reader.next_into(&mut key, &mut val)? {
                n += 1;
            }
        }
        Ok(n)
    });
    gate.check(
        matches!(decoded, Ok(n) if n == records.len() as u64),
        || format!("run read back {decoded:?} of {} records", records.len()),
    );
    report.set("mapreduce.run.decode_s", decode_s);

    let (merged, merge_s) = log.time("mapreduce.merge.replay", || -> mapreduce::Result<bool> {
        let mut stream = MergeStream::new(&runs, Arc::new(BytewiseComparator))?;
        let (mut key, mut val) = (Vec::new(), Vec::new());
        let mut next = records.iter();
        while stream.next_record(&mut key, &mut val)? {
            if next.next().map(|(k, _)| k.as_slice()) != Some(key.as_slice()) {
                return Ok(false);
            }
        }
        Ok(next.next().is_none())
    });
    gate.check(matches!(merged, Ok(true)), || {
        format!("merge of {k} runs did not reproduce the sorted records: {merged:?}")
    });
    report.set("mapreduce.merge.replay_s", merge_s);
    report.set("mapreduce.merge.fan_in", k as f64);
}

/// `serve.segment.*`: write all records into one front-coded segment, then
/// time sampled point lookups and the mix's prefix scans against it.
pub fn segment(
    log: &mut SpanLog,
    w: &Workload,
    env: &Env,
    queries: &QuerySet,
    rng: &mut Rng,
    report: &mut Report,
    gate: &mut Gate,
) {
    let records = &queries.expected().records;
    let path = env.scratch.join("replay.seg");
    let (meta, write_s) = log.time("serve.segment.write", || -> mapreduce::Result<_> {
        let mut writer = SegmentWriter::create(&path, RunCodec::FrontCoded)?;
        for (key, count) in records {
            writer.push(key, *count)?;
        }
        writer.finish()
    });
    gate.check(
        matches!(&meta, Ok(m) if m.entries == records.len() as u64),
        || format!("segment write: {:?}", meta.as_ref().map(|m| m.entries)),
    );
    let Ok(meta) = meta else { return };
    report.set("serve.segment.write_s", write_s);
    report.set("serve.segment.bytes", meta.data_bytes as f64);

    let reader = match SegmentReader::open(&path) {
        Ok(r) => r,
        Err(e) => return gate.fail(format!("segment does not open: {e}")),
    };
    let outer = log.enter("serve.segment.lookup");
    let mut lookups = Vec::new();
    let mut wrong = 0u64;
    for _ in 0..LOOKUP_SAMPLES.min(records.len()) {
        let (key, count) = &records[rng.below(records.len())];
        let start = Instant::now();
        let got = reader.lookup(key);
        lookups.push(start.elapsed().as_nanos() as u64);
        wrong += u64::from(!matches!(got, Ok(Some(c)) if c == *count));
    }
    log.exit(outer);
    gate.check(wrong == 0, || {
        format!("{wrong} segment lookups answered wrong")
    });
    lookups.sort_unstable();
    report.set(
        "serve.segment.lookup_us",
        percentile(&lookups, 0.5) as f64 / 1e3,
    );

    let outer = log.enter("serve.segment.scan");
    let mut scans = Vec::new();
    for prefix in queries.prefix_keys() {
        let mut rows = 0usize;
        let start = Instant::now();
        let scanned = reader.scan_prefix(&prefix, &mut |k, c| {
            black_box((k, c));
            rows += 1;
            Ok(rows < w.mix.prefix_limit)
        });
        scans.push(start.elapsed().as_nanos() as f64 / 1e3);
        gate.check(scanned.is_ok() && rows > 0, || {
            format!("segment scan returned {rows} rows: {scanned:?}")
        });
    }
    log.exit(outer);
    report.set_with_samples("serve.segment.scan_us", median(&scans), scans);
}

/// `serve.index.hit_us` / `miss_us`: first and second touch of sampled
/// grams through a freshly opened index whose cache holds all of them.
pub fn index_touch(
    log: &mut SpanLog,
    index_dir: &Path,
    expected: &Expected,
    rng: &mut Rng,
    report: &mut Report,
    gate: &mut Gate,
) {
    let index = match StatsIndex::open(index_dir) {
        Ok(i) => i,
        Err(e) => return gate.fail(format!("index does not open: {e}")),
    };
    let records = &expected.records;
    // Distinct keys, so that every first touch is a miss.
    let mut picks: Vec<usize> = (0..LOOKUP_SAMPLES.min(records.len()))
        .map(|_| rng.below(records.len()))
        .collect();
    picks.sort_unstable();
    picks.dedup();
    let grams: Vec<(Gram, u64)> = picks
        .iter()
        .map(|&i| {
            let gram = mapreduce::from_bytes(&records[i].0).expect("keys serialized here");
            (gram, records[i].1)
        })
        .collect();
    let mut wrong = 0u64;
    let mut touch = |name: &str| {
        let outer = log.enter(name);
        let mut nanos = Vec::with_capacity(grams.len());
        for (gram, count) in &grams {
            let start = Instant::now();
            let got = index.lookup_gram(gram.terms());
            nanos.push(start.elapsed().as_nanos() as u64);
            wrong += u64::from(!matches!(got, Ok(Some(c)) if c == *count));
        }
        log.exit(outer);
        nanos.sort_unstable();
        percentile(&nanos, 0.5) as f64 / 1e3
    };
    let miss_us = touch("serve.index.miss");
    let hit_us = touch("serve.index.hit");
    let (hits, misses) = index.cache_stats();
    gate.check(
        wrong == 0 && hits == grams.len() as u64 && misses == grams.len() as u64,
        || format!("index touch: {wrong} wrong, {hits} hits, {misses} misses"),
    );
    report.set("serve.index.miss_us", miss_us);
    report.set("serve.index.hit_us", hit_us);
}
