//! One workload, start to finish. The untraced run (`--trace 0`) yields the
//! end-to-end metrics; the traced run (`--trace 1`) yields the per-layer
//! ones from the engine's own telemetry plus the layer replay. Both check
//! every output they produce.

use crate::compute::{
    self, index_build, read_output, retries, timed_reps, traced_rep, Env, MethodRuns,
};
use crate::gate::{Digest, Gate};
use crate::metrics::{Report, METHODS};
use crate::replay;
use crate::serving::{self, Batch, QuerySet, Served, KINDS};
use crate::spans::SpanLog;
use crate::stats::{median, percentile, quantile, samples_beyond, Rng};
use crate::workload::Workload;
use corpus::CorpusReader;
use mapreduce::Counter;
use ngrams::{Method, NGramParams};
use serve::StatsIndex;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Options {
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    pub smoke: bool,
}

/// Set-up passes of an untraced run; `setup_s` is their median (plus the
/// one index open and cache warm-up).
const SETUP_REPS: usize = 3;
/// Index builds of an untraced run; `index_build_s` is their median.
const INDEX_BUILDS: usize = 3;
/// Share of `--seconds` the compute reps may take before the index builds
/// and the load phase get the rest.
const COMPUTE_SHARE: f64 = 0.55;
/// Fewest load batches of an untraced run (the serve metrics are deciles
/// over batches).
const MIN_BATCHES: usize = 10;
/// Keys of the HTTP-versus-direct comparison.
const OVERHEAD_KEYS: usize = 2_000;
/// `--smoke` load: 2 batches of 2,000 requests.
const SMOKE_BATCH_REQUESTS: usize = 2_000;

/// What one pass of set-up leaves behind.
struct Prepared {
    store: PathBuf,
    queries: QuerySet,
    docs: u64,
    tokens: u64,
}

impl Prepared {
    fn digest(&self) -> &Digest {
        &self.queries.expected().digest
    }

    fn describe(&self, info: &mut Info) {
        let expected = self.queries.expected();
        info.push(("corpus.docs".into(), self.docs.to_string()));
        info.push(("corpus.tokens".into(), self.tokens.to_string()));
        info.push(("output.records".into(), expected.records.len().to_string()));
        info.push(("output.digest".into(), expected.digest.hex()));
    }
}

/// Free-form facts about a run (sizes, digests, sample counts), printed with
/// the metrics and kept in the `--out` artifact.
pub type Info = Vec<(String, String)>;

/// Corpus generation, store write, SUFFIX-σ warm-up rep and query-set
/// derivation. The warm-up's output is what every later output is held to.
fn prepare(
    w: &Workload,
    env: &Env,
    opts: &Options,
    params: &NGramParams,
    gate: &mut Gate,
) -> Option<Prepared> {
    let store = env.scratch.join("corpus.store");
    gate.attempted += 1;
    let meta = match compute::write_store(w, opts.smoke, opts.seed, &store) {
        Ok(meta) => meta,
        Err(e) => {
            gate.fail(format!("cannot write corpus store: {e}"));
            return None;
        }
    };
    let out = env.output_path("warmup");
    gate.attempted += 1;
    let rep = match compute::compute_rep(&store, Method::SuffixSigma, params, &env.cluster(), &out)
    {
        Ok(rep) => rep,
        Err(e) => {
            gate.fail(format!("warm-up compute failed: {e}"));
            return None;
        }
    };
    gate.check(retries(&rep.stats) == 0, || "warm-up retried a task".into());
    let expected = match read_output(&out) {
        Ok(expected) => expected,
        Err(e) => {
            gate.fail(format!("warm-up output unreadable: {e}"));
            return None;
        }
    };
    gate.check(!expected.records.is_empty(), || {
        "the computation found no frequent n-gram; nothing to serve".into()
    });
    if expected.records.is_empty() {
        return None;
    }
    let dictionary = CorpusReader::open(&store).ok()?.dictionary();
    Some(Prepared {
        store,
        queries: QuerySet::derive(expected, dictionary, w.mix),
        docs: meta.num_docs,
        tokens: meta.num_tokens,
    })
}

/// `--smoke` only: the output digest equals the brute-force oracle's.
fn check_against_reference(w: &Workload, prepared: &Prepared, gate: &mut Gate) {
    let oracle = CorpusReader::open(&prepared.store)
        .and_then(|r| r.load_collection())
        .map(|coll| {
            let input = ngrams::prepare_input(&coll, w.tau, true);
            let mut digest = Digest::default();
            for (terms, count) in ngrams::reference_cf(&input, w.tau, w.sigma) {
                let ids: Vec<String> = terms.iter().map(u32::to_string).collect();
                digest.add_line(format!("{count}\t{}", ids.join(" ")).as_bytes());
            }
            digest
        });
    gate.check(matches!(&oracle, Ok(d) if d == prepared.digest()), || {
        format!(
            "output digest {} differs from reference_cf's {:?}",
            prepared.digest().hex(),
            oracle.map(|d| d.hex())
        )
    });
}

/// The paper's §VII shape and the properties that make the workloads stress
/// different layers, asserted from this run's own numbers. Skipped under
/// `--smoke`, whose corpora are too small to show either.
fn check_shape(w: &Workload, runs: &[MethodRuns; 4], hit_rate: f64, gate: &mut Gate) {
    let counter = |mi: usize, c: Counter| runs[mi].stats.as_ref().map_or(0, |s| s.counters.get(c));
    let records = |mi| counter(mi, Counter::MapOutputRecords);
    let (suffix, naive, scan) = (0, 1, 2);
    gate.check(records(naive) > records(suffix), || {
        format!(
            "NAIVE shuffled {} records, SUFFIX-σ {}: expected more",
            records(naive),
            records(suffix)
        )
    });
    let spills = counter(suffix, Counter::Spills);
    match w.name {
        "web-s50" => {
            let wall = |mi: usize| median(&runs[mi].walls);
            for mi in 1..4 {
                if runs[mi].walls.is_empty() {
                    continue;
                }
                gate.check(wall(suffix) < wall(mi), || {
                    format!(
                        "SUFFIX-σ wall {:.3}s is not below {}'s {:.3}s",
                        wall(suffix),
                        METHODS[mi].1,
                        wall(mi)
                    )
                });
                gate.check(records(suffix) < records(mi), || {
                    format!(
                        "SUFFIX-σ does not shuffle the fewest records (vs {})",
                        METHODS[mi].1
                    )
                });
            }
            gate.check(
                counter(suffix, Counter::MapOutputBytes) < counter(naive, Counter::MapOutputBytes),
                || "SUFFIX-σ shuffle bytes are not below NAIVE's".into(),
            );
            gate.check(records(naive) >= 3 * records(suffix), || {
                format!(
                    "NAIVE records {} are below 3x SUFFIX-σ's {}",
                    records(naive),
                    records(suffix)
                )
            });
            let scan_jobs = runs[scan].stats.as_ref().map_or(0, |s| s.jobs);
            gate.check(scan_jobs > 1, || {
                format!("APRIORI-SCAN ran {scan_jobs} job(s), expected a chain")
            });
        }
        "nyt-s5" => {
            gate.check(spills <= 16, || {
                format!("{spills} SUFFIX-σ spills: the in-memory workload spills too often")
            });
            gate.check(hit_rate >= 0.9, || {
                format!("cache hit rate {hit_rate:.3} is below 0.9 on the hot mix")
            });
        }
        "nyt-s5-lowmem" => {
            gate.check(spills >= 100, || {
                format!("{spills} SUFFIX-σ spills: the small-buffer workload barely spills")
            });
            gate.check(hit_rate <= 0.3, || {
                format!("cache hit rate {hit_rate:.3} is above 0.3 on the cold mix")
            });
        }
        _ => {}
    }
}

/// Open the index the way `ngram-mr serve --cache-bytes` does, and warm it
/// when the mix serves from a warm cache. Part of set-up.
fn open_index(
    w: &Workload,
    dir: &Path,
    prepared: &Prepared,
    gate: &mut Gate,
) -> Option<StatsIndex> {
    gate.attempted += 1;
    match StatsIndex::open_with_cache(dir, w.mix.cache_bytes) {
        Ok(index) => {
            gate.check(
                index.entries() == prepared.queries.expected().records.len() as u64,
                || format!("index holds {} entries", index.entries()),
            );
            if w.mix.prewarm {
                serving::prewarm(&index, prepared.queries.expected(), gate);
            }
            Some(index)
        }
        Err(e) => {
            gate.fail(format!("index does not open: {e}"));
            None
        }
    }
}

/// The load phase: batches until `deadline` (at least `min_batches`).
struct Load {
    batches: Vec<Batch>,
    hit_rate: f64,
    negative_hits: u64,
}

fn load_phase(
    w: &Workload,
    opts: &Options,
    served: &Served,
    queries: &QuerySet,
    deadline: Instant,
    min_batches: usize,
    gate: &mut Gate,
) -> Load {
    // The query sequence depends on the seed alone, not on the corpus draw.
    let mut rng = Rng::new(opts.seed ^ 0x5EED_10AD);
    let batch_requests = if opts.smoke {
        SMOKE_BATCH_REQUESTS
    } else {
        w.mix.batch_requests
    };
    let (hits0, misses0) = served.index.cache_stats();
    let negative0 = served.index.cache_negative_hits();
    let mut batches = Vec::new();
    while batches.len() < min_batches || (!opts.smoke && Instant::now() < deadline) {
        batches.push(serving::run_batch(
            served,
            queries,
            &mut rng,
            batch_requests,
            gate,
        ));
    }
    let (hits1, misses1) = served.index.cache_stats();
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    Load {
        batches,
        hit_rate: (hits1 - hits0) as f64 / lookups.max(1) as f64,
        negative_hits: served.index.cache_negative_hits() - negative0,
    }
}

/// The untraced run: every end-to-end metric of one workload.
pub fn end_to_end(
    w: &Workload,
    env: &Env,
    opts: &Options,
    gate: &mut Gate,
    report: &mut Report,
    info: &mut Info,
) {
    let params = w.params();
    let setup_reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..setup_reps {
        let start = Instant::now();
        prepared = prepare(w, env, opts, &params, gate);
        setup.push(start.elapsed().as_secs_f64());
    }
    let Some(prepared) = prepared else { return };
    prepared.describe(info);
    if opts.smoke {
        check_against_reference(w, &prepared, gate);
    }

    let measured = Instant::now();
    let compute_budget = if opts.smoke {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(opts.seconds * COMPUTE_SHARE)
    };
    let (runs, peaks) = timed_reps(
        env,
        &prepared.store,
        &params,
        compute_budget,
        prepared.digest(),
        gate,
    );
    for ((_, label), run) in METHODS.iter().zip(&runs) {
        if !run.walls.is_empty() {
            info.push((format!("compute.reps.{label}"), run.walls.len().to_string()));
            report.set_median(format!("compute_s.{label}"), run.walls.clone());
        }
    }
    if !peaks.is_empty() {
        report.set_median("peak_rss_mb", peaks);
    }

    let index_dir = env.scratch.join("index");
    let mut builds = Vec::new();
    for _ in 0..if opts.smoke { 1 } else { INDEX_BUILDS } {
        gate.attempted += 1;
        match index_build(env, &prepared.store, &params, &index_dir) {
            Ok((wall, _)) => builds.push(wall),
            Err(e) => return gate.fail(format!("index build failed: {e}")),
        }
    }
    report.set_median("index_build_s", builds);
    let left = Duration::from_secs_f64(opts.seconds).saturating_sub(measured.elapsed());
    // Opening the index and warming its cache is set-up too, but costs
    // seconds on the warm mixes (every gram is one cold segment lookup), so
    // it runs once and is added to each pass's time.
    let start = Instant::now();
    let index = open_index(w, &index_dir, &prepared, gate);
    let open_s = start.elapsed().as_secs_f64();
    report.set_median("setup_s", setup.iter().map(|s| s + open_s).collect());
    let Some(index) = index else { return };

    let served = match Served::start(Arc::new(index)) {
        Ok(served) => served,
        Err(e) => return gate.fail(e),
    };
    let min_batches = if opts.smoke { 2 } else { MIN_BATCHES };
    // The load phase gets what the compute reps and index builds left of
    // `--seconds`; set-up in between does not count.
    let deadline = Instant::now() + left;
    let load = load_phase(
        w,
        opts,
        &served,
        &prepared.queries,
        deadline,
        min_batches,
        gate,
    );
    served.stop();

    let requests: usize = load.batches.iter().map(|b| b.sorted.len()).sum();
    if requests > 0 {
        // On two cores a batch runs in one of two modes: each connection's
        // client and worker get a core to themselves, or threads of both
        // pairs share one (half the throughput, five times the median on
        // the hot mix). Which one is the scheduler's choice per connection,
        // and the share of disturbed batches drifts between runs from a
        // tenth to a half. All three serve metrics are therefore the decile
        // of batches on the undisturbed side — what the server does when it
        // gets its cores — with every batch kept as a sample.
        let rps: Vec<f64> = load
            .batches
            .iter()
            .map(|b| b.sorted.len() as f64 / b.wall)
            .collect();
        report.set_with_samples("serve_rps", quantile(&rps, 0.9), rps);
        let p50s: Vec<f64> = load.batches.iter().map(|b| b.percentile_us(0.5)).collect();
        report.set_with_samples("serve_p50_us", quantile(&p50s, 0.1), p50s);
        let p99s: Vec<f64> = load.batches.iter().map(|b| b.percentile_us(0.99)).collect();
        report.set_with_samples("serve_p99_us", quantile(&p99s, 0.1), p99s);
        let mut all: Vec<u64> = load
            .batches
            .iter()
            .flat_map(|b| b.sorted.iter().copied())
            .collect();
        all.sort_unstable();
        let wall: f64 = load.batches.iter().map(|b| b.wall).sum();
        info.push((
            "serve.rps_overall".into(),
            format!("{:.0}", requests as f64 / wall),
        ));
        info.push((
            "serve.p50_us_overall".into(),
            format!("{:.1}", percentile(&all, 0.5) as f64 / 1e3),
        ));
        info.push((
            "serve.p99_us_overall".into(),
            format!("{:.1}", percentile(&all, 0.99) as f64 / 1e3),
        ));
    }
    info.push(("serve.batches".into(), load.batches.len().to_string()));
    info.push(("serve.requests".into(), requests.to_string()));
    info.push((
        "serve.p99_samples_beyond_per_batch".into(),
        samples_beyond(requests / load.batches.len().max(1), 0.99).to_string(),
    ));
    info.push(("serve.hit_rate".into(), format!("{:.4}", load.hit_rate)));
    if !opts.smoke {
        check_shape(w, &runs, load.hit_rate, gate);
    }
}

/// The traced run: every per-layer metric of one workload. Returns the
/// harness spans for `--trace-out`, all nested under one root span whose
/// self time is the harness's own bookkeeping.
pub fn layers(
    w: &'static Workload,
    env: &Env,
    opts: &Options,
    gate: &mut Gate,
    report: &mut Report,
    info: &mut Info,
) -> SpanLog {
    let mut log = SpanLog::new(w.name);
    let root = log.enter("traced-run");
    traced_run(&mut log, w, env, opts, gate, report, info);
    log.exit(root);
    log
}

fn traced_run(
    log: &mut SpanLog,
    w: &Workload,
    env: &Env,
    opts: &Options,
    gate: &mut Gate,
    report: &mut Report,
    info: &mut Info,
) {
    let params = w.params();
    let setup = log.enter("setup");
    let prepared = prepare(w, env, opts, &params, gate);
    log.exit(setup);
    let Some(prepared) = prepared else { return };
    prepared.describe(info);
    let measured = Instant::now();
    let deadline = measured + Duration::from_secs_f64(opts.seconds);

    // One untraced rep-set as the tracing-overhead baseline, then one
    // traced rep per method.
    let span = log.enter("compute.untraced");
    let (runs, _) = timed_reps(
        env,
        &prepared.store,
        &params,
        Duration::ZERO,
        prepared.digest(),
        gate,
    );
    log.exit(span);
    for (mi, (method, m)) in METHODS.into_iter().enumerate() {
        let span = log.enter(&format!("compute.traced.{m}"));
        let traced = traced_rep(
            env,
            &prepared.store,
            method,
            m,
            &params,
            prepared.digest(),
            gate,
        );
        log.exit(span);
        let Some(t) = traced else { continue };
        let mut phases = 0.0;
        for phase in ["setup", "map", "reduce", "seal"] {
            let secs = t.profile.phase_wall(phase).as_secs_f64();
            phases += secs;
            report.set(format!("mapreduce.job.{phase}_s.{m}"), secs);
        }
        // Store open, split planning, between-round side inputs, sink flush.
        report.set(format!("ngrams.driver.unattributed_s.{m}"), t.wall - phases);
        let c = |counter| t.stats.counters.get(counter) as f64;
        report.set(
            format!("mapreduce.buffer.sort_s.{m}"),
            c(Counter::MapSortNanos) / 1e9,
        );
        report.set(
            format!("mapreduce.merge.merge_s.{m}"),
            c(Counter::ReduceMergeNanos) / 1e9,
        );
        report.set(format!("mapreduce.job.task_skew.{m}"), t.profile.task_skew);
        report.set(
            format!("mapreduce.shuffle.records.{m}"),
            c(Counter::MapOutputRecords),
        );
        report.set(
            format!("mapreduce.shuffle.bytes.{m}"),
            c(Counter::MapOutputBytes),
        );
        report.set(
            format!("mapreduce.run.encoded_bytes.{m}"),
            c(Counter::EncodedRunBytes),
        );
        report.set(format!("mapreduce.buffer.spills.{m}"), c(Counter::Spills));
        report.set(format!("mapreduce.job.jobs.{m}"), t.stats.jobs as f64);
        report.set(
            format!("mapreduce.job.retries.{m}"),
            retries(&t.stats) as f64,
        );
        if !runs[mi].walls.is_empty() {
            report.set(
                format!("mapreduce.trace.overhead.{m}"),
                t.wall / median(&runs[mi].walls) - 1.0,
            );
        }
    }

    let mut rng = Rng::new(opts.seed ^ 0x4E9A7);
    let expected = prepared.queries.expected();
    replay::store_and_input(log, w, &prepared.store, report, gate);
    replay::single_slot(
        log,
        env,
        &prepared.store,
        &params,
        prepared.digest(),
        report,
        gate,
    );
    replay::runs_and_merge(log, w, env, expected, report, gate);
    replay::segment(log, w, env, &prepared.queries, &mut rng, report, gate);

    let index_dir = env.scratch.join("index");
    gate.attempted += 1;
    let (built, _) = log.time("serve.build_index", || {
        index_build(env, &prepared.store, &params, &index_dir)
    });
    if let Err(e) = built {
        return gate.fail(format!("index build failed: {e}"));
    }
    replay::index_touch(log, &index_dir, expected, &mut rng, report, gate);

    let span = log.enter("setup.open_index");
    let index = open_index(w, &index_dir, &prepared, gate);
    log.exit(span);
    let Some(index) = index else { return };
    let served = match Served::start(Arc::new(index)) {
        Ok(served) => served,
        Err(e) => return gate.fail(e),
    };
    let span = log.enter("serve.http.overhead");
    let overhead =
        serving::http_vs_direct(&served, &prepared.queries, &mut rng, OVERHEAD_KEYS, gate);
    log.exit(span);
    if let Some((http_us, direct_us)) = overhead {
        report.set("serve.http.overhead_us", http_us - direct_us);
    }
    let span = log.enter("serve.load");
    let load = load_phase(w, opts, &served, &prepared.queries, deadline, 1, gate);
    log.exit(span);

    let metrics = served.metrics();
    let mut all = Vec::new();
    for (kind, name, endpoint) in KINDS {
        let mut nanos: Vec<u64> = load
            .batches
            .iter()
            .flat_map(|b| b.latencies[kind as usize].iter().copied())
            .collect();
        nanos.sort_unstable();
        if !nanos.is_empty() {
            report.set(
                format!("serve.http.p50_us.{name}"),
                percentile(&nanos, 0.5) as f64 / 1e3,
            );
        }
        all.extend(nanos);
        let handler = metrics.latency(endpoint);
        if handler.count() > 0 {
            report.set(
                format!("serve.http.handler_mean_us.{name}"),
                handler.sum_nanos() as f64 / handler.count() as f64 / 1e3,
            );
        }
    }
    all.sort_unstable();
    if !all.is_empty() {
        report.set("serve.http.p999_us", percentile(&all, 0.999) as f64 / 1e3);
        info.push((
            "serve.p999_samples_beyond".into(),
            samples_beyond(all.len(), 0.999).to_string(),
        ));
    }
    report.set("serve.index.hit_rate", load.hit_rate);
    report.set("serve.index.negative_hits", load.negative_hits as f64);
    let shed = served.prometheus_counter("http_shed_total");
    let timeouts = served.prometheus_counter("http_request_timeouts_total");
    gate.check(shed == Some(0) && timeouts == Some(0), || {
        format!("server shed {shed:?} connections, timed out {timeouts:?} request heads")
    });
    report.set("serve.http.shed", shed.unwrap_or(0) as f64);
    report.set("serve.http.timeouts", timeouts.unwrap_or(0) as f64);
    report.set(
        "serve.http.errors",
        load.batches.iter().map(|b| b.errors).sum::<u64>() as f64,
    );
    served.stop();
    info.push(("serve.requests".into(), all.len().to_string()));
    if !opts.smoke {
        check_shape(w, &runs, load.hit_rate, gate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use ngrams::NGramRunStats;

    /// Untraced results as `check_shape` sees them; indices follow `METHODS`.
    fn runs(
        walls: [f64; 4],
        records: [u64; 4],
        bytes: [u64; 4],
        jobs: [usize; 4],
    ) -> [MethodRuns; 4] {
        std::array::from_fn(|i| {
            let counters = mapreduce::Counters::new();
            counters.add(Counter::MapOutputRecords, records[i]);
            counters.add(Counter::MapOutputBytes, bytes[i]);
            counters.add(Counter::Spills, 4);
            MethodRuns {
                walls: vec![walls[i]],
                stats: Some(NGramRunStats {
                    counters: counters.snapshot(),
                    jobs: jobs[i],
                    elapsed: Duration::ZERO,
                    traces: Vec::new(),
                }),
            }
        })
    }

    fn failures(runs: &[MethodRuns; 4]) -> u64 {
        let mut gate = Gate::default();
        check_shape(workload::find("web-s50").unwrap(), runs, 1.0, &mut gate);
        gate.failed
    }

    #[test]
    fn paper_shape_is_asserted_not_just_printed() {
        let walls = [0.2, 2.4, 1.7, 1.0];
        let records = [450_000, 2_800_000, 1_700_000, 1_300_000];
        let bytes = [4_000_000, 41_000_000, 31_000_000, 21_000_000];
        let jobs = [1, 1, 50, 50];
        assert_eq!(failures(&runs(walls, records, bytes, jobs)), 0);
        // SUFFIX-σ no longer the fastest method.
        assert_eq!(
            failures(&runs([1.2, 2.4, 1.7, 1.0], records, bytes, jobs)),
            1
        );
        // NAIVE's records no longer grow with σ: below 3x and below the rest.
        let flat = [450_000, 1_000_000, 1_700_000, 1_300_000];
        assert_eq!(failures(&runs(walls, flat, bytes, jobs)), 1);
        // SUFFIX-σ shuffles more bytes than NAIVE; APRIORI-SCAN is one job.
        let heavy = [50_000_000, 41_000_000, 31_000_000, 21_000_000];
        assert_eq!(failures(&runs(walls, records, heavy, [1, 1, 1, 50])), 2);
    }

    #[test]
    fn layer_separation_is_asserted_on_the_nyt_workloads() {
        let healthy = runs([0.3, 1.5, 0.7, 1.6], [9, 39, 21, 32], [1; 4], [1, 1, 5, 5]);
        let check = |name: &str, hit_rate: f64| {
            let mut gate = Gate::default();
            check_shape(workload::find(name).unwrap(), &healthy, hit_rate, &mut gate);
            gate.failed
        };
        assert_eq!(check("nyt-s5", 1.0), 0);
        assert_eq!(check("nyt-s5", 0.5), 1);
        // Four spills are far too few for the small-buffer workload.
        assert_eq!(check("nyt-s5-lowmem", 0.15), 1);
        assert_eq!(check("nyt-s5-lowmem", 0.8), 2);
    }
}
