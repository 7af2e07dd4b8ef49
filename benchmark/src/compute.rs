//! The store → compute → index half of a scenario: what `ngram-mr generate`,
//! `ngram-mr compute` and `ngram-mr index` do, called in-process through the
//! same public functions and timed from outside.

use crate::gate::{Digest, Gate};
use crate::metrics::METHODS;
use crate::stats::Rng;
use crate::workload::{Workload, KEEP_SHARE};
use corpus::{Collection, CorpusReader, Document, StoreMeta};
use mapreduce::{Cluster, Counter, JobProfile, MrError, RunCodec, WriterSinkFactory};
use ngrams::{Computation, Gram, Method, NGramParams, NGramRunStats};
use serve::{IndexMeta, IndexOptions};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a run keeps its files and how wide it runs.
pub struct Env {
    /// Private directory inside the checkout; removed when the run ends.
    pub scratch: PathBuf,
    pub nproc: usize,
    /// `min(nproc, 2)`: the widest cluster every host of record can run.
    pub slots: usize,
}

impl Env {
    pub fn cluster(&self) -> Cluster {
        Cluster::new(self.slots)
    }

    pub fn output_path(&self, label: &str) -> PathBuf {
        self.scratch.join(format!("out-{label}.tsv"))
    }
}

/// Write the corpus of one run as a block store: `seed` draws
/// [`KEEP_SHARE`] of the workload's document pool, kept in pool order (a
/// seeded order would also reshuffle which map task gets the long documents,
/// and task imbalance would show as run-to-run spread).
pub fn write_store(
    w: &Workload,
    smoke: bool,
    seed: u64,
    path: &Path,
) -> std::io::Result<StoreMeta> {
    let pool = corpus::generate(&w.pool_profile(smoke), w.pool_seed);
    let keep = ((pool.docs.len() as f64 * KEEP_SHARE).round() as usize).max(1);
    let mut order: Vec<usize> = (0..pool.docs.len()).collect();
    let mut rng = Rng::new(seed);
    for i in 0..keep {
        let j = i + rng.below(order.len() - i);
        order.swap(i, j);
    }
    order.truncate(keep);
    order.sort_unstable();
    let docs = order
        .iter()
        .enumerate()
        .map(|(id, &i)| Document {
            id: id as u64,
            ..pool.docs[i].clone()
        })
        .collect();
    let sample = Collection { docs, ..pool };
    corpus::save_store_codec(&sample, path, w.store_codec)
}

/// One `compute` run: wall from opening the store to the flushed output.
pub struct Rep {
    pub wall: f64,
    pub stats: NGramRunStats,
}

/// What `ngram-mr compute --input STORE --method M --out FILE` does: open
/// the store by its footer, stream the method's result through a
/// `WriterSinkFactory` as `count\tids` lines, flush.
pub fn compute_rep(
    store: &Path,
    method: Method,
    params: &NGramParams,
    cluster: &Cluster,
    out: &Path,
) -> Result<Rep, MrError> {
    let start = Instant::now();
    let reader = Arc::new(CorpusReader::open(store)?);
    let writer = BufWriter::new(std::fs::File::create(out)?);
    let sinks = WriterSinkFactory::new(
        Box::new(writer),
        |buf: &mut Vec<u8>, gram: &Gram, count: &u64| {
            let mut line = String::new();
            let _ = write!(line, "{count}\t");
            for (i, t) in gram.terms().iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                let _ = write!(line, "{t}");
            }
            line.push('\n');
            buf.extend_from_slice(line.as_bytes());
        },
    );
    let (_, stats) = Computation::new(method, params)
        .input_store(reader)
        .run_to_sink(cluster, &sinks)?;
    sinks.flush()?;
    Ok(Rep {
        wall: start.elapsed().as_secs_f64(),
        stats,
    })
}

/// The computed statistics, as the serve phase and the replays need them:
/// `(serialized gram key, count)` ascending by key bytes — the order
/// segments store and `/prefix` answers in.
#[derive(Clone)]
pub struct Expected {
    pub digest: Digest,
    pub records: Vec<(Vec<u8>, u64)>,
}

/// Read a `compute` output file back into [`Expected`].
pub fn read_output(path: &Path) -> Result<Expected, String> {
    let mut digest = Digest::default();
    let mut records = Vec::new();
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for line in BufReader::with_capacity(1 << 20, file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        digest.add_line(line.as_bytes());
        let (count, ids) = line
            .split_once('\t')
            .ok_or_else(|| format!("output line without a tab: {line:?}"))?;
        let count: u64 = count
            .parse()
            .map_err(|_| format!("bad count in {line:?}"))?;
        let terms: Vec<u32> = ids
            .split(' ')
            .map(|t| t.parse().map_err(|_| format!("bad term id in {line:?}")))
            .collect::<Result<_, _>>()?;
        records.push((mapreduce::to_bytes(&Gram(terms)), count));
    }
    records.sort_unstable();
    Ok(Expected { digest, records })
}

/// Check one finished rep: its output digest equals the expected one and
/// no task was retried.
pub fn check_rep(gate: &mut Gate, label: &str, rep: &Rep, out: &Path, expected: &Digest) {
    let digest = Digest::of_file(out);
    gate.check(matches!(&digest, Ok(d) if d == expected), || match digest {
        Ok(d) => format!(
            "{label}: output digest {} differs from expected {}",
            d.hex(),
            expected.hex()
        ),
        Err(e) => format!("{label}: cannot read output: {e}"),
    });
    let retries = retries(&rep.stats);
    if retries > 0 {
        gate.fail(format!(
            "{label}: {retries} task attempt(s) retried or panicked"
        ));
    }
}

pub fn retries(stats: &NGramRunStats) -> u64 {
    stats.counters.get(Counter::TaskRetries) + stats.counters.get(Counter::TaskPanics)
}

/// Per-method results of a compute phase, indexed like [`METHODS`].
#[derive(Default)]
pub struct MethodRuns {
    pub walls: Vec<f64>,
    /// Telemetry of the last successful rep (counters repeat exactly).
    pub stats: Option<NGramRunStats>,
}

/// Run rep-sets until `budget` is spent (at least one set). A set runs the
/// three slower methods once and SUFFIX-σ twice — it is the cheapest and
/// the one most later work will claim against. Returns the per-method runs
/// and each set's own peak resident set in MiB (empty where the kernel does
/// not report one).
pub fn timed_reps(
    env: &Env,
    store: &Path,
    params: &NGramParams,
    budget: Duration,
    expected: &Digest,
    gate: &mut Gate,
) -> ([MethodRuns; 4], Vec<f64>) {
    const SET_ORDER: [usize; 5] = [0, 1, 0, 2, 3];
    let cluster = env.cluster();
    let mut runs: [MethodRuns; 4] = Default::default();
    let mut peaks = Vec::new();
    let start = Instant::now();
    loop {
        // Whatever came before (set-up's document pool, the previous set)
        // does not count towards this set's peak.
        reset_peak_rss();
        for mi in SET_ORDER {
            let (method, label) = METHODS[mi];
            let out = env.output_path(label);
            gate.attempted += 1;
            match compute_rep(store, method, params, &cluster, &out) {
                Ok(rep) => {
                    check_rep(gate, label, &rep, &out, expected);
                    runs[mi].walls.push(rep.wall);
                    runs[mi].stats = Some(rep.stats);
                }
                Err(e) => gate.fail(format!("{label}: compute failed: {e}")),
            }
        }
        peaks.extend(peak_rss_mib());
        if start.elapsed() >= budget {
            return (runs, peaks);
        }
    }
}

/// One traced rep: the same call with `JobConfig::trace` on, folded into
/// the engine's own profile.
pub struct TracedRep {
    pub wall: f64,
    pub profile: JobProfile,
    pub stats: NGramRunStats,
}

pub fn traced_rep(
    env: &Env,
    store: &Path,
    method: Method,
    label: &str,
    params: &NGramParams,
    expected: &Digest,
    gate: &mut Gate,
) -> Option<TracedRep> {
    let mut traced = params.clone();
    traced.job.trace = true;
    let out = env.output_path(label);
    gate.attempted += 1;
    match compute_rep(store, method, &traced, &env.cluster(), &out) {
        Ok(mut rep) => {
            check_rep(gate, label, &rep, &out, expected);
            Some(TracedRep {
                wall: rep.wall,
                profile: JobProfile::from_traces(std::mem::take(&mut rep.stats.traces)),
                stats: rep.stats,
            })
        }
        Err(e) => {
            gate.fail(format!("{label}: traced compute failed: {e}"));
            None
        }
    }
}

/// What `ngram-mr index --method suffix-sigma` does, from the store on
/// disk to the `MANIFEST`: returns the wall and the index metadata.
pub fn index_build(
    env: &Env,
    store: &Path,
    params: &NGramParams,
    dir: &Path,
) -> Result<(f64, IndexMeta), MrError> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let reader = Arc::new(CorpusReader::open(store)?);
    let dictionary = reader.dictionary();
    let name = reader.meta().name.clone();
    let computation = Computation::new(Method::SuffixSigma, params).input_store(reader);
    let opts = IndexOptions {
        codec: RunCodec::FrontCoded,
        ..IndexOptions::default()
    };
    let meta = serve::build_index(&env.cluster(), &computation, &dictionary, &name, dir, &opts)?;
    Ok((start.elapsed().as_secs_f64(), meta))
}

/// Restart the kernel's peak-RSS watermark at the current resident set
/// (`/proc/self/clear_refs`, Linux 4.0+); where that is refused the peak
/// simply keeps covering everything before it too.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn read_output_sorts_by_key_bytes_and_digests_lines() {
        let dir = std::env::temp_dir().join(format!("bench-compute-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.tsv");
        // 300 encodes as two varint bytes starting 0xAC: after 5, before
        // nothing else — byte order, not numeric order.
        std::fs::write(&path, "7\t300 2\n9\t5\n4\t5 1\n").unwrap();
        let expected = read_output(&path).unwrap();
        assert_eq!(expected.digest, Digest::of_file(&path).unwrap());
        let keys: Vec<&[u8]> = expected.records.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [&[5u8][..], &[5, 1], &[0xAC, 0x02, 2]]);
        assert_eq!(expected.records[0].1, 9);
        std::fs::write(&path, "7 300\n").unwrap();
        assert!(read_output(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_repeats_for_a_seed_and_differs_across_seeds() {
        let dir = std::env::temp_dir().join(format!("bench-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = |seed: u64, name: &str| {
            let path = dir.join(name);
            let meta = write_store(&WORKLOADS[0], true, seed, &path).unwrap();
            assert!(meta.num_tokens > 1_000);
            std::fs::read(&path).unwrap()
        };
        let (a, b, c) = (store(5, "a"), store(5, "b"), store(6, "c"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn rep_with(retries: u64) -> Rep {
        let counters = mapreduce::Counters::new();
        counters.add(Counter::TaskRetries, retries);
        Rep {
            wall: 0.1,
            stats: NGramRunStats {
                counters: counters.snapshot(),
                jobs: 1,
                elapsed: Duration::ZERO,
                traces: Vec::new(),
            },
        }
    }

    #[test]
    fn a_corrupted_record_or_a_retry_fails_the_gate() {
        let dir = std::env::temp_dir().join(format!("bench-gate-rep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.tsv");
        std::fs::write(&path, "5\t1 2\n7\t3\n").unwrap();
        let expected = Digest::of_file(&path).unwrap();

        let mut gate = Gate::default();
        check_rep(&mut gate, "naive", &rep_with(0), &path, &expected);
        assert!(gate.ok());

        // One count off by one: same record count, different digest.
        std::fs::write(&path, "5\t1 2\n8\t3\n").unwrap();
        check_rep(&mut gate, "naive", &rep_with(0), &path, &expected);
        assert_eq!(gate.failed, 1);
        assert!(gate.notes[0].contains("output digest"), "{:?}", gate.notes);

        std::fs::write(&path, "5\t1 2\n7\t3\n").unwrap();
        check_rep(&mut gate, "naive", &rep_with(1), &path, &expected);
        assert_eq!(gate.failed, 2);

        std::fs::remove_file(&path).unwrap();
        check_rep(&mut gate, "naive", &rep_with(0), &path, &expected);
        assert_eq!(gate.failed, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 1.0);
        }
    }
}
