//! Job configuration and the execution driver: source → map → shuffle →
//! sort → (combine) → merge → reduce → sink, scheduled over a bounded
//! slot pool.
//!
//! The engine is *streaming end to end*: input splits are pulled from a
//! [`RecordSource`], reduce output is pushed into per-task sinks created
//! by a [`RecordSinkFactory`], and the shuffle middle spills sorted runs.
//! Peak memory is therefore proportional to the sort buffers plus whatever
//! the chosen source/sink pair retains — nothing forces the corpus or the
//! result set to be materialized. The classic [`Job::run`] entry point is
//! a thin wrapper pairing a [`VecSource`] with a [`VecSinkFactory`].

use crate::buffer::{CollectorConfig, CombinerFactory, MapOutputCollector};
use crate::checkpoint::{CheckpointSpec, JobCheckpoint};
use crate::cluster::Cluster;
use crate::comparator::{RawComparator, TypedComparator};
use crate::counters::{Counter, CounterSnapshot, Counters};
use crate::error::{MrError, Result};
use crate::fault::FaultPlan;
use crate::io::{ByteReader, Writable};
use crate::merge::MergeStream;
use crate::partition::{HashPartition, Partitioner};
use crate::run::{Run, RunCodec, TempDir};
use crate::sink::{RecordSinkFactory, VecSinkFactory};
use crate::source::{RecordSource, RecordStream, VecSource};
use crate::task::{BoxedCombiner, MapContext, Mapper, ReduceContext, Reducer};
use crate::trace::{JobSpan, JobTrace, TaskSpan, TraceSink};
use crate::values::ValueIter;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default map-side sort buffer (Hadoop's `io.sort.mb` analogue).
pub const DEFAULT_SORT_BUFFER_BYTES: usize = 64 * 1024 * 1024;

/// One worker's claimable work item (`None` once taken).
type WorkSlot<T> = Mutex<Option<T>>;

/// Tunable knobs of a single job.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Job name, shown in the cluster log.
    pub name: String,
    /// Number of map tasks; `0` chooses automatically from the input size
    /// and slot count.
    pub num_map_tasks: usize,
    /// Number of reduce tasks (`R` in the paper); `0` uses the slot count.
    pub num_reduce_tasks: usize,
    /// Parallel worker threads ("map/reduce slots", §VII-A); `0` inherits
    /// the cluster's slot count.
    pub slots: usize,
    /// Map-side sort buffer budget in bytes; exceeding it triggers a spill.
    pub sort_buffer_bytes: usize,
    /// Write spill runs to temporary files instead of keeping them in
    /// memory (models Hadoop's disk spills; required for inputs whose map
    /// output exceeds RAM).
    pub spill_to_disk: bool,
    /// Directory for spill files; `None` uses the system temp directory.
    pub tmp_dir: Option<std::path::PathBuf>,
    /// Block codec for shuffle spill runs ([`RunCodec::Plain`] is
    /// byte-identical to the historical format; [`RunCodec::FrontCoded`]
    /// delta-codes sorted keys).
    pub run_codec: RunCodec,
    /// Sort map-side arenas by refining [`RawComparator::digest`] ties
    /// level by level, and cache head digests in the reduce-side merge.
    /// On by default; off is the comparator-only engine — the reference
    /// the tests compare against and the bench's unaccelerated baseline.
    pub prefix_sort: bool,
    /// Overlap I/O with compute across the dataflow: map tasks hand full
    /// sort buffers to a dedicated spill-writer thread (double-buffering
    /// the arena), reduce-side merges open runs through read-ahead
    /// decoders, and prefetch-capable sources (the corpus block store)
    /// fetch their next block in the background. Off by default — the
    /// synchronous path is the ablation baseline. The residual waits are
    /// witnessed by [`Counter::MapInputStallNanos`],
    /// [`Counter::SpillStallNanos`] and [`Counter::ReduceDecodeStallNanos`]
    /// (all zero when synchronous).
    ///
    /// The flag is *adaptive*: helper threads are only spawned when the
    /// host can actually run them in parallel (see
    /// [`JobConfig::pipeline_min_cpus`]); on a single-CPU host they could
    /// only time-slice against the very work they are meant to overlap,
    /// so the engine degrades to the synchronous path there.
    pub pipelined: bool,
    /// Minimum host parallelism ([`std::thread::available_parallelism`])
    /// required before [`JobConfig::pipelined`] actually spawns helper
    /// threads. Default 2. Set to 1 to force the threaded machinery
    /// regardless of the host (tests, ablation runs).
    pub pipeline_min_cpus: usize,
    /// Maximum attempts per task (Hadoop's `mapred.map.max.attempts`).
    /// Each map task and reduce partition runs in a panic-isolated
    /// attempt; a failed attempt discards its partial output and the task
    /// is retried until this budget is exhausted, at which point the job
    /// fails with [`MrError::TaskFailed`]. Values below 1 behave as 1.
    pub max_task_attempts: u32,
    /// Deterministic fault-injection schedule (tests, CI smoke legs);
    /// `None` — the default — injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Record a [`TaskSpan`] per task attempt and job-level spans for the
    /// setup / map / reduce / seal stretches, published as
    /// [`JobStats::trace`] and into the cluster job log. Off by default;
    /// the disabled path costs a single branch per attempt (plus one per
    /// merged record on the reduce side), so production runs pay nothing.
    pub trace: bool,
    /// Durable checkpointing: when set, every completed map task publishes
    /// its spill runs plus a CRC-guarded `task-NNN.done` record under the
    /// spec's manifest directory, and reduce partitions whose sink
    /// supports it checkpoint their sealed output. With
    /// [`CheckpointSpec::resume`] enabled, a restarted job skips the
    /// recorded tasks ([`Counter::TaskSkippedCheckpointed`]) and refuses a
    /// manifest whose fingerprint does not match
    /// ([`MrError::CheckpointMismatch`]). `None` — the default —
    /// checkpoints nothing.
    pub checkpoint: Option<Arc<CheckpointSpec>>,
    /// Speculative execution: once the map claim queue drains and a
    /// worker goes idle, it launches a backup attempt for any in-flight
    /// task whose elapsed wall exceeds this multiple of the completed-task
    /// median (Hadoop's straggler mitigation). The first finisher — primary
    /// or backup — publishes its output through an atomic commit; the
    /// loser is discarded like a failed attempt. `0.0` — the default —
    /// disables speculation; values below 1.0 behave as 1.0.
    pub speculative_slack: f64,
    /// Minimum host parallelism required before speculation actually
    /// launches backups (mirrors [`JobConfig::pipeline_min_cpus`]): on a
    /// single-CPU host a backup could only time-slice against the very
    /// straggler it races. Default 2; set to 1 to force speculation
    /// regardless of the host (tests).
    pub speculative_min_cpus: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            name: "job".to_string(),
            num_map_tasks: 0,
            num_reduce_tasks: 0,
            slots: 0,
            sort_buffer_bytes: DEFAULT_SORT_BUFFER_BYTES,
            spill_to_disk: false,
            tmp_dir: None,
            run_codec: RunCodec::default(),
            prefix_sort: true,
            pipelined: false,
            pipeline_min_cpus: 2,
            max_task_attempts: 3,
            fault_plan: None,
            trace: false,
            checkpoint: None,
            speculative_slack: 0.0,
            speculative_min_cpus: 2,
        }
    }
}

impl JobConfig {
    /// Named config with defaults.
    pub fn named(name: impl Into<String>) -> Self {
        JobConfig {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Whether this job will actually run pipelined: the flag is set AND
    /// the host has at least [`JobConfig::pipeline_min_cpus`] CPUs to run
    /// the helper threads on. Sources that prefetch (e.g. the corpus
    /// block store) should consult this, not the raw flag.
    pub fn effective_pipelined(&self) -> bool {
        self.pipelined
            && std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                >= self.pipeline_min_cpus.max(1)
    }

    /// Whether this job will actually speculate: a positive
    /// [`JobConfig::speculative_slack`] AND at least
    /// [`JobConfig::speculative_min_cpus`] host CPUs for backups to run on.
    pub fn effective_speculation(&self) -> bool {
        self.speculative_slack > 0.0
            && std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                >= self.speculative_min_cpus.max(1)
    }
}

/// Telemetry shared by every finished job, independent of the sink type.
#[derive(Clone, Debug)]
pub struct JobStats {
    /// All counters, aggregated over the job's tasks.
    pub counters: CounterSnapshot,
    /// End-to-end wallclock time of the job.
    pub elapsed: Duration,
    /// Wallclock time of the map phase (including shuffle writes).
    pub map_time: Duration,
    /// Wallclock time of the reduce phase (merge + reduce).
    pub reduce_time: Duration,
    /// Per-map-task execution times (for slot-scaling simulation).
    pub map_task_times: Vec<Duration>,
    /// Per-reduce-task execution times.
    pub reduce_task_times: Vec<Duration>,
    /// Span trace of the run; `Some` iff [`JobConfig::trace`] was on.
    pub trace: Option<JobTrace>,
}

impl JobStats {
    /// Predicted wallclock of this job on a cluster with `slots` parallel
    /// slots per phase: list-scheduling makespan of the recorded map task
    /// times followed by the reduce task times. Lets a single-core host
    /// reproduce the slot-scaling experiment (paper Fig. 7) from one
    /// measured run.
    pub fn simulated_wall(&self, slots: usize) -> Duration {
        simulated_makespan(&self.map_task_times, slots)
            + simulated_makespan(&self.reduce_task_times, slots)
    }
}

/// Result of one streamed job: per-reduce-task sink artifacts (in
/// partition order) plus run telemetry.
pub struct JobRun<A> {
    /// Sealed sink artifacts, one per reduce task, in partition order.
    pub artifacts: Vec<A>,
    /// Timing and counter telemetry.
    pub stats: JobStats,
}

/// Timing and counter results of one finished materialized job
/// (the [`Job::run`] compatibility path).
pub struct JobResult<K, V> {
    /// Reduce outputs, one vector per reduce task, in partition order.
    pub outputs: Vec<Vec<(K, V)>>,
    /// All counters, aggregated over the job's tasks.
    pub counters: CounterSnapshot,
    /// End-to-end wallclock time of the job.
    pub elapsed: Duration,
    /// Wallclock time of the map phase (including shuffle writes).
    pub map_time: Duration,
    /// Wallclock time of the reduce phase (merge + reduce).
    pub reduce_time: Duration,
    /// Per-map-task execution times (for slot-scaling simulation).
    pub map_task_times: Vec<Duration>,
    /// Per-reduce-task execution times.
    pub reduce_task_times: Vec<Duration>,
}

impl<K, V> From<JobRun<Vec<(K, V)>>> for JobResult<K, V> {
    fn from(run: JobRun<Vec<(K, V)>>) -> Self {
        JobResult {
            outputs: run.artifacts,
            counters: run.stats.counters,
            elapsed: run.stats.elapsed,
            map_time: run.stats.map_time,
            reduce_time: run.stats.reduce_time,
            map_task_times: run.stats.map_task_times,
            reduce_task_times: run.stats.reduce_task_times,
        }
    }
}

impl<K, V> JobResult<K, V> {
    /// Flatten the per-reducer outputs into one vector (for job chaining).
    pub fn into_records(self) -> Vec<(K, V)> {
        self.outputs.into_iter().flatten().collect()
    }

    /// Total number of output records.
    pub fn num_records(&self) -> usize {
        self.outputs.iter().map(Vec::len).sum()
    }

    /// Predicted wallclock on `slots` parallel slots per phase; see
    /// [`JobStats::simulated_wall`].
    pub fn simulated_wall(&self, slots: usize) -> Duration {
        simulated_makespan(&self.map_task_times, slots)
            + simulated_makespan(&self.reduce_task_times, slots)
    }
}

/// Makespan of greedy list scheduling of `tasks` onto `slots` machines
/// (tasks assigned in order to the least-loaded slot — lowest index on
/// ties — as a task-tracker pulling work from a queue behaves).
///
/// Runs in O(n log s) via a min-heap over `(load, slot)` pairs instead of
/// a linear scan per task.
pub fn simulated_makespan(tasks: &[Duration], slots: usize) -> Duration {
    let slots = slots.max(1);
    if slots == 1 {
        return tasks.iter().sum();
    }
    // `Reverse((load, slot))` pops the least-loaded slot, lowest index
    // first on equal loads — the same choice the former linear
    // `min_by_key` scan made.
    let mut heap: BinaryHeap<Reverse<(Duration, usize)>> = (0..slots.min(tasks.len().max(1)))
        .map(|s| Reverse((Duration::ZERO, s)))
        .collect();
    let mut makespan = Duration::ZERO;
    for &t in tasks {
        let Reverse((load, slot)) = heap.pop().expect("heap is non-empty");
        let load = load + t;
        makespan = makespan.max(load);
        heap.push(Reverse((load, slot)));
    }
    makespan
}

/// A configured MapReduce job, ready to run on a [`Cluster`].
///
/// Built from mapper and reducer *factories* (one instance per task), an
/// optional combiner factory, a partitioner, and a raw sort comparator.
pub struct Job<M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, ValueIn = M::OutValue>,
{
    mapper_f: Arc<dyn Fn() -> M + Send + Sync>,
    reducer_f: Arc<dyn Fn() -> R + Send + Sync>,
    combiner_f: Option<CombinerFactory<M::OutKey, M::OutValue>>,
    partitioner: Arc<dyn Partitioner<M::OutKey>>,
    comparator: Arc<dyn RawComparator>,
    config: JobConfig,
}

impl<M, R> Job<M, R>
where
    M: Mapper + 'static,
    R: Reducer<Key = M::OutKey, ValueIn = M::OutValue> + 'static,
    M::OutKey: Ord + Hash + 'static,
    M::OutValue: 'static,
    R::KeyOut: Send,
    R::ValueOut: Send,
{
    /// Create a job with the default hash partitioner and a deserializing
    /// comparator over `OutKey: Ord` (Hadoop's defaults).
    pub fn new(
        config: JobConfig,
        mapper_f: impl Fn() -> M + Send + Sync + 'static,
        reducer_f: impl Fn() -> R + Send + Sync + 'static,
    ) -> Self {
        Job {
            mapper_f: Arc::new(mapper_f),
            reducer_f: Arc::new(reducer_f),
            combiner_f: None,
            partitioner: Arc::new(HashPartition),
            comparator: Arc::new(TypedComparator::<M::OutKey>::new()),
            config,
        }
    }

    /// Install a combiner factory (runs at every map-side spill).
    pub fn combiner(
        mut self,
        f: impl Fn() -> BoxedCombiner<M::OutKey, M::OutValue> + Send + Sync + 'static,
    ) -> Self {
        self.combiner_f = Some(Arc::new(f));
        self
    }

    /// Replace the partitioner (e.g. SUFFIX-σ's first-term partitioner).
    pub fn partitioner(mut self, p: impl Partitioner<M::OutKey> + 'static) -> Self {
        self.partitioner = Arc::new(p);
        self
    }

    /// Replace the sort comparator (e.g. reverse lexicographic order).
    pub fn sort_comparator(mut self, c: impl RawComparator + 'static) -> Self {
        self.comparator = Arc::new(c);
        self
    }

    /// Execute the job over a materialized input vector, collecting reduce
    /// output into vectors — a [`VecSource`] / [`VecSinkFactory`] pairing
    /// of [`Job::run_streamed`] kept for callers that want records in
    /// memory.
    pub fn run(
        &self,
        cluster: &Cluster,
        input: Vec<(M::InKey, M::InValue)>,
    ) -> Result<JobResult<R::KeyOut, R::ValueOut>> {
        let sinks = VecSinkFactory::default();
        Ok(self
            .run_streamed(cluster, VecSource::new(input), &sinks)?
            .into())
    }

    /// Execute the job pulling splits from `source` and pushing reduce
    /// output into per-task sinks from `sinks`, blocking until done.
    ///
    /// This is the streaming entry point: with a run-backed source and a
    /// run or writer sink, no `Vec<(K, V)>` of the input or output ever
    /// exists — memory stays bounded by the sort buffers.
    pub fn run_streamed<S, F>(
        &self,
        cluster: &Cluster,
        source: S,
        sinks: &F,
    ) -> Result<JobRun<F::Artifact>>
    where
        S: RecordSource<M::InKey, M::InValue>,
        F: RecordSinkFactory<R::KeyOut, R::ValueOut>,
    {
        let started = Instant::now();
        let slots = if self.config.slots == 0 {
            cluster.slots()
        } else {
            self.config.slots
        };
        if slots == 0 {
            return Err(MrError::Config("slot count must be positive".into()));
        }
        let num_reduce = if self.config.num_reduce_tasks == 0 {
            slots
        } else {
            self.config.num_reduce_tasks
        };
        let num_map = effective_map_tasks(self.config.num_map_tasks, source.len_hint(), slots);
        let counters = Arc::new(Counters::new());
        // One branch when off: every tracing hook below is behind this
        // `Option`.
        let trace_sink = self.config.trace.then(|| TraceSink::new(slots));

        let temp = if self.config.spill_to_disk {
            Some(Arc::new(TempDir::create(self.config.tmp_dir.as_deref())?))
        } else {
            None
        };

        // ---- Split phase: the source decides record placement. ----
        let splits = source.into_splits(num_map)?;
        let num_map = splits.len().max(1);

        // One manifest directory per job, claimed from the spec in launch
        // order; a spec degraded mid-chain (checkpoint disk failure)
        // checkpoints nothing further.
        let ckpt = match &self.config.checkpoint {
            Some(spec) if !spec.is_disabled() => Some(JobCheckpoint::prepare(
                spec,
                self.config.fault_plan.clone(),
                &self.config.name,
                num_map,
                num_reduce,
                self.config.run_codec,
            )?),
            _ => None,
        };

        // ---- Map phase. ----
        let map_started = Instant::now();
        let partition_runs: Vec<Mutex<Vec<Run>>> =
            (0..num_reduce).map(|_| Mutex::new(Vec::new())).collect();
        let map_task_times: Mutex<Vec<Duration>> = Mutex::new(Vec::with_capacity(num_map));
        {
            // LPT claim order: workers take splits in descending predicted
            // cost so a heavy straggler is started first, not discovered
            // last. The sort is stable, so cost-free sources (in-memory
            // splits all predict 0) keep their historical arrival order.
            let costs: Vec<u64> = splits.iter().map(|s| s.predicted_cost()).collect();
            let n_splits = costs.len();
            let claim_order = lpt_claim_order(costs.iter().copied());
            let splits: Vec<WorkSlot<S::Split>> =
                splits.into_iter().map(|s| Mutex::new(Some(s))).collect();
            // Per-task commit state: `finished` is the atomic publish
            // gate primary and speculative attempts race through;
            // `started_at` / `backups` feed the straggler monitor.
            let finished: Vec<AtomicBool> = (0..n_splits).map(|_| AtomicBool::new(false)).collect();
            let started_at: Vec<Mutex<Option<Instant>>> =
                (0..n_splits).map(|_| Mutex::new(None)).collect();
            let backups: Vec<WorkSlot<S::Split>> =
                (0..n_splits).map(|_| Mutex::new(None)).collect();
            let completed = AtomicUsize::new(0);
            let speculate = self.config.effective_speculation();

            // Resume: tasks the manifest records complete are taken out of
            // the claim queue, their persisted runs fed straight into the
            // merge and their counters restored. A cost mismatch means the
            // source sliced the input differently — refuse rather than mix.
            if let Some(ck) = &ckpt {
                for (&i, done) in ck.completed_map() {
                    if i >= n_splits {
                        continue;
                    }
                    if done.cost != costs[i] {
                        return Err(MrError::CheckpointMismatch {
                            expected: format!("map task {i} with split cost {}", costs[i]),
                            found: format!("recorded split cost {}", done.cost),
                        });
                    }
                    let _ = splits[i].lock().take();
                    for (p, run) in done.restore_runs(ck.dir()) {
                        if p < num_reduce {
                            partition_runs[p].lock().push(run);
                        }
                    }
                    counters.absorb(&done.counters);
                    counters.inc(Counter::TaskSkippedCheckpointed);
                    map_task_times
                        .lock()
                        .push(Duration::from_nanos(done.wall_nanos));
                    finished[i].store(true, Ordering::SeqCst);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            }

            let next = AtomicUsize::new(0);
            let first_error: Mutex<Option<MrError>> = Mutex::new(None);
            let workers = slots.min(num_map).max(1);
            // The single commit path for a completed map task, shared by
            // primary and speculative attempts: absorb the winning
            // attempt's counters, durably publish the checkpoint while the
            // runs are still borrowable, then hand the runs to the merge.
            let publish = |i: usize, runs: Vec<Vec<Run>>, snap: CounterSnapshot, wall: Duration| {
                counters.absorb(&snap);
                if let Some(ck) = &ckpt {
                    ck.publish_map_task(i, costs[i], wall, &snap, &runs, &counters);
                }
                map_task_times.lock().push(wall);
                for (p, rs) in runs.into_iter().enumerate() {
                    if !rs.is_empty() {
                        partition_runs[p].lock().extend(rs);
                    }
                }
                completed.fetch_add(1, Ordering::Relaxed);
            };
            std::thread::scope(|scope| {
                for w in 0..workers {
                    // Move closures capture `w` by value; everything else
                    // is re-aliased as a reference first.
                    let (splits, claim_order, next) = (&splits, &claim_order, &next);
                    let (first_error, map_task_times) = (&first_error, &map_task_times);
                    let counters = &counters;
                    let (finished, started_at, backups) = (&finished, &started_at, &backups);
                    let (completed, publish) = (&completed, &publish);
                    let trace_sink = trace_sink.as_ref();
                    let temp = temp.clone();
                    scope.spawn(move || {
                        loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= claim_order.len() {
                                break;
                            }
                            let i = claim_order[c];
                            let Some(mut split) = splits[i].lock().take() else {
                                continue;
                            };
                            if speculate {
                                // Stash a rewindable copy for a potential
                                // backup attempt (sources that cannot
                                // re-stream clone to `None`: no backup).
                                *backups[i].lock() = split.try_clone();
                            }
                            let task_started = Instant::now();
                            *started_at[i].lock() = Some(task_started);
                            let queue_wait = task_started.duration_since(map_started);
                            let attempted = self.run_task_attempts(
                                "map",
                                i,
                                counters,
                                trace_sink,
                                w,
                                queue_wait,
                                |attempt, attempt_ctrs| {
                                    if let Some(plan) = &self.config.fault_plan {
                                        plan.maybe_die_map(i, attempt);
                                        plan.maybe_panic_map(i, attempt);
                                    }
                                    self.run_map_task(
                                        &mut split,
                                        num_reduce,
                                        attempt_ctrs,
                                        temp.clone(),
                                    )
                                },
                            );
                            match attempted {
                                Ok((runs, snap)) => {
                                    let _ = backups[i].lock().take();
                                    if !finished[i].swap(true, Ordering::SeqCst) {
                                        publish(i, runs, snap, task_started.elapsed());
                                    }
                                }
                                Err(e) => {
                                    // A lost race against our own backup is
                                    // not a failure; anything else is.
                                    if !finished[i].load(Ordering::SeqCst) {
                                        let mut slot = first_error.lock();
                                        if slot.is_none() {
                                            *slot = Some(e);
                                        }
                                    }
                                }
                            }
                        }
                        if !speculate {
                            return;
                        }
                        // Claim queue drained: this worker is idle. Race
                        // backups against in-flight stragglers whose wall
                        // exceeds `speculative_slack` × the completed-task
                        // median.
                        loop {
                            if first_error.lock().is_some()
                                || completed.load(Ordering::Relaxed) >= n_splits
                            {
                                return;
                            }
                            let threshold = {
                                let times = map_task_times.lock();
                                if times.len() < 3 {
                                    None
                                } else {
                                    let mut walls = times.clone();
                                    walls.sort();
                                    Some(
                                        walls[walls.len() / 2]
                                            .mul_f64(self.config.speculative_slack.max(1.0)),
                                    )
                                }
                            };
                            let mut launched = false;
                            for i in 0..n_splits {
                                let Some(threshold) = threshold else { break };
                                if finished[i].load(Ordering::SeqCst) {
                                    continue;
                                }
                                let elapsed = match *started_at[i].lock() {
                                    Some(t) => t.elapsed(),
                                    None => continue,
                                };
                                if elapsed <= threshold {
                                    continue;
                                }
                                let Some(mut split) = backups[i].lock().take() else {
                                    continue;
                                };
                                launched = true;
                                counters.inc(Counter::SpeculativeAttempts);
                                let attempt_counters = Arc::new(Counters::new());
                                let backup_started = Instant::now();
                                let outcome =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        self.run_map_task(
                                            &mut split,
                                            num_reduce,
                                            &attempt_counters,
                                            temp.clone(),
                                        )
                                    }));
                                // First finisher through the gate commits;
                                // the loser's output is dropped wholesale.
                                let won = matches!(&outcome, Ok(Ok(_)))
                                    && !finished[i].swap(true, Ordering::SeqCst);
                                if let Some(sink) = trace_sink {
                                    sink.record(
                                        w,
                                        TaskSpan {
                                            phase: "map",
                                            task: i,
                                            attempt: 1,
                                            queue_wait: backup_started.duration_since(map_started),
                                            wall: backup_started.elapsed(),
                                            ok: won,
                                            speculative: true,
                                            counters: attempt_counters.snapshot(),
                                        },
                                    );
                                }
                                if won {
                                    if let Ok(Ok(runs)) = outcome {
                                        counters.inc(Counter::SpeculativeWins);
                                        publish(
                                            i,
                                            runs,
                                            attempt_counters.snapshot(),
                                            backup_started.elapsed(),
                                        );
                                    }
                                }
                            }
                            if !launched {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    });
                }
            });
            if let Some(e) = first_error.into_inner() {
                return Err(e);
            }
        }
        let map_time = map_started.elapsed();

        // ---- Reduce phase. ----
        let reduce_started = Instant::now();
        let artifacts: Vec<WorkSlot<F::Artifact>> =
            (0..num_reduce).map(|_| Mutex::new(None)).collect();
        let reduce_task_times: Mutex<Vec<Duration>> = Mutex::new(Vec::with_capacity(num_reduce));
        {
            let next = AtomicUsize::new(0);
            let first_error: Mutex<Option<MrError>> = Mutex::new(None);
            let workers = slots.min(num_reduce).max(1);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let (next, first_error) = (&next, &first_error);
                    let (counters, partition_runs) = (&counters, &partition_runs);
                    let (artifacts, reduce_task_times) = (&artifacts, &reduce_task_times);
                    let ckpt = ckpt.as_ref();
                    let trace_sink = trace_sink.as_ref();
                    scope.spawn(move || loop {
                        let p = next.fetch_add(1, Ordering::Relaxed);
                        if p >= num_reduce {
                            return;
                        }
                        // Resume: a partition whose sealed artifact the
                        // sink can restore from the manifest is not re-run.
                        // A restore failure (corrupt file) just re-runs.
                        if let Some(ck) = ckpt {
                            if let Some(done) = ck.reduce_done(p) {
                                match sinks.restore(p, ck.dir()) {
                                    Ok(Some(artifact)) => {
                                        counters.absorb(&done.counters);
                                        counters.inc(Counter::TaskSkippedCheckpointed);
                                        reduce_task_times
                                            .lock()
                                            .push(Duration::from_nanos(done.wall_nanos));
                                        *artifacts[p].lock() = Some(artifact);
                                        continue;
                                    }
                                    Ok(None) => {}
                                    Err(e) => crate::log_warn!(
                                        "checkpoint",
                                        "reduce {p} restore failed ({e}); re-running"
                                    ),
                                }
                            }
                        }
                        let runs = std::mem::take(&mut *partition_runs[p].lock());
                        let task_started = Instant::now();
                        let queue_wait = task_started.duration_since(reduce_started);
                        let attempted = self.run_task_attempts(
                            "reduce",
                            p,
                            counters,
                            trace_sink,
                            w,
                            queue_wait,
                            |attempt, attempt_ctrs| {
                                if let Some(plan) = &self.config.fault_plan {
                                    plan.maybe_die_reduce(p, attempt);
                                    plan.maybe_panic_reduce(p, attempt);
                                }
                                self.run_reduce_task(p, &runs, attempt_ctrs, sinks)
                            },
                        );
                        match attempted {
                            Ok((artifact, snap)) => {
                                counters.absorb(&snap);
                                let wall = task_started.elapsed();
                                reduce_task_times.lock().push(wall);
                                if let Some(ck) = ckpt {
                                    if ck.active() {
                                        match sinks.checkpoint(p, &artifact, ck.dir()) {
                                            Ok(Some(bytes)) => ck.publish_reduce_task(
                                                p, wall, &snap, bytes, counters,
                                            ),
                                            Ok(None) => {}
                                            Err(e) => ck.degrade("reduce sink checkpoint", &e),
                                        }
                                    }
                                }
                                *artifacts[p].lock() = Some(artifact)
                            }
                            Err(e) => {
                                let mut slot = first_error.lock();
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                            }
                        }
                    });
                }
            });
            if let Some(e) = first_error.into_inner() {
                return Err(e);
            }
        }
        let reduce_time = reduce_started.elapsed();

        let artifacts: Vec<F::Artifact> = artifacts
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .ok_or(MrError::Config("reduce task produced no artifact".into()))
            })
            .collect::<Result<_>>()?;
        let elapsed = started.elapsed();
        // The four driver spans partition `elapsed` end to end: setup is
        // everything before the map scope (split planning), seal is
        // everything after the reduce scope (artifact collection), and
        // the only unspanned stretch is the handful of allocations
        // between the map and reduce scopes.
        let trace = trace_sink.map(|sink| {
            let setup_wall = map_started.duration_since(started);
            let reduce_start = reduce_started.duration_since(started);
            let seal_start = reduce_start + reduce_time;
            JobTrace {
                name: self.config.name.clone(),
                elapsed,
                job_spans: vec![
                    JobSpan {
                        name: "setup",
                        start: Duration::ZERO,
                        wall: setup_wall,
                    },
                    JobSpan {
                        name: "map",
                        start: setup_wall,
                        wall: map_time,
                    },
                    JobSpan {
                        name: "reduce",
                        start: reduce_start,
                        wall: reduce_time,
                    },
                    JobSpan {
                        name: "seal",
                        start: seal_start,
                        wall: elapsed.saturating_sub(seal_start),
                    },
                ],
                task_spans: sink.into_spans(),
            }
        });
        let stats = JobStats {
            counters: counters.snapshot(),
            elapsed,
            map_time,
            reduce_time,
            map_task_times: map_task_times.into_inner(),
            reduce_task_times: reduce_task_times.into_inner(),
            trace,
        };
        cluster.record_job(
            &self.config.name,
            stats.elapsed,
            &stats.counters,
            &stats.map_task_times,
            &stats.reduce_task_times,
            stats.trace.clone(),
        );
        Ok(JobRun { artifacts, stats })
    }

    /// Run one task as a sequence of isolated attempts: each attempt runs
    /// under `catch_unwind` with a private counter bank, so a panic or
    /// error discards the attempt's counted work (its partial sink/run
    /// output is discarded by the attempt body itself — streams restart
    /// from the beginning, sinks are recreated per attempt) and the task
    /// is retried with linear backoff until
    /// [`JobConfig::max_task_attempts`] is exhausted. The successful
    /// attempt's private counter snapshot is returned alongside its value
    /// — the *caller* absorbs it into the shared bank iff the attempt wins
    /// the publish race (speculation may have finished the task first), so
    /// retried and losing work is never double-counted; the bookkeeping
    /// trio ([`Counter::TaskAttempts`], [`Counter::TaskRetries`],
    /// [`Counter::TaskPanics`]) is recorded unconditionally.
    #[allow(clippy::too_many_arguments)]
    fn run_task_attempts<T>(
        &self,
        phase: &'static str,
        task: usize,
        counters: &Arc<Counters>,
        trace: Option<&TraceSink>,
        worker: usize,
        queue_wait: Duration,
        mut attempt_fn: impl FnMut(u32, &Arc<Counters>) -> Result<T>,
    ) -> Result<(T, CounterSnapshot)> {
        let max = self.config.max_task_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            counters.inc(Counter::TaskAttempts);
            let attempt_counters = Arc::new(Counters::new());
            let attempt_started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                attempt_fn(attempt, &attempt_counters)
            }));
            let snap = attempt_counters.snapshot();
            if let Some(sink) = trace {
                // Every attempt gets a span — failed ones too, carrying
                // the private counter bank the retry machinery is about
                // to throw away.
                sink.record(
                    worker,
                    TaskSpan {
                        phase,
                        task,
                        attempt: attempt + 1,
                        queue_wait,
                        wall: attempt_started.elapsed(),
                        ok: matches!(outcome, Ok(Ok(_))),
                        speculative: false,
                        counters: snap.clone(),
                    },
                );
            }
            let err = match outcome {
                Ok(Ok(value)) => return Ok((value, snap)),
                Ok(Err(e)) => e,
                Err(payload) => {
                    counters.inc(Counter::TaskPanics);
                    MrError::TaskPanic(panic_message(payload))
                }
            };
            attempt += 1;
            if attempt >= max {
                crate::log_error!(
                    "job",
                    "{phase} task {task} failed after {attempt} attempt(s): {err}"
                );
                return Err(MrError::TaskFailed {
                    phase,
                    task,
                    attempts: attempt,
                    cause: Box::new(err),
                });
            }
            counters.inc(Counter::TaskRetries);
            let backoff = Duration::from_millis(10 * u64::from(attempt));
            crate::log_warn!(
                "job",
                "{phase} task {task} attempt {attempt} failed: {err}; retrying in {} ms",
                backoff.as_millis()
            );
            std::thread::sleep(backoff);
        }
    }

    fn run_map_task<St>(
        &self,
        split: &mut St,
        num_reduce: usize,
        counters: &Arc<Counters>,
        temp: Option<Arc<TempDir>>,
    ) -> Result<Vec<Vec<Run>>>
    where
        St: RecordStream<M::InKey, M::InValue>,
    {
        let mut collector = MapOutputCollector::new(
            num_reduce,
            CollectorConfig {
                sort_buffer_bytes: self.config.sort_buffer_bytes,
                spill_to_disk: self.config.spill_to_disk,
                run_codec: self.config.run_codec,
                prefix_sort: self.config.prefix_sort,
                pipelined: self.config.effective_pipelined(),
                fault: self.config.fault_plan.clone(),
            },
            temp,
            Arc::clone(&self.comparator),
            self.combiner_f.clone(),
            Arc::clone(counters),
        );
        let mut mapper = (self.mapper_f)();
        // Counted locally and added in bulk: a shared atomic RMW per input
        // record would contend across all map workers on the hot loop.
        let mut records_in = 0u64;
        let mapped = {
            let mut ctx = MapContext {
                collector: &mut collector,
                partitioner: self.partitioner.as_ref(),
                num_partitions: num_reduce,
                counters,
                error: None,
            };
            let streamed = split.for_each(&mut |k, v| {
                records_in += 1;
                mapper.map(k, v, &mut ctx);
                // Abort the stream at the first collector error instead of
                // mapping the rest of the split into a void.
                ctx.take_error()
            });
            streamed.and_then(|()| {
                mapper.cleanup(&mut ctx);
                ctx.take_error()
            })
        };
        counters.add(Counter::MapInputRecords, records_in);
        let input = split.input_stats();
        counters.add(Counter::MapInputBytes, input.bytes_read);
        counters.add(Counter::InputRawBytes, input.raw_bytes);
        counters.add(Counter::InputBlocksRead, input.blocks_read);
        counters.max(Counter::InputPeakBlockBytes, input.peak_block_bytes);
        counters.add(Counter::MapInputStallNanos, input.stall_nanos);
        mapped?;
        collector.finish()
    }

    fn run_reduce_task<F>(
        &self,
        partition: usize,
        runs: &[Run],
        counters: &Arc<Counters>,
        sinks: &F,
    ) -> Result<F::Artifact>
    where
        F: RecordSinkFactory<R::KeyOut, R::ValueOut>,
    {
        let mut stream = MergeStream::with_options(
            runs,
            Arc::clone(&self.comparator),
            self.config.prefix_sort,
            self.config.effective_pipelined(),
        )?
        .timed(self.config.trace);
        let mut reducer = (self.reducer_f)();
        let mut sink = sinks.make(partition)?;
        // The one buffer a group's key is copied into: the merge's own key
        // bytes move on with every value the reducer pulls.
        let mut group_key: Vec<u8> = Vec::new();
        // Counted locally and added in bulk, like the map side's records.
        let (mut groups, mut records) = (0u64, 0u64);
        let drained = (|| -> Result<()> {
            while let Some(key_bytes) = stream.peek_key() {
                groups += 1;
                group_key.clear();
                group_key.extend_from_slice(key_bytes);
                let key = M::OutKey::read_from(&mut ByteReader::new(&group_key))?;
                let mut values = ValueIter::<M::OutValue>::stream(&mut stream, &group_key);
                let mut ctx = ReduceContext::new(&mut sink, counters, Counter::ReduceOutputRecords);
                reducer.reduce(key, &mut values, &mut ctx);
                records += values.finish()?;
            }
            Ok(())
        })();
        counters.add(Counter::ReduceInputGroups, groups);
        counters.add(Counter::ReduceInputRecords, records);
        drained?;
        counters.add(Counter::ReduceDecodeStallNanos, stream.stall_nanos());
        counters.add(Counter::ReduceMergeNanos, stream.merge_nanos());
        let mut ctx = ReduceContext::new(&mut sink, counters, Counter::ReduceOutputRecords);
        reducer.cleanup(&mut ctx);
        sinks.seal(partition, sink)
    }
}

/// Best-effort human-readable message out of a caught panic payload
/// (`panic!` with a literal or a formatted string covers practically all
/// real payloads; anything else is opaque).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Claim order for the map phase: split indices sorted by descending
/// predicted cost (longest processing time first). The stable sort keeps
/// equal-cost splits — in particular the all-zero costs of in-memory
/// sources — in arrival order.
fn lpt_claim_order(costs: impl Iterator<Item = u64>) -> Vec<usize> {
    let costs: Vec<u64> = costs.collect();
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    order
}

fn effective_map_tasks(configured: usize, input_len: usize, slots: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    // Default: enough tasks for decent balance, without administrative
    // overhead dominating tiny inputs.
    (slots * 4).clamp(1, input_len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_task_count_heuristic() {
        assert_eq!(effective_map_tasks(7, 100, 4), 7);
        assert_eq!(effective_map_tasks(0, 100, 4), 16);
        assert_eq!(effective_map_tasks(0, 3, 4), 3);
        assert_eq!(effective_map_tasks(0, 0, 4), 1);
    }

    #[test]
    fn makespan_list_scheduling() {
        let ms = Duration::from_millis;
        let tasks = [ms(4), ms(3), ms(2), ms(1)];
        assert_eq!(simulated_makespan(&tasks, 1), ms(10));
        // Greedy in arrival order on 2 slots: {4,1} and {3,2} → 5.
        assert_eq!(simulated_makespan(&tasks, 2), ms(5));
        assert_eq!(simulated_makespan(&tasks, 4), ms(4));
        assert_eq!(simulated_makespan(&tasks, 100), ms(4));
        assert_eq!(simulated_makespan(&[], 3), Duration::ZERO);
    }

    /// The pre-heap implementation: a linear min-scan per task, first
    /// minimum on ties. Kept verbatim as the behavioral oracle.
    fn makespan_linear_reference(tasks: &[Duration], slots: usize) -> Duration {
        let slots = slots.max(1);
        let mut loads = vec![Duration::ZERO; slots];
        for &t in tasks {
            let min = loads
                .iter_mut()
                .min_by_key(|d| **d)
                .expect("slots is non-zero");
            *min += t;
        }
        loads.into_iter().max().unwrap_or(Duration::ZERO)
    }

    #[test]
    fn heap_makespan_matches_linear_reference() {
        // Deterministic pseudo-random task mixes, including heavy ties.
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for slots in [1usize, 2, 3, 7, 16, 100] {
            for n in [0usize, 1, 5, 40, 257] {
                let tasks: Vec<Duration> = (0..n)
                    .map(|_| Duration::from_micros(next() % 50)) // % 50 forces ties
                    .collect();
                assert_eq!(
                    simulated_makespan(&tasks, slots),
                    makespan_linear_reference(&tasks, slots),
                    "divergence at slots={slots}, n={n}"
                );
            }
        }
    }
}
