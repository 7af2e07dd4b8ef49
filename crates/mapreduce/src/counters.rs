//! Hadoop-style job counters.
//!
//! The paper's evaluation reports three measures; two of them come straight
//! from counters (`MAP_OUTPUT_BYTES` for "bytes transferred" and
//! `MAP_OUTPUT_RECORDS` for "# records", §VII-A). We reproduce Hadoop's
//! semantics: both are incremented at `emit` time in the map task, *before*
//! any combiner runs, exactly like Hadoop's collect path.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Built-in counters maintained by the framework itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Input records consumed by mappers.
    MapInputRecords,
    /// Serialized input bytes streamed into map tasks. Zero for purely
    /// in-memory sources (vectors, borrowed slices), which have no
    /// serialized form; counted for run-backed and block-store sources.
    MapInputBytes,
    /// Decoded (pre-codec) input bytes behind [`Counter::MapInputBytes`].
    /// Equal to `MapInputBytes` for uncompressed sources; for
    /// codec-compressed corpus-store blocks the pair exposes the input
    /// compression ratio the way `EncodedRunBytes` / `RawRunBytes` does
    /// for the shuffle. Zero for in-memory sources.
    InputRawBytes,
    /// Input blocks fetched by map tasks (corpus-store blocks, chained
    /// runs). Zero for in-memory sources.
    InputBlocksRead,
    /// Largest single input block resident in a map task at once — the
    /// input side's peak-allocation witness. Aggregates by *maximum*, not
    /// sum, in [`CounterSnapshot::merge`]. Under pipelined execution a
    /// prefetcher may hold the next block while the current one is being
    /// consumed, so the witness covers both (≤ two blocks).
    InputPeakBlockBytes,
    /// Nanoseconds map tasks spent *blocked* waiting on the input
    /// prefetcher (`JobConfig::pipelined`). Zero on the synchronous path,
    /// where input I/O runs inline and no wait is measured; under
    /// pipelining this is the input latency the overlap failed to hide.
    MapInputStallNanos,
    /// Key-value pairs emitted by mappers (pre-combine, Hadoop semantics).
    MapOutputRecords,
    /// Serialized key+value bytes emitted by mappers (pre-combine).
    MapOutputBytes,
    /// Records fed into combiners during spills.
    CombineInputRecords,
    /// Records produced by combiners.
    CombineOutputRecords,
    /// Number of spill events across all map tasks.
    Spills,
    /// Nanoseconds map tasks spent *blocked* on the spill-writer thread
    /// (`JobConfig::pipelined`) — in practice the final wait for the
    /// writer to drain at task end, since mid-map hand-offs never block
    /// (a busy writer makes the mapper spill that buffer inline instead).
    /// Zero on the synchronous path, where the whole sort + encode +
    /// write runs inline on the mapper thread.
    SpillStallNanos,
    /// Bytes actually shipped to reducers (post-combine, post-codec run
    /// bytes).
    ShuffleBytes,
    /// Pre-codec frame bytes of the map-side spill runs (post-combine):
    /// what the shuffle *would* ship under the plain codec. Covers spill
    /// runs only — reduce-output runs written through a `RunSinkFactory`
    /// (job chaining) have no counter hookup.
    RawRunBytes,
    /// Post-codec bytes of the map-side spill runs; `EncodedRunBytes /
    /// RawRunBytes` is the shuffle compression ratio of the job. Equals
    /// [`Counter::ShuffleBytes`] today (both count sealed spill runs);
    /// kept separate because ShuffleBytes carries Hadoop's semantics
    /// while this one is defined as the denominator's encoded twin.
    EncodedRunBytes,
    /// Nanoseconds spent sorting map-side record arenas (the in-memory
    /// sort the raw comparator and its resumable key digest accelerate).
    MapSortNanos,
    /// Nanoseconds reduce tasks spent *blocked* waiting on run read-ahead
    /// decoders (`JobConfig::pipelined`): merge heads whose next decoded
    /// batch was not ready yet. Zero on the synchronous path, where run
    /// fetch + codec decode run inline between reduce calls.
    ReduceDecodeStallNanos,
    /// Nanoseconds reduce tasks spent inside the k-way merge pulling the
    /// next record (run fetch + codec decode + loser-tree replay). Only
    /// measured when `JobConfig::trace` is on — the timing calls would
    /// otherwise tax the per-record hot path — so the per-phase
    /// merge-wall breakdown in job profiles comes from here.
    ReduceMergeNanos,
    /// Distinct keys seen by reducers.
    ReduceInputGroups,
    /// Records consumed by reducers.
    ReduceInputRecords,
    /// Records emitted by reducers.
    ReduceOutputRecords,
    /// Task attempts started (map + reduce). Equals the task count on a
    /// fault-free run; each retry adds one.
    TaskAttempts,
    /// Failed attempts that were re-enqueued (attempts minus tasks on a
    /// run that eventually succeeded).
    TaskRetries,
    /// Attempts that ended in a caught panic (a subset of the failures
    /// behind [`Counter::TaskRetries`]).
    TaskPanics,
    /// Tasks whose completed result was restored from a durable
    /// checkpoint manifest instead of being re-executed
    /// (`JobConfig::checkpoint` + resume). A resumed run's
    /// [`Counter::TaskAttempts`] is lower than a fresh run's by exactly
    /// this number.
    TaskSkippedCheckpointed,
    /// Bytes written to checkpoint manifests (persisted runs plus
    /// `task-NNN.done` records).
    CheckpointBytes,
    /// Backup attempts launched for in-flight straggler tasks
    /// (`JobConfig::speculative_slack`).
    SpeculativeAttempts,
    /// Speculative backup attempts that finished first and published the
    /// task's result (the original attempt's output was discarded).
    SpeculativeWins,
}

const NUM_COUNTERS: usize = 28;

const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "MAP_INPUT_RECORDS",
    "MAP_INPUT_BYTES",
    "INPUT_RAW_BYTES",
    "INPUT_BLOCKS_READ",
    "INPUT_PEAK_BLOCK_BYTES",
    "MAP_INPUT_STALL_NANOS",
    "MAP_OUTPUT_RECORDS",
    "MAP_OUTPUT_BYTES",
    "COMBINE_INPUT_RECORDS",
    "COMBINE_OUTPUT_RECORDS",
    "SPILLS",
    "SPILL_STALL_NANOS",
    "SHUFFLE_BYTES",
    "RAW_RUN_BYTES",
    "ENCODED_RUN_BYTES",
    "MAP_SORT_NANOS",
    "REDUCE_DECODE_STALL_NANOS",
    "REDUCE_MERGE_NANOS",
    "REDUCE_INPUT_GROUPS",
    "REDUCE_INPUT_RECORDS",
    "REDUCE_OUTPUT_RECORDS",
    "TASK_ATTEMPTS",
    "TASK_RETRIES",
    "TASK_PANICS",
    "TASK_SKIPPED_CHECKPOINTED",
    "CHECKPOINT_BYTES",
    "SPECULATIVE_ATTEMPTS",
    "SPECULATIVE_WINS",
];

/// Live counter bank shared by all tasks of one job.
///
/// Built-ins are lock-free atomics; user counters (string-named, as in
/// Hadoop) take a short lock and are meant for low-frequency events.
#[derive(Default)]
pub struct Counters {
    builtin: [AtomicU64; NUM_COUNTERS],
    user: Mutex<BTreeMap<&'static str, u64>>,
}

impl Counters {
    /// A fresh, all-zero counter bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a built-in counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.builtin[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a built-in counter by one.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Raise a built-in counter to at least `n` (peak-style counters such
    /// as [`Counter::InputPeakBlockBytes`]).
    #[inline]
    pub fn max(&self, c: Counter, n: u64) {
        self.builtin[c as usize].fetch_max(n, Ordering::Relaxed);
    }

    /// Read the current value of a built-in counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.builtin[c as usize].load(Ordering::Relaxed)
    }

    /// Add `n` to a named user counter.
    pub fn add_user(&self, name: &'static str, n: u64) {
        *self.user.lock().entry(name).or_insert(0) += n;
    }

    /// Fold a snapshot into this live bank — how a successful task
    /// attempt publishes its privately counted work. Peak counters fold
    /// by maximum, everything else by sum, mirroring
    /// [`CounterSnapshot::merge`]. Failed attempts simply drop their
    /// private bank, so retried work is never double-counted.
    pub fn absorb(&self, snap: &CounterSnapshot) {
        for (i, &v) in snap.builtin.iter().enumerate() {
            if v == 0 {
                continue;
            }
            if i == Counter::InputPeakBlockBytes as usize {
                self.builtin[i].fetch_max(v, Ordering::Relaxed);
            } else {
                self.builtin[i].fetch_add(v, Ordering::Relaxed);
            }
        }
        if !snap.user.is_empty() {
            let mut user = self.user.lock();
            for (k, v) in &snap.user {
                *user.entry(k).or_insert(0) += v;
            }
        }
    }

    /// Capture an immutable snapshot of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut builtin = [0u64; NUM_COUNTERS];
        for (i, slot) in self.builtin.iter().enumerate() {
            builtin[i] = slot.load(Ordering::Relaxed);
        }
        CounterSnapshot {
            builtin,
            user: self.user.lock().clone(),
        }
    }
}

/// Immutable counter values captured after a job (or summed over a chain of
/// jobs, as the paper does for the APRIORI methods: "measures (b) and (c)
/// are aggregates over all Hadoop jobs launched").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    builtin: [u64; NUM_COUNTERS],
    user: BTreeMap<&'static str, u64>,
}

impl CounterSnapshot {
    /// Value of a built-in counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.builtin[c as usize]
    }

    /// Value of a named user counter (zero when never incremented).
    pub fn get_user(&self, name: &str) -> u64 {
        self.user.get(name).copied().unwrap_or(0)
    }

    /// All counters with their display names: built-ins first (in enum
    /// order, zeros included), then user counters. This is how job
    /// profiles and the CLI serialize a snapshot without enumerating the
    /// enum themselves.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES
            .iter()
            .copied()
            .zip(self.builtin.iter().copied())
            .chain(self.user.iter().map(|(k, v)| (*k, *v)))
    }

    /// Set a counter by its display name — the inverse of [`Self::iter`],
    /// used to rebuild a snapshot from a checkpointed `task-NNN.done`
    /// record. Built-in names map onto their slots; anything else becomes
    /// a user counter (the name is interned, which is fine for the small
    /// fixed set of user counter names a resume can encounter).
    pub fn set_by_name(&mut self, name: &str, value: u64) {
        if let Some(i) = COUNTER_NAMES.iter().position(|n| *n == name) {
            self.builtin[i] = value;
        } else if value > 0 {
            let name: &'static str = Box::leak(name.to_owned().into_boxed_str());
            self.user.insert(name, value);
        }
    }

    /// Accumulate another snapshot into this one (multi-job aggregation).
    /// Peak counters aggregate by maximum — a chain of jobs has the peak
    /// of its peaks, not their sum.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for i in 0..NUM_COUNTERS {
            if i == Counter::InputPeakBlockBytes as usize {
                self.builtin[i] = self.builtin[i].max(other.builtin[i]);
            } else {
                self.builtin[i] += other.builtin[i];
            }
        }
        for (k, v) in &other.user {
            *self.user.entry(k).or_insert(0) += v;
        }
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            writeln!(f, "{name:>24} = {}", self.builtin[i])?;
        }
        for (k, v) in &self.user {
            writeln!(f, "{k:>24} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot() {
        let c = Counters::new();
        c.add(Counter::MapOutputRecords, 5);
        c.inc(Counter::MapOutputRecords);
        c.add_user("FROBS", 2);
        let s = c.snapshot();
        assert_eq!(s.get(Counter::MapOutputRecords), 6);
        assert_eq!(s.get_user("FROBS"), 2);
        assert_eq!(s.get_user("MISSING"), 0);
    }

    #[test]
    fn merge_sums_everything() {
        let c1 = Counters::new();
        c1.add(Counter::MapOutputBytes, 10);
        c1.add_user("X", 1);
        let c2 = Counters::new();
        c2.add(Counter::MapOutputBytes, 32);
        c2.add_user("X", 2);
        c2.add_user("Y", 7);
        let mut s = c1.snapshot();
        s.merge(&c2.snapshot());
        assert_eq!(s.get(Counter::MapOutputBytes), 42);
        assert_eq!(s.get_user("X"), 3);
        assert_eq!(s.get_user("Y"), 7);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = std::sync::Arc::new(Counters::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc(Counter::Spills);
                    }
                });
            }
        });
        assert_eq!(c.get(Counter::Spills), 8000);
    }
}
