//! A single-machine MapReduce runtime with Hadoop-faithful shuffle
//! semantics, built as the execution substrate for reproducing
//! *"Computing n-Gram Statistics in MapReduce"* (Berberich & Bedathur,
//! EDBT 2013).
//!
//! What "faithful" means here:
//!
//! * **Serialized shuffle.** Map output is serialized at `emit` time into a
//!   bounded sort buffer and sorted *as bytes* through a [`RawComparator`]
//!   over an offset array — no deserialization, no per-record allocation —
//!   matching Hadoop's `MapOutputBuffer` and the paper's §V advice on raw
//!   comparators.
//! * **Pluggable partitioner and sort order.** SUFFIX-σ needs both: suffixes
//!   are routed by their first term only and sorted in reverse lexicographic
//!   order (paper §IV).
//! * **Combiners on spill.** Local aggregation runs at every spill, and the
//!   counters keep Hadoop's semantics: `MAP_OUTPUT_RECORDS` /
//!   `MAP_OUTPUT_BYTES` count pre-combine emissions — these are the
//!   "# records" and "bytes transferred" measures of the paper's §VII.
//! * **Bounded resources.** Slots (worker threads) bound task parallelism;
//!   the sort buffer bounds map-task memory; spills optionally go to disk.
//! * **Multi-job sessions.** The APRIORI methods launch one job per n-gram
//!   length; [`Cluster`] aggregates wallclock and counters across a chain.
//! * **Streaming job boundaries.** Input splits are pulled from a
//!   [`RecordSource`] and reduce output is pushed into per-task sinks from
//!   a [`RecordSinkFactory`]; chained jobs hand records run-to-run through
//!   [`RunSinkFactory`] / [`RunRecordSource`] so nothing forces a
//!   `Vec<(K, V)>` at any job boundary ([`Job::run_streamed`]).
//!
//! # Example: word count
//!
//! ```
//! use mapreduce::*;
//!
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type InKey = u64;            // document id
//!     type InValue = String;       // document text
//!     type OutKey = u64;           // term id (here: word length as a toy)
//!     type OutValue = u64;         // count
//!     fn map(&mut self, _k: &u64, text: &String, ctx: &mut MapContext<'_, u64, u64>) {
//!         for word in text.split_whitespace() {
//!             ctx.emit(&(word.len() as u64), &1);
//!         }
//!     }
//! }
//!
//! struct Sum;
//! impl Reducer for Sum {
//!     type Key = u64;
//!     type ValueIn = u64;
//!     type KeyOut = u64;
//!     type ValueOut = u64;
//!     fn reduce(&mut self, key: u64, values: &mut ValueIter<'_, u64>,
//!               ctx: &mut ReduceContext<'_, u64, u64>) {
//!         let total: u64 = values.sum();
//!         ctx.emit(key, total);
//!     }
//! }
//!
//! let cluster = Cluster::new(2);
//! let input = vec![(0u64, "a bb a ccc".to_string())];
//! let job = Job::<Tokenize, Sum>::new(JobConfig::named("wordcount"), || Tokenize, || Sum);
//! let result = job.run(&cluster, input).unwrap();
//! let mut counts = result.into_records();
//! counts.sort();
//! assert_eq!(counts, vec![(1, 2), (2, 1), (3, 1)]);
//! ```

#![warn(missing_docs)]

mod buffer;
mod checkpoint;
mod cluster;
mod comparator;
mod counters;
mod crc;
mod error;
mod fault;
mod hash;
mod io;
pub(crate) mod job;
pub mod json;
pub mod logging;
mod merge;
mod partition;
mod profile;
mod run;
mod sink;
mod source;
mod task;
mod trace;
mod values;

pub use checkpoint::CheckpointSpec;
pub use cluster::{Cluster, DistCache, JobLogEntry};
pub use comparator::{
    next_two_terms, BytewiseComparator, RawComparator, TypedComparator, VarintSeqComparator,
    PACKED_TERM_MAX,
};
pub use counters::{Counter, CounterSnapshot, Counters};
pub use crc::{crc32, Crc32};
pub use error::{MrError, Result};
pub use fault::FaultPlan;
pub use hash::{fx_hash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use io::{
    from_bytes, read_vu32_seq, read_vu64_at, read_vu64_seq, to_bytes, write_vu32, write_vu64,
    ByteReader, Writable,
};
pub use job::{
    simulated_makespan, Job, JobConfig, JobResult, JobRun, JobStats, DEFAULT_SORT_BUFFER_BYTES,
};
pub use merge::MergeStream;
pub use partition::{FnPartitioner, HashPartition, Partitioner};
pub use profile::{JobProfile, PhaseProfile, TaskProfile};
pub use run::{
    BlockCodec, BlockCursor, BlockEncoder, DecodeState, FrontCodedCodec, PlainCodec,
    PostingDeltaCodec, RawBlock, Run, RunCodec, RunInput, RunReader, RunWriter, TempDir,
    RUN_BLOCK_BYTES,
};
pub use sink::{
    CountingSink, CountingSinkFactory, RecordSinkFactory, RunSink, RunSinkFactory, VecSinkFactory,
    WriterSink, WriterSinkFactory,
};
pub use source::{
    for_each_run_record, InputStats, RecordSource, RecordStream, RunRecordSource, RunStream,
    SliceSource, SliceStream, VecSource, VecStream,
};
pub use task::{BoxedCombiner, MapContext, Mapper, RecordSink, ReduceContext, Reducer, VecSink};
pub use trace::{JobSpan, JobTrace, TaskSpan, TraceSink};
pub use values::ValueIter;
