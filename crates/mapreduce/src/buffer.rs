//! The map-side sort buffer: a record arena per partition, spilled as sorted
//! runs when the configured budget is exceeded.
//!
//! This mirrors Hadoop's `MapOutputBuffer`: records are serialized once at
//! `emit`, sorted *as bytes* through a [`RawComparator`] over an offset
//! array (no deserialization, no per-record allocation), optionally fed
//! through a combiner at each spill, and written out as runs.

use crate::comparator::{same_group, RawComparator};
use crate::counters::{Counter, Counters};
use crate::error::{MrError, Result};
use crate::io::Writable;
use crate::run::{Run, RunCodec, RunWriter, TempDir};
use crate::task::{BoxedCombiner, RecordSink, ReduceContext, Reducer};
use crate::values::ValueIter;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Instant;

/// Offsets of one record inside a [`RecordArena`], plus the sort state
/// [`RecordArena::sort`] keeps per record: the cached
/// [`RawComparator::digest`] of the current refinement level and the key
/// offset the next level resumes at.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecMeta {
    pub key_start: u32,
    pub key_end: u32,
    pub val_end: u32,
    /// Key bytes already digested; `0` until [`RecordArena::sort`].
    cursor: u32,
    /// Digest of the key bytes ending at `cursor`.
    prefix: u64,
}

/// Largest `data.len()` the `u32` offsets of [`RecMeta`] can address.
const ARENA_LIMIT: usize = u32::MAX as usize;

/// Contiguous byte arena holding serialized records plus an offset array.
#[derive(Default)]
pub(crate) struct RecordArena {
    pub data: Vec<u8>,
    pub meta: Vec<RecMeta>,
}

impl RecordArena {
    /// Serialize one record into the arena; returns (key_len, val_len), or
    /// `None` — arena unchanged — when the record would end past `limit`
    /// bytes ([`ARENA_LIMIT`] outside tests: the `u32` offsets must not
    /// wrap).
    fn append<K: Writable, V: Writable>(
        &mut self,
        k: &K,
        v: &V,
        limit: usize,
    ) -> Option<(usize, usize)> {
        let key_start = self.data.len();
        k.write_to(&mut self.data);
        let key_end = self.data.len();
        v.write_to(&mut self.data);
        let val_end = self.data.len();
        if val_end > limit {
            self.data.truncate(key_start);
            return None;
        }
        self.meta.push(RecMeta {
            key_start: key_start as u32,
            key_end: key_end as u32,
            val_end: val_end as u32,
            cursor: 0,
            prefix: 0,
        });
        Some((key_end - key_start, val_end - key_end))
    }

    #[inline]
    pub(crate) fn key(&self, m: &RecMeta) -> &[u8] {
        &self.data[m.key_start as usize..m.key_end as usize]
    }

    #[inline]
    pub(crate) fn val(&self, m: &RecMeta) -> &[u8] {
        &self.data[m.key_end as usize..m.val_end as usize]
    }

    /// Sort the offset array by key. Without `prefix_sort` every comparison
    /// goes through the comparator — the reference order. With it the sort
    /// is a multikey refinement over [`RawComparator::digest`]: digest
    /// every key of a group from its cursor, sort the group on the cached
    /// `u64`s, and do the same to each run of equal digests, until a group
    /// has no key bytes left (equal keys) or holds a key the comparator has
    /// no digest for (that group goes to the comparator). Keys are decoded
    /// once per level up to where they first differ, instead of once per
    /// comparison over their whole common prefix.
    fn sort(&mut self, cmp: &dyn RawComparator, prefix_sort: bool) {
        let data = &self.data;
        let key = |m: &RecMeta| &data[m.key_start as usize..m.key_end as usize];
        let by_compare = |a: &RecMeta, b: &RecMeta| cmp.compare(key(a), key(b));
        if !prefix_sort {
            self.meta.sort_unstable_by(by_compare);
            return;
        }
        // Ranges of `meta` whose keys tie on every digest taken so far. An
        // explicit stack: keys sharing a long prefix refine level by level
        // without the call depth growing with the key length.
        let mut groups = vec![(0, self.meta.len())];
        while let Some((lo, hi)) = groups.pop() {
            let group = &mut self.meta[lo..hi];
            let mut advanced = false;
            let digested = group.iter_mut().all(|m| {
                let from = m.cursor as usize;
                let Some((digest, next)) = cmp.digest(key(m), from) else {
                    return false;
                };
                debug_assert!(from <= next && next <= key(m).len());
                advanced |= next > from;
                m.prefix = digest;
                m.cursor = next as u32;
                true
            });
            if !digested {
                group.sort_unstable_by(by_compare);
                continue;
            }
            if !advanced {
                continue; // every key consumed to its end: equal keys
            }
            group.sort_unstable_by_key(|m| m.prefix);
            let mut i = 0;
            while i < group.len() {
                let tie = group[i].prefix;
                let len = group[i..].iter().take_while(|m| m.prefix == tie).count();
                if len > 1 {
                    groups.push((lo + i, lo + i + len));
                }
                i += len;
            }
        }
    }

    fn clear(&mut self) {
        self.data.clear();
        self.meta.clear();
    }

    fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }
}

/// Factory producing a fresh combiner instance for each spill.
pub type CombinerFactory<K, V> = Arc<dyn Fn() -> BoxedCombiner<K, V> + Send + Sync>;

/// Shuffle-relevant knobs of one map task's collector, extracted from the
/// job configuration.
#[derive(Clone, Debug)]
pub(crate) struct CollectorConfig {
    pub sort_buffer_bytes: usize,
    pub spill_to_disk: bool,
    /// Codec spill runs are encoded with.
    pub run_codec: RunCodec,
    /// Sort arenas by digest refinement and cache head digests in the
    /// merge ([`RawComparator::digest`]); off: the comparator alone.
    pub prefix_sort: bool,
    /// Hand full sort buffers to a dedicated spill-writer thread so the
    /// sort + encode + write runs off the mapper thread, double-buffering
    /// the arena (mapping continues into a fresh buffer during the spill).
    pub pipelined: bool,
    /// Injected-fault schedule (spill EIO, read-side frame corruption),
    /// propagated into every run this collector seals.
    pub fault: Option<Arc<crate::fault::FaultPlan>>,
}

/// One dispatched spill: the non-empty arenas of a full sort buffer,
/// tagged with their partitions.
type SpillBatch = Vec<(usize, RecordArena)>;

/// What the spill-writer thread leaves behind: per-partition runs plus
/// the first error it hit (if any).
type SpillOutcome = (Vec<Vec<Run>>, Option<MrError>);

/// The dedicated spill-writer half of a pipelined collector.
struct SpillPipeline {
    tx: Option<SyncSender<SpillBatch>>,
    handle: Option<std::thread::JoinHandle<SpillOutcome>>,
}

/// Per-map-task output collector.
pub(crate) struct MapOutputCollector<K, V>
where
    K: Writable + Send + 'static,
    V: Writable + Send + 'static,
{
    arenas: Vec<RecordArena>,
    /// Bytes buffered across all arenas (record bytes plus one [`RecMeta`]
    /// each): advanced by `emit`, reset when the arenas are spilled or
    /// dispatched, so the spill check does not sum R arenas per record.
    buffered_bytes: usize,
    /// [`ARENA_LIMIT`]; a field so tests can reach the forced spill without
    /// buffering 4 GiB.
    arena_limit: usize,
    runs: Vec<Vec<Run>>,
    config: CollectorConfig,
    temp: Option<Arc<TempDir>>,
    cmp: Arc<dyn RawComparator>,
    combiner_f: Option<CombinerFactory<K, V>>,
    counters: Arc<Counters>,
    /// Spill-writer thread, spawned lazily at the first pipelined spill.
    pipeline: Option<SpillPipeline>,
}

impl<K, V> MapOutputCollector<K, V>
where
    K: Writable + Send + 'static,
    V: Writable + Send + 'static,
{
    pub(crate) fn new(
        num_partitions: usize,
        config: CollectorConfig,
        temp: Option<Arc<TempDir>>,
        cmp: Arc<dyn RawComparator>,
        combiner_f: Option<CombinerFactory<K, V>>,
        counters: Arc<Counters>,
    ) -> Self {
        MapOutputCollector {
            arenas: (0..num_partitions)
                .map(|_| RecordArena::default())
                .collect(),
            buffered_bytes: 0,
            arena_limit: ARENA_LIMIT,
            runs: (0..num_partitions).map(|_| Vec::new()).collect(),
            config,
            temp,
            cmp,
            combiner_f,
            counters,
            pipeline: None,
        }
    }

    /// Serialize and collect one record for `partition`.
    pub(crate) fn emit(&mut self, partition: usize, k: &K, v: &V) -> Result<()> {
        let (klen, vlen) = match self.arenas[partition].append(k, v, self.arena_limit) {
            Some(lens) => lens,
            None => {
                // The arena's `u32` offsets are about to run out (a sort
                // buffer of 4 GiB or more): spill early, then retry once.
                self.spill_buffers()?;
                self.arenas[partition]
                    .append(k, v, self.arena_limit)
                    .ok_or_else(|| {
                        MrError::Config(format!(
                            "a single map output record exceeds the {} byte arena limit",
                            self.arena_limit
                        ))
                    })?
            }
        };
        self.counters.inc(Counter::MapOutputRecords);
        self.counters
            .add(Counter::MapOutputBytes, (klen + vlen) as u64);
        self.buffered_bytes += klen + vlen + std::mem::size_of::<RecMeta>();
        if self.buffered_bytes > self.config.sort_buffer_bytes {
            self.spill_buffers()?;
        }
        Ok(())
    }

    /// Empty the sort buffer mid-map, on the spill-writer thread when
    /// pipelined.
    fn spill_buffers(&mut self) -> Result<()> {
        if self.config.pipelined {
            self.dispatch_spill()
        } else {
            self.spill()
        }
    }

    /// Sort, combine and write out every non-empty arena as one run each
    /// (the synchronous path: everything on the mapper thread).
    fn spill(&mut self) -> Result<()> {
        self.counters.inc(Counter::Spills);
        self.buffered_bytes = 0;
        for p in 0..self.arenas.len() {
            if self.arenas[p].is_empty() {
                continue;
            }
            let arena = std::mem::take(&mut self.arenas[p]);
            let (run, mut arena) = spill_arena(
                arena,
                &self.config,
                self.temp.as_deref(),
                self.cmp.as_ref(),
                self.combiner_f.as_deref(),
                &self.counters,
            )?;
            if !run.is_empty() {
                self.runs[p].push(run);
            }
            arena.clear();
            self.arenas[p] = arena; // keep the allocation for reuse
        }
        Ok(())
    }

    /// Hand the full sort buffer to the spill-writer thread (spawned at
    /// the first mid-map spill) and continue mapping into fresh arenas.
    fn dispatch_spill(&mut self) -> Result<()> {
        let mut pipe = match self.pipeline.take() {
            Some(p) => p,
            None => self.spawn_spill_writer(),
        };
        let res = self.dispatch_to(&mut pipe, false);
        self.pipeline = Some(pipe);
        res
    }

    /// Offer every non-empty arena to the spill writer — without ever
    /// blocking on it: if the writer is still busy with the previous
    /// buffer (`try_send` on the rendezvous channel fails), the mapper
    /// spills this buffer *inline* instead of waiting. On a parallel host
    /// that is work-sharing (both threads encode concurrently); on a
    /// single core it degrades gracefully to the synchronous path instead
    /// of paying context switches to wait. `final_barrier` (task end, no
    /// mapping left to overlap) sends blocking, and that wait is the
    /// pipeline stall recorded in [`Counter::SpillStallNanos`].
    fn dispatch_to(&mut self, pipe: &mut SpillPipeline, final_barrier: bool) -> Result<()> {
        let batch: SpillBatch = self
            .arenas
            .iter_mut()
            .enumerate()
            .filter(|(_, a)| !a.is_empty())
            .map(|(p, a)| (p, std::mem::take(a)))
            .collect();
        self.buffered_bytes = 0;
        if batch.is_empty() {
            return Ok(());
        }
        self.counters.inc(Counter::Spills);
        let tx = pipe
            .tx
            .as_ref()
            .expect("pipeline sender lives until finish");
        if final_barrier {
            let waited = Instant::now();
            let sent = tx.send(batch);
            self.counters
                .add(Counter::SpillStallNanos, waited.elapsed().as_nanos() as u64);
            return sent.map_err(|_| MrError::TaskPanic("spill-writer thread died".into()));
        }
        match tx.try_send(batch) {
            Ok(()) => Ok(()),
            Err(std::sync::mpsc::TrySendError::Full(batch)) => self.spill_batch_inline(batch),
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => {
                Err(MrError::TaskPanic("spill-writer thread died".into()))
            }
        }
    }

    /// Spill a dispatched batch on the mapper thread (the `try_send`
    /// fallback when the writer is busy).
    fn spill_batch_inline(&mut self, batch: SpillBatch) -> Result<()> {
        for (p, arena) in batch {
            let (run, _) = spill_arena(
                arena,
                &self.config,
                self.temp.as_deref(),
                self.cmp.as_ref(),
                self.combiner_f.as_deref(),
                &self.counters,
            )?;
            if !run.is_empty() {
                self.runs[p].push(run);
            }
        }
        Ok(())
    }

    fn spawn_spill_writer(&self) -> SpillPipeline {
        // Rendezvous channel: at most one full sort buffer is in flight
        // (being written) while the mapper fills the next one — the
        // promised double buffer, bounding collector memory at two sort
        // buffers.
        let (tx, rx) = std::sync::mpsc::sync_channel::<SpillBatch>(0);
        let num_partitions = self.arenas.len();
        let config = self.config.clone();
        let temp = self.temp.clone();
        let cmp = Arc::clone(&self.cmp);
        let combiner_f = self.combiner_f.clone();
        let counters = Arc::clone(&self.counters);
        let handle = std::thread::spawn(move || {
            let mut runs: Vec<Vec<Run>> = (0..num_partitions).map(|_| Vec::new()).collect();
            let mut error: Option<MrError> = None;
            for batch in rx {
                if error.is_some() {
                    continue; // drain without blocking the mapper
                }
                for (p, arena) in batch {
                    match spill_arena(
                        arena,
                        &config,
                        temp.as_deref(),
                        cmp.as_ref(),
                        combiner_f.as_deref(),
                        &counters,
                    ) {
                        Ok((run, _)) => {
                            if !run.is_empty() {
                                runs[p].push(run);
                            }
                        }
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
            }
            (runs, error)
        });
        SpillPipeline {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Final spill; returns the per-partition runs of this map task.
    pub(crate) fn finish(mut self) -> Result<Vec<Vec<Run>>> {
        // A pipelined task whose buffer never filled mid-map has nothing
        // left to overlap the final spill with — run it inline rather
        // than paying for a thread that would only be waited on.
        if let Some(mut pipe) = self.pipeline.take() {
            self.dispatch_to(&mut pipe, true)?;
            drop(pipe.tx.take());
            // Waiting for the writer to drain the tail is a stall too:
            // there is no mapping left to overlap it with.
            let waited = Instant::now();
            let joined = pipe.handle.take().expect("handle set at spawn").join();
            self.counters
                .add(Counter::SpillStallNanos, waited.elapsed().as_nanos() as u64);
            let (worker_runs, error) =
                joined.map_err(|_| MrError::TaskPanic("spill-writer thread panicked".into()))?;
            if let Some(e) = error {
                return Err(e);
            }
            // Inline-fallback spills landed in `self.runs`; merge in what
            // the writer thread produced.
            for (p, rs) in worker_runs.into_iter().enumerate() {
                self.runs[p].extend(rs);
            }
            return Ok(std::mem::take(&mut self.runs));
        }
        if self.arenas.iter().any(|a| !a.is_empty()) {
            self.spill()?;
        }
        Ok(std::mem::take(&mut self.runs))
    }
}

/// Sort one arena, run the combiner over its groups (when configured),
/// and write it out as a sealed run — the per-partition spill work,
/// shared verbatim by the synchronous path and the spill-writer thread.
/// Returns the run plus the arena for buffer reuse.
fn spill_arena<K, V>(
    mut arena: RecordArena,
    config: &CollectorConfig,
    temp: Option<&TempDir>,
    cmp: &dyn RawComparator,
    combiner_f: Option<&(dyn Fn() -> BoxedCombiner<K, V> + Send + Sync)>,
    counters: &Counters,
) -> Result<(Run, RecordArena)>
where
    K: Writable + Send,
    V: Writable + Send,
{
    let sort_started = Instant::now();
    arena.sort(cmp, config.prefix_sort);
    counters.add(
        Counter::MapSortNanos,
        sort_started.elapsed().as_nanos() as u64,
    );
    if let Some(plan) = &config.fault {
        plan.check_spill_write()?;
    }
    let mut writer = if config.spill_to_disk {
        RunWriter::file_codec(
            temp.expect("spill_to_disk requires a temp dir"),
            config.run_codec,
        )?
    } else {
        RunWriter::mem_codec(config.run_codec)
    };
    match combiner_f {
        Some(f) => {
            let mut combiner = f();
            combine_into(&arena, cmp, combiner.as_mut(), &mut writer, counters)?;
        }
        None => {
            for m in &arena.meta {
                writer.write_record(arena.key(m), arena.val(m))?;
            }
        }
    }
    let mut run = writer.finish()?;
    run.fault = config.fault.clone();
    counters.add(Counter::ShuffleBytes, run.bytes);
    counters.add(Counter::RawRunBytes, run.raw_bytes);
    counters.add(Counter::EncodedRunBytes, run.bytes);
    Ok((run, arena))
}

/// Sink that serializes combiner output straight into a run writer.
struct CombineSink<'a> {
    writer: &'a mut RunWriter,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
    error: Option<crate::error::MrError>,
}

impl<K: Writable, V: Writable> RecordSink<K, V> for CombineSink<'_> {
    fn push(&mut self, k: K, v: V) {
        self.key_buf.clear();
        self.val_buf.clear();
        k.write_to(&mut self.key_buf);
        v.write_to(&mut self.val_buf);
        if let Err(e) = self.writer.write_record(&self.key_buf, &self.val_buf) {
            if self.error.is_none() {
                self.error = Some(e);
            }
        }
    }
}

/// Run `combiner` over the sorted groups of `arena`, writing its output.
///
/// Combiners must emit keys equal (under the job's sort order) to the group
/// key they received — the same contract Hadoop imposes — so that runs stay
/// sorted; this is checked in debug builds.
fn combine_into<K: Writable + Send, V: Writable + Send>(
    arena: &RecordArena,
    cmp: &dyn RawComparator,
    combiner: &mut (dyn Reducer<Key = K, ValueIn = V, KeyOut = K, ValueOut = V> + Send),
    writer: &mut RunWriter,
    counters: &Counters,
) -> Result<()> {
    let metas = &arena.meta;
    let mut sink = CombineSink {
        writer,
        key_buf: Vec::new(),
        val_buf: Vec::new(),
        error: None,
    };
    let mut i = 0;
    while i < metas.len() {
        let group_key = arena.key(&metas[i]);
        let mut j = i + 1;
        while j < metas.len() && same_group(cmp, arena.key(&metas[j]), group_key) {
            j += 1;
        }
        let key = K::read_from(&mut crate::io::ByteReader::new(group_key))?;
        {
            let mut values = ValueIter::<V>::arena(&arena.data, &metas[i..j]);
            let mut ctx = ReduceContext::new(&mut sink, counters, Counter::CombineOutputRecords);
            combiner.reduce(key, &mut values, &mut ctx);
            values.finish()?;
        }
        counters.add(Counter::CombineInputRecords, (j - i) as u64);
        i = j;
    }
    if let Some(e) = sink.error {
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{BytewiseComparator, VarintSeqComparator};
    use crate::io::{vu64_seq as seq, write_vu64, ByteReader};

    /// A key that is its bytes, with no framing of its own.
    struct RawKey(Vec<u8>);

    impl Writable for RawKey {
        fn write_to(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
            Ok(RawKey(r.read_bytes(r.remaining())?.to_vec()))
        }
    }

    fn arena_of(keys: &[Vec<u8>]) -> RecordArena {
        let mut arena = RecordArena::default();
        for (i, k) in keys.iter().enumerate() {
            arena
                .append(&RawKey(k.clone()), &(i as u64), ARENA_LIMIT)
                .expect("fits");
        }
        arena
    }

    fn sorted_keys(keys: &[Vec<u8>], cmp: &dyn RawComparator, prefix_sort: bool) -> Vec<Vec<u8>> {
        let mut arena = arena_of(keys);
        arena.sort(cmp, prefix_sort);
        arena.meta.iter().map(|m| arena.key(m).to_vec()).collect()
    }

    #[test]
    fn rec_meta_stays_24_bytes() {
        // The refinement cursor lives in what used to be padding.
        assert_eq!(std::mem::size_of::<RecMeta>(), 24);
    }

    #[test]
    fn refinement_sort_equals_comparator_sort() {
        // Shared prefixes of several lengths, heavy duplicates, the empty
        // key.
        let mut keys = vec![seq(&[])];
        for i in 0..40u64 {
            let mut k: Vec<u64> = (0..i % 7 * 5).map(|t| t % 3).collect();
            k.push(i % 4);
            keys.push(seq(&k));
            keys.push(seq(&k)); // duplicate
            k.push(300 + i);
            keys.push(seq(&k));
        }
        let cmp = VarintSeqComparator;
        let got = sorted_keys(&keys, &cmp, true);
        let mut expected = keys.clone();
        expected.sort_by(|a, b| cmp.compare(a, b));
        assert_eq!(got, expected);
        assert_eq!(sorted_keys(&keys, &cmp, false), expected);
    }

    #[test]
    fn a_key_without_a_digest_sends_its_group_to_the_comparator() {
        // 20 keys share ⟨1 2 3 4⟩; one of them continues with an element
        // no digest slot can hold, two levels down.
        let mut keys: Vec<Vec<u8>> = (0..19u64).map(|i| seq(&[1, 2, 3, 4, 19 - i, i])).collect();
        keys.push(seq(&[1, 2, 3, 4, u64::MAX, 0]));
        keys.extend((0..12u64).map(|i| seq(&[1, 2, 12 - i])));
        let cmp = VarintSeqComparator;
        assert!(cmp.digest(&keys[19], 4).is_none());
        let mut expected = keys.clone();
        expected.sort_by(|a, b| cmp.compare(a, b));
        assert_eq!(sorted_keys(&keys, &cmp, true), expected);
    }

    #[test]
    fn bytewise_zero_padding_across_a_digest_boundary() {
        let mut keys = Vec::new();
        for stem in [&b"ab"[..], b"abcdefg", b"abcdefgh"] {
            for zeros in 0..18 {
                let mut k = stem.to_vec();
                k.resize(stem.len() + zeros, 0);
                keys.push(k);
            }
        }
        keys.reverse();
        let mut expected = keys.clone();
        expected.sort();
        assert_eq!(sorted_keys(&keys, &BytewiseComparator, true), expected);
    }

    #[test]
    fn deep_shared_prefix_sorts_on_a_small_stack() {
        // 5 000 keys sharing a 20 000-term prefix: 10 000 refinement
        // levels. A sort that recursed per level would overflow this
        // thread's 256 KiB stack; the work stack lives on the heap.
        let sorter = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                const PREFIX: usize = 20_000;
                let mut key = vec![1u8; PREFIX]; // one-byte varints
                let mut arena = RecordArena::default();
                for i in 0..5_000u64 {
                    key.truncate(PREFIX);
                    write_vu64(&mut key, (i * 7919) % 1_000); // 5 duplicates each
                    arena
                        .append(&RawKey(key.clone()), &i, ARENA_LIMIT)
                        .expect("fits");
                }
                let cmp = VarintSeqComparator;
                arena.sort(&cmp, true);
                let tails: Vec<&[u8]> =
                    arena.meta.iter().map(|m| &arena.key(m)[PREFIX..]).collect();
                assert!(tails.windows(2).all(|w| cmp.compare(w[0], w[1]).is_le()));
                tails.len()
            })
            .expect("spawn");
        assert_eq!(
            sorter.join().expect("sort must not overflow the stack"),
            5_000
        );
    }

    #[test]
    fn append_stops_at_the_offset_limit() {
        let mut arena = RecordArena::default();
        let key = RawKey(vec![7; 10]);
        // 10 key bytes + 1 value byte: the record ends at offset 11.
        assert_eq!(arena.append(&key, &1u64, 10), None);
        assert!(
            arena.data.is_empty() && arena.meta.is_empty(),
            "left untouched"
        );
        assert_eq!(arena.append(&key, &1u64, 11), Some((10, 1)));
        assert_eq!(arena.append(&key, &1u64, 21), None);
        assert_eq!((arena.data.len(), arena.meta.len()), (11, 1));
        // The production limit is the last offset a `u32` holds, exactly.
        assert_eq!(ARENA_LIMIT as u64, u64::from(u32::MAX));
        assert_eq!(ARENA_LIMIT as u32 as usize, ARENA_LIMIT);
    }

    fn collector(
        partitions: usize,
        sort_buffer_bytes: usize,
        counters: &Arc<Counters>,
    ) -> MapOutputCollector<u32, u64> {
        MapOutputCollector::new(
            partitions,
            CollectorConfig {
                sort_buffer_bytes,
                spill_to_disk: false,
                run_codec: RunCodec::Plain,
                prefix_sort: true,
                pipelined: false,
                fault: None,
            },
            None,
            Arc::new(VarintSeqComparator),
            None,
            Arc::clone(counters),
        )
    }

    fn run_records(runs: &[Vec<Run>]) -> u64 {
        runs.iter().flatten().map(|r| r.records).sum()
    }

    #[test]
    fn arena_limit_forces_a_spill_instead_of_wrapping_offsets() {
        let counters = Arc::new(Counters::new());
        let mut c = collector(2, usize::MAX, &counters);
        c.arena_limit = 64; // stands in for u32::MAX
        for i in 0..200u32 {
            c.emit((i % 2) as usize, &i, &u64::from(i)).unwrap();
            assert!(c.arenas.iter().all(|a| a.data.len() <= 64));
        }
        assert!(
            counters.get(Counter::Spills) > 1,
            "budget alone never spills"
        );
        assert_eq!(run_records(&c.finish().unwrap()), 200);

        // A record no empty arena can hold is an error, not a wrap.
        let mut c = collector(1, usize::MAX, &counters);
        c.arena_limit = 1;
        assert!(matches!(c.emit(0, &300, &0), Err(MrError::Config(_))));
    }

    #[test]
    fn running_byte_total_tracks_the_arenas() {
        let counters = Arc::new(Counters::new());
        let budget = 1_000;
        let mut c = collector(5, budget, &counters);
        let (mut simulated, mut spills) = (0usize, 0u64);
        for i in 0..2_000u32 {
            c.emit((i % 5) as usize, &(i * 40_503), &u64::from(i))
                .unwrap();
            simulated += crate::io::to_bytes(&(i * 40_503)).len()
                + crate::io::to_bytes(&u64::from(i)).len()
                + std::mem::size_of::<RecMeta>();
            if simulated > budget {
                (simulated, spills) = (0, spills + 1);
            }
            let summed: usize = c
                .arenas
                .iter()
                .map(|a| a.data.len() + a.meta.len() * std::mem::size_of::<RecMeta>())
                .sum();
            assert_eq!(c.buffered_bytes, summed);
            assert_eq!(summed, simulated);
        }
        assert_eq!(counters.get(Counter::Spills), spills);
        assert_eq!(run_records(&c.finish().unwrap()), 2_000);
    }
}
