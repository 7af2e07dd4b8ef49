//! K-way merge of sorted runs, used on the reduce side.
//!
//! A hand-rolled binary heap of run indices keyed through the job's
//! [`RawComparator`]; `std::collections::BinaryHeap` cannot take an external
//! comparator.

use crate::comparator::{same_group, RawComparator};
use crate::error::Result;
use crate::run::{Run, RunReader};
use std::cmp::Ordering;
use std::sync::Arc;

struct Head {
    key: Vec<u8>,
    val: Vec<u8>,
    /// Cached [`RawComparator::digest`] of `key` at offset 0: heap
    /// comparisons resolve on a `u64` compare and only look at the keys on
    /// digest ties.
    prefix: u64,
}

/// Streaming merge over any number of sorted runs.
pub struct MergeStream {
    sources: Vec<RunReader>,
    heads: Vec<Head>,
    /// Heap of indices into `sources`, min-ordered by `heads[i].key`.
    heap: Vec<usize>,
    cmp: Arc<dyn RawComparator>,
    /// Cache key digests in the heads; when off — by configuration (the
    /// comparator-only reference engine) or from the first key the
    /// comparator has no digest for — every head digest is `0` and
    /// comparisons always reach the keys.
    prefix_sort: bool,
    /// Measure the wall time spent inside [`MergeStream::next_record`]
    /// (job tracing); off by default so the per-record hot path pays only
    /// this branch.
    timed: bool,
    /// Accumulated [`MergeStream::next_record`] nanoseconds when `timed`.
    merge_nanos: u64,
}

impl MergeStream {
    /// Open all runs and prime the heap with their first records, with
    /// digest acceleration enabled.
    pub fn new(runs: &[Run], cmp: Arc<dyn RawComparator>) -> Result<Self> {
        Self::with_prefix_sort(runs, cmp, true)
    }

    /// [`MergeStream::new`] with explicit control over digest caching
    /// (`JobConfig::prefix_sort` threads through here so the ablation
    /// disables the fast path on both sides of the shuffle).
    pub fn with_prefix_sort(
        runs: &[Run],
        cmp: Arc<dyn RawComparator>,
        prefix_sort: bool,
    ) -> Result<Self> {
        Self::with_options(runs, cmp, prefix_sort, false)
    }

    /// [`MergeStream::with_prefix_sort`] plus read-ahead: with
    /// `pipelined`, every run is opened through a prefetching
    /// [`RunReader`] that fetches and codec-decodes its next batch on a
    /// background thread while the merge consumes the current one —
    /// hiding the (front-)decode cost behind reduce compute. The residual
    /// wait is exposed via [`MergeStream::stall_nanos`].
    pub fn with_options(
        runs: &[Run],
        cmp: Arc<dyn RawComparator>,
        prefix_sort: bool,
        pipelined: bool,
    ) -> Result<Self> {
        let mut sources = Vec::with_capacity(runs.len());
        let mut heads = Vec::with_capacity(runs.len());
        let mut heap = Vec::with_capacity(runs.len());
        for run in runs {
            let mut reader = run.reader_opts(pipelined)?;
            let mut head = Head {
                key: Vec::new(),
                val: Vec::new(),
                prefix: 0,
            };
            if reader.next_into(&mut head.key, &mut head.val)? {
                let idx = sources.len();
                sources.push(reader);
                heads.push(head);
                heap.push(idx);
            }
        }
        let mut s = MergeStream {
            sources,
            heads,
            heap,
            cmp,
            prefix_sort,
            timed: false,
            merge_nanos: 0,
        };
        for i in 0..s.heads.len() {
            s.digest_head(i);
        }
        // Heapify.
        if !s.heap.is_empty() {
            for i in (0..s.heap.len() / 2).rev() {
                s.sift_down(i);
            }
        }
        Ok(s)
    }

    /// Cache the digest of head `i`. A key without one switches digests
    /// off for the rest of the merge: a digest order implies the
    /// comparator's, so a heap built on digests stays a heap without them.
    #[inline]
    fn digest_head(&mut self, i: usize) {
        if !self.prefix_sort {
            return;
        }
        match self.cmp.digest(&self.heads[i].key, 0) {
            Some((digest, _)) => self.heads[i].prefix = digest,
            None => {
                self.prefix_sort = false;
                self.heads.iter_mut().for_each(|h| h.prefix = 0);
            }
        }
    }

    /// Equal keys are the common digest tie (one gram arriving from many
    /// runs): byte equality settles those without decoding either key.
    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        let (ha, hb) = (&self.heads[a], &self.heads[b]);
        match ha.prefix.cmp(&hb.prefix) {
            Ordering::Equal => ha.key != hb.key && self.cmp.compare(&ha.key, &hb.key).is_lt(),
            order => order.is_lt(),
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.heap.len() && self.less(self.heap[l], self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && self.less(self.heap[r], self.heap[smallest]) {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }

    /// Key bytes of the next record without consuming it.
    #[inline]
    pub fn peek_key(&self) -> Option<&[u8]> {
        self.heap.first().map(|&i| self.heads[i].key.as_slice())
    }

    /// Turn per-record wall measurement on or off (see
    /// [`MergeStream::merge_nanos`]). Chainable at construction time.
    pub fn timed(mut self, on: bool) -> Self {
        self.timed = on;
        self
    }

    /// Total nanoseconds spent inside [`MergeStream::next_record`] —
    /// heap maintenance plus run fetch plus codec decode. Zero unless
    /// [`MergeStream::timed`] enabled measurement.
    pub fn merge_nanos(&self) -> u64 {
        self.merge_nanos
    }

    /// Move the next record into `key_out`/`val_out` (buffers are swapped,
    /// not copied). Returns `false` when all runs are exhausted.
    pub fn next_record(&mut self, key_out: &mut Vec<u8>, val_out: &mut Vec<u8>) -> Result<bool> {
        if self.timed {
            let t = std::time::Instant::now();
            let got = self.next_record_untimed(key_out, val_out);
            self.merge_nanos += t.elapsed().as_nanos() as u64;
            return got;
        }
        self.next_record_untimed(key_out, val_out)
    }

    fn next_record_untimed(
        &mut self,
        key_out: &mut Vec<u8>,
        val_out: &mut Vec<u8>,
    ) -> Result<bool> {
        let Some(&top) = self.heap.first() else {
            return Ok(false);
        };
        std::mem::swap(key_out, &mut self.heads[top].key);
        std::mem::swap(val_out, &mut self.heads[top].val);
        // Advance the source that supplied the record.
        let head = &mut self.heads[top];
        if self.sources[top].next_into(&mut head.key, &mut head.val)? {
            self.digest_head(top);
            self.sift_down(0);
        } else {
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            self.heap.pop();
            self.sift_down(0);
        }
        Ok(true)
    }

    /// True when the next record's key belongs to the reduce group of
    /// `group_key`.
    #[inline]
    pub(crate) fn next_in_group(&self, group_key: &[u8]) -> bool {
        self.peek_key()
            .is_some_and(|k| same_group(self.cmp.as_ref(), k, group_key))
    }

    /// Total nanoseconds the merge spent blocked waiting on read-ahead
    /// decoders, summed over all runs; zero when opened synchronously.
    pub fn stall_nanos(&self) -> u64 {
        self.sources.iter().map(RunReader::stall_nanos).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::BytewiseComparator;
    use crate::run::RunWriter;

    fn make_run(keys: &[&str]) -> Run {
        let mut w = RunWriter::mem();
        for k in keys {
            w.write_record(k.as_bytes(), b"v").unwrap();
        }
        w.finish().unwrap()
    }

    fn drain(stream: &mut MergeStream) -> Vec<String> {
        let (mut k, mut v) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        while stream.next_record(&mut k, &mut v).unwrap() {
            out.push(String::from_utf8(k.clone()).unwrap());
        }
        out
    }

    #[test]
    fn merges_three_runs_in_order() {
        let runs = vec![
            make_run(&["apple", "melon", "zebra"]),
            make_run(&["banana", "melon"]),
            make_run(&["aardvark", "yak"]),
        ];
        let mut s = MergeStream::new(&runs, Arc::new(BytewiseComparator)).unwrap();
        assert_eq!(s.peek_key().unwrap(), b"aardvark");
        assert_eq!(
            drain(&mut s),
            vec!["aardvark", "apple", "banana", "melon", "melon", "yak", "zebra"]
        );
    }

    #[test]
    fn empty_and_single_runs() {
        let runs: Vec<Run> = vec![];
        let mut s = MergeStream::new(&runs, Arc::new(BytewiseComparator)).unwrap();
        assert!(s.peek_key().is_none());
        assert!(drain(&mut s).is_empty());

        let runs = vec![make_run(&[]), make_run(&["only"])];
        let mut s = MergeStream::new(&runs, Arc::new(BytewiseComparator)).unwrap();
        assert_eq!(drain(&mut s), vec!["only"]);
    }

    #[test]
    fn a_head_without_a_digest_turns_digests_off_mid_merge() {
        use crate::comparator::VarintSeqComparator;
        use crate::io::vu64_seq as seq;
        // The second run's last key holds an element no digest slot fits;
        // it becomes a head only after digests have ordered earlier pops.
        let runs_keys = [
            vec![seq(&[1]), seq(&[5, 2]), seq(&[9])],
            vec![seq(&[2]), seq(&[5, u64::MAX])],
            vec![seq(&[3]), seq(&[5, 2]), seq(&[5, 7]), seq(&[6])],
        ];
        let runs: Vec<Run> = runs_keys
            .iter()
            .map(|keys| {
                let mut w = RunWriter::mem();
                keys.iter().for_each(|k| w.write_record(k, b"v").unwrap());
                w.finish().unwrap()
            })
            .collect();
        let cmp = Arc::new(VarintSeqComparator);
        let mut s = MergeStream::new(&runs, cmp.clone()).unwrap();
        let (mut k, mut v) = (Vec::new(), Vec::new());
        let mut merged = Vec::new();
        while s.next_record(&mut k, &mut v).unwrap() {
            merged.push(k.clone());
        }
        let mut expected: Vec<Vec<u8>> = runs_keys.concat();
        expected.sort_by(|a, b| cmp.compare(a, b));
        assert_eq!(merged, expected);
        assert!(
            !s.prefix_sort,
            "the wide key must have switched digests off"
        );
    }

    #[test]
    fn pipelined_merge_is_record_identical_to_sync() {
        let mut runs = Vec::new();
        for r in 0..8u32 {
            let keys: Vec<String> = (0..500u32).map(|i| format!("k{:06}", i * 8 + r)).collect();
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            runs.push(make_run(&refs));
        }
        let mut sync = MergeStream::new(&runs, Arc::new(BytewiseComparator)).unwrap();
        let mut piped =
            MergeStream::with_options(&runs, Arc::new(BytewiseComparator), true, true).unwrap();
        let expected = drain(&mut sync);
        assert_eq!(drain(&mut piped), expected);
        assert_eq!(sync.stall_nanos(), 0, "sync merge measures no stalls");
        assert!(
            piped.stall_nanos() > 0,
            "first batches are always waited on"
        );
    }

    #[test]
    fn merge_handles_many_runs() {
        // 50 runs of 20 sorted keys each; result must be globally sorted.
        let mut runs = Vec::new();
        for r in 0..50u32 {
            let keys: Vec<String> = (0..20u32).map(|i| format!("k{:06}", i * 50 + r)).collect();
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            runs.push(make_run(&refs));
        }
        let mut s = MergeStream::new(&runs, Arc::new(BytewiseComparator)).unwrap();
        let all = drain(&mut s);
        assert_eq!(all.len(), 1000);
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
    }
}
