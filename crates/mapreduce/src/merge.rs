//! K-way merge of sorted runs, used on the reduce side.
//!
//! A **loser tree** (tournament tree) over the runs' head records, ordered
//! by the job's [`RawComparator`]. Popping a record replays exactly one
//! leaf-to-root path — one comparison per level, `⌊log₂k⌋` or `⌈log₂k⌉` of
//! them — where a binary heap's sift-down pays two per level.
//!
//! **Layout.** For `k` runs the tree is the implicit complete binary tree
//! on nodes `1..2k`: nodes `1..k` are internal, node `k + i` is the leaf of
//! run `i`, node `j`'s children are `2j` and `2j + 1`. That is well formed
//! for every `k ≥ 2`, power of two or not (the leaves then sit on two
//! adjacent levels), so no padding leaves are needed. `tree[j]` holds the
//! run that *lost* the match played at internal node `j`; `tree[0]` holds
//! the overall winner — the run whose head leaves next.
//!
//! **Exhausted runs are +∞.** A run that has no more records stays in its
//! leaf and loses every match against a live head; the tree never shrinks
//! and needs no restructuring. The merge is over when the winner itself is
//! exhausted.
//!
//! **Ties go to the lower run index.** Heads whose keys compare equal
//! leave in run order, which makes the merge stable: the values of one
//! reduce group arrive in the order of the runs that held them (map task
//! order, then spill order) instead of an order internal to the merge.
//!
//! **Two digest words per head.** All heads of a merge sit at the same key
//! frontier, so a single [`RawComparator::digest`] word ties often. Each
//! head caches two ([`RawComparator::digest_words`]): the digest at offset
//! 0 and the digest resumed at the offset the first call returned. By the
//! digest contract equal first words mean equal consumed bytes, so the
//! pair compares lexicographically: a smaller pair means a smaller key,
//! and equal pairs mean the keys agree on everything both words consumed.
//! Only then are the key bytes touched — byte equality first (one gram
//! arriving from many runs is the common tie), the decoding comparator
//! last. A digest inequality proves keys *different*; digest equality
//! alone never proves them the *same*. The first key for which either word
//! is `None` switches digests off for the rest of the merge, which is then
//! comparator-only — the same mode `prefix_sort = false` selects from the
//! start.
//!
//! **Peek / pop.** [`MergeStream::peek`] lends the winner's key and value
//! as slices into buffers the stream owns; [`MergeStream::pop`] refills
//! those buffers in place from the winner's run and replays its path. A
//! record therefore reaches the reducer without a buffer changing hands,
//! and the per-record path allocates nothing once the head buffers have
//! grown to the longest record of their run.

use crate::comparator::{same_group, RawComparator};
use crate::error::Result;
use crate::run::{Run, RunReader};
use std::cmp::Ordering;
use std::sync::Arc;

/// The two cached [`RawComparator::digest`] words of one key.
pub(crate) type DigestWords = [u64; 2];

struct Head {
    /// Digest words of `key`; all zero while digests are off.
    digest: DigestWords,
    /// The run has no more records: this head is +∞.
    exhausted: bool,
    key: Vec<u8>,
    val: Vec<u8>,
}

/// Streaming merge over any number of sorted runs.
pub struct MergeStream {
    /// Readers of the non-empty runs, in run order.
    sources: Vec<RunReader>,
    /// Current record of each source.
    heads: Vec<Head>,
    /// Loser tree over `heads` (see the module docs): `tree[0]` is the
    /// winner, `tree[1..]` the losers of the internal nodes. Empty when
    /// there are no sources.
    tree: Vec<usize>,
    cmp: Arc<dyn RawComparator>,
    /// Cache key digests in the heads; when off — by configuration (the
    /// comparator-only reference engine) or from the first key the
    /// comparator has no two-word digest for — every head digest is zero
    /// and comparisons always reach the keys.
    prefix_sort: bool,
    /// Measure the wall time spent inside [`MergeStream::pop`] (job
    /// tracing); off by default so the per-record hot path pays only this
    /// branch.
    timed: bool,
    /// Accumulated [`MergeStream::pop`] nanoseconds when `timed`.
    merge_nanos: u64,
}

impl MergeStream {
    /// Open all runs and build the tree over their first records, with
    /// digest acceleration enabled and synchronous readers.
    pub fn new(runs: &[Run], cmp: Arc<dyn RawComparator>) -> Result<Self> {
        Self::with_options(runs, cmp, true, false)
    }

    /// [`MergeStream::new`] with explicit control over digest caching
    /// (`JobConfig::prefix_sort` threads through here so the ablation
    /// disables the fast path on both sides of the shuffle) and over
    /// read-ahead: with `pipelined`, every run is opened through a
    /// prefetching [`RunReader`] that fetches and codec-decodes its next
    /// batch on a background thread while the merge consumes the current
    /// one — hiding the (front-)decode cost behind reduce compute. The
    /// residual wait is exposed via [`MergeStream::stall_nanos`].
    pub fn with_options(
        runs: &[Run],
        cmp: Arc<dyn RawComparator>,
        prefix_sort: bool,
        pipelined: bool,
    ) -> Result<Self> {
        let mut sources = Vec::with_capacity(runs.len());
        let mut heads = Vec::with_capacity(runs.len());
        for run in runs {
            let mut reader = run.reader_opts(pipelined)?;
            let mut head = Head {
                digest: [0; 2],
                exhausted: false,
                key: Vec::new(),
                val: Vec::new(),
            };
            if reader.next_into(&mut head.key, &mut head.val)? {
                sources.push(reader);
                heads.push(head);
            }
        }
        let mut s = MergeStream {
            tree: vec![0; heads.len()],
            sources,
            heads,
            cmp,
            prefix_sort,
            timed: false,
            merge_nanos: 0,
        };
        for i in 0..s.heads.len() {
            s.digest_head(i);
        }
        s.build_tree();
        Ok(s)
    }

    /// Cache the digest words of head `i`. A key without both switches
    /// digests off for the rest of the merge: a digest order implies the
    /// comparator's, so a tree built on digests stays valid without them.
    #[inline]
    fn digest_head(&mut self, i: usize) {
        if !self.prefix_sort {
            return;
        }
        match self.cmp.digest_words(&self.heads[i].key) {
            Some(words) => self.heads[i].digest = words,
            None => {
                self.prefix_sort = false;
                self.heads.iter_mut().for_each(|h| h.digest = [0; 2]);
            }
        }
    }

    /// True when head `a` leaves the merge before head `b`: a live head
    /// before an exhausted one, the smaller key first, the lower run index
    /// on equal keys.
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        let (ha, hb) = (&self.heads[a], &self.heads[b]);
        if ha.exhausted || hb.exhausted {
            return !ha.exhausted;
        }
        let order = match ha.digest.cmp(&hb.digest) {
            Ordering::Equal if ha.key == hb.key => Ordering::Equal,
            Ordering::Equal => self.cmp.compare(&ha.key, &hb.key),
            order => order,
        };
        order.is_lt() || (order.is_eq() && a < b)
    }

    /// Play every match bottom-up, recording the losers.
    fn build_tree(&mut self) {
        let k = self.heads.len();
        if k == 0 {
            return;
        }
        // winners[n]: the run that won the subtree rooted at node n.
        // Leaves (nodes `k..2k`) are won by their own run.
        let mut winners: Vec<usize> = std::iter::repeat_n(0, k).chain(0..k).collect();
        for node in (1..k).rev() {
            let (left, right) = (winners[2 * node], winners[2 * node + 1]);
            let (winner, loser) = if self.beats(right, left) {
                (right, left)
            } else {
                (left, right)
            };
            winners[node] = winner;
            self.tree[node] = loser;
        }
        self.tree[0] = winners[1];
    }

    /// Replay the matches on the path from `leaf` to the root after its
    /// head changed.
    #[inline]
    fn replay(&mut self, leaf: usize) {
        let mut winner = leaf;
        let mut node = (self.heads.len() + leaf) / 2;
        while node > 0 {
            let challenger = self.tree[node];
            if self.beats(challenger, winner) {
                self.tree[node] = winner;
                winner = challenger;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// The run whose head is the next record, if any run is still live.
    #[inline]
    fn winner(&self) -> Option<usize> {
        let &w = self.tree.first()?;
        (!self.heads[w].exhausted).then_some(w)
    }

    /// Key and value bytes of the next record without consuming it. The
    /// slices borrow the stream's own buffers and are overwritten by the
    /// next [`MergeStream::pop`].
    #[inline]
    pub fn peek(&self) -> Option<(&[u8], &[u8])> {
        self.winner().map(|w| {
            let head = &self.heads[w];
            (head.key.as_slice(), head.val.as_slice())
        })
    }

    /// Key bytes of the next record without consuming it.
    #[inline]
    pub fn peek_key(&self) -> Option<&[u8]> {
        self.peek().map(|(key, _)| key)
    }

    /// Turn per-record wall measurement on or off (see
    /// [`MergeStream::merge_nanos`]). Chainable at construction time.
    pub fn timed(mut self, on: bool) -> Self {
        self.timed = on;
        self
    }

    /// Total nanoseconds spent inside [`MergeStream::pop`] — run fetch
    /// plus codec decode plus tree replay. Zero unless
    /// [`MergeStream::timed`] enabled measurement.
    pub fn merge_nanos(&self) -> u64 {
        self.merge_nanos
    }

    /// Consume the record [`MergeStream::peek`] shows: refill the winning
    /// head in place from its run and replay its path through the tree.
    /// Returns `false`, doing nothing, when all runs are exhausted.
    #[inline]
    pub fn pop(&mut self) -> Result<bool> {
        if self.timed {
            let t = std::time::Instant::now();
            let popped = self.pop_untimed();
            self.merge_nanos += t.elapsed().as_nanos() as u64;
            return popped;
        }
        self.pop_untimed()
    }

    #[inline]
    fn pop_untimed(&mut self) -> Result<bool> {
        let Some(w) = self.winner() else {
            return Ok(false);
        };
        let head = &mut self.heads[w];
        if self.sources[w].next_into(&mut head.key, &mut head.val)? {
            self.digest_head(w);
        } else {
            head.exhausted = true;
        }
        self.replay(w);
        Ok(true)
    }

    /// Copy the next record into `key_out`/`val_out` and consume it — the
    /// owned-buffer form of [`MergeStream::peek`] + [`MergeStream::pop`].
    /// Returns `false` when all runs are exhausted.
    pub fn next_record(&mut self, key_out: &mut Vec<u8>, val_out: &mut Vec<u8>) -> Result<bool> {
        let Some((key, val)) = self.peek() else {
            return Ok(false);
        };
        key_out.clear();
        key_out.extend_from_slice(key);
        val_out.clear();
        val_out.extend_from_slice(val);
        self.pop()
    }

    /// Digest words of the next record's key — what a reduce group
    /// remembers of its first record for [`MergeStream::peek_in_group`].
    /// Zero when digests are off or the stream is drained.
    #[inline]
    pub(crate) fn peek_digest(&self) -> DigestWords {
        self.winner().map_or([0; 2], |w| self.heads[w].digest)
    }

    /// Value bytes of the next record if its key belongs to the reduce
    /// group whose first key was `group_key`, with digest words
    /// `group_digest`; `None` at a group boundary or when drained. While
    /// digests are on, unequal words settle "different group" without
    /// touching the keys; equal words prove nothing and fall through to
    /// the bytes and the comparator.
    #[inline]
    pub(crate) fn peek_in_group(
        &self,
        group_key: &[u8],
        group_digest: DigestWords,
    ) -> Option<&[u8]> {
        let head = &self.heads[self.winner()?];
        if self.prefix_sort && head.digest != group_digest {
            return None;
        }
        same_group(self.cmp.as_ref(), &head.key, group_key).then_some(head.val.as_slice())
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

    fn run_of(records: &[(Vec<u8>, Vec<u8>)]) -> Run {
        let mut w = RunWriter::mem();
        for (k, v) in records {
            w.write_record(k, v).unwrap();
        }
        w.finish().unwrap()
    }

    fn make_run(keys: &[&str]) -> Run {
        let records: Vec<_> = keys
            .iter()
            .map(|k| (k.as_bytes().to_vec(), b"v".to_vec()))
            .collect();
        run_of(&records)
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

    fn drain_records(stream: &mut MergeStream) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some((k, v)) = stream.peek() {
            out.push((k.to_vec(), v.to_vec()));
            assert!(stream.pop().unwrap());
        }
        assert!(!stream.pop().unwrap(), "a drained stream pops nothing");
        out
    }

    #[test]
    fn a_head_without_a_digest_turns_digests_off_mid_merge() {
        use crate::comparator::VarintSeqComparator;
        use crate::io::vu64_seq as seq;
        let cmp = Arc::new(VarintSeqComparator);
        // A key with an element no digest slot fits, which becomes a head
        // only after digests have ordered earlier pops: once where the
        // first word meets it, then (terms 3 and 4) where the first word
        // exists and only the resumed second one declines.
        assert!(cmp.digest(&seq(&[5, 2, 7, u64::MAX]), 0).is_some());
        for wide in [
            seq(&[5, u64::MAX]),
            seq(&[5, 2, u64::from(u32::MAX)]),
            seq(&[5, 2, 7, u64::MAX]),
        ] {
            assert_eq!(cmp.digest_words(&wide), None);
            let runs_keys = [
                vec![seq(&[1]), seq(&[5, 2]), seq(&[5, 2, 7, 1]), seq(&[9])],
                vec![seq(&[2]), wide.clone()],
                vec![
                    seq(&[3]),
                    seq(&[5, 2]),
                    seq(&[5, 2, 8]),
                    seq(&[5, 7]),
                    seq(&[6]),
                ],
            ];
            let runs: Vec<Run> = runs_keys
                .iter()
                .map(|keys| {
                    let records: Vec<_> = keys.iter().map(|k| (k.clone(), b"v".to_vec())).collect();
                    run_of(&records)
                })
                .collect();
            let mut s = MergeStream::new(&runs, cmp.clone()).unwrap();
            assert!(s.prefix_sort, "the first heads all have both words");
            let merged: Vec<Vec<u8>> = drain_records(&mut s).into_iter().map(|r| r.0).collect();
            let mut expected: Vec<Vec<u8>> = runs_keys.concat();
            expected.sort_by(|a, b| cmp.compare(a, b));
            assert_eq!(merged, expected);
            assert!(
                !s.prefix_sort,
                "the wide key must have switched digests off"
            );
        }
    }

    #[test]
    fn equal_keys_leave_in_run_order_with_their_values() {
        // Duplicates inside runs and across them; the value names the
        // record's run and position.
        let keys: [&[&str]; 5] = [
            &["a", "k", "k", "z"],
            &["k"],
            &[],
            &["a", "a", "k", "k", "k"],
            &["k", "z"],
        ];
        let runs_records: Vec<Vec<(Vec<u8>, Vec<u8>)>> = keys
            .iter()
            .enumerate()
            .map(|(r, run)| {
                run.iter()
                    .enumerate()
                    .map(|(i, k)| (k.as_bytes().to_vec(), vec![r as u8, i as u8]))
                    .collect()
            })
            .collect();
        let runs: Vec<Run> = runs_records.iter().map(|r| run_of(r)).collect();
        for prefix_sort in [true, false] {
            let mut s =
                MergeStream::with_options(&runs, Arc::new(BytewiseComparator), prefix_sort, false)
                    .unwrap();
            let mut expected = runs_records.concat();
            expected.sort_by(|a, b| a.0.cmp(&b.0)); // stable
            assert_eq!(drain_records(&mut s), expected);
        }
    }

    #[test]
    fn every_run_exhausting_on_consecutive_pops() {
        // One record per run, all the same key: every head ties, every pop
        // turns a leaf into +∞, for tree shapes on both sides of a power
        // of two.
        for k in [1usize, 2, 3, 5, 8, 9, 64, 100] {
            let runs: Vec<Run> = (0..k)
                .map(|r| run_of(&[(b"same".to_vec(), vec![r as u8])]))
                .collect();
            let mut s = MergeStream::new(&runs, Arc::new(BytewiseComparator)).unwrap();
            let vals: Vec<u8> = drain_records(&mut s).into_iter().map(|r| r.1[0]).collect();
            assert_eq!(vals, (0..k as u8).collect::<Vec<_>>(), "k = {k}");
        }
    }

    #[test]
    fn group_membership_is_proved_by_keys_never_by_digests() {
        // Both digest words cover 14 bytes: keys agreeing on more than
        // that have equal words and are still different groups.
        let long_a = b"0123456789abcdef-a".to_vec();
        let long_b = b"0123456789abcdef-b".to_vec();
        let runs = vec![
            run_of(&[(long_a.clone(), vec![1]), (long_b.clone(), vec![2])]),
            run_of(&[(long_a.clone(), vec![3])]),
        ];
        let mut s = MergeStream::new(&runs, Arc::new(BytewiseComparator)).unwrap();
        let words = s.peek_digest();
        assert_eq!(s.peek_in_group(&long_a, words), Some(&[1][..]));
        s.pop().unwrap();
        assert_eq!(
            s.peek_in_group(&long_a, words),
            Some(&[3][..]),
            "run 1 holds the same key"
        );
        s.pop().unwrap();
        assert_eq!(s.peek_digest(), words, "the words cannot tell a from b");
        assert_eq!(s.peek_in_group(&long_a, words), None);

        // A comparator coarser than bytes: the group is the comparator's.
        struct FirstByte;
        impl RawComparator for FirstByte {
            fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
                a.first().cmp(&b.first())
            }
        }
        let runs = vec![
            run_of(&[(b"ax".to_vec(), vec![]), (b"b".to_vec(), vec![])]),
            run_of(&[(b"ay".to_vec(), vec![])]),
        ];
        let mut s = MergeStream::new(&runs, Arc::new(FirstByte)).unwrap();
        let words = s.peek_digest();
        s.pop().unwrap();
        assert_eq!(s.peek_key().unwrap(), b"ay");
        assert!(s.peek_in_group(b"ax", words).is_some());
        s.pop().unwrap();
        assert!(s.peek_in_group(b"ax", words).is_none());
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
