//! The n-gram key type and SUFFIX-σ's shuffle customizations: the
//! first-term partitioner and the reverse lexicographic raw comparator
//! (paper §IV).

use mapreduce::{
    next_two_terms, write_vu32, ByteReader, Partitioner, RawComparator, Result, Writable,
};
use std::cmp::Ordering;

/// A sequence of term identifiers — an n-gram (or a truncated suffix).
///
/// Serialized as bare varints with **no length prefix**: the record framing
/// already bounds the key, and a length prefix would break prefix-ordered
/// raw comparison.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gram(pub Vec<u32>);

impl Gram {
    /// Construct from a term-id slice.
    pub fn new(terms: &[u32]) -> Self {
        Gram(terms.to_vec())
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty sequence.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The term ids.
    pub fn terms(&self) -> &[u32] {
        &self.0
    }

    /// True when `self` is a prefix of `other` (`self ⊴ other`, allowing
    /// equality).
    pub fn is_prefix_of(&self, other: &Gram) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// The reversed sequence (used by the maximality post-filter job).
    pub fn reversed(&self) -> Gram {
        Gram(self.0.iter().rev().copied().collect())
    }
}

impl From<Vec<u32>> for Gram {
    fn from(v: Vec<u32>) -> Self {
        Gram(v)
    }
}

impl Writable for Gram {
    fn write_to(&self, out: &mut Vec<u8>) {
        for &t in &self.0 {
            write_vu32(out, t);
        }
    }

    fn read_from(r: &mut ByteReader<'_>) -> Result<Self> {
        // One allocation per decoded gram in the shuffle hot path instead
        // of a grow at the first and again at the fifth term:
        // `r.remaining()` counts *bytes*, an upper bound on the terms, and
        // the cap keeps a long key of wide varints from over-reserving
        // (grams beyond eight terms grow by pushes as before).
        let mut terms = Vec::with_capacity(r.remaining().min(8));
        while !r.is_empty() {
            terms.push(r.read_vu32()?);
        }
        Ok(Gram(terms))
    }
}

/// Length of the longest common prefix of two term slices (`lcp()` in
/// Algorithm 4).
pub fn lcp(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Routes a suffix by its **first term only** (paper §IV): "it is thus
/// guaranteed that a single reducer receives all suffixes that begin with
/// the same term", which is what makes a single job sufficient.
pub struct FirstTermPartitioner;

impl Partitioner<Gram> for FirstTermPartitioner {
    #[inline]
    fn partition(&self, key: &Gram, num_partitions: usize) -> usize {
        let first = key.0.first().copied().unwrap_or(0);
        (mapreduce::fx_hash(&first) % num_partitions as u64) as usize
    }
}

/// Reverse lexicographic order over varbyte-serialized grams, decoded on
/// the fly (a "raw comparator" in Hadoop terms — no allocation, no object
/// materialization; §V).
///
/// The defining property from §IV is that every suffix sorts *before* all
/// of its proper prefixes (`|r| > |s| ∧ s ⊴ r ⇒ r < s`), so the stack
/// reducer can finalize an n-gram the moment a non-extension arrives; the
/// per-position direction is free as long as it is a consistent total
/// order. We compare positions by **ascending term id** — ids are
/// frequency ranks, so this is descending collection frequency, and it
/// reproduces the paper's worked example: the reducer for `b` sees
/// `⟨b x x⟩, ⟨b x⟩, ⟨b a x⟩, ⟨b⟩` in exactly that order (x is the most
/// frequent term and has the smallest id).
pub struct ReverseLexComparator;

impl RawComparator for ReverseLexComparator {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        let mut ra = ByteReader::new(a);
        let mut rb = ByteReader::new(b);
        loop {
            match (ra.is_empty(), rb.is_empty()) {
                (true, true) => return Ordering::Equal,
                // a is a proper prefix of b → b (the extension) comes first.
                (true, false) => return Ordering::Greater,
                (false, true) => return Ordering::Less,
                (false, false) => {}
            }
            let x = ra.read_vu64().unwrap_or(0);
            let y = rb.read_vu64().unwrap_or(0);
            match x.cmp(&y) {
                Ordering::Equal => {}
                other => return other,
            }
        }
    }

    /// Two terms per level, packed `[term | term]` into 32-bit halves. A
    /// position past the end of the key is encoded as `u32::MAX` — larger
    /// than any term, because an extension sorts *before* its prefix
    /// (`r < s` when `s ⊴ r`), so "ended" must compare greater; an
    /// exhausted key (the empty gram at offset 0: every key's prefix,
    /// sorting after everything) digests to `u64::MAX`. The one term id
    /// that would collide with the sentinel, `u32::MAX` itself, exceeds
    /// [`mapreduce::PACKED_TERM_MAX`] and takes the `None` fallback.
    #[inline]
    fn digest(&self, key: &[u8], from: usize) -> Option<(u64, usize)> {
        const ENDED: u64 = u32::MAX as u64;
        let ([first, second], next) = next_two_terms(key, from)?;
        Some((
            (first.unwrap_or(ENDED) << 32) | second.unwrap_or(ENDED),
            next,
        ))
    }
}

/// Compare two grams in reverse lexicographic order without serializing
/// (typed twin of [`ReverseLexComparator`], used by tests and the
/// reference implementation).
pub fn reverse_lex(a: &Gram, b: &Gram) -> Ordering {
    let n = a.0.len().min(b.0.len());
    for i in 0..n {
        match a.0[i].cmp(&b.0[i]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    b.0.len().cmp(&a.0.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::{from_bytes, to_bytes};

    fn g(terms: &[u32]) -> Gram {
        Gram::new(terms)
    }

    #[test]
    fn gram_round_trips_without_length_prefix() {
        for gram in [g(&[]), g(&[0]), g(&[1, 2, 3]), g(&[1_000_000, 0, 127, 128])] {
            let bytes = to_bytes(&gram);
            assert_eq!(from_bytes::<Gram>(&bytes).unwrap(), gram);
        }
        // Compactness: three small ids → three bytes.
        assert_eq!(to_bytes(&g(&[1, 2, 3])).len(), 3);
    }

    #[test]
    fn prefix_and_lcp() {
        assert!(g(&[1, 2]).is_prefix_of(&g(&[1, 2, 3])));
        assert!(g(&[1, 2]).is_prefix_of(&g(&[1, 2])));
        assert!(!g(&[1, 3]).is_prefix_of(&g(&[1, 2, 3])));
        assert!(!g(&[1, 2, 3]).is_prefix_of(&g(&[1, 2])));
        assert!(g(&[]).is_prefix_of(&g(&[9])));
        assert_eq!(lcp(&[1, 2, 3], &[1, 2, 9]), 2);
        assert_eq!(lcp(&[], &[1]), 0);
        assert_eq!(lcp(&[5], &[5]), 1);
    }

    #[test]
    fn reverse_lex_matches_paper_example() {
        // With term ids a=2, b=1, x=0 (frequency-ranked: x most frequent),
        // the reducer for first term b must see, in order:
        //   ⟨b x x⟩, ⟨b x⟩, ⟨b a x⟩, ⟨b⟩
        let (a, b, x) = (2u32, 1u32, 0u32);
        let mut keys = vec![g(&[b]), g(&[b, a, x]), g(&[b, x]), g(&[b, x, x])];
        keys.sort_by(reverse_lex);
        assert_eq!(
            keys,
            vec![g(&[b, x, x]), g(&[b, x]), g(&[b, a, x]), g(&[b])]
        );
    }

    #[test]
    fn raw_comparator_agrees_with_typed_reverse_lex() {
        let samples = [
            g(&[]),
            g(&[0]),
            g(&[1]),
            g(&[0, 0]),
            g(&[0, 1]),
            g(&[1, 0]),
            g(&[300]),
            g(&[300, 2]),
            g(&[1, 2, 3]),
            g(&[1, 2]),
            g(&[1, 2, 3, 4]),
        ];
        let raw = ReverseLexComparator;
        for x in &samples {
            for y in &samples {
                assert_eq!(
                    raw.compare(&to_bytes(x), &to_bytes(y)),
                    reverse_lex(x, y),
                    "mismatch for {x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn digest_honours_the_contract_under_reverse_lex() {
        // Walk every pair level by level while digests tie: a digest
        // difference must be the reverse-lex order, a tie must have
        // consumed equal bytes, and ties down to both ends are equal keys.
        let raw = ReverseLexComparator;
        let max = u32::MAX - 1; // PACKED_TERM_MAX: the largest packable id
        let samples = [
            g(&[]),
            g(&[0]),
            g(&[0, 0]),
            g(&[0, 1]),
            g(&[1]),
            g(&[1, 2]),
            g(&[1, 2, 3]),
            g(&[1, 2, 3, 4]),
            g(&[1, 2, 3, 4, 5]),
            g(&[1, 2, 3, 5]),
            g(&[1, 3]),
            g(&[7, 9, 1, 5]),
            g(&[7, 9, 2]),
            g(&[7, 9, max]),
            g(&[300]),
            g(&[300, 2]),
            g(&[max]),
            g(&[max, max]),
        ];
        for x in &samples {
            for y in &samples {
                let (a, b) = (to_bytes(x), to_bytes(y));
                let (mut fa, mut fb) = (0, 0);
                loop {
                    let (da, na) = raw.digest(&a, fa).expect("packable terms");
                    let (db, nb) = raw.digest(&b, fb).expect("packable terms");
                    if da != db {
                        assert_eq!(da.cmp(&db), reverse_lex(x, y), "{x:?} vs {y:?} at {fa}");
                        break;
                    }
                    assert_eq!(a[fa..na], b[fb..nb], "tie on unequal bytes: {x:?} vs {y:?}");
                    if na == a.len() && nb == b.len() {
                        assert_eq!(x, y);
                        break;
                    }
                    assert!(na > fa, "no progress on {x:?} at {fa}");
                    (fa, fb) = (na, nb);
                }
            }
        }
    }

    #[test]
    fn digest_packs_two_terms_and_pins_its_sentinels() {
        let raw = ReverseLexComparator;
        let ended = u64::from(u32::MAX);
        // The empty gram (every key's prefix) digests above every key.
        assert_eq!(raw.digest(&to_bytes(&g(&[])), 0), Some((u64::MAX, 0)));
        assert_eq!(
            raw.digest(&to_bytes(&g(&[5])), 0),
            Some(((5 << 32) | ended, 1))
        );
        let key = to_bytes(&g(&[7, 300, 9]));
        assert_eq!(raw.digest(&key, 0), Some(((7 << 32) | 300, 3)));
        assert_eq!(raw.digest(&key, 3), Some(((9 << 32) | ended, 4)));
        assert_eq!(raw.digest(&key, 4), Some((u64::MAX, 4)));
        // `u32::MAX` would collide with the sentinel: no digest, at either
        // slot, and only at the level that meets it.
        assert_eq!(raw.digest(&to_bytes(&g(&[u32::MAX])), 0), None);
        assert_eq!(raw.digest(&to_bytes(&g(&[1, u32::MAX])), 0), None);
        let deep = to_bytes(&g(&[1, 2, u32::MAX]));
        assert!(raw.digest(&deep, 0).is_some());
        assert_eq!(raw.digest(&deep, 2), None);
    }

    #[test]
    fn extensions_sort_before_prefixes() {
        let raw = ReverseLexComparator;
        let long = to_bytes(&g(&[5, 7, 9]));
        let short = to_bytes(&g(&[5, 7]));
        assert_eq!(raw.compare(&long, &short), Ordering::Less);
        assert_eq!(raw.compare(&short, &long), Ordering::Greater);
    }

    #[test]
    fn first_term_partitioner_groups_by_first_term() {
        let p = FirstTermPartitioner;
        for n in [1usize, 3, 17] {
            let a = p.partition(&g(&[42, 1, 2]), n);
            let b = p.partition(&g(&[42, 99]), n);
            let c = p.partition(&g(&[42]), n);
            assert_eq!(a, b);
            assert_eq!(b, c);
            assert!(a < n);
        }
    }

    #[test]
    fn reversed_reverses() {
        assert_eq!(g(&[1, 2, 3]).reversed(), g(&[3, 2, 1]));
        assert_eq!(g(&[]).reversed(), g(&[]));
    }
}
