//! Sort-order control for the shuffle.
//!
//! Hadoop sorts *serialized* records; a `RawComparator` orders two key byte
//! slices without materializing objects. The paper lists raw comparators
//! among the Hadoop-specific optimizations (§V) and SUFFIX-σ's reverse
//! lexicographic order is implemented as one (defined in the `ngrams` crate).

use crate::io::{read_vu64_at, ByteReader, Writable};
use std::cmp::Ordering;
use std::marker::PhantomData;

/// Total order over serialized key bytes.
///
/// Grouping on the reduce side uses the same comparator: consecutive keys
/// comparing `Equal` form one reduce group.
pub trait RawComparator: Send + Sync {
    /// Compare two serialized keys.
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering;

    /// Resumable, order-consistent digest of `key[from..]`: a fixed-width
    /// summary of the next stretch of the key plus the offset at which the
    /// following call resumes — Hadoop's binary-comparator trick, made
    /// multi-level. The sort arena sorts on cached digests and re-digests
    /// only tie groups from where the last digest stopped, so sort work
    /// follows the distinguishing prefix of the keys instead of paying a
    /// decoding [`RawComparator::compare`] over the shared prefix on every
    /// tie; the merge caches the first two levels of each head
    /// ([`RawComparator::digest_words`]).
    ///
    /// `from` is `0` or an offset an earlier call on the same key returned.
    /// For two keys `a`, `b` whose digests were equal at every earlier
    /// level (trivially so at `from == 0`), with `(da, na)` and `(db, nb)`
    /// the results at this level:
    ///
    /// * `da < db` implies `compare(a, b) == Ordering::Less`;
    /// * `da == db` implies the consumed ranges `a[fa..na]` and `b[fb..nb]`
    ///   hold equal bytes, so the order of `a` and `b` is decided by what
    ///   follows — and two keys consumed to their ends are equal keys;
    /// * a key with bytes left is advanced (`from < next <= key.len()`);
    ///   an exhausted key returns `from`.
    ///
    /// `None` means this comparator cannot promise that for this key at
    /// this offset (a value too wide for its digest slot, a malformed
    /// encoding, an order with no digest at all); the caller then orders
    /// every key it was ranking against this one through
    /// [`RawComparator::compare`] alone. The default is `None` everywhere —
    /// no acceleration, correct for any order.
    #[inline]
    fn digest(&self, key: &[u8], from: usize) -> Option<(u64, usize)> {
        let _ = (key, from);
        None
    }

    /// The first two levels of [`RawComparator::digest`] in one call: the
    /// digest at offset 0 and the digest resumed where that one stopped.
    /// Equal first words mean equal consumed bytes, so two keys' word
    /// pairs compare lexicographically: a smaller pair is a smaller key,
    /// and equal pairs agree on every byte both levels consumed. `None`
    /// when either level is. Provided; not meant to be overridden.
    #[inline]
    fn digest_words(&self, key: &[u8]) -> Option<[u64; 2]> {
        let (first, resume) = self.digest(key, 0)?;
        let (second, _) = self.digest(key, resume)?;
        Some([first, second])
    }
}

/// True when `a` and `b` are one reduce group under `cmp`. Byte-equal keys
/// are equal under every order, so the decoding comparator only runs when
/// the bytes differ — the test may short-circuit to "equal", never to
/// "different" (a comparator may call distinct byte strings equal).
#[inline]
pub(crate) fn same_group(cmp: &dyn RawComparator, a: &[u8], b: &[u8]) -> bool {
    a == b || cmp.compare(a, b).is_eq()
}

/// Largest value one 32-bit slot of a two-term packed digest can carry:
/// one code point below it is reserved for the "key ended" sentinel of the
/// varint-sequence comparators.
pub const PACKED_TERM_MAX: u64 = (u32::MAX - 1) as u64;

/// Decode the next two varint terms of `key[from..]` for a two-slot packed
/// digest: the terms (`None` past the end of the key) and the offset after
/// them. `None` overall when a varint is malformed or a term exceeds
/// [`PACKED_TERM_MAX`] — the [`RawComparator::digest`] fallback signal.
#[inline]
pub fn next_two_terms(key: &[u8], from: usize) -> Option<([Option<u64>; 2], usize)> {
    let mut pos = from;
    let mut terms = [None; 2];
    for slot in &mut terms {
        if pos >= key.len() {
            break;
        }
        let term = read_vu64_at(key, &mut pos).ok()?;
        if term > PACKED_TERM_MAX {
            return None;
        }
        *slot = Some(term);
    }
    Some((terms, pos))
}

/// Plain lexicographic byte order (memcmp).
pub struct BytewiseComparator;

impl RawComparator for BytewiseComparator {
    #[inline]
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    /// The next seven key bytes, big-endian and zero-padded, above a low
    /// byte holding how many of them were real. The count is what makes
    /// the digest resumable: `"ab"` and `"ab\0"` pad to the same seven
    /// bytes but consume two and three, and the shorter key — a prefix of
    /// the longer — carries the smaller count, which is its memcmp order.
    /// A count below seven means the key is exhausted.
    #[inline]
    fn digest(&self, key: &[u8], from: usize) -> Option<(u64, usize)> {
        let rest = key.get(from..)?;
        let n = rest.len().min(7);
        let mut buf = [0u8; 8];
        buf[..n].copy_from_slice(&rest[..n]);
        buf[7] = n as u8;
        Some((u64::from_be_bytes(buf), from + n))
    }
}

/// Deserializing comparator: decodes both keys and uses `K: Ord`.
///
/// This mirrors Hadoop's default `WritableComparator` and is the baseline
/// the raw-comparator ablation in the benches measures against.
pub struct TypedComparator<K> {
    _marker: PhantomData<fn() -> K>,
}

impl<K> TypedComparator<K> {
    /// Create a comparator for key type `K`.
    pub fn new() -> Self {
        TypedComparator {
            _marker: PhantomData,
        }
    }
}

impl<K> Default for TypedComparator<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Writable + Ord> RawComparator for TypedComparator<K> {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        let ka = K::read_from(&mut ByteReader::new(a));
        let kb = K::read_from(&mut ByteReader::new(b));
        match (ka, kb) {
            (Ok(x), Ok(y)) => x.cmp(&y),
            // Corrupt keys cannot occur for round-tripping Writables; order
            // them arbitrarily but deterministically instead of panicking in
            // the middle of a sort.
            (Err(_), Ok(_)) => Ordering::Less,
            (Ok(_), Err(_)) => Ordering::Greater,
            (Err(_), Err(_)) => Ordering::Equal,
        }
    }
}

/// Varint-aware numeric order: compares two keys that are sequences of
/// varint-coded `u64`s, element by element, shorter-prefix-first.
///
/// Unlike memcmp over LEB128 bytes (which does not respect numeric order),
/// this decodes integers on the fly without allocating.
pub struct VarintSeqComparator;

impl RawComparator for VarintSeqComparator {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        let mut ra = ByteReader::new(a);
        let mut rb = ByteReader::new(b);
        loop {
            match (ra.is_empty(), rb.is_empty()) {
                (true, true) => return Ordering::Equal,
                (true, false) => return Ordering::Less,
                (false, true) => return Ordering::Greater,
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

    /// Two elements per level, each plus one in a 32-bit half, `0` for a
    /// position past the end of the key: the order is element-wise numeric
    /// with shorter-prefix-first, so "ended" sorts below every element.
    /// Elements above [`PACKED_TERM_MAX`] do not fit a half and take the
    /// `None` fallback.
    #[inline]
    fn digest(&self, key: &[u8], from: usize) -> Option<(u64, usize)> {
        let ([first, second], next) = next_two_terms(key, from)?;
        let slot = |term: Option<u64>| term.map_or(0, |t| t + 1);
        Some(((slot(first) << 32) | slot(second), next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{to_bytes, vu64_seq as seq};

    #[test]
    fn bytewise_orders_lexicographically() {
        let c = BytewiseComparator;
        assert_eq!(c.compare(b"abc", b"abd"), Ordering::Less);
        assert_eq!(c.compare(b"ab", b"abc"), Ordering::Less);
        assert_eq!(c.compare(b"abc", b"abc"), Ordering::Equal);
    }

    #[test]
    fn typed_comparator_matches_ord() {
        let c = TypedComparator::<u64>::new();
        let a = to_bytes(&300u64);
        let b = to_bytes(&5u64);
        // memcmp over varints would order these wrongly (300 starts 0xAC).
        assert_eq!(c.compare(&a, &b), Ordering::Greater);
        assert_eq!(c.compare(&b, &a), Ordering::Less);
        assert_eq!(c.compare(&a, &a), Ordering::Equal);
    }

    /// Walk every pair of keys level by level while their digests tie and
    /// check the [`RawComparator::digest`] contract at each step.
    fn assert_digest_contract(c: &dyn RawComparator, keys: &[Vec<u8>]) {
        for a in keys {
            for b in keys {
                let (mut fa, mut fb) = (0, 0);
                while let (Some((da, na)), Some((db, nb))) = (c.digest(a, fa), c.digest(b, fb)) {
                    if da != db {
                        assert_eq!(da.cmp(&db), c.compare(a, b), "{a:?} vs {b:?} at {fa}");
                        break;
                    }
                    assert_eq!(a[fa..na], b[fb..nb], "tie on unequal bytes: {a:?} vs {b:?}");
                    if na == a.len() && nb == b.len() {
                        assert_eq!(c.compare(a, b), Ordering::Equal);
                        break;
                    }
                    assert!(na > fa, "no progress on {a:?} at {fa}");
                    (fa, fb) = (na, nb);
                }
            }
        }
    }

    #[test]
    fn bytewise_digest_honours_the_contract() {
        let keys: Vec<Vec<u8>> = [
            &b""[..],
            b"a",
            b"ab",
            b"ab\0",
            b"ab\0c",
            b"abc",
            b"abcdefg",
            b"abcdefg\0",
            b"abcdefgh",
            b"abcdefghi",
            b"abcdefghj",
            b"abcdefg\0\0\0\0\0\0\0",
            b"abcdefg\0\0\0\0\0\0\0\0",
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ]
        .iter()
        .map(|k| k.to_vec())
        .collect();
        let c = BytewiseComparator;
        assert_digest_contract(&c, &keys);
        // Keys differing within the first 7 bytes resolve on one digest.
        assert!(c.digest(b"abc", 0) < c.digest(b"abd", 0));
        // Zero padding alone never ties: the consumed count tells a key
        // from its `\0`-extension, and resuming starts after 7 bytes.
        assert!(c.digest(b"ab", 0) < c.digest(b"ab\0", 0));
        assert_eq!(c.digest(b"abcdefghi", 0).map(|d| d.1), Some(7));
        assert_eq!(c.digest(b"abcdefghi", 7).map(|d| d.1), Some(9));
        assert_eq!(c.digest(b"abcdefghi", 9), Some((0, 9)));
    }

    #[test]
    fn varint_seq_digest_honours_the_contract() {
        let keys = [
            seq(&[]),
            seq(&[0]),
            seq(&[0, 0]),
            seq(&[0, 9]),
            seq(&[0, 9, 4]),
            seq(&[0, 9, 4, 300]),
            seq(&[0, 9, 5]),
            seq(&[1]),
            seq(&[300]),
            seq(&[300, 2]),
            seq(&[PACKED_TERM_MAX]),
            seq(&[PACKED_TERM_MAX, PACKED_TERM_MAX]),
            seq(&[7, 7, PACKED_TERM_MAX, 1]),
        ];
        let c = VarintSeqComparator;
        assert_digest_contract(&c, &keys);
        assert_eq!(c.digest(&seq(&[]), 0), Some((0, 0)));
        assert_eq!(c.digest(&seq(&[0]), 0), Some((1 << 32, 1)));
        assert_eq!(c.digest(&seq(&[4, 300, 9]), 0), Some(((5 << 32) | 301, 3)));
        assert_eq!(c.digest(&seq(&[4, 300, 9]), 3), Some((10 << 32, 4)));
    }

    #[test]
    fn varint_seq_digest_declines_what_it_cannot_pack() {
        let c = VarintSeqComparator;
        // An element above the slot width, at either position of a level.
        assert_eq!(c.digest(&seq(&[u64::from(u32::MAX)]), 0), None);
        assert_eq!(c.digest(&seq(&[3, u64::MAX]), 0), None);
        assert_eq!(c.digest(&seq(&[3, 4, u64::MAX]), 2), None);
        assert!(c.digest(&seq(&[3, 4, u64::MAX]), 0).is_some());
        // A truncated varint.
        assert_eq!(c.digest(&[0x80], 0), None);
    }

    #[test]
    fn default_digest_never_accelerates() {
        let c = TypedComparator::<u64>::new();
        assert_eq!(c.digest(&to_bytes(&5u64), 0), None);
    }

    #[test]
    fn same_group_only_short_circuits_to_equal() {
        // Equality coarser than bytes: only the first varint counts.
        struct FirstOnly;
        impl RawComparator for FirstOnly {
            fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
                a.first().cmp(&b.first())
            }
        }
        assert!(same_group(&FirstOnly, &[1, 2], &[1, 2]));
        assert!(same_group(&FirstOnly, &[1, 2], &[1, 9]));
        assert!(!same_group(&FirstOnly, &[1, 2], &[2, 2]));
    }

    #[test]
    fn varint_seq_comparator_is_numeric_and_prefix_first() {
        let c = VarintSeqComparator;
        assert_eq!(c.compare(&seq(&[1, 2]), &seq(&[1, 2, 3])), Ordering::Less);
        assert_eq!(c.compare(&seq(&[1, 300]), &seq(&[1, 5])), Ordering::Greater);
        assert_eq!(c.compare(&seq(&[2]), &seq(&[300])), Ordering::Less);
        assert_eq!(c.compare(&seq(&[]), &seq(&[])), Ordering::Equal);
    }
}
