//! CRC32 (IEEE/zlib polynomial) — the integrity check guarding every run
//! frame written by [`RunWriter`](crate::RunWriter) and verified on
//! decode. Slicing-by-8: eight `const`-built tables (rodata) let one step
//! absorb eight input bytes with independent lookups, instead of the
//! byte-at-a-time walk whose every lookup waits on the previous one. Same
//! polynomial, same values — only the speed differs.
//!
//! The corpus store and segment formats reuse this through the crate's
//! public re-export rather than carrying their own copies.

/// The reflected IEEE polynomial (same as zlib's `crc32`).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which is what lets eight bytes be
/// folded in one step.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Incremental CRC32 state for multi-slice payloads.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorb `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = TABLES[7][(lo & 0xff) as usize]
                ^ TABLES[6][((lo >> 8) & 0xff) as usize]
                ^ TABLES[5][((lo >> 16) & 0xff) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][usize::from(c[4])]
                ^ TABLES[2][usize::from(c[5])]
                ^ TABLES[1][usize::from(c[6])]
                ^ TABLES[0][usize::from(c[7])];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Finish and return the checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The byte-at-a-time definition the sliced update must reproduce.
    fn bytewise_reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        /// Lengths 0–70 cross every alignment of the 8-byte step and its
        /// tail; the split point drives the incremental `update` through
        /// a mid-step state hand-over.
        #[test]
        fn sliced_update_equals_the_bytewise_reference(
            data in prop::collection::vec(0u8..=255, 0..71),
            split in 0usize..=70,
        ) {
            let want = bytewise_reference(&data);
            prop_assert_eq!(crc32(&data), want);
            let split = split.min(data.len());
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            prop_assert_eq!(c.finish(), want);
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_byte_flips_are_detected() {
        let base = b"some run frame payload bytes".to_vec();
        let want = crc32(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(crc32(&flipped), want, "flip at byte {i} must change crc");
        }
    }
}
