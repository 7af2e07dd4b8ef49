//! The immutable serving segment: sorted `(gram, count)` records in
//! block-compressed form, opened by positioned reads.
//!
//! A segment holds one reduce partition's statistics, re-sorted by raw
//! key bytes so point lookups binary-search the block index and prefix
//! scans walk a contiguous block range. Blocks are encoded through the
//! shuffle's [`BlockCodec`](mapreduce::BlockCodec)s (`plain`, `front`,
//! `posting-delta`) and are individually self-contained — each restarts
//! the codec's delta chain — so serving one lookup reads one block, never
//! the file, and decodes it only as far as the key.
//!
//! ```text
//! segment := magic "NGRAMSG2"  block*  footer  [footer-crc32 LE]  trailer
//! block   := codec-encoded records      (≈ SEGMENT_BLOCK_BYTES raw each)
//! record  := key = gram term-id varints, val = count varint
//! footer  := [codec][#entries][#blocks]
//!            ([offset][bytes][#recs][crc32][first-key][last-key])*  index
//!            [#top]([count][key])*              top entries by frequency
//! trailer := [footer-offset: u64 LE]  magic                  (16 bytes)
//! ```
//!
//! The layout mirrors the corpus store (`NGRAMMR3`): a fixed trailer
//! locates the footer with two positioned reads at open; block payloads
//! are only touched by queries. First/last keys in the block index bound
//! every block, so a lookup reads at most one block and a prefix scan
//! reads exactly the overlapping range; within a block both walk a
//! borrowing [`BlockCursor`](mapreduce::BlockCursor) and stop at the
//! first key past what they asked for.
//!
//! Integrity and atomicity: the footer carries a CRC32 over its own
//! bytes (verified at open) and each index entry carries a CRC32 over
//! its encoded block — verified over the whole block before its first
//! record is parsed, early exit or not — so a flipped bit anywhere is a
//! typed [`MrError`], never a silently wrong count. The writer
//! stages the file at `<path>.tmp` and renames it into place at finish,
//! so a crash mid-build never leaves a half-written segment where the
//! index expects a sealed one.

use mapreduce::{
    crc32, read_vu64_at, write_vu64, BlockCursor, BlockEncoder, DecodeState, MrError, Result,
    RunCodec,
};
use std::cell::Cell;
use std::cmp::Ordering;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening and closing a segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"NGRAMSG2";

/// Raw-frame budget per block. Smaller than the shuffle's 32 KiB because
/// the unit of serving work is one point lookup: a block is the amount of
/// decode one query pays for.
pub const SEGMENT_BLOCK_BYTES: usize = 8 * 1024;

/// How many of the highest-frequency entries a segment records in its
/// footer by default — the precomputed half of the top-k endpoint.
pub const SEGMENT_TOP_ENTRIES: usize = 1024;

/// Fixed trailer size: `[footer-offset: u64 LE][magic]`.
const TRAILER_BYTES: u64 = 16;

fn bad(msg: &'static str) -> MrError {
    MrError::Corrupt(msg)
}

fn codec_id(codec: RunCodec) -> u64 {
    match codec {
        RunCodec::Plain => 0,
        RunCodec::FrontCoded => 1,
        RunCodec::PostingDelta => 2,
    }
}

fn codec_from_id(id: u64) -> Result<RunCodec> {
    match id {
        0 => Ok(RunCodec::Plain),
        1 => Ok(RunCodec::FrontCoded),
        2 => Ok(RunCodec::PostingDelta),
        _ => Err(bad("unknown segment codec id")),
    }
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_vu64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn read_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>> {
    let len = read_vu64_at(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or(bad("segment footer byte string out of bounds"))?;
    let out = buf[*pos..end].to_vec();
    *pos = end;
    Ok(out)
}

/// One entry of a segment's block index.
#[derive(Clone, Debug)]
pub struct SegmentBlock {
    /// Absolute byte offset of the encoded block within the file.
    pub offset: u64,
    /// Encoded size of the block in bytes.
    pub bytes: u64,
    /// Number of records in the block.
    pub records: u64,
    /// CRC32 over the encoded block bytes, verified before decode.
    pub crc: u32,
    /// Raw key bytes of the block's first record.
    pub first_key: Vec<u8>,
    /// Raw key bytes of the block's last record.
    pub last_key: Vec<u8>,
}

/// Summary a sealed [`SegmentWriter`] leaves behind.
#[derive(Clone, Debug)]
pub struct SegmentMeta {
    /// Where the segment lives.
    pub path: PathBuf,
    /// Total records.
    pub entries: u64,
    /// Number of blocks.
    pub blocks: u64,
    /// Encoded block payload bytes (excluding footer and trailer).
    pub data_bytes: u64,
    /// The block codec.
    pub codec: RunCodec,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming segment writer. Records must arrive in strictly ascending
/// raw-key-byte order; the writer closes a block at every
/// [`SEGMENT_BLOCK_BYTES`] of raw frames, tracks the block index, and
/// keeps the running top entries by count for the footer.
pub struct SegmentWriter {
    out: BufWriter<File>,
    path: PathBuf,
    tmp_path: PathBuf,
    codec: RunCodec,
    block_budget: usize,
    top_budget: usize,
    encoder: BlockEncoder,
    scratch: Vec<u8>,
    val_buf: Vec<u8>,
    offset: u64,
    first_key: Vec<u8>,
    last_key: Vec<u8>,
    block_records: u64,
    index: Vec<SegmentBlock>,
    entries: u64,
    /// Min-heap by count of the best entries seen so far.
    top: std::collections::BinaryHeap<std::cmp::Reverse<(u64, Vec<u8>)>>,
}

impl SegmentWriter {
    /// Create a segment at `path` encoded with `codec`.
    pub fn create(path: &Path, codec: RunCodec) -> Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        // Stage at `<path>.tmp`; finish() renames into place so readers
        // only ever see fully sealed segments under the final name.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp_path = PathBuf::from(tmp);
        let mut out = BufWriter::with_capacity(128 * 1024, File::create(&tmp_path)?);
        out.write_all(SEGMENT_MAGIC)?;
        Ok(SegmentWriter {
            out,
            path: path.to_path_buf(),
            tmp_path,
            codec,
            block_budget: SEGMENT_BLOCK_BYTES,
            top_budget: SEGMENT_TOP_ENTRIES,
            encoder: BlockEncoder::new(codec),
            scratch: Vec::new(),
            val_buf: Vec::new(),
            offset: SEGMENT_MAGIC.len() as u64,
            first_key: Vec::new(),
            last_key: Vec::new(),
            block_records: 0,
            index: Vec::new(),
            entries: 0,
            top: std::collections::BinaryHeap::new(),
        })
    }

    /// Override the per-block raw-byte budget (tests; the default
    /// [`SEGMENT_BLOCK_BYTES`] is right for production use).
    pub fn block_budget(mut self, bytes: usize) -> Self {
        self.block_budget = bytes.max(1);
        self
    }

    /// Override how many top-frequency entries the footer records.
    pub fn top_entries(mut self, n: usize) -> Self {
        self.top_budget = n;
        self
    }

    /// Append one record. Keys must be strictly ascending.
    pub fn push(&mut self, key: &[u8], count: u64) -> Result<()> {
        if self.entries > 0 && key <= self.last_key.as_slice() {
            return Err(MrError::Config(
                "segment keys must be strictly ascending".into(),
            ));
        }
        if self.block_records == 0 {
            self.first_key.clear();
            self.first_key.extend_from_slice(key);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.val_buf.clear();
        write_vu64(&mut self.val_buf, count);
        self.encoder.push(key, &self.val_buf)?;
        self.block_records += 1;
        self.entries += 1;
        if self.top_budget > 0 {
            self.top.push(std::cmp::Reverse((count, key.to_vec())));
            if self.top.len() > self.top_budget {
                self.top.pop();
            }
        }
        if self.encoder.raw_bytes() >= self.block_budget {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.encoder.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        self.encoder.encode_into(&mut self.scratch);
        self.out.write_all(&self.scratch)?;
        self.index.push(SegmentBlock {
            offset: self.offset,
            bytes: self.scratch.len() as u64,
            records: self.block_records,
            crc: crc32(&self.scratch),
            first_key: self.first_key.clone(),
            last_key: self.last_key.clone(),
        });
        self.offset += self.scratch.len() as u64;
        self.block_records = 0;
        Ok(())
    }

    /// Seal the segment: flush the last block, write footer and trailer.
    pub fn finish(mut self) -> Result<SegmentMeta> {
        self.flush_block()?;
        let footer_offset = self.offset;
        let mut footer = Vec::new();
        write_vu64(&mut footer, codec_id(self.codec));
        write_vu64(&mut footer, self.entries);
        write_vu64(&mut footer, self.index.len() as u64);
        for b in &self.index {
            write_vu64(&mut footer, b.offset);
            write_vu64(&mut footer, b.bytes);
            write_vu64(&mut footer, b.records);
            write_vu64(&mut footer, u64::from(b.crc));
            write_bytes(&mut footer, &b.first_key);
            write_bytes(&mut footer, &b.last_key);
        }
        // Top entries, highest count first (heap drains ascending).
        let mut top: Vec<(u64, Vec<u8>)> =
            self.top.into_iter().map(|std::cmp::Reverse(e)| e).collect();
        top.sort_by(|a, b| b.cmp(a));
        write_vu64(&mut footer, top.len() as u64);
        for (count, key) in &top {
            write_vu64(&mut footer, *count);
            write_bytes(&mut footer, key);
        }
        self.out.write_all(&footer)?;
        self.out.write_all(&crc32(&footer).to_le_bytes())?;
        self.out.write_all(&footer_offset.to_le_bytes())?;
        self.out.write_all(SEGMENT_MAGIC)?;
        self.out.flush()?;
        std::fs::rename(&self.tmp_path, &self.path)?;
        Ok(SegmentMeta {
            path: self.path,
            entries: self.entries,
            blocks: self.index.len() as u64,
            data_bytes: footer_offset - SEGMENT_MAGIC.len() as u64,
            codec: self.codec,
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Positioned read at `offset`, shareable across query threads (no shared
/// cursor) — the same primitive the corpus store reader uses.
fn read_exact_at(file: &File, path: &Path, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        let _ = path;
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek};
        let _ = file;
        let mut f = File::open(path)?;
        f.seek(io::SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// Random-access reader over one segment: opens by trailer + footer only,
/// then serves queries block by block via positioned reads. Shareable across query
/// worker threads behind an `Arc`.
pub struct SegmentReader {
    file: File,
    path: PathBuf,
    codec: RunCodec,
    entries: u64,
    index: Vec<SegmentBlock>,
    top: Vec<(u64, Vec<u8>)>,
    data_bytes: u64,
}

impl SegmentReader {
    /// Open `path`, validating magic and footer structure.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < SEGMENT_MAGIC.len() as u64 + TRAILER_BYTES {
            return Err(bad("segment file too short"));
        }
        let mut magic = [0u8; 8];
        read_exact_at(&file, path, &mut magic, 0)?;
        if &magic != SEGMENT_MAGIC {
            return Err(bad("bad segment magic"));
        }
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        read_exact_at(&file, path, &mut trailer, file_len - TRAILER_BYTES)?;
        if &trailer[8..] != SEGMENT_MAGIC {
            return Err(bad("bad segment trailer magic"));
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        if footer_offset < SEGMENT_MAGIC.len() as u64 || footer_offset > file_len - TRAILER_BYTES {
            return Err(bad("segment footer offset out of bounds"));
        }
        let footer_len = (file_len - TRAILER_BYTES - footer_offset) as usize;
        if footer_len < 4 {
            return Err(bad("segment footer too short for its checksum"));
        }
        let mut raw_footer = vec![0u8; footer_len];
        read_exact_at(&file, path, &mut raw_footer, footer_offset)?;
        let (footer, crc_bytes) = raw_footer.split_at(footer_len - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split_at leaves 4 bytes"));
        if crc32(footer) != stored {
            return Err(bad("segment footer checksum mismatch"));
        }

        let pos = &mut 0usize;
        let codec = codec_from_id(read_vu64_at(footer, pos)?)?;
        let entries = read_vu64_at(footer, pos)?;
        let n_blocks = read_vu64_at(footer, pos)? as usize;
        let mut index = Vec::with_capacity(n_blocks.min(footer_len));
        for _ in 0..n_blocks {
            let block = SegmentBlock {
                offset: read_vu64_at(footer, pos)?,
                bytes: read_vu64_at(footer, pos)?,
                records: read_vu64_at(footer, pos)?,
                crc: u32::try_from(read_vu64_at(footer, pos)?)
                    .map_err(|_| bad("segment block checksum out of range"))?,
                first_key: read_bytes(footer, pos)?,
                last_key: read_bytes(footer, pos)?,
            };
            let end = block
                .offset
                .checked_add(block.bytes)
                .ok_or(bad("segment block extent overflows"))?;
            if block.offset < SEGMENT_MAGIC.len() as u64 || end > footer_offset {
                return Err(bad("segment block extent out of bounds"));
            }
            if block.first_key > block.last_key {
                return Err(bad("segment block key range inverted"));
            }
            if let Some(prev) = index.last() {
                let prev: &SegmentBlock = prev;
                if prev.last_key >= block.first_key {
                    return Err(bad("segment blocks out of order"));
                }
            }
            index.push(block);
        }
        if index.iter().map(|b| b.records).sum::<u64>() != entries {
            return Err(bad("segment block index disagrees with entry count"));
        }
        let n_top = read_vu64_at(footer, pos)? as usize;
        let mut top = Vec::with_capacity(n_top.min(footer_len));
        for _ in 0..n_top {
            let count = read_vu64_at(footer, pos)?;
            let key = read_bytes(footer, pos)?;
            top.push((count, key));
        }
        if *pos != footer.len() {
            return Err(bad("trailing bytes in segment footer"));
        }
        Ok(SegmentReader {
            file,
            path: path.to_path_buf(),
            codec,
            entries,
            index,
            top,
            data_bytes: index_data_bytes(footer_offset),
        })
    }

    /// Total records in the segment.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.index.len()
    }

    /// Encoded block payload bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// The codec blocks are encoded with.
    pub fn codec(&self) -> RunCodec {
        self.codec
    }

    /// The precomputed highest-frequency entries, descending by count.
    pub fn top_entries(&self) -> &[(u64, Vec<u8>)] {
        &self.top
    }

    /// The first and last key of the segment, from the block index alone
    /// (no I/O); `None` for an empty segment.
    pub fn key_range(&self) -> Option<(&[u8], &[u8])> {
        let first = self.index.first()?;
        let last = self.index.last()?;
        Some((&first.first_key, &last.last_key))
    }

    /// Read block `i`, verify its CRC over the whole block, then hand its
    /// records — key and still-encoded count, see [`decode_count`] — to
    /// `f` in key order until `f` returns `false`. Returns whether the
    /// walk reached the end of the block.
    ///
    /// The checksum comes before the first record is parsed, so a caller
    /// that stops early still never sees a record of a damaged block.
    fn walk_block(
        &self,
        i: usize,
        mut f: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<bool> {
        // Taken out of the thread-local for the duration of the walk: `f`
        // may query a segment again, and that nested walk then starts from
        // empty buffers instead of finding this one's borrowed.
        let mut scratch = SCRATCH.with(Cell::take);
        let walked = self.walk_block_in(i, &mut scratch, &mut f);
        SCRATCH.with(|cell| cell.set(scratch));
        walked
    }

    fn walk_block_in(
        &self,
        i: usize,
        scratch: &mut Scratch,
        f: &mut impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<bool> {
        let entry = &self.index[i];
        // `open` bounded the extent by the file, so this cannot over-reserve.
        scratch.block.resize(entry.bytes as usize, 0);
        read_exact_at(&self.file, &self.path, &mut scratch.block, entry.offset)?;
        if crc32(&scratch.block) != entry.crc {
            return Err(MrError::ChecksumMismatch {
                file: self.path.display().to_string(),
                block: i as u64,
            });
        }
        let mut cursor = BlockCursor::new(self.codec, &scratch.block, &mut scratch.state);
        while let Some((key, val)) = cursor.next()? {
            if !f(key, val)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Point lookup by raw key bytes: binary-search the block index, read
    /// at most one block, and stop at the first key at or past the target.
    pub fn lookup(&self, key: &[u8]) -> Result<Option<u64>> {
        // Index of the last block whose first_key <= key.
        let part = self
            .index
            .partition_point(|b| b.first_key.as_slice() <= key);
        if part == 0 {
            return Ok(None);
        }
        let i = part - 1;
        if self.index[i].last_key.as_slice() < key {
            return Ok(None);
        }
        let mut found = None;
        self.walk_block(i, |k, val| {
            Ok(match k.cmp(key) {
                Ordering::Less => true,
                Ordering::Equal => {
                    found = Some(decode_count(val)?);
                    false
                }
                Ordering::Greater => false,
            })
        })?;
        Ok(found)
    }

    /// Scan every record whose key starts with `prefix`, in ascending key
    /// order. `f` returns `false` to stop early.
    pub fn scan_prefix(
        &self,
        prefix: &[u8],
        f: &mut dyn FnMut(&[u8], u64) -> Result<bool>,
    ) -> Result<()> {
        // First candidate block: the last one starting at or before the
        // prefix — earlier blocks end before any prefixed key — but a
        // prefixed key can also start a later block, so walk forward from
        // there until a block starts past the prefix range.
        let start = self
            .index
            .partition_point(|b| b.first_key.as_slice() < prefix)
            .saturating_sub(1);
        for (i, b) in self.index.iter().enumerate().skip(start) {
            // A block strictly past the prefix range starts with a key
            // that is > prefix yet not an extension of it.
            if b.first_key.as_slice() > prefix && !b.first_key.starts_with(prefix) {
                break;
            }
            if b.last_key.as_slice() < prefix {
                continue;
            }
            // Keys below the prefix are skipped; the first key past its
            // extensions ends the scan, as does `f`.
            let more = self.walk_block(i, |k, val| {
                if k.starts_with(prefix) {
                    f(k, decode_count(val)?)
                } else {
                    Ok(k < prefix)
                }
            })?;
            if !more {
                break;
            }
        }
        Ok(())
    }

    /// Scan the whole segment in key order.
    pub fn scan_all(&self, f: &mut dyn FnMut(&[u8], u64) -> Result<()>) -> Result<()> {
        for i in 0..self.index.len() {
            self.walk_block(i, |k, val| f(k, decode_count(val)?).map(|()| true))?;
        }
        Ok(())
    }
}

/// A record's value back to its count.
fn decode_count(val: &[u8]) -> Result<u64> {
    let mut pos = 0usize;
    let count = read_vu64_at(val, &mut pos)?;
    if pos != val.len() {
        return Err(bad("trailing bytes in segment value"));
    }
    Ok(count)
}

/// One query thread's block buffer and decode state, kept between
/// queries so a lookup allocates nothing once they have grown.
#[derive(Default)]
struct Scratch {
    block: Vec<u8>,
    state: DecodeState,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

fn index_data_bytes(footer_offset: u64) -> u64 {
    footer_offset - SEGMENT_MAGIC.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("serve-seg-{}-{tag}.seg", std::process::id()))
    }

    /// Sorted synthetic keys: two-byte "grams" over a small alphabet.
    fn sample_records(n: u32) -> Vec<(Vec<u8>, u64)> {
        let mut recs: Vec<(Vec<u8>, u64)> = (0..n)
            .map(|i| {
                let mut key = Vec::new();
                write_vu64(&mut key, u64::from(i / 7));
                write_vu64(&mut key, u64::from(i % 7));
                (key, u64::from(i % 13) + 1)
            })
            .collect();
        recs.sort();
        recs
    }

    fn write_segment(path: &Path, codec: RunCodec, recs: &[(Vec<u8>, u64)]) -> SegmentMeta {
        let mut w = SegmentWriter::create(path, codec).unwrap().block_budget(64);
        for (k, c) in recs {
            w.push(k, *c).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn segment_round_trips_across_codecs() {
        let recs = sample_records(500);
        for codec in [
            RunCodec::Plain,
            RunCodec::FrontCoded,
            RunCodec::PostingDelta,
        ] {
            let path = temp_path(&format!("rt-{}", codec.name()));
            let meta = write_segment(&path, codec, &recs);
            assert_eq!(meta.entries, 500);
            assert!(meta.blocks > 4, "64-byte budget must split blocks");
            let r = SegmentReader::open(&path).unwrap();
            assert_eq!(r.entries(), 500);
            assert_eq!(r.codec(), codec);
            let mut got = Vec::new();
            r.scan_all(&mut |k, c| {
                got.push((k.to_vec(), c));
                Ok(())
            })
            .unwrap();
            assert_eq!(got, recs);
            for (k, c) in &recs {
                assert_eq!(r.lookup(k).unwrap(), Some(*c), "codec {codec:?}");
            }
            // Absent neighbours of every key — last byte ± 1, a proper
            // prefix, an extension — plus probes before the first block,
            // after the last one, and the empty key: each answers exactly
            // what the record set says.
            let present: std::collections::BTreeMap<&[u8], u64> =
                recs.iter().map(|(k, c)| (k.as_slice(), *c)).collect();
            let mut probes: Vec<Vec<u8>> = vec![vec![], vec![0], vec![0xff; 3]];
            for (k, _) in &recs {
                let (&last, head) = k.split_last().unwrap();
                probes.push([head, &[last.wrapping_sub(1)]].concat());
                probes.push([head, &[last.wrapping_add(1)]].concat());
                probes.push(head.to_vec());
                probes.push([k.as_slice(), &[0]].concat());
            }
            for probe in &probes {
                assert_eq!(
                    r.lookup(probe).unwrap(),
                    present.get(probe.as_slice()).copied(),
                    "codec {codec:?}, probe {probe:?}"
                );
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    /// "Format unchanged" as a test: the exact bytes of one small
    /// two-block segment per codec — magic, blocks, footer (block index,
    /// top entries), footer CRC, trailer — as the `NGRAMSG2` writer has
    /// always produced them. The records cover a repeated count, a
    /// two-byte count, a shared key prefix and a key suffix past the
    /// 15-byte inline length.
    #[test]
    fn golden_bytes_pin_the_segment_format() {
        let long = [&[2u8, 9][..], &[4u8; 16][..]].concat();
        let recs: [(&[u8], u64); 5] = [
            (&[1], 7),
            (&[1, 2], 7),
            (&[1, 2, 3], 300),
            (&[2], 5),
            (&long, 5),
        ];
        let golden = [
            (RunCodec::Plain, GOLDEN_PLAIN),
            (RunCodec::FrontCoded, GOLDEN_FRONT),
            (RunCodec::PostingDelta, GOLDEN_POSTING_DELTA),
        ];
        for (codec, want) in golden {
            let path = temp_path(&format!("golden-{}", codec.name()));
            let mut w = SegmentWriter::create(&path, codec)
                .unwrap()
                .block_budget(12)
                .top_entries(2);
            for (k, c) in recs {
                w.push(k, c).unwrap();
            }
            w.finish().unwrap();
            let hex: String = std::fs::read(&path)
                .unwrap()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(hex, want, "codec {codec:?}");
            let r = SegmentReader::open(&path).unwrap();
            assert_eq!(r.num_blocks(), 2);
            for (k, c) in recs {
                assert_eq!(r.lookup(k).unwrap(), Some(c), "codec {codec:?}");
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    const GOLDEN_PLAIN: &str = concat!(
        "4e4752414d5347320101010702010201070301020302ac020102010512020904",
        "0404040404040404040404040404040105000502081003abb2cc920501010301",
        "02031819028b8c98c80101021202090404040404040404040404040404040402",
        "ac020301020307020102228a48f931000000000000004e4752414d534732",
    );
    const GOLDEN_FRONT: &str = concat!(
        "4e4752414d534732020101072302420302ac02020201053f0209040404040404",
        "04040404040404040404010502080b03a3bcd0ed0a010103010203131702e9b8",
        "cf970801021202090404040404040404040404040404040402ac020301020307",
        "02010248f6dee52a000000000000004e4752414d534732",
    );
    const GOLDEN_POSTING_DELTA: &str = concat!(
        "4e4752414d5347320201000107230242030002ac0202020001053f0209040404",
        "04040404040404040404040404020502080d03ddb581aa070101030102031518",
        "0282efe4a70a01021202090404040404040404040404040404040402ac020301",
        "0203070201024dbe45222d000000000000004e4752414d534732",
    );

    #[test]
    fn prefix_scan_returns_exactly_the_extension_range() {
        let recs = sample_records(700);
        let path = temp_path("prefix");
        write_segment(&path, RunCodec::FrontCoded, &recs);
        let r = SegmentReader::open(&path).unwrap();
        let mut prefix = Vec::new();
        write_vu64(&mut prefix, 3);
        let mut got = Vec::new();
        r.scan_prefix(&prefix, &mut |k, c| {
            got.push((k.to_vec(), c));
            Ok(true)
        })
        .unwrap();
        let expected: Vec<(Vec<u8>, u64)> = recs
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .cloned()
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(got, expected);
        // Early stop works.
        let mut seen = 0;
        r.scan_prefix(&prefix, &mut |_, _| {
            seen += 1;
            Ok(seen < 3)
        })
        .unwrap();
        assert_eq!(seen, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_query_from_inside_a_scan_callback_gets_its_own_buffers() {
        // The per-thread block buffer is out of its thread-local while a
        // walk runs; a nested query must neither panic nor clobber the
        // outer walk's block.
        let recs = sample_records(400);
        for codec in [
            RunCodec::Plain,
            RunCodec::FrontCoded,
            RunCodec::PostingDelta,
        ] {
            let path = temp_path(&format!("nested-{}", codec.name()));
            write_segment(&path, codec, &recs);
            let r = SegmentReader::open(&path).unwrap();
            let mut got = Vec::new();
            r.scan_all(&mut |k, c| {
                // A different block than the one being walked, mostly.
                let (other, count) = &recs[(got.len() * 37) % recs.len()];
                assert_eq!(r.lookup(other)?, Some(*count));
                assert_eq!(r.lookup(k)?, Some(c));
                got.push((k.to_vec(), c));
                Ok(())
            })
            .unwrap();
            assert_eq!(got, recs, "codec {codec:?}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn top_entries_are_the_true_maxima() {
        let recs = sample_records(400);
        let path = temp_path("top");
        let mut w = SegmentWriter::create(&path, RunCodec::Plain)
            .unwrap()
            .block_budget(64)
            .top_entries(10);
        for (k, c) in &recs {
            w.push(k, *c).unwrap();
        }
        w.finish().unwrap();
        let r = SegmentReader::open(&path).unwrap();
        let top = r.top_entries();
        assert_eq!(top.len(), 10);
        let mut expected: Vec<(u64, Vec<u8>)> = recs.iter().map(|(k, c)| (*c, k.clone())).collect();
        expected.sort_by(|a, b| b.cmp(a));
        expected.truncate(10);
        assert_eq!(top, &expected[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsorted_keys_are_rejected() {
        let path = temp_path("unsorted");
        let mut w = SegmentWriter::create(&path, RunCodec::Plain).unwrap();
        w.push(b"bb", 1).unwrap();
        assert!(w.push(b"aa", 1).is_err());
        assert!(w.push(b"bb", 2).is_err(), "duplicates rejected too");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_segment_round_trips() {
        let path = temp_path("empty");
        let meta = SegmentWriter::create(&path, RunCodec::FrontCoded)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(meta.entries, 0);
        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.entries(), 0);
        assert_eq!(r.num_blocks(), 0);
        assert_eq!(r.lookup(b"x").unwrap(), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn segment_appears_atomically_at_finish() {
        let path = temp_path("atomic");
        let mut w = SegmentWriter::create(&path, RunCodec::Plain).unwrap();
        w.push(b"aa", 1).unwrap();
        assert!(
            !path.exists(),
            "segment must not exist under its final name before finish"
        );
        w.finish().unwrap();
        assert!(path.exists());
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(
            !PathBuf::from(tmp).exists(),
            "staging file must be renamed away"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_block_byte_is_a_checksum_mismatch() {
        let recs = sample_records(300);
        for codec in [
            RunCodec::Plain,
            RunCodec::FrontCoded,
            RunCodec::PostingDelta,
        ] {
            let path = temp_path(&format!("blockflip-{}", codec.name()));
            write_segment(&path, codec, &recs);
            let clean = std::fs::read(&path).unwrap();
            let r = SegmentReader::open(&path).unwrap();
            let entry = r.index[1].clone();
            drop(r);
            for frac in [0.0, 0.5, 0.99] {
                let mut bytes = clean.clone();
                let at = entry.offset as usize + (entry.bytes as f64 * frac) as usize;
                bytes[at] ^= 0x01;
                std::fs::write(&path, &bytes).unwrap();
                let r = SegmentReader::open(&path).expect("footer untouched, open succeeds");
                // Walking every block must surface the corrupt one as a
                // typed checksum error, not a wrong count.
                let err = r
                    .scan_all(&mut |_, _| Ok(()))
                    .expect_err("flip must fail the block checksum");
                match err {
                    MrError::ChecksumMismatch { block, .. } => assert_eq!(block, 1),
                    other => panic!("expected ChecksumMismatch, got {other:?}"),
                }
                // A lookup that lands in the corrupt block fails the same
                // way instead of answering from corrupted bytes.
                assert!(r.lookup(&entry.first_key).is_err(), "codec {codec:?}");
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn flipped_footer_byte_is_rejected_at_open() {
        let recs = sample_records(200);
        let path = temp_path("footerflip");
        write_segment(&path, RunCodec::FrontCoded, &recs);
        let clean = std::fs::read(&path).unwrap();
        let trailer = clean.len() - TRAILER_BYTES as usize;
        let footer_offset =
            u64::from_le_bytes(clean[trailer..trailer + 8].try_into().unwrap()) as usize;
        for at in (footer_offset..trailer).step_by(11) {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                SegmentReader::open(&path).is_err(),
                "footer flip at {at} must be rejected at open"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let recs = sample_records(100);
        let path = temp_path("corrupt");
        write_segment(&path, RunCodec::Plain, &recs);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(SegmentReader::open(&path).is_err(), "cut at {cut}");
        }
        std::fs::write(&path, b"NOTASEGMENTxxxxxxxxxxxxxxxxx").unwrap();
        assert!(SegmentReader::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
