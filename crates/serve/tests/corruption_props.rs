//! Property: arbitrary byte-level damage to a sealed segment — any
//! single bit flip, any truncation point, any codec — must surface as a
//! typed error from open or from the first query that touches the
//! damaged bytes. Never a panic, and never a silently wrong count: the
//! footer CRC32 covers the index, each block's CRC32 covers its payload.

use mapreduce::RunCodec;
use proptest::prelude::*;
use serve::{SegmentReader, SegmentWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "serve-corrupt-{}-{}.seg",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

const CODECS: [RunCodec; 3] = [
    RunCodec::Plain,
    RunCodec::FrontCoded,
    RunCodec::PostingDelta,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn corrupted_segments_error_and_never_serve_wrong_counts(
        entries in 1u64..200,
        codec_i in 0usize..3,
        at in 0usize..usize::MAX,
        bit in 0u8..8,
        truncate in any::<bool>(),
    ) {
        let path = temp_path();
        let mut w = SegmentWriter::create(&path, CODECS[codec_i])
            .unwrap()
            .block_budget(48);
        let records: Vec<(Vec<u8>, u64)> = (0..entries)
            .map(|i| (i.to_be_bytes().to_vec(), i % 17 + 1))
            .collect();
        for (k, c) in &records {
            w.push(k, *c).unwrap();
        }
        w.finish().unwrap();

        let clean = std::fs::read(&path).unwrap();
        let damaged = if truncate {
            clean[..at % clean.len()].to_vec()
        } else {
            let mut bytes = clean.clone();
            bytes[at % clean.len()] ^= 1 << bit;
            bytes
        };
        std::fs::write(&path, &damaged).unwrap();

        // Open, then exercise every read path on its own. Not panicking
        // is half the property; the other half is that whatever
        // *succeeds* reports the original data — a lookup stops at its
        // key, so this also holds it to bytes it never parsed.
        let Ok(r) = SegmentReader::open(&path) else {
            let _ = std::fs::remove_file(&path);
            return Ok(()); // typed rejection at open
        };
        let mut got = Vec::new();
        if r.scan_all(&mut |k, c| {
            got.push((k.to_vec(), c));
            Ok(())
        })
        .is_ok()
        {
            prop_assert_eq!(&got, &records, "scan_all at {} (truncate={})", at, truncate);
        }
        for (k, c) in &records {
            if let Ok(found) = r.lookup(k) {
                prop_assert_eq!(found, Some(*c), "lookup at {} (truncate={})", at, truncate);
            }
            // Absent neighbours: a proper prefix and an extension of the key.
            for absent in [&k[..7], &[k.as_slice(), &[0]].concat()] {
                if let Ok(found) = r.lookup(absent) {
                    prop_assert_eq!(found, None);
                }
            }
        }
        for absent in [&[][..], &(entries + 3).to_be_bytes()] {
            if let Ok(found) = r.lookup(absent) {
                prop_assert_eq!(found, None);
            }
        }
        // Keys are big-endian u64s: a 7-byte prefix selects a run of 256.
        for prefix in [&[][..], &[0u8; 7], &[0, 0, 0, 0, 0, 0, 0, 9]] {
            let mut rows = Vec::new();
            if r.scan_prefix(prefix, &mut |k, c| {
                rows.push((k.to_vec(), c));
                Ok(rows.len() < 20)
            })
            .is_ok()
            {
                let want: Vec<(Vec<u8>, u64)> = records
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .take(20)
                    .cloned()
                    .collect();
                prop_assert_eq!(rows, want, "scan_prefix at {} (truncate={})", at, truncate);
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A lookup stops walking its block at the key, so damage *behind* the
/// key is in bytes it never parses. The block CRC runs over the whole
/// block before the first record is parsed: every such flip must fail
/// the lookup, never answer it.
#[test]
fn flips_behind_the_early_exit_point_fail_the_lookup() {
    for codec in CODECS {
        let path = temp_path();
        let mut w = SegmentWriter::create(&path, codec).unwrap();
        for i in 0..300u64 {
            w.push(&i.to_be_bytes(), i % 17 + 1).unwrap();
        }
        let meta = w.finish().unwrap();
        assert_eq!(meta.blocks, 1, "one block, so its extent is known");
        let clean = std::fs::read(&path).unwrap();
        let block =
            serve::SEGMENT_MAGIC.len()..serve::SEGMENT_MAGIC.len() + meta.data_bytes as usize;
        let first_key = 0u64.to_be_bytes();
        assert_eq!(
            SegmentReader::open(&path)
                .unwrap()
                .lookup(&first_key)
                .unwrap(),
            Some(1)
        );

        // The first record ends within the first 16 bytes of the block
        // under every codec; everything past that is behind the exit.
        for at in (block.start + 16..block.end)
            .step_by(7)
            .chain([block.end - 1])
        {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let r = SegmentReader::open(&path).expect("footer untouched");
            match r.lookup(&first_key) {
                Err(mapreduce::MrError::ChecksumMismatch { block: 0, .. }) => {}
                other => panic!("{codec:?}: flip at {at} answered {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
