//! Property-based tests of the run block codecs: for arbitrary key/value
//! sets — empty keys, shared-prefix clusters, runs spanning many blocks,
//! memory and file backends — a [`RunCodec::FrontCoded`] run must decode
//! to exactly the record sequence of its [`RunCodec::Plain`] twin, and
//! both must reproduce the input; and a [`BlockCursor`] over standalone
//! [`BlockEncoder`] blocks must lend back exactly what was pushed.

use mapreduce::*;
use proptest::prelude::*;

type Records = Vec<(Vec<u8>, Vec<u8>)>;

/// Write `records` through one writer and seal the run.
fn write_run(mut w: RunWriter, records: &Records) -> Run {
    for (k, v) in records {
        w.write_record(k, v).unwrap();
    }
    w.finish().unwrap()
}

/// Decode a run back into owned records.
fn read_run(run: &Run) -> Records {
    let mut rd = run.reader().unwrap();
    let (mut k, mut v) = (Vec::new(), Vec::new());
    let mut out = Vec::new();
    while rd.next_into(&mut k, &mut v).unwrap() {
        out.push((k.clone(), v.clone()));
    }
    out
}

/// Keys from a tiny alphabet cluster heavily on shared prefixes, which is
/// exactly the shape front coding must get right (long lcp chains, exact
/// duplicates, empty keys).
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..14)
}

fn records_strategy() -> impl Strategy<Value = Records> {
    prop::collection::vec(
        (key_strategy(), prop::collection::vec(0u8..=255, 0..6)),
        0..250,
    )
}

/// Records shaped to hit every branch of the block record layout: key
/// suffixes on both sides of the inline-length escape (15 bytes), values
/// that repeat the previous record's, change by a tail byte, or are empty.
fn block_records_strategy() -> impl Strategy<Value = Records> {
    let key = (prop::collection::vec(0u8..3, 0..4), 0usize..34).prop_map(|(head, tail)| {
        let mut key = head;
        key.extend(std::iter::repeat_n(7u8, tail));
        key
    });
    let val = prop_oneof![
        Just(Vec::new()),
        Just(vec![5u8]),
        Just(vec![9u8; 20]),
        prop::collection::vec(0u8..=255, 0..24),
    ];
    prop::collection::vec((key, val), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_cursor_lends_back_exactly_what_the_encoder_was_fed(
        records in block_records_strategy(),
        sorted in any::<bool>(),
        // Raw-frame budget at which a block is closed: 1 byte is a block
        // per record (every record self-contained), the larger ones chain
        // deltas across many records.
        budget in prop_oneof![Just(1usize), Just(2), Just(17), Just(64), Just(400), Just(1 << 20)],
    ) {
        let mut records = records;
        if sorted {
            records.sort();
        }
        for codec in [RunCodec::Plain, RunCodec::FrontCoded, RunCodec::PostingDelta] {
            let mut encoder = BlockEncoder::new(codec);
            let mut blocks: Vec<Vec<u8>> = Vec::new();
            for (k, v) in &records {
                encoder.push(k, v).unwrap();
                if encoder.raw_bytes() >= budget {
                    let mut block = Vec::new();
                    encoder.encode_into(&mut block);
                    blocks.push(block);
                }
            }
            if !encoder.is_empty() {
                let mut block = Vec::new();
                encoder.encode_into(&mut block);
                blocks.push(block);
            }
            // One decode state across all blocks, as a serving thread
            // keeps it: the cursor must reset it per block.
            let mut state = DecodeState::default();
            let mut got: Records = Vec::new();
            for block in &blocks {
                let mut cursor = BlockCursor::new(codec, block, &mut state);
                while let Some((k, v)) = cursor.next().unwrap() {
                    got.push((k.to_vec(), v.to_vec()));
                }
                prop_assert!(cursor.next().unwrap().is_none(), "the end is sticky");
            }
            prop_assert_eq!(&got, &records, "codec {:?}, budget {}", codec, budget);
        }
    }

    #[test]
    fn front_coded_and_plain_decode_identically(
        records in records_strategy(),
        sorted in any::<bool>(),
        // 1 forces a block per record (every record self-contained); 64
        // yields many multi-record blocks; RUN_BLOCK_BYTES is the
        // production single-block-for-small-runs case.
        budget in prop_oneof![Just(1usize), Just(64), Just(RUN_BLOCK_BYTES)],
        use_files in any::<bool>(),
    ) {
        let mut records = records;
        if sorted {
            // Runs produced by the shuffle are sorted; cover that shape
            // explicitly (maximal prefix sharing between neighbors).
            records.sort();
        }
        // Created up front so file-backed runs outlive their writers for
        // the reads below (the directory is removed on drop).
        let dir = TempDir::create(None).unwrap();
        let (plain, front) = if use_files {
            (
                write_run(
                    RunWriter::file_codec(&dir, RunCodec::Plain).unwrap().block_budget(budget),
                    &records,
                ),
                write_run(
                    RunWriter::file_codec(&dir, RunCodec::FrontCoded).unwrap().block_budget(budget),
                    &records,
                ),
            )
        } else {
            (
                write_run(RunWriter::mem_codec(RunCodec::Plain).block_budget(budget), &records),
                write_run(
                    RunWriter::mem_codec(RunCodec::FrontCoded).block_budget(budget),
                    &records,
                ),
            )
        };

        prop_assert_eq!(plain.records, records.len() as u64);
        prop_assert_eq!(front.records, records.len() as u64);
        // Raw (pre-codec) bytes are codec-independent, and the plain
        // codec is the identity on frame payloads: the encoded size
        // exceeds the raw size by exactly the per-frame header + CRC.
        prop_assert_eq!(plain.raw_bytes, front.raw_bytes);
        prop_assert!(plain.bytes >= plain.raw_bytes);
        prop_assert!(
            records.is_empty() || plain.bytes > plain.raw_bytes,
            "non-empty plain runs carry frame overhead"
        );

        let plain_decoded = read_run(&plain);
        prop_assert_eq!(&plain_decoded, &records, "plain run must reproduce its input");
        let front_decoded = read_run(&front);
        prop_assert_eq!(&front_decoded, &records, "front-coded run must reproduce its input");
        // Re-reading must be stateless-per-reader (fresh delta chain).
        prop_assert_eq!(read_run(&front), plain_decoded);
    }

    #[test]
    fn posting_delta_and_plain_decode_identically(
        records in records_strategy(),
        sorted in any::<bool>(),
        budget in prop_oneof![Just(1usize), Just(64), Just(RUN_BLOCK_BYTES)],
        use_files in any::<bool>(),
    ) {
        let mut records = records;
        if sorted {
            records.sort();
        }
        let dir = TempDir::create(None).unwrap();
        let (plain, delta) = if use_files {
            (
                write_run(
                    RunWriter::file_codec(&dir, RunCodec::Plain).unwrap().block_budget(budget),
                    &records,
                ),
                write_run(
                    RunWriter::file_codec(&dir, RunCodec::PostingDelta).unwrap().block_budget(budget),
                    &records,
                ),
            )
        } else {
            (
                write_run(RunWriter::mem_codec(RunCodec::Plain).block_budget(budget), &records),
                write_run(
                    RunWriter::mem_codec(RunCodec::PostingDelta).block_budget(budget),
                    &records,
                ),
            )
        };

        prop_assert_eq!(delta.records, records.len() as u64);
        prop_assert_eq!(plain.raw_bytes, delta.raw_bytes);
        let plain_decoded = read_run(&plain);
        prop_assert_eq!(&plain_decoded, &records, "plain run must reproduce its input");
        let delta_decoded = read_run(&delta);
        prop_assert_eq!(&delta_decoded, &records, "posting-delta run must reproduce its input");
        prop_assert_eq!(read_run(&delta), plain_decoded);
    }

    #[test]
    fn merge_is_codec_transparent(
        a in records_strategy(),
        b in records_strategy(),
    ) {
        let (mut a, mut b) = (a, b);
        // Two sorted runs, one per codec, merged through the job's
        // reduce-side MergeStream: codec choice must not leak into the
        // merged record sequence.
        a.sort();
        b.sort();
        let run_a = write_run(RunWriter::mem_codec(RunCodec::FrontCoded).block_budget(64), &a);
        let run_b = write_run(RunWriter::mem_codec(RunCodec::Plain), &b);
        let mut expected: Records = a.iter().chain(b.iter()).cloned().collect();
        expected.sort_by(|x, y| x.0.cmp(&y.0));

        let mut stream = MergeStream::new(
            &[run_a, run_b],
            std::sync::Arc::new(BytewiseComparator),
        ).unwrap();
        let (mut k, mut v) = (Vec::new(), Vec::new());
        let mut got_keys = Vec::new();
        while stream.next_record(&mut k, &mut v).unwrap() {
            got_keys.push(k.clone());
        }
        let expected_keys: Vec<Vec<u8>> = expected.into_iter().map(|(k, _)| k).collect();
        prop_assert_eq!(got_keys, expected_keys);
    }
}
