//! The on-disk statistics index: a directory of serving segments plus
//! the dictionary and a manifest, fronted by an LRU hot-term cache.
//!
//! ```text
//! index/
//!   MANIFEST       key \t value   (format, corpus, method, tau, σ, …,
//!                                  partitioner when one rule placed the grams)
//!   terms.tsv      term \t cf     in id order — Dictionary::from_counts
//!                                  re-derives the exact term ids
//!   part-00000.seg serving segments, one per reduce partition
//!   part-00001.seg
//! ```
//!
//! [`build_index`] runs a [`Computation`] with a [`SegmentSinkFactory`]
//! so reduce output lands directly in segments — no intermediate record
//! vector. [`StatsIndex`] opens the directory and answers point lookups,
//! prefix scans, and top-k queries; point lookups go through a
//! byte-budgeted [`LruCache`] (negative results cached as empty values,
//! sound because every served count is ≥ τ ≥ 1).
//!
//! A segment is one reduce partition, so the job's partitioner says which
//! segment can hold a gram. `build_index` records it as the manifest's
//! `partitioner` line when the computation has one
//! ([`Computation::output_partitioner`]); a lookup then reads that one
//! segment, and so does a non-empty prefix scan when the partitioner is
//! by first term. A manifest without the line — maximal/closed output, an
//! index built before the line existed — is served by asking every
//! segment, which is always correct.

use crate::segment::SegmentReader;
use crate::sink::SegmentSinkFactory;
use corpus::Dictionary;
use kvstore::LruCache;
use mapreduce::{read_vu64_at, to_bytes, write_vu64, Cluster, MrError, Result, RunCodec};
use ngrams::{Computation, CountMode, Gram, OutputPartitioner};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Manifest file name.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Dictionary file name.
pub const TERMS_FILE: &str = "terms.tsv";
/// Current manifest format version.
pub const INDEX_FORMAT: u64 = 1;
/// Default hot-term cache budget.
pub const DEFAULT_CACHE_BYTES: usize = 4 << 20;

fn bad(msg: &'static str) -> MrError {
    MrError::Corrupt(msg)
}

/// Knobs of [`build_index`].
#[derive(Clone, Debug)]
pub struct IndexOptions {
    /// Block codec for the segments.
    pub codec: RunCodec,
    /// Top-frequency entries each segment precomputes for top-k serving.
    pub top_entries: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            codec: RunCodec::FrontCoded,
            top_entries: crate::segment::SEGMENT_TOP_ENTRIES,
        }
    }
}

/// What an index directory describes (parsed from its `MANIFEST`).
#[derive(Clone, Debug)]
pub struct IndexMeta {
    /// The directory.
    pub dir: PathBuf,
    /// Corpus name recorded at build time.
    pub corpus: String,
    /// Method name (`"SUFFIX-SIGMA"`, …).
    pub method: String,
    /// `"cf"` or `"df"`.
    pub count_mode: String,
    /// Minimum frequency τ the statistics were computed with.
    pub tau: u64,
    /// Maximum n-gram length σ.
    pub sigma: u64,
    /// Segment block codec.
    pub codec: RunCodec,
    /// Number of segment files.
    pub segments: u64,
    /// Total `(gram, count)` entries across segments.
    pub entries: u64,
    /// The rule that placed grams in segments, when the manifest names
    /// one; `None` means every segment may hold any gram.
    pub partitioner: Option<OutputPartitioner>,
}

/// Build a statistics index: run `computation` on `cluster` with reduce
/// output landing in segments under `dir`, then persist the dictionary
/// and manifest. Returns the new index's metadata.
///
/// The computation must produce `(Gram, u64)` statistics (any of the four
/// methods, cf or df); `dictionary` must be the collection's, since term
/// ids inside segment keys are resolved through it at query time.
pub fn build_index(
    cluster: &Cluster,
    computation: &Computation<'_>,
    dictionary: &Dictionary,
    corpus: &str,
    dir: &Path,
    opts: &IndexOptions,
) -> Result<IndexMeta> {
    computation.validate()?;
    std::fs::create_dir_all(dir)?;
    let sinks = SegmentSinkFactory::new(dir, opts.codec).top_entries(opts.top_entries);
    let (metas, _stats) = computation.run_to_sink(cluster, &sinks)?;
    let entries: u64 = metas.iter().map(|m| m.entries).sum();

    // Dictionary and manifest are staged at `.tmp` and renamed into
    // place, so a crash mid-build never leaves a directory that opens
    // with a truncated dictionary or manifest.
    let terms_tmp = dir.join(format!("{TERMS_FILE}.tmp"));
    let mut terms = std::io::BufWriter::new(std::fs::File::create(&terms_tmp)?);
    for (_id, term, cf) in dictionary.iter() {
        writeln!(terms, "{term}\t{cf}")?;
    }
    terms.flush()?;
    drop(terms);
    std::fs::rename(&terms_tmp, dir.join(TERMS_FILE))?;

    let params = computation.params();
    let mut manifest = String::new();
    let _ = writeln!(manifest, "format\t{INDEX_FORMAT}");
    let _ = writeln!(manifest, "corpus\t{corpus}");
    let _ = writeln!(manifest, "method\t{}", computation.method().name());
    let mode = match params.mode {
        CountMode::Cf => "cf",
        CountMode::Df => "df",
    };
    let _ = writeln!(manifest, "count_mode\t{mode}");
    let _ = writeln!(manifest, "tau\t{}", params.tau);
    let _ = writeln!(manifest, "sigma\t{}", params.sigma);
    let _ = writeln!(manifest, "codec\t{}", opts.codec.name());
    let _ = writeln!(manifest, "segments\t{}", metas.len());
    let _ = writeln!(manifest, "entries\t{entries}");
    let partitioner = computation.output_partitioner();
    if let Some(p) = partitioner {
        let _ = writeln!(manifest, "partitioner\t{}", p.name());
    }
    // The manifest is written last: its presence marks the index
    // complete, so it must never exist before every segment is sealed.
    let manifest_tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    std::fs::write(&manifest_tmp, manifest)?;
    std::fs::rename(&manifest_tmp, dir.join(MANIFEST_FILE))?;

    Ok(IndexMeta {
        dir: dir.to_path_buf(),
        corpus: corpus.to_string(),
        method: computation.method().name().to_string(),
        count_mode: mode.to_string(),
        tau: params.tau,
        sigma: params.sigma as u64,
        codec: opts.codec,
        segments: metas.len() as u64,
        entries,
        partitioner,
    })
}

/// An opened statistics index: manifest + dictionary + segment readers +
/// hot-term cache. Query methods take `&self`; the cache mutex is the
/// only shared mutable state, so one index serves many worker threads.
pub struct StatsIndex {
    meta: IndexMeta,
    dictionary: Dictionary,
    segments: Vec<SegmentReader>,
    /// Every segment's stored top entries, highest count first (ascending
    /// gram among equals) — merged once at open.
    top: Vec<(u64, Vec<u8>)>,
    /// The largest `k` for which `top[..k]` is provably the global top-k.
    top_covers: usize,
    cache: Mutex<LruCache>,
    /// Cache hits that answered "not present" from a cached empty value
    /// (a subset of the hits in [`StatsIndex::cache_stats`]).
    negative_hits: std::sync::atomic::AtomicU64,
}

impl StatsIndex {
    /// Open the index at `dir` with the default cache budget.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with_cache(dir, DEFAULT_CACHE_BYTES)
    }

    /// Open the index at `dir` with a `cache_bytes` hot-term cache
    /// (0 disables caching in practice: nothing fits).
    pub fn open_with_cache(dir: &Path, cache_bytes: usize) -> Result<Self> {
        // The manifest is the build's commit record — written last, so
        // its absence means the build never finished (or this is not an
        // index directory at all). Refuse with a typed error instead of
        // serving whatever segments happen to exist.
        let incomplete = |missing: String| MrError::IndexIncomplete {
            dir: dir.display().to_string(),
            missing,
        };
        if !dir.join(MANIFEST_FILE).is_file() {
            return Err(incomplete(MANIFEST_FILE.to_string()));
        }
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let mut corpus = None;
        let mut method = None;
        let mut count_mode = None;
        let mut tau = None;
        let mut sigma = None;
        let mut codec = None;
        let mut segments = None;
        let mut entries = None;
        let mut partitioner = None;
        for line in manifest.lines() {
            let Some((key, value)) = line.split_once('\t') else {
                return Err(bad("manifest line is not key\\tvalue"));
            };
            match key {
                "format" if value.parse::<u64>().ok() != Some(INDEX_FORMAT) => {
                    return Err(bad("unsupported index format version"));
                }
                "format" => {}
                "corpus" => corpus = Some(value.to_string()),
                "method" => method = Some(value.to_string()),
                "count_mode" => count_mode = Some(value.to_string()),
                "tau" => tau = value.parse::<u64>().ok(),
                "sigma" => sigma = value.parse::<u64>().ok(),
                "codec" => codec = RunCodec::parse(value),
                "segments" => segments = value.parse::<u64>().ok(),
                "entries" => entries = value.parse::<u64>().ok(),
                "partitioner" => {
                    let p = OutputPartitioner::parse(value);
                    partitioner = Some(p.ok_or(bad("unknown partitioner in manifest"))?);
                }
                _ => {} // forward compatibility: ignore unknown keys
            }
        }
        let meta = IndexMeta {
            dir: dir.to_path_buf(),
            corpus: corpus.ok_or(bad("manifest missing corpus"))?,
            method: method.ok_or(bad("manifest missing method"))?,
            count_mode: count_mode.ok_or(bad("manifest missing count_mode"))?,
            tau: tau.ok_or(bad("manifest missing tau"))?,
            sigma: sigma.ok_or(bad("manifest missing sigma"))?,
            codec: codec.ok_or(bad("manifest missing codec"))?,
            segments: segments.ok_or(bad("manifest missing segments"))?,
            entries: entries.ok_or(bad("manifest missing entries"))?,
            partitioner,
        };

        if !dir.join(TERMS_FILE).is_file() {
            return Err(incomplete(TERMS_FILE.to_string()));
        }
        let terms = std::fs::read_to_string(dir.join(TERMS_FILE))?;
        let counts = terms
            .lines()
            .map(|line| {
                let (term, cf) = line.split_once('\t').ok_or(bad("terms.tsv line"))?;
                let cf = cf.parse::<u64>().map_err(|_| bad("terms.tsv count"))?;
                Ok((term.to_string(), cf))
            })
            .collect::<Result<Vec<_>>>()?;
        let dictionary = Dictionary::from_counts(counts);

        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|e| e == "seg")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("part-"))
            })
            .collect();
        paths.sort();
        if (paths.len() as u64) < meta.segments {
            return Err(incomplete(format!(
                "{} of {} segments",
                meta.segments - paths.len() as u64,
                meta.segments
            )));
        }
        if paths.len() as u64 != meta.segments {
            return Err(bad("segment count disagrees with manifest"));
        }
        let mut segs = Vec::with_capacity(paths.len());
        let mut total = 0u64;
        for p in &paths {
            let r = SegmentReader::open(p)?;
            if r.codec() != meta.codec {
                return Err(bad("segment codec disagrees with manifest"));
            }
            total += r.entries();
            segs.push(r);
        }
        if total != meta.entries {
            return Err(bad("entry count disagrees with manifest"));
        }
        if let Some(p) = meta.partitioner {
            if segs.is_empty() {
                return Err(bad("manifest names a partitioner but no segments"));
            }
            // Routing trusts the manifest, so hold it to the segments: the
            // first and last key of each must route to that segment. Both
            // sit in the block index — no block is read.
            for (i, seg) in segs.iter().enumerate() {
                let Some((first, last)) = seg.key_range() else {
                    continue;
                };
                for key in [first, last] {
                    let gram: Gram = mapreduce::from_bytes(key)?;
                    if p.partition(&gram, segs.len()) != i {
                        return Err(bad("segment keys disagree with the manifest's partitioner"));
                    }
                }
            }
        }

        // The global top-k is a prefix of the merged per-segment lists iff
        // every list either holds k entries or is exhaustive for its
        // segment.
        let mut top: Vec<(u64, Vec<u8>)> = segs
            .iter()
            .flat_map(|s| s.top_entries().iter().cloned())
            .collect();
        top.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let top_covers = segs
            .iter()
            .filter(|s| (s.top_entries().len() as u64) < s.entries())
            .map(|s| s.top_entries().len())
            .min()
            .unwrap_or(usize::MAX);
        Ok(StatsIndex {
            meta,
            dictionary,
            segments: segs,
            top,
            top_covers,
            cache: Mutex::new(LruCache::new(cache_bytes)),
            negative_hits: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The manifest metadata.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// The collection's dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Total entries served.
    pub fn entries(&self) -> u64 {
        self.meta.entries
    }

    /// `(hits, misses)` of the hot-term cache since open.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().stats()
    }

    /// Cache hits that answered "below τ / unknown" from a cached empty
    /// value — the negative-lookup share of the hits in
    /// [`StatsIndex::cache_stats`].
    pub fn cache_negative_hits(&self) -> u64 {
        self.negative_hits
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Current bytes held by the hot-term cache.
    pub fn cache_used_bytes(&self) -> usize {
        self.cache.lock().used_bytes()
    }

    /// Encode query text into term ids; `None` if any token is
    /// out-of-vocabulary (such a gram cannot have been counted).
    pub fn encode(&self, text: &str) -> Option<Vec<u32>> {
        let terms: Option<Vec<u32>> = text
            .split_whitespace()
            .map(|t| self.dictionary.id(t))
            .collect();
        terms.filter(|t| !t.is_empty())
    }

    /// Decode a raw segment key back to query text.
    fn decode_key(&self, key: &[u8]) -> Result<String> {
        let gram: Gram = mapreduce::from_bytes(key)?;
        Ok(self.dictionary.decode(gram.terms()))
    }

    /// Point lookup by query text (whitespace-separated terms). `None`
    /// when the gram is below τ, too long, or contains unknown terms.
    pub fn lookup(&self, text: &str) -> Result<Option<u64>> {
        match self.encode(text) {
            Some(terms) => self.lookup_gram(&terms),
            None => Ok(None),
        }
    }

    /// The segments that can hold `gram` — or, with `extensions`, any
    /// gram it is a prefix of: the one segment the manifest's partitioner
    /// routes to, or all of them when it names none (or, for extensions,
    /// none that keeps them together).
    fn segments_for(&self, gram: &Gram, extensions: bool) -> &[SegmentReader] {
        let p = match self.meta.partitioner {
            // Extensions share the gram's first term, hence its segment.
            Some(p) if !extensions || (p == OutputPartitioner::FirstTerm && !gram.is_empty()) => p,
            _ => return &self.segments,
        };
        let i = p.partition(gram, self.segments.len());
        &self.segments[i..=i]
    }

    /// Point lookup by term ids, through the hot-term cache.
    pub fn lookup_gram(&self, terms: &[u32]) -> Result<Option<u64>> {
        let gram = Gram::new(terms);
        let key = to_bytes(&gram);
        {
            let mut cache = self.cache.lock();
            if let Some(value) = cache.get(&key) {
                // Empty value = cached negative (counts are ≥ τ ≥ 1).
                if value.is_empty() {
                    self.negative_hits
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    return Ok(None);
                }
                let mut pos = 0usize;
                return Ok(Some(read_vu64_at(value, &mut pos)?));
            }
        }
        let mut found = None;
        for seg in self.segments_for(&gram, false) {
            if let Some(count) = seg.lookup(&key)? {
                found = Some(count);
                break; // grams are unique across partitions
            }
        }
        let mut value = Vec::new();
        if let Some(count) = found {
            write_vu64(&mut value, count);
        }
        self.cache.lock().put(&key, &value);
        Ok(found)
    }

    /// All grams extending `text`, ascending by gram, capped at `limit`.
    /// The empty prefix enumerates the whole index. Results are decoded
    /// to text. Prefix here means *term* prefix: `"new york"` matches
    /// `"new york times"` but not `"new yorkshire"`.
    pub fn prefix(&self, text: &str, limit: usize) -> Result<Vec<(String, u64)>> {
        let trimmed = text.trim();
        let prefix = if trimmed.is_empty() {
            Gram::default()
        } else {
            match self.encode(trimmed) {
                Some(terms) => Gram(terms),
                None => return Ok(Vec::new()),
            }
        };
        let prefix_key = to_bytes(&prefix);
        let segments = self.segments_for(&prefix, true);
        // Each segment holds a slice of the range: take up to `limit` rows
        // from each, then sort by key to make the output globally ordered.
        let mut rows: Vec<(Vec<u8>, u64)> = Vec::new();
        for seg in segments {
            let base = rows.len();
            seg.scan_prefix(&prefix_key, &mut |k, c| {
                rows.push((k.to_vec(), c));
                Ok(rows.len() - base < limit)
            })?;
        }
        if segments.len() > 1 {
            rows.sort();
        }
        rows.truncate(limit);
        rows.into_iter()
            .map(|(k, c)| Ok((self.decode_key(&k)?, c)))
            .collect()
    }

    /// The `k` highest-frequency grams (ties broken by gram order),
    /// decoded to text. Served from the top list merged at open when it
    /// covers `k`; otherwise falls back to a full scan.
    pub fn topk(&self, k: usize) -> Result<Vec<(String, u64)>> {
        if k <= self.top_covers {
            return self.top[..k.min(self.top.len())]
                .iter()
                .map(|(c, key)| Ok((self.decode_key(key)?, *c)))
                .collect();
        }
        let mut rows: Vec<(u64, Vec<u8>)> = Vec::new();
        for seg in &self.segments {
            seg.scan_all(&mut |key, c| {
                rows.push((c, key.to_vec()));
                Ok(())
            })?;
        }
        // Highest count first; among equals, ascending gram.
        rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        rows.truncate(k);
        rows.into_iter()
            .map(|(c, key)| Ok((self.decode_key(&key)?, c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{generate, CorpusProfile};
    use ngrams::{Method, NGramParams};

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("serve-index-{}-{tag}", std::process::id()))
    }

    fn build(tag: &str, opts: &IndexOptions) -> (StatsIndex, Vec<(String, u64)>) {
        let coll = generate(&CorpusProfile::tiny(tag, 30), 17);
        let cluster = Cluster::new(2);
        let params = NGramParams::new(2, 4);
        let computation = Computation::new(Method::SuffixSigma, &params).input(&coll);
        let expected: Vec<(String, u64)> = computation
            .run(&cluster)
            .unwrap()
            .grams
            .iter()
            .map(|(g, c)| (coll.dictionary.decode(g.terms()), *c))
            .collect();
        let dir = tmp_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        build_index(&cluster, &computation, &coll.dictionary, tag, &dir, opts).unwrap();
        (StatsIndex::open(&dir).unwrap(), expected)
    }

    #[test]
    fn index_serves_every_computed_gram() {
        let (index, expected) = build("roundtrip", &IndexOptions::default());
        assert!(!expected.is_empty());
        assert_eq!(index.entries(), expected.len() as u64);
        for (text, count) in &expected {
            assert_eq!(index.lookup(text).unwrap(), Some(*count), "gram {text:?}");
        }
        assert_eq!(index.lookup("definitely unknown words").unwrap(), None);
        // Second pass hits the cache.
        let (h0, _) = index.cache_stats();
        for (text, _) in expected.iter().take(5) {
            index.lookup(text).unwrap();
        }
        let (h1, _) = index.cache_stats();
        assert_eq!(h1 - h0, 5);
        let _ = std::fs::remove_dir_all(&index.meta().dir);
    }

    #[test]
    fn prefix_and_topk_agree_with_the_full_listing() {
        let (index, mut expected) = build("queries", &IndexOptions::default());
        // prefix("") enumerates everything in gram order. `expected` is
        // sorted by Gram already (driver sorts); decoded rows follow it.
        let all = index.prefix("", usize::MAX).unwrap();
        assert_eq!(all.len(), expected.len());
        assert_eq!(
            all.iter().map(|(_, c)| *c).sum::<u64>(),
            expected.iter().map(|(_, c)| *c).sum::<u64>()
        );
        // A one-term prefix returns exactly the extensions.
        let first_term = expected[0].0.split_whitespace().next().unwrap().to_string();
        let hits = index.prefix(&first_term, usize::MAX).unwrap();
        for (text, _) in &hits {
            assert!(
                text == &first_term || text.starts_with(&format!("{first_term} ")),
                "{text:?} does not extend {first_term:?}"
            );
        }
        assert!(!hits.is_empty());
        // topk matches a count-sorted listing.
        expected.sort_by_key(|e| std::cmp::Reverse(e.1));
        let top = index.topk(3).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(
            top.iter().map(|(_, c)| *c).collect::<Vec<_>>(),
            expected.iter().take(3).map(|(_, c)| *c).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&index.meta().dir);
    }

    #[test]
    fn topk_falls_back_to_scan_when_stored_tops_are_short() {
        let opts = IndexOptions {
            top_entries: 1,
            ..IndexOptions::default()
        };
        let (index, mut expected) = build("fallback", &opts);
        expected.sort_by_key(|e| std::cmp::Reverse(e.1));
        let k = 5.min(expected.len());
        let top = index.topk(k).unwrap();
        assert_eq!(
            top.iter().map(|(_, c)| *c).collect::<Vec<_>>(),
            expected.iter().take(k).map(|(_, c)| *c).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&index.meta().dir);
    }

    #[test]
    fn partial_index_is_refused_with_a_typed_error() {
        let (index, _) = build("partial", &IndexOptions::default());
        let dir = index.meta().dir.clone();
        drop(index);

        // A segment named by the manifest is gone: mid-write copy.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let stashed = std::fs::read(&seg).unwrap();
        std::fs::remove_file(&seg).unwrap();
        let err = StatsIndex::open(&dir)
            .err()
            .expect("missing segment must refuse open");
        assert!(
            matches!(&err, MrError::IndexIncomplete { .. }),
            "wanted IndexIncomplete, got {err:?}"
        );
        std::fs::write(&seg, stashed).unwrap();
        assert!(StatsIndex::open(&dir).is_ok(), "restored index must open");

        // No MANIFEST: the build never committed.
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = StatsIndex::open(&dir)
            .err()
            .expect("missing manifest must refuse open");
        assert!(
            matches!(&err, MrError::IndexIncomplete { missing, .. } if missing == MANIFEST_FILE),
            "wanted IndexIncomplete(MANIFEST), got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_metadata() {
        let (index, _) = build("meta", &IndexOptions::default());
        let meta = index.meta();
        assert_eq!(meta.method, "SUFFIX-SIGMA");
        assert_eq!(meta.count_mode, "cf");
        assert_eq!(meta.tau, 2);
        assert_eq!(meta.sigma, 4);
        assert_eq!(meta.codec, RunCodec::FrontCoded);
        let _ = std::fs::remove_dir_all(meta.dir.clone());
    }
}
