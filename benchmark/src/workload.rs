//! The three workloads. Each is one full scenario — corpus store on disk →
//! four `compute` runs → index build → served queries — and differs from
//! the others in which layers carry the run (see `README.md`).

use corpus::{CorpusProfile, StoreCodec};
use mapreduce::RunCodec;
use ngrams::NGramParams;

/// How `/ngram` keys are drawn from the frequency-ranked gram list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeySkew {
    /// Minimum of two uniform draws: quadratically favours frequent grams.
    Hot,
    Uniform,
}

/// One traffic mix of the serve phase.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub name: &'static str,
    /// `StatsIndex::open_with_cache` budget.
    pub cache_bytes: usize,
    /// Whether set-up touches every gram once before the load phase.
    pub prewarm: bool,
    /// Shares in percent; `/topk` takes the remainder.
    pub ngram_pct: u64,
    pub prefix_pct: u64,
    pub skew: KeySkew,
    /// Percent of `/ngram` requests asking for an n-gram that is not served.
    pub absent_pct: u64,
    pub prefix_limit: usize,
    pub topk_k: usize,
    /// Requests per batch over both connections. A batch is the lifetime of
    /// one pair of connections; many short ones average over where the
    /// scheduler happens to put the threads serving them.
    pub batch_requests: usize,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    profile: fn(f64) -> CorpusProfile,
    /// Corpus scale of one run (the document pool is `1 / KEEP_SHARE` larger).
    pub scale: f64,
    /// Seed of the document pool every run of this workload samples from.
    pub pool_seed: u64,
    pub store_codec: StoreCodec,
    pub tau: u64,
    pub sigma: usize,
    /// Small-buffer engine settings: 256 KiB sort buffer (hundreds of
    /// spills, high merge fan-in) and front-coded runs.
    pub lowmem: bool,
    /// Fan-in of the merge replay.
    pub replay_fan_in: usize,
    pub mix: Mix,
}

/// Share of the pool's documents one run draws. The profiles reuse a
/// Zipf-ranked phrase library, so whether the few dominant phrases of a
/// freshly generated corpus are 5 or 220 tokens long is a coin flip per
/// seed that no corpus size averages out (web-s50 walls spread 25% across
/// seeds). Runs therefore share one pool per workload and `--seed` draws
/// which documents of it a run sees: different inputs, same heavy tail.
pub const KEEP_SHARE: f64 = 0.9;

/// `--smoke` shrinks every corpus by this factor (nyt-like: 0.02 scale,
/// about a hundred documents per workload).
pub const SMOKE_FACTOR: f64 = 0.04;

const NYT_SCALE: f64 = 0.5;
const WEB_SCALE: f64 = 0.1;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "nyt-s5",
        why: "language-model case (tau=5 sigma=5) at engine defaults: CPU-bound map fn, in-memory sort and reduce fn; serving is HTTP parse/serialize plus cache hits",
        profile: CorpusProfile::nyt_like,
        scale: NYT_SCALE,
        pool_seed: 1987,
        store_codec: StoreCodec::Plain,
        tau: 5,
        sigma: 5,
        lowmem: false,
        replay_fan_in: 8,
        mix: Mix {
            name: "hot",
            cache_bytes: serve::DEFAULT_CACHE_BYTES,
            prewarm: true,
            ngram_pct: 80,
            prefix_pct: 15,
            skew: KeySkew::Hot,
            absent_pct: 0,
            prefix_limit: 50,
            topk_k: 10,
            batch_requests: 2_500,
        },
    },
    Workload {
        name: "nyt-s5-lowmem",
        why: "same corpus and output with small buffers: lz store, 256 KiB sort buffers (100+ spills per job chain), front-coded runs, high merge fan-in; serving misses a 64 KiB cache",
        profile: CorpusProfile::nyt_like,
        scale: NYT_SCALE,
        pool_seed: 1987,
        store_codec: StoreCodec::Lz,
        tau: 5,
        sigma: 5,
        lowmem: true,
        replay_fan_in: 64,
        mix: Mix {
            name: "cold",
            cache_bytes: 64 * 1024,
            prewarm: false,
            ngram_pct: 80,
            prefix_pct: 15,
            skew: KeySkew::Uniform,
            absent_pct: 20,
            prefix_limit: 50,
            topk_k: 10,
            batch_requests: 2_500,
        },
    },
    Workload {
        name: "web-s50",
        why: "large-sigma analytics case (tau=10 sigma=50) on a duplicate-heavy corpus: NAIVE records grow with sigma, APRIORI chains 50 jobs; serving is scan and JSON bound",
        profile: CorpusProfile::web_like,
        scale: WEB_SCALE,
        pool_seed: 2009,
        store_codec: StoreCodec::Plain,
        tau: 10,
        sigma: 50,
        lowmem: false,
        replay_fan_in: 8,
        mix: Mix {
            name: "scan",
            cache_bytes: serve::DEFAULT_CACHE_BYTES,
            prewarm: true,
            ngram_pct: 30,
            prefix_pct: 60,
            skew: KeySkew::Hot,
            absent_pct: 0,
            prefix_limit: 200,
            topk_k: 100,
            batch_requests: 2_000,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Profile of the document pool, at this workload's scale or `--smoke`'s.
    pub fn pool_profile(&self, smoke: bool) -> CorpusProfile {
        let factor = if smoke { SMOKE_FACTOR } else { 1.0 };
        (self.profile)(self.scale * factor / KEEP_SHARE)
    }

    /// Engine parameters of every compute run of this workload.
    pub fn params(&self) -> NGramParams {
        let mut params = NGramParams::new(self.tau, self.sigma);
        params.job.run_codec = self.run_codec();
        if self.lowmem {
            params.job.sort_buffer_bytes = 256 * 1024;
        }
        params
    }

    /// Run codec of this workload's shuffle (also used by the run replay).
    pub fn run_codec(&self) -> RunCodec {
        if self.lowmem {
            RunCodec::FrontCoded
        } else {
            RunCodec::default()
        }
    }
}
