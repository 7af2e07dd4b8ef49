//! §V ablation — the implementation techniques the paper calls out,
//! each toggled in isolation:
//!
//! * document splits at infrequent terms ("all methods profit — for large
//!   values of σ in particular");
//! * NAÏVE's combiner (local pre-aggregation);
//! * raw comparator vs deserializing comparator for SUFFIX-σ's sort.

use mapreduce::{Cluster, Counter, Job, JobConfig, RawComparator};
use ngrams::{
    prepare_input, reverse_lex, Computation, CountAgg, EmitFilter, FirstTermPartitioner, Gram,
    Method, NGramParams, ReverseLexComparator, StackReducer, SuffixMapper,
};

/// Deserializing twin of [`ReverseLexComparator`] — what SUFFIX-σ's sort
/// would cost without the §V raw-comparator optimization. It keeps the
/// trait's default `digest` (`None`): every sort and merge comparison goes
/// through the decoding `compare`, which is the cost being measured.
struct DecodedReverseLex;

impl RawComparator for DecodedReverseLex {
    fn compare(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        let ga: Gram = mapreduce::from_bytes(a).expect("valid gram");
        let gb: Gram = mapreduce::from_bytes(b).expect("valid gram");
        reverse_lex(&ga, &gb)
    }
}

fn suffix_job_wall(
    cluster: &Cluster,
    input: Vec<(u64, ngrams::InputSeq)>,
    tau: u64,
    sigma: usize,
    raw: bool,
) -> std::time::Duration {
    let job = Job::<SuffixMapper<CountAgg>, StackReducer<CountAgg>>::new(
        JobConfig::named(if raw { "raw-cmp" } else { "decoded-cmp" }),
        move || SuffixMapper {
            sigma,
            agg: CountAgg { tau },
        },
        move || StackReducer::new(CountAgg { tau }, EmitFilter::All),
    )
    .partitioner(FirstTermPartitioner);
    let result = if raw {
        job.sort_comparator(ReverseLexComparator)
            .run(cluster, input)
    } else {
        job.sort_comparator(DecodedReverseLex).run(cluster, input)
    }
    .expect("job failed");
    result.elapsed
}

fn main() {
    let scale = bench::scale_from_env();
    let cluster = bench::cluster_from_env();
    let (nyt, _) = bench::corpora(scale);
    let coll = &nyt;
    println!("corpus: {} ({} tokens)", coll.name, coll.term_occurrences());

    // --- Document splits (§V), per method, large σ. ---
    let mut rows = Vec::new();
    for &method in &Method::ALL {
        let tau = 10;
        let on = Computation::new(
            method,
            &NGramParams {
                split_docs: true,
                ..NGramParams::new(tau, 50)
            },
        )
        .input(coll)
        .run(&cluster)
        .unwrap();
        let off = Computation::new(
            method,
            &NGramParams {
                split_docs: false,
                ..NGramParams::new(tau, 50)
            },
        )
        .input(coll)
        .run(&cluster)
        .unwrap();
        assert_eq!(on.grams, off.grams);
        rows.push(vec![
            method.name().to_string(),
            bench::fmt_duration(off.elapsed),
            bench::fmt_duration(on.elapsed),
            bench::fmt_count(off.counters.get(Counter::MapOutputRecords)),
            bench::fmt_count(on.counters.get(Counter::MapOutputRecords)),
            format!(
                "{:.2}x",
                off.counters.get(Counter::MapOutputRecords) as f64
                    / on.counters.get(Counter::MapOutputRecords).max(1) as f64
            ),
        ]);
    }
    bench::print_table(
        "§V document splits (τ=10, σ=50): off vs on",
        &[
            "method",
            "wall off",
            "wall on",
            "records off",
            "records on",
            "record ratio",
        ],
        &rows,
    );

    // --- NAÏVE combiner. ---
    let mut rows = Vec::new();
    for combiner in [false, true] {
        let result = Computation::new(
            Method::Naive,
            &NGramParams {
                combiner,
                ..NGramParams::new(5, 5)
            },
        )
        .input(coll)
        .run(&cluster)
        .unwrap();
        rows.push(vec![
            if combiner {
                "with combiner"
            } else {
                "no combiner"
            }
            .to_string(),
            bench::fmt_duration(result.elapsed),
            bench::fmt_count(result.counters.get(Counter::MapOutputRecords)),
            bench::fmt_count(result.counters.get(Counter::ReduceInputRecords)),
            bench::fmt_bytes(result.counters.get(Counter::ShuffleBytes)),
        ]);
    }
    bench::print_table(
        "§III-A NAIVE combiner (τ=5, σ=5)",
        &[
            "config",
            "wall",
            "map records",
            "reduce records",
            "shuffled",
        ],
        &rows,
    );

    // --- Raw vs deserializing comparator for SUFFIX-σ. ---
    let input = prepare_input(coll, 5, true);
    let mut rows = Vec::new();
    for raw in [true, false] {
        let wall = suffix_job_wall(&cluster, input.clone(), 5, 5, raw);
        rows.push(vec![
            if raw {
                "raw comparator (varint-decoding)"
            } else {
                "deserializing comparator"
            }
            .to_string(),
            bench::fmt_duration(wall),
        ]);
    }
    bench::print_table(
        "§V raw comparator for SUFFIX-σ's sort (τ=5, σ=5)",
        &["comparator", "wall"],
        &rows,
    );

    println!(
        "\npaper claims: splits shrink work for every method (most at large σ);\nthe combiner shrinks shuffled volume but not MAP_OUTPUT counters;\nraw comparators avoid deserialization and object instantiation."
    );
}
