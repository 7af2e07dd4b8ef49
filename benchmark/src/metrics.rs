//! The metric vocabulary: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! lists the same names; a unit test keeps the two in step.

use crate::gate::Gate;
use crate::stats::{median, spread};
use mapreduce::json::{json_array, JsonObject};
use ngrams::Method;

/// The four methods with the label each carries in metric names; SUFFIX-σ
/// first because it is the warm-up method and runs most reps.
pub const METHODS: [(Method, &str); 4] = [
    (Method::SuffixSigma, "suffix_sigma"),
    (Method::Naive, "naive"),
    (Method::AprioriScan, "apriori_scan"),
    (Method::AprioriIndex, "apriori_index"),
];

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The ten metrics a user of the system would see; every workload reports
/// all of them from untraced reps.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: String, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    let mut defs = vec![bounded("setup_s".into(), "s", "lower", 0.25)];
    for (_, m) in METHODS {
        defs.push(bounded(format!("compute_s.{m}"), "s", "lower", 0.12));
    }
    defs.push(bounded("index_build_s".into(), "s", "lower", 0.10));
    defs.push(bounded("peak_rss_mb".into(), "MiB", "lower", 0.25));
    defs.push(bounded("serve_rps".into(), "req/s", "higher", 0.12));
    defs.push(bounded("serve_p50_us".into(), "us", "lower", 0.15));
    defs.push(bounded("serve_p99_us".into(), "us", "lower", 0.15));
    defs
}

/// Single-layer metrics, named after the module they observe. Reported by
/// the traced run only; they carry no bound.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for (_, m) in METHODS {
        for phase in ["setup", "map", "reduce", "seal"] {
            defs.push(def(format!("mapreduce.job.{phase}_s.{m}"), "s", "lower"));
        }
        defs.push(def(
            format!("ngrams.driver.unattributed_s.{m}"),
            "s",
            "lower",
        ));
        defs.push(def(format!("mapreduce.buffer.sort_s.{m}"), "s", "lower"));
        defs.push(def(format!("mapreduce.merge.merge_s.{m}"), "s", "lower"));
        defs.push(def(
            format!("mapreduce.job.task_skew.{m}"),
            "ratio",
            "lower",
        ));
        defs.push(def(
            format!("mapreduce.shuffle.records.{m}"),
            "count",
            "lower",
        ));
        defs.push(def(
            format!("mapreduce.shuffle.bytes.{m}"),
            "bytes",
            "lower",
        ));
        defs.push(def(
            format!("mapreduce.run.encoded_bytes.{m}"),
            "bytes",
            "lower",
        ));
        defs.push(def(
            format!("mapreduce.buffer.spills.{m}"),
            "count",
            "lower",
        ));
        defs.push(def(format!("mapreduce.job.jobs.{m}"), "count", "lower"));
        defs.push(def(format!("mapreduce.job.retries.{m}"), "count", "lower"));
        defs.push(def(
            format!("mapreduce.trace.overhead.{m}"),
            "ratio",
            "lower",
        ));
    }
    for (name, unit, better) in [
        ("corpus.store.open_s", "s", "lower"),
        ("corpus.store.read_s", "s", "lower"),
        ("corpus.store.blocks", "count", "lower"),
        ("corpus.store.disk_bytes", "bytes", "lower"),
        ("corpus.store.raw_bytes", "bytes", "lower"),
        ("ngrams.input.flatten_s", "s", "lower"),
        ("ngrams.input.records", "count", "lower"),
        ("ngrams.suffix_sigma.slots1_s", "s", "lower"),
        ("mapreduce.run.encode_s", "s", "lower"),
        ("mapreduce.run.decode_s", "s", "lower"),
        ("mapreduce.run.ratio", "ratio", "lower"),
        ("mapreduce.merge.replay_s", "s", "lower"),
        ("mapreduce.merge.fan_in", "count", "lower"),
        ("serve.segment.write_s", "s", "lower"),
        ("serve.segment.bytes", "bytes", "lower"),
        ("serve.segment.lookup_us", "us", "lower"),
        ("serve.segment.scan_us", "us", "lower"),
        ("serve.index.hit_us", "us", "lower"),
        ("serve.index.miss_us", "us", "lower"),
        ("serve.index.hit_rate", "ratio", "higher"),
        ("serve.index.negative_hits", "count", "higher"),
        ("serve.http.overhead_us", "us", "lower"),
        ("serve.http.p50_us.ngram", "us", "lower"),
        ("serve.http.p50_us.prefix", "us", "lower"),
        ("serve.http.p50_us.topk", "us", "lower"),
        ("serve.http.p999_us", "us", "lower"),
        ("serve.http.handler_mean_us.ngram", "us", "lower"),
        ("serve.http.handler_mean_us.prefix", "us", "lower"),
        ("serve.http.handler_mean_us.topk", "us", "lower"),
        ("serve.http.shed", "count", "lower"),
        ("serve.http.timeouts", "count", "lower"),
        ("serve.http.errors", "count", "lower"),
    ] {
        defs.push(def(name, unit, better));
    }
    defs
}

/// One reported value with the samples behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// What one run measured, in report order.
#[derive(Default)]
pub struct Report {
    pub values: Vec<Measured>,
}

impl Report {
    /// A value backed by no separate samples (a count, a single span).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push(Measured {
            name: name.into(),
            value,
            samples: vec![value],
        });
    }

    /// The median of `samples`, with the samples kept for the noise floor.
    pub fn set_median(&mut self, name: impl Into<String>, samples: Vec<f64>) {
        self.values.push(Measured {
            name: name.into(),
            value: median(&samples),
            samples,
        });
    }

    /// A value derived from `samples` by something other than the median.
    pub fn set_with_samples(&mut self, name: impl Into<String>, value: f64, samples: Vec<f64>) {
        self.values.push(Measured {
            name: name.into(),
            value,
            samples,
        });
    }

    /// Check the report against `defs`: every defined metric present exactly
    /// once, nothing else, every value finite. Each violation fails `gate`.
    pub fn validate(&self, defs: &[MetricDef], gate: &mut Gate) {
        for d in defs {
            let n = self.values.iter().filter(|m| m.name == d.name).count();
            if n != 1 {
                gate.fail(format!("metric {} reported {n} times", d.name));
            }
        }
        for m in &self.values {
            if !defs.iter().any(|d| d.name == m.name) {
                gate.fail(format!("metric {} is not in the vocabulary", m.name));
            }
            if !m.value.is_finite() {
                gate.fail(format!("metric {} is not finite", m.name));
            }
        }
    }

    /// The `metrics` object of the result line: `{name: {value, unit}}`.
    pub fn metrics_json(&self, defs: &[MetricDef]) -> String {
        let mut o = JsonObject::new();
        for m in &self.values {
            let Some(d) = defs.iter().find(|d| d.name == m.name) else {
                continue;
            };
            let mut entry = JsonObject::new();
            entry
                .field("value", &number(m.value))
                .field_str("unit", d.unit);
            o.field(&m.name, &entry.finish());
        }
        o.finish()
    }

    /// The detailed form for `--out`: value, unit, samples, median and
    /// `(max − min) / median` per metric.
    pub fn detail_json(&self, defs: &[MetricDef]) -> String {
        let mut o = JsonObject::new();
        for m in &self.values {
            let Some(d) = defs.iter().find(|d| d.name == m.name) else {
                continue;
            };
            let mut entry = JsonObject::new();
            entry
                .field("value", &number(m.value))
                .field_str("unit", d.unit)
                .field_str("better", d.better)
                .field("samples", &json_array(m.samples.iter().map(|s| number(*s))))
                .field("median", &number(median(&m.samples)))
                .field("spread", &number(spread(&m.samples)));
            if let Some(bound) = d.bound {
                entry.field("bound", &number(bound));
            }
            o.field(&m.name, &entry.finish());
        }
        o.finish()
    }
}

/// A number as measured, with all its digits; non-finite values (already
/// failed by [`Report::validate`]) print as `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The last stdout line of a single-workload run.
pub fn result_line(gate: &Gate, report: &Report, defs: &[MetricDef]) -> String {
    let mut o = JsonObject::new();
    o.field("correct", if gate.ok() { "true" } else { "false" })
        .field_u64("attempted", gate.attempted.max(1))
        .field_u64("failed", gate.failed)
        .field("metrics", &report.metrics_json(defs));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// `BENCHMARK.json` sits next to the package in the repository.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn full_report(defs: &[MetricDef]) -> Report {
        let mut report = Report::default();
        for (i, d) in defs.iter().enumerate() {
            report.set_median(d.name.clone(), vec![1.5 + i as f64, 2.5 + i as f64]);
        }
        report
    }

    #[test]
    fn vocabulary_matches_benchmark_json() {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (entry, d) in listed.iter().zip(&defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(d.name.as_str()));
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(d.unit));
                assert_eq!(entry.get("better").unwrap().as_str(), Some(d.better));
                assert_eq!(entry.get("bound").and_then(|b| b.as_f64()), d.bound);
            }
        }
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).unwrap().as_str().unwrap();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn vocabulary_respects_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert_eq!(e2e.len(), 10);
        assert!(layers.len() <= 128);
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are unique");
        for d in e2e.iter().chain(&layers) {
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }

    #[test]
    fn result_line_parses_and_names_every_metric() {
        for defs in [end_to_end(), per_layer()] {
            let report = full_report(&defs);
            let mut gate = Gate::default();
            gate.absorb(3, 0, Vec::new());
            report.validate(&defs, &mut gate);
            assert!(gate.ok(), "{:?}", gate.notes);
            let line = result_line(&gate, &report, &defs);
            assert!(!line.contains('\n'));
            let doc = parse(&line).unwrap();
            let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
            assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(3));
            let metrics = doc.get("metrics").unwrap();
            assert_eq!(metrics.members().len(), defs.len());
            for d in &defs {
                let m = metrics.get(&d.name).unwrap_or_else(|| panic!("{}", d.name));
                assert!(m.get("value").unwrap().as_f64().is_some());
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit));
            }
            let detail = parse(&report.detail_json(&defs)).unwrap();
            let first = detail.get(&defs[0].name).unwrap();
            assert_eq!(first.get("samples").unwrap().as_array().unwrap().len(), 2);
            assert_eq!(first.get("spread").unwrap().as_f64(), Some(0.5));
        }
    }

    #[test]
    fn validate_fails_missing_unknown_and_non_finite_metrics() {
        let defs = end_to_end();
        let mut report = full_report(&defs);
        report.values.remove(0);
        report.set("not.a.metric", 1.0);
        report.values[0].value = f64::NAN;
        let mut gate = Gate::default();
        report.validate(&defs, &mut gate);
        assert_eq!(gate.failed, 3, "{:?}", gate.notes);
        let line = result_line(&gate, &report, &defs);
        assert_eq!(
            parse(&line).unwrap().get("correct").unwrap().as_bool(),
            Some(false)
        );
    }
}
