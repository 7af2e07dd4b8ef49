//! The repository's benchmark of record. See `README.md` next to the
//! manifest for the workloads, the metric glossary and how to read the
//! output; `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//! benchmark [--seed N] [--seconds S] [--out FILE]              every workload, both runs
//! benchmark --check-repeat                                     end-to-end metrics twice, compared
//! benchmark --smoke                                            tiny corpora, seconds in total
//! ```

mod compute;
mod gate;
mod json;
mod metrics;
mod replay;
mod scenario;
mod serving;
mod spans;
mod stats;
mod workload;

use compute::Env;
use gate::Gate;
use mapreduce::json::{json_array, JsonObject};
use metrics::{MetricDef, Report};
use scenario::{Info, Options};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Workload, WORKLOADS};

/// Seed of corpus and query sequence when none is given.
const DEFAULT_SEED: u64 = 1987;
/// Measured seconds per run when none are given; `BENCHMARK.json` names
/// the same length as `run_seconds`.
const DEFAULT_SECONDS: f64 = 24.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1]\n       \
         [--smoke] [--check-repeat] [--out FILE] [--trace-out FILE]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => cli.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            "--out" => cli.out = Some(PathBuf::from(value())),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        usage();
    }
    cli
}

/// A private directory under the working directory — the benchmark reads
/// and writes nowhere else — removed again when the value drops.
struct Scratch(PathBuf);

impl Scratch {
    /// `None` (after saying why) when the directory cannot be created.
    fn create(tag: &str) -> Option<Scratch> {
        let made = std::env::current_dir().and_then(|cwd| {
            let dir = cwd
                .join(".bench_scratch")
                .join(format!("{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).map(|()| dir)
        });
        match made {
            Ok(dir) => Some(Scratch(dir)),
            Err(e) => {
                eprintln!("benchmark: cannot create scratch directory: {e}");
                None
            }
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Gone too once the last concurrent run has left.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn info_json(info: &Info) -> String {
    let mut o = JsonObject::new();
    for (k, v) in info {
        o.field_str(k, v);
    }
    o.finish()
}

/// One workload, in this process: print every metric, then the result line.
fn run_one(w: &'static Workload, cli: &Cli) -> ExitCode {
    let Some(scratch) = Scratch::create(&format!("{}-t{}", w.name, u8::from(cli.trace))) else {
        return ExitCode::FAILURE;
    };
    // Spill directories and sink spools of the engine default to the
    // system temp directory; keep them inside the checkout as well. Set
    // before any thread exists.
    std::env::set_var("TMPDIR", &scratch.0);
    let env = Env {
        scratch: scratch.0.clone(),
        nproc: nproc(),
        slots: nproc().min(2),
    };
    let opts = Options {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
    };
    let mut gate = Gate::default();
    let mut report = Report::default();
    let mut info: Info = vec![
        ("nproc".into(), env.nproc.to_string()),
        ("slots".into(), env.slots.to_string()),
        ("serve.connections".into(), serving::CONNECTIONS.to_string()),
        ("serve.mix".into(), w.mix.name.into()),
    ];
    let defs: Vec<MetricDef> = if cli.trace {
        let log = scenario::layers(w, &env, &opts, &mut gate, &mut report, &mut info);
        if let Some(path) = &cli.trace_out {
            if let Err(e) = std::fs::write(path, log.to_json()) {
                gate.fail(format!("cannot write {}: {e}", path.display()));
            }
        }
        metrics::per_layer()
    } else {
        scenario::end_to_end(w, &env, &opts, &mut gate, &mut report, &mut info);
        metrics::end_to_end()
    };
    report.validate(&defs, &mut gate);

    println!(
        "# {} seed={} seconds={} trace={}{}",
        w.name,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        if cli.smoke { " smoke" } else { "" }
    );
    println!("# why: {}", w.why);
    for (k, v) in &info {
        println!("# {k} = {v}");
    }
    for m in &report.values {
        let unit = defs
            .iter()
            .find(|d| d.name == m.name)
            .map_or("?", |d| d.unit);
        println!("{:<44} {:>16} {unit}", m.name, metrics::number(m.value));
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        gate.attempted, gate.failed
    );
    for note in &gate.notes {
        eprintln!("benchmark: FAILED: {note}");
    }
    if let Some(path) = &cli.out {
        let mut o = JsonObject::new();
        o.field_str("workload", w.name)
            .field_u64("trace", u64::from(cli.trace))
            .field_u64("seed", cli.seed)
            .field("seconds", &metrics::number(cli.seconds))
            .field("correct", if gate.ok() { "true" } else { "false" })
            .field_u64("ops_attempted", gate.attempted)
            .field_u64("ops_failed", gate.failed)
            .field(
                "notes",
                &json_array(gate.notes.iter().map(|n| {
                    let mut s = String::new();
                    mapreduce::json::write_json_str(&mut s, n);
                    s
                })),
            )
            .field("info", &info_json(&info))
            .field("metrics", &report.detail_json(&defs));
        if let Err(e) = std::fs::write(path, o.finish()) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", metrics::result_line(&gate, &report, &defs));
    if gate.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the suite keeps of one child run.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    /// The child's `--out` document; `None` when it died before writing one.
    detail: Option<json::Value>,
    raw: String,
}

impl ChildRun {
    fn ok(&self) -> bool {
        self.detail
            .as_ref()
            .and_then(|d| d.get("correct")?.as_bool())
            == Some(true)
    }

    fn ops(&self, key: &str) -> u64 {
        self.detail
            .as_ref()
            .and_then(|d| d.get(key)?.as_u64())
            .unwrap_or(0)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.detail
            .as_ref()?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn info(&self, key: &str) -> Option<&str> {
        self.detail.as_ref()?.get("info")?.get(key)?.as_str()
    }
}

/// Run one workload in a child process of this executable, so allocator,
/// page-cache and peak-RSS state do not leak between workloads. The child's
/// report passes through to stdout; its detail comes back through a file.
fn run_child(w: &'static Workload, trace: bool, cli: &Cli, dir: &Path) -> ChildRun {
    let out = dir.join(format!("{}-t{}.json", w.name, u8::from(trace)));
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(["--workload", w.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (trace, &cli.trace_out) {
        // One span file per workload, next to the name the user gave.
        let mut name = path.clone().into_os_string();
        name.push(format!(".{}", w.name));
        cmd.arg("--trace-out").arg(name);
    }
    // `status` waits for the child: nothing this process starts outlives it.
    let status = cmd.status();
    let raw = std::fs::read_to_string(&out).unwrap_or_default();
    let detail = json::parse(&raw).ok();
    if !matches!(&status, Ok(s) if s.success()) {
        eprintln!(
            "benchmark: {} trace={} exited with {status:?}",
            w.name,
            u8::from(trace)
        );
    }
    ChildRun {
        workload: w.name,
        trace,
        detail,
        raw,
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, untraced then traced, each in its own child process.
fn run_suite(cli: &Cli) -> ExitCode {
    let Some(scratch) = Scratch::create("suite") else {
        return ExitCode::FAILURE;
    };
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            runs.push(run_child(w, trace, cli, &scratch.0));
        }
    }
    let mut failed: u64 = runs.iter().map(|r| r.ops("ops_failed")).sum();
    let mut attempted: u64 = runs.iter().map(|r| r.ops("ops_attempted")).sum();
    failed += runs.iter().filter(|r| r.detail.is_none()).count() as u64;

    // Same corpus, seed, tau and sigma: the bounded-memory workload must
    // produce exactly the in-memory workload's output.
    let digest = |name: &str| {
        runs.iter()
            .find(|r| r.workload == name && !r.trace)
            .and_then(|r| r.info("output.digest"))
    };
    attempted += 1;
    if digest("nyt-s5").is_none() || digest("nyt-s5") != digest("nyt-s5-lowmem") {
        failed += 1;
        eprintln!(
            "benchmark: FAILED: nyt-s5-lowmem output {:?} differs from nyt-s5's {:?}",
            digest("nyt-s5-lowmem"),
            digest("nyt-s5")
        );
    }
    let correct = failed == 0 && runs.iter().all(ChildRun::ok);

    let mut doc = JsonObject::new();
    doc.field_u64("seed", cli.seed)
        .field("seconds", &metrics::number(cli.seconds))
        .field("smoke", if cli.smoke { "true" } else { "false" })
        .field_u64("nproc", nproc() as u64)
        .field_u64("slots", nproc().min(2) as u64)
        .field_str("rustc", &rustc_version())
        .field(
            "runs",
            &json_array(
                runs.iter()
                    .filter(|r| r.detail.is_some())
                    .map(|r| r.raw.clone()),
            ),
        )
        .field("correct", if correct { "true" } else { "false" })
        .field_u64("ops_attempted", attempted)
        .field_u64("ops_failed", failed)
        .field("claim", "null");
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, doc.finish()) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let mut summary = JsonObject::new();
    summary
        .field_u64("workloads", WORKLOADS.len() as u64)
        .field("correct", if correct { "true" } else { "false" })
        .field_u64("ops_attempted", attempted)
        .field_u64("ops_failed", failed)
        .field("claim", "null");
    println!("{}", summary.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Relative worsening of `second` against `first` in the metric's own
/// direction; negative when the second run was better.
fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    if def.better == "higher" {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// Two full sets of untraced runs of the same code; fails when any
/// end-to-end metric differs between them by more than its bound.
fn check_repeat(cli: &Cli) -> ExitCode {
    let Some(scratch) = Scratch::create("repeat") else {
        return ExitCode::FAILURE;
    };
    let sets: Vec<Vec<ChildRun>> = (0..2)
        .map(|_| {
            WORKLOADS
                .iter()
                .map(|w| run_child(w, false, cli, &scratch.0))
                .collect()
        })
        .collect();
    let defs = metrics::end_to_end();
    let mut ok = sets.iter().flatten().all(ChildRun::ok);
    println!(
        "| workload | metric | unit | first | second | difference | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|"
    );
    for (first, second) in sets[0].iter().zip(&sets[1]) {
        for def in &defs {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let (Some(a), Some(b)) = (first.metric(&def.name), second.metric(&def.name)) else {
                ok = false;
                println!(
                    "| {} | {} | {} | missing | | | | FAIL |",
                    first.workload, def.name, def.unit
                );
                continue;
            };
            let diff = worsening(def, a, b).abs();
            let within = diff <= bound;
            ok &= within;
            println!(
                "| {} | {} | {} | {a:.4} | {b:.4} | {:.2}% | {:.0}% | {} |",
                first.workload,
                def.name,
                def.unit,
                diff * 100.0,
                bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args);
    match &cli.workload {
        Some(name) => match workload::find(name) {
            Some(w) => run_one(w, &cli),
            None => usage(),
        },
        None if cli.check_repeat => check_repeat(&cli),
        None => run_suite(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_takes_the_driver_flags_in_any_order() {
        let args: Vec<String> = "--trace 1 --seconds 10 --workload web-s50 --seed 42"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args);
        assert_eq!(cli.workload.as_deref(), Some("web-s50"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (42, 10.0, true));
        let defaults = parse_cli(&[]);
        assert_eq!(defaults.seed, DEFAULT_SEED);
        assert!(!defaults.trace && !defaults.smoke && defaults.workload.is_none());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let defs = metrics::end_to_end();
        let rps = defs.iter().find(|d| d.name == "serve_rps").unwrap();
        let p50 = defs.iter().find(|d| d.name == "serve_p50_us").unwrap();
        assert!((worsening(rps, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(p50, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worsening(rps, 100.0, 110.0) < 0.0);
    }
}
