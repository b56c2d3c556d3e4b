//! The one benchmark for Starling. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--check]
//! benchmark --set [--repeat K] [--same-seed] [--seed N] [--seconds S] [--check]
//! benchmark --manifest
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload in
//! this process, every metric printed by name, and as the last line of
//! standard output one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics untraced, the per-layer metrics
//! traced. `--set` runs every workload both ways, each in a process of its
//! own; `--manifest` prints `BENCHMARK.json`.

mod measure;
mod probes;
mod registry;
mod set;
mod shadow;
mod workloads;

use starling_sql::json::Json;

use registry::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Report, RunCfg};

/// Where traces and result sets go; listed in `.gitignore`.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    set: bool,
    repeat: usize,
    same_seed: bool,
    manifest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--check]\n       \
         benchmark --set [--repeat K] [--same-seed] [--seed N] [--seconds S] [--check]\n       \
         benchmark --manifest\nworkloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(registry::RUN_SECONDS),
        trace: false,
        check: false,
        set: false,
        repeat: 1,
        same_seed: false,
        manifest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = matches!(value().as_str(), "1" | "true"),
            "--repeat" => a.repeat = value().parse().unwrap_or_else(|_| usage()),
            "--check" => a.check = true,
            "--set" => a.set = true,
            "--same-seed" => a.same_seed = true,
            "--manifest" => a.manifest = true,
            _ => usage(),
        }
    }
    a
}

/// The default engine is what is measured: an inherited override would
/// silently benchmark the row or interpreter path.
fn assert_default_engine() {
    for var in ["STARLING_EVAL_MODE", "STARLING_FORCE_INTERP"] {
        assert!(
            std::env::var_os(var).is_none(),
            "{var} is set; unset it so the default columnar engine is measured"
        );
    }
}

/// The run's last line: exactly the metrics `BENCHMARK.json` lists for this
/// kind of run, each with every digit measured.
fn result_line(report: &Report, listed: &[Metric]) -> String {
    let metrics = listed.iter().map(|m| {
        // A layer off the workload's path reads 0; so does a ratio of
        // nothing, which has no JSON number.
        let value = report
            .metrics
            .get(m.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        (
            m.name,
            Json::obj([("value", Json::Float(value)), ("unit", Json::from(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Int(report.attempted.max(1) as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

fn run_workload(a: &Args, name: &str) -> i32 {
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
        usage()
    };
    assert_default_engine();
    let cfg = RunCfg {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        check: a.check,
    };
    let mut report = (workload.run)(&cfg);
    let listed = if a.trace { PER_LAYER } else { END_TO_END };

    println!(
        "workload {name}  seed {}  seconds {}  trace {}",
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("machine {}", measure::machine_shape(a.seed));
    for (key, value) in &report.notes {
        println!("note   {key:<40} {value}");
    }
    let shares = report
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("self_share."));
    if let Some((name, share)) = shares.max_by(|a, b| a.1.total_cmp(b.1)) {
        println!(
            "note   {:<40} {} ({:.0} % of the op)",
            "largest_self_time_layer",
            &name["self_share.".len()..],
            share * 100.0
        );
    }
    for m in listed {
        let value = report.metrics.get(m.name).copied().unwrap_or(0.0);
        println!("metric {:<40} {value:>16.4} {}", m.name, m.unit);
    }
    for name in report.metrics.keys() {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "workload reported `{name}`, which registry.rs does not list"
        );
    }
    println!(
        "fail_ratio {} / {} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    if let Some(trace) = report.trace.take() {
        let path = format!("{OUT_DIR}/trace-{name}.json");
        std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
        std::fs::write(&path, trace.to_string()).expect("write trace");
        println!("trace  {path}");
    }
    println!("{}", result_line(&report, listed));
    i32::from(report.failed > 0)
}

fn main() {
    let a = parse_args();
    let code = if a.manifest {
        println!("{}", set::pretty(&registry::manifest()));
        0
    } else if a.set {
        set::run(a.repeat, a.seed, a.seconds, a.check, a.same_seed)
    } else if let Some(name) = &a.workload {
        run_workload(&a, name)
    } else {
        usage()
    };
    std::process::exit(code);
}
