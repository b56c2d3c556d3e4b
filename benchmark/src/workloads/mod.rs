//! The six workloads and what they share: the run configuration, the
//! result a run reports, and the closed-loop timing helper.

use std::collections::BTreeMap;
use std::time::Instant;

use starling_sql::json::Json;

use crate::measure::{best_rate, median, ms_since, peak_rss_mb, quantile, tail, QUIET};

pub mod analyze_refine;
pub mod explore;
pub mod server_mix;
pub mod txn_durable;

/// One run of one workload.
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the untraced run
    /// (end-to-end metrics).
    pub trace: bool,
    /// 1/20-size inputs, for the smoke run.
    pub check: bool,
}

impl RunCfg {
    pub fn size(&self, full: usize) -> usize {
        if self.check {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// What a run reports. Metrics a workload never sets read 0 in the traced
/// pass: the layer is not on that workload's path.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Facts printed with the metrics: sample counts, pinned counts, which
    /// percentile the tail is.
    pub notes: Vec<(String, String)>,
    /// The span trace, written to `benchmark/out/` by `main`.
    pub trace: Option<Json>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Counts one output check; a failed one also prints why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("OUTPUT CHECK FAILED: {}", what());
        }
    }

    /// Fills the end-to-end metrics from the untraced run's samples:
    /// set-up and cold start as the fastest repetition, op latency at the
    /// [`QUIET`] quantile, throughput over the quietest tenth of the loop's
    /// completions.
    pub fn end_to_end(&mut self, reps: &Repetitions, timed: &Timed) {
        let (setup_s, done_s) = (&reps.setup_s, &timed.done_s);
        self.set("setup_s", quantile(setup_s, 0.0));
        self.set("cold_ms", quantile(&reps.cold_ms, 0.0));
        self.set("op_p10_ms", quantile(&timed.lat_ms, QUIET));
        self.set("ops_per_s", best_rate(done_s));
        self.set("peak_rss_mb", peak_rss_mb());
        self.note("timed_ops", timed.lat_ms.len());
        self.note("repetitions", setup_s.len());
        self.note("op_p50_ms", format!("{:.4}", median(&timed.lat_ms)));
        self.note(
            "whole_run_ops_per_s",
            format!("{:.4}", done_s.len() as f64 / timed.wall_s),
        );
    }

    /// The traced pass's view of the real op's median and tail, which no
    /// bound holds (see [`QUIET`]).
    pub fn op_percentiles(&mut self, lat_ms: &[f64]) {
        let (tail_ms, percentile) = tail(lat_ms);
        self.set("op.p50_ms", median(lat_ms));
        self.set("op.tail_ms", tail_ms);
        self.note(
            "op.tail_percentile",
            format!("p{percentile:.1} of {} ops", lat_ms.len()),
        );
    }
}

/// Set-up repetitions and their timings. A run sets up some of them before
/// its timed loop and the rest after it: a burst of interference that
/// covers every repetition of one batch then still leaves the other batch,
/// ten seconds away, for the fastest one to come from.
#[derive(Default)]
pub struct Repetitions {
    pub setup_s: Vec<f64>,
    pub cold_ms: Vec<f64>,
}

impl Repetitions {
    /// How many of `total` repetitions go before the timed loop.
    pub fn before(total: usize) -> usize {
        total.div_ceil(2)
    }

    /// Sets up `n` times over, each from nothing (the previous state is
    /// dropped first). `rep` returns the ready state and its cold-start
    /// milliseconds; the last state is handed back.
    pub fn run<T>(&mut self, n: usize, mut rep: impl FnMut() -> (T, f64)) -> Option<T> {
        let mut last = None;
        for _ in 0..n {
            drop(last.take());
            let t = Instant::now();
            let (ready, cold_ms) = rep();
            self.setup_s.push(t.elapsed().as_secs_f64());
            self.cold_ms.push(cold_ms);
            last = Some(ready);
        }
        last
    }
}

/// Latencies, completion times and wall time of one closed loop.
pub struct Timed {
    pub lat_ms: Vec<f64>,
    /// Each completion, in seconds since the loop began, ascending: one
    /// per op, or per request where an op is a round of several.
    pub done_s: Vec<f64>,
    pub wall_s: f64,
}

/// Runs `op(i)` back to back from one thread — a closed loop with one
/// client — until `seconds` have passed, timing each call.
pub fn run_for(seconds: f64, mut op: impl FnMut(usize)) -> Timed {
    let (mut lat_ms, mut done_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        op(lat_ms.len());
        lat_ms.push(ms_since(t));
        done_s.push(start.elapsed().as_secs_f64());
    }
    Timed {
        lat_ms,
        done_s,
        wall_s: start.elapsed().as_secs_f64(),
    }
}
