//! Measurement plumbing shared by every workload: a seeded generator,
//! order statistics, process and machine facts, and the in-memory span
//! recorder the traced pass attributes time with.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use starling_sql::json::Json;

/// splitmix64: every generated input is a pure function of `--seed`.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one benchmark seed, so
    /// adding a draw to one generator never shifts another's sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Milliseconds elapsed since `t`, with every digit the clock gives.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at quantile `q` of `values` (nearest rank).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// The quantile every end-to-end timing is reported at. On a shared
/// sandbox interference only ever adds time, and it comes in phases that
/// outlast a run: the same binary on the same inputs read medians 40 %
/// apart an hour apart, while its low decile moved 6 %. The low decile
/// tracks what the code costs; the median and the tail track what the
/// neighbours do, and are reported, unbounded, by the traced pass.
pub const QUIET: f64 = 0.10;

/// The highest percentile of `samples_ms` that still has ten samples
/// beyond it, capped at p99 (choosing-metrics §1): `(value, percentile)`.
pub fn tail(samples_ms: &[f64]) -> (f64, f64) {
    let n = samples_ms.len();
    let beyond_ten = 1.0 - 11.0 / n as f64;
    let q = beyond_ten.clamp(0.5, 0.99);
    (quantile(samples_ms, q), 100.0 * q)
}

/// Throughput over the quietest tenth of a run: the most completions per
/// second over any window of a tenth of them in a row. `done_s` holds each
/// completion's time since the run started, ascending. A window of
/// consecutive ops, unlike a latency quantile, pays every periodic cost
/// (a snapshot rotation, a batched fsync) in proportion.
pub fn best_rate(done_s: &[f64]) -> f64 {
    let n = done_s.len();
    assert!(n > 0, "no completions");
    let k = n.div_ceil(10);
    let at = |i: usize| if i == 0 { 0.0 } else { done_s[i - 1] };
    (0..=n - k)
        .map(|i| k as f64 / (at(i + k) - at(i)))
        .fold(0.0, f64::max)
}

/// A `kB` field of `/proc/self/status`, in MB (0 where procfs is absent).
fn proc_status_mb(key: &str) -> f64 {
    let kb: f64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(key)?
                    .trim_start_matches(':')
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// High-water resident set of this process — one workload per process, so
/// this is the workload's own peak.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

/// Machine shape and provenance recorded with every result.
pub fn machine_shape(seed: u64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_owned();
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let ram_mb = meminfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("MemTotal:")?
                .split_whitespace()
                .next()?
                .parse::<i64>()
                .ok()
        })
        .map_or(0, |kb| kb / 1024);
    let tool = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_owned(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_owned()
            })
    };
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu_model", Json::from(cpu_model)),
        ("ram_mb", Json::Int(ram_mb)),
        ("rustc", Json::from(tool("rustc", &["-V"]))),
        // "unknown" in the driver's checkout, which is not a git repository.
        (
            "git_commit",
            Json::from(tool("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Int(seed as i64)),
        (
            "server_workers",
            Json::from(starling_server::ServerConfig::default().effective_workers()),
        ),
        (
            "eval_mode",
            Json::from(format!("{:?}", starling_engine::EvalMode::default())),
        ),
    ])
}

/// One recorded span. `parent` and `op` tie it to the span that caused it
/// and to the benchmark op it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// Per-name totals over a trace. Self time is a span's duration minus the
/// part its direct children cover.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The benchmark's own span recorder: spans live in memory and are written
/// out once, at exit. A disabled tracer records nothing, which is how the
/// recorder's own overhead is measured on identical code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<TracerInner>,
}

#[derive(Default)]
struct TracerInner {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// Starts the next benchmark op; spans opened from here carry its id.
    pub fn next_op(&self) {
        self.inner.borrow_mut().op += 1;
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len() as u32;
        let (parent, op) = (inner.open.last().copied(), inner.op);
        inner.open.push(index);
        // Clock read last, so recording cost lands outside the span.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Times `f` under a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Totals per span name, for spans whose root is named `root` (all
    /// spans when `root` is `None`).
    pub fn by_name(&self, root: Option<&str>) -> BTreeMap<&'static str, LayerTime> {
        let inner = self.inner.borrow();
        let spans = &inner.spans;
        let mut child_ns = vec![0u64; spans.len()];
        let mut under_root = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so the parent's flag is final.
            under_root[i] = match s.parent {
                Some(p) => under_root[p as usize],
                None => root.is_none_or(|r| r == s.name),
            };
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if !under_root[i] {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let agg = out.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The trace as JSON: per-name totals over every span, plus the raw
    /// spans of the first ops up to `max_spans` (a state-heavy explore
    /// records tens of thousands of spans per op).
    pub fn to_json(&self, max_spans: usize) -> Json {
        let totals = self.by_name(None);
        let inner = self.inner.borrow();
        let last_op = inner.spans.get(max_spans).map_or(u32::MAX, |s| s.op);
        let spans = inner.spans.iter().take_while(|s| s.op < last_op).map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p.into())),
                ),
                ("op_id", Json::Int(s.op.into())),
            ])
        });
        Json::obj([
            (
                "totals",
                Json::arr(totals.iter().map(|(name, t)| {
                    Json::obj([
                        ("name", Json::from(*name)),
                        ("count", Json::Int(t.count as i64)),
                        ("total_ns", Json::Int(t.total_ns as i64)),
                        ("self_ns", Json::Int(t.self_ns as i64)),
                    ])
                })),
            ),
            ("spans_recorded", Json::from(inner.spans.len())),
            ("spans", Json::arr(spans)),
        ])
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        // Clock read first, so recording cost lands outside the span.
        let end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[index as usize].end_ns = end_ns;
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
    }
}
