//! `analyze_refine`: the paper's §6.4 interactive loop on a fuzz-generated
//! 1000-rule program that a first analyze has already refined to
//! near-confluent. One op is one single-rule refinement step — the commute
//! certification moved to another seeded pair, the extra priority edge
//! moved to another seeded rule (with the recompile the loop really pays),
//! or the last rule dropped / re-added (also recompiling), round-robin —
//! then a re-analyze on the warm [`IncrementalAnalysis`] and the report as
//! JSON text.
//!
//! The program's structure is pinned ([`PROGRAM_SEED`]); `--seed` drives
//! the refinement stream — which rules each step touches. Analysis cost
//! varies more than tenfold across generator seeds (a cold analyze took
//! 0.4 s to 6.8 s over ten of them), which no regression bound survives;
//! a fresh target per step samples one program's cost distribution, so
//! every seed's median estimates the same quantity.

use std::time::Instant;

use starling_analysis::{
    load_script, AnalysisContext, AnalysisReport, Certifications, IncrementalAnalysis,
};
use starling_engine::RuleSet;
use starling_fuzz::{generate, GenConfig};
use starling_sql::RuleDef;
use starling_storage::Catalog;

use super::{run_for, Repetitions, Report, RunCfg};
use crate::measure::{median, ms_since, Rng, Tracer};
use crate::probes;

/// Generated inputs: the program as script text, and the commute
/// certifications the refinement so far has made.
struct Program {
    script: String,
    certified: Vec<(String, String)>,
}

/// The generator seed of the program under analysis — the one
/// `bench_oracle`'s `analysis/*` family has always used.
const PROGRAM_SEED: u64 = 42;

/// The program. The bulk refinement (certify every pair a first analyze
/// flags) is part of generating the input: it is the state an interactive
/// session iterates on, not work the timed op does.
fn generate_program(cfg: &RunCfg) -> Program {
    let mut case = generate(PROGRAM_SEED, &GenConfig::scaled(cfg.size(1000)));
    // The add/drop step pops and re-pushes the last rule; no other rule may
    // name it in a `precedes` list meanwhile.
    let last = case
        .defs
        .last()
        .expect("scaled case has rules")
        .name
        .clone();
    for d in &mut case.defs {
        d.precedes.retain(|p| p != &last);
    }
    let script = case.script();
    let loaded = load_script(&script).expect("generated program loads");
    let first = IncrementalAnalysis::new().analyze(&loaded.rules, &loaded.certs, false, &[]);
    let certified = first
        .confluence
        .violations
        .iter()
        .map(|v| v.conflict.clone())
        .collect();
    Program { script, certified }
}

/// The warm session the ops mutate.
struct Session {
    defs: Vec<RuleDef>,
    catalog: Catalog,
    certs: Certifications,
    rules: RuleSet,
    analysis: IncrementalAnalysis,
    /// The seeded refinement stream: each step draws a rule `a` and works
    /// on the pair `(a, a + 1)` (priority edges run low to high index, so
    /// `a precedes a + 1` never closes a cycle).
    targets: Rng,
    /// The pair whose certification the last certify step flipped.
    flipped: Option<(String, String)>,
    /// The rule the last order step gave an extra `precedes` edge.
    ordered: Option<usize>,
    parked: Option<RuleDef>,
}

const KINDS: [&str; 3] = ["certify", "order", "adddrop"];

/// Script text → first answer as JSON text, from nothing: what a one-shot
/// `starling analyze FILE --json` pays. Returns the warm session too.
fn cold(cfg: &RunCfg, program: &Program) -> (Session, String) {
    let loaded = load_script(&program.script).expect("generated program loads");
    let mut certs = loaded.certs.clone();
    for (x, y) in &program.certified {
        certs.certify_commute(x, y);
    }
    let rules = RuleSet::clone(&loaded.rules);
    let mut analysis = IncrementalAnalysis::new();
    let text = analysis
        .analyze(&rules, &certs, false, &[])
        .to_json()
        .to_string();
    let session = Session {
        catalog: rules.catalog().clone(),
        defs: loaded.defs,
        certs,
        rules,
        analysis,
        targets: Rng::new(cfg.seed, 4),
        flipped: None,
        ordered: None,
        parked: None,
    };
    (session, text)
}

impl Session {
    /// One refinement step of kind `i % 3`, under `t`'s spans. Returns the
    /// report, its JSON text and the analyze call's milliseconds.
    fn step(&mut self, t: &Tracer, i: usize) -> (AnalysisReport, String, f64) {
        let _op = t.span(probes::OP);
        // Never the last rule, which the add/drop step parks.
        let a = self
            .targets
            .below(self.defs.len() as u64 + u64::from(self.parked.is_some()) - 2)
            as usize;
        match KINDS[i % 3] {
            "certify" => {
                // Flip the previous pair back, then flip a fresh one.
                let fresh = (self.defs[a].name.clone(), self.defs[a + 1].name.clone());
                for (x, y) in self
                    .flipped
                    .replace(fresh.clone())
                    .into_iter()
                    .chain([fresh])
                {
                    if !self.certs.revoke_commute(&x, &y) {
                        self.certs.certify_commute(&x, &y);
                    }
                }
            }
            "order" => {
                // Take the previous extra edge out, then add a fresh one.
                if let Some(prev) = self.ordered.take() {
                    self.defs[prev].precedes.pop();
                }
                let b = self.defs[a + 1].name.clone();
                if !self.defs[a].precedes.contains(&b) {
                    self.defs[a].precedes.push(b);
                    self.ordered = Some(a);
                }
                self.recompile(t);
            }
            _ => {
                match self.parked.take() {
                    Some(d) => self.defs.push(d),
                    None => self.parked = self.defs.pop(),
                }
                self.recompile(t);
            }
        }
        let started = Instant::now();
        let report = t.time("core.analysis.analyze", || {
            self.analysis.analyze(&self.rules, &self.certs, false, &[])
        });
        let analyze_ms = ms_since(started);
        let json = t.time("core.report.to_json", || report.to_json());
        let text = t.time("sql.json.encode", || json.to_string());
        (report, text, analyze_ms)
    }

    fn recompile(&mut self, t: &Tracer) {
        self.rules = t
            .time("engine.ruleset.compile", || {
                RuleSet::compile(&self.defs, &self.catalog)
            })
            .expect("refined program compiles");
    }
}

/// One set-up: the program, then its cold start.
fn set_up(cfg: &RunCfg) -> ((Program, Session, String), f64) {
    let program = generate_program(cfg);
    let t = Instant::now();
    let (session, text) = cold(cfg, &program);
    let cold_ms = ms_since(t);
    ((program, session, text), cold_ms)
}

/// Set-up repetitions: each costs a second and a half.
const REPS: usize = 4;

pub fn run(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let mut reps = Repetitions::default();
    let early = if cfg.trace {
        1
    } else {
        Repetitions::before(REPS)
    };
    let (program, mut session, first_answer) = reps
        .run(early, || set_up(cfg))
        .expect("at least one repetition");
    r.note("rules", session.defs.len());
    r.note("certified_pairs", program.certified.len());
    r.note("script_bytes", program.script.len());

    if cfg.trace {
        traced(cfg, &mut r, &program, &mut session, &first_answer);
        return r;
    }

    let off = Tracer::new(false);
    let timed = run_for(cfg.seconds, |i| {
        let (report, text, _) = session.step(&off, i);
        r.attempted += 1;
        r.check(
            report.rule_count == session.defs.len() && !text.is_empty(),
            || {
                format!(
                    "op {i}: report covers {} rules, session has {}",
                    report.rule_count,
                    session.defs.len()
                )
            },
        );
    });

    // Outside the timed loop: the warm analyzer's next report must be
    // byte-identical to a from-scratch analysis of the same state.
    let t = Instant::now();
    let (_, warm_text, _) = session.step(&off, timed.lat_ms.len());
    let ctx = AnalysisContext::from_ruleset(&session.rules, session.certs.clone());
    let scratch_text = AnalysisReport::run(&ctx, &[]).to_json().to_string();
    r.attempted += 1;
    r.check(warm_text == scratch_text, || {
        "incremental report differs from the from-scratch report".to_owned()
    });
    r.note("verify_s", format!("{:.3}", t.elapsed().as_secs_f64()));

    drop((program, session));
    reps.run(REPS - early, || set_up(cfg));
    r.end_to_end(&reps, &timed);
    r
}

fn traced(
    cfg: &RunCfg,
    r: &mut Report,
    program: &Program,
    session: &mut Session,
    first_answer: &str,
) {
    let slice = cfg.seconds / 4.0;
    // The from-scratch probes first, on the state every run starts from, so
    // their counts are a function of the inputs alone.
    probes::load_path(r, &program.script, &session.defs, &session.catalog);
    probes::json(r, first_answer);
    probes::analysis_cold(r, &session.rules, &session.certs, slice / 2.0);

    let off = Tracer::new(false);
    let quiet = run_for(slice, |i| {
        std::hint::black_box(session.step(&off, i));
    });
    r.op_percentiles(&quiet.lat_ms);
    // Continue the round-robin where the untraced loop stopped, so toggles
    // keep alternating.
    let base = quiet.lat_ms.len();
    let on = Tracer::new(true);
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut dirty = Vec::new();
    let loud = run_for(slice, |i| {
        on.next_op();
        let (report, _, analyze_ms) = session.step(&on, base + i);
        by_kind[(base + i) % 3].push(analyze_ms);
        dirty.push(session.analysis.stats().last_rechecked_pairs as f64);
        r.attempted += 1;
        r.check(report.rule_count == session.defs.len(), || {
            format!("traced op {i}: rule count")
        });
    });
    // The op here is a sequence of public calls, so the traced op is the
    // real op: no mirror, and the recorder's cost is the whole difference.
    r.set(
        "trace.overhead_ratio",
        median(&loud.lat_ms) / median(&quiet.lat_ms),
    );
    r.set("trace.shadow_ratio", 1.0);
    probes::span_metrics(r, &on);
    for (kind, samples) in KINDS.iter().zip(&by_kind) {
        if !samples.is_empty() {
            r.set(&format!("core.analysis.warm_{kind}_ms"), median(samples));
        }
    }
    let stats = session.analysis.stats();
    r.set(
        "core.analysis.pair_hit_ratio",
        stats.pair.hits as f64 / (stats.pair.hits + stats.pair.misses).max(1) as f64,
    );
    r.set("core.analysis.dirty_pairs", median(&dirty));
    r.note("traced_ops", loud.lat_ms.len());
    r.note("spans", on.span_count());
    r.trace = Some(on.to_json(50_000));
}
