//! `starling experiments`: regenerates every table the reproduction cites
//! (`EXPERIMENTS.md`; the committed run is `experiments_output.txt`).
//!
//! The paper is a theory paper — its "evaluation" is its figures, theorems,
//! case studies, and the Section 9 subsumption claim. Each experiment here
//! regenerates the corresponding artifact: soundness and conservatism rates
//! against the exhaustive oracle, the subsumption table, the case-study
//! narratives, and the scalability curves. Everything is seeded; only E9's
//! wall-clock cells vary between runs, and `--check` masks them.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use starling_analysis::certifications::Certifications;
use starling_analysis::commutativity::{
    noncommutativity_reasons, noncommutativity_reasons_lemma61,
};
use starling_analysis::confluence::{analyze_confluence, corollary_checks};
use starling_analysis::context::AnalysisContext;
use starling_analysis::observable::{corollary_8_2, observable_determinism};
use starling_analysis::partial::{analyze_partial_confluence, significant_rules};
use starling_analysis::partition::partition_rules;
use starling_analysis::restricted::analyze_restricted;
use starling_analysis::termination::{analyze_termination, TerminationVerdict};
use starling_analysis::{load_script, IncrementalAnalysis, InteractiveSession};
use starling_baselines::compare_all;
use starling_engine::{
    consider_rule, explore, explore_from_ops, EvalMode, ExecState, ExploreConfig, RuleId,
    RuleProgram, RuleSet, Session,
};
use starling_fuzz::gen::partitioned;
use starling_fuzz::{generate, FuzzCase, GenConfig};
use starling_storage::Op;
use starling_workloads::{constraints, power_network};

use crate::{CmdOutput, CmdStatus};

/// The committed run `--check` compares against, relative to the working
/// directory (the repository root).
const COMMITTED: &str = "experiments_output.txt";

macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        let _ = writeln!($out, $($arg)*);
    };
}

/// An experiment: the ids that select it, and what prints it.
type Experiment = (&'static [&'static str], fn(&mut String));

/// Every experiment, in print order.
const EXPERIMENTS: &[Experiment] = &[
    (&["e1"], e1_commutativity),
    (&["e2", "e3", "e5"], e2_e3_e5_oracle_agreement),
    (&["e4"], e4_partial_confluence),
    (&["e6"], e6_subsumption),
    (&["e7"], e7_power_network),
    (&["e8"], e8_interactive_confluence),
    (&["e9"], e9_scalability),
    (&["e10"], e10_corollaries),
    (&["e11"], e11_restricted),
    (&["e12"], e12_incremental),
    (&["e13"], e13_masking_finding),
    (&["e14"], e14_refinement),
];

/// `starling experiments [e1 … e14] [--check]`: prints the tables named
/// (all of them without ids). `--check` instead regenerates every table and
/// compares it with `experiments_output.txt`, E9's wall-clock cells masked
/// on both sides; a difference is [`CmdStatus::Stale`] with the differing
/// lines.
pub fn cmd_experiments(args: &[&str]) -> Result<CmdOutput, String> {
    let check = args == ["--check"];
    let ids = if check { &[] } else { args };
    if let Some(unknown) = ids
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|(names, _)| names.contains(id)))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.0).copied().collect();
        return Err(format!(
            "unknown experiment `{unknown}` (expected {}, or --check alone)",
            known.join(", ")
        ));
    }
    let mut text = String::new();
    for (names, run) in EXPERIMENTS {
        if ids.is_empty() || names.iter().any(|n| ids.contains(n)) {
            run(&mut text);
        }
    }
    if !check {
        return Ok(CmdOutput::ok(text));
    }
    let committed = std::fs::read_to_string(COMMITTED)
        .map_err(|e| format!("cannot read `{COMMITTED}` (run from the repository root): {e}"))?;
    Ok(match stale_lines(&committed, &text) {
        None => CmdOutput::ok(format!("{COMMITTED} matches what the code prints\n")),
        Some(diff) => CmdOutput {
            text: format!("{COMMITTED} is stale (- committed, + what the code prints):\n{diff}"),
            status: CmdStatus::Stale,
        },
    })
}

/// `text` with every wall-clock cell of E9's table — the columns after the
/// rule count — replaced by `*`.
fn mask_timings(text: &str) -> Vec<String> {
    let mut in_e9 = false;
    text.lines()
        .map(|line| {
            if line.starts_with("=== ") {
                in_e9 = line.starts_with("=== E9:");
            }
            let mut cells = line.split_whitespace();
            match cells.next() {
                Some(rules) if in_e9 && rules.parse::<usize>().is_ok() => {
                    format!("{rules}{}", " *".repeat(cells.count()))
                }
                _ => line.to_owned(),
            }
        })
        .collect()
}

/// Where two runs differ once timings are masked, line by line (`-` the
/// committed line, `+` the regenerated one), or `None` when they agree.
fn stale_lines(committed: &str, regenerated: &str) -> Option<String> {
    let (old, new) = (mask_timings(committed), mask_timings(regenerated));
    let mut diff = String::new();
    for n in 0..old.len().max(new.len()) {
        if old.get(n) == new.get(n) {
            continue;
        }
        for (mark, line) in [('-', old.get(n)), ('+', new.get(n))] {
            if let Some(line) = line {
                say!(diff, "{mark}{:>4}: {line}", n + 1);
            }
        }
    }
    (!diff.is_empty()).then_some(diff)
}

/// Generates and compiles a program, returning everything the analyses
/// need.
fn build(seed: u64, cfg: &GenConfig) -> (FuzzCase, RuleSet, AnalysisContext) {
    let case = generate(seed, cfg);
    let rules = RuleSet::compile(&case.defs, &case.catalog()).expect("generated program compiles");
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    (case, rules, ctx)
}

fn header(out: &mut String, id: &str, title: &str) {
    say!(out, "\n=== {id}: {title} ===");
}

/// E1 — Lemma 6.1 commutativity vs the Figure 1 diamond oracle.
fn e1_commutativity(out: &mut String) {
    header(
        out,
        "E1",
        "commutativity (Lemma 6.1 + condition 2') vs diamond oracle",
    );
    let mut total_pairs = 0usize;
    let mut static_commute = 0usize;
    let mut diamonds = 0usize;
    let mut violations = 0usize;
    let mut flagged_with_divergence = 0usize;
    let mut flagged_checked = 0usize;

    // Priority-free config: priorities are irrelevant to the diamond, and
    // without them commuting pairs co-trigger far more often.
    let cfg = GenConfig {
        max_rules: 6,
        min_rules: 6,
        p_order: 0.0,
        p_observable: 0.3,
        ..GenConfig::CORPUS
    };
    for seed in 0..60u64 {
        let (case, rules, _ctx) = build(seed, &cfg);
        let base_db = case.database();
        let n = rules.len();
        for i in 0..n {
            for j in (i + 1)..n {
                total_pairs += 1;
                let commute =
                    noncommutativity_reasons(&rules.rules()[i].sig, &rules.rules()[j].sig)
                        .is_empty();
                static_commute += usize::from(commute);
                for salt in 0..4u64 {
                    let actions = case.transition(seed ^ (salt + 100), &cfg);
                    let mut working = base_db.clone();
                    let Ok(ops) =
                        starling_engine::exec_graph::apply_user_actions(&mut working, &actions)
                    else {
                        continue;
                    };
                    let state = ExecState::new(working, rules.len(), &ops);
                    let (ri, rj) = (RuleId(i), RuleId(j));
                    if !state.is_triggered(&rules, ri) || !state.is_triggered(&rules, rj) {
                        continue;
                    }
                    // One side of the diamond. A rollback ends processing,
                    // as it does in the processor and the explorer: the
                    // second rule is then never considered.
                    let path = |first, second| {
                        let mut s = state.clone();
                        let mode = EvalMode::default();
                        if !consider_rule(&rules, &mut s, first, &base_db, mode)
                            .unwrap()
                            .rolled_back
                        {
                            consider_rule(&rules, &mut s, second, &base_db, mode).unwrap();
                        }
                        s.semantic_digest(&rules)
                    };
                    let same = path(ri, rj) == path(rj, ri);
                    if commute {
                        diamonds += 1;
                        violations += usize::from(!same);
                    } else {
                        flagged_checked += 1;
                        flagged_with_divergence += usize::from(!same);
                    }
                }
            }
        }
    }
    say!(out, "rule pairs examined:               {total_pairs}");
    say!(out, "statically commuting:              {static_commute}");
    say!(out, "diamond checks on commuting pairs: {diamonds}");
    say!(out, "diamond violations (MUST be 0):    {violations}");
    say!(
        out,
        "flagged pairs with real divergence: {flagged_with_divergence}/{flagged_checked} \
         (the rest is conservatism)"
    );
    assert_eq!(violations, 0, "E1 soundness violated");
}

/// E2/E3/E5 — static verdicts vs oracle over the random corpus.
fn e2_e3_e5_oracle_agreement(out: &mut String) {
    header(
        out,
        "E2/E3/E5",
        "termination / confluence / observable determinism vs oracle",
    );
    let cfg = ExploreConfig::default()
        .with_max_states(2_000)
        .with_max_paths(20_000)
        // A generated `insert … select` from its own table doubles it on
        // every firing.
        .with_max_rows(200);
    #[derive(Default)]
    struct Agg {
        accepted: usize,
        refuted: usize,
        rejected: usize,
        rejected_but_clean: usize,
    }
    let (mut term, mut conf, mut obs) = (Agg::default(), Agg::default(), Agg::default());

    for seed in 0..80u64 {
        let (case, rules, ctx) = build(seed, &GenConfig::CORPUS);
        let t = analyze_termination(&ctx);
        let c = analyze_confluence(&ctx);
        let o = observable_determinism(&ctx, &c);
        let term_ok = t.verdict == TerminationVerdict::Guaranteed;
        let conf_ok = c.requirement_holds() && t.is_guaranteed();
        let obs_ok = o.is_guaranteed() && term_ok;

        let base_db = case.database();
        let mut oracle_term = Some(true);
        let mut oracle_conf = Some(true);
        let mut oracle_obs = Some(true);
        for salt in 0..3u64 {
            let actions = case.transition(seed ^ (salt * 31 + 5), &GenConfig::CORPUS);
            let mut working = base_db.clone();
            let Ok(ops) = starling_engine::exec_graph::apply_user_actions(&mut working, &actions)
            else {
                continue;
            };
            let Ok(g) = explore_from_ops(&rules, &base_db, working, &ops, &cfg) else {
                continue;
            };
            let merge = |acc: &mut Option<bool>, v: Option<bool>| match (v, &acc) {
                (Some(false), _) => *acc = Some(false),
                (None, Some(true)) => *acc = None,
                _ => {}
            };
            merge(&mut oracle_term, g.terminates());
            merge(&mut oracle_conf, g.confluent());
            merge(&mut oracle_obs, g.observably_deterministic(&cfg));
        }

        let tally = |agg: &mut Agg, ok: bool, oracle: Option<bool>| {
            if ok {
                agg.accepted += 1;
                agg.refuted += usize::from(oracle == Some(false));
            } else {
                agg.rejected += 1;
                agg.rejected_but_clean += usize::from(oracle == Some(true));
            }
        };
        tally(&mut term, term_ok, oracle_term);
        tally(&mut conf, conf_ok, oracle_conf);
        tally(&mut obs, obs_ok, oracle_obs);
    }

    say!(
        out,
        "property      accepted  oracle-refuted  rejected  rejected-but-clean*"
    );
    for (name, a) in [
        ("termination", &term),
        ("confluence", &conf),
        ("observable", &obs),
    ] {
        say!(
            out,
            "{name:<13} {:>8}  {:>14}  {:>8}  {:>18}",
            a.accepted,
            a.refuted,
            a.rejected,
            a.rejected_but_clean
        );
    }
    say!(
        out,
        "* clean on every sampled initial state — conservatism, not error"
    );
    assert_eq!(
        term.refuted + conf.refuted + obs.refuted,
        0,
        "soundness violated"
    );
}

/// E4 — Sig(T') growth and partial-confluence verdicts.
fn e4_partial_confluence(out: &mut String) {
    header(out, "E4", "partial confluence: Sig(T') growth as T' grows");
    say!(out, "seed  |T'|  |Sig|  rules  partial-confluent");
    // A sparse 12-rule program over up to 12 tables: Sig(T') grows with T'
    // instead of immediately saturating.
    let cfg = GenConfig {
        max_tables: 12,
        max_cols: 2,
        max_rules: 12,
        min_rules: 12,
        max_actions: 1,
        max_rows: 1,
        p_condition: 0.3,
        p_order: 0.2,
        p_observable: 0.0,
        p_rollback: 0.0,
        ..GenConfig::default()
    };
    for seed in [3u64, 7, 11, 19] {
        let (case, rules, ctx) = build(seed, &cfg);
        let confluence = analyze_confluence(&ctx);
        // T' grows through the program's own tables, whatever their count.
        let n = case.tables.len();
        let mut sizes: Vec<usize> = [1, 3, 6, 12].map(|k: usize| k.min(n)).to_vec();
        sizes.dedup();
        for k in sizes {
            let subset: Vec<&str> = case.tables[..k].iter().map(|t| t.name.as_str()).collect();
            let sig = significant_rules(&ctx, &subset);
            let p = analyze_partial_confluence(&ctx, &confluence, &subset);
            say!(
                out,
                "{seed:>4}  {k:>4}  {:>5}  {:>5}  {}",
                sig.len(),
                rules.len(),
                p.is_guaranteed()
            );
        }
    }
}

/// E6 — the Section 9 subsumption table.
fn e6_subsumption(out: &mut String) {
    header(out, "E6", "subsumption: Starling ⊇ HH91 ⊇ ZH90 ⊇ Ras90");
    let n = 200u64;
    // Two corpora: the standard (dense) one, where rules interact heavily
    // and the stricter criteria accept almost nothing, and a sparse one
    // (many tables, few shared references) where the whole chain separates.
    let corpora = [
        ("dense corpus", GenConfig::CORPUS),
        ("sparse corpus", GenConfig::SPARSE),
    ];
    for (label, cfg) in corpora {
        let mut counts = [0usize; 4];
        let mut proper = [0usize; 3];
        let mut violations = 0usize;
        for seed in 0..n {
            let (_case, _rules, ctx) = build(seed, &cfg);
            let row = compare_all(&ctx);
            violations += usize::from(row.subsumption_violation().is_some());
            counts[0] += usize::from(row.starling);
            counts[1] += usize::from(row.hh91);
            counts[2] += usize::from(row.zh90);
            counts[3] += usize::from(row.ras90);
            proper[0] += usize::from(row.starling && !row.hh91);
            proper[1] += usize::from(row.hh91 && !row.zh90);
            proper[2] += usize::from(row.zh90 && !row.ras90);
        }
        say!(out, "-- {label} --");
        say!(out, "criterion     accepts/{n}");
        for (name, c) in ["starling", "hh91-analog", "zh90-analog", "ras90-analog"]
            .iter()
            .zip(counts)
        {
            say!(out, "{name:<13} {c}");
        }
        say!(
            out,
            "proper separations: starling>hh91: {}, hh91>zh90: {}, zh90>ras90: {}",
            proper[0],
            proper[1],
            proper[2]
        );
        say!(out, "subsumption violations (MUST be 0): {violations}");
        assert_eq!(violations, 0);
    }
}

/// E7 — the power-network termination case study.
fn e7_power_network(out: &mut String) {
    header(
        out,
        "E7",
        "power-network case study (CW90, paper Section 5)",
    );
    let w = power_network::workload();
    let (db, defs, directives) = w.build().unwrap();
    let rules = RuleSet::compile(&defs, db.catalog()).unwrap();

    let bare = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let t0 = analyze_termination(&bare);
    say!(out, "cycles found: {}", t0.cycles.len());
    for c in &t0.cycles {
        say!(
            out,
            "  [{}] auto-certificates: {}, discharged: {}",
            c.rules.join(" -> "),
            c.certificates.len(),
            c.discharged
        );
    }
    let certs = Certifications::from_directives(&directives);
    let ctx = AnalysisContext::from_ruleset(&rules, certs);
    let t1 = analyze_termination(&ctx);
    say!(out, "with user certificate: verdict = {:?}", t1.verdict);

    let g = explore(
        &rules,
        &db,
        &w.user_actions().unwrap(),
        &ExploreConfig::default(),
    )
    .unwrap();
    say!(
        out,
        "oracle: {} states, terminates = {:?}",
        g.states.len(),
        g.terminates()
    );
}

/// E8 — the iterative-confluence case study.
fn e8_interactive_confluence(out: &mut String) {
    header(
        out,
        "E8",
        "constraint maintenance: the Section 6.4 interactive loop",
    );
    let w = constraints::workload();
    let (db, defs, _) = w.build().unwrap();
    let mut session = InteractiveSession::new(Session::restore(db, defs, None, Vec::new()));
    let initial = session.analyze(false, &[]).unwrap();
    say!(
        out,
        "initial: {} confluence violation(s), {} open cycle(s)",
        initial.confluence.violations.len(),
        initial
            .termination
            .cycles
            .iter()
            .filter(|c| !c.discharged)
            .count()
    );
    let rounds = session.order_until_confluent(25).unwrap();
    let converged = rounds.last().unwrap().confluence.requirement_holds();
    let added = converged.then(|| rounds.len() - 1);
    say!(out, "orderings added by the loop: {added:?}");
    let steps = std::iter::once((&initial, "initial"))
        .chain(rounds.iter().map(|r| (r, "auto-order step")))
        .enumerate();
    for (i, (r, action)) in steps {
        let n = r.confluence.violations.len();
        say!(out, "  round {i}: {n} violation(s) [{action}]");
    }
    // The workload's documented certificates discharge the self-cycles.
    for certificate in RuleProgram::parse(constraints::RESOLUTIONS)
        .unwrap()
        .directives
    {
        session.certify(certificate).unwrap();
    }
    let f = session.analyze(false, &[]).unwrap();
    say!(
        out,
        "final: requirement holds = {}, termination = {:?}",
        f.confluence.requirement_holds(),
        f.termination.verdict
    );
}

/// E9 — analysis scalability (quick wall-clock sweep; `benchmark/`'s
/// `analyze_refine` workload gives the repeatable numbers).
fn e9_scalability(out: &mut String) {
    header(
        out,
        "E9",
        "analysis wall time vs rule-set size (single-shot, see benchmark/)",
    );
    say!(
        out,
        "rules  graph(us)  termination(us)  confluence(us)  observable(us)  protect(us)"
    );
    for n in [10usize, 25, 50, 100, 200, 400] {
        // The benchmark's shape: tables grow with the rules, so triggering
        // density stays constant. Observable actions are kept so the §8
        // column measures something.
        let cfg = GenConfig {
            p_observable: 0.1,
            ..GenConfig::scaled(n)
        };
        let (case, _rules, ctx) = build(42, &cfg);
        fn timed<R>(analysis: impl FnOnce() -> R) -> (R, u128) {
            let started = Instant::now();
            let result = analysis();
            (result, started.elapsed().as_micros())
        }
        let g_us = timed(|| starling_analysis::TriggeringGraph::build(&ctx)).1;
        let t_us = timed(|| analyze_termination(&ctx)).1;
        let (confluence, c_us) = timed(|| analyze_confluence(&ctx));
        // §8 and one single-table `--protect` filter the §6 sweep.
        let o_us = timed(|| observable_determinism(&ctx, &confluence)).1;
        let table = [case.tables[0].name.as_str()];
        let p_us = timed(|| analyze_partial_confluence(&ctx, &confluence, &table)).1;
        say!(
            out,
            "{n:>5}  {g_us:>9}  {t_us:>15}  {c_us:>14}  {o_us:>14}  {p_us:>11}"
        );
    }
}

/// E10 — the corollaries hold on every rule set accepted without
/// certifications (a `declare commute` overrides Lemma 6.1 on purpose, so
/// the contexts here carry none): the Corollary 6.8/6.10 and 8.2 checks
/// are this oracle, not part of any report.
fn e10_corollaries(out: &mut String) {
    header(
        out,
        "E10",
        "corollaries 6.8/6.10 and 8.2 on accepted rule sets",
    );
    let mut accepted = 0usize;
    let mut failures = 0usize;
    for seed in 0..200u64 {
        let (_case, _rules, ctx) = build(seed, &GenConfig::CORPUS);
        let conf = analyze_confluence(&ctx);
        if conf.requirement_holds() {
            accepted += 1;
            failures += corollary_checks(&ctx, &conf).len();
        }
        let obs = observable_determinism(&ctx, &conf);
        if obs.is_guaranteed() {
            failures += corollary_8_2(&ctx, &obs).len();
        }
    }
    say!(
        out,
        "accepted rule sets: {accepted}; corollary failures (MUST be 0): {failures}"
    );
    assert_eq!(failures, 0);
}

/// E11 — restricted user operations rescue properties.
fn e11_restricted(out: &mut String) {
    header(out, "E11", "restricted user operations (paper Section 9)");
    let mut total = 0usize;
    let mut rescued_term = 0usize;
    let mut rescued_conf = 0usize;
    for seed in 0..100u64 {
        let (_case, _rules, ctx) = build(seed, &GenConfig::CORPUS);
        let full_term = analyze_termination(&ctx).is_guaranteed();
        let confluence = analyze_confluence(&ctx);
        let full_conf = confluence.requirement_holds();
        if full_term && full_conf {
            continue;
        }
        total += 1;
        // Restrict to inserts into the first table only.
        let allowed = vec![Op::Insert("t0".to_owned())];
        let r = analyze_restricted(&ctx, &confluence, &allowed);
        if !full_term && r.termination.is_guaranteed() {
            rescued_term += 1;
        }
        if !full_conf && r.confluence.requirement_holds() {
            rescued_conf += 1;
        }
    }
    say!(
        out,
        "problematic rule sets: {total}; termination rescued by restriction: \
         {rescued_term}; confluence rescued: {rescued_conf}"
    );
}

/// E12 — the one incremental analyzer keeps §9's partition promise.
fn e12_incremental(out: &mut String) {
    header(
        out,
        "E12",
        "incremental re-analysis stays inside the edited partition (paper Section 9)",
    );
    let (catalog, defs) = partitioned(8);
    let rules = RuleSet::compile(&defs, &catalog).expect("partitioned set compiles");
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let parts = partition_rules(&ctx);
    say!(
        out,
        "{}-rule workload splits into {} component(s)",
        ctx.len(),
        parts.len()
    );
    let rechecked = |inc: &IncrementalAnalysis| {
        let pairs = inc.last_rechecked();
        let component = |&(i, _): &(usize, usize)| parts.iter().position(|g| g.contains(&i));
        let touched: BTreeSet<_> = pairs.iter().map(component).collect();
        format!(
            "{} of {} component(s) rechecked, {} pair(s)",
            touched.len(),
            parts.len(),
            pairs.len()
        )
    };
    let mut inc = IncrementalAnalysis::new();
    let mut certs = Certifications::new();
    let cold = inc.analyze(&rules, &certs, false, &[]);
    say!(out, "cold run: {}", rechecked(&inc));
    // A pair-level edit inside one component: certify the first flagged
    // pair commutative.
    let (a, b) = &cold.confluence.violations[0].conflict;
    certs.certify_commute(a, b);
    let warm = inc.analyze(&rules, &certs, false, &[]);
    say!(out, "after certifying {a} ~ {b}: {}", rechecked(&inc));
    say!(
        out,
        "violations: {} -> {}",
        cold.confluence.violations.len(),
        warm.confluence.violations.len()
    );
}

/// E14 — the Section 9 predicate-level refinement: how many conservative
/// rejections does it recover on a corpus biased toward guarded writes?
fn e14_refinement(out: &mut String) {
    header(
        out,
        "E14",
        "predicate-level refinement (paper Section 9, 'less conservative methods')",
    );
    let mut rejected_plain = 0usize;
    let mut recovered = 0usize;
    for seed in 0..150u64 {
        let (_case, rules, ctx) = build(seed, &GenConfig::CORPUS);
        let plain = analyze_confluence(&ctx).requirement_holds();
        if plain {
            continue;
        }
        rejected_plain += 1;
        let refined_ctx =
            AnalysisContext::from_ruleset(&rules, Certifications::new()).with_refinement();
        if analyze_confluence(&refined_ctx).requirement_holds() {
            recovered += 1;
        }
    }
    say!(
        out,
        "confluence rejections (plain): {rejected_plain}; recovered by refinement: {recovered}"
    );
    say!(
        out,
        "(the random generator rarely produces provably-disjoint predicates; \
         the curated cases are in tests/refinement_oracle.rs)"
    );
}

/// E13 — the masking finding (`scripts/masking.rql`, tests/masking_finding.rs).
fn e13_masking_finding(out: &mut String) {
    header(
        out,
        "E13",
        "finding: Lemma 6.1 vs the strict Section 2 semantics (insert-masking)",
    );
    let script = load_script(include_str!("../../../scripts/masking.rql")).expect("script loads");
    let rules = &script.rules;
    let a = rules.by_name("rule_a").unwrap();
    let c = rules.by_name("rule_c").unwrap();
    say!(
        out,
        "Lemma 6.1 (paper-exact) reasons for (rule_a, rule_c): {:?}",
        noncommutativity_reasons_lemma61(&a.sig, &c.sig)
    );
    say!(
        out,
        "Starling default reasons:                            {:?}",
        noncommutativity_reasons(&a.sig, &c.sig)
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    let cfg = ExploreConfig::default();
    let g = explore(rules, &script.db, &script.user_actions, &cfg).unwrap();
    say!(
        out,
        "oracle: terminates = {:?}, distinct final DB states = {} (paper-exact \
         analysis accepts; Starling's condition 2' rejects)",
        g.terminates(),
        g.final_db_digests().len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "\n=== E1: x ===\nflagged: 11/35\n\n=== E9: wall time ===\n\
        rules  graph(us)\n   10          5\n  400       4277\n\n=== E10: y ===\nfailures: 0\n";

    #[test]
    fn check_ignores_e9_timings_and_nothing_else() {
        let retimed = RUN.replace("4277", "9").replace("  5\n", " 77\n");
        assert_ne!(retimed, RUN);
        assert_eq!(stale_lines(RUN, &retimed), None);
        // A rule count, or a digit outside E9, is content.
        let diff = stale_lines(RUN, &RUN.replace("11/35", "11/36")).unwrap();
        assert_eq!(diff, "-   3: flagged: 11/35\n+   3: flagged: 11/36\n");
        assert!(stale_lines(RUN, &RUN.replace("  400 ", "  401 ")).is_some());
        let diff = stale_lines(RUN, &RUN.replace("failures: 0\n", "failures: 0\nmore\n")).unwrap();
        assert_eq!(diff, "+  12: more\n");
    }

    #[test]
    fn unknown_ids_are_usage_errors_and_shared_ids_select_one_table() {
        let err = cmd_experiments(&["e4", "e15"]).unwrap_err();
        assert!(err.contains("`e15`") && err.contains("e14"), "{err}");
        assert!(cmd_experiments(&["e4", "--check"]).is_err());
        let e3 = cmd_experiments(&["e10"]).unwrap();
        assert_eq!(e3.status, CmdStatus::Ok);
        assert_eq!(e3.text.matches("=== ").count(), 1);
    }
}
