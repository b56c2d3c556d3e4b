//! Regenerates every experiment in `EXPERIMENTS.md` (E1–E13) and prints
//! the result tables.
//!
//! ```sh
//! cargo run --release -p starling-bench --bin experiments            # all
//! cargo run --release -p starling-bench --bin experiments -- e3 e6   # some
//! ```
//!
//! The paper is a theory paper — its "evaluation" is its figures, theorems,
//! case studies, and the Section 9 subsumption claim. Each experiment here
//! regenerates the corresponding artifact: soundness and conservatism rates
//! against the exhaustive oracle, the subsumption table, the case-study
//! narratives, and the scalability curves.

use std::time::Instant;

use starling_analysis::certifications::Certifications;
use starling_analysis::commutativity::{
    noncommutativity_reasons, noncommutativity_reasons_lemma61,
};
use starling_analysis::confluence::{analyze_confluence, corollary_checks};
use starling_analysis::context::AnalysisContext;
use starling_analysis::observable::{analyze_observable_determinism, corollary_8_2};
use starling_analysis::partial::{analyze_partial_confluence, significant_rules};
use starling_analysis::partition::{partition_rules, IncrementalAnalyzer};
use starling_analysis::restricted::analyze_restricted;
use starling_analysis::termination::{analyze_termination, TerminationVerdict};
use starling_analysis::InteractiveSession;
use starling_baselines::compare_all;
use starling_bench::{build, corpus_config, scale_config};
use starling_engine::{
    consider_rule, explore, explore_from_ops, EvalMode, ExecState, ExploreConfig, RuleId, RuleSet,
};
use starling_storage::Op;
use starling_workloads::{constraints, power_network};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("e1") {
        e1_commutativity();
    }
    if want("e2") || want("e3") || want("e5") {
        e2_e3_e5_oracle_agreement();
    }
    if want("e4") {
        e4_partial_confluence();
    }
    if want("e6") {
        e6_subsumption();
    }
    if want("e7") {
        e7_power_network();
    }
    if want("e8") {
        e8_interactive_confluence();
    }
    if want("e9") {
        e9_scalability();
    }
    if want("e10") {
        e10_corollaries();
    }
    if want("e11") {
        e11_restricted();
    }
    if want("e12") {
        e12_incremental();
    }
    if want("e13") {
        e13_masking_finding();
    }
    if want("e14") {
        e14_refinement();
    }
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// E1 — Lemma 6.1 commutativity vs the Figure 1 diamond oracle.
fn e1_commutativity() {
    header(
        "E1",
        "commutativity (Lemma 6.1 + condition 2') vs diamond oracle",
    );
    let mut total_pairs = 0usize;
    let mut static_commute = 0usize;
    let mut diamonds = 0usize;
    let mut violations = 0usize;
    let mut flagged_with_divergence = 0usize;
    let mut flagged_checked = 0usize;

    for seed in 0..60u64 {
        // Priority-free config: priorities are irrelevant to the diamond,
        // and without them commuting pairs co-trigger far more often.
        let cfg = starling_workloads::random::RandomConfig {
            n_rules: 6,
            p_priority: 0.0,
            p_observable: 0.3,
            ..corpus_config(seed)
        };
        let (w, rules, _ctx) = build(&cfg);
        let base_db = w.seed_database();
        let n = rules.len();
        for i in 0..n {
            for j in (i + 1)..n {
                total_pairs += 1;
                let commute =
                    noncommutativity_reasons(&rules.rules()[i].sig, &rules.rules()[j].sig)
                        .is_empty();
                static_commute += usize::from(commute);
                for salt in 0..4u64 {
                    let actions = w.user_transition(salt + 100);
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
                    let mut s1 = state.clone();
                    consider_rule(&rules, &mut s1, ri, &base_db, EvalMode::default()).unwrap();
                    consider_rule(&rules, &mut s1, rj, &base_db, EvalMode::default()).unwrap();
                    let mut s2 = state.clone();
                    consider_rule(&rules, &mut s2, rj, &base_db, EvalMode::default()).unwrap();
                    consider_rule(&rules, &mut s2, ri, &base_db, EvalMode::default()).unwrap();
                    let same = s1.semantic_digest(&rules) == s2.semantic_digest(&rules);
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
    println!("rule pairs examined:               {total_pairs}");
    println!("statically commuting:              {static_commute}");
    println!("diamond checks on commuting pairs: {diamonds}");
    println!("diamond violations (MUST be 0):    {violations}");
    println!(
        "flagged pairs with real divergence: {flagged_with_divergence}/{flagged_checked} \
         (the rest is conservatism)"
    );
    assert_eq!(violations, 0, "E1 soundness violated");
}

/// E2/E3/E5 — static verdicts vs oracle over the random corpus.
fn e2_e3_e5_oracle_agreement() {
    header(
        "E2/E3/E5",
        "termination / confluence / observable determinism vs oracle",
    );
    let cfg = ExploreConfig::default()
        .with_max_states(2_000)
        .with_max_paths(20_000);
    let mut rows = Vec::new();
    #[derive(Default)]
    struct Agg {
        accepted: usize,
        refuted: usize,
        rejected: usize,
        rejected_but_clean: usize,
    }
    let (mut term, mut conf, mut obs) = (Agg::default(), Agg::default(), Agg::default());

    for seed in 0..80u64 {
        let (w, rules, ctx) = build(&corpus_config(seed));
        let t = analyze_termination(&ctx);
        let c = analyze_confluence(&ctx);
        let o = analyze_observable_determinism(&ctx);
        let term_ok = t.verdict == TerminationVerdict::Guaranteed;
        let conf_ok = c.requirement_holds() && t.is_guaranteed();
        let obs_ok = o.is_guaranteed() && term_ok;

        let base_db = w.seed_database();
        let mut oracle_term = Some(true);
        let mut oracle_conf = Some(true);
        let mut oracle_obs = Some(true);
        for salt in 0..3u64 {
            let actions = w.user_transition(salt * 31 + 5);
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
        rows.push((seed, term_ok, conf_ok, obs_ok));
    }

    println!("property      accepted  oracle-refuted  rejected  rejected-but-clean*");
    for (name, a) in [
        ("termination", &term),
        ("confluence", &conf),
        ("observable", &obs),
    ] {
        println!(
            "{name:<13} {:>8}  {:>14}  {:>8}  {:>18}",
            a.accepted, a.refuted, a.rejected, a.rejected_but_clean
        );
    }
    println!("* clean on every sampled initial state — conservatism, not error");
    assert_eq!(
        term.refuted + conf.refuted + obs.refuted,
        0,
        "soundness violated"
    );
}

/// E4 — Sig(T') growth and partial-confluence verdicts.
fn e4_partial_confluence() {
    header("E4", "partial confluence: Sig(T') growth as T' grows");
    println!("seed  |T'|  |Sig|  rules  partial-confluent");
    for seed in [3u64, 7, 11, 19] {
        // A sparse 12-rule workload over 12 tables: Sig(T') grows with T'
        // instead of immediately saturating.
        let cfg = starling_workloads::random::RandomConfig {
            n_tables: 12,
            n_cols: 2,
            n_rules: 12,
            max_actions: 1,
            p_condition: 0.3,
            p_observable: 0.0,
            p_priority: 0.2,
            rows_per_table: 1,
            seed,
        };
        let (_w, rules, ctx) = build(&cfg);
        let all_tables: Vec<String> = (0..12).map(|i| format!("t{i}")).collect();
        for k in [1usize, 3, 6, 12] {
            let subset: Vec<&str> = all_tables.iter().take(k).map(String::as_str).collect();
            let sig = significant_rules(&ctx, &subset);
            let p = analyze_partial_confluence(&ctx, &subset);
            println!(
                "{seed:>4}  {k:>4}  {:>5}  {:>5}  {}",
                sig.len(),
                rules.len(),
                p.is_guaranteed()
            );
        }
    }
}

/// E6 — the Section 9 subsumption table.
fn e6_subsumption() {
    header("E6", "subsumption: Starling ⊇ HH91 ⊇ ZH90 ⊇ Ras90");
    let n = 200u64;
    // Two corpora: the standard (dense) one, where rules interact heavily
    // and the stricter criteria accept almost nothing, and a sparse one
    // (many tables, few shared references) where the whole chain separates.
    let sparse = |seed: u64| starling_workloads::random::RandomConfig {
        n_tables: 10,
        n_cols: 2,
        n_rules: 3,
        max_actions: 1,
        p_condition: 0.2,
        p_observable: 0.0,
        p_priority: 0.3,
        rows_per_table: 1,
        seed,
    };
    for (label, dense) in [("dense corpus", true), ("sparse corpus", false)] {
        let mut counts = [0usize; 4];
        let mut proper = [0usize; 3];
        let mut violations = 0usize;
        for seed in 0..n {
            let cfg = if dense {
                corpus_config(seed)
            } else {
                sparse(seed)
            };
            let (_w, _rules, ctx) = build(&cfg);
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
        println!("-- {label} --");
        println!("criterion     accepts/{n}");
        for (name, c) in ["starling", "hh91-analog", "zh90-analog", "ras90-analog"]
            .iter()
            .zip(counts)
        {
            println!("{name:<13} {c}");
        }
        println!(
            "proper separations: starling>hh91: {}, hh91>zh90: {}, zh90>ras90: {}",
            proper[0], proper[1], proper[2]
        );
        println!("subsumption violations (MUST be 0): {violations}");
        assert_eq!(violations, 0);
    }
}

/// E7 — the power-network termination case study.
fn e7_power_network() {
    header("E7", "power-network case study (CW90, paper Section 5)");
    let w = power_network::workload();
    let (db, defs, directives) = w.build().unwrap();
    let rules = RuleSet::compile(&defs, db.catalog()).unwrap();

    let bare = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let t0 = analyze_termination(&bare);
    println!("cycles found: {}", t0.cycles.len());
    for c in &t0.cycles {
        println!(
            "  [{}] auto-certificates: {}, discharged: {}",
            c.rules.join(" -> "),
            c.certificates.len(),
            c.discharged
        );
    }
    let certs = Certifications::from_directives(&directives);
    let ctx = AnalysisContext::from_ruleset(&rules, certs);
    let t1 = analyze_termination(&ctx);
    println!("with user certificate: verdict = {:?}", t1.verdict);

    let g = explore(
        &rules,
        &db,
        &w.user_actions().unwrap(),
        &ExploreConfig::default(),
    )
    .unwrap();
    println!(
        "oracle: {} states, terminates = {:?}",
        g.states.len(),
        g.terminates()
    );
}

/// E8 — the iterative-confluence case study.
fn e8_interactive_confluence() {
    header(
        "E8",
        "constraint maintenance: the Section 6.4 interactive loop",
    );
    let w = constraints::workload();
    let (db, defs, _) = w.build().unwrap();
    let mut session = InteractiveSession::new(db.catalog().clone(), defs);
    let initial = session.analyze("initial").unwrap();
    println!(
        "initial: {} confluence violation(s), {} open cycle(s)",
        initial.confluence.violations.len(),
        initial
            .termination
            .cycles
            .iter()
            .filter(|c| !c.discharged)
            .count()
    );
    let added = session.order_until_confluent(25).unwrap();
    println!("orderings added by the loop: {added:?}");
    for (i, h) in session.history().iter().enumerate() {
        println!(
            "  round {i}: {} violation(s) [{}]",
            h.confluence_violations, h.action
        );
    }
    session.certify_terminates("cap_salary", "cap converges in one step");
    session.certify_terminates("maintain_totals", "recomputation is idempotent");
    session.certify_terminates("ri_emp_dept", "rollback ends processing");
    let f = session.analyze("final").unwrap();
    println!(
        "final: requirement holds = {}, termination = {:?}",
        f.confluence.requirement_holds(),
        f.termination.verdict
    );
}

/// E9 — analysis scalability (quick wall-clock sweep; `benchmark/`'s
/// `analyze_refine` workload gives the repeatable numbers).
fn e9_scalability() {
    header(
        "E9",
        "analysis wall time vs rule-set size (single-shot, see benchmark/)",
    );
    println!("rules  graph(us)  termination(us)  confluence(us)  observable(us)");
    for n in [10usize, 25, 50, 100, 200, 400] {
        let (_w, _rules, ctx) = build(&scale_config(n, 42));
        let t0 = Instant::now();
        let _ = starling_analysis::TriggeringGraph::build(&ctx);
        let g_us = t0.elapsed().as_micros();
        let t0 = Instant::now();
        let _ = analyze_termination(&ctx);
        let t_us = t0.elapsed().as_micros();
        let t0 = Instant::now();
        let _ = analyze_confluence(&ctx);
        let c_us = t0.elapsed().as_micros();
        let t0 = Instant::now();
        let _ = analyze_observable_determinism(&ctx);
        let o_us = t0.elapsed().as_micros();
        println!("{n:>5}  {g_us:>9}  {t_us:>15}  {c_us:>14}  {o_us:>14}");
    }
}

/// E10 — corollary lints hold on every accepted rule set.
fn e10_corollaries() {
    header("E10", "corollaries 6.8/6.10 and 8.2 on accepted rule sets");
    let mut accepted = 0usize;
    let mut failures = 0usize;
    for seed in 0..200u64 {
        let (_w, _rules, ctx) = build(&corpus_config(seed));
        let conf = analyze_confluence(&ctx);
        if conf.requirement_holds() {
            accepted += 1;
            failures += corollary_checks(&ctx, &conf).len();
        }
        let obs = analyze_observable_determinism(&ctx);
        if obs.is_guaranteed() {
            failures += corollary_8_2(&ctx, &obs).len();
        }
    }
    println!("accepted rule sets: {accepted}; corollary failures (MUST be 0): {failures}");
    assert_eq!(failures, 0);
}

/// E11 — restricted user operations rescue properties.
fn e11_restricted() {
    header("E11", "restricted user operations (paper Section 9)");
    let mut total = 0usize;
    let mut rescued_term = 0usize;
    let mut rescued_conf = 0usize;
    for seed in 0..100u64 {
        let (w, _rules, ctx) = build(&corpus_config(seed));
        let full_term = analyze_termination(&ctx).is_guaranteed();
        let full_conf = analyze_confluence(&ctx).requirement_holds();
        if full_term && full_conf {
            continue;
        }
        total += 1;
        // Restrict to inserts into the first table only.
        let allowed = vec![Op::Insert("t0".to_owned())];
        let r = analyze_restricted(&ctx, &allowed);
        if !full_term && r.termination.is_guaranteed() {
            rescued_term += 1;
        }
        if !full_conf && r.confluence.requirement_holds() {
            rescued_conf += 1;
        }
        let _ = w;
    }
    println!(
        "problematic rule sets: {total}; termination rescued by restriction: \
         {rescued_term}; confluence rescued: {rescued_conf}"
    );
}

/// E12 — incremental re-analysis.
fn e12_incremental() {
    header("E12", "partitioned incremental analysis (paper Section 9)");
    let (catalog, defs) = starling_workloads::random::partitioned(8);
    let rules = RuleSet::compile(&defs, &catalog).expect("partitioned set compiles");
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let parts = partition_rules(&ctx);
    println!(
        "{}-rule workload splits into {} partition(s)",
        ctx.len(),
        parts.len()
    );
    let mut inc = IncrementalAnalyzer::new();
    let _ = inc.analyze(&ctx);
    println!(
        "cold run: {} recomputed, {} cached",
        inc.last_recomputed, inc.last_cached
    );
    let mut edited = ctx.clone();
    let name = edited.name(0).to_owned();
    edited.certs.certify_terminates(&name, "edit");
    let _ = inc.analyze(&edited);
    println!(
        "after single-rule edit: {} recomputed, {} cached",
        inc.last_recomputed, inc.last_cached
    );
}

/// E14 — the Section 9 predicate-level refinement: how many conservative
/// rejections does it recover on a corpus biased toward guarded writes?
fn e14_refinement() {
    header(
        "E14",
        "predicate-level refinement (paper Section 9, 'less conservative methods')",
    );
    let mut rejected_plain = 0usize;
    let mut recovered = 0usize;
    for seed in 0..150u64 {
        let (_w, rules, ctx) = build(&corpus_config(seed));
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
    println!(
        "confluence rejections (plain): {rejected_plain}; recovered by refinement: {recovered}"
    );
    println!(
        "(the random generator rarely produces provably-disjoint predicates; \
         the curated cases are in tests/refinement_oracle.rs)"
    );
}

/// E13 — the masking finding (see tests/masking_finding.rs).
fn e13_masking_finding() {
    header(
        "E13",
        "finding: Lemma 6.1 vs the strict Section 2 semantics (insert-masking)",
    );
    let script = "
        create table t0 (x int); create table t1 (y int); create table t2 (z int);
    ";
    let rules_src = "
        create rule rule_a on t2 when inserted then insert into t0 values (8)
          precedes rule_d end;
        create rule rule_c on t0 when deleted then update t1 set y = y + 1
          precedes rule_d end;
        create rule rule_d on t1 when updated(y) then delete from t0 end;
    ";
    let mut session = starling_engine::Session::new();
    session.execute_script(script).unwrap();
    session
        .execute_script("insert into t0 values (5); insert into t1 values (0);")
        .unwrap();
    session.commit(&mut starling_engine::FirstEligible).unwrap();
    let defs = starling_engine::RuleProgram::parse(rules_src).unwrap().defs;
    let rules = RuleSet::compile(&defs, session.db().catalog()).unwrap();
    let a = rules.by_name("rule_a").unwrap();
    let c = rules.by_name("rule_c").unwrap();
    println!(
        "Lemma 6.1 (paper-exact) reasons for (rule_a, rule_c): {:?}",
        noncommutativity_reasons_lemma61(&a.sig, &c.sig)
    );
    println!(
        "Starling default reasons:                            {:?}",
        noncommutativity_reasons(&a.sig, &c.sig)
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    let user: Vec<_> = starling_sql::parse_script("delete from t0; insert into t2 values (1);")
        .unwrap()
        .into_iter()
        .filter_map(|s| match s {
            starling_sql::ast::Statement::Dml(x) => Some(x),
            _ => None,
        })
        .collect();
    let g = explore(&rules, session.db(), &user, &ExploreConfig::default()).unwrap();
    println!(
        "oracle: terminates = {:?}, distinct final DB states = {} (paper-exact \
         analysis accepts; Starling's condition 2' rejects)",
        g.terminates(),
        g.final_db_digests().len()
    );
}
