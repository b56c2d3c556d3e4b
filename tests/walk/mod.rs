//! The refinement walk `incremental_props` and `partition_equivalence`
//! share: a seeded §6.4 editing session — certify / revoke, order /
//! unorder, drop / re-add, redefine, refinement toggles, termination
//! certificates, and a redefinition that changes one `WHERE` constant and
//! its undo — checked after **every** step (see [`session`]). A step that
//! leaves the rule definitions alone analyzes the previous step's compiled
//! rule set again, as an interactive session does; any other recompiles.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starling_analysis::context::AnalysisContext;
use starling_analysis::partition::partition_rules;
use starling_analysis::report::AnalysisReport;
use starling_analysis::{Certifications, IncrementalAnalysis};
use starling_engine::RuleSet;
use starling_sql::ast::{Action, Expr};
use starling_sql::{RuleBody, RuleDef};
use starling_storage::{Catalog, Value};

pub fn scratch_ctx(
    cat: &Catalog,
    defs: &[RuleDef],
    certs: &Certifications,
    refine: bool,
) -> AnalysisContext {
    let rs = RuleSet::compile(defs, cat).unwrap();
    let ctx = AnalysisContext::from_ruleset(&rs, certs.clone());
    if refine {
        ctx.with_refinement()
    } else {
        ctx
    }
}

#[allow(dead_code)] // incremental_props calls it; partition_equivalence does not
pub fn scratch(
    cat: &Catalog,
    defs: &[RuleDef],
    certs: &Certifications,
    refine: bool,
    protect: &[Vec<String>],
) -> AnalysisReport {
    AnalysisReport::run(&scratch_ctx(cat, defs, certs, refine), protect)
}

/// The first integer literal of `e`, outside subqueries.
fn int_literal(e: &mut Expr) -> Option<&mut i64> {
    match e {
        Expr::Literal(Value::Int(v)) => Some(v),
        Expr::Binary { lhs, rhs, .. } => int_literal(lhs).or_else(|| int_literal(rhs)),
        Expr::Neg(x) | Expr::Not(x) | Expr::IsNull { expr: x, .. } => int_literal(x),
        Expr::Between {
            expr, low, high, ..
        } => int_literal(expr)
            .or_else(|| int_literal(low))
            .or_else(|| int_literal(high)),
        Expr::InList { expr, list, .. } => {
            int_literal(expr).or_else(|| list.iter_mut().find_map(int_literal))
        }
        _ => None,
    }
}

/// The first integer literal in the `WHERE` clause of one of `def`'s
/// actions.
fn where_constant(def: &mut RuleBody) -> Option<&mut i64> {
    def.actions.iter_mut().find_map(|a| {
        let clause = match a {
            Action::Update(u) => u.where_clause.as_mut(),
            Action::Delete(d) => d.where_clause.as_mut(),
            Action::Select(s) => s.where_clause.as_mut(),
            Action::Insert(_) | Action::Rollback => None,
        };
        clause.and_then(int_literal)
    })
}

/// One random mutation of the editing state. Returns a label for failure
/// messages; mutations that would not compile (priority cycles) are
/// reverted, which keeps the walk deterministic per seed.
#[allow(clippy::too_many_arguments)]
fn mutate(
    rng: &mut StdRng,
    defs: &mut Vec<RuleDef>,
    cat: &Catalog,
    certs: &mut Certifications,
    refine: &mut bool,
    certified: &mut Vec<(String, String)>,
    dropped: &mut Vec<RuleDef>,
    last: &AnalysisReport,
) -> String {
    match rng.gen_range(0..7u32) {
        0 => {
            // Certify: prefer a real outstanding conflict, like a §6.4 user.
            let (a, b) = match last.confluence.violations.first() {
                Some(v) => v.conflict.clone(),
                None => {
                    let i = rng.gen_range(0..defs.len());
                    let j = rng.gen_range(0..defs.len());
                    (defs[i].name.clone(), defs[j].name.clone())
                }
            };
            certs.certify_commute(&a, &b);
            certified.push((a.clone(), b.clone()));
            format!("certify {a}~{b}")
        }
        1 => match certified.pop() {
            Some((a, b)) => {
                certs.revoke_commute(&a, &b);
                format!("revoke {a}~{b}")
            }
            None => "revoke (nothing certified)".to_owned(),
        },
        2 => {
            // Order: a fresh low→high precedes edge can never close a cycle
            // on its own, but the generated program already has edges, so
            // compile-check and revert if one forms.
            let i = rng.gen_range(0..defs.len().saturating_sub(1));
            let j = rng.gen_range(i + 1..defs.len());
            let target = defs[j].name.clone();
            if defs[i].precedes.contains(&target) {
                return "order (edge existed)".to_owned();
            }
            defs[i].precedes.push(target.clone());
            if RuleSet::compile(defs, cat).is_err() {
                defs[i].precedes.pop();
                return "order (reverted, cycle)".to_owned();
            }
            format!("order {} > {target}", defs[i].name)
        }
        3 => {
            let candidates: Vec<usize> = (0..defs.len())
                .filter(|&i| !defs[i].precedes.is_empty())
                .collect();
            match candidates.first() {
                Some(&i) => {
                    let gone = defs[i].precedes.pop().unwrap();
                    format!("unorder {} > {gone}", defs[i].name)
                }
                None => "unorder (no edges)".to_owned(),
            }
        }
        4 if defs.len() > 2 => {
            // Drop a random rule, stripping dangling ordering references.
            let i = rng.gen_range(0..defs.len());
            let victim = defs.remove(i);
            for d in defs.iter_mut() {
                d.precedes.retain(|n| n != &victim.name);
                d.follows.retain(|n| n != &victim.name);
            }
            let label = format!("drop {}", victim.name);
            dropped.push(victim);
            label
        }
        5 => match dropped.pop() {
            Some(mut back) => {
                // Its own ordering lists may name since-dropped rules.
                let known: Vec<String> = defs.iter().map(|d| d.name.clone()).collect();
                back.precedes.retain(|n| known.contains(n));
                back.follows.retain(|n| known.contains(n));
                let label = format!("re-add {}", back.name);
                defs.push(back);
                if RuleSet::compile(defs, cat).is_err() {
                    dropped.push(defs.pop().unwrap());
                    return "re-add (reverted, cycle)".to_owned();
                }
                label
            }
            None => {
                *refine = !*refine;
                format!("toggle refine -> {refine}")
            }
        },
        6 => {
            // Redefine: a neighbour's table, events, condition and action
            // under this rule's name and orderings.
            let i = rng.gen_range(0..defs.len());
            let donor = defs[(i + 1) % defs.len()].clone();
            let old = std::mem::replace(&mut defs[i], donor);
            defs[i].body_mut().name = old.name.clone();
            defs[i].precedes = old.precedes;
            defs[i].follows = old.follows;
            format!(
                "redefine {} as {}",
                defs[i].name,
                defs[(i + 1) % defs.len()].name
            )
        }
        _ => {
            *refine = !*refine;
            format!("toggle refine -> {refine}")
        }
    }
}

/// One mutation of a kind [`mutate`] does not draw: a termination
/// certificate, a redefinition that changes one `WHERE` constant and
/// nothing else, or the undo of the latest such change. `tweaked` holds
/// the definitions as they were before each change, newest last.
fn mutate_body(
    rng: &mut StdRng,
    defs: &mut [RuleDef],
    certs: &mut Certifications,
    tweaked: &mut Vec<RuleDef>,
    last: &AnalysisReport,
) -> String {
    match rng.gen_range(0..3u32) {
        0 => {
            // Certify termination: prefer a rule on an undischarged cycle.
            let name = match last.termination.responsible_rules().first() {
                Some(r) => (*r).to_owned(),
                None => defs[rng.gen_range(0..defs.len())].name.clone(),
            };
            certs.certify_terminates(&name, "walk");
            format!("certify terminates {name}")
        }
        1 => {
            // Redefine a rule with one `WHERE` constant changed: the same
            // signature, another body.
            let (n, start) = (defs.len(), rng.gen_range(0..defs.len()));
            let found = (0..n)
                .map(|k| (start + k) % n)
                .find(|&i| where_constant(&mut RuleBody::clone(&defs[i])).is_some());
            let Some(i) = found else {
                return "retune (no WHERE constant)".to_owned();
            };
            tweaked.push(defs[i].clone());
            let v = where_constant(defs[i].body_mut()).expect("found above");
            *v = v.wrapping_add(rng.gen_range(1..20i64));
            let v = *v;
            format!("retune {} to {v}", defs[i].name)
        }
        _ => {
            // Undo the latest retune, under the rule's current orderings.
            let Some(was) = tweaked.pop() else {
                return "undo retune (nothing retuned)".to_owned();
            };
            let Some(def) = defs.iter_mut().find(|d| d.name == was.name) else {
                return format!("undo retune {} (dropped)", was.name);
            };
            // The prior body handle, under the rule's current orderings.
            let mut back = was;
            back.precedes = std::mem::take(&mut def.precedes);
            back.follows = std::mem::take(&mut def.follows);
            *def = back;
            format!("undo retune {}", def.name)
        }
    }
}

/// What the §9 partition property compares a step against: everything a
/// refinement step can change, by rule name, and the partitions.
struct Snapshot {
    /// Rule name → its body, debug-printed.
    rules: BTreeMap<String, String>,
    /// The priority closure's facts.
    gt: BTreeSet<(String, String)>,
    certified: BTreeSet<(String, String)>,
    refine: bool,
    parts: Vec<Vec<String>>,
}

impl Snapshot {
    fn of(ctx: &AnalysisContext) -> Self {
        let name = |i: usize| ctx.name(i).to_owned();
        let text = |i: usize| format!("{:?}", ctx.rule_body(i));
        let pair = |(a, b): (&str, &str)| (a.to_owned(), b.to_owned());
        Snapshot {
            rules: (0..ctx.len()).map(|i| (name(i), text(i))).collect(),
            gt: ctx
                .priority
                .gt_pairs()
                .into_iter()
                .map(|(a, b)| (name(a), name(b)))
                .collect(),
            certified: ctx.certs.commute_pairs().map(pair).collect(),
            refine: ctx.refine,
            parts: partition_rules(ctx)
                .iter()
                .map(|group| group.iter().map(|&i| name(i)).collect())
                .collect(),
        }
    }

    /// Every rule sharing a partition — before or after the step — with a
    /// redefined, added or dropped rule, an endpoint of a toggled
    /// certification or an endpoint of a changed priority fact: the rules
    /// §9 lets a re-analysis look at.
    fn blast(&self, after: &Snapshot) -> BTreeSet<String> {
        let mut changed: BTreeSet<&String> = BTreeSet::new();
        for name in self.rules.keys().chain(after.rules.keys()) {
            if self.rules.get(name) != after.rules.get(name) {
                changed.insert(name);
            }
        }
        let facts = self.gt.symmetric_difference(&after.gt);
        for (a, b) in facts.chain(self.certified.symmetric_difference(&after.certified)) {
            changed.extend([a, b]);
        }
        let touched = |group: &&Vec<String>| group.iter().any(|n| changed.contains(n));
        let parts = self.parts.iter().chain(&after.parts);
        parts.filter(touched).flatten().cloned().collect()
    }
}

/// What a walk saw of the partition property.
pub struct Walk {
    /// Steps that rechecked a dirty set and nothing else.
    pub incremental_steps: usize,
    /// Incremental steps that rechecked something while some partition was
    /// out of the step's reach — where the property says something.
    pub local_steps: usize,
}

/// Runs one seeded refinement session over a program, checking all three
/// analyzers against each other after every step, and the §9 partition
/// property of what the incremental one rechecked. The cold sweep must
/// visit at least `cold_pairs` pairs.
pub fn session(
    seed: u64,
    cat: &Catalog,
    mut defs: Vec<RuleDef>,
    protect: &[Vec<String>],
    steps: usize,
    cold_pairs: u64,
) -> Walk {
    let mut certs = Certifications::new();
    let mut refine = false;
    let mut certified = Vec::new();
    let mut dropped = Vec::new();
    let mut tweaked = Vec::new();
    let mut par = IncrementalAnalysis::new();
    let mut seq = IncrementalAnalysis::sequential();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    // The kinds of `mutate_body` draw from a stream of their own, so the
    // steps `mutate` takes replay as they did before those kinds existed.
    let mut body_rng = StdRng::seed_from_u64(seed ^ 0x5851f42d4c957f2d);
    let mut walk = Walk {
        incremental_steps: 0,
        local_steps: 0,
    };

    let initial = scratch_ctx(cat, &defs, &certs, refine);
    let mut last = AnalysisReport::run(&initial, protect);
    let mut before = Snapshot::of(&initial);
    let mut compiled = (defs.clone(), RuleSet::compile(&defs, cat).unwrap());
    for step in 0..=steps {
        let label = if step == 0 {
            "initial".to_owned()
        } else if body_rng.gen_bool(1.0 / 3.0) {
            mutate_body(&mut body_rng, &mut defs, &mut certs, &mut tweaked, &last)
        } else {
            mutate(
                &mut rng,
                &mut defs,
                cat,
                &mut certs,
                &mut refine,
                &mut certified,
                &mut dropped,
                &last,
            )
        };
        if compiled.0 != defs {
            compiled = (defs.clone(), RuleSet::compile(&defs, cat).unwrap());
        }
        let rs = &compiled.1;
        let incremental_before = par.stats().incremental_sweeps;
        let got_par = par.analyze(rs, &certs, refine, protect);
        let got_seq = seq.analyze(rs, &certs, refine, protect);
        if step == 0 {
            let visited = par.stats().last_rechecked_pairs;
            assert!(
                visited >= cold_pairs,
                "seed {seed}: cold sweep of {visited}"
            );
        }
        let fresh = scratch_ctx(cat, &defs, &certs, refine);
        let want = AnalysisReport::run(&fresh, protect);
        let ctx = format!("seed {seed} step {step} ({label})");
        assert_eq!(
            got_par.to_json().to_string(),
            want.to_json().to_string(),
            "incremental(parallel) != from-scratch json at {ctx}"
        );
        assert_eq!(
            got_par.to_string(),
            want.to_string(),
            "incremental(parallel) != from-scratch display at {ctx}"
        );
        assert_eq!(
            got_seq.to_json().to_string(),
            want.to_json().to_string(),
            "incremental(sequential) != from-scratch json at {ctx}"
        );
        let dense = scratch_ctx(cat, &defs, &certs, refine).with_dense_sweep();
        let dense = AnalysisReport::run(&dense, protect);
        assert_eq!(
            want.to_json().to_string(),
            dense.to_json().to_string(),
            "candidate sweep != dense sweep json at {ctx}"
        );
        assert_eq!(
            want.to_string(),
            dense.to_string(),
            "candidate sweep != dense sweep display at {ctx}"
        );

        // §9: whatever was rechecked — a full sweep's candidates or a dirty
        // set — stays inside one partition per pair, and a dirty set stays
        // inside the partitions the step changed.
        let after = Snapshot::of(&fresh);
        let parts = partition_rules(&fresh);
        let rechecked = par.last_rechecked();
        assert_eq!(rechecked, seq.last_rechecked(), "{ctx}");
        for &(i, j) in rechecked {
            assert!(
                parts.iter().any(|g| g.contains(&i) && g.contains(&j)),
                "rechecked ({}, {}) across partitions at {ctx}",
                fresh.name(i),
                fresh.name(j)
            );
        }
        if par.stats().incremental_sweeps > incremental_before {
            assert_eq!(before.refine, after.refine, "{ctx}");
            let blast = before.blast(&after);
            for &(i, j) in rechecked {
                assert!(
                    blast.contains(fresh.name(i)) && blast.contains(fresh.name(j)),
                    "rechecked ({}, {}) outside the changed partitions at {ctx}",
                    fresh.name(i),
                    fresh.name(j)
                );
            }
            walk.incremental_steps += 1;
            let out_of_reach = after.parts.iter().any(|g| !blast.contains(&g[0]));
            walk.local_steps += usize::from(!rechecked.is_empty() && out_of_reach);
        }
        before = after;
        last = want;
    }
    walk
}
