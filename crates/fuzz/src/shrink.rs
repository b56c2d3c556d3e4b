//! Greedy structural shrinking of a disagreeing [`FuzzCase`].
//!
//! The shrinker repeatedly proposes smaller candidate cases — drop a rule,
//! drop a seed row, drop a user-transition statement, clear ordering edges,
//! drop a condition, drop an action, strip a `where` clause — and keeps the
//! first candidate that still reproduces a disagreement *from the same
//! oracle*. First-improvement greedy descent to a fixpoint: no candidate in
//! any pass reproduces ⇒ done. Every transformation preserves script
//! validity by construction (tables are never dropped; removing a rule also
//! removes dangling `precedes`/`follows` references to it; a rule keeps at
//! least one action and the case keeps at least one user statement).
//!
//! The total number of re-checks is capped: shrinking is a debugging aid,
//! not a search, and each check runs four oracles.

use starling_engine::Budget;

use crate::gen::FuzzCase;
use crate::oracle::{check_script, Mutation};

/// Upper bound on candidate re-checks per shrink.
const MAX_CHECKS: usize = 400;

/// Shrinks `case` while `check_script` keeps reporting a disagreement from
/// `oracle`. Returns the smallest case found and the number of candidate
/// evaluations spent.
pub fn shrink(
    case: &FuzzCase,
    budget: &Budget,
    mutation: Mutation,
    oracle: &'static str,
) -> (FuzzCase, usize) {
    let reproduces = |c: &FuzzCase| {
        check_script(&c.script(), budget, mutation)
            .disagreement
            .is_some_and(|d| d.oracle == oracle)
    };
    let mut cur = case.clone();
    let mut checks = 0usize;
    'outer: loop {
        for cand in candidates(&cur) {
            checks += 1;
            if checks > MAX_CHECKS {
                return (cur, checks);
            }
            if reproduces(&cand) {
                cur = cand;
                continue 'outer;
            }
        }
        return (cur, checks);
    }
}

/// Removes rule `i`, fixing up ordering references to it.
fn without_rule(case: &FuzzCase, i: usize) -> FuzzCase {
    let mut c = case.clone();
    let name = c.defs.remove(i).name.clone();
    for def in &mut c.defs {
        def.precedes.retain(|p| p != &name);
        def.follows.retain(|p| p != &name);
    }
    c
}

/// All single-step reductions of `case`, largest first.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    // Drop a whole rule (down to one — a disagreement needs some rule).
    if case.defs.len() > 1 {
        for i in 0..case.defs.len() {
            out.push(without_rule(case, i));
        }
    }
    // Drop a seed row.
    for i in 0..case.rows.len() {
        let mut c = case.clone();
        c.rows.remove(i);
        out.push(c);
    }
    // Drop a user-transition statement (keep at least one: `explore` needs
    // a probe).
    if case.user_actions.len() > 1 {
        for i in 0..case.user_actions.len() {
            let mut c = case.clone();
            c.user_actions.remove(i);
            out.push(c);
        }
    }
    // Clear a rule's ordering edges.
    for i in 0..case.defs.len() {
        if !case.defs[i].precedes.is_empty() || !case.defs[i].follows.is_empty() {
            let mut c = case.clone();
            c.defs[i].precedes.clear();
            c.defs[i].follows.clear();
            out.push(c);
        }
    }
    // Drop a rule's condition.
    for i in 0..case.defs.len() {
        if case.defs[i].condition.is_some() {
            let mut c = case.clone();
            c.defs[i].body_mut().condition = None;
            out.push(c);
        }
    }
    // Drop one action of a multi-action rule.
    for i in 0..case.defs.len() {
        if case.defs[i].actions.len() > 1 {
            for a in 0..case.defs[i].actions.len() {
                let mut c = case.clone();
                c.defs[i].body_mut().actions.remove(a);
                out.push(c);
            }
        }
    }
    // Strip one `where` clause (predicate simplification): conditions'
    // subqueries, rule actions, and the user transition.
    let sites = where_sites(case);
    for s in 0..sites {
        let mut c = case.clone();
        strip_where(&mut c, s);
        out.push(c);
    }
    out
}

/// Visits every strippable `where` clause in the case, in a fixed order.
/// `strip` receives the site index and the clause slot; returns the total
/// site count.
fn visit_wheres(case: &mut FuzzCase, mut strip: impl FnMut(usize, &mut Option<ExprSlot>)) -> usize {
    use starling_sql::ast::{Action, Expr, InsertSource};
    let mut idx = 0;
    let visit_action =
        |a: &mut Action, idx: &mut usize, strip: &mut dyn FnMut(usize, &mut Option<ExprSlot>)| {
            let slot: Option<&mut Option<Expr>> = match a {
                Action::Insert(s) => match &mut s.source {
                    InsertSource::Select(sel) => Some(&mut sel.where_clause),
                    InsertSource::Values(_) => None,
                },
                Action::Delete(s) => Some(&mut s.where_clause),
                Action::Update(s) => Some(&mut s.where_clause),
                Action::Select(s) => Some(&mut s.where_clause),
                Action::Rollback => None,
            };
            if let Some(slot) = slot {
                if slot.is_some() {
                    strip(*idx, slot);
                    *idx += 1;
                }
            }
        };
    for def in &mut case.defs {
        let def = def.body_mut();
        // `[not] exists (select ... where p)` conditions.
        let sub = match &mut def.condition {
            Some(Expr::Exists(sel)) => Some(sel),
            Some(Expr::Not(inner)) => match inner.as_mut() {
                Expr::Exists(sel) => Some(sel),
                _ => None,
            },
            _ => None,
        };
        if let Some(sel) = sub {
            if sel.where_clause.is_some() {
                strip(idx, &mut sel.where_clause);
                idx += 1;
            }
        }
        for a in &mut def.actions {
            visit_action(a, &mut idx, &mut strip);
        }
    }
    for a in &mut case.user_actions {
        visit_action(a, &mut idx, &mut strip);
    }
    idx
}

type ExprSlot = starling_sql::ast::Expr;

/// Number of strippable `where` clauses in the case.
fn where_sites(case: &FuzzCase) -> usize {
    visit_wheres(&mut case.clone(), |_, _| {})
}

/// Clears the `site`-th `where` clause.
fn strip_where(case: &mut FuzzCase, site: usize) {
    visit_wheres(case, |idx, slot| {
        if idx == site {
            *slot = None;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn candidates_preserve_validity() {
        // Every single-step reduction of a valid generated case must still
        // load: the shrinker never wastes a check on an invalid script.
        let cfg = GenConfig::default();
        for seed in 0..15 {
            let case = generate(seed, &cfg);
            for (i, cand) in candidates(&case).iter().enumerate() {
                let script = cand.script();
                starling_analysis::loader::load_script(&script)
                    .unwrap_or_else(|e| panic!("seed {seed} candidate {i}: {e}\n{script}"));
            }
        }
    }

    #[test]
    fn shrinks_injected_bug_to_tiny_core() {
        // A fat, hand-built case around a one-rule toggle — padding rules,
        // rows, ordering edges, and an extra user statement. The shrinker
        // must strip it back down to (nearly) the toggle alone under the
        // termination mutation.
        use crate::gen::TableSpec;
        use starling_sql::ast::{
            Action, BinOp, DeleteStmt, Expr, InsertSource, InsertStmt, RuleBody, RuleDef,
            TriggerEvent, UpdateStmt,
        };
        let toggle_update = || {
            Action::Update(UpdateStmt {
                table: "t0".into(),
                sets: vec![(
                    "c0".into(),
                    Expr::bin(BinOp::Sub, Expr::int(1), Expr::col("c0")),
                )],
                where_clause: None,
            })
        };
        // Inert padding: rules on t1 that fire at most once and change
        // nothing the toggle depends on.
        let pad = |name: &str, action: Action| {
            RuleDef::new(RuleBody::new(
                name.into(),
                "t1".into(),
                vec![TriggerEvent::Inserted],
                None,
                vec![action],
            ))
        };
        let mut toggle = RuleDef::new(RuleBody::new(
            "toggle".into(),
            "t0".into(),
            vec![TriggerEvent::Updated(Some(vec!["c0".into()]))],
            None,
            vec![toggle_update()],
        ));
        toggle.follows = vec!["pad0".into()];
        let mut case = FuzzCase {
            tables: vec![
                TableSpec {
                    name: "t0".into(),
                    cols: 2,
                },
                TableSpec {
                    name: "t1".into(),
                    cols: 1,
                },
            ],
            rows: vec![(0, vec![0, 4]), (0, vec![2, -1]), (1, vec![3])],
            defs: vec![
                pad(
                    "pad0",
                    Action::Delete(DeleteStmt {
                        table: "t1".into(),
                        where_clause: Some(Expr::bin(BinOp::Ge, Expr::col("c0"), Expr::int(99))),
                    }),
                ),
                pad(
                    "pad1",
                    Action::Update(UpdateStmt {
                        table: "t0".into(),
                        sets: vec![("c1".into(), Expr::int(7))],
                        where_clause: Some(Expr::bin(BinOp::Lt, Expr::col("c1"), Expr::int(5))),
                    }),
                ),
                toggle,
            ],
            user_actions: vec![
                toggle_update(),
                Action::Insert(InsertStmt {
                    table: "t1".into(),
                    columns: None,
                    source: InsertSource::Values(vec![vec![Expr::int(6)]]),
                }),
            ],
        };
        case.rows.push((0, vec![0, 0]));
        let budget = Budget::default()
            .with_max_states(300)
            .with_max_paths(2000)
            .with_max_rows(2000);
        let out = check_script(&case.script(), &budget, Mutation::CertifyTermination);
        let d = out.disagreement.expect("toggle must be a counterexample");
        let (small, _) = shrink(&case, &budget, Mutation::CertifyTermination, d.oracle);
        assert!(
            small.defs.len() <= 3,
            "expected <= 3 rules after shrinking, got {}:\n{}",
            small.defs.len(),
            small.script()
        );
        // Still reproduces.
        let again = check_script(&small.script(), &budget, Mutation::CertifyTermination);
        assert_eq!(again.disagreement.expect("still fires").oracle, d.oracle);
    }
}
