//! Theorem 8.1's construction, done literally in SQL: a real table
//! `obs_log(x int)`, and every observable rule both logs into it
//! (`insert into obs_log values (1)`) and reads it (an
//! `exists (select x from obs_log)` conjunct on its condition). Partial
//! confluence with respect to `obs_log` over these rules is what the
//! analyzer's observable determinism answers without building them.

use starling_analysis::{AnalysisContext, Certifications};
use starling_engine::RuleSet;
use starling_sql::ast::{BinOp, Expr, Statement};
use starling_sql::{parse_expr, parse_statement, RuleDef};
use starling_storage::{Catalog, ColumnDef, TableSchema, ValueType};

/// The log table the construction adds.
pub const OBS_LOG: &str = "obs_log";

/// `cat` with the log table, and `defs` with each observable rule logging
/// into it and reading it.
pub fn construction(cat: &Catalog, defs: &[RuleDef]) -> (Catalog, Vec<RuleDef>) {
    let mut cat = cat.clone();
    let log = TableSchema::new(OBS_LOG, vec![ColumnDef::new("x", ValueType::Int)]).unwrap();
    cat.add_table(log).unwrap();
    let Statement::Dml(append) = parse_statement("insert into obs_log values (1)").unwrap() else {
        unreachable!("an insert is DML")
    };
    let reads = parse_expr("exists (select x from obs_log)").unwrap();
    let defs = defs
        .iter()
        .map(|d| {
            let mut d = d.clone();
            if d.actions.iter().any(|a| a.is_observable()) {
                let d = d.body_mut();
                d.actions.push(append.clone());
                d.condition = Some(match d.condition.take() {
                    Some(c) => Expr::bin(BinOp::And, c, reads.clone()),
                    None => reads.clone(),
                });
            }
            d
        })
        .collect();
    (cat, defs)
}

/// The construction's context, with `certs` in force and the
/// predicate-level refinement on when `refine`. A `declare commute` between
/// two observable rules is left out: it certifies their database effects,
/// not their writes to the log, which stand for the order of their
/// observations.
pub fn obs_log_ctx(
    cat: &Catalog,
    defs: &[RuleDef],
    certs: &Certifications,
    refine: bool,
) -> AnalysisContext {
    let observable = |name: &str| {
        let logs = |d: &&RuleDef| d.actions.iter().any(|a| a.is_observable());
        defs.iter().filter(logs).any(|d| d.name == name)
    };
    let mut certs = certs.clone();
    let both: Vec<(String, String)> = certs
        .commute_pairs()
        .filter(|&(a, b)| observable(a) && observable(b))
        .map(|(a, b)| (a.to_owned(), b.to_owned()))
        .collect();
    for (a, b) in both {
        certs.revoke_commute(&a, &b);
    }
    let (cat, defs) = construction(cat, defs);
    let rs = RuleSet::compile(&defs, &cat).unwrap();
    let ctx = AnalysisContext::from_ruleset(&rs, certs);
    if refine {
        ctx.with_refinement()
    } else {
        ctx
    }
}
