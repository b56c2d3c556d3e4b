//! Accepted ⇒ runnable: a rule the validator accepts never fails at run
//! time on a name, a type or a grouping, under any evaluation mode.
//!
//! Generated programs are int-only, so each case's tables gain a nullable
//! `s varchar` and `f float` column (every insert names its columns, so the
//! new ones are written NULL). Each mutant then changes one rule: a column
//! swapped for one of another type, a literal swapped for one of another
//! type, or an insert retargeted at another column. A mutant is either
//! refused when the script loads (a validation error) or explored under
//! `Columnar`, `Plan` and `Interp`, where the only errors allowed are the
//! data-dependent ones: overflow, division by zero and a scalar subquery
//! with several rows.

mod rule_exprs;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rule_exprs::mutate_nth;
use starling::analysis::loader::load_script;
use starling::engine::{explore_with_mode, Budget, EngineError, EvalMode};
use starling::sql::ast::{Action, Expr};
use starling::sql::SqlError;
use starling::storage::Value;
use starling_fuzz::{generate, FuzzCase, GenConfig};

/// Runtime errors that depend on the data, not on the program's types.
const DATA_DEPENDENT: [&str; 3] = ["division by zero", "integer overflow", "scalar subquery"];

/// The columns every insert of `case` names: the generated ones of its
/// target.
fn name_insert_columns(a: &mut Action, case: &FuzzCase) {
    if let Action::Insert(i) = a {
        let t = case.tables.iter().find(|t| t.name == i.table).unwrap();
        i.columns
            .get_or_insert_with(|| (0..t.cols).map(|c| format!("c{c}")).collect());
    }
}

/// The case as a script over the widened schema, with one rule mutated by
/// `kind`; `None` when that rule has no site for the mutation.
fn mutant(case: &FuzzCase, rng: &mut StdRng, kind: u32) -> Option<String> {
    let mut defs = case.defs.clone();
    let mut user_actions = case.user_actions.clone();
    for a in defs
        .iter_mut()
        .flat_map(|d| &mut d.body_mut().actions)
        .chain(&mut user_actions)
    {
        name_insert_columns(a, case);
    }
    let def = defs[rng.gen_range(0..case.defs.len())].body_mut();
    let k = rng.gen_range(0..64usize);
    let other_column = if rng.gen_bool(0.5) { "s" } else { "f" };
    let other_literal = match rng.gen_range(0..4u32) {
        0 => Value::from("x"),
        1 => Value::Float(0.5),
        2 => Value::Bool(true),
        _ => Value::Null,
    };
    let mutated = match kind {
        0 => mutate_nth(def, k, |e| matches!(e, Expr::Column(_)), &mut |e| {
            if let Expr::Column(c) = e {
                c.column = other_column.to_owned();
            }
        }),
        1 => mutate_nth(def, k, |e| matches!(e, Expr::Literal(_)), &mut |e| {
            *e = Expr::Literal(other_literal.clone());
        }),
        _ => {
            let mut targets: Vec<_> = def
                .actions
                .iter_mut()
                .filter_map(|a| match a {
                    Action::Insert(i) => i.columns.as_mut(),
                    _ => None,
                })
                .collect();
            let n = targets.len();
            if let Some(cols) = targets.get_mut(k % n.max(1)) {
                let c = k % cols.len();
                cols[c] = other_column.to_owned();
            }
            n > 0
        }
    };
    if !mutated {
        return None;
    }
    let mut script = String::new();
    for t in &case.tables {
        let cols: Vec<String> = (0..t.cols).map(|c| format!("c{c} int")).collect();
        script += &format!(
            "create table {} ({}, s varchar null, f float null);\n",
            t.name,
            cols.join(", ")
        );
    }
    for (ti, vals) in &case.rows {
        let t = &case.tables[*ti];
        let cols: Vec<String> = (0..t.cols).map(|c| format!("c{c}")).collect();
        let vals: Vec<String> = vals.iter().map(ToString::to_string).collect();
        script += &format!(
            "insert into {} ({}) values ({});\n",
            t.name,
            cols.join(", "),
            vals.join(", ")
        );
    }
    for def in &defs {
        script += &format!("{def};\n");
    }
    for a in &user_actions {
        script += &format!("{a};\n");
    }
    Some(script)
}

#[test]
fn accepted_mutants_run_under_every_eval_mode() {
    let cfg = GenConfig::CORPUS;
    let budget = Budget::default()
        .with_max_states(150)
        .with_max_paths(1_000)
        .with_max_rows(500);
    let (mut mutants, mut refused) = (0, 0);
    for seed in 0..400 {
        let case = generate(seed, &cfg);
        if case.defs.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in 0..3 {
            let Some(script) = mutant(&case, &mut rng, kind) else {
                continue;
            };
            mutants += 1;
            let loaded = match load_script(&script) {
                Ok(loaded) => loaded,
                Err(EngineError::Sql(SqlError::Validate(_))) => {
                    refused += 1;
                    continue;
                }
                Err(e) => panic!("seed {seed}: not a validation error: {e}\n{script}"),
            };
            for mode in [EvalMode::Columnar, EvalMode::Plan, EvalMode::Interp] {
                let explored = explore_with_mode(
                    &loaded.rules,
                    &loaded.db,
                    &loaded.user_actions,
                    &budget,
                    mode,
                );
                if let Err(e) = explored {
                    let msg = e.to_string();
                    assert!(
                        DATA_DEPENDENT.iter().any(|d| msg.contains(d)),
                        "seed {seed}, {mode:?}: an accepted mutant failed: {msg}\n{script}"
                    );
                }
            }
        }
    }
    println!("{refused} of {mutants} mutants refused at definition");
    assert!(mutants >= 500, "only {mutants} mutants");
    // Both halves have teeth: many mutants are refused, many run.
    assert!(
        refused * 5 > mutants && refused * 5 < mutants * 4,
        "{refused} of {mutants} refused"
    );
}
