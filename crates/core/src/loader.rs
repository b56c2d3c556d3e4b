//! Script loading shared by the CLI and the server.
//!
//! ## Script convention
//!
//! A `.rql` script is a single file of statements, processed in order:
//!
//! * `create table` — schema;
//! * DML *before the first rule definition* — seed data;
//! * `create rule ... end` — the rule set;
//! * `declare commute` / `declare terminates` — certifications;
//! * DML *after the first rule definition* — the user transition probed by
//!   `explore`.
//!
//! The compiled [`RuleSet`] is behind an [`Arc`] so the server's shared
//! ruleset cache can hand the same compilation to many sessions; the raw
//! [`RuleDef`]s and [`Directive`]s are kept so a session can be restored
//! from cached parts without re-parsing.

use std::sync::Arc;

use starling_engine::{EngineError, FirstEligible, RuleProgram, RuleSet, Session};
use starling_sql::ast::{Action, Directive, RuleDef, Statement};
use starling_sql::parse_script;
use starling_sql::validate::validate_dml;
use starling_storage::Database;

use crate::certifications::Certifications;
use crate::context::AnalysisContext;

/// A loaded script, split per the convention above.
#[derive(Clone, Debug)]
pub struct LoadedScript {
    /// Database after setup statements.
    pub db: Database,
    /// The compiled rule set (shared; compile once, hand out refcounts).
    pub rules: Arc<RuleSet>,
    /// Certifications from `declare` directives.
    pub certs: Certifications,
    /// DML after the first rule definition (the user transition).
    pub user_actions: Vec<Action>,
    /// The raw rule definitions the set was compiled from.
    pub defs: Vec<RuleDef>,
    /// The raw `declare` directives.
    pub directives: Vec<Directive>,
}

impl LoadedScript {
    /// The analysis context for the script.
    pub fn context(&self) -> AnalysisContext {
        AnalysisContext::from_ruleset(&self.rules, self.certs.clone())
    }
}

/// Parses and loads a script. Rules are validated when the whole script has
/// been read (at the final compile), so a rule may precede its tables; the
/// user transition is validated after them, against the same catalog.
pub fn load_script(src: &str) -> Result<LoadedScript, EngineError> {
    let stmts = parse_script(src)?;
    let mut session = Session::new();
    let mut program = RuleProgram::default();
    let mut user_actions = Vec::new();
    for stmt in stmts {
        match stmt {
            Statement::CreateTable(_) => {
                session.execute(&stmt)?;
            }
            Statement::CreateRule(r) => program.create_rule(r)?,
            Statement::DropRule(name) => program.drop_rule(&name)?,
            Statement::AlterRule {
                name,
                precedes,
                follows,
            } => program.alter_rule(&name, &precedes, &follows)?,
            Statement::Directive(d) => program.declare(d),
            Statement::Dml(a) => {
                if program.defs.is_empty() {
                    session.execute(&Statement::Dml(a))?;
                } else {
                    user_actions.push(a);
                }
            }
        }
    }
    session.commit(&mut FirstEligible)?;
    let RuleProgram { defs, directives } = program;
    let rules = Arc::new(RuleSet::compile(&defs, session.db().catalog())?);
    for a in &user_actions {
        validate_dml(a, session.db().catalog())?;
    }
    Ok(LoadedScript {
        db: session.db().clone(),
        rules,
        certs: Certifications::from_directives(&directives),
        user_actions,
        defs,
        directives,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_splits_setup_and_transition() {
        let s = load_script(
            "create table t (x int);
             insert into t values (1);
             create rule a on t when inserted then delete from t end;
             declare terminates a 'delete-only';
             insert into t values (5);",
        )
        .unwrap();
        assert_eq!(s.rules.len(), 1);
        assert_eq!(s.defs.len(), 1);
        assert_eq!(s.directives.len(), 1);
        assert_eq!(s.user_actions.len(), 1);
        // Seed insert ran; user insert did not (it is the probe).
        assert_eq!(s.db.table("t").unwrap().len(), 1);
    }

    #[test]
    fn drop_unknown_rule_errors() {
        let err = load_script(
            "create table t (x int);
             create rule a on t when inserted then delete from t end;
             drop rule nope;",
        )
        .unwrap_err();
        assert!(err.to_string().contains("no rule named"), "{err}");
    }
}
