//! The rule program as a value: what §2's `create / drop / alter rule` and
//! §6.4's certify-or-order loop edit.
//!
//! A [`RuleProgram`] is the rule definitions in creation order plus the
//! recorded `declare` directives — plain data, with no database and no
//! compilation attached. Every layer that edits rules (the session's DDL,
//! the script loader, the interactive §6.4 driver) goes through the four
//! mutations here, so "drop scrubs orderings", "alter dedups" and "create
//! rejects duplicates" are decided once. [`RuleProgram::render`] is the
//! WAL's persisted rules text and [`RuleProgram::parse`] its inverse.
//!
//! Nothing here looks at a catalog: validating a rule against its tables
//! is the caller's choice of *when* (eagerly in [`crate::Session::execute`],
//! at end of script in the loader via [`crate::RuleSet::compile`]).

use std::fmt::Write;

use starling_sql::ast::{Directive, Statement};
use starling_sql::{parse_script, RuleDef};

use crate::error::EngineError;

/// Rule definitions in creation order, plus certification directives.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuleProgram {
    /// The rule definitions, in creation order.
    pub defs: Vec<RuleDef>,
    /// Recorded `declare commute` / `declare terminates` directives.
    pub directives: Vec<Directive>,
}

impl RuleProgram {
    /// `create rule`: appends `def`, rejecting a name already in use.
    pub fn create_rule(&mut self, def: RuleDef) -> Result<(), EngineError> {
        if self.defs.iter().any(|r| r.name == def.name) {
            return Err(EngineError::DuplicateRule(def.name.clone()));
        }
        self.defs.push(def);
        Ok(())
    }

    /// `drop rule`: removes the rule and every ordering that names it (a
    /// dangling `precedes`/`follows` would fail the next compile).
    pub fn drop_rule(&mut self, name: &str) -> Result<(), EngineError> {
        let before = self.defs.len();
        self.defs.retain(|r| r.name != name);
        if self.defs.len() == before {
            return Err(EngineError::InvalidStatement(format!(
                "drop rule: no rule named `{name}`"
            )));
        }
        for r in &mut self.defs {
            r.precedes.retain(|p| p != name);
            r.follows.retain(|p| p != name);
        }
        Ok(())
    }

    /// `alter rule`: adds orderings to an existing rule, skipping ones it
    /// already has (re-ordering the same pair is idempotent).
    pub fn alter_rule(
        &mut self,
        name: &str,
        precedes: &[String],
        follows: &[String],
    ) -> Result<(), EngineError> {
        let Some(def) = self.defs.iter_mut().find(|r| r.name == name) else {
            return Err(EngineError::InvalidStatement(format!(
                "alter rule: no rule named `{name}`"
            )));
        };
        for (have, add) in [(&mut def.precedes, precedes), (&mut def.follows, follows)] {
            for n in add {
                if !have.contains(n) {
                    have.push(n.clone());
                }
            }
        }
        Ok(())
    }

    /// `declare ...`: records a certification directive.
    pub fn declare(&mut self, directive: Directive) {
        self.directives.push(directive);
    }

    /// The program as re-parsable script text, definitions then directives
    /// — the form the WAL and snapshots persist.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for d in &self.defs {
            let _ = writeln!(s, "{d};");
        }
        for d in &self.directives {
            let _ = writeln!(s, "{d};");
        }
        s
    }

    /// Parses rules text — `create rule` and `declare` statements only —
    /// back into a program: the inverse of [`RuleProgram::render`].
    pub fn parse(text: &str) -> Result<RuleProgram, EngineError> {
        let mut program = RuleProgram::default();
        for stmt in parse_script(text)? {
            match stmt {
                Statement::CreateRule(def) => program.create_rule(def)?,
                Statement::Directive(d) => program.declare(d),
                other => {
                    return Err(EngineError::InvalidStatement(format!(
                        "rule program contains a non-rule statement: {other}"
                    )))
                }
            }
        }
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What each edit refuses; what the edits *do* (dedup, scrub, the text
    /// round trip) is pinned over the whole script corpus by
    /// `tests/example_scripts.rs`.
    #[test]
    fn edits_and_parse_reject_what_they_should() {
        let rule = |n: &str| format!("create rule {n} on t when inserted then delete from t end;");
        let mut p = RuleProgram::parse(&(rule("a") + &rule("b"))).unwrap();
        assert!(matches!(
            p.create_rule(p.defs[0].clone()),
            Err(EngineError::DuplicateRule(n)) if n == "a"
        ));
        assert!(matches!(
            RuleProgram::parse(&rule("a").repeat(2)),
            Err(EngineError::DuplicateRule(_))
        ));
        assert!(p.drop_rule("zz").is_err());
        assert!(p.alter_rule("zz", &[], &["a".into()]).is_err());
        assert_eq!(p, RuleProgram::parse(&p.render()).unwrap());
        for text in ["create table t (x int)", "insert into t values (1)"] {
            assert!(matches!(
                RuleProgram::parse(text),
                Err(EngineError::InvalidStatement(_))
            ));
        }
    }
}
