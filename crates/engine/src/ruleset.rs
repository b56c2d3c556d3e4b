//! Compiled rule sets: the analyzed set `R` of paper Section 3.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use starling_sql::plan::{compile_rule, RulePlan};
use starling_sql::{RuleDef, RuleSignature};
use starling_storage::Catalog;

use crate::error::EngineError;
use crate::priority::PriorityOrder;

/// Index of a rule within its [`RuleSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub usize);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r#{}", self.0)
    }
}

/// A validated rule with its precomputed static signature and its physical
/// plan, built when the engine first considers the rule.
///
/// The definition and the signature sit behind `Arc`: an analysis context
/// built from the rule set shares them instead of copying every AST.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// Index in the rule set.
    pub id: RuleId,
    /// The rule definition as written.
    pub def: Arc<RuleDef>,
    /// `Triggered-By` / `Performs` / `Reads` / `Observable` (Section 3).
    pub sig: Arc<RuleSignature>,
    /// Compiled condition/action plans (see [`starling_sql::plan`]),
    /// built on the rule's first consideration under a plan-evaluating
    /// mode and evaluated on every one after. Analysis never builds them.
    pub plan: LazyPlan,
}

impl CompiledRule {
    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.def.name
    }
}

/// A rule's [`RulePlan`], compiled by the first dereference.
///
/// The plan is exactly `compile_rule(def, catalog)`; only the moment it is
/// built moves. A rule set shared through `Arc` compiles each plan at most
/// once, whichever thread considers the rule first.
#[derive(Clone)]
pub struct LazyPlan {
    def: Arc<RuleDef>,
    catalog: Arc<Catalog>,
    plan: OnceLock<RulePlan>,
}

impl LazyPlan {
    /// The plan if it has been built, without building it.
    pub fn get(&self) -> Option<&RulePlan> {
        self.plan.get()
    }
}

impl Deref for LazyPlan {
    type Target = RulePlan;

    fn deref(&self) -> &RulePlan {
        self.plan
            .get_or_init(|| compile_rule(&self.def, &self.catalog))
    }
}

impl fmt::Debug for LazyPlan {
    /// The plan's state only: the definition and catalog it compiles from
    /// print with the rule and the rule set.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.get() {
            Some(plan) => fmt::Debug::fmt(plan, f),
            None => f.write_str("<not compiled>"),
        }
    }
}

/// A compiled, validated set of rules plus the priority order `P`.
#[derive(Clone, Debug)]
pub struct RuleSet {
    rules: Vec<CompiledRule>,
    priority: PriorityOrder,
    by_name: BTreeMap<String, RuleId>,
    catalog: Arc<Catalog>,
}

impl RuleSet {
    /// Compiles rule definitions against a catalog: validates each rule,
    /// computes signatures, resolves `precedes`/`follows` names, and builds
    /// the priority closure. Physical plans are not built here but on a
    /// rule's first consideration (see [`CompiledRule::plan`]), so an
    /// analysis-only caller never pays for them.
    pub fn compile(defs: &[RuleDef], catalog: &Catalog) -> Result<Self, EngineError> {
        let catalog = Arc::new(catalog.clone());
        let mut by_name = BTreeMap::new();
        for (i, def) in defs.iter().enumerate() {
            if by_name.insert(def.name.clone(), RuleId(i)).is_some() {
                return Err(EngineError::DuplicateRule(def.name.clone()));
            }
        }

        let mut rules = Vec::with_capacity(defs.len());
        let mut edges = Vec::new();
        for (i, def) in defs.iter().enumerate() {
            let sig = RuleSignature::of_rule(def, &catalog)?;
            let resolve = |name: &str| -> Result<RuleId, EngineError> {
                by_name
                    .get(name)
                    .copied()
                    .ok_or_else(|| EngineError::UnknownRule {
                        rule: def.name.clone(),
                        referenced: name.to_owned(),
                    })
            };
            for p in &def.precedes {
                edges.push((i, resolve(p)?.0));
            }
            for fl in &def.follows {
                edges.push((resolve(fl)?.0, i));
            }
            let def = Arc::new(def.clone());
            rules.push(CompiledRule {
                id: RuleId(i),
                plan: LazyPlan {
                    def: Arc::clone(&def),
                    catalog: Arc::clone(&catalog),
                    plan: OnceLock::new(),
                },
                def,
                sig: Arc::new(sig),
            });
        }

        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        let priority = PriorityOrder::from_edges(&names, &edges)?;
        Ok(RuleSet {
            rules,
            priority,
            by_name,
            catalog,
        })
    }

    /// The catalog the rules were compiled against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The catalog as a shared handle.
    pub fn shared_catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// All rules, in definition order.
    pub fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// A rule by id.
    pub fn get(&self, id: RuleId) -> &CompiledRule {
        &self.rules[id.0]
    }

    /// A rule by name.
    pub fn by_name(&self, name: &str) -> Option<&CompiledRule> {
        self.by_name.get(name).map(|id| self.get(*id))
    }

    /// The priority order `P` (transitively closed).
    pub fn priority(&self) -> &PriorityOrder {
        &self.priority
    }

    /// All rule ids.
    pub fn ids(&self) -> impl Iterator<Item = RuleId> + '_ {
        (0..self.rules.len()).map(RuleId)
    }
}

#[cfg(test)]
mod tests {
    use starling_sql::ast::Statement;
    use starling_sql::parse_script;
    use starling_storage::{ColumnDef, TableSchema, ValueType};

    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(TableSchema::new("t", vec![ColumnDef::new("a", ValueType::Int)]).unwrap())
            .unwrap();
        c
    }

    fn defs(src: &str) -> Vec<RuleDef> {
        parse_script(src)
            .unwrap()
            .into_iter()
            .filter_map(|s| match s {
                Statement::CreateRule(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn compile_resolves_priorities() {
        let rs = RuleSet::compile(
            &defs(
                "create rule a on t when inserted then delete from t precedes b end;
                 create rule b on t when deleted then delete from t end;
                 create rule c on t when inserted then delete from t follows b end;",
            ),
            &catalog(),
        )
        .unwrap();
        assert_eq!(rs.len(), 3);
        let a = rs.by_name("a").unwrap().id;
        let b = rs.by_name("b").unwrap().id;
        let c = rs.by_name("c").unwrap().id;
        assert!(rs.priority().gt(a, b));
        assert!(rs.priority().gt(b, c));
        assert!(rs.priority().gt(a, c)); // transitivity
    }

    #[test]
    fn duplicate_name_rejected() {
        let err = RuleSet::compile(
            &defs(
                "create rule a on t when inserted then delete from t end;
                 create rule a on t when deleted then delete from t end;",
            ),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateRule(_)));
    }

    #[test]
    fn unknown_reference_rejected() {
        let err = RuleSet::compile(
            &defs("create rule a on t when inserted then delete from t precedes zz end"),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::UnknownRule { .. }));
    }

    #[test]
    fn priority_cycle_rejected() {
        let err = RuleSet::compile(
            &defs(
                "create rule a on t when inserted then delete from t precedes b end;
                 create rule b on t when deleted then delete from t precedes a end;",
            ),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::PriorityCycle(_)));
    }

    #[test]
    fn invalid_rule_rejected() {
        let err = RuleSet::compile(
            &defs("create rule a on t when inserted then delete from zz end"),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Storage(_) | EngineError::Sql(_)));
    }

    #[test]
    fn signatures_available() {
        let rs = RuleSet::compile(
            &defs("create rule a on t when inserted then update t set a = 1 end"),
            &catalog(),
        )
        .unwrap();
        let r = rs.by_name("a").unwrap();
        assert_eq!(r.sig.performs.len(), 1);
        assert!(!r.sig.observable);
    }
}
