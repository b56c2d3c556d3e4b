//! Corpus builders for the `experiments` binary (see `EXPERIMENTS.md` at
//! the repository root for the experiment index E1–E13).

use starling_analysis::certifications::Certifications;
use starling_analysis::context::AnalysisContext;
use starling_engine::RuleSet;
use starling_workloads::random::{generate, GeneratedWorkload, RandomConfig};

/// The standard experiment corpus configuration (matches the calibration
/// used by the integration tests: a healthy mix of accepted and rejected
/// rule sets).
pub fn corpus_config(seed: u64) -> RandomConfig {
    RandomConfig {
        n_tables: 4,
        n_cols: 2,
        n_rules: 4,
        max_actions: 2,
        p_condition: 0.5,
        p_observable: 0.2,
        p_priority: 0.4,
        rows_per_table: 2,
        seed,
    }
}

/// A scalability-sweep configuration with `n_rules` rules over
/// proportionally many tables (keeps triggering density roughly constant
/// as size grows).
pub fn scale_config(n_rules: usize, seed: u64) -> RandomConfig {
    RandomConfig {
        n_tables: (n_rules / 2).max(2),
        n_cols: 3,
        n_rules,
        max_actions: 2,
        p_condition: 0.5,
        p_observable: 0.1,
        p_priority: 0.3,
        rows_per_table: 2,
        seed,
    }
}

/// Generates and compiles a workload, returning everything the analyses
/// need.
pub fn build(cfg: &RandomConfig) -> (GeneratedWorkload, RuleSet, AnalysisContext) {
    let w = generate(cfg);
    let rules = w.compile();
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    (w, rules, ctx)
}

/// Builds `k` genuinely independent partitions of ~5 rules each by
/// generating `k` small workloads over disjoint, namespaced table sets
/// (used by E12).
pub fn partitioned_context(k: usize) -> AnalysisContext {
    use starling_sql::RuleDef;
    use starling_storage::{Catalog, ColumnDef, TableSchema, ValueType};

    let mut catalog = Catalog::new();
    let mut defs: Vec<RuleDef> = Vec::new();
    for p in 0..k {
        let w = generate(&RandomConfig {
            n_tables: 3,
            n_cols: 2,
            n_rules: 5,
            max_actions: 2,
            p_condition: 0.5,
            p_observable: 0.1,
            p_priority: 0.3,
            rows_per_table: 2,
            seed: p as u64,
        });
        for schema in w.catalog.tables() {
            catalog
                .add_table(
                    TableSchema::new(
                        format!("p{p}_{}", schema.name),
                        schema
                            .columns
                            .iter()
                            .map(|c| ColumnDef {
                                name: c.name.clone(),
                                ty: ValueType::Int,
                                nullable: c.nullable,
                            })
                            .collect(),
                    )
                    .expect("distinct columns"),
                )
                .expect("distinct tables");
        }
        for def in &w.defs {
            // Rename every generated table (`tN`) and rule (`rN`) token to
            // its namespaced form. Generated identifiers are exactly
            // `t<digits>` / `r<digits>` / `c<digits>`, so a simple
            // token-boundary scan is unambiguous.
            let script = def.to_string();
            let renamed = namespace_tokens(&script, p);
            let starling_sql::ast::Statement::CreateRule(r) =
                starling_sql::parse_statement(&renamed).expect("renamed rule parses")
            else {
                unreachable!()
            };
            defs.push(r);
        }
    }
    let rules = RuleSet::compile(&defs, &catalog).expect("partitioned set compiles");
    AnalysisContext::from_ruleset(&rules, Certifications::new())
}

/// Prefixes every `t<digits>` / `r<digits>` identifier token with `p{p}_`.
fn namespace_tokens(script: &str, p: usize) -> String {
    let chars: Vec<char> = script.chars().collect();
    let mut out = String::with_capacity(script.len() + 64);
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let at_token_start = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if at_token_start && (c == 't' || c == 'r') {
            let mut j = i + 1;
            while j < chars.len() && chars[j].is_ascii_digit() {
                j += 1;
            }
            let ends_token = j == chars.len() || !(chars[j].is_alphanumeric() || chars[j] == '_');
            if j > i + 1 && ends_token {
                out.push_str(&format!("p{p}_"));
                out.extend(&chars[i..j]);
                i = j;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}
