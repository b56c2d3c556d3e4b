//! Section 8: observable determinism, and its orthogonality to confluence.
//!
//! The audit workload's two `SELECT`-action rules are unordered: the final
//! database is the same on every path (confluent) but the order of audit
//! output depends on scheduling. Both the static analysis (via the
//! fictional `Obs` table) and the exhaustive oracle detect this; ordering
//! the audit rules fixes it.
//!
//! ```sh
//! cargo run --example observable_audit
//! ```

use starling::analysis::observable::analyze_observable_determinism;
use starling::prelude::*;
use starling::workloads::audit;

fn main() {
    let w = audit::workload();
    let (db, defs, _) = w.build().expect("workload builds");
    let rules = RuleSet::compile(&defs, db.catalog()).expect("rules compile");

    // Static: not observably deterministic.
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let obs = analyze_observable_determinism(&ctx);
    println!(
        "observable rules: {:?}\nSig(Obs): {:?}\nstatic verdict: {}",
        obs.observable_rules,
        obs.significant,
        if obs.is_guaranteed() {
            "deterministic"
        } else {
            "MAY NOT be deterministic"
        }
    );
    assert!(!obs.is_guaranteed());

    // Oracle: enumerate the actual observable streams.
    let cfg = ExploreConfig::default();
    let user = w.user_actions().unwrap();
    let g = explore(&rules, &db, &user, &cfg).unwrap();
    let streams = g.observable_streams(&cfg).expect("terminating");
    println!(
        "oracle: confluent = {:?}, {} distinct observable stream(s)",
        g.confluent(),
        streams.len()
    );
    assert_eq!(g.confluent(), Some(true), "orthogonality: still confluent");
    assert!(streams.len() > 1);

    // Fix: by Corollary 8.2, *every* pair of observable rules must be
    // ordered — that includes the rollback guard, not just the two audit
    // queries. Build the chain apply_transfer > guard > audit_low >
    // audit_large.
    let mut fixed = defs.clone();
    let order = |hi: &str, lo: &str, fixed: &mut Vec<starling::sql::RuleDef>| {
        fixed
            .iter_mut()
            .find(|d| d.name == hi)
            .unwrap()
            .precedes
            .push(lo.to_owned());
    };
    order("audit_low", "audit_large", &mut fixed);
    order("guard_overdraft", "audit_low", &mut fixed);
    order("apply_transfer", "guard_overdraft", &mut fixed);
    let fixed_rules = RuleSet::compile(&fixed, db.catalog()).unwrap();
    let fixed_ctx = AnalysisContext::from_ruleset(&fixed_rules, Certifications::new());
    let fixed_obs = analyze_observable_determinism(&fixed_ctx);
    let fixed_graph = explore(&fixed_rules, &db, &user, &cfg).unwrap();
    println!(
        "after ordering all observable rules: static = {}, oracle streams = {}",
        if fixed_obs.is_guaranteed() {
            "deterministic"
        } else {
            "may not"
        },
        fixed_graph.observable_streams(&cfg).unwrap().len()
    );
    assert!(fixed_obs.is_guaranteed());
    assert_eq!(fixed_graph.observable_streams(&cfg).unwrap().len(), 1);
}
