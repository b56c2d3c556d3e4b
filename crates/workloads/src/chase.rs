//! Chase-style linear existential rules (ROADMAP item 15), after the
//! termination studies of Calautti, Gottlob & Pieris on linear
//! tuple-generating dependencies.
//!
//! A *linear TGD* `r(x) → ∃y s(x, y)` has a single body atom; the chase
//! repairs a violated dependency by inserting the head atom with a fresh
//! labeled null for each existential variable. Starburst rules encode a
//! chase step directly — one rule per TGD, triggered by insertions into
//! the body relation — and labeled nulls are simulated by a `fresh`
//! counter table bumped before each head insertion. This imports the
//! chase's termination and confluence regimes into the analyzers:
//!
//! * [`terminating`] — a weakly acyclic dependency set: the existential
//!   edge `person → parent` is never fed back into `person`, so the chase
//!   (and rule processing) terminates on every database.
//! * [`nonterminating`] — closes that loop with the full TGD
//!   `parent(c, p) → person(p)`: the position cycle through an existential
//!   edge makes the chase generate fresh values forever, the classic
//!   non-weakly-acyclic shape. The triggering-graph analyzer must flag the
//!   cycle, and the oracle finds unbounded growth under any budget.
//! * [`order_sensitive`] — two existential TGDs drawing from the *same*
//!   fresh-label supply. Chase results are unique only up to null
//!   renaming; under concrete label arithmetic that renaming becomes an
//!   observable divergence — which TGD fires first decides which labels
//!   each head receives — so the rule program is genuinely non-confluent
//!   and a prime target for `starling explain`.

use crate::Workload;

/// Weakly acyclic linear chase: terminates, and the analyzer can see it.
pub fn terminating() -> Workload {
    Workload {
        name: "chase_terminating",
        setup: SETUP.to_owned(),
        rules: TERMINATING_RULES.to_owned(),
        user_transition: USER.to_owned(),
    }
}

/// Non-weakly-acyclic linear chase: the existential cycle
/// `person → parent → person` generates fresh labels forever.
pub fn nonterminating() -> Workload {
    Workload {
        name: "chase_nonterminating",
        setup: SETUP.to_owned(),
        rules: format!("{TERMINATING_RULES}{FEEDBACK_RULE}"),
        user_transition: USER.to_owned(),
    }
}

/// Two unordered existential TGDs sharing the fresh-label supply: the
/// chase's "unique up to null renaming" caveat made concrete as a real
/// confluence violation.
pub fn order_sensitive() -> Workload {
    Workload {
        name: "chase_order_sensitive",
        setup: SETUP.to_owned(),
        rules: ORDER_SENSITIVE_RULES.to_owned(),
        user_transition: USER.to_owned(),
    }
}

const SETUP: &str = "
create table person (pid int);
create table parent (cid int, pid int);
create table mentor (mid int, pid int);
create table ancestor (cid int, pid int);
create table fresh (next int);

insert into fresh values (1000);
insert into person values (1);
";

/// `person(x) → ∃y parent(x, y)` plus the full (existential-free) linear
/// TGD `parent(c, p) → ancestor(c, p)`: a two-step cascade whose position
/// graph is acyclic.
const TERMINATING_RULES: &str = "
-- Linear existential TGD: every person has a parent with a fresh label.
create rule tgd_parent on person
when inserted
then update fresh set next = next + 1;
     insert into parent select i.pid, f.next from inserted i, fresh f
end;

-- Linear full TGD: parenthood is ancestry (plain propagation, no nulls).
create rule tgd_ancestor on parent
when inserted
then insert into ancestor select cid, pid from inserted
end;
";

/// The feedback TGD `parent(c, p) → person(p)`: generated parents are
/// persons themselves, so `tgd_parent` re-fires on chase-invented values —
/// the non-weakly-acyclic existential cycle.
const FEEDBACK_RULE: &str = "
create rule tgd_person on parent
when inserted
then insert into person select pid from inserted
end;
";

/// `person(x) → ∃y parent(x, y)` and `person(x) → ∃z mentor(x, z)`,
/// unordered, both bumping the shared `fresh` counter.
const ORDER_SENSITIVE_RULES: &str = "
create rule tgd_parent on person
when inserted
then update fresh set next = next + 1;
     insert into parent select i.pid, f.next from inserted i, fresh f
end;

create rule tgd_mentor on person
when inserted
then update fresh set next = next + 1;
     insert into mentor select i.pid, f.next from inserted i, fresh f
end;
";

const USER: &str = "
insert into person values (2);
";

#[cfg(test)]
mod tests {
    use starling_engine::{explore, Budget, Verdict};
    use starling_provenance::explain_divergence;

    use super::*;

    fn explored(w: &Workload, cfg: &Budget) -> starling_engine::ExecGraph {
        let (db, rules) = w.compile().unwrap();
        explore(&rules, &db, &w.user_actions().unwrap(), cfg).unwrap()
    }

    #[test]
    fn weakly_acyclic_chase_terminates_confluently() {
        let g = explored(&terminating(), &Budget::default());
        assert_eq!(g.termination_verdict(), Verdict::Holds);
        assert_eq!(g.confluence_verdict(), Verdict::Holds);
    }

    #[test]
    fn existential_cycle_exhausts_any_budget() {
        let cfg = Budget::default().with_max_states(200).with_max_rows(500);
        let g = explored(&nonterminating(), &cfg);
        assert!(g.truncated(), "the chase generates fresh values forever");
        // The static side agrees: the triggering graph has a cycle no
        // special case discharges (fresh values grow without bound).
        let w = nonterminating();
        let (db, rules) = w.compile().unwrap();
        let ctx = starling_analysis::AnalysisContext::from_ruleset(
            &rules,
            starling_analysis::Certifications::new(),
        );
        let report = starling_analysis::AnalysisReport::run(&ctx, &[]);
        assert!(!report.termination.is_guaranteed());
        drop(db);
    }

    #[test]
    fn shared_null_supply_diverges_with_witness() {
        let w = order_sensitive();
        let (db, rules) = w.compile().unwrap();
        let cfg = Budget::default();
        let ex = explain_divergence(&rules, &db, &w.user_actions().unwrap(), &cfg).unwrap();
        let witness = ex.witness.expect("label assignment depends on order");
        assert!(witness.replay_verified);
        assert_ne!(witness.left_digest, witness.right_digest);
    }
}
