//! The Section 6.4 case study: an integrity-constraint-maintenance rule set
//! that is initially non-confluent, made confluent through the interactive
//! certify/order loop — including the paper's footnote-6 phenomenon where a
//! source of non-confluence "moves around" as orderings are added.
//!
//! ```sh
//! cargo run --example constraint_maintenance
//! ```

use starling::engine::RuleProgram;
use starling::prelude::*;
use starling::workloads::constraints;

fn main() {
    let w = constraints::workload();
    let (db, defs, _) = w.build().expect("workload builds");
    let mut session = InteractiveSession::new(Session::restore(db, defs, None, Vec::new()));

    // Round 0: the raw rule set.
    let report = session.analyze(false, &[]).expect("analysis runs");
    println!("=== initial analysis ===\n{report}");
    assert!(!report.confluence.requirement_holds());

    // Drive the Section 6.4 loop: order the first violating pair, repeat.
    let rounds = session.order_until_confluent(20).expect("analysis runs");
    let last = rounds.last().expect("at least one round");
    assert!(last.confluence.requirement_holds(), "loop converges");
    println!(
        "=== loop converged after adding {} ordering(s) ===",
        rounds.len() - 1
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "  round {i}: {} violation(s), {} open cycle(s)",
            r.confluence.violations.len(),
            r.termination
                .cycles
                .iter()
                .filter(|c| !c.discharged)
                .count()
        );
    }

    // Cycles through cap_salary / maintain_totals remain (they retrigger
    // themselves); discharge them with the workload's documented
    // certificates.
    for certificate in RuleProgram::parse(constraints::RESOLUTIONS)
        .unwrap()
        .directives
    {
        session.certify(certificate).unwrap();
    }
    let final_report = session.analyze(false, &[]).unwrap();
    println!("\n=== final analysis ===\n{final_report}");
    assert!(final_report.confluence.requirement_holds());
    assert!(final_report.termination.is_guaranteed());

    // And the rules still do their job at runtime.
    let mut s = Session::new();
    s.execute_script(&w.setup).unwrap();
    s.execute_script(&w.rules).unwrap();
    s.execute_script(&w.user_transition).unwrap();
    let run = s.commit(&mut FirstEligible).unwrap();
    println!(
        "execution outcome: {:?} ({} rules fired)",
        run.outcome,
        run.fired_count()
    );
    println!("{}", s.db());
}
