//! The full interactive-environment surface in one tour: the §6.4 loop,
//! predicate-level refinement, restricted user operations, incremental
//! re-analysis by partition, and the baseline comparison.
//!
//! ```sh
//! cargo run --example interactive_analysis
//! ```

use starling::analysis::certifications::Certifications;
use starling::analysis::confluence::analyze_confluence;
use starling::analysis::context::AnalysisContext;
use starling::analysis::partition::partition_rules;
use starling::analysis::restricted::analyze_restricted;
use starling::analysis::IncrementalAnalysis;
use starling::baselines::compare_all;
use starling::prelude::*;
use starling::sql::ast::Statement;
use starling::storage::Op;

fn main() {
    // Two independent subsystems in one rule program: order handling
    // (sharded counters — racy by Lemma 6.1 but provably disjoint) and
    // an inventory cascade.
    let mut session = Session::new();
    session
        .execute_script(
            "create table orders (oid int, item int);
             create table shard (k int, v int);
             create table stock (item int, onhand int);
             create table restock_queue (item int);
             insert into shard values (1, 0);
             insert into shard values (2, 0);
             insert into stock values (7, 3);",
        )
        .unwrap();
    session
        .execute_script(
            "create rule count_a on orders when inserted
             then update shard set v = v + 1 where k = 1 end;
             create rule count_b on orders when inserted
             then update shard set v = v + 1 where k = 2 end;
             create rule consume on orders when inserted
             then update stock set onhand = onhand - 1
                  where item in (select item from inserted) end;
             create rule reorder on stock when updated(onhand)
             then insert into restock_queue
                  select item from new_updated where onhand < 2 end;",
        )
        .unwrap();
    let defs = session.rule_defs().to_vec();
    let rules = RuleSet::compile(&defs, session.db().catalog()).unwrap();

    // 1. Plain analysis: the shard counters are flagged (condition 5).
    let plain = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let plain_conf = analyze_confluence(&plain);
    println!(
        "plain analysis: {} confluence violation(s)",
        plain_conf.violations.len()
    );
    assert!(!plain_conf.requirement_holds());

    // 2. The Section 9 refinement proves the shards disjoint; what remains
    //    is the genuine consume/reorder interaction.
    let refined = AnalysisContext::from_ruleset(&rules, Certifications::new()).with_refinement();
    let conf = analyze_confluence(&refined);
    println!(
        "with refinement: {} violation(s) remain",
        conf.violations.len()
    );
    for v in &conf.violations {
        println!("  {} vs {}", v.conflict.0, v.conflict.1);
    }

    // 3. The interactive loop orders the rest.
    let mut interactive = InteractiveSession::new(session);
    let rounds = interactive.order_until_confluent(10).unwrap();
    assert!(rounds.last().unwrap().confluence.requirement_holds());
    println!("interactive loop added {} ordering(s)", rounds.len() - 1);

    // 4. Restricted user operations: if users only ever delete orders,
    //    nothing is reachable and every property holds.
    let restricted = analyze_restricted(&plain, &plain_conf, &[Op::Delete("orders".to_owned())]);
    println!(
        "restricted to deletes on orders: reachable = {:?}, all guaranteed = {}",
        restricted.reachable,
        restricted.all_guaranteed()
    );
    assert!(restricted.all_guaranteed());

    // 5. Incremental re-analysis by partition (Section 9): the counters and
    //    the inventory cascade share the orders table here, so one
    //    partition. A second analyze of the same rules rechecks nothing;
    //    certifying the counters' conflict rechecks pairs of that
    //    partition only.
    let parts = partition_rules(&plain);
    println!("partitions: {}", parts.len());
    let mut inc = IncrementalAnalysis::new();
    let mut certs = Certifications::new();
    inc.analyze(&rules, &certs, false, &[]);
    inc.analyze(&rules, &certs, false, &[]);
    assert!(inc.last_rechecked().is_empty());
    certs.certify_commute("count_a", "count_b");
    inc.analyze(&rules, &certs, false, &[]);
    let pairs = inc.last_rechecked();
    let mut touched: Vec<_> = pairs
        .iter()
        .map(|&(i, _)| parts.iter().position(|g| g.contains(&i)))
        .collect();
    touched.dedup();
    println!(
        "after certifying count_a ~ count_b: {} of {} partition(s) rechecked, {} pair(s)",
        touched.len(),
        parts.len(),
        pairs.len()
    );
    assert_eq!(touched.len(), 1);

    // 6. Baseline comparison (Section 9).
    let row = compare_all(&plain);
    println!(
        "baselines: starling={} hh91={} zh90={} ras90={}",
        row.starling, row.hh91, row.zh90, row.ras90
    );
    assert_eq!(row.subsumption_violation(), None);

    // 7. And the program still runs.
    let mut runner = Session::new();
    runner
        .execute_script(
            "create table orders (oid int, item int);
             create table shard (k int, v int);
             create table stock (item int, onhand int);
             create table restock_queue (item int);
             insert into shard values (1, 0);
             insert into shard values (2, 0);
             insert into stock values (7, 3);",
        )
        .unwrap();
    for d in &defs {
        runner.execute(&Statement::CreateRule(d.clone())).unwrap();
    }
    runner
        .execute_script("insert into orders values (1, 7); insert into orders values (2, 7)")
        .unwrap();
    let run = runner.commit(&mut FirstEligible).unwrap();
    println!(
        "execution: {:?}, {} rule(s) fired",
        run.outcome,
        run.fired_count()
    );
    println!("{}", runner.db());
}
