//! Property: transaction atomicity survives storage faults injected at
//! *every* mutating-op index (ISSUE satellite; paper §2's all-or-nothing
//! promise).
//!
//! For random rule sets and user transitions, the fault-sweep harness
//! replays the transaction with a one-shot fault before op `k` for each
//! `k = 0..N` (`N` = ops the fault-free run performs) plus an unfired
//! control at `k = N`, and requires every run to land on exactly the
//! pre-transaction snapshot (fault fired ⇒ aborted) or exactly the
//! fault-free final state (fault unfired) — never a hybrid.

use proptest::prelude::*;

use starling::engine::Budget;
use starling_fuzz::{fault_sweep, generate, FuzzCase, GenConfig};

const CONFIG: GenConfig = GenConfig {
    max_tables: 3,
    p_order: 0.2,
    p_observable: 0.15,
    ..GenConfig::CORPUS
};

proptest! {
    #[test]
    fn injected_faults_never_leave_a_hybrid_state(
        seed in 0u64..500,
        salt in 1u64..50,
    ) {
        let case = generate(seed, &CONFIG);
        let case = FuzzCase {
            user_actions: case.transition(seed ^ salt, &CONFIG),
            ..case
        };
        // A generated `insert … select` from its own table doubles it on
        // every firing: the row cap bounds each run.
        let budget = Budget::default()
            .with_max_considerations(40)
            .with_max_rows(100);
        let report = fault_sweep(&case, &budget);
        prop_assert!(
            report.holds(),
            "seed {} salt {}: {:?}",
            seed,
            salt,
            report.violations
        );
        // The sweep is exhaustive, not vacuous: every pre-`N` index
        // aborted, and the control run matched the fault-free state.
        prop_assert_eq!(report.aborted as u64, report.mutating_ops);
        prop_assert_eq!(report.committed, 1);
    }
}
