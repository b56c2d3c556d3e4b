//! # starling-engine
//!
//! Execution-time rule processing for the Starling production rule system:
//! the semantics of paper Section 2 (\[WCL91\]) made runnable, plus the
//! execution-graph model of Section 4 as an exhaustive *oracle*.
//!
//! The crate provides:
//!
//! * [`ops`] — tuple-level operations and the **net effect** algebra of
//!   \[WF90\]: per-tuple composition where update∘update composes,
//!   insert∘delete annihilates, insert∘update is an insertion of the updated
//!   tuple, and update∘delete is a deletion of the original;
//! * [`priority`] — the user-defined partial order from `precedes`/`follows`
//!   clauses, with transitive closure and cycle rejection;
//! * [`ruleset`] — compiled rule sets: validated rules plus their static
//!   signatures and the priority order;
//! * [`state`] — execution states `S = (D, TR)`: a database plus, per rule,
//!   the net effect of its pending transition (which determines both
//!   triggering and transition-table contents);
//! * [`processor`] — the rule-processing loop: triggering w.r.t. composite
//!   transitions, `Choose` among unordered eligible rules via a pluggable
//!   [`strategy`], condition evaluation, action execution, rollback;
//! * [`exec_graph`] — exhaustive exploration of **all** nondeterministic
//!   choices with canonical-state deduplication: the ground-truth oracle for
//!   termination, confluence, and observable determinism used by the
//!   experiments;
//! * [`program`] — the rule program as a value: the four rule-DDL edits
//!   and the persisted text form, decided once for every layer;
//! * [`session`] — a small front end that executes scripts (DDL, DML, rule
//!   definitions, certification directives) and runs assertion points.
//!
//! ```
//! use starling_engine::{FirstEligible, Outcome, Session};
//!
//! let mut session = Session::new();
//! session.execute_script("
//!     create table emp (id int, salary int);
//!     create rule cap on emp when inserted, updated(salary)
//!     if exists (select * from emp where salary > 100)
//!     then update emp set salary = 100 where salary > 100
//!     end;
//!     insert into emp values (1, 250);
//! ")?;
//! let run = session.commit(&mut FirstEligible)?;
//! assert_eq!(run.outcome, Outcome::Quiescent);
//! assert_eq!(run.fired_count(), 1);
//! # Ok::<(), starling_engine::EngineError>(())
//! ```

pub mod budget;
pub mod durability;
pub mod error;
pub mod exec_graph;
pub mod observable;
pub mod ops;
pub mod priority;
pub mod processor;
pub mod program;
pub mod ruleset;
pub mod session;
pub mod state;
pub mod strategy;

pub use budget::{Budget, BudgetClock, TruncationReason, Verdict};
pub use durability::Durability;
pub use error::EngineError;
pub use exec_graph::{
    explore, explore_from_ops, explore_parallel, explore_traced, explore_with_mode, ExecGraph,
    ExploreConfig, Verdicts,
};
pub use observable::{ObservableEvent, ObservableKind};
pub use ops::{NetChange, NetEffect, TupleOp};
pub use priority::PriorityOrder;
pub use processor::{
    consider_fired_rule, consider_rule, replay_rule_sequence, rule_fires, Consideration, EvalMode,
    Outcome, Processor, RunResult, StepOutcome,
};
pub use program::RuleProgram;
pub use ruleset::{CompiledRule, RuleId, RuleSet};
pub use session::{Session, SessionState};
pub use state::ExecState;
pub use strategy::{ChoiceStrategy, FirstEligible, LastEligible, Scripted};

/// Convenient result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
