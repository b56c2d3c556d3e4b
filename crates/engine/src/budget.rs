//! Unified resource budgets for rule processing and the execution-graph
//! oracle, with reason-carrying exhaustion.
//!
//! The paper's analyses are undecidable in general, so every dynamic
//! component is bounded: the [`crate::Processor`] by a consideration count,
//! the [`crate::exec_graph`] explorer by state and path counts, and both by
//! an optional wall-clock deadline. A single [`Budget`] carries all four
//! bounds; when one is exhausted the result says *which one* via
//! [`TruncationReason`], so callers can distinguish "the property fails"
//! from "the oracle ran out of budget before deciding" ([`Verdict`]).

use std::fmt;
use std::time::{Duration, Instant};

/// Why a bounded computation stopped before reaching a definitive answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TruncationReason {
    /// The rule processor hit its consideration limit
    /// ([`Budget::max_considerations`]).
    Considerations,
    /// The explorer hit its distinct-state limit ([`Budget::max_states`]).
    States,
    /// Path enumeration hit its root-to-final path limit
    /// ([`Budget::max_paths`]).
    Paths,
    /// A state's database exceeded the row limit ([`Budget::max_rows`]) —
    /// the rule program grows the database faster than exploration or
    /// processing can bound it (e.g. a self-referencing
    /// `insert ... select` that multiplies rows on every firing).
    Rows,
    /// The wall-clock deadline expired ([`Budget::deadline`]).
    Deadline,
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TruncationReason::Considerations => "consideration budget exhausted",
            TruncationReason::States => "state budget exhausted",
            TruncationReason::Paths => "path budget exhausted",
            TruncationReason::Rows => "row budget exhausted",
            TruncationReason::Deadline => "deadline exceeded",
        })
    }
}

/// Resource bounds shared by the rule processor and the oracle.
///
/// `ExploreConfig` is an alias of this type: exploration reads
/// `max_states` / `max_paths` / `max_rows` / `deadline`, the processor
/// reads `max_considerations` / `max_rows` / `deadline`. One budget can drive both, so a CLI
/// `--timeout` bounds an entire `analyze`/`explore`/`run` invocation
/// coherently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum rule considerations per processing run.
    pub max_considerations: usize,
    /// Maximum distinct states the explorer expands.
    pub max_states: usize,
    /// Maximum root-to-final paths enumerated for observable streams.
    pub max_paths: usize,
    /// Maximum total rows any single explored state's database — or a
    /// processing run's database after a consideration — may hold. Guards
    /// against rule programs whose actions multiply rows on every
    /// firing (exponential database growth stays within `max_states` while
    /// exhausting memory). The default is effectively unlimited.
    pub max_rows: usize,
    /// Optional wall-clock bound (measured from the start of the run).
    pub deadline: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_considerations: 10_000,
            max_states: 20_000,
            max_paths: 50_000,
            max_rows: usize::MAX,
            deadline: None,
        }
    }
}

impl Budget {
    /// The default budget.
    pub fn new() -> Self {
        Budget::default()
    }

    /// Sets the consideration bound.
    pub fn with_max_considerations(mut self, n: usize) -> Self {
        self.max_considerations = n;
        self
    }

    /// Sets the state bound.
    pub fn with_max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Sets the path bound.
    pub fn with_max_paths(mut self, n: usize) -> Self {
        self.max_paths = n;
        self
    }

    /// Sets the per-state row bound.
    pub fn with_max_rows(mut self, n: usize) -> Self {
        self.max_rows = n;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Starts the wall clock for this budget. Call once at the beginning of
    /// a bounded run, then poll [`BudgetClock::expired`].
    pub fn start_clock(&self) -> BudgetClock {
        BudgetClock {
            deadline_at: self.deadline.map(|d| Instant::now() + d),
        }
    }
}

/// A running wall clock against a budget's deadline.
#[derive(Clone, Copy, Debug)]
pub struct BudgetClock {
    deadline_at: Option<Instant>,
}

impl BudgetClock {
    /// Whether the deadline has passed (always `false` without one).
    pub fn expired(&self) -> bool {
        self.deadline_at.is_some_and(|at| Instant::now() >= at)
    }
}

/// A reason-carrying oracle answer.
///
/// The `Option<bool>` verdict methods on [`crate::ExecGraph`] collapse
/// "budget ran out" and "property undefined here" into `None`; this type
/// keeps them apart so callers (and exit codes) can react differently to
/// "no" and "don't know".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds for this initial state.
    Holds,
    /// The property fails for this initial state (a counterexample exists
    /// in the explored graph).
    Fails,
    /// The budget was exhausted before the property could be decided.
    Inconclusive(TruncationReason),
    /// The property is undefined for this execution — e.g. confluence and
    /// observable determinism presume termination, and some execution path
    /// does not terminate.
    NotApplicable,
}

impl Verdict {
    /// Collapses to the legacy `Option<bool>` form (`None` for both
    /// [`Verdict::Inconclusive`] and [`Verdict::NotApplicable`]).
    pub fn to_option(self) -> Option<bool> {
        match self {
            Verdict::Holds => Some(true),
            Verdict::Fails => Some(false),
            Verdict::Inconclusive(_) | Verdict::NotApplicable => None,
        }
    }

    /// Whether this verdict is definitive (`Holds` or `Fails`).
    pub fn is_decided(self) -> bool {
        matches!(self, Verdict::Holds | Verdict::Fails)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => f.write_str("yes"),
            Verdict::Fails => f.write_str("no"),
            Verdict::Inconclusive(r) => write!(f, "inconclusive ({r})"),
            Verdict::NotApplicable => f.write_str("undefined (some execution does not terminate)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_defaults() {
        let b = Budget::new()
            .with_max_considerations(7)
            .with_max_states(8)
            .with_max_paths(9)
            .with_deadline(Duration::from_millis(5));
        assert_eq!(b.max_considerations, 7);
        assert_eq!(b.max_states, 8);
        assert_eq!(b.max_paths, 9);
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
        assert_eq!(Budget::default().deadline, None);
    }

    #[test]
    fn clock_without_deadline_never_expires() {
        let clock = Budget::default().start_clock();
        assert!(!clock.expired());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let clock = Budget::default()
            .with_deadline(Duration::ZERO)
            .start_clock();
        assert!(clock.expired());
    }

    #[test]
    fn verdict_display_and_option() {
        assert_eq!(Verdict::Holds.to_string(), "yes");
        assert_eq!(Verdict::Fails.to_string(), "no");
        assert_eq!(
            Verdict::Inconclusive(TruncationReason::States).to_string(),
            "inconclusive (state budget exhausted)"
        );
        assert_eq!(
            Verdict::Inconclusive(TruncationReason::Deadline).to_string(),
            "inconclusive (deadline exceeded)"
        );
        assert_eq!(Verdict::Holds.to_option(), Some(true));
        assert_eq!(Verdict::Fails.to_option(), Some(false));
        assert_eq!(Verdict::NotApplicable.to_option(), None);
        assert_eq!(
            Verdict::Inconclusive(TruncationReason::Paths).to_option(),
            None
        );
        assert!(Verdict::Fails.is_decided());
        assert!(!Verdict::NotApplicable.is_decided());
    }
}
