//! `starling-fuzz` — randomized rule-program generation with differential
//! oracles and counterexample shrinking.
//!
//! The paper's analyzer is only trustworthy if its verdicts agree with
//! ground truth on programs nobody hand-wrote. This crate closes that loop:
//! a seeded generator produces whole random rule programs ([`gen`]), each
//! program runs through four independent implementations of "what does this
//! program do" ([`oracle`]), any disagreement is greedily shrunk to a
//! minimal reproducer ([`mod@shrink`]) and pinned as a runnable `.star` script
//! ([`corpus`]) that replays as an ordinary `cargo test` regression. The
//! same generator feeds the reproduction's experiments and property suites,
//! and [`mod@fault_sweep`] checks a generated transaction's atomicity under
//! a storage fault injected at every mutating-op index.
//!
//! Everything is deterministic: the same `(seed, cases, budget)` triple
//! produces the same cases, the same oracle answers, and a byte-identical
//! [`FuzzReport`] rendering — the contract `starling fuzz` exposes and CI
//! relies on. No wall-clock deadline is ever set on the exploration budget
//! for exactly this reason; the per-case bound is `max_states`.

pub mod corpus;
pub mod fault_sweep;
pub mod gen;
pub mod oracle;
pub mod shrink;

use std::path::PathBuf;

use starling_engine::Budget;

pub use fault_sweep::{fault_sweep, SweepReport};
pub use gen::{generate, FuzzCase, GenConfig};
pub use oracle::{check_script, CaseOutcome, Disagreement, Mutation};
pub use shrink::shrink;

/// One fuzz campaign's configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Root seed; case `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Per-case exploration budget (no deadline: determinism).
    pub budget: Budget,
    /// Generator sizes and probabilities.
    pub gen: GenConfig,
    /// Injected analyzer bug, for harness self-tests ([`Mutation::None`]
    /// in production fuzzing).
    pub mutation: Mutation,
    /// Where to write shrunk reproducers (`None`: report only).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 100,
            // Small per-case bounds: a fuzz campaign wants many shallow
            // probes, not one deep one. No deadline — reports must be a
            // pure function of the seed. The row cap matters: generated
            // `insert ... select` rules can multiply rows on every firing,
            // and without it a single case exhausts memory long before
            // `max_states` trips.
            budget: Budget::default()
                .with_max_states(300)
                .with_max_paths(2_000)
                .with_max_considerations(5_000)
                .with_max_rows(2_000),
            gen: GenConfig::default(),
            mutation: Mutation::None,
            corpus_dir: None,
        }
    }
}

/// One disagreement found by a campaign, after shrinking.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Index of the generated case within the campaign.
    pub case_index: usize,
    /// The oracle that fired.
    pub oracle: &'static str,
    /// Both sides' answers, from the *shrunk* reproducer.
    pub detail: String,
    /// For confluence findings: the compact divergence witness, re-derived
    /// from the shrunk reproducer so it stays self-explaining.
    pub witness: Option<String>,
    /// The shrunk case.
    pub case: FuzzCase,
    /// Candidate evaluations the shrinker spent.
    pub shrink_checks: usize,
    /// Where the reproducer was written, when a corpus dir was given.
    pub path: Option<PathBuf>,
}

/// A campaign summary. [`FuzzReport::render`] is byte-identical across runs
/// with the same config.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The campaign's configuration.
    pub config: FuzzConfig,
    /// Total states across all (sequential plan-mode) explorations.
    pub total_states: u64,
    /// Cases whose exploration hit a budget.
    pub truncated: usize,
    /// Cases whose user transition raised an engine error (all engines
    /// agreed on the error).
    pub errored: usize,
    /// All disagreements, shrunk.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Whether the campaign found no disagreements.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// The deterministic text report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "starling-fuzz campaign");
        let _ = writeln!(
            s,
            "  seed {}  cases {}  budget max_states={} max_paths={} max_considerations={} max_rows={}",
            self.config.seed,
            self.config.cases,
            self.config.budget.max_states,
            self.config.budget.max_paths,
            self.config.budget.max_considerations,
            self.config.budget.max_rows
        );
        if self.config.mutation != Mutation::None {
            let _ = writeln!(
                s,
                "  INJECTED ANALYZER BUG: {} (harness self-test mode)",
                self.config.mutation.name()
            );
        }
        let _ = writeln!(
            s,
            "  explored {} state(s) total; {} truncated, {} errored transition(s)",
            self.total_states, self.truncated, self.errored
        );
        let _ = writeln!(s, "  disagreements: {}", self.findings.len());
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(s);
            let _ = writeln!(
                s,
                "FINDING {}: oracle `{}` on case {} (shrunk: {} rule(s), {} row(s), \
                 {} user statement(s); {} shrink check(s))",
                i + 1,
                f.oracle,
                f.case_index,
                f.case.defs.len(),
                f.case.rows.len(),
                f.case.user_actions.len(),
                f.shrink_checks
            );
            for line in f.detail.lines() {
                let _ = writeln!(s, "  | {line}");
            }
            if let Some(p) = &f.path {
                let _ = writeln!(s, "  reproducer: {}", p.display());
            }
            for line in f.case.script().lines() {
                let _ = writeln!(s, "    {line}");
            }
        }
        s
    }
}

/// splitmix64 step — derives per-case seeds from the campaign seed so cases
/// are decorrelated but reproducible individually.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs a fuzz campaign: generate, cross-check, shrink, pin.
pub fn run_fuzz(config: FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        total_states: 0,
        truncated: 0,
        errored: 0,
        findings: Vec::new(),
        config,
    };
    for i in 0..report.config.cases {
        let case_seed = mix(report.config.seed, i as u64);
        let case = generate(case_seed, &report.config.gen);
        let outcome = check_script(
            &case.script(),
            &report.config.budget,
            report.config.mutation,
        );
        report.total_states += outcome.states as u64;
        if outcome.truncated {
            report.truncated += 1;
        }
        if outcome.errored {
            report.errored += 1;
        }
        let Some(d) = outcome.disagreement else {
            continue;
        };
        let (small, shrink_checks) = shrink(
            &case,
            &report.config.budget,
            report.config.mutation,
            d.oracle,
        );
        // Re-check the shrunk case for the final detail and witness (the
        // shrunk reproducer's answers, not the original's — this is also
        // what re-minimizes a divergence witness after every shrink).
        let (detail, witness) = check_script(
            &small.script(),
            &report.config.budget,
            report.config.mutation,
        )
        .disagreement
        .map(|d| (d.detail, d.witness))
        .unwrap_or((d.detail, d.witness));
        let path = report.config.corpus_dir.as_ref().and_then(|dir| {
            corpus::write_reproducer(
                dir,
                report.config.seed,
                i,
                d.oracle,
                &detail,
                witness.as_deref(),
                &small.script(),
            )
            .ok()
        });
        report.findings.push(Finding {
            case_index: i,
            oracle: d.oracle,
            detail,
            witness,
            case: small,
            shrink_checks,
            path,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cases: usize, mutation: Mutation) -> FuzzConfig {
        FuzzConfig {
            cases,
            mutation,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_fuzz(quick(12, Mutation::None));
        let b = run_fuzz(quick(12, Mutation::None));
        assert_eq!(a.render(), b.render());
        assert_eq!(a.total_states, b.total_states);
    }

    #[test]
    fn shipped_code_has_no_disagreements() {
        let r = run_fuzz(quick(40, Mutation::None));
        assert!(r.ok(), "{}", r.render());
    }

    #[test]
    fn injected_analyzer_bug_is_caught_and_shrunk() {
        // The acceptance-criteria mutation check: pretending the analyzer
        // certifies termination for every program must produce a
        // disagreement within a modest number of cases, and the shrunk
        // reproducer must be tiny.
        let r = run_fuzz(quick(60, Mutation::CertifyTermination));
        assert!(
            !r.findings.is_empty(),
            "mutation produced no disagreement in 60 cases:\n{}",
            r.render()
        );
        for f in &r.findings {
            assert_eq!(f.oracle, "analyzer-termination", "{}", r.render());
            assert!(
                f.case.defs.len() <= 3,
                "finding on case {} shrunk to {} rules (> 3):\n{}",
                f.case_index,
                f.case.defs.len(),
                f.case.script()
            );
        }
    }

    #[test]
    fn injected_confluence_bug_is_caught_and_shrunk() {
        let r = run_fuzz(quick(60, Mutation::CertifyConfluence));
        assert!(
            !r.findings.is_empty(),
            "mutation produced no disagreement in 60 cases:\n{}",
            r.render()
        );
        for f in &r.findings {
            assert_eq!(f.oracle, "analyzer-confluence", "{}", r.render());
            assert!(f.case.defs.len() <= 3, "{}", f.case.script());
        }
    }
}
