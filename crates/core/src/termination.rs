//! Termination analysis (paper Section 5).
//!
//! Theorem 5.1: if the triggering graph is acyclic, rule processing is
//! guaranteed to terminate. When cycles exist, the analyzer isolates them
//! (as strongly connected components) and the user may *certify* rules
//! whose repeated consideration eventually falsifies their condition or
//! nullifies their action. We additionally auto-detect the two special
//! cases the paper lists (§5):
//!
//! * **delete-only** — a rule on the cycle only deletes from tables no
//!   other rule on the cycle inserts into: its action eventually has no
//!   effect;
//! * **monotone-update** — a rule on the cycle monotonically increments
//!   (decrements) a column under an upper (lower) bound in its `WHERE`
//!   clause, and no other rule on the cycle writes that column or inserts
//!   into the table: the bound eventually empties the target set.
//!
//! An SCC is *discharged* when removing its certified rules leaves it
//! acyclic — i.e., every cycle passes through a certified rule, the paper's
//! "on each cycle, there is some rule r such that ...".

use starling_sql::ast::{Action, BinOp, Expr};
use starling_storage::Op;

use crate::context::AnalysisContext;
use crate::triggering_graph::TriggeringGraph;

/// Why a rule on a cycle is considered safe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CycleCertificate {
    /// The user declared `declare terminates <rule> '<justification>'`.
    User {
        /// Certified rule.
        rule: String,
        /// The user's justification.
        justification: String,
    },
    /// Auto-detected delete-only rule (paper §5, first special case).
    DeleteOnly {
        /// Certified rule.
        rule: String,
        /// The tables it deletes from.
        tables: Vec<String>,
    },
    /// Auto-detected bounded monotone update (paper §5, second special
    /// case).
    MonotoneUpdate {
        /// Certified rule.
        rule: String,
        /// `table.column` being monotonically driven into its bound.
        column: String,
    },
}

impl CycleCertificate {
    /// The certified rule's name.
    pub fn rule(&self) -> &str {
        match self {
            CycleCertificate::User { rule, .. }
            | CycleCertificate::DeleteOnly { rule, .. }
            | CycleCertificate::MonotoneUpdate { rule, .. } => rule,
        }
    }
}

/// One cyclic SCC of the triggering graph, with any certificates found.
#[derive(Clone, Debug)]
pub struct ProblemCycle {
    /// Names of the rules in the SCC.
    pub rules: Vec<String>,
    /// Certificates applying to rules of this SCC.
    pub certificates: Vec<CycleCertificate>,
    /// Whether the certificates discharge every cycle in the SCC.
    pub discharged: bool,
}

/// Overall verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationVerdict {
    /// The triggering graph is acyclic (Theorem 5.1): unconditionally
    /// guaranteed.
    Guaranteed,
    /// Cycles exist but every one is discharged by a certificate.
    GuaranteedWithCertificates,
    /// At least one cycle is undischarged: rule processing may not
    /// terminate.
    MayNotTerminate,
}

/// The result of termination analysis.
#[derive(Clone, Debug)]
pub struct TerminationAnalysis {
    /// The triggering graph.
    pub graph: TriggeringGraph,
    /// The cyclic SCCs (empty iff the graph is acyclic).
    pub cycles: Vec<ProblemCycle>,
    /// The verdict.
    pub verdict: TerminationVerdict,
}

impl TerminationAnalysis {
    /// Whether termination is guaranteed (with or without certificates).
    pub fn is_guaranteed(&self) -> bool {
        self.verdict != TerminationVerdict::MayNotTerminate
    }

    /// The rules on undischarged cycles — the paper's "isolate the rules
    /// responsible for the problem".
    pub fn responsible_rules(&self) -> Vec<&str> {
        self.cycles
            .iter()
            .filter(|c| !c.discharged)
            .flat_map(|c| c.rules.iter().map(String::as_str))
            .collect()
    }
}

/// Runs termination analysis over a context.
pub fn analyze_termination(ctx: &AnalysisContext) -> TerminationAnalysis {
    analyze_termination_indexed(ctx, TriggeringGraph::build(ctx), None, false)
}

/// Core analysis. When `indices` is given, graph node `k` corresponds to
/// context rule `indices[k]` (used for subgraph analyses). With `obs_log`,
/// every observable rule also inserts into Theorem 8.1's `Obs` log, so no
/// observable rule is delete-only (nor monotone-update, which wants a single
/// update action): none gets an automatic certificate.
pub(crate) fn analyze_termination_indexed(
    ctx: &AnalysisContext,
    graph: TriggeringGraph,
    indices: Option<&[usize]>,
    obs_log: bool,
) -> TerminationAnalysis {
    let to_ctx = |k: usize| indices.map_or(k, |m| m[k]);
    let mut cycles = Vec::new();
    for scc in graph.cyclic_sccs() {
        let ctx_rules: Vec<usize> = scc.iter().map(|&k| to_ctx(k)).collect();
        let mut certificates = Vec::new();
        for &rule in &ctx_rules {
            let name = ctx.name(rule);
            if let Some(justification) = ctx.certs.termination_certificate(name) {
                certificates.push(CycleCertificate::User {
                    rule: name.to_owned(),
                    justification: justification.to_owned(),
                });
            } else if obs_log && ctx.sigs[rule].observable {
                continue;
            } else if let Some(cert) = auto_certify(ctx, rule, &ctx_rules) {
                certificates.push(cert);
            }
        }
        // The SCC is discharged when removing certified rules leaves the
        // SCC subgraph acyclic (every cycle passes through a certificate).
        let certified: Vec<&str> = certificates.iter().map(|c| c.rule()).collect();
        let keep: Vec<usize> = scc
            .iter()
            .copied()
            .filter(|&k| !certified.contains(&graph.names[k].as_str()))
            .collect();
        let discharged = graph.subgraph(&keep).is_acyclic();
        cycles.push(ProblemCycle {
            rules: scc.iter().map(|&k| graph.names[k].clone()).collect(),
            certificates,
            discharged,
        });
    }
    let verdict = if cycles.is_empty() {
        TerminationVerdict::Guaranteed
    } else if cycles.iter().all(|c| c.discharged) {
        TerminationVerdict::GuaranteedWithCertificates
    } else {
        TerminationVerdict::MayNotTerminate
    };
    TerminationAnalysis {
        graph,
        cycles,
        verdict,
    }
}

/// Attempts to auto-certify rule `rule` within the SCC `scc` (context
/// indices) via the paper's §5 special cases.
pub fn auto_certify(ctx: &AnalysisContext, rule: usize, scc: &[usize]) -> Option<CycleCertificate> {
    delete_only_certificate(ctx, rule, scc).or_else(|| monotone_certificate(ctx, rule, scc))
}

fn delete_only_certificate(
    ctx: &AnalysisContext,
    rule: usize,
    scc: &[usize],
) -> Option<CycleCertificate> {
    let sig = &ctx.sigs[rule];
    if sig.performs.is_empty() || !sig.performs.iter().all(Op::is_delete) {
        return None;
    }
    let tables: Vec<String> = sig
        .performs
        .iter()
        .map(|op| op.table().to_owned())
        .collect();
    // No other rule on the cycle may insert into those tables.
    for &other in scc {
        if other == rule {
            continue;
        }
        for op in &ctx.sigs[other].performs {
            if op.is_insert() && tables.iter().any(|t| t == op.table()) {
                return None;
            }
        }
    }
    Some(CycleCertificate::DeleteOnly {
        rule: sig.name.clone(),
        tables,
    })
}

/// Direction of a monotone update.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Increasing,
    Decreasing,
}

fn monotone_certificate(
    ctx: &AnalysisContext,
    rule: usize,
    scc: &[usize],
) -> Option<CycleCertificate> {
    // The rule definition is needed for expression-level matching, and the
    // signature only carries sets — recover the def from the context.
    let def = ctx.rule_body(rule);
    // Single action: UPDATE t SET c = c ± k WHERE ... c bounded ...
    let [Action::Update(u)] = def.actions.as_slice() else {
        return None;
    };
    let [(col, set_expr)] = u.sets.as_slice() else {
        return None;
    };
    let dir = monotone_direction(set_expr, col)?;
    let wc = u.where_clause.as_ref()?;
    if !has_bound(wc, col, dir) {
        return None;
    }
    // No other rule on the cycle may write the column (in any direction) or
    // insert into the table.
    let colop = Op::update(u.table.clone(), col.clone());
    let insop = Op::Insert(u.table.clone());
    for &other in scc {
        if other == rule {
            continue;
        }
        let p = &ctx.sigs[other].performs;
        if p.contains(&colop) || p.contains(&insop) {
            return None;
        }
    }
    Some(CycleCertificate::MonotoneUpdate {
        rule: def.name.clone(),
        column: format!("{}.{}", u.table, col),
    })
}

/// Recognizes `c + k` / `c - k` (k a positive literal, either operand
/// order for `+`).
fn monotone_direction(e: &Expr, col: &str) -> Option<Direction> {
    let Expr::Binary { op, lhs, rhs } = e else {
        return None;
    };
    let is_col = |x: &Expr| matches!(x, Expr::Column(c) if c.column == col);
    let pos_lit = |x: &Expr| match x {
        Expr::Literal(starling_storage::Value::Int(k)) => *k > 0,
        Expr::Literal(starling_storage::Value::Float(k)) => *k > 0.0,
        _ => false,
    };
    match op {
        BinOp::Add if is_col(lhs) && pos_lit(rhs) => Some(Direction::Increasing),
        BinOp::Add if pos_lit(lhs) && is_col(rhs) => Some(Direction::Increasing),
        BinOp::Sub if is_col(lhs) && pos_lit(rhs) => Some(Direction::Decreasing),
        _ => None,
    }
}

/// Looks for a bound on `col` opposing `dir`, scanning through top-level
/// conjunctions only: `c < K`/`c <= K` for increasing, `c > K`/`c >= K` for
/// decreasing (and the mirrored literal-first forms).
fn has_bound(e: &Expr, col: &str, dir: Direction) -> bool {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => has_bound(lhs, col, dir) || has_bound(rhs, col, dir),
        Expr::Binary { op, lhs, rhs } => {
            let is_col = |x: &Expr| matches!(x, Expr::Column(c) if c.column == col);
            let is_lit = |x: &Expr| matches!(x, Expr::Literal(_));
            let (upper, lower) = match op {
                BinOp::Lt | BinOp::Le => (is_col(lhs) && is_lit(rhs), is_lit(lhs) && is_col(rhs)),
                BinOp::Gt | BinOp::Ge => (is_lit(lhs) && is_col(rhs), is_col(lhs) && is_lit(rhs)),
                _ => (false, false),
            };
            match dir {
                Direction::Increasing => upper,
                Direction::Decreasing => lower,
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifications::Certifications;
    use crate::context::tests::ctx_from;

    #[test]
    fn acyclic_is_guaranteed() {
        let a = analyze_termination(&ctx_from(
            "create rule a on t when inserted then insert into u values (1) end;
             create rule b on u when inserted then update v set x = 1 end;",
            &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])],
            Certifications::new(),
        ));
        assert_eq!(a.verdict, TerminationVerdict::Guaranteed);
        assert!(a.cycles.is_empty());
        assert!(a.responsible_rules().is_empty());
    }

    #[test]
    fn cycle_flagged_and_isolated() {
        let a = analyze_termination(&ctx_from(
            "create rule ping on t when inserted then insert into u values (1) end;
             create rule pong on u when inserted then insert into t values (1) end;
             create rule bystander on v when inserted then update v set x = 0 end;",
            &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])],
            Certifications::new(),
        ));
        assert_eq!(a.verdict, TerminationVerdict::MayNotTerminate);
        assert_eq!(a.cycles.len(), 1);
        assert_eq!(a.cycles[0].rules, vec!["ping", "pong"]);
        assert_eq!(a.responsible_rules(), vec!["ping", "pong"]);
    }

    #[test]
    fn user_certificate_discharges() {
        let mut certs = Certifications::new();
        certs.certify_terminates("ping", "u is bounded by invariant");
        let a = analyze_termination(&ctx_from(
            "create rule ping on t when inserted then insert into u values (1) end;
             create rule pong on u when inserted then insert into t values (1) end;",
            &[("t", &["x"]), ("u", &["x"])],
            certs,
        ));
        assert_eq!(a.verdict, TerminationVerdict::GuaranteedWithCertificates);
        assert!(a.cycles[0].discharged);
        assert!(matches!(
            a.cycles[0].certificates[0],
            CycleCertificate::User { .. }
        ));
    }

    #[test]
    fn delete_only_auto_certificate() {
        // purge only deletes from t; watch updates u. No cycle rule inserts
        // into t, so purge is auto-certified.
        let a = analyze_termination(&ctx_from(
            "create rule purge on u when updated(x) then delete from t end;
             create rule watch on t when deleted then update u set x = 0 end;",
            &[("t", &["y"]), ("u", &["x"])],
            Certifications::new(),
        ));
        assert_eq!(a.verdict, TerminationVerdict::GuaranteedWithCertificates);
        assert!(matches!(
            a.cycles[0].certificates[0],
            CycleCertificate::DeleteOnly { .. }
        ));
    }

    #[test]
    fn delete_only_blocked_by_cycle_insert() {
        // Same shape, but watch also inserts into t: no certificate.
        let a = analyze_termination(&ctx_from(
            "create rule purge on u when updated(x) then delete from t end;
             create rule watch on t when deleted then \
               update u set x = 0; insert into t values (1) end;",
            &[("t", &["y"]), ("u", &["x"])],
            Certifications::new(),
        ));
        assert_eq!(a.verdict, TerminationVerdict::MayNotTerminate);
        assert!(a.cycles[0].certificates.is_empty());
    }

    #[test]
    fn monotone_update_auto_certificate() {
        // Self-triggering bounded increment (the paper's second special
        // case: "increments values ... some value is less than 10").
        let a = analyze_termination(&ctx_from(
            "create rule inc on t when updated(x) then \
               update t set x = x + 1 where x < 10 end",
            &[("t", &["x"])],
            Certifications::new(),
        ));
        assert_eq!(a.verdict, TerminationVerdict::GuaranteedWithCertificates);
        assert!(matches!(
            &a.cycles[0].certificates[0],
            CycleCertificate::MonotoneUpdate { column, .. } if column == "t.x"
        ));
    }

    #[test]
    fn monotone_without_bound_not_certified() {
        let a = analyze_termination(&ctx_from(
            "create rule inc on t when updated(x) then update t set x = x + 1 end",
            &[("t", &["x"])],
            Certifications::new(),
        ));
        assert_eq!(a.verdict, TerminationVerdict::MayNotTerminate);
    }

    #[test]
    fn monotone_decreasing_with_lower_bound() {
        let a = analyze_termination(&ctx_from(
            "create rule dec on t when updated(x) then \
               update t set x = x - 2 where x > 0 and x < 100 end",
            &[("t", &["x"])],
            Certifications::new(),
        ));
        assert_eq!(a.verdict, TerminationVerdict::GuaranteedWithCertificates);
    }

    #[test]
    fn monotone_blocked_by_opposing_writer() {
        // dec decrements bounded below, but pump writes the same column:
        // no certificate, cycle stands.
        let a = analyze_termination(&ctx_from(
            "create rule dec on t when updated(x) then \
               update t set x = x - 1 where x > 0 end;
             create rule pump on t when updated(x) then \
               update t set x = x + 5 where x < 3 end",
            &[("t", &["x"])],
            Certifications::new(),
        ));
        // Both rules form one SCC; each writes t.x so neither gets the
        // monotone certificate.
        assert_eq!(a.verdict, TerminationVerdict::MayNotTerminate);
    }

    #[test]
    fn two_loops_need_two_certificates() {
        // SCC where certifying one rule is not enough: a <-> b and a <-> c.
        let mut certs = Certifications::new();
        certs.certify_terminates("b", "bounded");
        let a1 = analyze_termination(&ctx_from(
            "create rule a on t when inserted then \
               insert into u values (1); insert into v values (1) end;
             create rule b on u when inserted then insert into t values (1) end;
             create rule c on v when inserted then insert into t values (1) end;",
            &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])],
            certs.clone(),
        ));
        assert_eq!(a1.verdict, TerminationVerdict::MayNotTerminate);
        assert!(!a1.cycles[0].discharged);

        certs.certify_terminates("a", "bounded");
        let a2 = analyze_termination(&ctx_from(
            "create rule a on t when inserted then \
               insert into u values (1); insert into v values (1) end;
             create rule b on u when inserted then insert into t values (1) end;
             create rule c on v when inserted then insert into t values (1) end;",
            &[("t", &["x"]), ("u", &["x"]), ("v", &["x"])],
            certs,
        ));
        assert_eq!(a2.verdict, TerminationVerdict::GuaranteedWithCertificates);
    }
}
