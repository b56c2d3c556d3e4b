//! Recompiling kept definitions equals compiling the program afresh.
//!
//! A rule's body memoizes its signature against the catalog handle it was
//! derived from, and a rule set compiled against an equal catalog adopts
//! that handle: recompiling the rules an edit did not touch derives
//! nothing. This suite walks `GenConfig::CORPUS` programs through random
//! edits — an ordering added, a constant or a column changed through
//! `RuleDef::body_mut` (twice, with a compile in between, so the second
//! edit writes a body nobody else holds), a rule dropped and re-added
//! elsewhere, and the catalog swapped for one that widens a table some
//! rule reads with `select *` or triggers on with `when updated` — and
//! after every step compiles the kept definitions and the program's
//! rendered text parsed afresh against a fresh catalog. Names, signatures,
//! priority and refusals must be equal, and the warm [`IncrementalAnalysis`]
//! report on the kept set must equal [`AnalysisReport::run`] on the fresh
//! one. A hand-built redefinition that changes only a rule's condition is
//! held to the same warm ≡ fresh equality.

mod rule_exprs;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rule_exprs::mutate_nth;
use starling_analysis::{
    load_script, AnalysisContext, AnalysisReport, Certifications, IncrementalAnalysis,
};
use starling_engine::{EngineError, RuleProgram, RuleSet};
use starling_fuzz::{generate, FuzzCase, GenConfig};
use starling_sql::ast::Expr;
use starling_sql::RuleDef;
use starling_storage::{Catalog, ColumnDef, TableSchema, Value, ValueType};

/// `catalog` with a nullable `s varchar` column added to `table`: every
/// `select *` of it reads one more column, every `when updated` on it
/// triggers on one more, and an insert into it that names no columns is
/// ill-typed.
fn widen(catalog: &Catalog, table: &str) -> Catalog {
    let mut out = Catalog::new();
    for t in catalog.tables() {
        let mut cols = t.columns.clone();
        if t.name == table {
            cols.push(ColumnDef::nullable("s", ValueType::Str));
        }
        out.add_table(TableSchema::new(&t.name, cols).unwrap())
            .unwrap();
    }
    out
}

/// The second catalog: the case's, widened at the first table whose
/// widening refuses a rule, else at the first that changes a signature;
/// `None` when no table does either. Each compile is of freshly parsed
/// definitions, so no memo decides the choice.
fn second_catalog(case: &FuzzCase) -> Option<Catalog> {
    let base = case.catalog();
    let compile = |c: &Catalog| RuleSet::compile(&reparsed(&case.defs), c);
    let sigs = |rs: &RuleSet| rs.rules().iter().map(|r| r.sig.clone()).collect::<Vec<_>>();
    let want = sigs(&compile(&base).unwrap());
    let widened: Vec<Catalog> = case.tables.iter().map(|t| widen(&base, &t.name)).collect();
    let refused = |c: &&Catalog| compile(c).is_err();
    let moved = |c: &&Catalog| compile(c).is_ok_and(|rs| sigs(&rs) != want);
    let pick = widened
        .iter()
        .find(refused)
        .or_else(|| widened.iter().find(moved));
    pick.cloned()
}

/// What a compile answers, in comparable form.
#[derive(Debug, PartialEq)]
enum Compiled {
    Refused(String),
    Rules {
        names: Vec<String>,
        sigs: Vec<starling_sql::RuleSignature>,
        gt: Vec<(usize, usize)>,
    },
}

fn compiled(result: &Result<RuleSet, EngineError>) -> Compiled {
    match result {
        Err(e) => Compiled::Refused(e.to_string()),
        Ok(rs) => Compiled::Rules {
            names: rs.rules().iter().map(|r| r.name().to_owned()).collect(),
            sigs: rs.rules().iter().map(|r| (*r.sig).clone()).collect(),
            gt: rs.priority().gt_pairs(),
        },
    }
}

/// The program as rendered text, parsed afresh: new bodies, empty memos.
fn reparsed(defs: &[RuleDef]) -> Vec<RuleDef> {
    let text = RuleProgram {
        defs: defs.to_vec(),
        directives: Vec::new(),
    }
    .render();
    RuleProgram::parse(&text).unwrap().defs
}

/// One walk's state.
struct Walk {
    case: FuzzCase,
    second: Option<Catalog>,
    /// The catalogs the kept definitions compile against: the case's, and
    /// `second` (the case's again when there is none), each one value for
    /// the whole walk, as a session holds its database's.
    catalogs: [Catalog; 2],
    on_second: bool,
    defs: Vec<RuleDef>,
    parked: Vec<RuleDef>,
    refine: bool,
    protect: Vec<Vec<String>>,
    warm: IncrementalAnalysis,
}

/// What the walks exercised, summed over the corpus.
#[derive(Default)]
struct Tally {
    steps: usize,
    analyzed: usize,
    refused: usize,
    ill_typed_catalogs: usize,
    body_edits: usize,
    readds: usize,
}

impl Walk {
    fn catalog(&self) -> &Catalog {
        &self.catalogs[usize::from(self.on_second)]
    }

    fn fresh_catalog(&self) -> Catalog {
        match (&self.second, self.on_second) {
            (Some(c), true) => c.clone(),
            _ => self.case.catalog(),
        }
    }

    /// Kept ≡ fresh; the kept set, when it compiles.
    fn compare(&self, what: &str) -> Option<RuleSet> {
        let kept = RuleSet::compile(&self.defs, self.catalog());
        let fresh = RuleSet::compile(&reparsed(&self.defs), &self.fresh_catalog());
        assert_eq!(compiled(&kept), compiled(&fresh), "{what}: kept ≢ fresh");
        if let (Ok(k), Ok(f)) = (&kept, &fresh) {
            assert_eq!(k.catalog(), f.catalog(), "{what}: catalog");
        }
        kept.ok()
    }

    /// The per-step check: compile both ways, then the warm report on the
    /// kept set against the from-scratch report on the fresh one.
    fn check(&mut self, what: &str, tally: &mut Tally) {
        tally.steps += 1;
        let Some(kept) = self.compare(what) else {
            tally.refused += 1;
            return;
        };
        tally.analyzed += 1;
        let none = Certifications::new();
        let got = self.warm.analyze(&kept, &none, self.refine, &self.protect);
        let fresh = RuleSet::compile(&reparsed(&self.defs), &self.fresh_catalog()).unwrap();
        let ctx = AnalysisContext::from_ruleset(&fresh, none);
        let ctx = if self.refine {
            ctx.with_refinement()
        } else {
            ctx
        };
        let want = AnalysisReport::run(&ctx, &self.protect);
        assert_eq!(
            got.to_json().to_string(),
            want.to_json().to_string(),
            "{what}: warm report ≢ from scratch"
        );
        assert_eq!(got.to_string(), want.to_string(), "{what}: warm text");
    }

    /// Whether the kept definitions' priority is cyclic.
    fn cyclic(&self) -> bool {
        matches!(
            RuleSet::compile(&self.defs, &self.catalogs[0]),
            Err(EngineError::PriorityCycle(_))
        )
    }

    /// One edit of rule `i`'s body: a constant moved or a column swapped.
    fn edit_body(&mut self, rng: &mut StdRng, i: usize) -> bool {
        let k = rng.gen_range(0..16usize);
        let body = self.defs[i].body_mut();
        if rng.gen_bool(0.5) {
            let bump = rng.gen_range(1..5i64);
            mutate_nth(
                body,
                k,
                |e| matches!(e, Expr::Literal(Value::Int(_))),
                &mut |e| {
                    if let Expr::Literal(Value::Int(v)) = e {
                        *v = v.wrapping_add(bump);
                    }
                },
            )
        } else {
            mutate_nth(
                body,
                k,
                |e| matches!(e, Expr::Column(c) if c.column == "c0" || c.column == "c1"),
                &mut |e| {
                    if let Expr::Column(c) = e {
                        c.column = if c.column == "c0" { "c1" } else { "c0" }.to_owned();
                    }
                },
            )
        }
    }

    fn step(&mut self, rng: &mut StdRng, what: &str, tally: &mut Tally) {
        let n = self.defs.len();
        match rng.gen_range(0..5u32) {
            0 if n >= 2 => {
                // Order: one more `precedes` edge, taken back if cyclic.
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let target = self.defs[j].name.clone();
                if i == j || self.defs[i].precedes.contains(&target) {
                    return;
                }
                self.defs[i].precedes.push(target);
                if self.cyclic() {
                    self.defs[i].precedes.pop();
                    return;
                }
            }
            1 => {
                // Two body edits with a compile in between: the second
                // writes a body whose memo is set and whose handle nobody
                // else holds once that compile's set is dropped.
                let i = rng.gen_range(0..n);
                let prior = self.defs[i].clone();
                let first = self.edit_body(rng, i);
                drop(self.compare(&format!("{what} (first edit)")));
                let second = self.edit_body(rng, i);
                tally.body_edits += usize::from(first) + usize::from(second);
                // An edit the case's catalog refuses is undone after the
                // check, restoring the prior handle.
                self.check(what, tally);
                if RuleSet::compile(&self.defs, &self.catalogs[0]).is_err() {
                    self.defs[i] = prior;
                }
                return;
            }
            2 if n >= 2 => {
                let gone = self.defs.remove(rng.gen_range(0..n));
                for d in &mut self.defs {
                    d.precedes.retain(|p| *p != gone.name);
                    d.follows.retain(|p| *p != gone.name);
                }
                self.parked.push(gone);
            }
            3 => {
                // Re-add the latest dropped rule elsewhere, with its own
                // orderings minus rules dropped since.
                let Some(mut back) = self.parked.pop() else {
                    return;
                };
                let known: Vec<String> = self.defs.iter().map(|d| d.name.clone()).collect();
                back.precedes.retain(|p| known.contains(p));
                back.follows.retain(|p| known.contains(p));
                let at = rng.gen_range(0..=n);
                self.defs.insert(at, back);
                if self.cyclic() {
                    self.parked.push(self.defs.remove(at));
                    return;
                }
                tally.readds += 1;
            }
            _ => {
                if self.second.is_none() {
                    return;
                }
                self.on_second = !self.on_second;
            }
        }
        self.check(what, tally);
    }
}

#[test]
fn a_recompile_equals_a_fresh_compile() {
    let mut tally = Tally::default();
    let mut rng = StdRng::seed_from_u64(0x7265_636f);
    for seed in 0..500u64 {
        let case = generate(seed, &GenConfig::CORPUS);
        if RuleSet::compile(&case.defs, &case.catalog()).is_err() {
            continue;
        }
        let second = second_catalog(&case);
        if let Some(c) = &second {
            tally.ill_typed_catalogs += usize::from(RuleSet::compile(&case.defs, c).is_err());
        }
        let mut walk = Walk {
            catalogs: [
                case.catalog(),
                second.clone().unwrap_or_else(|| case.catalog()),
            ],
            protect: vec![vec![case.tables[0].name.clone()]],
            defs: case.defs.clone(),
            case,
            second,
            on_second: false,
            parked: Vec::new(),
            refine: seed % 2 == 1,
            warm: IncrementalAnalysis::sequential(),
        };
        walk.check(&format!("seed {seed}, cold"), &mut tally);
        for step in 0..12 {
            walk.step(&mut rng, &format!("seed {seed}, step {step}"), &mut tally);
        }
    }
    let Tally {
        steps,
        analyzed,
        refused,
        ill_typed_catalogs,
        body_edits,
        readds,
    } = tally;
    let summary = format!(
        "{steps} steps: {analyzed} analyzed, {refused} refused; {ill_typed_catalogs} \
         ill-typed catalogs; {body_edits} body edits; {readds} re-adds"
    );
    // Measured 5 152 steps: 3 172 analyzed, 1 980 refused; 471 ill-typed
    // catalogs; 2 046 body edits; 512 re-adds.
    assert!(analyzed > 2_500 && refused > 1_000, "{summary}");
    assert!(
        ill_typed_catalogs > 300 && body_edits > 1_500 && readds > 300,
        "{summary}"
    );
}

/// A rule redefined with only its `if` condition changed is a changed
/// rule to a warm analyzer: here the new condition stops reading the table
/// the other rule inserts into, so the pair commutes, and the warm report
/// must say so as the from-scratch one does.
#[test]
fn a_rule_whose_condition_alone_changed_is_reanalyzed() {
    let program = |read: &str| {
        format!(
            "create table t (x int); create table u (x int); create table v (x int);
             create rule a on t when inserted if exists (select * from {read})
             then insert into v values (1) end;
             create rule b on t when inserted then insert into u values (1) end;"
        )
    };
    let (before, after) = (
        load_script(&program("u")).unwrap(),
        load_script(&program("v")).unwrap(),
    );
    let certs = Certifications::new();
    let mut warm = IncrementalAnalysis::sequential();
    let cold = warm.analyze(&before.rules, &certs, false, &[]);
    assert!(!cold.confluence.requirement_holds());
    let fresh = AnalysisReport::run(
        &AnalysisContext::from_ruleset(&after.rules, certs.clone()),
        &[],
    );
    assert!(fresh.confluence.requirement_holds());
    let warm = warm.analyze(&after.rules, &certs, false, &[]);
    assert_eq!(warm.to_json().to_string(), fresh.to_json().to_string());
}
