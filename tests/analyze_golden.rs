//! Pins the analyzer's output: one line per (program, variant) in
//! `tests/analyze_golden.txt`, holding the FNV-64 of the
//! [`AnalysisReport`]'s JSON text and of its `Display`.
//!
//! Programs: every `scripts/*.rql`, every `tests/fuzz_corpus/*.star`, and
//! the fuzz generator's `GenConfig::CORPUS` seeds 0..200, each protecting
//! its first table. Variants: as written, with the predicate-level
//! refinement, and with every conflict the first flags certified
//! (`declare commute`).
//!
//! A refactoring of the analyses must leave every line alone. When a
//! change moves a report on purpose, the failure names each line that
//! differs and writes the regenerated file to
//! `target/tmp/analyze_golden.txt`; read the moved reports, then copy it
//! over the committed one.

use std::fmt::Write as _;
use std::path::Path;

use starling_analysis::{load_script, AnalysisContext, AnalysisReport, Certifications};
use starling_engine::RuleSet;
use starling_fuzz::{generate, GenConfig};
use starling_storage::{Catalog, Fnv64};

fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

/// The three variants' lines of one program.
fn lines(out: &mut String, name: &str, rules: &RuleSet, certs: &Certifications, protect: &str) {
    let protect = vec![vec![protect.to_owned()]];
    let report = |certs: &Certifications, refine: bool| {
        let ctx = AnalysisContext::from_ruleset(rules, certs.clone());
        let ctx = if refine { ctx.with_refinement() } else { ctx };
        AnalysisReport::run(&ctx, &protect)
    };
    let plain = report(certs, false);
    let mut certified = certs.clone();
    for v in &plain.confluence.violations {
        certified.certify_commute(&v.conflict.0, &v.conflict.1);
    }
    for (variant, r) in [
        ("plain", plain.clone()),
        ("refine", report(certs, true)),
        ("certified", report(&certified, false)),
    ] {
        let json = fnv(&r.to_json().to_string());
        let display = fnv(&r.to_string());
        writeln!(out, "{name} {variant} {json:016x} {display:016x}").unwrap();
    }
}

fn first_table(cat: &Catalog) -> String {
    cat.tables().next().expect("a table").name.clone()
}

/// The `ext` files of `dir`, sorted by name.
fn files(dir: &Path, ext: &str) -> Vec<std::path::PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    out.sort();
    out
}

fn golden() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = String::new();
    let scripts = files(&root.join("scripts"), "rql");
    let corpus = files(&root.join("tests/fuzz_corpus"), "star");
    for path in scripts.iter().chain(&corpus) {
        let src = std::fs::read_to_string(path).unwrap();
        let loaded = load_script(&src).unwrap();
        let name = path.strip_prefix(root).unwrap().display().to_string();
        let protect = first_table(loaded.db.catalog());
        lines(&mut out, &name, &loaded.rules, &loaded.certs, &protect);
    }
    for seed in 0..200u64 {
        let case = generate(seed, &GenConfig::CORPUS);
        let rules = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
        let name = format!("corpus-{seed}");
        lines(
            &mut out,
            &name,
            &rules,
            &Certifications::new(),
            &case.tables[0].name,
        );
    }
    out
}

#[test]
fn analysis_reports_match_the_pinned_digests() {
    let got = golden();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/analyze_golden.txt");
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got == want {
        return;
    }
    let regenerated = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analyze_golden.txt");
    std::fs::write(&regenerated, &got).unwrap();
    let key = |l: &str| l.split(' ').take(2).collect::<Vec<_>>().join(" ");
    let mut diffs = Vec::new();
    for line in got.lines() {
        match want.lines().find(|w| key(w) == key(line)) {
            Some(w) if w == line => {}
            Some(w) => diffs.push(format!("  was {w}\n  now {line}")),
            None => diffs.push(format!("  new {line}")),
        }
    }
    for w in want.lines() {
        if !got.lines().any(|l| key(l) == key(w)) {
            diffs.push(format!("  gone {w}"));
        }
    }
    panic!(
        "{} line(s) of {} differ; regenerated file: {}\n{}",
        diffs.len(),
        path.display(),
        regenerated.display(),
        diffs.join("\n")
    );
}
