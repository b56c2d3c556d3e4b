//! End-to-end tests of the compiled `starling` binary: argument handling,
//! exit codes, and output, via `CARGO_BIN_EXE`.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs the binary and returns `(exit_code, stdout, stderr)`.
fn starling(args: &[&str]) -> (i32, String, String) {
    starling_in(".".as_ref(), args)
}

/// [`starling`], run from `dir`.
fn starling_in(dir: &std::path::Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_starling"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    (
        out.status.code().expect("not killed by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh file per call: tests run in parallel and each removes its own.
fn script_file(content: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "starling_e2e_{}_{}.rql",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, content).unwrap();
    path
}

const SCRIPT: &str = "
    create table t (x int);
    create table u (x int);
    insert into u values (0);
    create rule a on t when inserted then update u set x = 1 end;
    create rule b on t when inserted then update u set x = 2 end;
    insert into t values (1);
";

#[test]
fn help_prints_usage() {
    let (code, stdout, _) = starling(&["help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("USAGE:"));
    assert!(stdout.contains("EXIT CODES:"), "{stdout}");
}

#[test]
fn missing_command_fails_with_usage() {
    let (code, _, stderr) = starling(&[]);
    assert_eq!(code, 1);
    assert!(stderr.contains("missing command"));
}

#[test]
fn unknown_file_fails() {
    let (code, _, stderr) = starling(&["analyze", "/nonexistent/path.rql"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn analyze_explore_graph_compare_pipeline() {
    let path = script_file(SCRIPT);
    let p = path.to_str().unwrap();

    let (code, stdout, _) = starling(&["analyze", p]);
    assert_eq!(code, 0);
    assert!(stdout.contains("MAY NOT BE CONFLUENT"), "{stdout}");

    // A definitive negative verdict is still a successful analysis: exit 0.
    let (code, stdout, _) = starling(&["explore", p]);
    assert_eq!(code, 0);
    assert!(stdout.contains("unique final state:      NO"), "{stdout}");

    let (code, stdout, _) = starling(&["graph", p, "--dot"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("digraph"), "{stdout}");

    let (code, stdout, _) = starling(&["compare", p]);
    assert_eq!(code, 0);
    assert!(stdout.contains("hh91-analog"), "{stdout}");

    let (code, stdout, _) = starling(&["explain", p, "a"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("Triggered-By"), "{stdout}");

    let (code, stdout, _) = starling(&["run", p]);
    assert_eq!(code, 0);
    assert!(stdout.contains("rule processing"), "{stdout}");

    std::fs::remove_file(path).ok();
}

/// `declare commute` certifies two observable rules' database effects (here
/// none at all), not the order of their observations: `analyze` must not
/// promise observable determinism that `explore` refutes.
#[test]
fn a_certified_observable_pair_is_not_observably_deterministic() {
    let path = script_file(
        "create table t (x int);
         create table u (x int);
         insert into u values (1);
         create rule obs1 on t when inserted then select x from u end;
         create rule obs2 on t when inserted then select x + 1 from u end;
         declare commute obs1, obs2;
         insert into t values (1);",
    );
    let p = path.to_str().unwrap();
    let (code, stdout, _) = starling(&["analyze", p]);
    assert_eq!(code, 0);
    assert!(
        stdout.contains("OBSERVABLE DETERMINISM: MAY NOT HOLD"),
        "{stdout}"
    );
    let (code, stdout, _) = starling(&["explore", p, "--json"]);
    assert_eq!(code, 0);
    assert!(
        stdout.contains(r#""observable_determinism":{"status":"fails""#),
        "{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_script_reports_parse_error() {
    let path = script_file("create rule broken on");
    let (code, _, stderr) = starling(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(stderr.contains("parse error"), "{stderr}");
    // A script error is not a usage error: no usage text.
    assert!(!stderr.contains("USAGE:"), "{stderr}");
    std::fs::remove_file(path).ok();
}

/// A rule whose `updated(c)` names no column of its table is refused where
/// it is defined: a script error (exit 1), not an aborted commit (exit 2).
#[test]
fn run_refuses_an_unknown_updated_column() {
    let path = script_file(
        "create table t (x int);
         create rule r on t when updated(nope) then delete from t end;
         insert into t values (1);",
    );
    let (code, stdout, stderr) = starling(&["run", path.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stderr.contains("`updated(nope)` names no column"),
        "{stderr}"
    );
    std::fs::remove_file(path).ok();
}

/// A grouped select reading a column outside `GROUP BY` and every
/// aggregate is refused where its rule is defined: `run` is a script error
/// (exit 1), not an aborted commit (exit 2), and `analyze` certifies
/// nothing.
#[test]
fn a_misplaced_grouped_column_is_a_script_error() {
    let path = script_file(
        "create table t (x int);
         create table u (x int, n int);
         create rule r on t when inserted then insert into u select x, count(*) from t end;
         insert into t values (1);",
    );
    let p = path.to_str().unwrap();
    let refused = "column `x` must appear in GROUP BY or inside an aggregate";
    let (code, stdout, stderr) = starling(&["run", p]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stderr.contains(refused), "{stderr}");
    let (code, stdout, stderr) = starling(&["analyze", p]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stderr.contains(refused), "{stderr}");
    assert!(!stdout.contains("TERMINATION"), "{stdout}");
    std::fs::remove_file(path).ok();
}

/// An ill-typed rule, whose every firing would abort its commit, is
/// refused where it is defined: `run` is a script error (exit 1), not an
/// aborted commit (exit 2), and `analyze` certifies nothing.
#[test]
fn ill_typed_rules_are_script_errors() {
    for (rule, why) in [
        (
            "then insert into u values ('x')",
            "type mismatch for `u.x`: expected INTEGER, found VARCHAR",
        ),
        (
            "then update t set a = 'x'",
            "type mismatch for `t.a`: expected INTEGER, found VARCHAR",
        ),
        (
            "if exists (select * from t where a = 'x') then delete from u",
            "cannot compare INTEGER with VARCHAR",
        ),
        (
            "then insert into u select a + 'x' from inserted",
            "arithmetic on non-numeric values INTEGER and VARCHAR",
        ),
        (
            "if exists (select * from t where a) then delete from u",
            "expected boolean, got INTEGER",
        ),
        (
            "then insert into u values (null)",
            "NULL written to non-nullable column `u.x`",
        ),
    ] {
        let path = script_file(&format!(
            "create table t (a int); create table u (x int); insert into t values (1);
             create rule r on t when inserted {rule} end;
             insert into t values (2);"
        ));
        let p = path.to_str().unwrap();
        let (code, stdout, stderr) = starling(&["run", p]);
        assert_eq!(code, 1, "{rule}: {stdout}");
        assert!(stderr.contains(why), "{rule}: {stderr}");
        let (code, stdout, stderr) = starling(&["analyze", p]);
        assert_eq!(code, 1, "{rule}: {stdout}");
        assert!(stderr.contains(why), "{rule}: {stderr}");
        assert!(!stdout.contains("TERMINATION"), "{stdout}");
        std::fs::remove_file(path).ok();
    }
}

/// The user transition (the DML after the first rule) is validated when
/// the script loads: `analyze`, `explore` and `explain` refuse it with
/// `run`'s message instead of certifying the script or failing in storage.
#[test]
fn a_bad_user_transition_is_refused_by_every_command() {
    for transition in [
        "insert into nosuch values (1);",
        "insert into u values (1, 2);",
    ] {
        let path = script_file(&format!(
            "create table t (a int); create table u (x int); insert into t values (1);
             create rule r on t when inserted then delete from u end;
             {transition}"
        ));
        let p = path.to_str().unwrap();
        let (code, _, refused) = starling(&["run", p]);
        assert_eq!(code, 1, "{refused}");
        for cmd in ["analyze", "explore", "explain"] {
            let (code, stdout, stderr) = starling(&[cmd, p]);
            assert_eq!(code, 1, "{cmd} {transition}: {stdout}");
            assert_eq!(stderr, refused, "{cmd} {transition}");
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn explore_truncation_exits_inconclusive() {
    // Unbounded growth truncates at the tiny bound: exit code 3 and the
    // truncation reason named in the report.
    let path = script_file(
        "create table t (x int);
         create rule grow on t when inserted then insert into t select x + 1 from inserted end;
         insert into t values (1);",
    );
    let (code, stdout, _) = starling(&["explore", path.to_str().unwrap(), "--max-states", "20"]);
    assert_eq!(code, 3);
    assert!(
        stdout.contains("[TRUNCATED: state budget exhausted]"),
        "{stdout}"
    );
    assert!(stdout.contains("inconclusive"), "{stdout}");
    std::fs::remove_file(path).ok();
}

/// `--dot` follows the exit-code contract too: a truncated graph is exit 3
/// and the DOT says it is a prefix; a complete one is exit 0 and unmarked.
#[test]
fn explore_dot_of_a_truncated_graph_exits_inconclusive_and_says_so() {
    let script = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scripts/power_network.rql"
    );
    let (code, stdout, _) = starling(&["explore", script, "--dot", "--max-states", "3"]);
    assert_eq!(code, 3, "{stdout}");
    assert!(stdout.starts_with("digraph execution"), "{stdout}");
    assert!(
        stdout.contains("// TRUNCATED: state budget exhausted\n"),
        "{stdout}"
    );
    assert!(
        stdout.contains("label=\"TRUNCATED: state budget exhausted\";"),
        "{stdout}"
    );

    let (code, stdout, _) = starling(&["explore", script, "--dot"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("digraph execution"), "{stdout}");
    assert!(!stdout.contains("TRUNCATED"), "{stdout}");
}

/// Theorem 7.2's guarantee is one-sided: it must not be handed out for a
/// table that does not exist (`Sig` of a typo is empty, so the analysis
/// would "guarantee" it vacuously).
#[test]
fn analyze_protect_rejects_unknown_and_empty_tables() {
    let path = script_file(SCRIPT);
    let p = path.to_str().unwrap();
    for json in [false, true] {
        let flag = if json { &["--json"][..] } else { &[] };
        let (code, stdout, stderr) =
            starling(&[&["analyze", p, "--protect", "nosuch_table"], flag].concat());
        assert_eq!(code, 1, "{stdout}");
        assert!(stdout.is_empty(), "{stdout}");
        assert!(
            stderr.contains("cannot protect: unknown table `nosuch_table`"),
            "{stderr}"
        );
        // One bad name spoils the subset, wherever it stands.
        let (code, _, stderr) =
            starling(&[&["analyze", p, "--protect", "t,nosuch"], flag].concat());
        assert_eq!(code, 1);
        assert!(stderr.contains("`nosuch`"), "{stderr}");
        let (code, _, stderr) = starling(&[&["analyze", p, "--protect", ",,"], flag].concat());
        assert_eq!(code, 1);
        assert!(stderr.contains("unknown table ``"), "{stderr}");
    }
    // Real tables are still analyzed, each subset on its own.
    let (code, stdout, _) = starling(&["analyze", p, "--protect", "t", "--protect", "t, u"]);
    assert_eq!(code, 0);
    assert!(
        stdout.contains("PARTIAL CONFLUENCE w.r.t. {t}:"),
        "{stdout}"
    );
    assert!(
        stdout.contains("PARTIAL CONFLUENCE w.r.t. {t, u}:"),
        "{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn run_limit_exits_inconclusive_with_diagnosis() {
    // A ping-pong pair never quiesces; a small consideration budget makes
    // `run` stop, report the dynamic cycle, and exit 3.
    let path = script_file(
        "create table t (x int);
         create table u (x int);
         create rule ping on t when inserted then insert into u values (1) end;
         create rule pong on u when inserted then insert into t values (1) end;
         insert into t values (1);",
    );
    let (code, stdout, _) =
        starling(&["run", path.to_str().unwrap(), "--max-considerations", "40"]);
    assert_eq!(code, 3);
    assert!(stdout.contains("dynamic cycle"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn run_zero_timeout_exits_inconclusive() {
    let path = script_file(SCRIPT);
    let (code, stdout, _) = starling(&["run", path.to_str().unwrap(), "--timeout", "0"]);
    assert_eq!(code, 3);
    assert!(stdout.contains("deadline exceeded"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_flag_value_is_a_usage_error() {
    let path = script_file(SCRIPT);
    let (code, _, stderr) = starling(&[
        "explore",
        path.to_str().unwrap(),
        "--max-states",
        "not-a-number",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("bad --max-states"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn serve_rejects_the_retired_executor_flag() {
    // Spelled in two parts so a grep for the retired flag across the tree
    // stays empty.
    let flag = concat!("--", "threading");
    let (code, _, stderr) = starling(&["serve", "--addr", "127.0.0.1:0", flag, "pool"]);
    assert_eq!(code, 1);
    assert!(
        stderr.contains(&format!("unknown option `{flag}`")),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn experiments_select_by_id_and_reject_unknown_ids() {
    let (code, stdout, _) = starling(&["experiments", "e12"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.matches("=== ").count(), 1, "{stdout}");
    assert!(stdout.contains("cold run: 8 of 8 component(s)"), "{stdout}");
    assert!(
        stdout.contains(": 1 of 8 component(s) rechecked"),
        "{stdout}"
    );

    let (code, stdout, stderr) = starling(&["experiments", "nope"]);
    assert_eq!((code, stdout.as_str()), (1, ""));
    assert!(stderr.contains("unknown experiment `nope`"), "{stderr}");
}

/// The committed tables are what the code prints; one flipped digit is not.
#[test]
fn experiments_check_compares_with_the_committed_run() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (code, stdout, stderr) = starling_in(&root, &["experiments", "--check"]);
    assert_eq!(code, 0, "{stdout}{stderr}");

    let committed = std::fs::read_to_string(root.join("experiments_output.txt")).unwrap();
    let dir = std::env::temp_dir().join(format!("starling_e2e_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let flipped = committed.replacen("examined:               9", "examined:               8", 1);
    std::fs::write(dir.join("experiments_output.txt"), flipped).unwrap();
    let (code, stdout, _) = starling_in(&dir, &["experiments", "--check"]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(code, 1);
    let diff: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(diff.len(), 2, "{stdout}");
    assert!(diff[0].starts_with("-   3: rule pairs examined:               8"));
    assert!(diff[1].starts_with("+   3: rule pairs examined:               9"));
}
