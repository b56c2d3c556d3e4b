//! Durability properties (ISSUE tentpole): recovery — loading the latest
//! snapshot and replaying the WAL tail — must reproduce the acknowledged
//! state *exactly*: digest and full [`Database`] equality, tuple-id
//! allocator included, plus rule definitions and directives.
//!
//! The suite covers: random op sequences (durable session ≡ in-memory
//! session, then drop-and-reopen), the empty WAL, torn tails (the WAL
//! chopped at arbitrary byte offsets must recover *some* acknowledged
//! prefix), snapshots taken mid-stream, and the crash-point matrix — a
//! one-shot injected fault at every mutating-op index (WAL appends,
//! syncs, and snapshot writes included) with recovery checked after every
//! transition.
//!
//! Set `STARLING_RECOVERY_DIR` to put the scratch stores somewhere CI can
//! upload: directories are only cleaned up when a case passes, so a
//! failure leaves its store behind as the artifact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use starling::engine::{FirstEligible, Session};
use starling::sql::ast::Statement;
use starling::storage::{Database, FaultPlan, FaultSpec, SyncPolicy, WalStore};
use starling::workloads::random::{generate, RandomConfig};

/// A fresh scratch directory for one store. Never reused; removed by the
/// caller only after its assertions pass.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let root = match std::env::var_os("STARLING_RECOVERY_DIR") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir(),
    };
    root.join(format!(
        "starling-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Asserts that reopening `dir` yields exactly the durable session's
/// acknowledged base (database, defs, directives).
fn assert_recovers_acked(dir: &std::path::Path, s: &Session, ctx: &str) {
    let att = s.durability().expect("session must be durable");
    let recovered = Session::open_durable(dir, SyncPolicy::Always)
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    assert_eq!(recovered.db(), att.base_db(), "{ctx}: database");
    assert_eq!(
        recovered.db().state_digest(),
        att.base_db().state_digest(),
        "{ctx}: digest"
    );
    assert_eq!(recovered.rule_defs(), att.base_defs(), "{ctx}: rule defs");
    assert_eq!(
        recovered.directives(),
        att.base_directives(),
        "{ctx}: directives"
    );
}

proptest! {
    /// For random rule programs and transitions, (a) a WAL-attached session
    /// behaves exactly like an in-memory one, and (b) dropping it with no
    /// final snapshot and reopening recovers the acknowledged state.
    #[test]
    fn random_sequences_recover_exactly(seed in 0u64..40, salt in 1u64..4) {
        let w = generate(&RandomConfig {
            n_tables: 3,
            n_cols: 2,
            n_rules: 4,
            max_actions: 2,
            p_condition: 0.5,
            p_observable: 0.0,
            p_priority: 0.2,
            rows_per_table: 2,
            seed,
        });
        let script = w.script();
        let dir = scratch_dir("random");

        let mut mem = Session::new();
        let mut dur = Session::new();
        mem.budget.max_considerations = 200;
        dur.budget.max_considerations = 200;
        dur.persist_to(&dir, SyncPolicy::Always).unwrap();

        // The schema/rules/seed script, then a few extra transitions.
        let mut steps: Vec<Vec<Statement>> = vec![
            starling::sql::parse_script(&script).unwrap(),
        ];
        for extra in 0..2u64 {
            steps.push(
                w.user_transition(salt + extra)
                    .into_iter()
                    .map(Statement::Dml)
                    .collect(),
            );
        }
        for (k, step) in steps.into_iter().enumerate() {
            let mut results = Vec::new();
            for (label, s) in [("mem", &mut mem), ("dur", &mut dur)] {
                let mut errs = Vec::new();
                for stmt in &step {
                    if let Err(e) = s.execute(stmt) {
                        errs.push(e.to_string());
                        break;
                    }
                }
                let outcome = if errs.is_empty() {
                    Some(s.commit(&mut FirstEligible).unwrap().outcome)
                } else {
                    None
                };
                results.push((label, errs, outcome));
            }
            // The attachment must not change semantics: same errors, same
            // outcome, same database.
            assert_eq!(&results[0].1, &results[1].1, "seed {} step {k}", seed);
            assert_eq!(results[0].2, results[1].2, "seed {} step {k}", seed);
            assert_eq!(mem.db(), dur.db(), "seed {} step {k}", seed);
        }

        // Crash simulation: no final snapshot, reopen from WAL.
        let base = dur.durability().unwrap().base_db().clone();
        assert_eq!(&base, dur.db(), "acked base tracks the session");
        drop(dur);
        let recovered = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovered.db(), &base, "seed {}: recovery", seed);
        assert_eq!(recovered.db(), mem.db(), "seed {}: recovery == memory", seed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn empty_wal_recovers_an_empty_database() {
    let dir = scratch_dir("empty");
    let mut s = Session::new();
    s.persist_to(&dir, SyncPolicy::Always).unwrap();
    drop(s);
    let recovered = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(recovered.db(), &Database::new());
    assert!(recovered.rule_defs().is_empty());
    assert!(recovered.directives().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Chopping the WAL at *any* byte offset must recover some acknowledged
/// prefix of the commit history — never a hybrid, never an error.
#[test]
fn torn_tails_recover_to_an_acknowledged_prefix() {
    let dir = scratch_dir("torn-src");
    let mut s = Session::new();
    s.execute_script(
        "create table t (a int); \
         create table log (a int); \
         create rule r on t when inserted then \
           insert into log select a from inserted end;",
    )
    .unwrap();
    s.persist_to(&dir, SyncPolicy::Always).unwrap();
    // Default snapshot cadence is far above 6 commits: the WAL holds the
    // whole history, so every prefix state is reachable by chopping. The
    // acked states are: empty (a cut inside the initial frame), the
    // post-script base, and each of the six commits.
    let mut prefixes: Vec<Database> =
        vec![Database::new(), s.durability().unwrap().base_db().clone()];
    for k in 0..6 {
        s.execute_script(&format!("insert into t values ({k});"))
            .unwrap();
        s.commit(&mut FirstEligible).unwrap();
        prefixes.push(s.durability().unwrap().base_db().clone());
    }
    drop(s);
    let wal = std::fs::read(dir.join("wal.log")).unwrap();

    let chop_dir = scratch_dir("torn-chop");
    let mut seen_states = std::collections::BTreeSet::new();
    for cut in (0..=wal.len()).rev().step_by(3) {
        let _ = std::fs::remove_dir_all(&chop_dir);
        std::fs::create_dir_all(&chop_dir).unwrap();
        std::fs::write(chop_dir.join("wal.log"), &wal[..cut]).unwrap();
        let (_store, recovered) = WalStore::open(&chop_dir, SyncPolicy::Always)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        let idx = prefixes
            .iter()
            .position(|p| *p == recovered.db)
            .unwrap_or_else(|| panic!("cut {cut}: recovered state is not an acked prefix"));
        seen_states.insert(idx);
    }
    // The sweep is not vacuous: both the empty store and the full history
    // (and states between) were hit.
    assert!(seen_states.contains(&0));
    assert!(seen_states.contains(&prefixes.len().saturating_sub(1)));
    assert!(seen_states.len() > 2, "{seen_states:?}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&chop_dir);
}

/// Snapshots taken mid-stream (rotation every 2 commits plus an explicit
/// one) never change what recovery yields, including when the post-snapshot
/// WAL tail is then torn off.
#[test]
fn snapshot_mid_stream_preserves_recovery() {
    let dir = scratch_dir("snap");
    let mut s = Session::new();
    s.execute_script("create table t (a int);").unwrap();
    s.persist_to(&dir, SyncPolicy::Batch).unwrap();
    s.set_snapshot_every(2);
    let mut states: Vec<Database> = vec![s.durability().unwrap().base_db().clone()];
    for k in 0..5 {
        s.execute_script(&format!("insert into t values ({k});"))
            .unwrap();
        s.commit(&mut FirstEligible).unwrap();
        if k == 2 {
            s.durable_snapshot().unwrap();
        }
        states.push(s.durability().unwrap().base_db().clone());
        assert_recovers_acked(&dir, &s, &format!("after commit {k}"));
    }
    // Tear off the WAL tail behind the last snapshot: recovery falls back
    // to some acknowledged state at or after that snapshot.
    let final_state = s.durability().unwrap().base_db().clone();
    drop(s);
    let wal = std::fs::read(dir.join("wal.log")).unwrap();
    for cut in (0..=wal.len()).rev().step_by(5) {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);
        let (_store, recovered) = WalStore::open(&dir, SyncPolicy::Always)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        assert!(
            states.contains(&recovered.db),
            "cut {cut}: not an acked state"
        );
    }
    // Fully torn tail: the snapshot alone still carries an acked state.
    let (_store, recovered) = WalStore::open(&dir, SyncPolicy::Always).unwrap();
    assert!(recovered.snapshot_loaded);
    assert!(states.contains(&recovered.db));
    let _ = final_state;
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-point matrix: a one-shot fault before mutating op `i`, for
/// every `i` until a full replay fires nothing — WAL appends, WAL syncs,
/// and snapshot writes included (snapshot cadence 3 puts rotation inside
/// the sweep). After every transition, disk must hold exactly the
/// acknowledged state.
#[test]
fn crash_point_matrix_recovers_acked_state_at_every_fault_index() {
    const SCRIPT: &str = "create table t (a int); \
                          create table log (a int); \
                          create rule r on t when inserted then \
                            insert into log select a from inserted end; \
                          create rule q on t when updated(a) then \
                            delete from log where a < 0 end;";
    const TRANSITIONS: &[&str] = &[
        "insert into t values (1);",
        "insert into t values (2);",
        "update t set a = a + 1 where a = 1;",
        "declare terminates r 'finite input';",
        "alter rule r precedes q;",
        "delete from t where a = 2;",
        "insert into t values (7);",
    ];
    let mut indices_fired = 0u32;
    for i in 0.. {
        let dir = scratch_dir("matrix");
        let mut s = Session::new();
        s.execute_script(SCRIPT).unwrap();
        s.persist_to(&dir, SyncPolicy::Always).unwrap();
        s.set_snapshot_every(3);
        s.install_fault_plan(FaultPlan::single(FaultSpec::nth(i)));
        for (k, t) in TRANSITIONS.iter().enumerate() {
            // Execution or commit may abort on the injected fault; both are
            // legitimate crash points. The invariant is unconditional.
            if s.execute_script(t).is_ok() {
                let _ = s.commit(&mut FirstEligible);
            }
            assert_recovers_acked(&dir, &s, &format!("fault {i}, transition {k}"));
        }
        let fired = s.db().fault_state().is_some_and(|f| f.any_fired());
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
        if !fired {
            break;
        }
        indices_fired += 1;
    }
    // The matrix exercised a real spread of crash points, including the
    // durability ops (plain data ops alone would stop far sooner).
    assert!(
        indices_fired > 10,
        "only {indices_fired} fault indices fired"
    );
}
