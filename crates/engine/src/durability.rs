//! Durable session state: the write-ahead-log attachment of a
//! [`crate::Session`].
//!
//! A [`Durability`] pairs an open [`WalStore`] with the **last acknowledged
//! state** — a [`SessionState`] as of the last record the log accepted. The
//! invariant the whole layer is built around:
//!
//! > Recovering the store at any moment yields exactly the acknowledged
//! > state (digest *and* full [`Database`] equality, including the tuple-id
//! > allocator), never a half-applied commit.
//!
//! The session persists at commit points by *state diff*, not by op
//! capture: [`CommitDelta::diff`] between the acknowledged base and the
//! post-commit database is the \[WF90\] net effect of the whole transition
//! (user statements plus every triggered rule action, plus DDL, which the
//! transaction snapshot does not cover). Rule-program changes ride in the
//! same record as the program's rendered text ([`crate::RuleProgram::render`],
//! produced only when the program did change), so a commit is one atomic WAL
//! append.

use std::sync::Arc;

use starling_sql::ast::Directive;
use starling_sql::RuleDef;
use starling_storage::wal::{CommitDelta, WalStore};
use starling_storage::{Database, StorageError};

use crate::session::SessionState;

/// How many commits accumulate in the log before the session rotates it
/// into a snapshot (overridable per session for tests and drains).
const DEFAULT_SNAPSHOT_EVERY: u64 = 64;

/// The durable attachment of a session. Opaque outside the engine: obtain
/// one via [`crate::Session::open_durable`] or
/// [`crate::Session::persist_to`]; it stays with its session across
/// [`crate::Session::reset_to`].
pub struct Durability {
    pub(crate) store: WalStore,
    /// The last acknowledged state: what recovering the store would yield,
    /// and what a failed commit rolls the session back to.
    pub(crate) base: SessionState,
    commits_since_snapshot: u64,
    pub(crate) snapshot_every: u64,
}

impl Durability {
    /// An attachment whose store currently holds exactly `base`.
    pub(crate) fn new(store: WalStore, base: SessionState) -> Self {
        Durability {
            store,
            base,
            commits_since_snapshot: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        }
    }

    /// The last acknowledged database state — what recovery will yield.
    pub fn base_db(&self) -> &Database {
        &self.base.db
    }

    /// The last acknowledged rule definitions.
    pub fn base_defs(&self) -> &[RuleDef] {
        &self.base.program.defs
    }

    /// The last acknowledged directives.
    pub fn base_directives(&self) -> &[Directive] {
        &self.base.program.directives
    }

    /// Appends the delta carrying the base to `state` (with the rendered
    /// rule program embedded if it changed), then advances the base. On
    /// `Ok`, `state` is the acknowledged state.
    pub(crate) fn persist(&mut self, state: &SessionState) -> Result<(), StorageError> {
        // Rule DDL unshares the program (`Arc::make_mut`), so an untouched
        // program is the same allocation and costs no comparison at all.
        let rules_changed =
            !Arc::ptr_eq(&state.program, &self.base.program) && state.program != self.base.program;
        if !rules_changed && state.db == self.base.db {
            return Ok(());
        }
        let mut delta = CommitDelta::diff(&self.base.db, &state.db);
        if rules_changed {
            delta.rules = Some(state.program.render());
        }
        self.store.append_commit(&mut delta)?;
        self.base = state.clone();
        self.commits_since_snapshot += 1;
        if self.commits_since_snapshot >= self.snapshot_every {
            // Rotation is an optimization: the commit above is already
            // durable, so a failed snapshot (including an injected
            // SnapshotWrite fault) leaves the WAL authoritative and the
            // commit acknowledged.
            let _ = self.snapshot();
        }
        Ok(())
    }

    /// Writes a full snapshot of the acknowledged state and truncates the
    /// log.
    pub(crate) fn snapshot(&mut self) -> Result<(), StorageError> {
        self.store
            .snapshot(&self.base.db, &self.base.program.render())?;
        self.commits_since_snapshot = 0;
        Ok(())
    }
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("dir", &self.store.dir())
            .field("base_digest", &self.base.db.state_digest())
            .field("rules", &self.base.program.defs.len())
            .finish()
    }
}
