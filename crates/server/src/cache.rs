//! The shared compiled-program cache.
//!
//! N clients loading the same rule script must not pay N parses, N seed
//! executions, and N rule-set compilations. The cache keys a fully loaded
//! [`CachedProgram`] — the [`SessionState`] every session of the script
//! starts from (seeded copy-on-write database, rule program, compiled
//! [`starling_engine::RuleSet`], each behind an `Arc`) plus the script's
//! user transition — by the FNV-1a digest of the *source text*, so a cache
//! hit hands a session its state with three refcount bumps and zero
//! recompilation.
//!
//! Snapshot isolation falls out of PR 2's storage layer: `Database` is
//! `Arc`-shared copy-on-write, so every session's `db.clone()` shares
//! tables until that session writes, and no session can observe another's
//! writes.
//!
//! Under the worker pool a panicking request (contained by the executor's
//! `catch_unwind`) may die while holding a cache lock, so every lock here
//! is poison-tolerant: the map and the ready slots hold only completed
//! values, and an interrupted first load leaves at worst an empty
//! placeholder slot that the next loader fills.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use starling_analysis::loader::load_script;
use starling_engine::{EngineError, Session, SessionState};
use starling_sql::ast::Action;
use starling_storage::Fnv64;

/// What the cache keeps of a loaded script.
pub struct CachedProgram {
    /// The state a session of this script starts from.
    pub state: SessionState,
    /// The script's user transition (the default `explore` probe).
    pub user_actions: Vec<Action>,
}

/// A per-script slot: `None` while the first loader is building (the slot
/// mutex is held for the duration, so racing loaders of the *same* script
/// block and then hit), `Some` once ready.
type Slot = Arc<Mutex<Option<Arc<CachedProgram>>>>;

/// A concurrent script-digest → loaded-program cache with single-flight
/// loading: N sessions racing to load the same new script compile it once,
/// while loads of *different* scripts proceed in parallel.
pub struct ScriptCache {
    entries: Mutex<HashMap<u64, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ScriptCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScriptCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key for a script source.
    pub fn digest(src: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(src);
        h.finish()
    }

    /// Loads `src` through the cache. Returns the shared program and
    /// whether it was already cached.
    ///
    /// Load errors are **not** cached: a bad script costs its author a
    /// re-parse, and a transiently failing load (e.g. under fault
    /// injection) is not pinned as permanently broken.
    pub fn load(&self, src: &str) -> Result<(Arc<CachedProgram>, bool), EngineError> {
        let key = Self::digest(src);
        // The map lock is held only to fetch-or-create the slot; the load
        // itself runs under the slot's own lock, so building a large
        // program stalls neither cache hits nor loads of other scripts.
        let slot = {
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(entries.entry(key).or_default())
        };
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ready) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(ready), true));
        }
        match load_script(src) {
            Ok(l) => {
                let state = Session::restore(l.db, l.defs, Some(l.rules), l.directives).state();
                let user_actions = l.user_actions;
                let loaded = Arc::new(CachedProgram {
                    state,
                    user_actions,
                });
                *guard = Some(Arc::clone(&loaded));
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok((loaded, false))
            }
            Err(e) => {
                drop(guard);
                // Drop the empty placeholder so the failure is not pinned:
                // the next attempt re-parses from scratch.
                let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
                let still_empty = entries
                    .get(&key)
                    .is_some_and(|s| s.lock().unwrap_or_else(PoisonError::into_inner).is_none());
                if still_empty {
                    entries.remove(&key);
                }
                Err(e)
            }
        }
    }

    /// Looks up an already-cached program by its script digest (the
    /// protocol's attach-by-digest path: a client that knows the digest
    /// skips re-sending the script). Counts as a hit when found; a miss
    /// here is not counted (the client falls back to a full `load`).
    pub fn get_by_digest(&self, key: u64) -> Option<Arc<CachedProgram>> {
        let slot = {
            let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            entries.get(&key).map(Arc::clone)?
        };
        // Block behind an in-flight first loader rather than racing it.
        let found = slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(Arc::clone);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached (ready) programs. A program still being built by
    /// its first loader does not count.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|slot| slot.try_lock().is_ok_and(|g| g.is_some()))
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ScriptCache {
    fn default() -> Self {
        ScriptCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "create table t (x int); \
                       create rule a on t when inserted then delete from t end; \
                       insert into t values (1);";

    #[test]
    fn second_load_hits_and_shares() {
        let cache = ScriptCache::new();
        let (first, was_cached) = cache.load(SRC).unwrap();
        assert!(!was_cached);
        let (second, was_cached) = cache.load(SRC).unwrap();
        assert!(was_cached);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_scripts_distinct_entries() {
        let cache = ScriptCache::new();
        cache.load(SRC).unwrap();
        cache.load("create table u (y int);").unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ScriptCache::new();
        assert!(cache.load("create rule broken").is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0));
        // A later correct attempt is not poisoned by the failure.
        assert!(cache.load(SRC).is_ok());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_loaders_compile_once() {
        let cache = ScriptCache::new();
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| cache.load(SRC).unwrap());
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "single-flight: one load, everyone else hits");
        assert_eq!(hits, 15);
    }
}
