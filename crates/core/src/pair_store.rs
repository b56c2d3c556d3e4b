//! The persistent, versioned pair-verdict store backing the incremental
//! §6.4 loop.
//!
//! [`PairStore`] replaces the old per-context `PairCache` (a `RefCell`
//! HashMap wholesale-cleared on any refinement). It is `Send + Sync`,
//! shared across analysis contexts via `Arc`, and keyed by **rule-pair
//! identity**: rule names are interned to stable u32 ids, and Lemma 6.1
//! verdicts live in two dense triangular bitmaps (known-bit + value-bit,
//! two bits per pair — ~12.5 MB at 10k rules, where a `HashMap` of 50M pair
//! entries would be gigabytes). It keeps verdicts only: a violation
//! derives its noncommutativity *reasons* from the conflict's two
//! signatures when a report shows them
//! ([`crate::ConfluenceViolation::reasons`]), and the refinement reads
//! Lemma 6.1's typed conditions, not stored ones. Every verdict is about
//! the rules as written: §7, §8's `Obs`
//! reduction and restricted analysis ask the store nothing of their own —
//! they filter the confluence analysis its verdicts built (see
//! [`crate::observable`]); only their `Sig` closures read verdicts.
//!
//! Invalidation is **structural**, not caller-driven: every analysis run
//! re-[`bind`](PairStore::bind)s the current context — rules,
//! certifications, refinement flag — and the store diffs it against what
//! it last saw:
//!
//! * a changed rule invalidates exactly the O(n) verdicts that mention
//!   it. A rule's identity is its body
//!   handle (`Arc<RuleBody>`: everything but the orderings), which the
//!   definitions, the rule set compiled from them and the context all
//!   share. The store keeps the body handle of each rule of the previous
//!   bind and of no other: a rule bound through the same handle under an
//!   equal catalog is unchanged at the cost of a pointer comparison — so
//!   is every rule an `order` or add/drop step did not touch; behind
//!   another handle (a re-parsed program) it is unchanged when the bodies
//!   are equal, and changed otherwise — even when its signature is not,
//!   because the refinement and the §5 termination special cases read the
//!   body;
//! * a commute-certification added or revoked invalidates exactly that
//!   pair's verdict;
//! * toggling the Section 9 predicate-level refinement invalidates every
//!   verdict (the refinement decides which Lemma 6.1 conditions are
//!   *discharged*, i.e. the verdict);
//! * priority edits invalidate **nothing here** — Lemma 6.1 is
//!   priority-independent; ordering-dependent state (which pairs are
//!   unordered, the Def 6.5 closures) lives in the incremental analyzer's
//!   confluence memo, which diffs the priority closure itself.
//!
//! Dropped rules leave their entries dormant, and the store lets go of
//! their handles. Re-adding a rule with the same signature fingerprint
//! revalidates its pairs for free while the refinement is off (verdicts
//! then read signatures alone); under the refinement, or with another
//! signature, its pairs are invalidated: the body they were derived from
//! is gone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use starling_sql::{RuleBody, RuleSignature};
use starling_storage::{Catalog, ColRef, Fnv64, Op};

use crate::certifications::Certifications;
use crate::context::AnalysisContext;

/// Flat index of the unordered pair `{a, b}` (`a < b`) in the triangular
/// bitmaps. Depends only on the pair, so growing the id space never moves
/// existing entries.
#[inline]
fn tri(a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    b * (b - 1) / 2 + a
}

#[inline]
fn get_bit(bits: &[u64], idx: usize) -> bool {
    bits[idx / 64] >> (idx % 64) & 1 != 0
}

#[inline]
fn set_bit(bits: &mut [u64], idx: usize, v: bool) {
    if v {
        bits[idx / 64] |= 1u64 << (idx % 64);
    } else {
        bits[idx / 64] &= !(1u64 << (idx % 64));
    }
}

/// Fingerprint of everything a Lemma 6.1 verdict depends on for one rule:
/// name, table, the three sets (length-prefixed, in `BTreeSet` order) and
/// `observable`. In-memory only — the value may change between releases.
fn fingerprint(sig: &RuleSignature) -> u64 {
    fn write_col(h: &mut Fnv64, tag: u8, c: &ColRef) {
        h.write(&[tag]);
        h.write_str(&c.table);
        h.write_str(&c.column);
    }
    let mut h = Fnv64::new();
    h.write_str(&sig.name);
    h.write_str(&sig.table);
    for ops in [&sig.triggered_by, &sig.performs] {
        h.write_usize(ops.len());
        for op in ops {
            match op {
                Op::Insert(t) => {
                    h.write(&[0]);
                    h.write_str(t);
                }
                Op::Delete(t) => {
                    h.write(&[1]);
                    h.write_str(t);
                }
                Op::Update(c) => write_col(&mut h, 2, c),
            }
        }
    }
    h.write_usize(sig.reads.len());
    for c in &sig.reads {
        write_col(&mut h, 3, c);
    }
    h.write(&[u8::from(sig.observable)]);
    h.finish()
}

/// What one [`PairStore::bind`] changed — the dirty-set seed the
/// incremental analyzer propagates from.
#[derive(Clone, Debug, Default)]
pub struct BindOutcome {
    /// Store id of each bound rule, in rule order.
    pub sids: Vec<u32>,
    /// Previously seen rules that changed: another body or another
    /// catalog, or, coming back after a drop, another signature
    /// fingerprint.
    pub changed_rules: Vec<u32>,
    /// Rules bound for the first time ever (no dormant entries existed).
    pub added_rules: Vec<u32>,
    /// Pairs (normalized `(min, max)` store ids) whose commute
    /// certification was added or revoked since the previous bind.
    pub changed_certs: Vec<(u32, u32)>,
    /// The refinement flag flipped: every verdict was dropped.
    pub refine_flipped: bool,
    /// This was the store's first bind (nothing to diff against).
    pub first_bind: bool,
}

impl BindOutcome {
    /// Whether the previous bind's verdict set survives untouched.
    pub fn unchanged(&self) -> bool {
        !self.first_bind
            && !self.refine_flipped
            && self.changed_rules.is_empty()
            && self.added_rules.is_empty()
            && self.changed_certs.is_empty()
    }
}

/// Cumulative counters, reported per session by the server's `stats` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairStoreStats {
    /// Verdict lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to compute (and then stored the result).
    pub misses: u64,
    /// Cached verdicts dropped by bind-time diffs.
    pub invalidations: u64,
    /// Monotone version counter: bumps whenever a bind changes anything.
    pub epoch: u64,
}

#[derive(Debug, Default)]
struct Inner {
    ids: HashMap<String, u32>,
    fps: Vec<u64>,
    /// sid → the rule's body, for the rules of the previous bind only.
    current: Vec<Option<Arc<RuleBody>>>,
    /// The previous bind's catalog.
    catalog: Option<Arc<Catalog>>,
    /// Triangular bitmap: pair verdict present.
    known: Vec<u64>,
    /// Triangular bitmap: the verdict itself (valid where `known`).
    verdicts: Vec<u64>,
    /// The certifications of the previous bind (a clone shares their sets).
    last_certs: Certifications,
    refine: bool,
    bound: bool,
}

impl Inner {
    fn grow_to(&mut self, cap: usize) {
        let words = (cap * cap.saturating_sub(1) / 2).div_ceil(64);
        if self.known.len() < words {
            self.known.resize(words, 0);
            self.verdicts.resize(words, 0);
        }
    }

    /// Clears every cached verdict mentioning `sid`. Returns how many
    /// were dropped.
    fn clear_rule(&mut self, sid: u32) -> u64 {
        let cap = self.fps.len();
        let s = sid as usize;
        let mut cleared = 0u64;
        let drop_pair = |known: &mut [u64], idx: usize| {
            if get_bit(known, idx) {
                set_bit(known, idx, false);
                1
            } else {
                0
            }
        };
        for a in 0..s {
            cleared += drop_pair(&mut self.known, tri(a, s));
        }
        for b in (s + 1)..cap {
            cleared += drop_pair(&mut self.known, tri(s, b));
        }
        cleared
    }
}

/// See the module docs.
#[derive(Debug, Default)]
pub struct PairStore {
    inner: RwLock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    epoch: AtomicU64,
}

impl PairStore {
    /// An empty store.
    pub fn new() -> Self {
        PairStore::default()
    }

    /// Binds the inputs of `ctx` (its rules, certifications and
    /// refinement flag; not its store ids, which the outcome assigns),
    /// diffing them against the previous bind and invalidating exactly the
    /// stale entries.
    pub fn bind(&self, ctx: &AnalysisContext) -> BindOutcome {
        let (certs, refine) = (&ctx.certs, ctx.refine);
        let inner = &mut *self.inner.write().expect("pair store poisoned");
        let first_bind = !inner.bound;
        inner.bound = true;
        let same_catalog = inner
            .catalog
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(c, &ctx.catalog) || **c == *ctx.catalog);
        inner.catalog = Some(Arc::clone(&ctx.catalog));

        let mut out = BindOutcome {
            first_bind,
            ..BindOutcome::default()
        };
        let mut cleared = 0u64;
        let mut previous = std::mem::take(&mut inner.current);
        inner.current.resize_with(inner.fps.len(), || None);
        for (sig, body) in ctx.sigs.iter().zip(&ctx.bodies) {
            let next = inner.fps.len() as u32;
            // `get` before `insert`: a known name costs no key clone.
            let sid = match inner.ids.get(&sig.name) {
                Some(&sid) => sid,
                None => {
                    inner.ids.insert(sig.name.clone(), next);
                    next
                }
            };
            let s = sid as usize;
            if sid == next {
                inner.fps.push(fingerprint(sig));
                inner.current.push(None);
                let cap = inner.fps.len();
                inner.grow_to(cap);
                out.added_rules.push(sid);
            } else {
                let unchanged = match previous[s].take() {
                    Some(o) => same_catalog && (Arc::ptr_eq(&o, body) || *o == **body),
                    // A dormant rule: without the refinement its verdicts
                    // read its signature alone.
                    None => !refine && inner.fps[s] == fingerprint(sig),
                };
                if !unchanged {
                    cleared += inner.clear_rule(sid);
                    inner.fps[s] = fingerprint(sig);
                    out.changed_rules.push(sid);
                }
            }
            inner.current[s] = Some(Arc::clone(body));
            out.sids.push(sid);
        }

        for (x, y) in certs.commute_changes(&inner.last_certs) {
            let (Some(&a), Some(&b)) = (inner.ids.get(x), inner.ids.get(y)) else {
                continue;
            };
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            let idx = tri(key.0 as usize, key.1 as usize);
            if get_bit(&inner.known, idx) {
                set_bit(&mut inner.known, idx, false);
                cleared += 1;
            }
            out.changed_certs.push(key);
        }
        inner.last_certs = certs.clone();

        if !first_bind && inner.refine != refine {
            out.refine_flipped = true;
            cleared += inner
                .known
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>();
            inner.known.iter_mut().for_each(|w| *w = 0);
        }
        inner.refine = refine;

        if cleared > 0 {
            self.invalidations.fetch_add(cleared, Ordering::Relaxed);
        }
        if !out.unchanged() {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Cached commutativity verdict for the (symmetric) pair, if present.
    pub(crate) fn verdict(&self, a: u32, b: u32) -> Option<bool> {
        debug_assert_ne!(a, b);
        let idx = tri(a.min(b) as usize, a.max(b) as usize);
        let inner = self.inner.read().expect("pair store poisoned");
        if get_bit(&inner.known, idx) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(get_bit(&inner.verdicts, idx))
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Stores a freshly computed verdict.
    pub(crate) fn set_verdict(&self, a: u32, b: u32, v: bool) {
        debug_assert_ne!(a, b);
        let idx = tri(a.min(b) as usize, a.max(b) as usize);
        let inner = &mut *self.inner.write().expect("pair store poisoned");
        set_bit(&mut inner.verdicts, idx, v);
        set_bit(&mut inner.known, idx, true);
    }

    /// Stores a batch of verdicts under one lock acquisition, counting each
    /// as a miss (the parallel sweep computes them without a prior
    /// [`Self::verdict`] probe). Bit positions are disjoint per pair and
    /// every value is a pure function of the pair, so merge order cannot
    /// affect the resulting store state.
    pub(crate) fn merge_verdicts(&self, entries: &[(u32, u32, bool)]) {
        if entries.is_empty() {
            return;
        }
        let inner = &mut *self.inner.write().expect("pair store poisoned");
        for &(a, b, v) in entries {
            let idx = tri(a.min(b) as usize, a.max(b) as usize);
            set_bit(&mut inner.verdicts, idx, v);
            set_bit(&mut inner.known, idx, true);
        }
        self.misses
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of the known-bits bitmap, for lock-free probing
    /// during the parallel sweep.
    pub(crate) fn known_snapshot(&self) -> KnownSnapshot {
        let inner = self.inner.read().expect("pair store poisoned");
        KnownSnapshot {
            bits: inner.known.clone(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PairStoreStats {
        PairStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
        }
    }
}

/// See [`PairStore::known_snapshot`].
pub(crate) struct KnownSnapshot {
    bits: Vec<u64>,
}

impl KnownSnapshot {
    pub(crate) fn contains(&self, a: u32, b: u32) -> bool {
        let idx = tri(a.min(b) as usize, a.max(b) as usize);
        idx / 64 < self.bits.len() && get_bit(&self.bits, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::ctx_from;

    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PairStore>();
    };

    const TABLES: &[(&str, &[&str])] = &[("t", &["x"]), ("u", &["x"])];

    const THREE: &str = "create rule a on t when inserted then update u set x = 1 end;
         create rule b on t when deleted then update u set x = 2 end;
         create rule c on t when inserted then insert into u values (1) end;";

    fn three() -> AnalysisContext {
        ctx_from(THREE, TABLES, Certifications::new())
    }

    #[test]
    fn rebind_same_inputs_is_a_noop() {
        let store = PairStore::new();
        let ctx = three();
        let first = store.bind(&ctx);
        assert!(first.first_bind);
        assert_eq!(first.added_rules, vec![0, 1, 2]);
        store.set_verdict(first.sids[0], first.sids[1], false);
        let again = store.bind(&ctx);
        assert!(again.unchanged());
        assert_eq!(again.sids, first.sids);
        // A recompiled program: equal bodies behind other handles.
        let copied = store.bind(&three());
        assert!(copied.unchanged());
        assert_eq!(copied.sids, first.sids);
        assert_eq!(store.verdict(0, 1), Some(false));
        assert_eq!(store.stats().invalidations, 0);
    }

    #[test]
    fn body_change_invalidates_only_that_rules_pairs() {
        let store = PairStore::new();
        let out = store.bind(&three());
        store.set_verdict(0, 1, false);
        store.set_verdict(0, 2, true);
        store.set_verdict(1, 2, true);
        // Redefine rule c (sid 2) with another constant: its signature is
        // the same, but its two pairs drop; pair (a, b) survives.
        let redefined = THREE.replace("values (1)", "values (2)");
        let ctx = ctx_from(&redefined, TABLES, Certifications::new());
        let out2 = store.bind(&ctx);
        assert_eq!(
            fingerprint(&ctx.sigs[2]),
            store.inner.read().unwrap().fps[2]
        );
        assert_eq!(out2.changed_rules, vec![2]);
        assert_eq!(out2.sids, out.sids);
        assert_eq!(store.verdict(0, 1), Some(false));
        assert_eq!(store.verdict(0, 2), None);
        assert_eq!(store.verdict(1, 2), None);
        assert_eq!(store.stats().invalidations, 2);
    }

    #[test]
    fn dropped_rule_revalidates_on_identical_readd() {
        let store = PairStore::new();
        let ctx = three();
        store.bind(&ctx);
        store.set_verdict(1, 2, true);
        // Drop rule b, then re-add it unchanged: its dormant entries are
        // still valid, so nothing is invalidated.
        let mut two = ctx.clone();
        two.sigs.remove(1);
        two.bodies.remove(1);
        let out = store.bind(&two);
        assert!(out.unchanged());
        let back = store.bind(&ctx);
        assert!(back.unchanged());
        assert_eq!(store.verdict(1, 2), Some(true));
        // Under the refinement a re-added rule's verdicts are dropped: they
        // may have read a body the store no longer holds.
        let refined = |c: &AnalysisContext| {
            let mut c = c.clone();
            c.refine = true;
            c
        };
        store.bind(&refined(&ctx));
        store.set_verdict(1, 2, true);
        store.bind(&refined(&two));
        assert_eq!(store.bind(&refined(&ctx)).changed_rules, vec![1]);
        assert_eq!(store.verdict(1, 2), None);
    }

    #[test]
    fn cert_change_invalidates_exactly_that_pair() {
        let store = PairStore::new();
        let mut ctx = three();
        store.bind(&ctx);
        store.set_verdict(0, 1, false);
        store.set_verdict(0, 2, true);
        ctx.certs.certify_commute("a", "b");
        let out = store.bind(&ctx);
        assert_eq!(out.changed_certs, vec![(0, 1)]);
        assert_eq!(store.verdict(0, 1), None);
        assert_eq!(store.verdict(0, 2), Some(true));
        // Revoking invalidates the pair again.
        let out = store.bind(&three());
        assert_eq!(out.changed_certs, vec![(0, 1)]);
    }

    #[test]
    fn refine_flip_drops_every_verdict() {
        let store = PairStore::new();
        let ctx = three();
        store.bind(&ctx);
        store.set_verdict(0, 1, false);
        let out = store.bind(&ctx.with_refinement());
        assert!(out.refine_flipped);
        assert_eq!(store.verdict(0, 1), None);
        assert!(store.stats().invalidations >= 1);
        assert!(store.stats().epoch >= 2);
    }
}
