//! Partitioned and incremental analysis (paper Section 9, first extension).
//!
//! "Most rule applications can be partitioned into groups of rules such
//! that, across partitions, rules reference different sets of tables and
//! have no priority ordering. ... analysis can be applied separately to
//! each partition, and it needs to be repeated for a partition only when
//! rules in that partition change."
//!
//! Two rules share a partition when they reference a common table (through
//! their own table, `Reads`, or `Performs`) or are priority-ordered. The
//! [`IncrementalAnalyzer`] caches per-partition results keyed by a content
//! digest and recomputes only invalidated partitions.

use std::collections::BTreeMap;

use serde::Serialize;
use starling_storage::Fnv64;

use crate::conflict_index::ConflictIndex;
use crate::confluence::{analyze_confluence_of, ConfluenceAnalysis};
use crate::context::AnalysisContext;
use crate::pair_store::hash_signature;
use crate::termination::{analyze_termination_indexed, TerminationAnalysis};
use crate::triggering_graph::TriggeringGraph;

/// Union-find with path compression.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Partitions the rule set into independent groups (rule indices, each
/// sorted; groups ordered by smallest member).
pub fn partition_rules(ctx: &AnalysisContext) -> Vec<Vec<usize>> {
    let n = ctx.len();
    let mut uf = UnionFind::new(n);
    // Union rules sharing a referenced table.
    let all: Vec<usize> = (0..n).collect();
    for members in ConflictIndex::build(ctx, &all).table_members() {
        for pair in members.windows(2) {
            uf.union(pair[0] as usize, pair[1] as usize);
        }
    }
    // Union priority-ordered rules.
    for i in 0..n {
        for j in ctx.priority.dominated_by(i) {
            uf.union(i, j);
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        groups.entry(uf.find(i)).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// Analysis results for one partition.
#[derive(Clone, Debug, Serialize)]
pub struct PartitionResult {
    /// Rule names in the partition.
    pub rules: Vec<String>,
    /// Termination over the partition.
    pub termination: TerminationAnalysis,
    /// Confluence Requirement over the partition.
    pub confluence: ConfluenceAnalysis,
}

/// Content digest of a partition: rule signatures plus relevant priorities
/// and certifications. Equal digests ⇒ identical analysis results.
fn partition_digest(ctx: &AnalysisContext, group: &[usize]) -> u64 {
    let mut h = Fnv64::new();
    for &i in group {
        let s = &ctx.sigs[i];
        hash_signature(&mut h, s);
        if let Some(just) = ctx.certs.termination_certificate(&s.name) {
            h.write_str(just);
        }
    }
    for (k, &i) in group.iter().enumerate() {
        for &j in &group[k + 1..] {
            h.write(&[u8::from(ctx.gt(i, j)), u8::from(ctx.gt(j, i))]);
            h.write(&[u8::from(
                ctx.certs.commute_certified(ctx.name(i), ctx.name(j)),
            )]);
        }
    }
    h.finish()
}

/// Caching analyzer: repeated calls recompute only partitions whose content
/// digest changed.
#[derive(Default)]
pub struct IncrementalAnalyzer {
    cache: BTreeMap<u64, PartitionResult>,
    /// Partitions analyzed fresh on the most recent call (for speedup
    /// measurements).
    pub last_recomputed: usize,
    /// Partitions served from cache on the most recent call.
    pub last_cached: usize,
}

impl IncrementalAnalyzer {
    /// A fresh analyzer with an empty cache.
    pub fn new() -> Self {
        IncrementalAnalyzer::default()
    }

    /// Analyzes all partitions, using the cache where valid.
    pub fn analyze(&mut self, ctx: &AnalysisContext) -> Vec<PartitionResult> {
        self.last_recomputed = 0;
        self.last_cached = 0;
        let graph = TriggeringGraph::build(ctx);
        let mut out = Vec::new();
        for group in partition_rules(ctx) {
            let key = partition_digest(ctx, &group);
            if let Some(hit) = self.cache.get(&key) {
                self.last_cached += 1;
                out.push(hit.clone());
                continue;
            }
            self.last_recomputed += 1;
            let sub = graph.subgraph(&group);
            let result = PartitionResult {
                rules: group.iter().map(|&i| ctx.name(i).to_owned()).collect(),
                termination: analyze_termination_indexed(ctx, sub, Some(&group)),
                confluence: analyze_confluence_of(ctx, &group),
            };
            self.cache.insert(key, result.clone());
            out.push(result);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use starling_engine::RuleSet;
    use starling_sql::ast::Statement;
    use starling_sql::parse_script;
    use starling_storage::{Catalog, ColumnDef, TableSchema, ValueType};

    use crate::certifications::Certifications;

    use super::*;

    fn ctx(src: &str) -> AnalysisContext {
        let mut cat = Catalog::new();
        for name in ["a1", "a2", "b1", "b2"] {
            cat.add_table(
                TableSchema::new(name, vec![ColumnDef::new("x", ValueType::Int)]).unwrap(),
            )
            .unwrap();
        }
        let defs: Vec<_> = parse_script(src)
            .unwrap()
            .into_iter()
            .filter_map(|s| match s {
                Statement::CreateRule(r) => Some(r),
                _ => None,
            })
            .collect();
        let rs = RuleSet::compile(&defs, &cat).unwrap();
        AnalysisContext::from_ruleset(&rs, Certifications::new())
    }

    const TWO_GROUPS: &str =
        "create rule g1a on a1 when inserted then insert into a2 values (1) end;
         create rule g1b on a2 when inserted then insert into a1 values (1) end;
         create rule g2a on b1 when inserted then insert into b2 values (1) end;
         create rule g2b on b2 when inserted then insert into b1 values (1) end;";

    #[test]
    fn disjoint_tables_split() {
        let c = ctx(TWO_GROUPS);
        let p = partition_rules(&c);
        assert_eq!(p, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn priority_merges_partitions() {
        let c = ctx(
            "create rule g1a on a1 when inserted then delete from a1 precedes g2a end;
             create rule g2a on b1 when inserted then delete from b1 end;",
        );
        let p = partition_rules(&c);
        assert_eq!(p, vec![vec![0, 1]]);
    }

    #[test]
    fn shared_read_merges_partitions() {
        let c = ctx("create rule w on a1 when inserted then delete from a1 end;
             create rule r on b1 when inserted \
               if exists (select * from a1) then delete from b1 end;");
        let p = partition_rules(&c);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn incremental_cache_hits() {
        let c = ctx(TWO_GROUPS);
        let mut inc = IncrementalAnalyzer::new();
        let r1 = inc.analyze(&c);
        assert_eq!(r1.len(), 2);
        assert_eq!(inc.last_recomputed, 2);
        assert_eq!(inc.last_cached, 0);

        // Unchanged rule set: everything cached.
        let _ = inc.analyze(&c);
        assert_eq!(inc.last_recomputed, 0);
        assert_eq!(inc.last_cached, 2);

        // Change one group (add a certification touching g1a only): just
        // that partition recomputes.
        let mut c2 = c.clone();
        c2.certs.certify_terminates("g1a", "bounded");
        let _ = inc.analyze(&c2);
        assert_eq!(inc.last_recomputed, 1);
        assert_eq!(inc.last_cached, 1);
    }

    #[test]
    fn partition_results_match_whole_analysis() {
        let c = ctx(TWO_GROUPS);
        let mut inc = IncrementalAnalyzer::new();
        let rs = inc.analyze(&c);
        // Both groups are ping-pong cycles: each partition flags
        // nontermination, as whole-set analysis would.
        for r in &rs {
            assert!(!r.termination.is_guaranteed());
        }
        let whole = crate::termination::analyze_termination(&c);
        assert_eq!(whole.cycles.len(), 2);
    }
}
