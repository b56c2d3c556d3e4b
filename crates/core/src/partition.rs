//! Partitions of a rule set (paper Section 9, first extension).
//!
//! "Most rule applications can be partitioned into groups of rules such
//! that, across partitions, rules reference different sets of tables and
//! have no priority ordering. ... analysis can be applied separately to
//! each partition, and it needs to be repeated for a partition only when
//! rules in that partition change."
//!
//! Two rules share a partition when they reference a common table (through
//! their own table, `Reads`, or `Performs`) or are priority-ordered. The
//! quote's second half is a property of the one incremental analyzer: every
//! pair [`IncrementalAnalysis`](crate::IncrementalAnalysis) rechecks lies
//! inside one partition (`tests/partition_equivalence.rs`).

use std::collections::BTreeMap;

use crate::conflict_index::ConflictIndex;
use crate::context::AnalysisContext;

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
    for members in ConflictIndex::build(ctx).table_members() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifications::Certifications;
    use crate::context::tests::ctx_from;

    const TABLES: &[(&str, &[&str])] = &[
        ("a1", &["x"]),
        ("a2", &["x"]),
        ("b1", &["x"]),
        ("b2", &["x"]),
    ];

    const TWO_GROUPS: &str =
        "create rule g1a on a1 when inserted then insert into a2 values (1) end;
         create rule g1b on a2 when inserted then insert into a1 values (1) end;
         create rule g2a on b1 when inserted then insert into b2 values (1) end;
         create rule g2b on b2 when inserted then insert into b1 values (1) end;";

    #[test]
    fn disjoint_tables_split() {
        let c = ctx_from(TWO_GROUPS, TABLES, Certifications::new());
        let p = partition_rules(&c);
        assert_eq!(p, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn priority_merges_partitions() {
        let c = ctx_from(
            "create rule g1a on a1 when inserted then delete from a1 precedes g2a end;
             create rule g2a on b1 when inserted then delete from b1 end;",
            TABLES,
            Certifications::new(),
        );
        let p = partition_rules(&c);
        assert_eq!(p, vec![vec![0, 1]]);
    }

    #[test]
    fn shared_read_merges_partitions() {
        let c = ctx_from(
            "create rule w on a1 when inserted then delete from a1 end;
             create rule r on b1 when inserted \
               if exists (select * from a1) then delete from b1 end;",
            TABLES,
            Certifications::new(),
        );
        let p = partition_rules(&c);
        assert_eq!(p.len(), 1);
    }
}
