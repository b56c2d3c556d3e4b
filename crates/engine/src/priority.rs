//! The user-defined priority relation `P` (paper Sections 2–3).
//!
//! `precedes`/`follows` clauses induce a strict partial order over rules,
//! "including those implied by transitivity". The closure is stored as one
//! bitset row per rule and computed in a single pass over the rules in
//! reverse topological order (each rule's row is the union of its direct
//! successors' completed rows), so building the order is O(E·n/64) instead
//! of the former Warshall O(n³) — the difference between "hundreds of
//! rules" and the 10k-rule sets the analysis benchmarks exercise. Cyclic
//! orderings are rejected at compile time via Tarjan's SCC algorithm,
//! reporting exactly the rules that lie on a cycle (the same set the old
//! Warshall diagonal check produced), in rule-index order.

use crate::error::EngineError;
use crate::ruleset::RuleId;

/// The transitive closure of the user-defined priority edges.
///
/// `gt(i, j)` means rule `i` has precedence over rule `j` (`r_i > r_j ∈ P`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PriorityOrder {
    n: usize,
    words: usize,
    /// `n * words` little-endian bit rows; bit `j` of row `i` = `gt(i, j)`.
    rows: Vec<u64>,
    /// Cached number of ordered pairs in the closure.
    pairs: usize,
}

impl PriorityOrder {
    /// Builds the closure from direct edges `(higher, lower)`.
    ///
    /// `names` is used only for error reporting; `names.len()` defines the
    /// number of rules.
    pub fn from_edges<S: AsRef<str>>(
        names: &[S],
        edges: &[(usize, usize)],
    ) -> Result<Self, EngineError> {
        let n = names.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(hi, lo) in edges {
            debug_assert!(hi < n && lo < n);
            adj[hi].push(lo);
        }

        // Tarjan SCCs (iterative): detects cycles exactly (a component of
        // size > 1, or a self-edge) and emits components in reverse
        // topological order, which doubles as the evaluation order for the
        // closure pass below.
        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut cyclic = vec![false; n];
        let mut call: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            call.push((root, 0));
            while let Some(&mut (v, ref mut child)) = call.last_mut() {
                if *child < adj[v].len() {
                    let w = adj[v][*child];
                    *child += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&mut (parent, _)) = call.last_mut() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp: Vec<usize> = Vec::new();
                        loop {
                            let w = stack.pop().expect("Tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if comp.len() > 1 || adj[v].contains(&v) {
                            for &w in &comp {
                                cyclic[w] = true;
                            }
                        }
                        order.extend(comp);
                    }
                }
            }
        }
        if cyclic.contains(&true) {
            let cyclic: Vec<String> = (0..n)
                .filter(|&i| cyclic[i])
                .map(|i| names[i].as_ref().to_owned())
                .collect();
            return Err(EngineError::PriorityCycle(cyclic));
        }

        // The graph is a DAG: `order` lists every rule after all rules it
        // reaches, so each successor's row is complete when it is OR-ed in.
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for &v in &order {
            for &w in &adj[v] {
                rows[v * words + w / 64] |= 1u64 << (w % 64);
                for k in 0..words {
                    let succ = rows[w * words + k];
                    rows[v * words + k] |= succ;
                }
            }
        }
        let pairs = rows.iter().map(|w| w.count_ones() as usize).sum();
        Ok(PriorityOrder {
            n,
            words,
            rows,
            pairs,
        })
    }

    /// An empty order over `n` rules (no priorities: `P = ∅`).
    pub fn empty(n: usize) -> Self {
        let words = n.div_ceil(64);
        PriorityOrder {
            n,
            words,
            rows: vec![0u64; n * words],
            pairs: 0,
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether there are no rules.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether `a` has precedence over `b`.
    pub fn gt(&self, a: RuleId, b: RuleId) -> bool {
        self.rows[a.0 * self.words + b.0 / 64] >> (b.0 % 64) & 1 != 0
    }

    /// Whether `a` and `b` are **unordered**: neither `a > b` nor `b > a`
    /// (Section 6.2). A rule is ordered with itself by convention (the
    /// analysis never needs the pair `(r, r)`).
    pub fn unordered(&self, a: RuleId, b: RuleId) -> bool {
        a != b && !self.gt(a, b) && !self.gt(b, a)
    }

    /// Whether rule `a` has precedence over **any** rule. Closure rows are
    /// monotone under Def 6.5, so a rule with an all-zero row can never be
    /// recruited into a pair closure — the confluence sweep uses this as a
    /// fast path.
    pub fn dominates_any(&self, a: usize) -> bool {
        self.rows[a * self.words..(a + 1) * self.words]
            .iter()
            .any(|&w| w != 0)
    }

    /// The paper's `Choose`: the subset of `set` with no member of `set`
    /// having precedence over them.
    pub fn choose(&self, set: &[RuleId]) -> Vec<RuleId> {
        set.iter()
            .copied()
            .filter(|&r| !set.iter().any(|&q| self.gt(q, r)))
            .collect()
    }

    /// Number of ordered pairs (for reporting).
    pub fn ordered_pair_count(&self) -> usize {
        self.pairs
    }

    /// The rules `a` has precedence over, ascending: the set bits of `a`'s
    /// closure row.
    pub fn dominated_by(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.rows[a * self.words..(a + 1) * self.words]
            .iter()
            .enumerate()
            .flat_map(|(k, &word)| {
                let mut w = word;
                std::iter::from_fn(move || {
                    (w != 0).then(|| {
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        k * 64 + bit
                    })
                })
            })
    }

    /// Every ordered pair `(higher, lower)` in the closure, ascending by
    /// `(higher, lower)`. The incremental analyzer diffs consecutive
    /// closures with this to find which rules' orderings changed.
    pub fn gt_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.pairs);
        for i in 0..self.n {
            out.extend(self.dominated_by(i).map(|j| (i, j)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("r{i}")).collect()
    }

    #[test]
    fn transitivity() {
        // r0 > r1 > r2 implies r0 > r2.
        let p = PriorityOrder::from_edges(&names(3), &[(0, 1), (1, 2)]).unwrap();
        assert!(p.gt(RuleId(0), RuleId(2)));
        assert!(!p.gt(RuleId(2), RuleId(0)));
        assert!(!p.unordered(RuleId(0), RuleId(2)));
    }

    #[test]
    fn cycle_rejected() {
        let err = PriorityOrder::from_edges(&names(3), &[(0, 1), (1, 2), (2, 0)]).unwrap_err();
        let EngineError::PriorityCycle(rs) = err else {
            panic!()
        };
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn cycle_report_matches_warshall_diagonal() {
        // r0 > r1 > r2 > r1, r3 > r0: only {r1, r2} lie on a cycle — the
        // error must name exactly the cyclic rules, in index order.
        let err =
            PriorityOrder::from_edges(&names(4), &[(0, 1), (1, 2), (2, 1), (3, 0)]).unwrap_err();
        let EngineError::PriorityCycle(rs) = err else {
            panic!()
        };
        assert_eq!(rs, vec!["r1".to_owned(), "r2".to_owned()]);
    }

    #[test]
    fn self_edge_rejected() {
        assert!(PriorityOrder::from_edges(&names(1), &[(0, 0)]).is_err());
    }

    #[test]
    fn unordered_pairs() {
        let p = PriorityOrder::from_edges(&names(3), &[(0, 1)]).unwrap();
        assert!(p.unordered(RuleId(0), RuleId(2)));
        assert!(p.unordered(RuleId(1), RuleId(2)));
        assert!(!p.unordered(RuleId(0), RuleId(1)));
        assert!(!p.unordered(RuleId(1), RuleId(1)));
    }

    #[test]
    fn choose_filters_dominated() {
        let p = PriorityOrder::from_edges(&names(4), &[(0, 1), (2, 3)]).unwrap();
        // From {r1, r0, r3}: r0 dominates r1; r3's dominator r2 is absent.
        let picked = p.choose(&[RuleId(1), RuleId(0), RuleId(3)]);
        assert_eq!(picked, vec![RuleId(0), RuleId(3)]);
        // Choose over the empty set is empty.
        assert!(p.choose(&[]).is_empty());
    }

    #[test]
    fn empty_order_everything_unordered() {
        let p = PriorityOrder::empty(3);
        assert!(p.unordered(RuleId(0), RuleId(1)));
        assert_eq!(p.ordered_pair_count(), 0);
        assert!(!p.dominates_any(0));
        assert_eq!(p.dominated_by(0).count(), 0);
        let picked = p.choose(&[RuleId(2), RuleId(0)]);
        assert_eq!(picked, vec![RuleId(2), RuleId(0)]);
    }

    #[test]
    fn closure_matches_warshall_on_random_dags() {
        // Differential check against a reference Warshall closure over
        // seeded random DAGs (downward edges only, so always acyclic).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 7, 65, 130] {
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % 5 == 0 {
                        edges.push((i, j));
                    }
                }
            }
            let p = PriorityOrder::from_edges(&names(n), &edges).unwrap();
            let mut gt = vec![false; n * n];
            for &(hi, lo) in &edges {
                gt[hi * n + lo] = true;
            }
            for k in 0..n {
                for i in 0..n {
                    if gt[i * n + k] {
                        for j in 0..n {
                            if gt[k * n + j] {
                                gt[i * n + j] = true;
                            }
                        }
                    }
                }
            }
            let mut pairs = 0usize;
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(p.gt(RuleId(i), RuleId(j)), gt[i * n + j], "({i},{j}) n={n}");
                    pairs += usize::from(gt[i * n + j]);
                }
            }
            assert_eq!(p.ordered_pair_count(), pairs);
            let listed = p.gt_pairs();
            assert_eq!(listed.len(), pairs);
            assert!(listed.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
