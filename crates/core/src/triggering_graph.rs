//! The triggering graph `TG_R` (paper Section 5, after \[CW90\]).
//!
//! Nodes are rules; there is an edge `r_i → r_j` iff
//! `r_j ∈ Triggers(r_i)`. Theorem 5.1: if `TG_R` is acyclic, the rules are
//! guaranteed to terminate. Strongly connected components with a cycle are
//! the units the user is asked to certify.

use std::fmt::Write as _;

use crate::context::AnalysisContext;

/// The triggering graph of a rule set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriggeringGraph {
    /// Rule names, indexed by rule.
    pub names: Vec<String>,
    /// Adjacency: `succ[i]` are the rules triggered by rule `i`, sorted.
    pub succ: Vec<Vec<usize>>,
}

impl TriggeringGraph {
    /// Builds the graph from an analysis context, via the context's
    /// op-indexed adjacency (O(n + e), not the O(n²) pairwise scan).
    pub fn build(ctx: &AnalysisContext) -> Self {
        TriggeringGraph {
            names: (0..ctx.len()).map(|i| ctx.name(i).to_owned()).collect(),
            succ: ctx.triggers_adjacency().as_ref().clone(),
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Whether the edge `i → j` exists.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.succ[i].contains(&j)
    }

    /// Strongly connected components (Tarjan, iterative), in reverse
    /// topological order. Every node appears in exactly one component.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        const UNSET: usize = usize::MAX;
        let mut index = vec![UNSET; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();

        // Iterative Tarjan with an explicit call stack of (node, child ptr).
        let mut call: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNSET {
                continue;
            }
            call.push((root, 0));
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                if *ci < self.succ[v].len() {
                    let w = self.succ[v][*ci];
                    *ci += 1;
                    if index[w] == UNSET {
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
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// SCCs that contain a cycle: more than one node, or a single node with
    /// a self-loop. These are exactly the obstructions to Theorem 5.1.
    pub fn cyclic_sccs(&self) -> Vec<Vec<usize>> {
        self.sccs()
            .into_iter()
            .filter(|c| c.len() > 1 || self.has_edge(c[0], c[0]))
            .collect()
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.cyclic_sccs().is_empty()
    }

    /// Restricts the graph to a subset of nodes (used by `Sig(T')`
    /// termination and restricted-operation analysis). Nodes keep their
    /// original indices via the returned mapping.
    pub fn subgraph(&self, keep: &[usize]) -> TriggeringGraph {
        restrict(&self.succ, |i| self.names[i].clone(), keep)
    }

    /// `build(ctx).subgraph(keep)`, without building the rest of the graph.
    pub(crate) fn of_rules(ctx: &AnalysisContext, keep: &[usize]) -> TriggeringGraph {
        restrict(ctx.triggers_adjacency(), |i| ctx.name(i).to_owned(), keep)
    }

    /// Nodes reachable from `roots` (inclusive), in index order.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<usize> {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<usize> = roots.to_vec();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(v) = stack.pop() {
            for &w in &self.succ[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        (0..self.len()).filter(|&i| seen[i]).collect()
    }

    /// GraphViz DOT rendering, with cyclic SCCs highlighted.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph triggering {\n  rankdir=LR;\n");
        let cyclic: Vec<Vec<usize>> = self.cyclic_sccs();
        let mut in_cycle = vec![false; self.len()];
        for c in &cyclic {
            for &i in c {
                in_cycle[i] = true;
            }
        }
        for (i, name) in self.names.iter().enumerate() {
            if in_cycle[i] {
                let _ = writeln!(s, "  \"{name}\" [style=filled, fillcolor=\"#ffcccc\"];");
            } else {
                let _ = writeln!(s, "  \"{name}\";");
            }
        }
        for (i, succs) in self.succ.iter().enumerate() {
            for &j in succs {
                let _ = writeln!(s, "  \"{}\" -> \"{}\";", self.names[i], self.names[j]);
            }
        }
        s.push_str("}\n");
        s
    }
}

/// The graph of `succ` restricted to the nodes `keep`, renumbered in
/// `keep` order; `name` names an original node.
fn restrict(
    succ: &[Vec<usize>],
    name: impl Fn(usize) -> String,
    keep: &[usize],
) -> TriggeringGraph {
    let mut remap = vec![usize::MAX; succ.len()];
    for (new, &old) in keep.iter().enumerate() {
        remap[old] = new;
    }
    TriggeringGraph {
        names: keep.iter().map(|&i| name(i)).collect(),
        succ: keep
            .iter()
            .map(|&i| {
                succ[i]
                    .iter()
                    .filter(|&&j| remap[j] != usize::MAX)
                    .map(|&j| remap[j])
                    .collect()
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(names: usize, edges: &[(usize, usize)]) -> TriggeringGraph {
        let mut succ = vec![Vec::new(); names];
        for &(a, b) in edges {
            succ[a].push(b);
        }
        TriggeringGraph {
            names: (0..names).map(|i| format!("r{i}")).collect(),
            succ,
        }
    }

    #[test]
    fn acyclic_chain() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        assert!(g.is_acyclic());
        assert_eq!(g.sccs().len(), 3);
        assert!(g.cyclic_sccs().is_empty());
    }

    #[test]
    fn simple_cycle() {
        let g = graph(3, &[(0, 1), (1, 0), (1, 2)]);
        assert!(!g.is_acyclic());
        let cyc = g.cyclic_sccs();
        assert_eq!(cyc, vec![vec![0, 1]]);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = graph(2, &[(0, 0)]);
        assert!(!g.is_acyclic());
        assert_eq!(g.cyclic_sccs(), vec![vec![0]]);
    }

    #[test]
    fn nested_sccs() {
        // Two separate cycles joined by a bridge.
        let g = graph(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3)]);
        let cyc = g.cyclic_sccs();
        assert_eq!(cyc.len(), 2);
        assert!(cyc.contains(&vec![0, 1]));
        assert!(cyc.contains(&vec![3, 4]));
    }

    #[test]
    fn subgraph_restriction() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert!(!g.is_acyclic());
        // Dropping node 1 breaks the cycle.
        let sub = g.subgraph(&[0, 2, 3]);
        assert!(sub.is_acyclic());
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.names, vec!["r0", "r2", "r3"]);
    }

    #[test]
    fn reachability() {
        let g = graph(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(g.reachable_from(&[0]), vec![0, 1, 2]);
        assert_eq!(g.reachable_from(&[3]), vec![3, 4]);
        assert_eq!(g.reachable_from(&[2]), vec![2]);
        assert!(g.reachable_from(&[]).is_empty());
    }

    #[test]
    fn dot_output() {
        let g = graph(2, &[(0, 1), (1, 1)]);
        let dot = g.to_dot();
        assert!(dot.contains("\"r0\" -> \"r1\""));
        assert!(dot.contains("fillcolor")); // r1's self-loop highlighted
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn big_cycle_no_stack_overflow() {
        // A long chain then a back edge; iterative Tarjan must handle it.
        let n = 50_000;
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        let g = graph(n, &edges);
        assert_eq!(g.cyclic_sccs().len(), 1);
        assert_eq!(g.cyclic_sccs()[0].len(), n);
    }
}
