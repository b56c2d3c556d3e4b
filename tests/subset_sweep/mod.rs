//! The Confluence Requirement over a subset of rules, swept directly:
//! [`check_pair`] over every unordered pair of the subset, the way §7,
//! restricted analysis and §8 were answered before they became filters of
//! the whole rule set's sweep (with the dense triangle in place of the
//! conflict index's candidates, which are a subset of it). The reference
//! those filters are held to.

use starling_analysis::commutativity::commutes_idx;
use starling_analysis::confluence::{check_pair, ConfluenceViolation};
use starling_analysis::AnalysisContext;

/// The violations of the requirement over `subset`, in sweep order.
pub fn violations(ctx: &AnalysisContext, subset: &[usize]) -> Vec<ConfluenceViolation> {
    let pairs = ctx.dense_pairs(subset).into_iter();
    pairs.flat_map(|(i, j)| check_pair(ctx, i, j).1).collect()
}

/// The requirement over `sig` with the observable rules logging into
/// Theorem 8.1's `Obs` table: every `R1 × R2` cell of every unordered pair
/// of `sig` commutes — two observable rules only with themselves, whatever
/// is certified of their database effects. (`Sig(Obs)` holds every
/// observable rule, so two unordered ones fail on their own pair's cell.)
#[allow(dead_code)] // sweep_filter_props calls it; observable_construction does not
pub fn observable_requirement(ctx: &AnalysisContext, sig: &[usize]) -> bool {
    let commute_logged = |a: usize, b: usize| {
        if ctx.sigs[a].observable && ctx.sigs[b].observable {
            a == b
        } else {
            commutes_idx(ctx, a, b)
        }
    };
    ctx.dense_pairs(sig).into_iter().all(|(i, j)| {
        let (cl, _) = check_pair(ctx, i, j);
        cl.r1
            .iter()
            .all(|&r1| cl.r2.iter().all(|&r2| commute_logged(r1, r2)))
    })
}
