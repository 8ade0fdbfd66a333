//! Direct (non-relational) pattern counters and graph statistics.
//!
//! These serve two purposes:
//!
//! 1. **Cross-validation.** On a symmetric directed edge relation, the
//!    Figure-2 CQs over-count each pattern by its automorphism factor:
//!    `|q△| = 6·#triangles`, `|q3∗| = 6·#3-stars`, `|q□| = 8·#rectangles`,
//!    `|q2△| = 4·#two-triangles`. Tests check the FAQ engine against these
//!    combinatorial counters.
//! 2. **Statistics for closed-form sensitivities** — degree tables and the
//!    common-neighbor structure (`a_uv`, `b_uv`) that the NRS'07 triangle
//!    formulas consume.

use crate::graph::Graph;
use dpcq_relation::FxHashMap;

/// Number of triangles (unordered vertex triples forming `K₃`).
pub fn count_triangles(g: &Graph) -> u64 {
    // Σ over edges of common neighbors counts each triangle 3× .
    let total: u64 = g
        .edges()
        .map(|(u, v)| g.common_neighbors(u, v) as u64)
        .sum();
    total / 3
}

/// Number of 3-stars: `Σ_v C(d_v, 3)`.
pub fn count_three_stars(g: &Graph) -> u64 {
    g.degrees()
        .iter()
        .map(|&d| {
            let d = d as u64;
            if d >= 3 {
                d * (d - 1) * (d - 2) / 6
            } else {
                0
            }
        })
        .sum()
}

/// The common-neighbor multiset: for every unordered pair `{u, v}` at
/// distance ≤ 2 (i.e. with at least one common neighbor), the count
/// `a_uv = |N(u) ∩ N(v)|`. This is the expensive statistic (`Σ_m C(d_m,2)`
/// wedges) behind rectangles, 2-triangles and the triangle smooth
/// sensitivity.
pub fn common_neighbor_counts(g: &Graph) -> FxHashMap<(u32, u32), u32> {
    let mut counts: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    for m in 0..g.num_vertices() as u32 {
        let nbrs = g.neighbors(m);
        for (i, &u) in nbrs.iter().enumerate() {
            for &v in &nbrs[i + 1..] {
                *counts.entry((u, v)).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Number of rectangles (4-cycles as vertex sets):
/// `½ Σ_{pairs} C(a_uv, 2)` over the common-neighbor multiset (each
/// rectangle is seen from both diagonals).
pub fn count_rectangles(g: &Graph) -> u64 {
    let total: u64 = common_neighbor_counts(g)
        .values()
        .map(|&a| {
            let a = a as u64;
            if a >= 2 {
                a * (a - 1) / 2
            } else {
                0
            }
        })
        .sum();
    total / 2
}

/// Number of 2-triangles (unordered pairs of distinct triangles sharing an
/// edge): `Σ_e C(a_e, 2)` over edges.
pub fn count_two_triangles(g: &Graph) -> u64 {
    g.edges()
        .map(|(u, v)| {
            let a = g.common_neighbors(u, v) as u64;
            if a >= 2 {
                a * (a - 1) / 2
            } else {
                0
            }
        })
        .sum()
}

/// Pattern-to-CQ automorphism factors on a symmetric directed edge
/// relation (see module docs).
pub mod cq_factor {
    /// `|q△| / #triangles`.
    pub const TRIANGLE: u64 = 6;
    /// `|q3∗| / #3-stars`.
    pub const THREE_STAR: u64 = 6;
    /// `|q□| / #rectangles`.
    pub const RECTANGLE: u64 = 8;
    /// `|q2△| / #2-triangles`.
    pub const TWO_TRIANGLE: u64 = 4;
}

/// Statistics of one vertex pair, as used by the NRS'07 triangle
/// sensitivity: `a` common neighbors, `b` vertices adjacent to exactly one
/// endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairStats {
    /// `a_uv = |N(u) ∩ N(v)|`.
    pub common: u32,
    /// `b_uv = |N(u) △ N(v)| − 2·[u ~ v]` (endpoints excluded).
    pub one_sided: u32,
}

/// The Pareto front of `(a, b)` pair statistics: for each occurring `a`,
/// the largest `b` among pairs with that `a`, plus the globally best
/// `a = 0` candidates (top-degree pairs). Sufficient for maximizing any
/// function increasing in both coordinates (the `LS⁽ᵏ⁾` formulas are).
pub fn pair_stats_pareto(g: &Graph) -> Vec<PairStats> {
    let counts = common_neighbor_counts(g);
    let mut best_b_for_a: FxHashMap<u32, u32> = FxHashMap::default();
    let consider = |map: &mut FxHashMap<u32, u32>, g: &Graph, u: u32, v: u32, a: u32| {
        let adjacent = g.has_edge(u, v) as u32;
        let du = g.degree(u) as u32;
        let dv = g.degree(v) as u32;
        // |N(u) △ N(v)| minus the endpoints themselves when adjacent.
        let b = du + dv - 2 * a - 2 * adjacent;
        map.entry(a).and_modify(|e| *e = (*e).max(b)).or_insert(b);
    };
    for (&(u, v), &a) in &counts {
        consider(&mut best_b_for_a, g, u, v, a);
    }
    // a = 0 candidates: pairs of the highest-degree vertices (possibly at
    // distance > 2), which maximize b when no common neighbor exists.
    let mut by_degree: Vec<u32> = (0..g.num_vertices() as u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let top = &by_degree[..by_degree.len().min(8)];
    for (i, &u) in top.iter().enumerate() {
        for &v in &top[i + 1..] {
            let a = g.common_neighbors(u, v) as u32;
            consider(&mut best_b_for_a, g, u, v, a);
        }
    }
    // Also a fresh pair attached to the single best vertex (models new
    // vertices from the infinite domain): a = 0, b = d_max.
    let d_max = g.max_degree() as u32;
    best_b_for_a
        .entry(0)
        .and_modify(|e| *e = (*e).max(d_max))
        .or_insert(d_max);

    let mut front: Vec<PairStats> = best_b_for_a
        .into_iter()
        .map(|(a, b)| PairStats {
            common: a,
            one_sided: b,
        })
        .collect();
    front.sort_by_key(|p| p.common);
    // Drop dominated entries (smaller a and smaller-or-equal b).
    let mut pareto: Vec<PairStats> = Vec::new();
    for p in front.into_iter().rev() {
        if pareto.last().is_none_or(|q| p.one_sided > q.one_sided) {
            pareto.push(p);
        }
    }
    pareto
}

/// The largest common-neighbor count over all pairs (`a_max`), 0 for
/// graphs without wedges.
pub fn max_common_neighbors(g: &Graph) -> u32 {
    common_neighbor_counts(g)
        .values()
        .copied()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn triangle_counts_on_known_graphs() {
        assert_eq!(count_triangles(&Graph::complete(4)), 4);
        assert_eq!(count_triangles(&Graph::complete(5)), 10);
        assert_eq!(count_triangles(&Graph::cycle(5)), 0);
        let mut g = Graph::cycle(3);
        assert_eq!(count_triangles(&g), 1);
        g.add_edge(0, 1); // duplicate, no change
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn star_counts() {
        // Star with center degree 4: C(4,3) = 4 three-stars.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(count_three_stars(&g), 4);
        assert_eq!(count_three_stars(&Graph::complete(4)), 4); // 4·C(3,3)
        assert_eq!(count_three_stars(&Graph::cycle(8)), 0);
    }

    #[test]
    fn rectangle_counts() {
        assert_eq!(count_rectangles(&Graph::cycle(4)), 1);
        assert_eq!(count_rectangles(&Graph::cycle(5)), 0);
        // K4: choose 4 vertices (1 way), 3 distinct 4-cycles.
        assert_eq!(count_rectangles(&Graph::complete(4)), 3);
        // K5: C(5,4)·3 = 15.
        assert_eq!(count_rectangles(&Graph::complete(5)), 15);
    }

    #[test]
    fn two_triangle_counts() {
        // Two triangles sharing edge {0,1}: a_{01} = 2 → C(2,2) = 1.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]);
        assert_eq!(count_two_triangles(&g), 1);
        // K4: every edge has a = 2 → 6 edges × 1 = 6.
        assert_eq!(count_two_triangles(&Graph::complete(4)), 6);
        assert_eq!(count_two_triangles(&Graph::cycle(6)), 0);
    }

    #[test]
    fn common_neighbor_map_matches_direct() {
        let g = Graph::from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]);
        let m = common_neighbor_counts(&g);
        assert_eq!(m.get(&(0, 1)).copied().unwrap_or(0), 2);
        assert_eq!(max_common_neighbors(&g), 2);
        for (&(u, v), &a) in &m {
            assert_eq!(a as usize, g.common_neighbors(u, v), "pair {u},{v}");
        }
    }

    #[test]
    fn pareto_front_is_increasing() {
        let mut g = Graph::complete(6);
        g.add_edge(0, 1);
        let front = pair_stats_pareto(&g);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            // Sorted by descending a with strictly increasing b.
            assert!(w[0].common > w[1].common);
            assert!(w[0].one_sided < w[1].one_sided);
        }
        // K6: every pair has a = 4, b = 0. Fresh-pair candidate: a=0,b=5.
        assert!(front.iter().any(|p| p.common == 4 && p.one_sided == 0));
        assert!(front.iter().any(|p| p.common == 0 && p.one_sided == 5));
    }

    #[test]
    fn empty_graph_statistics() {
        let g = Graph::new(4);
        assert_eq!(count_triangles(&g), 0);
        assert_eq!(count_rectangles(&g), 0);
        assert_eq!(max_common_neighbors(&g), 0);
        let front = pair_stats_pareto(&g);
        assert_eq!(front.len(), 1); // the fresh-pair candidate
        assert_eq!(front[0].common, 0);
    }
}
