//! Speed-aware diffusion matrices.
//!
//! The first- and second-order diffusion schemes of the paper are driven by a
//! stochastic matrix `P` with
//!
//! ```text
//! P[i][j] = α[i][j] / s[i]          for j ∈ N(i)
//! P[i][i] = 1 − Σ_{j ∈ N(i)} α[i][j] / s[i]
//! ```
//!
//! where the `α[i][j] = α[j][i]` are symmetric edge weights satisfying
//! `Σ_{j ∈ N(i)} α[i][j] < s[i]` for every node `i`. [`DiffusionMatrix`]
//! stores the per-edge `α` values together with node speeds and offers the
//! row-vector product `x ↦ x·P` that advances the continuous process.

use crate::error::GraphError;
use crate::graph::{EdgeId, Graph, GraphDelta, NodeId};

/// Strategy for choosing the symmetric edge weights `α[i][j]`.
///
/// Both schemes reduce to the standard literature choices for unit speeds and
/// generalise to heterogeneous speeds by scaling with `min(s_i, s_j)`, which
/// preserves symmetry and keeps every row sum strictly below `s_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum AlphaScheme {
    /// `α[i][j] = min(s_i, s_j) / (max(d_i, d_j) + 1)` — the common
    /// `1/(max(d_i, d_j) + 1)` choice for unit speeds.
    #[default]
    MaxDegreePlusOne,
    /// `α[i][j] = min(s_i, s_j) / (2 · max(d_i, d_j))` — the common
    /// `1/(2 · max(d_i, d_j))` choice for unit speeds. Guarantees `P` has
    /// diagonal entries at least 1/2, which keeps all eigenvalues
    /// non-negative (useful on bipartite graphs).
    Lazy,
}

impl AlphaScheme {
    /// Computes `α` for the edge `{i, j}` given degrees and speeds.
    pub fn alpha(self, deg_i: usize, deg_j: usize, speed_i: f64, speed_j: f64) -> f64 {
        let dmax = deg_i.max(deg_j) as f64;
        let smin = speed_i.min(speed_j);
        match self {
            AlphaScheme::MaxDegreePlusOne => smin / (dmax + 1.0),
            AlphaScheme::Lazy => smin / (2.0 * dmax),
        }
    }
}

/// A speed-aware diffusion matrix over a fixed graph.
///
/// The matrix does not own the graph; methods that need the topology take a
/// `&Graph` argument and debug-assert that its node and edge counts match the
/// ones captured at construction time.
///
/// # Examples
///
/// ```
/// use lb_graph::{generators, AlphaScheme, DiffusionMatrix};
///
/// let g = generators::cycle(4)?;
/// let speeds = vec![1.0; 4];
/// let p = DiffusionMatrix::new(&g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// let x = vec![4.0, 0.0, 0.0, 0.0];
/// let next = p.apply(&g, &x);
/// // Load is conserved by one diffusion step.
/// assert!((next.iter().sum::<f64>() - 4.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionMatrix {
    n: usize,
    m: usize,
    /// Per-edge symmetric weight `α_e`, indexed by [`EdgeId`].
    alphas: Vec<f64>,
    /// Node speeds (strictly positive).
    speeds: Vec<f64>,
    /// Diagonal entries `P[i][i]`.
    diagonal: Vec<f64>,
    scheme: AlphaScheme,
}

impl DiffusionMatrix {
    /// Builds the diffusion matrix for `graph` with the given `speeds` and
    /// `scheme`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `speeds.len()` does not
    /// match the node count or any speed is not strictly positive and finite.
    pub fn new(graph: &Graph, speeds: &[f64], scheme: AlphaScheme) -> Result<Self, GraphError> {
        if speeds.len() != graph.node_count() {
            return Err(GraphError::invalid_parameter(format!(
                "speeds length {} does not match node count {}",
                speeds.len(),
                graph.node_count()
            )));
        }
        if let Some((i, &s)) = speeds
            .iter()
            .enumerate()
            .find(|(_, &s)| !(s.is_finite() && s > 0.0))
        {
            return Err(GraphError::invalid_parameter(format!(
                "speed of node {i} must be positive and finite, got {s}"
            )));
        }
        let mut alphas = vec![0.0; graph.edge_count()];
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            alphas[e] = scheme.alpha(graph.degree(u), graph.degree(v), speeds[u], speeds[v]);
        }
        let mut diagonal = vec![0.0; graph.node_count()];
        for i in graph.nodes() {
            let outgoing: f64 = graph
                .neighbors_with_edges(i)
                .map(|(_, e)| alphas[e] / speeds[i])
                .sum();
            diagonal[i] = 1.0 - outgoing;
        }
        Ok(DiffusionMatrix {
            n: graph.node_count(),
            m: graph.edge_count(),
            alphas,
            speeds: speeds.to_vec(),
            diagonal,
            scheme,
        })
    }

    /// Convenience constructor for unit speeds.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`DiffusionMatrix::new`]; with unit speeds this
    /// only happens for internal inconsistencies.
    pub fn uniform(graph: &Graph, scheme: AlphaScheme) -> Result<Self, GraphError> {
        Self::new(graph, &vec![1.0; graph.node_count()], scheme)
    }

    /// Incrementally rebuilds the matrix for a patched topology.
    ///
    /// `new_graph` must be `old_graph` with `delta` applied (see
    /// [`Graph::apply_delta`]); speeds and scheme carry over from `self`.
    /// Because `α_e` is a pure function of the endpoint degrees and speeds,
    /// every edge not incident to a degree-changed node keeps its old `α`
    /// bit-for-bit, and only diagonals of degree-changed nodes and their
    /// neighbours are re-summed. The result is therefore **bit-identical** to
    /// `DiffusionMatrix::new(new_graph, self.speeds(), self.scheme())` while
    /// doing `O(m)` copies plus `O(Δ · d_max)` recomputation instead of a
    /// full `O(m + n · d_avg)` re-derivation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if the graphs do not match
    /// `self` or the delta does not describe the old-to-new edge difference.
    pub fn patched(
        &self,
        old_graph: &Graph,
        new_graph: &Graph,
        delta: &GraphDelta,
    ) -> Result<Self, GraphError> {
        if old_graph.node_count() != self.n || old_graph.edge_count() != self.m {
            return Err(GraphError::invalid_parameter(
                "old graph does not match the matrix dimensions",
            ));
        }
        if new_graph.node_count() != self.n {
            return Err(GraphError::invalid_parameter(format!(
                "patched graph has {} nodes, matrix was built for {}",
                new_graph.node_count(),
                self.n
            )));
        }
        let expected_m = (self.m + delta.added.len())
            .checked_sub(delta.removed.len())
            .filter(|&m| m == new_graph.edge_count())
            .ok_or_else(|| {
                GraphError::invalid_parameter(format!(
                    "delta (+{} / -{}) does not connect edge counts {} -> {}",
                    delta.added.len(),
                    delta.removed.len(),
                    self.m,
                    new_graph.edge_count()
                ))
            })?;

        // Locate the delta's breakpoints: positions of removed edges in the
        // old list and of added edges in the new list (both strictly
        // increasing, since delta lists are sorted and duplicate-free).
        let old_edges = old_graph.edges();
        let new_edges = new_graph.edges();
        let position = |edges: &[(usize, usize)], edge: (usize, usize)| {
            edges.binary_search(&edge).map_err(|_| {
                GraphError::invalid_parameter(format!(
                    "delta does not describe the old-to-new difference at edge ({}, {})",
                    edge.0, edge.1
                ))
            })
        };
        let mut removed_at = Vec::with_capacity(delta.removed.len());
        for &edge in &delta.removed {
            removed_at.push(position(old_edges, edge)?);
        }
        let mut added_at = Vec::with_capacity(delta.added.len());
        for &edge in &delta.added {
            added_at.push(position(new_edges, edge)?);
        }

        // Between breakpoints the old and new edge lists must agree run for
        // run; kept runs bulk-copy their alphas (the recompute fix-up below
        // overwrites the touched-incident ones), so the per-edge work is a
        // slice compare and a memcpy instead of a branchy merge walk.
        let mut alphas = vec![0.0; expected_m];
        let (mut j, mut k, mut r, mut a) = (0usize, 0usize, 0usize, 0usize);
        while j < old_edges.len() || k < new_edges.len() {
            if removed_at.get(r) == Some(&j) {
                j += 1;
                r += 1;
                continue;
            }
            if added_at.get(a) == Some(&k) {
                let (u, v) = new_edges[k];
                alphas[k] = self.scheme.alpha(
                    new_graph.degree(u),
                    new_graph.degree(v),
                    self.speeds[u],
                    self.speeds[v],
                );
                k += 1;
                a += 1;
                continue;
            }
            let next_j = removed_at.get(r).copied().unwrap_or(old_edges.len());
            let next_k = added_at.get(a).copied().unwrap_or(new_edges.len());
            let len = (next_j - j).min(next_k - k);
            if len == 0 || old_edges[j..j + len] != new_edges[k..k + len] {
                let (u, v) = if k < new_edges.len() {
                    new_edges[k]
                } else {
                    old_edges[j]
                };
                return Err(GraphError::invalid_parameter(format!(
                    "delta does not describe the old-to-new difference at edge ({u}, {v})"
                )));
            }
            alphas[k..k + len].copy_from_slice(&self.alphas[j..j + len]);
            j += len;
            k += len;
        }

        // Fix-up: every new-graph edge incident to a touched node gets its
        // alpha recomputed with the new degrees (kept edges whose endpoint
        // degree changed, plus the added edges again — same value). O(Δ·d).
        for t in delta.touched_nodes() {
            for (_, e) in new_graph.neighbors_with_edges(t) {
                let (u, v) = new_edges[e];
                alphas[e] = self.scheme.alpha(
                    new_graph.degree(u),
                    new_graph.degree(v),
                    self.speeds[u],
                    self.speeds[v],
                );
            }
        }

        // Diagonals: copy wholesale, then re-sum only the closed
        // neighbourhood of the touched nodes. Re-summing a node whose
        // incident alphas are all unchanged reproduces the original value
        // bit for bit (same CSR order, same inputs), so a superset of the
        // strictly-affected nodes is safe.
        let mut diagonal = self.diagonal.clone();
        let mut affected = delta.touched_nodes();
        for &(u, v) in delta.removed.iter().chain(delta.added.iter()) {
            affected.extend_from_slice(new_graph.neighbors(u));
            affected.extend_from_slice(new_graph.neighbors(v));
        }
        affected.sort_unstable();
        affected.dedup();
        for &i in &affected {
            let outgoing: f64 = new_graph
                .neighbors_with_edges(i)
                .map(|(_, e)| alphas[e] / self.speeds[i])
                .sum();
            diagonal[i] = 1.0 - outgoing;
        }

        Ok(DiffusionMatrix {
            n: self.n,
            m: expected_m,
            alphas,
            speeds: self.speeds.clone(),
            diagonal,
            scheme: self.scheme,
        })
    }

    /// Number of nodes the matrix was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges the matrix was built for.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// The `α` scheme used at construction.
    pub fn scheme(&self) -> AlphaScheme {
        self.scheme
    }

    /// The symmetric weight `α_e` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn alpha(&self, e: EdgeId) -> f64 {
        self.alphas[e]
    }

    /// All per-edge `α` values, indexed by [`EdgeId`].
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Node speeds captured at construction.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The diagonal entry `P[i][i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn diagonal(&self, i: NodeId) -> f64 {
        self.diagonal[i]
    }

    /// The off-diagonal entry `P[i][j] = α[i][j] / s_i` for an adjacent pair,
    /// or 0.0 for non-adjacent distinct nodes, or the diagonal for `i == j`.
    pub fn entry(&self, graph: &Graph, i: NodeId, j: NodeId) -> f64 {
        self.debug_check(graph);
        if i == j {
            return self.diagonal[i];
        }
        match graph.edge_between(i, j) {
            Some(e) => self.alphas[e] / self.speeds[i],
            None => 0.0,
        }
    }

    /// Computes the row-vector product `x · P`, i.e. one synchronous step of
    /// the continuous first-order diffusion on load vector `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the node count.
    pub fn apply(&self, graph: &Graph, x: &[f64]) -> Vec<f64> {
        self.debug_check(graph);
        assert_eq!(x.len(), self.n, "load vector length must equal node count");
        let mut out = vec![0.0; self.n];
        for i in 0..self.n {
            out[i] += x[i] * self.diagonal[i];
        }
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            let a = self.alphas[e];
            // Mass flowing u -> v and v -> u.
            out[v] += x[u] * a / self.speeds[u];
            out[u] += x[v] * a / self.speeds[v];
        }
        out
    }

    /// Verifies that `P` is row-stochastic with non-negative entries, within
    /// floating-point tolerance. Mostly used by tests and debug assertions.
    pub fn is_stochastic(&self, graph: &Graph, tol: f64) -> bool {
        self.debug_check(graph);
        for i in 0..self.n {
            if self.diagonal[i] < -tol {
                return false;
            }
            let row_sum: f64 = self.diagonal[i]
                + graph
                    .neighbors_with_edges(i)
                    .map(|(_, e)| self.alphas[e] / self.speeds[i])
                    .sum::<f64>();
            if (row_sum - 1.0).abs() > tol {
                return false;
            }
        }
        true
    }

    /// Debug-asserts that `graph` has the node and edge counts this matrix
    /// was built for.
    pub(crate) fn debug_check(&self, graph: &Graph) {
        debug_assert_eq!(
            graph.node_count(),
            self.n,
            "graph/matrix node count mismatch"
        );
        debug_assert_eq!(
            graph.edge_count(),
            self.m,
            "graph/matrix edge count mismatch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn uniform_cycle_matrix_is_stochastic() {
        let g = generators::cycle(6).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert!(p.is_stochastic(&g, 1e-12));
        // Every edge weight is 1/(2+1).
        for e in 0..g.edge_count() {
            assert!((p.alpha(e) - 1.0 / 3.0).abs() < 1e-12);
        }
        assert!((p.diagonal(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_scheme_has_large_diagonal() {
        let g = generators::cycle(6).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::Lazy).unwrap();
        for i in g.nodes() {
            assert!(p.diagonal(i) >= 0.5 - 1e-12);
        }
    }

    #[test]
    fn speeds_scale_rows_but_keep_alpha_symmetric() {
        let g = generators::path(3).unwrap();
        let speeds = vec![1.0, 2.0, 4.0];
        let p = DiffusionMatrix::new(&g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert!(p.is_stochastic(&g, 1e-12));
        // Entry is alpha / s_i, so it differs per direction while alpha is shared.
        let e01 = g.edge_between(0, 1).unwrap();
        assert!((p.entry(&g, 0, 1) - p.alpha(e01) / 1.0).abs() < 1e-12);
        assert!((p.entry(&g, 1, 0) - p.alpha(e01) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn apply_conserves_total_load() {
        let g = generators::hypercube(4).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut x: Vec<f64> = (0..g.node_count()).map(|i| (i % 7) as f64).collect();
        let total: f64 = x.iter().sum();
        for _ in 0..50 {
            x = p.apply(&g, &x);
        }
        assert!((x.iter().sum::<f64>() - total).abs() < 1e-6);
    }

    #[test]
    fn apply_converges_to_speed_proportional_fixed_point() {
        let g = generators::complete(4).unwrap();
        let speeds = vec![1.0, 1.0, 2.0, 4.0];
        let p = DiffusionMatrix::new(&g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut x = vec![8.0, 0.0, 0.0, 0.0];
        for _ in 0..500 {
            x = p.apply(&g, &x);
        }
        let total_speed: f64 = speeds.iter().sum();
        for i in 0..4 {
            let expected = 8.0 * speeds[i] / total_speed;
            assert!(
                (x[i] - expected).abs() < 1e-6,
                "node {i}: {x:?} vs expected {expected}"
            );
        }
    }

    #[test]
    fn entry_of_non_adjacent_nodes_is_zero() {
        let g = generators::path(4).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert_eq!(p.entry(&g, 0, 3), 0.0);
    }

    #[test]
    fn rejects_bad_speeds() {
        let g = generators::cycle(4).unwrap();
        assert!(DiffusionMatrix::new(&g, &[1.0; 3], AlphaScheme::MaxDegreePlusOne).is_err());
        assert!(
            DiffusionMatrix::new(&g, &[1.0, 0.0, 1.0, 1.0], AlphaScheme::MaxDegreePlusOne).is_err()
        );
        assert!(
            DiffusionMatrix::new(&g, &[1.0, -2.0, 1.0, 1.0], AlphaScheme::MaxDegreePlusOne)
                .is_err()
        );
        assert!(DiffusionMatrix::new(
            &g,
            &[1.0, f64::NAN, 1.0, 1.0],
            AlphaScheme::MaxDegreePlusOne
        )
        .is_err());
    }

    #[test]
    fn patched_matrix_is_bit_identical_to_fresh_build() {
        let old = generators::hypercube(4).unwrap();
        // Heterogeneous speeds so alpha actually depends on both endpoints.
        let speeds: Vec<f64> = (0..old.node_count())
            .map(|i| 1.0 + (i % 5) as f64 * 0.5)
            .collect();
        let p = DiffusionMatrix::new(&old, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();

        // Rewire: drop two hypercube edges, add two chords.
        let delta = GraphDelta::new(old.node_count(), [(0, 5), (3, 12)], [(0, 1), (2, 6)]).unwrap();
        assert_eq!(delta.removed, vec![(0, 1), (2, 6)]);
        assert_eq!(delta.added, vec![(0, 5), (3, 12)]);
        let new = old.apply_delta(&delta).unwrap();
        let patched = p.patched(&old, &new, &delta).unwrap();
        let fresh = DiffusionMatrix::new(&new, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();

        assert_eq!(patched.edge_count(), fresh.edge_count());
        for e in 0..fresh.edge_count() {
            assert_eq!(
                patched.alpha(e).to_bits(),
                fresh.alpha(e).to_bits(),
                "alpha mismatch at edge {e}"
            );
        }
        for i in new.nodes() {
            assert_eq!(
                patched.diagonal(i).to_bits(),
                fresh.diagonal(i).to_bits(),
                "diagonal mismatch at node {i}"
            );
        }
        assert!(patched.is_stochastic(&new, 1e-12));
    }

    #[test]
    fn patched_with_empty_delta_is_bit_identical_copy() {
        let g = generators::cycle(8).unwrap();
        let speeds: Vec<f64> = (0..8).map(|i| 1.0 + i as f64 * 0.25).collect();
        let p = DiffusionMatrix::new(&g, &speeds, AlphaScheme::Lazy).unwrap();
        let patched = p.patched(&g, &g, &GraphDelta::default()).unwrap();
        for e in 0..g.edge_count() {
            assert_eq!(patched.alpha(e).to_bits(), p.alpha(e).to_bits());
        }
        for i in g.nodes() {
            assert_eq!(patched.diagonal(i).to_bits(), p.diagonal(i).to_bits());
        }
    }

    #[test]
    fn patched_rejects_inconsistent_delta() {
        let g = generators::cycle(6).unwrap();
        let other = generators::path(6).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        // Empty delta cannot connect cycle(6) to path(6) (edge counts differ).
        assert!(p.patched(&g, &other, &GraphDelta::default()).is_err());
        // Node-count mismatch is rejected.
        let bigger = generators::cycle(8).unwrap();
        assert!(p.patched(&g, &bigger, &GraphDelta::default()).is_err());
    }

    #[test]
    fn star_alpha_uses_max_degree() {
        let g = generators::star(5).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        // Centre has degree 4, leaves degree 1 => alpha = 1/5 for every edge.
        for e in 0..g.edge_count() {
            assert!((p.alpha(e) - 0.2).abs() < 1e-12);
        }
        assert!(p.is_stochastic(&g, 1e-12));
    }
}
