//! Spectral quantities used in convergence-time estimates.
//!
//! The continuous first-order diffusion balances in
//! `T = O(log(K·n) / (1 − λ))` rounds, where `λ` is the second-largest
//! eigenvalue (in absolute value) of the diffusion matrix `P`, and the
//! random-matching process balances in `O(d · log(K·n) / γ)` rounds, where
//! `γ` is the second-smallest eigenvalue of the graph Laplacian. This module
//! computes `λ` and `γ` with deflated power iteration — no external linear
//! algebra dependency is required at the experiment scales used here.

use crate::graph::Graph;
use crate::matrix::DiffusionMatrix;

/// Options controlling the power-iteration routines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerIterationOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the eigenvalue estimate between iterations.
    pub tolerance: f64,
}

impl Default for PowerIterationOptions {
    fn default() -> Self {
        PowerIterationOptions {
            max_iterations: 20_000,
            tolerance: 1e-10,
        }
    }
}

/// Estimates `λ`, the second-largest eigenvalue *in absolute value* of the
/// diffusion matrix `P`.
///
/// The matrix `P` with heterogeneous speeds is similar to the symmetric
/// matrix `M[i][j] = α[i][j] / √(s_i · s_j)` (with the same diagonal), whose
/// top eigenvector is `(√s_1, …, √s_n)` with eigenvalue 1. We deflate that
/// eigenvector and run power iteration on `M²` (so that eigenvalues `±λ` of
/// equal magnitude — e.g. on bipartite graphs — do not cause oscillation);
/// the dominant value of the deflated `M²` is `λ²`.
///
/// Returns a value in `[0, 1]` (clamped against round-off).
///
/// Each iteration applies `M` twice: the Rayleigh step of one iteration is
/// the next iteration's power step, so it is carried over instead of being
/// recomputed. The per-edge couplings are computed once, and three `n`-long
/// buffers rotate through the loop. The float operations and their order
/// are those of the textbook loop, so the result is bit-for-bit
/// reproducible (the tests pin it against that loop).
///
/// # Panics
///
/// Panics if the matrix was built for a different graph (debug builds) or the
/// graph is empty.
pub fn second_eigenvalue(
    graph: &Graph,
    matrix: &DiffusionMatrix,
    options: PowerIterationOptions,
) -> f64 {
    matrix.debug_check(graph);
    let n = graph.node_count();
    assert!(n > 0, "second_eigenvalue requires a non-empty graph");
    if n == 1 {
        return 0.0;
    }
    let speeds = matrix.speeds();
    // Top eigenvector of the symmetrised matrix, normalised.
    let mut top: Vec<f64> = speeds.iter().map(|s| s.sqrt()).collect();
    normalize(&mut top);

    // Off-diagonal entries of the symmetrised matrix, one per edge.
    let edges = graph.edges();
    let couplings: Vec<f64> = edges
        .iter()
        .zip(matrix.alphas())
        .map(|(&(u, w), &alpha)| alpha / (speeds[u] * speeds[w]).sqrt())
        .collect();
    // Multiply the symmetrised matrix by `v` into `out`.
    let sym_apply = |v: &[f64], out: &mut [f64]| {
        for (i, (o, &x)) in out.iter_mut().zip(v).enumerate() {
            // `0.0 +` is the `+=` onto a zeroed buffer it replaces: it
            // turns a -0.0 product into +0.0, so keep it for bit-identity.
            *o = 0.0 + matrix.diagonal(i) * x;
        }
        for (&(u, w), &coupling) in edges.iter().zip(&couplings) {
            out[u] += coupling * v[w];
            out[w] += coupling * v[u];
        }
    };
    // One iteration step: apply M twice and project away the top eigenvector.
    let step = |v: &[f64], scratch: &mut [f64], out: &mut [f64]| {
        sym_apply(v, scratch);
        sym_apply(scratch, out);
        deflate(out, &top);
    };

    // Deterministic, generic start vector; deflation removes the top
    // component before iterating.
    let mut v: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 0.754_877_666 + 0.1).sin())
        .collect();
    deflate(&mut v, &top);
    normalize(&mut v);

    let mut scratch = vec![0.0; n];
    let mut next = vec![0.0; n];
    step(&v, &mut scratch, &mut next);
    let mut estimate_sq = 0.0;
    for _ in 0..options.max_iterations {
        // `next` holds step(v).
        let norm = l2_norm(&next);
        if norm < 1e-15 {
            // The deflated spectrum is numerically zero.
            return 0.0;
        }
        for x in &mut next {
            *x /= norm;
        }
        // `v` is spent: it receives step(next), which is both this
        // iteration's Rayleigh step and the next iteration's power step.
        step(&next, &mut scratch, &mut v);
        // Rayleigh quotient of M^2 at the current unit vector: converges to
        // lambda^2 monotonically from below for power iteration.
        let rayleigh_sq: f64 = dot(&next, &v).max(0.0);
        if (rayleigh_sq - estimate_sq).abs() < options.tolerance {
            return rayleigh_sq.sqrt().clamp(0.0, 1.0);
        }
        estimate_sq = rayleigh_sq;
        std::mem::swap(&mut v, &mut next);
    }
    estimate_sq.sqrt().clamp(0.0, 1.0)
}

/// Estimates `γ`, the second-smallest eigenvalue of the graph Laplacian
/// `L = D − A` (the algebraic connectivity).
///
/// Uses power iteration on `c·I − L` with `c = 2·d_max + 1 ≥ λ_max(L)`,
/// deflating the all-ones vector (the eigenvector of `L` for eigenvalue 0).
/// The dominant eigenvalue of the deflated operator is `c − γ`. As in
/// [`second_eigenvalue`], the Rayleigh product of one iteration is carried
/// over as the next iteration's power product (bit-identical to recomputing
/// it), and two `n`-long buffers rotate through the loop.
///
/// Returns 0.0 for disconnected graphs (up to numerical tolerance).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn laplacian_gap(graph: &Graph, options: PowerIterationOptions) -> f64 {
    let n = graph.node_count();
    assert!(n > 0, "laplacian_gap requires a non-empty graph");
    if n == 1 {
        return 0.0;
    }
    let c = 2.0 * graph.max_degree() as f64 + 1.0;
    let ones = {
        let mut v = vec![1.0; n];
        normalize(&mut v);
        v
    };
    let apply = |v: &[f64], out: &mut [f64]| {
        // (c I - L) v = c v - D v + A v
        for (i, (o, &x)) in out.iter_mut().zip(v).enumerate() {
            *o = (c - graph.degree(i) as f64) * x;
        }
        for &(u, w) in graph.edges() {
            out[u] += v[w];
            out[w] += v[u];
        }
    };
    let mut v: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 1.234_567 + 0.37).cos())
        .collect();
    deflate(&mut v, &ones);
    normalize(&mut v);
    let mut next = vec![0.0; n];
    apply(&v, &mut next);
    let mut estimate = 0.0;
    for _ in 0..options.max_iterations {
        // `next` holds apply(v), not yet deflated.
        deflate(&mut next, &ones);
        let norm = l2_norm(&next);
        if norm < 1e-300 {
            return c;
        }
        for x in &mut next {
            *x /= norm;
        }
        // `v` is spent: it receives apply(next), this iteration's Rayleigh
        // product and the next iteration's power product.
        apply(&next, &mut v);
        let rayleigh = dot(&next, &v);
        if (rayleigh - estimate).abs() < options.tolerance {
            return (c - rayleigh).max(0.0);
        }
        estimate = rayleigh;
        std::mem::swap(&mut v, &mut next);
    }
    (c - estimate).max(0.0)
}

/// Estimated balancing time of continuous FOS: `⌈log(K·n) / (1 − λ)⌉`, where
/// `K` is the initial discrepancy. Returns at least 1.
///
/// This is the quantity `T` used throughout the paper; the engine uses it as
/// a default horizon when an explicit round budget is not given.
pub fn estimate_fos_balancing_time(lambda: f64, initial_discrepancy: f64, n: usize) -> usize {
    let lambda = lambda.clamp(0.0, 1.0 - 1e-9);
    let k = initial_discrepancy.max(1.0);
    let t = ((k * n as f64).ln() / (1.0 - lambda)).ceil();
    (t as usize).max(1)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn l2_norm(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

fn normalize(v: &mut [f64]) {
    let norm = l2_norm(v);
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Removes the component of `v` along the (unit-norm) direction `dir`.
fn deflate(v: &mut [f64], dir: &[f64]) {
    let proj = dot(v, dir);
    for (x, d) in v.iter_mut().zip(dir) {
        *x -= proj * d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::matrix::AlphaScheme;

    fn lambda_of(graph: &Graph) -> f64 {
        let p = DiffusionMatrix::uniform(graph, AlphaScheme::MaxDegreePlusOne).unwrap();
        second_eigenvalue(graph, &p, PowerIterationOptions::default())
    }

    #[test]
    fn complete_graph_lambda_matches_closed_form() {
        // For K_n with alpha = 1/n, P = (1 - (n-1)/n) I + (1/n) (J - I)
        // = (1/n) J, except diagonal: P_ii = 1/n. So P = J/n and the spectrum
        // is {1, 0, ..., 0}: lambda = 0.
        let g = generators::complete(8).unwrap();
        let lambda = lambda_of(&g);
        assert!(lambda.abs() < 1e-6, "lambda = {lambda}");
    }

    #[test]
    fn cycle_lambda_matches_closed_form() {
        // Cycle C_n with alpha = 1/3: P = I/3 + A/3, eigenvalues
        // (1 + 2cos(2 pi k / n)) / 3; second largest magnitude is
        // (1 + 2cos(2 pi / n)) / 3 for odd n (no -1 issue).
        let n = 9;
        let g = generators::cycle(n).unwrap();
        let lambda = lambda_of(&g);
        let expected = (1.0 + 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos()) / 3.0;
        assert!(
            (lambda - expected).abs() < 1e-6,
            "lambda = {lambda}, expected {expected}"
        );
    }

    #[test]
    fn even_cycle_negative_branch_is_captured() {
        // For even cycles the most negative eigenvalue is (1 - 2)/3 = -1/3,
        // but the second largest positive one dominates in magnitude, so the
        // result is the same closed form as above.
        let n = 12;
        let g = generators::cycle(n).unwrap();
        let lambda = lambda_of(&g);
        let expected = (1.0 + 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos()) / 3.0;
        assert!((lambda - expected).abs() < 1e-6);
    }

    #[test]
    fn hypercube_lambda_closed_form() {
        // Hypercube Q_d with alpha = 1/(d+1): eigenvalues are
        // 1 - 2k/(d+1) for k = 0..d; the second-largest magnitude is
        // 1 - 2/(d+1).
        let d = 5u32;
        let g = generators::hypercube(d).unwrap();
        let lambda = lambda_of(&g);
        let expected = 1.0 - 2.0 / (d as f64 + 1.0);
        assert!(
            (lambda - expected).abs() < 1e-6,
            "lambda = {lambda}, expected {expected}"
        );
    }

    #[test]
    fn lambda_is_smaller_for_better_expanders() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let expander = generators::random_regular(64, 6, &mut rng).unwrap();
        let ring = generators::cycle(64).unwrap();
        assert!(lambda_of(&expander) < lambda_of(&ring));
    }

    #[test]
    fn laplacian_gap_cycle_closed_form() {
        // gamma(C_n) = 2 - 2 cos(2 pi / n)
        let n = 10;
        let g = generators::cycle(n).unwrap();
        let gamma = laplacian_gap(&g, PowerIterationOptions::default());
        let expected = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!(
            (gamma - expected).abs() < 1e-6,
            "gamma = {gamma}, expected {expected}"
        );
    }

    #[test]
    fn laplacian_gap_complete_graph() {
        // gamma(K_n) = n
        let g = generators::complete(7).unwrap();
        let gamma = laplacian_gap(&g, PowerIterationOptions::default());
        assert!((gamma - 7.0).abs() < 1e-6, "gamma = {gamma}");
    }

    #[test]
    fn laplacian_gap_barbell_is_small() {
        let barbell = generators::barbell(8, 2).unwrap();
        let expander = generators::complete(18).unwrap();
        let g1 = laplacian_gap(&barbell, PowerIterationOptions::default());
        let g2 = laplacian_gap(&expander, PowerIterationOptions::default());
        assert!(g1 < g2 / 10.0, "barbell gap {g1} vs complete gap {g2}");
    }

    #[test]
    fn balancing_time_estimate_is_monotone_in_lambda() {
        let t_fast = estimate_fos_balancing_time(0.5, 100.0, 64);
        let t_slow = estimate_fos_balancing_time(0.99, 100.0, 64);
        assert!(t_slow > t_fast);
        assert!(estimate_fos_balancing_time(0.0, 1.0, 1) >= 1);
    }

    /// The textbook loop `second_eigenvalue` replaced: four M-applications
    /// per iteration, couplings recomputed per edge, fresh vectors per
    /// step. Kept to pin the fast loop bit for bit.
    fn second_eigenvalue_reference(
        graph: &Graph,
        matrix: &DiffusionMatrix,
        options: PowerIterationOptions,
    ) -> f64 {
        let n = graph.node_count();
        if n == 1 {
            return 0.0;
        }
        let speeds = matrix.speeds();
        let mut top: Vec<f64> = speeds.iter().map(|s| s.sqrt()).collect();
        normalize(&mut top);
        let sym_apply = |v: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; n];
            for i in 0..n {
                out[i] += matrix.diagonal(i) * v[i];
            }
            for (e, &(u, w)) in graph.edges().iter().enumerate() {
                let coupling = matrix.alpha(e) / (speeds[u] * speeds[w]).sqrt();
                out[u] += coupling * v[w];
                out[w] += coupling * v[u];
            }
            out
        };
        let step = |v: &[f64]| -> Vec<f64> {
            let mut out = sym_apply(&sym_apply(v));
            deflate(&mut out, &top);
            out
        };
        let mut v: Vec<f64> = (0..n)
            .map(|i| ((i as f64) * 0.754_877_666 + 0.1).sin())
            .collect();
        deflate(&mut v, &top);
        normalize(&mut v);
        let mut estimate_sq = 0.0;
        for _ in 0..options.max_iterations {
            let mut next = step(&v);
            let norm = l2_norm(&next);
            if norm < 1e-15 {
                return 0.0;
            }
            for x in &mut next {
                *x /= norm;
            }
            let rayleigh_sq: f64 = dot(&next, &step(&next)).max(0.0);
            if (rayleigh_sq - estimate_sq).abs() < options.tolerance {
                return rayleigh_sq.sqrt().clamp(0.0, 1.0);
            }
            estimate_sq = rayleigh_sq;
            v = next;
        }
        estimate_sq.sqrt().clamp(0.0, 1.0)
    }

    /// The textbook loop `laplacian_gap` replaced: two applications per
    /// iteration and fresh vectors per application.
    fn laplacian_gap_reference(graph: &Graph, options: PowerIterationOptions) -> f64 {
        let n = graph.node_count();
        if n == 1 {
            return 0.0;
        }
        let c = 2.0 * graph.max_degree() as f64 + 1.0;
        let ones = {
            let mut v = vec![1.0; n];
            normalize(&mut v);
            v
        };
        let apply = |v: &[f64]| -> Vec<f64> {
            let mut out: Vec<f64> = (0..n)
                .map(|i| (c - graph.degree(i) as f64) * v[i])
                .collect();
            for &(u, w) in graph.edges() {
                out[u] += v[w];
                out[w] += v[u];
            }
            out
        };
        let mut v: Vec<f64> = (0..n)
            .map(|i| ((i as f64) * 1.234_567 + 0.37).cos())
            .collect();
        deflate(&mut v, &ones);
        normalize(&mut v);
        let mut estimate = 0.0;
        for _ in 0..options.max_iterations {
            let mut next = apply(&v);
            deflate(&mut next, &ones);
            let norm = l2_norm(&next);
            if norm < 1e-300 {
                return c;
            }
            for x in &mut next {
                *x /= norm;
            }
            let rayleigh = dot(&next, &apply(&next));
            if (rayleigh - estimate).abs() < options.tolerance {
                return (c - rayleigh).max(0.0);
            }
            estimate = rayleigh;
            v = next;
        }
        (c - estimate).max(0.0)
    }

    /// Asserts both estimators equal their reference loops bit for bit, for
    /// iteration caps 0, 1, 3 and `cap`.
    fn assert_matches_reference(label: &str, graph: &Graph, matrix: &DiffusionMatrix, cap: usize) {
        for max_iterations in [0, 1, 3, cap] {
            let options = PowerIterationOptions {
                max_iterations,
                ..PowerIterationOptions::default()
            };
            let fast = second_eigenvalue(graph, matrix, options);
            let reference = second_eigenvalue_reference(graph, matrix, options);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "{label}, cap {max_iterations}: lambda {fast} vs reference {reference}"
            );
            let fast = laplacian_gap(graph, options);
            let reference = laplacian_gap_reference(graph, options);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "{label}, cap {max_iterations}: gamma {fast} vs reference {reference}"
            );
        }
    }

    #[test]
    fn estimates_are_bit_identical_to_the_reference_loops() {
        use crate::graph::GraphDelta;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let uniform =
            |g: &Graph| DiffusionMatrix::uniform(g, AlphaScheme::MaxDegreePlusOne).unwrap();
        // The default cap: every loop runs to its tolerance exit.
        let converge = PowerIterationOptions::default().max_iterations;

        let cube = generators::hypercube(10).unwrap();
        let cube_matrix = uniform(&cube);
        assert_matches_reference("hypercube(10)", &cube, &cube_matrix, converge);
        // The benchmark workload's churn: rewire node 0 from 1 to 3. It
        // splits Q_10's 10-fold second eigenvalue into a cluster that takes
        // ~14k iterations to settle, so 300 pin the trajectory instead.
        let delta = GraphDelta::new(cube.node_count(), [(0, 3)], [(0, 1)]).unwrap();
        let patched = cube.apply_delta(&delta).unwrap();
        let patched_matrix = cube_matrix.patched(&cube, &patched, &delta).unwrap();
        assert_matches_reference("hypercube(10) + delta", &patched, &patched_matrix, 300);

        for n in [12, 9] {
            let cycle = generators::cycle(n).unwrap();
            let label = format!("cycle({n})");
            assert_matches_reference(&label, &cycle, &uniform(&cycle), converge);
        }
        let torus = generators::torus(8, 8).unwrap();
        assert_matches_reference("torus(8, 8)", &torus, &uniform(&torus), converge);

        let mut rng = StdRng::seed_from_u64(5);
        let expander = generators::random_regular(256, 6, &mut rng).unwrap();
        let speeds: Vec<f64> = (0..256)
            .map(|i| f64::from(1 << (i % 4)) * 0.75 + 0.5)
            .collect();
        let hetero =
            DiffusionMatrix::new(&expander, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let label = "random_regular(256, 6), heterogeneous";
        assert_matches_reference(label, &expander, &hetero, converge);

        // K_8's deflated spectrum is zero: the `norm < 1e-15` exit.
        let complete = generators::complete(8).unwrap();
        assert_matches_reference("complete(8)", &complete, &uniform(&complete), converge);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "edge count mismatch")]
    fn matrix_for_another_graph_panics_in_debug_builds() {
        // Same node count, one edge fewer: nothing is indexed out of range,
        // so only the entry check can catch the mismatch.
        let cycle = generators::cycle(8).unwrap();
        let matrix = DiffusionMatrix::uniform(&cycle, AlphaScheme::MaxDegreePlusOne).unwrap();
        let path = generators::path(8).unwrap();
        second_eigenvalue(&path, &matrix, PowerIterationOptions::default());
    }

    #[test]
    fn single_node_graph_is_degenerate() {
        let g = Graph::from_edges(1, []).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert_eq!(
            second_eigenvalue(&g, &p, PowerIterationOptions::default()),
            0.0
        );
        assert_eq!(laplacian_gap(&g, PowerIterationOptions::default()), 0.0);
    }
}
