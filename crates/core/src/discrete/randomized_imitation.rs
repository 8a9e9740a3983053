//! Algorithm 2 — randomized flow imitation (identical tasks).
//!
//! Like Algorithm 1, the discrete process tracks the cumulative continuous
//! flow of a twin process, but the per-edge flow deficit
//! `Ŷ_e(t) = f^A_e(t) − F^D_e(t−1)` is rounded *randomly*: up with
//! probability equal to its fractional part, down otherwise. Only unit-weight
//! tokens are supported.
//!
//! Each rounding decision draws from an independent sub-RNG derived from the
//! master seed and the `(round, edge)` coordinates
//! ([`edge_rounding_rng`]) rather than consuming one sequential stream.
//! The rounding indicators stay independent across edges and rounds (all the
//! Chernoff-style analysis of Theorem 8 needs), every trajectory remains
//! deterministic per seed, and — because no draw depends on how many draws
//! other edges made — sharded execution
//! ([`RandomizedImitation::step_sharded`]) is bit-identical to sequential
//! execution for every shard count.
//!
//! Guarantees (Theorem 8): at the continuous balancing time the max-avg
//! discrepancy is `d/4 + O(√(d·log n))` w.h.p.; with initial load at least
//! `(d/4 + Θ(√(d·log n)))·s_i` per node the max-min discrepancy is
//! `O(√(d·log n))` w.h.p.

use super::imitation::{Forwarded, Held, Imitation, Rule, Sent};
use crate::continuous::ContinuousProcess;
use crate::error::CoreError;
use crate::load::InitialLoad;
use crate::task::{Speeds, Task};
use lb_graph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The sub-RNG deciding whether edge `edge`'s fractional deficit rounds up
/// in round `round`, derived from the master `seed` the same way the
/// scenario stream derives its sub-seeds: a SplitMix-style combination of
/// the coordinates feeding the seeding expansion.
///
/// Deriving per `(round, edge)` instead of consuming one stream edge-by-edge
/// makes the draw independent of every other edge's draw, which is what lets
/// shard workers round their edges concurrently while staying bit-identical
/// to the sequential engine for any shard count.
pub fn edge_rounding_rng(seed: u64, round: usize, edge: usize) -> StdRng {
    let mixed = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (edge as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    StdRng::seed_from_u64(mixed)
}

/// Algorithm 2: the randomized flow-imitation discretization of a continuous
/// process `A`, for identical (unit-weight) tasks.
///
/// # Examples
///
/// ```
/// use lb_core::continuous::Fos;
/// use lb_core::discrete::{DiscreteBalancer, RandomizedImitation};
/// use lb_core::{InitialLoad, Speeds};
/// use lb_graph::{generators, AlphaScheme};
///
/// let g = generators::torus(4, 4)?;
/// let speeds = Speeds::uniform(16);
/// let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// // Give every node enough initial load for the max-min guarantee.
/// let mut counts = vec![8u64; 16];
/// counts[0] += 320;
/// let initial = InitialLoad::from_token_counts(counts);
/// let mut alg2 = RandomizedImitation::new(fos, &initial, speeds, 42)?;
/// alg2.run(300);
/// assert!(alg2.metrics().max_min < 16.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type RandomizedImitation<A> = Imitation<A, Alg2>;

/// Algorithm 2's rule state: the master seed and the sequential round's
/// dense per-node delivery buffer.
#[derive(Debug, Clone)]
pub struct Alg2 {
    /// Master seed; every rounding decision derives its own sub-RNG from it
    /// (see [`edge_rounding_rng`]).
    seed: u64,
    /// Reused per-round scratch: pending real-token deliveries per node,
    /// zero between rounds.
    pending_real: Vec<u64>,
}

impl<A: ContinuousProcess> RandomizedImitation<A> {
    /// Creates the randomized discretization of `process` starting from
    /// `initial`, with an explicit RNG `seed` for reproducibility.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the initial load contains
    /// non-unit task weights or the node counts of process, load and speeds
    /// disagree.
    pub fn new(
        process: A,
        initial: &InitialLoad,
        speeds: Speeds,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if !initial.is_unit_weight() {
            return Err(CoreError::invalid_parameter(
                "randomized flow imitation (Algorithm 2) requires unit-weight tasks",
            ));
        }
        let pending_real = vec![0; initial.node_count()];
        let rule = Alg2 { seed, pending_real };
        Imitation::build(process, initial, speeds, initial.load_vector(), rule)
    }

    /// Captures the engine's full state at a between-rounds boundary for a
    /// snapshot. The rounding RNG needs no serialization: every decision
    /// derives a fresh sub-RNG from `(seed, round, edge)`
    /// ([`edge_rounding_rng`]), so the seed and round counter are its full
    /// derivation inputs. Event-time only — allocates freely.
    pub fn capture(&self) -> crate::snapshot::EngineState {
        crate::snapshot::EngineState {
            round: self.round as u64,
            twin: self.twin.capture(),
            discrete: crate::snapshot::DiscreteState::Alg2(crate::snapshot::Alg2State {
                tokens: self.items.clone(),
                dummy: self.dummy.clone(),
                discrete_flow: self.ledger.clone(),
                seed: self.rule.seed,
                dummy_created: self.dummy_created,
                arrived_weight: self.arrived_weight,
                completed_weight: self.completed_weight,
            }),
        }
    }

    /// Restores state captured by [`capture`](RandomizedImitation::capture)
    /// into an engine freshly built on the snapshot's topology epoch. The
    /// master seed is validated: a snapshot from a differently seeded run is
    /// stale and rejected instead of silently diverging.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Mismatch`](crate::snapshot::SnapshotError)
    /// if the snapshot belongs to Algorithm 1, does not fit the graph, or
    /// was captured under a different master seed.
    pub fn restore(
        &mut self,
        state: &crate::snapshot::EngineState,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::{DiscreteState, SnapshotError};
        let DiscreteState::Alg2(alg2) = &state.discrete else {
            return Err(SnapshotError::mismatch(
                "snapshot carries Algorithm 1 state but the engine runs Algorithm 2",
            ));
        };
        if alg2.seed != self.rule.seed {
            return Err(SnapshotError::mismatch(format!(
                "snapshot rounding seed {} differs from the run's seed {} (stale snapshot?)",
                alg2.seed, self.rule.seed
            )));
        }
        let counters = [
            alg2.dummy_created,
            alg2.arrived_weight,
            alg2.completed_weight,
        ];
        let nodes = alg2.tokens.len();
        self.restore_shared(state, nodes, &alg2.dummy, &alg2.discrete_flow, counters)?;
        self.items.copy_from_slice(&alg2.tokens);
        Ok(())
    }
}

impl Rule for Alg2 {
    type Item = u64;
    type Params = (u64, usize);
    const TAG: &'static str = "alg2";

    fn params(&self, round: usize) -> (u64, usize) {
        (self.seed, round)
    }

    /// Round the deficit up with probability equal to its fractional part,
    /// drawn from the edge's own `(seed, round, edge)` sub-RNG, and send that
    /// many tokens.
    // lint: zero-alloc
    #[inline(always)]
    fn forward(
        (seed, round): (u64, usize),
        edges: impl Iterator<Item = EdgeId>,
        held: Held<'_, u64>,
        edge: impl Fn(EdgeId) -> (NodeId, NodeId, f64),
        mut emit: impl FnMut(EdgeId, NodeId, Sent),
    ) -> Forwarded {
        use rand::Rng;
        let mut sent = Forwarded::default();
        for e in edges {
            let (u, v, deficit) = edge(e);
            if deficit == 0.0 {
                continue;
            }
            let (sender, receiver, magnitude, sign) = if deficit > 0.0 {
                (u, v, deficit, 1i64)
            } else {
                (v, u, -deficit, -1i64)
            };
            // Exactly one owner holds the sender and processes this edge.
            let Some(k) = held.slot(sender) else {
                continue;
            };
            let floor = magnitude.floor();
            let fraction = magnitude - floor;
            let round_up =
                fraction > 0.0 && edge_rounding_rng(seed, round, e).gen_bool(fraction.min(1.0));
            let send = floor as u64 + u64::from(round_up);
            if send == 0 {
                continue;
            }
            // Prefer real tokens, then held dummies, then the infinite source.
            let real = send.min(held.items[k]);
            held.items[k] -= real;
            let dummy = send - real;
            let from_held = dummy.min(held.dummy[k]);
            held.dummy[k] -= from_held;
            sent.dummy_created += dummy - from_held;
            emit(e, receiver, Sent::Tokens(real, dummy));
            emit(e, receiver, Sent::Ledger(sign * send as i64));
        }
        sent
    }

    // lint: zero-alloc
    #[inline(always)]
    fn pend(&mut self, receiver: NodeId, sent: Sent, pending_dummy: &mut [u64]) {
        if let Sent::Tokens(real, dummy) = sent {
            self.pending_real[receiver] += real;
            pending_dummy[receiver] += dummy;
        }
    }

    // lint: zero-alloc
    fn land(&mut self, tokens: &mut [u64]) {
        for (held, pending) in tokens.iter_mut().zip(&mut self.pending_real) {
            *held += std::mem::take(pending);
        }
    }

    /// Algorithm 2 is defined for identical tasks only.
    fn admit(&mut self, task: Task) -> Result<(), CoreError> {
        if task.weight() != 1 {
            return Err(CoreError::invalid_parameter(
                "randomized flow imitation (Algorithm 2) accepts unit-weight arrivals only",
            ));
        }
        Ok(())
    }

    fn empty(&self) -> u64 {
        0
    }

    fn reset(&mut self, n: usize) {
        self.pending_real.clear();
        self.pending_real.resize(n, 0);
    }

    fn weight(tokens: &u64) -> u64 {
        *tokens
    }

    fn deliver(tokens: &mut u64, task: Task) {
        *tokens += task.weight();
    }

    fn adopt(tokens: &mut u64, orphan: u64) {
        *tokens += orphan;
    }

    /// Tokens are interchangeable, so a budget simply drains up to that many
    /// units.
    fn complete(tokens: &mut u64, budget: u64, mut drained: impl FnMut(u64, u64)) {
        let take = budget.min(*tokens);
        *tokens -= take;
        drained(take, take);
    }

    fn tokens(tokens: &mut [u64]) -> &mut [u64] {
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{DimensionExchange, Fos, RandomMatching};
    use crate::discrete::DiscreteBalancer;
    use crate::metrics;
    use lb_graph::{generators, AlphaScheme, Graph};

    fn fos_on(graph: Graph, speeds: &Speeds) -> Fos {
        Fos::new(graph, speeds, AlphaScheme::MaxDegreePlusOne).unwrap()
    }

    /// Builds an initial load with `base` tokens everywhere plus `extra` on
    /// node 0.
    fn padded_load(n: usize, base: u64, extra: u64) -> InitialLoad {
        let mut counts = vec![base; n];
        counts[0] += extra;
        InitialLoad::from_token_counts(counts)
    }

    #[test]
    fn rejects_weighted_tasks() {
        use crate::task::{Task, TaskId};
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = fos_on(g, &speeds);
        let weighted =
            InitialLoad::from_tasks(vec![vec![Task::new(TaskId(0), 2)], vec![], vec![], vec![]]);
        assert!(RandomizedImitation::new(fos, &weighted, speeds, 1).is_err());
    }

    #[test]
    fn conserves_real_tokens() {
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = padded_load(16, 8, 160);
        let total = initial.total_weight() as f64;
        let mut alg2 =
            RandomizedImitation::new(fos_on(g, &speeds), &initial, speeds.clone(), 7).unwrap();
        alg2.run(200);
        assert!((alg2.real_loads().iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    fn flow_deviation_stays_below_one() {
        let g = generators::hypercube(4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = padded_load(16, 8, 320);
        let mut alg2 = RandomizedImitation::new(fos_on(g, &speeds), &initial, speeds, 11).unwrap();
        for _ in 0..200 {
            alg2.step();
            assert!(
                alg2.max_flow_deviation() < 1.0 + 1e-9,
                "per-edge deviation must stay below 1 (Observation 9(3))"
            );
        }
    }

    #[test]
    fn sufficient_load_avoids_infinite_source_whp() {
        // With d/4 + 2c·sqrt(d log n) ≈ a handful of tokens per node on a
        // degree-4 torus, the infinite source should not be touched.
        let g = generators::torus(6, 6).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let initial = padded_load(n, 10, 360);
        let mut alg2 =
            RandomizedImitation::new(fos_on(g, &speeds), &initial, speeds.clone(), 3).unwrap();
        alg2.run(1_000);
        assert_eq!(alg2.dummy_created(), 0);
        // Discrepancy is small (O(sqrt(d log n)) ≈ single digits).
        let max_min = metrics::max_min_discrepancy(&alg2.loads(), &speeds);
        assert!(max_min <= 12.0, "max_min = {max_min}");
    }

    #[test]
    fn determinism_per_seed_and_variation_across_seeds() {
        let mk = |seed| {
            let g = generators::torus(4, 4).unwrap();
            let speeds = Speeds::uniform(16);
            let initial = padded_load(16, 4, 100);
            RandomizedImitation::new(fos_on(g, &speeds), &initial, speeds, seed).unwrap()
        };
        let mut a = mk(5);
        let mut b = mk(5);
        let mut c = mk(6);
        a.run(50);
        b.run(50);
        c.run(50);
        assert_eq!(a.loads(), b.loads());
        // Different seeds should (almost surely) differ somewhere.
        assert_ne!(a.loads(), c.loads());
    }

    #[test]
    fn works_with_matching_processes() {
        let g = generators::hypercube(4).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let initial = padded_load(n, 8, 320);

        let de = DimensionExchange::with_greedy_coloring(g.clone(), &speeds).unwrap();
        let mut alg2_de = RandomizedImitation::new(de, &initial, speeds.clone(), 1).unwrap();
        alg2_de.run(1_000);
        assert!(metrics::max_min_discrepancy(&alg2_de.loads(), &speeds) <= 12.0);

        let rm = RandomMatching::new(g, &speeds, 99).unwrap();
        let mut alg2_rm = RandomizedImitation::new(rm, &initial, speeds.clone(), 2).unwrap();
        alg2_rm.run(2_000);
        assert!(metrics::max_min_discrepancy(&alg2_rm.loads(), &speeds) <= 12.0);
    }

    #[test]
    fn heterogeneous_speeds_balance_proportionally() {
        let g = generators::complete(4).unwrap();
        let speeds = Speeds::new(vec![1, 1, 2, 4]).unwrap();
        let initial = padded_load(4, 16, 800);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg2 = RandomizedImitation::new(fos, &initial, speeds.clone(), 13).unwrap();
        alg2.run(500);
        let loads = alg2.loads();
        assert!(loads[3] > loads[0], "fast node should carry more load");
        assert!(metrics::max_min_discrepancy(&loads, &speeds) <= 12.0);
    }

    #[test]
    fn mismatched_dimensions_rejected() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = fos_on(g, &speeds);
        let wrong_nodes = InitialLoad::single_source(5, 0, 10);
        assert!(RandomizedImitation::new(fos, &wrong_nodes, speeds.clone(), 0).is_err());

        let g = generators::cycle(4).unwrap();
        let fos = fos_on(g, &speeds);
        let initial = InitialLoad::single_source(4, 0, 10);
        assert!(RandomizedImitation::new(fos, &initial, Speeds::uniform(3), 0).is_err());
    }
}
