//! Algorithm 1 — deterministic flow imitation.
//!
//! The discrete process `D(A)` runs the continuous process `A` as a twin and,
//! over every edge and in every round, forwards whole tasks until the
//! cumulative discrete flow is within `w_max` of the cumulative continuous
//! flow `f^A_e(t)`. When a node runs out of tasks it draws unit-weight dummy
//! tokens from an attached infinite source (bookkept as a scalar amount, as
//! the paper's implementation note prescribes).
//!
//! Guarantees (Theorem 3): at the continuous balancing time the max-avg
//! discrepancy is at most `2·d·w_max + 2`; if every node starts with load at
//! least `d·w_max·s_i`, no dummy token is ever created and the same bound
//! holds for the max-min discrepancy.
//!
//! # Hot path
//!
//! The per-edge rule is one kernel ([`Rule::forward`] for [`Alg1`]) that the
//! sequential, sharded and federated rounds of the shared engine all call
//! (see [`super::imitation`]). Per-node storage is a [`TaskQueue`]: O(1)
//! FIFO pops and O(log k) heap pops instead of the O(k) scan + O(k)
//! `Vec::remove` of the seed implementation.

use super::imitation::{Forwarded, Held, Imitation, Rule, Sent};
use crate::continuous::ContinuousProcess;
use crate::error::CoreError;
use crate::load::InitialLoad;
use crate::task::{Speeds, Task, TaskQueue, Weight};
use lb_graph::{EdgeId, NodeId};

pub use crate::task::TaskPicker;

/// Algorithm 1: the deterministic flow-imitation discretization of a
/// continuous process `A`.
///
/// # Examples
///
/// ```
/// use lb_core::continuous::Fos;
/// use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
/// use lb_core::{InitialLoad, Speeds};
/// use lb_graph::{generators, AlphaScheme};
///
/// let g = generators::hypercube(3)?;
/// let speeds = Speeds::uniform(8);
/// let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// // Every node starts with d·w_max = 3 tokens (Theorem 3(2) condition),
/// // plus an imbalanced pile on node 0.
/// let mut counts = vec![3u64; 8];
/// counts[0] += 232;
/// let initial = InitialLoad::from_token_counts(counts);
/// let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo)?;
/// alg1.run(200);
/// // No dummy token was needed and the final max-min discrepancy is bounded
/// // by 2·d·w_max + 2 = 8.
/// assert_eq!(alg1.dummy_created(), 0);
/// assert!(alg1.metrics().max_min <= 8.0 + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type FlowImitation<A> = Imitation<A, Alg1>;

/// Algorithm 1's rule state: the imitation floor `w_max`, the task picker
/// and the sequential round's delivery buffer.
#[derive(Debug, Clone)]
pub struct Alg1 {
    wmax: Weight,
    picker: TaskPicker,
    /// Reused per-round scratch: pending real-task deliveries.
    pending_tasks: Vec<(NodeId, Task)>,
}

impl<A: ContinuousProcess> FlowImitation<A> {
    /// Creates the discretization of `process` starting from `initial`.
    ///
    /// The continuous twin starts from the same load vector, as the paper
    /// prescribes; the topology is shared with the twin (no graph clone).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the node counts of the
    /// process, the initial load and the speed vector disagree.
    pub fn new(
        process: A,
        initial: &InitialLoad,
        speeds: Speeds,
        picker: TaskPicker,
    ) -> Result<Self, CoreError> {
        let tasks = initial.clone().into_tasks().into_iter();
        let queues = tasks.map(|t| TaskQueue::with_tasks(picker, t)).collect();
        let rule = Alg1 {
            wmax: initial.max_weight(),
            picker,
            pending_tasks: Vec::new(),
        };
        Imitation::build(process, initial, speeds, queues, rule)
    }

    /// The maximum task weight `w_max` the discretization assumes.
    pub fn wmax(&self) -> Weight {
        self.rule.wmax
    }

    /// The task-picking policy in use.
    pub fn picker(&self) -> TaskPicker {
        self.rule.picker
    }

    /// Total items (real tasks and dummy units) sent over edges so far.
    pub fn items_sent(&self) -> u64 {
        self.items_sent
    }

    /// A snapshot of the tasks currently held by node `i` (dummy load not
    /// included), in unspecified order. Intended for inspection and tests.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tasks_of(&self, i: NodeId) -> Vec<Task> {
        self.items[i].iter().copied().collect()
    }

    /// Number of tasks currently held by node `i` (dummy load not included).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn task_count_of(&self, i: NodeId) -> usize {
        self.items[i].len()
    }

    /// Captures the engine's full state at a between-rounds boundary (the
    /// quiescent point: no deliveries pending) for a snapshot. Event-time
    /// only — allocates freely; rounds between checkpoints stay
    /// allocation-free.
    pub fn capture(&self) -> crate::snapshot::EngineState {
        let queues = self
            .items
            .iter()
            .map(|queue| {
                let (next_seq, entries) = queue.snapshot();
                crate::snapshot::QueueState { next_seq, entries }
            })
            .collect();
        crate::snapshot::EngineState {
            round: self.round as u64,
            twin: self.twin.capture(),
            discrete: crate::snapshot::DiscreteState::Alg1(crate::snapshot::Alg1State {
                queues,
                dummy: self.dummy.clone(),
                discrete_flow: self.ledger.clone(),
                wmax: self.rule.wmax,
                dummy_created: self.dummy_created,
                items_sent: self.items_sent,
                arrived_weight: self.arrived_weight,
                completed_weight: self.completed_weight,
            }),
        }
    }

    /// Restores state captured by [`capture`](FlowImitation::capture) into
    /// an engine freshly built on the snapshot's topology epoch (same graph,
    /// speeds and picker). After a successful restore the engine continues
    /// **bit-identically** to the uninterrupted run, at any shard count.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Mismatch`](crate::snapshot::SnapshotError)
    /// if the snapshot belongs to Algorithm 2, does not fit the graph, or
    /// carries corrupt queue sequence numbers.
    pub fn restore(
        &mut self,
        state: &crate::snapshot::EngineState,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::{DiscreteState, SnapshotError};
        let DiscreteState::Alg1(alg1) = &state.discrete else {
            return Err(SnapshotError::mismatch(
                "snapshot carries Algorithm 2 state but the engine runs Algorithm 1",
            ));
        };
        let counters = [
            alg1.dummy_created,
            alg1.arrived_weight,
            alg1.completed_weight,
        ];
        let nodes = alg1.queues.len();
        self.restore_shared(state, nodes, &alg1.dummy, &alg1.discrete_flow, counters)?;
        let picker = self.rule.picker;
        self.items = alg1
            .queues
            .iter()
            .enumerate()
            .map(|(node, queue)| {
                TaskQueue::restore(picker, queue.next_seq, &queue.entries)
                    .map_err(|e| SnapshotError::mismatch(format!("queue of node {node}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.rule.wmax = alg1.wmax;
        self.items_sent = alg1.items_sent;
        Ok(())
    }
}

impl Rule for Alg1 {
    type Item = TaskQueue;
    type Params = Weight;
    const TAG: &'static str = "alg1";

    fn params(&self, _round: usize) -> Weight {
        self.wmax
    }

    /// Forward whole tasks while the remaining deficit is at least `w_max`:
    /// the paper's floor rule for unit tasks, which keeps the per-edge
    /// deviation in `[0, w_max)`.
    // Inlined into each caller: out of line, the send-heavy early rounds of
    // a spike measured ~5% slower.
    // lint: zero-alloc
    #[inline(always)]
    fn forward(
        wmax: Weight,
        edges: impl Iterator<Item = EdgeId>,
        held: Held<'_, TaskQueue>,
        edge: impl Fn(EdgeId) -> (NodeId, NodeId, f64),
        mut emit: impl FnMut(EdgeId, NodeId, Sent),
    ) -> Forwarded {
        let wmax = wmax as f64;
        let mut sent = Forwarded::default();
        for e in edges {
            let (u, v, deficit) = edge(e);
            let (sender, receiver, magnitude, sign) = if deficit >= 0.0 {
                (u, v, deficit, 1i64)
            } else {
                (v, u, -deficit, -1i64)
            };
            // Exactly one owner holds the sender and processes this edge.
            let Some(k) = held.slot(sender) else {
                continue;
            };
            let mut moved: u64 = 0;
            let mut dummy_moved: u64 = 0;
            while magnitude - moved as f64 >= wmax {
                // Prefer a real task; fall back to a held dummy, then the
                // infinite source. Dummies behave like normal tokens once
                // created, so any choice is admissible per the paper.
                if let Some(task) = held.items[k].pop() {
                    moved += task.weight();
                    emit(e, receiver, Sent::Task(task));
                } else {
                    if held.dummy[k] > 0 {
                        held.dummy[k] -= 1;
                    } else {
                        sent.dummy_created += 1;
                    }
                    moved += 1;
                    dummy_moved += 1;
                }
                sent.items_sent += 1;
            }
            if dummy_moved > 0 {
                emit(e, receiver, Sent::Dummy(dummy_moved));
            }
            if moved > 0 {
                emit(e, receiver, Sent::Ledger(sign * moved as i64));
            }
        }
        sent
    }

    // lint: zero-alloc
    #[inline(always)]
    fn pend(&mut self, receiver: NodeId, sent: Sent, pending_dummy: &mut [u64]) {
        match sent {
            Sent::Task(task) => self.pending_tasks.push((receiver, task)),
            Sent::Dummy(amount) => pending_dummy[receiver] += amount,
            Sent::Tokens(..) | Sent::Ledger(_) => {}
        }
    }

    // lint: zero-alloc
    fn land(&mut self, queues: &mut [TaskQueue]) {
        for (receiver, task) in self.pending_tasks.drain(..) {
            queues[receiver].push(task);
        }
    }

    /// Arrivals raise `w_max` to the heaviest task ever seen, so the
    /// imitation floor rule stays conservative.
    fn admit(&mut self, task: Task) -> Result<(), CoreError> {
        self.wmax = self.wmax.max(task.weight());
        Ok(())
    }

    fn empty(&self) -> TaskQueue {
        TaskQueue::new(self.picker)
    }

    fn reset(&mut self, _n: usize) {
        self.pending_tasks.clear();
    }

    fn weight(queue: &TaskQueue) -> u64 {
        queue.total_weight()
    }

    fn deliver(queue: &mut TaskQueue, task: Task) {
        queue.push(task);
    }

    fn adopt(queue: &mut TaskQueue, mut orphan: TaskQueue) {
        while let Some(task) = orphan.pop() {
            queue.push(task);
        }
    }

    /// Whole tasks only, in pick order, while the budget lasts.
    fn complete(queue: &mut TaskQueue, budget: u64, mut drained: impl FnMut(u64, u64)) {
        let mut remaining = budget;
        while let Some(task) = queue.peek() {
            let w = task.weight();
            if w > remaining {
                break;
            }
            queue.pop();
            remaining -= w;
            drained(1, w);
        }
    }

    fn tokens(_: &mut [TaskQueue]) -> &mut [u64] {
        &mut []
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{DimensionExchange, Fos, RandomMatching};
    use crate::discrete::DiscreteBalancer;
    use crate::metrics;
    use crate::task::TaskId;
    use lb_graph::{generators, AlphaScheme, Graph};

    fn fos_on(graph: Graph, speeds: &Speeds) -> Fos {
        Fos::new(graph, speeds, AlphaScheme::MaxDegreePlusOne).unwrap()
    }

    #[test]
    fn conserves_real_tasks() {
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 160);
        let mut alg1 = FlowImitation::new(
            fos_on(g, &speeds),
            &initial,
            speeds.clone(),
            TaskPicker::Fifo,
        )
        .unwrap();
        alg1.run(100);
        let total_real: f64 = alg1.real_loads().iter().sum();
        assert!((total_real - 160.0).abs() < 1e-9);
        // Task identities survive: exactly 160 distinct tasks exist.
        let count: usize = (0..16).map(|i| alg1.task_count_of(i)).sum();
        assert_eq!(count, 160);
        let snapshot_count: usize = (0..16).map(|i| alg1.tasks_of(i).len()).sum();
        assert_eq!(snapshot_count, 160);
        assert!(alg1.items_sent() > 0);
    }

    #[test]
    fn flow_deviation_stays_below_wmax() {
        let g = generators::hypercube(4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 5, 320);
        let mut alg1 =
            FlowImitation::new(fos_on(g, &speeds), &initial, speeds, TaskPicker::Fifo).unwrap();
        for _ in 0..150 {
            alg1.step();
            assert!(
                alg1.max_flow_deviation() < alg1.wmax() as f64 + 1e-9,
                "Observation 4 violated at round {}",
                alg1.round()
            );
        }
    }

    #[test]
    fn theorem3_bound_on_hypercube_tokens() {
        // Unit tasks with the Theorem 3(2) sufficient-load condition: every
        // node starts with d·w_max = 5 tokens, plus an imbalanced pile on
        // node 0. The final max-min (and max-avg) discrepancy must be at most
        // 2d + 2.
        let dim = 5u32;
        let g = generators::hypercube(dim).unwrap();
        let n = g.node_count();
        let d = g.max_degree() as f64;
        let speeds = Speeds::uniform(n);
        let mut counts = vec![dim as u64; n];
        counts[0] += (n * 20) as u64;
        let initial = InitialLoad::from_token_counts(counts);
        let fos = fos_on(g, &speeds);
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        // Run well past the continuous balancing time.
        alg1.run(2_000);
        assert!(alg1.continuous().is_balanced(1.0));
        assert_eq!(alg1.dummy_created(), 0);
        let max_avg = metrics::max_avg_discrepancy(&alg1.loads(), &speeds);
        let max_min = metrics::max_min_discrepancy(&alg1.loads(), &speeds);
        assert!(
            max_avg <= 2.0 * d + 2.0 + 1e-9 && max_min <= 2.0 * d + 2.0 + 1e-9,
            "max-avg {max_avg} / max-min {max_min} exceed 2d + 2 = {}",
            2.0 * d + 2.0
        );
    }

    #[test]
    fn sufficient_initial_load_never_uses_infinite_source() {
        // Condition of Theorem 3(2): x(0) = x' + d·w_max·(s_1, …, s_n).
        let g = generators::torus(4, 4).unwrap();
        let n = g.node_count();
        let d = g.max_degree() as u64;
        let speeds = Speeds::uniform(n);
        // Everyone starts with exactly d·w_max = 4 tokens plus an imbalanced
        // extra pile on node 0.
        let mut counts = vec![d; n];
        counts[0] += 200;
        let initial = InitialLoad::from_token_counts(counts);
        let fos = fos_on(g, &speeds);
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1.run(1_500);
        assert_eq!(alg1.dummy_created(), 0, "infinite source must stay unused");
        assert_eq!(alg1.dummy_load(), 0);
        let d = d as f64;
        let max_min = metrics::max_min_discrepancy(&alg1.loads(), &speeds);
        assert!(
            max_min <= 2.0 * d + 2.0 + 1e-9,
            "max-min {max_min} exceeds 2d + 2"
        );
    }

    #[test]
    fn weighted_tasks_respect_theorem3_bound() {
        // Weighted tasks with w_max = 4 on a 2-dim torus.
        let g = generators::torus(4, 4).unwrap();
        let n = g.node_count();
        let d = g.max_degree() as u64;
        let wmax = 4u64;
        let speeds = Speeds::uniform(n);
        // Node 0 holds 60 tasks of alternating weights 1..=4; everyone else
        // holds d·w_max worth of unit tasks so the no-dummy condition holds.
        let mut tasks: Vec<Vec<Task>> = Vec::new();
        let mut id = 0u64;
        for i in 0..n {
            let mut node_tasks = Vec::new();
            if i == 0 {
                for k in 0..60u64 {
                    node_tasks.push(Task::new(TaskId(id), (k % wmax) + 1));
                    id += 1;
                }
            }
            for _ in 0..(d * wmax) {
                node_tasks.push(Task::new(TaskId(id), 1));
                id += 1;
            }
            tasks.push(node_tasks);
        }
        let initial = InitialLoad::from_tasks(tasks);
        assert_eq!(initial.max_weight(), wmax);
        let fos = fos_on(g, &speeds);
        let mut alg1 =
            FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::LargestFirst).unwrap();
        alg1.run(1_500);
        assert!(alg1.continuous().is_balanced(1.0));
        assert_eq!(alg1.dummy_created(), 0);
        let bound = 2.0 * d as f64 * wmax as f64 + 2.0;
        let max_min = metrics::max_min_discrepancy(&alg1.loads(), &speeds);
        assert!(max_min <= bound + 1e-9, "max-min {max_min} exceeds {bound}");
    }

    #[test]
    fn heterogeneous_speeds_balance_proportionally() {
        let g = generators::complete(4).unwrap();
        let speeds = Speeds::new(vec![1, 1, 2, 4]).unwrap();
        let initial = InitialLoad::single_source(4, 0, 800);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1.run(500);
        let d = alg1.graph().max_degree() as f64;
        let max_avg = metrics::max_avg_discrepancy(&alg1.loads(), &speeds);
        assert!(max_avg <= 2.0 * d + 2.0 + 1e-9);
        // The fastest node must end with substantially more load than the
        // slowest ones.
        let loads = alg1.loads();
        assert!(loads[3] > loads[0]);
    }

    #[test]
    fn works_with_matching_based_processes() {
        let g = generators::hypercube(3).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let initial = InitialLoad::single_source(n, 0, 64);

        let de = DimensionExchange::with_greedy_coloring(g.clone(), &speeds).unwrap();
        let mut alg1_de =
            FlowImitation::new(de, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1_de.run(400);
        let d = 3.0;
        assert!(metrics::max_avg_discrepancy(&alg1_de.loads(), &speeds) <= 2.0 * d + 2.0 + 1e-9);

        let rm = RandomMatching::new(g, &speeds, 42).unwrap();
        let mut alg1_rm =
            FlowImitation::new(rm, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1_rm.run(800);
        assert!(metrics::max_avg_discrepancy(&alg1_rm.loads(), &speeds) <= 2.0 * d + 2.0 + 1e-9);
    }

    #[test]
    fn determinism_same_inputs_same_trajectory() {
        let mk = || {
            let g = generators::torus(3, 3).unwrap();
            let speeds = Speeds::uniform(9);
            let initial = InitialLoad::single_source(9, 4, 90);
            let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
            FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap()
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..50 {
            a.step();
            b.step();
            assert_eq!(a.loads(), b.loads());
        }
    }

    #[test]
    fn picker_variants_all_satisfy_bound() {
        for picker in [
            TaskPicker::Fifo,
            TaskPicker::LargestFirst,
            TaskPicker::SmallestFirst,
        ] {
            let g = generators::cycle(8).unwrap();
            let speeds = Speeds::uniform(8);
            let mut tasks = Vec::new();
            let mut id = 0;
            for i in 0..8 {
                let mut node_tasks = Vec::new();
                let count = if i == 0 { 30 } else { 4 };
                for k in 0..count {
                    node_tasks.push(Task::new(TaskId(id), (k % 3) + 1));
                    id += 1;
                }
                tasks.push(node_tasks);
            }
            let initial = InitialLoad::from_tasks(tasks);
            let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
            let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), picker).unwrap();
            alg1.run(1_000);
            assert_eq!(alg1.picker(), picker);
            let bound = 2.0 * 2.0 * 3.0 + 2.0;
            assert!(
                metrics::max_avg_discrepancy(&alg1.loads(), &speeds) <= bound + 1e-9,
                "picker {picker:?} violated the bound"
            );
        }
    }

    #[test]
    fn mismatched_dimensions_rejected() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = fos_on(g, &speeds);
        let wrong_nodes = InitialLoad::single_source(5, 0, 10);
        assert!(FlowImitation::new(fos, &wrong_nodes, speeds.clone(), TaskPicker::Fifo).is_err());

        let g = generators::cycle(4).unwrap();
        let fos = fos_on(g, &speeds);
        let initial = InitialLoad::single_source(4, 0, 10);
        let wrong_speeds = Speeds::uniform(3);
        assert!(FlowImitation::new(fos, &initial, wrong_speeds, TaskPicker::Fifo).is_err());
    }

    #[test]
    fn insufficient_load_uses_dummy_but_bounds_real_max_avg() {
        // Start with very little load: dummies may be created, but ignoring
        // them at the end (as the paper prescribes) the maximum real makespan
        // stays within 2·d·w_max + 2 of the original average W/S.
        let g = generators::star(9).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let initial = InitialLoad::single_source(n, 1, 5);
        let original_avg = 5.0 / n as f64;
        let fos = fos_on(g, &speeds);
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1.run(600);
        let d = 8.0;
        // Real workload is conserved even when dummies circulate.
        let real = alg1.real_loads();
        assert!((real.iter().sum::<f64>() - 5.0).abs() < 1e-9);
        let real_max_avg = metrics::max_makespan(&real, &speeds) - original_avg;
        assert!(
            real_max_avg <= 2.0 * d + 2.0 + 1e-9,
            "real max-avg = {real_max_avg}"
        );
    }

    #[test]
    fn twin_shares_the_graph_instance() {
        let g = generators::torus(3, 3).unwrap();
        let speeds = Speeds::uniform(9);
        let initial = InitialLoad::single_source(9, 0, 18);
        let fos = fos_on(g, &speeds);
        let alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap();
        assert!(
            std::ptr::eq(alg1.graph(), alg1.continuous().process().graph()),
            "discretizer and twin must share one Graph allocation"
        );
    }
}
