//! The flow-imitation engine both of the paper's transformations run on.
//!
//! [`FlowImitation`](super::FlowImitation) (Algorithm 1) and
//! [`RandomizedImitation`](super::RandomizedImitation) (Algorithm 2) are one
//! engine, [`Imitation`], under two [`Rule`]s. The engine owns the continuous
//! twin, the topology, every node's holdings and dummy load, the
//! discrete-flow ledger and the counters; a rule supplies its holdings and
//! its per-edge kernel.
//!
//! # Hot path
//!
//! A rule's kernel runs over an edge list, an owned node range and a sink.
//! [`step`](DiscreteBalancer::step) runs it over every edge with a sink that
//! settles the ledger in place, [`step_sharded`](Imitation::step_sharded)
//! once per shard into that shard's outbox, and
//! [`step_federated`](Imitation::step_federated) over one part's edges,
//! routing effects on foreign receivers into the outgoing [`SendBatch`]. The
//! sequential step allocates nothing in steady state: delivery buffers are
//! struct-owned and reused, and the topology is shared with the twin through
//! one `Arc<Graph>`.

use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

use lb_graph::{EdgeId, Graph, NodeId};

use super::dynamic::{DynamicBalancer, EventReport, RoundEvents};
use super::DiscreteBalancer;
use crate::continuous::{ContinuousProcess, ContinuousRunner};
use crate::error::CoreError;
use crate::federate::{FederateLink, FederatedExecutor, SendBatch};
use crate::load::InitialLoad;
use crate::shard::ShardedExecutor;
use crate::snapshot::{EngineState, SnapshotError};
use crate::task::{Speeds, Task};

/// One of the paper's two discretization rules: its per-node holdings, its
/// per-edge kernel, and the bookkeeping around them. Implemented by
/// Algorithm 1 and Algorithm 2 only.
pub trait Rule: Clone + Debug + Send + Sync {
    /// One node's holdings: a task queue or a token count.
    type Item: Clone + Debug + Send;
    /// What the kernel reads besides the round-start state.
    type Params: Copy + Send + Sync + 'static;
    /// The algorithm's name prefix, e.g. `"alg1"`.
    const TAG: &'static str;

    /// The kernel parameters of round `round`.
    fn params(&self, round: usize) -> Self::Params;

    /// The per-edge rule: for every edge in `edges` whose sender — picked by
    /// the sign of the flow deficit `edge(e)` reports — `held` owns, move
    /// items and hand every effect to `emit`.
    fn forward(
        p: Self::Params,
        edges: impl Iterator<Item = EdgeId>,
        held: Held<'_, Self::Item>,
        edge: impl Fn(EdgeId) -> (NodeId, NodeId, f64),
        emit: impl FnMut(EdgeId, NodeId, Sent),
    ) -> Forwarded;

    /// Whole-graph sink: buffers a delivery to `receiver` until the round's
    /// deliveries land.
    fn pend(&mut self, receiver: NodeId, sent: Sent, pending_dummy: &mut [u64]);

    /// Lands the buffered deliveries in `items`.
    fn land(&mut self, items: &mut [Self::Item]);

    /// Vets an arrival, owned or not.
    fn admit(&mut self, task: Task) -> Result<(), CoreError>;

    /// Holdings for a node that churn adds.
    fn empty(&self) -> Self::Item;

    /// Resizes the per-round scratch to `n` nodes.
    fn reset(&mut self, n: usize);

    /// Total weight held.
    fn weight(item: &Self::Item) -> u64;

    /// Takes a delivered or arriving task.
    fn deliver(item: &mut Self::Item, task: Task);

    /// Takes over everything an orphaned node held.
    fn adopt(item: &mut Self::Item, orphan: Self::Item);

    /// Completes work while `budget` lasts, reporting `(tasks, weight)` to
    /// `drained` for every drain step.
    fn complete(item: &mut Self::Item, budget: u64, drained: impl FnMut(u64, u64));

    /// The token counts the apply phase credits (none for task queues).
    fn tokens(items: &mut [Self::Item]) -> &mut [u64];
}

/// The per-node state one kernel call owns: nodes
/// `first..first + items.len()`. The sequential step owns every node; a shard
/// or federated part owns its contiguous node range.
pub struct Held<'a, Q> {
    first: NodeId,
    pub(super) items: &'a mut [Q],
    pub(super) dummy: &'a mut [u64],
}

impl<'a, Q> Held<'a, Q> {
    pub(crate) fn new(first: NodeId, items: &'a mut [Q], dummy: &'a mut [u64]) -> Self {
        Held {
            first,
            items,
            dummy,
        }
    }

    /// The local index of `node`, or `None` when another owner holds it.
    #[inline]
    pub(super) fn slot(&self, node: NodeId) -> Option<usize> {
        node.checked_sub(self.first)
            .filter(|&k| k < self.items.len())
    }
}

/// Counters one kernel call accumulates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Forwarded {
    /// Items (tasks and dummy units) moved over edges.
    pub(crate) items_sent: u64,
    /// Dummy units drawn from the infinite source.
    pub(crate) dummy_created: u64,
}

/// One effect a kernel hands its sink for an edge.
#[derive(Debug, Clone, Copy)]
pub enum Sent {
    /// A real task (Algorithm 1).
    Task(Task),
    /// Dummy units (Algorithm 1).
    Dummy(u64),
    /// Real tokens and dummy units (Algorithm 2).
    Tokens(u64, u64),
    /// The edge's ledger delta.
    Ledger(i64),
}

/// The round-start state a partitioned kernel reads: the topology, the
/// twin's cumulative flows, and the discrete ledger, which no shard or part
/// writes before the apply phase.
#[derive(Clone, Copy)]
struct View<'a> {
    pairs: &'a [(NodeId, NodeId)],
    flows: &'a [f64],
    ledger: &'a [i64],
}

impl<'a> View<'a> {
    /// The kernel over one shard's or part's edges, writing to its outbox.
    fn kernel<R: Rule>(
        self,
        p: R::Params,
    ) -> impl Fn(&[EdgeId], Held<'_, R::Item>, &mut Outbox<'_>) -> Forwarded + Sync + 'a {
        move |edges, held, out| {
            let edge = |e: EdgeId| {
                let (u, v) = self.pairs[e];
                (u, v, self.flows[e] - self.ledger[e] as f64)
            };
            R::forward(p, edges.iter().copied(), held, edge, |e, r, s| {
                out.emit(e, r, s)
            })
        }
    }
}

/// The partitioned sink, shared by both rules: every effect — ledger deltas
/// included, because another shard or part reads the same crossing edge's
/// ledger in the same phase — is deferred into a [`SendBatch`]. A shard
/// writes one outbox; a federated part routes receivers outside its node
/// range into the outgoing batch.
pub(crate) struct Outbox<'a> {
    local: &'a mut SendBatch,
    remote: Option<(Range<NodeId>, &'a mut SendBatch)>,
}

impl<'a> Outbox<'a> {
    pub(crate) fn new(local: &'a mut SendBatch) -> Self {
        Outbox {
            local,
            remote: None,
        }
    }

    /// Routes effects on receivers outside `owned` into `remote`.
    pub(crate) fn routing(mut self, owned: Range<NodeId>, remote: &'a mut SendBatch) -> Self {
        self.remote = Some((owned, remote));
        self
    }

    // lint: zero-alloc
    #[inline]
    fn emit(&mut self, e: EdgeId, receiver: NodeId, sent: Sent) {
        let batch = match &mut self.remote {
            Some((owned, remote)) if !owned.contains(&receiver) => remote,
            _ => &mut *self.local,
        };
        match sent {
            Sent::Task(task) => batch.tasks.push((e, receiver, task)),
            Sent::Dummy(amount) => batch.dummy.push((receiver, amount)),
            Sent::Tokens(real, dummy) => batch.tokens.push((receiver, real, dummy)),
            Sent::Ledger(delta) => batch.deltas.push((e, delta)),
        }
    }
}

/// A flow-imitation discretization of the continuous process `A` under rule
/// `R`: [`FlowImitation`](super::FlowImitation) (Algorithm 1) or
/// [`RandomizedImitation`](super::RandomizedImitation) (Algorithm 2).
#[derive(Debug, Clone)]
pub struct Imitation<A: ContinuousProcess, R: Rule> {
    pub(super) rule: R,
    pub(super) name: String,
    pub(super) twin: ContinuousRunner<A>,
    pub(super) graph: Arc<Graph>,
    pub(super) speeds: Speeds,
    /// Per-node holdings (real workload).
    pub(super) items: Vec<R::Item>,
    /// Unit-weight dummy load currently held by each node.
    pub(super) dummy: Vec<u64>,
    /// Cumulative net discrete flow along each canonical edge orientation.
    pub(super) ledger: Vec<i64>,
    pub(super) round: usize,
    pub(super) dummy_created: u64,
    /// Items (tasks and dummy units) moved over edges; Algorithm 1 reports
    /// it.
    pub(super) items_sent: u64,
    /// Reused per-round scratch: pending dummy deliveries per node.
    pending_dummy: Vec<u64>,
    /// Total weight injected by dynamic arrival events.
    pub(super) arrived_weight: u64,
    /// Total weight drained by dynamic completion events.
    pub(super) completed_weight: u64,
}

impl<A: ContinuousProcess, R: Rule> Imitation<A, R> {
    /// Validates the dimensions and starts the twin from `initial`, as the
    /// paper prescribes; the topology is shared with the twin.
    pub(super) fn build(
        process: A,
        initial: &InitialLoad,
        speeds: Speeds,
        items: Vec<R::Item>,
        rule: R,
    ) -> Result<Self, CoreError> {
        let graph = process.shared_graph();
        let n = graph.node_count();
        if initial.node_count() != n {
            return Err(CoreError::invalid_parameter(format!(
                "initial load has {} nodes, graph has {n}",
                initial.node_count()
            )));
        }
        if speeds.len() != n {
            return Err(CoreError::invalid_parameter(format!(
                "speeds vector has {} entries, graph has {n} nodes",
                speeds.len()
            )));
        }
        let m = graph.edge_count();
        Ok(Imitation {
            rule,
            name: format!("{}({})", R::TAG, process.name()),
            twin: ContinuousRunner::new(process, initial.load_vector_f64()),
            graph,
            speeds,
            items,
            dummy: vec![0; n],
            ledger: vec![0; m],
            round: 0,
            dummy_created: 0,
            items_sent: 0,
            pending_dummy: vec![0; n],
            arrived_weight: 0,
            completed_weight: 0,
        })
    }

    /// Replaces the topology (and the continuous twin) mid-run: the
    /// churn-event half of a dynamic scenario.
    ///
    /// `process` is a freshly built continuous process on the new graph.
    /// Per-node holdings and dummy load carry over index-by-index; if the new
    /// graph is smaller, whatever removed nodes held moves to node 0 (the
    /// deterministic "orphan adoption" rule); if it is larger, the new nodes
    /// start empty. Speeds truncate or pad with the unit speed. The twin
    /// restarts from the *current* discrete load vector and both flow
    /// ledgers reset to zero — imitation begins a fresh epoch on the new
    /// topology, so the per-edge deviation bound holds per epoch.
    ///
    /// A same-size rewire reuses every engine buffer (holdings, twin
    /// load/flow vectors and ledgers are cleared in place, not reallocated);
    /// only a node-count change reallocates the carried containers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the new graph is empty.
    pub fn replace_topology(&mut self, process: A) -> Result<(), CoreError> {
        let n = process.graph().node_count();
        if n == 0 {
            return Err(CoreError::invalid_parameter(
                "cannot replace topology with an empty graph",
            ));
        }
        while self.items.len() > n {
            // lint: allow(R03, non-empty by the loop condition)
            let orphan = self.items.pop().expect("len checked above");
            R::adopt(&mut self.items[0], orphan);
            // lint: allow(R03, dummy mirrors the holdings length by construction)
            let dummies = self.dummy.pop().expect("dummy tracks holdings");
            self.dummy[0] += dummies;
        }
        let empty = self.rule.empty();
        self.items.resize(n, empty);
        self.dummy.resize(n, 0);
        if self.speeds.len() != n {
            let mut speed_values = self.speeds.as_slice().to_vec();
            speed_values.resize(n, 1);
            // lint: allow(R03, carried values validated positive at admission)
            self.speeds = Speeds::new(speed_values).expect("carried speeds stay positive");
        }
        self.name = format!("{}({})", R::TAG, process.name());
        self.graph = process.shared_graph();
        let loads = self.items.iter().zip(&self.dummy);
        self.twin.rebind(
            process,
            loads.map(|(item, &d)| (R::weight(item) + d) as f64),
        );
        self.ledger.clear();
        self.ledger.resize(self.graph.edge_count(), 0);
        self.pending_dummy.clear();
        self.pending_dummy.resize(n, 0);
        self.rule.reset(n);
        Ok(())
    }

    /// The continuous twin being imitated.
    pub fn continuous(&self) -> &ContinuousRunner<A> {
        &self.twin
    }

    /// Total dummy load created from the infinite source so far.
    pub fn dummy_created(&self) -> u64 {
        self.dummy_created
    }

    /// Per-node dummy holdings. In a federated partition only the owned
    /// entries are authoritative (foreign slots are stale); a sampler must
    /// slice its own node range.
    pub fn dummy_holdings(&self) -> &[u64] {
        &self.dummy
    }

    /// Per-node loads *excluding* dummy load (the real workload only). Each
    /// entry is O(1): holdings keep their totals incrementally.
    pub fn real_loads(&self) -> Vec<f64> {
        self.items
            .iter()
            .map(|item| R::weight(item) as f64)
            .collect()
    }

    /// Maximum absolute per-edge deviation `|f^A_e(t) − f^D_e(t)|` between
    /// the continuous and discrete cumulative flows: below `w_max` for
    /// Algorithm 1 (Observation 4), below 1 for Algorithm 2 (Observation
    /// 9(3)).
    pub fn max_flow_deviation(&self) -> f64 {
        self.twin
            .cumulative_flows()
            .iter()
            .zip(&self.ledger)
            .map(|(&fa, &fd)| (fa - fd as f64).abs())
            .fold(0.0, f64::max)
    }

    /// Federated [`apply_events`](DynamicBalancer::apply_events): every part
    /// sees the **full** event stream (scenario-derived, so no broadcast is
    /// needed) but applies holding and twin effects only for the nodes it
    /// owns. Validation covers all events, and arrival bookkeeping every
    /// part must agree on (Algorithm 1's `w_max`) tracks all arrivals, so
    /// every part stays in step. The returned report counts owned events
    /// only, so gathered partials sum to the sequential report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if an event names a node
    /// outside the graph or an arrival breaks the rule (Algorithm 2 accepts
    /// unit-weight tasks only).
    pub fn apply_events_federated(
        &mut self,
        events: &RoundEvents,
        fed: &mut FederatedExecutor,
    ) -> Result<EventReport, CoreError> {
        fed.ensure_plan(&self.graph)?;
        self.apply_owned_events(events, fed.plan().node_range())
    }

    /// The one event body behind `apply_events` (`owned = 0..n`) and
    /// `apply_events_federated`. Completions apply first: finished work
    /// leaves both the holdings and the twin.
    fn apply_owned_events(
        &mut self,
        events: &RoundEvents,
        owned: Range<NodeId>,
    ) -> Result<EventReport, CoreError> {
        let n = self.graph.node_count();
        let mut report = EventReport::default();
        for &(node, budget) in &events.completions {
            if node >= n {
                return Err(CoreError::invalid_parameter(format!(
                    "completion on node {node}, graph has {n} nodes"
                )));
            }
            if owned.contains(&node) {
                R::complete(&mut self.items[node], budget, |tasks, weight| {
                    report.completed_tasks += tasks;
                    report.completed_weight += weight;
                    self.twin.adjust_load(node, -(weight as f64));
                });
            }
        }
        for &(node, task) in &events.arrivals {
            if node >= n {
                return Err(CoreError::invalid_parameter(format!(
                    "arrival on node {node}, graph has {n} nodes"
                )));
            }
            self.rule.admit(task)?;
            if owned.contains(&node) {
                R::deliver(&mut self.items[node], task);
                self.twin.adjust_load(node, task.weight() as f64);
                report.arrived_tasks += 1;
                report.arrived_weight += task.weight();
            }
        }
        self.arrived_weight += report.arrived_weight;
        self.completed_weight += report.completed_weight;
        Ok(report)
    }

    /// Validates a snapshot's shared part against the topology (`nodes` is
    /// its per-node entry count) and restores it: twin, dummy holdings,
    /// ledger, round and the `[dummy_created, arrived, completed]` counters.
    pub(super) fn restore_shared(
        &mut self,
        state: &EngineState,
        nodes: usize,
        dummy: &[u64],
        ledger: &[i64],
        counters: [u64; 3],
    ) -> Result<(), SnapshotError> {
        let n = self.graph.node_count();
        let m = self.graph.edge_count();
        if nodes != n || dummy.len() != n {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {nodes} node entries, graph has {n} nodes"
            )));
        }
        if ledger.len() != m {
            return Err(SnapshotError::mismatch(format!(
                "snapshot flow ledger has {} entries, graph has {m} edges",
                ledger.len()
            )));
        }
        self.twin.restore(&state.twin)?;
        self.dummy.copy_from_slice(dummy);
        self.ledger.copy_from_slice(ledger);
        self.round = state.round as usize;
        [
            self.dummy_created,
            self.arrived_weight,
            self.completed_weight,
        ] = counters;
        self.pending_dummy.fill(0);
        self.rule.reset(n);
        Ok(())
    }

    /// Counts a finished round.
    fn finish(&mut self, sent: Forwarded) {
        self.dummy_created += sent.dummy_created;
        self.items_sent += sent.items_sent;
        self.round += 1;
    }
}

impl<A: ContinuousProcess + Sync, R: Rule> Imitation<A, R> {
    /// Sharded [`step`](DiscreteBalancer::step): the twin advances through
    /// [`ContinuousRunner::step_sharded`], then every shard worker runs the
    /// rule's kernel over the edges whose **sender** lies in its node range
    /// — so all pops from one queue happen on one thread, in canonical edge
    /// order, and Algorithm 2 draws every rounding decision from its own
    /// `(seed, round, edge)` sub-RNG — writing its effects to a per-shard
    /// outbox. The apply phase merges task deliveries back into global edge
    /// order and credits the additive effects, making the whole round
    /// **bit-identical** to [`step`](DiscreteBalancer::step) for every shard
    /// count.
    ///
    /// The executor rebinds itself to the engine's current topology (plan
    /// rebuild after [`replace_topology`](Imitation::replace_topology)
    /// happens on the next sharded step). Steady-state calls on an unchanged
    /// topology do not allocate once the outboxes have warmed up.
    // lint: zero-alloc
    pub fn step_sharded(&mut self, exec: &mut ShardedExecutor) {
        exec.ensure_plan(&self.graph);
        if exec.shard_count() == 1 {
            return self.step();
        }
        self.twin.step_sharded(exec);
        let view = View {
            pairs: self.graph.edges(),
            flows: self.twin.cumulative_flows(),
            ledger: &self.ledger,
        };
        let kernel = view.kernel::<R>(self.rule.params(self.round));
        exec.forward(&mut self.items, &mut self.dummy, kernel);
        let sent = exec.apply::<R>(&mut self.items, &mut self.dummy, &mut self.ledger);
        self.finish(sent);
    }

    /// Federated [`step`](DiscreteBalancer::step): this engine instance owns
    /// one contiguous node range of a larger simulation and exchanges three
    /// payloads per round over `link` (boundary twin loads, crossing-edge
    /// flows, cross-partition sends). The twin advances through
    /// [`ContinuousRunner::step_federated`], then this part runs the rule's
    /// kernel over the edges whose **sender** it owns — the same
    /// unique-sender rule as the sharded step — keeping effects on its own
    /// receivers local and routing the rest into the outgoing
    /// [`SendBatch`]. Task deliveries merge back into global edge order, so
    /// the owned slice of every state vector stays **bit-identical** to the
    /// sequential engine's at every round.
    ///
    /// Counters (`dummy_created`, `items_sent`, `arrived_weight`,
    /// `completed_weight`) hold this part's disjoint partial sums; foreign
    /// entries of per-node and per-edge vectors are stale and never read.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Federation`] if an exchange fails or a peer sends
    /// a malformed payload, and [`CoreError::InvalidParameter`] if the
    /// underlying process does not support range-split kernels.
    pub fn step_federated(
        &mut self,
        fed: &mut FederatedExecutor,
        link: &mut dyn FederateLink,
    ) -> Result<(), CoreError> {
        fed.ensure_plan(&self.graph)?;
        self.twin.step_federated(fed, link)?;
        let view = View {
            pairs: self.graph.edges(),
            flows: self.twin.cumulative_flows(),
            ledger: &self.ledger,
        };
        let kernel = view.kernel::<R>(self.rule.params(self.round));
        let sent = fed.forward(&mut self.items, &mut self.dummy, kernel);
        let batches = link.exchange_sends(&fed.batch)?;
        fed.apply::<R>(&batches, &mut self.items, &mut self.dummy, &mut self.ledger)?;
        self.finish(sent);
        Ok(())
    }
}

impl<A: ContinuousProcess, R: Rule> DiscreteBalancer for Imitation<A, R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn speeds(&self) -> &Speeds {
        &self.speeds
    }

    fn round(&self) -> usize {
        self.round
    }

    fn loads(&self) -> Vec<f64> {
        let loads = self.items.iter().zip(&self.dummy);
        loads
            .map(|(item, &d)| (R::weight(item) + d) as f64)
            .collect()
    }

    fn dummy_load(&self) -> u64 {
        self.dummy.iter().sum()
    }

    // lint: zero-alloc
    fn step(&mut self) {
        // Advance the continuous twin so f^A now refers to the end of the
        // current round t.
        self.twin.step();
        self.pending_dummy.fill(0);
        let p = self.rule.params(self.round);
        let (pairs, flows) = (self.graph.edges(), self.twin.cumulative_flows());
        // Each edge's ledger entry is read once, before its own write, so the
        // whole-graph sink settles it in place.
        let ledger = Cell::from_mut(&mut self.ledger[..]).as_slice_of_cells();
        let (rule, pending) = (&mut self.rule, &mut self.pending_dummy);
        let sent = R::forward(
            p,
            0..pairs.len(),
            Held::new(0, &mut self.items, &mut self.dummy),
            |e| (pairs[e].0, pairs[e].1, flows[e] - ledger[e].get() as f64),
            |e, receiver, sent| match sent {
                Sent::Ledger(delta) => ledger[e].set(ledger[e].get() + delta),
                sent => rule.pend(receiver, sent, pending),
            },
        );
        // Deliveries land after every edge has been processed, so a node only
        // forwards what it held at the beginning of the round (plus freshly
        // generated dummies).
        self.rule.land(&mut self.items);
        for (held, &pending) in self.dummy.iter_mut().zip(&self.pending_dummy) {
            *held += pending;
        }
        self.finish(sent);
    }
}

impl<A: ContinuousProcess, R: Rule> DynamicBalancer for Imitation<A, R> {
    fn apply_events(&mut self, events: &RoundEvents) -> Result<EventReport, CoreError> {
        self.apply_owned_events(events, 0..self.graph.node_count())
    }

    fn completed_weight(&self) -> u64 {
        self.completed_weight
    }

    fn arrived_weight(&self) -> u64 {
        self.arrived_weight
    }
}
