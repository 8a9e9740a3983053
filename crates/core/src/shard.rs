//! Intra-instance parallelism: one simulation round, many cores.
//!
//! `parallel_map`-style fan-out (in `lb-bench`) only parallelises
//! *independent* trials; a single large instance (n ≥ 10⁶) was still bound
//! by a serial `O(m)` round. This module shards **one** instance: the node
//! range `0..n` is split into `S` contiguous shards, the canonical edge list
//! splits with it (edges are sorted by lower endpoint, so each shard owns a
//! contiguous edge range), and every round runs as a two-phase protocol:
//!
//! 1. **Compute (parallel)** — each shard worker runs the engine's one
//!    per-edge kernel (the same loop the sequential step and a federated
//!    part call) over the edges incident to its node range, mutating only
//!    *its own* node state (queues, token counts, load entries). Its sink is
//!    the shard's *outbox*, a [`SendBatch`] collecting task deliveries,
//!    dummy transfers, token moves and flow-ledger deltas;
//! 2. **Apply (sequential)** — the outboxes are drained in a deterministic
//!    order (task deliveries through the one edge-order merge, everything
//!    else is additive), reproducing the exact state the sequential engine
//!    builds.
//!
//! The continuous twin splits the same way: its range kernel runs over each
//! shard's edge range, then each shard applies the flows to its own node
//! loads in CSR order.
//!
//! # Determinism contract
//!
//! Sharded execution is **bit-identical** to sequential execution, for every
//! shard count: all floating-point operations touch the same accumulators in
//! the same order (per-node load updates follow the CSR incident-edge order,
//! which equals canonical edge order), task queues pop in the same per-node
//! sequence and receive deliveries in global edge order, and Algorithm 2
//! derives an independent sub-RNG per `(seed, round, edge)` instead of
//! consuming one stream edge-by-edge (see
//! [`edge_rounding_rng`](crate::discrete::edge_rounding_rng)).
//! `tests/sharded_equivalence.rs` and the shard-count invariance property in
//! `tests/properties.rs` pin this.
//!
//! # Zero-allocation contract
//!
//! [`ShardedExecutor`] owns `S − 1` persistent worker threads (spawning per
//! round would allocate) and pre-sizes every per-shard outbox when the shard
//! plan is (re)built — at construction and after topology churn. Steady-state
//! sharded rounds perform no heap allocation; `tests/zero_alloc.rs` enforces
//! this with shards > 1.

use lb_graph::{EdgeId, Graph, NodeId};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::discrete::{Forwarded, Held, Outbox, Rule};
use crate::error::CoreError;
use crate::federate::SendBatch;

/// An edge-balanced split of one contiguous node range into `count`
/// contiguous chunks, plus the matching canonical edge ranges (edges are
/// grouped by lower endpoint, so a chunk's nodes own a contiguous edge
/// range). The shard plan splits `0..n` into shards, the federation plan
/// splits `0..n` into parts, and a federated part splits its own range into
/// its intra-part kernel chunks — all with this one planner.
///
/// Cuts balance canonical edge counts (the edge loops dominate a round);
/// chunks may be empty when the range has fewer nodes than chunks.
#[derive(Debug, Clone)]
pub(crate) struct Chunks {
    /// Node range starts, length `count + 1`.
    node_bounds: Vec<usize>,
    /// Canonical edge range starts, length `count + 1`.
    edge_bounds: Vec<usize>,
}

impl Chunks {
    /// `count` empty chunks (no graph bound yet).
    pub(crate) fn empty(count: usize) -> Self {
        Chunks {
            node_bounds: vec![0; count + 1],
            edge_bounds: vec![0; count + 1],
        }
    }

    /// Splits `part` of `graph` into `count` edge-balanced chunks.
    pub(crate) fn build(graph: &Graph, part: Range<NodeId>, count: usize) -> Self {
        let edges = graph.edges();
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "canonical order");
        let first = edges.partition_point(|&(u, _)| u < part.start);
        let last = edges.partition_point(|&(u, _)| u < part.end);
        let mut node_bounds = Vec::with_capacity(count + 1);
        node_bounds.push(part.start);
        for c in 1..count {
            // Aim for an equal share of the range's canonical edges per
            // prefix, then snap the cut to a node boundary so each node's
            // canonical edges stay together.
            let target = first + (last - first) * c / count;
            let node = if target >= last {
                part.end
            } else {
                edges[target].0
            };
            node_bounds.push(node.max(node_bounds[c - 1]));
        }
        node_bounds.push(part.end);
        let edge_bounds = node_bounds
            .iter()
            .map(|&node| edges.partition_point(|&(u, _)| u < node))
            .collect();
        Chunks {
            node_bounds,
            edge_bounds,
        }
    }

    /// Number of chunks (some possibly empty).
    pub(crate) fn count(&self) -> usize {
        self.node_bounds.len() - 1
    }

    /// The whole node range the chunks split.
    pub(crate) fn nodes(&self) -> Range<usize> {
        self.node_bounds[0]..self.node_bounds[self.count()]
    }

    /// The node range of chunk `c`.
    pub(crate) fn node_range(&self, c: usize) -> Range<usize> {
        self.node_bounds[c]..self.node_bounds[c + 1]
    }

    /// The canonical edge range of chunk `c`.
    pub(crate) fn edge_range(&self, c: usize) -> Range<usize> {
        self.edge_bounds[c]..self.edge_bounds[c + 1]
    }
}

/// Contiguous node-range sharding of one graph: the shard chunks, plus the
/// edges incident to each shard (the discrete kernel's edge lists).
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    pub(crate) chunks: Chunks,
    /// Per shard: every edge with at least one endpoint in the shard's node
    /// range, ascending by edge id.
    incident: Vec<Vec<EdgeId>>,
}

impl ShardPlan {
    /// An empty placeholder plan (no graph bound yet).
    fn empty(shards: usize) -> Self {
        ShardPlan {
            chunks: Chunks::empty(shards),
            incident: vec![Vec::new(); shards],
        }
    }

    /// Builds the plan for `graph` with exactly `shards` shards.
    fn build(shards: usize, graph: &Graph) -> Self {
        let chunks = Chunks::build(graph, 0..graph.node_count(), shards);
        let mut shard_of = vec![0u32; graph.node_count()];
        for s in 0..shards {
            for slot in &mut shard_of[chunks.node_range(s)] {
                *slot = s as u32;
            }
        }
        let mut incident = vec![Vec::new(); shards];
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            let su = shard_of[u] as usize;
            let sv = shard_of[v] as usize;
            incident[su].push(e);
            if sv != su {
                incident[sv].push(e);
            }
        }
        ShardPlan { chunks, incident }
    }

    /// Number of shards (some possibly empty).
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.chunks.count()
    }

    /// The node range owned by shard `s`.
    pub(crate) fn node_range(&self, s: usize) -> Range<usize> {
        self.chunks.node_range(s)
    }

    /// The canonical edge range owned by shard `s`.
    #[cfg(test)]
    fn edge_range(&self, s: usize) -> Range<usize> {
        self.chunks.edge_range(s)
    }

    /// Edges incident to shard `s`, ascending by edge id.
    pub(crate) fn incident(&self, s: usize) -> &[EdgeId] {
        &self.incident[s]
    }
}

/// A raw shared-mutable view of a slice, for handing **disjoint** ranges to
/// shard workers.
///
/// Every access goes through [`range_mut`](SharedSliceMut::range_mut) or
/// [`get_mut`](SharedSliceMut::get_mut), whose safety contract is that
/// concurrently handed-out views never overlap; the shard plan's node/edge
/// ranges partition their index spaces, which is what every caller in this
/// crate relies on.
pub(crate) struct SharedSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper only ever yields disjoint views (the caller contract
// of `range_mut` and `get_mut`), so sending/sharing it across the pool's
// scoped workers is no more dangerous than `slice::split_at_mut`.
unsafe impl<T: Send> Send for SharedSliceMut<'_, T> {}
unsafe impl<T: Send> Sync for SharedSliceMut<'_, T> {}

impl<'a, T> SharedSliceMut<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        SharedSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// A mutable view of `range`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no two live views (across all threads)
    /// overlap. `range` must lie within the original slice.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }

    /// A mutable view of element `i`, under the same contract as
    /// [`range_mut`](SharedSliceMut::range_mut).
    ///
    /// # Safety
    ///
    /// No other live view (across all threads) may cover `i`, and `i` must
    /// lie within the original slice.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        // SAFETY: in bounds and unaliased by the caller's contract.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// The wide pointer to the current phase closure, lifetime-erased so it can
/// sit in the pool's shared state. Valid only while `ShardPool::run` has not
/// returned — workers finish (and bump `done`) before `run` returns, so no
/// worker ever dereferences a stale job.
#[derive(Clone, Copy)]
struct JobHandle(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` and outlives every dereference (see above).
unsafe impl Send for JobHandle {}

struct PoolState {
    epoch: u64,
    shutdown: bool,
    job: Option<JobHandle>,
    /// Workers finished with the current epoch.
    done: usize,
    /// A worker's phase closure panicked during the current epoch.
    panicked: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// `S − 1` persistent worker threads executing one closure per phase.
///
/// Workers park on a condvar between phases; dispatch is a mutex'd epoch
/// bump plus `notify_all`, and the caller blocks on a completion condvar —
/// none of which allocates, keeping sharded steady-state rounds heap-free
/// (per-round `thread::scope` spawning would not be). Blocking (rather than
/// spinning) on completion keeps the overhead small even when shards
/// outnumber cores.
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns `workers` threads, serving shard indices `1..=workers` (the
    /// caller itself runs shard 0).
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                shutdown: false,
                job: None,
                done: 0,
                panicked: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..=workers)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        let job = {
                            let mut state = shared.state.lock().expect("pool mutex poisoned");
                            loop {
                                if state.shutdown {
                                    return;
                                }
                                if state.epoch != seen {
                                    break;
                                }
                                state = shared.work.wait(state).expect("pool mutex poisoned");
                            }
                            seen = state.epoch;
                            // lint: allow(R03, run() stores the job before bumping the epoch)
                            state.job.expect("job published with epoch")
                        };
                        // SAFETY: `run` keeps the closure alive until every
                        // worker has reported done for this epoch. A panic in
                        // the phase closure is caught so the worker always
                        // reports done — otherwise `run` would block forever —
                        // and is re-raised on the calling thread.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                (unsafe { &*job.0 })(shard)
                            }));
                        let mut state = shared.state.lock().expect("pool mutex poisoned");
                        state.done += 1;
                        state.panicked |= outcome.is_err();
                        if state.done == workers {
                            shared.done.notify_one();
                        }
                    }
                })
            })
            .collect();
        ShardPool { shared, handles }
    }

    /// Runs `f(s)` for every shard index `0..=workers`, shard 0 on the
    /// calling thread, and returns once all have finished.
    pub(crate) fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        let wide: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the lifetime is erased only for the duration of this call;
        // the done-condvar wait below (reached even when shard 0 panics)
        // ensures every worker is finished with the pointer before `f` drops.
        let job = JobHandle(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(wide)
        });
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            state.epoch += 1;
            state.job = Some(job);
        }
        self.shared.work.notify_all();
        // Shard 0 runs on this thread. Its panic must not unwind before the
        // workers are done — they still hold the lifetime-erased pointer to
        // `f` — so catch it, drain the epoch, and only then re-raise.
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        let mut state = self.shared.state.lock().expect("pool mutex poisoned");
        while state.done < self.handles.len() {
            state = self.shared.done.wait(state).expect("pool mutex poisoned");
        }
        state.done = 0;
        let worker_panicked = std::mem::take(&mut state.panicked);
        drop(state);
        if let Err(payload) = own {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            // lint: allow(R03, propagates a worker thread's caught panic)
            panic!("a shard worker panicked during a parallel phase");
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-shard scratch: the outbox a compute phase fills and the apply phase
/// drains, plus the shard's counter partials. Outbox buffers are pre-sized
/// when the plan is built, so steady-state rounds never allocate (the task
/// list warms up like the sequential engine's delivery buffer does).
pub(crate) struct ShardScratch {
    /// Every effect of the edges this shard forwarded; task deliveries are
    /// ascending by edge id (the incident list is sorted).
    pub(crate) out: SendBatch,
    /// Items moved and dummies created by this shard this round.
    pub(crate) sent: Forwarded,
}

/// Drives sharded rounds for one engine: the persistent worker pool, the
/// current shard plan and the per-shard scratch.
///
/// An executor is engine-agnostic — it binds to whatever graph the engine
/// currently runs on (checked by `Arc` identity each round), so topology
/// churn just triggers a plan rebuild on the next sharded step. Pass the
/// same executor to every `step_sharded` call of one engine:
///
/// ```
/// use lb_core::continuous::Fos;
/// use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
/// use lb_core::{InitialLoad, ShardedExecutor, Speeds};
/// use lb_graph::{generators, AlphaScheme};
///
/// let g = generators::hypercube(4)?;
/// let speeds = Speeds::uniform(16);
/// let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// let initial = InitialLoad::single_source(16, 0, 160);
/// let mut sharded = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo)?;
/// let mut sequential = sharded.clone();
/// let mut exec = ShardedExecutor::new(4);
/// for _ in 0..50 {
///     sharded.step_sharded(&mut exec);
///     sequential.step();
/// }
/// // Sharded execution is bit-identical to sequential execution.
/// assert_eq!(sharded.loads(), sequential.loads());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedExecutor {
    pool: ShardPool,
    plan: ShardPlan,
    scratch: Vec<ShardScratch>,
    /// Reusable cursors for the k-way merge of task outboxes.
    merge_cursor: Vec<usize>,
    /// The graph the current plan was built for.
    graph: Option<Arc<Graph>>,
}

impl ShardedExecutor {
    /// Creates an executor with `shards` shards (clamped to at least 1),
    /// spawning `shards − 1` persistent worker threads.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedExecutor {
            pool: ShardPool::new(shards - 1),
            plan: ShardPlan::empty(shards),
            scratch: (0..shards)
                .map(|_| ShardScratch {
                    out: SendBatch::default(),
                    sent: Forwarded::default(),
                })
                .collect(),
            merge_cursor: vec![0; shards],
            graph: None,
        }
    }

    /// The shard count this executor runs with.
    pub fn shard_count(&self) -> usize {
        self.scratch.len()
    }

    /// Binds the executor to `graph` ahead of time, building the shard plan
    /// and pre-sizing the per-shard outboxes. Calling this is optional —
    /// every sharded step rebinds lazily — but lets benchmarks and warm-up
    /// paths keep plan construction out of the measured region.
    pub fn bind(&mut self, graph: &Arc<Graph>) {
        self.ensure_plan(graph);
    }

    /// Rebinds the plan to `graph` if it changed (initial call, topology
    /// churn), pre-sizing the bounded per-shard outboxes. Allocation only
    /// happens here — never in a steady-state round on an unchanged graph.
    pub(crate) fn ensure_plan(&mut self, graph: &Arc<Graph>) {
        if self.graph.as_ref().is_some_and(|g| Arc::ptr_eq(g, graph)) {
            return;
        }
        self.plan = ShardPlan::build(self.shard_count(), graph);
        for (s, scratch) in self.scratch.iter_mut().enumerate() {
            let bound = self.plan.incident(s).len();
            scratch.out.tasks.clear();
            scratch.out.dummy = Vec::with_capacity(bound);
            scratch.out.tokens = Vec::with_capacity(bound);
            scratch.out.deltas = Vec::with_capacity(bound);
        }
        self.graph = Some(Arc::clone(graph));
    }

    /// The pool and the shard chunks, for the twin's parallel phases.
    pub(crate) fn split(&self) -> (&ShardPool, &Chunks) {
        (&self.pool, &self.plan.chunks)
    }

    /// Runs one discrete kernel call per shard, in parallel: shard `s` gets
    /// its incident edges, its node range of `items`/`dummy`, and its
    /// outbox.
    // lint: zero-alloc
    pub(crate) fn forward<Q: Send>(
        &mut self,
        items: &mut [Q],
        dummy: &mut [u64],
        kernel: impl Fn(&[EdgeId], Held<'_, Q>, &mut Outbox<'_>) -> Forwarded + Sync,
    ) {
        let items = SharedSliceMut::new(items);
        let dummy = SharedSliceMut::new(dummy);
        let scratch = SharedSliceMut::new(&mut self.scratch);
        let plan = &self.plan;
        self.pool.run(|s| {
            let nodes = plan.node_range(s);
            // SAFETY: scratch slot and node range belong to shard `s` alone;
            // node ranges partition `0..n`.
            let (scratch, items, dummy) = unsafe {
                let range = nodes.clone();
                (
                    scratch.get_mut(s),
                    items.range_mut(range.clone()),
                    dummy.range_mut(range),
                )
            };
            scratch.out.clear();
            let held = Held::new(nodes.start, items, dummy);
            scratch.sent = kernel(plan.incident(s), held, &mut Outbox::new(&mut scratch.out));
        });
    }

    /// The apply phase: drains every shard's outbox through
    /// [`apply_batches`] and returns the summed counters.
    // lint: zero-alloc
    pub(crate) fn apply<R: Rule>(
        &mut self,
        items: &mut [R::Item],
        dummy: &mut [u64],
        ledger: &mut [i64],
    ) -> Forwarded {
        let scratch = &self.scratch;
        let all = 0..dummy.len();
        let cursors = &mut self.merge_cursor;
        let applied = apply_batches::<R>(cursors, |s| &scratch[s].out, all, items, dummy, ledger);
        debug_assert!(applied.is_ok(), "shard outboxes name valid nodes and edges");
        let mut sent = Forwarded::default();
        for scratch in scratch {
            sent.items_sent += scratch.sent.items_sent;
            sent.dummy_created += scratch.sent.dummy_created;
        }
        sent
    }
}

/// The apply phase both executors share. First the task deliveries of the
/// `cursors.len()` batches (`batch(i)`, each ascending by edge id) reach the
/// receivers in `owned` in **global edge order**: a k-way merge, which
/// reproduces the order the sequential engine pushes its deliveries in
/// because each edge has one sender-owner per round, so no two batches
/// share an edge. Then every batch's additive effects land: dummy transfers
/// and token moves for receivers in `owned`, and every ledger delta (one for
/// an edge the engine does not track lands in a stale slot that is never
/// read).
///
/// # Errors
///
/// Returns [`CoreError::Federation`] when a batch names an unknown edge or
/// moves tokens on a task engine: a peer process's batch is outside input.
// lint: zero-alloc
pub(crate) fn apply_batches<'a, R: Rule>(
    cursors: &mut [usize],
    batch: impl Fn(usize) -> &'a SendBatch,
    owned: Range<NodeId>,
    items: &mut [R::Item],
    dummy: &mut [u64],
    ledger: &mut [i64],
) -> Result<(), CoreError> {
    cursors.fill(0);
    loop {
        let mut best: Option<(EdgeId, usize)> = None;
        for (i, cursor) in cursors.iter_mut().enumerate() {
            let tasks = &batch(i).tasks;
            while tasks
                .get(*cursor)
                .is_some_and(|&(_, r, _)| !owned.contains(&r))
            {
                *cursor += 1;
            }
            if let Some(&(edge, _, _)) = tasks.get(*cursor) {
                if best.is_none_or(|(e, _)| edge < e) {
                    best = Some((edge, i));
                }
            }
        }
        let Some((_, i)) = best else { break };
        let (_, receiver, task) = batch(i).tasks[cursors[i]];
        cursors[i] += 1;
        R::deliver(&mut items[receiver], task);
    }
    let tokens = R::tokens(items);
    for i in 0..cursors.len() {
        let batch = batch(i);
        for &(receiver, amount) in &batch.dummy {
            if owned.contains(&receiver) {
                dummy[receiver] += amount;
            }
        }
        for &(receiver, real, held) in &batch.tokens {
            if owned.contains(&receiver) {
                let slot = tokens.get_mut(receiver);
                *slot.ok_or_else(|| malformed("token move on a task engine, node", receiver))? +=
                    real;
                dummy[receiver] += held;
            }
        }
        for &(e, delta) in &batch.deltas {
            *ledger
                .get_mut(e)
                .ok_or_else(|| malformed("flow delta for unknown edge", e))? += delta;
        }
    }
    Ok(())
}

fn malformed(what: &str, index: usize) -> CoreError {
    CoreError::federation(format!("{what} {index}"))
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("shards", &self.shard_count())
            .field("bound", &self.graph.as_ref().map(|g| g.name().to_string()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn plan_partitions_nodes_and_edges() {
        let g = generators::torus(6, 6).unwrap();
        for shards in [1, 2, 3, 7, 64] {
            let plan = ShardPlan::build(shards, &g);
            assert_eq!(plan.shard_count(), shards);
            // Node ranges partition 0..n; edge ranges partition 0..m.
            let mut node = 0;
            let mut edge = 0;
            for s in 0..shards {
                assert_eq!(plan.node_range(s).start, node);
                node = plan.node_range(s).end;
                assert_eq!(plan.edge_range(s).start, edge);
                edge = plan.edge_range(s).end;
                // An owned edge's lower endpoint lies in the node range.
                for e in plan.edge_range(s) {
                    let (u, _) = g.edges()[e];
                    assert!(plan.node_range(s).contains(&u));
                }
                // Incident lists are sorted and cover the node range.
                let incident = plan.incident(s);
                assert!(incident.windows(2).all(|w| w[0] < w[1]));
            }
            assert_eq!(node, g.node_count());
            assert_eq!(edge, g.edge_count());
            // Every edge is incident to exactly the shards of its endpoints.
            let total: usize = (0..shards).map(|s| plan.incident(s).len()).sum();
            assert!(total >= g.edge_count());
            assert!(total <= 2 * g.edge_count());
        }
    }

    #[test]
    fn chunks_partition_a_sub_range() {
        let g = generators::torus(6, 6).unwrap();
        for (part, count) in [(5..23, 1), (5..23, 3), (0..36, 4), (30..36, 8)] {
            let chunks = Chunks::build(&g, part.clone(), count);
            assert_eq!(chunks.count(), count);
            assert_eq!(chunks.nodes(), part);
            let edges = g.edges();
            for c in 0..count {
                let nodes = chunks.node_range(c);
                assert!(nodes.start <= nodes.end);
                if c + 1 < count {
                    assert_eq!(nodes.end, chunks.node_range(c + 1).start);
                }
                // A chunk's edge range holds exactly its nodes' canonical edges.
                for e in chunks.edge_range(c) {
                    assert!(nodes.contains(&edges[e].0));
                }
                let owned = edges.iter().filter(|&&(u, _)| nodes.contains(&u)).count();
                assert_eq!(chunks.edge_range(c).len(), owned);
            }
        }
    }

    #[test]
    fn pool_runs_every_shard_exactly_once() {
        let pool = ShardPool::new(3);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..100 {
            pool.run(|s| {
                hits[s].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn pool_survives_panicking_phases() {
        // A panic on a worker shard must not deadlock `run`, and a panic on
        // the caller's shard must not free the job closure under running
        // workers; both re-raise on the caller and leave the pool usable.
        let pool = ShardPool::new(2);
        for &bad_shard in &[1usize, 0] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|s| {
                    if s == bad_shard {
                        panic!("phase failure on shard {s}");
                    }
                });
            }));
            assert!(result.is_err(), "panic on shard {bad_shard} propagates");
        }
        // The pool still dispatches cleanly after both failure modes.
        let hits: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        pool.run(|s| {
            hits[s].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn executor_rebinds_on_graph_change() {
        let g1: Arc<Graph> = Arc::new(generators::hypercube(3).unwrap());
        let g2: Arc<Graph> = Arc::new(generators::torus(4, 4).unwrap());
        let mut exec = ShardedExecutor::new(2);
        exec.ensure_plan(&g1);
        assert_eq!(exec.plan.node_range(1).end, 8);
        exec.ensure_plan(&g2);
        assert_eq!(exec.plan.node_range(1).end, 16);
        // Same Arc: no rebuild needed (checked by identity).
        exec.ensure_plan(&g2);
        assert_eq!(exec.shard_count(), 2);
    }
}
