//! The discrete-event kernel.
//!
//! The kernel owns virtual time, the event heap, all resource state (CPU
//! actions, network flows, injected load) and the process table. Simulated
//! processes run on real threads but strictly one at a time: the kernel
//! resumes a process, waits for its next request, and only then considers
//! the next runnable process or event. Runs are therefore deterministic.
//!
//! Resource completion times are maintained lazily: whenever the demand set
//! churns (an action or flow starts or ends, load changes), rates are
//! re-derived from the sharing model and fresh completion events (tagged
//! with a per-action generation counter) are pushed; stale events are
//! ignored on pop and periodically compacted out of the heap.
//!
//! Rate recomputation is *scoped*: every churn marks the hosts and links it
//! touched dirty, and only churned hosts' CPU shares and the network
//! sharing components reachable from dirty links are re-solved
//! ([`RecomputeMode::Incremental`], the default). Flows and actions whose
//! rate did not change keep their generation and their already-scheduled
//! completion event. [`RecomputeMode::Full`] runs the same solver over
//! everything on each churn (the reference for the determinism gate), and
//! [`RecomputeMode::Legacy`] preserves the pre-change kernel — global
//! re-solve, unconditional re-stamping — as a benchmark baseline.

use crate::equeue::{class_key, Event, EventKind, IndexedHeap, ShardedHeap, MAX_SHARDS, NO_HANDLE};
use crate::handoff::{multicore, HandoffSlot, KernelThread};
use crate::maildir::{MailDir, QueuedSend};
use crate::process::{
    Ctx, Endpoint, Grant, KillToken, MailKey, Payload, ProcFn, ProcId, Request, SendMode,
};
use crate::sharing::{cpu_share, FairScratch};
use crate::topology::{Grid, HostId, LinkId};
use crate::trace::{Trace, TraceKind, TraceRecord};
use crate::window::{Job, WindowPolicy, WorkerPool};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once, OnceLock};
use std::thread::JoinHandle;

/// How the kernel re-derives rates when the demand set churns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecomputeMode {
    /// The pre-change kernel: re-derive every CPU and flow rate globally on
    /// each churn, re-stamp every generation and re-push every completion
    /// event. Kept as the baseline for the scalability benchmark.
    Legacy,
    /// Scope-everything variant of the incremental path: identical
    /// per-component solver and skip-unchanged stamping, but every host and
    /// every sharing component is revisited on each churn. Reference side
    /// of the determinism gate.
    Full,
    /// Dirty-set scoped recomputation (the default): only churned hosts and
    /// the sharing components reachable from churned links are re-solved.
    #[default]
    Incremental,
}

/// *When* the kernel re-derives rates relative to the churn that dirtied
/// them.
///
/// Rates are only observable through the work they accrue, and work accrues
/// only while virtual time advances — so any number of same-instant churn
/// events (a collective starting dozens of flows at one timestamp, a load
/// inject/remove pair, a compute storm at a barrier) can share a single
/// solve as long as it lands before the clock moves past that instant. Both
/// timings produce bit-identical [`RunReport`]s in every
/// [`RecomputeMode`] × [`KernelMode`] combination
/// (`tests/prop_coalesced.rs`, `tests/determinism.rs`); DESIGN.md
/// ("Coalesced recomputation") carries the soundness argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecomputeTiming {
    /// Solve inline on every churn event — the reference and the default.
    #[default]
    Eager,
    /// Churn only marks dirty sets; one solve runs per virtual instant, at
    /// the point the kernel is about to pop a completion event or advance
    /// past the current timestamp. A same-time churn burst of size *k*
    /// collapses from *k* solves to one.
    Coalesced,
}

/// Which process ↔ kernel transport newly spawned processes use.
///
/// Both transports carry the same messages in the same order — the kernel
/// and exactly one running process alternate — so results are bit-identical
/// across modes; `tests/determinism.rs` holds the kernel to that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandoffMode {
    /// The seed transport: one shared request mpsc into the kernel plus a
    /// per-process grant mpsc back. Two heap-allocated channel nodes and
    /// two OS wakeups per primitive. Kept as the benchmark baseline.
    Channel,
    /// Per-process single-slot rendezvous (`sim::handoff`): one atomic
    /// state word, in-place message cells, spin-then-park waiting. The
    /// default.
    #[default]
    Direct,
}

/// Which event-queue implementation the kernel uses.
///
/// Both queues pop in the same strict total order on `(t, class, key, seq)`
/// and both receive exactly the same live events, so results are
/// bit-identical across modes (`tests/prop_equeue.rs`,
/// `tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventQueueMode {
    /// The seed queue: plain binary heap; cancelled completions stay in the
    /// heap as stale events, discarded on pop and shed by
    /// [`CompactionPolicy`] rebuilds. Kept as the benchmark baseline.
    StaleMark,
    /// Position-tracked heap (`equeue::IndexedHeap`):
    /// cancellations remove their event in O(log n), the heap holds only
    /// live events and compaction never runs. The default.
    #[default]
    Indexed,
}

/// How the kernel's run loop organises event execution.
///
/// The serial loop is the reference. [`KernelMode::Windowed`] is the
/// conservative-parallel organisation of the *same* event sequence:
/// the indexed event queue is sharded by cluster, cluster-local event
/// windows (bounded by the topology's minimum WAN link latency, see
/// [`Grid::min_wan_latency`]) are pre-drained concurrently on a worker
/// pool, and the pre-drained batches are merged with live shard minima
/// under the kernel's strict `(t, class, key, seq)` total order — so the
/// applied-event sequence, and with it every result bit, is identical to
/// the serial kernel at any worker count. Pre-drained completions that a
/// mid-window re-stamp invalidates are caught by the same generation
/// check that already guards stale-marked events. DESIGN.md ("Parallel
/// kernel") documents the protocol; `tests/prop_windowed.rs` and
/// `tests/substrate_determinism.rs` pin the bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// One event at a time off one queue — the reference and the default.
    #[default]
    Serial,
    /// Conservative parallel windows over cluster shards. `workers` is the
    /// total executor count (1 = the kernel thread alone, still exercising
    /// the window/merge machinery; n > 1 adds n − 1 pool threads).
    Windowed {
        /// Total concurrent executors, kernel thread included.
        workers: u32,
    },
}

/// Substrate tuning knobs bundled for experiment drivers. Apply with
/// [`Engine::apply_tune`] before spawning processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTune {
    /// Transport for subsequently spawned processes.
    pub handoff: HandoffMode,
    /// Event-queue implementation.
    pub queue: EventQueueMode,
    /// Run-loop organisation. [`KernelMode::Windowed`] implies (and
    /// forces) the indexed queue, sharded by cluster.
    pub kernel: KernelMode,
    /// When rate solves run relative to churn ([`RecomputeTiming`]).
    pub recompute: RecomputeTiming,
}

/// When the kernel rebuilds the event heap to shed stale completion
/// events (completions whose generation no longer matches a live
/// action/flow).
///
/// Compaction runs only when **both** thresholds are exceeded: more than
/// `min_stale` stale events are pending *and* they make up more than
/// `min_stale_fraction` of the heap. The default (64 / 0.5) matches the
/// previously hard-coded policy bit-for-bit. Compaction is purely a heap
/// rebuild — pop order is a strict total order on `(t, class, key, seq)`,
/// so no policy choice can reorder live events or perturb results; the
/// `compaction_policy_does_not_perturb_results` regression holds the
/// kernel to that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact only when more than this many stale events are pending.
    /// `usize::MAX` disables compaction entirely.
    pub min_stale: usize,
    /// Compact only when stale events exceed this fraction of the heap
    /// (`0.5` = more than half the heap is dead weight).
    pub min_stale_fraction: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_stale: 64,
            min_stale_fraction: 0.5,
        }
    }
}

impl CompactionPolicy {
    /// Never compact (keeps every stale event until it is popped and
    /// discarded individually).
    pub fn never() -> Self {
        CompactionPolicy {
            min_stale: usize::MAX,
            min_stale_fraction: 1.0,
        }
    }

    /// Whether a heap with `stale` stale events out of `len` total should
    /// be compacted now.
    #[inline]
    pub fn should_compact(&self, stale: usize, len: usize) -> bool {
        // `stale as f64` is exact for any realistic heap (< 2^53 events),
        // so with the default 0.5 fraction this is bit-identical to the
        // old `stale * 2 <= len` integer test.
        stale > self.min_stale && (stale as f64) > self.min_stale_fraction * (len as f64)
    }
}

/// Outcome of a simulation run.
///
/// `PartialEq` is bitwise on every floating-point field; two reports compare
/// equal only if the runs were numerically identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Virtual time when the run ended.
    pub end_time: f64,
    /// Names of processes that ran to completion.
    pub completed: Vec<String>,
    /// `(name, panic message)` for processes that panicked.
    pub failed: Vec<(String, String)>,
    /// Names of processes still blocked when the run ended (deadlocked, or
    /// cut off by `run_until`).
    pub unfinished: Vec<String>,
    /// Names of processes that died with their host (fault injection).
    pub died: Vec<String>,
    /// Flops executed per host over the run (indexable by `HostId.0`).
    pub host_flops: Vec<f64>,
    /// Bytes carried per link over the run (indexable by `LinkId.0`).
    pub link_bytes: Vec<f64>,
    /// Kernel events applied over the run (stale completions excluded).
    /// Identical across recompute modes for the same scenario, which makes
    /// it the numerator of the benchmark's events/sec metric.
    pub events_processed: u64,
    /// Full trace of the run.
    pub trace: Trace,
}

impl RunReport {
    /// Average utilization of a host over the run: flops executed divided
    /// by aggregate capacity (`speed * cores`) × duration, so a fully busy
    /// host reports 1.0 regardless of core count.
    pub fn host_utilization(&self, grid: &Grid, host: HostId) -> f64 {
        let h = grid.host(host);
        if self.end_time <= 0.0 {
            return 0.0;
        }
        self.host_flops[host.0 as usize] / (h.speed * h.cores as f64 * self.end_time)
    }

    /// Average utilization of a link over the run: bytes carried over
    /// capacity × duration.
    pub fn link_utilization(&self, grid: &Grid, link: LinkId) -> f64 {
        let l = grid.link(link);
        if self.end_time <= 0.0 {
            return 0.0;
        }
        self.link_bytes[link.0 as usize] / (l.bandwidth * self.end_time)
    }
}

struct CpuAction {
    host: usize,
    pid: ProcId,
    remaining: f64,
    rate: f64,
    gen: u64,
    /// Pending `CpuDone` handle in the indexed queue ([`NO_HANDLE`] when no
    /// completion is scheduled or the queue is in stale-mark mode).
    ev: u32,
    /// Virtual time of the pending completion event (`INFINITY` when none
    /// is scheduled). A solve never re-stamps an action whose completion
    /// is due *exactly now*: the event fires this instant regardless of
    /// the new rate, and re-deriving its time from the accrued residual
    /// (rounding noise) would stagger bitwise-synchronized completion
    /// waves by ulps — the rule that keeps eager and coalesced recompute
    /// timing bit-identical (see [`Engine::must_flush_before`]).
    due: f64,
}

enum OnDone {
    /// Raw transfer: wake this process.
    Wake(ProcId),
    /// Eager message: deliver to the mailbox (or a waiting receiver).
    Deliver { key: MailKey },
    /// Rendezvous message: deliver to the reserved receiver, wake the sender.
    Rendezvous { recv: ProcId, send: ProcId },
}

struct Flow {
    /// Index into the engine's interned route table.
    route: u32,
    /// Original transfer size in bytes; `link_bytes` is credited once per
    /// link when the flow terminates instead of on every accrual sweep.
    size: f64,
    remaining: f64,
    rate: f64,
    gen: u64,
    active: bool,
    /// Position in `Engine::active_flows`, or `u32::MAX` when not listed.
    act_idx: u32,
    /// Pending `FlowDone` handle in the indexed queue ([`NO_HANDLE`] when no
    /// completion is scheduled or the queue is in stale-mark mode).
    ev: u32,
    /// Virtual time of the pending completion event (`INFINITY` when none
    /// is scheduled); same due-now re-stamp guard as [`CpuAction::due`].
    due: f64,
    /// Event partition this flow's events belong to (its source host's
    /// cluster); fixed for the flow's lifetime. Only meaningful under
    /// [`KernelMode::Windowed`], but cheap enough to stamp always.
    part: u32,
    payload: Option<Payload>,
    on_done: OnDone,
}

/// An interned route: resolved once per (src, dst) pair, then shared by
/// every flow on that pair instead of cloning a `Vec<LinkId>` per flow and
/// per recompute.
struct RouteEntry {
    links: Box<[u32]>,
    latency: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Alive,
    Done,
    Failed,
    /// Killed by a host failure (fault injection).
    Died,
}

/// Kernel-side end of one process's transport.
enum ProcPort {
    Channel(Sender<(Grant, f64)>),
    Direct(Arc<HandoffSlot>),
}

impl ProcPort {
    /// Send a grant stamped with the kernel's virtual time `now`, which
    /// the process caches as its clock until its next grant.
    fn send_grant(&self, g: Grant, now: f64) {
        match self {
            ProcPort::Channel(tx) => {
                let _ = tx.send((g, now));
            }
            ProcPort::Direct(slot) => slot.send_grant(g, now),
        }
    }
}

struct ProcSlot {
    name: Arc<str>,
    host: HostId,
    port: ProcPort,
    join: Option<JoinHandle<()>>,
    state: PState,
}

/// Epoch-stamped sparse map from small indices to `u32` values. `begin`
/// invalidates all entries in O(1); used for dirty-set membership, BFS
/// visit marks and global→component-local link index mapping without
/// per-recompute clearing.
#[derive(Default, Debug)]
struct EpochMap {
    epoch: u64,
    slots: Vec<(u64, u32)>,
}

impl EpochMap {
    fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, (0, 0));
        }
    }
    fn begin(&mut self) {
        self.epoch += 1;
    }
    fn contains(&self, i: usize) -> bool {
        self.slots[i].0 == self.epoch
    }
    fn get(&self, i: usize) -> Option<u32> {
        let (e, v) = self.slots[i];
        if e == self.epoch {
            Some(v)
        } else {
            None
        }
    }
    fn set(&mut self, i: usize, v: u32) {
        self.slots[i] = (self.epoch, v);
    }
}

/// Reusable buffers for scoped rate recomputation.
#[derive(Default)]
struct RateScratch {
    scoped_hosts: Vec<u32>,
    link_stack: Vec<u32>,
    comp_flows: Vec<u32>,
    offsets: Vec<(u32, u32)>,
    links_flat: Vec<u32>,
    caps_local: Vec<f64>,
    rates: Vec<f64>,
    fair: FairScratch,
    flow_mark: EpochMap,
    comp_link_mark: EpochMap,
    link_local: EpochMap,
    route_tmp: Vec<u32>,
    /// Per component flow (sorted by id): index of its route class.
    class_of: Vec<u32>,
    /// Per route class: member-flow count (the solver's multiplicity).
    class_mult: Vec<u32>,
    /// Per route class: the solved per-flow rate.
    class_rates: Vec<f64>,
    /// Route id → class index for the component being solved.
    route_class: EpochMap,
}

/// The kernel's pending-event queue, in one of the [`EventQueueMode`]
/// implementations (plus the cluster-sharded indexed variant the windowed
/// kernel uses). All pop the identical `(t, class, key, seq)` order.
enum EventQueue {
    Stale(BinaryHeap<Event>),
    Indexed(IndexedHeap),
    /// Indexed heaps sharded by cluster partition ([`KernelMode::Windowed`]).
    Sharded(ShardedHeap),
}

impl EventQueue {
    fn len(&self) -> usize {
        match self {
            EventQueue::Stale(h) => h.len(),
            EventQueue::Indexed(h) => h.len(),
            EventQueue::Sharded(h) => h.len(),
        }
    }

    fn peek(&self) -> Option<&Event> {
        match self {
            EventQueue::Stale(h) => h.peek(),
            EventQueue::Indexed(h) => h.peek(),
            EventQueue::Sharded(h) => h.peek(),
        }
    }

    fn pop(&mut self) -> Option<Event> {
        match self {
            EventQueue::Stale(h) => h.pop(),
            EventQueue::Indexed(h) => h.pop(),
            EventQueue::Sharded(h) => h.pop(),
        }
    }
}

/// Raw pointers to the engine's entity tables, for pool jobs operating on
/// provably disjoint index sets (per-shard window drains, per-partition
/// accrual). Plain `&mut` splitting cannot express "disjoint by partition
/// membership", so the jobs carry these instead.
#[derive(Clone, Copy)]
struct EntityPtrs {
    cpu: *mut Option<CpuAction>,
    flows: *mut Option<Flow>,
    host_flops: *mut f64,
}

// SAFETY: the pointee types are all Send (plain data plus `Box<dyn Any +
// Send>` payloads), and every job batch partitions the index space so no
// element is touched by two jobs; `WorkerPool::run_batch` returns only
// after all jobs finished, bounding the borrows.
unsafe impl Send for EntityPtrs {}

/// Where the windowed merge found its globally next event.
#[derive(Clone, Copy)]
enum WindowSource {
    /// The live sharded heap.
    Heap,
    /// The staged pre-drained window of this shard.
    Staged(usize),
}

/// The grid emulator.
///
/// ```
/// use grads_sim::topology::{GridBuilder, HostSpec};
/// use grads_sim::engine::Engine;
///
/// let mut b = GridBuilder::new();
/// let c = b.cluster("LOCAL");
/// let hosts = b.add_hosts(c, 1, &HostSpec::with_speed(100.0));
/// let mut eng = Engine::new(b.build().unwrap());
/// eng.spawn("worker", hosts[0], |ctx| {
///     ctx.compute(250.0); // 2.5 virtual seconds at 100 flop/s
///     let t = ctx.now();
///     ctx.trace("done", t);
/// });
/// let report = eng.run();
/// assert!((report.trace.last_value("done").unwrap() - 2.5).abs() < 1e-9);
/// ```
pub struct Engine {
    grid: Grid,
    now: f64,
    last_advance: f64,
    seq: u64,
    events: EventQueue,
    procs: Vec<ProcSlot>,
    cpu: Vec<Option<CpuAction>>,
    flows: Vec<Option<Flow>>,
    mailboxes: MailDir,
    host_load: Vec<f64>,
    host_alive: Vec<bool>,
    host_flops: Vec<f64>,
    link_bytes: Vec<f64>,
    /// Monotone counter for action/flow completion generations. Must be
    /// globally unique: slots are reused, and a per-slot counter restarting
    /// at zero lets a stale completion event fire on a *new* occupant.
    gen_counter: u64,
    runnable: VecDeque<(ProcId, Grant)>,
    running: Option<ProcId>,
    req_tx: Sender<(ProcId, Request)>,
    req_rx: Receiver<(ProcId, Request)>,
    handoff: HandoffMode,
    /// The OS thread the run loop executes on; direct-handoff processes
    /// unpark it when publishing a request. Set when `run_until` starts
    /// (the engine may be built on a different thread than it runs on).
    kernel_thread: KernelThread,
    trace: Trace,
    /// Interned names of completed processes; materialized into the
    /// report's `String`s once at `finish` instead of allocating per exit.
    completed: Vec<Arc<str>>,
    failed: Vec<(String, String)>,
    mode: RecomputeMode,
    /// When solves run relative to churn ([`RecomputeTiming`]).
    timing: RecomputeTiming,
    /// Churn notifications since the last solve (0 = rates are current).
    /// Always 0 between events under [`RecomputeTiming::Eager`].
    pending_churn: u32,
    /// Rate solves actually executed (== `recomputes` under `Eager`).
    solves: u64,
    /// Churn notifications absorbed into a shared solve (`Coalesced` only).
    coalesced_absorbed: u64,
    routes_tbl: Vec<RouteEntry>,
    route_ids: HashMap<(u32, u32), u32>,
    /// Route interning dedups by content: host pairs whose routes traverse
    /// the identical link list (every pair in the same cluster pair, for
    /// the standard topologies) share one route id, which is what makes
    /// the per-route-class aggregated solve collapse all-to-all traffic
    /// from O(P²) flows to O(clusters²) solver classes.
    route_contents: HashMap<(Box<[u32]>, u64), u32>,
    /// Per-link capacity, hoisted out of the solve loops (the legacy
    /// reference used to rebuild this vector on every recompute).
    link_caps: Vec<f64>,
    /// Live CPU action ids per host; the length doubles as the action count
    /// the CPU sharing model needs.
    host_actions: Vec<Vec<u32>>,
    /// Active flow ids per link — the flow/link adjacency the component
    /// flood walks.
    link_flows: Vec<Vec<u32>>,
    /// Flows currently transferring — the accrual sweep walks this instead
    /// of scanning every slot. Order is maintained deterministically
    /// (push on activate, swap-remove on completion) and only independent
    /// per-flow updates iterate it, so it never affects results.
    active_flows: Vec<u32>,
    free_cpu: Vec<u32>,
    free_flows: Vec<u32>,
    dirty_hosts: Vec<u32>,
    dirty_links: Vec<u32>,
    dirty_host_mark: EpochMap,
    dirty_link_mark: EpochMap,
    /// Completion events in the heap whose generation no longer matches a
    /// live action/flow. When the heap is mostly stale it is rebuilt.
    stale_events: usize,
    events_processed: u64,
    stale_discarded: u64,
    compactions: u64,
    recomputes: u64,
    compaction: CompactionPolicy,
    /// Run-loop organisation ([`KernelMode`]); `Windowed` keeps `events`
    /// in the [`EventQueue::Sharded`] variant.
    kernel: KernelMode,
    /// Host → event partition (cluster index, folded into [`MAX_SHARDS`]).
    part_of_host: Vec<u32>,
    /// Partition count (= shard count of the sharded queue).
    nparts: u32,
    /// Window width: the grid's minimum WAN link latency, or infinity on a
    /// single-cluster grid (the per-shard drain cap bounds the window then).
    lookahead: f64,
    /// Per-shard pre-drained event windows, each in pop order. The merge
    /// loop consumes these against the live shard minima.
    staged: Vec<VecDeque<Event>>,
    staged_total: usize,
    /// Helper threads for window drains and accrual sweeps (`Windowed`
    /// with more than one worker only).
    pool: Option<WorkerPool>,
    wpolicy: WindowPolicy,
    windows_planned: u64,
    events_predrained: u64,
    /// Scratch: live CPU action ids bucketed by partition, each bucket in
    /// ascending id order (the serial accrual traversal order). Rebuilt per
    /// parallel sweep.
    accrual_parts: Vec<Vec<u32>>,
    obs: grads_obs::Obs,
    rec: grads_obs::Recorder,
    scratch: RateScratch,
    /// If true (the default), `run` panics when any simulated process
    /// panicked, so test failures inside processes surface in the harness.
    pub panic_on_failure: bool,
}

static QUIET_KILL_HOOK: Once = Once::new();

fn install_quiet_kill_hook() {
    QUIET_KILL_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KillToken>().is_none() {
                prev(info);
            }
        }));
    });
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Engine {
    /// Create an engine over a built topology.
    pub fn new(grid: Grid) -> Self {
        install_quiet_kill_hook();
        let (req_tx, req_rx) = unbounded();
        let nhosts = grid.hosts().len();
        let nlinks = grid.links().len();
        let mut dirty_host_mark = EpochMap::default();
        dirty_host_mark.ensure(nhosts);
        dirty_host_mark.begin();
        let mut dirty_link_mark = EpochMap::default();
        dirty_link_mark.ensure(nlinks);
        dirty_link_mark.begin();
        let mut scratch = RateScratch::default();
        scratch.comp_link_mark.ensure(nlinks);
        scratch.link_local.ensure(nlinks);
        let nparts = grid.clusters().len().clamp(1, MAX_SHARDS) as u32;
        let part_of_host = grid.hosts().iter().map(|h| h.cluster.0 % nparts).collect();
        let lookahead = grid.min_wan_latency().unwrap_or(f64::INFINITY);
        let link_caps = grid.links().iter().map(|l| l.bandwidth).collect();
        Engine {
            grid,
            now: 0.0,
            last_advance: 0.0,
            seq: 0,
            events: EventQueue::Indexed(IndexedHeap::default()),
            procs: Vec::new(),
            cpu: Vec::new(),
            flows: Vec::new(),
            mailboxes: MailDir::new(),
            host_load: vec![0.0; nhosts],
            host_alive: vec![true; nhosts],
            host_flops: vec![0.0; nhosts],
            link_bytes: vec![0.0; nlinks],
            gen_counter: 1,
            runnable: VecDeque::new(),
            running: None,
            req_tx,
            req_rx,
            handoff: HandoffMode::default(),
            kernel_thread: Arc::new(OnceLock::new()),
            trace: Trace::default(),
            completed: Vec::new(),
            failed: Vec::new(),
            mode: RecomputeMode::default(),
            timing: RecomputeTiming::default(),
            pending_churn: 0,
            solves: 0,
            coalesced_absorbed: 0,
            routes_tbl: Vec::new(),
            route_ids: HashMap::new(),
            route_contents: HashMap::new(),
            link_caps,
            host_actions: vec![Vec::new(); nhosts],
            link_flows: vec![Vec::new(); nlinks],
            free_cpu: Vec::new(),
            active_flows: Vec::new(),
            free_flows: Vec::new(),
            dirty_hosts: Vec::new(),
            dirty_links: Vec::new(),
            dirty_host_mark,
            dirty_link_mark,
            stale_events: 0,
            events_processed: 0,
            stale_discarded: 0,
            compactions: 0,
            recomputes: 0,
            compaction: CompactionPolicy::default(),
            kernel: KernelMode::default(),
            part_of_host,
            nparts,
            lookahead,
            staged: Vec::new(),
            staged_total: 0,
            pool: None,
            wpolicy: WindowPolicy::default(),
            windows_planned: 0,
            events_predrained: 0,
            accrual_parts: Vec::new(),
            obs: grads_obs::Obs::disabled(),
            rec: grads_obs::Recorder::disabled(),
            scratch,
            panic_on_failure: true,
        }
    }

    /// The topology this engine emulates.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Select the rate recomputation strategy (default:
    /// [`RecomputeMode::Incremental`]).
    pub fn set_recompute_mode(&mut self, mode: RecomputeMode) {
        self.mode = mode;
    }

    /// The active rate recomputation strategy.
    pub fn recompute_mode(&self) -> RecomputeMode {
        self.mode
    }

    /// Select when rate solves run relative to churn (default:
    /// [`RecomputeTiming::Eager`]). Safe to switch any time the engine is
    /// not mid-run; composes with every [`RecomputeMode`] and
    /// [`KernelMode`] without perturbing a result bit.
    pub fn set_recompute_timing(&mut self, t: RecomputeTiming) {
        debug_assert_eq!(
            self.pending_churn, 0,
            "switch recompute timing between runs, not mid-burst"
        );
        self.timing = t;
    }

    /// The active recompute timing.
    pub fn recompute_timing(&self) -> RecomputeTiming {
        self.timing
    }

    /// Select the process ↔ kernel transport for *subsequently spawned*
    /// processes (default: [`HandoffMode::Direct`]). Call before spawning;
    /// already-spawned processes keep their transport (mixing modes in one
    /// run is fine — each process's port is dispatched independently).
    pub fn set_handoff_mode(&mut self, m: HandoffMode) {
        self.handoff = m;
    }

    /// The transport newly spawned processes will use.
    pub fn handoff_mode(&self) -> HandoffMode {
        self.handoff
    }

    /// Select the event-queue implementation (default:
    /// [`EventQueueMode::Indexed`]). Call before `run`: already-scheduled
    /// start/load/failure events migrate, but completion events (which only
    /// exist once the run is underway) would lose their cancellation
    /// handles. A no-op while the windowed kernel holds the queue sharded;
    /// switch back to [`KernelMode::Serial`] first.
    pub fn set_event_queue_mode(&mut self, m: EventQueueMode) {
        match (&mut self.events, m) {
            (EventQueue::Stale(h), EventQueueMode::Indexed) => {
                let mut ih = IndexedHeap::default();
                // Insertion order is irrelevant: pop order is a strict
                // total order on (t, class, key, seq).
                for ev in std::mem::take(h).into_vec() {
                    ih.push(ev);
                }
                self.events = EventQueue::Indexed(ih);
            }
            (EventQueue::Indexed(ih), EventQueueMode::StaleMark) => {
                let mut v = Vec::with_capacity(ih.len());
                while let Some(ev) = ih.pop() {
                    v.push(ev);
                }
                self.events = EventQueue::Stale(BinaryHeap::from(v));
            }
            _ => {}
        }
    }

    /// The active event-queue implementation. The windowed kernel's
    /// sharded queue *is* the indexed heap, partitioned, and reports as
    /// [`EventQueueMode::Indexed`].
    pub fn event_queue_mode(&self) -> EventQueueMode {
        match self.events {
            EventQueue::Stale(_) => EventQueueMode::StaleMark,
            EventQueue::Indexed(_) | EventQueue::Sharded(_) => EventQueueMode::Indexed,
        }
    }

    /// Select the run-loop organisation (default: [`KernelMode::Serial`]).
    /// Call before `run`. Switching to [`KernelMode::Windowed`] converts
    /// the queue to its cluster-sharded form (migrating pending events and
    /// their cancellation handles) and starts the worker pool; switching
    /// back restores a single indexed heap. Mode choice and worker count
    /// cannot affect results — `tests/prop_windowed.rs` pins that.
    pub fn set_kernel_mode(&mut self, m: KernelMode) {
        assert_eq!(self.staged_total, 0, "switch kernel modes before running");
        self.kernel = m;
        match m {
            KernelMode::Serial => {
                self.pool = None;
                if let EventQueue::Sharded(_) = self.events {
                    let mut ih = IndexedHeap::default();
                    while let Some(ev) = self.events.pop() {
                        let owner = Self::completion_owner(&ev.kind);
                        let h = ih.push(ev);
                        self.patch_owner_handle(owner, h);
                    }
                    self.events = EventQueue::Indexed(ih);
                }
            }
            KernelMode::Windowed { workers } => {
                if !matches!(self.events, EventQueue::Sharded(_)) {
                    let mut sh = ShardedHeap::new(self.nparts as usize);
                    while let Some(ev) = self.events.pop() {
                        let shard = self.shard_for(&ev.kind);
                        let owner = Self::completion_owner(&ev.kind);
                        let h = sh.push(shard, ev);
                        self.patch_owner_handle(owner, h);
                    }
                    self.events = EventQueue::Sharded(sh);
                }
                if let EventQueue::Sharded(sh) = &self.events {
                    debug_assert_eq!(
                        sh.nshards(),
                        self.nparts as usize,
                        "shard count tracks the grid's partition count"
                    );
                }
                if self.staged.len() != self.nparts as usize {
                    self.staged = (0..self.nparts).map(|_| VecDeque::new()).collect();
                }
                let helpers = workers.saturating_sub(1) as usize;
                if self.pool.as_ref().map(|p| p.workers()) != Some(helpers) {
                    self.pool = if helpers > 0 {
                        Some(WorkerPool::new(helpers))
                    } else {
                        None
                    };
                }
            }
        }
    }

    /// The active run-loop organisation.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Tune the windowed kernel's dispatch thresholds (see
    /// [`WindowPolicy`]). Scheduling only — any policy yields bit-identical
    /// results; `windowed_policy_does_not_perturb_results` pins that.
    pub fn set_window_policy(&mut self, p: WindowPolicy) {
        self.wpolicy = p;
    }

    /// The active windowed-kernel policy.
    pub fn window_policy(&self) -> WindowPolicy {
        self.wpolicy
    }

    /// Apply a bundle of substrate tuning knobs. Call before spawning.
    pub fn apply_tune(&mut self, t: EngineTune) {
        self.set_handoff_mode(t.handoff);
        self.set_event_queue_mode(t.queue);
        self.set_kernel_mode(t.kernel);
        self.set_recompute_timing(t.recompute);
    }

    /// The event partition an event belongs to: the cluster of the host
    /// whose state it mutates (flows are keyed by their *source* host's
    /// cluster for their whole lifetime).
    fn shard_for(&self, kind: &EventKind) -> u32 {
        match kind {
            EventKind::Start(pid) | EventKind::SleepDone(pid) => {
                self.part_of_host[self.procs[pid.0 as usize].host.0 as usize]
            }
            EventKind::HostFail { host }
            | EventKind::LoadOn { host, .. }
            | EventKind::LoadOff { host, .. } => self.part_of_host[host.0 as usize],
            // Completions whose owner died are stale: any shard works (they
            // are discarded on pop, and the global pop order is a total
            // order independent of shard placement), so default to 0.
            EventKind::CpuDone { id, .. } => self.cpu[*id]
                .as_ref()
                .map_or(0, |a| self.part_of_host[a.host]),
            EventKind::FlowActivate { id } | EventKind::FlowDone { id, .. } => {
                self.flows[*id].as_ref().map_or(0, |f| f.part)
            }
        }
    }

    /// `(is_cpu, id, gen)` when the event is a completion whose owner holds
    /// a cancellation handle that queue migration must re-point.
    fn completion_owner(kind: &EventKind) -> Option<(bool, usize, u64)> {
        match *kind {
            EventKind::CpuDone { id, gen } => Some((true, id, gen)),
            EventKind::FlowDone { id, gen } => Some((false, id, gen)),
            _ => None,
        }
    }

    /// Point a live completion owner's handle at the event's new home
    /// after queue migration. Stale completions (generation mismatch) keep
    /// no handle and are discarded on pop as usual.
    fn patch_owner_handle(&mut self, owner: Option<(bool, usize, u64)>, h: u32) {
        match owner {
            Some((true, id, gen)) => {
                if let Some(a) = self.cpu[id].as_mut() {
                    if a.gen == gen {
                        a.ev = h;
                    }
                }
            }
            Some((false, id, gen)) => {
                if let Some(f) = self.flows[id].as_mut() {
                    if f.gen == gen {
                        f.ev = h;
                    }
                }
            }
            None => {}
        }
    }

    /// Attach an observability sink. Kernel counters (events applied,
    /// stale discards, heap compactions, recompute count) and per-recompute
    /// dirty-set-size histograms are flushed into it when the run finishes.
    /// Recording never reads or perturbs virtual time; with the default
    /// disabled handle the kernel only maintains plain integer counters it
    /// tracks anyway.
    pub fn set_obs(&mut self, obs: grads_obs::Obs) {
        self.obs = obs;
    }

    /// The attached observability sink (disabled by default).
    pub fn obs(&self) -> &grads_obs::Obs {
        &self.obs
    }

    /// Attach a flight recorder. The kernel stamps track lifecycle edges
    /// into it (process start, exit, panic, host-failure death, and
    /// close-out at a `run_until` cutoff) for processes bound via
    /// [`grads_obs::Recorder::bind_pid`]; middleware records everything
    /// else. Like [`Engine::set_obs`], recording never reads or perturbs
    /// virtual time, and the default disabled handle costs one `Option`
    /// test per lifecycle edge.
    pub fn set_recorder(&mut self, rec: grads_obs::Recorder) {
        self.rec = rec;
    }

    /// The attached flight recorder (disabled by default).
    pub fn recorder(&self) -> &grads_obs::Recorder {
        &self.rec
    }

    /// Tune when the event heap sheds stale completion events. The
    /// default matches the historical hard-coded policy (more than 64
    /// stale *and* more than half the heap). Any policy yields identical
    /// simulation results; the knob trades rebuild cost against heap
    /// bloat on churn-heavy workloads.
    pub fn set_compaction_policy(&mut self, p: CompactionPolicy) {
        self.compaction = p;
    }

    /// The active heap-compaction policy.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.compaction
    }

    /// Push an event, returning its indexed-queue handle ([`NO_HANDLE`] in
    /// stale-mark mode). Static over disjoint fields so recompute loops can
    /// push while iterating `self.cpu` / `self.flows`. `shard` is the
    /// event's partition, used (and validated) only by the sharded queue.
    fn push_ev(events: &mut EventQueue, seq: &mut u64, shard: u32, t: f64, kind: EventKind) -> u32 {
        let (class, key) = class_key(&kind);
        let s = *seq;
        *seq += 1;
        let ev = Event {
            t,
            class,
            key,
            seq: s,
            kind,
        };
        match events {
            EventQueue::Stale(h) => {
                h.push(ev);
                NO_HANDLE
            }
            EventQueue::Indexed(h) => h.push(ev),
            EventQueue::Sharded(h) => h.push(shard, ev),
        }
    }

    fn push_event(&mut self, t: f64, kind: EventKind) -> u32 {
        let shard = self.shard_for(&kind);
        Self::push_ev(&mut self.events, &mut self.seq, shard, t, kind)
    }

    /// Cancel a pending completion event: stale-mark mode counts it for
    /// the compaction policy and lets the pop loop discard it; indexed mode
    /// removes it from the heap outright. `handle` is reset to
    /// [`NO_HANDLE`] either way. In windowed mode a completion already
    /// pre-drained into a staged window carries [`NO_HANDLE`] — nothing to
    /// remove; the staged copy fails its generation check on pop.
    fn cancel_ev(events: &mut EventQueue, stale_events: &mut usize, handle: &mut u32) {
        match events {
            EventQueue::Stale(_) => *stale_events += 1,
            EventQueue::Indexed(h) => {
                // NO_HANDLE happens when the completion was never scheduled
                // (infinite rate); nothing to remove then.
                if *handle != NO_HANDLE {
                    h.remove(*handle);
                }
            }
            EventQueue::Sharded(h) => {
                h.remove(*handle);
            }
        }
        *handle = NO_HANDLE;
    }

    /// Cancel an entity's pending completion event (if `had_pending`) and
    /// schedule its successor in one step. Stale-mark mode does exactly
    /// what [`Self::cancel_ev`] + [`Self::push_ev`] would (counter bump,
    /// then a fresh push); indexed mode overwrites the event in place via
    /// [`IndexedHeap::replace`] — one short sift instead of a removal plus
    /// a push, which is what keeps the indexed queue competitive on the
    /// legacy recompute path's re-stamp-everything storm.
    #[allow(clippy::too_many_arguments)] // static over disjoint `self` fields by design
    fn restamp_ev(
        events: &mut EventQueue,
        stale_events: &mut usize,
        seq: &mut u64,
        shard: u32,
        handle: &mut u32,
        had_pending: bool,
        t: f64,
        kind: EventKind,
    ) {
        let (class, key) = class_key(&kind);
        let s = *seq;
        *seq += 1;
        let ev = Event {
            t,
            class,
            key,
            seq: s,
            kind,
        };
        match events {
            EventQueue::Stale(h) => {
                if had_pending {
                    *stale_events += 1;
                }
                h.push(ev);
                *handle = NO_HANDLE;
            }
            EventQueue::Indexed(h) => {
                *handle = if had_pending {
                    h.replace(*handle, ev)
                } else {
                    h.push(ev)
                };
            }
            EventQueue::Sharded(h) => {
                // A pre-drained (staged) completion left NO_HANDLE behind;
                // `replace` degrades to a fresh push then, and the staged
                // copy dies by generation mismatch on pop.
                *handle = if had_pending {
                    h.replace(*handle, shard, ev)
                } else {
                    h.push(shard, ev)
                };
            }
        }
    }

    fn mark_host_dirty(&mut self, h: usize) {
        if !self.dirty_host_mark.contains(h) {
            self.dirty_host_mark.set(h, 0);
            self.dirty_hosts.push(h as u32);
        }
    }

    /// Spawn a process starting at virtual time 0.
    pub fn spawn<F>(&mut self, name: &str, host: HostId, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.spawn_at(0.0, name, host, Box::new(f))
    }

    /// Spawn a process starting at virtual time `t`.
    pub fn spawn_delayed<F>(&mut self, t: f64, name: &str, host: HostId, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.spawn_at(t, name, host, Box::new(f))
    }

    fn spawn_at(&mut self, t: f64, name: &str, host: HostId, f: ProcFn) -> ProcId {
        let pid = ProcId(self.procs.len() as u32);
        let name: Arc<str> = Arc::from(name);
        let (port, ep) = match self.handoff {
            HandoffMode::Channel => {
                let (grant_tx, grant_rx) = unbounded();
                (
                    ProcPort::Channel(grant_tx),
                    Endpoint::Channel {
                        req_tx: self.req_tx.clone(),
                        grant_rx,
                    },
                )
            }
            HandoffMode::Direct => {
                let slot = Arc::new(HandoffSlot::new(self.kernel_thread.clone()));
                (ProcPort::Direct(slot.clone()), Endpoint::Direct(slot))
            }
        };
        let mut ctx = Ctx::new(pid, host, ep);
        let join = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                // Gate on the start grant so the process does not run before
                // its scheduled start time.
                if !ctx.wait_start() {
                    return;
                }
                let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                match result {
                    Ok(()) => ctx.notify(Request::Exit),
                    Err(e) => {
                        if e.downcast_ref::<KillToken>().is_none() {
                            ctx.notify(Request::Panic(panic_message(&*e)));
                        }
                    }
                }
            })
            .expect("spawn simulated process thread");
        if let ProcPort::Direct(slot) = &port {
            // Recorded by the kernel from the join handle (not by the
            // process thread itself) so grants never race the store.
            slot.set_proc_thread(join.thread().clone());
        }
        let alive = self.host_alive[host.0 as usize];
        self.procs.push(ProcSlot {
            name,
            host,
            port,
            join: Some(join),
            state: if alive { PState::Alive } else { PState::Died },
        });
        if alive {
            self.push_event(t, EventKind::Start(pid));
        }
        pid
    }

    /// Schedule `amount` units of external CPU load on `host` from `start`
    /// until `end` (or forever if `end` is `None`).
    pub fn add_load_window(&mut self, host: HostId, start: f64, end: Option<f64>, amount: f64) {
        self.push_event(start, EventKind::LoadOn { host, amount });
        if let Some(e) = end {
            self.push_event(e, EventKind::LoadOff { host, amount });
        }
    }

    /// Schedule a permanent host failure at virtual time `t` (fault
    /// injection, the paper's §5 fault-tolerance direction). Every process
    /// on the host dies at that instant; new spawns onto it die
    /// immediately; in-flight communication to it is lost to the extent
    /// the protocol would lose it (receivers never resume).
    pub fn fail_host_at(&mut self, host: HostId, t: f64) {
        self.push_event(t, EventKind::HostFail { host });
    }

    /// Run until no events remain (or every process is blocked).
    pub fn run(self) -> RunReport {
        self.run_until(f64::INFINITY)
    }

    /// Run until virtual time `tmax`, no events remain, or every process is
    /// blocked — whichever comes first. All surviving processes are killed
    /// and their threads joined before returning.
    pub fn run_until(mut self, tmax: f64) -> RunReport {
        let _ = self.kernel_thread.set(std::thread::current());
        if matches!(self.events, EventQueue::Sharded(_)) {
            self.run_windowed(tmax);
        } else {
            self.run_serial(tmax);
        }
        self.finish()
    }

    /// Drive process handoff until no process is running or runnable.
    /// Returns `false` when the request channel disconnected (every process
    /// gone) and the run loop should stop.
    fn pump_processes(&mut self) -> bool {
        loop {
            if let Some(pid) = self.running.take() {
                let req = match &self.procs[pid.0 as usize].port {
                    ProcPort::Channel(_) => {
                        let (rpid, req) = match self.req_rx.recv() {
                            Ok(x) => x,
                            Err(_) => return false,
                        };
                        debug_assert_eq!(rpid, pid, "request from non-running process");
                        req
                    }
                    ProcPort::Direct(slot) => slot.wait_request(),
                };
                let at_once = req.answered_at_once();
                self.handle_request(pid, req);
                // A process waiting on an at-once request may spin for its
                // grant; the classification must match what the kernel did.
                debug_assert!(
                    !at_once || matches!(self.runnable.front(), Some(&(p, _)) if p == pid),
                    "request classified as answered at once was not resumed first"
                );
                continue;
            }
            if let Some((pid, grant)) = self.runnable.pop_front() {
                if self.procs[pid.0 as usize].state == PState::Alive {
                    // Virtual time cannot move until this process's next
                    // request is handled, so the stamp stays its clock.
                    self.procs[pid.0 as usize].port.send_grant(grant, self.now);
                    self.running = Some(pid);
                }
                continue;
            }
            return true;
        }
    }

    /// Staleness is decided before the clock moves: a discarded event
    /// must be completely unobservable, including through `end_time`
    /// and the accrual sweep. Skipping `advance_to` on a stale pop is
    /// exact — no rate changes at a stale pop, and accrual is linear in
    /// time. Shared verbatim by the serial and windowed loops so the
    /// decision cannot drift between them.
    fn discard_if_stale(&mut self, kind: &EventKind) -> bool {
        let stale = match *kind {
            EventKind::CpuDone { id, gen } => {
                self.cpu[id].as_ref().map(|a| a.gen == gen) != Some(true)
            }
            EventKind::FlowDone { id, gen } => {
                self.flows[id].as_ref().map(|f| f.active && f.gen == gen) != Some(true)
            }
            _ => false,
        };
        if stale {
            self.stale_events = self.stale_events.saturating_sub(1);
            self.stale_discarded += 1;
        }
        stale
    }

    /// The reference run loop: one event at a time off one queue.
    fn run_serial(&mut self, tmax: f64) {
        loop {
            if !self.pump_processes() {
                break;
            }
            self.maybe_compact();
            // Deferred-recompute flush: solve the pending burst before its
            // rates become observable. The solve may push the event the
            // next peek selects, so it runs before the peek.
            if self.pending_churn > 0
                && self.must_flush_before(self.events.peek().map(|ev| (ev.t, ev.class)))
            {
                self.flush_rates();
            }
            match self.events.peek() {
                None => break,
                Some(ev) if ev.t > tmax => break,
                Some(_) => {}
            }
            let ev = self.events.pop().expect("peeked event");
            if self.discard_if_stale(&ev.kind) {
                continue;
            }
            self.advance_to(ev.t);
            self.events_processed += 1;
            self.apply_event(ev.kind);
        }
    }

    /// The conservative-parallel run loop ([`KernelMode::Windowed`]).
    ///
    /// Alternates two steps: *plan* — when no staged events remain, pre-drain
    /// the next window (events within the lookahead horizon) from every
    /// cluster shard, concurrently when the pool pays — and *merge* — apply
    /// events one at a time, always taking the global minimum of the staged
    /// window fronts and the live shard minima under the kernel's strict
    /// `(t, class, key, seq)` total order. The merge replays exactly the
    /// serial applied-event sequence: events pushed mid-window land in the
    /// live shards and win the comparison whenever the serial kernel would
    /// have popped them first, and staged completions invalidated by a
    /// mid-window re-stamp fail the same generation check stale-marked
    /// events already fail. Worker count therefore cannot perturb results.
    fn run_windowed(&mut self, tmax: f64) {
        loop {
            if !self.pump_processes() {
                break;
            }
            if self.staged_total == 0 {
                self.plan_window();
            }
            // Deferred-recompute flush, as in the serial loop. A flush
            // pushes into the live shards, where the merge's global-min
            // comparison picks it up — staged windows are unaffected.
            if self.pending_churn > 0
                && self.must_flush_before(self.peek_windowed().map(|(t, c, _)| (t, c)))
            {
                self.flush_rates();
            }
            let Some((t, _class, src)) = self.peek_windowed() else {
                break;
            };
            if t > tmax {
                break;
            }
            let ev = self.pop_windowed(src);
            if self.discard_if_stale(&ev.kind) {
                continue;
            }
            self.advance_to(ev.t);
            self.events_processed += 1;
            self.apply_event(ev.kind);
        }
    }

    /// Pre-drain the next window. Each shard pops its events with
    /// `t <= t0 + lookahead` (bounded by [`WindowPolicy::max_drain_per_shard`])
    /// into that shard's staged queue — pure motion preserving per-shard pop
    /// order, so the per-shard drains can run concurrently. Afterwards the
    /// kernel thread clears the drained completions' owner handles
    /// (serially: flow/action slots are recycled, so only the kernel may
    /// touch them) which routes later cancels/re-stamps of those owners
    /// onto the stale-generation path the merge already re-validates.
    fn plan_window(&mut self) {
        let EventQueue::Sharded(sh) = &mut self.events else {
            return;
        };
        let Some(first) = sh.peek() else {
            return;
        };
        // Infinity-safe: a single-cluster grid has no WAN latency and an
        // infinite horizon; the per-shard cap bounds the window instead.
        let horizon = first.t + self.lookahead;
        let cap = self.wpolicy.max_drain_per_shard;
        let fan_out = self.pool.is_some()
            && (self.wpolicy.force_parallel || multicore())
            && sh.len() >= self.wpolicy.min_parallel_drain;
        let shards = sh.shards_mut();
        let nparts = shards.len();
        let mut drained = vec![0usize; nparts];
        if fan_out {
            let pool = self.pool.as_ref().expect("gated on pool presence");
            let mut closures: Vec<Box<dyn FnMut() + Send>> = shards
                .iter_mut()
                .zip(self.staged.iter_mut())
                .zip(drained.iter_mut())
                .map(|((heap, staged), cnt)| {
                    Box::new(move || *cnt = Self::drain_shard(heap, staged, horizon, cap))
                        as Box<dyn FnMut() + Send>
                })
                .collect();
            let mut jobs: Vec<Job<'_>> = closures.iter_mut().map(|b| &mut **b as Job<'_>).collect();
            pool.run_batch(&mut jobs);
        } else {
            for (s, heap) in shards.iter_mut().enumerate() {
                drained[s] = Self::drain_shard(heap, &mut self.staged[s], horizon, cap);
            }
        }
        let total: usize = drained.iter().sum();
        self.staged_total += total;
        self.events_predrained += total as u64;
        self.windows_planned += 1;
        // Serial handle-clearing pass (see the doc comment above).
        for s in 0..nparts {
            for k in 0..self.staged[s].len() {
                match self.staged[s][k].kind {
                    EventKind::CpuDone { id, gen } => {
                        if let Some(a) = self.cpu[id].as_mut() {
                            if a.gen == gen {
                                a.ev = NO_HANDLE;
                            }
                        }
                    }
                    EventKind::FlowDone { id, gen } => {
                        if let Some(f) = self.flows[id].as_mut() {
                            if f.gen == gen {
                                f.ev = NO_HANDLE;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Pop one shard's current window (events up to `horizon`, at most
    /// `cap`) into its staged queue. Returns the number drained.
    fn drain_shard(
        heap: &mut IndexedHeap,
        staged: &mut VecDeque<Event>,
        horizon: f64,
        cap: usize,
    ) -> usize {
        let mut n = 0;
        while n < cap {
            match heap.peek() {
                Some(ev) if ev.t <= horizon => {}
                _ => break,
            }
            staged.push_back(heap.pop().expect("peeked event"));
            n += 1;
        }
        n
    }

    /// The source holding the globally next event under the kernel's strict
    /// total order: a staged window front or the live sharded heap. Returns
    /// the winner's `(t, class)` too — the coalesced-recompute flush rule
    /// needs both to decide whether pending churn must solve first.
    fn peek_windowed(&self) -> Option<(f64, u8, WindowSource)> {
        let EventQueue::Sharded(sh) = &self.events else {
            unreachable!("windowed loop requires the sharded queue");
        };
        let mut best: Option<(&Event, WindowSource)> = sh.peek().map(|e| (e, WindowSource::Heap));
        for (s, q) in self.staged.iter().enumerate() {
            if let Some(ev) = q.front() {
                if best.is_none_or(|(b, _)| ev.fires_before(b)) {
                    best = Some((ev, WindowSource::Staged(s)));
                }
            }
        }
        best.map(|(e, src)| (e.t, e.class, src))
    }

    /// Pop the event [`Self::peek_windowed`] selected.
    fn pop_windowed(&mut self, src: WindowSource) -> Event {
        match src {
            WindowSource::Heap => {
                let EventQueue::Sharded(sh) = &mut self.events else {
                    unreachable!("windowed loop requires the sharded queue");
                };
                sh.pop().expect("peeked event")
            }
            WindowSource::Staged(s) => {
                self.staged_total -= 1;
                self.staged[s].pop_front().expect("peeked staged event")
            }
        }
    }

    fn finish(mut self) -> RunReport {
        // Join the window workers first; nothing below fans out.
        self.pool = None;
        let mut unfinished = Vec::new();
        let mut died = Vec::new();
        for p in &self.procs {
            match p.state {
                PState::Alive => {
                    unfinished.push(p.name.to_string());
                    p.port.send_grant(Grant::Kill, self.now);
                }
                PState::Died => {
                    died.push(p.name.to_string());
                    p.port.send_grant(Grant::Kill, self.now);
                }
                _ => {}
            }
        }
        for p in &mut self.procs {
            if let Some(j) = p.join.take() {
                let _ = j.join();
            }
        }
        if self.panic_on_failure && !self.failed.is_empty() {
            panic!("simulated process failures: {:?}", self.failed);
        }
        // Flows still in flight at cutoff are credited for the bytes they
        // actually moved (completed flows were credited at their FlowDone).
        for &fi in &self.active_flows {
            let f = self.flows[fi as usize]
                .as_ref()
                .expect("active flow indexed");
            let moved = f.size - f.remaining;
            if moved > 0.0 {
                for &l in self.routes_tbl[f.route as usize].links.iter() {
                    self.link_bytes[l as usize] += moved;
                }
            }
        }
        // Processes alive (or killed) at the cutoff get their tracks
        // closed at the run's end time.
        self.rec.close_open_tracks(self.now);
        if self.obs.is_enabled() {
            self.obs
                .counter_add("sim.events_applied", self.events_processed);
            self.obs
                .counter_add("sim.events_stale_discarded", self.stale_discarded);
            self.obs
                .counter_add("sim.heap_compactions", self.compactions);
            self.obs.counter_add("sim.recomputes", self.recomputes);
            // Timing split: `recomputes` counts churn notifications (a
            // timing-invariant property of the scenario), `solves` the rate
            // solves actually run, `coalesced` the same-instant churns a
            // deferred solve absorbed. Eager: solves == recomputes.
            self.obs.counter_add("sim.recompute.solves", self.solves);
            self.obs
                .counter_add("sim.recompute.coalesced", self.coalesced_absorbed);
            self.obs.gauge_set("sim.end_time", self.now);
            // Staged-but-unapplied window events are still pending events;
            // `staged_total` is 0 outside windowed mode, so serial
            // snapshots are unchanged byte for byte.
            self.obs.gauge_set(
                "sim.final_heap_len",
                (self.events.len() + self.staged_total) as f64,
            );
            if matches!(self.kernel, KernelMode::Windowed { .. }) {
                self.obs
                    .counter_add("sim.windows_planned", self.windows_planned);
                self.obs
                    .counter_add("sim.events_predrained", self.events_predrained);
            }
        }
        RunReport {
            end_time: self.now,
            completed: self.completed.iter().map(|s| s.to_string()).collect(),
            failed: std::mem::take(&mut self.failed),
            unfinished,
            died,
            host_flops: std::mem::take(&mut self.host_flops),
            link_bytes: std::mem::take(&mut self.link_bytes),
            events_processed: self.events_processed,
            trace: std::mem::take(&mut self.trace),
        }
    }

    // ------------------------------------------------------------------
    // Time advancement and rate recomputation
    // ------------------------------------------------------------------

    fn advance_to(&mut self, t: f64) {
        let dt = t - self.last_advance;
        if dt > 0.0 && !self.accrue_parallel(dt) {
            for a in self.cpu.iter_mut().flatten() {
                let done = (a.rate * dt).min(a.remaining);
                self.host_flops[a.host] += done;
                a.remaining -= done;
            }
            for k in 0..self.active_flows.len() {
                let fi = self.active_flows[k] as usize;
                let f = self.flows[fi].as_mut().expect("active flow indexed");
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
            }
        }
        self.last_advance = t;
        self.now = t;
    }

    /// Fan the accrual sweep out to the worker pool when it pays, returning
    /// `false` (sweep left to the serial loops above) otherwise.
    ///
    /// Bitwise identical to the serial sweep by construction: CPU actions
    /// are bucketed by their host's partition in ascending id order — the
    /// serial traversal order — so each host's flop accumulation happens in
    /// exactly the serial summation order on exactly the one job owning
    /// that partition, and flows touch only their own `remaining`, making
    /// any flow chunking exact. Neither bucketing nor chunk count can
    /// change a result bit; only where the FLOP runs.
    fn accrue_parallel(&mut self, dt: f64) -> bool {
        let Some(pool) = self.pool.as_ref() else {
            return false;
        };
        if !(self.wpolicy.force_parallel || multicore()) {
            return false;
        }
        if self.cpu.len() + self.active_flows.len() < self.wpolicy.min_parallel_accrual {
            return false;
        }
        let nparts = self.nparts as usize;
        if self.accrual_parts.len() != nparts {
            self.accrual_parts = (0..nparts).map(|_| Vec::new()).collect();
        }
        for b in &mut self.accrual_parts {
            b.clear();
        }
        for (id, slot) in self.cpu.iter().enumerate() {
            if let Some(a) = slot {
                self.accrual_parts[self.part_of_host[a.host] as usize].push(id as u32);
            }
        }
        let ptrs = EntityPtrs {
            cpu: self.cpu.as_mut_ptr(),
            flows: self.flows.as_mut_ptr(),
            host_flops: self.host_flops.as_mut_ptr(),
        };
        let mut closures: Vec<Box<dyn FnMut() + Send>> = Vec::new();
        for ids in self.accrual_parts.iter().filter(|v| !v.is_empty()) {
            let ids: &[u32] = ids;
            // Capture the pointer bundle whole so its `Send` impl applies
            // (disjoint-field capture would smuggle bare raw pointers).
            let p = ptrs;
            closures.push(Box::new(move || {
                let p = p;
                for &idu in ids {
                    // SAFETY: each live action id appears in exactly one
                    // partition bucket, and a partition's hosts belong to
                    // no other bucket, so the action slot and the
                    // `host_flops` cell are touched by this job alone.
                    unsafe {
                        let a = (*p.cpu.add(idu as usize))
                            .as_mut()
                            .expect("bucketed action is live");
                        let done = (a.rate * dt).min(a.remaining);
                        *p.host_flops.add(a.host) += done;
                        a.remaining -= done;
                    }
                }
            }));
        }
        let nflows = self.active_flows.len();
        if nflows > 0 {
            let chunk = nflows.div_ceil(pool.workers() + 1);
            for ch in self.active_flows.chunks(chunk) {
                let p = ptrs;
                closures.push(Box::new(move || {
                    let p = p;
                    for &fi in ch {
                        // SAFETY: each active flow id appears exactly once
                        // in `active_flows`, so exactly one chunk job
                        // touches this slot.
                        unsafe {
                            let f = (*p.flows.add(fi as usize))
                                .as_mut()
                                .expect("active flow indexed");
                            let moved = (f.rate * dt).min(f.remaining);
                            f.remaining -= moved;
                        }
                    }
                }));
            }
        }
        let mut jobs: Vec<Job<'_>> = closures.iter_mut().map(|b| &mut **b as Job<'_>).collect();
        pool.run_batch(&mut jobs);
        true
    }

    /// Rebuild the event heap without stale completion events once they
    /// dominate it. Stale-mark mode only — the indexed queue removes
    /// cancelled events eagerly and never accumulates dead weight. Pop
    /// order is a strict total order on `(t, class, key, seq)`, so
    /// rebuilding cannot reorder live events.
    fn maybe_compact(&mut self) {
        let EventQueue::Stale(heap) = &mut self.events else {
            return;
        };
        if !self
            .compaction
            .should_compact(self.stale_events, heap.len())
        {
            return;
        }
        let drained = std::mem::take(heap).into_vec();
        let mut kept = Vec::with_capacity(drained.len() - self.stale_events);
        for ev in drained {
            let keep = match ev.kind {
                EventKind::CpuDone { id, gen } => {
                    self.cpu[id].as_ref().map(|a| a.gen == gen) == Some(true)
                }
                EventKind::FlowDone { id, gen } => {
                    self.flows[id].as_ref().map(|f| f.active && f.gen == gen) == Some(true)
                }
                _ => true,
            };
            if keep {
                kept.push(ev);
            }
        }
        *heap = BinaryHeap::from(kept);
        self.stale_events = 0;
        self.compactions += 1;
    }

    /// Note a churn (the site already marked its dirty hosts/links). Under
    /// [`RecomputeTiming::Eager`] the solve runs inline, exactly as it
    /// always did; under [`RecomputeTiming::Coalesced`] the churn joins the
    /// pending burst and the run loop flushes it before the rates become
    /// observable (see [`Self::must_flush_before`]).
    fn recompute(&mut self) {
        self.recomputes += 1;
        self.pending_churn += 1;
        if self.timing == RecomputeTiming::Eager {
            self.flush_rates();
        }
    }

    /// Whether a pending churn burst must be solved before applying the
    /// next event (`peeked = (t, class)` of the run loop's candidate, or
    /// `None` when no event is queued).
    ///
    /// The burst may keep growing across *every* same-instant event —
    /// completions included — and must land only when the clock is about
    /// to advance (accrual reads rates) or the queue is empty (the solve
    /// itself may supply the next event). Same-instant completion pops are
    /// safe to defer across because a deferred solve can never (re)stamp a
    /// completion *at* `now`:
    ///
    /// - an in-flight action due exactly at `now` has bitwise-zero
    ///   remaining work, so any post-churn rate leaves its stamp at `now`
    ///   unchanged (`now + 0.0 / rate`), and the run loop pops it off its
    ///   original stamp under the same `(t, class, key, seq)` order;
    /// - an action still in flight past `now` has `remaining > 0` and a
    ///   finite rate, so its restamp lands strictly in the future;
    /// - churn cannot *create* an at-`now` completion: zero-flop computes
    ///   never allocate a cpu action ([`Request::Compute`] guards
    ///   `flops <= 0`), and empty-route or zero-byte flows finish inline
    ///   at [`EventKind::FlowActivate`] without ever scheduling a
    ///   [`EventKind::FlowDone`].
    ///
    /// The one caveat is floating point: `now + remaining / rate` can in
    /// principle round down to `now` when the quotient is below half an
    /// ulp of `now`, which would let an eager solve pop that completion
    /// earlier within the instant than the deferred solve does. DESIGN.md
    /// records this as the pinned modeling assumption behind the flush
    /// rule; the randomized determinism suites probe it continuously.
    #[inline]
    fn must_flush_before(&self, peeked: Option<(f64, u8)>) -> bool {
        match peeked {
            None => true,
            Some((t, _class)) => t > self.now,
        }
    }

    /// Re-derive rates and reschedule completions for the pending churn
    /// burst (a burst of one, under eager timing).
    fn flush_rates(&mut self) {
        debug_assert!(self.pending_churn > 0, "flush without pending churn");
        self.solves += 1;
        self.coalesced_absorbed += (self.pending_churn - 1) as u64;
        // Dirty marking happens in every mode, so the dirty-set sizes are
        // meaningful (if unused) under Legacy/Full too. Gated: building the
        // histogram observations per solve is the only non-counter cost.
        if self.obs.is_enabled() {
            self.obs
                .observe("sim.recompute.burst", self.pending_churn as f64);
            self.obs.observe(
                "sim.dirty_hosts_per_recompute",
                self.dirty_hosts.len() as f64,
            );
            self.obs.observe(
                "sim.dirty_links_per_recompute",
                self.dirty_links.len() as f64,
            );
        }
        self.pending_churn = 0;
        match self.mode {
            RecomputeMode::Legacy => self.recompute_legacy(),
            RecomputeMode::Full => self.recompute_scoped(true),
            RecomputeMode::Incremental => self.recompute_scoped(false),
        }
    }

    /// The pre-change recompute: every rate re-derived globally, every
    /// generation re-stamped, every completion event re-pushed, routes
    /// cloned per solve.
    fn recompute_legacy(&mut self) {
        let now = self.now;
        let nhosts = self.grid.hosts().len();
        let mut counts = vec![0usize; nhosts];
        for a in self.cpu.iter().flatten() {
            counts[a.host] += 1;
        }
        let mut cpu_events = Vec::new();
        for (id, slot) in self.cpu.iter_mut().enumerate() {
            if let Some(a) = slot {
                let h = &self.grid.hosts()[a.host];
                let had_pending = a.gen != 0 && a.rate > 0.0;
                let rate = cpu_share(h.speed, h.cores, counts[a.host], self.host_load[a.host]);
                if had_pending && a.due == now {
                    // Due-now guard (see `CpuAction::due`): the event fires
                    // this instant under any rate; keep its stamp.
                    a.rate = rate;
                    continue;
                }
                a.rate = rate;
                a.gen = self.gen_counter;
                self.gen_counter += 1;
                if a.rate > 0.0 {
                    // Defer the cancel into the re-push so the indexed
                    // queue can overwrite the old event in place.
                    cpu_events.push((now + a.remaining / a.rate, id, a.gen, had_pending));
                } else if had_pending {
                    Self::cancel_ev(&mut self.events, &mut self.stale_events, &mut a.ev);
                    a.due = f64::INFINITY;
                }
            }
        }
        for (t, id, gen, had_pending) in cpu_events {
            let a = self.cpu[id].as_mut().expect("live action");
            let shard = self.part_of_host[a.host];
            a.due = t;
            Self::restamp_ev(
                &mut self.events,
                &mut self.stale_events,
                &mut self.seq,
                shard,
                &mut a.ev,
                had_pending,
                t,
                EventKind::CpuDone { id, gen },
            );
        }
        // Flat-array global solve: capacities are hoisted into engine state
        // (`link_caps`) and routes referenced in place, so the reference path
        // allocates nothing on the steady path either — legacy stays slow by
        // *scope* (global, every solve), not by incidental allocation.
        let s = &mut self.scratch;
        s.comp_flows.clear();
        s.offsets.clear();
        s.links_flat.clear();
        for (id, slot) in self.flows.iter().enumerate() {
            if let Some(f) = slot {
                if f.active {
                    s.comp_flows.push(id as u32);
                    let links = &self.routes_tbl[f.route as usize].links;
                    s.offsets
                        .push((s.links_flat.len() as u32, links.len() as u32));
                    s.links_flat.extend_from_slice(links);
                }
            }
        }
        s.fair
            .solve(&s.offsets, &s.links_flat, &self.link_caps, &mut s.rates);
        let mut flow_events = Vec::new();
        for (k, &fid) in self.scratch.comp_flows.iter().enumerate() {
            let id = fid as usize;
            let f = self.flows[id].as_mut().expect("active flow");
            let had_pending = f.gen != 0 && f.rate > 0.0;
            let rate = self.scratch.rates[k];
            if had_pending && f.due == now {
                // Due-now guard (see `CpuAction::due`).
                f.rate = rate;
                continue;
            }
            f.rate = rate;
            f.gen = self.gen_counter;
            self.gen_counter += 1;
            if f.rate > 0.0 && f.rate.is_finite() {
                flow_events.push((now + f.remaining / f.rate, id, f.gen, had_pending));
            } else if had_pending {
                Self::cancel_ev(&mut self.events, &mut self.stale_events, &mut f.ev);
                f.due = f64::INFINITY;
            }
        }
        for (t, id, gen, had_pending) in flow_events {
            let f = self.flows[id].as_mut().expect("active flow");
            let shard = f.part;
            f.due = t;
            Self::restamp_ev(
                &mut self.events,
                &mut self.stale_events,
                &mut self.seq,
                shard,
                &mut f.ev,
                had_pending,
                t,
                EventKind::FlowDone { id, gen },
            );
        }
        self.clear_dirty();
    }

    /// Scoped recompute. With `full` set, every host with actions and every
    /// active sharing component is revisited; otherwise only dirty hosts
    /// and components reachable from dirty links. Both paths run the same
    /// per-component solver over flows sorted by id and skip re-stamping
    /// entities whose rate is bitwise unchanged, so their observable
    /// behavior is identical — the determinism gate in
    /// `tests/determinism.rs` holds them to that.
    fn recompute_scoped(&mut self, full: bool) {
        let now = self.now;
        // CPU shares for scoped hosts.
        let mut scoped = std::mem::take(&mut self.scratch.scoped_hosts);
        scoped.clear();
        if full {
            scoped.extend(
                (0..self.host_actions.len())
                    .filter(|&h| !self.host_actions[h].is_empty())
                    .map(|h| h as u32),
            );
        } else {
            scoped.extend_from_slice(&self.dirty_hosts);
            scoped.sort_unstable();
        }
        for &hu in &scoped {
            let h = hu as usize;
            let n = self.host_actions[h].len();
            if n == 0 {
                continue;
            }
            let spec = &self.grid.hosts()[h];
            let rate = cpu_share(spec.speed, spec.cores, n, self.host_load[h]);
            let shard = self.part_of_host[h];
            for k in 0..n {
                let id = self.host_actions[h][k] as usize;
                let a = self.cpu[id].as_mut().expect("indexed action is live");
                if a.rate == rate {
                    continue;
                }
                let had_pending = a.gen != 0 && a.rate > 0.0;
                if had_pending && a.due == now {
                    // Due-now guard (see `CpuAction::due`).
                    a.rate = rate;
                    continue;
                }
                a.rate = rate;
                a.gen = self.gen_counter;
                self.gen_counter += 1;
                if rate > 0.0 {
                    a.due = now + a.remaining / rate;
                    Self::restamp_ev(
                        &mut self.events,
                        &mut self.stale_events,
                        &mut self.seq,
                        shard,
                        &mut a.ev,
                        had_pending,
                        a.due,
                        EventKind::CpuDone { id, gen: a.gen },
                    );
                } else if had_pending {
                    Self::cancel_ev(&mut self.events, &mut self.stale_events, &mut a.ev);
                    a.due = f64::INFINITY;
                }
            }
        }
        scoped.clear();
        self.scratch.scoped_hosts = scoped;
        // Network: solve each affected sharing component.
        self.scratch.flow_mark.ensure(self.flows.len());
        self.scratch.flow_mark.begin();
        self.scratch.comp_link_mark.begin();
        if full {
            for id in 0..self.flows.len() {
                let is_root = self.flows[id].as_ref().map(|f| f.active) == Some(true)
                    && !self.scratch.flow_mark.contains(id);
                if !is_root {
                    continue;
                }
                let route = self.flows[id].as_ref().expect("checked above").route as usize;
                for k in 0..self.routes_tbl[route].links.len() {
                    let l = self.routes_tbl[route].links[k] as usize;
                    if !self.scratch.comp_link_mark.contains(l) {
                        self.scratch.comp_link_mark.set(l, 0);
                        self.scratch.link_stack.push(l as u32);
                    }
                }
                self.flood_component();
                self.solve_component(now);
            }
        } else {
            let mut roots = std::mem::take(&mut self.dirty_links);
            roots.sort_unstable();
            for &lu in &roots {
                let l = lu as usize;
                if self.scratch.comp_link_mark.contains(l) {
                    continue;
                }
                self.scratch.comp_link_mark.set(l, 0);
                self.scratch.link_stack.push(lu);
                self.flood_component();
                self.solve_component(now);
            }
            roots.clear();
            self.dirty_links = roots;
        }
        self.clear_dirty();
    }

    fn clear_dirty(&mut self) {
        self.dirty_hosts.clear();
        self.dirty_links.clear();
        self.dirty_host_mark.begin();
        self.dirty_link_mark.begin();
    }

    /// Flood one connected sharing component from the seed links already on
    /// `scratch.link_stack` (and marked visited), collecting its flows into
    /// `scratch.comp_flows`.
    fn flood_component(&mut self) {
        let s = &mut self.scratch;
        s.comp_flows.clear();
        while let Some(l) = s.link_stack.pop() {
            for &fid in &self.link_flows[l as usize] {
                if s.flow_mark.contains(fid as usize) {
                    continue;
                }
                s.flow_mark.set(fid as usize, 0);
                s.comp_flows.push(fid);
                let f = self.flows[fid as usize].as_ref().expect("indexed flow");
                for &l2 in self.routes_tbl[f.route as usize].links.iter() {
                    if !s.comp_link_mark.contains(l2 as usize) {
                        s.comp_link_mark.set(l2 as usize, 0);
                        s.link_stack.push(l2);
                    }
                }
            }
        }
    }

    /// Max-min solve the component collected by `flood_component` and apply
    /// the resulting rates.
    ///
    /// Flows are sorted by id, grouped into *route classes* (flows sharing
    /// one interned route — concurrent transfers between the same host
    /// pair, e.g. a bulk migration alongside application traffic), and the
    /// progressive filling runs over distinct classes with multiplicity
    /// weights ([`FairScratch::solve_classes`]) — arithmetically identical
    /// to the per-flow solve, at O(classes) per filling round instead of
    /// O(flows).
    ///
    /// Classes and component-local link indices are assigned in
    /// first-encounter order over the sorted flow list (repeat routes
    /// introduce no new links, so the link enumeration matches the per-flow
    /// solver's exactly), keeping the solver input — and hence every
    /// rounding decision — a pure function of the component's membership,
    /// independent of flood traversal order or which dirty link seeded it.
    fn solve_component(&mut self, now: f64) {
        let s = &mut self.scratch;
        if s.comp_flows.is_empty() {
            return;
        }
        s.comp_flows.sort_unstable();
        s.offsets.clear();
        s.links_flat.clear();
        s.caps_local.clear();
        s.link_local.begin();
        s.class_of.clear();
        s.class_mult.clear();
        s.route_class.ensure(self.routes_tbl.len());
        s.route_class.begin();
        for &fid in &s.comp_flows {
            let f = self.flows[fid as usize].as_ref().expect("indexed flow");
            if let Some(c) = s.route_class.get(f.route as usize) {
                s.class_of.push(c);
                s.class_mult[c as usize] += 1;
                continue;
            }
            let c = s.class_mult.len() as u32;
            s.route_class.set(f.route as usize, c);
            s.class_of.push(c);
            s.class_mult.push(1);
            let links = &self.routes_tbl[f.route as usize].links;
            s.offsets
                .push((s.links_flat.len() as u32, links.len() as u32));
            for &l in links.iter() {
                let li = match s.link_local.get(l as usize) {
                    Some(v) => v,
                    None => {
                        let v = s.caps_local.len() as u32;
                        s.caps_local.push(self.link_caps[l as usize]);
                        s.link_local.set(l as usize, v);
                        v
                    }
                };
                s.links_flat.push(li);
            }
        }
        s.fair.solve_classes(
            &s.offsets,
            &s.links_flat,
            &s.caps_local,
            &s.class_mult,
            &mut s.class_rates,
        );
        for (k, &fid) in s.comp_flows.iter().enumerate() {
            let id = fid as usize;
            let rate = s.class_rates[s.class_of[k] as usize];
            let f = self.flows[id].as_mut().expect("indexed flow");
            if f.rate == rate {
                continue;
            }
            let had_pending = f.gen != 0 && f.rate > 0.0;
            if had_pending && f.due == now {
                // Due-now guard (see `CpuAction::due`).
                f.rate = rate;
                continue;
            }
            f.rate = rate;
            f.gen = self.gen_counter;
            self.gen_counter += 1;
            if rate > 0.0 && rate.is_finite() {
                f.due = now + f.remaining / rate;
                Self::restamp_ev(
                    &mut self.events,
                    &mut self.stale_events,
                    &mut self.seq,
                    f.part,
                    &mut f.ev,
                    had_pending,
                    f.due,
                    EventKind::FlowDone { id, gen: f.gen },
                );
            } else if had_pending {
                Self::cancel_ev(&mut self.events, &mut self.stale_events, &mut f.ev);
                f.due = f64::INFINITY;
            }
        }
    }

    // ------------------------------------------------------------------
    // Process resumption
    // ------------------------------------------------------------------

    /// Queue a resumption at the back (woken by an event).
    fn resume(&mut self, pid: ProcId, grant: Grant) {
        self.runnable.push_back((pid, grant));
    }

    /// Queue a resumption at the front (immediate reply to the process that
    /// just issued a request — it continues before anything else runs).
    fn resume_first(&mut self, pid: ProcId, grant: Grant) {
        self.runnable.push_front((pid, grant));
    }

    fn record(&mut self, pid: Option<ProcId>, kind: TraceKind) {
        self.trace.records.push(TraceRecord {
            t: self.now,
            pid,
            kind,
        });
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    fn handle_request(&mut self, pid: ProcId, req: Request) {
        match req {
            Request::Compute { flops } => {
                if flops <= 0.0 {
                    self.resume_first(pid, Grant::Unit);
                } else {
                    let host = self.procs[pid.0 as usize].host.0 as usize;
                    self.alloc_cpu(host, pid, flops);
                    self.recompute();
                }
            }
            Request::Sleep { dt } => {
                if dt <= 0.0 {
                    self.resume_first(pid, Grant::Unit);
                } else {
                    let t = self.now + dt;
                    self.push_event(t, EventKind::SleepDone(pid));
                }
            }
            Request::Send {
                key,
                dst,
                bytes,
                payload,
                mode,
            } => self.do_send(pid, key, dst, bytes, payload, mode),
            Request::Recv { key } => self.do_recv(pid, key),
            Request::TryRecv { key } => {
                let p = self
                    .mailboxes
                    .get_mut(key)
                    .and_then(|mb| mb.arrived.pop_front());
                if p.is_some() {
                    self.mailboxes.release_if_empty(key);
                }
                self.resume_first(pid, Grant::MaybePayload(p));
            }
            Request::Transfer { dst, bytes } => {
                let src = self.procs[pid.0 as usize].host;
                self.start_flow(src, dst, bytes, None, OnDone::Wake(pid));
            }
            Request::Spawn { name, host, f } => {
                let child = self.spawn_at(self.now, &name, host, f);
                self.resume_first(pid, Grant::Proc(child));
            }
            Request::InjectLoad { host, amount } => {
                self.host_load[host.0 as usize] += amount;
                let total = self.host_load[host.0 as usize];
                self.record(Some(pid), TraceKind::LoadChange { host, total });
                self.mark_host_dirty(host.0 as usize);
                self.recompute();
                self.resume_first(pid, Grant::Unit);
            }
            Request::RemoveLoad { host, amount } => {
                let l = &mut self.host_load[host.0 as usize];
                *l = (*l - amount).max(0.0);
                let total = *l;
                self.record(Some(pid), TraceKind::LoadChange { host, total });
                self.mark_host_dirty(host.0 as usize);
                self.recompute();
                self.resume_first(pid, Grant::Unit);
            }
            Request::Trace { label, value } => {
                self.record(Some(pid), TraceKind::Custom { label, value });
                self.resume_first(pid, Grant::Unit);
            }
            Request::Exit => {
                let slot = &mut self.procs[pid.0 as usize];
                slot.state = PState::Done;
                let name = slot.name.clone();
                self.completed.push(name.clone());
                self.record(Some(pid), TraceKind::ProcExit { name });
                self.rec.track_end(pid.0, self.now);
            }
            Request::Panic(msg) => {
                let slot = &mut self.procs[pid.0 as usize];
                slot.state = PState::Failed;
                let name = slot.name.clone();
                self.failed.push((name.to_string(), msg.clone()));
                self.record(Some(pid), TraceKind::ProcFail { name, message: msg });
                self.rec.track_end(pid.0, self.now);
            }
        }
    }

    fn alloc_cpu(&mut self, host: usize, pid: ProcId, flops: f64) {
        let action = CpuAction {
            host,
            pid,
            remaining: flops,
            rate: 0.0,
            gen: 0,
            ev: NO_HANDLE,
            due: f64::INFINITY,
        };
        let id = match self.free_cpu.pop() {
            Some(i) => {
                self.cpu[i as usize] = Some(action);
                i as usize
            }
            None => {
                self.cpu.push(Some(action));
                self.cpu.len() - 1
            }
        };
        self.host_actions[host].push(id as u32);
        self.mark_host_dirty(host);
    }

    fn do_send(
        &mut self,
        pid: ProcId,
        key: MailKey,
        dst: HostId,
        bytes: f64,
        payload: Payload,
        mode: SendMode,
    ) {
        let src = self.procs[pid.0 as usize].host;
        match mode {
            SendMode::Eager => {
                self.start_flow(src, dst, bytes, Some(payload), OnDone::Deliver { key });
                self.resume_first(pid, Grant::Unit);
            }
            SendMode::Rendezvous => {
                let waiting = self.pop_alive_waiting(key);
                match waiting {
                    Some(recv) => {
                        // Deliver to the receiver's actual host (robust if a
                        // logical destination was remapped by swapping).
                        let rdst = self.procs[recv.0 as usize].host;
                        self.start_flow(
                            src,
                            rdst,
                            bytes,
                            Some(payload),
                            OnDone::Rendezvous { recv, send: pid },
                        );
                    }
                    None => {
                        self.mailboxes
                            .get_or_insert(key)
                            .queued_sync
                            .push_back(QueuedSend {
                                sender: pid,
                                src,
                                bytes,
                                payload,
                            });
                    }
                }
            }
        }
    }

    /// Pop the first still-alive waiting receiver on a mailbox, discarding
    /// any that died with their host. Releases the mailbox if that leaves
    /// it empty.
    fn pop_alive_waiting(&mut self, key: MailKey) -> Option<ProcId> {
        let mb = self.mailboxes.get_mut(key)?;
        let mut found = None;
        while let Some(r) = mb.waiting.pop_front() {
            if self.procs[r.0 as usize].state == PState::Alive {
                found = Some(r);
                break;
            }
        }
        self.mailboxes.release_if_empty(key);
        found
    }

    fn do_recv(&mut self, pid: ProcId, key: MailKey) {
        if let Some(mb) = self.mailboxes.get_mut(key) {
            if let Some(p) = mb.arrived.pop_front() {
                self.mailboxes.release_if_empty(key);
                self.resume_first(pid, Grant::Payload(p));
                return;
            }
            if let Some(qs) = mb.queued_sync.pop_front() {
                self.mailboxes.release_if_empty(key);
                let dst = self.procs[pid.0 as usize].host;
                self.start_flow(
                    qs.src,
                    dst,
                    qs.bytes,
                    Some(qs.payload),
                    OnDone::Rendezvous {
                        recv: pid,
                        send: qs.sender,
                    },
                );
                return;
            }
        }
        self.mailboxes.get_or_insert(key).waiting.push_back(pid);
    }

    /// Interned route lookup: resolves each (src, dst) pair once and shares
    /// the link list for every subsequent flow.
    /// Intern the route for a host pair, deduplicating by *content*
    /// (link list + latency): every pair sharing one physical path maps to
    /// a single route id, which is what [`Self::solve_component`] groups
    /// route classes by. Hosts have private NIC uplinks, so distinct pairs
    /// stay distinct; the dedup collapses repeated lookups of one pair,
    /// and all same-host (empty-route) transfers grid-wide.
    fn route_id(&mut self, src: HostId, dst: HostId) -> u32 {
        if let Some(&id) = self.route_ids.get(&(src.0, dst.0)) {
            return id;
        }
        let mut links = std::mem::take(&mut self.scratch.route_tmp);
        links.clear();
        let latency = self.grid.route_links_into(src, dst, &mut links);
        let content = (links[..].into(), latency.to_bits());
        let id = match self.route_contents.get(&content) {
            Some(&id) => id,
            None => {
                let id = self.routes_tbl.len() as u32;
                self.routes_tbl.push(RouteEntry {
                    links: content.0.clone(),
                    latency,
                });
                self.route_contents.insert(content, id);
                id
            }
        };
        self.scratch.route_tmp = links;
        self.route_ids.insert((src.0, dst.0), id);
        id
    }

    fn start_flow(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: f64,
        payload: Option<Payload>,
        on_done: OnDone,
    ) {
        let rid = self.route_id(src, dst);
        let latency = self.routes_tbl[rid as usize].latency;
        let flow = Flow {
            route: rid,
            size: bytes.max(0.0),
            remaining: bytes.max(0.0),
            rate: 0.0,
            gen: 0,
            active: false,
            act_idx: u32::MAX,
            ev: NO_HANDLE,
            due: f64::INFINITY,
            part: self.part_of_host[src.0 as usize],
            payload,
            on_done,
        };
        let id = match self.free_flows.pop() {
            Some(i) => {
                self.flows[i as usize] = Some(flow);
                i as usize
            }
            None => {
                self.flows.push(Some(flow));
                self.flows.len() - 1
            }
        };
        let t = self.now + latency;
        self.push_event(t, EventKind::FlowActivate { id });
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    /// Apply a popped event. `CpuDone`/`FlowDone` staleness was already
    /// checked by the run loop; the generations seen here are live.
    fn apply_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(pid) => {
                let name = self.procs[pid.0 as usize].name.clone();
                self.record(Some(pid), TraceKind::ProcStart { name });
                self.rec.track_start(pid.0, self.now);
                self.resume(pid, Grant::Unit);
            }
            EventKind::SleepDone(pid) => self.resume(pid, Grant::Unit),
            EventKind::CpuDone { id, .. } => {
                let a = self.cpu[id].take().expect("validated by run loop");
                let ha = &mut self.host_actions[a.host];
                let pos = ha
                    .iter()
                    .position(|&x| x == id as u32)
                    .expect("action indexed on its host");
                ha.swap_remove(pos);
                self.free_cpu.push(id as u32);
                self.mark_host_dirty(a.host);
                self.resume(a.pid, Grant::Unit);
                self.recompute();
            }
            EventKind::FlowActivate { id } => {
                let f = self.flows[id].as_mut().expect("flow exists at activate");
                f.active = true;
                let route = f.route as usize;
                let instant = self.routes_tbl[route].links.is_empty() || f.remaining <= 0.0;
                if instant {
                    self.finish_flow(id);
                } else {
                    let f = self.flows[id].as_mut().expect("flow exists at activate");
                    f.act_idx = self.active_flows.len() as u32;
                    self.active_flows.push(id as u32);
                    for k in 0..self.routes_tbl[route].links.len() {
                        let l = self.routes_tbl[route].links[k] as usize;
                        self.link_flows[l].push(id as u32);
                        if !self.dirty_link_mark.contains(l) {
                            self.dirty_link_mark.set(l, 0);
                            self.dirty_links.push(l as u32);
                        }
                    }
                    self.recompute();
                }
            }
            EventKind::FlowDone { id, .. } => {
                let (route, act_idx, size) = {
                    let f = self.flows[id].as_ref().expect("validated by run loop");
                    (f.route as usize, f.act_idx as usize, f.size)
                };
                for k in 0..self.routes_tbl[route].links.len() {
                    let l = self.routes_tbl[route].links[k] as usize;
                    // The whole transfer is credited at completion; the
                    // accrual sweep no longer touches link counters.
                    self.link_bytes[l] += size;
                    let v = &mut self.link_flows[l];
                    let pos = v
                        .iter()
                        .position(|&x| x == id as u32)
                        .expect("flow indexed on its links");
                    v.swap_remove(pos);
                    if !self.dirty_link_mark.contains(l) {
                        self.dirty_link_mark.set(l, 0);
                        self.dirty_links.push(l as u32);
                    }
                }
                self.active_flows.swap_remove(act_idx);
                if let Some(&moved) = self.active_flows.get(act_idx) {
                    self.flows[moved as usize]
                        .as_mut()
                        .expect("active flow indexed")
                        .act_idx = act_idx as u32;
                }
                self.finish_flow(id);
                self.recompute();
            }
            EventKind::HostFail { host } => {
                let h = host.0 as usize;
                self.host_alive[h] = false;
                self.host_load[h] = 0.0;
                // Kill every process on the host and drop its CPU actions.
                let pids: Vec<ProcId> = self
                    .procs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.host == host && p.state == PState::Alive)
                    .map(|(i, _)| ProcId(i as u32))
                    .collect();
                for pid in &pids {
                    self.procs[pid.0 as usize].state = PState::Died;
                    self.rec.track_end(pid.0, self.now);
                }
                let ids = std::mem::take(&mut self.host_actions[h]);
                for &idu in &ids {
                    let a = self.cpu[idu as usize]
                        .take()
                        .expect("action live on failed host");
                    if a.gen != 0 && a.rate > 0.0 {
                        let mut ev = a.ev;
                        Self::cancel_ev(&mut self.events, &mut self.stale_events, &mut ev);
                    }
                    self.free_cpu.push(idu);
                }
                // Drop queued resumptions for dead processes.
                self.runnable
                    .retain(|(pid, _)| self.procs[pid.0 as usize].state == PState::Alive);
                self.record(None, TraceKind::HostFail { host });
                self.mark_host_dirty(h);
                self.recompute();
            }
            EventKind::LoadOn { host, amount } => {
                self.host_load[host.0 as usize] += amount;
                let total = self.host_load[host.0 as usize];
                self.record(None, TraceKind::LoadChange { host, total });
                self.mark_host_dirty(host.0 as usize);
                self.recompute();
            }
            EventKind::LoadOff { host, amount } => {
                let l = &mut self.host_load[host.0 as usize];
                *l = (*l - amount).max(0.0);
                let total = *l;
                self.record(None, TraceKind::LoadChange { host, total });
                self.mark_host_dirty(host.0 as usize);
                self.recompute();
            }
        }
    }

    fn finish_flow(&mut self, id: usize) {
        let f = self.flows[id].take().expect("flow exists at completion");
        self.free_flows.push(id as u32);
        match f.on_done {
            OnDone::Wake(pid) => self.resume(pid, Grant::Unit),
            OnDone::Deliver { key } => {
                let payload = f.payload.expect("eager flow carries a payload");
                if let Some(r) = self.pop_alive_waiting(key) {
                    self.resume(r, Grant::Payload(payload));
                } else {
                    self.mailboxes.get_or_insert(key).arrived.push_back(payload);
                }
            }
            OnDone::Rendezvous { recv, send } => {
                let payload = f.payload.expect("rendezvous flow carries a payload");
                self.resume(recv, Grant::Payload(payload));
                self.resume(send, Grant::Unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::mail_key;
    use crate::topology::{GridBuilder, HostSpec};

    fn one_host_grid(speed: f64) -> (Grid, HostId) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(c, 1, &HostSpec::with_speed(speed));
        (b.build().unwrap(), hs[0])
    }

    fn two_host_grid() -> (Grid, HostId, HostId) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        b.local_link(c, 1e6, 0.01);
        let hs = b.add_hosts(c, 2, &HostSpec::with_speed(100.0));
        (b.build().unwrap(), hs[0], hs[1])
    }

    /// Every request kind against the at-once classification: the kinds
    /// the kernel always answers first, and the blocking kinds. Running
    /// them drives the `debug_assert` in `pump_processes`, which checks
    /// that each request classified as at-once was resumed first.
    #[test]
    fn at_once_classification_matches_the_kernel() {
        use crate::process::{Request, SendMode};
        let (g, a, b) = two_host_grid();
        let key = mail_key(&[9]);
        let send = |mode| Request::Send {
            key,
            dst: b,
            bytes: 1.0,
            payload: Box::new(()),
            mode,
        };
        let label: Arc<str> = Arc::from("x");
        let at_once = [
            Request::Compute { flops: 0.0 },
            Request::Compute { flops: -1.0 },
            Request::Sleep { dt: 0.0 },
            send(SendMode::Eager),
            Request::TryRecv { key },
            Request::Spawn {
                name: "c".into(),
                host: a,
                f: Box::new(|_| {}),
            },
            Request::InjectLoad {
                host: a,
                amount: 1.0,
            },
            Request::RemoveLoad {
                host: a,
                amount: 1.0,
            },
            Request::Trace { label, value: 0.0 },
        ];
        assert!(at_once.iter().all(Request::answered_at_once));
        let blocking = [
            Request::Compute { flops: 1.0 },
            Request::Sleep { dt: 0.5 },
            send(SendMode::Rendezvous),
            Request::Recv { key },
            Request::Transfer { dst: b, bytes: 1.0 },
            Request::Exit,
            Request::Panic(String::new()),
        ];
        assert!(!blocking.iter().any(Request::answered_at_once));

        for mode in [HandoffMode::Direct, HandoffMode::Channel] {
            let mut eng = Engine::new(g.clone());
            eng.set_handoff_mode(mode);
            let (k1, k2) = (mail_key(&[1]), mail_key(&[2]));
            eng.spawn("a", a, move |ctx| {
                ctx.compute(0.0);
                ctx.sleep(0.0);
                ctx.isend(k1, b, 10.0, Box::new(()));
                assert!(ctx.try_recv(k2).is_none());
                ctx.spawn("child", a, |ctx| ctx.compute(0.0));
                ctx.inject_load(a, 1.0);
                ctx.remove_load(a, 1.0);
                ctx.trace("x", 1.0);
                ctx.compute(50.0);
                ctx.sleep(0.5);
                ctx.send(k2, b, 10.0, Box::new(()));
                ctx.transfer(b, 10.0);
            });
            eng.spawn("b", b, move |ctx| {
                ctx.sleep(1.0);
                // Already delivered: answered at once though classified
                // as blocking (the check runs one way only).
                let _ = ctx.recv(k1);
                let _ = ctx.recv(k2);
            });
            let r = eng.run();
            assert_eq!(r.completed.len(), 3, "{mode:?}: {r:?}");
            assert!(r.failed.is_empty() && r.unfinished.is_empty());
        }
    }

    #[test]
    fn compute_takes_flops_over_speed() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.spawn("w", h, |ctx| {
            ctx.compute(250.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 2.5).abs() < 1e-9);
        assert_eq!(r.completed, vec!["w".to_string()]);
        assert!(r.unfinished.is_empty());
    }

    #[test]
    fn two_actions_share_single_core() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        for i in 0..2 {
            eng.spawn(&format!("w{i}"), h, |ctx| {
                ctx.compute(100.0);
                let t = ctx.now();
                ctx.trace("t", t);
            });
        }
        let r = eng.run();
        for (_, v) in r.trace.series("t") {
            assert!((v - 2.0).abs() < 1e-9, "expected 2.0, got {v}");
        }
    }

    #[test]
    fn injected_load_halves_rate() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.add_load_window(h, 0.0, None, 1.0);
        eng.spawn("w", h, |ctx| {
            ctx.compute(100.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn load_window_ends() {
        // 1s at half speed (50 flops done), then full speed for the other 50.
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.add_load_window(h, 0.0, Some(1.0), 1.0);
        eng.spawn("w", h, |ctx| {
            ctx.compute(100.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn dual_core_absorbs_competitor() {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(
            c,
            1,
            &HostSpec {
                speed: 100.0,
                cores: 2,
                ..Default::default()
            },
        );
        let g = b.build().unwrap();
        let mut eng = Engine::new(g);
        eng.add_load_window(hs[0], 0.0, None, 1.0);
        eng.spawn("w", hs[0], |ctx| {
            ctx.compute(100.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn message_timing_includes_latency_and_bandwidth() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[1]);
        eng.spawn("recv", bhost, move |ctx| {
            let p = ctx.recv(key);
            let v = *p.downcast::<u64>().unwrap();
            let t = ctx.now();
            ctx.trace("rt", t);
            ctx.trace("val", v as f64);
        });
        eng.spawn("send", a, move |ctx| {
            ctx.send(key, bhost, 1e6, Box::new(42u64));
            let t = ctx.now();
            ctx.trace("st", t);
        });
        let r = eng.run();
        // Route: two 1 MB/s uplinks, 10 ms each. Latency 0.02 + 1.0 s data.
        let rt = r.trace.last_value("rt").unwrap();
        assert!((rt - 1.02).abs() < 1e-6, "rt = {rt}");
        let st = r.trace.last_value("st").unwrap();
        assert!(
            (st - 1.02).abs() < 1e-6,
            "sender blocked until delivery: {st}"
        );
        assert_eq!(r.trace.last_value("val").unwrap(), 42.0);
    }

    #[test]
    fn eager_send_does_not_block() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[2]);
        eng.spawn("send", a, move |ctx| {
            ctx.isend(key, bhost, 1e6, Box::new(1u8));
            let t = ctx.now();
            ctx.trace("st", t);
        });
        eng.spawn("recv", bhost, move |ctx| {
            ctx.sleep(5.0);
            let _ = ctx.recv(key);
            let t = ctx.now();
            ctx.trace("rt", t);
        });
        let r = eng.run();
        assert!(r.trace.last_value("st").unwrap() < 1e-9);
        // Flow completed at ~1.02 s; receiver picks it up at t=5 instantly.
        assert!((r.trace.last_value("rt").unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rendezvous_waits_for_receiver() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[3]);
        eng.spawn("send", a, move |ctx| {
            ctx.send(key, bhost, 1e6, Box::new(1u8));
            let t = ctx.now();
            ctx.trace("st", t);
        });
        eng.spawn("recv", bhost, move |ctx| {
            ctx.sleep(5.0);
            let _ = ctx.recv(key);
            let t = ctx.now();
            ctx.trace("rt", t);
        });
        let r = eng.run();
        // Transfer starts at t=5 when the receive is posted.
        assert!((r.trace.last_value("rt").unwrap() - 6.02).abs() < 1e-6);
        assert!((r.trace.last_value("st").unwrap() - 6.02).abs() < 1e-6);
    }

    #[test]
    fn same_host_message_is_instant() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        let key = mail_key(&[4]);
        eng.spawn("recv", h, move |ctx| {
            let _ = ctx.recv(key);
            let t = ctx.now();
            ctx.trace("rt", t);
        });
        eng.spawn("send", h, move |ctx| {
            ctx.send(key, h, 1e9, Box::new(0u8));
        });
        let r = eng.run();
        assert!(r.trace.last_value("rt").unwrap() < 1e-9);
    }

    #[test]
    fn concurrent_flows_share_bandwidth() {
        // Two flows from a to b: each uplink carries both, so each gets half.
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        for i in 0..2u64 {
            let key = mail_key(&[10 + i]);
            eng.spawn(&format!("r{i}"), bhost, move |ctx| {
                let _ = ctx.recv(key);
                let t = ctx.now();
                ctx.trace("rt", t);
            });
            eng.spawn(&format!("s{i}"), a, move |ctx| {
                ctx.isend(key, bhost, 1e6, Box::new(0u8));
            });
        }
        let r = eng.run();
        for (_, v) in r.trace.series("rt") {
            assert!((v - 2.02).abs() < 1e-3, "expected ~2.02, got {v}");
        }
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[20]);
        eng.spawn("poll", bhost, move |ctx| {
            assert!(ctx.try_recv(key).is_none());
            ctx.sleep(3.0);
            let got = ctx.try_recv(key).is_some();
            ctx.trace("got", if got { 1.0 } else { 0.0 });
        });
        eng.spawn("send", a, move |ctx| {
            ctx.isend(key, bhost, 1e6, Box::new(0u8));
        });
        let r = eng.run();
        assert_eq!(r.trace.last_value("got").unwrap(), 1.0);
    }

    #[test]
    fn transfer_blocks_for_duration() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.spawn("w", a, move |ctx| {
            ctx.transfer(bhost, 2e6);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert!((r.trace.last_value("t").unwrap() - 2.02).abs() < 1e-6);
    }

    #[test]
    fn runtime_spawn_and_load_injection() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.spawn("driver", h, move |ctx| {
            ctx.spawn("child", h, |cctx| {
                cctx.compute(100.0);
                let t = cctx.now();
                cctx.trace("child_done", t);
            });
            ctx.sleep(0.5);
            ctx.inject_load(h, 1.0);
        });
        let r = eng.run();
        // Child: 0.5 s at full speed (50 flops), then 50 flops at half
        // speed = 1.0 s more -> 1.5 s total.
        assert!((r.trace.last_value("child_done").unwrap() - 1.5).abs() < 1e-9);
        assert!(r.completed.contains(&"child".to_string()));
    }

    #[test]
    fn deadlocked_process_reported_and_killed() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        let key = mail_key(&[99]);
        eng.spawn("stuck", h, move |ctx| {
            let _ = ctx.recv(key); // nobody ever sends
        });
        let r = eng.run();
        assert_eq!(r.unfinished, vec!["stuck".to_string()]);
        assert!(r.completed.is_empty());
    }

    #[test]
    fn run_until_cuts_off() {
        let (g, h) = one_host_grid(1.0);
        let mut eng = Engine::new(g);
        eng.spawn("slow", h, |ctx| {
            ctx.compute(1e9);
        });
        let r = eng.run_until(10.0);
        assert!(r.end_time <= 10.0);
        assert_eq!(r.unfinished, vec!["slow".to_string()]);
    }

    #[test]
    fn process_panic_is_reported() {
        let (g, h) = one_host_grid(1.0);
        let mut eng = Engine::new(g);
        eng.panic_on_failure = false;
        eng.spawn("bad", h, |_ctx| {
            panic!("boom");
        });
        let r = eng.run();
        assert_eq!(r.failed.len(), 1);
        assert_eq!(r.failed[0].0, "bad");
        assert!(r.failed[0].1.contains("boom"));
    }

    #[test]
    fn host_failure_kills_processes() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.fail_host_at(a, 1.0);
        eng.spawn("victim", a, |ctx| {
            ctx.compute(1e9); // 10 s of work: dies mid-flight
            ctx.trace("never", 1.0);
        });
        eng.spawn("survivor", bhost, |ctx| {
            ctx.compute(200.0); // 2 s
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let r = eng.run();
        assert_eq!(r.died, vec!["victim".to_string()]);
        assert!(r.trace.series("never").is_empty());
        assert!((r.trace.last_value("t").unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(r.completed, vec!["survivor".to_string()]);
    }

    #[test]
    fn spawn_on_dead_host_dies_immediately() {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.fail_host_at(a, 0.5);
        eng.spawn("spawner", bhost, move |ctx| {
            ctx.sleep(1.0);
            ctx.spawn("late", a, |c| {
                c.trace("late_ran", 1.0);
            });
            ctx.sleep(1.0);
        });
        let r = eng.run();
        assert!(r.trace.series("late_ran").is_empty());
        assert!(r.died.contains(&"late".to_string()));
    }

    #[test]
    fn receiver_death_leaves_sender_blocked() {
        // A rendezvous send to a process that died waiting: the sender
        // blocks forever (like MPI on peer failure) and is reported
        // unfinished.
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        let key = mail_key(&[77]);
        eng.fail_host_at(bhost, 0.5);
        eng.spawn("recv", bhost, move |ctx| {
            let _ = ctx.recv(key);
        });
        eng.spawn("send", a, move |ctx| {
            ctx.sleep(1.0);
            ctx.send(key, bhost, 1e6, Box::new(1u8));
            ctx.trace("sent", 1.0);
        });
        let r = eng.run();
        assert!(r.died.contains(&"recv".to_string()));
        assert!(r.trace.series("sent").is_empty());
        assert_eq!(r.unfinished, vec!["send".to_string()]);
    }

    #[test]
    fn utilization_accounting() {
        let (g, h) = one_host_grid(100.0);
        let grid = g.clone();
        let mut eng = Engine::new(g);
        eng.spawn("w", h, |ctx| {
            ctx.compute(500.0); // 5 s of the run
            ctx.sleep(5.0); // idle 5 s
        });
        let r = eng.run();
        assert!((r.host_flops[0] - 500.0).abs() < 1e-6);
        assert!((r.host_utilization(&grid, h) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn multicore_utilization_normalizes_by_cores() {
        // Two actions on a dual-core host both run at full single-core
        // speed; the host is fully busy, so utilization is 1.0 (the old
        // single-core normalization wrongly reported 2.0).
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(
            c,
            1,
            &HostSpec {
                speed: 100.0,
                cores: 2,
                ..Default::default()
            },
        );
        let g = b.build().unwrap();
        let grid = g.clone();
        let mut eng = Engine::new(g);
        for i in 0..2 {
            eng.spawn(&format!("w{i}"), hs[0], |ctx| {
                ctx.compute(200.0); // 2 s at one core each
            });
        }
        let r = eng.run();
        assert!((r.host_flops[0] - 400.0).abs() < 1e-6);
        assert!((r.host_utilization(&grid, hs[0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn link_byte_accounting() {
        let (g, a, bhost) = two_host_grid();
        let grid = g.clone();
        let mut eng = Engine::new(g);
        eng.spawn("w", a, move |ctx| {
            ctx.transfer(bhost, 2e6);
        });
        let r = eng.run();
        let route = grid.route(a, bhost);
        for &l in &route.links {
            assert!(
                (r.link_bytes[l.0 as usize] - 2e6).abs() < 1.0,
                "link {l:?}: {}",
                r.link_bytes[l.0 as usize]
            );
        }
        // A link not on the route carried nothing.
        let other = grid.host(bhost).uplink_tx;
        assert_eq!(r.link_bytes[other.0 as usize], 0.0);
    }

    #[test]
    fn determinism_same_seedless_run_twice() {
        let build = || {
            let (g, a, bhost) = two_host_grid();
            let mut eng = Engine::new(g);
            for i in 0..4u64 {
                let key = mail_key(&[i]);
                eng.spawn(&format!("r{i}"), bhost, move |ctx| {
                    let _ = ctx.recv(key);
                    ctx.compute(50.0 * (i + 1) as f64);
                    let t = ctx.now();
                    ctx.trace("done", t);
                });
                eng.spawn(&format!("s{i}"), a, move |ctx| {
                    ctx.sleep(0.1 * i as f64);
                    ctx.send(key, bhost, 1e5 * (i + 1) as f64, Box::new(i));
                });
            }
            eng.run()
        };
        let r1 = build();
        let r2 = build();
        let s1 = r1.trace.series("done");
        let s2 = r2.trace.series("done");
        assert_eq!(s1.len(), s2.len());
        for (x, y) in s1.iter().zip(&s2) {
            assert_eq!(x, y);
        }
    }

    /// Run a small mixed compute/communication scenario under one mode.
    fn mode_scenario(mode: RecomputeMode) -> RunReport {
        let (g, a, bhost) = two_host_grid();
        let mut eng = Engine::new(g);
        eng.set_recompute_mode(mode);
        eng.add_load_window(a, 0.3, Some(1.1), 1.0);
        for i in 0..3u64 {
            let key = mail_key(&[40 + i]);
            eng.spawn(&format!("r{i}"), bhost, move |ctx| {
                let _ = ctx.recv(key);
                ctx.compute(80.0 * (i + 1) as f64);
                let t = ctx.now();
                ctx.trace("done", t);
            });
            eng.spawn(&format!("s{i}"), a, move |ctx| {
                ctx.compute(30.0 * (i + 1) as f64);
                ctx.send(key, bhost, 2e5 * (i + 1) as f64, Box::new(i));
            });
        }
        eng.run()
    }

    #[test]
    fn incremental_matches_full_bitwise() {
        let inc = mode_scenario(RecomputeMode::Incremental);
        let full = mode_scenario(RecomputeMode::Full);
        assert_eq!(inc, full);
    }

    #[test]
    fn incremental_matches_legacy_timing() {
        // Legacy re-stamps everything, so stale-pop timing chunks floating
        // point accrual differently; results agree to tolerance, not bits.
        let inc = mode_scenario(RecomputeMode::Incremental);
        let leg = mode_scenario(RecomputeMode::Legacy);
        assert_eq!(inc.completed, leg.completed);
        assert_eq!(inc.events_processed, leg.events_processed);
        let si = inc.trace.series("done");
        let sl = leg.trace.series("done");
        assert_eq!(si.len(), sl.len());
        for ((ti, vi), (tl, vl)) in si.iter().zip(&sl) {
            assert!((ti - tl).abs() < 1e-6, "times differ: {ti} vs {tl}");
            assert!((vi - vl).abs() < 1e-6);
        }
        for (x, y) in inc.host_flops.iter().zip(&leg.host_flops) {
            assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0));
        }
    }

    /// Three clusters over WAN links, cross-cluster message rings, local
    /// contention, external load churn and a host failure — every event
    /// class the windowed kernel must merge correctly.
    fn cross_cluster_scenario(kernel: KernelMode, policy: WindowPolicy) -> RunReport {
        cross_cluster_scenario_tuned(
            EngineTune {
                kernel,
                ..Default::default()
            },
            policy,
        )
    }

    fn cross_cluster_scenario_tuned(tune: EngineTune, policy: WindowPolicy) -> RunReport {
        let mut b = GridBuilder::new();
        let mut all_hosts = Vec::new();
        let mut clusters = Vec::new();
        for name in ["A", "B", "C"] {
            let c = b.cluster(name);
            b.local_link(c, 1e8, 1e-4);
            all_hosts.push(b.add_hosts(c, 3, &HostSpec::with_speed(100.0)));
            clusters.push(c);
        }
        b.connect(clusters[0], clusters[1], 1e7, 0.02);
        b.connect(clusters[1], clusters[2], 2e7, 0.035);
        b.connect(clusters[0], clusters[2], 5e6, 0.05);
        let grid = b.build().unwrap();
        let mut eng = Engine::new(grid);
        eng.apply_tune(tune);
        eng.set_window_policy(policy);
        // Cross-cluster ring: each hop computes then forwards.
        for ring in 0..3u64 {
            // Host index stays in {0, 1}: index 2 of cluster C is the
            // fault-injection victim below.
            let path: Vec<HostId> = (0..3)
                .map(|c| all_hosts[(c + ring as usize) % 3][(ring as usize + c) % 2])
                .collect();
            let key0 = mail_key(&[ring, 0]);
            let key1 = mail_key(&[ring, 1]);
            let h1 = path[1];
            let h2 = path[2];
            eng.spawn(&format!("src{ring}"), path[0], move |ctx| {
                ctx.compute(150.0 + 10.0 * ring as f64);
                ctx.send(key0, h1, 2e5, Box::new(ring));
            });
            eng.spawn(&format!("mid{ring}"), path[1], move |ctx| {
                let v = ctx.recv(key0);
                ctx.compute(80.0);
                ctx.send(key1, h2, 3e5, Box::new(v));
            });
            eng.spawn(&format!("dst{ring}"), path[2], move |ctx| {
                let _ = ctx.recv(key1);
                ctx.compute(40.0);
                let t = ctx.now();
                ctx.trace("ring_done", t);
            });
        }
        // Local contention plus load churn in cluster B.
        for i in 0..4u64 {
            eng.spawn(&format!("local{i}"), all_hosts[1][i as usize % 3], |ctx| {
                for _ in 0..3 {
                    ctx.compute(60.0);
                    ctx.sleep(0.5);
                }
            });
        }
        eng.add_load_window(all_hosts[1][0], 1.0, Some(4.0), 1.5);
        eng.add_load_window(all_hosts[2][1], 0.5, None, 0.7);
        // Fault injection in cluster C: one victim mid-run.
        eng.spawn("victim", all_hosts[2][2], |ctx| {
            ctx.compute(1e9);
        });
        eng.fail_host_at(all_hosts[2][2], 2.5);
        eng.panic_on_failure = false;
        eng.run_until(500.0)
    }

    /// The windowed kernel replays the serial applied-event sequence
    /// exactly, so every result — times, flops, bytes, trace — is bitwise
    /// identical at any worker count, pool dispatch forced on or off.
    #[test]
    fn windowed_matches_serial_bitwise_at_any_worker_count() {
        let serial = cross_cluster_scenario(KernelMode::Serial, WindowPolicy::default());
        assert!(
            serial.trace.series("ring_done").len() == 3,
            "scenario exercises all rings"
        );
        for workers in [1, 2, 4] {
            for force_parallel in [false, true] {
                let policy = WindowPolicy {
                    force_parallel,
                    min_parallel_drain: 0,
                    min_parallel_accrual: 0,
                    ..WindowPolicy::default()
                };
                let windowed = cross_cluster_scenario(KernelMode::Windowed { workers }, policy);
                assert_eq!(
                    serial, windowed,
                    "workers={workers} force_parallel={force_parallel}"
                );
            }
        }
    }

    /// Window policy knobs are dispatch-only: no threshold choice may
    /// perturb a single result bit.
    #[test]
    fn windowed_policy_does_not_perturb_results() {
        let reference =
            cross_cluster_scenario(KernelMode::Windowed { workers: 2 }, WindowPolicy::default());
        for policy in [
            WindowPolicy {
                max_drain_per_shard: 1,
                ..WindowPolicy::default()
            },
            WindowPolicy {
                max_drain_per_shard: 7,
                min_parallel_drain: 0,
                min_parallel_accrual: 0,
                force_parallel: true,
            },
            WindowPolicy {
                max_drain_per_shard: 100_000,
                min_parallel_drain: 1_000_000,
                min_parallel_accrual: 1_000_000,
                force_parallel: false,
            },
        ] {
            let r = cross_cluster_scenario(KernelMode::Windowed { workers: 2 }, policy);
            assert_eq!(reference, r, "{policy:?}");
        }
    }

    /// A single-cluster grid has no WAN latency: the lookahead is infinite
    /// and the drain cap alone bounds windows. Still bit-identical.
    #[test]
    fn windowed_handles_single_cluster_infinite_lookahead() {
        let run = |kernel: KernelMode| {
            let (g, h0, h1) = two_host_grid();
            let mut eng = Engine::new(g);
            eng.apply_tune(EngineTune {
                kernel,
                ..Default::default()
            });
            let key = mail_key(&[9]);
            eng.spawn("a", h0, move |ctx| {
                ctx.compute(120.0);
                ctx.send(key, h1, 5e5, Box::new(1u8));
            });
            eng.spawn("b", h1, move |ctx| {
                let _ = ctx.recv(key);
                ctx.compute(60.0);
                let t = ctx.now();
                ctx.trace("done", t);
            });
            eng.run()
        };
        let serial = run(KernelMode::Serial);
        let windowed = run(KernelMode::Windowed { workers: 4 });
        assert_eq!(serial, windowed);
        assert!(serial.trace.last_value("done").is_some());
    }

    /// Switching to windowed mode and back migrates pending events (and
    /// their cancellation handles) without loss.
    #[test]
    fn kernel_mode_round_trip_preserves_pending_events() {
        let (g, h) = one_host_grid(100.0);
        let mut eng = Engine::new(g);
        eng.add_load_window(h, 1.0, Some(2.0), 1.0);
        eng.spawn("w", h, |ctx| {
            ctx.compute(180.0);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        let before = eng.events.len();
        eng.set_kernel_mode(KernelMode::Windowed { workers: 2 });
        assert!(matches!(eng.events, EventQueue::Sharded(_)));
        assert_eq!(eng.events.len(), before);
        eng.set_kernel_mode(KernelMode::Serial);
        assert!(matches!(eng.events, EventQueue::Indexed(_)));
        assert_eq!(eng.events.len(), before);
        let r = eng.run();
        // 100 flops in [0,1) at full rate, 50 in [1,2) at half (load 1.0),
        // the last 30 at full rate again: done at t = 2.3.
        assert!((r.trace.last_value("t").unwrap() - 2.3).abs() < 1e-9);
    }

    /// Coalesced timing is a pure scheduling change: on the mixed
    /// cross-cluster scenario (WAN flows, load windows, a host failure) the
    /// run report matches the eager reference bit for bit under both
    /// kernels. Unit level of the three-level pin (property:
    /// `tests/prop_coalesced.rs`, e2e: `tests/substrate_determinism.rs`).
    #[test]
    fn coalesced_recompute_matches_eager_bitwise() {
        for kernel in [KernelMode::Serial, KernelMode::Windowed { workers: 2 }] {
            let eager = cross_cluster_scenario_tuned(
                EngineTune {
                    kernel,
                    recompute: RecomputeTiming::Eager,
                    ..Default::default()
                },
                WindowPolicy::default(),
            );
            let coalesced = cross_cluster_scenario_tuned(
                EngineTune {
                    kernel,
                    recompute: RecomputeTiming::Coalesced,
                    ..Default::default()
                },
                WindowPolicy::default(),
            );
            assert_eq!(eager, coalesced, "{kernel:?}");
        }
    }

    /// Coalescing actually coalesces: a same-instant send burst (one
    /// process issuing several non-blocking sends back to back) runs fewer
    /// rate solves than churn notifications, while eager runs exactly one
    /// solve per churn. Both see the same churn count — `sim.recomputes`
    /// is a property of the scenario, not of the timing.
    #[test]
    fn coalescing_reduces_solves_on_same_instant_bursts() {
        let run = |timing: RecomputeTiming| {
            let (g, h0, h1) = two_host_grid();
            let mut eng = Engine::new(g);
            eng.apply_tune(EngineTune {
                recompute: timing,
                ..Default::default()
            });
            let obs = grads_obs::Obs::enabled();
            eng.set_obs(obs.clone());
            for i in 0..4u64 {
                let key = mail_key(&[i]);
                eng.spawn(&format!("s{i}"), h0, move |ctx| {
                    ctx.isend(key, h1, 1e5, Box::new(i));
                });
                eng.spawn(&format!("r{i}"), h1, move |ctx| {
                    let _ = ctx.recv(key);
                });
            }
            let report = eng.run();
            let snap = obs.snapshot();
            (
                report,
                snap.counter("sim.recomputes").unwrap_or(0),
                snap.counter("sim.recompute.solves").unwrap_or(0),
                snap.counter("sim.recompute.coalesced").unwrap_or(0),
            )
        };
        let (re, churn_e, solves_e, absorbed_e) = run(RecomputeTiming::Eager);
        let (rc, churn_c, solves_c, absorbed_c) = run(RecomputeTiming::Coalesced);
        assert_eq!(re, rc, "burst reports must be bit-identical");
        assert_eq!(churn_e, churn_c, "churn count is timing-invariant");
        assert_eq!(solves_e, churn_e, "eager solves once per churn");
        assert_eq!(absorbed_e, 0, "eager absorbs nothing");
        assert!(
            solves_c < solves_e,
            "coalescing must absorb same-instant churn: {solves_c} vs {solves_e}"
        );
        assert_eq!(
            solves_c + absorbed_c,
            churn_c,
            "every churn is either solved or absorbed"
        );
    }

    /// Content-deduplicated route interning: repeated lookups of one pair
    /// and all same-host (empty) routes share an id, while distinct pairs
    /// stay distinct — hosts have private NIC uplinks, so their routes
    /// really are different links.
    #[test]
    fn route_interning_dedups_by_content() {
        let mut b = GridBuilder::new();
        let c0 = b.cluster("A");
        b.local_link(c0, 1e8, 1e-4);
        let ha = b.add_hosts(c0, 3, &HostSpec::with_speed(100.0));
        let c1 = b.cluster("B");
        b.local_link(c1, 1e8, 1e-4);
        let hb = b.add_hosts(c1, 3, &HostSpec::with_speed(100.0));
        b.connect(c0, c1, 1e7, 0.02);
        let mut eng = Engine::new(b.build().unwrap());
        // Same pair → same id (concurrent same-pair transfers share a
        // route class with multiplicity > 1).
        assert_eq!(eng.route_id(ha[0], hb[0]), eng.route_id(ha[0], hb[0]));
        // Distinct pairs → distinct ids: src/dst NIC links differ.
        assert_ne!(eng.route_id(ha[0], hb[0]), eng.route_id(ha[0], hb[1]));
        assert_ne!(eng.route_id(ha[0], hb[0]), eng.route_id(ha[1], hb[0]));
        // Every same-host transfer grid-wide shares the one empty route.
        let loop0 = eng.route_id(ha[0], ha[0]);
        assert_eq!(loop0, eng.route_id(hb[2], hb[2]));
        assert!(eng.routes_tbl[loop0 as usize].links.is_empty());
    }
}
