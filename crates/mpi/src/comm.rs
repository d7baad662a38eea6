//! The communicator: point-to-point messaging and collective operations
//! over the emulated grid.
//!
//! Semantics follow MPI closely enough for the paper's applications:
//! eager sends below a threshold, rendezvous above it; deterministic
//! matching on `(world, epoch, src, dst, tag)` with per-pair sequence
//! numbers preventing overtaking; binomial-tree broadcast and reduction.
//!
//! The `Mapping` indirection is what makes process swapping possible
//! (§4.2): user communication is addressed to *logical* ranks, and a
//! dynamic mapping resolves the physical host at call time — *"user
//! communication calls to the active set are converted to communication
//! calls to a subset of the full process set."*

use crate::world::RankStats;
use grads_obs::{MsgKind, RankState, Recorder, WorldTag};
use grads_sim::prelude::*;
use grads_sim::process::mail_key;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default eager/rendezvous switchover: 64 KiB, like common MPICH builds.
pub const DEFAULT_EAGER_THRESHOLD: f64 = 65536.0;

/// Reserved tag space for collectives (user tags must stay below this).
pub const INTERNAL_TAG_BASE: u64 = 1 << 40;
const TAG_BCAST: u64 = INTERNAL_TAG_BASE + 1;
const TAG_REDUCE: u64 = INTERNAL_TAG_BASE + 2;
const TAG_GATHER: u64 = INTERNAL_TAG_BASE + 3;
const TAG_SCATTER: u64 = INTERNAL_TAG_BASE + 4;
const TAG_BARRIER: u64 = INTERNAL_TAG_BASE + 5;

/// Operation label for a per-hop span recorded inside a collective,
/// derived from the internal tag the tree leg was sent on.
fn coll_hop_label(tag: u64) -> Option<&'static str> {
    match tag {
        TAG_BCAST => Some("bcast"),
        TAG_REDUCE => Some("reduce"),
        TAG_GATHER => Some("gather"),
        TAG_SCATTER => Some("scatter"),
        TAG_BARRIER => Some("barrier"),
        _ => None,
    }
}

/// Resolves a logical rank to the host it currently runs on.
#[derive(Clone)]
pub enum Mapping {
    /// Fixed rank→host assignment (ordinary worlds).
    Static(Arc<Vec<HostId>>),
    /// Dynamic resolution (swap-enabled worlds look the current physical
    /// process up in shared swap state).
    Dynamic(Arc<dyn Fn(usize) -> HostId + Send + Sync>),
}

impl Mapping {
    /// Host currently serving logical rank `r`.
    pub fn host_of(&self, r: usize) -> HostId {
        match self {
            Mapping::Static(v) => v[r],
            Mapping::Dynamic(f) => f(r),
        }
    }
}

/// An MPI-like communicator bound to one rank of one world.
pub struct Comm {
    world: u64,
    epoch: u64,
    rank: usize,
    size: usize,
    mapping: Mapping,
    eager_threshold: f64,
    /// When true, per-(peer, tag) sequence numbers are folded into mailbox
    /// keys so successive messages can never overtake each other. Swap
    /// worlds disable this (rank state moves between processes) and must
    /// disambiguate with tags instead.
    ordered: bool,
    send_seq: HashMap<(usize, u64), u64>,
    recv_seq: HashMap<(usize, u64), u64>,
    stats: Arc<Mutex<RankStats>>,
    /// Flight recorder (disabled by default; see [`Comm::set_recorder`]).
    rec: Recorder,
    wtag: WorldTag,
    /// Which recorder track this communicator writes to: the rank for
    /// ordinary worlds, the physical slot for swap worlds.
    track_rank: usize,
    /// Collective nesting depth: > 0 while inside a collective, so inner
    /// point-to-point traffic is flagged [`MsgKind::Collective`] and not
    /// double-counted as blocked intervals.
    coll_depth: u32,
}

impl Comm {
    /// Construct a communicator. Usually done by `world::launch*` or the
    /// swap layer rather than by applications.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        world: u64,
        epoch: u64,
        rank: usize,
        size: usize,
        mapping: Mapping,
        eager_threshold: f64,
        ordered: bool,
        stats: Arc<Mutex<RankStats>>,
    ) -> Self {
        assert!(rank < size, "rank {rank} out of range for size {size}");
        Comm {
            world,
            epoch,
            rank,
            size,
            mapping,
            eager_threshold,
            ordered,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            stats,
            rec: Recorder::disabled(),
            wtag: WorldTag::NONE,
            track_rank: rank,
            coll_depth: 0,
        }
    }

    /// Attach a flight recorder. `track_rank` selects the recorder track
    /// this communicator's intervals and message halves land on — the rank
    /// itself for ordinary worlds, the physical slot for swap worlds
    /// (where logical ranks move between processes). Message halves always
    /// carry *logical* src/dst ranks, which is what matching keys on.
    pub fn set_recorder(&mut self, rec: Recorder, wtag: WorldTag, track_rank: usize) {
        self.rec = rec;
        self.wtag = wtag;
        self.track_rank = track_rank;
    }

    /// The attached flight recorder and this communicator's world tag /
    /// track (disabled by default).
    pub fn recorder(&self) -> (&Recorder, WorldTag, usize) {
        (&self.rec, self.wtag, self.track_rank)
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The shared statistics cell for this rank.
    pub fn stats(&self) -> Arc<Mutex<RankStats>> {
        self.stats.clone()
    }

    /// Record a named phase duration on this rank's sensor channel.
    pub fn record_phase(&self, name: &str, dt: f64) {
        self.stats.lock().record_phase(name, dt);
    }

    /// Perform `flops` of computation, accounted to this rank's profile.
    pub fn compute(&mut self, ctx: &mut Ctx, flops: f64) {
        let t0 = ctx.now();
        ctx.compute(flops);
        let t1 = ctx.now();
        self.stats.lock().compute_s += t1 - t0;
        if t1 > t0 {
            self.rec
                .interval(self.wtag, self.track_rank, RankState::Compute, t0, t1);
        }
    }

    /// The message class of point-to-point traffic at the current
    /// collective nesting depth.
    #[inline]
    fn msg_kind(&self) -> MsgKind {
        if self.coll_depth > 0 {
            MsgKind::Collective
        } else {
            MsgKind::Pt2pt
        }
    }

    /// Record one send half plus, outside collectives, the blocked
    /// interval a rendezvous wait produced. Inside a collective the span
    /// is recorded as a per-hop internal instead (nested in the enclosing
    /// [`RankState::Collective`] interval, only on an internals-enabled
    /// recorder), so the tree legs stay visible without double-counting
    /// blocked time.
    #[inline]
    fn rec_send(&self, dst: usize, tag: u64, bytes: f64, t0: f64, t1: f64, eager: bool) {
        self.rec.send_msg(
            self.wtag,
            self.track_rank,
            self.rank,
            dst,
            tag,
            bytes,
            t0,
            t1,
            eager,
            self.msg_kind(),
        );
        if self.coll_depth == 0 {
            if t1 > t0 {
                self.rec
                    .interval(self.wtag, self.track_rank, RankState::SendBlocked, t0, t1);
            }
        } else if t1 > t0 {
            self.rec.hop(
                self.wtag,
                self.track_rank,
                RankState::SendBlocked,
                coll_hop_label(tag),
                t0,
                t1,
            );
        }
    }

    fn key(&mut self, src: usize, dst: usize, tag: u64, sending: bool) -> MailKey {
        let seq = if self.ordered {
            let map = if sending {
                &mut self.send_seq
            } else {
                &mut self.recv_seq
            };
            let peer = if sending { dst } else { src };
            let c = map.entry((peer, tag)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        } else {
            0
        };
        mail_key(&[self.world, self.epoch, src as u64, dst as u64, tag, seq])
    }

    /// Send `bytes` to logical rank `dst` with `tag`; eager below the
    /// threshold, rendezvous above it.
    pub fn send(&mut self, ctx: &mut Ctx, dst: usize, tag: u64, bytes: f64, payload: Payload) {
        let t0 = ctx.now();
        let key = self.key(self.rank, dst, tag, true);
        let host = self.mapping.host_of(dst);
        let eager = bytes <= self.eager_threshold;
        if eager {
            ctx.isend(key, host, bytes, payload);
        } else {
            ctx.send(key, host, bytes, payload);
        }
        let t1 = ctx.now();
        {
            let mut s = self.stats.lock();
            s.comm_s += t1 - t0;
            s.sends += 1;
            s.bytes_sent += bytes;
        }
        self.rec_send(dst, tag, bytes, t0, t1, eager);
    }

    /// Synchronous send: always rendezvous, regardless of size.
    pub fn ssend(&mut self, ctx: &mut Ctx, dst: usize, tag: u64, bytes: f64, payload: Payload) {
        let t0 = ctx.now();
        let key = self.key(self.rank, dst, tag, true);
        let host = self.mapping.host_of(dst);
        ctx.send(key, host, bytes, payload);
        let t1 = ctx.now();
        {
            let mut s = self.stats.lock();
            s.comm_s += t1 - t0;
            s.sends += 1;
            s.bytes_sent += bytes;
        }
        self.rec_send(dst, tag, bytes, t0, t1, false);
    }

    /// Buffered send: always eager, regardless of size.
    pub fn isend(&mut self, ctx: &mut Ctx, dst: usize, tag: u64, bytes: f64, payload: Payload) {
        let t0 = ctx.now();
        let key = self.key(self.rank, dst, tag, true);
        let host = self.mapping.host_of(dst);
        ctx.isend(key, host, bytes, payload);
        let t1 = ctx.now();
        {
            let mut s = self.stats.lock();
            s.comm_s += t1 - t0;
            s.sends += 1;
            s.bytes_sent += bytes;
        }
        self.rec_send(dst, tag, bytes, t0, t1, true);
    }

    /// Blocking receive from logical rank `src` with `tag`.
    pub fn recv(&mut self, ctx: &mut Ctx, src: usize, tag: u64) -> Payload {
        let t0 = ctx.now();
        let key = self.key(src, self.rank, tag, false);
        let p = ctx.recv(key);
        let t1 = ctx.now();
        {
            let mut s = self.stats.lock();
            s.comm_s += t1 - t0;
            s.recvs += 1;
        }
        self.rec
            .recv_msg(self.wtag, self.track_rank, src, self.rank, tag, t0, t1);
        if self.coll_depth == 0 {
            if t1 > t0 {
                self.rec
                    .interval(self.wtag, self.track_rank, RankState::RecvBlocked, t0, t1);
            }
        } else if t1 > t0 {
            self.rec.hop(
                self.wtag,
                self.track_rank,
                RankState::RecvBlocked,
                coll_hop_label(tag),
                t0,
                t1,
            );
        }
        p
    }

    /// Typed send: boxes `value`.
    pub fn send_t<T: Send + 'static>(
        &mut self,
        ctx: &mut Ctx,
        dst: usize,
        tag: u64,
        bytes: f64,
        value: T,
    ) {
        self.send(ctx, dst, tag, bytes, Box::new(value));
    }

    /// Typed receive: downcasts, panicking on a type mismatch (a program
    /// bug, reported through the run report like any process panic).
    pub fn recv_t<T: Send + 'static>(&mut self, ctx: &mut Ctx, src: usize, tag: u64) -> T {
        *self
            .recv(ctx, src, tag)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("recv_t: payload type mismatch from rank {src} tag {tag}"))
    }

    // ------------------------------------------------------------------
    // Collectives (binomial trees, like MPICH's small-message algorithms)
    // ------------------------------------------------------------------

    /// Enter a collective: bump the nesting depth and, on the outermost
    /// entry of a recording communicator, capture the start time. The
    /// extra `ctx.now()` is determinism-invisible: it is a local load of
    /// the clock stamped on the last kernel grant and makes no request.
    pub(crate) fn coll_begin(&mut self, ctx: &mut Ctx) -> Option<f64> {
        self.coll_depth += 1;
        (self.coll_depth == 1 && self.rec.is_enabled()).then(|| ctx.now())
    }

    /// Leave a collective begun with [`Comm::coll_begin`], recording the
    /// outermost span as one [`RankState::Collective`] interval.
    pub(crate) fn coll_end(&mut self, ctx: &mut Ctx, begin: Option<f64>, op: &'static str) {
        self.coll_depth -= 1;
        if let Some(t0) = begin {
            let t1 = ctx.now();
            if t1 > t0 {
                self.rec.interval_detail(
                    self.wtag,
                    self.track_rank,
                    RankState::Collective,
                    Some(op),
                    t0,
                    t1,
                );
            }
        }
    }

    /// Broadcast `value` from `root` to every rank; all ranks return it.
    /// Non-root ranks pass `None`.
    pub fn bcast_t<T: Clone + Send + 'static>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        bytes: f64,
        value: Option<T>,
    ) -> T {
        let g = self.coll_begin(ctx);
        let out = self.bcast_impl(ctx, root, bytes, value);
        self.coll_end(ctx, g, "bcast");
        out
    }

    fn bcast_impl<T: Clone + Send + 'static>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        bytes: f64,
        value: Option<T>,
    ) -> T {
        assert!(root < self.size, "bcast root out of range");
        if self.size == 1 {
            return value.expect("root must provide the broadcast value");
        }
        let vrank = (self.rank + self.size - root) % self.size;
        let mut val: Option<T> = if vrank == 0 {
            Some(value.expect("root must provide the broadcast value"))
        } else {
            None
        };
        let mut mask = 1usize;
        while mask < self.size {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % self.size;
                val = Some(self.recv_t::<T>(ctx, src, TAG_BCAST));
                break;
            }
            mask <<= 1;
        }
        let mut m = mask >> 1;
        while m > 0 {
            let vdst = vrank + m;
            if vdst < self.size {
                let dst = (vdst + root) % self.size;
                let v = val.as_ref().expect("value present in send phase").clone();
                self.send(ctx, dst, TAG_BCAST, bytes, Box::new(v));
            }
            m >>= 1;
        }
        val.expect("value present after broadcast")
    }

    /// Reduce every rank's `value` to `root` with `op`; only `root` gets
    /// `Some(result)`. `op` must be associative and commutative.
    pub fn reduce_t<T, F>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        bytes: f64,
        value: T,
        op: F,
    ) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        let g = self.coll_begin(ctx);
        let out = self.reduce_impl(ctx, root, bytes, value, op);
        self.coll_end(ctx, g, "reduce");
        out
    }

    fn reduce_impl<T, F>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        bytes: f64,
        value: T,
        op: F,
    ) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        assert!(root < self.size, "reduce root out of range");
        let vrank = (self.rank + self.size - root) % self.size;
        let mut val = value;
        let mut mask = 1usize;
        while mask < self.size {
            if vrank & mask != 0 {
                let dst = (vrank - mask + root) % self.size;
                self.send(ctx, dst, TAG_REDUCE, bytes, Box::new(val));
                return None;
            }
            let vsrc = vrank + mask;
            if vsrc < self.size {
                let src = (vsrc + root) % self.size;
                let other = self.recv_t::<T>(ctx, src, TAG_REDUCE);
                val = op(val, other);
            }
            mask <<= 1;
        }
        Some(val)
    }

    /// All-reduce: reduce to rank 0, then broadcast the result.
    pub fn allreduce_t<T, F>(&mut self, ctx: &mut Ctx, bytes: f64, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let g = self.coll_begin(ctx);
        let reduced = self.reduce_t(ctx, 0, bytes, value, op);
        let out = self.bcast_t(ctx, 0, bytes, reduced);
        self.coll_end(ctx, g, "allreduce");
        out
    }

    /// Barrier: binomial fan-in to rank 0, then fan-out release. All
    /// messages are zero-byte (pure latency).
    pub fn barrier(&mut self, ctx: &mut Ctx) {
        let g = self.coll_begin(ctx);
        self.barrier_impl(ctx);
        self.coll_end(ctx, g, "barrier");
    }

    fn barrier_impl(&mut self, ctx: &mut Ctx) {
        let (rank, size) = (self.rank, self.size);
        if size == 1 {
            return;
        }
        // In the binomial tree rooted at 0, the children of r are r + 2^k
        // for all 2^k below r's lowest set bit (every power of two for the
        // root).
        let child_limit = if rank == 0 {
            usize::MAX
        } else {
            lowest_set_bit(rank)
        };
        // Fan-in: collect from children, then report to the parent.
        let mut m = 1usize;
        while m < child_limit {
            let child = rank + m;
            if child >= size {
                break;
            }
            let _ = self.recv(ctx, child, TAG_BARRIER);
            m <<= 1;
        }
        if rank != 0 {
            let parent = rank - lowest_set_bit(rank);
            self.send(ctx, parent, TAG_BARRIER, 0.0, Box::new(()));
            let _ = self.recv(ctx, parent, TAG_BARRIER);
        }
        // Fan-out: release children.
        let mut m = 1usize;
        while m < child_limit {
            let child = rank + m;
            if child >= size {
                break;
            }
            self.send(ctx, child, TAG_BARRIER, 0.0, Box::new(()));
            m <<= 1;
        }
    }

    /// Gather every rank's `value` at `root` (rank order); only `root`
    /// returns `Some`.
    pub fn gather_t<T: Send + 'static>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        bytes: f64,
        value: T,
    ) -> Option<Vec<T>> {
        let g = self.coll_begin(ctx);
        let out = self.gather_impl(ctx, root, bytes, value);
        self.coll_end(ctx, g, "gather");
        out
    }

    #[allow(clippy::needless_range_loop)] // rank-indexed slots
    fn gather_impl<T: Send + 'static>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        bytes: f64,
        value: T,
    ) -> Option<Vec<T>> {
        assert!(root < self.size, "gather root out of range");
        if self.rank != root {
            self.send(ctx, root, TAG_GATHER, bytes, Box::new(value));
            return None;
        }
        let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
        out[root] = Some(value);
        for r in 0..self.size {
            if r == root {
                continue;
            }
            out[r] = Some(self.recv_t::<T>(ctx, r, TAG_GATHER));
        }
        Some(out.into_iter().map(|o| o.expect("gathered")).collect())
    }

    /// Scatter `values[r]` from `root` to each rank `r`; every rank returns
    /// its element. Non-roots pass `None`.
    pub fn scatter_t<T: Send + 'static>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        bytes_per_rank: f64,
        values: Option<Vec<T>>,
    ) -> T {
        let g = self.coll_begin(ctx);
        let out = self.scatter_impl(ctx, root, bytes_per_rank, values);
        self.coll_end(ctx, g, "scatter");
        out
    }

    fn scatter_impl<T: Send + 'static>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        bytes_per_rank: f64,
        values: Option<Vec<T>>,
    ) -> T {
        assert!(root < self.size, "scatter root out of range");
        if self.rank == root {
            let values = values.expect("root must provide scatter values");
            assert_eq!(values.len(), self.size, "scatter length mismatch");
            let mut mine = None;
            for (r, v) in values.into_iter().enumerate() {
                if r == root {
                    mine = Some(v);
                } else {
                    self.send(ctx, r, TAG_SCATTER, bytes_per_rank, Box::new(v));
                }
            }
            mine.expect("root element")
        } else {
            self.recv_t::<T>(ctx, root, TAG_SCATTER)
        }
    }

    /// All-gather: gather at rank 0, then broadcast the vector.
    pub fn allgather_t<T: Clone + Send + 'static>(
        &mut self,
        ctx: &mut Ctx,
        bytes: f64,
        value: T,
    ) -> Vec<T> {
        let g = self.coll_begin(ctx);
        let gathered = self.gather_t(ctx, 0, bytes, value);
        let out = self.bcast_t(ctx, 0, bytes * self.size as f64, gathered);
        self.coll_end(ctx, g, "allgather");
        out
    }
}

fn lowest_set_bit(x: usize) -> usize {
    x & x.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::launch;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn grid(n: usize) -> (Grid, Vec<HostId>) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        b.local_link(c, 1e8, 1e-4);
        let hs = b.add_hosts(c, n, &HostSpec::with_speed(1e9));
        (b.build().unwrap(), hs)
    }

    fn run_world<F>(n: usize, f: F) -> grads_sim::engine::RunReport
    where
        F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
    {
        let (g, hs) = grid(n);
        let mut eng = Engine::new(g);
        launch(&mut eng, "t", &hs, f);
        eng.run()
    }

    #[test]
    fn pt2pt_roundtrip() {
        let r = run_world(2, |ctx, comm| {
            if comm.rank() == 0 {
                comm.send_t(ctx, 1, 7, 1000.0, 123u64);
                let back: u64 = comm.recv_t(ctx, 1, 8);
                ctx.trace("back", back as f64);
            } else {
                let v: u64 = comm.recv_t(ctx, 0, 7);
                comm.send_t(ctx, 0, 8, 1000.0, v + 1);
            }
        });
        assert_eq!(r.trace.last_value("back"), Some(124.0));
    }

    #[test]
    fn messages_do_not_overtake() {
        // Send a large (rendezvous) then a small (eager) on the same tag;
        // the receiver must see them in order.
        let r = run_world(2, |ctx, comm| {
            if comm.rank() == 0 {
                comm.send_t(ctx, 1, 1, 1e6, 1u64); // rendezvous
                comm.send_t(ctx, 1, 1, 10.0, 2u64); // eager
            } else {
                let a: u64 = comm.recv_t(ctx, 0, 1);
                let b: u64 = comm.recv_t(ctx, 0, 1);
                ctx.trace("first", a as f64);
                ctx.trace("second", b as f64);
            }
        });
        assert_eq!(r.trace.last_value("first"), Some(1.0));
        assert_eq!(r.trace.last_value("second"), Some(2.0));
    }

    #[test]
    fn bcast_reaches_everyone() {
        for n in [1usize, 2, 3, 4, 5, 8, 9] {
            let r = run_world(n, move |ctx, comm| {
                let v = comm.bcast_t(ctx, 0, 100.0, (comm.rank() == 0).then_some(42u32));
                ctx.trace("v", v as f64);
            });
            let vs = r.trace.series("v");
            assert_eq!(vs.len(), n, "n = {n}");
            assert!(vs.iter().all(|&(_, v)| v == 42.0), "n = {n}");
        }
    }

    #[test]
    fn bcast_nonzero_root() {
        let r = run_world(5, |ctx, comm| {
            let v = comm.bcast_t(ctx, 3, 100.0, (comm.rank() == 3).then_some(7u32));
            ctx.trace("v", v as f64);
        });
        assert_eq!(r.trace.series("v").len(), 5);
        assert!(r.trace.series("v").iter().all(|&(_, v)| v == 7.0));
    }

    #[test]
    fn reduce_sums() {
        for n in [1usize, 2, 3, 4, 7, 8] {
            let r = run_world(n, move |ctx, comm| {
                let me = comm.rank() as u64;
                if let Some(total) = comm.reduce_t(ctx, 0, 8.0, me, |a, b| a + b) {
                    ctx.trace("total", total as f64);
                }
            });
            let want = (n * (n - 1) / 2) as f64;
            assert_eq!(r.trace.last_value("total"), Some(want), "n = {n}");
        }
    }

    #[test]
    fn reduce_nonzero_root() {
        let r = run_world(6, |ctx, comm| {
            let me = comm.rank() as u64;
            if let Some(total) = comm.reduce_t(ctx, 2, 8.0, me, |a, b| a + b) {
                ctx.trace("total", total as f64);
                ctx.trace("who", comm.rank() as f64);
            }
        });
        assert_eq!(r.trace.last_value("total"), Some(15.0));
        assert_eq!(r.trace.last_value("who"), Some(2.0));
    }

    #[test]
    fn allreduce_gives_all_ranks_result() {
        let r = run_world(5, |ctx, comm| {
            let v = comm.allreduce_t(ctx, 8.0, comm.rank() as u64 + 1, |a, b| a.max(b));
            ctx.trace("v", v as f64);
        });
        let vs = r.trace.series("v");
        assert_eq!(vs.len(), 5);
        assert!(vs.iter().all(|&(_, v)| v == 5.0));
    }

    #[test]
    fn gather_in_rank_order() {
        let r = run_world(4, |ctx, comm| {
            if let Some(v) = comm.gather_t(ctx, 1, 8.0, comm.rank() as u64 * 10) {
                assert_eq!(v, vec![0, 10, 20, 30]);
                ctx.trace("ok", 1.0);
            }
        });
        assert_eq!(r.trace.last_value("ok"), Some(1.0));
    }

    #[test]
    fn scatter_distributes() {
        let r = run_world(4, |ctx, comm| {
            let vals = (comm.rank() == 0).then(|| vec![100u64, 101, 102, 103]);
            let v = comm.scatter_t(ctx, 0, 8.0, vals);
            assert_eq!(v, 100 + comm.rank() as u64);
            ctx.trace("ok", 1.0);
        });
        assert_eq!(r.trace.series("ok").len(), 4);
    }

    #[test]
    fn allgather_everyone_gets_vector() {
        let r = run_world(3, |ctx, comm| {
            let v = comm.allgather_t(ctx, 8.0, comm.rank() as u64);
            assert_eq!(v, vec![0, 1, 2]);
            ctx.trace("ok", 1.0);
        });
        assert_eq!(r.trace.series("ok").len(), 3);
    }

    #[test]
    fn barrier_synchronizes() {
        let r = run_world(6, |ctx, comm| {
            // Stagger arrivals; everyone must leave after the last arrival.
            ctx.sleep(comm.rank() as f64);
            comm.barrier(ctx);
            let t = ctx.now();
            ctx.trace("t", t);
        });
        for (_, t) in r.trace.series("t") {
            assert!(t >= 5.0, "left the barrier early at {t}");
        }
    }

    #[test]
    fn comm_stats_accumulate() {
        let (g, hs) = grid(2);
        let mut eng = Engine::new(g);
        let w = launch(&mut eng, "t", &hs, |ctx, comm| {
            if comm.rank() == 0 {
                comm.send_t(ctx, 1, 1, 5000.0, 1u8);
            } else {
                let _: u8 = comm.recv_t(ctx, 0, 1);
            }
        });
        eng.run();
        let s0 = w.stats[0].lock().clone();
        let s1 = w.stats[1].lock().clone();
        assert_eq!(s0.sends, 1);
        assert_eq!(s1.recvs, 1);
        assert!((s0.bytes_sent - 5000.0).abs() < 1e-9);
        assert!(s1.comm_s > 0.0);
    }
}
