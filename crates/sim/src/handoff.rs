//! Direct kernel ↔ process handoff.
//!
//! The kernel grants execution to exactly one simulated process at a time,
//! so the process ↔ kernel transport is always a strict two-party
//! alternation: the kernel writes one grant, the process runs and writes
//! one request, and so on.
//!
//! [`HandoffSlot`] is a single-slot rendezvous per process: one atomic
//! state word, in-place message cells, and request-aware waiting. No
//! allocation per call, no multiplexer, and when the peer responds within
//! the spin budget no OS wakeup at all.
//!
//! # Protocol
//!
//! The slot is a three-state machine (`IDLE → REQ → IDLE → GRANT → IDLE`)
//! shared by exactly two threads:
//!
//! * the **process** may write the request cell only in `IDLE` (it just
//!   consumed a grant, or has never run), then publishes `REQ`;
//! * the **kernel** consumes the request (`REQ → IDLE`), handles it, and
//!   eventually writes the grant cell and the clock cell and publishes
//!   `GRANT`;
//! * the process consumes the grant and the clock (`GRANT → IDLE`) and
//!   continues.
//!
//! The one-runnable-process invariant is what makes the two-party slot
//! sufficient: the kernel never issues a grant to a process that is not
//! parked (or about to park) in [`HandoffSlot::wait_grant`], and only the
//! single running process can publish a request, so each cell always has
//! exactly one writer and one reader separated by the Release/Acquire
//! edge on `state`. Determinism is preserved by construction: the
//! transport carries one message at a time, in the order the alternation
//! produces them.
//!
//! # Waiting
//!
//! The kernel waits for a request by spinning (multicore) or yielding
//! (single core) and then parking: the running process usually answers
//! within microseconds. A process waits for its grant the same way only
//! when the kernel answers the request at once
//! ([`Request::answered_at_once`]). Every other request — a compute or
//! sleep that takes virtual time, a blocking receive, a rendezvous send,
//! a transfer, the start gate — parks at once: its grant comes only after
//! the kernel has run other processes and events, and a thread spinning
//! for it would only take the CPU from the one thread that has work.
use crate::process::{Grant, Request};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

/// No message in flight; the cell owner may write.
const IDLE: u8 = 0;
/// A request is published for the kernel.
const REQ: u8 = 1;
/// A grant is published for the process.
const GRANT: u8 = 2;

/// How many times to poll the state word before parking the thread. When
/// the peer responds within the budget (the common case on unloaded
/// multicore hosts: the kernel answers an at-once request in well under a
/// microsecond) the handoff completes without any OS-level block/wake.
/// Kept modest so oversubscribed runs — e.g. the parallel sweep runner —
/// do not burn cores spinning.
const SPIN: u32 = 384;

/// How many times to `yield_now` before parking on a single-CPU machine.
/// There spinning is pure waste (the peer cannot run while we spin), but
/// yielding hands the core straight to the peer — the only other runnable
/// thread under the one-runnable-process invariant — so the alternation
/// usually completes without any futex sleep/wake at all. Bounded so a
/// genuinely long wait still ends in a proper park.
const YIELDS: u32 = 32;

/// `true` once we know this machine has more than one CPU. Computed once.
#[inline]
fn multicore() -> bool {
    use std::sync::atomic::AtomicU8;
    static CACHED: AtomicU8 = AtomicU8::new(0);
    match CACHED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let multi = std::thread::available_parallelism()
                .map(|n| n.get() > 1)
                .unwrap_or(false);
            CACHED.store(if multi { 1 } else { 2 }, Ordering::Relaxed);
            multi
        }
    }
}

/// Pre-park waiting strategy for the direct handoff slot, overriding the
/// machine-derived default. A wait-strategy-only knob: it decides how the
/// waiting side burns the gap until the peer's Release store lands, never
/// what is communicated, so any policy yields bit-identical runs. Exposed
/// so the `sim_hotpath` benchmark can measure spin vs. yield on the same
/// machine (ROADMAP's "spin path unmeasured" note).
///
/// It governs only the short waits: the kernel's wait for the running
/// process's next request, and a process's wait for the grant of a
/// request the kernel answers at once (`Request::answered_at_once`).
/// A process waiting on a blocking request parks without spinning or
/// yielding under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitPolicy {
    /// Spin on multicore machines, yield on single-CPU ones (the default).
    #[default]
    Auto,
    /// Always poll the state word in a busy-spin loop before parking.
    Spin,
    /// Always `yield_now` to the peer before parking.
    Yield,
}

/// Process-global wait-policy override (0 = auto, 1 = spin, 2 = yield).
/// Global rather than per-slot because the benchmark compares whole runs;
/// set it before spawning processes.
static WAIT_POLICY: AtomicU8 = AtomicU8::new(0);

/// Select the pre-park waiting strategy for all handoff slots in this
/// process. See [`WaitPolicy`].
pub fn set_wait_policy(p: WaitPolicy) {
    WAIT_POLICY.store(
        match p {
            WaitPolicy::Auto => 0,
            WaitPolicy::Spin => 1,
            WaitPolicy::Yield => 2,
        },
        Ordering::Relaxed,
    );
}

/// The active pre-park waiting strategy.
pub fn wait_policy() -> WaitPolicy {
    match WAIT_POLICY.load(Ordering::Relaxed) {
        1 => WaitPolicy::Spin,
        2 => WaitPolicy::Yield,
        _ => WaitPolicy::Auto,
    }
}

/// Shared handle to the kernel's OS thread, set once when `Engine::run`
/// begins (the engine may be built on a different thread than it runs
/// on). Processes only need it after receiving their first grant, which
/// the run loop sends, so the handle is always visible by then.
pub(crate) type KernelThread = Arc<OnceLock<Thread>>;

/// A per-process single-slot rendezvous between the kernel and one
/// simulated process. See the module docs for the protocol.
pub(crate) struct HandoffSlot {
    state: AtomicU8,
    req: UnsafeCell<Option<Request>>,
    grant: UnsafeCell<Option<Grant>>,
    /// The kernel's virtual time at the grant, written beside it.
    now: UnsafeCell<f64>,
    kernel: KernelThread,
    /// The process's OS thread, set by the kernel right after spawning it
    /// (from `JoinHandle::thread`, so it is available before the thread
    /// runs). Only the kernel reads it.
    proc: OnceLock<Thread>,
}

// SAFETY: the cells are accessed under the `state` protocol above — each
// cell has exactly one writer and one reader per transition, ordered by
// the Release store / Acquire load pair on `state`.
unsafe impl Send for HandoffSlot {}
unsafe impl Sync for HandoffSlot {}

impl HandoffSlot {
    pub(crate) fn new(kernel: KernelThread) -> Self {
        HandoffSlot {
            state: AtomicU8::new(IDLE),
            req: UnsafeCell::new(None),
            grant: UnsafeCell::new(None),
            now: UnsafeCell::new(0.0),
            kernel,
            proc: OnceLock::new(),
        }
    }

    /// Record the process thread to unpark on grants. Called by the
    /// kernel immediately after spawning the thread.
    pub(crate) fn set_proc_thread(&self, t: Thread) {
        let _ = self.proc.set(t);
    }

    /// Wait until `state` equals `want`. With `short` set, first spin
    /// (multicore) or yield to the peer (single core) per the active
    /// [`WaitPolicy`]; then park.
    #[inline]
    fn await_state(&self, want: u8, short: bool) {
        if short {
            let spin = match wait_policy() {
                WaitPolicy::Auto => multicore(),
                WaitPolicy::Spin => true,
                WaitPolicy::Yield => false,
            };
            if spin {
                for _ in 0..SPIN {
                    if self.state.load(Ordering::Acquire) == want {
                        return;
                    }
                    std::hint::spin_loop();
                }
            } else {
                for _ in 0..YIELDS {
                    if self.state.load(Ordering::Acquire) == want {
                        return;
                    }
                    std::thread::yield_now();
                }
            }
        }
        while self.state.load(Ordering::Acquire) != want {
            std::thread::park();
        }
    }

    /// Process side: publish a request and wake the kernel. The slot must
    /// be `IDLE` (guaranteed by the alternation protocol).
    pub(crate) fn send_request(&self, req: Request) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), IDLE);
        // SAFETY: state is IDLE, so the kernel is not reading the cell.
        unsafe { *self.req.get() = Some(req) };
        self.state.store(REQ, Ordering::Release);
        if let Some(k) = self.kernel.get() {
            k.unpark();
        }
    }

    /// Process side: wait for and consume the next grant and the virtual
    /// time it was issued at. `at_once` says the kernel answers the
    /// pending request without running anything else, so a short spin or
    /// yield is worth it; otherwise the thread parks at once.
    pub(crate) fn wait_grant(&self, at_once: bool) -> (Grant, f64) {
        self.await_state(GRANT, at_once);
        // SAFETY: state is GRANT, so the kernel has published the grant
        // and the clock and will not touch either cell until the next
        // REQ→IDLE transition.
        let (g, now) = unsafe { ((*self.grant.get()).take(), *self.now.get()) };
        self.state.store(IDLE, Ordering::Release);
        (g.expect("GRANT state implies a grant"), now)
    }

    /// Kernel side: wait for and consume the running process's request.
    pub(crate) fn wait_request(&self) -> Request {
        self.await_state(REQ, true);
        // SAFETY: state is REQ, so the process has published the request
        // and is now waiting in `wait_grant`.
        let r = unsafe { (*self.req.get()).take() }.expect("REQ state implies a request");
        self.state.store(IDLE, Ordering::Release);
        r
    }

    /// Kernel side: publish a grant stamped with the kernel's virtual time
    /// `now` and wake the process. The slot must be `IDLE`: the target
    /// process is parked (or spinning) in `wait_grant`.
    pub(crate) fn send_grant(&self, g: Grant, now: f64) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), IDLE);
        // SAFETY: state is IDLE, so the process is not reading the cells.
        unsafe {
            *self.grant.get() = Some(g);
            *self.now.get() = now;
        }
        self.state.store(GRANT, Ordering::Release);
        if let Some(t) = self.proc.get() {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full request/grant alternation across two real threads,
    /// including the "grant before the process thread even polls" start
    /// edge, with the clock cell carried beside every grant and both the
    /// short and the parking wait on the process side.
    #[test]
    fn alternation_across_threads() {
        let kernel: KernelThread = Arc::new(OnceLock::new());
        let slot = Arc::new(HandoffSlot::new(kernel.clone()));
        let s2 = slot.clone();
        let join = std::thread::spawn(move || {
            // Start gate: wait for the kernel's first grant.
            match s2.wait_grant(false) {
                (Grant::Unit, t) => assert_eq!(t, 0.5),
                _ => panic!("expected start grant"),
            }
            for i in 0..1000u64 {
                s2.send_request(Request::Compute { flops: i as f64 });
                match s2.wait_grant(i % 2 == 0) {
                    (Grant::Unit, t) => assert_eq!(t, i as f64),
                    _ => panic!("expected unit grant"),
                }
            }
            s2.send_request(Request::Exit);
        });
        kernel.set(std::thread::current()).unwrap();
        slot.set_proc_thread(join.thread().clone());
        slot.send_grant(Grant::Unit, 0.5);
        let mut seen = 0u64;
        loop {
            match slot.wait_request() {
                Request::Compute { flops } => {
                    slot.send_grant(Grant::Unit, flops);
                    seen += 1;
                }
                Request::Exit => break,
                _ => panic!("unexpected request"),
            }
        }
        assert_eq!(seen, 1000);
        join.join().unwrap();
    }

    /// A kill grant delivered while the process is parked in `wait_grant`
    /// is observed as `Grant::Kill`.
    #[test]
    fn kill_wakes_waiter() {
        let kernel: KernelThread = Arc::new(OnceLock::new());
        kernel.set(std::thread::current()).unwrap();
        let slot = Arc::new(HandoffSlot::new(kernel));
        let s2 = slot.clone();
        let join = std::thread::spawn(move || matches!(s2.wait_grant(false).0, Grant::Kill));
        slot.set_proc_thread(join.thread().clone());
        // Give the thread a chance to actually park.
        std::thread::sleep(std::time::Duration::from_millis(10));
        slot.send_grant(Grant::Kill, 0.0);
        assert!(join.join().unwrap());
    }
}
