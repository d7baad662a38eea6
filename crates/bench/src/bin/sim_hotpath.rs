//! Wall-clock microbenchmarks of the emulator substrate's hot paths.
//!
//! Four storms, each isolating one layer of the kernel, and a wait-policy
//! sweep:
//!
//! * **handoff ping-pong** — one process bouncing `ctx.sleep(0.0)` off
//!   the kernel: the kernel answers it at once and pushes no event, so
//!   each op is one request/grant pair with near-zero event-kernel work
//!   and this measures the process↔kernel handoff and nothing else.
//!   (`ctx.now()` does not reach the kernel: the clock rides on every
//!   grant.)
//! * **message ping-pong** — two processes bouncing a message back and
//!   forth on a LAN. Every round trip is four kernel handoffs plus the
//!   flow machinery (activate/done events, rate solve, mailbox).
//! * **wait policy** — the raw handoff ping-pong again under the spin and
//!   the yield policy. Both apply only to waits the kernel answers at
//!   once (as `sleep(0.0)` is); a process blocked on a request that takes
//!   virtual time parks at once under every policy.
//! * **spawn storm** — thousands of short-lived processes; measures the
//!   spawn/start/exit bookkeeping (thread creation dominates, but name
//!   interning and mailbox reclamation show up here too).
//! * **cancel storm** — compute actions on a loaded host whose external
//!   load toggles at dense cadence, re-stamping every action each time.
//!   Each re-stamp replaces a pending completion event in the indexed
//!   queue. Reports events applied/sec.
//!
//! Writes the `sim_hotpath` section of `BENCH_sim.json` in the working
//! directory (run it from the repository root).
//!
//! Usage: `cargo run --release -p grads-bench --bin sim_hotpath [rounds]`
//! (default 30000 ping-pong rounds; storms scale accordingly).

use grads_bench::sweep::{json_num, json_obj, merge_bench_section};
use grads_core::prelude::*;
use std::time::Instant;

fn lan_pair() -> (Grid, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let c = b.cluster("LAN");
    b.local_link(c, 1.0e9, 1.0e-4);
    let hosts = b.add_hosts(c, 2, &HostSpec::with_speed(1e9));
    (b.build().unwrap(), hosts)
}

/// Raw handoff ping-pong: one process performing `n` zero-length sleeps,
/// each a single request/grant round trip that the kernel answers at once
/// with no event-kernel work behind it. Returns handoffs/sec wall-clock.
fn handoff_pong(n: usize) -> f64 {
    let (grid, hosts) = lan_pair();
    let mut eng = Engine::new(grid);
    eng.spawn("clock", hosts[0], move |ctx| {
        for _ in 0..n {
            ctx.sleep(0.0);
        }
        assert_eq!(ctx.now(), 0.0, "virtual clock never advances here");
    });
    let t0 = Instant::now();
    let report = eng.run();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed.len(), 1);
    n as f64 / wall
}

/// One ping-pong run: `rounds` round trips, `4 * rounds` kernel handoffs.
/// Returns ops/sec wall-clock.
fn ping_pong(rounds: usize) -> f64 {
    let (grid, hosts) = lan_pair();
    let mut eng = Engine::new(grid);
    let (h0, h1) = (hosts[0], hosts[1]);
    let k_ping = mail_key(&[1]);
    let k_pong = mail_key(&[2]);
    eng.spawn("ping", h0, move |ctx| {
        for _ in 0..rounds {
            ctx.send(k_ping, h1, 1.0, Box::new(()));
            let _ = ctx.recv(k_pong);
        }
    });
    eng.spawn("pong", h1, move |ctx| {
        for _ in 0..rounds {
            let _ = ctx.recv(k_ping);
            ctx.send(k_pong, h0, 1.0, Box::new(()));
        }
    });
    let t0 = Instant::now();
    let report = eng.run();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed.len(), 2);
    (4 * rounds) as f64 / wall
}

/// Spawn storm: `n` short-lived processes. Returns spawns/sec.
fn spawn_storm(n: usize) -> f64 {
    let (grid, hosts) = lan_pair();
    let mut eng = Engine::new(grid);
    for i in 0..n {
        eng.spawn("w", hosts[i % 2], |ctx| {
            ctx.compute(1e3);
        });
    }
    let t0 = Instant::now();
    let report = eng.run();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed.len(), n);
    n as f64 / wall
}

/// Cancel storm: `procs` long computes on one host, with external load
/// toggling `toggles` times — every toggle re-stamps every action and
/// replaces its pending completion event. Returns (applied events/sec,
/// events applied).
fn cancel_storm(procs: usize, toggles: usize) -> (f64, u64) {
    let mut b = GridBuilder::new();
    let c = b.cluster("LAN");
    b.local_link(c, 1.0e9, 1.0e-4);
    let hosts = b.add_hosts(c, 1, &HostSpec::with_speed(1e9));
    let mut eng = Engine::new(b.build().unwrap());
    let h = hosts[0];
    for t in 0..toggles {
        let at = 0.5 + t as f64 * 0.01;
        eng.add_load_window(h, at, Some(at + 0.005), 2.0);
    }
    for _ in 0..procs {
        eng.spawn("c", h, |ctx| {
            ctx.compute(2e9);
        });
    }
    let t0 = Instant::now();
    let report = eng.run();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed.len(), procs);
    (
        report.events_processed as f64 / wall,
        report.events_processed,
    )
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    println!("sim_hotpath — substrate wall-clock microbenchmarks\n");

    // Warm-up pass so thread-pool and allocator effects don't skew run 1;
    // best-of-2 to damp scheduler noise on small machines.
    let _ = ping_pong(rounds / 10);
    let n_handoff = rounds * 2;
    let ho = handoff_pong(n_handoff).max(handoff_pong(n_handoff));
    println!("handoff ping-pong ({n_handoff} request/grant round trips):");
    println!("  auto wait policy           {ho:>12.0} handoffs/s");

    let ops = ping_pong(rounds).max(ping_pong(rounds));
    println!("\nmessage ping-pong ({rounds} round trips, 4 handoffs each):");
    println!("  {ops:>38.0} ops/s");

    // Spin vs yield on the handoff's wait loop. The auto policy picks spin
    // on multicore boxes and yield on single-core ones; pinning each
    // explicitly measures what that heuristic is choosing between. Either
    // applies only to at-once waits, which is all this loop makes. Wait
    // strategy cannot perturb virtual time (it only decides how a blocked
    // thread burns the wait), and handoff_pong asserts the clock stays put.
    let ho_spin = {
        set_wait_policy(WaitPolicy::Spin);
        handoff_pong(n_handoff).max(handoff_pong(n_handoff))
    };
    let ho_yield = {
        set_wait_policy(WaitPolicy::Yield);
        handoff_pong(n_handoff).max(handoff_pong(n_handoff))
    };
    set_wait_policy(WaitPolicy::Auto);
    println!("\nhandoff wait policy ({n_handoff} round trips):");
    println!("  spin (at-once waits)       {ho_spin:>12.0} handoffs/s");
    println!("  yield (sched-friendly)     {ho_yield:>12.0} handoffs/s");
    println!(
        "  faster here: {} ({:.2}x) — auto picks spin iff multicore",
        if ho_spin >= ho_yield { "spin" } else { "yield" },
        (ho_spin / ho_yield).max(ho_yield / ho_spin)
    );

    let n_spawn = (rounds / 10).max(1000);
    let sp = spawn_storm(n_spawn);
    println!("\nspawn storm ({n_spawn} processes):");
    println!("  {sp:>38.0} spawns/s");

    let (procs, toggles) = (100, 2000);
    let (ev, n_ev) = cancel_storm(procs, toggles);
    println!("\ncancel storm ({procs} computes x {toggles} load toggles, {n_ev} events):");
    println!("  {ev:>38.0} events/s");

    // Machine stamp so a checked-in snapshot says where its numbers came
    // from (a 2-core CI runner and a 32-core workstation produce very
    // different ops/s for the same code).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    merge_bench_section(
        "sim_hotpath",
        &json_obj(&[
            ("cores_detected", cores.to_string()),
            ("handoff_rounds", n_handoff.to_string()),
            ("handoff_per_s", json_num(ho)),
            ("handoff_spin_per_s", json_num(ho_spin)),
            ("handoff_yield_per_s", json_num(ho_yield)),
            ("ping_pong_rounds", rounds.to_string()),
            ("ping_pong_ops_per_s", json_num(ops)),
            ("spawn_storm_procs", n_spawn.to_string()),
            ("spawn_per_s", json_num(sp)),
            ("cancel_storm_events", n_ev.to_string()),
            ("cancel_events_per_s", json_num(ev)),
        ]),
    );
    println!("\nwrote sim_hotpath section of BENCH_sim.json");
}
