//! Wall-clock microbenchmarks of the emulator substrate's hot paths.
//!
//! Four storms, each isolating one layer of the kernel, and a wait-policy
//! sweep:
//!
//! * **handoff ping-pong** — one process bouncing `ctx.sleep(0.0)` off
//!   the kernel: the kernel answers it at once and pushes no event, so
//!   each op is one request/grant pair with near-zero event-kernel work
//!   and this measures the process↔kernel transport and nothing else.
//!   (`ctx.now()` no longer reaches the kernel: the clock rides on every
//!   grant.) Run under both transports; the direct single-slot
//!   rendezvous must beat the seed mpsc-channel pair by ≥2× (asserted).
//! * **message ping-pong** — two processes bouncing a message back and
//!   forth on a LAN. Every round trip is four kernel handoffs plus the
//!   flow machinery (activate/done events, rate solve, mailbox), so the
//!   transport win is diluted by DES work the transports share; direct
//!   must still be ≥1.5× (asserted).
//! * **wait policy** — the raw handoff ping-pong again under the spin and
//!   the yield policy. Both apply only to waits the kernel answers at
//!   once (as `sleep(0.0)` is); a process blocked on a request that takes
//!   virtual time parks at once under every policy.
//! * **spawn storm** — thousands of short-lived processes; measures the
//!   spawn/start/exit bookkeeping (thread creation dominates, but name
//!   interning and mailbox reclamation show up here too).
//! * **cancel storm** — compute actions on a loaded host whose external
//!   load toggles at dense cadence, re-stamping every action each time.
//!   Each re-stamp cancels a pending completion event: the stale-mark
//!   queue buries them for pop-time discarding, the indexed queue removes
//!   them in O(log n). Reports events applied/sec for both queues.
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
fn handoff_pong(tune: EngineTune, n: usize) -> f64 {
    let (grid, hosts) = lan_pair();
    let mut eng = Engine::new(grid);
    eng.apply_tune(tune);
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
/// Returns (ops/sec wall-clock, virtual end time as a determinism check).
fn ping_pong(tune: EngineTune, rounds: usize) -> (f64, f64) {
    let (grid, hosts) = lan_pair();
    let mut eng = Engine::new(grid);
    eng.apply_tune(tune);
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
    ((4 * rounds) as f64 / wall, report.end_time)
}

/// Spawn storm: `n` short-lived processes. Returns spawns/sec.
fn spawn_storm(tune: EngineTune, n: usize) -> f64 {
    let (grid, hosts) = lan_pair();
    let mut eng = Engine::new(grid);
    eng.apply_tune(tune);
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
/// cancels its pending completion event. Returns (applied events/sec,
/// events applied, virtual end time).
fn cancel_storm(tune: EngineTune, procs: usize, toggles: usize) -> (f64, u64, f64) {
    let mut b = GridBuilder::new();
    let c = b.cluster("LAN");
    b.local_link(c, 1.0e9, 1.0e-4);
    let hosts = b.add_hosts(c, 1, &HostSpec::with_speed(1e9));
    let mut eng = Engine::new(b.build().unwrap());
    eng.apply_tune(tune);
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
        report.end_time,
    )
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    let direct = EngineTune::default();
    let channel = EngineTune {
        handoff: HandoffMode::Channel,
        ..Default::default()
    };
    let indexed = EngineTune::default();
    let stale = EngineTune {
        queue: EventQueueMode::StaleMark,
        ..Default::default()
    };

    println!("sim_hotpath — substrate wall-clock microbenchmarks\n");

    // Warm-up pass so thread-pool and allocator effects don't skew run 1;
    // best-of-2 to damp scheduler noise on small machines.
    let _ = ping_pong(direct, rounds / 10);
    let best = |tune: EngineTune| {
        let (a, end) = ping_pong(tune, rounds);
        let (b, _) = ping_pong(tune, rounds);
        (a.max(b), end)
    };

    let n_handoff = rounds * 2;
    let ho_direct = handoff_pong(direct, n_handoff).max(handoff_pong(direct, n_handoff));
    let ho_channel = handoff_pong(channel, n_handoff).max(handoff_pong(channel, n_handoff));
    let ho_speedup = ho_direct / ho_channel;
    println!("handoff ping-pong ({n_handoff} request/grant round trips):");
    println!("  channel (seed mpsc pair)   {ho_channel:>12.0} handoffs/s");
    println!("  direct (rendezvous slot)   {ho_direct:>12.0} handoffs/s   ({ho_speedup:.2}x)");
    assert!(
        ho_speedup >= 2.0,
        "direct handoff must be >= 2x channel on raw handoffs (got {ho_speedup:.2}x)"
    );

    let (ops_direct, end_d) = best(direct);
    let (ops_channel, end_c) = best(channel);
    assert_eq!(
        end_d.to_bits(),
        end_c.to_bits(),
        "transports must agree on virtual time"
    );
    let speedup = ops_direct / ops_channel;
    println!("\nmessage ping-pong ({rounds} round trips, 4 handoffs each):");
    println!("  channel (seed mpsc pair)   {ops_channel:>12.0} ops/s");
    println!("  direct (rendezvous slot)   {ops_direct:>12.0} ops/s   ({speedup:.2}x)");
    assert!(
        speedup >= 1.5,
        "direct handoff must be >= 1.5x channel on message ping-pong (got {speedup:.2}x)"
    );

    // Spin vs yield on the direct transport's wait loop. The auto policy
    // picks spin on multicore boxes and yield on single-core ones; pinning
    // each explicitly measures what that heuristic is choosing between.
    // Either applies only to at-once waits, which is all this loop makes.
    // Wait strategy cannot perturb virtual time (it only decides how a
    // blocked thread burns the wait), so no determinism assert is needed —
    // but the end-time check comes free from handoff_pong's asserts.
    let ho_spin = {
        set_wait_policy(WaitPolicy::Spin);
        handoff_pong(direct, n_handoff).max(handoff_pong(direct, n_handoff))
    };
    let ho_yield = {
        set_wait_policy(WaitPolicy::Yield);
        handoff_pong(direct, n_handoff).max(handoff_pong(direct, n_handoff))
    };
    set_wait_policy(WaitPolicy::Auto);
    println!("\nhandoff wait policy (direct transport, {n_handoff} round trips):");
    println!("  spin (at-once waits)       {ho_spin:>12.0} handoffs/s");
    println!("  yield (sched-friendly)     {ho_yield:>12.0} handoffs/s");
    println!(
        "  faster here: {} ({:.2}x) — auto picks spin iff multicore",
        if ho_spin >= ho_yield { "spin" } else { "yield" },
        (ho_spin / ho_yield).max(ho_yield / ho_spin)
    );

    let n_spawn = (rounds / 10).max(1000);
    let sp_direct = spawn_storm(direct, n_spawn);
    let sp_channel = spawn_storm(channel, n_spawn);
    println!("\nspawn storm ({n_spawn} processes):");
    println!("  channel                    {sp_channel:>12.0} spawns/s");
    println!("  direct                     {sp_direct:>12.0} spawns/s");

    let (procs, toggles) = (100, 2000);
    let (ev_indexed, n_ev_i, end_i) = cancel_storm(indexed, procs, toggles);
    let (ev_stale, n_ev_s, end_s) = cancel_storm(stale, procs, toggles);
    assert_eq!(
        end_i.to_bits(),
        end_s.to_bits(),
        "queues must agree on virtual time"
    );
    assert_eq!(n_ev_i, n_ev_s, "queues must apply identical event counts");
    println!("\ncancel storm ({procs} computes x {toggles} load toggles, {n_ev_i} events):");
    println!("  stale-mark (seed)          {ev_stale:>12.0} events/s");
    println!("  indexed (O(log n) remove)  {ev_indexed:>12.0} events/s");

    // Machine/substrate stamps so a checked-in snapshot says where its
    // numbers came from (a 2-core CI runner and a 32-core workstation
    // produce very different ops/s for the same code).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    merge_bench_section(
        "sim_hotpath",
        &json_obj(&[
            ("cores_detected", cores.to_string()),
            (
                "substrate",
                "\"direct_handoff+indexed_queue (A/B vs seed in-section)\"".to_string(),
            ),
            ("handoff_rounds", n_handoff.to_string()),
            ("handoff_channel_per_s", json_num(ho_channel)),
            ("handoff_direct_per_s", json_num(ho_direct)),
            ("handoff_speedup", json_num(ho_speedup)),
            ("handoff_spin_per_s", json_num(ho_spin)),
            ("handoff_yield_per_s", json_num(ho_yield)),
            ("ping_pong_rounds", rounds.to_string()),
            ("ping_pong_channel_ops_per_s", json_num(ops_channel)),
            ("ping_pong_direct_ops_per_s", json_num(ops_direct)),
            ("ping_pong_speedup", json_num(speedup)),
            ("spawn_storm_procs", n_spawn.to_string()),
            ("spawn_channel_per_s", json_num(sp_channel)),
            ("spawn_direct_per_s", json_num(sp_direct)),
            ("cancel_storm_events", n_ev_i.to_string()),
            ("cancel_stale_events_per_s", json_num(ev_stale)),
            ("cancel_indexed_events_per_s", json_num(ev_indexed)),
        ]),
    );
    println!("\nwrote sim_hotpath section of BENCH_sim.json");
}
