//! **KERNEL-SCALE**: DES-kernel throughput on a communication-heavy
//! workload — 64 processes (4 clusters x 16 hosts) doing eager all-to-all
//! exchanges over a WAN mesh, with a compute phase per round so both the
//! CPU-sharing and the max-min-fair paths are exercised.
//!
//! The kernel has one timing: churn marks dirty hosts and links, and one
//! rate solve per virtual instant re-derives the shares (coalesced
//! recomputation). This binary compares the two solve scopes on it:
//!
//! * `Full` — every host and sharing component on each solve (the oracle);
//! * `Incremental` — dirty-set scoped recomputation (the default).
//!
//! Two payload shapes are measured. *Skewed* gives every pair its own size,
//! so every transfer completes at its own instant. *Uniform* gives every
//! transfer the same size, the shape of a synchronized `MPI_Alltoall`
//! round: flows sharing a bottleneck finish in bitwise-identical waves and
//! one solve absorbs each whole wave.
//!
//! The applied-event count is scope-invariant (stale pops are not
//! counted), so `events/sec = events_processed / wall` is an
//! apples-to-apples throughput number. Before anything is recorded the run
//! asserts, per shape, that both scopes produce bit-identical reports,
//! that reruns are deterministic, and that every churn notification is
//! either solved or absorbed (`solves + absorbed == churn`).
//!
//! Usage: `cargo run --release -p grads-bench --bin kernel_scale [rounds]`

use grads_bench::sweep::{json_num, json_obj, merge_bench_section};
use grads_core::sim::prelude::*;
use std::time::Instant;

const CLUSTERS: usize = 4;
const HOSTS_PER_CLUSTER: usize = 16;
const NPROC: usize = CLUSTERS * HOSTS_PER_CLUSTER;

fn build_grid() -> (Grid, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let mut cl = Vec::new();
    let mut hosts = Vec::new();
    for c in 0..CLUSTERS {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1.0e9, 50e-6);
        let spec = HostSpec {
            speed: 1.0e9,
            cores: 2,
            ..Default::default()
        };
        hosts.extend(b.add_hosts(id, HOSTS_PER_CLUSTER, &spec));
        cl.push(id);
    }
    // Full WAN mesh with heterogeneous bandwidth/latency per pair.
    let mut k = 0u32;
    for i in 0..CLUSTERS {
        for j in (i + 1)..CLUSTERS {
            b.connect(
                cl[i],
                cl[j],
                5.0e7 + 1.0e7 * k as f64,
                5e-3 + 3e-3 * k as f64,
            );
            k += 1;
        }
    }
    (b.build().expect("valid grid"), hosts)
}

/// One run of the workload. `uniform` selects the payload shape (see the
/// module doc); `obs` attaches a metrics sink (never on a timed run).
fn run(
    mode: RecomputeMode,
    rounds: usize,
    uniform: bool,
    obs: Option<grads_core::obs::Obs>,
) -> (RunReport, f64) {
    let (grid, hosts) = build_grid();
    let mut eng = Engine::new(grid);
    eng.set_recompute_mode(mode);
    if let Some(o) = obs {
        eng.set_obs(o);
    }
    for i in 0..NPROC {
        let me = hosts[i];
        let peers = hosts.clone();
        eng.spawn(&format!("p{i}"), me, move |ctx| {
            for r in 0..rounds {
                ctx.compute(1.0e6);
                for (j, &peer) in peers.iter().enumerate() {
                    if j != i {
                        let bytes = if uniform {
                            1.0e5
                        } else {
                            1.0e5 + (i * NPROC + j) as f64
                        };
                        ctx.isend(
                            mail_key(&[r as u64, i as u64, j as u64]),
                            peer,
                            bytes,
                            Box::new(()),
                        );
                    }
                }
                // Interleave compute with the receives so CPU completions
                // land while transfers are in flight — the iterative
                // compute/communicate pattern of the paper's applications.
                for j in 0..NPROC {
                    if j != i {
                        let _ = ctx.recv(mail_key(&[r as u64, j as u64, i as u64]));
                        ctx.compute(2.5e5);
                    }
                }
            }
        });
    }
    let wall = Instant::now();
    let report = eng.run();
    let secs = wall.elapsed().as_secs_f64();
    assert_eq!(
        report.completed.len(),
        NPROC,
        "{mode:?}: all processes must complete"
    );
    (report, secs)
}

/// What one payload shape measured.
struct Shape {
    report: RunReport,
    full_rate: f64,
    incremental_rate: f64,
    churn: u64,
    solves: u64,
    absorbed: u64,
    burst_mean: f64,
    burst_max: f64,
}

/// Time both scopes on one payload shape (the faster of two runs each, to
/// damp scheduler noise), asserting bit-identity and determinism first,
/// then count churn and solves on an untimed obs-enabled run.
fn measure(rounds: usize, uniform: bool) -> Shape {
    let timed = |mode| {
        let (r1, t1) = run(mode, rounds, uniform, None);
        let (r2, t2) = run(mode, rounds, uniform, None);
        assert_eq!(r1, r2, "{mode:?}: reruns must be bit-identical");
        let rate = r1.events_processed as f64 / t1.min(t2);
        (r1, rate)
    };
    let (full, full_rate) = timed(RecomputeMode::Full);
    let (inc, incremental_rate) = timed(RecomputeMode::Incremental);
    assert_eq!(
        full, inc,
        "Incremental must be bit-identical to the Full oracle"
    );
    let obs = grads_core::obs::Obs::enabled();
    let (observed, _) = run(
        RecomputeMode::Incremental,
        rounds,
        uniform,
        Some(obs.clone()),
    );
    assert_eq!(observed, inc, "an obs-enabled run must not perturb results");
    let snap = obs.snapshot();
    let churn = snap.counter("sim.recomputes").unwrap_or(0);
    let solves = snap.counter("sim.recompute.solves").unwrap_or(0);
    let absorbed = snap.counter("sim.recompute.coalesced").unwrap_or(0);
    assert_eq!(
        solves + absorbed,
        churn,
        "every churn is either solved or absorbed"
    );
    let (burst_mean, burst_max) = snap
        .histogram("sim.recompute.burst")
        .map(|h| (h.mean(), h.max))
        .unwrap_or((0.0, 0.0));
    Shape {
        report: inc,
        full_rate,
        incremental_rate,
        churn,
        solves,
        absorbed,
        burst_mean,
        burst_max,
    }
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    println!(
        "KERNEL-SCALE — {NPROC}-process all-to-all over a {CLUSTERS}-cluster WAN mesh, \
         {rounds} round(s)\n"
    );
    // Warm-up run (allocator, thread spawning) before timing.
    let _ = run(RecomputeMode::Incremental, 1, false, None);

    let skewed = measure(rounds, false);
    let uniform = measure(rounds, true);

    println!(
        "{:>8} {:>10} {:>16} {:>16} {:>8} {:>8} {:>9}",
        "payload", "events", "full ev/s", "incremental ev/s", "churn", "solves", "absorbed"
    );
    for (name, s) in [("skewed", &skewed), ("uniform", &uniform)] {
        println!(
            "{:>8} {:>10} {:>16.0} {:>16.0} {:>8} {:>8} {:>9}",
            name,
            s.report.events_processed,
            s.full_rate,
            s.incremental_rate,
            s.churn,
            s.solves,
            s.absorbed
        );
    }
    println!(
        "\nuniform burst mean {:.1}, max {:.0}; virtual end_time {:.3} s (skewed).",
        uniform.burst_mean, uniform.burst_max, skewed.report.end_time
    );
    println!("every run verified: Incremental bit-identical to Full, reruns identical,");
    println!("solves + absorbed == churn.");
    println!("shape to check: Incremental >= Full events/sec — the dirty-set path re-solves");
    println!("only affected sharing components; uniform payloads absorb far more churn per");
    println!("solve than skewed ones (whole completion waves share one solve).");

    // Stamp the machine so checked-in snapshots are self-describing
    // (throughput numbers are meaningless without the core count).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let section = |s: &Shape, extra: Vec<(&'static str, String)>| {
        let mut fields: Vec<(&str, String)> = vec![
            ("cores_detected", cores.to_string()),
            ("rounds", rounds.to_string()),
            ("processes", NPROC.to_string()),
            ("events_applied", s.report.events_processed.to_string()),
            ("virtual_end_time_s", json_num(s.report.end_time)),
            ("full_events_per_s", json_num(s.full_rate)),
            ("incremental_events_per_s", json_num(s.incremental_rate)),
            ("recompute_churn", s.churn.to_string()),
            ("recompute_solves", s.solves.to_string()),
            ("coalesced_absorbed", s.absorbed.to_string()),
        ];
        fields.extend(extra);
        // Written only after every assert above has passed.
        fields.push(("identity_ok", "1".to_string()));
        json_obj(&fields)
    };
    merge_bench_section("kernel_scale", &section(&skewed, Vec::new()));
    merge_bench_section(
        "kernel_scale_coalesce",
        &section(
            &uniform,
            vec![
                ("burst_mean", json_num(uniform.burst_mean)),
                ("burst_max", json_num(uniform.burst_max)),
            ],
        ),
    );
    println!("\nwrote kernel_scale and kernel_scale_coalesce sections of BENCH_sim.json");
}
