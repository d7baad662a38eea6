//! **GRID-SERVICE**: the multi-tenant service layer at grid scale.
//!
//! A seeded stream of QR / N-body / EMAN / workflow jobs (each with a
//! size, deadline, and budget) is served by the deadline-aware,
//! market-priced admission layer in front of the fast mapper
//! (`grads-service`). The sweep holds the grid fixed and raises the
//! arrival intensity from under-subscribed to heavily saturated, plus
//! one grid-scale point at 4096 hosts — producing throughput, queue
//! latency, and SLO-miss curves as the offered load crosses capacity.
//!
//! Every metric in the `grid_service` section is **virtual-time-derived**
//! (no wall clock), so that section is byte-identical across reruns,
//! across `SchedTune` decision paths, and at any `GRADS_SWEEP_WORKERS`
//! count — pinned by `tests/service_bench_determinism.rs` and the root
//! `service_determinism` suite.
//!
//! The **`service_hotpath`** axis is the one deliberate exception: it
//! A/Bs the default decision path (one sorted index per round, walked
//! per job) against the reference path (`SchedTune::reference()`, which
//! re-sorts against the live NWS per job) at a mapping-heavy point,
//! asserts in-binary that the two runs are bit-identical (full
//! `ServiceResult` plus the obs snapshot), and records **wall-clock**
//! rounds/sec — the same measured-speed precedent as `BENCH_sim.json`'s
//! wall keys, so those keys vary between machines while every identity
//! key stays pinned. The reference path is quadratic in cluster size, so
//! the A/B runs at 256 hosts; the full sweep adds a 4096-host
//! mapping-heavy point on the default path alone, run twice and asserted
//! rerun-identical, with its rounds/sec.
//!
//! Usage:
//!   cargo run --release -p grads-bench --bin grid_service          # full sweep
//!   cargo run --release -p grads-bench --bin grid_service smoke    # CI smoke
//!
//! Writes the `grid_service` + `service_hotpath` (or `_smoke`) sections
//! of `BENCH_service.json` in the working directory (run it from the
//! repository root).

use grads_bench::sweep::{default_workers, json_num, json_obj, merge_bench_section_in, run_sweep};
use grads_core::prelude::*;

/// One sweep point: a grid shape plus an arrival intensity.
struct Point {
    tag: &'static str,
    hosts: usize,
    clusters: usize,
    cores: u32,
    n_jobs: usize,
    mean_interarrival_s: f64,
}

const FULL: &[Point] = &[
    Point {
        tag: "h1024_light",
        hosts: 1024,
        clusters: 16,
        cores: 8,
        n_jobs: 2000,
        mean_interarrival_s: 0.8,
    },
    Point {
        tag: "h1024_moderate",
        hosts: 1024,
        clusters: 16,
        cores: 8,
        n_jobs: 4000,
        mean_interarrival_s: 0.3,
    },
    Point {
        tag: "h1024_saturated",
        hosts: 1024,
        clusters: 16,
        cores: 8,
        n_jobs: 8000,
        mean_interarrival_s: 0.1,
    },
    Point {
        tag: "h1024_overload",
        hosts: 1024,
        clusters: 16,
        cores: 8,
        n_jobs: 10000,
        mean_interarrival_s: 0.05,
    },
    Point {
        tag: "h4096_saturated",
        hosts: 4096,
        clusters: 32,
        cores: 2,
        n_jobs: 8000,
        mean_interarrival_s: 0.1,
    },
];

const SMOKE: &[Point] = &[
    Point {
        tag: "h128_light",
        hosts: 128,
        clusters: 8,
        cores: 2,
        n_jobs: 300,
        mean_interarrival_s: 2.0,
    },
    Point {
        tag: "h128_saturated",
        hosts: 128,
        clusters: 8,
        cores: 2,
        n_jobs: 900,
        mean_interarrival_s: 0.4,
    },
];

/// A hotpath point: a deep *standing* queue over a grid, so per-round
/// decision work (per-job mapping walks) dominates. The
/// standing queue is engineered, not incidental: `reserve_price` sits
/// above most drawn budget rates (`budget_rate` spans 0.6–2.2), so the
/// bulk of the stream maps successfully every round and then defers
/// over-budget, re-deciding until its deadline expires. `round_s` bounds
/// how many rounds each job is re-decided (deadline ÷ round period).
struct HotPoint {
    tag: &'static str,
    hosts: usize,
    clusters: usize,
    cores: u32,
    n_jobs: usize,
    mean_interarrival_s: f64,
    round_s: f64,
    reserve_price: f64,
}

/// The A/B point, default path vs reference path, in both modes.
const HOT_AB: HotPoint = HotPoint {
    tag: "h256_mapheavy",
    hosts: 256,
    clusters: 8,
    cores: 2,
    n_jobs: 400,
    mean_interarrival_s: 0.2,
    round_s: 30.0,
    reserve_price: 6.0,
};

/// Full mode's grid-scale point, on the default path only.
const HOT_SCALE: HotPoint = HotPoint {
    tag: "h4096_mapheavy",
    hosts: 4096,
    clusters: 32,
    cores: 2,
    n_jobs: 4000,
    mean_interarrival_s: 0.05,
    round_s: 30.0,
    reserve_price: 6.0,
};

/// Full mode's floor on the default path's speedup over the reference
/// path at [`HOT_AB`]; smoke skips it (CI noise).
const MIN_SPEEDUP: f64 = 3.0;

/// One hotpath run: the mapping-heavy point on the chosen decision path,
/// returning the result, the obs snapshot, and the wall time.
fn run_hot(p: &HotPoint, sched: SchedTune) -> (ServiceResult, String, f64) {
    let cfg = ServiceConfig {
        workload: WorkloadConfig {
            n_jobs: p.n_jobs,
            n_tenants: 8,
            mean_interarrival_s: p.mean_interarrival_s,
            ..WorkloadConfig::default()
        },
        hosts: p.hosts,
        clusters: p.clusters,
        cores_per_host: p.cores,
        round_s: p.round_s,
        reserve_price: p.reserve_price,
        // Never truncate the queue walk: every queued job gets its
        // mapping decision each round, on both paths identically.
        max_admissions_per_round: usize::MAX,
        sched,
        obs: Obs::enabled(),
        ..ServiceConfig::default()
    };
    let obs = cfg.obs.clone();
    let t0 = std::time::Instant::now();
    let r = run_service_experiment(cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    (r, obs.snapshot().to_json(), wall_s)
}

fn run_point(p: &Point) -> ServiceResult {
    let cfg = ServiceConfig {
        workload: WorkloadConfig {
            n_jobs: p.n_jobs,
            n_tenants: 8,
            mean_interarrival_s: p.mean_interarrival_s,
            ..WorkloadConfig::default()
        },
        hosts: p.hosts,
        clusters: p.clusters,
        cores_per_host: p.cores,
        sched: SchedTune::fast(),
        ..ServiceConfig::default()
    };
    run_service_experiment(cfg)
}

fn main() {
    let smoke = std::env::args().nth(1).as_deref() == Some("smoke")
        || std::env::var("GRADS_SERVICE_SMOKE").is_ok();
    let workers = default_workers();
    let points = if smoke { SMOKE } else { FULL };

    println!(
        "GRID-SERVICE — multi-tenant job-stream service [{} sweep, {workers} workers]\n",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>16} {:>6} {:>6} {:>7} {:>7} {:>7} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "point",
        "hosts",
        "jobs",
        "admit",
        "reject",
        "slo%",
        "jobs/h",
        "wait_s",
        "p95_s",
        "inflight",
        "price"
    );

    let results = run_sweep(points, workers, |_i, p| run_point(p));

    let mut fields: Vec<(&str, String)> = vec![
        (
            "mode",
            format!("\"{}\"", if smoke { "smoke" } else { "full" }),
        ),
        ("n_tenants", "8".into()),
        ("seed", format!("{}", WorkloadConfig::default().seed)),
    ];
    let mut keyed: Vec<(String, String)> = Vec::new();
    for (p, r) in points.iter().zip(&results) {
        let t = &r.totals;
        assert_eq!(
            t.admitted + t.rejected,
            t.submitted,
            "{}: every job is admitted or rejected",
            p.tag
        );
        assert_eq!(t.completed, t.admitted, "{}: the run drained", p.tag);
        println!(
            "{:>16} {:>6} {:>6} {:>7} {:>7} {:>6.1}% {:>9.0} {:>9.1} {:>8.1} {:>9} {:>8.2}",
            p.tag,
            p.hosts,
            t.submitted,
            t.admitted,
            t.rejected,
            r.slo_miss_rate * 100.0,
            r.throughput_per_hour,
            r.mean_wait_s,
            r.p95_wait_s,
            r.max_in_flight,
            r.price_mean,
        );
        for (k, v) in [
            ("submitted", json_num(t.submitted as f64)),
            ("admitted", json_num(t.admitted as f64)),
            ("rejected", json_num(t.rejected as f64)),
            ("completed", json_num(t.completed as f64)),
            ("slo_misses", json_num(t.slo_misses as f64)),
            ("slo_miss_rate", json_num(r.slo_miss_rate)),
            ("throughput_per_hour", json_num(r.throughput_per_hour)),
            ("mean_wait_s", json_num(r.mean_wait_s)),
            ("p95_wait_s", json_num(r.p95_wait_s)),
            ("mean_turnaround_s", json_num(r.mean_turnaround_s)),
            ("max_in_flight", json_num(r.max_in_flight as f64)),
            ("mean_in_flight", json_num(r.mean_in_flight)),
            ("high_water_rounds", json_num(r.high_water_rounds as f64)),
            ("peak_queue", json_num(r.peak_queue as f64)),
            ("host_seconds", json_num(t.host_seconds)),
            ("spend", json_num(t.spend)),
            ("price_mean", json_num(r.price_mean)),
            ("price_volatility", json_num(r.price_volatility)),
            ("fairness", json_num(r.fairness)),
            ("rounds", json_num(r.rounds as f64)),
            ("auction_rounds", json_num(r.auction_rounds as f64)),
            ("end_time_s", json_num(r.end_time)),
        ] {
            keyed.push((format!("{}_{k}", p.tag), v));
        }
    }

    if !smoke {
        let sat = &results[2];
        assert!(
            points[2].hosts >= 1024,
            "the saturated point runs on a grid-scale host count"
        );
        assert!(
            sat.max_in_flight >= 2000,
            "the saturated 1024-host point must sustain >= 2000 concurrent \
             jobs (got {})",
            sat.max_in_flight
        );
        assert!(
            sat.high_water_rounds >= 60,
            "concurrency must be sustained, not a transient: >= 2000 jobs \
             in flight for >= 60 rounds (got {} rounds)",
            sat.high_water_rounds
        );
        println!(
            "\nsaturated point: {} jobs peak in flight on {} hosts, >= 2000 \
             in flight for {} rounds ({:.0} virtual seconds)",
            sat.max_in_flight,
            points[2].hosts,
            sat.high_water_rounds,
            sat.high_water_rounds as f64 * 5.0,
        );
    }

    for (k, v) in &keyed {
        fields.push((k.as_str(), v.clone()));
    }
    let section = if smoke {
        "grid_service_smoke"
    } else {
        "grid_service"
    };
    merge_bench_section_in("BENCH_service.json", section, &json_obj(&fields));
    println!("wrote {section} section of BENCH_service.json");

    // ---- service_hotpath: default path vs reference decision path ----
    let hp = &HOT_AB;
    println!(
        "\nSERVICE-HOTPATH — one index per round vs per-job reference sort @ {} \
         ({} hosts, {} jobs)",
        hp.tag, hp.hosts, hp.n_jobs
    );
    let (r_ref, obs_ref, wall_ref) = run_hot(hp, SchedTune::reference());
    let (r_def, obs_def, wall_def) = run_hot(hp, SchedTune::default());
    assert_eq!(
        r_ref, r_def,
        "{}: the default path changed a decision or a ledger bit",
        hp.tag
    );
    assert_eq!(
        obs_ref, obs_def,
        "{}: obs snapshots diverge between decision paths",
        hp.tag
    );
    let identity_ok = r_ref == r_def && obs_ref == obs_def;
    let decisions_line = obs_ref
        .lines()
        .find(|l| l.contains("svc.round.decisions"))
        .unwrap_or("")
        .trim()
        .to_string();
    println!(
        "{:>16} admitted {} rejected {} — {}",
        hp.tag, r_ref.totals.admitted, r_ref.totals.rejected, decisions_line
    );
    let ref_rps = r_ref.rounds as f64 / wall_ref.max(1e-9);
    let def_rps = r_def.rounds as f64 / wall_def.max(1e-9);
    let speedup = wall_ref / wall_def.max(1e-9);
    println!(
        "{:>16} rounds {:>5}  reference {:>8.2} rounds/s  default {:>8.2} \
         rounds/s  speedup {:>5.2}x  identity ok",
        hp.tag, r_ref.rounds, ref_rps, def_rps, speedup
    );
    if !smoke {
        assert!(
            speedup >= MIN_SPEEDUP,
            "{}: default path must be >= {MIN_SPEEDUP}x over the reference \
             decision path (got {speedup:.2}x)",
            hp.tag
        );
    }
    let mut hot_fields: Vec<(String, String)> = vec![
        (
            format!("{}_identity_ok", hp.tag),
            json_num(identity_ok as u64 as f64),
        ),
        (format!("{}_speedup_x", hp.tag), json_num(speedup)),
        (format!("{}_ref_rounds_per_sec", hp.tag), json_num(ref_rps)),
        (
            format!("{}_default_rounds_per_sec", hp.tag),
            json_num(def_rps),
        ),
        (format!("{}_rounds", hp.tag), json_num(r_ref.rounds as f64)),
        (format!("{}_ref_wall_s", hp.tag), json_num(wall_ref)),
        (format!("{}_default_wall_s", hp.tag), json_num(wall_def)),
    ];
    if !smoke {
        let hp = &HOT_SCALE;
        let (r_a, obs_a, wall_a) = run_hot(hp, SchedTune::default());
        let (r_b, obs_b, _) = run_hot(hp, SchedTune::default());
        assert_eq!(
            r_a, r_b,
            "{}: rerun changed a decision or a ledger bit",
            hp.tag
        );
        assert_eq!(obs_a, obs_b, "{}: rerun changed the obs snapshot", hp.tag);
        let rps = r_a.rounds as f64 / wall_a.max(1e-9);
        println!(
            "{:>16} rounds {:>5}  default {:>8.2} rounds/s  rerun identity ok",
            hp.tag, r_a.rounds, rps
        );
        hot_fields.extend([
            (format!("{}_rerun_identity_ok", hp.tag), json_num(1.0)),
            (format!("{}_default_rounds_per_sec", hp.tag), json_num(rps)),
            (format!("{}_rounds", hp.tag), json_num(r_a.rounds as f64)),
            (format!("{}_default_wall_s", hp.tag), json_num(wall_a)),
        ]);
    }
    let hot_refs: Vec<(&str, String)> = hot_fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    let hot_section = if smoke {
        "service_hotpath_smoke"
    } else {
        "service_hotpath"
    };
    merge_bench_section_in("BENCH_service.json", hot_section, &json_obj(&hot_refs));
    println!("wrote {hot_section} section of BENCH_service.json");
}
