//! **ATTR**: the honest-attribution plane, measured end to end.
//!
//! Four measurements on the fig3 QR-migration scenario, plus one
//! multi-tenant service round:
//!
//! 1. **Zero perturbation** — a run with collective-internals (per-hop)
//!    recording attached is bit-identical to a bare run: same `end_time`,
//!    same full kernel report. Asserted, not just reported.
//! 2. **Honest vs opaque attribution** — per-host critical-path tables
//!    from the same timeline: the honest walk follows the collective's
//!    internal sends across ranks, the opaque walk treats collectives as
//!    black boxes. Both tile `[0, makespan]` bitwise; the mass the honest
//!    walk re-assigns between hosts is what per-hop recording buys.
//! 3. **Feedback ablation** — `SchedTune::attr_alpha_milli` off vs on:
//!    did the post-migration landing change, what happened to the
//!    makespan, and is the knob-on run rerun-byte-identical (asserted)?
//!    A direct map-level sweep then finds the alpha at which the
//!    *measured* attribution of the first incarnation flips the landing
//!    choice off the attributed cluster.
//! 4. **Service round spans** — a small admission/market round with the
//!    per-job span log enabled, exported as a Chrome trace artifact
//!    (CI uploads it; load in `chrome://tracing` or `ui.perfetto.dev`).
//!
//! Every number in the JSON is virtual-time-derived, so `BENCH_attr.json`
//! is byte-identical across reruns.
//!
//! Usage:
//!   cargo run --release -p grads-bench --bin attr_feedback          # full
//!   cargo run --release -p grads-bench --bin attr_feedback smoke    # CI smoke
//!   (optional: --export PATH for the service-round trace, default
//!   `target/service_round_trace.json`)
//!
//! Writes the `attr_feedback` (or `attr_feedback_smoke`) section of
//! `BENCH_attr.json` in the working directory (run it from the
//! repository root).

use grads_bench::sweep::{json_num, json_obj, merge_bench_section_in};
use grads_core::apps::QrCop;
use grads_core::nws::SharedSnapshot;
use grads_core::obs::SegKind;
use grads_core::prelude::*;
use grads_core::service::SpanLog;
use grads_core::sim::topology::macrogrid_qr;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The alpha used for the on-leg of the end-to-end ablation (same value
/// the apps-crate regression pins for rerun identity).
const ABLATION_ALPHA_MILLI: u32 = 500;

/// Map-level sweep for the decision flip, thousandths.
const FLIP_SWEEP: &[u32] = &[0, 2000, 4000, 6000, 8000];

/// The fig3 stop/restart scenario with a chosen recorder and attribution
/// strength. Same shape as the root `obs_determinism` fixture.
fn fig3(n_real: usize, rec: Recorder, alpha_milli: u32) -> QrExperimentResult {
    let mut cfg = QrExperimentConfig::paper(20000);
    cfg.qr.n_real = n_real;
    cfg.qr.block = 4;
    cfg.qr.poll_every = 4;
    cfg.load_at = 60.0;
    cfg.monitor_period = 10.0;
    cfg.t_max = 50_000.0;
    cfg.recorder = rec;
    cfg.sched = SchedTune::default().with_attr_alpha_milli(alpha_milli);
    run_qr_experiment(macrogrid_qr(), cfg)
}

/// `(host, seconds)` list → map, for set comparison and L1 distance.
fn host_map(v: &[(String, f64)]) -> BTreeMap<String, f64> {
    v.iter().cloned().collect()
}

fn main() {
    let mut smoke = std::env::var("GRADS_ATTR_SMOKE").is_ok();
    let mut export = String::from("target/service_round_trace.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "smoke" => smoke = true,
            "--export" => export = args.next().expect("--export takes a path"),
            other => panic!("unrecognized argument {other:?}"),
        }
    }
    let n_real = if smoke { 48 } else { 64 };
    let section = if smoke {
        "attr_feedback_smoke"
    } else {
        "attr_feedback"
    };
    println!("attr_feedback — honest attribution plane (n_real = {n_real})");

    // -------- 1. zero perturbation --------
    let plain = fig3(n_real, Recorder::disabled(), 0);
    let rec = Recorder::enabled_with_internals();
    let off = fig3(n_real, rec.clone(), 0);
    assert!(plain.migrated && off.migrated, "fixture must migrate");
    assert_eq!(
        plain.report.end_time.to_bits(),
        off.report.end_time.to_bits(),
        "collective-internals recording must not perturb the run"
    );
    assert_eq!(plain.report, off.report, "full report must be identical");
    println!(
        "zero perturbation: internals-recorded run bit-identical to bare run \
         (end_time = {:.3} s)",
        off.report.end_time
    );

    // -------- 2. honest vs opaque per-host attribution --------
    let tl = rec.timeline();
    let makespan = tl.makespan();
    let honest_path = tl.critical_path();
    let opaque_path = tl.critical_path_opaque();
    let honest = host_map(&tl.critical_path_by_host(&honest_path));
    let opaque = host_map(&tl.critical_path_by_host(&opaque_path));
    println!("\nper-host critical-path attribution (makespan {makespan:.3} s):");
    println!(
        "  {:<14} {:>12} {:>12} {:>12}",
        "host", "honest s", "opaque s", "delta s"
    );
    let mut reassigned = 0.0f64;
    let hosts: std::collections::BTreeSet<&String> = honest.keys().chain(opaque.keys()).collect();
    for h in &hosts {
        let a = honest.get(*h).copied().unwrap_or(0.0);
        let b = opaque.get(*h).copied().unwrap_or(0.0);
        reassigned += (a - b).abs();
        println!("  {:<14} {a:>12.3} {b:>12.3} {:>12.3}", h.as_str(), a - b);
    }
    // Each second moved shows up once as +delta and once as -delta.
    reassigned /= 2.0;
    assert!(
        honest != opaque,
        "honest and opaque walks must attribute differently on fig3"
    );
    println!(
        "honest walk re-assigns {reassigned:.3} s of critical path \
         ({:.1}% of the makespan) relative to the opaque walk",
        100.0 * reassigned / makespan
    );

    // -------- 3. feedback ablation --------
    // End-to-end: same scenario with the knob on. The manager feeds the
    // first incarnation's per-host shares into the landing map.
    let on = fig3(n_real, Recorder::enabled(), ABLATION_ALPHA_MILLI);
    let on2 = fig3(n_real, Recorder::enabled(), ABLATION_ALPHA_MILLI);
    assert!(on.migrated, "knob-on fixture must still migrate");
    assert_eq!(
        on.final_hosts, on2.final_hosts,
        "knob-on rerun: same landing"
    );
    assert_eq!(
        on.total_time.to_bits(),
        on2.total_time.to_bits(),
        "knob-on rerun must be byte-identical"
    );
    let decision_changed = on.final_hosts != off.final_hosts;
    println!(
        "\nablation (alpha {} vs 0): landing changed = {decision_changed}, \
         total_time {:.3} s vs {:.3} s (delta {:+.3} s)",
        ABLATION_ALPHA_MILLI,
        on.total_time,
        off.total_time,
        on.total_time - off.total_time
    );

    // Map-level flip sweep: weights are the *measured* shares of the
    // first incarnation (the path up to the migration bridge), exactly
    // what the manager computes at the stop point.
    let grid = macrogrid_qr();
    let cut = honest_path
        .iter()
        .position(|s| matches!(s.kind, SegKind::Bridge { .. }))
        .expect("migrated run has a bridge on the path");
    let first = tl.critical_path_by_host(&honest_path[..cut]);
    let total: f64 = first.iter().map(|(_, d)| d).sum();
    let mut weights = vec![0.0f64; grid.hosts().len()];
    for (label, d) in &first {
        if let Some(i) = grid.hosts().iter().position(|h| h.name == *label) {
            weights[i] = d / total;
        }
    }
    let weights = Arc::new(weights);
    let snap = ForecastSnapshot::capture(&grid, &NwsService::new());
    let all: Vec<HostId> = (0..grid.hosts().len() as u32).map(HostId).collect();
    let mut cop = QrCop {
        cfg: QrExperimentConfig::paper(20000).qr,
        min_procs: 4,
        max_procs: 8,
        tune: SchedTune::fast(),
        shared_snap: SharedSnapshot::new(),
        snap_trace: Arc::new(Mutex::new(Vec::new())),
        attr_weights: Arc::new(Mutex::new(Some(weights))),
    };
    println!("\nmap-level flip sweep (measured first-incarnation weights):");
    let mut base_choice: Option<Vec<HostId>> = None;
    let mut flip_alpha: Option<u32> = None;
    for &alpha in FLIP_SWEEP {
        cop.tune = SchedTune::fast().with_attr_alpha_milli(alpha);
        let choice = cop.map_fast(&grid, &snap, &all).expect("candidates");
        let cluster = &grid.clusters()[grid.host(choice[0]).cluster.0 as usize].name;
        println!("  alpha {alpha:>5} m -> {cluster} ({} slots)", choice.len());
        match &base_choice {
            None => base_choice = Some(choice),
            Some(b) if *b != choice && flip_alpha.is_none() => flip_alpha = Some(alpha),
            _ => {}
        }
    }
    let flip_alpha = flip_alpha.expect("sweep must flip the landing off the attributed cluster");
    println!("landing flips off the attributed cluster at alpha {flip_alpha} m");

    // -------- 4. service round with per-job spans --------
    let spans = SpanLog::enabled();
    let scfg = ServiceConfig {
        workload: WorkloadConfig {
            n_jobs: 120,
            n_tenants: 4,
            mean_interarrival_s: 2.0,
            ..WorkloadConfig::default()
        },
        hosts: 32,
        clusters: 4,
        cores_per_host: 2,
        sched: SchedTune::fast(),
        spans: spans.clone(),
        ..ServiceConfig::default()
    };
    let sres = run_service_experiment(scfg);
    let trace = spans.to_chrome_trace();
    if let Some(dir) = std::path::Path::new(&export).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create export directory");
        }
    }
    std::fs::write(&export, &trace).expect("write service-round trace");
    println!(
        "\nservice round: {} jobs completed, {} spans -> {export} ({} bytes)",
        sres.totals.completed,
        spans.spans().len(),
        trace.len()
    );

    // -------- JSON section --------
    let fields: Vec<(&str, String)> = vec![
        ("makespan_s", json_num(makespan)),
        ("honest_hosts", json_num(honest.len() as f64)),
        ("opaque_hosts", json_num(opaque.len() as f64)),
        ("attr_reassigned_s", json_num(reassigned)),
        ("attr_reassigned_frac", json_num(reassigned / makespan)),
        ("off_total_time_s", json_num(off.total_time)),
        ("on_total_time_s", json_num(on.total_time)),
        (
            "ablation_makespan_delta_s",
            json_num(on.total_time - off.total_time),
        ),
        (
            "ablation_decision_changed",
            json_num(if decision_changed { 1.0 } else { 0.0 }),
        ),
        (
            "ablation_alpha_milli",
            json_num(ABLATION_ALPHA_MILLI as f64),
        ),
        ("flip_alpha_milli", json_num(flip_alpha as f64)),
        (
            "service_jobs_completed",
            json_num(sres.totals.completed as f64),
        ),
        ("service_spans", json_num(spans.spans().len() as f64)),
        ("service_trace_bytes", json_num(trace.len() as f64)),
    ];
    merge_bench_section_in("BENCH_attr.json", section, &json_obj(&fields));
    println!("\nwrote section {section:?} of BENCH_attr.json");
}
