//! The four workloads: set-up from a seed, one pass on the default
//! `EngineTune`/`SchedTune` paths, and the checks every pass must meet.
//!
//! Each pass runs on the calling thread; the engine's per-process threads
//! run one at a time under its default direct handoff. Nothing here goes
//! through `grads_bench::sweep`'s worker pool.

use crate::fingerprint::Fnv;
use crate::spans::{Spans, Took};
use grads_core::apps::{qr_flops, run_qr_experiment, QrExperimentConfig, SnapshotUse};
use grads_core::mpi::launch;
use grads_core::nws::NwsService;
use grads_core::obs::{Obs, Recorder};
use grads_core::reschedule::{OverheadPolicy, ReschedulerMode};
use grads_core::service::{
    generate_workload, run_service_experiment, service_grid, ServiceConfig, WorkloadConfig,
};
use grads_core::sim::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QrMigration,
    AlltoallCollective,
    ServiceSaturated,
    ServiceMapheavy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QrMigration,
        Workload::AlltoallCollective,
        Workload::ServiceSaturated,
        Workload::ServiceMapheavy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QrMigration => "qr_migration",
            Workload::AlltoallCollective => "alltoall_collective",
            Workload::ServiceSaturated => "service_saturated",
            Workload::ServiceMapheavy => "service_mapheavy",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Fig. 3 sizes on both sides of the stay/migrate crossover (which lies
/// between N = 8000 and N = 10000 at the paper defaults): at 8000 every
/// policy stays; at 11000 migration wins, the modeled-overhead policy
/// migrates and the 900 s worst-case policy wrongly stays.
const QR_SIZES: [usize; 2] = [8000, 11000];
const QR_POLICIES: [(ReschedulerMode, OverheadPolicy); 3] = [
    (ReschedulerMode::ForceStay, OverheadPolicy::Modeled),
    (ReschedulerMode::Default, OverheadPolicy::Modeled),
    (ReschedulerMode::Default, OverheadPolicy::WorstCase(900.0)),
];

/// The `kernel_scale` WAN mesh: 4 clusters × 16 dual-core hosts.
const A2A_CLUSTERS: usize = 4;
const A2A_HOSTS_PER_CLUSTER: usize = 16;
const A2A_ROUNDS: usize = 1;

/// An MPI job shape drawn from a workload, for the scheduler probes.
#[derive(Debug, Clone, Copy)]
pub struct JobShape {
    pub min_procs: usize,
    pub max_procs: usize,
    pub flops: f64,
    pub bcast_bytes: f64,
    /// Market budget per slot-second (the dispatcher's consumer budget).
    pub budget_rate: f64,
}

/// What a pass consumes, built once by [`prepare`].
enum Input {
    Qr {
        grid: Grid,
        cases: Vec<QrExperimentConfig>,
    },
    Alltoall {
        grid: Grid,
        hosts: Vec<HostId>,
        /// Per round: compute flops per rank, bytes per alltoall element.
        schedule: Arc<Vec<(f64, f64)>>,
    },
    Service {
        cfg: ServiceConfig,
    },
}

/// A workload after set-up.
pub struct Prepared {
    /// The grid the workload schedules over (probe target).
    pub grid: Grid,
    /// Forecaster seeded with a short history for every host of `grid`.
    pub nws: NwsService,
    /// Job shapes drawn from the workload.
    pub shapes: Vec<JobShape>,
    pub grid_build_s: f64,
    pub workload_gen_s: f64,
    input: Input,
}

/// What one pass produced. Only `took` is host time; every other field
/// is a pure function of the seed.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Host time spent inside the program's public calls.
    pub took: Took,
    pub virtual_s: f64,
    pub events: u64,
    pub rounds: u64,
    /// Operations attempted (experiments, launches or service runs).
    pub ops: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    pub fingerprint: u64,
    pub peak_queue: usize,
    pub migrations: u64,
    /// QR mapper calls, read from the snapshot provenance trace (the
    /// default fast mapper publishes no `sched.selections` counter).
    pub selections: u64,
    /// QR point-to-point and collective messages matched by the MPI
    /// layer, and their bytes (traced passes only).
    pub mpi_messages: u64,
    pub mpi_bytes: f64,
}

/// splitmix64: the seed → per-workload stream derivation.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(z: u64) -> f64 {
    (mix(z) >> 11) as f64 / (1u64 << 53) as f64
}

/// Build a workload's grid and inputs from `seed`, and seed a forecaster
/// over its hosts.
pub fn prepare(w: Workload, seed: u64) -> Prepared {
    let stream = mix(seed ^ mix(w as u64 + 1));
    let service = match w {
        Workload::ServiceSaturated => Some(saturated_config(stream)),
        Workload::ServiceMapheavy => Some(mapheavy_config(stream)),
        Workload::QrMigration | Workload::AlltoallCollective => None,
    };
    let t0 = Instant::now();
    let (grid, hosts) = match (&service, w) {
        (Some(c), _) => (
            service_grid(c.hosts, c.clusters, c.cores_per_host),
            Vec::new(),
        ),
        (None, Workload::AlltoallCollective) => mesh_grid(),
        (None, _) => (macrogrid_qr(), Vec::new()),
    };
    let grid_build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (input, shapes) = match (service, w) {
        (Some(c), _) => service_input(c),
        (None, Workload::AlltoallCollective) => alltoall_input(grid.clone(), hosts, stream),
        (None, _) => qr_input(grid.clone(), stream),
    };
    let workload_gen_s = t1.elapsed().as_secs_f64();

    let mut nws = NwsService::new();
    for h in 0..grid.hosts().len() as u64 {
        for j in 0..6u64 {
            nws.observe_cpu(HostId(h as u32), 0.55 + 0.4 * unit(stream ^ (h << 8) ^ j));
        }
    }
    Prepared {
        grid,
        nws,
        shapes,
        grid_build_s,
        workload_gen_s,
        input,
    }
}

fn mesh_grid() -> (Grid, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let mut cl = Vec::new();
    let mut hosts = Vec::new();
    for c in 0..A2A_CLUSTERS {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1.0e9, 50e-6);
        let spec = HostSpec {
            speed: 1.0e9,
            cores: 2,
            ..Default::default()
        };
        hosts.extend(b.add_hosts(id, A2A_HOSTS_PER_CLUSTER, &spec));
        cl.push(id);
    }
    let mut k = 0u32;
    for i in 0..A2A_CLUSTERS {
        for j in (i + 1)..A2A_CLUSTERS {
            let (bw, lat) = (5.0e7 + 1.0e7 * k as f64, 5e-3 + 3e-3 * k as f64);
            b.connect(cl[i], cl[j], bw, lat);
            k += 1;
        }
    }
    (b.build().expect("the mesh is a valid grid"), hosts)
}

fn qr_input(grid: Grid, stream: u64) -> (Input, Vec<JobShape>) {
    let mut cases = Vec::new();
    let mut shapes = Vec::new();
    for &n in &QR_SIZES {
        for &(mode, overhead) in &QR_POLICIES {
            let mut cfg = QrExperimentConfig::paper(n);
            cfg.qr.seed = stream;
            cfg.mode = mode;
            cfg.overhead = overhead;
            shapes.push(JobShape {
                min_procs: cfg.min_procs,
                max_procs: cfg.max_procs,
                flops: qr_flops(n as f64),
                bcast_bytes: 8.0 * n as f64,
                budget_rate: 1.0,
            });
            cases.push(cfg);
        }
    }
    (Input::Qr { grid, cases }, shapes)
}

fn alltoall_input(grid: Grid, mut hosts: Vec<HostId>, stream: u64) -> (Input, Vec<JobShape>) {
    // The seed places ranks on hosts (a Fisher-Yates shuffle) and jitters
    // each round's compute volume and payload by up to 2%. Within a round
    // every rank computes the same flops and sends the same payload, so
    // transfers that share a bottleneck finish at the same instant.
    for i in (1..hosts.len()).rev() {
        let j = (mix(stream ^ (0x5a5a << 20) ^ i as u64) % (i as u64 + 1)) as usize;
        hosts.swap(i, j);
    }
    let schedule: Vec<(f64, f64)> = (0..A2A_ROUNDS as u64)
        .map(|r| {
            let flops = 1.0e6 * (0.98 + 0.04 * unit(stream ^ (2 * r)));
            let bytes = 1.0e5 * (0.98 + 0.04 * unit(stream ^ (2 * r + 1)));
            (flops, bytes)
        })
        .collect();
    let n = hosts.len();
    let shape = JobShape {
        min_procs: n / A2A_CLUSTERS,
        max_procs: n,
        flops: schedule.iter().map(|s| s.0).sum::<f64>() * n as f64,
        bcast_bytes: schedule.iter().map(|s| s.1).sum(),
        budget_rate: 1.0,
    };
    let input = Input::Alltoall {
        grid,
        hosts,
        schedule: Arc::new(schedule),
    };
    (input, vec![shape])
}

/// `grid_service`'s `h1024_saturated` point, default `ServiceConfig`
/// otherwise: the weather-bound use of the service.
fn saturated_config(stream: u64) -> ServiceConfig {
    ServiceConfig {
        workload: WorkloadConfig {
            seed: stream,
            n_jobs: 8000,
            n_tenants: 8,
            mean_interarrival_s: 0.1,
            ..WorkloadConfig::default()
        },
        hosts: 1024,
        clusters: 16,
        cores_per_host: 8,
        ..ServiceConfig::default()
    }
}

/// `service_hotpath`'s standing-queue knobs (reserve price above most
/// budget rates, every queued job re-mapped each round, 30 s rounds) on a
/// 512-host grid, small enough for about ten passes per run: the
/// mapping-bound use of the service.
fn mapheavy_config(stream: u64) -> ServiceConfig {
    ServiceConfig {
        workload: WorkloadConfig {
            seed: stream,
            n_jobs: 2000,
            n_tenants: 8,
            mean_interarrival_s: 0.1,
            ..WorkloadConfig::default()
        },
        hosts: 512,
        clusters: 8,
        cores_per_host: 2,
        round_s: 30.0,
        reserve_price: 6.0,
        max_admissions_per_round: usize::MAX,
        ..ServiceConfig::default()
    }
}

fn service_input(cfg: ServiceConfig) -> (Input, Vec<JobShape>) {
    let ref_speed = cfg.workload.reference_speed;
    let shapes = generate_workload(&cfg.workload)
        .iter()
        .map(|j| JobShape {
            min_procs: j.procs,
            max_procs: j.procs,
            flops: j.flops,
            bcast_bytes: j.bcast_bytes,
            budget_rate: j.budget / j.nominal_s(ref_speed).max(1e-9),
        })
        .collect();
    (Input::Service { cfg }, shapes)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Process-level failures recorded in a kernel report, if any.
fn report_failures(r: &RunReport) -> Option<String> {
    (!(r.failed.is_empty() && r.unfinished.is_empty() && r.died.is_empty())).then(|| {
        format!(
            "failed {:?}, unfinished {:?}, died {:?}",
            r.failed, r.unfinished, r.died
        )
    })
}

/// Run one pass. `obs` is `Obs::disabled()` for timed passes; an enabled
/// handle collects the per-layer counters of a traced pass.
pub fn run_pass(p: &Prepared, obs: &Obs, spans: &mut Spans) -> PassOut {
    let mut out = PassOut::default();
    let mut fp = Fnv::new();
    match &p.input {
        Input::Qr { grid, cases } => {
            for case in cases {
                let mut cfg = case.clone();
                cfg.obs = obs.clone();
                // Traced passes also record the MPI layer's matched
                // messages (the flight recorder has the same
                // no-perturbation contract as `obs`).
                let recorder = if obs.is_enabled() {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                };
                cfg.recorder = recorder.clone();
                let grid = grid.clone();
                let (r, took) = spans.time("apps.run_qr_experiment", || {
                    catch_unwind(AssertUnwindSafe(|| run_qr_experiment(grid, cfg)))
                });
                out.took.wall_s += took.wall_s;
                out.took.cpu_s += took.cpu_s;
                out.ops += 1;
                out.rounds += 1;
                let tag = format!(
                    "N={} {:?}/{:?}",
                    case.qr.n_nominal, case.mode, case.overhead
                );
                let r = match r {
                    Ok(r) => r,
                    Err(e) => {
                        out.failures
                            .push(format!("{tag}: panic: {}", panic_message(e)));
                        continue;
                    }
                };
                fp.debug(&(r.total_time.to_bits(), r.migrated, &r.breakdown, &r.report));
                let msgs = recorder.timeline().msgs;
                out.mpi_messages += msgs.len() as u64;
                out.mpi_bytes += msgs.iter().map(|m| m.bytes).sum::<f64>();
                out.virtual_s += r.report.end_time;
                out.events += r.report.events_processed;
                out.migrations += r.incarnations.saturating_sub(1) as u64;
                out.selections += r
                    .snapshot_trace
                    .iter()
                    .filter(|(u, _)| matches!(u, SnapshotUse::MapCaptured | SnapshotUse::MapShared))
                    .count() as u64;
                if let Some(f) = report_failures(&r.report) {
                    out.failures.push(format!("{tag}: {f}"));
                } else if !(r.total_time.is_finite() && r.total_time > 0.0)
                    || r.migrated != (r.incarnations > 1)
                {
                    out.failures.push(format!(
                        "{tag}: broken invariant: total_time {} migrated {} incarnations {}",
                        r.total_time, r.migrated, r.incarnations
                    ));
                }
            }
        }
        Input::Alltoall {
            grid,
            hosts,
            schedule,
        } => {
            let mismatches = Arc::new(AtomicU64::new(0));
            let (bad, sched) = (mismatches.clone(), schedule.clone());
            let grid = grid.clone();
            let (r, took) = spans.time("sim.engine_run", || {
                catch_unwind(AssertUnwindSafe(move || {
                    let mut eng = Engine::new(grid);
                    eng.set_obs(obs.clone());
                    launch(&mut eng, "a2a", hosts, move |ctx, comm| {
                        let (me, n) = (comm.rank() as u64, comm.size() as u64);
                        let tag = |r: u64, s: u64, d: u64| (r << 40) | (s << 20) | d;
                        for (r, &(flops, bytes)) in sched.iter().enumerate() {
                            let r = r as u64;
                            comm.compute(ctx, flops);
                            let data = (0..n).map(|d| tag(r, me, d)).collect();
                            let got = comm.alltoall_t::<u64>(ctx, bytes, data);
                            let wrong = (0..n).filter(|&s| got[s as usize] != tag(r, s, me));
                            bad.fetch_add(wrong.count() as u64, Ordering::Relaxed);
                        }
                    });
                    eng.run()
                }))
            });
            out.took = took;
            out.ops = 1;
            out.rounds = schedule.len() as u64;
            match r {
                Err(e) => out.failures.push(format!("panic: {}", panic_message(e))),
                Ok(r) => {
                    fp.debug(&r);
                    out.virtual_s = r.end_time;
                    out.events = r.events_processed;
                    let wrong = mismatches.load(Ordering::Relaxed);
                    if let Some(f) = report_failures(&r) {
                        out.failures.push(f);
                    } else if r.completed.len() != hosts.len() || wrong != 0 {
                        out.failures.push(format!(
                            "broken invariant: {} of {} ranks completed, {wrong} wrong elements",
                            r.completed.len(),
                            hosts.len()
                        ));
                    }
                }
            }
        }
        Input::Service { cfg } => {
            let mut cfg = cfg.clone();
            cfg.obs = obs.clone();
            let n_jobs = cfg.workload.n_jobs as u64;
            let (r, took) = spans.time("service.run_service_experiment", || {
                catch_unwind(AssertUnwindSafe(|| run_service_experiment(cfg)))
            });
            out.took = took;
            out.ops = 1;
            match r {
                Err(e) => out.failures.push(format!("panic: {}", panic_message(e))),
                Ok(r) => {
                    fp.debug(&r);
                    out.virtual_s = r.report.end_time;
                    out.events = r.report.events_processed;
                    out.rounds = r.rounds;
                    out.peak_queue = r.peak_queue;
                    let t = r.totals;
                    if let Some(f) = report_failures(&r.report) {
                        out.failures.push(f);
                    } else if t.submitted != n_jobs
                        || t.admitted + t.rejected != t.submitted
                        || t.completed != t.admitted
                    {
                        out.failures.push(format!(
                            "broken invariant: submitted {} (of {n_jobs}), admitted {}, \
                             rejected {}, completed {}",
                            t.submitted, t.admitted, t.rejected, t.completed
                        ));
                    }
                }
            }
        }
    }
    out.fingerprint = fp.finish();
    out
}
