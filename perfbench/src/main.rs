//! `perfbench`: one end-to-end benchmark of the emulator's default
//! `EngineTune`/`SchedTune` path. `perfbench/README.md` records the
//! workloads, the metrics, and which layer metric should move which
//! end-to-end metric.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <path>] [--record]
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). A stamp line before it records the seed,
//! `cores_detected`, the default tunes and the result fingerprint. Any
//! fingerprint mismatch, panic, failed/unfinished/died process or broken
//! invariant counts as a failed operation and makes the exit code 1.

mod fingerprint;
mod probes;
mod spans;
mod workloads;

use grads_core::obs::{MetricsSnapshot, Obs};
use grads_core::sched::SchedTune;
use grads_core::sim::prelude::EngineTune;
use spans::Spans;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{PassOut, Workload};

const USAGE: &str = "usage: perfbench --workload <qr_migration|alltoall_collective|\
service_saturated|service_mapheavy> --seed <n> --seconds <s> --trace <0|1> \
[--out <path>] [--record]";

/// The seed later performance claims must also hold on; no tuning run
/// uses it.
const HELD_OUT_SEED: u64 = 20_041_026;
/// Set-ups before the first pass; `setup_s` is the median of these and
/// of the one before each pass.
const SETUP_REPS: usize = 9;
/// Timed passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out, mut record) = (None, false);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&val).ok_or(bad("a workload"))?),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("a number"))?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or(bad("a positive number"))?;
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out,
        record,
    })
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(o, "\\u{:04x}", c as u32).expect("string write"),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Counts every operation and every failure of a run.
struct Ledger {
    workload: &'static str,
    seed: u64,
    golden: Option<u64>,
    first: Option<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        eprintln!("perfbench: FAIL {}: {msg}", self.workload);
        self.errors.push(msg);
    }

    /// Account one pass: its own failures, then its fingerprint against
    /// the golden table and against the run's first pass.
    fn pass(&mut self, p: &PassOut) {
        self.attempted += p.ops;
        for f in &p.failures {
            self.fail(f.clone());
        }
        if !p.failures.is_empty() {
            return;
        }
        let fp = p.fingerprint;
        if let Some(g) = self.golden.filter(|&g| g != fp) {
            let s = self.seed;
            self.fail(format!(
                "seed {s}: fingerprint {fp:016x} != golden {g:016x}"
            ));
        } else if let Some(f) = self.first.filter(|&f| f != fp) {
            self.fail(format!(
                "fingerprint {fp:016x} differs from the first pass's {f:016x}"
            ));
        }
        self.first.get_or_insert(fp);
    }

    /// A self-check that is not tied to an operation of its own.
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

type Metric = (&'static str, f64, &'static str);

fn main() {
    let proc_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    // Set-up runs `SETUP_REPS` times before the first pass and once more
    // before every pass, so its samples span the same stretch of host
    // noise as the passes do; each pass runs on the latest set-up. Like
    // the passes, it is timed in CPU seconds.
    let mut setup_samples = Vec::new();
    let (mut grid_ms, mut gen_ms) = (Vec::new(), Vec::new());
    let mut set_up = || {
        let cpu0 = spans::process_cpu_s();
        let p = workloads::prepare(w, args.seed);
        setup_samples.push(spans::process_cpu_s() - cpu0);
        grid_ms.push(p.grid_build_s * 1e3);
        gen_ms.push(p.workload_gen_s * 1e3);
        p
    };
    let mut p = set_up();
    for _ in 1..SETUP_REPS {
        p = set_up();
    }

    let mut ledger = Ledger {
        workload: w.name(),
        seed: args.seed,
        golden: fingerprint::golden(w.name(), args.seed),
        first: None,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    if args.record {
        let out = workloads::run_pass(&p, &Obs::disabled(), &mut Spans::new(false));
        ledger.golden = None;
        ledger.pass(&out);
        if ledger.failed > 0 {
            std::process::exit(1);
        }
        println!("{} {} {:016x}", w.name(), args.seed, out.fingerprint);
        return;
    }

    let mut spans = Spans::new(args.trace);
    let mut plain: Vec<PassOut> = Vec::new();
    let mut traced: Vec<(PassOut, MetricsSnapshot)> = Vec::new();
    let t_measure = Instant::now();
    loop {
        let done = t_measure.elapsed().as_secs_f64() >= args.seconds;
        let enough = if args.trace {
            !plain.is_empty() && traced.len() >= 2
        } else {
            plain.len() >= MIN_PASSES
        };
        if done && enough {
            break;
        }
        // Traced runs alternate untraced and traced passes, so both see
        // the same machine conditions for `bench.trace_overhead`.
        let want_traced = args.trace && plain.len() > traced.len();
        let obs = if want_traced {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        p = set_up();
        let out = workloads::run_pass(&p, &obs, &mut spans);
        ledger.pass(&out);
        if want_traced {
            traced.push((out, obs.snapshot()));
        } else {
            plain.push(out);
        }
    }

    let setup_s = median(&mut setup_samples.clone());
    let mut metrics: Vec<Metric> = Vec::new();
    // Every pass does the same work (the fingerprint check enforces it),
    // so the spread of pass times within a run is the host's noise. The
    // rates use the median pass, in CPU seconds of the process: unlike
    // wall time, they leave out the time the hypervisor gives the CPUs to
    // other guests (README.md has the measurements).
    let untraced_wall = median(&mut plain.iter().map(|o| o.took.wall_s).collect::<Vec<_>>());
    let untraced_cpu = median(&mut plain.iter().map(|o| o.took.cpu_s).collect::<Vec<_>>());
    let work = &plain[0];
    if !args.trace {
        metrics.extend([
            ("setup_s", setup_s, "s"),
            (
                "virtual_s_per_cpu_s",
                work.virtual_s / untraced_cpu,
                "s/cpu_s",
            ),
            (
                "sim_events_per_cpu_s",
                work.events as f64 / untraced_cpu,
                "1/cpu_s",
            ),
            (
                "rounds_per_cpu_s",
                work.rounds as f64 / untraced_cpu,
                "1/cpu_s",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]);
    } else {
        // Counts must repeat exactly across traced passes. (That observing
        // does not perturb the result is already checked: the first pass
        // is untraced, and every pass must match its fingerprint.)
        let (first, snap) = &traced[0];
        let all_equal = traced.iter().all(|(o, c)| {
            c == snap
                && o.mpi_messages == first.mpi_messages
                && o.mpi_bytes.to_bits() == first.mpi_bytes.to_bits()
        });
        ledger.check(all_equal, || {
            "per-layer counts differ between traced passes".into()
        });

        let pr = probes::run(&mut p, plain[0].peak_queue, &mut spans);
        let traced_wall = median(
            &mut traced
                .iter()
                .map(|(o, _)| o.took.wall_s)
                .collect::<Vec<_>>(),
        );
        let events = counter(snap, "sim.events_applied");
        let solves = counter(snap, "sim.recompute.solves");
        let decisions = snap.histogram("svc.round.decisions");
        let decided = decisions.map_or(0.0, |h| h.sum);
        let hosts = p.grid.hosts().len() as f64;
        let round_wall = untraced_wall / first.rounds.max(1) as f64;
        metrics.extend([
            ("sim.events_applied", events, "count"),
            ("sim.recompute.solves", solves, "count"),
            ("sim.solves_per_event", ratio(solves, events), "ratio"),
            (
                "sim.stale_ratio",
                ratio(counter(snap, "sim.events_stale_discarded"), events),
                "ratio",
            ),
            ("mpi.messages", first.mpi_messages as f64, "count"),
            ("mpi.bytes", first.mpi_bytes, "B"),
            ("nws.observe_us", pr.observe_s * 1e6, "us"),
            ("nws.capture_ms", pr.capture_s * 1e3, "ms"),
            (
                "nws.round_share",
                (hosts * pr.observe_s + pr.capture_s) / round_wall,
                "ratio",
            ),
            ("sched.select_us", pr.select_s * 1e6, "us"),
            ("sched.market_clear_us", pr.market_clear_s * 1e6, "us"),
            (
                "sched.selections",
                counter(snap, "sched.selections") + first.selections as f64,
                "count",
            ),
            (
                "sched.candidate_sets",
                counter(snap, "sched.candidate_sets") + counter(snap, "reschedule.candidate_sets"),
                "count",
            ),
            (
                "svc.decisions_per_round",
                ratio(decided, decisions.map_or(0.0, |h| h.count as f64)),
                "count",
            ),
            (
                "svc.zero_decision_rounds",
                decisions.map_or(0.0, |h| h.underflow as f64),
                "count",
            ),
            ("svc.decisions_per_s", decided / untraced_wall, "1/s"),
            ("contract.polls", counter(snap, "contract.polls"), "count"),
            (
                "contract.violations",
                counter(snap, "contract.violations"),
                "count",
            ),
            ("resched.migrations", first.migrations as f64, "count"),
            ("setup.grid_build_ms", median(&mut grid_ms), "ms"),
            ("setup.workload_gen_ms", median(&mut gen_ms), "ms"),
            ("bench.trace_overhead", traced_wall / untraced_wall, "ratio"),
        ]);
    }
    for &(name, v, _) in &metrics {
        ledger.check(v.is_finite(), || {
            format!("metric {name} is not finite: {v}")
        });
    }

    let fp = ledger.first.unwrap_or(0);
    let golden = match ledger.golden {
        None => "absent",
        Some(g) if g == fp => "match",
        Some(_) => "mismatch",
    };
    let passes = plain.len() + traced.len();
    let stamp = format!(
        "{{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"trace\": {}, \"seconds\": {}, \"passes\": {passes}, \"cores_detected\": {cores}, \
         \"engine_tune\": {}, \"sched_tune\": {}, \"fingerprint\": \"{fp:016x}\", \
         \"golden\": \"{golden}\", \"pass_virtual_s\": {}, \"pass_events\": {}, \
         \"pass_rounds\": {}, \"pass_wall_median_s\": {untraced_wall}, \"pass_cpu_median_s\": {untraced_cpu}, \
         \"process_s\": {}}}",
        json_str(w.name()),
        args.seed,
        args.trace,
        args.seconds,
        json_str(&format!("{:?}", EngineTune::default())),
        json_str(&format!("{:?}", SchedTune::default())),
        work.virtual_s,
        work.events,
        work.rounds,
        proc_start.elapsed().as_secs_f64(),
    );
    let mut m = String::new();
    for (i, &(name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { v } else { 0.0 };
        write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    let correct = ledger.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        ledger.attempted, ledger.failed
    );

    if let Some(path) = &args.out {
        let list = |v: Vec<f64>| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let passes = || plain.iter().chain(traced.iter().map(|(o, _)| o));
        let walls = list(passes().map(|o| o.took.wall_s).collect());
        let cpus = list(passes().map(|o| o.took.cpu_s).collect());
        let mut report = format!(
            "{{\"stamp\": {stamp}, \"result\": {result}, \"setup_samples_s\": [{}], \
             \"pass_wall_s\": [{walls}], \"pass_cpu_s\": [{cpus}], \"spans\": [",
            list(setup_samples)
        );
        for (i, (name, (count, total_s))) in spans.totals().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                report,
                "{sep}{{\"name\": {}, \"count\": {count}, \"total_s\": {total_s}}}",
                json_str(name)
            )
            .expect("string write");
        }
        let errors: Vec<String> = ledger.errors.iter().map(|e| json_str(e)).collect();
        writeln!(report, "], \"errors\": [{}]}}", errors.join(", ")).expect("string write");
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("perfbench: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    println!("perfbench-stamp {stamp}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
