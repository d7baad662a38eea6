//! Spans the benchmark records around its own calls into the program's
//! public functions (no probe sits inside the program). Every pass and
//! probe time the benchmark reports is the length of one of these spans,
//! in wall time and in CPU time of the whole process. An enabled log also
//! keeps each span's begin/end for the `--out` report; a disabled one
//! only times.

use std::collections::BTreeMap;
use std::time::Instant;

/// The length of one span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    pub wall_s: f64,
    /// CPU seconds that all threads of the process used in the span.
    pub cpu_s: f64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, exited ones
/// included. On a guest with paravirtual steal accounting this excludes
/// the time the hypervisor gave the CPU to someone else.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    /// (name, begin s, end s) since `epoch`, in the order spans ended.
    records: Vec<(&'static str, f64, f64)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            records: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's length.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Took) {
        let cpu0 = process_cpu_s();
        let begin = self.epoch.elapsed().as_secs_f64();
        let r = f();
        let end = self.epoch.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        if self.enabled {
            self.records.push((name, begin, end));
        }
        let wall_s = end - begin;
        (r, Took { wall_s, cpu_s })
    }

    /// Per span name: the number of spans and their total seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut by_name = BTreeMap::new();
        for &(name, begin, end) in &self.records {
            let e = by_name.entry(name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += end - begin;
        }
        by_name
    }
}
