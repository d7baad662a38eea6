//! Timed calls into the decision path's public functions at a workload's
//! own scale: NWS observation and snapshot capture, MPI resource
//! selection with the default `SchedTune`, and the commodity-market
//! clear. They run after the passes, on the set-up's grid, forecaster
//! and job shapes, and only in traced runs.

use crate::spans::Spans;
use crate::workloads::Prepared;
use grads_core::nws::{ForecastSnapshot, NwsService};
use grads_core::perf::TreeBcastPrefix;
use grads_core::sched::{
    select_mpi_resources_tuned, CommodityMarket, Consumer, Producer, SchedTune,
};
use grads_core::sim::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Median per-call cost of each probed function, in seconds.
pub struct Probes {
    pub observe_s: f64,
    pub capture_s: f64,
    pub select_s: f64,
    pub market_clear_s: f64,
}

const SAMPLES: usize = 11;
/// A sample repeats its call until at least this much time has passed.
const SAMPLE_MIN_S: f64 = 2e-3;
const MAX_SELECT_SHAPES: usize = 64;

/// Median over [`SAMPLES`] batches of the per-call time of `f`, each
/// batch timed as one span.
fn per_call(spans: &mut Spans, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let (calls, batch) = spans.time(name, || {
                let mut calls = 0u64;
                while calls == 0 || t0.elapsed().as_secs_f64() < SAMPLE_MIN_S {
                    f();
                    calls += 1;
                }
                calls
            });
            batch.wall_s / calls as f64
        })
        .collect();
    crate::median(&mut samples)
}

pub fn run(p: &mut Prepared, queue_depth: usize, spans: &mut Spans) -> Probes {
    let grid = &p.grid;
    let nws = &mut p.nws;
    let n = grid.hosts().len();

    let mut i = 0usize;
    let observe_s = per_call(spans, "nws.observe_cpu", || {
        let avail = 0.35 + 0.6 * ((i * 7919) % 1000) as f64 / 1000.0;
        nws.observe_cpu(HostId((i % n) as u32), avail);
        i += 1;
    });
    let capture_s = per_call(spans, "nws.ForecastSnapshot::capture", || {
        black_box(ForecastSnapshot::capture(grid, nws));
    });

    let step = p.shapes.len().div_ceil(MAX_SELECT_SHAPES).max(1);
    let shapes: Vec<_> = p.shapes.iter().step_by(step).copied().collect();
    let eligible: Vec<HostId> = (0..n as u32).map(HostId).collect();
    let mut k = 0usize;
    let select_s = per_call(spans, "sched.select_mpi_resources_tuned", || {
        let s = shapes[k % shapes.len()];
        let predict = move |hs: &[HostId], g: &Grid, src: &NwsService| {
            TreeBcastPrefix::reference(hs, g, src, s.flops, s.bcast_bytes)
        };
        black_box(select_mpi_resources_tuned(
            grid,
            nws,
            &eligible,
            s.min_procs,
            s.max_procs,
            &predict,
            SchedTune::default(),
        ));
        k += 1;
    });

    let slots: f64 = grid.hosts().iter().map(|h| h.cores as f64).sum();
    let producers = [Producer { capacity: slots }];
    let consumers: Vec<Consumer> = p
        .shapes
        .iter()
        .cycle()
        .take(queue_depth.max(1))
        .map(|s| Consumer {
            budget: s.budget_rate,
            max_demand: s.max_procs as f64,
        })
        .collect();
    let market_clear_s = per_call(spans, "sched.CommodityMarket::clear", || {
        black_box(CommodityMarket::default().clear(&producers, &consumers, 20, 0.05));
    });

    Probes {
        observe_s,
        capture_s,
        select_s,
        market_clear_s,
    }
}
