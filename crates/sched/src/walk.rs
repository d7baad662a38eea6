//! Zero-materialization candidate enumeration and the parallel
//! deterministic argmin — the scheduler's grid-scale fast path.
//!
//! The reference selector ([`crate::select_mpi_resources`]) materializes
//! every per-cluster prefix as its own `Vec<HostId>` and hands each to a
//! whole-prefix closure, so scoring a cluster of `n` hosts allocates `n`
//! vectors and visits `O(n²)` hosts — each visit re-running the NWS
//! forecast ensemble. [`CandidateWalk`] enumerates the same prefixes
//! *implicitly*: hosts are sorted once per cluster (against cached
//! speeds), then a single left-to-right pass maintains the running
//! aggregates ([`PrefixAgg`]: Σ speed, min speed, count) that an
//! incremental [`PrefixPredictor`] needs to score prefix `k` from `k−1`
//! in `O(1)`. Only the winning prefix is ever materialized.
//!
//! [`CandidateWalk::select`] shards *clusters* across worker threads
//! (work-stealing via a shared atomic counter, the `grads_bench::sweep`
//! pattern) and reduces per-cluster winners in cluster-index order under
//! the total order `(predicted, cluster, prefix length)` with first-wins
//! ties — exactly the order the reference path's serial loop applies —
//! so the argmin is bit-identical to a serial run at any worker count.
//!
//! Whole-prefix closures keep working through [`PrefixClosure`], which
//! adapts an [`MpiPredictor`] to the walk by replaying a single growing
//! prefix buffer (compatibility: correct for arbitrary closures, but
//! still `O(n²)` in closure work; write a real [`PrefixPredictor`] for
//! the `O(n)` path).

use crate::epoch::{ClusterOrder, HostBitset, SnapshotIndex};
use crate::mpi_sched::{MpiPredictor, ResourceChoice};
use crate::tune::{DecisionPath, SchedTune};
use grads_nws::{ForecastSnapshot, ForecastSource, NwsService};
use grads_perf::{PrefixAgg, PrefixPredictor};
use grads_sim::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One cluster's sorted eligible hosts with their cached effective
/// speeds — the implicit candidate family `prefix(1..=len)`.
#[derive(Debug, Clone)]
pub struct ClusterPrefixes {
    /// The cluster the hosts belong to.
    pub cluster: ClusterId,
    /// Eligible hosts, fastest-available first (forecast speed
    /// descending, host id ascending on ties — the reference order).
    pub hosts: Vec<HostId>,
    /// `hosts[i]`'s effective speed at walk-build time, aligned with
    /// `hosts`.
    pub speeds: Vec<f64>,
}

impl ClusterPrefixes {
    /// The first `take` hosts of `order` that are set in `eligible`, in
    /// index order, with their speeds. `take` must not exceed the
    /// cluster's eligible count.
    fn from_order(order: &ClusterOrder, eligible: &HostBitset, take: usize) -> Self {
        let mut hosts = Vec::with_capacity(take);
        let mut speeds = Vec::with_capacity(take);
        for (&h, &s) in order.hosts.iter().zip(&order.speeds) {
            if hosts.len() == take {
                break;
            }
            if eligible.contains(h) {
                hosts.push(h);
                speeds.push(s);
            }
        }
        debug_assert_eq!(hosts.len(), take, "eligible count out of sync with bitset");
        ClusterPrefixes {
            cluster: order.cluster,
            hosts,
            speeds,
        }
    }
}

/// Implicit enumeration of every candidate prefix, ready for incremental
/// scoring. Build once per decision epoch (typically against a
/// [`ForecastSnapshot`]) and score with [`CandidateWalk::select`].
#[derive(Debug, Clone)]
pub struct CandidateWalk {
    clusters: Vec<ClusterPrefixes>,
    min_procs: usize,
    max_procs: usize,
}

impl CandidateWalk {
    /// Enumerate candidates for `eligible` hosts: per cluster, prefixes
    /// of length `min_procs..=max_procs` of the fastest-available hosts.
    /// Forecasts are read once per host from `src`; clusters that cannot
    /// supply `min_procs` eligible hosts are dropped (they contribute no
    /// candidates in the reference enumeration either).
    ///
    /// `min_procs` must be at least 1: a zero-length prefix has no hosts
    /// to score.
    pub fn new<S: ForecastSource + ?Sized>(
        grid: &Grid,
        src: &S,
        eligible: &[HostId],
        min_procs: usize,
        max_procs: usize,
    ) -> Self {
        assert!(min_procs >= 1, "a candidate prefix needs at least one host");
        let mut is_eligible = vec![false; grid.hosts().len()];
        for h in eligible {
            if let Some(slot) = is_eligible.get_mut(h.0 as usize) {
                *slot = true;
            }
        }
        let mut clusters = Vec::new();
        if min_procs <= max_procs {
            for (ci, cluster) in grid.clusters().iter().enumerate() {
                let mut pairs: Vec<(HostId, f64)> = cluster
                    .hosts
                    .iter()
                    .copied()
                    .filter(|h| is_eligible[h.0 as usize])
                    .map(|h| (h, src.effective_speed(grid, h)))
                    .collect();
                if pairs.len() < min_procs {
                    continue;
                }
                // Same comparator as the reference sort, against the
                // cached speeds (identical values ⇒ identical order).
                pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                clusters.push(ClusterPrefixes {
                    cluster: ClusterId(ci as u32),
                    hosts: pairs.iter().map(|&(h, _)| h).collect(),
                    speeds: pairs.iter().map(|&(_, s)| s).collect(),
                });
            }
        }
        CandidateWalk {
            clusters,
            min_procs,
            max_procs,
        }
    }

    /// Enumerate candidates from a prebuilt [`SnapshotIndex`] instead of
    /// re-sorting: walk each cluster's prebuilt order, keep hosts set
    /// in `eligible`, and stop once `max_procs` of them are collected —
    /// `O(procs + skipped hosts)` per cluster instead of `O(H log H)`.
    ///
    /// `elig_counts[ci]` must be the number of eligible hosts in cluster
    /// `ci` (service drivers maintain it `O(1)` per admit/complete).
    /// Clusters with fewer than `min_procs` eligible hosts are skipped
    /// without touching their order at all — the same retention rule as
    /// [`CandidateWalk::new`].
    ///
    /// Bit-identity with the fresh walk: the index order filtered by
    /// eligibility equals filter-then-sort (the comparator is a unique
    /// total order), and truncating at `max_procs` removes only hosts
    /// [`CandidateWalk::best_in_cluster`] never reads. One contract
    /// deviation: [`PrefixPredictor::begin_cluster`] sees the truncated
    /// host list rather than the full eligible list; every in-tree
    /// predictor ([`grads_perf::TreeBcastPrefix`], `AttrPrefix`,
    /// [`PrefixClosure`]) ignores that argument, but a custom predictor
    /// that reads beyond the scored prefix would observe the difference.
    pub fn from_index(
        index: &SnapshotIndex,
        eligible: &HostBitset,
        elig_counts: &[usize],
        min_procs: usize,
        max_procs: usize,
    ) -> Self {
        assert!(min_procs >= 1, "a candidate prefix needs at least one host");
        let mut clusters = Vec::new();
        if min_procs <= max_procs {
            for (ci, order) in index.clusters().iter().enumerate() {
                let avail = elig_counts[ci];
                if avail >= min_procs {
                    clusters.push(ClusterPrefixes::from_order(
                        order,
                        eligible,
                        max_procs.min(avail),
                    ));
                }
            }
        }
        CandidateWalk {
            clusters,
            min_procs,
            max_procs,
        }
    }

    /// Score a *single* cluster of the index against `pred` and return
    /// its best `(prefix length, predicted)` — `None` when fewer than
    /// `min_procs` hosts are eligible (the retention rule). Service
    /// drivers call this per cluster and reduce the winners in
    /// cluster-index order with first-wins ties, which replays
    /// [`CandidateWalk::select`]'s argmin. Bit-identical to scoring the
    /// same cluster inside [`CandidateWalk::from_index`] (it is the same
    /// collection and the same [`CandidateWalk::best_in_cluster`]).
    pub fn score_cluster_from_index<P: PrefixPredictor>(
        index: &SnapshotIndex,
        ci: usize,
        eligible: &HostBitset,
        avail: usize,
        min_procs: usize,
        max_procs: usize,
        pred: &mut P,
    ) -> Option<(usize, f64)> {
        assert!(min_procs >= 1, "a candidate prefix needs at least one host");
        if avail < min_procs || min_procs > max_procs {
            return None;
        }
        let order = &index.clusters()[ci];
        let one = CandidateWalk {
            clusters: vec![ClusterPrefixes::from_order(
                order,
                eligible,
                max_procs.min(avail),
            )],
            min_procs,
            max_procs,
        };
        Some(one.best_in_cluster(0, pred))
    }

    /// The per-cluster prefix families, in cluster-index order.
    pub fn clusters(&self) -> &[ClusterPrefixes] {
        &self.clusters
    }

    /// Total number of candidate prefixes enumerated — what the
    /// reference `candidate_sets` would have materialized.
    pub fn n_candidates(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| self.max_procs.min(c.hosts.len()) - self.min_procs + 1)
            .sum()
    }

    /// Walk one cluster's prefixes with an incremental predictor and
    /// return its best `(prefix length, predicted)`. Ties keep the
    /// shorter prefix — the reference loop's first-wins rule, since it
    /// visits a cluster's prefixes in ascending length.
    pub fn best_in_cluster<P: PrefixPredictor>(&self, ci: usize, pred: &mut P) -> (usize, f64) {
        let c = &self.clusters[ci];
        let kmax = self.max_procs.min(c.hosts.len());
        pred.begin_cluster(c.cluster, &c.hosts);
        let (mut sum, mut min) = (0.0f64, f64::INFINITY);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..kmax {
            sum += c.speeds[i];
            min = min.min(c.speeds[i]);
            let agg = PrefixAgg {
                k: i + 1,
                host: c.hosts[i],
                speed: c.speeds[i],
                sum_speed: sum,
                min_speed: min,
            };
            pred.push(&agg);
            if agg.k >= self.min_procs {
                let t = pred.predict(&agg);
                match best {
                    Some((_, bt)) if bt <= t => {}
                    _ => best = Some((agg.k, t)),
                }
            }
        }
        best.expect("cluster retained by new() yields at least one prefix")
    }

    /// Score every candidate and return the choice with the lowest
    /// predicted time — the first such `(cluster, prefix length)` in
    /// enumeration order on ties, exactly like the reference loop.
    ///
    /// With `workers > 1`, clusters are sharded across scoped threads;
    /// `make_predictor` builds one predictor per worker. Which worker
    /// scores which cluster never affects the result: per-cluster
    /// winners are reduced in cluster-index order.
    pub fn select<P, F>(&self, make_predictor: F, workers: usize) -> Option<ResourceChoice>
    where
        P: PrefixPredictor,
        F: Fn() -> P + Sync,
    {
        let n = self.clusters.len();
        if n == 0 {
            return None;
        }
        let per_cluster: Vec<(usize, f64)> = if workers <= 1 || n <= 1 {
            let mut pred = make_predictor();
            (0..n)
                .map(|ci| self.best_in_cluster(ci, &mut pred))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut tagged: Vec<(usize, (usize, f64))> = Vec::with_capacity(n);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers.min(n))
                    .map(|_| {
                        s.spawn(|| {
                            let mut pred = make_predictor();
                            let mut local: Vec<(usize, (usize, f64))> = Vec::new();
                            loop {
                                let ci = next.fetch_add(1, Ordering::Relaxed);
                                if ci >= n {
                                    break;
                                }
                                local.push((ci, self.best_in_cluster(ci, &mut pred)));
                            }
                            local
                        })
                    })
                    .collect();
                for h in handles {
                    tagged.extend(h.join().expect("scorer worker panicked"));
                }
            });
            tagged.sort_by_key(|&(ci, _)| ci);
            tagged.into_iter().map(|(_, r)| r).collect()
        };
        let mut best: Option<(usize, usize, f64)> = None;
        for (ci, &(k, t)) in per_cluster.iter().enumerate() {
            match best {
                Some((_, _, bt)) if bt <= t => {}
                _ => best = Some((ci, k, t)),
            }
        }
        best.map(|(ci, k, predicted)| {
            let c = &self.clusters[ci];
            ResourceChoice {
                hosts: c.hosts[..k].to_vec(),
                predicted,
                cluster: c.cluster,
            }
        })
    }
}

/// Compatibility adapter: drives a whole-prefix [`MpiPredictor`] closure
/// through the walk by replaying one growing prefix buffer. The closure
/// sees exactly the host slices the reference path would have
/// materialized, so predictions are bit-identical — only the per-prefix
/// allocation is gone.
pub struct PrefixClosure<'a> {
    predict: &'a MpiPredictor<'a>,
    grid: &'a Grid,
    nws: &'a NwsService,
    prefix: Vec<HostId>,
}

impl<'a> PrefixClosure<'a> {
    /// Adapt `predict` (which reads the live `nws`) to the walk.
    pub fn new(predict: &'a MpiPredictor<'a>, grid: &'a Grid, nws: &'a NwsService) -> Self {
        PrefixClosure {
            predict,
            grid,
            nws,
            prefix: Vec::new(),
        }
    }
}

impl PrefixPredictor for PrefixClosure<'_> {
    fn begin_cluster(&mut self, _cluster: ClusterId, _hosts: &[HostId]) {
        self.prefix.clear();
    }
    fn push(&mut self, agg: &PrefixAgg) {
        self.prefix.push(agg.host);
    }
    fn predict(&self, _agg: &PrefixAgg) -> f64 {
        (self.predict)(&self.prefix, self.grid, self.nws)
    }
}

/// Select the processor set with the lowest predicted execution time via
/// the fast path: an already-captured snapshot and an incremental
/// predictor. Bit-identical to [`crate::select_mpi_resources`] run
/// against the same forecasts with the equivalent whole-prefix model.
pub fn select_mpi_resources_fast<P, F>(
    grid: &Grid,
    snap: &ForecastSnapshot,
    eligible: &[HostId],
    min_procs: usize,
    max_procs: usize,
    make_predictor: F,
    workers: usize,
) -> Option<ResourceChoice>
where
    P: PrefixPredictor,
    F: Fn() -> P + Sync,
{
    if min_procs > max_procs || max_procs == 0 {
        return None;
    }
    CandidateWalk::new(grid, snap, eligible, min_procs.max(1), max_procs)
        .select(make_predictor, workers)
}

/// [`crate::select_mpi_resources`] behind the [`SchedTune`] switch:
/// `Reference` runs the seed loop verbatim; `Fast` captures a snapshot
/// for the sort and walks the closure through [`PrefixClosure`]. The
/// returned choice is bit-identical either way.
pub fn select_mpi_resources_tuned(
    grid: &Grid,
    nws: &NwsService,
    eligible: &[HostId],
    min_procs: usize,
    max_procs: usize,
    predict: &MpiPredictor<'_>,
    tune: SchedTune,
) -> Option<ResourceChoice> {
    match tune.path {
        DecisionPath::Reference => {
            crate::select_mpi_resources(grid, nws, eligible, min_procs, max_procs, predict)
        }
        DecisionPath::Fast => {
            if min_procs > max_procs || max_procs == 0 {
                return None;
            }
            let snap = ForecastSnapshot::capture(grid, nws);
            CandidateWalk::new(grid, &snap, eligible, min_procs.max(1), max_procs)
                .select(|| PrefixClosure::new(predict, grid, nws), tune.workers)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi_sched::{candidate_sets, select_mpi_resources};
    use grads_perf::TreeBcastPrefix;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn setup() -> (Grid, NwsService) {
        let mut b = GridBuilder::new();
        let utk = b.cluster("UTK");
        b.local_link(utk, 1e8, 1e-4);
        b.add_hosts(utk, 4, &HostSpec::with_speed(933e6));
        let uiuc = b.cluster("UIUC");
        b.local_link(uiuc, 1e8, 1e-4);
        b.add_hosts(uiuc, 8, &HostSpec::with_speed(450e6));
        let ucsd = b.cluster("UCSD");
        b.local_link(ucsd, 1e8, 1e-4);
        b.add_hosts(ucsd, 6, &HostSpec::with_speed(600e6));
        b.connect(utk, uiuc, 4e6, 0.03);
        b.connect(utk, ucsd, 2e6, 0.05);
        b.connect(uiuc, ucsd, 3e6, 0.04);
        let mut nws = NwsService::new();
        for i in 0..18u32 {
            for j in 0..15 {
                nws.observe_cpu(HostId(i), 0.3 + 0.04 * ((i * 5 + j) % 13) as f64);
            }
        }
        (b.build().unwrap(), nws)
    }

    fn assert_same_choice(a: &ResourceChoice, b: &ResourceChoice) {
        assert_eq!(a.hosts, b.hosts);
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
    }

    #[test]
    fn walk_enumerates_the_reference_candidates() {
        let (grid, nws) = setup();
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        for (min_p, max_p) in [(1, 18), (2, 5), (5, 5), (7, 18)] {
            let reference = candidate_sets(&grid, &nws, &all, min_p, max_p);
            let snap = ForecastSnapshot::capture(&grid, &nws);
            let walk = CandidateWalk::new(&grid, &snap, &all, min_p, max_p);
            assert_eq!(walk.n_candidates(), reference.len(), "{min_p}..={max_p}");
            // Reconstruct the implicit enumeration and compare.
            let mut implicit = Vec::new();
            for c in walk.clusters() {
                for k in min_p..=max_p.min(c.hosts.len()) {
                    implicit.push((c.cluster, c.hosts[..k].to_vec()));
                }
            }
            assert_eq!(implicit, reference);
        }
    }

    #[test]
    fn tuned_fast_matches_reference_bitwise() {
        let (grid, nws) = setup();
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        let predict = |hosts: &[HostId], grid: &Grid, nws: &NwsService| {
            TreeBcastPrefix::reference(hosts, grid, nws, 3e12, 2.5e7)
        };
        for (min_p, max_p) in [(1, 18), (2, 6), (4, 4), (9, 18)] {
            let r = select_mpi_resources(&grid, &nws, &all, min_p, max_p, &predict);
            for workers in [1, 3, 7] {
                let f = select_mpi_resources_tuned(
                    &grid,
                    &nws,
                    &all,
                    min_p,
                    max_p,
                    &predict,
                    SchedTune::fast_parallel(workers),
                );
                match (&r, &f) {
                    (Some(r), Some(f)) => assert_same_choice(r, f),
                    (None, None) => {}
                    _ => panic!("presence mismatch at {min_p}..={max_p} w{workers}"),
                }
            }
        }
    }

    #[test]
    fn incremental_predictor_matches_closure_path_bitwise() {
        let (grid, nws) = setup();
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let (flops, bytes) = (3e12, 2.5e7);
        let closure = |hosts: &[HostId], grid: &Grid, nws: &NwsService| {
            TreeBcastPrefix::reference(hosts, grid, nws, flops, bytes)
        };
        let reference = select_mpi_resources(&grid, &nws, &all, 2, 18, &closure).unwrap();
        for workers in [1, 4] {
            let fast = select_mpi_resources_fast(
                &grid,
                &snap,
                &all,
                2,
                18,
                || TreeBcastPrefix::new(&grid, &snap, flops, bytes),
                workers,
            )
            .unwrap();
            assert_same_choice(&reference, &fast);
        }
    }

    #[test]
    fn degenerate_bounds_select_nothing() {
        let (grid, nws) = setup();
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        let predict = |hosts: &[HostId], g: &Grid, n: &NwsService| {
            TreeBcastPrefix::reference(hosts, g, n, 1e12, 1e6)
        };
        for (min_p, max_p) in [(5, 2), (30, 40), (1, 0)] {
            let r = select_mpi_resources(&grid, &nws, &all, min_p, max_p, &predict);
            let f = select_mpi_resources_tuned(
                &grid,
                &nws,
                &all,
                min_p,
                max_p,
                &predict,
                SchedTune::fast(),
            );
            assert!(r.is_none() && f.is_none(), "{min_p}..={max_p}");
        }
        // No eligible hosts at all.
        assert!(
            select_mpi_resources_tuned(&grid, &nws, &[], 1, 4, &predict, SchedTune::fast())
                .is_none()
        );
    }

    #[test]
    fn tie_break_keeps_first_cluster_and_shortest_prefix() {
        // A constant predictor makes every candidate tie: the reference
        // keeps the very first (cluster 0, k = min_procs); the fast path
        // must agree at any worker count.
        let (grid, nws) = setup();
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        let constant = |_: &[HostId], _: &Grid, _: &NwsService| 42.0;
        let r = select_mpi_resources(&grid, &nws, &all, 2, 18, &constant).unwrap();
        assert_eq!(r.cluster, ClusterId(0));
        assert_eq!(r.hosts.len(), 2);
        for workers in [1, 5] {
            let f = select_mpi_resources_tuned(
                &grid,
                &nws,
                &all,
                2,
                18,
                &constant,
                SchedTune::fast_parallel(workers),
            )
            .unwrap();
            assert_same_choice(&r, &f);
        }
    }
}
