//! The service's mapping plan: the live free-host state every job of a
//! dispatch round is mapped under, maintained `O(Δ)` instead of rebuilt
//! per job.
//!
//! Mapping a job needs two things: the hosts with at least one free
//! core, and each cluster's hosts in walk order (forecast speed
//! descending, host id ascending) under the round's frozen
//! [`ForecastSnapshot`]. Rebuilding both per job costs an `O(hosts)`
//! scan of `free_cores` plus an `O(hosts log hosts)` per-cluster sort,
//! although at most `procs` hosts change occupancy per admission and the
//! snapshot never changes within a round. So the service keeps:
//!
//! * one [`SnapshotIndex`] per round, sorted once from the round's
//!   snapshot at its first mapping decision (rounds that decide nothing
//!   build nothing);
//! * this [`MappingPlan`]: a free-host [`HostBitset`] plus per-cluster
//!   eligible counts and a grid-wide free-host count, updated only on the
//!   `0 ↔ 1` free-core transitions of admit/retire (a host going from 2
//!   free cores to 1 is still eligible — no update).
//!
//! [`MappingPlan::map`] scores every cluster through
//! [`CandidateWalk::score_cluster_from_index`] and reduces the winners in
//! cluster-index order with first-wins ties. Bit-identity with the fresh
//! walk ([`grads_sched::select_mpi_resources_fast`]): the walk comparator
//! is a unique total order, so the index order filtered by the bitset is
//! the fresh walk's filter-then-sort order; the per-cluster scoring is
//! the same [`CandidateWalk::best_in_cluster`]; and the reduction is the
//! walk's argmin. The unit tests below and the service determinism suite
//! pin the equality.

use grads_nws::ForecastSnapshot;
use grads_perf::TreeBcastPrefix;
use grads_sched::{CandidateWalk, HostBitset, ResourceChoice, SnapshotIndex};
use grads_sim::prelude::*;

use crate::workload::Job;

/// Live free-host state for one service run. See the module docs for
/// the update rule and the identity argument.
pub struct MappingPlan {
    /// Hosts with at least one free core.
    free: HostBitset,
    /// Free (eligible) host count per cluster, aligned with cluster ids.
    elig_count: Vec<usize>,
    /// Host id → cluster index.
    cluster_of: Vec<u32>,
    /// Grid-wide free-host count.
    free_hosts: usize,
}

impl MappingPlan {
    /// Derive the initial free state from the live `free_cores` table.
    pub fn new(grid: &Grid, free_cores: &[u32]) -> Self {
        let n_hosts = grid.hosts().len();
        let mut free = HostBitset::new(n_hosts);
        let mut elig_count = vec![0usize; grid.clusters().len()];
        let mut cluster_of = vec![0u32; n_hosts];
        let mut free_hosts = 0usize;
        for (ci, cluster) in grid.clusters().iter().enumerate() {
            for &h in &cluster.hosts {
                cluster_of[h.0 as usize] = ci as u32;
                if free_cores[h.0 as usize] > 0 {
                    free.insert(h);
                    elig_count[ci] += 1;
                    free_hosts += 1;
                }
            }
        }
        MappingPlan {
            free,
            elig_count,
            cluster_of,
            free_hosts,
        }
    }

    /// Number of hosts with at least one free core.
    pub fn free_host_count(&self) -> usize {
        self.free_hosts
    }

    /// The hosts with at least one free core, ascending — the eligible
    /// list the reference decision path takes.
    pub fn free_hosts(&self) -> Vec<HostId> {
        (0..self.cluster_of.len() as u32)
            .map(HostId)
            .filter(|&h| self.free.contains(h))
            .collect()
    }

    /// Record a host crossing the eligibility boundary: `free = false`
    /// when its last free core was taken (admit), `true` when a core
    /// freed up on a fully-busy host (retire). Calls for non-boundary
    /// core transitions must be omitted by the driver.
    pub fn set_host_free(&mut self, h: HostId, free: bool) {
        let changed = if free {
            self.free.insert(h)
        } else {
            self.free.remove(h)
        };
        debug_assert!(changed, "set_host_free called off the 0↔1 boundary");
        let ci = self.cluster_of[h.0 as usize] as usize;
        if free {
            self.elig_count[ci] += 1;
            self.free_hosts += 1;
        } else {
            self.elig_count[ci] -= 1;
            self.free_hosts -= 1;
        }
    }

    /// Map `job` onto exactly `job.procs` free hosts: per cluster, score
    /// the free prefix of `index`'s order, then reduce in cluster-index
    /// order with first-wins ties — the candidate walk's exact argmin.
    /// `index` must have been built from `snap`.
    pub fn map(
        &self,
        job: &Job,
        index: &SnapshotIndex,
        grid: &Grid,
        snap: &ForecastSnapshot,
    ) -> Option<ResourceChoice> {
        let mut pred = TreeBcastPrefix::new(grid, snap, job.flops, job.bcast_bytes);
        let mut best: Option<(usize, usize, f64)> = None;
        for (ci, &avail) in self.elig_count.iter().enumerate() {
            let scored = CandidateWalk::score_cluster_from_index(
                index, ci, &self.free, avail, job.procs, job.procs, &mut pred,
            );
            if let Some((k, t)) = scored {
                match best {
                    Some((_, _, bt)) if bt <= t => {}
                    _ => best = Some((ci, k, t)),
                }
            }
        }
        best.map(|(ci, k, predicted)| ResourceChoice {
            hosts: index.eligible_prefix(ci, &self.free, k),
            predicted,
            cluster: ClusterId(ci as u32),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::service_grid;
    use grads_nws::NwsService;
    use grads_sched::select_mpi_resources_fast;

    /// Deterministic xorshift stream for the churn schedule.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn job(procs: usize, flops: f64, bytes: f64) -> Job {
        Job {
            id: 0,
            tenant: 0,
            kind: crate::workload::AppKind::Qr,
            procs,
            flops,
            bcast_bytes: bytes,
            submit_s: 0.0,
            deadline_s: 1e9,
            budget: 1e9,
            runtime_skew: 1.0,
        }
    }

    /// The memo-free plan on a freshly built index equals the library's
    /// fresh walk bit for bit, through randomized admit/retire churn,
    /// varied job shapes, and weather that moves between rounds. With
    /// `observe = false` the NWS stays empty, so every host runs at its
    /// cluster's base speed: ties within every cluster (and between
    /// clusters 0 and 7) exercise the host-id tie rule and the
    /// first-wins cluster reduction.
    fn churn_matches_fresh_walk(seed: u64, hosts: usize, clusters: usize, observe: bool) {
        let grid = service_grid(hosts, clusters, 2);
        let mut rng = Rng(seed);
        let mut nws = NwsService::new();
        let mut free_cores: Vec<u32> = grid.hosts().iter().map(|h| h.cores).collect();
        let mut plan = MappingPlan::new(&grid, &free_cores);
        let mut running: Vec<Vec<HostId>> = Vec::new();
        let (mut mapped, mut unplaced) = (0, 0);
        for round in 0..24u64 {
            if observe {
                for i in 0..hosts as u32 {
                    let free = free_cores[i as usize] as f64 / 2.0;
                    let jitter = rng.below(1000) as f64 / 1000.0;
                    nws.observe_cpu(HostId(i), (0.35 + 0.6 * free) * (0.7 + 0.3 * jitter));
                }
            }
            let snap = ForecastSnapshot::capture(&grid, &nws);
            let index = SnapshotIndex::build(&grid, &snap);
            for step in 0..12 {
                if !running.is_empty() && rng.below(3) == 0 {
                    let hosts = running.swap_remove(rng.below(running.len() as u64) as usize);
                    for h in hosts {
                        free_cores[h.0 as usize] += 1;
                        if free_cores[h.0 as usize] == 1 {
                            plan.set_host_free(h, true);
                        }
                    }
                    continue;
                }
                let j = job(
                    1 + rng.below(hosts as u64 / clusters as u64 + 2) as usize,
                    [1e11, 2e12, 8e12][rng.below(3) as usize],
                    [0.0, 1e6, 1.5e7][rng.below(3) as usize],
                );
                let eligible: Vec<HostId> = (0..hosts as u32)
                    .map(HostId)
                    .filter(|h| free_cores[h.0 as usize] > 0)
                    .collect();
                assert_eq!(plan.free_hosts(), eligible);
                assert_eq!(plan.free_host_count(), eligible.len());
                let fresh = select_mpi_resources_fast(
                    &grid,
                    &snap,
                    &eligible,
                    j.procs,
                    j.procs,
                    || TreeBcastPrefix::new(&grid, &snap, j.flops, j.bcast_bytes),
                    1,
                );
                let got = plan.map(&j, &index, &grid, &snap);
                let at = format!("seed {seed} round {round} step {step} procs {}", j.procs);
                match (&fresh, &got) {
                    (Some(f), Some(g)) => {
                        assert_eq!(f.hosts, g.hosts, "{at}");
                        assert_eq!(f.cluster, g.cluster, "{at}");
                        assert_eq!(f.predicted.to_bits(), g.predicted.to_bits(), "{at}");
                    }
                    (None, None) => {}
                    _ => panic!("presence mismatch at {at}"),
                }
                let Some(c) = got else {
                    unplaced += 1;
                    continue;
                };
                mapped += 1;
                for &h in &c.hosts {
                    free_cores[h.0 as usize] -= 1;
                    if free_cores[h.0 as usize] == 0 {
                        plan.set_host_free(h, false);
                    }
                }
                running.push(c.hosts);
            }
        }
        assert!(
            mapped > 20,
            "seed {seed}: the schedule places jobs ({mapped})"
        );
        assert!(unplaced > 0, "seed {seed}: the grid fills up at times");
    }

    #[test]
    fn plan_map_matches_fresh_walk_through_occupancy_churn() {
        for seed in [0x9e3779b97f4a7c15, 7, 1 << 40, 0xdead_beef] {
            churn_matches_fresh_walk(seed, 48, 4, true);
            churn_matches_fresh_walk(seed, 32, 8, false);
        }
    }
}
