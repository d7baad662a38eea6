//! The per-round candidate index: the sorted per-cluster host orderings
//! that [`crate::CandidateWalk::new`] rebuilds from scratch for every
//! job, built once per decision round instead.
//!
//! [`crate::CandidateWalk::new`] pays an `O(H log H)` per-cluster sort
//! per *job* even though the [`grads_nws::ForecastSnapshot`] it sorts
//! against is frozen for the whole service round — only the *eligibility*
//! of hosts differs between jobs, never their order. A [`SnapshotIndex`]
//! sorts every cluster's full host list once under the walk comparator
//! (effective speed descending, [`HostId`] ascending). That comparator is
//! a *unique* total order (`total_cmp` equality is bitwise equality and
//! ids are unique), so the index order filtered by a job's eligibility
//! is exactly the order a filter-then-sort would produce, and everything
//! downstream stays bit-identical to the fresh walk.
//!
//! Per-job work then drops to
//! [`crate::CandidateWalk::score_cluster_from_index`] /
//! [`crate::CandidateWalk::from_index`]: walk the prebuilt order, keep
//! hosts present in the job's eligibility [`HostBitset`], and stop after
//! `max_procs` of them — `O(procs + skipped busy hosts)` instead of
//! `O(H log H)`.

use grads_nws::{ForecastSnapshot, ForecastSource};
use grads_sim::prelude::*;
use std::cmp::Ordering;

/// Dense bitset over host ids — the per-job eligibility mask handed to
/// [`crate::CandidateWalk::from_index`], maintained `O(1)` per
/// admit/complete by service drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostBitset {
    words: Vec<u64>,
}

impl HostBitset {
    /// An empty set over `n_hosts` host ids.
    pub fn new(n_hosts: usize) -> Self {
        HostBitset {
            words: vec![0; n_hosts.div_ceil(64)],
        }
    }

    /// Add `h`; returns `true` if it was absent.
    pub fn insert(&mut self, h: HostId) -> bool {
        let (w, b) = (h.0 as usize / 64, h.0 as usize % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Remove `h`; returns `true` if it was present.
    pub fn remove(&mut self, h: HostId) -> bool {
        let (w, b) = (h.0 as usize / 64, h.0 as usize % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, h: HostId) -> bool {
        let (w, b) = (h.0 as usize / 64, h.0 as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no host is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// One cluster's complete host list in walk order, with the cached
/// effective speeds the order was built against.
#[derive(Debug, Clone)]
pub struct ClusterOrder {
    /// The cluster the hosts belong to.
    pub cluster: ClusterId,
    /// Every host of the cluster, effective speed descending, host id
    /// ascending on speed ties.
    pub hosts: Vec<HostId>,
    /// `hosts[i]`'s effective speed, aligned with `hosts`.
    pub speeds: Vec<f64>,
}

/// Per-cluster host orderings under the candidate-walk comparator,
/// shared by every job mapped against one forecast snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotIndex {
    clusters: Vec<ClusterOrder>,
}

/// The walk comparator on `(speed, host)` keys: speed descending under
/// `total_cmp`, host id ascending. `total_cmp` equality implies bitwise
/// equality and host ids are unique, so the order is a unique total
/// order — the foundation of the index == fresh-sort argument.
#[inline]
fn key_cmp(a_speed: f64, a_host: HostId, b_speed: f64, b_host: HostId) -> Ordering {
    b_speed.total_cmp(&a_speed).then(a_host.cmp(&b_host))
}

impl SnapshotIndex {
    /// Sort every cluster's full host list against `snap` — once per
    /// snapshot, however many jobs are then mapped against it.
    pub fn build(grid: &Grid, snap: &ForecastSnapshot) -> Self {
        let mut clusters = Vec::with_capacity(grid.clusters().len());
        for (ci, cluster) in grid.clusters().iter().enumerate() {
            let mut pairs: Vec<(HostId, f64)> = cluster
                .hosts
                .iter()
                .map(|&h| (h, snap.effective_speed(grid, h)))
                .collect();
            pairs.sort_by(|a, b| key_cmp(a.1, a.0, b.1, b.0));
            clusters.push(ClusterOrder {
                cluster: ClusterId(ci as u32),
                hosts: pairs.iter().map(|&(h, _)| h).collect(),
                speeds: pairs.iter().map(|&(_, s)| s).collect(),
            });
        }
        SnapshotIndex { clusters }
    }

    /// The per-cluster orders, in cluster-index order.
    pub fn clusters(&self) -> &[ClusterOrder] {
        &self.clusters
    }

    /// The first `k` hosts of cluster `ci`'s order that are set in
    /// `eligible` — the host list of the prefix a
    /// `(prefix length, predicted)` cluster score refers to, materialized
    /// only for the winning cluster of a mapping decision.
    pub fn eligible_prefix(&self, ci: usize, eligible: &HostBitset, k: usize) -> Vec<HostId> {
        let order = &self.clusters[ci];
        let mut hosts = Vec::with_capacity(k);
        for &h in &order.hosts {
            if eligible.contains(h) {
                hosts.push(h);
                if hosts.len() == k {
                    break;
                }
            }
        }
        hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::CandidateWalk;
    use grads_nws::NwsService;
    use grads_perf::TreeBcastPrefix;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn setup(hosts_per_cluster: usize) -> (Grid, NwsService) {
        let mut b = GridBuilder::new();
        let mut ids = Vec::new();
        for c in 0..3 {
            let id = b.cluster(&format!("C{c}"));
            b.local_link(id, 1e8, 1e-4);
            for i in 0..hosts_per_cluster {
                b.add_host(
                    id,
                    &HostSpec::with_speed(3e8 + 1e8 * ((c * 7 + i * 3) % 5) as f64),
                );
            }
            ids.push(id);
        }
        b.connect(ids[0], ids[1], 4e6, 0.03);
        b.connect(ids[0], ids[2], 2e6, 0.05);
        b.connect(ids[1], ids[2], 3e6, 0.04);
        let mut nws = NwsService::new();
        let n = (3 * hosts_per_cluster) as u32;
        for i in 0..n {
            for j in 0..10 {
                nws.observe_cpu(HostId(i), 0.3 + 0.04 * ((i * 5 + j) % 13) as f64);
            }
        }
        (b.build().unwrap(), nws)
    }

    #[test]
    fn bitset_basics() {
        let mut s = HostBitset::new(130);
        assert!(s.is_empty());
        assert!(s.insert(HostId(0)));
        assert!(s.insert(HostId(64)));
        assert!(s.insert(HostId(129)));
        assert!(!s.insert(HostId(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(HostId(129)) && !s.contains(HostId(128)));
        assert!(s.remove(HostId(64)));
        assert!(!s.remove(HostId(64)));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(HostId(500)), "out of range is absent");
    }

    #[test]
    fn indexed_walk_matches_fresh_walk_bitwise() {
        let (grid, nws) = setup(8);
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let idx = SnapshotIndex::build(&grid, &snap);
        let n = 24u32;
        // Deterministic pseudo-random eligibility patterns.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let mut bits = HostBitset::new(n as usize);
            let mut eligible = Vec::new();
            let mut counts = vec![0usize; grid.clusters().len()];
            for h in 0..n {
                if next() % 3 != 0 {
                    bits.insert(HostId(h));
                    eligible.push(HostId(h));
                    counts[(h / 8) as usize] += 1;
                }
            }
            for (min_p, max_p) in [(1, 4), (2, 3), (3, 24), (1, 1)] {
                let fresh = CandidateWalk::new(&grid, &snap, &eligible, min_p, max_p);
                let indexed = CandidateWalk::from_index(&idx, &bits, &counts, min_p, max_p);
                let (flops, bytes) = (2e12, 1.5e7);
                let a = fresh.select(|| TreeBcastPrefix::new(&grid, &snap, flops, bytes), 1);
                let b = indexed.select(|| TreeBcastPrefix::new(&grid, &snap, flops, bytes), 1);
                match (&a, &b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.hosts, b.hosts, "trial {trial} {min_p}..={max_p}");
                        assert_eq!(a.cluster, b.cluster);
                        assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
                    }
                    (None, None) => {}
                    _ => panic!("presence mismatch, trial {trial} {min_p}..={max_p}"),
                }
            }
        }
    }

    #[test]
    fn indexed_walk_truncates_to_max_procs() {
        let (grid, nws) = setup(8);
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let idx = SnapshotIndex::build(&grid, &snap);
        let mut bits = HostBitset::new(24);
        for h in 0..24u32 {
            bits.insert(HostId(h));
        }
        let counts = vec![8usize; 3];
        let walk = CandidateWalk::from_index(&idx, &bits, &counts, 2, 3);
        for c in walk.clusters() {
            assert_eq!(c.hosts.len(), 3, "only max_procs hosts are materialized");
        }
        assert_eq!(walk.n_candidates(), 3 * 2);
    }
}
