//! Dense per-epoch forecast snapshots for the scheduler's hot loop.
//!
//! [`NwsService::effective_speed`] reads a forecast the host's ensemble
//! cached when it last absorbed a measurement, but each call still pays a
//! hash lookup and a `grid` round trip. The reference decision path calls
//! it inside every sort comparator and every predictor evaluation, so one
//! scheduling pass over `H` hosts pays `O(H log H + H·K)` such lookups for
//! `K` candidate prefixes. A [`ForecastSnapshot`] pays them **once per
//! host and once per cluster pair** at capture time and then answers
//! every query from a dense array, turning the per-candidate cost into a
//! couple of loads.
//!
//! The snapshot is a pure cache: every value it serves is bit-identical
//! to what the live service would have returned at capture time, so a
//! decision computed against a snapshot equals the decision computed
//! against the service (the property/end-to-end determinism suites pin
//! this). One snapshot per decision epoch — a scheduler `map()` call or a
//! rescheduler monitor poll — is the intended granularity; the grid
//! "weather" cannot change mid-decision anyway because decisions run
//! atomically in virtual time.
//!
//! [`ForecastSource`] abstracts over the live service and a snapshot so
//! performance models (`QrCop`, [`crate::monitor::NwsService`] consumers,
//! the rescheduler's `Reschedulable` trait) can be written once and run
//! against either.

use crate::monitor::NwsService;
use grads_sim::prelude::*;

/// Read-only forecast queries shared by the live [`NwsService`] and a
/// captured [`ForecastSnapshot`]: exactly the two calls the decision path
/// makes per candidate.
pub trait ForecastSource {
    /// Effective compute rate (flop/s) a single new process would see on
    /// `host`: peak speed scaled by forecast CPU availability.
    fn effective_speed(&self, grid: &Grid, host: HostId) -> f64;
    /// Estimated time to move `bytes` from `src` to `dst`, preferring
    /// measured forecasts over the static topology.
    fn transfer_time(&self, grid: &Grid, src: HostId, dst: HostId, bytes: f64) -> f64;
}

impl ForecastSource for NwsService {
    fn effective_speed(&self, grid: &Grid, host: HostId) -> f64 {
        NwsService::effective_speed(self, grid, host)
    }
    fn transfer_time(&self, grid: &Grid, src: HostId, dst: HostId, bytes: f64) -> f64 {
        NwsService::transfer_time(self, grid, src, dst, bytes)
    }
}

/// Densely cached forecasts for one decision epoch.
///
/// Capture is `O(hosts + cluster_pairs)` cached-forecast reads; every query
/// afterwards is an array load. See the module docs for the equivalence
/// contract.
#[derive(Debug, Clone)]
pub struct ForecastSnapshot {
    /// Effective speed per host, indexed by dense `HostId`.
    speeds: Vec<f64>,
    /// Cluster count, for pair indexing.
    n_clusters: usize,
    /// Forecast bandwidth per ordered cluster pair (`None` = unmeasured).
    bandwidth: Vec<Option<f64>>,
    /// Forecast latency per ordered cluster pair (`None` = unmeasured).
    latency: Vec<Option<f64>>,
}

impl ForecastSnapshot {
    /// Capture the current forecasts for every host and cluster pair of
    /// `grid` from `nws`.
    pub fn capture(grid: &Grid, nws: &NwsService) -> Self {
        let speeds = (0..grid.hosts().len() as u32)
            .map(|i| NwsService::effective_speed(nws, grid, HostId(i)))
            .collect();
        let nc = grid.clusters().len();
        let mut bandwidth = vec![None; nc * nc];
        let mut latency = vec![None; nc * nc];
        for a in 0..nc as u32 {
            for b in a..nc as u32 {
                let i = a as usize * nc + b as usize;
                bandwidth[i] = nws.bandwidth_value(ClusterId(a), ClusterId(b));
                latency[i] = nws.latency_value(ClusterId(a), ClusterId(b));
            }
        }
        ForecastSnapshot {
            speeds,
            n_clusters: nc,
            bandwidth,
            latency,
        }
    }

    /// Full capture that also synchronizes the service's delta-tracking
    /// baseline: after this call the dirty sets are empty and a later
    /// [`ForecastSnapshot::capture_delta`] against the returned snapshot
    /// is valid. Requires [`NwsService::enable_delta_tracking`]; the
    /// captured values are exactly [`ForecastSnapshot::capture`]'s.
    pub fn capture_sync(grid: &Grid, nws: &mut NwsService) -> Self {
        assert!(
            nws.delta_tracking(),
            "capture_sync requires delta tracking (enable_delta_tracking)"
        );
        let snap = Self::capture(grid, nws);
        nws.sync_clean();
        snap
    }

    /// Incremental capture: re-derive only the series whose served
    /// forecast bits changed since `prev` was captured, reuse `prev`'s
    /// values for everything else, and re-synchronize the baseline.
    ///
    /// `prev` must be the snapshot of the *last* synchronized capture
    /// ([`ForecastSnapshot::capture_sync`] or a previous `capture_delta`)
    /// over the same grid — the dirty sets are deltas against exactly
    /// that baseline. Cost is `O(dirty)` forecast-bit lookups (the
    /// forecasts themselves were already computed at observation time)
    /// plus an `O(hosts)` memcpy, instead of `O(hosts + cluster_pairs)`
    /// hash lookups.
    ///
    /// **Bit-identity argument** (pinned by `tests/prop_delta_capture.rs`
    /// and the unit suite): a clean series' ensemble serves bitwise the
    /// same forecast it served at `prev`'s capture, so reusing `prev`'s
    /// cached value reproduces the same `speed × value` product bits a
    /// full capture would compute; a dirty series' latest bits are the
    /// bits the ensemble serves *now* (forecasting is a pure function of
    /// ensemble state, unchanged since the last observation), so the
    /// recomputed entry equals the full capture's too.
    pub fn capture_delta(grid: &Grid, nws: &mut NwsService, prev: &ForecastSnapshot) -> Self {
        let nc = grid.clusters().len();
        assert_eq!(
            prev.speeds.len(),
            grid.hosts().len(),
            "capture_delta: prev snapshot covers a different host set"
        );
        assert_eq!(
            prev.n_clusters, nc,
            "capture_delta: prev snapshot covers a different cluster set"
        );
        let mut snap = prev.clone();
        {
            let t = nws
                .delta_track()
                .expect("capture_delta requires delta tracking (enable_delta_tracking)");
            for &h in &t.dirty_hosts {
                let i = h.0 as usize;
                if i < snap.speeds.len() {
                    let value = f64::from_bits(t.cpu_latest[&h]);
                    snap.speeds[i] = grid.host(h).speed * value;
                }
            }
            let opt = |bits: u64| {
                if bits == crate::monitor::NONE_BITS {
                    None
                } else {
                    Some(f64::from_bits(bits))
                }
            };
            for &(a, b) in &t.dirty_bw {
                if a.0 as usize >= nc || b.0 as usize >= nc {
                    continue;
                }
                let i = a.0 as usize * nc + b.0 as usize;
                snap.bandwidth[i] = opt(t.bw_latest[&(a, b)]);
            }
            for &(a, b) in &t.dirty_lat {
                if a.0 as usize >= nc || b.0 as usize >= nc {
                    continue;
                }
                let i = a.0 as usize * nc + b.0 as usize;
                snap.latency[i] = opt(t.lat_latest[&(a, b)]);
            }
        }
        nws.sync_clean();
        snap
    }

    /// Effective speed of a host, without the `grid` round trip. This is
    /// the sort-comparator fast path.
    #[inline]
    pub fn speed(&self, host: HostId) -> f64 {
        self.speeds[host.0 as usize]
    }

    /// Number of hosts covered.
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// True if the snapshot covers no hosts.
    pub fn is_empty(&self) -> bool {
        self.speeds.is_empty()
    }

    #[inline]
    fn pair(&self, a: ClusterId, b: ClusterId) -> usize {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        lo.0 as usize * self.n_clusters + hi.0 as usize
    }

    /// FNV-1a hash over every captured value's bit pattern. Two snapshots
    /// have equal fingerprints iff they serve bitwise-identical forecasts
    /// (modulo hash collisions), so a decision path can assert cheaply
    /// that two of its halves read the *same* frozen weather — see the
    /// snapshot-sharing regression in `grads-apps`.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for &s in &self.speeds {
            eat(s.to_bits());
        }
        eat(self.n_clusters as u64);
        for opt in self.bandwidth.iter().chain(self.latency.iter()) {
            match opt {
                Some(v) => eat(v.to_bits()),
                None => eat(u64::MAX),
            }
        }
        h
    }
}

/// A one-shot hand-off cell that threads a single [`ForecastSnapshot`]
/// across the two halves of a rescheduling decision.
///
/// The violation handler captures the decision epoch's snapshot, decides,
/// and — when the decision is to migrate — *pins* the very snapshot it
/// decided against. The mapper that places the next incarnation then
/// [`take`](SharedSnapshot::take)s the pinned snapshot instead of
/// capturing its own, so the migrate decision and the landing choice are
/// guaranteed to read identical forecasts. Without the cell each half
/// captures separately and the two can diverge whenever new observations
/// land between the decision and the re-map.
///
/// Clones share the same cell (it is a handle), which is how a COP clone
/// held by a violation handler communicates with the clone held by the
/// application manager.
#[derive(Debug, Clone, Default)]
pub struct SharedSnapshot {
    cell: std::sync::Arc<parking_lot::Mutex<Option<std::sync::Arc<ForecastSnapshot>>>>,
}

impl SharedSnapshot {
    /// An empty cell: the first consumer will capture its own snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin `snap` for the next consumer. Replaces any earlier pin (only
    /// the most recent decision's forecasts are valid to land against).
    pub fn pin(&self, snap: std::sync::Arc<ForecastSnapshot>) {
        *self.cell.lock() = Some(snap);
    }

    /// Consume the pinned snapshot, leaving the cell empty. `None` when
    /// nothing was pinned (the consumer should capture fresh forecasts).
    pub fn take(&self) -> Option<std::sync::Arc<ForecastSnapshot>> {
        self.cell.lock().take()
    }
}

impl ForecastSource for ForecastSnapshot {
    #[inline]
    fn effective_speed(&self, _grid: &Grid, host: HostId) -> f64 {
        self.speeds[host.0 as usize]
    }

    /// Same formula as [`NwsService::transfer_time`], with the forecast
    /// lookups served from the dense cache. The static route is only
    /// consulted when a path was never measured — exactly the values the
    /// live service would fall back to.
    fn transfer_time(&self, grid: &Grid, src: HostId, dst: HostId, bytes: f64) -> f64 {
        if src == dst {
            return 0.0;
        }
        let (sc, dc) = (grid.host(src).cluster, grid.host(dst).cluster);
        let i = self.pair(sc, dc);
        let (bw_fc, lat_fc) = (self.bandwidth[i], self.latency[i]);
        let (bw, lat) = match (bw_fc, lat_fc) {
            (Some(bw), Some(lat)) => (bw, lat),
            _ => {
                // At least one fallback needed: compute the static route
                // once (the live service does this unconditionally; the
                // result is identical either way).
                let route = grid.route(src, dst);
                let static_bw = route
                    .links
                    .iter()
                    .map(|&l| grid.link(l).bandwidth)
                    .fold(f64::INFINITY, f64::min);
                (bw_fc.unwrap_or(static_bw), lat_fc.unwrap_or(route.latency))
            }
        };
        lat + bytes / bw.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn grid2() -> Grid {
        let mut b = GridBuilder::new();
        let x = b.cluster("X");
        b.local_link(x, 1e6, 0.01);
        b.add_hosts(x, 2, &HostSpec::with_speed(100.0));
        let y = b.cluster("Y");
        b.local_link(y, 1e6, 0.01);
        b.add_hosts(y, 2, &HostSpec::with_speed(200.0));
        b.connect(x, y, 0.5e6, 0.03);
        b.build().unwrap()
    }

    /// Every query a snapshot answers is bit-identical to the live
    /// service at capture time, measured paths and fallback paths alike.
    #[test]
    fn snapshot_matches_live_service_bitwise() {
        let g = grid2();
        let mut s = NwsService::new();
        for i in 0..25 {
            s.observe_cpu(HostId(0), 0.3 + 0.01 * (i % 7) as f64);
            s.observe_cpu(HostId(2), 0.9);
        }
        // Only the X→Y pair is measured; X→X falls back to topology.
        for _ in 0..20 {
            s.observe_bandwidth(ClusterId(0), ClusterId(1), 0.25e6);
            s.observe_latency(ClusterId(0), ClusterId(1), 0.1);
        }
        let snap = ForecastSnapshot::capture(&g, &s);
        assert_eq!(snap.len(), 4);
        for h in 0..4u32 {
            let live = s.effective_speed(&g, HostId(h));
            assert_eq!(live.to_bits(), snap.speed(HostId(h)).to_bits(), "host {h}");
            assert_eq!(
                live.to_bits(),
                ForecastSource::effective_speed(&snap, &g, HostId(h)).to_bits()
            );
        }
        for (src, dst) in [(0u32, 1), (0, 2), (2, 0), (1, 3), (0, 0)] {
            let (src, dst) = (HostId(src), HostId(dst));
            for bytes in [1.0, 1e5, 3e7] {
                let live = s.transfer_time(&g, src, dst, bytes);
                let cached = ForecastSource::transfer_time(&snap, &g, src, dst, bytes);
                assert_eq!(
                    live.to_bits(),
                    cached.to_bits(),
                    "{src:?}→{dst:?} {bytes} bytes: {live} vs {cached}"
                );
            }
        }
    }

    /// A snapshot is frozen: later observations move the live service but
    /// not the captured values.
    #[test]
    fn snapshot_is_immutable_under_new_observations() {
        let g = grid2();
        let mut s = NwsService::new();
        for _ in 0..10 {
            s.observe_cpu(HostId(1), 0.5);
        }
        let snap = ForecastSnapshot::capture(&g, &s);
        let before = snap.speed(HostId(1));
        for _ in 0..50 {
            s.observe_cpu(HostId(1), 0.1);
        }
        assert_eq!(before.to_bits(), snap.speed(HostId(1)).to_bits());
        assert!(s.effective_speed(&g, HostId(1)) < before);
    }

    /// Fingerprints separate distinct weather and agree on clones; the
    /// shared cell hands one snapshot from pinning half to taking half.
    #[test]
    fn fingerprint_and_shared_cell() {
        let g = grid2();
        let mut s = NwsService::new();
        for _ in 0..10 {
            s.observe_cpu(HostId(1), 0.5);
        }
        let a = ForecastSnapshot::capture(&g, &s);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        for _ in 0..50 {
            s.observe_cpu(HostId(1), 0.1);
        }
        let b = ForecastSnapshot::capture(&g, &s);
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "changed forecasts must change the fingerprint"
        );

        let cell = SharedSnapshot::new();
        assert!(cell.take().is_none());
        let shared = std::sync::Arc::new(a);
        cell.pin(shared.clone());
        let other_handle = cell.clone();
        let got = other_handle.take().expect("pinned snapshot is visible");
        assert_eq!(got.fingerprint(), shared.fingerprint());
        assert!(cell.take().is_none(), "take consumes the pin");
    }

    /// Satellite regression: `capture` fills only the upper triangle of
    /// the cluster-pair tables, so reversed-order lookups (`(b, a)` with
    /// `b > a`) must resolve to the same entry as `(a, b)` — including on
    /// a grid whose *static* routes are asymmetric in cost and whose
    /// measurements arrived in reversed order.
    #[test]
    fn reversed_pair_lookups_serve_the_upper_triangle() {
        let g = grid2();
        let mut s = NwsService::new();
        // Observe with the pair reversed relative to storage order.
        for i in 0..15 {
            s.observe_latency(ClusterId(1), ClusterId(0), 0.08 + 0.001 * (i % 3) as f64);
            s.observe_bandwidth(ClusterId(1), ClusterId(0), 0.3e6 + 1e4 * (i % 5) as f64);
        }
        let snap = ForecastSnapshot::capture(&g, &s);
        for bytes in [1.0, 2e5, 7e6] {
            let fwd = ForecastSource::transfer_time(&snap, &g, HostId(0), HostId(2), bytes);
            let rev = ForecastSource::transfer_time(&snap, &g, HostId(2), HostId(0), bytes);
            assert_eq!(fwd.to_bits(), rev.to_bits(), "{bytes} bytes");
            // And both equal the live service's symmetric answer.
            let live = s.transfer_time(&g, HostId(0), HostId(2), bytes);
            assert_eq!(live.to_bits(), fwd.to_bits());
        }
    }

    /// Delta capture: equal to a fresh full capture bitwise, dirty sets
    /// drain on capture, and a clean round reuses everything.
    #[test]
    fn capture_delta_matches_full_capture() {
        let g = grid2();
        let mut s = NwsService::new();
        s.enable_delta_tracking();
        for i in 0..12 {
            s.observe_cpu(HostId(0), 0.4 + 0.02 * (i % 5) as f64);
            s.observe_bandwidth(ClusterId(0), ClusterId(1), 0.2e6 + 1e4 * (i % 3) as f64);
        }
        assert!(!s.dirty_hosts().is_empty(), "measured hosts start dirty");
        let mut prev = ForecastSnapshot::capture_sync(&g, &mut s);
        assert!(s.dirty_hosts().is_empty(), "capture_sync drains the set");
        for round in 0..6 {
            // Touch a changing subset; host 3 never measured at all.
            s.observe_cpu(HostId(round % 3), 0.3 + 0.1 * (round % 4) as f64);
            if round % 2 == 0 {
                s.observe_latency(ClusterId(0), ClusterId(1), 0.05 + 0.01 * round as f64);
            }
            let full = ForecastSnapshot::capture(&g, &s);
            let delta = ForecastSnapshot::capture_delta(&g, &mut s, &prev);
            assert_eq!(
                full.fingerprint(),
                delta.fingerprint(),
                "round {round}: delta capture diverged from full capture"
            );
            assert!(s.dirty_hosts().is_empty());
            prev = delta;
        }
    }

    /// An observation that leaves the served forecast bit-identical must
    /// not dirty its series (the no-op observation edge case), and a
    /// changed-then-restored forecast clears the dirty flag again.
    #[test]
    fn noop_observations_keep_series_clean() {
        let g = grid2();
        let mut s = NwsService::new();
        s.enable_delta_tracking();
        // A long constant history: the winning predictor forecasts the
        // constant exactly, and keeps doing so under more of the same.
        for _ in 0..40 {
            s.observe_cpu(HostId(1), 0.5);
        }
        let prev = ForecastSnapshot::capture_sync(&g, &mut s);
        s.observe_cpu(HostId(1), 0.5);
        assert!(
            s.dirty_hosts().is_empty(),
            "constant-signal observation must not dirty the host"
        );
        let delta = ForecastSnapshot::capture_delta(&g, &mut s, &prev);
        assert_eq!(prev.fingerprint(), delta.fingerprint());
    }

    /// The unmeasured grid: snapshot serves idle speeds and static routes.
    #[test]
    fn unmeasured_snapshot_falls_back_like_the_service() {
        let g = grid2();
        let s = NwsService::new();
        let snap = ForecastSnapshot::capture(&g, &s);
        assert_eq!(snap.speed(HostId(0)), 100.0);
        assert_eq!(snap.speed(HostId(3)), 200.0);
        let live = s.transfer_time(&g, HostId(0), HostId(3), 0.5e6);
        let cached = ForecastSource::transfer_time(&snap, &g, HostId(0), HostId(3), 0.5e6);
        assert_eq!(live.to_bits(), cached.to_bits());
    }
}
