//! Grid-level weather service: per-host CPU availability and per-site-pair
//! network forecasts, fed by sensors and queried by the scheduler
//! (`dcost`), the rescheduler (remaining-time estimates) and the contract
//! monitor.
//!
//! The service itself is passive storage + forecasting; *sensor* processes
//! running inside the emulation (see [`cpu_probe`]) produce the
//! measurements, exactly as NWS sensor daemons did on the GrADS testbeds.

use crate::ensemble::{Ensemble, Forecast};
use grads_sim::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The bit pattern a snapshot serves for an unmeasured CPU series: an
/// unmeasured host is assumed idle (`forecast_cpu_or_idle` → `1.0`).
pub(crate) const IDLE_BITS: u64 = 0x3FF0_0000_0000_0000; // 1.0f64.to_bits()

/// Sentinel for "no forecast" on a network series, where `None` is a
/// distinct observable state (it routes queries to the static topology).
pub(crate) const NONE_BITS: u64 = u64::MAX;

/// Orders a cluster pair so (a,b) and (b,a) share one series.
fn pair(a: ClusterId, b: ClusterId) -> (ClusterId, ClusterId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Per-series change tracking for delta snapshot capture.
///
/// `*_latest` holds the bit pattern of the forecast each series would
/// serve *right now* (refreshed on every observation while tracking is
/// on); `*_clean` holds the bits the last synchronized snapshot capture
/// served. A series is **dirty** iff latest ≠ clean — and because the
/// comparison is bitwise on the served forecast, an observation whose
/// ensemble output lands back on the clean bits *removes* the series
/// from the dirty set again. Never-captured series compare against the
/// sentinel the snapshot serves for them ([`IDLE_BITS`] / [`NONE_BITS`]).
#[derive(Default)]
pub(crate) struct DeltaTrack {
    pub(crate) cpu_latest: HashMap<HostId, u64>,
    cpu_clean: HashMap<HostId, u64>,
    pub(crate) bw_latest: HashMap<(ClusterId, ClusterId), u64>,
    bw_clean: HashMap<(ClusterId, ClusterId), u64>,
    pub(crate) lat_latest: HashMap<(ClusterId, ClusterId), u64>,
    lat_clean: HashMap<(ClusterId, ClusterId), u64>,
    pub(crate) dirty_hosts: BTreeSet<HostId>,
    pub(crate) dirty_bw: BTreeSet<(ClusterId, ClusterId)>,
    pub(crate) dirty_lat: BTreeSet<(ClusterId, ClusterId)>,
}

impl DeltaTrack {
    /// Record the latest served bits for one series and flip its dirty
    /// membership against the clean baseline `default` (the sentinel an
    /// uncaptured series serves).
    fn note<K: Ord + std::hash::Hash + Copy>(
        latest: &mut HashMap<K, u64>,
        clean: &HashMap<K, u64>,
        dirty: &mut BTreeSet<K>,
        key: K,
        bits: u64,
        default: u64,
    ) {
        latest.insert(key, bits);
        if bits == clean.get(&key).copied().unwrap_or(default) {
            dirty.remove(&key);
        } else {
            dirty.insert(key);
        }
    }

    /// Mark everything clean: the snapshot just captured serves exactly
    /// the latest bits.
    fn sync(&mut self) {
        self.cpu_clean = self.cpu_latest.clone();
        self.bw_clean = self.bw_latest.clone();
        self.lat_clean = self.lat_latest.clone();
        self.dirty_hosts.clear();
        self.dirty_bw.clear();
        self.dirty_lat.clear();
    }
}

/// The weather service: stores measurement streams and serves forecasts.
///
/// Each series' [`Ensemble`] is boxed so the hash tables hold
/// pointer-sized values: an inline battery (about 1.4 KB of windows)
/// would be copied on every rehash, and the tables' spare capacity would
/// be held at full size.
#[derive(Default)]
pub struct NwsService {
    cpu: HashMap<HostId, Box<Ensemble>>,
    bandwidth: HashMap<(ClusterId, ClusterId), Box<Ensemble>>,
    latency: HashMap<(ClusterId, ClusterId), Box<Ensemble>>,
    heartbeat: HashMap<HostId, f64>,
    /// Delta-capture tracking; `None` (the default) keeps every
    /// observation on the exact seed code path with zero overhead.
    track: Option<DeltaTrack>,
}

impl NwsService {
    /// Empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a CPU availability measurement for a host (fraction of one
    /// core's peak rate a new process would obtain), clamped to `[0, 1]`.
    /// A non-finite measurement (NaN, ±∞) is ignored: it would poison the
    /// running mean and every later forecast of the host.
    pub fn observe_cpu(&mut self, host: HostId, availability: f64) {
        if !availability.is_finite() {
            return;
        }
        let e = self.cpu.entry(host).or_default();
        e.update(availability.clamp(0.0, 1.0));
        if let Some(t) = &mut self.track {
            let bits = e.forecast_value().expect("just updated").to_bits();
            DeltaTrack::note(
                &mut t.cpu_latest,
                &t.cpu_clean,
                &mut t.dirty_hosts,
                host,
                bits,
                IDLE_BITS,
            );
        }
    }

    /// Record an achieved end-to-end bandwidth (bytes/s) between two
    /// sites; negative values count as 0. A non-finite measurement is
    /// ignored.
    pub fn observe_bandwidth(&mut self, a: ClusterId, b: ClusterId, bytes_per_s: f64) {
        if !bytes_per_s.is_finite() {
            return;
        }
        let p = pair(a, b);
        let e = self.bandwidth.entry(p).or_default();
        e.update(bytes_per_s.max(0.0));
        if let Some(t) = &mut self.track {
            let bits = e.forecast_value().expect("just updated").to_bits();
            DeltaTrack::note(
                &mut t.bw_latest,
                &t.bw_clean,
                &mut t.dirty_bw,
                p,
                bits,
                NONE_BITS,
            );
        }
    }

    /// Record a measured one-way latency (seconds) between two sites;
    /// negative values count as 0. A non-finite measurement is ignored.
    pub fn observe_latency(&mut self, a: ClusterId, b: ClusterId, seconds: f64) {
        if !seconds.is_finite() {
            return;
        }
        let p = pair(a, b);
        let e = self.latency.entry(p).or_default();
        e.update(seconds.max(0.0));
        if let Some(t) = &mut self.track {
            let bits = e.forecast_value().expect("just updated").to_bits();
            DeltaTrack::note(
                &mut t.lat_latest,
                &t.lat_clean,
                &mut t.dirty_lat,
                p,
                bits,
                NONE_BITS,
            );
        }
    }

    /// Turn on delta-capture tracking: from here on every observation
    /// maintains a dirty set of series whose *served forecast bits*
    /// changed since the last synchronized snapshot capture
    /// (`ForecastSnapshot::capture_sync` / `capture_delta` in this
    /// crate). Tracking is off by default — the seed observation path is
    /// untouched — and turning it on never changes a forecast, only what
    /// bookkeeping an observation does. Idempotent; already-measured
    /// series enter the dirty set (nothing has been captured yet).
    pub fn enable_delta_tracking(&mut self) {
        if self.track.is_some() {
            return;
        }
        let mut t = DeltaTrack::default();
        for (&h, e) in &self.cpu {
            if let Some(v) = e.forecast_value() {
                DeltaTrack::note(
                    &mut t.cpu_latest,
                    &t.cpu_clean,
                    &mut t.dirty_hosts,
                    h,
                    v.to_bits(),
                    IDLE_BITS,
                );
            }
        }
        for (&p, e) in &self.bandwidth {
            if let Some(v) = e.forecast_value() {
                DeltaTrack::note(
                    &mut t.bw_latest,
                    &t.bw_clean,
                    &mut t.dirty_bw,
                    p,
                    v.to_bits(),
                    NONE_BITS,
                );
            }
        }
        for (&p, e) in &self.latency {
            if let Some(v) = e.forecast_value() {
                DeltaTrack::note(
                    &mut t.lat_latest,
                    &t.lat_clean,
                    &mut t.dirty_lat,
                    p,
                    v.to_bits(),
                    NONE_BITS,
                );
            }
        }
        self.track = Some(t);
    }

    /// Whether delta-capture tracking is on.
    pub fn delta_tracking(&self) -> bool {
        self.track.is_some()
    }

    /// Hosts whose served CPU forecast bits differ from the last
    /// synchronized capture, ascending. Empty when tracking is off.
    pub fn dirty_hosts(&self) -> Vec<HostId> {
        match &self.track {
            Some(t) => t.dirty_hosts.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// True when any bandwidth/latency pair's served forecast bits differ
    /// from the last synchronized capture. Coarser than per-pair dirt on
    /// purpose: network forecasts feed cross-cluster transfer estimates,
    /// so epoch drivers conservatively invalidate every cached cluster
    /// score when this trips. `false` when tracking is off.
    pub fn has_dirty_network(&self) -> bool {
        self.track
            .as_ref()
            .is_some_and(|t| !t.dirty_bw.is_empty() || !t.dirty_lat.is_empty())
    }

    /// Read-only view of the tracking state for the snapshot module.
    pub(crate) fn delta_track(&self) -> Option<&DeltaTrack> {
        self.track.as_ref()
    }

    /// Mark every tracked series clean — called by the snapshot module
    /// right after a capture that serves the latest bits.
    pub(crate) fn sync_clean(&mut self) {
        self.track
            .as_mut()
            .expect("sync_clean requires delta tracking")
            .sync();
    }

    /// Record a sensor heartbeat: the sensor on `host` was alive at
    /// virtual time `t`. Stale heartbeats are how the GrADS machinery
    /// suspects host failures (§5 fault-tolerance direction).
    pub fn note_heartbeat(&mut self, host: HostId, t: f64) {
        let e = self.heartbeat.entry(host).or_insert(t);
        *e = e.max(t);
    }

    /// Last heartbeat time of a host's sensor, if any.
    pub fn last_heartbeat(&self, host: HostId) -> Option<f64> {
        self.heartbeat.get(&host).copied()
    }

    /// Hosts whose sensors have reported within `max_age` of `now`,
    /// ascending. A host that has never sent a heartbeat is never live:
    /// no heartbeat, no proof of liveness.
    pub fn live_hosts(&self, now: f64, max_age: f64) -> Vec<HostId> {
        let mut hs: Vec<HostId> = self
            .heartbeat
            .iter()
            .filter(|(_, &t)| now - t <= max_age)
            .map(|(&h, _)| h)
            .collect();
        hs.sort();
        hs
    }

    /// Forecast CPU availability for a host; `None` if never measured.
    pub fn forecast_cpu(&self, host: HostId) -> Option<Forecast> {
        self.cpu.get(&host).and_then(|e| e.forecast())
    }

    /// Forecast CPU availability, assuming an unmeasured host is idle.
    pub fn forecast_cpu_or_idle(&self, host: HostId) -> f64 {
        self.cpu
            .get(&host)
            .and_then(|e| e.forecast_value())
            .unwrap_or(1.0)
    }

    /// Forecast bandwidth between two sites; `None` if never measured.
    pub fn forecast_bandwidth(&self, a: ClusterId, b: ClusterId) -> Option<Forecast> {
        self.bandwidth.get(&pair(a, b)).and_then(|e| e.forecast())
    }

    /// Forecast latency between two sites; `None` if never measured.
    pub fn forecast_latency(&self, a: ClusterId, b: ClusterId) -> Option<Forecast> {
        self.latency.get(&pair(a, b)).and_then(|e| e.forecast())
    }

    /// [`NwsService::forecast_bandwidth`]'s value alone.
    pub(crate) fn bandwidth_value(&self, a: ClusterId, b: ClusterId) -> Option<f64> {
        self.bandwidth
            .get(&pair(a, b))
            .and_then(|e| e.forecast_value())
    }

    /// [`NwsService::forecast_latency`]'s value alone.
    pub(crate) fn latency_value(&self, a: ClusterId, b: ClusterId) -> Option<f64> {
        self.latency
            .get(&pair(a, b))
            .and_then(|e| e.forecast_value())
    }

    /// Effective compute rate (flop/s) a single new process would see on a
    /// host right now: peak speed scaled by forecast availability.
    pub fn effective_speed(&self, grid: &Grid, host: HostId) -> f64 {
        grid.host(host).speed * self.forecast_cpu_or_idle(host)
    }

    /// Estimate the time to move `bytes` from `src` to `dst`, preferring
    /// measured forecasts and falling back to the static topology when a
    /// path has never been measured.
    ///
    /// This is the `dcost` building block of the workflow scheduler's rank
    /// function (§3.1): *"NWS is used to obtain an estimate of the current
    /// network latency and bandwidth."*
    pub fn transfer_time(&self, grid: &Grid, src: HostId, dst: HostId, bytes: f64) -> f64 {
        if src == dst {
            return 0.0;
        }
        let (sc, dc) = (grid.host(src).cluster, grid.host(dst).cluster);
        let route = grid.route(src, dst);
        let static_bw = route
            .links
            .iter()
            .map(|&l| grid.link(l).bandwidth)
            .fold(f64::INFINITY, f64::min);
        let bw = self.bandwidth_value(sc, dc).unwrap_or(static_bw).max(1.0);
        let lat = self.latency_value(sc, dc).unwrap_or(route.latency);
        lat + bytes / bw
    }
}

/// Availability a single new process would see on a host with `cores` cores
/// and `load` units of competing external load (the analytical form of what
/// [`cpu_probe`] measures empirically).
pub fn availability_from_load(cores: u32, load: f64) -> f64 {
    let claimants = 1.0 + load;
    ((cores as f64) / claimants).min(1.0)
}

/// Correct a probe-measured availability for the observer's own presence
/// when one *application* process is already running on the host.
///
/// A probe on a host with `k` claimants (the probe itself, one app rank,
/// and external load) measures `cores / k`; the availability the app rank
/// alone enjoys is `cores / (k - 1)`. Without this correction a busy-but-
/// unloaded host looks half as fast as an idle one and swap reschedulers
/// thrash, endlessly preferring whichever host they are not using.
pub fn app_availability_from_probe(cores: u32, probe_avail: f64) -> f64 {
    let c = cores as f64;
    let p = probe_avail.clamp(1e-6, 1.0);
    let claimants = c / p; // includes the probe
    let without_probe = (claimants - 1.0).max(1.0);
    (c / without_probe).clamp(p, 1.0)
}

/// Run a periodic CPU sensor daemon inside the emulation: every `period`
/// virtual seconds, probe this host's availability and record it into the
/// shared weather service. Runs until `done()` turns true. This is the
/// emulation analog of an NWS CPU sensor process.
pub fn run_cpu_sensor(
    ctx: &mut Ctx,
    nws: &std::sync::Arc<parking_lot::Mutex<NwsService>>,
    peak_speed: f64,
    probe_flops: f64,
    period: f64,
    done: &(dyn Fn() -> bool + Send + Sync),
) {
    let host = ctx.host();
    while !done() {
        let a = cpu_probe(ctx, peak_speed, probe_flops);
        let t = ctx.now();
        let mut n = nws.lock();
        n.observe_cpu(host, a);
        n.note_heartbeat(host, t);
        drop(n);
        ctx.sleep(period);
    }
}

/// One network probe pair against `peer`: a tiny transfer measures the
/// path latency, a bulk transfer measures achieved bandwidth. Returns
/// `(latency_s, bandwidth_bytes_per_s)`.
pub fn net_probe(ctx: &mut Ctx, peer: HostId, bulk_bytes: f64) -> (f64, f64) {
    let t0 = ctx.now();
    ctx.transfer(peer, 1.0);
    let lat = (ctx.now() - t0).max(0.0);
    let t1 = ctx.now();
    ctx.transfer(peer, bulk_bytes);
    let dt = ctx.now() - t1;
    let bw = if dt > lat {
        bulk_bytes / (dt - lat)
    } else {
        bulk_bytes / dt.max(1e-9)
    };
    (lat, bw)
}

/// Run a periodic network sensor between this host's site and `peer`'s:
/// every `period` virtual seconds, probe and record latency + bandwidth
/// for the `(my_cluster, peer_cluster)` pair. The NWS ran exactly such
/// sensor pairs between sites.
#[allow(clippy::too_many_arguments)]
pub fn run_net_sensor(
    ctx: &mut Ctx,
    nws: &std::sync::Arc<parking_lot::Mutex<NwsService>>,
    my_cluster: ClusterId,
    peer: HostId,
    peer_cluster: ClusterId,
    bulk_bytes: f64,
    period: f64,
    done: &(dyn Fn() -> bool + Send + Sync),
) {
    while !done() {
        let (lat, bw) = net_probe(ctx, peer, bulk_bytes);
        let mut n = nws.lock();
        n.observe_latency(my_cluster, peer_cluster, lat);
        n.observe_bandwidth(my_cluster, peer_cluster, bw);
        drop(n);
        ctx.sleep(period);
    }
}

/// Run one CPU sensor probe inside the emulation: execute a small compute
/// burst, time it in virtual time, and return the measured availability
/// (achieved rate over peak rate). `peak_speed` is the host's nominal
/// per-core flop rate; `probe_flops` trades probe cost against resolution.
pub fn cpu_probe(ctx: &mut Ctx, peak_speed: f64, probe_flops: f64) -> f64 {
    let t0 = ctx.now();
    ctx.compute(probe_flops);
    let dt = ctx.now() - t0;
    if dt <= 0.0 {
        return 1.0;
    }
    (probe_flops / dt / peak_speed).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::{GridBuilder, HostSpec};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn grid2() -> Grid {
        let mut b = GridBuilder::new();
        let x = b.cluster("X");
        b.local_link(x, 1e6, 0.01);
        b.add_hosts(x, 1, &HostSpec::with_speed(100.0));
        let y = b.cluster("Y");
        b.local_link(y, 1e6, 0.01);
        b.add_hosts(y, 1, &HostSpec::with_speed(100.0));
        b.connect(x, y, 0.5e6, 0.03);
        b.build().unwrap()
    }

    #[test]
    fn transfer_time_falls_back_to_topology() {
        let g = grid2();
        let s = NwsService::new();
        let t = s.transfer_time(&g, HostId(0), HostId(1), 0.5e6);
        // bottleneck 0.5 MB/s, latency 0.01+0.03+0.01.
        assert!((t - (0.05 + 1.0)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn transfer_time_prefers_measurements() {
        let g = grid2();
        let mut s = NwsService::new();
        for _ in 0..20 {
            s.observe_bandwidth(ClusterId(0), ClusterId(1), 0.25e6);
            s.observe_latency(ClusterId(0), ClusterId(1), 0.1);
        }
        let t = s.transfer_time(&g, HostId(0), HostId(1), 0.5e6);
        assert!((t - (0.1 + 2.0)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn same_host_transfer_is_free() {
        let g = grid2();
        let s = NwsService::new();
        assert_eq!(s.transfer_time(&g, HostId(0), HostId(0), 1e9), 0.0);
    }

    #[test]
    fn unmeasured_host_assumed_idle() {
        let g = grid2();
        let s = NwsService::new();
        assert_eq!(s.effective_speed(&g, HostId(0)), 100.0);
    }

    #[test]
    fn cpu_observations_flow_into_effective_speed() {
        let g = grid2();
        let mut s = NwsService::new();
        for _ in 0..30 {
            s.observe_cpu(HostId(0), 0.5);
        }
        assert!((s.effective_speed(&g, HostId(0)) - 50.0).abs() < 1e-9);
    }

    /// Non-finite measurements never enter a series: the forecast bits
    /// and the delta-tracking dirty sets stay exactly as they were, and an
    /// unmeasured series stays unmeasured.
    #[test]
    fn non_finite_observations_are_ignored() {
        let (x, y) = (ClusterId(0), ClusterId(1));
        let mut s = NwsService::new();
        s.enable_delta_tracking();
        for i in 0..30 {
            s.observe_cpu(HostId(0), 0.4 + 0.01 * (i % 4) as f64);
            s.observe_bandwidth(x, y, 2e5 + 1e3 * (i % 3) as f64);
            s.observe_latency(x, y, 0.02 + 0.001 * (i % 5) as f64);
        }
        let g = grid2();
        let _ = crate::ForecastSnapshot::capture_sync(&g, &mut s);
        s.observe_cpu(HostId(0), 0.9);
        let bits = |s: &NwsService| {
            (
                s.forecast_cpu(HostId(0)).unwrap().value.to_bits(),
                s.forecast_bandwidth(x, y).unwrap().value.to_bits(),
                s.forecast_latency(x, y).unwrap().value.to_bits(),
            )
        };
        let before = bits(&s);
        let dirty_before = (s.dirty_hosts(), s.has_dirty_network());
        assert_eq!(dirty_before, (vec![HostId(0)], false));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            s.observe_cpu(HostId(0), bad);
            s.observe_cpu(HostId(1), bad);
            s.observe_bandwidth(x, y, bad);
            s.observe_latency(y, x, bad);
            assert_eq!(bits(&s), before, "{bad} moved a forecast");
            assert_eq!((s.dirty_hosts(), s.has_dirty_network()), dirty_before);
            assert!(
                s.forecast_cpu(HostId(1)).is_none(),
                "{bad} created a series"
            );
        }
    }

    #[test]
    fn availability_formula() {
        assert_eq!(availability_from_load(1, 0.0), 1.0);
        assert_eq!(availability_from_load(1, 1.0), 0.5);
        assert_eq!(availability_from_load(2, 1.0), 1.0);
        assert_eq!(availability_from_load(2, 3.0), 0.5);
    }

    #[test]
    fn pair_is_symmetric() {
        let mut s = NwsService::new();
        s.observe_latency(ClusterId(1), ClusterId(0), 0.5);
        assert!(s.forecast_latency(ClusterId(0), ClusterId(1)).is_some());
    }

    #[test]
    fn net_sensor_measures_wan_path() {
        let g = grid2();
        let mut eng = Engine::new(g.clone());
        let nws = Arc::new(Mutex::new(NwsService::new()));
        let nws2 = nws.clone();
        let rounds = Arc::new(Mutex::new(0u32));
        let rounds2 = rounds.clone();
        let peer = HostId(1);
        eng.spawn("net-sensor", HostId(0), move |ctx| {
            let done = move || {
                let mut r = rounds2.lock();
                *r += 1;
                *r > 5
            };
            run_net_sensor(
                ctx,
                &nws2,
                ClusterId(0),
                peer,
                ClusterId(1),
                1e5,
                1.0,
                &done,
            );
        });
        eng.run();
        let n = nws.lock();
        let lat = n
            .forecast_latency(ClusterId(0), ClusterId(1))
            .unwrap()
            .value;
        let bw = n
            .forecast_bandwidth(ClusterId(0), ClusterId(1))
            .unwrap()
            .value;
        // True path: 0.01 + 0.03 + 0.01 latency; 0.5 MB/s bottleneck.
        assert!((lat - 0.05).abs() < 0.01, "lat = {lat}");
        assert!((bw - 0.5e6).abs() / 0.5e6 < 0.15, "bw = {bw}");
        // Measured forecasts now drive transfer_time.
        let t = n.transfer_time(&g, HostId(0), HostId(1), 1e6);
        assert!((t - (0.05 + 2.0)).abs() < 0.3, "t = {t}");
    }

    #[test]
    fn probe_measures_loaded_host() {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(c, 1, &HostSpec::with_speed(100.0));
        let g = b.build().unwrap();
        let mut eng = Engine::new(g);
        eng.add_load_window(hs[0], 0.0, None, 1.0);
        let out = Arc::new(Mutex::new(0.0f64));
        let out2 = out.clone();
        eng.spawn("sensor", hs[0], move |ctx| {
            let a = cpu_probe(ctx, 100.0, 10.0);
            *out2.lock() = a;
        });
        eng.run();
        assert!((*out.lock() - 0.5).abs() < 1e-9);
    }
}
