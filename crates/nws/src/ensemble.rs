//! Dynamic predictor selection: run the whole predictor battery, track each
//! predictor's historical error, and forecast with the current best.
//!
//! This is the method the Network Weather Service uses to stay accurate
//! across wildly different signal regimes (stable LAN bandwidth vs. bursty
//! CPU availability) without per-signal tuning.
//!
//! The battery is fused into one concrete state machine: one ring of the
//! last 51 samples feeds three windows kept sorted under
//! [`f64::total_cmp`] (k = 5, 21, 51; the k = 21 window serves both the
//! median and the trimmed mean), three sliding sums, the running mean and
//! the three exponential smoothers. [`Ensemble::update`] computes the
//! twelve predictions and the winner once and caches them, so queries are
//! O(1) reads and nothing allocates or sorts per call. Every floating-point
//! operation repeats the reference predictors' in [`crate::predictors`] in
//! value and order, so every forecast is bit-identical to replaying
//! [`crate::predictors::standard_battery`] (`tests/prop_fused_battery.rs`).

/// Forecast plus uncertainty information.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// Predicted next value.
    pub value: f64,
    /// Mean absolute error of the winning predictor over the stream so far.
    pub mae: f64,
    /// Name of the predictor that produced the forecast.
    pub predictor: String,
}

/// Number of predictors in the standard battery.
pub const BATTERY_LEN: usize = 12;

/// Names of the standard battery's predictors, in battery order — exactly
/// the `Predictor::name()` strings of [`crate::predictors::standard_battery`].
pub const PREDICTOR_NAMES: [&str; BATTERY_LEN] = [
    "last_value",
    "running_mean",
    "sliding_mean(5)",
    "sliding_mean(21)",
    "sliding_mean(51)",
    "sliding_median(5)",
    "sliding_median(21)",
    "sliding_median(51)",
    "exp_smoothing(0.05)",
    "exp_smoothing(0.2)",
    "exp_smoothing(0.5)",
    "trimmed_mean(21,3)",
];

/// Sliding-window lengths shared by the means and the medians.
const WINDOWS: [usize; 3] = [5, 21, 51];
/// Smoothing factors of the three exponential smoothers.
const ALPHAS: [f64; 3] = [0.05, 0.2, 0.5];
/// Samples trimmed from each tail of the k = 21 window by the trimmed mean.
const TRIM: usize = 3;
/// Ring length: the longest window.
const RING: usize = WINDOWS[2];

/// The last `min(n, K)` samples in ascending [`f64::total_cmp`] order.
///
/// `total_cmp` calls two values equal only when their bit patterns are
/// identical, so the sorted contents are exactly the slice the reference
/// predictors get by copying and sorting their window.
struct SortedWindow<const K: usize> {
    v: [f64; K],
    len: usize,
}

impl<const K: usize> SortedWindow<K> {
    const EMPTY: Self = SortedWindow {
        v: [0.0; K],
        len: 0,
    };

    fn sorted(&self) -> &[f64] {
        &self.v[..self.len]
    }

    fn position(&self, x: f64) -> Result<usize, usize> {
        self.sorted().binary_search_by(|y| y.total_cmp(&x))
    }

    /// Drop the sample leaving the window (if it is full), then insert
    /// the new one; both by binary search.
    fn slide(&mut self, leaving: Option<f64>, x: f64) {
        if let Some(out) = leaving {
            let i = self.position(out).expect("leaving sample is in its window");
            self.v.copy_within(i + 1..self.len, i);
            self.len -= 1;
        }
        let i = self.position(x).unwrap_or_else(|i| i);
        self.v.copy_within(i..self.len, i + 1);
        self.v[i] = x;
        self.len += 1;
    }

    /// `SlidingMedian::predict`'s expression over the same sorted slice.
    fn median(&self) -> f64 {
        let (v, n) = (self.sorted(), self.len);
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }

    /// `TrimmedMean::predict`'s expression over the same sorted slice.
    fn trimmed_mean(&self, trim: usize) -> f64 {
        let v = self.sorted();
        let t = if v.len() > 2 * trim { trim } else { 0 };
        let kept = &v[t..v.len() - t];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// An ensemble forecaster with NWS-style dynamic predictor selection over
/// the standard battery.
///
/// ```
/// use grads_nws::ensemble::Ensemble;
/// let mut e = Ensemble::standard();
/// for i in 0..100 {
///     e.update(10.0 + if i % 2 == 0 { 0.5 } else { -0.5 });
/// }
/// let f = e.forecast().unwrap();
/// assert!((f.value - 10.0).abs() < 1.0);
/// ```
pub struct Ensemble {
    /// Measurements absorbed; sample `i` lives at `ring[i % RING]`.
    n: u64,
    ring: [f64; RING],
    w5: SortedWindow<5>,
    w21: SortedWindow<21>,
    w51: SortedWindow<51>,
    /// Sliding sums of the three windows, in [`WINDOWS`] order.
    window_sums: [f64; 3],
    running_sum: f64,
    /// Exponential smoother states, in [`ALPHAS`] order.
    smoothed: [f64; 3],
    /// Every predictor's forecast of the next measurement, battery order.
    preds: [f64; BATTERY_LEN],
    abs_err: [f64; BATTERY_LEN],
    sq_err: [f64; BATTERY_LEN],
    /// Battery index of the current winner and its mean absolute error.
    winner: usize,
    winner_mae: f64,
}

impl Default for Ensemble {
    fn default() -> Self {
        Self::standard()
    }
}

impl Ensemble {
    /// Ensemble over the standard NWS predictor battery.
    pub fn standard() -> Self {
        Ensemble {
            n: 0,
            ring: [0.0; RING],
            w5: SortedWindow::EMPTY,
            w21: SortedWindow::EMPTY,
            w51: SortedWindow::EMPTY,
            window_sums: [0.0; 3],
            running_sum: 0.0,
            smoothed: [0.0; 3],
            preds: [0.0; BATTERY_LEN],
            abs_err: [0.0; BATTERY_LEN],
            sq_err: [0.0; BATTERY_LEN],
            winner: 0,
            winner_mae: f64::INFINITY,
        }
    }

    /// Feed one measurement: score every predictor's outstanding forecast
    /// against it, let every predictor absorb it, then cache the new
    /// forecasts and the winner.
    pub fn update(&mut self, value: f64) {
        if self.n > 0 {
            for i in 0..BATTERY_LEN {
                let e = self.preds[i] - value;
                self.abs_err[i] += e.abs();
                self.sq_err[i] += e * e;
            }
        }

        // The samples leaving each window, read before the ring slot of
        // the oldest one is overwritten.
        let n = self.n as usize;
        let leaving = WINDOWS.map(|k| (n >= k).then(|| self.ring[(n - k) % RING]));
        // Push-and-add, then pop-and-subtract, as `SlidingMean::update`.
        for (sum, out) in self.window_sums.iter_mut().zip(leaving) {
            *sum += value;
            if let Some(out) = out {
                *sum -= out;
            }
        }
        self.w5.slide(leaving[0], value);
        self.w21.slide(leaving[1], value);
        self.w51.slide(leaving[2], value);
        self.ring[n % RING] = value;
        self.running_sum += value;
        for (s, &alpha) in self.smoothed.iter_mut().zip(&ALPHAS) {
            *s = if n == 0 {
                value
            } else {
                alpha * value + (1.0 - alpha) * *s
            };
        }
        self.n += 1;

        let p = &mut self.preds;
        p[0] = value;
        p[1] = self.running_sum / self.n as f64;
        for (j, &k) in WINDOWS.iter().enumerate() {
            p[2 + j] = self.window_sums[j] / (n + 1).min(k) as f64;
        }
        p[5] = self.w5.median();
        p[6] = self.w21.median();
        p[7] = self.w51.median();
        p[8..11].copy_from_slice(&self.smoothed);
        p[11] = self.w21.trimmed_mean(TRIM);

        // Lowest MAE wins; ties (and `mae >= best`) keep the earlier entry.
        let mut best: Option<(f64, usize)> = None;
        for i in 0..BATTERY_LEN {
            let mae = self.mae(i).unwrap_or(f64::INFINITY);
            match best {
                Some((bmae, _)) if mae >= bmae => {}
                _ => best = Some((mae, i)),
            }
        }
        (self.winner_mae, self.winner) = best.expect("battery is non-empty");
    }

    /// Forecasts scored so far per predictor: every predictor forecasts
    /// from the first measurement on, so all are scored on every later one.
    fn n_scored(&self) -> u64 {
        self.n.saturating_sub(1)
    }

    /// Mean absolute error of battery entry `i`; `None` while unscored.
    fn mae(&self, i: usize) -> Option<f64> {
        let n = self.n_scored();
        (n > 0).then(|| self.abs_err[i] / n as f64)
    }

    /// Number of measurements absorbed.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if no measurements have been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Most recent raw measurement.
    pub fn last_measurement(&self) -> Option<f64> {
        (self.n > 0).then(|| self.preds[0])
    }

    /// Every predictor's current forecast of the next measurement, in
    /// [`PREDICTOR_NAMES`] order. `None` until a measurement has arrived.
    pub fn predictions(&self) -> Option<&[f64; BATTERY_LEN]> {
        (self.n > 0).then_some(&self.preds)
    }

    /// [`Ensemble::forecast`]'s value alone, without building the
    /// predictor-name `String`: a cached read, bit-identical to
    /// `forecast().value`. This is what every query path reads.
    pub fn forecast_value(&self) -> Option<f64> {
        (self.n > 0).then(|| self.preds[self.winner])
    }

    /// Forecast the next value using the predictor with the lowest mean
    /// absolute error so far. Ties break toward the earlier battery entry
    /// (deterministic). `None` until at least one measurement has arrived.
    pub fn forecast(&self) -> Option<Forecast> {
        (self.n > 0).then(|| Forecast {
            value: self.preds[self.winner],
            mae: if self.winner_mae.is_finite() {
                self.winner_mae
            } else {
                0.0
            },
            predictor: PREDICTOR_NAMES[self.winner].to_string(),
        })
    }

    /// Per-predictor `(name, mae, rmse)` diagnostics. Predictors that have
    /// not been scored yet report `NaN`.
    pub fn scores(&self) -> Vec<(String, f64, f64)> {
        let n = self.n_scored();
        PREDICTOR_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let (mae, rmse) = if n > 0 {
                    (
                        self.abs_err[i] / n as f64,
                        (self.sq_err[i] / n as f64).sqrt(),
                    )
                } else {
                    (f64::NAN, f64::NAN)
                };
                (name.to_string(), mae, rmse)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ensemble_has_no_forecast() {
        let e = Ensemble::standard();
        assert!(e.forecast().is_none());
        assert!(e.forecast_value().is_none());
        assert!(e.predictions().is_none());
        assert!(e.last_measurement().is_none());
        assert!(e.is_empty());
    }

    #[test]
    fn constant_signal_predicted_exactly() {
        let mut e = Ensemble::standard();
        for _ in 0..50 {
            e.update(7.0);
        }
        let f = e.forecast().unwrap();
        assert!((f.value - 7.0).abs() < 1e-12);
        assert!(f.mae < 1e-12);
    }

    #[test]
    fn step_change_eventually_tracked() {
        let mut e = Ensemble::standard();
        for _ in 0..30 {
            e.update(1.0);
        }
        for _ in 0..100 {
            e.update(9.0);
        }
        let f = e.forecast().unwrap();
        assert!(
            (f.value - 9.0).abs() < 1.0,
            "forecast {} should be near 9 after the step",
            f.value
        );
    }

    #[test]
    fn noisy_signal_prefers_smoothing_over_last_value() {
        // Alternating +-1 around 5: last_value is always 2 off; means are
        // near-perfect. The winner must not be last_value.
        let mut e = Ensemble::standard();
        for i in 0..200 {
            e.update(5.0 + if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let f = e.forecast().unwrap();
        assert_ne!(f.predictor, "last_value");
        assert!((f.value - 5.0).abs() < 0.5);
    }

    #[test]
    fn spiky_signal_prefers_robust_predictor() {
        // Mostly 1.0 with rare huge spikes: medians/trimmed means win over
        // plain means in MAE.
        let mut e = Ensemble::standard();
        for i in 0..300 {
            e.update(if i % 29 == 0 { 50.0 } else { 1.0 });
        }
        let f = e.forecast().unwrap();
        assert!((f.value - 1.0).abs() < 0.5, "forecast {}", f.value);
    }

    #[test]
    fn scores_cover_all_predictors() {
        let mut e = Ensemble::standard();
        for i in 0..60 {
            e.update(i as f64);
        }
        let scores = e.scores();
        assert_eq!(scores.len(), 12);
        for (name, mae, rmse) in scores {
            assert!(mae.is_finite(), "{name} unscored");
            assert!(rmse >= mae * 0.99, "{name}: rmse {rmse} < mae {mae}");
        }
    }

    #[test]
    fn forecast_value_matches_full_forecast_bitwise() {
        let mut e = Ensemble::standard();
        assert!(e.forecast_value().is_none());
        for i in 0..120u32 {
            e.update((i.wrapping_mul(48271) % 89) as f64 * 0.01);
            let full = e.forecast().unwrap().value;
            let fast = e.forecast_value().unwrap();
            assert_eq!(full.to_bits(), fast.to_bits(), "step {i}");
        }
    }

    /// The sorted windows hold exactly the last `k` samples, sorted, as
    /// the series crosses every window length.
    #[test]
    fn sorted_windows_track_the_ring() {
        let mut e = Ensemble::standard();
        let mut hist = Vec::new();
        for i in 0..140u32 {
            let v = ((i.wrapping_mul(2654435761) >> 7) % 13) as f64 - 6.0;
            let v = if v == 0.0 && i % 2 == 0 { -0.0 } else { v };
            e.update(v);
            hist.push(v);
            for (k, got) in [
                (5, e.w5.sorted()),
                (21, e.w21.sorted()),
                (51, e.w51.sorted()),
            ] {
                let mut want: Vec<f64> = hist.iter().rev().take(k).copied().collect();
                want.sort_by(f64::total_cmp);
                let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&want), "k={k} step {i}");
            }
        }
    }

    #[test]
    fn forecast_is_deterministic() {
        let run = || {
            let mut e = Ensemble::standard();
            for i in 0..100u32 {
                e.update((i.wrapping_mul(2654435761).wrapping_mul(i) % 97) as f64);
            }
            e.forecast().unwrap()
        };
        assert_eq!(run(), run());
    }
}
