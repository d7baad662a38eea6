//! Individual time-series predictors, in the style of Wolski's Network
//! Weather Service.
//!
//! Each predictor consumes measurements one at a time and offers a one-step-
//! ahead forecast. None of them is best for every signal; dynamic predictor
//! selection runs them all and picks whichever has the lowest historical
//! error — the NWS method the GrADS scheduler and rescheduler rely on for
//! `dcost` estimates and resource forecasts.
//!
//! These types are the **reference oracle**: straightforward, one struct
//! per predictor, re-sorting their windows on every `predict()`. The
//! production forecaster, [`crate::ensemble::Ensemble`], fuses
//! [`standard_battery`] into one allocation-free state machine whose every
//! prediction is bit-identical to these (`tests/prop_fused_battery.rs`
//! replays them side by side).

use std::collections::VecDeque;

/// A one-step-ahead forecaster over a scalar measurement stream.
pub trait Predictor {
    /// Human-readable name, e.g. `"sliding_median(21)"`.
    fn name(&self) -> String;
    /// Incorporate a new measurement.
    fn update(&mut self, value: f64);
    /// Forecast the next measurement; `None` until enough data has arrived.
    fn predict(&self) -> Option<f64>;
}

/// Predicts the most recent measurement.
#[derive(Debug, Default, Clone)]
pub struct LastValue {
    last: Option<f64>,
}

impl Predictor for LastValue {
    fn name(&self) -> String {
        "last_value".into()
    }
    fn update(&mut self, value: f64) {
        self.last = Some(value);
    }
    fn predict(&self) -> Option<f64> {
        self.last
    }
}

/// Predicts the mean of all measurements seen so far.
#[derive(Debug, Default, Clone)]
pub struct RunningMean {
    sum: f64,
    n: u64,
}

impl Predictor for RunningMean {
    fn name(&self) -> String {
        "running_mean".into()
    }
    fn update(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
    }
    fn predict(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Predicts the mean of the last `k` measurements.
#[derive(Debug, Clone)]
pub struct SlidingMean {
    k: usize,
    window: VecDeque<f64>,
    sum: f64,
}

impl SlidingMean {
    /// Window length `k` must be at least 1.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "window length must be >= 1");
        SlidingMean {
            k,
            window: VecDeque::with_capacity(k + 1),
            sum: 0.0,
        }
    }
}

impl Predictor for SlidingMean {
    fn name(&self) -> String {
        format!("sliding_mean({})", self.k)
    }
    fn update(&mut self, value: f64) {
        self.window.push_back(value);
        self.sum += value;
        if self.window.len() > self.k {
            self.sum -= self.window.pop_front().expect("non-empty window");
        }
    }
    fn predict(&self) -> Option<f64> {
        (!self.window.is_empty()).then(|| self.sum / self.window.len() as f64)
    }
}

/// Predicts the median of the last `k` measurements. Robust to the load
/// spikes that plague CPU-availability signals.
#[derive(Debug, Clone)]
pub struct SlidingMedian {
    k: usize,
    window: VecDeque<f64>,
}

impl SlidingMedian {
    /// Window length `k` must be at least 1.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "window length must be >= 1");
        SlidingMedian {
            k,
            window: VecDeque::with_capacity(k + 1),
        }
    }
}

impl Predictor for SlidingMedian {
    fn name(&self) -> String {
        format!("sliding_median({})", self.k)
    }
    fn update(&mut self, value: f64) {
        self.window.push_back(value);
        if self.window.len() > self.k {
            self.window.pop_front();
        }
    }
    fn predict(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.window.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        })
    }
}

/// Exponentially smoothed forecast: `s <- alpha * x + (1 - alpha) * s`.
#[derive(Debug, Clone)]
pub struct ExpSmoothing {
    alpha: f64,
    state: Option<f64>,
}

impl ExpSmoothing {
    /// `alpha` in (0, 1]: larger tracks faster, smaller smooths harder.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        ExpSmoothing { alpha, state: None }
    }
}

impl Predictor for ExpSmoothing {
    fn name(&self) -> String {
        format!("exp_smoothing({})", self.alpha)
    }
    fn update(&mut self, value: f64) {
        self.state = Some(match self.state {
            None => value,
            Some(s) => self.alpha * value + (1.0 - self.alpha) * s,
        });
    }
    fn predict(&self) -> Option<f64> {
        self.state
    }
}

/// Mean of the last `k` measurements after discarding the `trim` smallest
/// and `trim` largest.
#[derive(Debug, Clone)]
pub struct TrimmedMean {
    k: usize,
    trim: usize,
    window: VecDeque<f64>,
}

impl TrimmedMean {
    /// Requires `k > 2 * trim` so at least one sample survives trimming.
    pub fn new(k: usize, trim: usize) -> Self {
        assert!(k > 2 * trim, "window must outsize the trimmed tails");
        TrimmedMean {
            k,
            trim,
            window: VecDeque::with_capacity(k + 1),
        }
    }
}

impl Predictor for TrimmedMean {
    fn name(&self) -> String {
        format!("trimmed_mean({},{})", self.k, self.trim)
    }
    fn update(&mut self, value: f64) {
        self.window.push_back(value);
        if self.window.len() > self.k {
            self.window.pop_front();
        }
    }
    fn predict(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.window.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        let t = if v.len() > 2 * self.trim {
            self.trim
        } else {
            0
        };
        let kept = &v[t..v.len() - t];
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
}

/// The standard NWS-style predictor battery, in the order
/// [`crate::ensemble::PREDICTOR_NAMES`] lists it: the reference that the
/// fused [`crate::ensemble::Ensemble`] reproduces bit for bit.
pub fn standard_battery() -> Vec<Box<dyn Predictor + Send + Sync>> {
    vec![
        Box::new(LastValue::default()),
        Box::new(RunningMean::default()),
        Box::new(SlidingMean::new(5)),
        Box::new(SlidingMean::new(21)),
        Box::new(SlidingMean::new(51)),
        Box::new(SlidingMedian::new(5)),
        Box::new(SlidingMedian::new(21)),
        Box::new(SlidingMedian::new(51)),
        Box::new(ExpSmoothing::new(0.05)),
        Box::new(ExpSmoothing::new(0.2)),
        Box::new(ExpSmoothing::new(0.5)),
        Box::new(TrimmedMean::new(21, 3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_tracks() {
        let mut p = LastValue::default();
        assert!(p.predict().is_none());
        p.update(3.0);
        p.update(5.0);
        assert_eq!(p.predict(), Some(5.0));
    }

    #[test]
    fn running_mean_averages_everything() {
        let mut p = RunningMean::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            p.update(v);
        }
        assert_eq!(p.predict(), Some(2.5));
    }

    #[test]
    fn sliding_mean_forgets() {
        let mut p = SlidingMean::new(2);
        for v in [10.0, 2.0, 4.0] {
            p.update(v);
        }
        assert_eq!(p.predict(), Some(3.0));
    }

    #[test]
    fn sliding_median_odd_and_even() {
        let mut p = SlidingMedian::new(3);
        p.update(5.0);
        p.update(1.0);
        assert_eq!(p.predict(), Some(3.0));
        p.update(9.0);
        assert_eq!(p.predict(), Some(5.0));
    }

    #[test]
    fn median_robust_to_spike() {
        let mut p = SlidingMedian::new(5);
        for v in [1.0, 1.0, 100.0, 1.0, 1.0] {
            p.update(v);
        }
        assert_eq!(p.predict(), Some(1.0));
    }

    #[test]
    fn exp_smoothing_converges() {
        let mut p = ExpSmoothing::new(0.5);
        p.update(0.0);
        for _ in 0..50 {
            p.update(10.0);
        }
        assert!((p.predict().unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let mut p = TrimmedMean::new(5, 1);
        for v in [1.0, 1.0, 1.0, 1.0, 1000.0] {
            p.update(v);
        }
        assert_eq!(p.predict(), Some(1.0));
    }

    #[test]
    fn trimmed_mean_small_window_untimmed() {
        let mut p = TrimmedMean::new(5, 2);
        p.update(4.0);
        // Window has one sample; trimming disabled until it outsizes tails.
        assert_eq!(p.predict(), Some(4.0));
    }

    #[test]
    #[should_panic]
    fn sliding_mean_rejects_zero_window() {
        let _ = SlidingMean::new(0);
    }

    #[test]
    fn battery_has_unique_names() {
        let b = standard_battery();
        let mut names: Vec<String> = b.iter().map(|p| p.name()).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
