//! The fused [`Ensemble`] against the reference predictors: replaying
//! `standard_battery()` with the seed's selection loop must reproduce every
//! prediction, the forecast, its name and the scores bit for bit.

use grads_nws::predictors::{standard_battery, Predictor};
use grads_nws::{Ensemble, Forecast};
use proptest::prelude::*;

/// The dynamic-selection loop over boxed reference predictors.
struct Oracle {
    battery: Vec<Box<dyn Predictor + Send + Sync>>,
    abs_err: Vec<f64>,
    sq_err: Vec<f64>,
    n_scored: Vec<u64>,
}

impl Oracle {
    fn new() -> Self {
        let battery = standard_battery();
        let n = battery.len();
        Oracle {
            battery,
            abs_err: vec![0.0; n],
            sq_err: vec![0.0; n],
            n_scored: vec![0; n],
        }
    }

    fn update(&mut self, value: f64) {
        for (i, p) in self.battery.iter_mut().enumerate() {
            if let Some(pred) = p.predict() {
                let e = pred - value;
                self.abs_err[i] += e.abs();
                self.sq_err[i] += e * e;
                self.n_scored[i] += 1;
            }
            p.update(value);
        }
    }

    fn mae(&self, i: usize) -> f64 {
        if self.n_scored[i] > 0 {
            self.abs_err[i] / self.n_scored[i] as f64
        } else {
            f64::INFINITY
        }
    }

    fn forecast(&self) -> Option<Forecast> {
        let mut best: Option<(f64, usize, f64)> = None;
        for (i, p) in self.battery.iter().enumerate() {
            let Some(pred) = p.predict() else {
                continue;
            };
            let mae = self.mae(i);
            match best {
                Some((bmae, _, _)) if mae >= bmae => {}
                _ => best = Some((mae, i, pred)),
            }
        }
        best.map(|(mae, i, pred)| Forecast {
            value: pred,
            mae: if mae.is_finite() { mae } else { 0.0 },
            predictor: self.battery[i].name(),
        })
    }

    fn scores(&self) -> Vec<(String, f64, f64)> {
        (0..self.battery.len())
            .map(|i| {
                let n = self.n_scored[i];
                let (mae, rmse) = if n > 0 {
                    (
                        self.abs_err[i] / n as f64,
                        (self.sq_err[i] / n as f64).sqrt(),
                    )
                } else {
                    (f64::NAN, f64::NAN)
                };
                (self.battery[i].name(), mae, rmse)
            })
            .collect()
    }
}

/// One measurement: mostly small values with many exact repeats, signed
/// zeros, negatives, and now and then a large spike.
fn sample() -> impl Strategy<Value = f64> {
    (0u32..100, 0.0f64..1.0).prop_map(|(sel, x)| match sel {
        0..=2 => 1e6 * (1.0 + x),
        3..=4 => -1e3 * x,
        5..=19 => [0.0, -0.0, 1.0, 0.5, 0.25][(x * 5.0) as usize % 5],
        20..=29 => -x,
        30..=69 => (x * 8.0).round() / 8.0,
        _ => x,
    })
}

/// Series from 1 to 320 samples: short ones stay inside the k = 5, 21
/// and 51 windows, long ones wrap the ring many times.
fn series() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(sample(), 1..320)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn forecast_bits(f: Option<Forecast>) -> Option<(u64, u64, String)> {
    f.map(|f| (f.value.to_bits(), f.mae.to_bits(), f.predictor))
}

fn score_bits(s: Vec<(String, f64, f64)>) -> Vec<(String, u64, u64)> {
    s.into_iter()
        .map(|(n, m, r)| (n, m.to_bits(), r.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every update, all twelve predictions, `forecast_value()`,
    /// `forecast()` and `scores()` equal the reference replay bitwise.
    #[test]
    fn fused_battery_matches_reference_bitwise(vals in series()) {
        let mut fused = Ensemble::standard();
        let mut oracle = Oracle::new();
        prop_assert!(fused.forecast().is_none() && oracle.forecast().is_none());
        for (step, &v) in vals.iter().enumerate() {
            fused.update(v);
            oracle.update(v);
            let want: Vec<f64> = oracle
                .battery
                .iter()
                .map(|p| p.predict().expect("forecasts after one sample"))
                .collect();
            let got = fused.predictions().expect("forecasts after one sample");
            prop_assert_eq!(bits(got), bits(&want), "predictions at step {}", step);
            let want = forecast_bits(oracle.forecast());
            let value = want.as_ref().map(|w| w.0);
            prop_assert_eq!(forecast_bits(fused.forecast()), want, "forecast at step {}", step);
            prop_assert_eq!(fused.forecast_value().map(f64::to_bits), value, "forecast_value at step {}", step);
            let (got, want) = (score_bits(fused.scores()), score_bits(oracle.scores()));
            prop_assert_eq!(got, want, "scores at step {}", step);
        }
        prop_assert_eq!(fused.len(), vals.len() as u64);
        let last = vals.last().map(|v| v.to_bits());
        prop_assert_eq!(fused.last_measurement().map(f64::to_bits), last);
    }
}

/// A fixed long series that crosses every window length, holds long runs
/// of one value (so the tie rule decides the winner), alternates signed
/// zeros and spikes rarely.
#[test]
fn fused_battery_matches_reference_on_a_long_mixed_series() {
    let mut fused = Ensemble::standard();
    let mut oracle = Oracle::new();
    for i in 0..600u64 {
        let v = match i {
            0..=59 => 0.5,
            60..=119 => {
                if i % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            }
            _ if i % 97 == 0 => 5e8,
            _ => ((i * 2654435761) % 23) as f64 / 8.0,
        };
        fused.update(v);
        oracle.update(v);
        assert_eq!(
            forecast_bits(fused.forecast()),
            forecast_bits(oracle.forecast()),
            "step {i}"
        );
        assert_eq!(
            score_bits(fused.scores()),
            score_bits(oracle.scores()),
            "step {i}"
        );
    }
}
