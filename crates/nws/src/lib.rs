//! # grads-nws — Network Weather Service analog
//!
//! The GrADS scheduler and rescheduler consume resource forecasts from
//! Wolski's Network Weather Service: CPU availability per host, bandwidth
//! and latency per site pair. This crate reproduces the NWS method —
//! a battery of simple time-series predictors combined by *dynamic
//! predictor selection* ([`ensemble`]): every measurement scores all
//! predictors' outstanding forecasts, and the one with the lowest
//! historical mean absolute error supplies the next forecast. The
//! ensemble runs the battery fused into one state machine; the one-struct-
//! per-predictor forms in [`predictors`] are its reference oracle.
//!
//! [`monitor::NwsService`] packages this per-host / per-site-pair, with
//! sensor helpers that run inside the `grads-sim` emulation.

pub mod ensemble;
pub mod monitor;
pub mod predictors;
pub mod snapshot;

pub use ensemble::{Ensemble, Forecast};
pub use monitor::{
    app_availability_from_probe, availability_from_load, cpu_probe, net_probe, run_cpu_sensor,
    run_net_sensor, NwsService,
};
pub use predictors::{standard_battery, Predictor};
pub use snapshot::{ForecastSnapshot, ForecastSource, SharedSnapshot};
