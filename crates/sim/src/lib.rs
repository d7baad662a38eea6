//! # grads-sim — deterministic grid emulator
//!
//! The substrate every other crate in this workspace runs on. It plays the
//! role of the GrADS testbeds: the *MacroGrid* (real clusters at UCSD, UTK,
//! UIUC, UH) and the *MicroGrid* (the paper's own grid emulation
//! environment, §4.2). Topologies describe clusters of hosts joined by WAN
//! links; simulated processes execute real Rust code against blocking
//! `compute`/`send`/`recv` primitives while the kernel advances virtual
//! time using fluid resource-sharing models:
//!
//! * CPU: equal sharing among compute actions and injected external load,
//!   capped per action at one core's speed;
//! * network: max-min fair bandwidth allocation over multi-link routes with
//!   additive one-way latency.
//!
//! Runs are fully deterministic: exactly one simulated process executes at
//! a time, and same-time events pop in a strict total order. The kernel has
//! one run loop: churn marks dirty hosts and links, and one rate solve per
//! virtual instant re-derives the shares before the clock advances
//! (DESIGN.md, "Coalesced recomputation").
//!
//! ```
//! use grads_sim::prelude::*;
//!
//! let mut b = GridBuilder::new();
//! let c = b.cluster("LOCAL");
//! let hosts = b.add_hosts(c, 2, &HostSpec::with_speed(1e9));
//! let mut eng = Engine::new(b.build().unwrap());
//! let key = mail_key(&[7]);
//! let h1 = hosts[1];
//! eng.spawn("producer", hosts[0], move |ctx| {
//!     ctx.compute(2e9); // two virtual seconds of work
//!     ctx.send(key, h1, 1e6, Box::new(vec![1.0f64, 2.0, 3.0]));
//! });
//! eng.spawn("consumer", hosts[1], move |ctx| {
//!     let data = ctx.recv(key).downcast::<Vec<f64>>().unwrap();
//!     assert_eq!(data.len(), 3);
//! });
//! let report = eng.run();
//! assert_eq!(report.completed.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod dml;
pub mod engine;
pub(crate) mod equeue;
pub(crate) mod handoff;
pub(crate) mod maildir;
pub mod process;
pub mod sharing;
pub mod topology;
pub mod trace;

pub use handoff::{set_wait_policy, wait_policy, WaitPolicy};

/// Convenient re-exports of the commonly used types.
pub mod prelude {
    pub use crate::engine::{Engine, EngineTune, RecomputeMode, RunReport};
    pub use crate::handoff::{set_wait_policy, WaitPolicy};
    pub use crate::process::{mail_key, Ctx, MailKey, Payload, ProcId, SendMode};
    pub use crate::topology::{
        macrogrid_qr, microgrid_nbody, Arch, ClusterId, Grid, GridBuilder, Host, HostId, HostSpec,
        LinkId,
    };
    pub use crate::trace::{Trace, TraceKind, TraceRecord};
}

pub use dml::{parse_dml, DmlError};
pub use prelude::*;
