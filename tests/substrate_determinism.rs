//! Kernel golden fingerprints.
//!
//! The kernel solves rates once per virtual instant (coalesced
//! recomputation). Before that became its only timing, these scenarios
//! were recorded under the eager timing, which solved inline on every
//! churn, and the values below are those recordings:
//! [`RunReport::fingerprint`] digests every `f64` of a report by its bits.
//! A change that moves any result bit of the paper's Fig. 3 runs or of the
//! synchronized all-to-all (where coalescing absorbs the most churn) fails
//! here. The mixed fault scenario has its own golden in
//! `crates/sim/tests/determinism.rs`.

use grads_core::prelude::*;
use grads_core::sim::topology::macrogrid_qr;

/// `(N, rescheduler mode, overhead policy)` of each Fig. 3 case: both
/// sides of the stay/migrate crossover, under the forced-stay, modeled
/// and 900 s worst-case policies.
fn fig3_cases() -> Vec<(usize, ReschedulerMode, OverheadPolicy)> {
    let mut v = Vec::new();
    for n in [8000, 11000] {
        v.push((n, ReschedulerMode::ForceStay, OverheadPolicy::Modeled));
        v.push((n, ReschedulerMode::Default, OverheadPolicy::Modeled));
        v.push((
            n,
            ReschedulerMode::Default,
            OverheadPolicy::WorstCase(900.0),
        ));
    }
    v
}

/// Recorded `(report fingerprint, total_time bits, incarnations)` per case
/// of [`fig3_cases`], in order.
const FIG3_GOLDEN: [(u64, u64, usize); 6] = [
    (2594900127251448203, 4645972242268690798, 1),
    (2594900127251448203, 4645972242268690798, 1),
    (2594900127251448203, 4645972242268690798, 1),
    (7220958834236927698, 4655886149174167132, 1),
    (11572505974568370668, 4654884351983312448, 2),
    (7220958834236927698, 4655886149174167132, 1),
];

/// The Fig. 3 runs reproduce the reports recorded under eager recompute,
/// bit for bit: middleware, contract monitor, rescheduler and migration
/// included.
#[test]
fn coalesced_recompute_matches_eager_on_fig3() {
    let got: Vec<(u64, u64, usize)> = fig3_cases()
        .into_iter()
        .map(|(n, mode, overhead)| {
            let mut cfg = QrExperimentConfig::paper(n);
            cfg.mode = mode;
            cfg.overhead = overhead;
            let r = run_qr_experiment(macrogrid_qr(), cfg);
            (
                r.report.fingerprint(),
                r.total_time.to_bits(),
                r.incarnations,
            )
        })
        .collect();
    assert_eq!(got, FIG3_GOLDEN, "fig3 reports moved");
    // The set covers a migration and the worst-case policy's wrong stay.
    assert_eq!(got[4].2, 2, "N = 11000 modeled must migrate");
    assert_eq!(got[5].2, 1, "N = 11000 worst-case must stay");
}

const CLUSTERS: usize = 4;
const HOSTS_PER_CLUSTER: usize = 16;
const NPROC: usize = CLUSTERS * HOSTS_PER_CLUSTER;

/// `kernel_scale`'s WAN mesh: 4 clusters × 16 dual-core hosts, every
/// cluster pair joined by its own link.
fn mesh() -> (Grid, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let mut cl = Vec::new();
    let mut hosts = Vec::new();
    for c in 0..CLUSTERS {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1.0e9, 50e-6);
        let spec = HostSpec {
            speed: 1.0e9,
            cores: 2,
            ..Default::default()
        };
        hosts.extend(b.add_hosts(id, HOSTS_PER_CLUSTER, &spec));
        cl.push(id);
    }
    let mut k = 0u32;
    for i in 0..CLUSTERS {
        for j in (i + 1)..CLUSTERS {
            b.connect(
                cl[i],
                cl[j],
                5.0e7 + 1.0e7 * k as f64,
                5e-3 + 3e-3 * k as f64,
            );
            k += 1;
        }
    }
    (b.build().expect("valid grid"), hosts)
}

/// One round of `kernel_scale`'s 64-rank all-to-all: compute, eager sends
/// to every peer, then receives interleaved with compute. `uniform` gives
/// every transfer the same size (bitwise-synchronized completion waves);
/// otherwise sizes are skewed per pair and every transfer finishes at its
/// own instant.
fn alltoall(mode: RecomputeMode, uniform: bool) -> RunReport {
    let (grid, hosts) = mesh();
    let mut eng = Engine::new(grid);
    eng.set_recompute_mode(mode);
    for i in 0..NPROC {
        let peers = hosts.clone();
        eng.spawn(&format!("p{i}"), hosts[i], move |ctx| {
            ctx.compute(1.0e6);
            for (j, &peer) in peers.iter().enumerate() {
                if j != i {
                    let bytes = if uniform {
                        1.0e5
                    } else {
                        1.0e5 + (i * NPROC + j) as f64
                    };
                    ctx.isend(mail_key(&[i as u64, j as u64]), peer, bytes, Box::new(()));
                }
            }
            for j in 0..NPROC {
                if j != i {
                    let _ = ctx.recv(mail_key(&[j as u64, i as u64]));
                    ctx.compute(2.5e5);
                }
            }
        });
    }
    let r = eng.run();
    assert_eq!(r.completed.len(), NPROC, "{mode:?}: every rank completes");
    r
}

/// Recorded fingerprints of [`alltoall`]: `(uniform, skewed)`.
const ALLTOALL_GOLDEN: (u64, u64) = (36328915549116815, 6963523660620118332);

/// The all-to-all reproduces the eager recordings under both recompute
/// scopes, on both payload shapes.
#[test]
fn coalesced_recompute_matches_eager_on_alltoall() {
    for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
        let got = (
            alltoall(mode, true).fingerprint(),
            alltoall(mode, false).fingerprint(),
        );
        assert_eq!(got, ALLTOALL_GOLDEN, "{mode:?}: all-to-all reports moved");
    }
}
