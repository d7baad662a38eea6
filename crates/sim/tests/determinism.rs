//! Kernel determinism gate for the incremental rate-recomputation path.
//!
//! The scenario deliberately mixes everything the kernel models: multi-host
//! compute on heterogeneous clusters, cross-cluster sends over shared WAN
//! links, injected external load windows, and one mid-run host failure that
//! kills processes while their flows are in flight. Two independent runs
//! must agree bit for bit, the scoped/dirty-set mode must reproduce the
//! scope-everything oracle exactly, and both must reproduce the report
//! recorded under eager recomputation.

use grads_sim::prelude::*;

/// Build and run the mixed fault scenario under the given recompute mode.
fn scenario(mode: RecomputeMode) -> RunReport {
    let mut b = GridBuilder::new();
    let mut clusters = Vec::new();
    let mut hosts = Vec::new();
    for c in 0..3u32 {
        let cl = b.cluster(&format!("C{c}"));
        b.local_link(cl, 1.0e6, 1.0e-3);
        let spec = HostSpec {
            speed: 100.0 * (c + 1) as f64,
            cores: 2,
            ..Default::default()
        };
        hosts.extend(b.add_hosts(cl, 3, &spec));
        clusters.push(cl);
    }
    b.connect(clusters[0], clusters[1], 4.0e5, 30e-3);
    b.connect(clusters[1], clusters[2], 2.5e5, 45e-3);
    b.connect(clusters[0], clusters[2], 1.5e5, 60e-3);

    let mut eng = Engine::new(b.build().unwrap());
    eng.set_recompute_mode(mode);
    eng.panic_on_failure = false;
    // External load competing with the workers' compute actions.
    eng.add_load_window(hosts[0], 0.5, Some(3.0), 1.5);
    eng.add_load_window(hosts[4], 1.0, None, 0.75);
    // One host dies mid-run: at t = 1.2 its worker is blocked in a WAN
    // send with the flow still in flight and its receiver is parked in
    // `recv`, so the failure hits compute and communication mid-stride.
    eng.fail_host_at(hosts[7], 1.2);

    for i in 0..9usize {
        let src = hosts[i];
        let dst = hosts[(i + 3) % 9];
        let key = mail_key(&[100 + i as u64]);
        eng.spawn(&format!("w{i}"), src, move |ctx| {
            ctx.compute(60.0 + 15.0 * i as f64);
            ctx.send(key, dst, 5.0e4 * ((i % 3) + 1) as f64, Box::new(i));
            ctx.compute(40.0);
            let t = ctx.now();
            ctx.trace("w_done", t);
        });
        // The receiver lives on the destination host of the matching sender.
        let rkey = mail_key(&[100 + ((i + 6) % 9) as u64]);
        eng.spawn(&format!("r{i}"), src, move |ctx| {
            let _ = ctx.recv(rkey);
            ctx.compute(25.0 + 5.0 * i as f64);
            let t = ctx.now();
            ctx.trace("r_done", t);
        });
    }
    eng.run()
}

/// Two runs of the same scenario are bit-identical: same `end_time`, same
/// trace (f64 timestamps compared bitwise), same per-host flops and
/// per-link bytes.
#[test]
fn two_runs_are_bit_identical() {
    for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
        let a = scenario(mode);
        let b = scenario(mode);
        assert_eq!(a.end_time, b.end_time, "{mode:?}: end_time");
        assert_eq!(a.trace, b.trace, "{mode:?}: trace");
        assert_eq!(a.host_flops, b.host_flops, "{mode:?}: host_flops");
        assert_eq!(a.link_bytes, b.link_bytes, "{mode:?}: link_bytes");
        assert_eq!(a, b, "{mode:?}: full report");
    }
}

/// The dirty-set incremental path reproduces the scope-everything reference
/// exactly, including under load injection and a mid-run host failure.
#[test]
fn incremental_matches_full_bitwise_under_faults() {
    let inc = scenario(RecomputeMode::Incremental);
    let full = scenario(RecomputeMode::Full);
    assert_eq!(inc, full);
}

/// [`RunReport::fingerprint`] of the scenario, recorded under the eager
/// timing (one solve per churn) before coalesced recomputation became the
/// kernel's only timing.
const EAGER_GOLDEN: u64 = 12494876373030670934;

/// Coalesced recomputation — deferring the rate solve to the end of each
/// virtual instant — is unobservable: under both recompute scopes the
/// report matches the eager recording bit for bit, under load injection
/// and the mid-run host failure.
#[test]
fn coalesced_matches_eager_bitwise_across_modes() {
    for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
        assert_eq!(scenario(mode).fingerprint(), EAGER_GOLDEN, "{mode:?}");
    }
}

/// The scenario actually exercises what it claims to: cross-cluster flows,
/// a killed worker, and survivors that finish.
#[test]
fn scenario_is_nontrivial() {
    let r = scenario(RecomputeMode::Incremental);
    assert!(r.died.contains(&"w7".to_string()), "died: {:?}", r.died);
    assert!(r.died.contains(&"r7".to_string()), "died: {:?}", r.died);
    assert!(r.completed.len() >= 8, "completed: {:?}", r.completed);
    assert!(r.link_bytes.iter().any(|&b| b > 0.0));
    assert!(r.trace.series("w_done").len() >= 6);
}
