//! The clock stamped on every grant is the kernel's clock.
//!
//! `Ctx::now()` makes no kernel request: it reads the virtual time the
//! kernel wrote beside the process's last grant. That is exact because
//! virtual time cannot move while a process holds the grant. This pin
//! calls every primitive once and, right after it, traces `ctx.now()`.
//! The kernel stamps each trace record with its own clock, so every
//! record's time must equal its traced value bit for bit.

use grads_sim::prelude::*;

fn grid() -> (Grid, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let c = b.cluster("LAN");
    b.local_link(c, 1.0e8, 1.0e-4);
    let hosts = b.add_hosts(c, 2, &HostSpec::with_speed(1e9));
    (b.build().unwrap(), hosts)
}

/// Run the every-primitive script.
fn run() -> RunReport {
    let (grid, hosts) = grid();
    let (h0, h1) = (hosts[0], hosts[1]);
    let mut eng = Engine::new(grid);
    let (k_a, k_b, k_c, k_d, k_empty) = (
        mail_key(&[1]),
        mail_key(&[2]),
        mail_key(&[3]),
        mail_key(&[4]),
        mail_key(&[5]),
    );
    eng.spawn_delayed(0.125, "main", h0, move |ctx| {
        let t = |ctx: &mut Ctx| {
            let now = ctx.now();
            ctx.trace("t", now);
        };
        t(ctx);
        ctx.compute(1e9);
        t(ctx);
        ctx.sleep(0.25);
        t(ctx);
        ctx.spawn("peer", h1, move |ctx| {
            let t = |ctx: &mut Ctx| {
                let now = ctx.now();
                ctx.trace("t", now);
            };
            t(ctx);
            let _ = ctx.recv(k_a);
            t(ctx);
            ctx.send(k_b, h0, 2e5, Box::new(()));
            t(ctx);
            let _ = ctx.recv(k_c);
            t(ctx);
            ctx.isend(k_d, h0, 3e5, Box::new(7u32));
            t(ctx);
        });
        t(ctx);
        ctx.send(k_a, h1, 1e5, Box::new(()));
        t(ctx);
        let _ = ctx.recv(k_b);
        t(ctx);
        ctx.isend(k_c, h1, 1e5, Box::new(()));
        t(ctx);
        ctx.sleep(1.0);
        t(ctx);
        let got = ctx.try_recv(k_d);
        assert_eq!(
            *got.expect("eager message arrived")
                .downcast::<u32>()
                .unwrap(),
            7
        );
        t(ctx);
        assert!(ctx.try_recv(k_empty).is_none());
        t(ctx);
        ctx.transfer(h1, 1e6);
        t(ctx);
        ctx.inject_load(h0, 1.0);
        t(ctx);
        ctx.compute(5e8);
        t(ctx);
        ctx.remove_load(h0, 1.0);
        t(ctx);
        ctx.compute(0.0);
        t(ctx);
        ctx.sleep(0.0);
        t(ctx);
    });
    eng.run()
}

#[test]
fn every_grant_carries_the_kernel_clock() {
    let report = run();
    assert_eq!(report.completed.len(), 2, "{report:?}");
    let stamps: Vec<(Option<ProcId>, f64, f64)> = report
        .trace
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            TraceKind::Custom { label, value } if label.as_ref() == "t" => {
                Some((r.pid, r.t, *value))
            }
            _ => None,
        })
        .collect();
    assert_eq!(stamps.len(), 21, "one record per primitive");
    for &(pid, t, value) in &stamps {
        assert_eq!(
            t.to_bits(),
            value.to_bits(),
            "{pid:?} read {value} while the kernel was at {t}"
        );
    }
    // The script does move the clock: compute, sleep, the rendezvous
    // send, the recv, the long sleep, the transfer and the loaded compute
    // each take virtual time; the at-once calls take none.
    let main: Vec<f64> = stamps
        .iter()
        .filter(|s| s.0 == Some(ProcId(0)))
        .map(|s| s.1)
        .collect();
    assert_eq!(main[0], 0.125, "the start grant stamps the start time");
    assert!(main.windows(2).all(|w| w[0] <= w[1]), "{main:?}");
    let distinct = main.windows(2).filter(|w| w[0] < w[1]).count();
    assert_eq!(distinct, 7, "{main:?}");
}
