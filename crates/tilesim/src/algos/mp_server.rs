//! Simulator model of MP-SERVER (§4.1, Figure 2).
//!
//! The server proc loops `receive(3) → execute CS → send(response)`. The
//! receive reads the core-local hardware queue — no coherence involvement —
//! and the send is asynchronous, so under load the server's critical path
//! contains no stalls at all: the property Figure 4a measures.

use crate::engine::{Ctx, Engine};
use crate::stats::Metric;

use super::{client_loop, exec_cs, CsBody, RunSpec};

/// Installs an MP-SERVER run: the server on the engine's next core, then
/// `spec.threads` client procs. Returns the server's core id.
pub fn install_mp_server(engine: &mut Engine, spec: RunSpec) -> usize {
    let body = spec.body;
    let server_core = engine.add_proc(async move |ctx| serve(ctx, body).await);
    for _ in 0..spec.threads {
        engine.add_proc(async move |ctx| {
            client_loop(ctx, spec, async |ctx, op, arg| {
                ctx.send(server_core, &[ctx.core() as u64, op, arg]).await;
                ctx.receive1().await;
            })
            .await
        });
    }
    server_core
}

/// The server loop (also reused by the two-lock queue's second server).
pub(crate) async fn serve(ctx: &mut Ctx, body: CsBody) {
    loop {
        let [sender, op, arg] = ctx.receive3().await;
        let ret = exec_cs(ctx, &body, op, arg).await;
        ctx.send(sender as usize, &[ret]).await;
        ctx.record(Metric::Served, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::AddrAlloc;
    use crate::{Engine, MachineConfig};

    #[test]
    fn counter_is_exact_and_server_barely_stalls() {
        let cfg = MachineConfig::tile_gx8036();
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(8, 200, &mut alloc);
        let counter_addr = match spec.body {
            CsBody::Counter { addr } => addr,
            _ => unreachable!(),
        };
        let mut e = Engine::new(cfg);
        let server = install_mp_server(&mut e, spec);
        let _ = counter_addr;
        let r = e.run(200_000);

        let ops = r.metric_sum(Metric::Ops);
        let served = r.metric(server, Metric::Served);
        assert!(ops > 1_000, "too few ops simulated: {ops}");
        // Every client op was served (clients may have one op in flight at
        // teardown).
        assert!(served >= ops && served <= ops + 9);
        // The headline property: the servicing core's stall share is tiny.
        let s = &r.per_core[server];
        let stall_frac = s.stall as f64 / (s.busy + s.stall) as f64;
        assert!(
            stall_frac < 0.15,
            "MP-SERVER server should barely stall, got {stall_frac:.2}"
        );
    }

    #[test]
    fn latency_recorded() {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(4, 200, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        install_mp_server(&mut e, spec);
        let r = e.run(100_000);
        assert!(r.avg_latency() > 0.0);
        assert_eq!(r.metric_sum(Metric::LatCount), r.metric_sum(Metric::Ops));
    }

    #[test]
    fn deterministic() {
        fn once() -> (u64, f64) {
            let mut alloc = AddrAlloc::new();
            let spec = RunSpec::counter(6, 200, &mut alloc);
            let mut e = Engine::new(MachineConfig::tile_gx8036());
            install_mp_server(&mut e, spec);
            let r = e.run(50_000);
            (r.metric_sum(Metric::Ops), r.avg_latency())
        }
        assert_eq!(once(), once());
    }
}
