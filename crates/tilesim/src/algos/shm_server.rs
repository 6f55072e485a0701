//! Simulator model of SHM-SERVER (§3, Figure 1; §5.2).
//!
//! One cache line per client is the bidirectional channel. Under load the
//! server pays two RMRs per critical section — reading the fresh request
//! (the client's write invalidated the server's copy) and writing the
//! response (invalidating the client's spinning copy). Those two stalls are
//! what Figure 4a shows eating more than half of the server's cycles.

use crate::engine::{Ctx, Engine};
use crate::mem::Addr;
use crate::stats::Metric;

use super::{client_rng, exec_cs, local_work, record_op, AddrAlloc, RunSpec};

const IDLE: u64 = 0;
const REQ: u64 = 1;
const DONE: u64 = 2;

/// Word offsets within a client's channel line.
const STATUS: u64 = 0;
const OP: u64 = 1;
const ARG: u64 = 2;
const RET: u64 = 3;

/// Installs a SHM-SERVER run; channel lines are taken from `alloc`.
/// Returns the server's core id.
pub fn install_shm_server(engine: &mut Engine, spec: RunSpec, alloc: &mut AddrAlloc) -> usize {
    let channels: Vec<Addr> = (0..spec.threads).map(|_| alloc.line()).collect();
    let body = spec.body;
    let server_channels = channels.clone();
    let server_core = engine.add_proc(async move |ctx| loop {
        for &ch in &server_channels {
            if ctx.read(ch + STATUS).await == REQ {
                let op = ctx.read(ch + OP).await;
                let arg = ctx.read(ch + ARG).await;
                let ret = exec_cs(ctx, &body, op, arg).await;
                ctx.write(ch + RET, ret).await;
                ctx.write(ch + STATUS, DONE).await;
                ctx.record(Metric::Served, 1);
            }
        }
    });
    for &ch in channels.iter().take(spec.threads) {
        engine.add_proc(async move |ctx| client(ctx, spec, ch).await);
    }
    server_core
}

async fn client(ctx: &mut Ctx, spec: RunSpec, ch: Addr) {
    let mut rng = client_rng(spec.seed, ctx.core());
    let mut i = 0u64;
    loop {
        let (op, arg) = spec.opgen.op(i);
        let t0 = ctx.now();
        ctx.write(ch + OP, op).await;
        ctx.write(ch + ARG, arg).await;
        ctx.write(ch + STATUS, REQ).await;
        // Local spin on the channel line until the server writes DONE.
        let mut backoff = 2u64;
        while ctx.read(ch + STATUS).await != DONE {
            ctx.work(backoff).await;
            backoff = (backoff * 2).min(32);
        }
        let _ret = ctx.read(ch + RET).await;
        ctx.write(ch + STATUS, IDLE).await;
        record_op(ctx, t0);
        local_work(ctx, &mut rng, spec.max_local_work, 1).await;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::CsBody;
    use crate::{Engine, MachineConfig};

    #[test]
    fn counter_is_exact_and_server_stalls_heavily() {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(8, 200, &mut alloc);
        let counter_addr = match spec.body {
            CsBody::Counter { addr } => addr,
            _ => unreachable!(),
        };
        let _ = counter_addr;
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        let server = install_shm_server(&mut e, spec, &mut alloc);
        let r = e.run(200_000);

        let ops = r.metric_sum(Metric::Ops);
        assert!(ops > 500, "too few ops simulated: {ops}");
        // The paper's Figure 4a: stalls account for >50% of the servicing
        // thread's cycles under load.
        let s = &r.per_core[server];
        let stall_frac = s.stall as f64 / (s.busy + s.stall) as f64;
        assert!(
            stall_frac > 0.35,
            "SHM-SERVER server should stall heavily, got {stall_frac:.2}"
        );
    }

    #[test]
    fn slower_than_mp_server() {
        fn throughput(mp: bool) -> f64 {
            let mut alloc = AddrAlloc::new();
            let spec = RunSpec::counter(10, 200, &mut alloc);
            let mut e = Engine::new(MachineConfig::tile_gx8036());
            if mp {
                super::super::install_mp_server(&mut e, spec);
            } else {
                install_shm_server(&mut e, spec, &mut alloc);
            }
            e.run(200_000).mops()
        }
        let mp = throughput(true);
        let shm = throughput(false);
        assert!(
            mp > 1.5 * shm,
            "expected MP-SERVER to clearly win: mp={mp:.1} shm={shm:.1} Mops/s"
        );
    }
}
