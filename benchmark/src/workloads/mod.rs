//! The six workloads. Each stresses different layers; `spec::WORKLOADS`
//! says why each exists.

pub mod apps_mixed;
pub mod cluster_fwd;
pub mod native_hot;
pub mod sim_counter;
pub mod wire;

use crate::harness::{epochs, Plan, RunResult};
use crate::rng::Rng;
use crate::span::SpanBuf;

/// Runs the workload called `name` (one of `spec::WORKLOADS`); with
/// `traced`, also returns the spans it recorded. `None` for an unknown name.
pub fn run(name: &str, plan: &Plan, traced: bool) -> Option<(RunResult, Vec<SpanBuf>)> {
    Some(match name {
        "native-hot" => epochs(plan, |p| native_hot::run(p, traced)),
        "apps-mixed" => epochs(plan, |p| apps_mixed::run(p, traced)),
        "wire-closed" => epochs(plan, |p| wire::run(p, wire::Loop::Closed, traced)),
        "wire-open" => epochs(plan, |p| wire::run(p, wire::Loop::Open, traced)),
        "cluster-fwd" => epochs(plan, |p| cluster_fwd::run(p, traced)),
        // Every simulator run builds its own machine: a round is an epoch.
        "sim-counter36" => sim_counter::run(plan, traced),
        _ => return None,
    })
}

/// A seeded shuffle of the keys `1..=n`, dealt round-robin to `clients`
/// owners: which key lands on which shard, slot or rank follows the seed,
/// and no two clients share a key, so each can hold an exact oracle.
pub fn deal_keys(seed: u64, stream: u64, n: usize, clients: usize) -> Vec<Vec<u64>> {
    let mut rng = Rng::stream(seed, stream);
    let mut keys: Vec<u64> = (1..=n as u64).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..clients)
        .map(|c| keys.iter().copied().skip(c).step_by(clients).collect())
        .collect()
}
