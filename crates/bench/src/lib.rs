//! Shared fixtures for the criterion benchmark targets.
//!
//! Every bench target regenerates one of the paper's tables or figures
//! (or an ablation of a design choice DESIGN.md calls out) at a bench-
//! friendly scale; this library holds the common snapshot and model
//! construction so each target measures the same workload. It also holds
//! [`legacy`], the unpacked reference recommender the packed hot path is
//! checked and timed against.

pub mod legacy;

use auric_core::{CfConfig, CfModel, Scope};
use auric_model::{NetworkSnapshot, ParamKind};
use auric_netgen::{generate, GeneratedNetwork, NetScale, TuningKnobs};
use legacy::LegacyCfModel;

/// The standard bench network: tiny scale, default tuning, fixed seed.
pub fn bench_network() -> GeneratedNetwork {
    generate(&NetScale::tiny(), &TuningKnobs::default())
}

/// A slightly larger network for the experiment-level benches.
pub fn bench_network_small() -> GeneratedNetwork {
    generate(
        &NetScale {
            n_markets: 2,
            enbs_per_market: 16,
            seed: 7,
        },
        &TuningKnobs::default(),
    )
}

/// A fitted whole-network CF model over the bench network.
pub fn fitted(net: &GeneratedNetwork) -> (Scope, CfModel) {
    let scope = Scope::whole(&net.snapshot);
    let model = CfModel::fit(&net.snapshot, &scope, CfConfig::default());
    (scope, model)
}

/// The full leave-one-out local-recommendation sweep on the packed-key
/// path: every parameter, every in-scope carrier or pair. This is the
/// accuracy-evaluation hot loop; the checksum keeps the work observable.
pub fn local_loo_sweep(snap: &NetworkSnapshot, scope: &Scope, model: &CfModel) -> u64 {
    let mut checksum = 0u64;
    for def in snap.catalog.defs() {
        match def.kind {
            ParamKind::Singular => {
                for &c in &scope.carriers {
                    checksum += model.recommend_local_singular(snap, def.id, c, true).value as u64;
                }
            }
            ParamKind::Pairwise => {
                for &q in &scope.pairs {
                    checksum += model.recommend_local_pair(snap, def.id, q, true).value as u64;
                }
            }
        }
    }
    checksum
}

/// The same sweep on the unpacked reference implementation.
pub fn local_loo_sweep_legacy(snap: &NetworkSnapshot, scope: &Scope, model: &LegacyCfModel) -> u64 {
    let mut checksum = 0u64;
    for def in snap.catalog.defs() {
        match def.kind {
            ParamKind::Singular => {
                for &c in &scope.carriers {
                    checksum += model.recommend_local_singular(snap, def.id, c, true).value as u64;
                }
            }
            ParamKind::Pairwise => {
                for &q in &scope.pairs {
                    checksum += model.recommend_local_pair(snap, def.id, q, true).value as u64;
                }
            }
        }
    }
    checksum
}

/// Run options pinning every experiment bench to the tiny scale.
pub fn bench_opts() -> auric_eval::RunOptions {
    auric_eval::RunOptions {
        scale: Some(NetScale::tiny()),
        knobs: TuningKnobs::default(),
        seed: 7,
        ..Default::default()
    }
}
