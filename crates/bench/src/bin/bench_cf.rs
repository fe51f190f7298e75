//! Emits `BENCH_cf.json`: the packed-key CF hot path timed against the
//! unpacked reference implementation (`auric_bench::legacy`) at the medium
//! (evaluation-default) scale.
//!
//! Two workloads are measured, best-of-N wall clock each:
//!   * `fit` — `CfModel::fit` over the whole network, and
//!   * `local_loo` — a leave-one-out local recommendation for every
//!     parameter at every carrier and pair (the accuracy-report loop).
//!
//! Run with `cargo run --release -p auric-bench --bin bench_cf`; debug
//! builds are rejected because the numbers would be meaningless.

use std::hint::black_box;
use std::time::Instant;

use auric_bench::legacy::LegacyCfModel;
use auric_bench::{local_loo_sweep, local_loo_sweep_legacy};
use auric_core::{fit_worker_threads, CfConfig, CfModel, FitOptions, Scope};
use auric_netgen::{generate, NetScale, TuningKnobs};
use auric_obs::Recorder;
use serde_json::json;

const REPS: usize = 3;

/// Best-of-`REPS` wall-clock seconds for `f`.
fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("bench_cf: refusing to time a debug build; use --release");
        std::process::exit(2);
    }

    let scale = NetScale::medium();
    eprintln!(
        "bench_cf: generating medium network ({} markets x {} eNBs)...",
        scale.n_markets, scale.enbs_per_market
    );
    let net = generate(&scale, &TuningKnobs::default());
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let config = CfConfig::default();

    // Untimed warm-up: fault in the snapshot and heap before any timed
    // rep, so the first workload measured doesn't absorb the cold-start
    // cost the later ones skip.
    black_box(CfModel::fit(snap, &scope, config));

    eprintln!("bench_cf: timing fit ({REPS} reps each)...");
    let (fit_packed_s, packed) = best_of(|| CfModel::fit(snap, &scope, config));
    let (fit_legacy_s, legacy) = best_of(|| LegacyCfModel::fit(snap, &scope, config));
    // The worker count `fit` actually uses — NOT the machine's total
    // parallelism: fit clamps to the number of parameters.
    let fit_threads = fit_worker_threads(snap.catalog.len());
    eprintln!("bench_cf: timing single-thread fit ({REPS} reps)...");
    let (fit_single_s, _) = best_of(|| {
        CfModel::fit_with(
            snap,
            &scope,
            config,
            FitOptions {
                threads: Some(1),
                ..FitOptions::default()
            },
        )
    });
    eprintln!("bench_cf: timing recorder overhead (paired, {REPS} reps)...");
    // Overhead is measured from *interleaved* pairs — one disabled fit
    // immediately followed by one recorder-enabled fit — rather than
    // comparing against `fit_packed_s` from an earlier timing window.
    // On this workload, identical code paths timed minutes apart drift
    // by ~10% (allocator/page-cache state), which an earlier layout of
    // this bench reported as recorder overhead.
    let mut fit_base_s = f64::INFINITY;
    let mut fit_obs_s = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(CfModel::fit(snap, &scope, config));
        fit_base_s = fit_base_s.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(CfModel::fit_with(
            snap,
            &scope,
            config,
            FitOptions {
                obs: Recorder::wall(),
                threads: None,
                key_cache: None,
            },
        ));
        fit_obs_s = fit_obs_s.min(t0.elapsed().as_secs_f64());
    }
    let obs_overhead_pct = 100.0 * (fit_obs_s - fit_base_s) / fit_base_s;

    eprintln!("bench_cf: timing local leave-one-out sweep ({REPS} reps each)...");
    let (loo_packed_s, sum_packed) = best_of(|| local_loo_sweep(snap, &scope, &packed));
    let (loo_legacy_s, sum_legacy) = best_of(|| local_loo_sweep_legacy(snap, &scope, &legacy));
    assert_eq!(
        sum_packed, sum_legacy,
        "packed and legacy sweeps disagree — the timing comparison is void"
    );

    let fit_speedup = fit_legacy_s / fit_packed_s;
    let loo_speedup = loo_legacy_s / loo_packed_s;
    let report = json!({
        "bench": "cf_hot_path",
        "scale": "medium",
        "n_markets": scale.n_markets,
        "enbs_per_market": scale.enbs_per_market,
        "n_carriers": snap.n_carriers(),
        "n_pairs": snap.x2.n_pairs(),
        "n_params": snap.catalog.len(),
        "threads": fit_threads,
        "reps": REPS,
        "fit": json!({
            "legacy_s": fit_legacy_s,
            "packed_s": fit_packed_s,
            "speedup": fit_speedup,
            "single_thread_s": fit_single_s,
            "thread_speedup": fit_single_s / fit_packed_s,
            "obs_paired_base_s": fit_base_s,
            "obs_enabled_s": fit_obs_s,
            "obs_overhead_pct": obs_overhead_pct,
        }),
        "local_loo_sweep": json!({
            "legacy_s": loo_legacy_s,
            "packed_s": loo_packed_s,
            "speedup": loo_speedup,
            "checksum": sum_packed,
        }),
    });
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_cf.json", &text).expect("write BENCH_cf.json");
    println!("{text}");
    eprintln!(
        "bench_cf: fit {fit_speedup:.2}x vs legacy ({fit_threads} threads, \
         {ts:.2}x vs single-thread, obs overhead {obs_overhead_pct:+.1}%), \
         local LoO sweep {loo_speedup:.2}x (wrote BENCH_cf.json)",
        ts = fit_single_s / fit_packed_s,
    );
}
