//! `fleet_build`: per-market fits with a shared key cache, the local
//! leave-one-out sweep over every parameter value, and the same
//! per-market models stood up from an empty fleet through
//! `stream` → `apply_fleet_deltas` → `CfModel::apply_delta`.
//!
//! Gate: every sweep reproduces the pinned checksum and accuracy of the
//! medium fleet; every stood-up market model serializes byte for byte
//! like the batch fit of the same market; and a whole-fleet batch fit
//! still gives `bench_cf`'s whole-fleet sweep checksum.

use std::hint::black_box;
use std::time::{Duration, Instant};

use auric_core::dependency::select_dependent_with_obs_in;
use auric_core::{Basis, CfConfig, CfModel, DeltaApply, FitOptions, Scope, SharedKeyColumns};
use auric_model::{
    apply_fleet_deltas, empty_snapshot, AttrArena, MarketId, NetworkSnapshot, ParamKind,
};
use auric_netgen::{generate, stream};
use auric_obs::Recorder;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::affinity;
use crate::report::Report;
use crate::stats::{
    median, median_us, quantile, samples_beyond, sorted_quantile, sorted_us, MIN_BEYOND,
};
use crate::trace::Tracer;
use crate::{medium, peak_rss_mb, secs, Args, SETUP_REPS};

/// Leave-one-out values in one sweep of the medium fleet.
const LOO_VALUES: u64 = 1_267_188;
/// Correct values of the per-market local sweep of the medium fleet.
const LOO_CORRECT: u64 = 1_228_827;
/// Sum of recommended value indices of the per-market local sweep.
const LOO_CHECKSUM: u64 = 57_577_797;
/// `bench_cf`'s whole-fleet local sweep checksum for the medium fleet.
const WHOLE_FLEET_LOO_CHECKSUM: u64 = 57_016_169;

/// The timed phase runs at least `MIN_ROUNDS` rounds and until
/// `--seconds` have passed; each metric is the median of its samples.
const MIN_ROUNDS: usize = 3;
const FITS_PER_ROUND: usize = 2;
const SWEEPS_PER_ROUND: usize = 2;
/// One leave-one-out call in `SAMPLE_EVERY` is timed on its own.
const SAMPLE_EVERY: u64 = 32;

pub(crate) const BASES: [(&str, Basis); 5] = [
    ("local_vote", Basis::LocalVote),
    ("global_vote", Basis::GlobalVote),
    ("group_majority", Basis::GroupMajority),
    ("global_majority", Basis::GlobalMajority),
    ("default", Basis::Default),
];

/// The order markets are fitted in, shuffled by the seed. Fits over a
/// shared key cache give the same models in any order.
fn market_order(n: usize, seed: u64) -> Vec<MarketId> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF17_0DE5);
    let mut order: Vec<MarketId> = (0..n).map(|m| MarketId(m as u16)).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// Per-market models of one fit of the fleet, indexed by market.
pub(crate) struct FleetFit {
    scopes: Vec<Scope>,
    pub(crate) models: Vec<CfModel>,
    pub(crate) market_ms: Vec<f64>,
    keycols: SharedKeyColumns,
    pub(crate) elapsed: Duration,
}

pub(crate) fn fit_fleet(
    snap: &NetworkSnapshot,
    order: &[MarketId],
    obs: &Recorder,
    tracer: &Tracer,
) -> FleetFit {
    let keycols = SharedKeyColumns::new();
    let mut slots: Vec<Option<(Scope, CfModel, f64)>> = order.iter().map(|_| None).collect();
    let ((), elapsed) = tracer.span("core.fit_fleet", 0, 0, |parent| {
        for &m in order {
            let scope = Scope::market(snap, m);
            let opts = FitOptions {
                obs: obs.clone(),
                threads: None,
                key_cache: Some(keycols.clone()),
            };
            let (model, d) = tracer.span("core.fit_market", parent, u64::from(m.0), |_| {
                CfModel::fit_with(snap, &scope, CfConfig::default(), opts)
            });
            slots[m.index()] = Some((scope, model, secs(d) * 1e3));
        }
    });
    let mut fit = FleetFit {
        scopes: Vec::new(),
        models: Vec::new(),
        market_ms: Vec::new(),
        keycols,
        elapsed,
    };
    for (scope, model, ms) in slots.into_iter().map(|s| s.expect("every market fitted")) {
        fit.scopes.push(scope);
        fit.models.push(model);
        fit.market_ms.push(ms);
    }
    fit
}

/// Outcome of a leave-one-out sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sweep {
    checksum: u64,
    correct: u64,
    values: u64,
    by_basis: [u64; 5],
}

impl Sweep {
    fn add(&mut self, o: &Sweep) {
        self.checksum += o.checksum;
        self.correct += o.correct;
        self.values += o.values;
        for (a, b) in self.by_basis.iter_mut().zip(o.by_basis) {
            *a += b;
        }
    }
}

/// Wall times of single leave-one-out calls, by parameter kind.
#[derive(Default)]
struct CallSamples {
    singular_ns: Vec<u64>,
    pairwise_ns: Vec<u64>,
}

impl CallSamples {
    fn all_us(&self) -> Vec<f64> {
        let mut ns = self.singular_ns.clone();
        ns.extend_from_slice(&self.pairwise_ns);
        sorted_us(&ns)
    }
}

/// Starts the clock on every [`SAMPLE_EVERY`]th call when sampling.
fn sample_start(n: &mut u64, sampling: bool) -> Option<Instant> {
    *n += 1;
    (sampling && *n % SAMPLE_EVERY == 0).then(Instant::now)
}

/// The local leave-one-out sweep of `model` over every parameter value
/// in `scope`, timing one call in [`SAMPLE_EVERY`] into `samples`.
fn sweep_scope(
    snap: &NetworkSnapshot,
    scope: &Scope,
    model: &CfModel,
    mut samples: Option<&mut CallSamples>,
) -> Sweep {
    let mut s = Sweep::default();
    let mut n = 0;
    let mut tally = |value: u16, current: u16, basis: Basis| {
        s.checksum += u64::from(value);
        s.correct += u64::from(value == current);
        s.values += 1;
        let slot = BASES.iter().position(|(_, b)| *b == basis);
        s.by_basis[slot.expect("every basis is listed")] += 1;
    };
    for def in snap.catalog.defs() {
        match def.kind {
            ParamKind::Singular => {
                for &c in &scope.carriers {
                    let t0 = sample_start(&mut n, samples.is_some());
                    let r = model.recommend_local_singular(snap, def.id, c, true);
                    if let (Some(t0), Some(x)) = (t0, samples.as_deref_mut()) {
                        x.singular_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                    tally(r.value, snap.config.value(def.id, c), r.basis);
                }
            }
            ParamKind::Pairwise => {
                for &q in &scope.pairs {
                    let t0 = sample_start(&mut n, samples.is_some());
                    let r = model.recommend_local_pair(snap, def.id, q, true);
                    if let (Some(t0), Some(x)) = (t0, samples.as_deref_mut()) {
                        x.pairwise_ns.push(t0.elapsed().as_nanos() as u64);
                    }
                    tally(r.value, snap.config.pair_value(def.id, q), r.basis);
                }
            }
        }
    }
    s
}

fn sweep_fleet(
    snap: &NetworkSnapshot,
    fit: &FleetFit,
    samples: &mut CallSamples,
    tracer: &Tracer,
) -> (Sweep, Duration) {
    tracer.span("core.loo_fleet", 0, 0, |parent| {
        let mut total = Sweep::default();
        for (m, (scope, model)) in fit.scopes.iter().zip(&fit.models).enumerate() {
            let (s, _) = tracer.span("core.loo_market", parent, m as u64, |_| {
                sweep_scope(snap, scope, model, Some(&mut *samples))
            });
            total.add(&s);
        }
        total
    })
}

/// One stand-up of the fleet from empty.
#[derive(Default)]
struct StandUp {
    models: Vec<CfModel>,
    carriers: usize,
    batches: u64,
    elapsed: Duration,
    stream: Duration,
    apply_deltas: Duration,
    arena_append: Duration,
    build: Duration,
    retune: Duration,
    untouched: u64,
    patched: u64,
    rebuilt: u64,
    /// Per batch: `apply_fleet_deltas` + `AttrArena::append` + every
    /// market's `apply_delta`, and the first two alone.
    batch_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    append_ms: Vec<f64>,
    /// One market model rolled forward over one batch.
    market_apply_ms: Vec<f64>,
}

/// Streams the medium fleet into an empty snapshot batch by batch and
/// rolls one model per market forward over each batch, all markets
/// sharing one key-column cache per batch.
fn stand_up(obs: &Recorder, tracer: &Tracer) -> Result<StandUp, String> {
    let (scale, knobs) = medium();
    let config = CfConfig::default();
    let mut fleet = stream(&scale, &knobs);
    let mut snap = empty_snapshot(fleet.schema().clone(), fleet.catalog().clone());
    let mut arena = AttrArena::from_snapshot(&snap);
    let empty = Scope {
        carriers: Vec::new(),
        pairs: Vec::new(),
    };
    let mut scopes = vec![empty.clone(); scale.n_markets];
    let models = (0..scale.n_markets)
        .map(|_| {
            let mut m = CfModel::fit(&snap, &empty, config);
            m.set_recorder(obs.clone());
            m
        })
        .collect();
    let mut out = StandUp {
        models,
        ..StandUp::default()
    };

    let (result, elapsed) = tracer.span("fleet.standup", 0, 0, |root| -> Result<(), String> {
        loop {
            let (batch, d) = tracer.span("netgen.stream", root, 0, |_| fleet.next_batch());
            out.stream += d;
            let Some(batch) = batch else { return Ok(()) };
            let (digest, d) = tracer.span("model.apply_deltas", root, 0, |_| {
                apply_fleet_deltas(&mut snap, &batch)
            });
            out.apply_deltas += d;
            let mut batch_d = d;
            out.apply_ms.push(secs(d) * 1e3);
            let digest = digest.map_err(|e| format!("stand-up batch {}: {e}", out.batches))?;
            let ((), d) = tracer.span("model.arena_append", root, 0, |_| arena.append(&snap));
            out.arena_append += d;
            batch_d += d;
            out.append_ms.push(secs(d) * 1e3);
            let structural = digest.structural();
            let name = if structural {
                "core.apply_delta_build"
            } else {
                "core.apply_delta_retune"
            };
            let ((), d) = tracer.span(name, root, 0, |_| {
                let keycols = SharedKeyColumns::new();
                for (m, model) in out.models.iter_mut().enumerate() {
                    let after = if m < snap.markets.len() {
                        Scope::market(&snap, MarketId(m as u16))
                    } else {
                        empty.clone()
                    };
                    let before = std::mem::replace(&mut scopes[m], after);
                    let t0 = Instant::now();
                    let rep = model.apply_delta(&DeltaApply {
                        snapshot: &snap,
                        arena: &arena,
                        scope_before: &before,
                        scope_after: &scopes[m],
                        batch: &digest,
                        key_cache: Some(keycols.clone()),
                    });
                    out.market_apply_ms.push(secs(t0.elapsed()) * 1e3);
                    out.untouched += rep.params_untouched as u64;
                    out.patched += rep.params_patched as u64;
                    out.rebuilt += rep.params_rebuilt as u64;
                }
            });
            batch_d += d;
            out.batch_ms.push(secs(batch_d) * 1e3);
            if structural {
                out.build += d;
            } else {
                out.retune += d;
            }
            out.batches += 1;
        }
    });
    result?;
    out.elapsed = elapsed;
    out.carriers = snap.n_carriers();
    Ok(out)
}

/// Compares model JSON market by market; one message per mismatch,
/// naming the first differing byte.
pub fn model_json_mismatches(stood_up: &[String], batch: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    if stood_up.len() != batch.len() {
        out.push(format!(
            "{} stood-up models vs {} batch fits",
            stood_up.len(),
            batch.len()
        ));
    }
    for (m, (a, b)) in stood_up.iter().zip(batch).enumerate() {
        if a != b {
            let at = a
                .bytes()
                .zip(b.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or(a.len().min(b.len()));
            out.push(format!(
                "market {m}: stood-up model JSON differs from the batch fit at byte {at} \
                 ({} vs {} bytes)",
                a.len(),
                b.len()
            ));
        }
    }
    out
}

pub(crate) fn to_json(models: &[CfModel]) -> Vec<String> {
    models
        .iter()
        .map(|m| serde_json::to_string(m).expect("model serializes"))
        .collect()
}

/// The fit layer's metrics from traced fits: per-market fit times over
/// all of them, and the key columns and vote groups of one.
pub(crate) fn fit_layers(r: &mut Report, market_ms: &mut [f64], fit: &FleetFit, vote_groups: u64) {
    r.layer(
        "core.fit_market_ms_p50",
        sorted_quantile(market_ms, 1, 2).unwrap_or(f64::NAN),
        "ms",
    );
    r.layer(
        "core.fit_market_ms_max",
        market_ms.last().copied().unwrap_or(f64::NAN),
        "ms",
    );
    r.layer("core.keycol_built", fit.keycols.built() as f64, "count");
    r.layer("core.keycol_shared", fit.keycols.shared() as f64, "count");
    r.layer(
        "core.keycol_mb",
        fit.keycols.bytes() as f64 / (1 << 20) as f64,
        "MiB",
    );
    r.layer("core.vote_groups", vote_groups as f64, "count");
}

/// Reports the nearest-rank `num/den` quantile of the ascending
/// `sorted` samples as end-to-end metric `name`. Fewer than
/// [`MIN_BEYOND`] samples beyond it fail the run.
pub(crate) fn e2e_quantile(
    r: &mut Report,
    name: &str,
    unit: &'static str,
    sorted: &[f64],
    (num, den): (usize, usize),
) {
    r.check(samples_beyond(sorted.len(), num, den) >= MIN_BEYOND, || {
        format!(
            "{name}: {} samples, fewer than {MIN_BEYOND} beyond the {num}/{den} quantile",
            sorted.len()
        )
    });
    r.e2e(name, quantile(sorted, num, den).unwrap_or(f64::NAN), unit);
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut r = Report::default();
    let quiet = Tracer::new(false);
    let (scale, knobs) = medium();
    let order = market_order(scale.n_markets, args.seed);
    let traced = tracer.on();

    // Set-up: generate the fleet, then an untimed warm-up fit and sweep.
    // The repeats for `setup_s` run after the timed phases, so the peak
    // RSS is that of one set-up plus the phases.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let (net, d) = tracer.span("netgen.generate", 0, 0, |_| generate(&scale, &knobs));
        let warm = fit_fleet(&net.snapshot, &order, &Recorder::disabled(), &quiet);
        black_box(sweep_fleet(
            &net.snapshot,
            &warm,
            &mut CallSamples::default(),
            &quiet,
        ));
        setup_s.push(secs(t0.elapsed()));
        generate_s.push(secs(d));
        net
    };
    let net = set_up();
    let snap = &net.snapshot;

    // Timed rounds of fits, sweeps and a stand-up. Interleaving spreads
    // each phase's samples over the whole run, so a slow spell of the
    // shared host lands a little on every phase instead of wholly on one.
    // The sweeps and the stand-up are single-threaded and run pinned to
    // one CPU; the fits use every CPU. A traced round pairs each untraced
    // fit with a traced one, which gives the tracing overhead.
    let cpus = affinity::allowed_cpus();
    let mut pinned = false;
    let loo_obs = Recorder::wall();
    let standup_obs = if traced {
        Recorder::wall()
    } else {
        Recorder::disabled()
    };
    let (mut fit_times, mut traced_fit_times, mut market_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut vote_groups = 0;
    let mut sweeps: Vec<(Sweep, Duration)> = Vec::new();
    let mut calls = CallSamples::default();
    let mut standups = Vec::new();
    let mut batch_ms = Vec::new();
    let mut last: Option<StandUp> = None;
    let mut batch_json = Vec::new();
    let budget = if traced { 0.0 } else { args.seconds };
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(t0.elapsed()) < budget {
        affinity::set(0, &cpus);
        let mut fit = None;
        for _ in 0..FITS_PER_ROUND {
            drop(fit.take());
            let f = fit.insert(fit_fleet(snap, &order, &Recorder::disabled(), &quiet));
            fit_times.push(secs(f.elapsed));
            if traced {
                let obs = Recorder::wall();
                let f = fit_fleet(snap, &order, &obs, tracer);
                traced_fit_times.push(secs(f.elapsed));
                market_ms.extend_from_slice(&f.market_ms);
                vote_groups = obs.counter("cf.fit.groups");
            }
        }
        let mut fit = fit.expect("FITS_PER_ROUND > 0");
        pinned = affinity::set(0, &cpus[..cpus.len().min(1)]);
        if traced && sweeps.is_empty() {
            dependency_pass(snap, &fit, tracer, &mut r);
        }
        if traced {
            for m in &mut fit.models {
                m.set_recorder(loo_obs.clone());
            }
        }
        for _ in 0..SWEEPS_PER_ROUND {
            sweeps.push(sweep_fleet(snap, &fit, &mut calls, tracer));
        }
        // The gate keeps the batch fits as JSON, not as models.
        batch_json = to_json(&fit.models);
        if traced && rounds == 0 {
            fit_layers(&mut r, &mut market_ms, &fit, vote_groups);
        }
        drop(fit);
        drop(last.take());
        match stand_up(&standup_obs, tracer) {
            Ok(s) => {
                standups.push((s.carriers, s.elapsed));
                batch_ms.extend_from_slice(&s.batch_ms);
                last = Some(s);
            }
            Err(e) => {
                r.failed += 1;
                r.errors.push(e);
            }
        }
        rounds += 1;
    }
    let timed_s = secs(t0.elapsed());
    let peak_mb = peak_rss_mb();
    affinity::set(0, &cpus);
    r.check(pinned || cpus.is_empty(), || {
        "could not pin the single-threaded phases to one CPU; refusing to measure unpinned"
            .to_string()
    });

    // Gate.
    let sweep = sweeps[0].0;
    for (i, (s, _)) in sweeps.iter().enumerate() {
        r.check(*s == sweep, || {
            format!("sweep {i} differs from sweep 0: {s:?} vs {sweep:?}")
        });
    }
    r.check(
        sweep.values == LOO_VALUES
            && sweep.correct == LOO_CORRECT
            && sweep.checksum == LOO_CHECKSUM,
        || {
            format!(
                "per-market sweep {sweep:?}; pinned values {LOO_VALUES}, correct {LOO_CORRECT}, \
                 checksum {LOO_CHECKSUM}"
            )
        },
    );
    if let Some(s) = &last {
        for e in model_json_mismatches(&to_json(&s.models), &batch_json) {
            r.failed += 1;
            r.errors.push(e);
        }
        r.check(s.carriers == snap.n_carriers(), || {
            format!(
                "stood up {} carriers, fleet has {}",
                s.carriers,
                snap.n_carriers()
            )
        });
    }
    let whole = Scope::whole(snap);
    let whole_model = CfModel::fit(snap, &whole, CfConfig::default());
    let whole_sweep = sweep_scope(snap, &whole, &whole_model, None);
    r.check(whole_sweep.checksum == WHOLE_FLEET_LOO_CHECKSUM, || {
        format!(
            "whole-fleet sweep checksum {} != pinned {WHOLE_FLEET_LOO_CHECKSUM}",
            whole_sweep.checksum
        )
    });

    for _ in 1..SETUP_REPS {
        black_box(set_up());
    }

    // End-to-end: fit, recommend and absorb a delta, each on this
    // workload's own phase.
    let fit_s = median(&fit_times);
    let loo_rates: Vec<f64> = sweeps
        .iter()
        .map(|(s, d)| s.values as f64 / secs(*d))
        .collect();
    let rec_us = calls.all_us();
    batch_ms.sort_by(f64::total_cmp);
    r.e2e("setup_s", median(&setup_s), "s");
    r.e2e("peak_rss_mb", peak_mb, "MiB");
    r.e2e("fit_s", fit_s, "s");
    r.e2e("recs_per_s", median(&loo_rates), "1/s");
    e2e_quantile(&mut r, "rec_p50_us", "us", &rec_us, (1, 2));
    e2e_quantile(&mut r, "rec_p99_us", "us", &rec_us, (99, 100));
    e2e_quantile(&mut r, "delta_p50_ms", "ms", &batch_ms, (1, 2));
    e2e_quantile(&mut r, "delta_p90_ms", "ms", &batch_ms, (9, 10));
    r.e2e(
        "loo_accuracy",
        sweep.correct as f64 / sweep.values.max(1) as f64,
        "frac",
    );
    let standup_rates: Vec<f64> = standups.iter().map(|&(n, d)| n as f64 / secs(d)).collect();
    r.e2e("standup_carriers_per_s", median(&standup_rates), "1/s");

    r.layer("netgen.generate_s", median(&generate_s), "s");
    if traced {
        r.layer(
            "trace.overhead_frac",
            median(&traced_fit_times) / fit_s - 1.0,
            "frac",
        );
        r.layer(
            "core.recommend_us_p50.singular",
            median_us(&calls.singular_ns),
            "us",
        );
        r.layer(
            "core.recommend_us_p50.pairwise",
            median_us(&calls.pairwise_ns),
            "us",
        );
        let loo_s: Vec<f64> = sweeps.iter().map(|(_, d)| secs(*d)).collect();
        r.layer("core.loo_s", median(&loo_s), "s");
        r.layer(
            "core.rec_backoff_depth_mean",
            histogram_mean(&loo_obs, "cf.rec.backoff_depth"),
            "levels",
        );
        for (i, (name, _)) in BASES.iter().enumerate() {
            r.layer(
                format!("core.rec_basis_{name}_frac"),
                sweep.by_basis[i] as f64 / sweep.values.max(1) as f64,
                "frac",
            );
        }
        if let Some(s) = &last {
            r.layer("model.apply_deltas_ms_p50", median(&s.apply_ms), "ms");
            r.layer("model.arena_append_ms_p50", median(&s.append_ms), "ms");
            r.layer("core.apply_delta_ms_p50", median(&s.market_apply_ms), "ms");
            r.layer("netgen.stream_s", secs(s.stream), "s");
            r.layer("model.apply_deltas_s", secs(s.apply_deltas), "s");
            r.layer("model.arena_append_s", secs(s.arena_append), "s");
            r.layer("core.apply_delta_build_s", secs(s.build), "s");
            r.layer("core.apply_delta_retune_s", secs(s.retune), "s");
            delta_layers(&mut r, s.untouched, s.patched, s.rebuilt);
        }
        let tests = standup_obs.counter("cf.dep.conditional_tests")
            + standup_obs.counter("cf.dep.marginal_tests");
        r.layer(
            "core.standup_dep_tests",
            tests as f64 / rounds as f64,
            "count",
        );
    }

    r.attempted = (fit_times.len() * scale.n_markets) as u64
        + sweeps.len() as u64 * sweep.values
        + last.as_ref().map_or(0, |s| s.batches) * rounds as u64;
    r.info("timed_s", timed_s);
    r.info("pinned", pinned);
    r.info("n_carriers", snap.n_carriers());
    r.info("n_pairs", snap.x2.n_pairs());
    r.info("setup_reps", SETUP_REPS);
    r.info("rounds", rounds);
    r.info("fit_reps", fit_times.len());
    r.info("loo_reps", sweeps.len());
    r.info("loo_values_per_sweep", sweep.values);
    r.info("loo_calls_timed", rec_us.len());
    r.info("standup_reps", standups.len());
    r.info("standup_batches", last.as_ref().map_or(0, |s| s.batches));
    r.info("standup_batches_timed", batch_ms.len());
    r
}

/// How the parameters of every `apply_delta` call were rolled forward.
pub(crate) fn delta_layers(r: &mut Report, untouched: u64, patched: u64, rebuilt: u64) {
    r.layer("core.delta_params_untouched", untouched as f64, "count");
    r.layer("core.delta_params_patched", patched as f64, "count");
    r.layer("core.delta_params_rebuilt", rebuilt as f64, "count");
    let total = (untouched + patched + rebuilt).max(1) as f64;
    r.layer(
        "core.delta_incremental_frac",
        (untouched + patched) as f64 / total,
        "frac",
    );
}

/// χ² selection called directly, per parameter and market scope.
pub(crate) fn dependency_pass(
    snap: &NetworkSnapshot,
    fit: &FleetFit,
    tracer: &Tracer,
    r: &mut Report,
) {
    let arena = AttrArena::from_snapshot(snap);
    let obs = Recorder::wall();
    let alpha = CfConfig::default().alpha;
    let ((), dep) = tracer.span("core.dependency_fleet", 0, 0, |parent| {
        for (m, scope) in fit.scopes.iter().enumerate() {
            for p in snap.catalog.param_ids() {
                tracer.span("core.dependency", parent, m as u64, |_| {
                    black_box(select_dependent_with_obs_in(
                        &arena, snap, scope, p, alpha, &obs,
                    ))
                });
            }
        }
    });
    r.layer("core.dependency_s", secs(dep), "s");
    let tests = obs.counter("cf.dep.conditional_tests") + obs.counter("cf.dep.marginal_tests");
    r.layer("core.dep_tests", tests as f64, "count");
}

/// Mean of histogram `name`, read from the recorder's JSON report.
fn histogram_mean(rec: &Recorder, name: &str) -> f64 {
    let report: serde_json::Value =
        serde_json::from_str(&rec.report_json()).unwrap_or(serde_json::Value::Null);
    let h = &report["histograms"][name];
    match (h["count"].as_f64(), h["sum"].as_f64()) {
        (Some(n), Some(sum)) if n > 0.0 => sum / n,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_netgen::{NetScale, TuningKnobs};

    #[test]
    fn a_mutated_model_json_trips_the_gate() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let order = market_order(net.snapshot.markets.len(), 3);
        let a = to_json(
            &fit_fleet(
                &net.snapshot,
                &order,
                &Recorder::disabled(),
                &Tracer::new(false),
            )
            .models,
        );
        let b = to_json(
            &fit_fleet(
                &net.snapshot,
                &[MarketId(1), MarketId(0)],
                &Recorder::disabled(),
                &Tracer::new(false),
            )
            .models,
        );
        assert!(
            model_json_mismatches(&a, &b).is_empty(),
            "fit order must not change models"
        );

        let mut mutated = b.clone();
        let at = mutated[1]
            .find(|c: char| c.is_ascii_digit())
            .expect("a digit");
        let digit = mutated[1].as_bytes()[at];
        let swapped = if digit == b'9' {
            '0'
        } else {
            (digit + 1) as char
        };
        mutated[1].replace_range(at..=at, &swapped.to_string());
        let errs = model_json_mismatches(&a, &mutated);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("market 1:") && errs[0].contains(&format!("byte {at}")));

        assert!(
            !model_json_mismatches(&a, &b[..1]).is_empty(),
            "a missing model trips it"
        );
    }

    #[test]
    fn market_order_is_a_seeded_permutation() {
        let a = market_order(28, 1);
        let mut sorted = a.clone();
        sorted.sort_by_key(|m| m.0);
        assert_eq!(sorted, (0..28).map(MarketId).collect::<Vec<_>>());
        assert_eq!(a, market_order(28, 1));
        assert_ne!(a, market_order(28, 2));
    }

    #[test]
    fn histogram_mean_reads_the_recorder_report() {
        let rec = Recorder::wall();
        rec.observe("cf.rec.backoff_depth", 1);
        rec.observe("cf.rec.backoff_depth", 4);
        rec.observe("cf.rec.other", 100);
        assert_eq!(histogram_mean(&rec, "cf.rec.backoff_depth"), 2.5);
        assert!(histogram_mean(&rec, "missing").is_nan());
    }
}
