//! `serve_hot_ingest`: a 28-shard medium `Service` driven closed-loop by
//! two client threads on wall-clock time.
//!
//! The markets are split between the clients, so each market's requests
//! come from one thread and its `submitted_us` (wall µs since the
//! service was built) never decreases. Deadlines are an hour out and
//! the fault plan injects nothing, so a rejection or a degraded answer
//! is a failure of the service, not of the load.
//!
//! 95% of each market's requests target three hot carriers, sent as
//! 8-request `call_batch` windows. After every [`reads_per_refresh`]
//! reads answered fleet-wide, client 0 lands a seeded 64-event retune
//! batch through `Service::refit_delta`, which re-patches every shard
//! and clears its cache.
//!
//! Both clients are pinned to one CPU and every shard worker to the
//! other (see [`pin_workers`]). That relies on `Service::new` starting
//! exactly one worker thread per shard; if it starts any other number,
//! the run fails rather than measure unpinned.
//!
//! Gate: `Service::invariant_violations` is empty, every refresh
//! succeeds, every shard ends Ready, a seeded sample of answers equals
//! a direct `recommend_*` call on the shard's model and snapshot of the
//! same epoch, and after the window every served model equals a batch
//! fit of the final snapshot, byte for byte.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

use auric_core::recommend::{
    recommend_pairwise, recommend_singular, ConfigRecommendation, NewCarrier,
};
use auric_core::{CfModel, DeltaApply, Scope, SharedKeyColumns};
use auric_kpi::{KpiReport, TrafficModel};
use auric_model::{
    apply_fleet_deltas, AttrArena, CarrierId, DeltaSlot, FleetDelta, MarketId, NetworkSnapshot,
    PairIdx, ParamKind, Provenance,
};
use auric_netgen::generate;
use auric_obs::Recorder;
use auric_serve::{
    Answer, Body, Rejection, Request, RequestKind, Service, ServiceConfig, ServiceStats,
    ShardFaultPlan, ShardFaultRates, ShardState,
};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::affinity;
use crate::fleet::{
    delta_layers, dependency_pass, e2e_quantile, fit_fleet, fit_layers, model_json_mismatches,
    to_json, FleetFit, BASES,
};
use crate::report::Report;
use crate::stats::{median, median_us, samples_beyond, sorted_quantile, sorted_us};
use crate::trace::Tracer;
use crate::{medium, peak_rss_mb, secs, Args, SETUP_REPS};

const CLIENTS: usize = 2;
/// Requests per `call_batch` window on the hot workload.
const WINDOW: usize = 8;
const HOT_CARRIERS: usize = 3;
const HOT_PERCENT: u64 = 95;
const RETUNE_EVENTS: usize = 64;
/// Reads a shard answers between two refits of it. This is the refit
/// cadence of `bench_serve`'s hot-key scenario, which refits each market
/// after every 200 of its requests.
pub const SHARD_READS_PER_REFIT: u64 = 200;
/// One request in this many is checked against a direct model call.
const VERIFY_EVERY: u64 = 64;
/// Requests per client in the untimed warm-up.
const WARMUP_REQUESTS: u64 = 4000;
/// Virtual deadline slack: an hour, so admission never sheds.
const DEADLINE_SLACK_US: u64 = 3_600_000_000;
/// Refreshes per timed window. `peak_rss_mb` is read when the last of
/// them lands, so it covers a fixed amount of work; 150 also leaves 15
/// samples beyond the refresh p90.
const MIN_REFRESHES: usize = 150;
/// Batch refits of the served fleet after the window; `fit_s` is their
/// median.
const REFITS: usize = 8;

const KINDS: [&str; 4] = ["singular", "pairwise", "cold_start", "kpi"];

/// Splits markets between clients, largest first onto the client with
/// the fewest carriers so far. Every market goes to exactly one client.
pub fn partition_markets(sizes: &[usize], clients: usize) -> Vec<Vec<MarketId>> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&m| (std::cmp::Reverse(sizes[m]), m));
    let mut parts = vec![Vec::new(); clients];
    let mut load = vec![0usize; clients];
    for m in order {
        let k = (0..clients)
            .min_by_key(|&k| (load[k], k))
            .expect("at least one client");
        load[k] += sizes[m];
        parts[k].push(MarketId(m as u16));
    }
    for p in &mut parts {
        p.sort();
    }
    parts
}

/// Reads answered fleet-wide between two refreshes. A refresh refits
/// every shard and the clients spread their requests evenly over the
/// markets, so each shard answers about [`SHARD_READS_PER_REFIT`] reads
/// between two of its refits: 5,600 reads per refresh on the medium
/// fleet.
pub fn reads_per_refresh(n_markets: usize) -> u64 {
    SHARD_READS_PER_REFIT * n_markets as u64
}

/// When client 0 writes: once per `reads_per_write` answered reads.
pub struct WriteSchedule {
    reads_per_write: u64,
    next_at: u64,
}

impl WriteSchedule {
    pub fn new(reads_per_write: u64) -> Self {
        Self {
            reads_per_write,
            next_at: reads_per_write,
        }
    }

    /// Whether a write is due after `reads` answered reads in total; a
    /// long gap owes one write per period.
    pub fn due(&mut self, reads: u64) -> bool {
        if reads < self.next_at {
            return false;
        }
        self.next_at += self.reads_per_write;
        true
    }
}

/// Read-only inputs shared by the clients.
struct Fleet {
    /// Each carrier's market, attributes and X2 neighbors as first
    /// built. Retunes never change them, so requests are built from this
    /// table and the benchmark keeps no snapshot copy of its own.
    carriers: Vec<(MarketId, NewCarrier)>,
    /// Carriers of each market.
    by_market: Vec<Vec<CarrierId>>,
    kpi: KpiReport,
    /// The markets each client sends requests for.
    plans: Vec<Vec<MarketId>>,
    hot: Vec<Vec<CarrierId>>,
    /// Fleet-wide answered reads between two refreshes.
    reads_per_refresh: u64,
    /// The CPU the clients run on, when there is more than one CPU.
    client_cpu: Option<usize>,
}

/// Mutable serving state.
struct Live {
    clock: Instant,
    ingest: Mutex<Ingest>,
    /// The snapshot the shards serve against, published after each
    /// refresh.
    current: RwLock<Arc<NetworkSnapshot>>,
    /// Odd while a refresh is swapping shards.
    generation: AtomicU64,
    submitted: Vec<AtomicU64>,
}

struct Ingest {
    arena: AttrArena,
    rng: ChaCha8Rng,
}

impl Live {
    fn now_us(&self) -> u64 {
        self.clock.elapsed().as_micros() as u64
    }
}

#[derive(Default)]
struct Refresh {
    total_ns: u64,
    apply_ns: u64,
    arena_ns: u64,
    clone_ns: u64,
    refit_ns: u64,
}

/// One client's (or a merged window's) record.
#[derive(Default)]
struct Tally {
    attempted: u64,
    ok: u64,
    degraded: u64,
    rejected: [u64; 4],
    calls: u64,
    latency_ns: Vec<u64>,
    call_ns: [Vec<u64>; 4],
    virtual_us: [Vec<u64>; 4],
    probe_ns: [Vec<u64>; 4],
    direct_ns: [Vec<u64>; 4],
    verified: u64,
    unverifiable: u64,
    errors: Vec<String>,
    refreshes: Vec<Refresh>,
    refresh_failed: u64,
    direct_apply_ns: Vec<u64>,
    /// `VmHWM` when refresh number [`MIN_REFRESHES`] landed.
    peak_mb: Option<f64>,
    untouched: u64,
    patched: u64,
    rebuilt: u64,
    /// Parameter recommendations of the verified answers, by basis.
    by_basis: [u64; 5],
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.degraded += o.degraded;
        self.calls += o.calls;
        self.verified += o.verified;
        self.unverifiable += o.unverifiable;
        self.refresh_failed += o.refresh_failed;
        self.untouched += o.untouched;
        self.patched += o.patched;
        self.rebuilt += o.rebuilt;
        for (a, b) in self.by_basis.iter_mut().zip(o.by_basis) {
            *a += b;
        }
        self.latency_ns.extend(o.latency_ns);
        self.errors.extend(o.errors);
        self.refreshes.extend(o.refreshes);
        self.direct_apply_ns.extend(o.direct_apply_ns);
        self.peak_mb = self.peak_mb.or(o.peak_mb);
        for k in 0..4 {
            self.rejected[k] += o.rejected[k];
            self.call_ns[k].extend_from_slice(&o.call_ns[k]);
            self.virtual_us[k].extend_from_slice(&o.virtual_us[k]);
            self.probe_ns[k].extend_from_slice(&o.probe_ns[k]);
            self.direct_ns[k].extend_from_slice(&o.direct_ns[k]);
        }
    }

    fn record(&mut self, kind: usize, out: &Result<Answer, Rejection>, latency: Duration) {
        self.attempted += 1;
        let ns = latency.as_nanos() as u64;
        self.latency_ns.push(ns);
        self.call_ns[kind].push(ns);
        match out {
            Ok(a) => {
                if a.degraded {
                    self.degraded += 1;
                } else {
                    self.ok += 1;
                }
                self.virtual_us[kind].push(a.latency_us);
            }
            Err(_) => self.rejected[kind] += 1,
        }
    }
}

fn kind_index(kind: &RequestKind) -> usize {
    match kind {
        RequestKind::Singular { .. } => 0,
        RequestKind::Pairwise { .. } => 1,
        RequestKind::ColdStart(_) => 2,
        RequestKind::Kpi { .. } => 3,
    }
}

/// One request for carrier `c` in the 40/25/20/15 singular / pairwise /
/// cold-start / KPI mix.
fn make_request(
    fleet: &Fleet,
    rng: &mut ChaCha8Rng,
    c: CarrierId,
    id: u64,
    now_us: u64,
) -> Request {
    let (market, nc) = &fleet.carriers[c.index()];
    let draw = rng.random_range(0..100u64);
    let kind = match (draw, nc.neighbors.first()) {
        (0..40, _) | (40..65, None) => RequestKind::Singular { carrier: c },
        (40..65, Some(&neighbor)) => RequestKind::Pairwise {
            new_carrier: nc.clone(),
            neighbor,
        },
        (65..85, _) => RequestKind::ColdStart(nc.clone()),
        _ => RequestKind::Kpi { carrier: c },
    };
    Request {
        id,
        market: *market,
        submitted_us: now_us,
        deadline_us: now_us + DEADLINE_SLACK_US,
        kind,
    }
}

/// `n` distinct seeded retunes, each moving one slot to another value.
fn retune_batch(rng: &mut ChaCha8Rng, snap: &NetworkSnapshot, n: usize) -> Vec<FleetDelta> {
    let defs = snap.catalog.defs();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let def = &defs[rng.random_range(0..defs.len())];
        let card = def.range.n_values() as u16;
        if card < 2 {
            continue;
        }
        let (slot, current) = match def.kind {
            ParamKind::Singular => {
                let c = CarrierId::from_index(rng.random_range(0..snap.n_carriers()));
                (DeltaSlot::Carrier(c), snap.config.value(def.id, c))
            }
            ParamKind::Pairwise => {
                let q = rng.random_range(0..snap.x2.n_pairs()) as PairIdx;
                let (a, b) = snap.x2.pair(q);
                (DeltaSlot::Pair(a, b), snap.config.pair_value(def.id, q))
            }
        };
        if !seen.insert((def.id, slot)) {
            continue;
        }
        out.push(FleetDelta::Retune {
            param: def.id,
            slot,
            value: (current + 1 + rng.random_range(0..card - 1)) % card,
            why: Provenance::Noise,
        });
    }
    out
}

/// What the shard's primary path answers for an existing carrier's
/// singular request.
fn local_singular(
    snap: &NetworkSnapshot,
    model: &CfModel,
    c: CarrierId,
) -> Vec<ConfigRecommendation> {
    snap.catalog
        .defs()
        .iter()
        .filter(|d| d.kind == ParamKind::Singular)
        .map(|def| {
            let r = model.recommend_local_singular(snap, def.id, c, false);
            ConfigRecommendation {
                param: def.id,
                name: def.name.clone(),
                value: r.value,
                concrete: def.range.value(r.value),
                basis: r.basis,
                support: r.support,
                voters: r.voters,
                matched_on: Vec::new(),
            }
        })
        .collect()
}

struct Ctx<'a> {
    svc: &'a Service,
    fleet: &'a Fleet,
    live: &'a Live,
    tracer: &'a Tracer,
}

impl Ctx<'_> {
    /// Checks one answer against direct calls on the shard's model and
    /// snapshot, provided no refresh ran since `generation` was read
    /// before the call; times the direct calls.
    fn verify(&self, req: &Request, answer: &Answer, generation: u64, t: &mut Tally) {
        if answer.degraded {
            return;
        }
        let snap = Arc::clone(&self.live.current.read().expect("snapshot lock poisoned"));
        let model = self
            .svc
            .model(req.market)
            .expect("every market has a shard");
        if generation % 2 == 1 || self.live.generation.load(Ordering::SeqCst) != generation {
            t.unverifiable += 1;
            return;
        }
        let tr = self.tracer;
        let k = kind_index(&req.kind);
        let (direct, d) = match &req.kind {
            RequestKind::Singular { carrier } => {
                tr.span("core.recommend.singular", 0, req.id, |_| {
                    Body::Recommendations(local_singular(&snap, &model, *carrier))
                })
            }
            RequestKind::ColdStart(nc) => {
                let (_, p) = tr.span("core.probe.cold_start", 0, req.id, |_| {
                    model.probe_singular(&snap, &nc.attrs)
                });
                t.probe_ns[k].push(p.as_nanos() as u64);
                tr.span("core.recommend.cold_start", 0, req.id, |_| {
                    Body::Recommendations(recommend_singular(&snap, &model, nc))
                })
            }
            RequestKind::Pairwise {
                new_carrier,
                neighbor,
            } => {
                let (_, p) = tr.span("core.probe.pairwise", 0, req.id, |_| {
                    model.probe_pairwise(&snap, &new_carrier.attrs, &snap.carrier(*neighbor).attrs)
                });
                t.probe_ns[k].push(p.as_nanos() as u64);
                tr.span("core.recommend.pairwise", 0, req.id, |_| {
                    Body::Recommendations(recommend_pairwise(&snap, &model, new_carrier, *neighbor))
                })
            }
            RequestKind::Kpi { carrier } => tr.span("kpi.lookup", 0, req.id, |_| {
                Body::KpiHealth(self.fleet.kpi.kpi(*carrier).map(|c| c.health()))
            }),
        };
        t.direct_ns[k].push(d.as_nanos() as u64);
        t.verified += 1;
        if let Body::Recommendations(recs) = &direct {
            for rec in recs {
                let slot = BASES.iter().position(|(_, b)| *b == rec.basis);
                t.by_basis[slot.expect("every basis is listed")] += 1;
            }
        }
        if direct != answer.body {
            t.errors.push(format!(
                "request {} ({}, market {}): served answer differs from the direct call",
                req.id, KINDS[k], req.market.0
            ));
        }
    }

    /// Lands one seeded retune batch on every shard; client 0 only.
    /// The batch goes onto a copy of the current snapshot, so a batch
    /// that fails to apply leaves the served snapshot as it was.
    fn refresh(&self, t: &mut Tally) {
        let mut guard = self.live.ingest.lock().expect("ingest lock poisoned");
        let ing = &mut *guard;
        let current = Arc::clone(&self.live.current.read().expect("snapshot lock poisoned"));
        let batch = retune_batch(&mut ing.rng, &current, RETUNE_EVENTS);
        let traced = self.tracer.on();
        let m0 = MarketId(0);
        let mut direct_model = traced.then(|| (*self.svc.model(m0).expect("market 0")).clone());
        let tr = self.tracer;
        let now = self.live.now_us();
        self.live.generation.fetch_add(1, Ordering::SeqCst);
        let mut r = Refresh::default();
        let (outcome, total) = tr.span("serve.refresh", 0, 0, |root| {
            let (mut next, d) = tr.span("model.snapshot_clone", root, 0, |_| (*current).clone());
            r.clone_ns = d.as_nanos() as u64;
            let (digest, d) = tr.span("model.apply_deltas", root, 0, |_| {
                apply_fleet_deltas(&mut next, &batch)
            });
            r.apply_ns = d.as_nanos() as u64;
            let digest = digest.map_err(|e| format!("retune batch: {e}"))?;
            let ((), d) = tr.span("model.arena_append", root, 0, |_| ing.arena.append(&next));
            r.arena_ns = d.as_nanos() as u64;
            let snap = Arc::new(next);
            let (results, d) = tr.span("serve.refit_delta", root, 0, |_| {
                self.svc.refit_delta(&snap, &ing.arena, &digest, now)
            });
            r.refit_ns = d.as_nanos() as u64;
            Ok::<_, String>((digest, snap, results))
        });
        drop(current);
        r.total_ns = total.as_nanos() as u64;
        match outcome {
            Ok((digest, snap, results)) => {
                *self.live.current.write().expect("snapshot lock poisoned") = Arc::clone(&snap);
                self.live.generation.fetch_add(1, Ordering::SeqCst);
                for (m, res) in results {
                    match res {
                        Ok(rep) => {
                            t.untouched += rep.params_untouched as u64;
                            t.patched += rep.params_patched as u64;
                            t.rebuilt += rep.params_rebuilt as u64;
                        }
                        Err(e) => {
                            t.refresh_failed += 1;
                            t.errors.push(format!("refit_delta on market {}: {e}", m.0));
                        }
                    }
                }
                t.refreshes.push(r);
                if t.refreshes.len() == MIN_REFRESHES {
                    t.peak_mb = Some(peak_rss_mb());
                }
                if let Some(model) = &mut direct_model {
                    let scope = Scope::market(&snap, m0);
                    let ((), d) = tr.span("core.apply_delta", 0, 0, |_| {
                        model.apply_delta(&DeltaApply {
                            snapshot: &snap,
                            arena: &ing.arena,
                            scope_before: &scope,
                            scope_after: &scope,
                            batch: &digest,
                            key_cache: Some(SharedKeyColumns::new()),
                        });
                    });
                    t.direct_apply_ns.push(d.as_nanos() as u64);
                }
            }
            Err(e) => {
                self.live.generation.fetch_add(1, Ordering::SeqCst);
                t.refresh_failed += 1;
                t.errors.push(e);
            }
        }
    }
}

enum Stop {
    /// Each client sends this many requests.
    Requests(u64),
    /// Client 0 stops once `secs` have passed and it has made
    /// `min_refreshes` refreshes; client 1 stops with it.
    For { secs: f64, min_refreshes: usize },
}

/// What the clients share during one window.
struct Shared<'a> {
    stop: &'a Stop,
    done: AtomicBool,
    start: Barrier,
    /// Reads answered so far in the window, by both clients.
    answered: AtomicU64,
}

/// One closed-loop client; returns its tally and how long it ran.
fn client(ctx: &Ctx<'_>, k: usize, seed: u64, sh: &Shared<'_>) -> (Tally, Duration) {
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let fleet = ctx.fleet;
    let markets = &fleet.plans[k];
    let mut t = Tally::default();
    let mut writes = WriteSchedule::new(fleet.reads_per_refresh);
    let mut next_id = (k as u64) << 56;
    if let Some(cpu) = fleet.client_cpu {
        affinity::set(0, &[cpu]);
    }
    sh.start.wait();
    let t0 = Instant::now();
    loop {
        let elapsed = secs(t0.elapsed());
        let stop_now = match *sh.stop {
            Stop::Requests(n) => t.attempted >= n,
            // The hard cap only guards against a stuck peer.
            Stop::For {
                secs,
                min_refreshes,
            } if k == 0 => {
                (elapsed >= secs && t.refreshes.len() >= min_refreshes)
                    || elapsed > 3.0 * secs + 60.0
            }
            Stop::For { secs, .. } => {
                sh.done.load(Ordering::SeqCst) || elapsed > 3.0 * secs + 120.0
            }
        };
        if stop_now {
            sh.done.store(true, Ordering::SeqCst);
            return (t, t0.elapsed());
        }
        let m = markets[rng.random_range(0..markets.len())];
        let now = ctx.live.now_us();
        let reqs: Vec<Request> = (0..WINDOW)
            .map(|_| {
                let c = if rng.random_range(0..100u64) < HOT_PERCENT {
                    fleet.hot[m.index()][rng.random_range(0..HOT_CARRIERS)]
                } else {
                    let cs = &fleet.by_market[m.index()];
                    cs[rng.random_range(0..cs.len())]
                };
                next_id += 1;
                make_request(fleet, &mut rng, c, next_id, now)
            })
            .collect();
        let verify: Vec<bool> = reqs
            .iter()
            .map(|_| rng.random_range(0..VERIFY_EVERY) == 0)
            .collect();
        ctx.live.submitted[m.index()].fetch_add(reqs.len() as u64, Ordering::SeqCst);
        let generation = ctx.live.generation.load(Ordering::SeqCst);
        let (outs, latency) = ctx.tracer.span("serve.call_batch", 0, reqs[0].id, |_| {
            ctx.svc.call_batch(&reqs)
        });
        t.calls += 1;
        let answered = outs.iter().filter(|o| o.is_ok()).count() as u64;
        let reads = sh.answered.fetch_add(answered, Ordering::SeqCst) + answered;
        for ((req, out), check) in reqs.iter().zip(&outs).zip(verify) {
            t.record(kind_index(&req.kind), out, latency);
            if let (true, Ok(answer)) = (check, out) {
                ctx.verify(req, answer, generation, &mut t);
            }
        }
        if k == 0 && writes.due(reads) {
            ctx.refresh(&mut t);
        }
    }
}

/// Runs both clients until `stop`; returns the merged tally and the
/// window's wall time, which is client 0's.
///
/// Client 0, the writer, runs on the calling thread. That thread keeps
/// glibc's main malloc arena for the whole run, so the refreshes, which
/// allocate most of what the window allocates, land in the same arena on
/// every run. A spawned writer takes whichever arena an exited thread
/// left behind, and the peak RSS then fell into two modes about
/// 140 MiB apart.
fn run_window(ctx: &Ctx<'_>, seed: u64, stop: Stop) -> (Tally, Duration) {
    let shared = Shared {
        stop: &stop,
        done: AtomicBool::new(false),
        start: Barrier::new(CLIENTS),
        answered: AtomicU64::new(0),
    };
    let cpus = affinity::allowed_cpus();
    let (all, wall) = std::thread::scope(|s| {
        let peers: Vec<_> = (1..CLIENTS)
            .map(|k| {
                let shared = &shared;
                s.spawn(move || client(ctx, k, seed, shared))
            })
            .collect();
        let (mut all, wall) = client(ctx, 0, seed, &shared);
        for h in peers {
            all.merge(h.join().expect("client thread panicked").0);
        }
        (all, wall)
    });
    affinity::set(0, &cpus);
    (all, wall)
}

/// Pins every shard worker to the second allowed CPU and returns the
/// first, which both clients run on. `workers` are the threads
/// `Service::new` started, which must be one per shard. With a single
/// CPU there is nothing to pin apart and every thread shares it.
///
/// A client waiting for a reply spins and yields in the channel before
/// it sleeps. Sharing a CPU with the worker it waits for, it could keep
/// that worker off the CPU: on a shared 2-vCPU host, about one run in
/// four then fell into a mode three times slower, with some 30
/// voluntary context switches per `call_batch` instead of one, for the
/// whole window. Clients and workers on different CPUs never showed
/// that mode.
fn pin_workers(n_shards: usize, workers: &[i32]) -> Result<Option<usize>, String> {
    let cpus = affinity::allowed_cpus();
    let [client_cpu, worker_cpu, ..] = cpus[..] else {
        return Ok(None);
    };
    if workers.len() != n_shards {
        return Err(format!(
            "Service::new started {} threads for {n_shards} shards; the benchmark pins one \
             worker thread per shard and refuses to measure unpinned",
            workers.len()
        ));
    }
    for &tid in workers {
        if !affinity::set(tid, &[worker_cpu]) {
            return Err(format!(
                "could not pin shard worker thread {tid} to CPU {worker_cpu}"
            ));
        }
    }
    Ok(Some(client_cpu))
}

/// One built service with its inputs and state.
struct Stand {
    svc: Service,
    fleet: Fleet,
    live: Live,
    /// The fit of the shards' models, its models moved into `svc`.
    fit: FleetFit,
    /// `cf.fit.groups` of that fit, when the recorder is on.
    vote_groups: u64,
    generate: Duration,
    simulate: Duration,
}

/// Generates the fleet, simulates its KPIs, fits the per-market models,
/// builds the service and runs the untimed warm-up.
fn set_up(args: &Args, obs: Recorder, tracer: &Tracer, errors: &mut Vec<String>) -> Stand {
    let (scale, knobs) = medium();
    let (net, generate_d) = tracer.span("netgen.generate", 0, 0, |_| generate(&scale, &knobs));
    let snap = Arc::new(net.snapshot);
    let (kpi, simulate_d) = tracer.span("kpi.simulate", 0, 0, |_| {
        auric_kpi::simulate(&snap, &TrafficModel::default())
    });
    let kpi = kpi.expect("the standard catalog has every KPI parameter");
    let order: Vec<MarketId> = snap.markets.iter().map(|m| m.id).collect();
    let mut fit = fit_fleet(&snap, &order, &obs, tracer);
    let vote_groups = obs.counter("cf.fit.groups");
    let models = order
        .iter()
        .copied()
        .zip(std::mem::take(&mut fit.models))
        .collect();
    let plan = ShardFaultPlan {
        seed: args.seed,
        rates: ShardFaultRates::none(),
    };
    let threads_before = affinity::thread_ids();
    let svc = Service::new(
        Arc::clone(&snap),
        models,
        plan,
        ServiceConfig::default(),
        obs,
    );
    let workers: Vec<i32> = affinity::thread_ids()
        .into_iter()
        .filter(|t| !threads_before.contains(t))
        .collect();

    let by_market: Vec<Vec<CarrierId>> = order
        .iter()
        .map(|&m| snap.carriers_in_market(m).to_vec())
        .collect();
    let sizes: Vec<usize> = by_market.iter().map(Vec::len).collect();
    let plans = partition_markets(&sizes, CLIENTS);
    let client_cpu = pin_workers(order.len(), &workers).unwrap_or_else(|e| {
        errors.push(e);
        None
    });
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0x407_CA55);
    let hot = by_market
        .iter()
        .map(|cs| {
            let mut cs = cs.clone();
            for i in 0..HOT_CARRIERS.min(cs.len()) {
                let j = rng.random_range(i..cs.len());
                cs.swap(i, j);
            }
            cs.truncate(HOT_CARRIERS);
            cs
        })
        .collect();
    let carriers = snap
        .carriers
        .iter()
        .map(|c| {
            let nc = NewCarrier {
                attrs: c.attrs.clone(),
                neighbors: snap.x2.neighbors(c.id).to_vec(),
            };
            (c.market, nc)
        })
        .collect();
    let live = Live {
        clock: Instant::now(),
        ingest: Mutex::new(Ingest {
            arena: AttrArena::from_snapshot(&snap),
            rng: ChaCha8Rng::seed_from_u64(args.seed ^ 0xDE17A),
        }),
        current: RwLock::new(snap),
        generation: AtomicU64::new(0),
        submitted: order.iter().map(|_| AtomicU64::new(0)).collect(),
    };
    let stand = Stand {
        svc,
        fleet: Fleet {
            carriers,
            by_market,
            kpi,
            plans,
            hot,
            reads_per_refresh: reads_per_refresh(order.len()),
            client_cpu,
        },
        live,
        fit,
        vote_groups,
        generate: generate_d,
        simulate: simulate_d,
    };
    // Warm-up: the same load, untimed, long enough for every shard to
    // leave Warming.
    let quiet = Tracer::new(false);
    let ctx = stand.ctx(&quiet);
    let (warm, _) = run_window(&ctx, args.seed ^ 0x3A7E, Stop::Requests(WARMUP_REQUESTS));
    errors.extend(warm.errors);
    stand
}

impl Stand {
    fn ctx<'a>(&'a self, tracer: &'a Tracer) -> Ctx<'a> {
        Ctx {
            svc: &self.svc,
            fleet: &self.fleet,
            live: &self.live,
            tracer,
        }
    }

    fn submitted(&self) -> Vec<(MarketId, u64)> {
        self.live
            .submitted
            .iter()
            .enumerate()
            .map(|(m, n)| (MarketId(m as u16), n.load(Ordering::SeqCst)))
            .collect()
    }
}

/// Shard counters summed over the service.
#[derive(Default, Clone, Copy)]
struct Totals {
    admitted: u64,
    cache_hits: u64,
    coalesced: u64,
    dispatched: u64,
}

fn totals(stats: &ServiceStats) -> Totals {
    let mut t = Totals::default();
    for s in &stats.shards {
        t.admitted += s.admitted;
        t.cache_hits += s.cache_hits;
        t.coalesced += s.coalesced;
        t.dispatched += s.dispatched;
    }
    t
}

/// Runs one timed window and applies the gate.
fn timed_window(
    stand: &Stand,
    tracer: &Tracer,
    seed: u64,
    secs: f64,
    min_refreshes: usize,
    r: &mut Report,
) -> (Tally, Duration, Totals) {
    let before = totals(&stand.svc.stats());
    let (tally, wall) = run_window(
        &stand.ctx(tracer),
        seed,
        Stop::For {
            secs,
            min_refreshes,
        },
    );
    let stats = stand.svc.stats();
    let after = totals(&stats);
    let delta = Totals {
        admitted: after.admitted - before.admitted,
        cache_hits: after.cache_hits - before.cache_hits,
        coalesced: after.coalesced - before.coalesced,
        dispatched: after.dispatched - before.dispatched,
    };
    for v in stand.svc.invariant_violations(&stand.submitted()) {
        r.errors.push(format!("invariant: {v}"));
    }
    for s in &stats.shards {
        r.check(s.state == ShardState::Ready, || {
            format!("market {} ended {}", s.market, s.state.label())
        });
    }
    r.check(tally.verified > 0, || "no answer was verified".to_string());
    r.errors.extend(tally.errors.iter().cloned());
    (tally, wall, delta)
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut r = Report::default();
    let quiet = Tracer::new(false);

    if !tracer.on() {
        // The repeated set-ups run after the timed window, so the peak
        // RSS is that of one set-up plus the window up to its last
        // counted refresh.
        let t0 = Instant::now();
        let stand = set_up(args, Recorder::disabled(), &quiet, &mut r.errors);
        let mut setup_s = vec![secs(t0.elapsed())];
        let (t, wall, _) = timed_window(
            &stand,
            &quiet,
            args.seed,
            args.seconds,
            MIN_REFRESHES,
            &mut r,
        );
        account(&mut r, &t, wall, &stand.fleet);
        let fit_s = refit_served(stand, &mut r);
        let samples: Vec<String> = fit_s.iter().map(f64::to_string).collect();
        r.info("refit_s", format!("[{}]", samples.join(", ")));
        for _ in 1..SETUP_REPS {
            let t0 = Instant::now();
            let again = set_up(args, Recorder::disabled(), &quiet, &mut r.errors);
            setup_s.push(secs(t0.elapsed()));
            again.svc.shutdown();
        }
        let lat = sorted_us(&t.latency_ns);
        let refresh_ns: Vec<u64> = t.refreshes.iter().map(|x| x.total_ns).collect();
        let refresh_ms: Vec<f64> = sorted_us(&refresh_ns).iter().map(|us| us / 1e3).collect();
        r.e2e("setup_s", median(&setup_s), "s");
        r.e2e("peak_rss_mb", t.peak_mb.unwrap_or(f64::NAN), "MiB");
        r.e2e("fit_s", median(&fit_s), "s");
        r.e2e("recs_per_s", answers_per_s(&t, wall), "1/s");
        e2e_quantile(&mut r, "rec_p50_us", "us", &lat, (1, 2));
        e2e_quantile(&mut r, "rec_p99_us", "us", &lat, (99, 100));
        e2e_quantile(&mut r, "delta_p50_ms", "ms", &refresh_ms, (1, 2));
        e2e_quantile(&mut r, "delta_p90_ms", "ms", &refresh_ms, (9, 10));
        r.e2e(
            "serve_ok_frac",
            t.ok as f64 / t.attempted.max(1) as f64,
            "frac",
        );
        return r;
    }

    // Traced run: half the time untraced, then half on a fresh service
    // with the obs recorder on and every call spanned.
    let half = args.seconds / 2.0;
    let plain = set_up(args, Recorder::disabled(), &quiet, &mut r.errors);
    let (base, base_wall, _) = timed_window(&plain, &quiet, args.seed, half, 0, &mut r);
    plain.svc.shutdown();
    let obs = Recorder::wall();
    let stand = set_up(args, obs.clone(), tracer, &mut r.errors);
    let snap = Arc::clone(&stand.live.current.read().expect("snapshot lock poisoned"));
    dependency_pass(&snap, &stand.fit, tracer, &mut r);
    drop(snap);
    let mut market_ms = stand.fit.market_ms.clone();
    fit_layers(&mut r, &mut market_ms, &stand.fit, stand.vote_groups);
    let invalidated_before = obs.counter("serve.cache.invalidated");
    let (t, wall, delta) = timed_window(&stand, tracer, args.seed, half, 0, &mut r);
    let invalidated = obs.counter("serve.cache.invalidated") - invalidated_before;
    r.layer(
        "trace.overhead_frac",
        answers_per_s(&base, base_wall) / answers_per_s(&t, wall) - 1.0,
        "frac",
    );
    r.layer("netgen.generate_s", secs(stand.generate), "s");
    r.layer("kpi.simulate_s", secs(stand.simulate), "s");
    for (k, kind) in KINDS.iter().enumerate() {
        let call = median_us(&t.call_ns[k]);
        let direct = median_us(&t.direct_ns[k]);
        r.layer(format!("serve.call_us_p50.{kind}"), call, "us");
        if k == 3 {
            r.layer("kpi.lookup_us_p50", direct, "us");
        } else {
            r.layer(format!("core.recommend_us_p50.{kind}"), direct, "us");
        }
        if k == 1 || k == 2 {
            r.layer(
                format!("core.probe_us_p50.{kind}"),
                median_us(&t.probe_ns[k]),
                "us",
            );
        }
        r.layer(format!("serve.overhead_us_p50.{kind}"), call - direct, "us");
        let mut virt: Vec<f64> = t.virtual_us[k].iter().map(|&v| v as f64).collect();
        r.layer(
            format!("serve.virtual_p50_us.{kind}"),
            sorted_quantile(&mut virt, 1, 2).unwrap_or(f64::NAN),
            "us",
        );
        r.layer(
            format!("serve.rejected.{kind}"),
            t.rejected[k] as f64,
            "count",
        );
    }
    let recs = t.by_basis.iter().sum::<u64>().max(1) as f64;
    for (i, (name, _)) in BASES.iter().enumerate() {
        r.layer(
            format!("core.rec_basis_{name}_frac"),
            t.by_basis[i] as f64 / recs,
            "frac",
        );
    }
    r.layer("serve.degraded", t.degraded as f64, "count");
    let admitted = delta.admitted.max(1) as f64;
    r.layer(
        "serve.cache_hit_rate",
        delta.cache_hits as f64 / admitted,
        "frac",
    );
    r.layer(
        "serve.coalesce_rate",
        delta.coalesced as f64 / admitted,
        "frac",
    );
    r.layer(
        "serve.dispatch_rate",
        delta.dispatched as f64 / admitted,
        "frac",
    );
    r.layer(
        "serve.batch_size_mean",
        t.attempted as f64 / t.calls.max(1) as f64,
        "requests",
    );
    let n = t.refreshes.len().max(1) as f64;
    r.layer(
        "serve.cache_invalidated_per_refresh",
        invalidated as f64 / n,
        "entries",
    );
    let p50 = |f: fn(&Refresh) -> u64| {
        let ns: Vec<u64> = t.refreshes.iter().map(f).collect();
        median_us(&ns) / 1e3
    };
    r.layer("model.apply_deltas_ms_p50", p50(|x| x.apply_ns), "ms");
    r.layer("model.arena_append_ms_p50", p50(|x| x.arena_ns), "ms");
    r.layer("model.snapshot_clone_ms_p50", p50(|x| x.clone_ns), "ms");
    r.layer("serve.refit_delta_ms_p50", p50(|x| x.refit_ns), "ms");
    r.layer(
        "core.apply_delta_ms_p50",
        median_us(&t.direct_apply_ns) / 1e3,
        "ms",
    );
    delta_layers(&mut r, t.untouched, t.patched, t.rebuilt);
    account(&mut r, &t, wall, &stand.fleet);
    stand.svc.shutdown();
    r
}

/// Shuts the service down and fits the 28 market models [`REFITS`]
/// times from a fresh copy of the snapshot it ended the window on;
/// returns the fit times. Gate: the served models, rolled forward by
/// every refresh, serialize byte for byte like these batch fits.
fn refit_served(stand: Stand, r: &mut Report) -> Vec<f64> {
    let order: Vec<MarketId> = (0..stand.fleet.by_market.len())
        .map(|m| MarketId(m as u16))
        .collect();
    let served: Vec<String> = order
        .iter()
        .map(|&m| {
            let model = stand.svc.model(m).expect("every market has a shard");
            serde_json::to_string(&*model).expect("model serializes")
        })
        .collect();
    let snap = (**stand.live.current.read().expect("snapshot lock poisoned")).clone();
    let Stand {
        svc,
        fleet,
        live,
        fit,
        ..
    } = stand;
    svc.shutdown();
    drop((fleet, live, fit));
    let quiet = Tracer::new(false);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..REFITS {
        drop(last.take());
        let fit = last.insert(fit_fleet(&snap, &order, &Recorder::disabled(), &quiet));
        times.push(secs(fit.elapsed));
    }
    let batch = last.map_or_else(Vec::new, |f| to_json(&f.models));
    for e in model_json_mismatches(&served, &batch) {
        r.failed += 1;
        r.errors.push(format!("served vs batch refit: {e}"));
    }
    times
}

fn answers_per_s(t: &Tally, wall: Duration) -> f64 {
    (t.ok + t.degraded) as f64 / secs(wall)
}

/// Attempted / failed accounting and the phase sample counts.
fn account(r: &mut Report, t: &Tally, wall: Duration, fleet: &Fleet) {
    let rejected: u64 = t.rejected.iter().sum();
    r.attempted = t.attempted + t.refreshes.len() as u64 + t.refresh_failed;
    r.failed = rejected + t.degraded + t.refresh_failed;
    r.info("timed_s", secs(wall));
    r.info("requests", t.attempted);
    r.info("answered_ok", t.ok);
    r.info("answered_degraded", t.degraded);
    r.info("rejected", rejected);
    r.info("calls", t.calls);
    r.info("refreshes", t.refreshes.len());
    r.info("refresh_failed", t.refresh_failed);
    r.info("verified_answers", t.verified);
    r.info("unverifiable_samples", t.unverifiable);
    r.info(
        "samples_beyond_p99",
        samples_beyond(t.latency_ns.len(), 99, 100),
    );
    r.info(
        "samples_beyond_refresh_p90",
        samples_beyond(t.refreshes.len(), 9, 10),
    );
    r.info("reads_per_refresh", fleet.reads_per_refresh);
    r.info("pinned", fleet.client_cpu.is_some());
    r.info("setup_reps", SETUP_REPS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_gives_each_market_one_client_and_keeps_submission_order() {
        let sizes = [300, 120, 250, 90, 400, 10, 60];
        let parts = partition_markets(&sizes, 2);
        let mut all: Vec<MarketId> = parts.concat();
        all.sort();
        assert_eq!(
            all,
            (0..sizes.len() as u16).map(MarketId).collect::<Vec<_>>()
        );
        let load = |p: &[MarketId]| p.iter().map(|m| sizes[m.index()]).sum::<usize>();
        assert!(load(&parts[0]).abs_diff(load(&parts[1])) <= 400);

        // Two threads stamp their own markets' submissions from one
        // clock, as the clients do: per market the stamps never fall.
        let clock = Instant::now();
        let stamps: Vec<Vec<(MarketId, u64)>> = std::thread::scope(|s| {
            let hs: Vec<_> = parts
                .iter()
                .map(|p| {
                    s.spawn(move || {
                        (0..2000)
                            .map(|i| (p[i % p.len()], clock.elapsed().as_micros() as u64))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut last = vec![None::<(usize, u64)>; sizes.len()];
        for (thread, st) in stamps.iter().enumerate() {
            for &(m, us) in st {
                if let Some((owner, prev)) = last[m.index()] {
                    assert_eq!(owner, thread, "market {} sent from two threads", m.0);
                    assert!(us >= prev, "market {} went back in time", m.0);
                }
                last[m.index()] = Some((thread, us));
            }
        }
    }

    #[test]
    fn write_schedule_holds_the_reads_per_write_ratio() {
        let period = reads_per_refresh(28);
        assert_eq!(period, 5_600);
        assert_eq!(period / 28, SHARD_READS_PER_REFIT);
        let mut w = WriteSchedule::new(period);
        let mut reads = 0;
        let mut writes = 0;
        for _ in 0..100_000 {
            reads += 8;
            if w.due(reads) {
                writes += 1;
            }
        }
        assert_eq!(writes, reads / period);
        let mut w = WriteSchedule::new(10);
        assert!(!w.due(9));
        assert!(w.due(10));
        assert!(!w.due(19));
        assert!(w.due(25));
        assert!(w.due(30), "a long gap owes one write per period");
    }

    #[test]
    fn pinning_refuses_any_thread_count_but_one_per_shard() {
        let res = pin_workers(2, &[]);
        if affinity::allowed_cpus().len() >= 2 {
            assert!(res.is_err(), "no worker threads found must fail the run");
        } else {
            assert_eq!(res, Ok(None), "one CPU: nothing to pin apart");
        }
    }

    #[test]
    fn retune_batches_are_distinct_real_changes() {
        let net = generate(
            &auric_netgen::NetScale::tiny(),
            &auric_netgen::TuningKnobs::default(),
        );
        let snap = &net.snapshot;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let batch = retune_batch(&mut rng, snap, 64);
        assert_eq!(batch.len(), 64);
        let mut seen = HashSet::new();
        for ev in &batch {
            let FleetDelta::Retune {
                param, slot, value, ..
            } = ev
            else {
                panic!("only retunes")
            };
            assert!(seen.insert((*param, *slot)));
            let current = match slot {
                DeltaSlot::Carrier(c) => snap.config.value(*param, *c),
                DeltaSlot::Pair(a, b) => snap
                    .config
                    .pair_value(*param, snap.x2.pair_idx(*a, *b).unwrap()),
            };
            assert_ne!(*value, current);
        }
        let mut copy = snap.clone();
        apply_fleet_deltas(&mut copy, &batch).expect("a retune batch applies");
    }
}
