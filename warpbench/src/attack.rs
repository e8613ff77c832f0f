//! The `attack_repair` workload: every attack scenario of `warp-apps`, with
//! victims at the end and at the start of the workload, each repaired once
//! by the sequential engine and once by the partitioned engine with two
//! workers.
//!
//! The scenarios drive the wiki through simulated browsers on a
//! [`TimingHost`], which times every request and repair. Each deployment
//! logs to a counting in-memory backend under `Durability::Immediate`, like
//! the serving workloads, and is crashed and recovered once after its
//! repairs.

use crate::apps::{source_map, Rng};
use crate::layers::{self, LayerSamples};
use crate::report::{Checks, Report};
use crate::serving::add_store_metrics;
use crate::stats::median;
use crate::trace::Tracer;
use crate::wrappers::{CountingBackend, RepairSample, StoreCounters, TimingHost};
use crate::{Phase, Recoveries, RunOptions, Untraced};
use std::sync::Arc;
use std::time::Instant;
use warp_apps::scenario::{run_scenario_on, scenario_app};
use warp_apps::{AttackKind, ScenarioConfig};
use warp_core::{Durability, MemoryBackend, StorageBackend, Warp, WriterStats};

/// Scenarios whose `repaired` verdict is false at the time this benchmark
/// was written, documented as an open defect in the repository roadmap
/// (victims at start: SQL injection loses later legitimate edits, and the
/// ACL-error scenario's attack never takes effect in that order). Their
/// failures still lower `success_share`; they do not mark the run
/// incorrect.
fn known_defect(attack: AttackKind, victims_at_start: bool) -> bool {
    victims_at_start && matches!(attack, AttackKind::SqlInjection | AttackKind::AclError)
}

/// Users per scenario at scale 1.
const USERS: f64 = 30.0;

/// Every scenario of the workload with its index in a fixed order (the
/// unit an untraced run reports it under), in a seeded order.
fn scenarios(opts: &RunOptions, seed: u64) -> Vec<(usize, ScenarioConfig)> {
    let users = ((USERS * opts.scale).round() as usize).max(6);
    let mut all = Vec::new();
    for attack in AttackKind::ALL {
        for victims_at_start in [false, true] {
            for repair_workers in [0, 2] {
                let mut config = ScenarioConfig::small(attack);
                config.users = users;
                config.victims_at_start = victims_at_start;
                config.repair_workers = repair_workers;
                all.push((all.len(), config));
            }
        }
    }
    Rng::new(seed).shuffle(&mut all);
    all
}

/// What one pass over the scenarios measured.
#[derive(Default)]
struct Pass {
    setup_secs: Vec<f64>,
    reads: Vec<f64>,
    writes: Vec<f64>,
    requests_before_repair: u64,
    requests: u64,
    repairs: Vec<RepairSample>,
    recoveries: Recoveries,
    store_bytes: u64,
    store: StoreCounters,
    writer: WriterStats,
    versions: usize,
    live_rows: usize,
    actions: usize,
    probes: LayerSamples,
    checks: Checks,
}

impl Pass {
    /// Serving before the first repair of each scenario is the pass's
    /// timed phase; its latencies are every request's.
    fn serving(&self) -> Phase {
        Phase::of(
            &self.reads,
            &self.writes,
            self.requests_before_repair as usize,
            self.setup_secs.iter().sum(),
        )
    }
}

/// Runs every scenario once. With `units`, records each scenario's
/// timings there as units of an untraced run.
fn run_pass(
    opts: &RunOptions,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    recover: bool,
    mut units: Option<&mut Untraced>,
) -> Pass {
    let mut pass = Pass::default();
    for (unit, config) in scenarios(opts, seed) {
        let backend = CountingBackend::new(MemoryBackend::new(), tracer.cloned());
        let start = Instant::now();
        let (warp, _) = Warp::builder()
            .app(scenario_app(&config))
            .backend(Box::new(backend.clone()))
            .store_options(crate::store_options())
            .durability(Durability::Immediate)
            .repair_workers(config.repair_workers)
            .build()
            .expect("opening a fresh in-memory deployment");
        let mut host = TimingHost::new(warp, tracer.cloned());
        let result = run_scenario_on(&config, &mut host);
        let first_repair = host.first_repair.unwrap_or_else(Instant::now);
        let setup_secs = (first_repair - start).as_secs_f64();
        pass.setup_secs.push(setup_secs);
        pass.checks.check(
            result.repaired,
            || {
                format!(
                    "{} with victims at {}, {} repair workers: not repaired (attack succeeded: {})",
                    config.attack.name(),
                    if config.victims_at_start {
                        "start"
                    } else {
                        "end"
                    },
                    config.repair_workers,
                    result.attack_succeeded
                )
            },
            known_defect(config.attack, config.victims_at_start),
        );
        if let Some(units) = units.as_deref_mut() {
            units.add_stretch(
                (unit, 0),
                &host.reads,
                &host.writes,
                host.requests_before_repair as usize,
                setup_secs,
            );
            // `repair_p50_ms` is over the first repair: the patch or undo
            // that removes the attack (the rest resolve conflicts).
            units.add_repairs(unit, &host.repairs, 1);
        }
        pass.reads.append(&mut host.reads);
        pass.writes.append(&mut host.writes);
        pass.requests_before_repair += host.requests_before_repair;
        pass.requests += host.requests;
        pass.repairs.append(&mut host.repairs);
        if !recover {
            drop(host.warp.close());
            continue;
        }
        let counters = backend.counters();
        let store = &mut pass.store;
        store.appends += counters.appends;
        store.append_bytes += counters.append_bytes;
        store.append_ns += counters.append_ns;
        store.syncs += counters.syncs;
        store.atomic_writes += counters.atomic_writes;
        store.atomic_bytes += counters.atomic_bytes;
        let writer = host.warp.writer_stats();
        pass.writer.records += writer.records;
        pass.writer.batches += writer.batches;
        pass.writer.largest_batch = pass.writer.largest_batch.max(writer.largest_batch);
        if let Some(tracer) = tracer {
            let app = scenario_app(&config);
            let (actions, db, stats, now) = host.warp.with_server(|s| {
                (
                    s.history.actions().to_vec(),
                    s.db.clone(),
                    s.db.storage_stats(),
                    s.clock.now(),
                )
            });
            pass.versions += stats.total_versions;
            pass.live_rows += stats.live_rows;
            pass.actions += actions.len();
            pass.probes.merge(layers::probe(
                &actions,
                0,
                &db,
                &source_map(&app),
                40,
                now + 1,
                tracer,
            ));
        }
        let image = crate::crash(host.warp, backend.memory());
        pass.store_bytes += image
            .image
            .total_bytes()
            .expect("memory backends size themselves");
        let recoveries = image.recover(&scenario_app(&config), 1, tracer, &mut pass.checks);
        if let Some(units) = units.as_deref_mut() {
            units.add_recoveries(unit, &recoveries.secs);
        }
        pass.recoveries.merge(recoveries);
    }
    pass
}

/// Runs the workload and returns its report.
pub fn run(opts: &RunOptions) -> Report {
    let mut report = Report {
        workload: "attack_repair".to_string(),
        seed: opts.seed,
        ..Report::default()
    };
    if !opts.trace {
        let mut runs = Untraced::default();
        let mut served = 0;
        for round in 0..crate::ROUNDS {
            let seed = crate::round_seed(opts.seed, round);
            let pass = run_pass(opts, seed, None, true, Some(&mut runs));
            runs.setups.push(pass.setup_secs.iter().sum());
            runs.store_bytes += pass.store_bytes;
            served += pass.requests as usize;
            runs.end_round();
            runs.checks.merge(pass.checks);
        }
        runs.report(&mut report, served);
        return report;
    }
    // Reference for the tracing overhead: the same scenarios untraced,
    // serving figures only.
    let reference = run_pass(opts, opts.seed, None, false, None);
    let untraced = reference.serving();

    let tracer = Arc::new(Tracer::default());
    let mut pass = run_pass(opts, opts.seed, Some(&tracer), true, None);
    pass.checks.merge(reference.checks);
    let requests = pass.requests as usize;
    let m = &mut report.per_layer;
    m.add(
        "facade.queue_ms",
        median(&tracer.self_times_ms("request")),
        "ms",
        requests,
    );
    m.add(
        "server.handle_ms",
        median(&tracer.durations_ms("server.handle")),
        "ms",
        requests,
    );
    m.add(
        "writer.flush_ms",
        median(&tracer.durations_ms("writer.flush")),
        "ms",
        requests,
    );
    pass.probes.report(m);
    m.add("ttdb.versions", pass.versions as f64, "count", 1);
    m.add("ttdb.live_rows", pass.live_rows as f64, "count", 1);
    m.add("history.actions", pass.actions as f64, "count", 1);
    add_store_metrics(m, &pass.store, requests, &pass.writer);
    // The scenarios never garbage-collect.
    for (name, unit) in [
        ("gc.ms_p50", "ms"),
        ("gc.ms_max", "ms"),
        ("gc.actions_removed", "count"),
        ("gc.versions_removed", "count"),
    ] {
        m.add(name, 0.0, unit, 0);
    }
    pass.recoveries.add_layer_metrics(m);
    crate::repair_metrics(m, &pass.repairs);
    crate::add_overhead(m, pass.serving(), untraced);
    crate::finish(&mut report, pass.checks, true);
    crate::write_trace(&tracer, "attack_repair", opts);
    report
}
