//! The two serving workloads: `wiki_long_history` and `notes_gc_window`.
//!
//! Both run the same shape: set up a deployment (install, seed, prefill),
//! serve a timed phase from one closed-loop client, issue retroactive
//! patches with a fixed footprint, then crash and recover several times
//! from the surviving log. They differ in the application, the request
//! mix, and whether the client garbage-collects history as it goes.

use crate::apps::{self, NotesTraffic, Step, WikiTraffic};
use crate::layers::{self, LayerSamples};
use crate::report::{Checks, Metrics, Report};
use crate::stats::{max, median};
use crate::trace::Tracer;
use crate::wrappers::{CountingBackend, StoreCounters, TimingHost};
use crate::{repair_metrics, Phase, Recoveries, RunOptions, Untraced};
use std::sync::Arc;
use std::time::Instant;
use warp_core::{
    AppConfig, Durability, MemoryBackend, Patch, RepairRequest, RepairStrategy, StorageBackend,
    Warp, WarpHost, WriterStats,
};
use warp_http::{HttpRequest, Transport};

/// Which serving workload, with its fixed shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WikiLongHistory,
    NotesGcWindow,
}

/// Timed-phase actions replayed through each layer in the traced run.
const PROBE_SAMPLE: usize = 300;

/// Sizes of one round of a serving run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Requests served during set-up, before the timed phase.
    pub prefill: usize,
    /// Requests in the timed phase.
    pub timed: usize,
    /// Garbage-collect (and checkpoint) every this many requests.
    pub gc_every: Option<usize>,
    /// Retroactive patches after the timed phase.
    pub repairs: usize,
    /// Wiki: actions at the end of history each patch starts from.
    pub repair_footprint: usize,
    /// Recoveries from the crash image (the median is reported).
    pub recoveries: usize,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::WikiLongHistory => "wiki_long_history",
            Kind::NotesGcWindow => "notes_gc_window",
        }
    }

    /// The run's sizes: the timed phase grows with `--seconds`; the rest is
    /// fixed so that history length and footprints do not depend on speed.
    pub fn shape(self, opts: &RunOptions) -> Shape {
        let scaled = |n: f64| ((n * opts.scale).round() as usize).max(12);
        match self {
            Kind::WikiLongHistory => Shape {
                prefill: scaled(600.0),
                timed: scaled(90.0 * opts.seconds as f64),
                gc_every: None,
                repairs: 3,
                repair_footprint: scaled(100.0),
                recoveries: 1,
            },
            Kind::NotesGcWindow => Shape {
                prefill: scaled(800.0),
                timed: scaled(150.0 * opts.seconds as f64),
                gc_every: Some(scaled(650.0)),
                repairs: 6,
                repair_footprint: 0,
                recoveries: 3,
            },
        }
    }

    fn app(self) -> AppConfig {
        match self {
            Kind::WikiLongHistory => apps::wiki_app(),
            Kind::NotesGcWindow => apps::notes_app(),
        }
    }
}

/// The client's traffic for one workload.
#[derive(Debug, Clone)]
enum Traffic {
    Wiki(WikiTraffic),
    Notes(NotesTraffic),
}

impl Traffic {
    fn next_step(&mut self) -> Step {
        match self {
            Traffic::Wiki(t) => t.next_step(),
            Traffic::Notes(t) => t.next_step(),
        }
    }

    fn bodies(&self) -> &[String] {
        match self {
            Traffic::Wiki(t) => &t.bodies,
            Traffic::Notes(t) => &t.bodies,
        }
    }
}

/// One garbage collection issued by the client.
#[derive(Debug, Clone, Copy)]
struct GcSample {
    ms: f64,
    actions_removed: usize,
    versions_removed: usize,
}

/// A running deployment and the client driving it.
struct Deployment {
    kind: Kind,
    host: TimingHost,
    backend: CountingBackend,
    traffic: Traffic,
    /// Requests served (one action each).
    served: usize,
    /// Per page/topic: index (in requests served) of its last edit.
    last_edit: Vec<Option<usize>>,
    /// Reads served since the last GC.
    reads_since_gc: usize,
    /// Reads still in history (served since the GC before the last).
    reads_in_history: usize,
    /// Logical time of the last GC (its cut-off for the next one).
    last_gc_time: i64,
    /// The last GC's cut-off: history holds every action from here on.
    history_from: i64,
    gcs: Vec<GcSample>,
    tracer: Option<Arc<Tracer>>,
}

impl Deployment {
    fn open(kind: Kind, seed: u64, tracer: Option<Arc<Tracer>>) -> Deployment {
        let backend = CountingBackend::new(MemoryBackend::new(), tracer.clone());
        let (warp, _) = Warp::builder()
            .app(kind.app())
            .backend(Box::new(backend.clone()))
            .store_options(crate::store_options())
            .durability(Durability::Immediate)
            .build()
            .expect("opening a fresh in-memory deployment");
        let (traffic, keys) = match kind {
            Kind::WikiLongHistory => (Traffic::Wiki(WikiTraffic::new(seed)), apps::WIKI_PAGES),
            Kind::NotesGcWindow => (Traffic::Notes(NotesTraffic::new(seed)), apps::NOTE_TOPICS),
        };
        Deployment {
            kind,
            host: TimingHost::new(warp, tracer.clone()),
            backend,
            traffic,
            served: 0,
            last_edit: vec![None; keys],
            reads_since_gc: 0,
            reads_in_history: 0,
            last_gc_time: 0,
            history_from: 0,
            gcs: Vec::new(),
            tracer,
        }
    }

    /// Serves the next generated request, checks its response, and runs the
    /// GC when one is due.
    fn step(&mut self, shape: &Shape, checks: &mut Checks) {
        let step = self.traffic.next_step();
        let response = self.host.send(step.request);
        checks.check(
            response.status == 200 && response.body == step.expected,
            || {
                format!(
                    "request {} on key {}: expected {:?}, got {} {:?}",
                    self.served, step.key, step.expected, response.status, response.body
                )
            },
            false,
        );
        if step.body.is_empty() {
            self.reads_since_gc += 1;
            self.reads_in_history += 1;
        } else {
            self.last_edit[step.key] = Some(self.served);
        }
        self.served += 1;
        if shape
            .gc_every
            .is_some_and(|every| self.served.is_multiple_of(every))
        {
            self.garbage_collect();
        }
    }

    /// Drops history older than the previous GC, through the server's
    /// public GC entry point (which logs the GC and writes a base
    /// checkpoint), and waits until the log is durable.
    fn garbage_collect(&mut self) {
        let cutoff = self.last_gc_time;
        let start = Instant::now();
        let ((actions_removed, versions_removed), now) = self.host.warp.with_server(move |s| {
            let removed = s.garbage_collect(cutoff);
            s.flush_durable();
            (removed, s.clock.now())
        });
        let end = Instant::now();
        if let Some(tracer) = &self.tracer {
            tracer.record("gc", None, self.served as u64, start, end);
        }
        self.gcs.push(GcSample {
            ms: (end - start).as_secs_f64() * 1e3,
            actions_removed,
            versions_removed,
        });
        self.history_from = cutoff;
        self.last_gc_time = now;
        self.reads_in_history = self.reads_since_gc;
        self.reads_since_gc = 0;
    }
}

/// Sets up a deployment (install, seed, prefill) and returns it with the
/// seconds that took.
fn set_up(
    kind: Kind,
    shape: &Shape,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
    checks: &mut Checks,
) -> (Deployment, f64) {
    let start = Instant::now();
    let mut dep = Deployment::open(kind, seed, tracer);
    for _ in 0..shape.prefill {
        dep.step(shape, checks);
    }
    (dep, start.elapsed().as_secs_f64())
}

/// What a stretch of a timed phase measured.
#[derive(Default)]
struct Stretch {
    reads: Vec<f64>,
    writes: Vec<f64>,
    requests: usize,
    secs: f64,
}

impl Stretch {
    fn phase(&self) -> Phase {
        Phase::of(&self.reads, &self.writes, self.requests, self.secs)
    }

    /// The stretches of a phase taken together.
    fn pooled(stretches: Vec<Stretch>) -> Stretch {
        stretches
            .into_iter()
            .fold(Stretch::default(), |mut all, s| {
                all.reads.extend(s.reads);
                all.writes.extend(s.writes);
                all.requests += s.requests;
                all.secs += s.secs;
                all
            })
    }
}

/// Serves the timed phase in [`crate::STRETCHES`] stretches of (nearly)
/// equal length.
fn timed_phase(dep: &mut Deployment, shape: &Shape, checks: &mut Checks) -> Vec<Stretch> {
    dep.host.reset();
    let bound = |k: usize| shape.timed * k / crate::STRETCHES;
    (0..crate::STRETCHES)
        .map(|k| {
            let requests = bound(k + 1) - bound(k);
            let start = Instant::now();
            for _ in 0..requests {
                dep.step(shape, checks);
            }
            Stretch {
                secs: start.elapsed().as_secs_f64(),
                reads: std::mem::take(&mut dep.host.reads),
                writes: std::mem::take(&mut dep.host.writes),
                requests,
            }
        })
        .collect()
}

/// Issues the workload's retroactive patches and checks each one.
fn repair(dep: &mut Deployment, shape: &Shape, checks: &mut Checks) {
    for r in 1..=shape.repairs {
        match dep.kind {
            Kind::WikiLongHistory => repair_wiki(dep, shape, r, checks),
            Kind::NotesGcWindow => repair_notes(dep, r, checks),
        }
    }
}

/// Patches the wiki's edit page to store a `[rN] ` prefix, from the time
/// of the action `repair_footprint` actions before the end of history.
/// Every page whose last edit falls in that window must then show the
/// prefixed body; every other page must be unchanged.
fn repair_wiki(dep: &mut Deployment, shape: &Shape, r: usize, checks: &mut Checks) {
    let first = dep.served.saturating_sub(shape.repair_footprint);
    let from_time = dep
        .host
        .warp
        .with_server(move |s| s.history.actions()[first].time);
    let prefix = format!("[r{r}] ");
    let patch = Patch::new(
        "edit.wasl",
        apps::wiki_edit_source(&prefix),
        "prefix stored bodies",
    );
    let outcome = dep.host.host_repair(
        RepairRequest::RetroactivePatch { patch, from_time },
        RepairStrategy::Sequential,
    );
    let expected: Vec<String> = dep
        .traffic
        .bodies()
        .iter()
        .zip(&dep.last_edit)
        .map(|(body, last)| match last {
            Some(i) if *i >= first => format!("{prefix}{body}"),
            _ => body.clone(),
        })
        .collect();
    let shown = dep.host.warp.with_server(|s| {
        let now = s.clock.now();
        (0..apps::WIKI_PAGES)
            .map(|p| {
                s.db.select_at(
                    &format!("SELECT body FROM page WHERE title = 'Page{p}'"),
                    now,
                )
                .ok()
                .and_then(|r| r.rows.first().map(|row| row[0].as_display_string()))
                .unwrap_or_default()
            })
            .collect::<Vec<_>>()
    });
    checks.check(
        !outcome.aborted && outcome.stats.app_runs_reexecuted > 0 && shown == expected,
        || format!("wiki patch {r}: expected bodies {expected:?}, got {shown:?}"),
        false,
    );
}

/// Patches the notes read page to wrap bodies in `<rN>`, from the oldest
/// action the GCs kept. Exactly the reads served since then must be
/// re-executed, and the next read must show the new markup.
fn repair_notes(dep: &mut Deployment, r: usize, checks: &mut Checks) {
    let tag = format!("r{r}");
    let patch = Patch::new("read.wasl", apps::notes_read_source(&tag), "retag reads");
    let expected_runs = dep.reads_in_history;
    let outcome = dep.host.host_repair(
        RepairRequest::RetroactivePatch {
            patch,
            from_time: dep.history_from,
        },
        RepairStrategy::Sequential,
    );
    let topic = r % apps::NOTE_TOPICS;
    let response = dep
        .host
        .send(HttpRequest::get(&format!("/read.wasl?topic=topic{topic}")));
    dep.served += 1;
    dep.reads_since_gc += 1;
    dep.reads_in_history += 1;
    let expected = format!("<{tag}>{}</{tag}>", dep.traffic.bodies()[topic]);
    checks.check(
        !outcome.aborted
            && outcome.stats.app_runs_reexecuted == expected_runs
            && response.body == expected,
        || {
            format!(
                "notes patch {r}: re-executed {} of {expected_runs} reads, read {:?}",
                outcome.stats.app_runs_reexecuted, response.body
            )
        },
        false,
    );
}

/// Crashes the deployment and recovers `count` times from the crash
/// image. Returns the recoveries and the backend bytes at the crash.
fn crash_and_recover(
    dep: Deployment,
    count: usize,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> (Recoveries, u64) {
    let kind = dep.kind;
    let image = crate::crash(dep.host.warp, dep.backend.memory());
    let store_bytes = image
        .image
        .total_bytes()
        .expect("memory backends size themselves");
    let recoveries = image.recover(&kind.app(), count, tracer, checks);
    (recoveries, store_bytes)
}

/// Runs one serving workload and returns its report.
pub fn run(kind: Kind, opts: &RunOptions) -> Report {
    let shape = kind.shape(opts);
    let mut report = Report {
        workload: kind.name().to_string(),
        seed: opts.seed,
        ..Report::default()
    };
    if opts.trace {
        run_traced(kind, &shape, opts, &mut report);
        return report;
    }
    let mut runs = Untraced::default();
    let mut served = 0;
    for round in 0..crate::ROUNDS {
        let seed = crate::round_seed(opts.seed, round);
        let (mut dep, secs) = set_up(kind, &shape, seed, None, &mut runs.checks);
        runs.setups.push(secs);
        for (k, stretch) in timed_phase(&mut dep, &shape, &mut runs.checks)
            .iter()
            .enumerate()
        {
            let Stretch {
                reads,
                writes,
                requests,
                secs,
            } = stretch;
            runs.add_stretch((0, k), reads, writes, *requests, *secs);
        }
        repair(&mut dep, &shape, &mut runs.checks);
        let repairs = std::mem::take(&mut dep.host.repairs);
        served += dep.served;
        let (recoveries, bytes) = crash_and_recover(dep, shape.recoveries, None, &mut runs.checks);
        runs.store_bytes += bytes;
        runs.add_recoveries(0, &recoveries.secs);
        runs.add_repairs(0, &repairs, repairs.len());
        runs.end_round();
    }
    runs.report(&mut report, served);
    report
}

/// The traced run: an untraced timed phase for reference, then the same
/// seed traced end to end, with the per-layer probes on its history.
fn run_traced(kind: Kind, shape: &Shape, opts: &RunOptions, report: &mut Report) {
    let mut checks = Checks::default();
    // Reference: the identical set-up and timed phase without tracing.
    let (mut plain, _) = set_up(kind, shape, opts.seed, None, &mut checks);
    let reference = Stretch::pooled(timed_phase(&mut plain, shape, &mut checks)).phase();
    drop(plain.host.warp.close());

    let tracer = Arc::new(Tracer::default());
    let (mut dep, _) = set_up(kind, shape, opts.seed, Some(tracer.clone()), &mut checks);
    tracer.clear();
    let before = (dep.backend.counters(), dep.host.warp.writer_stats());
    let timed = Stretch::pooled(timed_phase(&mut dep, shape, &mut checks));
    let store = dep.backend.counters().since(&before.0);
    let writer = writer_since(dep.host.warp.writer_stats(), &before.1);
    let (actions, db, stats, now) = dep.host.warp.with_server(|s| {
        (
            s.history.actions().to_vec(),
            s.db.clone(),
            s.db.storage_stats(),
            s.clock.now(),
        )
    });
    let sources = apps::source_map(&kind.app());
    // The timed phase's actions are the last ones in history (a GC may
    // have renumbered everything before them).
    let first_probe = actions.len().saturating_sub(timed.requests);
    let probes: LayerSamples = layers::probe(
        &actions,
        first_probe,
        &db,
        &sources,
        PROBE_SAMPLE,
        now + 1,
        &tracer,
    );
    let history_len = actions.len();
    drop((actions, db));
    repair(&mut dep, shape, &mut checks);
    let repairs = dep.host.repairs.clone();
    let gcs = dep.gcs.clone();
    let (recoveries, _) = crash_and_recover(dep, 2, Some(&tracer), &mut checks);

    let m = &mut report.per_layer;
    m.add(
        "facade.queue_ms",
        median(&tracer.self_times_ms("request")),
        "ms",
        timed.requests,
    );
    m.add(
        "server.handle_ms",
        median(&tracer.durations_ms("server.handle")),
        "ms",
        timed.requests,
    );
    m.add(
        "writer.flush_ms",
        median(&tracer.durations_ms("writer.flush")),
        "ms",
        timed.requests,
    );
    probes.report(m);
    m.add("ttdb.versions", stats.total_versions as f64, "count", 1);
    m.add("ttdb.live_rows", stats.live_rows as f64, "count", 1);
    m.add("history.actions", history_len as f64, "count", 1);
    add_store_metrics(m, &store, timed.requests, &writer);
    let gc_ms: Vec<f64> = gcs.iter().map(|g| g.ms).collect();
    m.add("gc.ms_p50", median(&gc_ms), "ms", gc_ms.len());
    m.add("gc.ms_max", max(&gc_ms), "ms", gc_ms.len());
    m.add(
        "gc.actions_removed",
        gcs.iter().map(|g| g.actions_removed).sum::<usize>() as f64,
        "count",
        gcs.len(),
    );
    m.add(
        "gc.versions_removed",
        gcs.iter().map(|g| g.versions_removed).sum::<usize>() as f64,
        "count",
        gcs.len(),
    );
    recoveries.add_layer_metrics(m);
    repair_metrics(m, &repairs);
    crate::add_overhead(m, timed.phase(), reference);
    crate::finish(report, checks, true);
    crate::write_trace(&tracer, kind.name(), opts);
}

/// Writer counters since `before`. The writer keeps only a running
/// maximum of its batch sizes, so `largest_batch` stays the largest since
/// the deployment opened.
fn writer_since(now: WriterStats, before: &WriterStats) -> WriterStats {
    WriterStats {
        records: now.records - before.records,
        batches: now.batches - before.batches,
        largest_batch: now.largest_batch,
    }
}

/// Store and writer counters of a timed phase; appends and their bytes per
/// request, everything else as totals.
pub fn add_store_metrics(
    m: &mut Metrics,
    store: &StoreCounters,
    requests: usize,
    writer: &WriterStats,
) {
    let per_request = |v: u64| v as f64 / requests.max(1) as f64;
    m.add(
        "store.appends_per_request",
        per_request(store.appends),
        "count",
        requests,
    );
    m.add(
        "store.append_bytes_per_request",
        per_request(store.append_bytes),
        "B",
        requests,
    );
    m.add(
        "store.append_us",
        store.append_ns as f64 / 1e3 / store.appends.max(1) as f64,
        "us",
        store.appends as usize,
    );
    m.add("store.syncs", store.syncs as f64, "count", 1);
    m.add(
        "store.atomic_writes",
        store.atomic_writes as f64,
        "count",
        1,
    );
    m.add("store.atomic_bytes", store.atomic_bytes as f64, "B", 1);
    m.add("writer.records", writer.records as f64, "count", 1);
    m.add("writer.batches", writer.batches as f64, "count", 1);
    m.add(
        "writer.largest_batch",
        writer.largest_batch as f64,
        "count",
        1,
    );
}
