//! The Warp benchmark: end-to-end and per-layer figures for serving,
//! recovery and repair, measured through the program's public interfaces.
//!
//! Three workloads (see `README.md` in this directory for why each exists
//! and what each layer metric should move):
//!
//! * `wiki_long_history` — serving over a long, never-collected history.
//! * `notes_gc_window` — script-heavy serving with periodic GC and
//!   checkpoints, so history stays bounded.
//! * `attack_repair` — the six attack scenarios, repaired sequentially and
//!   with two workers.
//!
//! Every timer and counter lives in this package ([`wrappers`],
//! [`trace`], [`layers`]); nothing inside the program is instrumented.

pub mod apps;
pub mod attack;
pub mod layers;
pub mod report;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod wrappers;

use report::{Checks, Metrics, Report};
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use warp_core::{AppConfig, Durability, MemoryBackend, StoreOptions, Warp};
use wrappers::{CountingBackend, RepairSample};

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["wiki_long_history", "notes_gc_window", "attack_repair"];

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Sizes the timed phase (see each workload's shape).
    pub seconds: u64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Multiplies every request count: 1.0 on the command line; the
    /// package's own tests run small.
    pub scale: f64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 1,
            seconds: 10,
            trace: false,
            scale: 1.0,
        }
    }
}

/// The store configuration of every workload: no automatic checkpoints
/// (recovery replays the log, or starts from the checkpoint a GC wrote),
/// 256 KiB segments.
pub fn store_options() -> StoreOptions {
    StoreOptions {
        segment_bytes: 256 * 1024,
        checkpoint_interval: 0,
        ..StoreOptions::default()
    }
}

/// Rounds of each untraced run. Each round is the whole workload on its
/// own inputs. A round is cut into short units of work: a stretch of a
/// timed phase, one repair, one recovery, one attack scenario. A unit
/// does the same work, at the same point of the workload, in every round,
/// and reports its best round. The host this benchmark was tuned on (a
/// 2-vCPU Xeon VM) runs each vCPU at one of two speeds, about 1.6× apart,
/// switching every few seconds. A single sample, and the median of
/// samples taken together, land on either speed; the best of seven short
/// samples spread over the run lands on the faster one in nearly every
/// run.
pub const ROUNDS: u64 = 7;

/// Stretches each timed phase is cut into.
pub const STRETCHES: usize = 5;

/// The seed of one round: every round serves its own inputs, all derived
/// from the run's seed.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(ROUNDS).wrapping_add(round)
}

/// The serving figures of one timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub read_p50_ms: f64,
    pub write_p50_ms: f64,
    pub throughput_rps: f64,
}

impl Phase {
    /// Median latencies (ms) of `reads` and `writes`, and `requests`
    /// served in `secs` of wall time.
    pub fn of(reads: &[f64], writes: &[f64], requests: usize, secs: f64) -> Phase {
        Phase {
            read_p50_ms: median(reads),
            write_p50_ms: median(writes),
            throughput_rps: requests as f64 / secs.max(1e-9),
        }
    }
}

/// A unit of work: the workload part (0 on a serving workload, the
/// scenario on `attack_repair`) and its index within the part (stretch,
/// repair or recovery).
pub type Unit = (usize, usize);

/// One timing of an untraced run: each unit's value in every round, with
/// the samples behind it.
#[derive(Debug, Clone, Default)]
pub struct Best(BTreeMap<Unit, Vec<(f64, usize)>>);

impl Best {
    pub fn add(&mut self, unit: Unit, value: f64, samples: usize) {
        self.0.entry(unit).or_default().push((value, samples));
    }

    /// Each unit's lowest value, with its samples.
    fn chosen(&self) -> Vec<(f64, usize)> {
        self.0
            .values()
            .map(|rounds| {
                *rounds
                    .iter()
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("a unit has a value in every round")
            })
            .collect()
    }

    /// Median over units of each one's best value, and the samples behind.
    fn median(&self) -> (f64, usize) {
        let chosen = self.chosen();
        let values: Vec<f64> = chosen.iter().map(|c| c.0).collect();
        (median(&values), chosen.iter().map(|c| c.1).sum())
    }

    /// Sum over units of each one's best value, and the samples behind.
    fn sum(&self) -> (f64, usize) {
        let chosen = self.chosen();
        (
            chosen.iter().map(|c| c.0).sum(),
            chosen.iter().map(|c| c.1).sum(),
        )
    }
}

/// An untraced run's samples, unit by unit.
#[derive(Debug, Clone, Default)]
pub struct Untraced {
    pub setups: Vec<f64>,
    /// Median read and write latency (ms) of each stretch.
    pub read_p50: Best,
    pub write_p50: Best,
    /// Wall time (s) of each stretch, over its requests.
    pub timed: Best,
    /// Recovery time (s) of each recovery.
    pub recoveries: Best,
    /// Time (ms) of each repair.
    pub repairs: Best,
    /// Time (ms) of each repair `repair_p50_ms` is the median of.
    pub single_repairs: Best,
    /// Every read and write latency (ms) of every round, for the p99s.
    pub reads: Vec<f64>,
    pub writes: Vec<f64>,
    pub store_bytes: u64,
    /// `VmHWM` when the first round ended (MiB). Later rounds run in a
    /// heap the earlier rounds' engine and writer threads fragmented, which
    /// moved the whole-run peak by up to a third from run to run.
    pub first_round_rss_mib: f64,
    pub checks: Checks,
}

impl Untraced {
    /// Adds a stretch of serving: its read and write latencies (ms), and
    /// `requests` served in `secs`.
    pub fn add_stretch(
        &mut self,
        unit: Unit,
        reads: &[f64],
        writes: &[f64],
        requests: usize,
        secs: f64,
    ) {
        self.read_p50.add(unit, median(reads), reads.len());
        self.write_p50.add(unit, median(writes), writes.len());
        self.timed.add(unit, secs, requests);
        self.reads.extend_from_slice(reads);
        self.writes.extend_from_slice(writes);
    }

    /// Adds the recoveries (s) of workload part `part`.
    pub fn add_recoveries(&mut self, part: usize, secs: &[f64]) {
        for (i, s) in secs.iter().enumerate() {
            self.recoveries.add((part, i), *s, 1);
        }
    }

    /// Adds the repairs of workload part `part`; the first `single` of
    /// them are those `repair_p50_ms` is the median of.
    pub fn add_repairs(&mut self, part: usize, repairs: &[RepairSample], single: usize) {
        for (i, r) in repairs.iter().enumerate() {
            self.repairs.add((part, i), r.ms, 1);
            if i < single {
                self.single_repairs.add((part, i), r.ms, 1);
            }
        }
    }

    /// Ends a round.
    pub fn end_round(&mut self) {
        if self.first_round_rss_mib == 0.0 {
            self.first_round_rss_mib = rss_mib();
        }
    }

    /// The end-to-end metrics. `setup_s` is the median set-up. Every other
    /// timing takes each unit's best round, then the median over units
    /// (latencies, recoveries, `repair_p50_ms`), their sum (`repair_s`),
    /// or all their requests over all their time (`throughput_rps`). Each
    /// sample count is that of the chosen rounds; the p99s pool every
    /// round.
    pub fn report(self, report: &mut Report, served: usize) {
        let m = &mut report.end_to_end;
        m.add("setup_s", median(&self.setups), "s", self.setups.len());
        let (read, reads) = self.read_p50.median();
        m.add("read_p50_ms", read, "ms", reads);
        let (write, writes) = self.write_p50.median();
        m.add("write_p50_ms", write, "ms", writes);
        let (secs, requests) = self.timed.sum();
        m.add(
            "throughput_rps",
            requests as f64 / secs.max(1e-9),
            "1/s",
            requests,
        );
        let (recover, recoveries) = self.recoveries.median();
        m.add("recover_s", recover, "s", recoveries);
        let (repair_ms, repairs) = self.repairs.sum();
        m.add("repair_s", repair_ms / 1e3, "s", repairs);
        let (single, singles) = self.single_repairs.median();
        m.add("repair_p50_ms", single, "ms", singles);
        m.add(
            "store_bytes_per_request",
            self.store_bytes as f64 / served.max(1) as f64,
            "B",
            served,
        );
        m.add("peak_rss_mb", self.first_round_rss_mib, "MiB", 1);
        report.printed.add_p99("read", &self.reads);
        report.printed.add_p99("write", &self.writes);
        finish(report, self.checks, false);
    }
}

/// Runs one workload by name; `None` for an unknown name.
pub fn run(workload: &str, opts: &RunOptions) -> Option<Report> {
    Some(match workload {
        "wiki_long_history" => serving::run(serving::Kind::WikiLongHistory, opts),
        "notes_gc_window" => serving::run(serving::Kind::NotesGcWindow, opts),
        "attack_repair" => attack::run(opts),
        _ => return None,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A crashed deployment: the backend image that survived, and what the
/// server held when it went down.
pub struct CrashImage {
    pub image: MemoryBackend,
    dump: String,
    history_len: usize,
}

/// Crashes a deployment: waits for the log to be durable, records the
/// state every recovery must reproduce, copies the backend as a power cut
/// would leave it, and stops the engine.
pub fn crash(warp: Warp, backend: &MemoryBackend) -> CrashImage {
    warp.flush();
    let (dump, history_len) = warp.with_server(|s| (s.db.canonical_dump(), s.history.len()));
    let image = backend.snapshot();
    drop(warp.close());
    CrashImage {
        image,
        dump,
        history_len,
    }
}

/// What a series of recoveries measured.
#[derive(Debug, Clone, Default)]
pub struct Recoveries {
    pub secs: Vec<f64>,
    /// Time spent inside backend reads, per recovery.
    pub read_ms: Vec<f64>,
    pub records_replayed: usize,
    pub from_checkpoint: bool,
}

impl CrashImage {
    /// Reopens a serving `Warp` from a fresh copy of the image `count`
    /// times, timing each open and checking each recovered server against
    /// the pre-crash one (canonical dump and history length).
    pub fn recover(
        &self,
        app: &AppConfig,
        count: usize,
        tracer: Option<&Arc<Tracer>>,
        checks: &mut Checks,
    ) -> Recoveries {
        let mut out = Recoveries::default();
        for i in 0..count {
            let backend = CountingBackend::new(self.image.snapshot(), tracer.cloned());
            let span = tracer.map(|t| {
                let id = t.alloc_id();
                t.enter(i as u64, Some(id));
                id
            });
            let start = Instant::now();
            let (warp, report) = Warp::builder()
                .app(app.clone())
                .backend(Box::new(backend.clone()))
                .store_options(store_options())
                .durability(Durability::Immediate)
                .build()
                .expect("recovering from the crash image");
            let end = Instant::now();
            if let (Some(t), Some(id)) = (tracer, span) {
                t.record_as(id, "recover", None, i as u64, start, end);
            }
            out.secs.push((end - start).as_secs_f64());
            out.read_ms.push(backend.counters().read_ns as f64 / 1e6);
            out.records_replayed = report.records_replayed;
            out.from_checkpoint = report.from_checkpoint;
            let (dump, len) = warp.with_server(|s| (s.db.canonical_dump(), s.history.len()));
            checks.check(
                len == self.history_len && dump == self.dump,
                || {
                    format!(
                        "recovery {i}: history {len} vs {} before the crash, dumps equal: {}",
                        self.history_len,
                        dump == self.dump
                    )
                },
                false,
            );
            drop(warp.close());
        }
        out
    }
}

impl Recoveries {
    pub fn merge(&mut self, other: Recoveries) {
        self.secs.extend(other.secs);
        self.read_ms.extend(other.read_ms);
        self.records_replayed += other.records_replayed;
        self.from_checkpoint |= other.from_checkpoint;
    }

    /// `recover.*`: median read and replay time (replay is everything in
    /// the open that is not a backend read), records replayed, and whether
    /// recovery started from a checkpoint.
    pub fn add_layer_metrics(&self, m: &mut Metrics) {
        let replay_ms: Vec<f64> = self
            .secs
            .iter()
            .zip(&self.read_ms)
            .map(|(s, r)| s * 1e3 - r)
            .collect();
        m.add(
            "recover.read_ms",
            median(&self.read_ms),
            "ms",
            self.read_ms.len(),
        );
        m.add(
            "recover.replay_ms",
            median(&replay_ms),
            "ms",
            replay_ms.len(),
        );
        m.add(
            "recover.records_replayed",
            self.records_replayed as f64,
            "count",
            1,
        );
        m.add(
            "recover.from_checkpoint",
            if self.from_checkpoint { 1.0 } else { 0.0 },
            "bool",
            1,
        );
    }
}

/// `repair.*`: the program's own repair statistics, summed over every
/// repair of the run.
pub fn repair_metrics(m: &mut Metrics, repairs: &[RepairSample]) {
    let n = repairs.len();
    let total = |f: &dyn Fn(&warp_core::RepairStats) -> f64| -> f64 {
        repairs.iter().map(|r| f(&r.outcome.stats)).sum()
    };
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    m.add("repair.init_ms", total(&|s| ms(s.time_init)), "ms", n);
    m.add("repair.graph_ms", total(&|s| ms(s.time_graph)), "ms", n);
    m.add("repair.browser_ms", total(&|s| ms(s.time_browser)), "ms", n);
    m.add("repair.app_ms", total(&|s| ms(s.time_app)), "ms", n);
    m.add("repair.db_ms", total(&|s| ms(s.time_db)), "ms", n);
    m.add("repair.ctrl_ms", total(&|s| ms(s.time_ctrl)), "ms", n);
    m.add("repair.commit_ms", total(&|s| ms(s.time_commit)), "ms", n);
    let reexec = total(&|s| s.app_runs_reexecuted as f64);
    let runs = total(&|s| s.app_runs_total as f64);
    m.add("repair.app_runs_reexecuted", reexec, "count", n);
    m.add("repair.app_runs_total", runs, "count", n);
    m.add("repair.reexec_share", reexec / runs.max(1.0), "share", n);
    type Count<'a> = (&'a str, &'a dyn Fn(&warp_core::RepairStats) -> f64);
    let counts: [Count; 7] = [
        ("repair.queries_reexecuted", &|s| {
            s.queries_reexecuted as f64
        }),
        ("repair.page_visits_reexecuted", &|s| {
            s.page_visits_reexecuted as f64
        }),
        ("repair.partitions_total", &|s| s.partitions_total as f64),
        ("repair.escalations", &|s| s.escalations as f64),
        ("repair.bounded_clone_fallbacks", &|s| {
            s.bounded_clone_fallbacks as f64
        }),
        ("repair.dirty_rows", &|s| s.dirty_rows as f64),
        ("repair.conflicts", &|s| s.conflicts as f64),
    ];
    for (name, f) in counts {
        m.add(name, total(f), "count", n);
    }
}

/// `trace.overhead_*`: traced minus untraced serving figures on one seed.
pub fn add_overhead(m: &mut Metrics, traced: Phase, untraced: Phase) {
    let ms = |t: f64, u: f64| t - u;
    m.add(
        "trace.overhead_read_p50_ms",
        ms(traced.read_p50_ms, untraced.read_p50_ms),
        "ms",
        1,
    );
    m.add(
        "trace.overhead_write_p50_ms",
        ms(traced.write_p50_ms, untraced.write_p50_ms),
        "ms",
        1,
    );
    m.add(
        "trace.overhead_throughput_rps",
        traced.throughput_rps - untraced.throughput_rps,
        "1/s",
        1,
    );
}

/// Writes the traced run's spans under `out/` in this package's directory.
pub fn write_trace(tracer: &Tracer, workload: &str, opts: &RunOptions) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{}.jsonl", opts.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Hands the run's checks to the report; the untraced run also reports
/// them as `success_share`.
pub fn finish(report: &mut Report, checks: Checks, traced: bool) {
    if !traced {
        let attempted = checks.attempted as usize;
        report
            .end_to_end
            .add("success_share", checks.success_share(), "share", attempted);
    }
    report.checks = checks;
}
