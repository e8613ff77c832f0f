//! The machine-readable benchmark reports (`BENCH_*.json`) and the CI gates
//! that judge them.
//!
//! Every table binary run with `--json PATH` (and the repair binaries with
//! `--frontier PATH`) appends [`BenchRecord`]s to a report file: one record
//! per measurement, naming the table that produced it, the axes it was
//! taken at (`params`) and what it measured (`metrics`). Every report uses
//! the same file format:
//!
//! ```json
//! {"schema_version": 2, "records": [
//!   {"table": "table10_commit",
//!    "params": {"db_rows": 8012, "mode": "delta"},
//!    "metrics": {"commit_ms": 0.052, "dirty_rows": 28, "dirty_tables": 1, "repair_ms": 1.03}}]}
//! ```
//!
//! The `bench_gate` binary runs each [`Gate`] of [`gates`] over its report.
//! A gate is a plain function from records to a [`GateVerdict`]; a report
//! that lacks the records or fields a gate needs is an error, never a pass.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The report file format version [`load_records`] accepts.
const SCHEMA_VERSION: u64 = 2;

/// A measurement axis: a name (`scenario`, `mode`, ...) or a count
/// (`workers`, `threads`, `db_rows`, ...). Flags are the counts 0 and 1.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    Text(String),
    Int(u64),
}

impl From<&str> for Param {
    fn from(value: &str) -> Param {
        Param::Text(value.to_string())
    }
}

impl From<String> for Param {
    fn from(value: String) -> Param {
        Param::Text(value)
    }
}

impl From<usize> for Param {
    fn from(value: usize) -> Param {
        Param::Int(value as u64)
    }
}

impl From<bool> for Param {
    fn from(value: bool) -> Param {
        Param::Int(u64::from(value))
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Param::Text(text) => f.pad(text),
            Param::Int(n) => fmt::Display::fmt(n, f),
        }
    }
}

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRecord {
    /// The table binary (or benchmark) that produced the record. Appending
    /// records replaces every earlier record of the same table.
    pub table: String,
    /// The axes the measurement was taken at.
    pub params: BTreeMap<String, Param>,
    /// What was measured.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchRecord {
    /// An empty record of `table`.
    pub fn new(table: &str) -> BenchRecord {
        BenchRecord {
            table: table.to_string(),
            ..BenchRecord::default()
        }
    }

    /// Sets axis `key`.
    pub fn param(mut self, key: &str, value: impl Into<Param>) -> BenchRecord {
        self.params.insert(key.to_string(), value.into());
        self
    }

    /// Sets measurement `key`.
    pub fn metric(mut self, key: &str, value: f64) -> BenchRecord {
        self.metrics.insert(key.to_string(), value);
        self
    }

    /// The text axis `key`.
    fn text(&self, key: &str) -> Result<&str, String> {
        match self.params.get(key) {
            Some(Param::Text(text)) => Ok(text),
            _ => Err(self.missing("text param", key)),
        }
    }

    /// The count axis `key`.
    fn int(&self, key: &str) -> Result<u64, String> {
        match self.params.get(key) {
            Some(Param::Int(n)) => Ok(*n),
            _ => Err(self.missing("integer param", key)),
        }
    }

    /// Measurement `key`.
    fn value(&self, key: &str) -> Result<f64, String> {
        self.metrics
            .get(key)
            .copied()
            .ok_or_else(|| self.missing("metric", key))
    }

    /// True if text axis `key` is `value`.
    fn is(&self, key: &str, value: &str) -> bool {
        self.text(key) == Ok(value)
    }

    fn missing(&self, what: &str, key: &str) -> String {
        format!("a `{}` record has no {what} `{key}`", self.table)
    }

    fn to_json(&self) -> Json {
        let params = self.params.iter().map(|(k, v)| {
            let v = match v {
                Param::Text(text) => Json::Str(text.clone()),
                Param::Int(n) => Json::Num(*n as f64),
            };
            (k.clone(), v)
        });
        let metrics = self.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
        Json::Obj(vec![
            ("table".into(), Json::Str(self.table.clone())),
            ("params".into(), Json::Obj(params.collect())),
            ("metrics".into(), Json::Obj(metrics.collect())),
        ])
    }

    fn from_json(value: &Json) -> Result<BenchRecord, String> {
        let fields = |key: &str| match value.get(key) {
            Some(Json::Obj(fields)) => Ok(fields),
            _ => Err(format!(
                "record without a `{key}` object: {}",
                value.to_json()
            )),
        };
        let mut record = BenchRecord::new(
            value
                .get("table")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("record without a `table`: {}", value.to_json()))?,
        );
        for (key, v) in fields("params")? {
            let param = match v {
                Json::Str(text) => Param::Text(text.clone()),
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Param::Int(*n as u64),
                _ => {
                    return Err(format!(
                        "`{}` param `{key}` is {}",
                        record.table,
                        v.to_json()
                    ))
                }
            };
            record.params.insert(key.clone(), param);
        }
        for (key, v) in fields("metrics")? {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("`{}` metric `{key}` is {}", record.table, v.to_json()))?;
            record.metrics.insert(key.clone(), n);
        }
        Ok(record)
    }
}

/// Reads every record from a report file. A missing file holds no records;
/// a malformed file, another schema version or a malformed record is an
/// error.
pub fn load_records(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let version = doc
        .get("schema_version")
        .map_or("none".into(), Json::to_json);
    if version != SCHEMA_VERSION.to_string() {
        return Err(format!(
            "{}: schema_version {version}, expected {SCHEMA_VERSION} (regenerate the report)",
            path.display()
        ));
    }
    doc.get("records")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no `records` array", path.display()))?
        .iter()
        .map(|r| BenchRecord::from_json(r).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Appends records to a report file (creating it if needed). Earlier
/// records of the tables in `new` are replaced, not duplicated; records of
/// other tables are kept.
pub fn append_records(path: &Path, new: &[BenchRecord]) -> Result<(), String> {
    let mut records = load_records(path)?;
    records.retain(|old| new.iter().all(|r| r.table != old.table));
    records.extend_from_slice(new);
    let doc = Json::Obj(vec![
        ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
        (
            "records".into(),
            Json::Arr(records.iter().map(BenchRecord::to_json).collect()),
        ),
    ]);
    std::fs::write(path, doc.to_json() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// FNV-1a 64-bit hash of a string, as fixed-width hex. Used to compare
/// canonical database dumps across frontier modes without storing the
/// dumps themselves in the report.
pub fn fnv1a_hex(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// A bound a gate holds a figure to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    AtMost(f64),
    AtLeast(f64),
}

/// One number a gate reports: its label, its value and the bound it was
/// held to (`None` when it is context, or its check was skipped).
pub type Figure = (String, f64, Option<Limit>);

/// A gate's judgement of one report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateVerdict {
    /// The gate's name (`repair`, `serve`, `shards`, ...).
    pub gate: &'static str,
    /// The figures the gate computed, in print order.
    pub figures: Vec<Figure>,
    /// Why (part of) the gate was not enforced, if it was not.
    pub skipped: Option<String>,
    /// True if every enforced check held.
    pub pass: bool,
}

impl GateVerdict {
    /// True if any figure was held to a bound, i.e. the gate enforced
    /// something rather than being skipped outright.
    fn enforced(&self) -> bool {
        self.figures.iter().any(|(_, _, limit)| limit.is_some())
    }

    /// The report lines: the figures, a `SKIP` line when (part of) the gate
    /// was not enforced, and `PASS`/`FAIL` when anything was.
    pub fn lines(&self) -> Vec<String> {
        let figures: Vec<String> = self
            .figures
            .iter()
            .map(|(label, value, limit)| {
                let value = if value.fract() == 0.0 {
                    format!("{value}")
                } else {
                    format!("{value:.3}")
                };
                match limit {
                    Some(Limit::AtMost(l)) => format!("{label} {value} (<= {l})"),
                    Some(Limit::AtLeast(l)) => format!("{label} {value} (>= {l})"),
                    None => format!("{label} {value}"),
                }
            })
            .collect();
        let mut lines = vec![format!("{}: {}", self.gate, figures.join(", "))];
        if let Some(reason) = &self.skipped {
            lines.push(format!("{}: SKIP — {reason}", self.gate));
        }
        if self.enforced() {
            let word = if self.pass { "PASS" } else { "FAIL" };
            lines.push(format!("{}: {word}", self.gate));
        }
        lines
    }
}

fn figure(label: &str, value: f64, limit: Option<Limit>) -> Figure {
    (label.to_string(), value, limit)
}

/// The records of `table`.
fn of_table<'a>(
    records: &'a [BenchRecord],
    table: &'a str,
) -> impl Iterator<Item = &'a BenchRecord> {
    records.iter().filter(move |r| r.table == table)
}

/// The extreme (`pick` = `f64::max` / `f64::min`) of `metric` over
/// `records`; `None` when there are none.
fn best<'a>(
    records: impl IntoIterator<Item = &'a BenchRecord>,
    metric: &str,
    pick: fn(f64, f64) -> f64,
) -> Result<Option<f64>, String> {
    let mut best: Option<f64> = None;
    for r in records {
        let v = r.value(metric)?;
        best = Some(best.map_or(v, |b| pick(b, v)));
    }
    Ok(best)
}

/// `records` keyed by their integer param `key`.
fn keyed<'a>(
    records: impl IntoIterator<Item = &'a BenchRecord>,
    key: &str,
) -> Result<Vec<(u64, &'a BenchRecord)>, String> {
    records.into_iter().map(|r| Ok((r.int(key)?, r))).collect()
}

/// The workload the repair gate checks.
pub const GATE_WORKLOAD: &str = "table7_repair_100";

/// Largest slowdown of partitioned parallel repair against sequential
/// repair the repair gate tolerates, in percent.
pub const REPAIR_MAX_SLOWDOWN_PERCENT: f64 = 10.0;

/// Repair gate over `BENCH_repair.json`: on the [`GATE_WORKLOAD`], parallel
/// repair (workers > 0) must not be slower than sequential repair
/// (workers == 0) by more than [`REPAIR_MAX_SLOWDOWN_PERCENT`]. Scenario
/// times are summed, which is more stable than per-scenario comparison on
/// small workloads.
pub fn evaluate_repair_gate(records: &[BenchRecord]) -> Result<GateVerdict, String> {
    let (mut sequential_ms, mut parallel_ms) = (0.0, 0.0);
    for r in of_table(records, GATE_WORKLOAD) {
        let ms = r.value("repair_ms")?;
        if r.int("workers")? == 0 {
            sequential_ms += ms;
        } else {
            parallel_ms += ms;
        }
    }
    if sequential_ms <= 0.0 || parallel_ms <= 0.0 {
        return Err(format!(
            "no sequential/parallel record pair for workload `{GATE_WORKLOAD}` \
             (run table7_repair_100 with --workers N --json first)"
        ));
    }
    let ratio = parallel_ms / sequential_ms;
    let limit = 1.0 + REPAIR_MAX_SLOWDOWN_PERCENT / 100.0;
    Ok(GateVerdict {
        gate: "repair",
        figures: vec![
            figure("sequential ms", sequential_ms, None),
            figure("parallel ms", parallel_ms, None),
            figure("ratio", ratio, Some(Limit::AtMost(limit))),
        ],
        skipped: None,
        pass: ratio <= limit,
    })
}

/// Highest logging overhead the recovery gate tolerates, in percent.
/// Observed values sit below ~80% even on the file backend; the limit
/// leaves headroom for shared-runner noise while still catching a
/// regression that makes the durable log dominate serving.
pub const RECOVERY_MAX_OVERHEAD_PERCENT: f64 = 250.0;

/// Highest `recover_ms / serve_ms` the recovery gate tolerates. Recovery
/// replays a subset of the serving work (writes only), so it must not take
/// longer than serving did by more than this factor.
pub const RECOVERY_MAX_RECOVER_RATIO: f64 = 2.0;

/// Absolute floor (ms) under which recovery time always passes — tiny
/// workloads bottom out in timer noise, not replay cost.
pub const RECOVERY_FLOOR_MS: f64 = 50.0;

/// Baseline serving time (ms) under which the overhead check is skipped:
/// a sub-floor baseline makes `overhead_percent` a ratio of two
/// timer-noise measurements, not a statement about the durable log.
pub const RECOVERY_OVERHEAD_FLOOR_MS: f64 = 5.0;

/// Recovery gate over `BENCH_recovery.json`: every record's logging
/// overhead must stay under [`RECOVERY_MAX_OVERHEAD_PERCENT`] (checked only
/// when the in-memory baseline ran at least [`RECOVERY_OVERHEAD_FLOOR_MS`],
/// so noise-sized measurements never fail the gate) and its recovery time
/// under `max(serve_ms × `[`RECOVERY_MAX_RECOVER_RATIO`]`, `[`RECOVERY_FLOOR_MS`]`)`.
pub fn evaluate_recovery_gate(records: &[BenchRecord]) -> Result<GateVerdict, String> {
    let (mut worst_overhead, mut worst_ratio) = (f64::MIN, f64::MIN);
    let mut pass = true;
    let mut seen = false;
    for r in of_table(records, "table9_recovery") {
        seen = true;
        let (overhead, recover_ms) = (r.value("overhead_percent")?, r.value("recover_ms")?);
        let ratio = recover_ms / r.value("serve_ms")?.max(1e-9);
        worst_overhead = worst_overhead.max(overhead);
        worst_ratio = worst_ratio.max(ratio);
        let overhead_regressed = r.value("baseline_ms")? >= RECOVERY_OVERHEAD_FLOOR_MS
            && overhead > RECOVERY_MAX_OVERHEAD_PERCENT;
        if overhead_regressed
            || (recover_ms > RECOVERY_FLOOR_MS && ratio > RECOVERY_MAX_RECOVER_RATIO)
        {
            pass = false;
        }
    }
    if !seen {
        return Err("no recovery records (run table9_recovery with --json first)".to_string());
    }
    Ok(GateVerdict {
        gate: "recovery",
        figures: vec![
            figure(
                "worst overhead %",
                worst_overhead,
                Some(Limit::AtMost(RECOVERY_MAX_OVERHEAD_PERCENT)),
            ),
            figure(
                "worst recover/serve",
                worst_ratio,
                Some(Limit::AtMost(RECOVERY_MAX_RECOVER_RATIO)),
            ),
        ],
        skipped: None,
        pass,
    })
}

/// Allowed growth of delta-mode commit time across the report's database
/// sizes (the acceptance bar: roughly flat, ≤ 2× while the database grows
/// 10×, since the repair footprint is fixed).
pub const COMMIT_MAX_RATIO: f64 = 2.0;

/// Absolute floor (ms) under which the large-database commit always
/// passes — sub-floor times are timer noise, not O(database) work.
pub const COMMIT_FLOOR_MS: f64 = 5.0;

/// Commit gate over `BENCH_commit.json`: the mutation-tracked (`delta`)
/// commit time at the largest database size must be under
/// `max(small × `[`COMMIT_MAX_RATIO`]`, `[`COMMIT_FLOOR_MS`]`)`. Needs delta
/// records at two or more database sizes.
pub fn evaluate_commit_gate(records: &[BenchRecord]) -> Result<GateVerdict, String> {
    let delta = keyed(
        of_table(records, "table10_commit").filter(|r| r.is("mode", "delta")),
        "db_rows",
    )?;
    let by_rows = |(rows, _): &&(u64, &BenchRecord)| *rows;
    let (Some(&(small_rows, small)), Some(&(large_rows, large))) = (
        delta.iter().min_by_key(by_rows),
        delta.iter().max_by_key(by_rows),
    ) else {
        return Err("no delta-mode commit records (run table10_commit with --json first)".into());
    };
    if small_rows == large_rows {
        return Err(format!(
            "commit report holds only one database size ({small_rows} rows); cannot check scaling"
        ));
    }
    let (small_ms, large_ms) = (small.value("commit_ms")?, large.value("commit_ms")?);
    let ratio = large_ms / small_ms.max(1e-9);
    Ok(GateVerdict {
        gate: "commit",
        figures: vec![
            figure("small rows", small_rows as f64, None),
            figure("small delta ms", small_ms, None),
            figure("large rows", large_rows as f64, None),
            figure("large delta ms", large_ms, None),
            figure("ratio", ratio, Some(Limit::AtMost(COMMIT_MAX_RATIO))),
        ],
        skipped: None,
        pass: large_ms <= COMMIT_FLOOR_MS || ratio <= COMMIT_MAX_RATIO,
    })
}

/// Largest group-commit throughput regression against the relaxed tier the
/// serve gate tolerates, in percent.
pub const SERVE_MAX_REGRESSION_PERCENT: f64 = 10.0;

/// Serve gate over `BENCH_serve.json`: the best `group`-tier throughput
/// must stay within [`SERVE_MAX_REGRESSION_PERCENT`] of the best
/// `relaxed`-tier throughput (the relaxed tier acknowledges without waiting
/// for durability, so it bounds what the serve path can do; group commit
/// buys durable acks and must not give back more than the allowed slice).
/// Best-across-thread-counts is compared, which is much more stable on
/// shared runners than per-thread-count ratios. The shard sweep
/// ([`SHARD_WORKLOAD`]) has its own gate and does not move the ceiling.
pub fn evaluate_serve_gate(records: &[BenchRecord]) -> Result<GateVerdict, String> {
    let tier = |name: &'static str| {
        of_table(records, "table11_serve").filter(move |r| r.is("durability", name))
    };
    let (Some(relaxed_rps), Some(group_rps)) = (
        best(tier("relaxed"), "throughput_rps", f64::max)?,
        best(tier("group"), "throughput_rps", f64::max)?,
    ) else {
        return Err(
            "no relaxed/group serving records (run table11_serve with --json first)".to_string(),
        );
    };
    let ratio = group_rps / relaxed_rps.max(1e-9);
    let limit = 1.0 - SERVE_MAX_REGRESSION_PERCENT / 100.0;
    Ok(GateVerdict {
        gate: "serve",
        figures: vec![
            figure("relaxed rps", relaxed_rps, None),
            figure("group rps", group_rps, None),
            figure("ratio", ratio, Some(Limit::AtLeast(limit))),
        ],
        skipped: None,
        pass: ratio >= limit,
    })
}

/// Table name of the shard-scaling sweep appended to `BENCH_serve.json`
/// by `table11_serve`: the conflict-free clone-safe workload served at
/// 1/2/4/8 engine shards.
pub const SHARD_WORKLOAD: &str = "table11_serve_shards";

/// Required throughput speedup of [`SHARD_GATE_SHARDS`] engine shards over
/// the single-shard baseline on the conflict-free workload.
pub const SHARD_MIN_SPEEDUP: f64 = 1.5;

/// The shard count whose speedup the gate enforces.
pub const SHARD_GATE_SHARDS: usize = 4;

/// Minimum CPUs on the measuring host for the speedup floor to be
/// enforceable; below this the gate reports `skipped` instead of failing.
pub const SHARD_MIN_HOST_CPUS: usize = 4;

/// Shard gate over `BENCH_serve.json`: on the conflict-free
/// [`SHARD_WORKLOAD`], serving with [`SHARD_GATE_SHARDS`] engine shards
/// must reach at least [`SHARD_MIN_SPEEDUP`]x the single-shard throughput.
/// Parallel speedup physically requires parallel hardware, so on hosts
/// with fewer than [`SHARD_MIN_HOST_CPUS`] CPUs the gate is skipped (and
/// passes) rather than failing meaninglessly; CI runners have enough cores.
pub fn evaluate_shard_gate(records: &[BenchRecord]) -> Result<GateVerdict, String> {
    let at = |shards: usize| {
        of_table(records, SHARD_WORKLOAD).filter(move |r| r.int("shards") == Ok(shards as u64))
    };
    let (Some(baseline_rps), Some(sharded_rps)) = (
        best(at(1), "throughput_rps", f64::max)?,
        best(at(SHARD_GATE_SHARDS), "throughput_rps", f64::max)?,
    ) else {
        return Err(format!(
            "no {SHARD_WORKLOAD} records at 1 and {SHARD_GATE_SHARDS} shards \
             (run table11_serve with --json first)"
        ));
    };
    let mut host_cpus = 0;
    for r in of_table(records, SHARD_WORKLOAD) {
        host_cpus = host_cpus.max(r.int("host_cpus")?);
    }
    let speedup = sharded_rps / baseline_rps.max(1e-9);
    let enforced = host_cpus >= SHARD_MIN_HOST_CPUS as u64;
    Ok(GateVerdict {
        gate: "shards",
        figures: vec![
            figure("1-shard rps", baseline_rps, None),
            (format!("{SHARD_GATE_SHARDS}-shard rps"), sharded_rps, None),
            figure(
                "speedup",
                speedup,
                enforced.then_some(Limit::AtLeast(SHARD_MIN_SPEEDUP)),
            ),
            figure("host cpus", host_cpus as f64, None),
        ],
        skipped: (!enforced).then(|| {
            format!(
                "shard speedup floor not enforced: the measuring host has {host_cpus} \
                 cpu(s), fewer than the {SHARD_MIN_HOST_CPUS} needed to exhibit parallel \
                 speedup (CI runners enforce this gate)"
            )
        }),
        pass: !enforced || speedup >= SHARD_MIN_SPEEDUP,
    })
}

/// Minimum frontier-pruning factor the gate demands: on the surgical
/// single-column attack, the partition-grained engine must re-execute at
/// least this many times more history nodes (application runs + queries)
/// than the column-aware engine. The attack dirties one column read by
/// almost nobody, so the column-aware frontier is a handful of nodes while
/// the partition-grained frontier is every post-attack reader of the
/// page — well past 5× at bench scale.
pub const FRONTIER_MIN_RATIO: f64 = 5.0;

/// Frontier gate over `BENCH_frontier.json`: every (table, users) pair must
/// hold both a `column_aware` and a `partition_grained` record, the
/// partition-grained record must re-execute at least
/// [`FRONTIER_MIN_RATIO`] times as many history nodes
/// (`reexecuted_actions + reexecuted_queries`), and both modes' canonical
/// dump checksums must be byte-identical (pruning may only skip
/// re-executions that could not change the final state).
pub fn evaluate_frontier_gate(records: &[BenchRecord]) -> Result<GateVerdict, String> {
    let nodes = |r: &BenchRecord| -> Result<f64, String> {
        Ok(r.value("reexecuted_actions")? + r.value("reexecuted_queries")?)
    };
    let (mut worst_ratio, mut diverged, mut pairs) = (f64::MAX, 0usize, 0usize);
    for aware in records.iter().filter(|r| r.is("mode", "column_aware")) {
        let users = aware.int("users")?;
        let Some(oblivious) = records.iter().find(|r| {
            r.is("mode", "partition_grained")
                && r.table == aware.table
                && r.int("users") == Ok(users)
        }) else {
            return Err(format!(
                "workload `{}` ({users} users) has a column_aware record but no \
                 partition_grained counterpart",
                aware.table
            ));
        };
        pairs += 1;
        worst_ratio = worst_ratio.min(nodes(oblivious)? / nodes(aware)?.max(1e-9));
        if oblivious.text("dump_checksum")? != aware.text("dump_checksum")? {
            diverged += 1;
        }
    }
    if pairs == 0 {
        return Err(
            "no frontier records (run table7_repair_100 with --frontier PATH first)".to_string(),
        );
    }
    Ok(GateVerdict {
        gate: "frontier",
        figures: vec![
            figure(
                "worst pruning",
                worst_ratio,
                Some(Limit::AtLeast(FRONTIER_MIN_RATIO)),
            ),
            figure(
                "diverged final states",
                diverged as f64,
                Some(Limit::AtMost(0.0)),
            ),
        ],
        skipped: None,
        pass: diverged == 0 && worst_ratio >= FRONTIER_MIN_RATIO,
    })
}

/// Highest p99 inflation the storage gate tolerates when the background
/// maintenance worker (chain folds, segment retirement, cold-tier moves)
/// runs concurrently with serving: maintained p99 must stay within this
/// factor of quiescent p99.
pub const STORAGE_MAX_P99_RATIO: f64 = 2.0;

/// Absolute p99 (µs) under which the maintained serve run always passes —
/// a sub-millisecond p99 is a healthy serve path whatever its ratio to an
/// even-smaller quiescent number.
pub const STORAGE_P99_FLOOR_US: f64 = 1000.0;

/// Minimum factor by which an incremental (delta) checkpoint must beat a
/// whole-state (base) checkpoint at the largest database size in the
/// report. The delta encodes only rows changed since the last checkpoint,
/// so on a grown database with a fixed write footprint the advantage is
/// large; this floor catches the delta path silently degrading to
/// O(database).
pub const STORAGE_MIN_CKPT_ADVANTAGE: f64 = 5.0;

/// Whole-state checkpoint time (ms) under which the advantage check is
/// skipped: when even the full base encode is timer noise, the ratio says
/// nothing about scaling.
pub const STORAGE_CKPT_FLOOR_MS: f64 = 2.0;

/// Storage gate over `BENCH_storage.json`: serving p99 under concurrent
/// maintenance must stay within [`STORAGE_MAX_P99_RATIO`] of quiescent p99
/// (best-of across records, passing under [`STORAGE_P99_FLOOR_US`]), and at
/// the largest database size the incremental checkpoint must be at least
/// [`STORAGE_MIN_CKPT_ADVANTAGE`] times cheaper than the whole-state
/// checkpoint (passing when the whole-state time is under
/// [`STORAGE_CKPT_FLOOR_MS`]).
pub fn evaluate_storage_gate(records: &[BenchRecord]) -> Result<GateVerdict, String> {
    let storage = || of_table(records, "table12_storage");
    let serve = |maintenance: bool| {
        storage().filter(move |r| {
            r.is("kind", "serve") && r.int("maintenance") == Ok(maintenance.into())
        })
    };
    let (Some(quiescent_p99), Some(maintained_p99)) = (
        best(serve(false), "p99_us", f64::min)?,
        best(serve(true), "p99_us", f64::min)?,
    ) else {
        return Err(
            "no quiescent/maintained serve record pair (run table12_storage with --json first)"
                .to_string(),
        );
    };
    let largest = |mode: &'static str| {
        let checkpoints =
            storage().filter(move |r| r.is("kind", "checkpoint") && r.is("mode", mode));
        let largest = keyed(checkpoints, "db_rows")?
            .into_iter()
            .max_by_key(|(rows, _)| *rows);
        Ok::<_, String>(largest.map(|(_, r)| r))
    };
    let (Some(incremental), Some(whole)) = (largest("incremental")?, largest("whole_state")?)
    else {
        return Err(
            "no incremental/whole_state checkpoint record pair (run table12_storage with \
             --json first)"
                .to_string(),
        );
    };
    let (incremental_ms, whole_ms) = (
        incremental.value("checkpoint_ms")?,
        whole.value("checkpoint_ms")?,
    );
    let p99_ratio = maintained_p99 / quiescent_p99.max(1e-9);
    let advantage = whole_ms / incremental_ms.max(1e-9);
    let p99_ok = maintained_p99 <= STORAGE_P99_FLOOR_US || p99_ratio <= STORAGE_MAX_P99_RATIO;
    let ckpt_ok = whole_ms <= STORAGE_CKPT_FLOOR_MS || advantage >= STORAGE_MIN_CKPT_ADVANTAGE;
    Ok(GateVerdict {
        gate: "storage",
        figures: vec![
            figure("quiescent p99 us", quiescent_p99, None),
            figure("maintained p99 us", maintained_p99, None),
            figure(
                "p99 ratio",
                p99_ratio,
                Some(Limit::AtMost(STORAGE_MAX_P99_RATIO)),
            ),
            figure("checkpoint rows", whole.int("db_rows")? as f64, None),
            figure("whole-state ms", whole_ms, None),
            figure("incremental ms", incremental_ms, None),
            figure(
                "checkpoint advantage",
                advantage,
                Some(Limit::AtLeast(STORAGE_MIN_CKPT_ADVANTAGE)),
            ),
        ],
        skipped: None,
        pass: p99_ok && ckpt_ok,
    })
}

/// Loudest steady-state lag p99 (in records) the replication gate accepts.
/// The bound is deliberately loud: the standby applies on one thread while
/// the primary serves from many, so transient spikes are expected — but a
/// p99 past this says the standby cannot keep up with the workload at all,
/// which breaks both bounded-staleness reads and fast failover.
pub const REPLICATION_MAX_LAG_P99: f64 = 1024.0;

/// Minimum factor by which promoting a warm standby must beat cold
/// log-replay at the largest measured history. The standby checkpointed as
/// it applied, so promotion replays only the tail past its chain; cold
/// open replays the primary's whole (never checkpointed) log.
pub const REPLICATION_MIN_FAILOVER_ADVANTAGE: f64 = 3.0;

/// Cold-open time (ms) under which the failover-advantage check is
/// skipped: when even full log replay is a few milliseconds, the ratio is
/// timer noise, not a scaling statement.
pub const REPLICATION_COLD_FLOOR_MS: f64 = 20.0;

/// Replication gate over `BENCH_replication.json`: steady-state lag p99
/// must stay under [`REPLICATION_MAX_LAG_P99`] records (best-of across lag
/// records), and at the largest measured history, promoting the warm
/// standby must be at least [`REPLICATION_MIN_FAILOVER_ADVANTAGE`] times
/// faster than cold log-replay (skipped when the cold open is under
/// [`REPLICATION_COLD_FLOOR_MS`]).
pub fn evaluate_replication_gate(records: &[BenchRecord]) -> Result<GateVerdict, String> {
    let kind = |name: &'static str| {
        of_table(records, "table13_replication").filter(move |r| r.is("kind", name))
    };
    let lag_p99 = best(kind("lag"), "lag_p99_records", f64::min)?
        .ok_or_else(|| "no lag record (run table13_replication with --json first)".to_string())?;
    let (actions, largest) = keyed(kind("failover"), "history_actions")?
        .into_iter()
        .max_by_key(|(actions, _)| *actions)
        .ok_or_else(|| {
            "no failover record (run table13_replication with --json first)".to_string()
        })?;
    let (failover_ms, cold_ms) = (largest.value("failover_ms")?, largest.value("cold_ms")?);
    let advantage = cold_ms / failover_ms.max(1e-9);
    let enforced = cold_ms > REPLICATION_COLD_FLOOR_MS;
    Ok(GateVerdict {
        gate: "replication",
        figures: vec![
            figure(
                "lag p99 records",
                lag_p99,
                Some(Limit::AtMost(REPLICATION_MAX_LAG_P99)),
            ),
            figure("actions", actions as f64, None),
            figure("promote ms", failover_ms, None),
            figure("cold replay ms", cold_ms, None),
            figure(
                "advantage",
                advantage,
                enforced.then_some(Limit::AtLeast(REPLICATION_MIN_FAILOVER_ADVANTAGE)),
            ),
        ],
        skipped: (!enforced).then(|| {
            format!(
                "failover advantage floor not enforced: cold replay took {cold_ms:.2} ms, \
                 inside the {REPLICATION_COLD_FLOOR_MS} ms noise floor (CI runs a history \
                 large enough to enforce it)"
            )
        }),
        pass: lag_p99 <= REPLICATION_MAX_LAG_P99
            && (!enforced || advantage >= REPLICATION_MIN_FAILOVER_ADVANTAGE),
    })
}

/// One CI gate: which report it reads and how it judges it.
pub struct Gate {
    /// The `bench_gate` flag naming the report; `None` for the report
    /// every run requires, given as the first positional argument.
    pub flag: Option<&'static str>,
    /// The report file's conventional name.
    pub report: &'static str,
    /// What the gate demands, for `bench_gate --help`.
    pub description: String,
    /// The gate itself.
    pub evaluate: fn(&[BenchRecord]) -> Result<GateVerdict, String>,
}

/// Every CI gate, in the order `bench_gate` runs them. Two gates read the
/// serving report.
pub fn gates() -> Vec<Gate> {
    fn gate(
        flag: Option<&'static str>,
        report: &'static str,
        description: String,
        evaluate: fn(&[BenchRecord]) -> Result<GateVerdict, String>,
    ) -> Gate {
        Gate {
            flag,
            report,
            description,
            evaluate,
        }
    }
    vec![
        gate(
            None,
            "BENCH_repair.json",
            format!(
                "on `{GATE_WORKLOAD}`, summed parallel repair time at most \
                 {REPAIR_MAX_SLOWDOWN_PERCENT}% over sequential"
            ),
            evaluate_repair_gate,
        ),
        gate(
            Some("--recovery"),
            "BENCH_recovery.json",
            format!(
                "logging overhead at most {RECOVERY_MAX_OVERHEAD_PERCENT}% (when the in-memory \
                 baseline ran >= {RECOVERY_OVERHEAD_FLOOR_MS} ms) and recovery at most \
                 {RECOVERY_MAX_RECOVER_RATIO}x serving time (or <= {RECOVERY_FLOOR_MS} ms)"
            ),
            evaluate_recovery_gate,
        ),
        gate(
            Some("--commit"),
            "BENCH_commit.json",
            format!(
                "delta-tracked repair commit at the largest database size at most \
                 {COMMIT_MAX_RATIO}x the smallest (or <= {COMMIT_FLOOR_MS} ms)"
            ),
            evaluate_commit_gate,
        ),
        gate(
            Some("--serve"),
            "BENCH_serve.json",
            format!(
                "best group-commit throughput at most {SERVE_MAX_REGRESSION_PERCENT}% under \
                 best relaxed-tier throughput"
            ),
            evaluate_serve_gate,
        ),
        gate(
            Some("--serve"),
            "BENCH_serve.json",
            format!(
                "{SHARD_GATE_SHARDS} engine shards at least {SHARD_MIN_SPEEDUP}x single-shard \
                 throughput on the conflict-free workload (skipped on hosts with < \
                 {SHARD_MIN_HOST_CPUS} cpus)"
            ),
            evaluate_shard_gate,
        ),
        gate(
            Some("--frontier"),
            "BENCH_frontier.json",
            format!(
                "column-aware repair re-executes at least {FRONTIER_MIN_RATIO}x fewer history \
                 nodes than partition-grained repair, with identical final dumps"
            ),
            evaluate_frontier_gate,
        ),
        gate(
            Some("--storage"),
            "BENCH_storage.json",
            format!(
                "serve p99 under concurrent maintenance at most {STORAGE_MAX_P99_RATIO}x \
                 quiescent (or <= {STORAGE_P99_FLOOR_US} us); at the largest database size the \
                 incremental checkpoint at least {STORAGE_MIN_CKPT_ADVANTAGE}x cheaper than \
                 whole-state (or whole-state <= {STORAGE_CKPT_FLOOR_MS} ms)"
            ),
            evaluate_storage_gate,
        ),
        gate(
            Some("--replication"),
            "BENCH_replication.json",
            format!(
                "standby lag p99 at most {REPLICATION_MAX_LAG_P99} records; at the largest \
                 history warm promotion at least {REPLICATION_MIN_FAILOVER_ADVANTAGE}x faster \
                 than cold log-replay (skipped when cold replay takes <= \
                 {REPLICATION_COLD_FLOOR_MS} ms)"
            ),
            evaluate_replication_gate,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_report(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("warp-bench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Writes `records`, reads them back, and checks a second write of the
    /// same tables replaces rather than duplicates them.
    fn assert_round_trips(name: &str, records: &[BenchRecord]) {
        let path = temp_report(name);
        append_records(&path, records).unwrap();
        assert_eq!(load_records(&path).unwrap(), records);
        append_records(&path, records).unwrap();
        assert_eq!(load_records(&path).unwrap().len(), records.len());
        let _ = std::fs::remove_file(&path);
    }

    fn pass(verdict: Result<GateVerdict, String>) -> bool {
        verdict.unwrap().pass
    }

    impl GateVerdict {
        fn figure(&self, label: &str) -> Option<f64> {
            self.figures
                .iter()
                .find(|(l, _, _)| l == label)
                .map(|(_, v, _)| *v)
        }
    }

    fn record(workload: &str, scenario: &str, workers: usize, ms: f64) -> BenchRecord {
        let partitioned = workers > 0;
        BenchRecord::new(workload)
            .param("scenario", scenario)
            .param("users", 20usize)
            .param("workers", workers)
            .metric("repair_ms", ms)
            .metric("total_actions", 100.0)
            .metric("app_runs_reexecuted", 10.0)
            .metric("queries_reexecuted", 50.0)
            .metric("partitions_total", if partitioned { 8.0 } else { 0.0 })
            .metric("partitions_repaired", if partitioned { 4.0 } else { 0.0 })
            .metric("escalations", 0.0)
    }

    #[test]
    fn report_file_round_trip_and_workload_replacement() {
        let path = temp_report("report");
        append_records(&path, &[record("table7_repair_100", "stored_xss", 0, 10.0)]).unwrap();
        append_records(
            &path,
            &[record("table8_repair_5000", "stored_xss", 4, 25.0)],
        )
        .unwrap();
        assert_eq!(load_records(&path).unwrap().len(), 2);
        // Re-running table7 replaces its old records, not duplicates them.
        append_records(
            &path,
            &[
                record("table7_repair_100", "stored_xss", 0, 11.0),
                record("table7_repair_100", "stored_xss", 4, 6.0),
            ],
        )
        .unwrap();
        let records = load_records(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records.iter().any(|r| r.table == "table8_repair_5000"));
        // A record missing a field fails to load instead of being skipped.
        std::fs::write(
            &path,
            r#"{"schema_version": 2, "records": [{"table": "table7_repair_100", "params": {}}]}"#,
        )
        .unwrap();
        assert!(load_records(&path).is_err());
        // So does a report in another schema version.
        std::fs::write(&path, r#"{"schema_version": 1, "records": []}"#).unwrap();
        assert!(load_records(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let records = vec![
            record(GATE_WORKLOAD, "stored_xss", 0, 100.0),
            record(GATE_WORKLOAD, "sql_injection", 0, 100.0),
            record(GATE_WORKLOAD, "stored_xss", 4, 105.0),
            record(GATE_WORKLOAD, "sql_injection", 4, 100.0),
            // Other workloads are ignored by the gate.
            record("table8_repair_5000", "stored_xss", 4, 9999.0),
        ];
        let verdict = evaluate_repair_gate(&records).unwrap();
        assert!(
            verdict.pass,
            "2.5% slower is within the 10% gate: {verdict:?}"
        );
        assert!((verdict.figure("ratio").unwrap() - 1.025).abs() < 1e-9);
        let mut records = records;
        records[2] = record(GATE_WORKLOAD, "stored_xss", 4, 125.0);
        let verdict = evaluate_repair_gate(&records).unwrap();
        assert!(!verdict.pass, "12.5% slower exceeds the 10% gate");
        // A record missing a field the gate reads is an error, not a pass.
        let mut broken = record(GATE_WORKLOAD, "stored_xss", 4, 1.0);
        broken.params.remove("workers");
        records.push(broken);
        assert!(evaluate_repair_gate(&records).is_err());
    }

    #[test]
    fn gate_requires_both_engines() {
        let records = vec![record(GATE_WORKLOAD, "stored_xss", 0, 100.0)];
        assert!(evaluate_repair_gate(&records).is_err());
        assert!(evaluate_repair_gate(&[]).is_err());
    }

    fn recovery_record(overhead: f64, serve_ms: f64, recover_ms: f64) -> BenchRecord {
        BenchRecord::new("table9_recovery")
            .param("backend", "memory")
            .param("actions", 100usize)
            .param("from_checkpoint", false)
            .metric("serve_ms", serve_ms)
            .metric("baseline_ms", serve_ms / (1.0 + overhead / 100.0))
            .metric("overhead_percent", overhead)
            .metric("recover_ms", recover_ms)
            .metric("store_bytes", 1000.0)
    }

    #[test]
    fn recovery_gate_limits_overhead_and_recovery_time() {
        // Healthy: modest overhead, recovery faster than serving.
        assert!(pass(evaluate_recovery_gate(&[recovery_record(
            80.0, 100.0, 70.0
        )])));
        // Overhead regression fails.
        assert!(!pass(evaluate_recovery_gate(&[recovery_record(
            400.0, 100.0, 70.0
        )])));
        // Recovery-time regression fails...
        assert!(!pass(evaluate_recovery_gate(&[recovery_record(
            80.0, 100.0, 900.0
        )])));
        // ...unless it is under the absolute noise floor.
        assert!(pass(evaluate_recovery_gate(&[recovery_record(
            80.0, 1.0, 40.0
        )])));
        // A huge overhead ratio over a sub-floor baseline is timer noise,
        // not a logging regression.
        assert!(pass(evaluate_recovery_gate(&[recovery_record(
            400.0, 0.5, 0.1
        )])));
        // No data is an error, not a silent pass.
        assert!(evaluate_recovery_gate(&[]).is_err());
    }

    fn commit_record(mode: &str, db_rows: usize, commit_ms: f64) -> BenchRecord {
        BenchRecord::new("table10_commit")
            .param("mode", mode)
            .param("db_rows", db_rows)
            .metric("commit_ms", commit_ms)
            .metric("repair_ms", commit_ms * 10.0)
            .metric("dirty_tables", 1.0)
            .metric("dirty_rows", 12.0)
    }

    #[test]
    fn commit_gate_checks_delta_flatness_only() {
        // Flat delta commits pass even though snapshot commits blow up.
        let records = vec![
            commit_record("delta", 1_000, 10.0),
            commit_record("delta", 10_000, 14.0),
            commit_record("snapshot", 1_000, 20.0),
            commit_record("snapshot", 10_000, 400.0),
        ];
        let verdict = evaluate_commit_gate(&records).unwrap();
        assert!(verdict.pass, "{verdict:?}");
        assert_eq!(verdict.figure("large rows"), Some(10_000.0));
        // Delta commit growing with the database fails.
        let records = vec![
            commit_record("delta", 1_000, 10.0),
            commit_record("delta", 10_000, 95.0),
        ];
        assert!(!pass(evaluate_commit_gate(&records)));
        // Sub-floor times pass regardless of ratio (timer noise).
        let records = vec![
            commit_record("delta", 1_000, 0.01),
            commit_record("delta", 10_000, 0.08),
        ];
        assert!(pass(evaluate_commit_gate(&records)));
        // One size or zero records is an error.
        assert!(evaluate_commit_gate(&[commit_record("delta", 1_000, 1.0)]).is_err());
        assert!(evaluate_commit_gate(&[]).is_err());
    }

    fn serve_record(durability: &str, threads: usize, rps: f64) -> BenchRecord {
        BenchRecord::new("table11_serve")
            .param("durability", durability)
            .param("threads", threads)
            .param("shards", 1usize)
            .param("host_cpus", 8usize)
            .metric("requests", 400.0)
            .metric("throughput_rps", rps)
            .metric("p50_us", 100.0)
            .metric("p99_us", 900.0)
            .metric("writer_batches", 40.0)
            .metric("largest_batch", 8.0)
    }

    fn shard_record(shards: usize, rps: f64, host_cpus: usize) -> BenchRecord {
        BenchRecord {
            table: SHARD_WORKLOAD.into(),
            ..serve_record("relaxed", 8, rps)
                .param("shards", shards)
                .param("host_cpus", host_cpus)
        }
    }

    #[test]
    fn serve_gate_compares_best_group_vs_best_relaxed() {
        let records = vec![
            serve_record("relaxed", 1, 9_000.0),
            serve_record("relaxed", 4, 10_000.0),
            serve_record("group", 1, 8_800.0),
            serve_record("group", 4, 9_500.0),
            serve_record("immediate", 4, 7_000.0),
        ];
        let verdict = evaluate_serve_gate(&records).unwrap();
        assert!(
            verdict.pass,
            "5% under relaxed passes a 10% gate: {verdict:?}"
        );
        assert!((verdict.figure("ratio").unwrap() - 0.95).abs() < 1e-9);
        // A real regression fails.
        let records = vec![
            serve_record("relaxed", 4, 10_000.0),
            serve_record("group", 4, 8_000.0),
        ];
        assert!(!pass(evaluate_serve_gate(&records)));
        // Missing a tier is an error, not a silent pass.
        assert!(evaluate_serve_gate(&[serve_record("relaxed", 1, 1.0)]).is_err());
        assert!(evaluate_serve_gate(&[]).is_err());
        // The shard sweep's (faster) relaxed records must not raise the
        // ceiling the group tier is judged against.
        let records = vec![
            serve_record("relaxed", 4, 10_000.0),
            serve_record("group", 4, 9_500.0),
            shard_record(4, 30_000.0, 8),
        ];
        assert!(pass(evaluate_serve_gate(&records)));
    }

    #[test]
    fn shard_gate_enforces_speedup_on_multicore_hosts_only() {
        // 2x at 4 shards on an 8-cpu host passes the 1.5x floor.
        let records = vec![
            shard_record(1, 5_000.0, 8),
            shard_record(2, 8_000.0, 8),
            shard_record(4, 10_000.0, 8),
            shard_record(8, 11_000.0, 8),
        ];
        let verdict = evaluate_shard_gate(&records).unwrap();
        assert!(verdict.pass && verdict.skipped.is_none(), "{verdict:?}");
        assert!((verdict.figure("speedup").unwrap() - 2.0).abs() < 1e-9);
        // No speedup on a multicore host fails.
        let records = vec![shard_record(1, 5_000.0, 8), shard_record(4, 5_500.0, 8)];
        let verdict = evaluate_shard_gate(&records).unwrap();
        assert!(!verdict.pass && verdict.skipped.is_none(), "{verdict:?}");
        // The identical measurement on a single-core host is skipped, not
        // failed: there is no parallel hardware to exhibit speedup on.
        let records = vec![shard_record(1, 5_000.0, 1), shard_record(4, 5_500.0, 1)];
        let verdict = evaluate_shard_gate(&records).unwrap();
        assert!(verdict.pass && verdict.skipped.is_some(), "{verdict:?}");
        assert!(!verdict.enforced());
        // Missing the sweep (or half of it) is an error, not a silent pass.
        assert!(evaluate_shard_gate(&[shard_record(1, 5_000.0, 8)]).is_err());
        assert!(evaluate_shard_gate(&[serve_record("relaxed", 4, 1.0)]).is_err());
        assert!(evaluate_shard_gate(&[]).is_err());
    }

    #[test]
    fn serve_report_round_trips() {
        assert_round_trips(
            "serve",
            &[
                serve_record("relaxed", 1, 5_000.0),
                serve_record("group", 8, 4_800.0),
            ],
        );
    }

    fn frontier_record(mode: &str, reexecuted: usize, checksum: &str, users: usize) -> BenchRecord {
        BenchRecord::new("table7_repair_100")
            .param("users", users)
            .param("mode", mode)
            .param("dump_checksum", checksum)
            .metric("repair_ms", 12.0)
            .metric("total_actions", 200.0)
            .metric("reexecuted_actions", reexecuted as f64)
            .metric("reexecuted_queries", (reexecuted * 3) as f64)
    }

    #[test]
    fn frontier_gate_demands_pruning_and_matching_dumps() {
        let records = vec![
            frontier_record("column_aware", 4, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        let verdict = evaluate_frontier_gate(&records).unwrap();
        assert!(verdict.pass, "11x pruning passes the 5x gate: {verdict:?}");
        assert!((verdict.figure("worst pruning").unwrap() - 11.0).abs() < 1e-9);
        assert_eq!(verdict.figure("diverged final states"), Some(0.0));
        // Too little pruning fails.
        let records = vec![
            frontier_record("column_aware", 20, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        assert!(!pass(evaluate_frontier_gate(&records)));
        // Diverging final states fail even with strong pruning.
        let records = vec![
            frontier_record("column_aware", 4, "abcd", 20),
            frontier_record("partition_grained", 44, "ffff", 20),
        ];
        let verdict = evaluate_frontier_gate(&records).unwrap();
        assert_eq!(verdict.figure("diverged final states"), Some(1.0));
        assert!(!verdict.pass);
        // A column-aware frontier of zero passes (nothing to re-execute
        // beats everything): ratio uses a tiny denominator floor.
        let records = vec![
            frontier_record("column_aware", 0, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        assert!(pass(evaluate_frontier_gate(&records)));
        // Missing a mode is an error, not a silent pass.
        assert!(evaluate_frontier_gate(&[frontier_record("column_aware", 4, "abcd", 20)]).is_err());
        assert!(evaluate_frontier_gate(&[]).is_err());
    }

    #[test]
    fn frontier_report_round_trips() {
        assert_round_trips(
            "frontier",
            &[
                frontier_record("column_aware", 4, "abcd", 20),
                frontier_record("partition_grained", 44, "abcd", 20),
            ],
        );
    }

    #[test]
    fn fnv1a_is_stable_and_distinguishes() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("warp"), fnv1a_hex("warp"));
        assert_ne!(fnv1a_hex("warp"), fnv1a_hex("wasp"));
    }

    fn storage_serve_record(maintenance: bool, p99_us: f64) -> BenchRecord {
        BenchRecord::new("table12_storage")
            .param("kind", "serve")
            .param("maintenance", maintenance)
            .param("threads", 4usize)
            .metric("requests", 1600.0)
            .metric("throughput_rps", 8_000.0)
            .metric("p50_us", p99_us / 4.0)
            .metric("p99_us", p99_us)
            .metric("folds", if maintenance { 3.0 } else { 0.0 })
            .metric("store_bytes", 100_000.0)
    }

    fn storage_ckpt_record(mode: &str, db_rows: usize, checkpoint_ms: f64) -> BenchRecord {
        BenchRecord::new("table12_storage")
            .param("kind", "checkpoint")
            .param("mode", mode)
            .param("db_rows", db_rows)
            .metric("checkpoint_ms", checkpoint_ms)
            .metric("store_bytes", db_rows as f64 * 100.0)
    }

    #[test]
    fn storage_gate_bounds_maintained_p99_and_demands_delta_advantage() {
        let healthy = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 3_000.0),
            storage_ckpt_record("incremental", 1_000, 0.5),
            storage_ckpt_record("whole_state", 1_000, 4.0),
            storage_ckpt_record("incremental", 10_000, 0.6),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        let verdict = evaluate_storage_gate(&healthy).unwrap();
        assert!(verdict.pass, "{verdict:?}");
        assert_eq!(verdict.figure("checkpoint rows"), Some(10_000.0));
        assert!((verdict.figure("p99 ratio").unwrap() - 1.5).abs() < 1e-9);
        assert!((verdict.figure("checkpoint advantage").unwrap() - 40.0 / 0.6).abs() < 1e-9);
        // Maintenance tripling p99 fails.
        let slow_serve = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 6_500.0),
            storage_ckpt_record("incremental", 10_000, 0.6),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(!pass(evaluate_storage_gate(&slow_serve)));
        // ...unless the maintained p99 is under the absolute floor.
        let tiny_serve = vec![
            storage_serve_record(false, 100.0),
            storage_serve_record(true, 800.0),
            storage_ckpt_record("incremental", 10_000, 0.6),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(pass(evaluate_storage_gate(&tiny_serve)));
        // An incremental checkpoint degrading to O(database) fails.
        let flat_delta = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 2_500.0),
            storage_ckpt_record("incremental", 10_000, 25.0),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(!pass(evaluate_storage_gate(&flat_delta)));
        // ...unless even the whole-state encode is timer noise.
        let tiny_ckpt = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 2_500.0),
            storage_ckpt_record("incremental", 10_000, 1.0),
            storage_ckpt_record("whole_state", 10_000, 1.5),
        ];
        assert!(pass(evaluate_storage_gate(&tiny_ckpt)));
        // The advantage is judged at the LARGEST size only: a small-db
        // whole-state time never stands in for the grown database.
        let verdict = evaluate_storage_gate(&healthy).unwrap();
        assert!((verdict.figure("whole-state ms").unwrap() - 40.0).abs() < 1e-9);
        // Missing either pair is an error, not a silent pass.
        assert!(evaluate_storage_gate(&[storage_serve_record(false, 1.0)]).is_err());
        assert!(evaluate_storage_gate(&[
            storage_serve_record(false, 1.0),
            storage_serve_record(true, 1.0),
        ])
        .is_err());
        assert!(evaluate_storage_gate(&[]).is_err());
    }

    #[test]
    fn storage_report_round_trips() {
        assert_round_trips(
            "storage",
            &[
                storage_serve_record(true, 2_000.0),
                storage_ckpt_record("incremental", 1_000, 0.5),
            ],
        );
    }

    fn replication_lag_record(lag_p99: f64) -> BenchRecord {
        BenchRecord::new("table13_replication")
            .param("kind", "lag")
            .param("threads", 4usize)
            .metric("requests", 2_000.0)
            .metric("samples", 500.0)
            .metric("lag_p50_records", lag_p99 / 4.0)
            .metric("lag_p99_records", lag_p99)
            .metric("lag_max_records", lag_p99 * 2.0)
    }

    fn replication_failover_record(actions: usize, failover_ms: f64, cold_ms: f64) -> BenchRecord {
        BenchRecord::new("table13_replication")
            .param("kind", "failover")
            .param("history_actions", actions)
            .metric("replicated_records", actions as f64 + 10.0)
            .metric("failover_ms", failover_ms)
            .metric("failover_replayed", 12.0)
            .metric("cold_ms", cold_ms)
            .metric("cold_replayed", actions as f64 + 10.0)
    }

    #[test]
    fn replication_gate_checks_lag_and_failover_advantage() {
        let healthy = vec![
            replication_lag_record(12.0),
            replication_failover_record(500, 8.0, 120.0),
            replication_failover_record(2_000, 10.0, 400.0),
        ];
        let verdict = evaluate_replication_gate(&healthy).unwrap();
        assert!(verdict.pass, "{verdict:?}");
        // The advantage is judged at the LARGEST history only.
        assert_eq!(verdict.figure("actions"), Some(2_000.0));
        assert!((verdict.figure("advantage").unwrap() - 40.0).abs() < 1e-9);
        // A standby that cannot keep up fails the lag bound.
        let lagging = vec![
            replication_lag_record(REPLICATION_MAX_LAG_P99 * 3.0),
            replication_failover_record(2_000, 10.0, 400.0),
        ];
        assert!(!pass(evaluate_replication_gate(&lagging)));
        // A promote no faster than cold replay fails the advantage floor...
        let slow_promote = vec![
            replication_lag_record(12.0),
            replication_failover_record(2_000, 200.0, 400.0),
        ];
        assert!(!pass(evaluate_replication_gate(&slow_promote)));
        // ...unless even the cold open is timer noise.
        let tiny = vec![
            replication_lag_record(12.0),
            replication_failover_record(100, 6.0, 8.0),
        ];
        let verdict = evaluate_replication_gate(&tiny).unwrap();
        assert!(verdict.pass && verdict.skipped.is_some());
        // The lag bound is still enforced, so the gate still reports PASS.
        assert!(verdict.enforced());
        // Missing either kind is an error, not a silent pass.
        assert!(evaluate_replication_gate(&[replication_lag_record(1.0)]).is_err());
        assert!(evaluate_replication_gate(&[replication_failover_record(100, 1.0, 50.0)]).is_err());
        assert!(evaluate_replication_gate(&[]).is_err());
    }

    #[test]
    fn replication_report_round_trips() {
        assert_round_trips(
            "replication",
            &[
                replication_lag_record(9.0),
                replication_failover_record(300, 5.0, 60.0),
            ],
        );
    }

    #[test]
    fn commit_report_round_trips() {
        assert_round_trips(
            "commit",
            &[
                commit_record("delta", 1_000, 1.5),
                commit_record("snapshot", 1_000, 9.5),
            ],
        );
    }
}
