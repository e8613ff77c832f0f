//! Per-layer probes: time each layer's public entry points on the work a
//! run actually recorded.
//!
//! After a traced timed phase the benchmark takes the recorded actions and
//! a clone of the database out of the server and replays pieces of that
//! work through one layer at a time: WASL parsing and interpretation with
//! a stub host, SQL parsing and raw execution without the time-travel
//! validity predicate, time-travel execution, and history recording.

use crate::stats::median;
use crate::trace::Tracer;
use crate::wrappers::StubHost;
use std::collections::BTreeMap;
use std::time::Instant;
use warp_core::{ActionRecord, HistoryGraph};
use warp_sql::Statement;
use warp_ttdb::TimeTravelDb;

/// Timings gathered by [`probe`], one sample per call.
#[derive(Debug, Clone, Default)]
pub struct LayerSamples {
    pub script_parse_us: Vec<f64>,
    pub script_eval_us: Vec<f64>,
    pub sql_parse_us: Vec<f64>,
    pub sql_select_ms: Vec<f64>,
    pub sql_update_ms: Vec<f64>,
    pub ttdb_select_ms: Vec<f64>,
    pub ttdb_update_ms: Vec<f64>,
    pub history_record_us: Vec<f64>,
}

impl LayerSamples {
    pub fn merge(&mut self, other: LayerSamples) {
        self.script_parse_us.extend(other.script_parse_us);
        self.script_eval_us.extend(other.script_eval_us);
        self.sql_parse_us.extend(other.sql_parse_us);
        self.sql_select_ms.extend(other.sql_select_ms);
        self.sql_update_ms.extend(other.sql_update_ms);
        self.ttdb_select_ms.extend(other.ttdb_select_ms);
        self.ttdb_update_ms.extend(other.ttdb_update_ms);
        self.history_record_us.extend(other.history_record_us);
    }

    /// Adds the medians as per-layer metrics (history recording as a mean:
    /// its cost is a function of how much history is indexed already).
    pub fn report(&self, metrics: &mut crate::report::Metrics) {
        let mut med = |name: &str, unit, v: &Vec<f64>| metrics.add(name, median(v), unit, v.len());
        med("script.parse_us", "us", &self.script_parse_us);
        med("script.eval_us", "us", &self.script_eval_us);
        med("sql.parse_us", "us", &self.sql_parse_us);
        med("sql.select_ms", "ms", &self.sql_select_ms);
        med("sql.update_ms", "ms", &self.sql_update_ms);
        med("ttdb.select_ms", "ms", &self.ttdb_select_ms);
        med("ttdb.update_ms", "ms", &self.ttdb_update_ms);
        let h = &self.history_record_us;
        metrics.add(
            "history.record_us",
            crate::stats::sum(h) / h.len().max(1) as f64,
            "us",
            h.len(),
        );
    }
}

/// Replays up to `sample` evenly spaced actions of `actions[from..]`
/// through the script, SQL and time-travel layers, and every action
/// through history recording. `now` is a logical time after every recorded
/// action (updates on the time-travel clone run from there on).
pub fn probe(
    actions: &[ActionRecord],
    from: usize,
    db: &TimeTravelDb,
    sources: &BTreeMap<String, String>,
    sample: usize,
    now: i64,
    tracer: &Tracer,
) -> LayerSamples {
    let mut out = LayerSamples::default();
    let mut raw = db.raw().clone();
    let mut ttdb = db.clone();
    let mut clock = now;
    let us = |t: Instant, end: Instant| (end - t).as_secs_f64() * 1e6;
    let timed = &actions[from.min(actions.len())..];
    let stride = (timed.len() / sample.max(1)).max(1);
    for action in timed.iter().step_by(stride) {
        let request = action.id;
        if let Some(source) = sources.get(&action.entry_script) {
            let t = Instant::now();
            let program = warp_script::parse_program(source);
            let parsed = Instant::now();
            tracer.record("script.parse", None, request, t, parsed);
            out.script_parse_us.push(us(t, parsed));
            if let Ok(program) = program {
                let mut host = StubHost {
                    params: action.request.all_params(),
                    sources,
                    output: String::new(),
                };
                let t = Instant::now();
                let _ = warp_script::Interpreter::new().run_program(
                    &program,
                    &mut host,
                    BTreeMap::new(),
                );
                let end = Instant::now();
                tracer.record("script.eval", None, request, t, end);
                out.script_eval_us.push(us(t, end));
            }
        }
        for query in &action.queries {
            let t = Instant::now();
            let Ok(stmt) = warp_sql::parse(&query.sql) else {
                continue;
            };
            let parsed = Instant::now();
            tracer.record("sql.parse", None, request, t, parsed);
            out.sql_parse_us.push(us(t, parsed));
            let (sql_name, ttdb_name, sql_samples, ttdb_samples, time) = match stmt {
                Statement::Select(_) => (
                    "sql.select",
                    "ttdb.select",
                    &mut out.sql_select_ms,
                    &mut out.ttdb_select_ms,
                    query.time,
                ),
                Statement::Update { .. } => {
                    clock += 1;
                    (
                        "sql.update",
                        "ttdb.update",
                        &mut out.sql_update_ms,
                        &mut out.ttdb_update_ms,
                        clock,
                    )
                }
                _ => continue,
            };
            let t = Instant::now();
            let _ = std::hint::black_box(raw.execute(&stmt));
            let end = Instant::now();
            tracer.record(sql_name, None, request, t, end);
            sql_samples.push(us(t, end) / 1e3);
            let t = Instant::now();
            let _ = std::hint::black_box(ttdb.execute_stmt_logged(
                &stmt,
                time,
                ttdb.current_generation(),
            ));
            let end = Instant::now();
            tracer.record(ttdb_name, None, request, t, end);
            ttdb_samples.push(us(t, end) / 1e3);
        }
    }
    let mut graph = HistoryGraph::new();
    for action in actions {
        let copy = action.clone();
        let t = Instant::now();
        graph.record_action(copy);
        let end = Instant::now();
        tracer.record("history.record", None, action.id, t, end);
        out.history_record_us.push(us(t, end));
    }
    out
}
