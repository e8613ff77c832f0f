//! Measurement wrappers around the program's public interfaces. Every
//! timer and counter of the benchmark lives here, outside the program:
//!
//! * [`CountingBackend`] — a [`StorageBackend`] over a [`MemoryBackend`]
//!   that counts and times every call the durable store makes.
//! * [`TimingHost`] — a [`WarpHost`] / [`Transport`] over a [`Warp`] handle
//!   that times requests (split by method) and repairs.
//! * [`StubHost`] — a [`warp_script::Host`] that answers `param` and
//!   `db_query` without a server, so script parsing and interpretation can
//!   be timed on their own.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use warp_core::{
    MemoryBackend, RepairOutcome, RepairRequest, RepairStrategy, StorageBackend, StoreError, Warp,
    WarpHost, WarpServer,
};
use warp_http::{HttpRequest, HttpResponse, Method, Transport};
use warp_script::{ScriptResult, Value as SVal};

type StoreResult<T> = Result<T, StoreError>;

/// What the store asked of its backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_ns: u64,
    pub syncs: u64,
    pub atomic_writes: u64,
    pub atomic_bytes: u64,
    pub read_ns: u64,
}

impl StoreCounters {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &StoreCounters) -> StoreCounters {
        StoreCounters {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            append_ns: self.append_ns - earlier.append_ns,
            syncs: self.syncs - earlier.syncs,
            atomic_writes: self.atomic_writes - earlier.atomic_writes,
            atomic_bytes: self.atomic_bytes - earlier.atomic_bytes,
            read_ns: self.read_ns - earlier.read_ns,
        }
    }
}

/// A counting, timing [`StorageBackend`] over a shared [`MemoryBackend`].
/// Clones share both the blobs and the counters.
#[derive(Debug, Clone)]
pub struct CountingBackend {
    inner: MemoryBackend,
    counters: Arc<Mutex<StoreCounters>>,
    tracer: Option<Arc<Tracer>>,
}

impl CountingBackend {
    pub fn new(inner: MemoryBackend, tracer: Option<Arc<Tracer>>) -> Self {
        CountingBackend {
            inner,
            counters: Arc::default(),
            tracer,
        }
    }

    /// The blobs this wrapper writes to.
    pub fn memory(&self) -> &MemoryBackend {
        &self.inner
    }

    pub fn counters(&self) -> StoreCounters {
        *self.counters.lock().expect("store counters poisoned")
    }

    fn count(&self, f: impl FnOnce(&mut StoreCounters)) {
        f(&mut self.counters.lock().expect("store counters poisoned"));
    }

    fn span(&self, name: &'static str, start: Instant) -> u64 {
        let end = Instant::now();
        if let Some(tracer) = &self.tracer {
            tracer.record_in_context(name, start, end);
        }
        (end - start).as_nanos() as u64
    }
}

impl StorageBackend for CountingBackend {
    fn list(&self) -> StoreResult<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        let start = Instant::now();
        let blob = self.inner.read(name)?;
        let ns = self.span("store.read", start);
        self.count(|c| c.read_ns += ns);
        Ok(blob)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        let start = Instant::now();
        self.inner.append(name, data)?;
        let ns = self.span("store.append", start);
        self.count(|c| {
            c.appends += 1;
            c.append_bytes += data.len() as u64;
            c.append_ns += ns;
        });
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        let start = Instant::now();
        self.inner.write_atomic(name, data)?;
        self.span("store.write_atomic", start);
        self.count(|c| {
            c.atomic_writes += 1;
            c.atomic_bytes += data.len() as u64;
        });
        Ok(())
    }

    fn delete(&mut self, name: &str) -> StoreResult<()> {
        self.inner.delete(name)
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.inner.sync()?;
        self.count(|c| c.syncs += 1);
        Ok(())
    }

    fn try_clone(&self) -> Option<Box<dyn StorageBackend>> {
        Some(Box::new(self.clone()))
    }

    fn total_bytes(&self) -> StoreResult<u64> {
        self.inner.total_bytes()
    }
}

/// One repair issued through a [`TimingHost`].
#[derive(Debug, Clone)]
pub struct RepairSample {
    pub ms: f64,
    pub outcome: RepairOutcome,
}

/// A timing [`WarpHost`] over a [`Warp`] handle.
///
/// Untraced, a request goes through [`Warp::serve`]. Traced, it goes
/// through [`Warp::with_server`]: the closure times `WarpServer::handle`
/// and then waits for the log record to be durable (what `serve` waits for
/// under `Durability::Immediate`), and the round trip minus those two is
/// the façade's own time.
#[derive(Debug)]
pub struct TimingHost {
    pub warp: Warp,
    tracer: Option<Arc<Tracer>>,
    /// Latencies in ms of GET requests since the last [`TimingHost::reset`].
    pub reads: Vec<f64>,
    /// Latencies in ms of POST requests since the last reset.
    pub writes: Vec<f64>,
    /// Every repair issued so far.
    pub repairs: Vec<RepairSample>,
    /// When the first repair was issued.
    pub first_repair: Option<Instant>,
    /// Requests served before the first repair.
    pub requests_before_repair: u64,
    /// Requests served in total.
    pub requests: u64,
}

impl TimingHost {
    pub fn new(warp: Warp, tracer: Option<Arc<Tracer>>) -> Self {
        TimingHost {
            warp,
            tracer,
            reads: Vec::new(),
            writes: Vec::new(),
            repairs: Vec::new(),
            first_repair: None,
            requests_before_repair: 0,
            requests: 0,
        }
    }

    /// Drops the latency samples collected so far.
    pub fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }

    fn serve_traced(&mut self, tracer: &Tracer, request: HttpRequest) -> HttpResponse {
        let id = tracer.alloc_id();
        let request_no = self.requests;
        tracer.enter(request_no, Some(id));
        let start = Instant::now();
        let (response, handle_start, handle_end, flush_end) = self.warp.with_server(move |s| {
            let handle_start = Instant::now();
            let response = s.handle(request);
            let handle_end = Instant::now();
            s.flush_durable();
            (response, handle_start, handle_end, Instant::now())
        });
        let end = Instant::now();
        tracer.record_as(id, "request", None, request_no, start, end);
        tracer.record(
            "server.handle",
            Some(id),
            request_no,
            handle_start,
            handle_end,
        );
        tracer.record("writer.flush", Some(id), request_no, handle_end, flush_end);
        response
    }
}

impl Transport for TimingHost {
    fn send(&mut self, request: HttpRequest) -> HttpResponse {
        let method = request.method;
        let start = Instant::now();
        let response = match self.tracer.clone() {
            Some(tracer) => self.serve_traced(&tracer, request),
            None => self.warp.serve(request),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match method {
            Method::Get => self.reads.push(ms),
            Method::Post => self.writes.push(ms),
        }
        self.requests += 1;
        if self.first_repair.is_none() {
            self.requests_before_repair += 1;
        }
        response
    }
}

impl WarpHost for TimingHost {
    fn with_host<R, F>(&mut self, f: F) -> R
    where
        F: FnOnce(&mut WarpServer) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.warp.with_server(f)
    }

    fn upload_logs(&mut self, logs: Vec<warp_browser::PageVisitRecord>) {
        self.warp.upload_client_logs(logs);
    }

    fn host_repair(&mut self, request: RepairRequest, strategy: RepairStrategy) -> RepairOutcome {
        let start = Instant::now();
        self.first_repair.get_or_insert(start);
        let outcome = self.warp.repair_with(request, strategy).join();
        let end = Instant::now();
        if let Some(tracer) = &self.tracer {
            tracer.record("repair", None, self.requests, start, end);
        }
        self.repairs.push(RepairSample {
            ms: (end - start).as_secs_f64() * 1e3,
            outcome: outcome.clone(),
        });
        outcome
    }
}

/// A script host that answers every host call a page script makes without
/// a server: `param` from the recorded request, `db_query` with one canned
/// row, includes from the application's sources, and benign values for the
/// rest. Lets the benchmark time parsing and interpretation alone.
pub struct StubHost<'a> {
    pub params: BTreeMap<String, String>,
    pub sources: &'a BTreeMap<String, String>,
    pub output: String,
}

impl warp_script::Host for StubHost<'_> {
    fn call_host(&mut self, name: &str, args: &[SVal]) -> Option<ScriptResult<SVal>> {
        let arg = |i: usize| args.get(i).map(SVal::to_display_string).unwrap_or_default();
        let value = match name {
            "echo" | "print" => {
                for a in args {
                    self.output.push_str(&a.to_display_string());
                }
                SVal::Null
            }
            "param" => self
                .params
                .get(&arg(0))
                .map_or(SVal::Null, |v| SVal::str(v.clone())),
            "has_param" => SVal::Bool(self.params.contains_key(&arg(0))),
            "db_query" => {
                let row = SVal::map(
                    ["body", "title", "name", "user_id", "owner", "value"]
                        .iter()
                        .map(|c| (c.to_string(), SVal::str(format!("stub {c}")))),
                );
                SVal::Array(vec![row])
            }
            "request_method" => SVal::str("GET"),
            "request_path" => SVal::str("/"),
            "cookie" | "session_start" => SVal::str("stub-session"),
            "time" | "rand" => SVal::Int(0),
            "set_cookie" | "clear_cookie" | "header" | "redirect" | "http_status" => SVal::Null,
            _ => return None,
        };
        Some(Ok(value))
    }

    fn load_include(&mut self, filename: &str) -> Option<String> {
        self.sources.get(filename).cloned()
    }
}
