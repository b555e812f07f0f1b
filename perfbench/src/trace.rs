//! The traced run's server side: a [`Service`] wrapper that answers every
//! request the way `ms_service::dispatch` does, but times each call it
//! makes into `Engine` and `ShardSummary` as a span. The request's
//! identifier is the trace id the client sent with `call_traced` /
//! `ingest_slice_traced`, read back with `tracectx::current()`. Spans stay
//! in memory until the run writes them out.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ms_core::{ServiceError, Wire};
use ms_service::overload::Admission;
use ms_service::tracectx::{self, FIELD_PARENT, FIELD_TRACE};
use ms_service::{
    check_phi, dispatch, Engine, EngineTelemetry, RangeAnswer, Request, Response, Service,
    SummaryKind,
};

use crate::alloc;

/// Nanoseconds since the first call in this process; client and server
/// spans share this clock.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Trace ids of timed-phase requests carry this bit; anything else the
/// server sees (set-up, final checks) roots its own trace.
pub const TIMED: u64 = 1 << 62;

/// Trace id of request `n` on client connection `conn`.
pub fn trace_id(conn: u64, n: u64) -> u64 {
    TIMED | (conn << 40) | n
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Ingest,
    Query,
    Flush,
    Other,
}

impl Class {
    pub fn of(request: &Request) -> Class {
        match request {
            Request::Ingest(_) => Class::Ingest,
            Request::Flush => Class::Flush,
            Request::Point(_)
            | Request::HeavyHitters(_)
            | Request::Rank(_)
            | Request::Quantile(_)
            | Request::RangeQuantile { .. }
            | Request::RangeHeavyHitters { .. } => Class::Query,
            _ => Class::Other,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One served request: the `server.handle` span and the spans of the
/// calls it made (each parented by the handle span).
#[derive(Debug, Clone)]
pub struct ServerRecord {
    pub trace: u64,
    pub class: Class,
    /// Allocations on the connection thread since its previous request:
    /// frame read and decode of this request, its handling, and the
    /// previous response's encode.
    pub allocs: u64,
    pub handle: Span,
    pub children: [Option<Span>; 3],
}

impl ServerRecord {
    pub fn child(&self, name: &str) -> Option<Span> {
        self.children
            .iter()
            .flatten()
            .find(|s| s.name == name)
            .copied()
    }
}

/// Up to three child spans, filled without allocating.
#[derive(Default)]
struct Kids([Option<Span>; 3]);

impl Kids {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = now_ns();
        let out = f();
        let span = Span {
            name,
            start_ns,
            end_ns: now_ns(),
        };
        if let Some(slot) = self.0.iter_mut().find(|s| s.is_none()) {
            *slot = Some(span);
        }
        out
    }
}

thread_local! {
    /// This thread's allocation count at the end of its previous request.
    static LAST_ALLOCS: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// The traced wrapper around one engine.
pub struct TracedService {
    engine: Arc<Engine>,
    recording: AtomicBool,
    records: Mutex<Vec<ServerRecord>>,
}

impl TracedService {
    pub fn new(engine: Arc<Engine>) -> TracedService {
        TracedService {
            engine,
            recording: AtomicBool::new(false),
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn take_records(&self) -> Vec<ServerRecord> {
        std::mem::take(&mut *self.records.lock().expect("span log poisoned"))
    }

    fn answer(&self, request: Request, kids: &mut Kids) -> Response {
        let engine = &self.engine;
        match request {
            Request::Ingest(items) => {
                if let Some(ctx) = tracectx::current() {
                    engine.telemetry().event(
                        "ingest_admit",
                        &[(FIELD_TRACE, ctx.trace_id), (FIELD_PARENT, ctx.parent_span)],
                    );
                }
                match kids.time("engine.ingest", || engine.ingest(items)) {
                    Ok(()) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::Flush => match kids.time("engine.flush", || engine.flush()) {
                Ok(()) => Response::Ok,
                Err(e) => error_response(e),
            },
            Request::Point(x) => {
                let snap = kids.time("engine.snapshot_query", || engine.snapshot());
                match kids.time("summary.query", || snap.summary.point(x)) {
                    Some(count) => Response::Count(count),
                    None => dispatch(engine, Request::Point(x)),
                }
            }
            Request::Rank(x) => {
                let snap = kids.time("engine.snapshot_query", || engine.snapshot());
                match kids.time("summary.query", || snap.summary.rank(x)) {
                    Some(rank) => Response::Count(rank),
                    None => dispatch(engine, Request::Rank(x)),
                }
            }
            Request::HeavyHitters(phi) if check_phi(phi).is_ok() => {
                let snap = kids.time("engine.snapshot_query", || engine.snapshot());
                match kids.time("summary.query", || snap.summary.heavy_hitters(phi)) {
                    Some(items) => Response::Items(items),
                    None => dispatch(engine, Request::HeavyHitters(phi)),
                }
            }
            Request::Quantile(phi) if check_phi(phi).is_ok() => {
                let snap = kids.time("engine.snapshot_query", || engine.snapshot());
                match kids.time("summary.query", || snap.summary.quantile(phi)) {
                    Some(value) => Response::Value(value),
                    None => dispatch(engine, Request::Quantile(phi)),
                }
            }
            Request::RangeQuantile {
                start_micros,
                end_micros,
                phi,
            } if check_phi(phi).is_ok() => {
                let kind = SummaryKind::HybridQuantile;
                match kids.time("engine.range_query", || {
                    engine.range_query(start_micros, end_micros, kind)
                }) {
                    Err(e) => Response::Error(e.to_string()),
                    Ok((meta, merged)) => {
                        let value = kids.time("summary.query", || {
                            merged.as_ref().and_then(|s| s.quantile(phi)).flatten()
                        });
                        Response::Range(RangeAnswer {
                            meta,
                            value,
                            items: Vec::new(),
                            summary: merged.map(|s| s.encode()).unwrap_or_default(),
                        })
                    }
                }
            }
            Request::RangeHeavyHitters {
                start_micros,
                end_micros,
                phi,
            } if check_phi(phi).is_ok() => {
                match kids.time("engine.range_query", || {
                    engine.range_query(start_micros, end_micros, SummaryKind::Mg)
                }) {
                    Err(e) => Response::Error(e.to_string()),
                    Ok((meta, merged)) => {
                        let items = kids.time("summary.query", || {
                            merged
                                .as_ref()
                                .and_then(|s| s.heavy_hitters(phi))
                                .unwrap_or_default()
                        });
                        Response::Range(RangeAnswer {
                            meta,
                            value: None,
                            items,
                            summary: merged.map(|s| s.encode()).unwrap_or_default(),
                        })
                    }
                }
            }
            other => dispatch(engine, other),
        }
    }
}

/// `ms_service::server`'s mapping of a handler error to its response.
fn error_response(e: ServiceError) -> Response {
    match e {
        ServiceError::Overloaded { retry_after_micros } => {
            Response::Overloaded { retry_after_micros }
        }
        e => Response::Error(e.to_string()),
    }
}

impl Service for TracedService {
    fn handle(&self, request: Request) -> Response {
        if !self.recording.load(Ordering::Relaxed) {
            return self.answer(request, &mut Kids::default());
        }
        let trace = tracectx::current().map_or(0, |c| c.trace_id);
        let class = Class::of(&request);
        let mut kids = Kids::default();
        let start_ns = now_ns();
        let response = self.answer(request, &mut kids);
        let end_ns = now_ns();
        let now_allocs = alloc::on_this_thread();
        let allocs = LAST_ALLOCS.with(|c| now_allocs - c.get().unwrap_or(now_allocs));
        self.records
            .lock()
            .expect("span log poisoned")
            .push(ServerRecord {
                trace,
                class,
                allocs,
                handle: Span {
                    name: "server.handle",
                    start_ns,
                    end_ns,
                },
                children: kids.0,
            });
        // Read after the push, so growing the span log is not charged to
        // the next request.
        LAST_ALLOCS.with(|c| c.set(Some(alloc::on_this_thread())));
        response
    }

    fn telemetry(&self) -> &Arc<EngineTelemetry> {
        self.engine.telemetry()
    }

    fn record_rejected_frame(&self) {
        self.engine.record_rejected_frame();
    }

    fn shutdown(&self) {
        self.engine.shutdown();
    }

    fn abort(&self) {
        self.engine.abort();
    }

    fn admission(&self) -> Option<&Arc<Admission>> {
        Some(self.engine.admission())
    }
}

/// A client-side span: one request from send to response.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub trace: u64,
    pub span: Span,
}

/// Write every span as TSV: trace, span id, parent id, name, start, end
/// (ns on the process clock). Client spans are the roots; the server's
/// `server.handle` span is their child, and the engine and summary calls
/// are its children.
pub fn write_spans(
    path: &Path,
    client: &[ClientSpan],
    server: &[ServerRecord],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "trace\tspan\tparent\tname\tstart_ns\tend_ns")?;
    let mut roots = std::collections::HashMap::with_capacity(client.len());
    let mut id = 0u64;
    for c in client {
        id += 1;
        roots.insert(c.trace, id);
        let s = c.span;
        writeln!(
            out,
            "{:#x}\t{id}\t0\t{}\t{}\t{}",
            c.trace, s.name, s.start_ns, s.end_ns
        )?;
    }
    for r in server {
        id += 1;
        let handle = id;
        let parent = roots.get(&r.trace).copied().unwrap_or(0);
        let h = r.handle;
        writeln!(
            out,
            "{:#x}\t{handle}\t{parent}\t{}\t{}\t{}",
            r.trace, h.name, h.start_ns, h.end_ns
        )?;
        for s in r.children.iter().flatten() {
            id += 1;
            writeln!(
                out,
                "{:#x}\t{id}\t{handle}\t{}\t{}\t{}",
                r.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
