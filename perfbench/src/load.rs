//! Load generators: closed loops (send the next request when the previous
//! one is answered, latency timed from send) and open loops (send on a
//! fixed schedule, latency timed from when the request was due).

use std::time::{Duration, Instant};

use ms_core::ServiceError;
use ms_service::{Client, RangeAnswer, Request, Response, TraceContext};

use crate::alloc;
use crate::trace::{self, ClientSpan, Span};

/// The phase's clock: load starts at `start`; requests sent (or, in an
/// open loop, due) before `from` warm the engine up and are neither timed
/// nor traced; load stops at `end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub from: Instant,
    pub end: Instant,
}

/// What one client thread did during a phase.
#[derive(Default)]
pub struct LoopOut {
    /// Latencies of the timed requests, and when each answer arrived
    /// (seconds after the timed window opened).
    pub ingest_us: Vec<f64>,
    pub ingest_done: Vec<f64>,
    pub query_us: Vec<f64>,
    pub query_done: Vec<f64>,
    /// Items acknowledged over the whole phase (the oracle's total) and
    /// within the timed window (the throughput's).
    pub acked_items: u64,
    pub timed_items: u64,
    /// Times each pool batch was acknowledged.
    pub acked: Vec<u64>,
    pub timed_queries: u64,
    pub ingest_failed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Open loops: the largest delay between a request's due time and
    /// its send.
    pub max_late_us: f64,
    pub end: Option<Instant>,
    pub spans: Vec<ClientSpan>,
    pub allocs: u64,
    /// Range answers, with their encoded summaries dropped.
    pub ranges: Vec<(Request, RangeAnswer)>,
}

impl LoopOut {
    fn new(pool: usize) -> LoopOut {
        LoopOut {
            acked: vec![0; pool],
            ..LoopOut::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(what);
        }
    }

    pub fn merge(&mut self, other: LoopOut) {
        self.ingest_us.extend(other.ingest_us);
        self.ingest_done.extend(other.ingest_done);
        self.query_us.extend(other.query_us);
        self.query_done.extend(other.query_done);
        self.acked.extend(other.acked);
        self.acked_items += other.acked_items;
        self.timed_items += other.timed_items;
        self.timed_queries += other.timed_queries;
        self.ingest_failed += other.ingest_failed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.max_late_us = self.max_late_us.max(other.max_late_us);
        self.end = self.end.max(other.end);
        self.spans.extend(other.spans);
        self.allocs += other.allocs;
        self.ranges.extend(other.ranges);
    }
}

/// One client connection plus, in the traced run, its connection id.
pub struct Conn<'a> {
    client: &'a mut Client,
    traced: Option<u64>,
    sent: u64,
}

impl<'a> Conn<'a> {
    pub fn new(client: &'a mut Client, traced: Option<u64>) -> Conn<'a> {
        Conn {
            client,
            traced,
            sent: 0,
        }
    }

    /// The trace context of the next request, when it is timed and this
    /// run is traced.
    fn ctx(&mut self, timed: bool) -> Option<TraceContext> {
        self.sent += 1;
        self.traced.filter(|_| timed).map(|conn| TraceContext {
            trace_id: trace::trace_id(conn, self.sent),
            parent_span: 0,
        })
    }

    fn span(out: &mut LoopOut, ctx: Option<TraceContext>, name: &'static str, start_ns: u64) {
        if let Some(ctx) = ctx {
            out.spans.push(ClientSpan {
                trace: ctx.trace_id,
                span: Span {
                    name,
                    start_ns,
                    end_ns: trace::now_ns(),
                },
            });
        }
    }

    fn ingest(
        &mut self,
        batch: &[u64],
        timed: bool,
        out: &mut LoopOut,
    ) -> Result<(), ServiceError> {
        let ctx = self.ctx(timed);
        let start_ns = trace::now_ns();
        let r = match ctx {
            Some(ctx) => self.client.ingest_slice_traced(ctx, batch),
            None => self.client.ingest_slice(batch),
        };
        Self::span(out, ctx, "client.ingest", start_ns);
        r
    }

    fn call(
        &mut self,
        request: &Request,
        timed: bool,
        out: &mut LoopOut,
    ) -> Result<Response, ServiceError> {
        let ctx = self.ctx(timed);
        let start_ns = trace::now_ns();
        let r = match ctx {
            Some(ctx) => self.client.call_traced(ctx, request),
            None => self.client.call(request),
        };
        Self::span(out, ctx, "client.query", start_ns);
        r
    }
}

/// Send one query and account for it: an `Error` or `Overloaded` answer
/// counts as failed, like a transport error or a timeout. `started` is
/// when the request was sent (closed loop) or due (open loop).
fn query(d: &mut Conn, request: &Request, started: Instant, w: &Window, out: &mut LoopOut) {
    let timed = started >= w.from;
    out.attempted += 1;
    match d.call(request, timed, out) {
        Ok(Response::Error(e)) => out.fail(format!("{request:?}: {e}")),
        Ok(Response::Overloaded { .. }) => out.fail(format!("{request:?}: overloaded")),
        Ok(response) => {
            if timed {
                let now = Instant::now();
                out.query_us.push((now - started).as_secs_f64() * 1e6);
                out.query_done.push((now - w.from).as_secs_f64());
                out.timed_queries += 1;
            }
            if let Response::Range(mut answer) = response {
                answer.summary = Vec::new();
                out.ranges.push((request.clone(), answer));
            }
        }
        Err(e) => out.fail(format!("{request:?}: {e}")),
    }
}

fn ingest(
    d: &mut Conn,
    pool: &[Vec<u64>],
    i: usize,
    started: Instant,
    w: &Window,
    out: &mut LoopOut,
) {
    let timed = started >= w.from;
    out.attempted += 1;
    let batch = &pool[i];
    match d.ingest(batch, timed, out) {
        Ok(()) => {
            out.acked[i] += 1;
            out.acked_items += batch.len() as u64;
            if timed {
                let now = Instant::now();
                out.ingest_us.push((now - started).as_secs_f64() * 1e6);
                out.ingest_done.push((now - w.from).as_secs_f64());
                out.timed_items += batch.len() as u64;
            }
        }
        Err(e) => {
            out.ingest_failed += 1;
            out.fail(format!("ingest: {e}"));
        }
    }
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn finish(mut out: LoopOut, allocs0: u64) -> LoopOut {
    out.end = Some(Instant::now());
    out.allocs = alloc::on_this_thread() - allocs0;
    out
}

/// Closed-loop ingest cycling through `pool`. With
/// `interleave = Some((every, make))`, every `every`-th request is the
/// query `make(k)` for the k-th such query instead.
pub fn closed_ingest(
    d: &mut Conn,
    pool: &[Vec<u64>],
    w: Window,
    interleave: Option<(u64, &dyn Fn(u64) -> Request)>,
) -> LoopOut {
    let mut out = LoopOut::new(pool.len());
    sleep_until(w.start);
    let allocs0 = alloc::on_this_thread();
    let (mut op, mut batch, mut queries) = (0u64, 0usize, 0u64);
    while Instant::now() < w.end {
        op += 1;
        match interleave {
            Some((every, make)) if op % every == 0 => {
                let request = make(queries);
                queries += 1;
                query(d, &request, Instant::now(), &w, &mut out);
            }
            _ => {
                ingest(d, pool, batch % pool.len(), Instant::now(), &w, &mut out);
                batch += 1;
            }
        }
    }
    finish(out, allocs0)
}

/// Closed-loop queries `make(k)`.
pub fn closed_queries(mut d: Conn, w: Window, make: &dyn Fn(u64) -> Request) -> LoopOut {
    let mut out = LoopOut::new(0);
    sleep_until(w.start);
    let allocs0 = alloc::on_this_thread();
    let mut k = 0;
    while Instant::now() < w.end {
        query(&mut d, &make(k), Instant::now(), &w, &mut out);
        k += 1;
    }
    finish(out, allocs0)
}

/// What an open loop sends at each tick.
pub enum Tick<'a> {
    /// Ingest pool batch `k` (the pool is sent once, in order).
    Ingest(&'a [Vec<u64>]),
    /// Query `make(k)`.
    Query(&'a dyn Fn(u64) -> Request),
}

/// Open loop at `rate` requests/s: request `k` is due at
/// `start + k / rate`, sent then or as soon as the previous one returns,
/// and timed from its due time.
pub fn open_loop(mut d: Conn, rate: f64, w: Window, tick: Tick) -> LoopOut {
    let n = ((w.end - w.start).as_secs_f64() * rate).floor() as u64;
    let mut out = LoopOut::new(match tick {
        Tick::Ingest(pool) => pool.len(),
        Tick::Query(_) => 0,
    });
    sleep_until(w.start);
    let allocs0 = alloc::on_this_thread();
    for k in 0..n {
        let due = w.start + Duration::from_secs_f64(k as f64 / rate);
        sleep_until(due);
        let late = Instant::now().saturating_duration_since(due);
        out.max_late_us = out.max_late_us.max(late.as_secs_f64() * 1e6);
        match tick {
            Tick::Ingest(pool) => ingest(&mut d, pool, k as usize, due, &w, &mut out),
            Tick::Query(make) => query(&mut d, &make(k), due, &w, &mut out),
        }
    }
    finish(out, allocs0)
}
