//! `serve-mix`: an in-process server under a seeded open-loop mix of
//! warmed hot targets and fresh experiment keys.
//!
//! One generator thread drives at most [`SERVE_CONNECTIONS`]
//! keep-alive connections, pipelining each request onto the connection
//! with the fewest outstanding at its due time, whatever the server is
//! doing — so a stall shows as queueing, not as fewer requests. Latency
//! is timed from the due time.

use crate::config::{
    NOMINAL_RPS, P99_LIMIT_MS, RATE_LADDER, REQUEST_DEADLINE_MS, SERVE_CONNECTIONS, SERVE_THREADS,
    SETUPS, WORKERS,
};
use crate::ledger::Results;
use crate::schedule::{hot_targets, Request, Schedule};
use crate::sweep::{SweepCells, TIER};
use crate::{layers, stats, sys};
use lookahead_bench::client;
use lookahead_harness::cache::TraceCache;
use lookahead_harness::dag::Scheduler;
use lookahead_multiproc::SimConfig;
use lookahead_obs::json::{parse_flat_object, FlatValue};
use lookahead_serve::reactor::{Epoll, Event};
use lookahead_serve::{
    handle_target, ExperimentService, Server, ServerConfig, ServerStats, ServiceConfig,
    ShutdownHandle, Transport,
};
use lookahead_trace::storage::fnv1a;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running in-process server and the service behind it.
struct Live {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<JoinHandle<ServerStats>>,
    cache_dir: PathBuf,
}

impl Live {
    fn start(cache_dir: PathBuf, span_log: Option<PathBuf>) -> Result<Live, String> {
        let service =
            ExperimentService::new(service_config(span_log), Some(TraceCache::new(&cache_dir)));
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().expect("loopback address"),
            threads: SERVE_THREADS,
            transport: Transport::Reactor,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("cannot bind the server: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let service = Arc::new(service);
        let thread = std::thread::spawn(move || server.run(service));
        Ok(Live {
            addr,
            handle,
            thread: Some(thread),
            cache_dir,
        })
    }

    /// Drains the server and waits for it.
    fn stop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.stop();
    }
}

fn service_config(span_log: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        default_tier: TIER,
        sim: SimConfig::default(),
        retime_workers: WORKERS,
        span_log,
        scheduler: Scheduler::Dag,
        prewarm: false,
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone, Default)]
struct Outcome {
    /// Due time to last response byte, ms; `None` when the request
    /// failed (error status, closed connection, deadline passed).
    latency_ms: Option<f64>,
    /// Send time minus due time, ms.
    late_ms: f64,
    body_fnv: u64,
    body_len: usize,
    request_id: String,
    /// `Server-Timing` stages in ms: queue, parse, handler.
    timing: [Option<f64>; 3],
    error: Option<String>,
}

/// One keep-alive connection of the generator.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Requests written but not answered, oldest first.
    pending: VecDeque<usize>,
    want_write: bool,
}

impl Conn {
    fn open(addr: SocketAddr, epoll: &Epoll, token: u64) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        epoll
            .add(stream.as_raw_fd(), token, true, false)
            .map_err(|e| format!("epoll add: {e}"))?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            want_write: false,
        })
    }
}

/// A parsed response head plus where its body ends in the buffer.
struct Parsed {
    status: u16,
    end: usize,
    body_start: usize,
    request_id: String,
    timing: [Option<f64>; 3],
    close: bool,
}

/// Parses one complete `Content-Length` response at the front of
/// `buf`, or `Ok(None)` when more bytes are needed.
fn parse_response(buf: &[u8]) -> Result<Option<Parsed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let (mut len, mut request_id, mut timing, mut close) = (None, String::new(), [None; 3], false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => len = value.parse::<usize>().ok(),
            "x-request-id" => request_id = value.to_string(),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "server-timing" => timing = parse_server_timing(value),
            _ => {}
        }
    }
    let len = len.ok_or("response without Content-Length")?;
    let body_start = head_end + 4;
    if buf.len() < body_start + len {
        return Ok(None);
    }
    Ok(Some(Parsed {
        status,
        end: body_start + len,
        body_start,
        request_id,
        timing,
        close,
    }))
}

/// `queue;dur=0.012, parse;dur=0.004, handler;dur=1.250` → ms by stage.
fn parse_server_timing(value: &str) -> [Option<f64>; 3] {
    let mut out = [None; 3];
    for part in value.split(',') {
        let Some((name, dur)) = part.trim().split_once(";dur=") else {
            continue;
        };
        let slot = match name {
            "queue" => 0,
            "parse" => 1,
            "handler" => 2,
            _ => continue,
        };
        out[slot] = dur.parse().ok();
    }
    out
}

/// How close to a request's due time the generator stops sleeping and
/// polls instead.
const SPIN: Duration = Duration::from_micros(300);

/// The single-threaded open-loop generator.
struct Generator {
    addr: SocketAddr,
    epoll: Epoll,
    conns: Vec<Conn>,
}

impl Generator {
    fn new(addr: SocketAddr) -> Result<Generator, String> {
        let epoll = Epoll::new().map_err(|e| format!("epoll: {e}"))?;
        let mut g = Generator {
            addr,
            epoll,
            conns: Vec::new(),
        };
        for i in 0..SERVE_CONNECTIONS {
            let c = Conn::open(addr, &g.epoll, i as u64)?;
            g.conns.push(c);
        }
        Ok(g)
    }

    /// Fails every request pending on connection `i` and reconnects it.
    fn reset(&mut self, i: usize, why: &str, outcomes: &mut [Outcome]) -> Result<(), String> {
        for r in self.conns[i].pending.drain(..) {
            outcomes[r].error = Some(why.to_string());
        }
        let _ = self.epoll.delete(self.conns[i].stream.as_raw_fd());
        self.conns[i] = Conn::open(self.addr, &self.epoll, i as u64)?;
        Ok(())
    }

    fn flush(&mut self, i: usize) -> Result<(), std::io::Error> {
        let c = &mut self.conns[i];
        while !c.out.is_empty() {
            match c.stream.write(&c.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    c.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let want = !c.out.is_empty();
        if want != c.want_write {
            c.want_write = want;
            self.epoll
                .modify(c.stream.as_raw_fd(), i as u64, true, want)?;
        }
        Ok(())
    }

    /// Reads what is available on connection `i` and completes every
    /// whole response; returns whether the peer closed.
    fn drain(
        &mut self,
        i: usize,
        start: Instant,
        reqs: &[Request],
        outcomes: &mut [Outcome],
    ) -> Result<bool, String> {
        let mut buf = [0u8; 64 * 1024];
        let mut closed = false;
        loop {
            match self.conns[i].stream.read(&mut buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => self.conns[i].inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let now = start.elapsed();
        let c = &mut self.conns[i];
        while let Some(p) = parse_response(&c.inbuf)? {
            let Some(r) = c.pending.pop_front() else {
                // Unsolicited (an idle connection's 408): start afresh.
                c.inbuf.clear();
                return Ok(true);
            };
            let o = &mut outcomes[r];
            let body = &c.inbuf[p.body_start..p.end];
            o.body_fnv = fnv1a(body);
            o.body_len = body.len();
            o.request_id = p.request_id;
            o.timing = p.timing;
            if p.status == 200 {
                o.latency_ms = Some(now.saturating_sub(reqs[r].due).as_secs_f64() * 1e3);
            } else {
                o.error = Some(format!("status {}", p.status));
            }
            c.inbuf.drain(..p.end);
            closed |= p.close;
        }
        Ok(closed)
    }

    /// Sends `reqs` on their schedule and waits for every answer or
    /// deadline. Also returns the outstanding count at each send, for
    /// the backlog check. Sending stops early once more than
    /// `max_backlog` requests are outstanding (an overloaded step has
    /// failed already); the unsent rest is dropped from the outcomes.
    fn run(
        &mut self,
        reqs: &[Request],
        max_backlog: usize,
    ) -> Result<(Vec<Outcome>, Vec<usize>), String> {
        let mut outcomes = vec![Outcome::default(); reqs.len()];
        let mut backlog = Vec::with_capacity(reqs.len());
        let deadline = Duration::from_millis(REQUEST_DEADLINE_MS);
        let mut events: Vec<Event> = Vec::with_capacity(64);
        // Fresh connections per phase: one the server timed out while
        // idle must not fail the first request sent on it.
        for i in 0..self.conns.len() {
            self.reset(i, "connection replaced at phase start", &mut outcomes)?;
        }
        let mut next = 0;
        let mut end = reqs.len();
        let start = Instant::now();
        loop {
            let now = start.elapsed();
            while next < end && reqs[next].due <= now {
                let i = (0..self.conns.len())
                    .min_by_key(|&i| self.conns[i].pending.len())
                    .expect("at least one connection");
                let c = &mut self.conns[i];
                c.out.extend_from_slice(
                    format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", reqs[next].target).as_bytes(),
                );
                c.pending.push_back(next);
                outcomes[next].late_ms = now.saturating_sub(reqs[next].due).as_secs_f64() * 1e3;
                let outstanding = self.conns.iter().map(|c| c.pending.len()).sum::<usize>();
                backlog.push(outstanding - 1);
                next += 1;
                if outstanding > max_backlog {
                    end = next;
                }
            }
            for i in 0..self.conns.len() {
                if self.flush(i).is_err() {
                    self.reset(i, "connection failed while writing", &mut outcomes)?;
                }
                let closed = self.drain(i, start, reqs, &mut outcomes)?;
                let overdue = self.conns[i]
                    .pending
                    .front()
                    .is_some_and(|&r| start.elapsed() > reqs[r].due + deadline);
                if overdue {
                    self.reset(i, "no answer before the deadline", &mut outcomes)?;
                } else if closed {
                    self.reset(i, "server closed the connection", &mut outcomes)?;
                }
            }
            let pending = self.conns.iter().any(|c| !c.pending.is_empty());
            if next == end && !pending {
                break;
            }
            let now = start.elapsed();
            let wait = if next < end {
                reqs[next].due.saturating_sub(now)
            } else {
                Duration::from_millis(5)
            };
            if wait >= Duration::from_millis(1) {
                // Whole milliseconds only: the wrapper rounds a partial
                // one up, which would make the next send late.
                let ms = Duration::from_millis(wait.as_millis() as u64);
                self.epoll
                    .wait(&mut events, Some(ms))
                    .map_err(|e| format!("epoll wait: {e}"))?;
            } else if wait > SPIN {
                std::thread::sleep(wait - SPIN);
            } else if !wait.is_zero() {
                // A sleep can overshoot by more than this; yielding
                // keeps the send on time and leaves the cores to the
                // server.
                std::thread::yield_now();
            }
        }
        outcomes.truncate(end);
        Ok((outcomes, backlog))
    }
}

/// First-seen hot bodies (FNV-1a and length), filled in set-up.
struct HotBodies(Vec<(u64, usize)>);

/// A started server with the generator connected to it.
struct Session {
    generator: Generator,
    hot: HotBodies,
    live: Live,
}

impl Session {
    /// Closes the generator's connections, then drains the server (an
    /// open keep-alive connection would hold the drain until it idles
    /// out). Returns the cache directory.
    fn close(self) -> PathBuf {
        let Session {
            generator,
            mut live,
            ..
        } = self;
        drop(generator);
        live.stop();
        live.cache_dir.clone()
    }
}

/// Set-up: a fresh cache, a started server, and every hot target
/// fetched once over the generator's connections, plus the seconds it
/// took.
fn set_up(dir: PathBuf, span_log: Option<PathBuf>) -> Result<(Session, f64), String> {
    let t = Instant::now();
    let live = Live::start(dir, span_log)?;
    let mut generator = Generator::new(live.addr)?;
    let hot = hot_targets();
    let mut bodies = Vec::new();
    for target in &hot {
        let req = [Request {
            due: Duration::ZERO,
            target: target.clone(),
            hot: None,
        }];
        let (out, _) = generator.run(&req, usize::MAX)?;
        let o = &out[0];
        if o.latency_ms.is_none() {
            return Err(format!(
                "warming {target} failed: {}",
                o.error.as_deref().unwrap_or("no answer")
            ));
        }
        bodies.push((o.body_fnv, o.body_len));
    }
    let session = Session {
        generator,
        hot: HotBodies(bodies),
        live,
    };
    Ok((session, t.elapsed().as_secs_f64()))
}

/// Scores one request: a 200, and for a hot target its first-seen bytes.
fn score(req: &Request, o: &Outcome, hot: &HotBodies) -> Result<(), String> {
    if let Some(e) = &o.error {
        return Err(format!("{}: {e}", req.target));
    }
    if let Some(h) = req.hot {
        if (o.body_fnv, o.body_len) != hot.0[h] {
            return Err(format!(
                "{}: hot body differs from its first-seen bytes",
                req.target
            ));
        }
    }
    Ok(())
}

/// What one phase at one rate measured.
struct Phase {
    rate: f64,
    /// Latency per request, failed ones as infinity.
    latencies: Vec<f64>,
    outcomes: Vec<Outcome>,
    reqs: Vec<Request>,
    /// Completed requests per second over the phase.
    achieved: f64,
    /// Backlog at the last send minus at the middle send.
    backlog_growth: i64,
    /// Sending stopped early on an outstanding backlog.
    aborted: bool,
}

impl Phase {
    fn p99(&self) -> f64 {
        stats::p99(&self.latencies)
    }

    /// p99 within the limit, every request sent, and a backlog that
    /// grew by less than the limit's worth of arrivals over the second
    /// half of the step.
    fn meets_limit(&self) -> bool {
        let allowed = (self.rate * P99_LIMIT_MS / 1e3).max(4.0) as i64;
        self.p99() <= P99_LIMIT_MS && !self.aborted && self.backlog_growth <= allowed
    }
}

fn run_phase(
    generator: &mut Generator,
    reqs: Vec<Request>,
    rate: f64,
    hot: &HotBodies,
    res: &mut Results,
) -> Result<Phase, String> {
    let limit = (rate * P99_LIMIT_MS / 1e3) as usize;
    let (outcomes, backlog) = generator.run(&reqs, limit.max(4))?;
    let scheduled = reqs.len();
    let mut reqs = reqs;
    reqs.truncate(outcomes.len());
    let mut latencies = Vec::with_capacity(reqs.len());
    let mut last_done: f64 = 0.0;
    let mut done = 0usize;
    for (req, o) in reqs.iter().zip(&outcomes) {
        res.op(score(req, o, hot));
        match o.latency_ms {
            Some(ms) => {
                latencies.push(ms);
                done += 1;
                last_done = last_done.max(req.due.as_secs_f64() + ms / 1e3);
            }
            None => latencies.push(f64::INFINITY),
        }
    }
    let aborted = outcomes.len() < scheduled;
    let mid = backlog.get(backlog.len() / 2).copied().unwrap_or(0) as i64;
    let end = backlog.last().copied().unwrap_or(0) as i64;
    Ok(Phase {
        rate,
        latencies,
        outcomes,
        reqs,
        achieved: done as f64 / last_done.max(1e-9),
        backlog_growth: end - mid,
        aborted,
    })
}

/// Checks every fresh body against `handle_target` on a separate
/// service over the same cache, on [`WORKERS`] threads.
fn verify_fresh(cache_dir: &Path, phases: &[&Phase], res: &mut Results) {
    let started = Instant::now();
    let service = ExperimentService::new(service_config(None), Some(TraceCache::new(cache_dir)));
    let fresh: Vec<(&Request, &Outcome)> = phases
        .iter()
        .flat_map(|p| p.reqs.iter().zip(&p.outcomes))
        .filter(|(r, o)| r.hot.is_none() && o.error.is_none())
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mismatches: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut bad = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((req, o)) = fresh.get(i) else {
                            return bad;
                        };
                        let r = handle_target(&service, &req.target);
                        if r.status != 200
                            || (fnv1a(r.body.as_bytes()), r.body.len()) != (o.body_fnv, o.body_len)
                        {
                            bad.push(req.target.clone());
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["verifier panicked".into()])
            })
            .collect()
    });
    res.check(
        format!(
            "{} fresh bodies equal handle_target on a separate service ({} differ; {:.1} s)",
            fresh.len(),
            mismatches.len(),
            started.elapsed().as_secs_f64()
        ),
        mismatches.is_empty(),
    );
    for m in mismatches.iter().take(5) {
        res.line(format!("fresh body differs: {m}"));
    }
}

/// Requests in the nominal phase: the measuring time the ladder steps
/// leave, at the nominal rate (at least one request).
fn nominal_count(seconds: u64) -> usize {
    let ladder_s: f64 = RATE_LADDER.iter().map(|&(rate, n)| n as f64 / rate).sum();
    ((seconds as f64 - ladder_s) * NOMINAL_RPS).round().max(1.0) as usize
}

/// Runs `serve-mix` in `scratch`.
pub fn run(seed: u64, seconds: u64, trace: bool, scratch: &Path, res: &mut Results) {
    if let Err(e) = run_inner(seed, seconds, trace, scratch, res) {
        res.op(Err(e));
    }
}

fn run_inner(
    seed: u64,
    seconds: u64,
    trace: bool,
    scratch: &Path,
    res: &mut Results,
) -> Result<(), String> {
    let nominal_n = nominal_count(seconds);
    if trace {
        return traced(seed, nominal_n, scratch, res);
    }
    // Set-up, repeated: only the last server is kept.
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        if let Some(old) = kept.take() {
            let _ = std::fs::remove_dir_all(Session::close(old));
        }
        let (session, secs) = set_up(scratch.join(format!("setup-{i}")), None)?;
        setups.push(secs);
        kept = Some(session);
    }
    let mut session = kept.expect("at least one set-up");
    let (generator, hot, addr) = (&mut session.generator, &session.hot, session.live.addr);
    let s = stats::spread(&setups);
    res.set("setup_s", s.median);
    res.line(format!(
        "setup_s {:.4} s (median of {} set-ups: cache fill, server start, {} hot targets warmed)",
        s.median,
        s.count,
        hot.0.len()
    ));

    let rss_reset = sys::reset_peak_rss();
    let mut schedule = Schedule::new(seed);
    let before = scrape(addr)?;
    let nominal = run_phase(
        generator,
        schedule.phase(NOMINAL_RPS, nominal_n),
        NOMINAL_RPS,
        hot,
        res,
    )?;
    let mut passed: Option<&Phase> = nominal.meets_limit().then_some(&nominal);
    let mut ladder = Vec::new();
    if passed.is_some() {
        for (rate, n) in RATE_LADDER {
            let reqs = schedule.phase(rate, n);
            let p = run_phase(generator, reqs, rate, hot, res)?;
            let ok = p.meets_limit();
            ladder.push(p);
            if !ok {
                break;
            }
        }
    }
    let after = scrape(addr)?;
    let rss = sys::peak_rss_mib();
    for p in &ladder {
        if p.meets_limit() {
            passed = Some(p);
        }
    }
    let generations =
        counter(&after, "serve.runs.generations") - counter(&before, "serve.runs.generations");
    res.check(
        format!("no trace generated in the timed phase ({generations} generated)"),
        generations == 0.0,
    );

    let lat = stats::spread(&nominal.latencies);
    let tail = stats::tail(&nominal.latencies);
    // The median over all requests is a memo hit's transport time (~0.5
    // ms); under host contention it jumps to ~1 ms between runs. The
    // fresh requests' median is re-timing work, as steady as a sweep.
    let fresh: Vec<f64> = nominal
        .reqs
        .iter()
        .zip(&nominal.latencies)
        .filter(|(r, _)| r.hot.is_none())
        .map(|(_, &ms)| ms)
        .collect();
    let fresh_p50 = stats::spread(&fresh);
    res.set("latency_p50_ms", fresh_p50.median);
    res.set("latency_tail_ms", tail.map_or(f64::NAN, |q| q.value));
    let top = passed.unwrap_or(&nominal);
    res.set("throughput_per_s", top.achieved);
    res.set("peak_rss_mib", rss);
    res.line(format!(
        "req_p50_ms {:.4} ms, n {} at {NOMINAL_RPS} req/s; fresh requests' p50 {:.4} ms, \
         n {} (latency_p50_ms)",
        lat.median, lat.count, fresh_p50.median, fresh_p50.count
    ));
    match tail {
        Some(q) => res.line(format!(
            "req_p{}_ms {:.4} ms, n {} at {NOMINAL_RPS} req/s (latency_tail_ms)",
            q.pct, q.value, q.count
        )),
        None => res.line("req_p99_ms: too few samples for any tail percentile"),
    }
    let late: Vec<f64> = nominal.outcomes.iter().map(|o| o.late_ms).collect();
    res.line(format!(
        "generator lateness at {NOMINAL_RPS} req/s: p50 {:.4} ms, p99 {:.4} ms",
        stats::median(&late),
        stats::p99(&late)
    ));
    for p in std::iter::once(&nominal).chain(&ladder) {
        res.line(format!(
            "rate {:>6.1} req/s: {} sent, p50 {:.3} ms, p99 {:.3} ms, achieved {:.2} req/s, \
             backlog growth {}{}, {} (limit p99 <= {P99_LIMIT_MS} ms)",
            p.rate,
            p.reqs.len(),
            stats::median(&p.latencies),
            p.p99(),
            p.achieved,
            p.backlog_growth,
            if p.aborted {
                ", stopped early on backlog"
            } else {
                ""
            },
            if p.meets_limit() { "meets" } else { "misses" }
        ));
    }
    res.line(match passed {
        Some(p) => format!(
            "max_rps {:.2} req/s achieved at the {} req/s step",
            p.achieved, p.rate
        ),
        None => format!(
            "max_rps: no rate met the limit; throughput_per_s is the achieved {:.2} req/s \
             at the nominal rate",
            nominal.achieved
        ),
    });
    res.line(format!(
        "peak_rss_mib {rss:.1} MiB ({})",
        if rss_reset {
            "timed phase only"
        } else {
            "whole process"
        }
    ));
    let cache_dir = session.close();
    let mut phases = vec![&nominal];
    phases.extend(ladder.iter());
    verify_fresh(&cache_dir, &phases, res);
    Ok(())
}

/// `/metrics.json` of the server, fetched on its own connection.
fn scrape(addr: SocketAddr) -> Result<String, String> {
    match client::get(addr, "/metrics.json") {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("/metrics.json answered {status}")),
        Err(e) => Err(format!("/metrics.json: {e}")),
    }
}

/// A counter's value in a `/metrics.json` body (0 when absent).
fn counter(body: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    body.find(&key)
        .map(|at| {
            body[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

/// The traced run: the start of the nominal schedule on an untraced
/// service (the overhead baseline), then the whole nominal phase on a
/// service writing every request's spans, joined to the
/// `Server-Timing` each response carried. Together they take the
/// measuring time the untraced run's nominal phase and ladder take.
fn traced(seed: u64, nominal_n: usize, scratch: &Path, res: &mut Results) -> Result<(), String> {
    let base_n = (nominal_n / 4).max(1);
    let (mut untraced, _) = set_up(scratch.join("untraced"), None)?;
    let base = run_phase(
        &mut untraced.generator,
        Schedule::new(seed).phase(NOMINAL_RPS, base_n),
        NOMINAL_RPS,
        &untraced.hot,
        res,
    )?;
    untraced.close();

    let span_log = scratch.with_extension("serve-spans.jsonl");
    let _ = std::fs::remove_file(&span_log);
    let (mut traced, _) = set_up(scratch.join("traced"), Some(span_log.clone()))?;
    let before = scrape(traced.live.addr)?;
    let phase = run_phase(
        &mut traced.generator,
        Schedule::new(seed).phase(NOMINAL_RPS, nominal_n),
        NOMINAL_RPS,
        &traced.hot,
        res,
    )?;
    let after = scrape(traced.live.addr)?;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);

    // Stage times from Server-Timing; write from the span log.
    let stage =
        |k: usize| -> Vec<f64> { phase.outcomes.iter().filter_map(|o| o.timing[k]).collect() };
    let (queue, parse, handler) = (stage(0), stage(1), stage(2));
    let writes = write_ms(&span_log, &phase.outcomes);
    let tail99 = |v: &[f64]| stats::tail(v).map_or(f64::NAN, |q| q.value);
    res.set("queue.ms.p50", stats::median(&queue));
    res.set("queue.ms.p99", tail99(&queue));
    res.set("parse.ms.p50", stats::median(&parse));
    res.set("handler.ms.p50", stats::median(&handler));
    res.set("handler.ms.p99", tail99(&handler));
    res.set(
        "write.ms.p50",
        stats::median(&writes.values().copied().collect::<Vec<_>>()),
    );
    // Each scrape is itself a request the counters include.
    let requests = delta("serve.http.requests") - 1.0;
    res.set(
        "reactor.events_per_req",
        delta("serve.reactor.events") / requests,
    );
    let (led, memo) = (delta("serve.flights.led"), delta("serve.flights.memoized"));
    let flights = led + memo + delta("serve.flights.coalesced");
    res.set("flight.memo_ratio", memo / flights);
    res.set("flight.led", led);
    res.set("run.generations", delta("serve.runs.generations"));
    res.set("loadgen.sent", phase.reqs.len() as f64);
    res.set(
        "loadgen.late_ms.p99",
        tail99(&phase.outcomes.iter().map(|o| o.late_ms).collect::<Vec<_>>()),
    );
    let (traced_p50, base_p50) = (
        stats::median(&phase.latencies),
        stats::median(&base.latencies),
    );
    res.set(
        "obs.overhead_pct",
        (traced_p50 - base_p50) / base_p50 * 100.0,
    );
    // Ledger: the client latency each request's stages account for.
    let (mut wall, mut staged) = (0.0, 0.0);
    for o in &phase.outcomes {
        if let (Some(ms), [Some(q), Some(p), Some(h)]) = (o.latency_ms, o.timing) {
            wall += ms;
            staged += q + p + h + writes.get(o.request_id.as_str()).copied().unwrap_or(0.0);
        }
    }
    res.set("ledger.wall_s", wall / 1e3);
    res.set("ledger.unattributed_frac", 1.0 - staged / wall);
    res.check(
        "no trace generated in the traced phase",
        delta("serve.runs.generations") == 0.0,
    );
    res.line(format!(
        "traced p50 {traced_p50:.4} ms over {} requests vs untraced {base_p50:.4} ms over \
         {base_n}; {} write spans joined",
        phase.reqs.len(),
        writes.len()
    ));
    let cache_dir = traced.close();
    layers::probe(&TraceCache::new(cache_dir), &SweepCells::new(), false, res);
    res.none(&[
        "generate.s",
        "generate.instructions",
        "generate.mp_cycles",
        "generate.minstr_per_s",
        "archive.finish.s",
        "archive.bytes",
        "cache.lookup.s",
        "cache.hits",
        "cache.misses",
        "retime.gang.s",
        "retime.gang.share",
        "dag.schedule.s",
        "dag.run.s",
        "dag.busy_s",
        "dag.idle_frac",
        "dag.critical_path_s",
        "dag.peak_ready",
        "render.s",
    ]);
    Ok(())
}

/// `write` span durations in ms by request id, from the span log.
fn write_ms(path: &Path, outcomes: &[Outcome]) -> HashMap<String, f64> {
    let wanted: std::collections::HashSet<&str> =
        outcomes.iter().map(|o| o.request_id.as_str()).collect();
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut out = HashMap::new();
    for line in text.lines() {
        let Ok(obj) = parse_flat_object(line) else {
            continue;
        };
        let field = |k: &str| obj.get(k).cloned();
        if let (Some(FlatValue::Str(name)), Some(FlatValue::Str(id)), Some(FlatValue::UInt(us))) =
            (field("name"), field("request_id"), field("dur_us"))
        {
            if name == "write" && wanted.contains(id.as_str()) {
                out.insert(id, us as f64 / 1e3);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let one = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
                   Connection: keep-alive\r\nX-Request-Id: req-1\r\n\
                   Server-Timing: parse;dur=0.010, queue;dur=0.020, handler;dur=1.500\r\n\r\n{}";
        let buf = format!("{one}{one}");
        let p = parse_response(buf.as_bytes())
            .expect("valid")
            .expect("complete");
        assert_eq!((p.status, p.end, p.close), (200, one.len(), false));
        assert_eq!(p.request_id, "req-1");
        assert_eq!(p.timing, [Some(0.02), Some(0.01), Some(1.5)]);
        assert!(parse_response(&buf.as_bytes()[..one.len() - 1])
            .expect("valid")
            .is_none());
    }

    #[test]
    fn counters_read_from_metrics_json() {
        let body = r#"{"serve.flights.led":12,"serve.http.latency_micros":{"count":3},"serve.runs.generations":0}"#;
        assert_eq!(counter(body, "serve.flights.led"), 12.0);
        assert_eq!(counter(body, "serve.runs.generations"), 0.0);
        assert_eq!(counter(body, "serve.absent"), 0.0);
    }
}
