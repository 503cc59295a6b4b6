//! The readiness event loop of the serving tier.
//!
//! One thread owns every connection: a [`Poller`] (epoll on Linux)
//! reports socket readiness, [`Connection`] state machines buffer and
//! frame both directions, a [`TimerWheel`] paces idle eviction and
//! injected-fault resumption, and a [`Sequencer`] per connection keeps
//! pipelined responses in request order. The loop thread is the first
//! to try each request — it answers what costs no load, no plan and no
//! join (`crate::answer`) — and the rest runs on its fixed worker pool
//! ([`crate::pool`]; the loop itself creates no thread), whose workers
//! report back through a completion queue and a cross-thread [`Waker`], so
//! a slow join never stalls the thousands of other connections the loop
//! is holding.
//!
//! Lifecycle rules:
//!
//! * A client that reaches EOF mid-run has its in-flight queries
//!   cancelled; requests parsed *after* EOF run with a pre-cancelled
//!   token, so cheap operations (`stats`, cache hits) still answer but
//!   joins report `cancelled` instead of burning slots for a
//!   half-closed peer.
//! * A request that needs a worker when all are busy and the queue
//!   behind them is full is answered `overloaded` on the spot, in its
//!   place in the pipeline: a flood creates no thread and parks none.
//! * Oversized or malformed requests get a typed `bad_request` response
//!   — sequenced after any earlier pipelined responses — and the
//!   connection closes once it flushes.
//! * On shutdown the loop stops accepting, stops parsing new requests,
//!   lets in-flight work finish until the drain deadline, then cancels
//!   the stragglers through their tokens and exits once every
//!   connection has flushed (with a hard backstop well past the
//!   deadline).

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwsj_core::mapreduce::CancelToken;
use mwsj_net::poll::waker;
use mwsj_net::{
    Connection, FaultGate, FlushOutcome, Interest, Poller, ProtoError, ReadOutcome, Sequencer,
    TimerWheel, WireMode,
};
use parking_lot::Mutex;

use crate::pool::Pool;
use crate::protocol::{self, ErrorCode};
use crate::Inner;

/// Token of the listening socket.
const LISTENER: u64 = 0;
/// Token of the wake pipe's receive end.
const WAKER: u64 = 1;
/// First connection token.
const FIRST_CONN: u64 = 2;
/// Timer tokens with this bit set are stall-resume hints for the
/// connection in the low bits; without it, idle-eviction checks.
const STALL_BIT: u64 = 1 << 63;
/// The poll tick: an upper bound on how stale the stop flag and drain
/// deadline can get while the loop is otherwise idle.
const TICK: Duration = Duration::from_millis(25);
/// How long past the drain deadline the loop waits for cancelled
/// stragglers to flush before force-exiting.
const DRAIN_BACKSTOP: Duration = Duration::from_secs(30);

/// A worker's finished response, routed back to its connection.
pub(crate) struct Completion {
    token: u64,
    req: u64,
    response: String,
}

struct ConnState {
    conn: Connection,
    seq: Sequencer,
    /// Cancel tokens of requests dispatched but not yet completed.
    inflight: HashMap<u64, CancelToken>,
    /// Reading has stopped (protocol violation); close once flushed.
    closing: bool,
    /// What the poller is currently watching for this socket.
    registered: Interest,
    /// A write stall is waiting on its resume timer, not on readiness.
    write_stalled: bool,
}

impl ConnState {
    /// Everything answered and flushed — nothing left to do for this
    /// connection but wait for more requests.
    fn drained(&self) -> bool {
        self.inflight.is_empty() && self.seq.drained() && !self.conn.wants_write()
    }

    /// Settles request `req` and queues whatever that releases, in
    /// request order, for writing.
    fn complete(&mut self, req: u64, response: String, now: Instant) {
        for payload in self.seq.complete(req, response.into_bytes()) {
            self.conn.enqueue_response(payload, now);
        }
    }
}

/// Runs the event loop until shutdown completes. See module docs.
pub(crate) fn run(listener: &TcpListener, inner: &Arc<Inner>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let (wake, mut wake_rx) = waker()?;
    poller.register(listener, LISTENER, Interest::READ)?;
    poller.register(&wake_rx, WAKER, Interest::READ)?;

    let completions: Arc<Mutex<Vec<(usize, Completion)>>> = Arc::default();
    // The workers, joined when this function returns, however it does.
    let delivered = Arc::clone(&completions);
    let deliver = move |worker, done| {
        delivered.lock().push((worker, done));
        wake.wake();
    };
    let mut pool = Pool::start(inner.config.max_inflight, inner.config.max_queue, deliver);
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_token = FIRST_CONN;
    // The fault-plan connection index: increments per accepted
    // connection (not the poller token, which skips the reserved ids), so
    // a pinned chaos seed draws the same per-connection decision streams
    // for the same accept order.
    let mut conn_seq = 0u64;
    let mut timers = TimerWheel::new(Duration::from_millis(10), 512, Instant::now());
    let mut events = Vec::new();
    let mut due: Vec<u64> = Vec::new();
    let mut dirty: Vec<u64> = Vec::new();
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    let mut drain_cancelled = false;

    loop {
        let timeout = timers
            .next_due()
            .map_or(TICK, |at| at.saturating_duration_since(Instant::now()))
            .min(TICK);
        poller.wait(&mut events, timeout)?;
        let now = Instant::now();

        if !draining && inner.stopping() {
            draining = true;
            drain_deadline = now + inner.config.drain_deadline;
            poller.deregister(listener).ok();
        }

        dirty.clear();
        for ev in &events {
            match ev.token {
                LISTENER => {
                    if !draining {
                        accept_all(
                            listener,
                            &poller,
                            inner,
                            &mut conns,
                            &mut next_token,
                            &mut conn_seq,
                            &mut timers,
                            now,
                        )?;
                    }
                }
                WAKER => wake_rx.drain(),
                token => {
                    if conns.contains_key(&token) && !dirty.contains(&token) {
                        dirty.push(token);
                    }
                }
            }
        }

        timers.advance(now, &mut due);
        for t in due.drain(..) {
            let token = t & !STALL_BIT;
            let Some(cs) = conns.get_mut(&token) else {
                continue;
            };
            if t & STALL_BIT != 0 {
                // Stall resumes are hints: clear the latch and re-drive;
                // the connection re-checks its own resume clocks.
                cs.write_stalled = false;
                if !dirty.contains(&token) {
                    dirty.push(token);
                }
            } else {
                idle_check(inner, cs, &mut timers, token, now);
            }
        }

        // Route finished responses through each connection's sequencer.
        let batch = std::mem::take(&mut *completions.lock());
        for (worker, c) in batch {
            pool.finished(worker);
            let Some(cs) = conns.get_mut(&c.token) else {
                continue;
            };
            cs.inflight.remove(&c.req);
            cs.complete(c.req, c.response, now);
            if !dirty.contains(&c.token) {
                dirty.push(c.token);
            }
        }
        inner.publish_load(&pool);

        for token in dirty.drain(..) {
            if let Some(cs) = conns.get_mut(&token) {
                drive(
                    inner,
                    &poller,
                    &mut pool,
                    cs,
                    &mut timers,
                    token,
                    now,
                    draining,
                );
            }
        }

        // Reap: dead connections, and violators that finished flushing.
        conns.retain(|_, cs| {
            let gone = cs.conn.is_dead() || (cs.closing && cs.drained());
            if gone {
                for tok in cs.inflight.values() {
                    tok.cancel();
                }
                poller.deregister(cs.conn.socket()).ok();
                cs.conn.kill();
            }
            !gone
        });

        if draining {
            if !drain_cancelled && now >= drain_deadline {
                for cs in conns.values() {
                    for tok in cs.inflight.values() {
                        tok.cancel();
                    }
                }
                drain_cancelled = true;
            }
            conns.retain(|_, cs| {
                if cs.drained() {
                    poller.deregister(cs.conn.socket()).ok();
                    cs.conn.kill();
                    false
                } else {
                    true
                }
            });
            if conns.is_empty() || now >= drain_deadline + DRAIN_BACKSTOP {
                return Ok(());
            }
        }
    }
}

/// The serving tier's one `catch_unwind`, at the dispatch site: a panic
/// anywhere in a request's handling — bind, resolve, lookup, run, render,
/// on the loop thread or a worker — answers `join_failed` and counts in
/// `errors`: the request is settled and the thread survives.
fn answer_isolated(inner: &Inner, handler: impl FnOnce() -> Option<String>) -> Option<String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        Some(crate::fail(
            inner,
            ErrorCode::JoinFailed,
            "internal error: request handler panicked",
        ))
    })
}

/// Accepts every pending connection (edge-free: loops to `WouldBlock`).
#[allow(clippy::too_many_arguments)]
fn accept_all(
    listener: &TcpListener,
    poller: &Poller,
    inner: &Arc<Inner>,
    conns: &mut HashMap<u64, ConnState>,
    next_token: &mut u64,
    conn_seq: &mut u64,
    timers: &mut TimerWheel,
    now: Instant,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let gate = FaultGate::new(inner.config.net_fault.clone(), *conn_seq);
                *conn_seq += 1;
                let Ok(conn) = Connection::new(stream, gate, now) else {
                    continue;
                };
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(conn.socket(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                timers.schedule(token, inner.config.idle_timeout);
                conns.insert(
                    token,
                    ConnState {
                        conn,
                        seq: Sequencer::new(),
                        inflight: HashMap::new(),
                        closing: false,
                        registered: Interest::READ,
                        write_stalled: false,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The recurring idle check: evicts a connection that has made no
/// progress for the idle timeout with nothing in flight (the slow-loris
/// defence), otherwise re-arms the timer for the remaining window.
fn idle_check(
    inner: &Arc<Inner>,
    cs: &mut ConnState,
    timers: &mut TimerWheel,
    token: u64,
    now: Instant,
) {
    if cs.conn.is_dead() {
        return;
    }
    let idle_for = now.saturating_duration_since(cs.conn.last_activity());
    let timeout = inner.config.idle_timeout;
    if cs.inflight.is_empty() && idle_for >= timeout {
        if !cs.closing {
            inner.stats.evicted.fetch_add(1, Ordering::Relaxed);
        }
        cs.conn.kill(); // reaped by the caller's sweep
    } else {
        timers.schedule(token, timeout.saturating_sub(idle_for).max(TICK));
    }
}

/// Drives one connection: read, parse and answer or dispatch pipelined
/// requests, flush pending responses, and resync poller interest.
#[allow(clippy::too_many_arguments)]
fn drive(
    inner: &Arc<Inner>,
    poller: &Poller,
    pool: &mut Pool<Completion>,
    cs: &mut ConnState,
    timers: &mut TimerWheel,
    token: u64,
    now: Instant,
    draining: bool,
) {
    if cs.conn.is_dead() {
        return;
    }

    if !cs.closing {
        match cs.conn.fill(now) {
            ReadOutcome::Open | ReadOutcome::Eof => {}
            ReadOutcome::Stalled(resume) => {
                timers.schedule(token | STALL_BIT, resume.saturating_duration_since(now));
            }
            ReadOutcome::Dead => {
                for tok in cs.inflight.values() {
                    tok.cancel();
                }
                return;
            }
        }
    }

    // Parse and dispatch every complete request in the buffer. During
    // drain nothing new is dispatched — in-flight work finishes, the
    // rest stays buffered until the connection closes.
    while !cs.closing && !draining {
        match cs.conn.next_request(inner.config.max_request_line) {
            Ok(Some(payload)) => {
                let text = String::from_utf8_lossy(&payload);
                if text.trim().is_empty() {
                    continue;
                }
                let request = protocol::parse_request(&text);
                let req = cs.seq.assign();
                let cancel = CancelToken::new();
                if cs.conn.peer_eof() {
                    // Dispatched after EOF: answer cheap operations, but
                    // never start a join for a half-closed peer.
                    cancel.cancel();
                }
                // This thread is the first to try; what it cannot answer
                // is a worker's job — or shed, here and now.
                let asked = || crate::answer(inner, &request, None);
                let settled = if let Some(response) = answer_isolated(inner, asked) {
                    inner.stats.answered_inline.fetch_add(1, Ordering::Relaxed);
                    Some(response)
                } else {
                    let (shared, fired) = (Arc::clone(inner), cancel.clone());
                    let job = Box::new(move || {
                        let asked = || crate::answer(&shared, &request, Some(&fired));
                        let response =
                            answer_isolated(&shared, asked).expect("a worker always answers");
                        Completion {
                            token,
                            req,
                            response,
                        }
                    });
                    crate::admit(inner, pool, job).err()
                };
                match settled {
                    Some(response) => cs.complete(req, response, now),
                    None => {
                        cs.inflight.insert(req, cancel);
                    }
                }
            }
            Ok(None) => break,
            Err(err) => {
                let (message, evict) = match &err {
                    ProtoError::Oversize { .. } => (
                        match cs.conn.mode() {
                            Some(WireMode::Binary) => {
                                "request frame exceeds the configured maximum length"
                            }
                            _ => "request line exceeds the configured maximum length",
                        },
                        true,
                    ),
                    ProtoError::BadFrame(_) => ("malformed binary frame", false),
                };
                if evict {
                    inner.stats.evicted.fetch_add(1, Ordering::Relaxed);
                } else {
                    inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                let response = protocol::error_response(ErrorCode::BadRequest, message);
                let req = cs.seq.assign();
                cs.complete(req, response, now);
                cs.closing = true;
            }
        }
    }

    // A peer that half-closed mid-run gets its in-flight joins
    // cancelled — their slots go back to the other tenants.
    if cs.conn.peer_eof() {
        for tok in cs.inflight.values() {
            tok.cancel();
        }
    }

    match cs.conn.flush(now) {
        FlushOutcome::Flushed | FlushOutcome::Blocked => {}
        FlushOutcome::Stalled(resume) => {
            cs.write_stalled = true;
            timers.schedule(token | STALL_BIT, resume.saturating_duration_since(now));
        }
        FlushOutcome::Dead => {
            for tok in cs.inflight.values() {
                tok.cancel();
            }
            return;
        }
    }

    // An EOF'd connection with nothing left to answer or flush is done.
    if cs.conn.peer_eof() && cs.drained() {
        cs.conn.kill();
        return;
    }

    let desired = Interest {
        readable: !cs.closing && !cs.conn.peer_eof() && !cs.conn.read_stalled() && !draining,
        writable: cs.conn.wants_write() && !cs.write_stalled,
    };
    if desired != cs.registered && poller.reregister(cs.conn.socket(), token, desired).is_ok() {
        cs.registered = desired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};

    #[test]
    fn a_panicking_handler_answers_join_failed_and_counts_an_error() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        let inner = Server::bind(config).expect("bind").inner;
        let reply = answer_isolated(&inner, || panic!("boom")).expect("a panic is answered");
        assert!(reply.contains("\"error\":\"join_failed\""), "{reply}");
        assert!(reply.contains("internal error"), "{reply}");
        assert_eq!(inner.stats.errors.load(Ordering::Relaxed), 1);
        let fine = answer_isolated(&inner, || Some("{\"ok\":true}".to_string()));
        assert_eq!(fine.as_deref(), Some("{\"ok\":true}"));
        assert_eq!(answer_isolated(&inner, || None), None);
        assert_eq!(inner.stats.errors.load(Ordering::Relaxed), 1);
    }
}
