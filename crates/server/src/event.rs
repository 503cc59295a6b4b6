//! The readiness event loop of the serving tier.
//!
//! One thread owns every connection: a [`Poller`] (epoll on Linux)
//! reports socket readiness, [`Connection`] state machines buffer and
//! frame both directions and carry their own deadlines (idle eviction,
//! injected-fault resumption), and a [`Sequencer`] per connection keeps
//! pipelined responses in request order. One pass over the connections
//! per iteration ([`sweep`]) reaps the dead, evicts the idle, resumes
//! the stalls that are due, and sets the next poll timeout. The loop
//! thread is the first to try each request — it answers what costs no
//! load, no plan and no join (`crate::answer`) — and the rest runs on
//! its fixed worker pool ([`crate::pool`]; the loop itself creates no
//! thread), whose workers report back through a completion queue and a
//! cross-thread [`Waker`], so a slow join never stalls the thousands of
//! other connections the loop is holding.
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
    WireMode,
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
    let mut events = Vec::new();
    let mut dirty: Vec<u64> = Vec::new();
    let mut timeout = TICK;
    let mut drain_deadline: Option<Instant> = None;
    let mut drain_cancelled = false;

    loop {
        poller.wait(&mut events, timeout)?;
        let now = Instant::now();

        if drain_deadline.is_none() && inner.stopping() {
            drain_deadline = Some(now + inner.config.drain_deadline);
            poller.deregister(listener).ok();
        }
        let draining = drain_deadline.is_some();

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
                drive(inner, &poller, &mut pool, cs, token, now, draining);
            }
        }

        let nearest = sweep(&mut conns, &poller, inner, now, draining, |token, cs| {
            drive(inner, &poller, &mut pool, cs, token, now, draining);
        });
        timeout = nearest.map_or(TICK, |at| at.saturating_duration_since(now).min(TICK));

        if let Some(drain_deadline) = drain_deadline {
            if !drain_cancelled && now >= drain_deadline {
                for cs in conns.values() {
                    for tok in cs.inflight.values() {
                        tok.cancel();
                    }
                }
                drain_cancelled = true;
            }
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

/// The loop's one pass over its connections per iteration: re-drives
/// (`resume`) each whose stalled read or write is due, evicts each that
/// has sat idle for the idle timeout with nothing in flight (the
/// slow-loris defence; counted in `evicted` unless it was closing
/// anyway), reaps the dead, and the drained ones among the violators
/// (or among all, when `draining`), and returns the nearest deadline
/// left.
fn sweep(
    conns: &mut HashMap<u64, ConnState>,
    poller: &Poller,
    inner: &Inner,
    now: Instant,
    draining: bool,
    mut resume: impl FnMut(u64, &mut ConnState),
) -> Option<Instant> {
    let mut nearest: Option<Instant> = None;
    conns.retain(|&token, cs| {
        if cs.conn.next_resume().is_some_and(|at| at <= now) {
            resume(token, cs);
        }
        let idle_at = if cs.inflight.is_empty() {
            cs.conn
                .last_activity()
                .checked_add(inner.config.idle_timeout)
        } else {
            None
        };
        if !cs.conn.is_dead() && idle_at.is_some_and(|at| at <= now) {
            if !cs.closing {
                inner.stats.evicted.fetch_add(1, Ordering::Relaxed);
            }
            cs.conn.kill();
        }
        if cs.conn.is_dead() || ((cs.closing || draining) && cs.drained()) {
            for tok in cs.inflight.values() {
                tok.cancel();
            }
            poller.deregister(cs.conn.socket()).ok();
            cs.conn.kill();
            return false;
        }
        nearest = [nearest, idle_at, cs.conn.next_resume()]
            .into_iter()
            .flatten()
            .min();
        true
    });
    nearest
}

/// Accepts every pending connection (edge-free: loops to `WouldBlock`).
fn accept_all(
    listener: &TcpListener,
    poller: &Poller,
    inner: &Arc<Inner>,
    conns: &mut HashMap<u64, ConnState>,
    next_token: &mut u64,
    conn_seq: &mut u64,
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
                conns.insert(
                    token,
                    ConnState {
                        conn,
                        seq: Sequencer::new(),
                        inflight: HashMap::new(),
                        closing: false,
                        registered: Interest::READ,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Drives one connection: read, parse and answer or dispatch pipelined
/// requests, flush pending responses, and resync poller interest. A
/// stalled read or write waits for [`sweep`] to find it due.
fn drive(
    inner: &Arc<Inner>,
    poller: &Poller,
    pool: &mut Pool<Completion>,
    cs: &mut ConnState,
    token: u64,
    now: Instant,
    draining: bool,
) {
    if cs.conn.is_dead() {
        return;
    }

    // A dead connection's in-flight work is cancelled when the sweep
    // reaps it, later in the same iteration.
    if !cs.closing && cs.conn.fill(now) == ReadOutcome::Dead {
        return;
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

    if cs.conn.flush(now) == FlushOutcome::Dead {
        return;
    }

    // An EOF'd connection with nothing left to answer or flush is done.
    if cs.conn.peer_eof() && cs.drained() {
        cs.conn.kill();
        return;
    }

    let desired = Interest {
        readable: !cs.closing && !cs.conn.peer_eof() && !cs.conn.read_stalled() && !draining,
        writable: cs.conn.wants_write() && !cs.conn.write_stalled(),
    };
    if desired != cs.registered && poller.reregister(cs.conn.socket(), token, desired).is_ok() {
        cs.registered = desired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};
    use mwsj_core::mapreduce::NetFaultPlan;
    use std::net::TcpStream;

    const IDLE: Duration = Duration::from_millis(300);

    fn server(idle_timeout: Duration) -> Arc<Inner> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        Server::bind(config.with_idle_timeout(idle_timeout))
            .expect("bind")
            .inner
    }

    /// One connection over a loopback pair, last active at `t0`, as the
    /// only entry (token `FIRST_CONN`) of a connection table; the peer
    /// end comes back too, to keep the socket open.
    fn table(plan: Option<NetFaultPlan>, t0: Instant) -> (TcpStream, HashMap<u64, ConnState>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let conn = Connection::new(stream, FaultGate::new(plan, 0), t0).expect("conn");
        let cs = ConnState {
            conn,
            seq: Sequencer::new(),
            inflight: HashMap::new(),
            closing: false,
            registered: Interest::READ,
        };
        (peer, HashMap::from([(FIRST_CONN, cs)]))
    }

    /// Sweeps at `now` and returns the nearest deadline and the tokens
    /// the pass resumed.
    fn sweep_at(
        conns: &mut HashMap<u64, ConnState>,
        inner: &Inner,
        now: Instant,
    ) -> (Option<Instant>, Vec<u64>) {
        let poller = Poller::new().expect("poller");
        let mut resumed = Vec::new();
        let nearest = sweep(conns, &poller, inner, now, false, |token, _| {
            resumed.push(token);
        });
        (nearest, resumed)
    }

    fn evicted(inner: &Inner) -> u64 {
        inner.stats.evicted.load(Ordering::Relaxed)
    }

    #[test]
    fn an_idle_connection_is_evicted_at_the_idle_timeout_and_not_before() {
        let inner = server(IDLE);
        let t0 = Instant::now();
        let (_peer, mut conns) = table(None, t0);
        let almost = t0 + IDLE - Duration::from_nanos(1);
        assert_eq!(
            sweep_at(&mut conns, &inner, almost),
            (Some(t0 + IDLE), vec![])
        );
        assert!(conns.contains_key(&FIRST_CONN));
        assert_eq!(evicted(&inner), 0);
        assert_eq!(sweep_at(&mut conns, &inner, t0 + IDLE), (None, vec![]));
        assert!(conns.is_empty());
        assert_eq!(evicted(&inner), 1);
    }

    #[test]
    fn a_request_in_flight_holds_off_eviction() {
        let inner = server(IDLE);
        let t0 = Instant::now();
        let (_peer, mut conns) = table(None, t0);
        let cs = conns.get_mut(&FIRST_CONN).expect("conn");
        cs.inflight.insert(cs.seq.assign(), CancelToken::new());
        assert_eq!(sweep_at(&mut conns, &inner, t0 + 10 * IDLE), (None, vec![]));
        assert!(conns.contains_key(&FIRST_CONN));
        assert_eq!(evicted(&inner), 0);
    }

    #[test]
    fn a_closing_connection_is_evicted_at_the_idle_timeout_uncounted() {
        let inner = server(IDLE);
        let t0 = Instant::now();
        let (_peer, mut conns) = table(None, t0);
        let cs = conns.get_mut(&FIRST_CONN).expect("conn");
        cs.closing = true;
        // An unanswered request keeps it from being reaped as drained.
        cs.seq.assign();
        let almost = t0 + IDLE - Duration::from_nanos(1);
        assert_eq!(
            sweep_at(&mut conns, &inner, almost),
            (Some(t0 + IDLE), vec![])
        );
        assert!(conns.contains_key(&FIRST_CONN));
        assert_eq!(sweep_at(&mut conns, &inner, t0 + IDLE), (None, vec![]));
        assert!(conns.is_empty());
        assert_eq!(evicted(&inner), 0);
    }

    #[test]
    fn a_stalled_read_is_due_at_its_resume_instant_and_not_before() {
        let inner = server(ServerConfig::default().idle_timeout);
        let t0 = Instant::now();
        let stall = NetFaultPlan {
            stall_rate: 1.0,
            ..NetFaultPlan::none()
        };
        let (_peer, mut conns) = table(Some(stall), t0);
        let cs = conns.get_mut(&FIRST_CONN).expect("conn");
        assert_eq!(cs.conn.fill(t0), ReadOutcome::Stalled, "every read stalls");
        let resume = cs.conn.next_resume().expect("a stalled read is due again");
        assert!(resume > t0 && cs.conn.read_stalled());
        let almost = resume - Duration::from_nanos(1);
        assert_eq!(sweep_at(&mut conns, &inner, almost), (Some(resume), vec![]));
        assert_eq!(
            sweep_at(&mut conns, &inner, resume),
            (Some(resume), vec![FIRST_CONN])
        );
        assert_eq!(evicted(&inner), 0);
    }

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
