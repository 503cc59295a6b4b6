//! Per-connection state machines for the event loop.
//!
//! A [`Connection`] owns one nonblocking socket plus its read and write
//! buffers, its sniffed [`WireMode`], and a [`FaultGate`]. The event
//! loop drives it with three calls:
//!
//! * [`fill`](Connection::fill) — drain the socket into the read
//!   buffer, applying read-side faults chunk by chunk. An injected
//!   stall *defers* the read until an instant the connection keeps
//!   ([`next_resume`](Connection::next_resume), which the loop polls
//!   against) instead of sleeping.
//! * [`next_request`](Connection::next_request) — extract the next
//!   complete request payload, sniffing the protocol from the first
//!   byte of the connection.
//! * [`flush`](Connection::flush) — push buffered responses out,
//!   applying write-side faults.
//!
//! The [`Sequencer`] keeps pipelined responses in arrival order:
//! requests get a sequence number at parse time, workers complete out
//! of order, and completions are held until every earlier response has
//! been emitted.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Instant;

use mwsj_mapreduce::NetFault;

use crate::fault::FaultGate;
use crate::frame::{self, FrameError, WireMode};

/// Read chunk size. Smaller than a page so injected per-chunk faults
/// (one corruption per read operation) land at a realistic cadence.
const CHUNK: usize = 4096;

/// Outcome of a [`Connection::fill`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The socket would now block; new bytes may have been buffered.
    Open,
    /// The peer half-closed; buffered requests remain servable.
    Eof,
    /// An injected fault defers reading until
    /// [`Connection::next_resume`].
    Stalled,
    /// The connection died (reset, error, or injected kill).
    Dead,
}

/// Outcome of a [`Connection::flush`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// The write buffer is fully drained.
    Flushed,
    /// The socket would block with bytes still buffered; the loop
    /// should register write interest.
    Blocked,
    /// An injected fault defers writing until
    /// [`Connection::next_resume`].
    Stalled,
    /// The connection died mid-write.
    Dead,
}

/// A protocol violation that warrants a typed `bad_request` response
/// followed by eviction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A request (line or declared frame payload) exceeds the
    /// configured maximum.
    Oversize {
        /// Observed (or declared) request length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A binary frame failed to decode (bad magic between frames, or a
    /// frame cut short by EOF).
    BadFrame(FrameError),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversize { len, max } => {
                write!(f, "request of {len} bytes exceeds the maximum of {max}")
            }
            ProtoError::BadFrame(e) => write!(f, "{e}"),
        }
    }
}

/// One nonblocking connection: socket, buffers, protocol mode, faults.
pub struct Connection {
    stream: TcpStream,
    faults: FaultGate,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    mode: Option<WireMode>,
    peer_eof: bool,
    dead: bool,
    /// A deferred read: resume not before the instant, reading at most
    /// the limit (1 for slow-loris trickle), with no new fault draw.
    read_resume: Option<(Instant, usize)>,
    /// A deferred write: resume not before the instant, one attempt
    /// without a new fault draw.
    write_resume: Option<Instant>,
    last_activity: Instant,
}

impl Connection {
    /// Adopts a freshly accepted socket, switching it to nonblocking.
    ///
    /// # Errors
    /// Propagates the `set_nonblocking` failure.
    pub fn new(stream: TcpStream, faults: FaultGate, now: Instant) -> std::io::Result<Connection> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        Ok(Connection {
            stream,
            faults,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            mode: None,
            peer_eof: false,
            dead: false,
            read_resume: None,
            write_resume: None,
            last_activity: now,
        })
    }

    /// The underlying socket (for poller registration).
    #[must_use]
    pub fn socket(&self) -> &TcpStream {
        &self.stream
    }

    /// The wire mode the first byte selected, once it has arrived.
    #[must_use]
    pub fn mode(&self) -> Option<WireMode> {
        self.mode
    }

    /// Whether the connection has died.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether the peer has half-closed its sending side.
    #[must_use]
    pub fn peer_eof(&self) -> bool {
        self.peer_eof
    }

    /// Instant of the last read progress or response enqueue (idle
    /// eviction input).
    #[must_use]
    pub fn last_activity(&self) -> Instant {
        self.last_activity
    }

    /// Whether unflushed response bytes remain.
    #[must_use]
    pub fn wants_write(&self) -> bool {
        !self.dead && self.outpos < self.outbuf.len()
    }

    /// Whether an injected fault currently defers reading.
    #[must_use]
    pub fn read_stalled(&self) -> bool {
        self.read_resume.is_some()
    }

    /// Whether an injected fault currently defers writing.
    #[must_use]
    pub fn write_stalled(&self) -> bool {
        self.write_resume.is_some()
    }

    /// The earliest instant a deferred read or write becomes due.
    #[must_use]
    pub fn next_resume(&self) -> Option<Instant> {
        match (self.read_resume.map(|(t, _)| t), self.write_resume) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Kills the connection: latches death and shuts the socket down.
    pub fn kill(&mut self) {
        self.dead = true;
        self.stream.shutdown(Shutdown::Both).ok();
    }

    /// One raw read of up to `limit` bytes; returns bytes read, or
    /// `None` on would-block. EOF and errors latch connection state.
    fn read_chunk(&mut self, limit: usize, now: Instant) -> Option<usize> {
        let mut tmp = [0u8; CHUNK];
        let end = limit.min(CHUNK);
        match self.stream.read(&mut tmp[..end]) {
            Ok(0) => {
                self.peer_eof = true;
                Some(0)
            }
            Ok(n) => {
                self.inbuf.extend_from_slice(&tmp[..n]);
                if self.mode.is_none() {
                    self.mode = Some(frame::sniff(self.inbuf[0]));
                }
                self.last_activity = now;
                Some(n)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                None
            }
            Err(_) => {
                self.dead = true;
                Some(0)
            }
        }
    }

    /// Drains the socket into the read buffer, one fault decision per
    /// chunk, until it would block (or a fault intervenes).
    pub fn fill(&mut self, now: Instant) -> ReadOutcome {
        if self.dead {
            return ReadOutcome::Dead;
        }
        if self.peer_eof {
            return ReadOutcome::Eof;
        }
        // A deferred read resumes first: one chunk, no new fault draw.
        if let Some((when, limit)) = self.read_resume {
            if now < when {
                return ReadOutcome::Stalled;
            }
            self.read_resume = None;
            match self.read_chunk(limit, now) {
                Some(_) if self.dead => return ReadOutcome::Dead,
                Some(0) => return ReadOutcome::Eof,
                Some(_) | None => {}
            }
        }
        loop {
            if self.dead {
                return ReadOutcome::Dead;
            }
            if self.peer_eof {
                return ReadOutcome::Eof;
            }
            let (op, fault) = self.faults.next_read();
            match fault {
                NetFault::None => match self.read_chunk(CHUNK, now) {
                    Some(_) if self.dead => return ReadOutcome::Dead,
                    Some(0) => return ReadOutcome::Eof,
                    Some(_) => {}
                    None => return ReadOutcome::Open,
                },
                NetFault::Disconnect => {
                    self.kill();
                    return ReadOutcome::Dead;
                }
                NetFault::Stall(d) => {
                    let until = now + d;
                    self.read_resume = Some((until, CHUNK));
                    return ReadOutcome::Stalled;
                }
                NetFault::SlowLoris(d) => {
                    // Trickle: one byte once the delay elapses.
                    let until = now + d;
                    self.read_resume = Some((until, 1));
                    return ReadOutcome::Stalled;
                }
                NetFault::TornFrame => {
                    // Deliver a prefix of what arrived, then die.
                    let before = self.inbuf.len();
                    self.read_chunk(CHUNK, now);
                    let got = self.inbuf.len() - before;
                    let keep = self.faults.fault_point(op, got);
                    self.inbuf.truncate(before + keep);
                    self.kill();
                    return ReadOutcome::Dead;
                }
                NetFault::CorruptByte => {
                    // Inbound-only corruption (see the fault module
                    // docs): one flipped byte per chunk.
                    let before = self.inbuf.len();
                    match self.read_chunk(CHUNK, now) {
                        Some(_) if self.dead => return ReadOutcome::Dead,
                        Some(0) => return ReadOutcome::Eof,
                        Some(n) if n > 0 => {
                            let at = before + self.faults.fault_point(op, n);
                            self.inbuf[at] ^= 0x20;
                        }
                        Some(_) => {}
                        None => return ReadOutcome::Open,
                    }
                }
            }
        }
    }

    /// Extracts the next complete request payload, sniffing the
    /// protocol from the connection's first byte.
    ///
    /// Returns `Ok(None)` when more bytes are needed. After EOF a final
    /// unterminated line is still delivered (line mode), while a
    /// truncated binary frame is a typed error.
    ///
    /// # Errors
    /// [`ProtoError`] on oversize requests and malformed frames; the
    /// caller answers with `bad_request` and evicts.
    pub fn next_request(&mut self, max_request: usize) -> Result<Option<Vec<u8>>, ProtoError> {
        if self.mode == Some(WireMode::Binary) {
            // Inter-frame whitespace is legal (a client may end each
            // frame with a newline, as it would a line).
            let skip = frame::leading_whitespace(&self.inbuf);
            if skip > 0 {
                self.inbuf.drain(..skip);
            }
        }
        if self.inbuf.is_empty() {
            return Ok(None);
        }
        let mode = *self.mode.get_or_insert_with(|| frame::sniff(self.inbuf[0]));
        match mode {
            WireMode::Line => {
                if let Some((end, consumed)) = frame::take_line(&self.inbuf) {
                    if consumed > max_request {
                        return Err(ProtoError::Oversize {
                            len: consumed,
                            max: max_request,
                        });
                    }
                    let line = self.inbuf[..end].to_vec();
                    self.inbuf.drain(..consumed);
                    Ok(Some(line))
                } else if self.inbuf.len() > max_request {
                    Err(ProtoError::Oversize {
                        len: self.inbuf.len(),
                        max: max_request,
                    })
                } else if self.peer_eof {
                    // A final unterminated line still gets an answer.
                    Ok(Some(std::mem::take(&mut self.inbuf)))
                } else {
                    Ok(None)
                }
            }
            WireMode::Binary => match frame::decode_frame(&self.inbuf, max_request) {
                Ok((range, consumed)) => {
                    let payload = self.inbuf[range].to_vec();
                    self.inbuf.drain(..consumed);
                    Ok(Some(payload))
                }
                Err(FrameError::Oversize { len, max }) => Err(ProtoError::Oversize { len, max }),
                Err(e @ FrameError::Truncated { .. }) => {
                    if self.peer_eof {
                        Err(ProtoError::BadFrame(e))
                    } else {
                        Ok(None)
                    }
                }
                Err(e @ FrameError::BadMagic { .. }) => Err(ProtoError::BadFrame(e)),
            },
        }
    }

    /// Queues one response payload in the connection's wire mode. A line
    /// reply with nothing queued ahead of it becomes the write buffer
    /// itself, newline appended, without a copy; a frame is copied once,
    /// behind its header.
    pub fn enqueue_response(&mut self, mut payload: Vec<u8>, now: Instant) {
        match self.mode.unwrap_or(WireMode::Line) {
            WireMode::Line if self.outbuf.is_empty() => {
                payload.push(b'\n');
                self.outbuf = payload;
            }
            WireMode::Line => {
                self.outbuf.extend_from_slice(&payload);
                self.outbuf.push(b'\n');
            }
            WireMode::Binary => frame::encode_frame(&payload, &mut self.outbuf),
        }
        self.last_activity = now;
    }

    /// Drops the drained write buffer: a connection holds no reply's
    /// memory between replies.
    fn release_output(&mut self) {
        self.outbuf = Vec::new();
        self.outpos = 0;
    }

    /// One raw write attempt; advances the flushed prefix.
    fn write_once(&mut self, now: Instant) -> FlushOutcome {
        match self.stream.write(&self.outbuf[self.outpos..]) {
            Ok(0) => {
                self.kill();
                FlushOutcome::Dead
            }
            Ok(n) => {
                self.outpos += n;
                self.last_activity = now;
                if self.outpos == self.outbuf.len() {
                    self.release_output();
                    FlushOutcome::Flushed
                } else {
                    FlushOutcome::Blocked
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                FlushOutcome::Blocked
            }
            Err(_) => {
                self.kill();
                FlushOutcome::Dead
            }
        }
    }

    /// Pushes buffered responses out, one fault decision per attempt,
    /// until drained, blocked, or a fault intervenes.
    pub fn flush(&mut self, now: Instant) -> FlushOutcome {
        if self.dead {
            return FlushOutcome::Dead;
        }
        if self.outpos >= self.outbuf.len() {
            self.release_output();
            return FlushOutcome::Flushed;
        }
        // A deferred write resumes first: one attempt, no new draw.
        if let Some(when) = self.write_resume {
            if now < when {
                return FlushOutcome::Stalled;
            }
            self.write_resume = None;
            match self.write_once(now) {
                FlushOutcome::Flushed => return FlushOutcome::Flushed,
                FlushOutcome::Blocked => {}
                other => return other,
            }
        }
        loop {
            if self.outpos >= self.outbuf.len() {
                self.release_output();
                return FlushOutcome::Flushed;
            }
            let (op, fault) = self.faults.next_write();
            match fault {
                // Outbound corruption degenerates to a clean write (see
                // the fault module docs).
                NetFault::None | NetFault::CorruptByte => match self.write_once(now) {
                    FlushOutcome::Flushed => return FlushOutcome::Flushed,
                    FlushOutcome::Blocked if self.outpos < self.outbuf.len() => {
                        return FlushOutcome::Blocked
                    }
                    FlushOutcome::Blocked => {}
                    other => return other,
                },
                NetFault::Disconnect => {
                    self.kill();
                    return FlushOutcome::Dead;
                }
                NetFault::Stall(d) | NetFault::SlowLoris(d) => {
                    let until = now + d;
                    self.write_resume = Some(until);
                    return FlushOutcome::Stalled;
                }
                NetFault::TornFrame => {
                    // A prefix reaches the peer, then the connection
                    // drops.
                    let pending = &self.outbuf[self.outpos..];
                    let cut = self.faults.fault_point(op, pending.len());
                    if cut > 0 {
                        let torn = self.outbuf[self.outpos..self.outpos + cut].to_vec();
                        self.stream.write_all(&torn).ok();
                        self.stream.flush().ok();
                    }
                    self.kill();
                    return FlushOutcome::Dead;
                }
            }
        }
    }
}

/// Orders pipelined responses: sequence numbers are assigned at parse
/// time, completions buffer until contiguous, and responses emit in
/// arrival order.
#[derive(Default)]
pub struct Sequencer {
    next_assign: u64,
    next_emit: u64,
    ready: BTreeMap<u64, Vec<u8>>,
}

impl Sequencer {
    /// Creates an empty sequencer.
    #[must_use]
    pub fn new() -> Sequencer {
        Sequencer::default()
    }

    /// Assigns the next sequence number to a freshly parsed request.
    pub fn assign(&mut self) -> u64 {
        let seq = self.next_assign;
        self.next_assign += 1;
        seq
    }

    /// Records a completed response. Returns every payload that is now
    /// emittable, in sequence order.
    pub fn complete(&mut self, seq: u64, payload: Vec<u8>) -> Vec<Vec<u8>> {
        self.ready.insert(seq, payload);
        let mut out = Vec::new();
        while let Some(payload) = self.ready.remove(&self.next_emit) {
            out.push(payload);
            self.next_emit += 1;
        }
        out
    }

    /// Whether every assigned request has been emitted.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.next_assign == self.next_emit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_MAGIC;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    fn settle(conn: &mut Connection) {
        // Loopback delivery is fast but not instant under a nonblocking
        // read; poll briefly.
        for _ in 0..200 {
            if conn.fill(Instant::now()) != ReadOutcome::Open || !conn.inbuf.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sniffs_line_mode_and_extracts_lines() {
        let (mut a, b) = pair();
        let mut conn = Connection::new(b, FaultGate::new(None, 0), Instant::now()).expect("conn");
        a.write_all(b"{\"op\":\"stats\"}\n{\"op\":").expect("write");
        settle(&mut conn);
        assert_eq!(conn.mode(), Some(WireMode::Line));
        let req = conn
            .next_request(1024)
            .expect("no error")
            .expect("one line");
        assert_eq!(req, b"{\"op\":\"stats\"}");
        assert!(conn.next_request(1024).expect("no error").is_none());
    }

    #[test]
    fn sniffs_binary_mode_and_extracts_frames() {
        let (mut a, b) = pair();
        let mut conn = Connection::new(b, FaultGate::new(None, 0), Instant::now()).expect("conn");
        let mut wire = Vec::new();
        frame::encode_frame(b"first", &mut wire);
        frame::encode_frame(b"second", &mut wire);
        a.write_all(&wire).expect("write");
        settle(&mut conn);
        assert_eq!(conn.mode(), Some(WireMode::Binary));
        assert_eq!(conn.next_request(64).expect("ok").expect("frame"), b"first");
        assert_eq!(
            conn.next_request(64).expect("ok").expect("frame"),
            b"second"
        );
        assert!(conn.next_request(64).expect("ok").is_none());
    }

    #[test]
    fn binary_mode_skips_interframe_whitespace() {
        let (mut a, b) = pair();
        let mut conn = Connection::new(b, FaultGate::new(None, 0), Instant::now()).expect("conn");
        let mut wire = Vec::new();
        frame::encode_frame(b"probe", &mut wire);
        wire.push(b'\n');
        frame::encode_frame(b"next", &mut wire);
        a.write_all(&wire).expect("write");
        settle(&mut conn);
        assert_eq!(conn.next_request(64).expect("ok").expect("frame"), b"probe");
        assert_eq!(conn.next_request(64).expect("ok").expect("frame"), b"next");
    }

    #[test]
    fn oversize_line_is_a_typed_error() {
        let (mut a, b) = pair();
        let mut conn = Connection::new(b, FaultGate::new(None, 0), Instant::now()).expect("conn");
        a.write_all(&vec![b'x'; 300]).expect("write");
        settle(&mut conn);
        match conn.next_request(256) {
            Err(ProtoError::Oversize { len, max }) => {
                assert!(len > 256);
                assert_eq!(max, 256);
            }
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    #[test]
    fn oversize_frame_is_a_typed_error() {
        let (mut a, b) = pair();
        let mut conn = Connection::new(b, FaultGate::new(None, 0), Instant::now()).expect("conn");
        let mut wire = vec![FRAME_MAGIC];
        wire.extend_from_slice(&100_000u32.to_le_bytes());
        a.write_all(&wire).expect("write");
        settle(&mut conn);
        assert_eq!(
            conn.next_request(256),
            Err(ProtoError::Oversize {
                len: 100_000,
                max: 256
            })
        );
    }

    #[test]
    fn eof_remnant_line_is_delivered() {
        let (mut a, b) = pair();
        let mut conn = Connection::new(b, FaultGate::new(None, 0), Instant::now()).expect("conn");
        a.write_all(b"{\"op\":\"stats\"}").expect("write");
        a.shutdown(Shutdown::Write).expect("shutdown");
        for _ in 0..200 {
            if conn.fill(Instant::now()) == ReadOutcome::Eof {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(conn.peer_eof());
        let req = conn.next_request(1024).expect("ok").expect("remnant");
        assert_eq!(req, b"{\"op\":\"stats\"}");
    }

    #[test]
    fn eof_mid_frame_is_a_typed_error() {
        let (mut a, b) = pair();
        let mut conn = Connection::new(b, FaultGate::new(None, 0), Instant::now()).expect("conn");
        let mut wire = Vec::new();
        frame::encode_frame(b"cut short", &mut wire);
        a.write_all(&wire[..wire.len() - 3]).expect("write");
        a.shutdown(Shutdown::Write).expect("shutdown");
        for _ in 0..200 {
            if conn.fill(Instant::now()) == ReadOutcome::Eof {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match conn.next_request(1024) {
            Err(ProtoError::BadFrame(FrameError::Truncated { .. })) => {}
            other => panic!("expected truncated frame, got {other:?}"),
        }
    }

    /// A connection in `mode` (sniffed from one request, as a server sees
    /// it) and its peer, which reads with a timeout.
    fn connected(mode: WireMode) -> (TcpStream, Connection) {
        let (mut a, b) = pair();
        let mut conn = Connection::new(b, FaultGate::new(None, 0), Instant::now()).expect("conn");
        let mut request = b"{}\n".to_vec();
        if mode == WireMode::Binary {
            request.clear();
            frame::encode_frame(b"{}", &mut request);
        }
        a.write_all(&request).expect("write");
        settle(&mut conn);
        conn.next_request(64).expect("ok").expect("request");
        assert_eq!(conn.mode(), Some(mode));
        a.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        (a, conn)
    }

    /// Flushes everything queued while the peer reads `len` bytes.
    fn flush_to_peer(peer: &mut TcpStream, conn: &mut Connection, len: usize) -> Vec<u8> {
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut got = vec![0u8; len];
                peer.read_exact(&mut got).expect("read");
                got
            });
            loop {
                match conn.flush(Instant::now()) {
                    FlushOutcome::Flushed => break,
                    FlushOutcome::Blocked => std::thread::yield_now(),
                    other => panic!("flush: {other:?}"),
                }
            }
            reader.join().expect("reader")
        })
    }

    /// Two pipelined replies — the first adopted as the write buffer in
    /// line mode, the second appended behind it — reach the peer whole
    /// and in order, framed per mode.
    #[test]
    fn responses_are_framed_per_mode() {
        let first = vec![b'a'; 70_000];
        let second = b"{\"ok\":true}".to_vec();
        for mode in [WireMode::Line, WireMode::Binary] {
            let (mut a, mut conn) = connected(mode);
            conn.enqueue_response(first.clone(), Instant::now());
            conn.enqueue_response(second.clone(), Instant::now());
            let mut want = Vec::new();
            for reply in [&first, &second] {
                if mode == WireMode::Binary {
                    want.push(FRAME_MAGIC);
                    want.extend_from_slice(&(reply.len() as u32).to_le_bytes());
                }
                want.extend_from_slice(reply);
                if mode == WireMode::Line {
                    want.push(b'\n');
                }
            }
            assert_eq!(
                flush_to_peer(&mut a, &mut conn, want.len()),
                want,
                "{mode:?}"
            );
            assert_eq!(conn.outbuf.capacity(), 0, "{mode:?}");
        }
    }

    #[test]
    fn a_flushed_reply_leaves_no_output_buffer() {
        let (mut a, mut conn) = connected(WireMode::Line);
        let reply = vec![b'7'; 1 << 20];
        conn.enqueue_response(reply.clone(), Instant::now());
        let got = flush_to_peer(&mut a, &mut conn, reply.len() + 1);
        assert_eq!(&got[..reply.len()], &reply[..]);
        assert_eq!(got[reply.len()], b'\n');
        assert!(!conn.wants_write());
        assert_eq!(conn.outbuf.capacity(), 0, "the drained buffer is dropped");
    }

    #[test]
    fn injected_stall_defers_instead_of_sleeping() {
        use mwsj_mapreduce::NetFaultPlan;
        let (mut a, b) = pair();
        let plan = NetFaultPlan {
            stall_rate: 1.0,
            ..NetFaultPlan::none()
        };
        let t0 = Instant::now();
        let mut conn = Connection::new(b, FaultGate::new(Some(plan), 0), t0).expect("conn");
        a.write_all(b"{}\n").expect("write");
        std::thread::sleep(Duration::from_millis(5));
        let now = Instant::now();
        let outcome = conn.fill(now);
        assert_eq!(outcome, ReadOutcome::Stalled);
        let until = conn.next_resume().expect("a stalled read is due again");
        assert!(until > now);
        // fill returned without sleeping; the resume instant is ahead.
        assert!(conn.read_stalled());
        assert!(
            conn.next_request(64).expect("ok").is_none(),
            "nothing read yet"
        );
        // After the stall elapses the deferred read resumes; each
        // subsequent chunk draws a fresh stall (rate 1.0), so drive the
        // resume clock until the request surfaces.
        let mut clock = until + Duration::from_millis(1);
        for _ in 0..100 {
            let outcome = conn.fill(clock);
            assert!(matches!(outcome, ReadOutcome::Open | ReadOutcome::Stalled));
            if let Some(req) = conn.next_request(64).expect("ok") {
                assert_eq!(req, b"{}");
                return;
            }
            if let Some(t) = conn.next_resume() {
                clock = t + Duration::from_millis(1);
            }
        }
        panic!("request never surfaced through stalls");
    }

    #[test]
    fn sequencer_reorders_out_of_order_completions() {
        let mut seq = Sequencer::new();
        let a = seq.assign();
        let b = seq.assign();
        let c = seq.assign();
        assert_eq!((a, b, c), (0, 1, 2));
        assert!(seq.complete(c, b"C".to_vec()).is_empty());
        assert!(seq.complete(b, b"B".to_vec()).is_empty());
        let out = seq.complete(a, b"A".to_vec());
        assert_eq!(out, vec![b"A".to_vec(), b"B".to_vec(), b"C".to_vec()]);
        assert!(seq.drained());
    }

    #[test]
    fn sequencer_streams_in_order_completions_immediately() {
        let mut seq = Sequencer::new();
        for i in 0..8u64 {
            let s = seq.assign();
            assert_eq!(s, i);
            let out = seq.complete(s, vec![i as u8]);
            assert_eq!(out, vec![vec![i as u8]]);
        }
        assert!(seq.drained());
    }
}
