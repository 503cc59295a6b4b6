//! A resilient blocking client for both wire protocols.
//!
//! One TCP connection, one request out, one response back — over either
//! line-delimited JSON (the default) or the length-prefixed binary
//! framing (see [`mwsj_net::frame`]), selected by [`Proto`]. The server
//! tells the two apart by the first byte of the connection, so there is
//! nothing to negotiate: the client speaks the protocol it was configured
//! with.
//!
//! Also here: explicit connect/read/write timeouts, typed errors
//! ([`ClientError::TimedOut`] instead of a raw `WouldBlock`), and opt-in
//! retries with deterministic jittered exponential backoff
//! ([`Client::request_idempotent`]), riding on the same codec as
//! [`Client::request`].
//!
//! Retries are **not** applied by [`Client::request`]: a query submission
//! is only safely retryable when the caller knows it is idempotent (the
//! protocol's queries are — results are deterministic and cached — but
//! the choice stays with the caller).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mwsj_net::frame::encode_frame;
use mwsj_net::FRAME_MAGIC;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// A connect, read or write exceeded its configured timeout.
    TimedOut(String),
    /// The server closed the connection before responding.
    Disconnected,
    /// Any other I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::TimedOut(what) => write!(f, "timed out: {what}"),
            ClientError::Disconnected => {
                write!(f, "server closed the connection before responding")
            }
            ClientError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl ClientError {
    /// Classifies an I/O error from operation `what`.
    fn from_io(what: &str, e: std::io::Error) -> ClientError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                ClientError::TimedOut(what.to_string())
            }
            std::io::ErrorKind::UnexpectedEof => ClientError::Disconnected,
            _ => ClientError::Io(e),
        }
    }
}

/// Which wire protocol the client speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// Line-delimited JSON — the original protocol; every server
    /// accepts it, so it is the default.
    #[default]
    Line,
    /// Length-prefixed binary frames.
    Binary,
}

/// Client-side resilience knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read timeout while waiting for a response line.
    pub read_timeout: Duration,
    /// Per-write timeout while sending a request line.
    pub write_timeout: Duration,
    /// Extra attempts [`Client::request_idempotent`] makes after the
    /// first failure (0 = no retries).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt, plus
    /// deterministic jitter in `[0, backoff/2)`.
    pub backoff: Duration,
    /// Seed for the jitter stream, so retry timing is reproducible.
    pub seed: u64,
    /// The wire protocol to speak.
    pub proto: Proto,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            retries: 0,
            backoff: Duration::from_millis(50),
            seed: 0,
            proto: Proto::default(),
        }
    }
}

impl ClientConfig {
    /// Sets the retry budget and base backoff.
    #[must_use]
    pub fn with_retries(mut self, retries: u32, backoff: Duration) -> Self {
        self.retries = retries;
        self.backoff = backoff;
        self
    }

    /// Sets the read timeout.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Seeds the deterministic jitter stream.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the wire protocol.
    #[must_use]
    pub fn with_proto(mut self, proto: Proto) -> Self {
        self.proto = proto;
        self
    }
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    addr: String,
    config: ClientConfig,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// xorshift state for backoff jitter (derived from the seed).
    rng: u64,
}

impl Client {
    /// Connects to a running server with the default timeouts.
    ///
    /// # Errors
    /// [`ClientError::TimedOut`] on connect timeout, otherwise the
    /// underlying I/O failure.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::with_config(addr, ClientConfig::default())
    }

    /// Connects with explicit resilience settings.
    ///
    /// # Errors
    /// [`ClientError::TimedOut`] on connect timeout, otherwise the
    /// underlying I/O failure.
    pub fn with_config(addr: &str, config: ClientConfig) -> Result<Client, ClientError> {
        let (stream, reader) = Client::open(addr, &config)?;
        let mut rng = config.seed ^ 0x9E37_79B9_7F4A_7C15;
        if rng == 0 {
            rng = 1;
        }
        Ok(Client {
            addr: addr.to_string(),
            config,
            stream,
            reader,
            rng,
        })
    }

    /// Opens one fresh connection per the config's timeouts.
    fn open(
        addr: &str,
        config: &ClientConfig,
    ) -> Result<(TcpStream, BufReader<TcpStream>), ClientError> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::from_io("resolve", e))?;
        let mut last: Option<std::io::Error> = None;
        let mut stream: Option<TcpStream> = None;
        for sock in resolved {
            match TcpStream::connect_timeout(&sock, config.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let stream = match (stream, last) {
            (Some(s), _) => s,
            (None, Some(e)) => return Err(ClientError::from_io("connect", e)),
            (None, None) => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    format!("`{addr}` resolved to no addresses"),
                )))
            }
        };
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(config.read_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(config.write_timeout))
            .map_err(ClientError::Io)?;
        let reader = BufReader::new(stream.try_clone().map_err(ClientError::Io)?);
        Ok((stream, reader))
    }

    /// Sends one request and reads one response, over the configured wire
    /// protocol. No retries: see [`Client::request_idempotent`] for the
    /// retrying variant.
    ///
    /// # Errors
    /// [`ClientError::TimedOut`] when a read or write exceeds its
    /// timeout, [`ClientError::Disconnected`] on EOF before a complete
    /// response, otherwise the underlying I/O failure.
    pub fn request(&mut self, line: &str) -> Result<String, ClientError> {
        match self.config.proto {
            Proto::Line => self.request_over_line(line),
            Proto::Binary => self.request_over_binary(line),
        }
    }

    /// The line-JSON leg of the codec: request line out, response line
    /// back. A response cut short before its terminating newline (a torn
    /// write from a dying server) reports [`ClientError::Disconnected`],
    /// never a truncated payload.
    fn request_over_line(&mut self, line: &str) -> Result<String, ClientError> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| ClientError::from_io("write request", e))?;
        if !line.ends_with('\n') {
            self.stream
                .write_all(b"\n")
                .map_err(|e| ClientError::from_io("write request", e))?;
        }
        self.stream
            .flush()
            .map_err(|e| ClientError::from_io("write request", e))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| ClientError::from_io("read response", e))?;
        if n == 0 || !response.ends_with('\n') {
            return Err(ClientError::Disconnected);
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// The binary leg of the codec: one frame out, one frame back.
    fn request_over_binary(&mut self, line: &str) -> Result<String, ClientError> {
        let mut wire = Vec::with_capacity(line.len() + 5);
        encode_frame(line.trim_end().as_bytes(), &mut wire);
        self.stream
            .write_all(&wire)
            .map_err(|e| ClientError::from_io("write request", e))?;
        self.stream
            .flush()
            .map_err(|e| ClientError::from_io("write request", e))?;
        let mut magic = [0u8; 1];
        self.reader
            .read_exact(&mut magic)
            .map_err(|e| ClientError::from_io("read response", e))?;
        if magic[0] != FRAME_MAGIC {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected a binary frame, got first byte 0x{:02x}", magic[0]),
            )));
        }
        let mut len_bytes = [0u8; 4];
        self.reader
            .read_exact(&mut len_bytes)
            .map_err(|e| ClientError::from_io("read response", e))?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        let mut payload = vec![0u8; len];
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| ClientError::from_io("read response", e))?;
        String::from_utf8(payload).map_err(|_| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "binary response payload is not UTF-8",
            ))
        })
    }

    /// Sends an *idempotent* request, retrying with a fresh connection
    /// after each failure: up to [`ClientConfig::retries`] extra
    /// attempts, jittered exponential backoff between them.
    ///
    /// Only use this for requests that are safe to re-execute (the
    /// protocol's queries and `stats` are; re-sending `shutdown` is
    /// harmless but pointless).
    ///
    /// # Errors
    /// The last attempt's error.
    pub fn request_idempotent(&mut self, line: &str) -> Result<String, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.request(line) {
                Ok(response) => return Ok(response),
                Err(e) => e,
            };
            attempt += 1;
            if attempt > self.config.retries {
                return Err(err);
            }
            let mut pause = self
                .config
                .backoff
                .saturating_mul(1u32 << (attempt - 1).min(16));
            let half = (pause / 2).as_nanos() as u64;
            if half > 0 {
                pause += Duration::from_nanos(self.next_rand() % half);
            }
            std::thread::sleep(pause);
            // The failed connection may be wedged; replace it. A failed
            // reconnect leaves the dead socket in place, so the next
            // attempt fails fast and consumes the next retry.
            if let Ok((stream, reader)) = Client::open(&self.addr, &self.config) {
                self.stream = stream;
                self.reader = reader;
            }
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn read_request_line(stream: &TcpStream) -> String {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).ok();
        line
    }

    #[test]
    fn binary_proto_round_trips_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut header = [0u8; 5];
            s.read_exact(&mut header).unwrap();
            assert_eq!(header[0], FRAME_MAGIC);
            let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
            let mut payload = vec![0u8; len];
            s.read_exact(&mut payload).unwrap();
            assert_eq!(payload, b"{\"op\":\"stats\"}");
            let mut out = Vec::new();
            encode_frame(b"{\"ok\":true}", &mut out);
            s.write_all(&out).unwrap();
        });
        let config = ClientConfig::default().with_proto(Proto::Binary);
        let mut client = Client::with_config(&addr, config).unwrap();
        let response = client.request("{\"op\":\"stats\"}").unwrap();
        assert_eq!(response, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn torn_line_response_is_disconnected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_request_line(&s);
            // A torn write: half a response, no newline, then the door.
            s.write_all(b"{\"ok\":true,\"tuple_co").unwrap();
        });
        let mut client = Client::connect(&addr).unwrap();
        let err = client.request("{\"op\":\"stats\"}").unwrap_err();
        assert!(matches!(err, ClientError::Disconnected), "got {err:?}");
        server.join().unwrap();
    }

    #[test]
    fn io_errors_classify_to_typed_variants() {
        let timed = std::io::Error::new(std::io::ErrorKind::TimedOut, "t");
        assert!(matches!(
            ClientError::from_io("read", timed),
            ClientError::TimedOut(_)
        ));
        let blocked = std::io::Error::new(std::io::ErrorKind::WouldBlock, "b");
        assert!(matches!(
            ClientError::from_io("read", blocked),
            ClientError::TimedOut(_)
        ));
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "e");
        assert!(matches!(
            ClientError::from_io("read", eof),
            ClientError::Disconnected
        ));
        let reset = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "r");
        assert!(matches!(
            ClientError::from_io("read", reset),
            ClientError::Io(_)
        ));
    }

    #[test]
    fn read_timeout_is_typed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accept but never respond.
        let silent = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            read_request_line(&s);
            std::thread::sleep(Duration::from_millis(400));
        });
        let config = ClientConfig::default().with_read_timeout(Duration::from_millis(50));
        let mut client = Client::with_config(&addr, config).unwrap();
        let err = client.request("{\"op\":\"stats\"}").unwrap_err();
        assert!(matches!(err, ClientError::TimedOut(_)), "got {err:?}");
        silent.join().unwrap();
    }

    #[test]
    fn idempotent_retry_reconnects_after_disconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First connection: slam the door. Second: answer.
            let (s, _) = listener.accept().unwrap();
            drop(s);
            let (mut s, _) = listener.accept().unwrap();
            read_request_line(&s);
            s.write_all(b"{\"ok\":true}\n").unwrap();
        });
        let config = ClientConfig::default()
            .with_retries(2, Duration::from_millis(5))
            .with_seed(7);
        let mut client = Client::with_config(&addr, config).unwrap();
        let response = client.request_idempotent("{\"op\":\"stats\"}").unwrap();
        assert_eq!(response, "{\"ok\":true}");
        server.join().unwrap();
    }
}
