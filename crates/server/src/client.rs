//! A blocking client for both wire protocols.
//!
//! One TCP connection, one request out, one response back — over either
//! line-delimited JSON (the default) or the length-prefixed binary
//! framing (see [`mwsj_net::frame`]), selected by [`Proto`]. The server
//! tells the two apart by the first byte of the connection, so there is
//! nothing to negotiate: the client speaks the protocol it was configured
//! with.
//!
//! Also here: explicit connect/read/write timeouts and typed errors
//! ([`ClientError::TimedOut`] instead of a raw `WouldBlock`). The client
//! never retries: a caller that wants another attempt opens a fresh
//! connection.

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

/// Client connection settings.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read timeout while waiting for a response line.
    pub read_timeout: Duration,
    /// Per-write timeout while sending a request line.
    pub write_timeout: Duration,
    /// The wire protocol to speak.
    pub proto: Proto,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            proto: Proto::default(),
        }
    }
}

impl ClientConfig {
    /// Sets the read timeout.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
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
    proto: Proto,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
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

    /// Connects with explicit timeouts and wire protocol.
    ///
    /// # Errors
    /// [`ClientError::TimedOut`] on connect timeout, otherwise the
    /// underlying I/O failure.
    pub fn with_config(addr: &str, config: ClientConfig) -> Result<Client, ClientError> {
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
        Ok(Client {
            proto: config.proto,
            stream,
            reader,
        })
    }

    /// Sends one request and reads one response, over the configured wire
    /// protocol.
    ///
    /// # Errors
    /// [`ClientError::TimedOut`] when a read or write exceeds its
    /// timeout, [`ClientError::Disconnected`] on EOF before a complete
    /// response, otherwise the underlying I/O failure.
    pub fn request(&mut self, line: &str) -> Result<String, ClientError> {
        match self.proto {
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
}
