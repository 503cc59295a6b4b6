//! Wire-level tests of the serving tier's event loop: request
//! pipelining (many requests in flight on one connection, responses in
//! request order), the sniffed binary framing, and the protocol
//! edge cases — oversize frames and half-closed connections with a
//! buffered remnant.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use mwsj_net::frame::encode_frame;
use mwsj_net::{FRAME_HEADER, FRAME_MAGIC};
use mwsj_server::json::{self, Json};
use mwsj_server::{Client, ClientConfig, Proto, Server, ServerConfig};

const A: &str = "synthetic:n=800,seed=11,extent=5000,lmax=300";
const B: &str = "synthetic:n=800,seed=12,extent=5000,lmax=300";

fn start(config: ServerConfig) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn stop(addr: &str, handle: thread::JoinHandle<()>) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    c.request("{\"op\":\"shutdown\"}").expect("shutdown");
    handle.join().expect("server thread");
}

fn query_line(query: &str, data: &[(&str, &str)], extra: &str) -> String {
    let bindings: Vec<String> = data
        .iter()
        .map(|(name, spec)| format!("\"{name}\":\"{spec}\""))
        .collect();
    format!(
        "{{\"op\":\"query\",\"query\":\"{query}\",\"data\":{{{}}}{extra}}}",
        bindings.join(",")
    )
}

/// Reads one binary frame off a raw stream.
fn read_frame(reader: &mut impl Read) -> String {
    let mut header = [0u8; FRAME_HEADER];
    reader.read_exact(&mut header).expect("frame header");
    assert_eq!(header[0], FRAME_MAGIC, "response must be framed");
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).expect("frame payload");
    String::from_utf8(payload).expect("utf-8 payload")
}

/// K pipelined line-JSON requests written back-to-back arrive as K
/// responses in request order, even though they execute on concurrent
/// worker threads.
#[test]
fn pipelined_line_requests_answer_in_order() {
    let (addr, h) = start(ServerConfig::default().with_slots(4));

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).ok();
    // Heterogeneous batch so out-of-order answers are distinguishable:
    // a malformed request, a query, stats, then the same query (which
    // may hit the cache). One write, no reads until all are sent.
    let query = query_line("A ov B", &[("A", A), ("B", B)], "");
    let batch = format!("this is not json\n{query}\n{{\"op\":\"stats\"}}\n{query}\n");
    stream.write_all(batch.as_bytes()).expect("write batch");

    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        assert!(line.ends_with('\n'), "complete response line");
        lines.push(line.trim_end().to_string());
    }
    let docs: Vec<Json> = lines
        .iter()
        .map(|l| json::parse(l).expect("response json"))
        .collect();
    assert_eq!(
        docs[0].get("error").and_then(Json::as_str),
        Some("bad_request"),
        "first response answers the malformed first request: {}",
        lines[0]
    );
    assert_eq!(docs[1].get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        docs[1].get("tuple_count").is_some(),
        "second response is the query's: {}",
        lines[1]
    );
    assert!(
        docs[2].get("queries").is_some(),
        "third response is stats: {}",
        lines[2]
    );
    assert_eq!(
        docs[3].get("tuple_count").and_then(Json::as_f64),
        docs[1].get("tuple_count").and_then(Json::as_f64),
        "fourth response repeats the query"
    );
    stop(&addr, h);
}

/// The same pipelining guarantee over the binary framing: K frames
/// written back-to-back come back as K frames in order.
#[test]
fn pipelined_binary_frames_answer_in_order() {
    let (addr, h) = start(ServerConfig::default().with_slots(4));

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).ok();
    let query = query_line("A ov B", &[("A", A), ("B", B)], "");
    let requests: [&str; 3] = [&query, "{\"op\":\"stats\"}", &query];
    let mut wire = Vec::new();
    for r in requests {
        encode_frame(r.as_bytes(), &mut wire);
    }
    stream.write_all(&wire).expect("write frames");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let first = json::parse(&read_frame(&mut reader)).expect("json");
    let second = json::parse(&read_frame(&mut reader)).expect("json");
    let third = json::parse(&read_frame(&mut reader)).expect("json");
    assert!(first.get("tuple_count").is_some(), "query answer first");
    assert!(second.get("queries").is_some(), "stats answer second");
    assert_eq!(
        third.get("tuple_count").and_then(Json::as_f64),
        first.get("tuple_count").and_then(Json::as_f64),
        "query answer third"
    );
    stop(&addr, h);
}

/// A binary-proto client and a line-proto client get identical logical
/// results from one server.
#[test]
fn binary_and_line_clients_agree() {
    let (addr, h) = start(ServerConfig::default());
    let line = query_line("A ov B", &[("A", A), ("B", B)], "");

    let mut line_client = Client::connect(&addr).expect("line connect");
    let line_doc = json::parse(&line_client.request(&line).expect("line request")).expect("json");

    let mut bin_client =
        Client::with_config(&addr, ClientConfig::default().with_proto(Proto::Binary))
            .expect("binary connect");
    let bin_doc = json::parse(&bin_client.request(&line).expect("binary request")).expect("json");

    // A second request on the same binary connection still answers.
    let again = json::parse(&bin_client.request(&line).expect("binary again")).expect("json");

    for doc in [&bin_doc, &again] {
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("tuple_count").and_then(Json::as_f64),
            line_doc.get("tuple_count").and_then(Json::as_f64),
            "all protocols see the same result"
        );
        assert_eq!(
            doc.get("fingerprint").and_then(Json::as_str),
            line_doc.get("fingerprint").and_then(Json::as_str),
        );
    }
    stop(&addr, h);
}

/// A frame whose header declares a payload beyond the configured bound
/// is rejected with a typed `bad_request` — sequenced after any earlier
/// pipelined responses — and the connection is closed and counted as an
/// eviction.
#[test]
fn oversize_frame_gets_a_typed_error_then_the_door() {
    let (addr, h) = start(ServerConfig::default().with_max_request_line(256));

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).ok();
    // A good frame first, then a header declaring 1 MiB: the good
    // request's response must come back first, then the typed error.
    let mut wire = Vec::new();
    encode_frame(b"{\"op\":\"stats\"}", &mut wire);
    wire.push(FRAME_MAGIC);
    wire.extend_from_slice(&(1u32 << 20).to_le_bytes());
    stream.write_all(&wire).expect("write");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let stats = json::parse(&read_frame(&mut reader)).expect("stats json");
    assert!(stats.get("queries").is_some(), "pipelined stats first");
    let err = json::parse(&read_frame(&mut reader)).expect("error json");
    assert_eq!(err.get("error").and_then(Json::as_str), Some("bad_request"));
    assert!(
        err.get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("maximum")),
        "typed oversize message: {err:?}"
    );
    // Then EOF: the connection is closed.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "no bytes after the error");

    // The close was counted as an eviction.
    let mut c = Client::connect(&addr).expect("connect");
    let stats = json::parse(&c.request("{\"op\":\"stats\"}").expect("stats")).expect("json");
    assert!(
        stats.get("evicted").and_then(Json::as_f64) >= Some(1.0),
        "oversize close counts as eviction: {stats:?}"
    );
    stop(&addr, h);
}

/// A request without a trailing newline followed by a write-side close
/// (EOF) is still parsed, executed, and answered before the server
/// closes its side — no request is silently dropped at half-close.
#[test]
fn half_close_remnant_request_is_still_answered() {
    let (addr, h) = start(ServerConfig::default());

    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).ok();
    (&stream)
        .write_all(b"{\"op\":\"stats\"}")
        .expect("write remnant");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    let doc = json::parse(line.trim_end()).expect("json");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert!(doc.get("queries").is_some(), "remnant stats answered");
    stop(&addr, h);
}

/// Many concurrent connections each pipeline a burst; every connection
/// sees its own responses, in its own order.
#[test]
fn concurrent_pipelined_connections_stay_isolated() {
    let (addr, h) = start(ServerConfig::default().with_slots(4));

    thread::scope(|scope| {
        for _ in 0..16 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut stream = TcpStream::connect(&addr).expect("connect");
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
                let batch = "{\"op\":\"stats\"}\n".repeat(8);
                stream.write_all(batch.as_bytes()).expect("write batch");
                let mut reader = BufReader::new(stream);
                for _ in 0..8 {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("response line");
                    let doc = json::parse(line.trim_end()).expect("json");
                    assert!(doc.get("queries").is_some());
                }
            });
        }
    });
    stop(&addr, h);
}
