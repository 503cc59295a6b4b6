//! The line-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line. Four operations:
//!
//! ```text
//! {"op":"query","query":"R1 ov R2","data":{"R1":"synthetic:n=100,seed=1","R2":"..."},
//!  "algorithm":"auto","count_only":false,"deadline_ms":2000,"priority":0,"share":1}
//! {"op":"explain","query":"R1 ov R2","data":{"R1":"synthetic:n=100,seed=1","R2":"..."}}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! `algorithm` defaults to `"auto"`: the cost-based optimizer picks the
//! concrete algorithm, and the response reports the choice in its
//! `"algorithm"` field. `explain` returns the costed plan without
//! executing it.
//!
//! Successful query responses carry `"ok":true`, the (sorted) result
//! tuples in the *requester's* relation order, a `cached` flag, the
//! combined input fingerprint and the per-job logical counters; failures
//! carry `"ok":false` plus a typed error code from [`ErrorCode`].

use std::time::Duration;

use mwsj_core::mapreduce::json_escape;
use mwsj_core::Algorithm;

use crate::cache::CachedResult;
use crate::json::Json;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a join query.
    Query(QueryRequest),
    /// Return the costed plan for a query without executing it.
    Explain(ExplainRequest),
    /// Report service statistics.
    Stats,
    /// Stop accepting connections and shut the service down.
    Shutdown,
}

/// The payload of an `explain` operation: the query and its dataset
/// bindings, as in a `query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRequest {
    /// Query text, in the grammar of [`mwsj_query::Query::parse`].
    pub query: String,
    /// `(relation name, dataset source spec)` bindings.
    pub data: Vec<(String, String)>,
}

/// The payload of a `query` operation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Query text, in the grammar of [`mwsj_query::Query::parse`].
    pub query: String,
    /// `(relation name, dataset source spec)` bindings.
    pub data: Vec<(String, String)>,
    /// Which join algorithm runs the query.
    pub algorithm: Algorithm,
    /// Count tuples without materializing (or returning) them.
    pub count_only: bool,
    /// Wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Slot-scheduler priority.
    pub priority: i32,
    /// Slot-scheduler fair-share weight.
    pub share: u32,
}

/// Typed error codes, so clients can distinguish load shedding from bad
/// requests without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed (syntax, unknown op, missing binding,
    /// out-of-space dataset).
    BadRequest,
    /// Admission control rejected the request: the service is at its
    /// in-flight and queue limits. Retry later.
    Overloaded,
    /// The run was cancelled (client disconnect).
    Cancelled,
    /// The run exceeded its deadline.
    DeadlineExceeded,
    /// The join itself failed (task attempts exhausted under faults).
    JoinFailed,
}

impl ErrorCode {
    /// The wire name of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::JoinFailed => "join_failed",
        }
    }
}

/// Parses the `query` text and `data` bindings shared by the `query` and
/// `explain` operations.
fn query_and_data(doc: &Json) -> Result<(String, Vec<(String, String)>), String> {
    let query = doc
        .get("query")
        .and_then(Json::as_str)
        .ok_or("missing string field `query`")?
        .to_string();
    let data = doc
        .get("data")
        .and_then(Json::as_obj)
        .ok_or("missing object field `data`")?
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_string()))
                .ok_or_else(|| format!("data binding `{k}` must be a string source"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((query, data))
}

fn num_field(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

/// Parses one request line.
///
/// # Errors
/// A human-readable message; the server wraps it as a `bad_request`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = crate::json::parse(line.trim())?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    match op {
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "explain" => {
            let (query, data) = query_and_data(&doc)?;
            Ok(Request::Explain(ExplainRequest { query, data }))
        }
        "query" => {
            let (query, data) = query_and_data(&doc)?;
            let algorithm = match doc.get("algorithm").and_then(Json::as_str) {
                Some(name) => name.parse::<Algorithm>()?,
                None => Algorithm::Auto,
            };
            let count_only = doc
                .get("count_only")
                .map(|v| v.as_bool().ok_or("`count_only` must be a boolean"))
                .transpose()?
                .unwrap_or(false);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let deadline_ms = num_field(&doc, "deadline_ms")?.map(|v| v.max(0.0) as u64);
            #[allow(clippy::cast_possible_truncation)]
            let priority = num_field(&doc, "priority")?.unwrap_or(0.0) as i32;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let share = num_field(&doc, "share")?.unwrap_or(1.0).max(1.0) as u32;
            Ok(Request::Query(QueryRequest {
                query,
                data,
                algorithm,
                count_only,
                deadline_ms,
                priority,
                share,
            }))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Renders a typed error response line.
#[must_use]
pub fn error_response(code: ErrorCode, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"message\":\"{}\"}}",
        code.as_str(),
        json_escape(message)
    )
}

/// Decimal digits of `id`.
fn decimal_len(id: u32) -> usize {
    id.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Appends `id` in decimal, formatted on the stack.
fn push_u32(out: &mut Vec<u8>, mut id: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (id % 10) as u8;
        id /= 10;
        if id == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Upper bound on the bytes [`push_tuples`] writes for `tuples` of
/// `arity` ids: per id the digits of the widest one and a separator, per
/// tuple its brackets, plus the outer pair.
fn tuples_capacity(tuples: &[Vec<u32>], arity: usize) -> usize {
    let max_id = tuples.iter().flatten().copied().max().unwrap_or(0);
    tuples.len() * (arity * (decimal_len(max_id) + 1) + 2) + 2
}

/// Appends tuples as a JSON array of id arrays — the one writer behind
/// [`tuples_json`] and [`query_response`].
fn push_tuples<'a>(out: &mut Vec<u8>, tuples: impl Iterator<Item = &'a [u32]>) {
    out.push(b'[');
    for (i, t) in tuples.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        for (j, &id) in t.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            push_u32(out, id);
        }
        out.push(b']');
    }
    out.push(b']');
}

/// Renders result tuples as a JSON array of id arrays.
#[must_use]
pub fn tuples_json(tuples: &[Vec<u32>]) -> String {
    let arity = tuples.first().map_or(0, Vec::len);
    let mut out = Vec::with_capacity(tuples_capacity(tuples, arity));
    push_tuples(&mut out, tuples.iter().map(Vec::as_slice));
    String::from_utf8(out).expect("digits and punctuation are ASCII")
}

/// Renders an `ok` query response into one pre-sized buffer: the cached
/// tuples (sorted, ids per *canonical* position) come out sorted in the
/// *requester's* relation order, where requester position `i` reads
/// canonical position `perm[i]`. An identity `perm` streams the cached
/// tuples as they are; any other permutes them into one flat id array
/// and sorts row indices over it — no per-tuple allocation either way.
#[must_use]
pub(crate) fn query_response(
    cached: bool,
    result: &CachedResult,
    perm: &[usize],
    fingerprint: u64,
    wall: Duration,
) -> String {
    use std::io::Write as _;

    let rows = result.tuples.len();
    let arity = perm.len();
    let mut out = Vec::with_capacity(
        tuples_capacity(&result.tuples, arity)
            + result.counters.len()
            + result.algorithm.len()
            + 160,
    );
    write!(
        out,
        "{{\"ok\":true,\"cached\":{cached},\"algorithm\":\"{}\",\"tuple_count\":{},\"tuples\":",
        result.algorithm, result.tuple_count,
    )
    .expect("writing to a Vec cannot fail");
    if perm.iter().enumerate().all(|(i, &j)| i == j) {
        debug_assert!(result.tuples.windows(2).all(|w| w[0] < w[1]));
        push_tuples(&mut out, result.tuples.iter().map(Vec::as_slice));
    } else {
        let mut flat: Vec<u32> = Vec::with_capacity(rows * arity);
        for t in &result.tuples {
            flat.extend(perm.iter().map(|&j| t[j]));
        }
        let row = |r: usize| &flat[r * arity..(r + 1) * arity];
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        push_tuples(&mut out, order.iter().map(|&r| row(r)));
    }
    write!(
        out,
        ",\"counters\":{},\"wall_ms\":{:.3},\"fingerprint\":\"{fingerprint:016x}\"}}",
        result.counters,
        wall.as_secs_f64() * 1e3,
    )
    .expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("built from UTF-8 parts")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_query_request() {
        let r = parse_request(
            r#"{"op":"query","query":"A ov B","data":{"A":"x.csv","B":"synthetic:n=5"},
               "algorithm":"allrep","count_only":true,"deadline_ms":250,"priority":3,"share":4}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap();
        let Request::Query(q) = r else {
            panic!("expected query")
        };
        assert_eq!(q.query, "A ov B");
        assert_eq!(q.data.len(), 2);
        assert_eq!(q.algorithm, Algorithm::AllReplicate);
        assert!(q.count_only);
        assert_eq!(q.deadline_ms, Some(250));
        assert_eq!(q.priority, 3);
        assert_eq!(q.share, 4);
    }

    #[test]
    fn defaults_are_applied() {
        let Request::Query(q) =
            parse_request(r#"{"op":"query","query":"A ov B","data":{"A":"x","B":"y"}}"#).unwrap()
        else {
            panic!("expected query")
        };
        assert_eq!(q.algorithm, Algorithm::Auto);
        assert!(!q.count_only);
        assert_eq!(q.deadline_ms, None);
        assert_eq!(q.priority, 0);
        assert_eq!(q.share, 1);
    }

    #[test]
    fn explain_parses_query_and_bindings() {
        let r = parse_request(
            r#"{"op":"explain","query":"A ov B","data":{"A":"x.csv","B":"synthetic:n=5"}}"#,
        )
        .unwrap();
        let Request::Explain(e) = r else {
            panic!("expected explain")
        };
        assert_eq!(e.query, "A ov B");
        assert_eq!(e.data.len(), 2);
        assert!(parse_request(r#"{"op":"explain","query":"A ov B"}"#).is_err());
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn bad_requests_report() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"nope"}"#).is_err());
        assert!(parse_request(r#"{"op":"query","query":"A ov B"}"#).is_err());
        assert!(
            parse_request(r#"{"op":"query","query":"A ov B","data":{"A":1,"B":"y"}}"#).is_err()
        );
    }

    #[test]
    fn wire_algorithm_names_reach_the_parser() {
        // Parse/format logic lives in mwsj-core; the protocol only relays
        // it — every wire name must round-trip through a request line.
        for a in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let line = format!(
                r#"{{"op":"query","query":"A ov B","data":{{"A":"x","B":"y"}},"algorithm":"{a}"}}"#
            );
            let Request::Query(q) = parse_request(&line).unwrap() else {
                panic!("expected query")
            };
            assert_eq!(q.algorithm, a);
        }
        assert!(parse_request(
            r#"{"op":"query","query":"A ov B","data":{"A":"x","B":"y"},"algorithm":"quantum"}"#
        )
        .is_err());
    }

    #[test]
    fn error_response_is_valid_json() {
        let line = error_response(ErrorCode::Overloaded, "queue full: 4 waiting");
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("error").unwrap().as_str(), Some("overloaded"));
    }

    #[test]
    fn tuples_render_compactly() {
        assert_eq!(tuples_json(&[]), "[]");
        assert_eq!(tuples_json(&[vec![7]]), "[[7]]");
        assert_eq!(
            tuples_json(&[vec![1, 2, 3], vec![4, 5, 6]]),
            "[[1,2,3],[4,5,6]]"
        );
        assert_eq!(
            tuples_json(&[vec![0, u32::MAX], vec![u32::MAX, 10]]),
            "[[0,4294967295],[4294967295,10]]"
        );
    }

    /// The pre-rewrite `tuples_json`: a `String` per id.
    fn tuples_json_oracle(tuples: &[Vec<u32>]) -> String {
        let mut out = String::from("[");
        for (i, t) in tuples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, id) in t.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&id.to_string());
            }
            out.push(']');
        }
        out.push(']');
        out
    }

    /// The pre-rewrite response renderer: clone every tuple permuted,
    /// sort the clones, render, splice with `format!`.
    fn query_response_oracle(
        cached: bool,
        result: &CachedResult,
        perm: &[usize],
        fingerprint: u64,
        wall: Duration,
    ) -> String {
        let mut tuples: Vec<Vec<u32>> = result
            .tuples
            .iter()
            .map(|t| perm.iter().map(|&j| t[j]).collect())
            .collect();
        tuples.sort_unstable();
        format!(
            "{{\"ok\":true,\"cached\":{cached},\"algorithm\":\"{}\",\"tuple_count\":{},\"tuples\":{},\"counters\":{},\"wall_ms\":{:.3},\"fingerprint\":\"{fingerprint:016x}\"}}",
            result.algorithm,
            result.tuple_count,
            tuples_json_oracle(&tuples),
            result.counters,
            wall.as_secs_f64() * 1e3,
        )
    }

    #[test]
    fn count_only_response_has_an_empty_tuple_array() {
        let result = CachedResult {
            tuples: Vec::new(),
            tuple_count: 12,
            counters: "[]".to_string(),
            algorithm: "crep-l".to_string(),
        };
        let wall = Duration::from_micros(1500);
        assert_eq!(
            query_response(true, &result, &[1, 0], 0xAB, wall),
            "{\"ok\":true,\"cached\":true,\"algorithm\":\"crep-l\",\"tuple_count\":12,\"tuples\":[],\
             \"counters\":[],\"wall_ms\":1.500,\"fingerprint\":\"00000000000000ab\"}"
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The in-place renderer's bytes equal the old
            /// permute-clone-sort-`tuples_json` pipeline for any arity,
            /// tuple set and requester permutation (identity included).
            #[test]
            fn renderer_matches_the_clone_and_sort_pipeline(
                arity in 2usize..6,
                ids in proptest::collection::vec((0u32..40, 0u32..4), 0..200),
                perm_keys in proptest::collection::vec(0u64..3, 5..6),
                cached in proptest::bool::ANY,
                wall_us in 0u64..10_000_000,
            ) {
                // Small ids so prefixes tie, a quarter pushed to the top
                // of the range so widths vary up to ten digits.
                let ids: Vec<u32> = ids
                    .into_iter()
                    .map(|(id, top)| if top == 0 { u32::MAX - id } else { id })
                    .collect();
                let mut tuples: Vec<Vec<u32>> =
                    ids.chunks_exact(arity).map(<[u32]>::to_vec).collect();
                tuples.sort_unstable();
                tuples.dedup();
                // Keys in 0..3 tie often, so the (stable) argsort yields
                // the identity about as often as any other permutation.
                let mut perm: Vec<usize> = (0..arity).collect();
                perm.sort_by_key(|&i| perm_keys[i]);
                let result = CachedResult {
                    tuple_count: tuples.len() as u64,
                    tuples,
                    counters: "[{\"job\":\"j\"}]".to_string(),
                    algorithm: "cascade".to_string(),
                };
                let wall = Duration::from_micros(wall_us);
                prop_assert_eq!(
                    query_response(cached, &result, &perm, wall_us, wall),
                    query_response_oracle(cached, &result, &perm, wall_us, wall)
                );
                prop_assert_eq!(
                    tuples_json(&result.tuples),
                    tuples_json_oracle(&result.tuples)
                );
            }
        }
    }
}
