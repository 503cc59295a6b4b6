//! The workspace's one JSON reader: a minimal recursive-descent parser
//! into a value tree.
//!
//! The offline `serde` is a no-op shim, so the serving tier's wire
//! protocol parses its requests with this reader and
//! [`validate_json`](crate::validate_json) (the trace exporters' checker,
//! `mwsj trace-check`) is this parser with the tree dropped. It reads
//! input from outside the program, so it accepts exactly the JSON grammar
//! — numbers, escapes and control bytes included — and bounds its own
//! recursion. Writing stays hand-rolled (see [`json_escape`](crate::json_escape)).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included; the protocol range fits in `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as key-value pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object pairs, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting the parser accepts. Deeper documents get a
/// typed error instead of exhausting the thread's stack — a network peer
/// must not choose our recursion depth.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON document.
///
/// # Errors
/// A message naming the byte offset of the first syntax error, or a
/// depth error for documents nested beyond [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth >= MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let out = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                out
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Consumes a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?` — what `f64::from_str`
    /// accepts beyond that (`1.`, `-.5`, `1.e3`) is not JSON.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut ok = self.digits();
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            ok = self.digits();
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse() {
            Ok(n) if ok => Ok(Json::Num(n)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8".into());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not needed by the protocol;
                            // lone surrogates map to the replacement char.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at byte {}", self.pos));
                }
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(
            r#"{"op":"query","query":"R1 ov R2","data":{"R1":"a.csv","R2":"b.csv"},"count_only":true,"deadline_ms":1500,"priority":-2}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("query"));
        assert_eq!(
            v.get("data").unwrap().get("R2").unwrap().as_str(),
            Some("b.csv")
        );
        assert_eq!(v.get("count_only").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("deadline_ms").unwrap().as_f64(), Some(1500.0));
        assert_eq!(v.get("priority").unwrap().as_f64(), Some(-2.0));
    }

    #[test]
    fn parses_nested_arrays_and_escapes() {
        let v = parse(r#"{"tuples":[[1,2],[3,4]],"s":"a\"b\\c\ndA"}"#).unwrap();
        let rows = v.get("tuples").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].as_arr().unwrap()[0].as_f64(), Some(3.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,", "tru", "\"open", "{}x", "nan"] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        // What `f64::from_str` and `from_str_radix` would let through.
        for bad in ["1.", "-.5", "1.e3", "1e", "-", "\"a\tb\"", "\"\\u+1ab\""] {
            assert!(parse(bad).is_err(), "`{bad}` is not JSON");
        }
    }

    #[test]
    fn roundtrips_escaped_output() {
        let nasty = "quote\" slash\\ nl\n tab\t";
        let doc = format!("{{\"k\":\"{}\"}}", crate::json_escape(nasty));
        assert_eq!(parse(&doc).unwrap().get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn nesting_is_bounded_not_stack_bounded() {
        // Exactly at the limit: fine.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // One past the limit: a typed error, not a deeper recursion.
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
        // Pathologically deep input from the network must not overflow
        // the stack (this is ~100k frames without the depth guard).
        let hostile = "[".repeat(100_000);
        assert!(parse(&hostile).is_err());
        let hostile_obj = "{\"a\":".repeat(100_000);
        assert!(parse(&hostile_obj).is_err());
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        /// A structurally valid single-line document built from parts the
        /// strategy controls, always spelled as an object (so every
        /// strict prefix is invalid — handy for the truncation property).
        fn doc(nums: &[i32], flag: bool, bytes: &[u8]) -> String {
            let arr = nums
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let s = String::from_utf8_lossy(bytes);
            format!(
                "{{\"a\":[{arr}],\"b\":{flag},\"s\":\"{}\",\"n\":null}}",
                crate::json_escape(&s)
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..255, 0..64)) {
                // Any outcome is fine; reaching here at all is the property.
                let _ = parse(&String::from_utf8_lossy(&bytes));
            }

            #[test]
            fn valid_documents_roundtrip(
                nums in proptest::collection::vec(-1_000_000i32..1_000_000, 0..8),
                flag in proptest::bool::ANY,
                bytes in proptest::collection::vec(0u8..255, 0..24),
            ) {
                let text = doc(&nums, flag, &bytes);
                let v = parse(&text).expect("generated document must parse");
                let arr = v.get("a").unwrap().as_arr().unwrap();
                prop_assert_eq!(arr.len(), nums.len());
                for (got, want) in arr.iter().zip(&nums) {
                    prop_assert_eq!(got.as_f64(), Some(f64::from(*want)));
                }
                prop_assert_eq!(v.get("b").unwrap().as_bool(), Some(flag));
                let s = String::from_utf8_lossy(&bytes).to_string();
                prop_assert_eq!(v.get("s").unwrap().as_str(), Some(s.as_str()));
                prop_assert_eq!(v.get("n"), Some(&Json::Null));
            }

            #[test]
            fn truncation_gives_typed_errors_not_panics(
                nums in proptest::collection::vec(-1_000i32..1_000, 0..6),
                cut in 0usize..256,
            ) {
                let text = doc(&nums, true, b"tail");
                let cut = cut % text.len(); // strict prefix
                let prefix: String = text.chars().take(cut).collect();
                prop_assert!(parse(&prefix).is_err());
            }
        }
    }
}
