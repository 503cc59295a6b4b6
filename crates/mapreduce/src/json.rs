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
//!
//! The tree keeps only what it parsed, because a query reply can hold
//! ~100 k tuples: a value is 24 bytes, and a string, an array or an
//! object is one exact-size allocation. A string is copied once from the
//! input. A container's elements go onto one of two scratch stacks the
//! parser keeps for the whole document, and closing it moves its run off
//! the stack into its own slice, so no container carries growth slack.

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
    Str(Box<str>),
    /// An array.
    Arr(Box<[Json]>),
    /// An object, as key-value pairs in document order.
    Obj(Box<[(String, Json)]>),
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
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        values: Vec::new(),
        pairs: Vec::new(),
        scratch: String::new(),
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
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
    /// The elements parsed so far of every open array, innermost last.
    values: Vec<Json>,
    /// The members parsed so far of every open object, innermost last.
    pairs: Vec<(String, Json)>,
    /// Where a string with escapes is decoded before its one copy.
    scratch: String,
}

/// Moves the run `stack[base..]` into one exact-size slice. A run that is
/// the whole stack takes the stack's buffer instead (one shrink in place,
/// no copy), so a document's one large array is never copied; the stack
/// regrows if an enclosing container needs it again.
fn take_run<T>(stack: &mut Vec<T>, base: usize) -> Box<[T]> {
    if base == 0 {
        std::mem::take(stack).into_boxed_slice()
    } else {
        stack.drain(base..).collect()
    }
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
            Some(b'"') => Ok(Json::Str(self.string()?.into())),
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

    /// `-? int (. digits)? ([eE] [+-]? digits)?`, where `int` is `0` or
    /// digits without a leading zero — what `f64::from_str` accepts beyond
    /// that (`01`, `1.`, `-.5`, `1.e3`) is not JSON. An integer of at most
    /// 15 digits is below 2^53, so it is accumulated as a `u64` and
    /// converted exactly; anything else goes to `f64::from_str`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int = self.pos;
        let mut ok = self.digits() && (self.bytes[int] != b'0' || self.pos == int + 1);
        let int = int..self.pos;
        let mut integer = true;
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            ok = self.digits();
            integer = false;
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = self.digits();
            integer = false;
        }
        if ok && integer && int.len() <= 15 {
            let n = self.bytes[int]
                .iter()
                .fold(0, |n, &d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(Json::Num(if negative { -n } else { n }));
        }
        match self.text[start..self.pos].parse() {
            Ok(n) if ok => Ok(Json::Num(n)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }

    /// Skips bytes a string holds as they are: all but `"`, `\` and
    /// control bytes. Each stop byte is ASCII, so `pos` stays on a
    /// character boundary of `text`.
    fn skip_plain(&mut self) {
        while self
            .peek()
            .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            self.pos += 1;
        }
    }

    /// Reads a string: the input's own bytes when it has no escapes,
    /// else `scratch` with the escapes decoded. The caller copies the
    /// text once, at its exact size.
    fn string(&mut self) -> Result<&str, String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(&self.text[start..self.pos - 1]);
        }
        self.scratch.clear();
        self.scratch.push_str(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.scratch);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    self.scratch.push(c);
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at byte {}", self.pos));
                }
                Some(_) => {
                    let run = self.pos;
                    self.skip_plain();
                    self.scratch.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Decodes the escape whose letter is at `pos` and steps past it.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => return self.unicode_escape(),
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `uXXXX`, with `pos` at the `u`. A high surrogate followed by an
    /// escaped low one is one character (UTF-16's pair); any other
    /// surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self
            .hex4(self.pos + 1)
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 5;
        if (0xD800..=0xDBFF).contains(&unit) && self.bytes[self.pos..].starts_with(b"\\u") {
            if let Some(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 2) {
                self.pos += 6;
                let c = 0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(c).unwrap_or('\u{fffd}'));
            }
        }
        Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits at `at`, if there are four.
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.bytes.get(at..at + 4)?;
        digits
            .iter()
            .try_fold(0, |acc, &b| Some(acc << 4 | char::from(b).to_digit(16)?))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let base = self.pairs.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Box::default()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?.to_owned();
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(take_run(&mut self.pairs, base)));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let base = self.values.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Box::default()));
        }
        loop {
            self.skip_ws();
            let value = self.value()?;
            self.values.push(value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(take_run(&mut self.values, base)));
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
        // Leading zeros, which `f64::from_str` reads as decimals.
        for bad in ["01", "-01", "00", "-00", "007", "[0,01]", "01.5", "00e1"] {
            assert!(parse(bad).is_err(), "`{bad}` is not JSON");
        }
    }

    /// An integer token reads as `f64::from_str` reads it, bit for bit,
    /// on both sides of the 15-digit exact path (and see the property
    /// `integer_tokens_read_as_from_str`).
    #[test]
    fn integers_read_as_f64_from_str_reads_them() {
        for token in [
            "0",
            "-0",
            "7",
            "-7",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "-1000000000000000",
            "9007199254740993",
            "18446744073709551616",
        ] {
            reads_as_from_str(token).unwrap();
        }
    }

    /// Checks that `token` reads as `f64::from_str` reads it, bit for bit.
    fn reads_as_from_str(token: &str) -> Result<(), String> {
        let want = token.parse::<f64>().unwrap();
        match parse(token) {
            Ok(Json::Num(n)) if n.to_bits() == want.to_bits() => Ok(()),
            other => Err(format!("`{token}` gave {other:?}, not {want:?}")),
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

    #[test]
    fn a_value_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Json>(), 24);
    }

    #[test]
    fn a_surrogate_pair_is_one_character() {
        let v = parse(r#""\ud83d\ude00 \uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600} \u{1f600}"));
    }

    #[test]
    fn a_lone_surrogate_is_the_replacement_character() {
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""a\udfffb""#, "a\u{fffd}b"),
        ] {
            assert_eq!(parse(text).unwrap().as_str(), Some(want), "{text}");
        }
    }

    #[test]
    fn a_mismatched_surrogate_is_the_replacement_character() {
        for (text, want) in [
            // High then high: the second may still pair with what follows.
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(parse(text).unwrap().as_str(), Some(want), "{text}");
        }
        // What follows a high surrogate is still held to the grammar.
        for bad in [r#""\ud83d\uzzzz""#, r#""\ud83d\ude0""#, r#""\ud83d\q""#] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    fn arr<const N: usize>(items: [Json; N]) -> Json {
        Json::Arr(items.into())
    }

    fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.map(|(k, v)| (k.to_owned(), v)).into())
    }

    #[test]
    fn containers_take_their_runs_in_stack_order() {
        let n = Json::Num;
        let cases = [
            // The first row takes the whole stack; the outer array regrows it.
            ("[[1],[2,3]]", arr([arr([n(1.0)]), arr([n(2.0), n(3.0)])])),
            (
                r#"{"a":[1],"b":[2,3]}"#,
                obj([("a", arr([n(1.0)])), ("b", arr([n(2.0), n(3.0)]))]),
            ),
            (
                r#"{"o":[[],[[1],{}],[2]],"p":{"q":[{"r":[3]}]}}"#,
                obj([
                    (
                        "o",
                        arr([arr([]), arr([arr([n(1.0)]), obj([])]), arr([n(2.0)])]),
                    ),
                    ("p", obj([("q", arr([obj([("r", arr([n(3.0)]))])]))])),
                ]),
            ),
            ("[]", arr([])),
            ("{}", obj([])),
            (" [ {} , [ ] ] ", arr([obj([]), arr([])])),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).unwrap(), want, "{text}");
        }
    }

    /// Test-only writer. Keys go through `json_escape`; a string value's
    /// non-ASCII characters are written as `\u` escapes (a surrogate pair
    /// above U+FFFF), so a round trip covers both string paths.
    fn write(v: &Json, out: &mut String) {
        use std::fmt::Write as _;
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write!(out, "{x}").unwrap(),
            Json::Str(s) => {
                out.push('"');
                for c in crate::json_escape(s).chars() {
                    if c.is_ascii() {
                        out.push(c);
                    } else {
                        for unit in c.encode_utf16(&mut [0; 2]) {
                            write!(out, "\\u{unit:04x}").unwrap();
                        }
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, item)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write!(out, "\"{}\":", crate::json_escape(k)).unwrap();
                    write(item, out);
                }
                out.push('}');
            }
        }
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
            #![proptest_config(ProptestConfig::with_cases(2_000))]

            /// Integer tokens of 1 to 20 digits, either sign, read as
            /// `f64::from_str` reads them.
            #[test]
            fn integer_tokens_read_as_from_str(
                negative in proptest::bool::ANY,
                len in 1usize..21,
                lead in 1u64..10,
                rest in 0u64..u64::MAX,
            ) {
                let digits = format!("{lead}{rest:019}");
                let sign = if negative { "-" } else { "" };
                let token = format!("{sign}{}", &digits[..len]);
                prop_assert!(super::reads_as_from_str(&token).is_ok(), "{token}");
            }
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

        /// Characters that take each string path: plain ASCII, escaped
        /// ASCII, and UTF-8 of two, three and four bytes.
        const ALPHABET: [char; 8] = ['a', '"', '\\', '\n', '\u{1}', 'é', '€', '😀'];

        /// Up to four characters drawn from the bits of `code`.
        fn text(code: u32) -> String {
            (0..(code >> 8) % 5)
                .map(|i| ALPHABET[(code >> (12 + 3 * i)) as usize & 7])
                .collect()
        }

        /// A tree with containers nested at most `depth` deep, each node
        /// drawn from the next code (leaves once the codes run out). Half
        /// the nodes are containers of 0–4 members, so a fifth of those
        /// are empty and arrays of arrays, sibling arrays in one object
        /// and arrays in arrays in objects all occur.
        fn tree(codes: &mut impl Iterator<Item = u32>, depth: u32) -> Json {
            let code = codes.next().unwrap_or(0);
            let len = (code >> 4) % 5;
            match code % 8 {
                0 => Json::Null,
                1 => Json::Bool(code & 0x10 != 0),
                2 => Json::Str(text(code).into()),
                4 | 5 if depth > 0 => Json::Arr((0..len).map(|_| tree(codes, depth - 1)).collect()),
                6 | 7 if depth > 0 => Json::Obj(
                    (0..len)
                        .map(|_| (text(codes.next().unwrap_or(0)), tree(codes, depth - 1)))
                        .collect(),
                ),
                // Integers and eighths, both signs.
                _ => Json::Num(f64::from(code as i32 >> 9) / 8.0),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn written_trees_parse_back_equal(codes in proptest::collection::vec(0u32..u32::MAX, 1..64)) {
                let want = tree(&mut codes.into_iter(), 4);
                let mut text = String::new();
                super::write(&want, &mut text);
                let got = parse(&text);
                prop_assert_eq!(got, Ok(want), "{}", text);
            }
        }
    }
}
