//! A small textual query language.
//!
//! Grammar (case-insensitive keywords, `and`-separated clauses):
//!
//! ```text
//! query   := clause ( "and" clause )*
//! clause  := ident ("overlaps" | "ov") ident
//!          | ident "contains" ident
//!          | ident "within" number "of" ident
//!          | ident "ra" "(" number ")" ident
//! ```
//!
//! Examples:
//!
//! ```
//! use mwsj_query::Query;
//! let q = Query::parse("city overlaps forest and forest within 10 of river").unwrap();
//! assert_eq!(q.num_relations(), 3);
//! let q2 = Query::parse("R1 ov R2 and R2 ra(100) R3").unwrap();
//! assert_eq!(q2.max_range_distance(), 100.0);
//! ```
//!
//! Identical names denote the **same** relation position; a self-join over
//! one dataset must use distinct position names (`"R_a overlaps R_b"`) with
//! the same dataset bound to both positions at execution time.

use crate::query::{Query, QueryBuilder, QueryError};

/// Errors from [`Query::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Input ended while a clause was still expected.
    UnexpectedEnd,
    /// An unexpected token was found.
    UnexpectedToken {
        /// The offending token.
        token: String,
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// A number failed to parse.
    BadNumber(String),
    /// The parsed query failed semantic validation.
    Invalid(QueryError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnexpectedEnd => write!(f, "unexpected end of query"),
            ParseError::UnexpectedToken { token, expected } => {
                write!(f, "unexpected token `{token}`, expected {expected}")
            }
            ParseError::BadNumber(t) => write!(f, "`{t}` is not a valid distance"),
            ParseError::Invalid(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> Self {
        ParseError::Invalid(e)
    }
}

/// Tokenizes on whitespace, treating parentheses as separate tokens so
/// `ra(100)` splits into `ra ( 100 )`.
fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_whitespace() || ch == '(' || ch == ')' {
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            if ch == '(' || ch == ')' {
                tokens.push(ch.to_string());
            }
        } else {
            cur.push(ch);
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

pub(crate) fn parse(text: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(text);
    let mut pos = 0;
    let mut builder = QueryBuilder::default();

    let next = |pos: &mut usize| -> Result<&str, ParseError> {
        let t = tokens.get(*pos).ok_or(ParseError::UnexpectedEnd)?;
        *pos += 1;
        Ok(t.as_str())
    };

    loop {
        let left = next(&mut pos)?.to_string();
        let op = next(&mut pos)?.to_ascii_lowercase();
        match op.as_str() {
            "overlaps" | "ov" => {
                let right = next(&mut pos)?;
                builder = builder.overlap(&left, right);
            }
            "contains" => {
                let right = next(&mut pos)?;
                builder = builder.contains(&left, right);
            }
            "within" => {
                let num = next(&mut pos)?;
                let d: f64 = num
                    .parse()
                    .map_err(|_| ParseError::BadNumber(num.to_string()))?;
                let of = next(&mut pos)?;
                if !of.eq_ignore_ascii_case("of") {
                    return Err(ParseError::UnexpectedToken {
                        token: of.to_string(),
                        expected: "`of`",
                    });
                }
                let right = next(&mut pos)?;
                builder = builder.range(&left, right, d);
            }
            "ra" => {
                let open = next(&mut pos)?;
                if open != "(" {
                    return Err(ParseError::UnexpectedToken {
                        token: open.to_string(),
                        expected: "`(`",
                    });
                }
                let num = next(&mut pos)?;
                let d: f64 = num
                    .parse()
                    .map_err(|_| ParseError::BadNumber(num.to_string()))?;
                let close = next(&mut pos)?;
                if close != ")" {
                    return Err(ParseError::UnexpectedToken {
                        token: close.to_string(),
                        expected: "`)`",
                    });
                }
                let right = next(&mut pos)?;
                builder = builder.range(&left, right, d);
            }
            other => {
                return Err(ParseError::UnexpectedToken {
                    token: other.to_string(),
                    expected: "`overlaps`, `ov`, `contains`, `within` or `ra`",
                })
            }
        }
        match tokens.get(pos) {
            None => break,
            Some(t) if t.eq_ignore_ascii_case("and") => {
                pos += 1;
            }
            Some(t) => {
                return Err(ParseError::UnexpectedToken {
                    token: t.clone(),
                    expected: "`and` or end of query",
                })
            }
        }
    }

    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;

    #[test]
    fn parses_overlap_chain() {
        let q = parse("R1 overlaps R2 and R2 overlaps R3").unwrap();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.triples().len(), 2);
        assert!(q.triples().iter().all(|t| !t.predicate.is_range()));
    }

    #[test]
    fn parses_short_forms() {
        let q = parse("a ov b and b ra(12.5) c").unwrap();
        assert_eq!(q.triples()[1].predicate, Predicate::Range(12.5));
    }

    #[test]
    fn parses_within_form() {
        let q = parse("a within 100 of b").unwrap();
        assert_eq!(q.triples()[0].predicate, Predicate::Range(100.0));
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse("a OVERLAPS b AND b WITHIN 3 OF c").unwrap();
        assert_eq!(q.triples().len(), 2);
    }

    #[test]
    fn relation_names_case_sensitive() {
        let q = parse("a overlaps A and A overlaps b").unwrap();
        assert_eq!(q.num_relations(), 3);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let e = parse("a overlaps b c").unwrap_err();
        assert!(matches!(e, ParseError::UnexpectedToken { .. }));
    }

    #[test]
    fn rejects_bad_number() {
        assert!(matches!(
            parse("a within x of b").unwrap_err(),
            ParseError::BadNumber(_)
        ));
    }

    #[test]
    fn rejects_unterminated_clause() {
        assert_eq!(parse("a overlaps").unwrap_err(), ParseError::UnexpectedEnd);
        assert_eq!(
            parse("a within 3 of").unwrap_err(),
            ParseError::UnexpectedEnd
        );
    }

    #[test]
    fn rejects_semantic_errors() {
        assert!(matches!(
            parse("a overlaps a").unwrap_err(),
            ParseError::Invalid(QueryError::SelfJoin(_))
        ));
        assert!(matches!(
            parse("a ov b and c ov d").unwrap_err(),
            ParseError::Invalid(QueryError::Disconnected)
        ));
    }

    #[test]
    fn rejects_missing_of() {
        assert!(matches!(
            parse("a within 3 from b").unwrap_err(),
            ParseError::UnexpectedToken { .. }
        ));
    }
}
