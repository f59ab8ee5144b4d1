//! The `asim2-events v1` event model and its JSONL encoding.
//!
//! One event is one flat JSON object on one line. Values are only ever
//! strings or unsigned integers, which keeps the schema strict: anything
//! else on a line is a validation error, which is exactly what the CI
//! schema gate wants. Lines are read and written by the shared
//! [`json`](crate::json) codec's compact layout.
//!
//! ```text
//! {"v":1,"e":"meta","format":"asim2-events v1"}
//! {"v":1,"e":"counter","src":"campaign","key":"cases_executed","n":100}
//! {"v":1,"e":"gauge","src":"campaign","key":"workers","value":4}
//! {"v":1,"e":"mark","src":"shard","key":"run","detail":"shard 0"}
//! {"v":1,"e":"span","src":"campaign","key":"case","id":7,"phase":"enter"}
//! {"v":1,"e":"span","src":"campaign","key":"case","id":7,"phase":"exit","us":1523}
//! ```
//!
//! Every event carries a source component (`src`) and a static key
//! (`key`). Counters are the **deterministic** class; gauges, marks and
//! spans are **wall-clock** (see [`Class`]). The first line of a stream
//! is always the `meta` header pinning the format version.

use crate::json::Json;

/// The event-stream format line; bump on breaking changes.
pub const FORMAT: &str = "asim2-events v1";

/// The determinism class of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Byte-identical for a given configuration across runs, worker
    /// counts and kill+resume (folded totals, see
    /// [`Summary`](crate::Summary)).
    Deterministic,
    /// Timing- and scheduling-dependent; excluded from all bit-identity
    /// comparisons.
    WallClock,
}

/// One `asim2-events v1` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The stream header: first line of every event log.
    Meta {
        /// The format string (must equal [`FORMAT`]).
        format: String,
    },
    /// A monotonic counter increment — the deterministic class.
    Counter {
        /// Source component (`session`, `lockstep`, `campaign`, ...).
        src: String,
        /// Counter key (`cycles`, `cases_executed`, ...).
        key: String,
        /// Increment (coalesced increments sum; folding sums again).
        n: u64,
    },
    /// A point-in-time value (last write wins in summaries) — wall-clock.
    Gauge {
        /// Source component.
        src: String,
        /// Gauge key.
        key: String,
        /// The observed value.
        value: u64,
    },
    /// A one-shot annotation — wall-clock (a resumed run repeats marks).
    Mark {
        /// Source component.
        src: String,
        /// Mark key.
        key: String,
        /// Optional free-text payload.
        detail: Option<String>,
    },
    /// A span opening — wall-clock.
    SpanEnter {
        /// Source component.
        src: String,
        /// Span key.
        key: String,
        /// Stream-unique span id pairing enter with exit.
        id: u64,
    },
    /// A span closing, with its measured duration — wall-clock.
    SpanExit {
        /// Source component.
        src: String,
        /// Span key.
        key: String,
        /// Stream-unique span id pairing enter with exit.
        id: u64,
        /// Wall-clock duration in microseconds.
        micros: u64,
    },
}

impl Event {
    /// The event's determinism class ([`Meta`](Event::Meta) is
    /// wall-clock: it describes the stream, not the run).
    pub fn class(&self) -> Class {
        match self {
            Event::Counter { .. } => Class::Deterministic,
            _ => Class::WallClock,
        }
    }

    /// Encodes the event as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut pairs = vec![("v".to_string(), Json::num(1))];
        let mut field = |name: &str, value: Json| pairs.push((name.to_string(), value));
        match self {
            Event::Meta { format } => {
                field("e", Json::str("meta"));
                field("format", Json::str(format));
            }
            Event::Counter { src, key, n } => {
                field("e", Json::str("counter"));
                field("src", Json::str(src));
                field("key", Json::str(key));
                field("n", Json::num(n));
            }
            Event::Gauge { src, key, value } => {
                field("e", Json::str("gauge"));
                field("src", Json::str(src));
                field("key", Json::str(key));
                field("value", Json::num(value));
            }
            Event::Mark { src, key, detail } => {
                field("e", Json::str("mark"));
                field("src", Json::str(src));
                field("key", Json::str(key));
                if let Some(detail) = detail {
                    field("detail", Json::str(detail));
                }
            }
            Event::SpanEnter { src, key, id } => {
                field("e", Json::str("span"));
                field("src", Json::str(src));
                field("key", Json::str(key));
                field("id", Json::num(id));
                field("phase", Json::str("enter"));
            }
            Event::SpanExit {
                src,
                key,
                id,
                micros,
            } => {
                field("e", Json::str("span"));
                field("src", Json::str(src));
                field("key", Json::str(key));
                field("id", Json::num(id));
                field("phase", Json::str("exit"));
                field("us", Json::num(micros));
            }
        }
        Json::Obj(pairs).render_compact()
    }

    /// Parses and validates one JSONL line against the v1 schema.
    ///
    /// Strict by design: beyond [`Json::parse`]'s rules (which already
    /// refuse duplicate fields), unknown event types, unknown fields,
    /// missing fields, nested values, floats and negative numbers are
    /// all errors — this parser *is* the schema validator CI runs.
    ///
    /// # Errors
    ///
    /// A message describing the first violation found.
    pub fn parse(line: &str) -> Result<Event, String> {
        let doc = Json::parse(line)?;
        let Json::Obj(fields) = &doc else {
            return Err("an event must be a JSON object".into());
        };
        let get = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("missing field {name:?}"))
        };
        let text = |name: &str| {
            get(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {name:?} must be a string"))
        };
        let num = |name: &str| {
            get(name)?
                .as_u64()
                .ok_or_else(|| format!("field {name:?} must be an unsigned integer"))
        };
        if num("v")? != 1 {
            return Err("unsupported event version (expected v:1)".into());
        }
        let kind = text("e")?;
        let allowed: &[&str] = match kind.as_str() {
            "meta" => &["v", "e", "format"],
            "counter" => &["v", "e", "src", "key", "n"],
            "gauge" => &["v", "e", "src", "key", "value"],
            "mark" => &["v", "e", "src", "key", "detail"],
            "span" => &["v", "e", "src", "key", "id", "phase", "us"],
            other => return Err(format!("unknown event type {other:?}")),
        };
        for (name, _) in fields {
            if !allowed.contains(&name.as_str()) {
                return Err(format!("unknown field {name:?} on a {kind:?} event"));
            }
        }
        let ident = |name: &str| {
            let value = text(name)?;
            if value.is_empty() {
                return Err(format!("field {name:?} must not be empty"));
            }
            Ok(value)
        };
        match kind.as_str() {
            "meta" => Ok(Event::Meta {
                format: text("format")?,
            }),
            "counter" => Ok(Event::Counter {
                src: ident("src")?,
                key: ident("key")?,
                n: num("n")?,
            }),
            "gauge" => Ok(Event::Gauge {
                src: ident("src")?,
                key: ident("key")?,
                value: num("value")?,
            }),
            "mark" => Ok(Event::Mark {
                src: ident("src")?,
                key: ident("key")?,
                detail: match doc.get("detail") {
                    None => None,
                    Some(_) => Some(text("detail")?),
                },
            }),
            "span" => {
                let (src, key, id) = (ident("src")?, ident("key")?, num("id")?);
                match text("phase")?.as_str() {
                    "enter" => {
                        if doc.get("us").is_some() {
                            return Err("span enter must not carry \"us\"".into());
                        }
                        Ok(Event::SpanEnter { src, key, id })
                    }
                    "exit" => Ok(Event::SpanExit {
                        src,
                        key,
                        id,
                        micros: num("us")?,
                    }),
                    other => Err(format!("unknown span phase {other:?}")),
                }
            }
            _ => unreachable!("kind validated above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_round_trips() {
        let events = [
            Event::Meta {
                format: FORMAT.into(),
            },
            Event::Counter {
                src: "campaign".into(),
                key: "cases_executed".into(),
                n: u64::MAX,
            },
            Event::Gauge {
                src: "campaign".into(),
                key: "workers".into(),
                value: 4,
            },
            Event::Mark {
                src: "shard".into(),
                key: "run".into(),
                detail: None,
            },
            Event::Mark {
                src: "shard".into(),
                key: "run".into(),
                detail: Some("quoted \"text\"\nwith\tcontrol \u{1} bytes".into()),
            },
            Event::SpanEnter {
                src: "campaign".into(),
                key: "case".into(),
                id: 7,
            },
            Event::SpanExit {
                src: "campaign".into(),
                key: "case".into(),
                id: 7,
                micros: 1523,
            },
        ];
        for event in events {
            let line = event.render();
            assert_eq!(Event::parse(&line).unwrap(), event, "{line}");
        }
    }

    #[test]
    fn counters_are_the_deterministic_class() {
        let counter = Event::Counter {
            src: "s".into(),
            key: "k".into(),
            n: 1,
        };
        assert_eq!(counter.class(), Class::Deterministic);
        let gauge = Event::Gauge {
            src: "s".into(),
            key: "k".into(),
            value: 1,
        };
        assert_eq!(gauge.class(), Class::WallClock);
    }

    #[test]
    fn schema_violations_are_rejected() {
        let bad = [
            "not json at all",
            "{}",                                                       // no v/e
            r#"{"v":2,"e":"counter","src":"s","key":"k","n":1}"#,       // wrong version
            r#"{"v":1,"e":"tracepoint","src":"s","key":"k"}"#,          // unknown type
            r#"{"v":1,"e":"counter","src":"s","key":"k"}"#,             // missing n
            r#"{"v":1,"e":"counter","src":"s","key":"k","n":-1}"#,      // negative
            r#"{"v":1,"e":"counter","src":"s","key":"k","n":1.5}"#,     // float
            r#"{"v":1,"e":"counter","src":"s","key":"k","n":{}}"#,      // nested
            r#"{"v":1,"e":"counter","src":"","key":"k","n":1}"#,        // empty src
            r#"{"v":1,"e":"counter","src":"s","key":"k","n":1,"x":2}"#, // unknown field
            r#"{"v":1,"e":"counter","src":"s","key":"k","n":1,"n":2}"#, // duplicate
            r#"{"v":1,"e":"span","src":"s","key":"k","id":1,"phase":"enter","us":3}"#,
            r#"{"v":1,"e":"span","src":"s","key":"k","id":1,"phase":"open"}"#,
            r#"{"v":1,"e":"counter","src":"s","key":"k","n":1} extra"#,
        ];
        for line in bad {
            assert!(Event::parse(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn parser_accepts_whitespace_variants() {
        let line = r#" { "v" : 1 , "e" : "gauge" , "src" : "s" , "key" : "k" , "value" : 9 } "#;
        assert_eq!(
            Event::parse(line).unwrap(),
            Event::Gauge {
                src: "s".into(),
                key: "k".into(),
                value: 9
            }
        );
    }
}
