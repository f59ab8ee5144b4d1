//! The `asim2-fleet v1` wire protocol: typed messages over
//! newline-delimited JSON frames.
//!
//! A fleet conversation is strictly request/response on one TCP stream:
//! the worker opens with [`Message::Hello`] (protocol version, shared
//! token, worker name, optionally a pinned campaign fingerprint), the
//! controller answers [`Message::Welcome`] (the campaign configuration
//! and its fingerprint) or a structured [`Message::Error`] refusal, and
//! from then on every worker frame gets exactly one controller frame
//! back. Frames are single-line JSON documents rendered *compactly* and
//! byte-stably — refusals are part of the protocol's golden surface, so
//! two controllers refusing the same handshake emit identical bytes.
//!
//! Frames are the shared [`Json`] codec's compact layout; no serde, no
//! framing library. String escaping guarantees a rendered frame never
//! contains a raw newline, so `\n` is an unambiguous frame delimiter.

use crate::error::FleetError;
use rtl_campaign::CampaignConfig;
pub use rtl_campaign::CorpusFiles;
use rtl_obs::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;

/// The protocol version line carried in every handshake; a controller
/// refuses any other value with a `protocol-mismatch` error frame.
pub const PROTOCOL: &str = "asim2-fleet v1";

/// Upper bound on one frame's length in bytes. Record and corpus bodies
/// ride inside frames as JSON strings; campaign artifacts are small
/// text documents, so anything near this bound is a corrupt or hostile
/// peer, not a real upload.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// A structured refusal reason with a stable one-token label — the
/// golden surface of the handshake refusal matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The peer speaks a different protocol version.
    ProtocolMismatch,
    /// The shared token does not match the controller's.
    BadToken,
    /// The worker pinned a campaign fingerprint that is not the
    /// controller's — a drifted manifest.
    FingerprintDrift,
    /// A worker with this name is already connected.
    DuplicateWorker,
    /// The frame could not be decoded, or arrived out of sequence.
    BadFrame,
    /// An uploaded artifact failed validation against the campaign
    /// configuration (wrong seed, out-of-range index, corrupt body).
    BadUpload,
}

impl Refusal {
    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            Refusal::ProtocolMismatch => "protocol-mismatch",
            Refusal::BadToken => "bad-token",
            Refusal::FingerprintDrift => "fingerprint-drift",
            Refusal::DuplicateWorker => "duplicate-worker",
            Refusal::BadFrame => "bad-frame",
            Refusal::BadUpload => "bad-upload",
        }
    }

    /// Parses a wire label.
    pub fn parse(label: &str) -> Option<Refusal> {
        Some(match label {
            "protocol-mismatch" => Refusal::ProtocolMismatch,
            "bad-token" => Refusal::BadToken,
            "fingerprint-drift" => Refusal::FingerprintDrift,
            "duplicate-worker" => Refusal::DuplicateWorker,
            "bad-frame" => Refusal::BadFrame,
            "bad-upload" => Refusal::BadUpload,
            _ => return None,
        })
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → controller: the handshake opener.
    Hello {
        /// Must equal [`PROTOCOL`].
        protocol: String,
        /// The shared campaign token.
        token: String,
        /// A fleet-unique worker name.
        worker: String,
        /// An optionally pinned campaign-manifest fingerprint (hex); the
        /// controller refuses with `fingerprint-drift` when it differs.
        fingerprint: Option<String>,
        /// The peer's requested role. Absent means a full worker (the
        /// field is omitted from the frame, keeping pre-role handshakes
        /// byte-identical); `"status"` requests the read-only live-query
        /// surface. An unknown role is refused with `bad-frame`.
        role: Option<String>,
    },
    /// Controller → worker: handshake accepted; carries the campaign.
    Welcome {
        /// The controller's protocol version.
        protocol: String,
        /// The campaign-manifest fingerprint (hex).
        fingerprint: String,
        /// Whether workers must collect per-case execution profiles.
        profile: bool,
        /// Whether workers must arm the divergence flight recorder and
        /// upload each non-agreeing case's flight log (which `campaign
        /// export` renders as `case-N.flight.jsonl`).
        flight: bool,
        /// Whether the controller keeps worker telemetry (its recorder is
        /// enabled). Workers record each lease and upload its
        /// [`Message::Events`] log only when this is set; otherwise a
        /// lease runs as a recorder-less single-machine run does, and
        /// lints and counts nothing. A frame without the field decodes
        /// as `true`: a controller predating it always folded worker
        /// events.
        metrics: bool,
        /// The full campaign configuration; the worker recomputes the
        /// fingerprint from it and refuses a mismatch.
        config: CampaignConfig,
    },
    /// Worker → controller: ready for a lease.
    LeaseRequest,
    /// Controller → worker: run cases `start..end` before the deadline.
    Lease {
        /// First case index (inclusive).
        start: u32,
        /// Last case index (exclusive).
        end: u32,
        /// Deadline in milliseconds; an overdue lease is reassigned.
        deadline_ms: u64,
    },
    /// Controller → worker: nothing to lease right now (everything is
    /// out with other workers); retry after `ms`.
    Wait {
        /// Suggested retry delay in milliseconds.
        ms: u64,
    },
    /// Controller → worker: the campaign needs nothing further from
    /// this worker; disconnect.
    Drained,
    /// Worker → controller: liveness signal between case completions.
    Heartbeat,
    /// Worker → controller: one completed case record, byte-verbatim. It
    /// commits the case's bundle: the profile, flight and corpus frames
    /// sent before it are checked and published with it, in the commit
    /// order stated in [`rtl_campaign::bundle`].
    Record {
        /// Global case index.
        index: u32,
        /// The record file's exact text.
        body: String,
    },
    /// Worker → controller: one case's execution profile,
    /// byte-verbatim, sent before the case record that commits it.
    Profile {
        /// Global case index.
        index: u32,
        /// The profile's exact text.
        body: String,
    },
    /// Worker → controller: the shrunk corpus entry the next case record
    /// names, sent before that record.
    Corpus {
        /// Entry name (`seed-N`).
        name: String,
        /// The claimed entry fingerprint (hex); the controller
        /// revalidates it from the files before publication.
        fingerprint: String,
        /// The entry's four documents.
        files: CorpusFiles,
    },
    /// Worker → controller: the lease's complete local `asim2-events v1`
    /// log, streamed verbatim. The controller folds the deterministic
    /// counters into its own log untagged (totals stay byte-identical to
    /// a single-machine run) and re-emits the wall-clock events with
    /// worker provenance.
    Events {
        /// The event log's exact text (meta header included).
        body: String,
    },
    /// Worker → controller: one case's flight-recorder log,
    /// byte-verbatim, sent before the case record that commits it.
    Flight {
        /// Global case index.
        index: u32,
        /// The flight log's exact text.
        body: String,
    },
    /// Status client → controller: one live-status query.
    StatusRequest,
    /// Controller → status client: the versioned status document.
    Status {
        /// The `asim2-fleet-status v1` JSON document text.
        body: String,
    },
    /// Controller → worker: the previous frame was accepted.
    Ack,
    /// Worker → controller: clean goodbye.
    Bye,
    /// Controller → worker: a structured refusal. The connection closes
    /// after this frame.
    Error {
        /// The stable refusal label.
        reason: Refusal,
        /// Human-readable detail (byte-stable for the golden matrix).
        detail: String,
    },
}

impl Message {
    /// The frame's `type` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Welcome { .. } => "welcome",
            Message::LeaseRequest => "lease-request",
            Message::Lease { .. } => "lease",
            Message::Wait { .. } => "wait",
            Message::Drained => "drained",
            Message::Heartbeat => "heartbeat",
            Message::Record { .. } => "record",
            Message::Profile { .. } => "profile",
            Message::Corpus { .. } => "corpus",
            Message::Events { .. } => "events",
            Message::Flight { .. } => "flight",
            Message::StatusRequest => "status-request",
            Message::Status { .. } => "status",
            Message::Ack => "ack",
            Message::Bye => "bye",
            Message::Error { .. } => "error",
        }
    }

    /// Serializes the message as a document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("type".to_string(), Json::str(self.kind()))];
        match self {
            Message::Hello {
                protocol,
                token,
                worker,
                fingerprint,
                role,
            } => {
                pairs.push(("protocol".into(), Json::str(protocol)));
                pairs.push(("token".into(), Json::str(token)));
                pairs.push(("worker".into(), Json::str(worker)));
                if let Some(fp) = fingerprint {
                    pairs.push(("fingerprint".into(), Json::str(fp)));
                }
                if let Some(role) = role {
                    pairs.push(("role".into(), Json::str(role)));
                }
            }
            Message::Welcome {
                protocol,
                fingerprint,
                profile,
                flight,
                metrics,
                config,
            } => {
                pairs.push(("protocol".into(), Json::str(protocol)));
                pairs.push(("fingerprint".into(), Json::str(fingerprint)));
                pairs.push(("profile".into(), Json::Bool(*profile)));
                pairs.push(("flight".into(), Json::Bool(*flight)));
                pairs.push(("metrics".into(), Json::Bool(*metrics)));
                pairs.push(("config".into(), config.to_json()));
            }
            Message::Lease {
                start,
                end,
                deadline_ms,
            } => {
                pairs.push(("start".into(), Json::num(start)));
                pairs.push(("end".into(), Json::num(end)));
                pairs.push(("deadline_ms".into(), Json::num(deadline_ms)));
            }
            Message::Wait { ms } => pairs.push(("ms".into(), Json::num(ms))),
            Message::Record { index, body }
            | Message::Profile { index, body }
            | Message::Flight { index, body } => {
                pairs.push(("index".into(), Json::num(index)));
                pairs.push(("body".into(), Json::str(body)));
            }
            Message::Events { body } | Message::Status { body } => {
                pairs.push(("body".into(), Json::str(body)));
            }
            Message::Corpus {
                name,
                fingerprint,
                files,
            } => {
                pairs.push(("name".into(), Json::str(name)));
                pairs.push(("fingerprint".into(), Json::str(fingerprint)));
                pairs.push(("asim".into(), Json::str(&files.asim)));
                pairs.push(("stim".into(), Json::str(&files.stim)));
                pairs.push(("ckpt".into(), Json::str(&files.ckpt)));
                pairs.push(("meta".into(), Json::str(&files.meta)));
            }
            Message::Error { reason, detail } => {
                pairs.push(("reason".into(), Json::str(reason.label())));
                pairs.push(("detail".into(), Json::str(detail)));
            }
            Message::LeaseRequest
            | Message::Drained
            | Message::Heartbeat
            | Message::StatusRequest
            | Message::Ack
            | Message::Bye => {}
        }
        Json::Obj(pairs)
    }

    /// Deserializes a message.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<Message, String> {
        let text = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {name:?}"))
        };
        let num = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field {name:?}"))
        };
        let index = |name: &str| {
            num(name).and_then(|n| u32::try_from(n).map_err(|_| format!("{name} out of range")))
        };
        Ok(match text("type")?.as_str() {
            "hello" => Message::Hello {
                protocol: text("protocol")?,
                token: text("token")?,
                worker: text("worker")?,
                fingerprint: match doc.get("fingerprint") {
                    Some(Json::Str(fp)) => Some(fp.clone()),
                    None => None,
                    Some(_) => return Err("field \"fingerprint\" is not a string".into()),
                },
                role: match doc.get("role") {
                    Some(Json::Str(role)) => Some(role.clone()),
                    None => None,
                    Some(_) => return Err("field \"role\" is not a string".into()),
                },
            },
            "welcome" => Message::Welcome {
                protocol: text("protocol")?,
                fingerprint: text("fingerprint")?,
                profile: doc
                    .get("profile")
                    .and_then(Json::as_bool)
                    .ok_or("missing boolean field \"profile\"")?,
                flight: doc
                    .get("flight")
                    .and_then(Json::as_bool)
                    .ok_or("missing boolean field \"flight\"")?,
                metrics: match doc.get("metrics") {
                    None => true,
                    Some(value) => value
                        .as_bool()
                        .ok_or("field \"metrics\" is not a boolean")?,
                },
                config: CampaignConfig::from_json(
                    doc.get("config").ok_or("missing field \"config\"")?,
                )?,
            },
            "lease-request" => Message::LeaseRequest,
            "lease" => Message::Lease {
                start: index("start")?,
                end: index("end")?,
                deadline_ms: num("deadline_ms")?,
            },
            "wait" => Message::Wait { ms: num("ms")? },
            "drained" => Message::Drained,
            "heartbeat" => Message::Heartbeat,
            "record" => Message::Record {
                index: index("index")?,
                body: text("body")?,
            },
            "profile" => Message::Profile {
                index: index("index")?,
                body: text("body")?,
            },
            "corpus" => Message::Corpus {
                name: text("name")?,
                fingerprint: text("fingerprint")?,
                files: CorpusFiles {
                    asim: text("asim")?,
                    stim: text("stim")?,
                    ckpt: text("ckpt")?,
                    meta: text("meta")?,
                },
            },
            "events" => Message::Events {
                body: text("body")?,
            },
            "flight" => Message::Flight {
                index: index("index")?,
                body: text("body")?,
            },
            "status-request" => Message::StatusRequest,
            "status" => Message::Status {
                body: text("body")?,
            },
            "ack" => Message::Ack,
            "bye" => Message::Bye,
            "error" => Message::Error {
                reason: text("reason")
                    .ok()
                    .as_deref()
                    .and_then(Refusal::parse)
                    .ok_or("error frame with unknown reason")?,
                detail: text("detail")?,
            },
            other => return Err(format!("unknown frame type {other:?}")),
        })
    }
}

/// Encodes a message as one byte-stable frame line (no trailing
/// newline): compact JSON, keys in declaration order.
pub fn encode(msg: &Message) -> String {
    msg.to_json().render_compact()
}

/// Decodes one frame line.
///
/// # Errors
///
/// Malformed JSON or an invalid message shape.
pub fn decode(line: &str) -> Result<Message, String> {
    Message::from_json(&Json::parse(line.trim_end())?)
}

/// One poll of the frame reader.
#[derive(Debug)]
pub enum Poll {
    /// A complete frame line arrived.
    Frame(String),
    /// No complete frame yet (the read timed out mid-frame or before
    /// one); the partial data stays buffered.
    Pending,
    /// The peer closed the stream.
    Eof,
}

/// A framed protocol stream: newline-delimited frames over TCP, with a
/// hand-rolled line buffer so *read timeouts never lose partial
/// frames* (a `BufReader::read_line` interrupted by a timeout may drop
/// bytes; the controller polls with timeouts to notice shutdown).
pub struct Framed {
    reader: TcpStream,
    writer: TcpStream,
    buf: Vec<u8>,
    /// How many leading bytes of `buf` are known to hold no newline, so
    /// each byte is scanned once however many reads a frame takes.
    scanned: usize,
}

impl Framed {
    /// Wraps a connected stream.
    ///
    /// # Errors
    ///
    /// Failure to clone the stream handle.
    pub fn new(stream: TcpStream) -> std::io::Result<Framed> {
        let writer = stream.try_clone()?;
        Ok(Framed {
            reader: stream,
            writer,
            buf: Vec::new(),
            scanned: 0,
        })
    }

    /// The underlying stream (for timeouts and shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.reader
    }

    /// Sends one message as a frame line.
    ///
    /// # Errors
    ///
    /// Stream failure.
    pub fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        let mut line = encode(msg);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Polls for the next frame line. With a read timeout set on the
    /// stream, returns [`Poll::Pending`] when the timeout elapses;
    /// without one, blocks until a frame or EOF.
    ///
    /// # Errors
    ///
    /// Stream failure, or a frame exceeding [`MAX_FRAME`].
    pub fn poll(&mut self) -> std::io::Result<Poll> {
        loop {
            let unscanned = &self.buf[self.scanned..];
            if let Some(pos) = unscanned.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(self.scanned + pos + 1);
                let line = std::mem::replace(&mut self.buf, rest);
                self.scanned = 0;
                let line =
                    String::from_utf8(line).map_err(|_| std::io::Error::other("non-utf8 frame"))?;
                return Ok(Poll::Frame(line));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_FRAME {
                return Err(std::io::Error::other("frame exceeds MAX_FRAME"));
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.reader.read(&mut chunk) {
                Ok(0) => return Ok(Poll::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Poll::Pending)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks until the next decoded message (the worker side, where no
    /// read timeout is set).
    ///
    /// # Errors
    ///
    /// EOF, stream failure, or an undecodable frame.
    pub fn recv(&mut self) -> Result<Message, FleetError> {
        loop {
            match self.poll().map_err(FleetError::Io)? {
                Poll::Frame(line) => {
                    return decode(&line)
                        .map_err(|e| FleetError::Protocol(format!("bad frame: {e}")))
                }
                Poll::Pending => continue,
                Poll::Eof => {
                    return Err(FleetError::Protocol(
                        "connection closed mid-conversation".into(),
                    ))
                }
            }
        }
    }

    /// Sends `msg` and blocks for the reply.
    ///
    /// # Errors
    ///
    /// See [`Framed::send`] and [`Framed::recv`].
    pub fn call(&mut self, msg: &Message) -> Result<Message, FleetError> {
        self.send(msg).map_err(FleetError::Io)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_round_trips() {
        let samples = vec![
            Message::Hello {
                protocol: PROTOCOL.into(),
                token: "secret".into(),
                worker: "w1".into(),
                fingerprint: None,
                role: None,
            },
            Message::Hello {
                protocol: PROTOCOL.into(),
                token: "secret".into(),
                worker: "w2".into(),
                fingerprint: Some("00ff00ff00ff00ff".into()),
                role: Some("status".into()),
            },
            Message::Welcome {
                protocol: PROTOCOL.into(),
                fingerprint: "0123456789abcdef".into(),
                profile: true,
                flight: true,
                metrics: true,
                config: CampaignConfig::default(),
            },
            Message::Welcome {
                protocol: PROTOCOL.into(),
                fingerprint: "0123456789abcdef".into(),
                profile: false,
                flight: false,
                metrics: false,
                config: CampaignConfig::default(),
            },
            Message::LeaseRequest,
            Message::Lease {
                start: 8,
                end: 16,
                deadline_ms: 60_000,
            },
            Message::Wait { ms: 200 },
            Message::Drained,
            Message::Heartbeat,
            Message::Record {
                index: 3,
                body: "{\n  \"index\": 3\n}\n".into(),
            },
            Message::Profile {
                index: 3,
                body: "asim2-profile v1\n".into(),
            },
            Message::Corpus {
                name: "seed-7".into(),
                fingerprint: "deadbeefdeadbeef".into(),
                files: CorpusFiles {
                    asim: "# spec\n".into(),
                    stim: "1\n2\n".into(),
                    ckpt: "asim2 checkpoint v1\n".into(),
                    meta: "{}\n".into(),
                },
            },
            Message::Events {
                body: "{\"v\":1,\"e\":\"meta\",\"format\":\"asim2-events v1\"}\n".into(),
            },
            Message::Flight {
                index: 5,
                body: "{\"v\":1,\"e\":\"meta\",\"format\":\"asim2-events v1\"}\n".into(),
            },
            Message::StatusRequest,
            Message::Status {
                body: "{\n  \"format\": \"asim2-fleet-status v1\"\n}\n".into(),
            },
            Message::Ack,
            Message::Bye,
            Message::Error {
                reason: Refusal::BadToken,
                detail: "shared token does not match the controller's".into(),
            },
        ];
        for msg in samples {
            let line = encode(&msg);
            assert!(!line.contains('\n'), "frame must be one line: {line}");
            assert_eq!(decode(&line).unwrap(), msg, "{line}");
        }
    }

    #[test]
    fn frames_are_byte_stable() {
        // A role-less hello must stay byte-identical to the pre-role
        // protocol: the optional field is omitted, not null.
        assert_eq!(
            encode(&Message::Hello {
                protocol: PROTOCOL.into(),
                token: "t".into(),
                worker: "w".into(),
                fingerprint: None,
                role: None,
            }),
            "{\"type\":\"hello\",\"protocol\":\"asim2-fleet v1\",\"token\":\"t\",\"worker\":\"w\"}"
        );
        assert_eq!(
            encode(&Message::Hello {
                protocol: PROTOCOL.into(),
                token: "t".into(),
                worker: "watcher".into(),
                fingerprint: None,
                role: Some("status".into()),
            }),
            "{\"type\":\"hello\",\"protocol\":\"asim2-fleet v1\",\"token\":\"t\",\
             \"worker\":\"watcher\",\"role\":\"status\"}"
        );
        assert_eq!(
            encode(&Message::StatusRequest),
            "{\"type\":\"status-request\"}"
        );
        assert_eq!(
            encode(&Message::LeaseRequest),
            "{\"type\":\"lease-request\"}"
        );
        assert_eq!(
            encode(&Message::Lease {
                start: 0,
                end: 8,
                deadline_ms: 60000
            }),
            "{\"type\":\"lease\",\"start\":0,\"end\":8,\"deadline_ms\":60000}"
        );
        assert_eq!(
            encode(&Message::Error {
                reason: Refusal::ProtocolMismatch,
                detail: "speak asim2-fleet v1".into()
            }),
            "{\"type\":\"error\",\"reason\":\"protocol-mismatch\",\"detail\":\"speak asim2-fleet v1\"}"
        );
    }

    #[test]
    fn a_welcome_with_a_non_boolean_metrics_field_is_refused() {
        let line = encode(&Message::Welcome {
            protocol: PROTOCOL.into(),
            fingerprint: "0123456789abcdef".into(),
            profile: false,
            flight: false,
            metrics: false,
            config: CampaignConfig::default(),
        })
        .replace("\"metrics\":false", "\"metrics\":0");
        assert!(decode(&line).unwrap_err().contains("metrics"), "{line}");
    }

    #[test]
    fn refusal_labels_round_trip() {
        for refusal in [
            Refusal::ProtocolMismatch,
            Refusal::BadToken,
            Refusal::FingerprintDrift,
            Refusal::DuplicateWorker,
            Refusal::BadFrame,
            Refusal::BadUpload,
        ] {
            assert_eq!(Refusal::parse(refusal.label()), Some(refusal));
        }
        assert_eq!(Refusal::parse("nope"), None);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        for bad in [
            "",
            "{}",
            "not json",
            "{\"type\":\"frobnicate\"}",
            "{\"type\":\"lease\",\"start\":0}",
            // The counter upload that `events` superseded is gone.
            "{\"type\":\"metrics\",\"counters\":[]}",
            "{\"type\":\"error\",\"reason\":\"made-up\",\"detail\":\"x\"}",
        ] {
            assert!(decode(bad).is_err(), "{bad:?} should not decode");
        }
    }

    #[test]
    fn a_deeply_nested_frame_is_an_error_not_a_stack_overflow() {
        let depth = 100_000;
        let line = format!(
            "{{\"type\":\"ack\",\"x\":{}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let err = decode(&line).unwrap_err();
        assert!(err.contains("MAX_DEPTH"), "{err}");
    }

    #[test]
    fn a_4_mib_body_round_trips_quickly() {
        let body: String = "record \"line\"\n\t\u{1}é\\"
            .chars()
            .cycle()
            .take(4 << 20)
            .collect();
        let msg = Message::Record { index: 7, body };
        let started = std::time::Instant::now();
        let line = encode(&msg);
        assert!(line.len() > 4 << 20);
        assert_eq!(decode(&line).unwrap(), msg);
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(10), "{took:?}");
    }

    #[test]
    fn a_frame_with_a_duplicated_key_is_refused() {
        let line = "{\"type\":\"wait\",\"ms\":1,\"ms\":2}";
        assert!(decode(line).unwrap_err().contains("duplicate key"));
    }
}
