//! Protocol golden tests: the versioned handshake refusal matrix with
//! byte-stable error frames, and frame round-trip properties.

use proptest::prelude::*;
use rtl_campaign::{CampaignConfig, CampaignDir, CaseBundle, NoProgress, RunOptions};
use rtl_fleet::protocol::{self, CorpusFiles, Framed, Message};
use rtl_fleet::{Controller, ControllerOptions, NoFleetProgress, Refusal, WorkerOptions, PROTOCOL};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asim2-fleet-proto-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sends one raw frame line and returns the response line verbatim.
fn exchange(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn hello(protocol: &str, token: &str, worker: &str, fingerprint: Option<&str>) -> String {
    hello_role(protocol, token, worker, fingerprint, None)
}

fn hello_role(
    protocol: &str,
    token: &str,
    worker: &str,
    fingerprint: Option<&str>,
    role: Option<&str>,
) -> String {
    protocol::encode(&Message::Hello {
        protocol: protocol.into(),
        token: token.into(),
        worker: worker.into(),
        fingerprint: fingerprint.map(str::to_string),
        role: role.map(str::to_string),
    })
}

/// Every handshake refusal, answered with a byte-stable error frame and
/// a named reason; refused peers never reach the campaign.
#[test]
fn handshake_refusal_matrix_is_byte_stable() {
    let mut config = CampaignConfig {
        seed: 1,
        cases: 2,
        ..CampaignConfig::default()
    };
    config.generator.size = 8;
    config.generator.cycles = 16;
    let fp = config.fingerprint();

    let controller = Controller::bind("127.0.0.1:0").unwrap();
    let addr = controller.local_addr().unwrap();
    let root = scratch("matrix");
    let dir = CampaignDir::new(&root);
    let serve_config = config.clone();
    let serving = std::thread::spawn(move || {
        controller.serve(
            &dir,
            &serve_config,
            &ControllerOptions {
                token: "secret".into(),
                ..ControllerOptions::default()
            },
            &mut NoFleetProgress,
        )
    });

    // Wrong protocol version.
    assert_eq!(
        exchange(addr, &hello("asim2-fleet v0", "secret", "w", None)),
        "{\"type\":\"error\",\"reason\":\"protocol-mismatch\",\
         \"detail\":\"this controller speaks asim2-fleet v1\"}"
    );
    // Wrong token.
    assert_eq!(
        exchange(addr, &hello(PROTOCOL, "wrong", "w", None)),
        "{\"type\":\"error\",\"reason\":\"bad-token\",\
         \"detail\":\"shared token does not match the controller's\"}"
    );
    // Drifted campaign fingerprint.
    assert_eq!(
        exchange(
            addr,
            &hello(PROTOCOL, "secret", "w", Some("0000000000000000"))
        ),
        format!(
            "{{\"type\":\"error\",\"reason\":\"fingerprint-drift\",\
             \"detail\":\"controller campaign fingerprint is {fp:016x}\"}}"
        )
    );
    // Duplicate worker name: register "w", then hello again as "w".
    let registered = TcpStream::connect(addr).unwrap();
    {
        let mut w = registered.try_clone().unwrap();
        writeln!(w, "{}", hello(PROTOCOL, "secret", "w", None)).unwrap();
        let mut welcome = String::new();
        BufReader::new(&registered).read_line(&mut welcome).unwrap();
        assert!(welcome.contains("\"type\":\"welcome\""), "{welcome}");
    }
    assert_eq!(
        exchange(addr, &hello(PROTOCOL, "secret", "w", None)),
        "{\"type\":\"error\",\"reason\":\"duplicate-worker\",\
         \"detail\":\"a worker named \\\"w\\\" is already connected\"}"
    );
    drop(registered);
    // A first frame that is not hello.
    assert_eq!(
        exchange(addr, &protocol::encode(&Message::LeaseRequest)),
        "{\"type\":\"error\",\"reason\":\"bad-frame\",\
         \"detail\":\"the first frame must be hello\"}"
    );
    // A frame that does not decode at all.
    let garbage = exchange(addr, "this is not a frame");
    assert!(
        garbage.starts_with(
            "{\"type\":\"error\",\"reason\":\"bad-frame\",\"detail\":\"undecodable frame:"
        ),
        "{garbage}"
    );

    // The campaign itself is untouched by the refused peers: a real
    // worker drains it normally.
    rtl_fleet::work(
        &addr.to_string(),
        &WorkerOptions {
            token: "secret".into(),
            name: "finisher".into(),
            threads: 1,
            scratch: scratch("matrix-worker"),
            ..WorkerOptions::default()
        },
    )
    .unwrap();
    let report = serving.join().unwrap().unwrap();
    assert!(report.complete(), "{report}");

    // The fleet directory equals a plain single-machine run even after
    // all that hostile traffic.
    let single_root = scratch("matrix-single");
    let single = rtl_campaign::run(
        &CampaignDir::new(&single_root),
        &config,
        &RunOptions::default(),
        &mut NoProgress,
    )
    .unwrap();
    assert_eq!(format!("{single}"), format!("{report}"));
}

/// A worker refused mid-handshake surfaces the named reason through
/// [`rtl_fleet::work`] as `FleetError::Refused`.
#[test]
fn refusals_surface_through_the_worker_api() {
    let config = CampaignConfig {
        cases: 1,
        ..CampaignConfig::default()
    };
    let controller = Controller::bind("127.0.0.1:0").unwrap();
    let addr = controller.local_addr().unwrap();
    let root = scratch("refused");
    let dir = CampaignDir::new(&root);
    let serve_config = config.clone();
    let serving = std::thread::spawn(move || {
        controller.serve(
            &dir,
            &serve_config,
            &ControllerOptions {
                token: "secret".into(),
                ..ControllerOptions::default()
            },
            &mut NoFleetProgress,
        )
    });

    let err = rtl_fleet::work(
        &addr.to_string(),
        &WorkerOptions {
            token: "wrong".into(),
            name: "w".into(),
            scratch: scratch("refused-w"),
            ..WorkerOptions::default()
        },
    )
    .unwrap_err();
    match &err {
        rtl_fleet::FleetError::Refused { reason, detail } => {
            assert_eq!(reason.label(), "bad-token");
            assert_eq!(detail, "shared token does not match the controller's");
        }
        other => panic!("{other}"),
    }
    assert_eq!(
        err.to_string(),
        "refused: bad-token: shared token does not match the controller's"
    );

    // Drain so the serving thread exits.
    let mut options = WorkerOptions {
        token: "secret".into(),
        name: "w".into(),
        scratch: scratch("refused-w2"),
        ..WorkerOptions::default()
    };
    options.threads = 1;
    rtl_fleet::work(&addr.to_string(), &options).unwrap();
    serving.join().unwrap().unwrap();
}

/// The read-only status role goes through the same refusal matrix as a
/// worker (byte-stable error frames), skips the duplicate-name check,
/// answers `status-request` with a versioned JSON document, and refuses
/// every work-side frame.
#[test]
fn status_role_is_read_only_and_versioned() {
    use rtl_obs::json::Json;

    let config = CampaignConfig {
        seed: 1,
        cases: 3,
        ..CampaignConfig::default()
    };
    let fp = config.fingerprint();
    let controller = Controller::bind("127.0.0.1:0").unwrap();
    let addr = controller.local_addr().unwrap();
    let root = scratch("status");
    let dir = CampaignDir::new(&root);
    let serve_config = config.clone();
    let serving = std::thread::spawn(move || {
        controller.serve(
            &dir,
            &serve_config,
            &ControllerOptions {
                token: "secret".into(),
                ..ControllerOptions::default()
            },
            &mut NoFleetProgress,
        )
    });

    // The refusal matrix applies to status peers too, same bytes.
    assert_eq!(
        exchange(
            addr,
            &hello_role("asim2-fleet v0", "secret", "s", None, Some("status"))
        ),
        "{\"type\":\"error\",\"reason\":\"protocol-mismatch\",\
         \"detail\":\"this controller speaks asim2-fleet v1\"}"
    );
    assert_eq!(
        exchange(
            addr,
            &hello_role(PROTOCOL, "wrong", "s", None, Some("status"))
        ),
        "{\"type\":\"error\",\"reason\":\"bad-token\",\
         \"detail\":\"shared token does not match the controller's\"}"
    );
    // A role this controller has never heard of.
    assert_eq!(
        exchange(
            addr,
            &hello_role(PROTOCOL, "secret", "s", None, Some("observer"))
        ),
        "{\"type\":\"error\",\"reason\":\"bad-frame\",\
         \"detail\":\"unknown hello role \\\"observer\\\" (this controller knows \\\"status\\\")\"}"
    );

    // Status peers skip the duplicate-name check: two observers with the
    // same name may watch at once.
    let watchers: Vec<_> = (0..2)
        .map(|_| {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = stream.try_clone().unwrap();
            writeln!(
                w,
                "{}",
                hello_role(PROTOCOL, "secret", "looker", None, Some("status"))
            )
            .unwrap();
            let mut reader = BufReader::new(stream);
            let mut welcome = String::new();
            reader.read_line(&mut welcome).unwrap();
            assert!(welcome.contains("\"type\":\"welcome\""), "{welcome}");
            (w, reader)
        })
        .collect();
    drop(watchers);

    // Happy path through the public client: a versioned document with
    // the campaign's fingerprint and case totals.
    let mut client = rtl_fleet::StatusClient::connect(&addr.to_string(), "secret").unwrap();
    let body = client.fetch().unwrap().expect("controller is alive");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("format").and_then(Json::as_str),
        Some(rtl_fleet::STATUS_FORMAT)
    );
    assert_eq!(
        doc.get("fingerprint").and_then(Json::as_str),
        Some(format!("{fp:016x}").as_str())
    );
    assert_eq!(doc.get("cases").and_then(Json::as_u64), Some(3));
    assert_eq!(doc.get("done").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("pending").and_then(Json::as_u64), Some(3));
    assert!(doc.get("eta_ms").is_some(), "eta field must be present");
    drop(client);

    // A status connection that asks for work is refused with the exact
    // read-only error frame.
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    writeln!(
        w,
        "{}",
        hello_role(PROTOCOL, "secret", "greedy", None, Some("status"))
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut welcome = String::new();
    reader.read_line(&mut welcome).unwrap();
    assert!(welcome.contains("\"type\":\"welcome\""), "{welcome}");
    writeln!(w, "{}", protocol::encode(&Message::LeaseRequest)).unwrap();
    let mut refusal = String::new();
    reader.read_line(&mut refusal).unwrap();
    assert_eq!(
        refusal.trim_end(),
        "{\"type\":\"error\",\"reason\":\"bad-frame\",\
         \"detail\":\"a status connection is read-only: \
         only status-request and bye are accepted\"}"
    );

    // None of that perturbed the campaign: a worker drains it cleanly.
    rtl_fleet::work(
        &addr.to_string(),
        &WorkerOptions {
            token: "secret".into(),
            name: "finisher".into(),
            threads: 1,
            scratch: scratch("status-worker"),
            ..WorkerOptions::default()
        },
    )
    .unwrap();
    let report = serving.join().unwrap().unwrap();
    assert!(report.complete(), "{report}");
}

// Payload alphabet for the round-trip property: alphanumerics plus the
// characters the frame escaper must handle — newline, tab, quote,
// backslash — so a failure here means a frame boundary or escape bug.
const PAYLOAD: &str = "[a-zA-Z0-9 \n\t\"\\\\-]{0,16}";

proptest! {
    /// Every message round-trips through the frame encoding, for
    /// arbitrary payload strings (including control characters and
    /// newlines, which must stay escaped inside the one-line frame).
    #[test]
    fn frames_round_trip(
        token in PAYLOAD,
        worker in PAYLOAD,
        body in PAYLOAD,
        name in PAYLOAD,
        index in any::<u32>(),
        n in any::<u64>(),
    ) {
        let samples = vec![
            Message::Hello {
                protocol: PROTOCOL.into(),
                token: token.clone(),
                worker: worker.clone(),
                fingerprint: Some(format!("{n:016x}")),
                role: None,
            },
            Message::Lease { start: index, end: index.saturating_add(8), deadline_ms: n },
            Message::Record { index, body: body.clone() },
            Message::Profile { index, body: body.clone() },
            Message::Corpus {
                name: name.clone(),
                fingerprint: format!("{n:016x}"),
                files: CorpusFiles {
                    asim: body.clone(),
                    stim: token.clone(),
                    ckpt: worker.clone(),
                    meta: name.clone(),
                },
            },
            Message::Error {
                reason: rtl_fleet::Refusal::BadUpload,
                detail: body.clone(),
            },
        ];
        for msg in samples {
            let line = protocol::encode(&msg);
            prop_assert!(!line.contains('\n'), "{}", line);
            prop_assert_eq!(protocol::decode(&line).unwrap(), msg);
        }
    }

    /// Decoding never panics on arbitrary near-JSON garbage.
    #[test]
    fn decode_is_total(line in "[a-z0-9{}\":, \\\\]{0,40}") {
        let _ = protocol::decode(&line);
    }
}

/// Every truncation of a real frame is refused with an error, never a
/// panic — the welcome frame carries the nested campaign configuration,
/// the record frame a whole record document as its body.
#[test]
fn every_prefix_of_a_frame_is_refused() {
    let record = "{\n  \"index\": 3,\n  \"status\": \"agreed\"\n}\n";
    let frames = [
        Message::Welcome {
            protocol: PROTOCOL.into(),
            fingerprint: format!("{:016x}", CampaignConfig::default().fingerprint()),
            profile: true,
            flight: false,
            metrics: true,
            config: CampaignConfig::default(),
        },
        Message::Welcome {
            protocol: PROTOCOL.into(),
            fingerprint: format!("{:016x}", CampaignConfig::default().fingerprint()),
            profile: false,
            flight: true,
            metrics: false,
            config: CampaignConfig::default(),
        },
        Message::Record {
            index: 3,
            body: record.into(),
        },
    ];
    for msg in frames {
        let line = protocol::encode(&msg);
        assert_eq!(protocol::decode(&line).unwrap(), msg);
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            assert!(protocol::decode(&line[..end]).is_err(), "{}", &line[..end]);
        }
    }
}

fn welcome(metrics: bool) -> Message {
    Message::Welcome {
        protocol: PROTOCOL.into(),
        fingerprint: format!("{:016x}", CampaignConfig::default().fingerprint()),
        profile: false,
        flight: false,
        metrics,
        config: CampaignConfig::default(),
    }
}

/// A welcome frame without `metrics` — from a controller predating the
/// field, which always folded worker events — decodes as
/// `metrics: true`, whatever value was stripped.
#[test]
fn a_welcome_without_metrics_decodes_as_recording() {
    for metrics in [false, true] {
        let line = protocol::encode(&welcome(metrics));
        let legacy = line.replace(&format!(",\"metrics\":{metrics}"), "");
        assert_ne!(legacy, line, "the encoder always writes the field");
        assert_eq!(protocol::decode(&legacy).unwrap(), welcome(true));
    }
}

/// What a scripted controller does with the worker frames it reads.
struct Script {
    config: CampaignConfig,
    profile: bool,
    flight: bool,
    metrics: bool,
    /// The leases granted, in order; then every lease request is
    /// answered `drained`.
    leases: Vec<(u32, u32)>,
    /// Refuse the record frame with this 1-based number with
    /// `bad-upload` and this detail, then close the connection.
    refuse_record: Option<(usize, &'static str)>,
}

/// Serves `script` to one worker on a localhost port: answers `hello`
/// with a welcome to its campaign, grants its leases, acknowledges
/// everything else, and returns every frame the worker sent, heartbeats
/// left out (their number depends on timing), once the worker says
/// `bye` or the script refuses a record. Like the real controller it
/// sends each answer at once (no Nagle delay), so a refusal is on the
/// wire before the close.
fn scripted_controller(script: Script) -> (SocketAddr, std::thread::JoinHandle<Vec<Message>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut framed = Framed::new(stream).unwrap();
        let mut frames = Vec::new();
        let mut leases = script.leases.into_iter();
        let mut records = 0;
        loop {
            let msg = framed.recv().unwrap();
            let reply = match &msg {
                Message::Hello { .. } => Message::Welcome {
                    protocol: PROTOCOL.into(),
                    fingerprint: format!("{:016x}", script.config.fingerprint()),
                    profile: script.profile,
                    flight: script.flight,
                    metrics: script.metrics,
                    config: script.config.clone(),
                },
                Message::LeaseRequest => match leases.next() {
                    Some((start, end)) => Message::Lease {
                        start,
                        end,
                        deadline_ms: 60_000,
                    },
                    None => Message::Drained,
                },
                Message::Record { .. } => {
                    records += 1;
                    match script.refuse_record {
                        Some((n, detail)) if n == records => Message::Error {
                            reason: Refusal::BadUpload,
                            detail: detail.into(),
                        },
                        _ => Message::Ack,
                    }
                }
                _ => Message::Ack,
            };
            framed.send(&reply).unwrap();
            let done = matches!(msg, Message::Bye) || matches!(reply, Message::Error { .. });
            if !matches!(msg, Message::Heartbeat) {
                frames.push(msg);
            }
            if done {
                return frames;
            }
        }
    });
    (addr, peer)
}

/// The frame kinds a real worker sends a scripted controller that
/// answers `hello` with `welcome(metrics)`, grants one 2-case lease,
/// acknowledges everything else and then answers `drained` —
/// heartbeats left out, since their number depends on timing.
fn scripted_lease_frames(tag: &str, metrics: bool) -> Vec<&'static str> {
    let mut config = CampaignConfig {
        seed: 1,
        cases: 2,
        ..CampaignConfig::default()
    };
    config.generator.size = 8;
    config.generator.cycles = 16;
    let (addr, peer) = scripted_controller(Script {
        config,
        profile: false,
        flight: false,
        metrics,
        leases: vec![(0, 2)],
        refuse_record: None,
    });
    let report = rtl_fleet::work(
        &addr.to_string(),
        &WorkerOptions {
            name: tag.into(),
            threads: 1,
            scratch: scratch(tag),
            ..WorkerOptions::default()
        },
    )
    .unwrap();
    assert_eq!((report.leases, report.cases), (1, 2), "{report}");
    peer.join().unwrap().iter().map(Message::kind).collect()
}

/// A worker uploads its lease's event log only when the controller
/// keeps telemetry: against a non-recording controller it sends no
/// `events` frame at all.
#[test]
fn workers_stream_events_only_to_a_recording_controller() {
    assert_eq!(
        scripted_lease_frames("scripted-quiet", false),
        [
            "hello",
            "lease-request",
            "record",
            "record",
            "lease-request",
            "bye"
        ]
    );
    assert_eq!(
        scripted_lease_frames("scripted-recording", true),
        [
            "hello",
            "lease-request",
            "record",
            "record",
            "events",
            "lease-request",
            "bye"
        ]
    );
}

/// A diverging campaign with both sidecars on, as one controller serves
/// it: two `interp,vm-fault` cases, each shrunk into a corpus entry.
fn upload_config() -> CampaignConfig {
    let mut config = CampaignConfig {
        seed: 5,
        cases: 2,
        engines: vec!["interp".into(), "vm-fault".into()],
        ..CampaignConfig::default()
    };
    config.generator.size = 8;
    config.generator.cycles = 48;
    config
}

/// A case bundle as the frames a worker uploads, record last.
fn frames(bundle: &CaseBundle) -> Vec<Message> {
    let mut frames = Vec::new();
    if let Some(body) = &bundle.profile {
        frames.push(Message::Profile {
            index: bundle.index,
            body: body.clone(),
        });
    }
    if let Some(body) = &bundle.flight {
        frames.push(Message::Flight {
            index: bundle.index,
            body: body.clone(),
        });
    }
    if let Some(entry) = &bundle.corpus {
        frames.push(Message::Corpus {
            name: entry.name.clone(),
            fingerprint: entry.fingerprint.clone(),
            files: entry.files.clone(),
        });
    }
    frames.push(Message::Record {
        index: bundle.index,
        body: bundle.record.clone(),
    });
    frames
}

/// The bundles of `config`'s cases `0..config.cases` as a
/// single-machine run with profiles and flight logs on publishes them.
fn local_bundles(tag: &str, config: &CampaignConfig) -> Vec<CaseBundle> {
    let local = CampaignDir::new(scratch(tag));
    let options = RunOptions {
        workers: 1,
        profile: true,
        flight: true,
        ..RunOptions::default()
    };
    rtl_campaign::run(&local, config, &options, &mut NoProgress).unwrap();
    let mut bundles = Vec::new();
    CaseBundle::read_range(&local, 0..config.cases, |bundle| {
        bundles.push(bundle);
        Ok(())
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(local.root());
    bundles
}

/// What a worker of two threads uploads for a diverging campaign with
/// profiles and flight logs on, served in two leases: each case's frames
/// back to back, in the order profile, flight, corpus entry, record, and
/// each body the bytes a single-machine run publishes for that case.
/// The order of the cases is left free: it is the pool's completion
/// order.
#[test]
fn a_worker_uploads_each_case_bundle_as_a_single_machine_run_publishes_it() {
    let config = CampaignConfig {
        cases: 6,
        ..upload_config()
    };
    let bundles = local_bundles("pin-local", &config);
    assert_eq!(bundles.len(), 6);
    assert!(bundles
        .iter()
        .all(|b| b.profile.is_some() && b.flight.is_some() && b.corpus.is_some()));
    let (addr, peer) = scripted_controller(Script {
        config: config.clone(),
        profile: true,
        flight: true,
        metrics: false,
        leases: vec![(0, 3), (3, 6)],
        refuse_record: None,
    });
    let report = rtl_fleet::work(
        &addr.to_string(),
        &WorkerOptions {
            name: "pin".into(),
            threads: 2,
            scratch: scratch("pin-w"),
            ..WorkerOptions::default()
        },
    )
    .unwrap();
    assert_eq!((report.leases, report.cases, report.diverged), (2, 6, 6));
    let sent = peer.join().unwrap();
    let kinds: Vec<&str> = sent.iter().map(Message::kind).collect();
    assert_eq!(kinds[..2], ["hello", "lease-request"]);
    assert_eq!(kinds[kinds.len() - 2..], ["lease-request", "bye"]);
    let uploads = &sent[2..sent.len() - 2];
    let mut seen = Vec::new();
    let mut at = 0;
    for (i, msg) in uploads.iter().enumerate() {
        match msg {
            Message::LeaseRequest => {
                assert_eq!(seen.len(), 3, "the first lease's cases come first");
                assert_eq!(at, i, "a lease request between a case's frames");
                at = i + 1;
            }
            Message::Record { index, .. } => {
                let bundle = &bundles[*index as usize];
                assert_eq!(uploads[at..=i], frames(bundle)[..], "case {index}");
                seen.push(*index);
                at = i + 1;
            }
            _ => {}
        }
    }
    assert_eq!(at, uploads.len(), "frames after the last record");
    seen.sort_unstable();
    assert_eq!(seen, (0..6).collect::<Vec<u32>>());
}

/// A controller that refuses a record in the middle of a lease and
/// closes the connection ends the session with its refusal, reason and
/// detail, whatever the worker was sending at the time: not with an I/O
/// error, and without hanging.
#[test]
fn a_refusal_in_the_middle_of_a_stream_ends_the_session_with_it() {
    let mut config = CampaignConfig {
        seed: 1,
        cases: 8,
        ..CampaignConfig::default()
    };
    config.generator.size = 8;
    config.generator.cycles = 16;
    let detail = "cases/: case 1 differs from the already-published record";
    let (addr, peer) = scripted_controller(Script {
        config,
        profile: false,
        flight: false,
        metrics: false,
        leases: vec![(0, 8)],
        refuse_record: Some((2, detail)),
    });
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let options = WorkerOptions {
            name: "refused-mid-stream".into(),
            threads: 2,
            scratch: scratch("refused-mid-stream"),
            ..WorkerOptions::default()
        };
        let _ = tx.send(rtl_fleet::work(&addr.to_string(), &options));
    });
    let outcome = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the worker hangs after a refusal");
    match outcome {
        Err(rtl_fleet::FleetError::Refused {
            reason,
            detail: got,
        }) => {
            assert_eq!(reason, Refusal::BadUpload);
            assert_eq!(got, detail);
        }
        other => panic!("{other:?}"),
    }
    let sent = peer.join().unwrap();
    let records = sent.iter().filter(|m| m.kind() == "record").count();
    assert_eq!(records, 2, "the controller stops reading at its refusal");
}

/// Sends `frames` as worker `name` and returns the refusal that ends
/// the conversation (every frame before it is acknowledged).
fn refusal(addr: SocketAddr, name: &str, frames: Vec<Message>) -> (Refusal, String) {
    let mut framed = Framed::new(TcpStream::connect(addr).unwrap()).unwrap();
    let hello = Message::Hello {
        protocol: PROTOCOL.into(),
        token: "t".into(),
        worker: name.into(),
        fingerprint: None,
        role: None,
    };
    assert_eq!(framed.call(&hello).unwrap().kind(), "welcome");
    for frame in frames {
        match framed.call(&frame).unwrap() {
            Message::Ack => {}
            Message::Error { reason, detail } => return (reason, detail),
            other => panic!("{} answered with {}", frame.kind(), other.kind()),
        }
    }
    panic!("{name}: the upload was accepted");
}

/// The files published under a controller's `cases/` and `corpus/`.
fn published(root: &std::path::Path) -> Vec<String> {
    let mut files = Vec::new();
    for sub in ["cases", "corpus"] {
        for dirent in std::fs::read_dir(root.join(sub)).into_iter().flatten() {
            files.push(format!("{sub}/{:?}", dirent.unwrap().file_name()));
        }
    }
    files
}

/// Every upload refusal the controller makes: a contradicting record
/// seed, a garbage profile, a garbage flight line, a profile to a
/// campaign that collects none, a corpus name that escapes `corpus/`,
/// a corpus upload whose claimed fingerprint mismatches its files, a
/// record naming an entry its bundle lacks, an entry its record does
/// not name, a repeated profile frame, and a fourth artifact frame
/// before a record. Each is refused as `bad-upload`, and nothing is
/// published.
#[test]
fn the_controller_refuses_every_bad_upload_and_publishes_nothing() {
    let config = upload_config();
    // The genuine bundles of case 0, from a single-machine run.
    let local = CampaignDir::new(scratch("upload-local"));
    let options = RunOptions {
        workers: 1,
        profile: true,
        flight: true,
        ..RunOptions::default()
    };
    rtl_campaign::run(&local, &config, &options, &mut NoProgress).unwrap();
    let mut read = Vec::new();
    CaseBundle::read_range(&local, 0..1, |bundle| {
        read.push(bundle);
        Ok(())
    })
    .unwrap();
    let good = read.pop().unwrap();
    assert!(good.profile.is_some() && good.flight.is_some() && good.corpus.is_some());
    let entry = good.corpus.clone().unwrap();

    let tampered = |f: &dyn Fn(&mut CaseBundle)| {
        let mut bundle = good.clone();
        f(&mut bundle);
        frames(&bundle)
    };
    let escape = tampered(&|b| {
        let corpus = b.corpus.as_mut().unwrap();
        b.record = b.record.replace(&corpus.name, "../x");
        corpus.name = "../x".into();
    });
    let unnamed = tampered(&|b| {
        let named = format!("\"corpus\": \"{}\"", entry.name);
        assert!(b.record.contains(&named), "{}", b.record);
        b.record = b.record.replace(&named, "\"corpus\": null");
    });
    // The bundle's frames with `extra` sent just before the record.
    let with_extra = |bundle: &CaseBundle, extra: Message| {
        let mut frames = frames(bundle);
        frames.insert(frames.len() - 1, extra);
        frames
    };
    let profile = Message::Profile {
        index: good.index,
        body: good.profile.clone().unwrap(),
    };
    // Profile, corpus, profile: a repeat within a bundle's three slots.
    let no_flight = CaseBundle {
        flight: None,
        ..good.clone()
    };
    let twice = with_extra(&no_flight, profile.clone());
    // Profile, flight, corpus, profile: one frame more than a bundle holds.
    let four = with_extra(&good, profile);
    let cases: Vec<(&str, bool, Vec<Message>, &str)> = vec![
        (
            "seed",
            true,
            tampered(&|b| b.record = b.record.replace("\"seed\": 5", "\"seed\": 6")),
            "the configuration derives 5",
        ),
        (
            "profile",
            true,
            tampered(&|b| b.profile = Some("garbage\n".into())),
            "case-000000.profile",
        ),
        (
            "flight",
            true,
            tampered(&|b| b.flight.as_mut().unwrap().push_str("not an event\n")),
            "case-000000.flight.jsonl",
        ),
        (
            "unwanted-profile",
            false,
            frames(&good),
            "does not collect execution profiles",
        ),
        (
            "non-canonical",
            true,
            tampered(&|b| b.record.push(' ')),
            "not in its canonical rendering",
        ),
        ("escape", true, escape, "not a plain file stem"),
        (
            "missing-entry",
            true,
            tampered(&|b| b.corpus = None),
            "which did not come with it",
        ),
        ("unnamed-entry", true, unnamed, "does not name corpus entry"),
        ("repeated-profile", true, twice, "stray or repeated profile"),
        ("beyond-bundle", true, four, "beyond a full case bundle"),
        (
            "fingerprint",
            true,
            tampered(&|b| b.corpus.as_mut().unwrap().fingerprint = "0".repeat(16)),
            "claimed fingerprint does not match the files",
        ),
    ];
    assert_ne!(entry.fingerprint, "0".repeat(16));

    for profile in [true, false] {
        let root = scratch(&format!("upload-controller-{profile}"));
        let controller = Controller::bind("127.0.0.1:0").unwrap();
        let addr = controller.local_addr().unwrap();
        let dir = CampaignDir::new(&root);
        let serve_config = config.clone();
        let serving = std::thread::spawn(move || {
            controller.serve(
                &dir,
                &serve_config,
                &ControllerOptions {
                    token: "t".into(),
                    profile,
                    flight: true,
                    ..ControllerOptions::default()
                },
                &mut NoFleetProgress,
            )
        });
        for (name, wants_profile, frames, detail) in &cases {
            if *wants_profile != profile {
                continue;
            }
            let (reason, got) = refusal(addr, name, frames.clone());
            assert_eq!(reason, Refusal::BadUpload, "{name}: {got}");
            assert!(got.contains(detail), "{name}: {got}");
            assert_eq!(published(&root), Vec::<String>::new(), "{name}");
        }
        // Drain so the serving thread exits.
        let mut worker = WorkerOptions {
            token: "t".into(),
            name: "drain".into(),
            scratch: scratch(&format!("upload-drain-{profile}")),
            ..WorkerOptions::default()
        };
        worker.threads = 1;
        rtl_fleet::work(&addr.to_string(), &worker).unwrap();
        serving.join().unwrap().unwrap();
    }
}

/// A connected pair: the framed reading end and the raw writing end.
fn framed_pair() -> (Framed, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (reader, _) = listener.accept().unwrap();
    (Framed::new(reader).unwrap(), writer)
}

/// A frame far larger than one 64 KiB read, written in small odd-sized
/// pieces with the next frame right behind it, arrives whole and in
/// order: the scan resumes where the last read left off.
#[test]
fn a_frame_split_across_many_reads_is_followed_by_the_next() {
    let big = Message::Record {
        index: 7,
        body: "x".repeat(300 * 1024),
    };
    let small = Message::Ack;
    let mut bytes = protocol::encode(&big).into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(protocol::encode(&small).as_bytes());
    bytes.push(b'\n');
    let (mut framed, mut writer) = framed_pair();
    let sender = std::thread::spawn(move || {
        for piece in bytes.chunks(7919) {
            writer.write_all(piece).unwrap();
            writer.flush().unwrap();
        }
    });
    assert_eq!(framed.recv().unwrap(), big);
    assert_eq!(framed.recv().unwrap(), small);
    sender.join().unwrap();
}

/// A thousand frames sent in one write, which reads deliver many at a
/// time, come out whole and in order.
#[test]
fn a_thousand_frames_in_one_write_come_out_whole_and_in_order() {
    let sent: Vec<Message> = (0..1000)
        .map(|index| Message::Record {
            index,
            body: format!("record {index} {}", "y".repeat(index as usize % 97)),
        })
        .collect();
    let mut bytes = Vec::new();
    for msg in &sent {
        bytes.extend_from_slice(protocol::encode(msg).as_bytes());
        bytes.push(b'\n');
    }
    let (mut framed, mut writer) = framed_pair();
    let sender = std::thread::spawn(move || writer.write_all(&bytes).unwrap());
    for msg in &sent {
        assert_eq!(&framed.recv().unwrap(), msg);
    }
    sender.join().unwrap();
}

/// A stream that never sends a newline is refused once it exceeds
/// `MAX_FRAME`, not buffered without bound.
#[test]
fn an_over_long_stream_without_a_newline_is_refused() {
    let (mut framed, mut writer) = framed_pair();
    let sender = std::thread::spawn(move || {
        let piece = vec![b'x'; 1 << 20];
        for _ in 0..=(rtl_fleet::MAX_FRAME >> 20) + 1 {
            if writer.write_all(&piece).is_err() {
                return;
            }
        }
    });
    let err = loop {
        match framed.poll() {
            Ok(protocol::Poll::Pending) => continue,
            Ok(protocol::Poll::Frame(_)) => panic!("a frame without a newline"),
            Ok(protocol::Poll::Eof) => panic!("EOF before the refusal"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains("MAX_FRAME"), "{err}");
    drop(framed);
    sender.join().unwrap();
}

/// A frame that is not UTF-8 is refused as such.
#[test]
fn a_non_utf8_frame_is_refused() {
    let (mut framed, mut writer) = framed_pair();
    writer.write_all(b"{\"kind\":\"ack\xff\"}\n").unwrap();
    let Err(err) = framed.poll() else {
        panic!("a non-UTF-8 frame must be refused");
    };
    assert!(err.to_string().contains("non-utf8"), "{err}");
}
