//! Protocol golden tests: the versioned handshake refusal matrix with
//! byte-stable error frames, and frame round-trip properties.

use proptest::prelude::*;
use rtl_campaign::{CampaignConfig, CampaignDir, NoProgress, RunOptions};
use rtl_fleet::protocol::{self, CorpusFiles, CounterDelta, Message};
use rtl_fleet::{Controller, ControllerOptions, NoFleetProgress, WorkerOptions, PROTOCOL};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
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
            Message::Metrics {
                counters: vec![CounterDelta { src: token.clone(), key: worker.clone(), n }],
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
            config: CampaignConfig::default(),
        },
        Message::Record {
            index: 3,
            body: record.into(),
        },
        Message::Metrics {
            counters: vec![CounterDelta {
                src: "campaign".into(),
                key: "cases_executed".into(),
                n: u64::MAX,
            }],
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
