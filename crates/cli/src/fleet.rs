//! `asim2 fleet serve|work` — the live campaign control plane.
//!
//! `serve` owns one campaign directory and hands out leases over TCP;
//! `work` connects, executes leases through the standard campaign
//! runner, and uploads every artifact byte-verbatim. The controller's
//! finished directory — and its stdout report — are bit-identical to a
//! single-machine `asim2 campaign run` of the same configuration.

use super::{
    campaign_err, config_flags, load_err, run_flags, usage_err, verdict, write_profile_out, Args,
    CliError, ProgressReporter, Surface,
};
use rtl_campaign::{CampaignDir, CaseRecord, Progress};
use rtl_fleet::{ControllerOptions, FleetError, FleetProgress, StatusClient, WorkerOptions};
use rtl_obs::json::Json;
use rtl_obs::Histogram;
use std::io::Write;
use std::time::Duration;

pub(crate) fn fleet_cmd(
    args: &Args,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let token = args
        .value("--token")
        .ok_or_else(|| usage_err(format!("{} needs --token T", args.name)))?
        .to_string();

    match args.name {
        "fleet serve" => serve(args, token, out, err),
        "fleet work" => work(args, token, out, err),
        _ => status(args, token, out, err),
    }
}

/// Maps a fleet-layer failure onto the exit-code conventions: campaign
/// problems keep their campaign mapping, every protocol refusal and
/// transport failure is a load-class error (2), and a deliberately
/// abandoned connection is a runtime error (3).
fn fleet_err(e: FleetError) -> CliError {
    match e {
        FleetError::Campaign(c) => campaign_err(c),
        FleetError::Abandoned => CliError {
            code: 3,
            message: format!("fleet: {e}"),
        },
        other => CliError {
            code: 2,
            message: format!("fleet: {other}"),
        },
    }
}

/// Fleet-side progress: the shared campaign reporter for accepted
/// records, plus worker lifecycle lines — all on stderr, so stdout stays
/// the deterministic report.
struct FleetReporter<'a> {
    inner: ProgressReporter<'a>,
    workers_seen: u32,
    /// Heartbeat-age and lease-duration histograms, captured when the
    /// campaign drains (both in microseconds).
    histograms: Option<(Histogram, Histogram)>,
}

impl FleetProgress for FleetReporter<'_> {
    fn record_accepted(&mut self, _worker: &str, record: &CaseRecord, done: u32, total: u32) {
        self.inner.case_done(record, done, total);
    }

    fn fleet_summary(&mut self, heartbeats: &Histogram, leases: &Histogram) {
        self.histograms = Some((heartbeats.clone(), leases.clone()));
    }

    fn worker_joined(&mut self, worker: &str) {
        self.workers_seen += 1;
        if self.inner.enabled {
            let _ = writeln!(self.inner.err, "worker {worker} joined");
        }
    }

    fn worker_left(&mut self, worker: &str) {
        if self.inner.enabled {
            let _ = writeln!(self.inner.err, "worker {worker} left");
        }
    }

    fn lease_expired(&mut self, worker: &str, start: u32, end: u32) {
        if self.inner.enabled {
            let _ = writeln!(
                self.inner.err,
                "lease {start}..{end} expired (worker {worker}) — cases back in the pool"
            );
        }
    }
}

fn serve(
    args: &Args,
    token: String,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let dir = CampaignDir::new(
        args.value("--dir")
            .ok_or_else(|| usage_err("fleet serve needs --dir DIR"))?,
    );
    let config = config_flags(args)?;
    let run = run_flags(args)?;
    let mut options = ControllerOptions {
        token,
        limit: run.options.limit,
        profile: run.options.profile,
        flight: run.options.flight,
        recorder: run.options.recorder.clone(),
        ..ControllerOptions::default()
    };
    if let Some(lease) = args.number::<u64>("--lease")? {
        if lease == 0 {
            return Err(usage_err("--lease needs a positive case count"));
        }
        options.lease = u32::try_from(lease).map_err(|_| usage_err("--lease is too large"))?;
    }
    if let Some(ms) = args.number::<u64>("--lease-deadline")? {
        if ms == 0 {
            return Err(usage_err("--lease-deadline needs positive milliseconds"));
        }
        options.deadline = Duration::from_millis(ms);
    }

    let bind = args.value("--bind").unwrap_or("127.0.0.1:0");
    let controller = rtl_fleet::Controller::bind(bind)
        .map_err(|e| load_err(format!("cannot bind {bind}: {e}")))?;
    let addr = controller
        .local_addr()
        .map_err(|e| load_err(format!("cannot read bound address: {e}")))?;
    // `--port-file` publishes the OS-assigned port for scripts (written
    // only once the socket accepts connections, so a reader can connect
    // immediately).
    if let Some(path) = args.value("--port-file") {
        std::fs::write(path, format!("{}\n", addr.port()))
            .map_err(|e| load_err(format!("cannot write port file {path}: {e}")))?;
    }

    let mut reporter = FleetReporter {
        inner: run.progress(err),
        workers_seen: 0,
        histograms: None,
    };
    if reporter.inner.enabled {
        let _ = writeln!(
            reporter.inner.err,
            "fleet controller listening on {addr} (campaign {:016x})",
            config.fingerprint()
        );
    }
    let report = controller
        .serve(&dir, &config, &options, &mut reporter)
        .map_err(fleet_err)?;
    let workers_seen = reporter.workers_seen;
    let histograms = reporter.histograms.take();
    options.recorder.flush();
    write_profile_out(&dir, &report, run.profile_out)?;

    let _ = write!(out, "{report}");
    if !run.quiet {
        let secs = report.elapsed.as_secs_f64().max(1e-9);
        let _ = writeln!(
            err,
            "fleet throughput: {} cases from {} worker connection(s) in {:.2}s ({:.1} cases/s)",
            report.completed(),
            workers_seen,
            secs,
            f64::from(report.completed()) / secs,
        );
        if let Some((heartbeats, leases)) = &histograms {
            let _ = writeln!(err, "fleet heartbeat age: {}", render_histogram(heartbeats));
            let _ = writeln!(err, "fleet lease duration: {}", render_histogram(leases));
        }
    }
    verdict(Surface::Fleet(&report), err)
}

fn work(
    args: &Args,
    token: String,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let addr = args
        .value("--connect")
        .ok_or_else(|| usage_err("fleet work needs --connect HOST:PORT"))?;
    let mut options = WorkerOptions {
        token,
        ..WorkerOptions::default()
    };
    if let Some(name) = args.value("--name") {
        options.name = name.to_string();
    }
    if let Some(workers) = args.number::<u64>("--workers")? {
        if workers == 0 {
            return Err(usage_err("--workers needs a positive count"));
        }
        options.threads = workers as usize;
    }
    options.scratch = match args.value("--scratch") {
        Some(path) => path.into(),
        // A per-name default gives each worker on a host its own
        // binary cache (the scratch holds nothing else).
        None => std::env::temp_dir().join(format!("asim2-fleet-{}", options.name)),
    };
    if let Some(hex) = args.value("--fingerprint") {
        let fp = u64::from_str_radix(hex, 16).map_err(|_| {
            usage_err(format!(
                "--fingerprint needs a hex fingerprint, got {hex:?}"
            ))
        })?;
        options.pin = Some(fp);
    }
    if let Some(n) = args.number::<u64>("--abandon-after")? {
        options.abandon_after =
            Some(u32::try_from(n).map_err(|_| usage_err("--abandon-after is too large"))?);
    }

    let report = rtl_fleet::work(addr, &options).map_err(fleet_err)?;
    let _ = writeln!(out, "{report}");
    if !args.has("--quiet") && report.diverged > 0 {
        let _ = writeln!(
            err,
            "{} of this worker's cases diverged; the controller's campaign directory has \
             the records and shrunk corpus entries",
            report.diverged
        );
    }
    Ok(())
}

/// Renders a wall-clock histogram as percentile milliseconds — log₂
/// bucket upper bounds, so the figures are coarse by design.
fn render_histogram(hist: &Histogram) -> String {
    if hist.count() == 0 {
        return "no samples".into();
    }
    let ms = |p: u8| {
        hist.percentile(p)
            .map_or_else(|| "-".into(), |us| format!("<={:.1}ms", us as f64 / 1000.0))
    };
    format!(
        "p50 {} p90 {} p99 {} ({} sample(s), log2 buckets)",
        ms(50),
        ms(90),
        ms(99),
        hist.count()
    )
}

fn status(
    args: &Args,
    token: String,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let addr = args
        .value("--connect")
        .ok_or_else(|| usage_err("fleet status needs --connect HOST:PORT"))?;
    let format = args.value("--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(usage_err(format!(
            "--format must be text or json, got {format:?}"
        )));
    }
    let watch = watch_period(args)?;
    let mut client = StatusClient::connect(addr, &token).map_err(fleet_err)?;
    loop {
        match client.fetch().map_err(fleet_err)? {
            Some(body) => {
                if format == "json" {
                    let _ = write!(out, "{body}");
                } else {
                    let _ = write!(out, "{}", render_status(&body)?);
                }
            }
            None if watch.is_some() => {
                // The controller tore down between polls: the campaign
                // drained, which is the clean end of a watch.
                let _ = writeln!(err, "controller gone — campaign drained");
                return Ok(());
            }
            None => {
                return Err(load_err(
                    "fleet: controller closed the connection before answering",
                ))
            }
        }
        match watch {
            None => return Ok(()),
            Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
        }
    }
}

/// Parses `--watch` / `--watch=MS` (the bare form polls once a second).
fn watch_period(args: &Args) -> Result<Option<u64>, CliError> {
    match args.value("--watch") {
        _ if !args.has("--watch") => Ok(None),
        None => Ok(Some(1000)),
        Some(ms) => ms
            .parse()
            .map(Some)
            .map_err(|_| usage_err(format!("--watch needs milliseconds, got {ms:?}"))),
    }
}

/// Renders an `asim2-fleet-status v1` document as human-readable lines.
fn render_status(body: &str) -> Result<String, CliError> {
    let doc = Json::parse(body)
        .map_err(|e| load_err(format!("fleet: malformed status document: {e}")))?;
    let bad = || load_err("fleet: status document is missing required fields");
    let field = |key: &str| doc.get(key).and_then(Json::as_u64).ok_or_else(bad);
    if doc.get("format").and_then(Json::as_str) != Some(rtl_fleet::STATUS_FORMAT) {
        return Err(load_err(format!(
            "fleet: expected a {} document",
            rtl_fleet::STATUS_FORMAT
        )));
    }
    let fingerprint = doc
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(bad)?;
    let (cases, done) = (field("cases")?, field("done")?);
    let mut text = format!(
        "fleet campaign {fingerprint}: {done}/{cases} case(s) done, {} pending, \
         {} dispatched, {} diverged\n",
        field("pending")?,
        field("dispatched")?,
        field("diverged")?
    );
    let secs = |ms: u64| format!("{:.1}s", ms as f64 / 1000.0);
    let eta = match doc.get("eta_ms") {
        Some(Json::Null) => "unknown".into(),
        Some(v) => v.as_u64().map(secs).ok_or_else(bad)?,
        None => return Err(bad()),
    };
    text.push_str(&format!(
        "elapsed {}, eta {eta}\n",
        secs(field("elapsed_ms")?)
    ));
    let arr = |key: &str| doc.get(key).and_then(Json::as_arr).ok_or_else(bad);
    for lease in arr("leases")? {
        let sub = |k: &str| lease.get(k).and_then(Json::as_u64).ok_or_else(bad);
        text.push_str(&format!(
            "lease {}..{} -> {}: {} outstanding, deadline in {}\n",
            sub("start")?,
            sub("end")?,
            lease.get("worker").and_then(Json::as_str).ok_or_else(bad)?,
            sub("outstanding")?,
            secs(sub("deadline_ms")?)
        ));
    }
    for worker in arr("workers")? {
        let sub = |k: &str| worker.get(k).and_then(Json::as_u64).ok_or_else(bad);
        text.push_str(&format!(
            "worker {}: heartbeat {} ago, {} case(s)\n",
            worker.get("name").and_then(Json::as_str).ok_or_else(bad)?,
            secs(sub("heartbeat_age_ms")?),
            sub("cases")?
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::super::run_with_input;

    fn run_args(args: &[&str]) -> (i32, String, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run_with_input(&args, &mut &b""[..], &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asim-cli-fleet-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&dir);
        dir
    }

    /// Polls the controller's `--port-file` until it appears.
    fn wait_port(path: &std::path::Path) -> String {
        for _ in 0..500 {
            if let Ok(text) = std::fs::read_to_string(path) {
                let port = text.trim();
                if !port.is_empty() {
                    return format!("127.0.0.1:{port}");
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("controller never published its port to {}", path.display());
    }

    fn spawn_serve(args: Vec<String>) -> std::thread::JoinHandle<(i32, String, String)> {
        std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut err = Vec::new();
            let code = run_with_input(&args, &mut &b""[..], &mut out, &mut err);
            (
                code,
                String::from_utf8(out).unwrap(),
                String::from_utf8(err).unwrap(),
            )
        })
    }

    #[test]
    fn fleet_serve_matches_campaign_run_byte_for_byte() {
        let fleet_dir = tmp("serve-dir");
        let port_file = tmp("serve-port");
        let config = [
            "--cases", "6", "--seed", "3", "--cycles", "16", "--size", "8",
        ];
        let mut serve_args = vec![
            "fleet".to_string(),
            "serve".to_string(),
            "--dir".into(),
            fleet_dir.to_str().unwrap().into(),
            "--token".into(),
            "hunter2".into(),
            "--port-file".into(),
            port_file.to_str().unwrap().into(),
            "--lease".into(),
            "2".into(),
            "--quiet".into(),
        ];
        serve_args.extend(config.iter().map(|s| s.to_string()));
        let serving = spawn_serve(serve_args);

        let addr = wait_port(&port_file);
        // A worker that abandons its connection after one upload exits 3;
        // its lease returns to the pool, and the report below is still
        // the single-machine one.
        let doomed = tmp("serve-doomed");
        let (code, _, err) = run_args(&[
            "fleet",
            "work",
            "--connect",
            &addr,
            "--token",
            "hunter2",
            "--name",
            "doomed",
            "--abandon-after",
            "1",
            "--scratch",
            doomed.to_str().unwrap(),
        ]);
        assert_eq!(code, 3, "{err}");
        assert!(err.contains("abandoned mid-lease"), "{err}");
        let workers: Vec<_> = ["w1", "w2"]
            .iter()
            .map(|name| {
                let scratch = tmp(&format!("serve-{name}"));
                let args: Vec<String> = vec![
                    "fleet".into(),
                    "work".into(),
                    "--connect".into(),
                    addr.clone(),
                    "--token".into(),
                    "hunter2".into(),
                    "--name".into(),
                    (*name).into(),
                    "--workers".into(),
                    "1".into(),
                    "--scratch".into(),
                    scratch.to_str().unwrap().into(),
                ];
                spawn_serve(args)
            })
            .collect();
        for worker in workers {
            let (code, out, err) = worker.join().unwrap();
            assert_eq!(code, 0, "{err}");
            assert!(out.contains("fleet worker w"), "{out}");
        }
        let (code, fleet_out, err) = serving.join().unwrap();
        assert_eq!(code, 0, "{err}");

        // The single-machine run of the same configuration: same stdout,
        // same manifest bytes.
        let plain_dir = tmp("serve-plain");
        let mut plain_args = vec![
            "campaign",
            "run",
            "--dir",
            plain_dir.to_str().unwrap(),
            "--quiet",
        ];
        plain_args.extend_from_slice(&config);
        let (code, plain_out, err) = run_args(&plain_args);
        assert_eq!(code, 0, "{err}");
        assert_eq!(
            fleet_out, plain_out,
            "fleet stdout equals campaign run stdout"
        );
        assert_eq!(
            std::fs::read(fleet_dir.join("campaign.json")).unwrap(),
            std::fs::read(plain_dir.join("campaign.json")).unwrap(),
            "manifests are byte-identical"
        );
    }

    #[test]
    fn fleet_status_answers_mid_campaign_and_histograms_render() {
        use rtl_obs::json::Json;

        let fleet_dir = tmp("status-dir");
        let port_file = tmp("status-port");
        let serve_args: Vec<String> = [
            "fleet",
            "serve",
            "--dir",
            fleet_dir.to_str().unwrap(),
            "--token",
            "hunter2",
            "--port-file",
            port_file.to_str().unwrap(),
            "--cases",
            "4",
            "--cycles",
            "12",
            "--size",
            "8",
            "--lease",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let serving = spawn_serve(serve_args);
        let addr = wait_port(&port_file);

        // One-shot JSON status against the live (undrained) controller:
        // a valid versioned document.
        let (code, out, err) = run_args(&[
            "fleet",
            "status",
            "--connect",
            &addr,
            "--token",
            "hunter2",
            "--format",
            "json",
        ]);
        assert_eq!(code, 0, "{err}");
        let doc = Json::parse(&out).unwrap();
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some(rtl_fleet::STATUS_FORMAT),
            "{out}"
        );
        assert_eq!(doc.get("cases").and_then(Json::as_u64), Some(4), "{out}");
        assert_eq!(doc.get("done").and_then(Json::as_u64), Some(0), "{out}");
        for list in ["workers", "leases"] {
            assert_eq!(doc.get(list).and_then(Json::as_arr), Some(&[][..]), "{out}");
        }

        // The text rendering of the same answer.
        let (code, out, err) =
            run_args(&["fleet", "status", "--connect", &addr, "--token", "hunter2"]);
        assert_eq!(code, 0, "{err}");
        assert!(out.contains("fleet campaign"), "{out}");
        assert!(out.contains("0/4 case(s) done"), "{out}");

        // A status observer is refused like any peer on a bad token.
        let (code, _, err) = run_args(&["fleet", "status", "--connect", &addr, "--token", "wrong"]);
        assert_eq!(code, 2, "{err}");
        assert!(err.contains("refused: bad-token"), "{err}");

        // Drain, then check the controller's wall-clock summary renders
        // the heartbeat-age and lease-duration histograms.
        let scratch = tmp("status-w");
        let (code, _, err) = run_args(&[
            "fleet",
            "work",
            "--connect",
            &addr,
            "--token",
            "hunter2",
            "--workers",
            "1",
            "--scratch",
            scratch.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{err}");
        let (code, _, serve_err) = serving.join().unwrap();
        assert_eq!(code, 0, "{serve_err}");
        assert!(serve_err.contains("fleet heartbeat age:"), "{serve_err}");
        assert!(serve_err.contains("fleet lease duration:"), "{serve_err}");
        assert!(
            serve_err.contains("log2 buckets") || serve_err.contains("no samples"),
            "{serve_err}"
        );
    }

    #[test]
    fn fleet_refusals_exit_2_with_a_named_reason() {
        let fleet_dir = tmp("refuse-dir");
        let port_file = tmp("refuse-port");
        let serve_args: Vec<String> = [
            "fleet",
            "serve",
            "--dir",
            fleet_dir.to_str().unwrap(),
            "--token",
            "right",
            "--port-file",
            port_file.to_str().unwrap(),
            "--cases",
            "2",
            "--cycles",
            "12",
            "--size",
            "8",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let serving = spawn_serve(serve_args);
        let addr = wait_port(&port_file);

        let scratch = tmp("refuse-w");
        let (code, _, err) = run_args(&[
            "fleet",
            "work",
            "--connect",
            &addr,
            "--token",
            "wrong",
            "--scratch",
            scratch.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{err}");
        assert!(
            err.contains("fleet: refused: bad-token: shared token does not match the controller's"),
            "{err}"
        );

        // A drift-pinned worker is refused the same way.
        let (code, _, err) = run_args(&[
            "fleet",
            "work",
            "--connect",
            &addr,
            "--token",
            "right",
            "--fingerprint",
            "0000000000000000",
            "--scratch",
            scratch.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{err}");
        assert!(err.contains("fleet: refused: fingerprint-drift"), "{err}");

        // Drain the campaign so the controller exits cleanly.
        let (code, _, err) = run_args(&[
            "fleet",
            "work",
            "--connect",
            &addr,
            "--token",
            "right",
            "--workers",
            "1",
            "--scratch",
            scratch.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{err}");
        let (code, _, err) = serving.join().unwrap();
        assert_eq!(code, 0, "{err}");
    }

    #[test]
    fn fleet_usage_errors() {
        let (code, _, err) = run_args(&["fleet"]);
        assert_eq!(code, 1);
        assert!(err.contains("fleet needs a subcommand"), "{err}");
        let (code, _, err) = run_args(&["fleet", "serve", "--dir", "/tmp/x"]);
        assert_eq!(code, 1);
        assert!(err.contains("fleet serve needs --token"), "{err}");
        let (code, _, err) = run_args(&["fleet", "work", "--token", "t"]);
        assert_eq!(code, 1);
        assert!(err.contains("fleet work needs --connect"), "{err}");
        let (code, _, err) = run_args(&[
            "fleet",
            "work",
            "--connect",
            "x",
            "--token",
            "t",
            "--lease",
            "4",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("fleet work does not take --lease"), "{err}");
        let (code, _, err) = run_args(&[
            "fleet",
            "work",
            "--connect",
            "x",
            "--token",
            "t",
            "--fingerprint",
            "zz",
        ]);
        assert_eq!(code, 1);
        assert!(
            err.contains("--fingerprint needs a hex fingerprint"),
            "{err}"
        );
    }
}
