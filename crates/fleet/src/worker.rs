//! The fleet worker: leases case ranges from a controller, executes them
//! with the standard `rtl-campaign` pool in a local scratch directory,
//! and uploads every case's [bundle](rtl_campaign::bundle) byte-verbatim,
//! its frames in the commit order that module states, record last.
//!
//! The worker is deliberately thin. All execution — engine registries,
//! per-case seeds, shrinking, profiling — is the campaign runner's,
//! scoped to the lease via `RunOptions.case_range`, so case `i` keeps
//! its global index and derived seed and the uploaded record is the
//! exact file a single-machine run would have published. The scratch
//! directory is a normal campaign directory (resumable, inspectable) and
//! survives reconnects: the records of a lease cut short are simply
//! re-uploaded, which the controller acknowledges idempotently.
//!
//! A lease costs what a single-machine run of its cases costs. The
//! worker records telemetry only when the controller keeps it
//! (`Welcome::metrics`): otherwise the lease runs with a disabled
//! recorder and uploads no event log. Either way its cases compute the
//! same (they lint only under the config's `lint_oracle`).
//! The scratch never owns a whole campaign, so its logs are never
//! compacted; instead, once a lease's uploads are acknowledged, the
//! worker removes them. A lease's resume and upload so scan only the
//! logs of that lease (and of one cut short before it), however many
//! leases the session has run.

use crate::error::FleetError;
use crate::protocol::{Framed, Message, PROTOCOL};
use rtl_campaign::state::CaseStatus;
use rtl_campaign::{CampaignDir, CampaignError, CaseBundle, CaseRecord, Progress, RunOptions};
use rtl_obs::Recorder;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker knobs. None affect case outcomes.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The shared campaign token.
    pub token: String,
    /// This worker's fleet-unique name.
    pub name: String,
    /// Threads for the lease's local campaign pool.
    pub threads: usize,
    /// The local scratch campaign directory (created on first lease,
    /// validated against the controller's fingerprint on reuse).
    pub scratch: PathBuf,
    /// Refuse to work unless the controller's campaign fingerprint
    /// equals this (drift pinning; refusal happens in the handshake).
    pub pin: Option<u64>,
    /// Fault injection: deliberately drop the connection after this many
    /// record uploads — the reassignment test's worker-death lever.
    pub abandon_after: Option<u32>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            token: String::new(),
            name: "worker".into(),
            threads: 2,
            scratch: std::env::temp_dir().join("asim2-fleet-scratch"),
            pin: None,
            abandon_after: None,
        }
    }
}

/// What one worker session accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// The worker's name.
    pub name: String,
    /// The campaign fingerprint worked on.
    pub fingerprint: u64,
    /// Leases completed.
    pub leases: u32,
    /// Case records uploaded (including idempotent re-uploads).
    pub cases: u32,
    /// Uploaded cases whose lanes diverged.
    pub diverged: u32,
}

impl std::fmt::Display for WorkerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet worker {}: {} lease(s), {} case(s) uploaded, {} diverged \
             (campaign {:016x})",
            self.name, self.leases, self.cases, self.diverged, self.fingerprint
        )
    }
}

/// Rate-limited liveness signals sent from inside the lease's campaign
/// run (the `Progress` callback runs on the calling thread, so the
/// request/response conversation stays strictly sequential).
struct HeartbeatProgress<'a> {
    framed: &'a mut Framed,
    last: Instant,
    error: Option<FleetError>,
}

impl Progress for HeartbeatProgress<'_> {
    fn case_done(&mut self, _record: &CaseRecord, _done: u32, _total: u32) {
        if self.error.is_some() || self.last.elapsed() < Duration::from_secs(1) {
            return;
        }
        self.last = Instant::now();
        match self.framed.call(&Message::Heartbeat) {
            Ok(Message::Ack) => {}
            Ok(Message::Error { reason, detail }) => {
                self.error = Some(FleetError::Refused { reason, detail });
            }
            Ok(other) => {
                self.error = Some(FleetError::Protocol(format!(
                    "heartbeat answered with {:?}",
                    other.kind()
                )));
            }
            Err(e) => self.error = Some(e),
        }
    }
}

/// Connects to a controller, works leases until drained, and returns a
/// session report.
///
/// # Errors
///
/// A handshake refusal ([`FleetError::Refused`] with the controller's
/// named reason), a drifted scratch directory, campaign execution
/// failure, protocol violations, or I/O. [`FleetError::Abandoned`] when
/// `abandon_after` tripped.
pub fn work(addr: &str, options: &WorkerOptions) -> Result<WorkerReport, FleetError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut framed = Framed::new(stream)?;

    let hello = Message::Hello {
        protocol: PROTOCOL.into(),
        token: options.token.clone(),
        worker: options.name.clone(),
        fingerprint: options.pin.map(|fp| format!("{fp:016x}")),
        role: None,
    };
    let (config, profile, flight, metrics, fingerprint) = match framed.call(&hello)? {
        Message::Welcome {
            fingerprint,
            profile,
            flight,
            metrics,
            config,
            ..
        } => {
            let fp = config.fingerprint();
            if u64::from_str_radix(&fingerprint, 16) != Ok(fp) {
                return Err(FleetError::Protocol(
                    "controller's fingerprint does not match its own configuration".into(),
                ));
            }
            (config, profile, flight, metrics, fp)
        }
        Message::Error { reason, detail } => return Err(FleetError::Refused { reason, detail }),
        other => {
            return Err(FleetError::Protocol(format!(
                "handshake answered with {:?}",
                other.kind()
            )))
        }
    };

    // The scratch is a normal campaign directory pinned to the
    // controller's configuration; a drifted leftover is refused, not
    // silently overwritten, and a killed predecessor's temp files are
    // swept.
    let dir = CampaignDir::new(&options.scratch);
    dir.open(&config)?;
    dir.sweep_orphans()?;

    let mut report = WorkerReport {
        name: options.name.clone(),
        fingerprint,
        leases: 0,
        cases: 0,
        diverged: 0,
    };
    let mut uploads = 0u32;
    loop {
        match framed.call(&Message::LeaseRequest)? {
            Message::Lease { start, end, .. } => {
                run_lease(
                    &mut framed,
                    &dir,
                    options,
                    profile,
                    flight,
                    metrics,
                    start,
                    end,
                    &mut uploads,
                    &mut report,
                )?;
                report.leases += 1;
            }
            Message::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.min(2_000))),
            Message::Drained => {
                // A clean goodbye; tolerate a controller that has already
                // torn down by the time the ack would arrive.
                let _ = framed.call(&Message::Bye);
                return Ok(report);
            }
            Message::Error { reason, detail } => {
                return Err(FleetError::Refused { reason, detail })
            }
            other => {
                return Err(FleetError::Protocol(format!(
                    "lease request answered with {:?}",
                    other.kind()
                )))
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_lease(
    framed: &mut Framed,
    dir: &CampaignDir,
    options: &WorkerOptions,
    profile: bool,
    flight: bool,
    metrics: bool,
    start: u32,
    end: u32,
    uploads: &mut u32,
    report: &mut WorkerReport,
) -> Result<(), FleetError> {
    // For a recording controller, a fresh in-memory recorder per lease:
    // its full event log is this lease's telemetry, streamed to the
    // controller afterwards so the controller-side counter fold equals a
    // single-machine run's. Otherwise nothing is recorded, as in a
    // recorder-less single-machine run.
    let (recorder, log) = if metrics {
        let (recorder, log) = Recorder::memory();
        (recorder, Some(log))
    } else {
        (Recorder::disabled(), None)
    };
    let run = RunOptions {
        workers: options.threads.max(1),
        limit: None,
        case_checkpoint: false,
        case_range: Some(start..end),
        recorder: recorder.clone(),
        profile,
        flight,
    };
    let mut hb = HeartbeatProgress {
        framed,
        last: Instant::now(),
        error: None,
    };
    let lease_report = rtl_campaign::resume(dir, &run, &mut hb)?;
    if let Some(e) = hb.error.take() {
        return Err(e);
    }
    recorder.flush();

    // Upload each case's bundle byte-verbatim from disk — the same
    // record, profile, flight and corpus bodies a single-machine run
    // publishes, so the controller's directory diffs clean. One scan of
    // the scratch's logs reads the lease's bundles.
    let mut bundles: Vec<Option<CaseBundle>> = (start..end).map(|_| None).collect();
    CaseBundle::read_range(dir, start..end, |bundle| {
        let slot = (bundle.index - start) as usize;
        bundles[slot] = Some(bundle);
        Ok(())
    })?;
    for (index, bundle) in (start..end).zip(bundles) {
        let mut bundle = bundle.ok_or_else(|| {
            CampaignError::Corrupt(format!("case {index} has no record after its lease ran"))
        })?;
        // A reused scratch may hold profiles or flight logs this
        // controller does not collect.
        bundle.profile = bundle.profile.filter(|_| profile);
        bundle.flight = bundle.flight.filter(|_| flight);
        if let Some(Some(record)) = lease_report.records.get(index as usize) {
            if matches!(record.status, CaseStatus::Diverged { .. }) {
                report.diverged += 1;
            }
        }
        for msg in bundle_frames(bundle) {
            expect_ack(framed, &msg)?;
        }
        *uploads += 1;
        report.cases += 1;
        if options.abandon_after.is_some_and(|n| *uploads >= n) {
            return Err(FleetError::Abandoned);
        }
    }

    // The lease's full local event log, streamed to the controller:
    // deterministic counters fold into the campaign-wide metrics log
    // untagged, wall-clock events are re-emitted under this worker's
    // provenance.
    if let Some(log) = log {
        let body = log.text();
        if !body.trim().is_empty() {
            expect_ack(framed, &Message::Events { body })?;
        }
    }

    // The controller now holds every bundle of the lease, so the
    // scratch drops its worker logs: the next
    // lease scans only its own, however long the session. Were this
    // range leased here again, its cases would re-run to the same bytes.
    dir.remove_worker_logs()?;
    Ok(())
}

/// A bundle as upload frames, in its commit order.
fn bundle_frames(bundle: CaseBundle) -> Vec<Message> {
    let CaseBundle {
        index,
        record,
        profile,
        flight,
        corpus,
    } = bundle;
    let mut frames = Vec::with_capacity(4);
    frames.extend(profile.map(|body| Message::Profile { index, body }));
    frames.extend(flight.map(|body| Message::Flight { index, body }));
    frames.extend(corpus.map(|entry| Message::Corpus {
        name: entry.name,
        fingerprint: entry.fingerprint,
        files: entry.files,
    }));
    frames.push(Message::Record {
        index,
        body: record,
    });
    frames
}

fn expect_ack(framed: &mut Framed, msg: &Message) -> Result<(), FleetError> {
    match framed.call(msg)? {
        Message::Ack => Ok(()),
        Message::Error { reason, detail } => Err(FleetError::Refused { reason, detail }),
        other => Err(FleetError::Protocol(format!(
            "{} upload answered with {:?}",
            msg.kind(),
            other.kind()
        ))),
    }
}
