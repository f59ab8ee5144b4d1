//! The fleet worker: leases case ranges from a controller, runs each
//! with the standard `rtl-campaign` pool
//! ([`run_streamed`](rtl_campaign::run_streamed), scoped to the lease by
//! `RunOptions.case_range`), and streams every case's
//! [bundle](rtl_campaign::bundle) to the controller as it finishes,
//! byte-verbatim: profile, flight log, corpus entry, record. Case `i`
//! keeps its global index and derived seed, so the upload is exactly
//! what a single-machine run publishes.
//!
//! The worker writes no log. Its scratch directory holds only the
//! `rust` lane's binary cache, kept for the session; a worker that
//! reconnects re-runs what it had not uploaded, and the controller
//! acknowledges duplicates idempotently. Uploads are pipelined: acks
//! are read only once `WINDOW` frames are unanswered, and after a
//! lease's last frame the worker asks for the next lease and then reads
//! the acks, which the controller sends before its answer.
//!
//! The worker records telemetry only when the controller keeps it
//! (`Welcome::metrics`), and then uploads each lease's event log after
//! its bundles. Either way its cases compute the same (they lint only
//! under the config's `lint_oracle`).

use crate::error::FleetError;
use crate::protocol::{Framed, Message, PROTOCOL};
use rtl_campaign::state::CaseStatus;
use rtl_campaign::{BinaryCache, CampaignConfig, CaseBundle, CaseRecord, RunOptions};
use rtl_obs::Recorder;
use std::net::TcpStream;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The most frames a worker has sent and not seen acknowledged. This
/// many acks fit any socket buffer, so the controller's one thread never
/// blocks writing acks to a worker that is busy sending.
const WINDOW: usize = 64;

/// Worker knobs. None affect case outcomes.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The shared campaign token.
    pub token: String,
    /// This worker's fleet-unique name.
    pub name: String,
    /// Threads for the lease's local campaign pool.
    pub threads: usize,
    /// The local scratch directory. It holds only the `rust` lane's
    /// binary cache (`bin-cache/`), kept across the session's leases and
    /// across sessions; the worker writes no campaign state there.
    pub scratch: PathBuf,
    /// Refuse to work unless the controller's campaign fingerprint
    /// equals this (drift pinning; refusal happens in the handshake).
    pub pin: Option<u64>,
    /// Fault injection: deliberately drop the connection after this many
    /// record uploads, once their acks are read — the reassignment
    /// test's worker-death lever.
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

/// The worker's end of the connection: the frames it has sent and how
/// many of them still await their ack.
struct Uplink {
    framed: Framed,
    unacked: usize,
}

impl Uplink {
    /// Sends `msg`, which the controller acknowledges, reading one ack
    /// first if `WINDOW` frames are unanswered.
    fn post(&mut self, msg: &Message) -> Result<(), FleetError> {
        if self.unacked >= WINDOW {
            self.ack()?;
        }
        self.send(msg)?;
        self.unacked += 1;
        Ok(())
    }

    /// Sends `msg` and returns the controller's answer, which follows
    /// the acks of every frame posted before it.
    fn call(&mut self, msg: &Message) -> Result<Message, FleetError> {
        self.send(msg)?;
        self.drain()?;
        self.framed.recv()
    }

    /// Reads the ack of every posted frame.
    fn drain(&mut self) -> Result<(), FleetError> {
        while self.unacked > 0 {
            self.ack()?;
        }
        Ok(())
    }

    fn ack(&mut self) -> Result<(), FleetError> {
        match self.framed.recv()? {
            Message::Ack => {
                self.unacked -= 1;
                Ok(())
            }
            Message::Error { reason, detail } => Err(FleetError::Refused { reason, detail }),
            other => Err(FleetError::Protocol(format!(
                "an upload answered with {:?}",
                other.kind()
            ))),
        }
    }

    /// Sends one frame. A controller that refuses a frame closes the
    /// connection, and a frame posted after it can fail to send: then
    /// the refusal, read from the answers still on the way, is the
    /// error, not the broken pipe.
    fn send(&mut self, msg: &Message) -> Result<(), FleetError> {
        let Err(e) = self.framed.send(msg) else {
            return Ok(());
        };
        while let Ok(answer) = self.framed.recv() {
            if let Message::Error { reason, detail } = answer {
                return Err(FleetError::Refused { reason, detail });
            }
        }
        Err(FleetError::Io(e))
    }
}

/// Connects to a controller, works leases until drained, and returns a
/// session report.
///
/// # Errors
///
/// A refusal ([`FleetError::Refused`] with the controller's named
/// reason), campaign execution failure, protocol violations, or I/O.
/// [`FleetError::Abandoned`] when `abandon_after` tripped.
pub fn work(addr: &str, options: &WorkerOptions) -> Result<WorkerReport, FleetError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut link = Uplink {
        framed: Framed::new(stream)?,
        unacked: 0,
    };

    let hello = Message::Hello {
        protocol: PROTOCOL.into(),
        token: options.token.clone(),
        worker: options.name.clone(),
        fingerprint: options.pin.map(|fp| format!("{fp:016x}")),
        role: None,
    };
    let (leases, fingerprint) = match link.call(&hello)? {
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
            // One cache for the session: the `rust` lane compiles a
            // design once however many leases run it.
            let cache = Arc::new(BinaryCache::at_dir(options.scratch.join("bin-cache")));
            let leases = Leases {
                config,
                profile,
                flight,
                metrics,
                cache,
            };
            (leases, fp)
        }
        Message::Error { reason, detail } => return Err(FleetError::Refused { reason, detail }),
        other => {
            return Err(FleetError::Protocol(format!(
                "handshake answered with {:?}",
                other.kind()
            )))
        }
    };

    let mut report = WorkerReport {
        name: options.name.clone(),
        fingerprint,
        leases: 0,
        cases: 0,
        diverged: 0,
    };
    loop {
        match link.call(&Message::LeaseRequest)? {
            Message::Lease { start, end, .. } => {
                leases.run(&mut link, options, start..end, &mut report)?;
                report.leases += 1;
            }
            Message::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.min(2_000))),
            Message::Drained => {
                // A clean goodbye; tolerate a controller that has already
                // torn down by the time the ack would arrive.
                let _ = link.call(&Message::Bye);
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

/// What the controller's welcome fixes for every lease of a session.
struct Leases {
    config: CampaignConfig,
    profile: bool,
    flight: bool,
    metrics: bool,
    cache: Arc<BinaryCache>,
}

impl Leases {
    /// Runs the cases of `range`, posting each bundle as its case
    /// finishes (and a heartbeat at most once a second), then the
    /// lease's event log when the controller records.
    fn run(
        &self,
        link: &mut Uplink,
        options: &WorkerOptions,
        range: Range<u32>,
        report: &mut WorkerReport,
    ) -> Result<(), FleetError> {
        // A fresh in-memory recorder per lease, so the controller's fold
        // of the lease logs equals a single-machine run's counters.
        let (recorder, log) = if self.metrics {
            let (recorder, log) = Recorder::memory();
            (recorder, Some(log))
        } else {
            (Recorder::disabled(), None)
        };
        let run = RunOptions {
            workers: options.threads.max(1),
            limit: None,
            case_checkpoint: false,
            case_range: Some(range),
            recorder: recorder.clone(),
            profile: self.profile,
            flight: self.flight,
        };
        let mut heartbeat = Instant::now();
        let mut upload = |record: &CaseRecord, bundle: CaseBundle| -> Result<(), FleetError> {
            if heartbeat.elapsed() >= Duration::from_secs(1) {
                heartbeat = Instant::now();
                link.post(&Message::Heartbeat)?;
            }
            for msg in bundle_frames(bundle) {
                link.post(&msg)?;
            }
            report.cases += 1;
            report.diverged += u32::from(matches!(record.status, CaseStatus::Diverged { .. }));
            if options.abandon_after.is_some_and(|n| report.cases >= n) {
                // Closing a socket with unread acks resets it, which
                // could lose frames the controller has not read yet.
                link.drain()?;
                return Err(FleetError::Abandoned);
            }
            Ok(())
        };
        rtl_campaign::run_streamed(&self.config, &run, Arc::clone(&self.cache), &mut upload)?;
        recorder.flush();

        // Deterministic counters fold into the campaign-wide metrics log
        // untagged; wall-clock events go under this worker's name.
        if let Some(log) = log {
            let body = log.text();
            if !body.trim().is_empty() {
                link.post(&Message::Events { body })?;
            }
        }
        Ok(())
    }
}

/// A bundle as upload frames: profile, flight log, corpus entry, record.
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
