//! The fleet controller: owns the campaign directory, leases case ranges
//! to authenticated workers, and publishes validated uploads atomically.
//!
//! The controller is a single-threaded event loop over non-blocking
//! accepts and short-timeout reads — the protocol is strict
//! request/response, frames are small, and a lease is coarse (a worker
//! talks once per lease plus rate-limited heartbeats), so one thread
//! multiplexing every connection is simpler than a thread-per-connection
//! design and leaves nothing to lock.
//!
//! Determinism of the *directory* is inherited from the campaign layer:
//! every uploaded artifact is a pure function of `(config, index)`. A
//! connection's profile, flight and corpus frames wait in that peer's
//! pending case bundle, and its record frame commits the bundle through
//! the same [`CaseBundle::check`] and [`CaseBundle::publish`] a shard
//! merge uses — one refusal surface, and the commit order stated in
//! [`rtl_campaign::bundle`]. Determinism of the *fleet counters* holds as long
//! as every granted lease drains: grants always take the first
//! contiguous run of pending cases, so `fleet/leases_granted` and
//! `fleet/cases_dispatched` are byte-identical across worker counts and
//! across a graceful `--limit` stop + restart. A worker that dies
//! mid-lease legitimately re-dispatches its cases, and both counters
//! then count the re-dispatch too.

use crate::error::FleetError;
use crate::protocol::{Framed, Message, Poll, Refusal, PROTOCOL};
use rtl_campaign::caselog::Kind;
use rtl_campaign::state::CaseStatus;
use rtl_campaign::{
    BundleEntry, CampaignConfig, CampaignDir, CampaignReport, CaseBundle, CaseRecord, LogWriter,
};
use rtl_obs::json::Json;
use rtl_obs::{Event, Histogram, Recorder};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The retry delay handed to workers when nothing is leasable right now.
const WAIT_MS: u64 = 200;

/// Controller knobs. None of them affect case outcomes — the campaign
/// configuration alone does — so none are fingerprinted.
#[derive(Debug, Clone)]
pub struct ControllerOptions {
    /// The shared token workers must present in their handshake.
    pub token: String,
    /// Cases per lease.
    pub lease: u32,
    /// Lease liveness deadline: a lease with no record or heartbeat from
    /// its worker for this long expires back into the pool.
    pub deadline: Duration,
    /// Stop granting new leases once at least this many cases have been
    /// *dispatched*, drain the outstanding leases, and exit with the
    /// campaign incomplete (resume by serving again). Rounded up to
    /// lease granularity — which is what keeps the fleet counters
    /// byte-identical across worker counts even through a stop+restart.
    pub limit: Option<u32>,
    /// Collect per-case execution profiles (workers run with profiling
    /// and upload each case's profile).
    pub profile: bool,
    /// Arm the divergence flight recorder fleet-wide (workers run with
    /// the ring buffer armed and upload the flight log of every
    /// non-agreeing case).
    pub flight: bool,
    /// Telemetry tap (disabled by default). Deterministic fleet counters:
    /// `fleet/leases_granted`, `fleet/cases_dispatched`,
    /// `fleet/records_accepted`, `fleet/corpus_accepted`. Whether it is
    /// enabled also reaches every worker (`Welcome::metrics`): workers
    /// record and stream their lease telemetry only into an enabled
    /// recorder. It changes nothing a case computes.
    pub recorder: Recorder,
    /// How long to keep answering `Drained` after the campaign finishes,
    /// so sleeping workers can come back, learn they are done, and
    /// disconnect cleanly.
    pub grace: Duration,
}

impl Default for ControllerOptions {
    fn default() -> Self {
        ControllerOptions {
            token: String::new(),
            lease: 8,
            deadline: Duration::from_secs(30),
            limit: None,
            profile: false,
            flight: false,
            recorder: Recorder::disabled(),
            grace: Duration::from_secs(2),
        }
    }
}

/// Live fleet progress callbacks, invoked on the serving thread.
pub trait FleetProgress {
    /// A new case record was accepted and is on disk.
    fn record_accepted(&mut self, worker: &str, record: &CaseRecord, done: u32, total: u32);
    /// A worker completed its handshake.
    fn worker_joined(&mut self, _worker: &str) {}
    /// A worker disconnected (cleanly or not).
    fn worker_left(&mut self, _worker: &str) {}
    /// A lease passed its deadline and went back into the pool.
    fn lease_expired(&mut self, _worker: &str, _start: u32, _end: u32) {}
    /// The campaign drained; wall-clock shape of the run, for the final
    /// summary: heartbeat-age and lease-duration histograms (both in
    /// microseconds).
    fn fleet_summary(&mut self, _heartbeats: &Histogram, _leases: &Histogram) {}
}

/// Ignores fleet progress.
pub struct NoFleetProgress;

impl FleetProgress for NoFleetProgress {
    fn record_accepted(&mut self, _worker: &str, _record: &CaseRecord, _done: u32, _total: u32) {}
}

/// A bound fleet controller, ready to serve one campaign.
pub struct Controller {
    listener: TcpListener,
}

/// An outstanding lease.
struct Lease {
    worker: String,
    start: u32,
    end: u32,
    /// Cases in the lease still without a record.
    outstanding: BTreeSet<u32>,
    deadline: Instant,
    granted_at: Instant,
}

/// One registered worker.
struct WorkerInfo {
    last_seen: Instant,
    cases: u32,
}

/// What an authenticated connection is allowed to do.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A full worker: leases, uploads, telemetry.
    Worker,
    /// A read-only observer: status requests only. Status peers skip
    /// the duplicate-name check and never register in the worker table,
    /// so any number may watch without perturbing dispatch.
    Status,
}

/// An authenticated peer (the handshake succeeded).
struct Peer {
    name: String,
    role: Role,
    /// Remaps this peer's stream-local span ids into the controller's
    /// metrics log — ids from different workers would otherwise collide
    /// in the merged stream.
    spans: BTreeMap<u64, u64>,
    /// The artifact frames (profile, flight, corpus) of the case bundle
    /// the peer's next record frame commits.
    pending: Vec<Message>,
}

/// What the frame handler wants done with the connection.
enum Reply {
    /// Send and keep the conversation going.
    Send(Message),
    /// Send a structured refusal and close.
    Refuse(Refusal, String),
    /// Acknowledge a clean goodbye and close.
    AckAndClose,
}

/// The mutable serving state, separated from connection I/O so the event
/// loop can hold `&mut Conn` and `&mut State` at once.
struct State {
    config: CampaignConfig,
    /// The log accepted bundles are appended to.
    log: LogWriter,
    options: ControllerOptions,
    records: Vec<Option<CaseRecord>>,
    pending: BTreeSet<u32>,
    leases: Vec<Lease>,
    workers: BTreeMap<String, WorkerInfo>,
    corpus_fps: HashSet<u64>,
    new_corpus: BTreeSet<String>,
    dispatched: u64,
    started: Instant,
    /// Records already on disk when serving began — subtracted out of
    /// the ETA rate so a resumed campaign doesn't project from work it
    /// never performed.
    done_at_start: u32,
    /// Cases with a record: `done_at_start` plus every record accepted
    /// since, kept running so accepting one costs O(1).
    done: u32,
    heartbeat_hist: Histogram,
    lease_hist: Histogram,
}

/// One accepted connection.
struct Conn {
    framed: Framed,
    /// The authenticated peer, once the handshake succeeded.
    peer: Option<Peer>,
}

impl Controller {
    /// Binds the controller's listening socket (non-blocking accepts).
    ///
    /// # Errors
    ///
    /// Socket failure (address in use, permission).
    pub fn bind(addr: &str) -> io::Result<Controller> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Controller { listener })
    }

    /// The bound address (the OS-assigned port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Socket failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves the campaign in `dir` until every case has a record (or
    /// the dispatch limit is reached and drained), then returns the
    /// report — identical to what the equivalent single-machine
    /// `campaign run` reports.
    ///
    /// A directory already holding a campaign is *resumed*: its stored
    /// configuration must fingerprint-match `config`, orphaned temp
    /// files are [swept](CampaignDir::sweep_orphans), and only the
    /// missing cases are leased out. Accepted bundles are appended to the
    /// controller's own worker log, which is
    /// [compacted](CampaignDir::compact) once every case has a record.
    /// The records and the corpus fingerprints already archived come
    /// from one scan of the logs.
    ///
    /// # Errors
    ///
    /// A drifted existing campaign, corrupt state, or I/O. Worker
    /// misbehavior is never an error here — bad peers are refused and
    /// disconnected, and their leases expire back into the pool.
    pub fn serve(
        &self,
        dir: &CampaignDir,
        config: &CampaignConfig,
        options: &ControllerOptions,
        progress: &mut dyn FleetProgress,
    ) -> Result<CampaignReport, FleetError> {
        let started = Instant::now();
        let config = dir.open(config)?;
        dir.sweep_orphans()?;
        let (records, frames) = dir.scan(config.cases, 0..config.cases, &Kind::BUNDLE)?;
        let corpus_fps = frames.fingerprints().collect();
        let pending: BTreeSet<u32> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| i as u32)
            .collect();
        let done_at_start = records.iter().flatten().count() as u32;
        let mut state = State {
            config: config.clone(),
            log: LogWriter::new(dir),
            options: options.clone(),
            records,
            pending,
            leases: Vec::new(),
            workers: BTreeMap::new(),
            corpus_fps,
            new_corpus: BTreeSet::new(),
            dispatched: 0,
            started,
            done_at_start,
            done: done_at_start,
            heartbeat_hist: Histogram::new(),
            lease_hist: Histogram::new(),
        };

        let mut conns: Vec<Conn> = Vec::new();
        let mut done_at: Option<Instant> = None;
        let mut last_gauges = Instant::now();
        loop {
            // New connections.
            loop {
                match self.listener.accept() {
                    Ok((stream, _addr)) => {
                        if let Ok(conn) = prepare(stream) {
                            conns.push(conn);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(FleetError::Io(e)),
                }
            }

            // Frames. A connection is dropped on EOF, I/O failure, an
            // undecodable frame, or a refusal.
            let mut closed: Vec<usize> = Vec::new();
            for (i, conn) in conns.iter_mut().enumerate() {
                loop {
                    match conn.framed.poll() {
                        Ok(Poll::Pending) => break,
                        Ok(Poll::Eof) => {
                            closed.push(i);
                            break;
                        }
                        Err(_) => {
                            closed.push(i);
                            break;
                        }
                        Ok(Poll::Frame(line)) => {
                            let reply = match crate::protocol::decode(&line) {
                                Ok(msg) => state.handle(&mut conn.peer, msg, progress),
                                Err(e) => Reply::Refuse(
                                    Refusal::BadFrame,
                                    format!("undecodable frame: {e}"),
                                ),
                            };
                            match reply {
                                Reply::Send(msg) => {
                                    if conn.framed.send(&msg).is_err() {
                                        closed.push(i);
                                        break;
                                    }
                                }
                                Reply::Refuse(reason, detail) => {
                                    let _ = conn.framed.send(&Message::Error { reason, detail });
                                    closed.push(i);
                                    break;
                                }
                                Reply::AckAndClose => {
                                    let _ = conn.framed.send(&Message::Ack);
                                    closed.push(i);
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            for i in closed.into_iter().rev() {
                let conn = conns.swap_remove(i);
                if let Some(peer) = conn.peer {
                    if peer.role == Role::Worker {
                        state.drop_worker(&peer.name, progress);
                    }
                }
            }

            state.reap_expired(progress);

            if last_gauges.elapsed() >= Duration::from_secs(1) {
                last_gauges = Instant::now();
                state.emit_gauges();
            }

            if state.done() {
                match done_at {
                    None => done_at = Some(Instant::now()),
                    Some(at) => {
                        if conns.is_empty() || at.elapsed() >= options.grace {
                            break;
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        state.log.finish()?;
        if state.records.iter().all(Option::is_some) {
            dir.compact(config.cases)?;
        }
        options.recorder.flush();
        progress.fleet_summary(&state.heartbeat_hist, &state.lease_hist);
        Ok(CampaignReport {
            config,
            replay: None,
            records: state.records,
            new_corpus: state.new_corpus.into_iter().collect(),
            elapsed: started.elapsed(),
        })
    }
}

/// Saturating microsecond cast for histogram samples.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Configures a freshly accepted stream: short read timeouts so the
/// event loop never blocks on one peer, and no Nagle delay (frames are
/// tiny and latency-sensitive).
fn prepare(stream: TcpStream) -> io::Result<Conn> {
    stream.set_read_timeout(Some(Duration::from_millis(5)))?;
    let _ = stream.set_nodelay(true);
    Ok(Conn {
        framed: Framed::new(stream)?,
        peer: None,
    })
}

impl State {
    fn handle(
        &mut self,
        who: &mut Option<Peer>,
        msg: Message,
        progress: &mut dyn FleetProgress,
    ) -> Reply {
        if who.is_none() {
            // The handshake: nothing but hello is meaningful yet.
            return match msg {
                Message::Hello {
                    protocol,
                    token,
                    worker,
                    fingerprint,
                    role,
                } => self.handle_hello(who, &protocol, &token, worker, fingerprint, role, progress),
                _ => Reply::Refuse(Refusal::BadFrame, "the first frame must be hello".into()),
            };
        }
        let peer = who.as_mut().expect("peer authenticated above");
        if peer.role == Role::Worker {
            // A heartbeat samples the age histogram *before* the refresh:
            // the measured gap is the distance between liveness signals.
            if matches!(msg, Message::Heartbeat) {
                if let Some(info) = self.workers.get(&peer.name) {
                    self.heartbeat_hist.record(micros(info.last_seen.elapsed()));
                }
            }
            self.touch(&peer.name);
        }
        match msg {
            Message::Hello { .. } => Reply::Refuse(
                Refusal::BadFrame,
                "hello arrived twice on one connection".into(),
            ),
            Message::StatusRequest => Reply::Send(Message::Status {
                body: self.status_document(),
            }),
            Message::Bye => Reply::AckAndClose,
            _ if peer.role == Role::Status => Reply::Refuse(
                Refusal::BadFrame,
                "a status connection is read-only: only status-request and bye are accepted".into(),
            ),
            Message::LeaseRequest => self.handle_lease_request(&peer.name),
            Message::Heartbeat => Reply::Send(Message::Ack),
            Message::Record { index, body } => {
                let pending = std::mem::take(&mut peer.pending);
                self.handle_record(&peer.name, index, body, pending, progress)
            }
            // A bundle holds at most a profile, a flight log and a corpus
            // entry; anything more before a record is a broken peer.
            Message::Profile { .. } | Message::Flight { .. } | Message::Corpus { .. }
                if peer.pending.len() >= 3 =>
            {
                Reply::Refuse(
                    Refusal::BadUpload,
                    format!("{} frame beyond a full case bundle", msg.kind()),
                )
            }
            Message::Profile { .. } | Message::Flight { .. } | Message::Corpus { .. } => {
                peer.pending.push(msg);
                Reply::Send(Message::Ack)
            }
            Message::Events { body } => {
                let name = peer.name.clone();
                self.handle_events(&name, &mut peer.spans, &body)
            }
            Message::Welcome { .. }
            | Message::Lease { .. }
            | Message::Wait { .. }
            | Message::Drained
            | Message::Ack
            | Message::Status { .. }
            | Message::Error { .. } => Reply::Refuse(
                Refusal::BadFrame,
                "controller-to-worker frame arrived from a worker".into(),
            ),
        }
    }

    /// The handshake refusal matrix, checked in its documented order:
    /// protocol version, token, unknown role, pinned fingerprint,
    /// duplicate name (the last skipped for read-only status peers).
    #[allow(clippy::too_many_arguments)]
    fn handle_hello(
        &mut self,
        who: &mut Option<Peer>,
        protocol: &str,
        token: &str,
        worker: String,
        fingerprint: Option<String>,
        role: Option<String>,
        progress: &mut dyn FleetProgress,
    ) -> Reply {
        if protocol != PROTOCOL {
            return Reply::Refuse(
                Refusal::ProtocolMismatch,
                format!("this controller speaks {PROTOCOL}"),
            );
        }
        if token != self.options.token {
            return Reply::Refuse(
                Refusal::BadToken,
                "shared token does not match the controller's".into(),
            );
        }
        let role = match role.as_deref() {
            None => Role::Worker,
            Some("status") => Role::Status,
            Some(other) => {
                return Reply::Refuse(
                    Refusal::BadFrame,
                    format!("unknown hello role {other:?} (this controller knows \"status\")"),
                )
            }
        };
        let fp = self.config.fingerprint();
        if let Some(pinned) = fingerprint {
            if u64::from_str_radix(&pinned, 16) != Ok(fp) {
                return Reply::Refuse(
                    Refusal::FingerprintDrift,
                    format!("controller campaign fingerprint is {fp:016x}"),
                );
            }
        }
        if role == Role::Worker {
            if self.workers.contains_key(&worker) {
                return Reply::Refuse(
                    Refusal::DuplicateWorker,
                    format!("a worker named {worker:?} is already connected"),
                );
            }
            self.workers.insert(
                worker.clone(),
                WorkerInfo {
                    last_seen: Instant::now(),
                    cases: 0,
                },
            );
            self.options
                .recorder
                .gauge("fleet", "workers_connected", self.workers.len() as u64);
            self.options
                .recorder
                .mark("fleet", "worker_joined", Some(&worker));
            progress.worker_joined(&worker);
        }
        *who = Some(Peer {
            name: worker,
            role,
            spans: BTreeMap::new(),
            pending: Vec::new(),
        });
        Reply::Send(Message::Welcome {
            protocol: PROTOCOL.into(),
            fingerprint: format!("{fp:016x}"),
            profile: self.options.profile,
            flight: self.options.flight,
            metrics: self.options.recorder.enabled(),
            config: self.config.clone(),
        })
    }

    fn handle_lease_request(&mut self, worker: &str) -> Reply {
        if self.done() {
            return Reply::Send(Message::Drained);
        }
        let limit_reached = self
            .options
            .limit
            .is_some_and(|limit| self.dispatched >= u64::from(limit));
        if limit_reached || self.pending.is_empty() {
            // Everything is out with other workers (or granting has
            // stopped); the worker retries after a nap.
            return Reply::Send(Message::Wait { ms: WAIT_MS });
        }
        // First contiguous run of pending cases, capped at the lease
        // size. Grants depend only on the grant *sequence*, never on
        // which worker asks — the root of counter determinism.
        let size = self.options.lease.max(1);
        let start = *self.pending.iter().next().expect("pending is non-empty");
        let mut end = start + 1;
        while end - start < size && self.pending.contains(&end) {
            end += 1;
        }
        let outstanding: BTreeSet<u32> = (start..end).collect();
        for index in &outstanding {
            self.pending.remove(index);
        }
        self.dispatched += u64::from(end - start);
        self.options.recorder.count("fleet", "leases_granted", 1);
        self.options
            .recorder
            .count("fleet", "cases_dispatched", u64::from(end - start));
        self.leases.push(Lease {
            worker: worker.to_string(),
            start,
            end,
            outstanding,
            deadline: Instant::now() + self.options.deadline,
            granted_at: Instant::now(),
        });
        Reply::Send(Message::Lease {
            start,
            end,
            deadline_ms: u64::try_from(self.options.deadline.as_millis()).unwrap_or(u64::MAX),
        })
    }

    /// Commits one case: the record frame plus the peer's pending
    /// artifact frames, checked and published as one bundle.
    fn handle_record(
        &mut self,
        worker: &str,
        index: u32,
        body: String,
        pending: Vec<Message>,
        progress: &mut dyn FleetProgress,
    ) -> Reply {
        if let Some(Some(published)) = self.records.get(index as usize) {
            // Idempotent duplicate — a reassigned lease whose original
            // worker got there first, or a replayed upload after a
            // reconnect. `CaseBundle::check` let only the canonical
            // rendering be published, so that rendering is the published
            // frame's bytes; a different record contradicts the
            // determinism contract.
            if published.to_json().render() != body {
                return Reply::Refuse(
                    Refusal::BadUpload,
                    format!("case {index} differs from the already-published record"),
                );
            }
            return Reply::Send(Message::Ack);
        }
        let mut bundle = CaseBundle {
            index,
            record: body,
            profile: None,
            flight: None,
            corpus: None,
        };
        for frame in pending {
            let slot = match frame {
                Message::Profile { index: i, body } if i == index => {
                    bundle.profile.replace(body).map(|_| "profile")
                }
                Message::Flight { index: i, body } if i == index => {
                    bundle.flight.replace(body).map(|_| "flight")
                }
                Message::Corpus {
                    name,
                    fingerprint,
                    files,
                } => bundle
                    .corpus
                    .replace(BundleEntry {
                        name,
                        fingerprint,
                        files,
                    })
                    .map(|_| "corpus"),
                other => Some(other.kind()),
            };
            if let Some(kind) = slot {
                return Reply::Refuse(
                    Refusal::BadUpload,
                    format!("a stray or repeated {kind} frame came before case {index}'s record"),
                );
            }
        }
        let (record, corpus_fp) =
            match bundle.check(&self.config, self.options.profile, self.options.flight) {
                Ok(checked) => checked,
                Err(e) => return Reply::Refuse(Refusal::BadUpload, e),
            };
        // Another worker may have archived the same scenario already.
        let fresh_corpus = corpus_fp.filter(|&fp| !self.corpus_fps.contains(&fp));
        if fresh_corpus.is_none() {
            bundle.corpus = None;
        }
        if let Err(e) = bundle.publish(&mut self.log) {
            // A publication failure is the controller's problem, not the
            // worker's — but the conversation cannot meaningfully go on.
            return Reply::Refuse(Refusal::BadUpload, format!("publication failed: {e}"));
        }
        if let (Some(fp), Some(entry)) = (fresh_corpus, bundle.corpus) {
            self.corpus_fps.insert(fp);
            self.new_corpus.insert(entry.name);
            self.options.recorder.count("fleet", "corpus_accepted", 1);
        }
        self.records[index as usize] = Some(record.clone());
        self.done += 1;
        self.pending.remove(&index);
        for lease in &mut self.leases {
            lease.outstanding.remove(&index);
        }
        let (drained, kept): (Vec<Lease>, Vec<Lease>) = std::mem::take(&mut self.leases)
            .into_iter()
            .partition(|l| l.outstanding.is_empty());
        self.leases = kept;
        for lease in drained {
            self.lease_hist.record(micros(lease.granted_at.elapsed()));
        }
        self.options.recorder.count("fleet", "records_accepted", 1);
        if let Some(info) = self.workers.get_mut(worker) {
            info.cases += 1;
        }
        progress.record_accepted(worker, &record, self.done, self.config.cases);
        Reply::Send(Message::Ack)
    }

    /// Folds a worker's streamed `asim2-events v1` log into the
    /// controller's metrics tap. Deterministic counters fold *untagged*
    /// — the controller-side totals must be byte-identical to a
    /// single-machine run's, and which worker executed a case is
    /// wall-clock trivia. Wall-clock events are re-emitted under
    /// `{worker}/{src}` provenance with span ids remapped into the
    /// controller's stream.
    fn handle_events(&mut self, worker: &str, spans: &mut BTreeMap<u64, u64>, body: &str) -> Reply {
        let mut events = Vec::new();
        for line in body.lines().filter(|l| !l.trim().is_empty()) {
            match Event::parse(line) {
                Ok(event) => events.push(event),
                Err(e) => return Reply::Refuse(Refusal::BadUpload, format!("events upload: {e}")),
            }
        }
        let recorder = &self.options.recorder;
        for event in events {
            match event {
                Event::Meta { .. } => {}
                Event::Counter { src, key, n } => recorder.count(&src, &key, n),
                Event::Gauge { src, key, value } => recorder.forward(&Event::Gauge {
                    src: format!("{worker}/{src}"),
                    key,
                    value,
                }),
                Event::Mark { src, key, detail } => recorder.forward(&Event::Mark {
                    src: format!("{worker}/{src}"),
                    key,
                    detail,
                }),
                Event::SpanEnter { src, key, id } => {
                    let mapped = recorder.span_id();
                    spans.insert(id, mapped);
                    recorder.forward(&Event::SpanEnter {
                        src: format!("{worker}/{src}"),
                        key,
                        id: mapped,
                    });
                }
                Event::SpanExit {
                    src,
                    key,
                    id,
                    micros,
                } => {
                    let mapped = spans.remove(&id).unwrap_or_else(|| recorder.span_id());
                    recorder.forward(&Event::SpanExit {
                        src: format!("{worker}/{src}"),
                        key,
                        id: mapped,
                        micros,
                    });
                }
            }
        }
        Reply::Send(Message::Ack)
    }

    /// Refreshes a worker's liveness and pushes its lease deadlines out.
    fn touch(&mut self, worker: &str) {
        let now = Instant::now();
        if let Some(info) = self.workers.get_mut(worker) {
            info.last_seen = now;
        }
        for lease in &mut self.leases {
            if lease.worker == worker {
                lease.deadline = now + self.options.deadline;
            }
        }
    }

    /// Releases a disconnected worker's leases back into the pool.
    fn drop_worker(&mut self, worker: &str, progress: &mut dyn FleetProgress) {
        self.workers.remove(worker);
        self.options
            .recorder
            .gauge("fleet", "workers_connected", self.workers.len() as u64);
        self.options
            .recorder
            .mark("fleet", "worker_left", Some(worker));
        progress.worker_left(worker);
        let (released, kept): (Vec<Lease>, Vec<Lease>) = std::mem::take(&mut self.leases)
            .into_iter()
            .partition(|l| l.worker == worker);
        self.leases = kept;
        for lease in released {
            self.pending.extend(&lease.outstanding);
        }
    }

    /// Expires overdue leases back into the pool (a worker that is
    /// half-dead — connected but silent past the deadline).
    fn reap_expired(&mut self, progress: &mut dyn FleetProgress) {
        let now = Instant::now();
        let (expired, kept): (Vec<Lease>, Vec<Lease>) = std::mem::take(&mut self.leases)
            .into_iter()
            .partition(|l| l.deadline <= now);
        self.leases = kept;
        for lease in expired {
            self.options.recorder.mark(
                "fleet",
                "lease_expired",
                Some(&format!("{} {}..{}", lease.worker, lease.start, lease.end)),
            );
            progress.lease_expired(&lease.worker, lease.start, lease.end);
            self.pending.extend(&lease.outstanding);
        }
    }

    /// Renders the `asim2-fleet-status v1` document answered to
    /// `status-request` frames: campaign identity and totals, the
    /// dispatch picture (outstanding leases with their deadlines), the
    /// connected workers with heartbeat ages and throughput counts, and
    /// a straight-line ETA from this serve's own completion rate
    /// (`null` until at least one case has finished here).
    fn status_document(&self) -> String {
        let now = Instant::now();
        let done = self.done;
        let diverged = self
            .records
            .iter()
            .flatten()
            .filter(|r| matches!(r.status, CaseStatus::Diverged { .. }))
            .count();
        let elapsed_ms = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let fresh = u64::from(done.saturating_sub(self.done_at_start));
        let remaining = u64::from(self.config.cases - done);
        let eta_ms = if remaining == 0 {
            Json::num(0)
        } else if fresh == 0 || elapsed_ms == 0 {
            Json::Null
        } else {
            Json::num(elapsed_ms.saturating_mul(remaining) / fresh)
        };
        let leases: Vec<Json> = self
            .leases
            .iter()
            .map(|l| {
                let deadline_ms = l.deadline.saturating_duration_since(now).as_millis();
                Json::Obj(vec![
                    ("worker".into(), Json::str(l.worker.clone())),
                    ("start".into(), Json::num(l.start)),
                    ("end".into(), Json::num(l.end)),
                    ("outstanding".into(), Json::num(l.outstanding.len())),
                    (
                        "deadline_ms".into(),
                        Json::num(u64::try_from(deadline_ms).unwrap_or(u64::MAX)),
                    ),
                ])
            })
            .collect();
        let workers: Vec<Json> = self
            .workers
            .iter()
            .map(|(name, info)| {
                let age_ms = info.last_seen.elapsed().as_millis();
                Json::Obj(vec![
                    ("name".into(), Json::str(name.clone())),
                    (
                        "heartbeat_age_ms".into(),
                        Json::num(u64::try_from(age_ms).unwrap_or(u64::MAX)),
                    ),
                    ("cases".into(), Json::num(info.cases)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("format".into(), Json::str("asim2-fleet-status v1")),
            (
                "fingerprint".into(),
                Json::str(format!("{:016x}", self.config.fingerprint())),
            ),
            ("cases".into(), Json::num(self.config.cases)),
            ("done".into(), Json::num(done)),
            ("pending".into(), Json::num(self.pending.len())),
            ("dispatched".into(), Json::num(self.dispatched)),
            ("diverged".into(), Json::num(diverged)),
            ("elapsed_ms".into(), Json::num(elapsed_ms)),
            ("eta_ms".into(), eta_ms),
            ("leases".into(), Json::Arr(leases)),
            ("workers".into(), Json::Arr(workers)),
        ])
        .render()
    }

    fn emit_gauges(&self) {
        if !self.options.recorder.enabled() {
            return;
        }
        self.options
            .recorder
            .gauge("fleet", "workers_connected", self.workers.len() as u64);
        let age = self
            .workers
            .values()
            .map(|w| w.last_seen.elapsed().as_millis())
            .max()
            .unwrap_or(0);
        self.options.recorder.gauge(
            "fleet",
            "heartbeat_age_ms",
            u64::try_from(age).unwrap_or(u64::MAX),
        );
    }

    /// The campaign needs nothing further: every case has a record, or
    /// granting stopped at the dispatch limit and the outstanding leases
    /// drained.
    fn done(&self) -> bool {
        if !self.leases.is_empty() {
            return false;
        }
        let limit_reached = self
            .options
            .limit
            .is_some_and(|limit| self.dispatched >= u64::from(limit));
        self.pending.is_empty() || limit_reached
    }
}
