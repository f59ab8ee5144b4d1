//! Case bundles and corpus entries in append-only logs.
//!
//! A campaign publishes a case by appending its **bundle** — the corpus
//! entry its record names, its profile and flight log when it has them,
//! and its record — to a log, in one write, not by creating files: a
//! create costs tens of microseconds to a millisecond of system time on
//! a busy disk, an append a few.
//!
//! ```text
//! cases/worker-N.log     — the bundles one writer appended, in completion order, and
//!                          at most one case checkpoint, at its tail
//! cases/cases.log        — the canonical case log: each case's profile, flight and record frames, by index
//! corpus/corpus.log      — the canonical corpus log: one frame per entry, by name
//! */worker-pID-….log     — what one process published outside a run (see below)
//! ```
//!
//! **Frame.** A 20-byte little-endian header — body length (`u32`),
//! [`Kind`] (`u32`), key (`u32`), checksum (`u64`) — then the body. A
//! record, profile, flight or checkpoint frame is keyed by its case
//! index; its body is the record's canonical JSON text
//! ([`CaseRecord::to_json`](crate::CaseRecord::to_json) rendered), the
//! profile, the flight log or a [`CaseCheckpoint`]. A corpus frame is
//! keyed 0, and its body leads with the entry's fingerprint, then the
//! entry's name and four documents
//! ([`corpus::encode_entry`](crate::corpus::encode_entry)). The
//! checksum is a [`Fingerprint`] of the kind, the key and the body. No
//! body may exceed [`FRAME_CAP`] bytes; the reader checks a frame's
//! length against the cap, and its kind, before it allocates anything.
//!
//! **Writers.** Each case-running thread owns a [`LogWriter`], which
//! creates a fresh `cases/worker-N.log` at its first bundle and never
//! appends to a log it did not create. It `fdatasync`s its log every
//! [`SYNC_EVERY`] bundles and when it finishes, and syncs `cases/` at its
//! first sync, so the log's name survives an OS crash too. A process kill
//! loses nothing that was appended. Under `--case-checkpoint` a writer
//! also appends its in-flight case's lockstep checkpoints
//! ([`LogWriter::checkpoint`]), unsynced, as a checkpoint only saves
//! work: it keeps at most one checkpoint frame, at its log's tail, and
//! cuts it off before it appends the next one or the case's bundle, so
//! an uninterrupted run's log is a plain run's.
//! [`CampaignDir::write_case`] and [`corpus::save`](crate::corpus::save),
//! for what is published outside a run, append one frame at a time to
//! one unsynced log per process, `worker-pID-….log`, under `cases/` and
//! `corpus/` respectively.
//!
//! **Reader.** [`FrameReader`] reads a log frame by frame. A frame that
//! runs past the end of its log, or one whose checksum fails (or whose
//! kind is unknown) with nothing but zero bytes after it (all a crash can
//! leave past the data), is a torn tail: it is dropped, and its case runs
//! again. A bad frame anywhere else and a frame over the cap are
//! [`CampaignError::Corrupt`]. [`Frames::scan`] reads every log of a
//! campaign directory in one pass, only the frames of the kinds its
//! caller asks for, and locates its record, profile and flight frames by
//! case index and its corpus entries by name. Two identical frames of
//! one kind for one case are one frame; two different ones are
//! `Corrupt`. Checkpoint frames are the exception: a case may have
//! several (one per kill), each a valid resume point of its
//! deterministic run, and the scan keeps the one with the most verified
//! cycles. A sidecar or corpus frame whose record is missing
//! is what a kill mid-bundle leaves: its case re-runs and writes the same
//! bytes again. A writer whose append or sync fails abandons its log, so
//! nothing is ever appended after a torn frame.
//!
//! **Compaction.** Once a directory holds a record for every case it
//! owns, [`CampaignDir::compact`] streams every corpus frame, in name
//! order, into `corpus.log`, and every case's profile, flight and record
//! frames, in index order, into `cases.log` (each a temp file, synced,
//! renamed), and removes the worker logs. A checkpoint frame is never
//! canonical: compaction, a shard merge and an export leave it out. Every
//! other frame is a pure function of `(config, index)`, so the canonical
//! logs are byte-identical however the campaign ran.

use crate::checkpoint::CaseCheckpoint;
use crate::error::CampaignError;
use crate::state::CampaignDir;
use rtl_core::Fingerprint;
use rtl_obs::write_atomic;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// The largest body a frame may carry, in bytes. A record is about
/// half a kilobyte, a profile or flight log a few and a shrunk corpus
/// entry a few more; the cap bounds what a damaged length can make a
/// reader allocate.
pub const FRAME_CAP: u32 = 1 << 20;

/// A writer `fdatasync`s its log after this many bundles.
pub const SYNC_EVERY: u32 = 8;

/// The frame header: body length, kind, key, checksum.
pub const HEADER: usize = 20;

/// The canonical case log's file name under `cases/`.
pub const CANONICAL: &str = "cases.log";

/// What a frame carries. A case's frames sort, and the canonical log
/// holds them, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A case's execution profile, keyed by case index.
    Profile,
    /// A case's flight-recorder log, keyed by case index.
    Flight,
    /// A case record, keyed by case index: the commit point of its bundle.
    Record,
    /// A corpus entry, keyed 0.
    Corpus,
    /// A case's mid-run lockstep checkpoint, keyed by case index: never
    /// canonical (see [`checkpoint`](crate::checkpoint)).
    Checkpoint,
}

impl Kind {
    /// What a case bundle and a corpus log carry: every kind but
    /// [`Checkpoint`](Kind::Checkpoint).
    pub const BUNDLE: [Kind; 4] = [Kind::Profile, Kind::Flight, Kind::Record, Kind::Corpus];

    fn code(self) -> u32 {
        match self {
            Kind::Profile => 1,
            Kind::Flight => 2,
            Kind::Record => 3,
            Kind::Corpus => 4,
            Kind::Checkpoint => 5,
        }
    }

    fn from_code(code: u32) -> Option<Kind> {
        Kind::BUNDLE
            .into_iter()
            .chain([Kind::Checkpoint])
            .find(|kind| kind.code() == code)
    }

    /// The kind's name in messages.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Profile => "profile",
            Kind::Flight => "flight log",
            Kind::Record => "record",
            Kind::Corpus => "corpus entry",
            Kind::Checkpoint => "case checkpoint",
        }
    }
}

/// The checksum of one frame: a [`Fingerprint`] of its kind, key and
/// body.
pub fn frame_sum(kind: Kind, key: u32, body: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write(&kind.code().to_le_bytes());
    fp.write(&key.to_le_bytes());
    fp.write(body);
    fp.finish()
}

/// Appends one frame of `kind`, keyed `key`, to `out`.
///
/// # Errors
///
/// A body longer than [`FRAME_CAP`].
pub fn encode_frame(kind: Kind, key: u32, body: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&len| len <= FRAME_CAP)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "the {} frame keyed {key} is {} bytes, over the {FRAME_CAP}-byte frame cap",
                    kind.label(),
                    body.len()
                ),
            )
        })?;
    out.extend_from_slice(&header(len, kind, key, frame_sum(kind, key, body)));
    out.extend_from_slice(body);
    Ok(())
}

/// A frame header's bytes.
fn header(len: u32, kind: Kind, key: u32, sum: u64) -> [u8; HEADER] {
    let mut bytes = [0; HEADER];
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    bytes[4..8].copy_from_slice(&kind.code().to_le_bytes());
    bytes[8..12].copy_from_slice(&key.to_le_bytes());
    bytes[12..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// One frame the reader stepped onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: Kind,
    /// The key the header names: a case index, or 0 for a corpus entry.
    pub key: u32,
    /// Where the frame's header starts in its log.
    pub offset: u64,
    /// The body's length.
    pub len: u32,
    /// The header's checksum.
    pub sum: u64,
    /// Whether the body was read and its checksum verified (see
    /// [`FrameReader::next`]); [`FrameReader::body`] holds it then.
    pub verified: bool,
}

impl Frame {
    /// Where the frame ends in its log: just past its body.
    pub fn end(&self) -> u64 {
        self.offset + HEADER as u64 + u64::from(self.len)
    }
}

/// Reads one log frame by frame.
#[derive(Debug)]
pub struct FrameReader<R> {
    src: R,
    /// The log's length.
    len: u64,
    /// Where the next frame starts.
    offset: u64,
    /// Where a dropped tail starts, once one was met.
    tail: Option<u64>,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// A reader over a log of `len` bytes, positioned at its start.
    pub fn new(src: R, len: u64) -> Self {
        FrameReader {
            src,
            len,
            offset: 0,
            tail: None,
            buf: Vec::new(),
        }
    }

    /// The next frame, or `None` at the end of the log or at a dropped
    /// tail ([`tail`](FrameReader::tail) says which). A frame whose kind
    /// and key `want` accepts is read and verified, and its body is
    /// [`body`](FrameReader::body); any other is stepped over unread.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Corrupt`] for a frame over [`FRAME_CAP`], or an
    /// unknown kind or a checksum failure with non-zero bytes after it;
    /// [`CampaignError::Io`] for a failed read.
    pub fn next(
        &mut self,
        want: impl Fn(Kind, u32) -> bool,
    ) -> Result<Option<Frame>, CampaignError> {
        let left = self.len - self.offset;
        if self.tail.is_some() || left == 0 {
            return Ok(None);
        }
        if left < HEADER as u64 {
            self.tail = Some(self.offset);
            return Ok(None);
        }
        let mut header = [0u8; HEADER];
        self.src.read_exact(&mut header)?;
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let len = word(0);
        if len > FRAME_CAP {
            return Err(CampaignError::Corrupt(format!(
                "frame at byte {} claims {len} bytes, over the {FRAME_CAP}-byte frame cap",
                self.offset
            )));
        }
        let end = self.offset + HEADER as u64 + u64::from(len);
        if end > self.len {
            self.tail = Some(self.offset);
            return Ok(None);
        }
        let Some(kind) = Kind::from_code(word(4)) else {
            let at = self.offset;
            return self.bad_frame(left - HEADER as u64, || {
                format!("frame at byte {at} has unknown kind {}", word(4))
            });
        };
        let mut frame = Frame {
            kind,
            key: word(8),
            offset: self.offset,
            len,
            sum: u64::from_le_bytes(header[12..].try_into().expect("8 bytes")),
            verified: false,
        };
        if want(kind, frame.key) {
            self.buf.clear();
            self.buf.reserve_exact(len as usize);
            self.buf.resize(len as usize, 0);
            self.src.read_exact(&mut self.buf)?;
            if frame_sum(kind, frame.key, &self.buf) != frame.sum {
                return self.bad_frame(self.len - end, || {
                    let of = match kind {
                        Kind::Corpus => kind.label().to_string(),
                        _ => format!("case {}", frame.key),
                    };
                    format!("frame at byte {} ({of}) fails its checksum", frame.offset)
                });
            }
            frame.verified = true;
        } else {
            let skipped = io::copy(&mut (&mut self.src).take(u64::from(len)), &mut io::sink())?;
            if skipped < u64::from(len) {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
            }
        }
        self.offset = end;
        Ok(Some(frame))
    }

    /// A bad frame at the current offset: a dropped tail when the `rest`
    /// of the log is zeros, which a crash may leave past the data, else
    /// corruption.
    fn bad_frame(
        &mut self,
        rest: u64,
        message: impl FnOnce() -> String,
    ) -> Result<Option<Frame>, CampaignError> {
        let mut rest = (&mut self.src).take(rest);
        let mut chunk = [0u8; 4096];
        loop {
            let n = rest.read(&mut chunk)?;
            if n == 0 {
                self.tail = Some(self.offset);
                return Ok(None);
            }
            if chunk[..n].iter().any(|&b| b != 0) {
                return Err(CampaignError::Corrupt(message()));
            }
        }
    }

    /// The body of the last verified frame.
    pub fn body(&self) -> &[u8] {
        &self.buf
    }

    /// Where the dropped tail starts, once [`next`](FrameReader::next)
    /// met one.
    pub fn tail(&self) -> Option<u64> {
        self.tail
    }

    /// The body buffer's capacity: never more than [`FRAME_CAP`].
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Appends whole case bundles to a `cases/worker-N.log` of its own (see
/// the module docs). Dropping it finishes it, ignoring errors; call
/// [`finish`](LogWriter::finish) to see them.
#[derive(Debug)]
pub struct LogWriter {
    dir: CampaignDir,
    file: Option<File>,
    /// Bundles appended since the last sync.
    unsynced: u32,
    dir_synced: bool,
    buf: Vec<u8>,
    /// The log's length: where the next append lands.
    len: u64,
    /// Where the checkpoint frame at the log's tail starts, while the
    /// log ends in one.
    checkpoint: Option<u64>,
}

impl LogWriter {
    /// A writer for `dir`'s `cases/`. It creates its log at its first
    /// append, so a writer that publishes nothing leaves no file.
    pub fn new(dir: &CampaignDir) -> LogWriter {
        LogWriter {
            dir: dir.clone(),
            file: None,
            unsynced: 0,
            dir_synced: false,
            buf: Vec::new(),
            len: 0,
            checkpoint: None,
        }
    }

    /// The campaign directory the writer publishes into.
    pub fn dir(&self) -> &CampaignDir {
        &self.dir
    }

    /// Appends the frames `encode` writes (into an empty buffer) in one
    /// write: one case's bundle, record last. A checkpoint frame at the
    /// log's tail is cut off first.
    ///
    /// # Errors
    ///
    /// An error from `encode`, or file-system failure.
    pub fn append(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.buf.clear();
        encode(&mut self.buf)?;
        self.write()?;
        self.unsynced += 1;
        if self.unsynced >= SYNC_EVERY {
            self.finish()?;
        }
        Ok(())
    }

    /// Replaces the checkpoint frame at the log's tail, if there is one,
    /// with a checkpoint frame for case `index` holding `body`: a log
    /// holds at most one, its writer's in-flight case's latest, and once
    /// the case's bundle is appended, none. Like a document published
    /// through [`write_atomic`], it is not synced: a checkpoint only
    /// saves work.
    ///
    /// # Errors
    ///
    /// A body over the frame cap, or file-system failure.
    pub fn checkpoint(&mut self, index: u32, body: &[u8]) -> io::Result<()> {
        self.buf.clear();
        encode_frame(Kind::Checkpoint, index, body, &mut self.buf)?;
        self.checkpoint = Some(self.write()?);
        Ok(())
    }

    /// Writes the buffer at the end of the log, after cutting off its
    /// tail checkpoint frame, and returns where it starts.
    fn write(&mut self) -> io::Result<u64> {
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                let file = create_log(&self.dir.cases())?;
                // A fresh log's directory entry is not yet durable.
                self.dir_synced = false;
                self.len = 0;
                self.checkpoint = None;
                self.file.insert(file)
            }
        };
        let mut written = Ok(());
        if let Some(at) = self.checkpoint.take() {
            written = file.set_len(at);
            self.len = at;
        }
        if let Err(e) = written.and_then(|()| file.write_all(&self.buf)) {
            // The write may have left part of the frames: that log now
            // ends in a torn tail, and the next append starts a new one.
            self.file = None;
            self.unsynced = 0;
            return Err(e);
        }
        let at = self.len;
        self.len += self.buf.len() as u64;
        Ok(at)
    }

    /// Syncs whatever was appended since the last sync.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn finish(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.unsynced = 0;
        if let Some(file) = &self.file {
            if let Err(e) = file.sync_data() {
                // What reached the disk is unknown; append elsewhere.
                self.file = None;
                return Err(e);
            }
            if !self.dir_synced {
                sync_dir(&self.dir.cases())?;
                self.dir_synced = true;
            }
        }
        Ok(())
    }
}

impl Drop for LogWriter {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Appends one frame, unsynced, to this process's direct log under
/// `parent` ([`CampaignDir::write_case`] under `cases/`,
/// [`corpus::save`](crate::corpus::save) under `corpus/`). The frame
/// goes out in one `write` on a log opened for appending, so the kernel
/// places each frame whole after every other thread's; a short write
/// bumps the log's generation, so no frame ever follows a torn one.
pub(crate) fn append_direct(parent: &Path, kind: Kind, key: u32, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER + body.len());
    encode_frame(kind, key, body, &mut frame)?;
    let generation = DIRECT_GENERATION.load(Ordering::Relaxed);
    let name = format!("worker-{}-{generation}.log", direct_tag());
    let mut file = File::options()
        .append(true)
        .create(true)
        .open(parent.join(name))?;
    let written = file.write(&frame)?;
    if written < frame.len() {
        let _ = DIRECT_GENERATION.compare_exchange(
            generation,
            generation + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        return Err(io::Error::new(
            io::ErrorKind::WriteZero,
            format!("the {} frame keyed {key} was cut short", kind.label()),
        ));
    }
    Ok(())
}

/// The direct log's generation: bumped past a log whose last frame a
/// failed write may have torn.
static DIRECT_GENERATION: AtomicU32 = AtomicU32::new(0);

/// What names this process's direct logs: its id and its first call's
/// clock, so a later process reusing the id never appends to them.
fn direct_tag() -> &'static str {
    static TAG: OnceLock<String> = OnceLock::new();
    TAG.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |since| since.as_nanos());
        format!("p{}-{nanos:x}", std::process::id())
    })
}

/// Whether `log` is a direct log ([`append_direct`]).
pub(crate) fn is_direct(log: &Path) -> bool {
    log.file_name()
        .is_some_and(|name| name.to_string_lossy().starts_with("worker-p"))
}

/// The next `worker-N.log` number [`create_log`] tries. It is shared by
/// the whole process, so a long-lived one never probes the names it
/// already took.
static NEXT_LOG: AtomicU32 = AtomicU32::new(0);

/// Creates a free `worker-N.log` under `parent`.
fn create_log(parent: &Path) -> io::Result<File> {
    loop {
        let n = NEXT_LOG.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("worker-{n}.log"));
        match File::options().append(true).create_new(true).open(&path) {
            Ok(file) => return Ok(file),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The worker logs under `dir`'s `cases/`, then under its `corpus/`,
/// each by name. A missing directory holds none.
fn worker_logs(dir: &CampaignDir) -> Result<Vec<PathBuf>, CampaignError> {
    let mut logs = Vec::new();
    for parent in [dir.cases(), dir.corpus()] {
        let listing = match std::fs::read_dir(&parent) {
            Ok(listing) => listing,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        };
        let mut workers = Vec::new();
        for dirent in listing {
            let name = dirent?.file_name().to_string_lossy().into_owned();
            if name.starts_with("worker-") && name.ends_with(".log") {
                workers.push(name);
            }
        }
        workers.sort();
        logs.extend(workers.into_iter().map(|name| parent.join(name)));
    }
    Ok(logs)
}

/// Publishes the canonical log `parent/canonical`: `write` streams it
/// into a temp file, which is synced and renamed over it, and `parent`
/// is synced.
fn write_canonical(
    parent: &Path,
    canonical: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), CampaignError>,
) -> Result<(), CampaignError> {
    std::fs::create_dir_all(parent)?;
    let tmp = parent.join(format!(".tmp-{}-{canonical}", std::process::id()));
    let written = File::create(&tmp)
        .map_err(CampaignError::from)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            write(&mut out)?;
            let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            file.sync_data()?;
            Ok(())
        });
    let renamed =
        written.and_then(|()| std::fs::rename(&tmp, parent.join(canonical)).map_err(Into::into));
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed?;
    sync_dir(parent)?;
    Ok(())
}

/// Where one frame lies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At {
    pub(crate) log: usize,
    frame: Frame,
}

/// Where a corpus entry's frame lies, and the entry's fingerprint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Located {
    pub(crate) at: At,
    pub(crate) fingerprint: u64,
}

/// The frames of a campaign directory's logs, located by one
/// [`scan`](Frames::scan): each case's record, profile and flight frames
/// by case index, and each corpus entry by name. Only positions are
/// kept, and bodies are read back on demand; but for each case the scan
/// found checkpoint frames for, the decoded checkpoint with the most
/// verified cycles.
#[derive(Debug, Default)]
pub struct Frames {
    pub(crate) logs: Vec<PathBuf>,
    /// The record, profile and flight frames, by case and kind.
    cases: BTreeMap<(u32, Kind), At>,
    pub(crate) entries: BTreeMap<String, Located>,
    /// The latest checkpoint of each case, by case.
    pub(crate) checkpoints: BTreeMap<u32, CaseCheckpoint>,
}

impl Frames {
    /// The logs under `dir`'s `cases/` and `corpus/`: the canonical logs
    /// first, then the worker logs of `cases/` and of `corpus/` by name.
    /// When two corpus frames carry one name, the later one replaces the
    /// earlier, as a later file replaced an earlier one.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn logs(dir: &CampaignDir) -> Result<Vec<PathBuf>, CampaignError> {
        let canonical = [
            dir.cases().join(CANONICAL),
            dir.corpus().join(crate::corpus::CANONICAL),
        ];
        let mut logs: Vec<PathBuf> = canonical.into_iter().filter(|log| log.exists()).collect();
        logs.extend(worker_logs(dir)?);
        Ok(logs)
    }

    /// Reads every log under `dir` once ([`logs`](Frames::logs)),
    /// verifying the frames of `kinds` and stepping over the others
    /// unread. Each record, profile and flight frame of a case in
    /// `range` is verified if its kind is in `kinds`, and `visit` sees
    /// each record once; the case frames of other cases and kinds are
    /// located unread. Each checkpoint frame of a case in `range` is
    /// decoded if [`Kind::Checkpoint`] is in `kinds`, and the scan keeps
    /// the one with the most verified cycles: every checkpoint of a case
    /// is a valid resume point of its deterministic run. Each corpus
    /// frame is verified and decoded if [`Kind::Corpus`] is in `kinds`,
    /// and its metadata's `design_fp` must be the fingerprint it is
    /// keyed by. A torn tail is dropped; a missing directory holds
    /// nothing.
    ///
    /// # Errors
    ///
    /// A bad frame that is not a torn tail, two different frames of one
    /// kind for one case in `range`, a checkpoint body that does not
    /// decode, a corpus frame that does not decode or whose `design_fp`
    /// is missing, malformed or not its key, an error from `visit`, or
    /// file-system failure.
    pub fn scan(
        dir: &CampaignDir,
        range: Range<u32>,
        kinds: &[Kind],
        mut visit: impl FnMut(u32, &[u8]) -> Result<(), CampaignError>,
    ) -> Result<Frames, CampaignError> {
        let mut frames = Frames {
            logs: Frames::logs(dir)?,
            ..Frames::default()
        };
        let want = |kind: Kind, key: u32| {
            kinds.contains(&kind) && (kind == Kind::Corpus || range.contains(&key))
        };
        for (log, path) in frames.logs.iter().enumerate() {
            let corrupt = |m: String| CampaignError::Corrupt(format!("{}: {m}", path.display()));
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            let mut reader = FrameReader::new(BufReader::new(file), len);
            while let Some(frame) = reader.next(want).map_err(|e| match e {
                CampaignError::Corrupt(m) => corrupt(m),
                other => other,
            })? {
                let at = At { log, frame };
                match frame.kind {
                    Kind::Corpus if frame.verified => {
                        let (name, fingerprint) =
                            crate::corpus::check_frame(frame.key, reader.body()).map_err(|m| {
                                corrupt(format!("the corpus frame at byte {}: {m}", frame.offset))
                            })?;
                        frames.entries.insert(name, Located { at, fingerprint });
                        continue;
                    }
                    Kind::Checkpoint if frame.verified => {
                        let checkpoint = CaseCheckpoint::decode(reader.body()).map_err(|m| {
                            corrupt(format!(
                                "the case {} checkpoint at byte {}: {m}",
                                frame.key, frame.offset
                            ))
                        })?;
                        let kept = frames.checkpoints.get(&frame.key);
                        if kept.is_none_or(|kept| kept.verified < checkpoint.verified) {
                            frames.checkpoints.insert(frame.key, checkpoint);
                        }
                        continue;
                    }
                    Kind::Corpus | Kind::Checkpoint => continue,
                    Kind::Profile | Kind::Flight | Kind::Record => {}
                }
                match frames.cases.entry((frame.key, frame.kind)) {
                    Entry::Occupied(first) => {
                        let first = first.get();
                        if frame.verified
                            && (first.frame.len, first.frame.sum) != (frame.len, frame.sum)
                        {
                            return Err(corrupt(format!(
                                "case {} has a different {} in {}",
                                frame.key,
                                frame.kind.label(),
                                frames.logs[first.log].display()
                            )));
                        }
                    }
                    Entry::Vacant(empty) => {
                        empty.insert(at);
                        if frame.verified && frame.kind == Kind::Record {
                            visit(frame.key, reader.body())?;
                        }
                    }
                }
            }
        }
        Ok(frames)
    }

    /// Whether case `index` has a record.
    pub fn contains(&self, index: u32) -> bool {
        self.cases.contains_key(&(index, Kind::Record))
    }

    /// Every case with a frame, ascending, once per frame.
    pub fn indices(&self) -> impl DoubleEndedIterator<Item = u32> + '_ {
        self.cases.keys().map(|&(index, _)| index)
    }

    /// Takes over `other`'s case frames and the corpus entries of
    /// `other` that `keep` accepts and that have no name here yet (a
    /// merge gathering its shards). The two must cover disjoint cases of
    /// one campaign.
    pub fn absorb(&mut self, other: Frames, keep: impl Fn(&str) -> bool) {
        let base = self.logs.len();
        self.logs.extend(other.logs);
        let rebase = |at: At| At {
            log: base + at.log,
            ..at
        };
        for (key, at) in other.cases {
            self.cases.entry(key).or_insert(rebase(at));
        }
        for (name, located) in other.entries {
            if keep(&name) {
                self.entries.entry(name).or_insert(Located {
                    at: rebase(located.at),
                    ..located
                });
            }
        }
    }

    /// Reads back the profile, flight log and record of every case in
    /// `range` that has a frame, in case order, for `each`.
    ///
    /// # Errors
    ///
    /// A frame that changed since the scan or is not UTF-8, an error
    /// from `each`, or file-system failure.
    pub fn each_case(
        &self,
        range: Range<u32>,
        mut each: impl FnMut(u32, [Option<String>; 3]) -> Result<(), CampaignError>,
    ) -> Result<(), CampaignError> {
        let mut reread = self.reread();
        let mut case: Option<(u32, [Option<String>; 3])> = None;
        let first = (range.start, Kind::Profile);
        for (&(index, kind), at) in self.cases.range(first..(range.end, Kind::Profile)) {
            if let Some((done, texts)) = case.take_if(|(open, _)| *open != index) {
                each(done, texts)?;
            }
            let body = reread.frame(at)?[HEADER..].to_vec();
            let text = String::from_utf8(body).map_err(|_| {
                CampaignError::Corrupt(format!(
                    "{}: case {index}'s {} is not UTF-8",
                    self.logs[at.log].display(),
                    kind.label()
                ))
            })?;
            case.get_or_insert((index, [None, None, None])).1[kind as usize] = Some(text);
        }
        match case {
            Some((index, texts)) => each(index, texts),
            None => Ok(()),
        }
    }

    /// Streams every frame into `dir`'s canonical logs, each read back
    /// and verified on the way: the corpus entries, by name, into
    /// `corpus/corpus.log`, then each case's profile, flight and record
    /// frames, by index, into `cases/cases.log`. A log with nothing to
    /// hold is not written.
    ///
    /// # Errors
    ///
    /// A frame that changed since the scan, or file-system failure.
    pub fn write_canonical(&self, dir: &CampaignDir) -> Result<(), CampaignError> {
        let mut reread = self.reread();
        if !self.entries.is_empty() {
            write_canonical(&dir.corpus(), crate::corpus::CANONICAL, |out| {
                for located in self.entries.values() {
                    out.write_all(reread.frame(&located.at)?)?;
                }
                Ok(())
            })?;
        }
        if !self.cases.is_empty() {
            write_canonical(&dir.cases(), CANONICAL, |out| {
                for at in self.cases.values() {
                    out.write_all(reread.frame(at)?)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// A reader of this scan's frames.
    pub(crate) fn reread(&self) -> Reread<'_> {
        Reread {
            logs: &self.logs,
            files: self.logs.iter().map(|_| None).collect(),
            buf: Vec::new(),
        }
    }
}

/// Reads frames a scan located back from their logs, each log opened
/// once.
pub(crate) struct Reread<'a> {
    logs: &'a [PathBuf],
    files: Vec<Option<File>>,
    buf: Vec<u8>,
}

impl Reread<'_> {
    /// The frame at `at`, header and body.
    ///
    /// # Errors
    ///
    /// A frame that is no longer the one the scan saw, or file-system
    /// failure.
    pub(crate) fn frame(&mut self, at: &At) -> Result<&[u8], CampaignError> {
        let log = match &mut self.files[at.log] {
            Some(file) => file,
            slot => slot.insert(File::open(&self.logs[at.log])?),
        };
        let Frame {
            kind,
            key,
            offset,
            len,
            sum,
            ..
        } = at.frame;
        log.seek(SeekFrom::Start(offset))?;
        self.buf.resize(HEADER + len as usize, 0);
        log.read_exact(&mut self.buf)?;
        if self.buf[..HEADER] != header(len, kind, key, sum)
            || frame_sum(kind, key, &self.buf[HEADER..]) != sum
        {
            return Err(CampaignError::Corrupt(format!(
                "{}: the {} frame at byte {offset} changed since it was scanned",
                self.logs[at.log].display(),
                kind.label()
            )));
        }
        Ok(&self.buf)
    }
}

impl CampaignDir {
    /// Compacts the logs of a campaign of `cases` cases into the canonical
    /// `corpus/corpus.log` and `cases/cases.log` and removes the worker
    /// logs (see the [module docs](crate::caselog)). Callers compact once
    /// the directory holds a record for every case it owns. A directory
    /// with no worker log is already compact and is left alone.
    ///
    /// # Errors
    ///
    /// A corrupt log, or file-system failure.
    pub fn compact(&self, cases: u32) -> Result<(), CampaignError> {
        let logs = worker_logs(self)?;
        if logs.is_empty() {
            return Ok(());
        }
        self.frames(cases, 0..cases, &Kind::BUNDLE, |_, _| Ok(()))?
            .write_canonical(self)?;
        for log in logs {
            std::fs::remove_file(log)?;
        }
        sync_dir(&self.corpus())?;
        sync_dir(&self.cases())?;
        Ok(())
    }

    /// Renders every case of the campaign in this directory as files at
    /// `out`: its record as `case-NNNNNN.json` at `out`'s
    /// [`case_path`](CampaignDir::case_path), its profile and flight log,
    /// when it has them, at [`profile_path`](CampaignDir::profile_path)
    /// and [`flight_path`](CampaignDir::flight_path), and every corpus
    /// entry as `<name>.asim`, `.stim`, `.ckpt` and `.json` files under
    /// `out`'s `corpus/`, each through [`write_atomic`]. Returns how many
    /// records and entries were exported.
    ///
    /// # Errors
    ///
    /// A missing, foreign-format or corrupt campaign, or file-system
    /// failure.
    pub fn export(&self, out: &CampaignDir) -> Result<(u32, u32), CampaignError> {
        let cases = self.load()?.cases;
        let frames = self.frames(cases, 0..cases, &Kind::BUNDLE, |_, _| Ok(()))?;
        let mut records = 0;
        frames.each_case(0..cases, |index, [profile, flight, record]| {
            let paths = [
                out.profile_path(index),
                out.flight_path(index),
                out.case_path(index),
            ];
            for (path, text) in paths.iter().zip([&profile, &flight, &record]) {
                if let Some(text) = text {
                    write_atomic(path, text.as_bytes())?;
                }
            }
            records += u32::from(record.is_some());
            Ok(())
        })?;
        let mut entries = 0;
        frames.each_entry(|name, files| {
            for (ext, text) in files.documents() {
                write_atomic(&out.corpus().join(format!("{name}.{ext}")), text.as_bytes())?;
            }
            entries += 1;
            Ok(())
        })?;
        Ok((records, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(buf: &mut Vec<u8>, index: u32) -> io::Result<()> {
        encode_frame(Kind::Record, index, b"{}", buf)
    }

    /// The records a scan of `dir` visits.
    fn records(dir: &CampaignDir) -> Vec<(u32, Vec<u8>)> {
        let mut seen = Vec::new();
        Frames::scan(dir, 0..u32::MAX, &Kind::BUNDLE, |index, record| {
            seen.push((index, record.to_vec()));
            Ok(())
        })
        .unwrap();
        seen
    }

    /// A writer whose append fails (here ENOSPC, from a log that is the
    /// full device) abandons that log: its next append starts a fresh
    /// worker log, so nothing lands after a bundle the failure may have
    /// torn, the fresh log's directory entry is synced at its first sync,
    /// and the scan reads both records back.
    #[test]
    fn a_failed_append_moves_the_writer_to_a_fresh_log() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let root =
            std::env::temp_dir().join(format!("asim2-caselog-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = CampaignDir::new(&root);
        std::fs::create_dir_all(dir.cases()).unwrap();
        let mut log = LogWriter::new(&dir);
        log.append(|buf| record(buf, 1)).unwrap();
        log.finish().unwrap();
        assert!(log.dir_synced);
        log.file = Some(File::options().append(true).open(full).unwrap());
        let err = log.append(|buf| record(buf, 3)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC: {err}");
        log.append(|buf| record(buf, 3)).unwrap();
        assert!(!log.dir_synced);
        log.finish().unwrap();
        assert!(log.dir_synced);
        assert_eq!(records(&dir), [(1, b"{}".to_vec()), (3, b"{}".to_vec())]);
        assert_eq!(Frames::logs(&dir).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `write_case`'s appends from several threads land whole in one log.
    #[test]
    fn direct_appends_from_many_threads_share_one_log() {
        let root =
            std::env::temp_dir().join(format!("asim2-caselog-direct-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = CampaignDir::new(&root);
        std::fs::create_dir_all(dir.cases()).unwrap();
        let record = |index: u32| format!("{{\"index\": {index}}}");
        std::thread::scope(|scope| {
            for thread in 0..4u32 {
                let dir = &dir;
                scope.spawn(move || {
                    for index in (thread..200).step_by(4) {
                        let body = record(index);
                        append_direct(&dir.cases(), Kind::Record, index, body.as_bytes()).unwrap();
                    }
                });
            }
        });
        let seen = records(&dir);
        assert_eq!(seen.len(), 200);
        for (index, bytes) in seen {
            assert_eq!(bytes, record(index).as_bytes());
        }
        assert_eq!(Frames::logs(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Different checkpoint frames of one case are all valid resume
    /// points: the scan keeps the one with the most verified cycles,
    /// whichever log holds it, and only if asked for checkpoints. A
    /// writer keeps only its latest, at its log's tail, and a bundle
    /// cuts it off.
    #[test]
    fn the_checkpoint_with_the_most_verified_cycles_wins() {
        let root =
            std::env::temp_dir().join(format!("asim2-caselog-checkpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = CampaignDir::new(&root);
        std::fs::create_dir_all(dir.cases()).unwrap();
        let body = |verified: u64| {
            CaseCheckpoint {
                verified,
                profile: None,
                flight: None,
                lockstep: format!("at {verified}").into_bytes(),
            }
            .encode()
            .unwrap()
        };
        let (mut first, mut second) = (LogWriter::new(&dir), LogWriter::new(&dir));
        first.checkpoint(2, &body(16)).unwrap();
        first.checkpoint(2, &body(48)).unwrap();
        second.checkpoint(2, &body(32)).unwrap();
        let lens = || {
            let mut lens: Vec<u64> = Frames::logs(&dir)
                .unwrap()
                .iter()
                .map(|log| std::fs::metadata(log).unwrap().len())
                .collect();
            lens.sort();
            lens
        };
        let frame = |verified: u64| (HEADER + body(verified).len()) as u64;
        assert_eq!(lens(), [frame(32), frame(48)], "one frame a log");
        let kinds = [Kind::Record, Kind::Checkpoint];
        let mut scan = Frames::scan(&dir, 0..4, &kinds, |_, _| Ok(())).unwrap();
        assert_eq!(scan.checkpoints.remove(&2).unwrap().lockstep, b"at 48");
        assert!(scan.checkpoints.is_empty());
        let bundles = Frames::scan(&dir, 0..4, &Kind::BUNDLE, |_, _| Ok(())).unwrap();
        assert!(bundles.checkpoints.is_empty());
        first.append(|buf| record(buf, 2)).unwrap();
        first.finish().unwrap();
        assert_eq!(records(&dir), [(2, b"{}".to_vec())]);
        let bundle = (HEADER + 2) as u64;
        assert_eq!(
            lens(),
            [bundle, frame(32)],
            "the bundle cut the checkpoint off"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A sidecar follows the record rule: an identical second frame is
    /// the same frame, a different one is corrupt.
    #[test]
    fn a_different_sidecar_for_one_case_is_corrupt() {
        let root =
            std::env::temp_dir().join(format!("asim2-caselog-sidecar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = CampaignDir::new(&root);
        std::fs::create_dir_all(dir.cases()).unwrap();
        let mut log = LogWriter::new(&dir);
        let profile = |text: &'static [u8]| {
            move |buf: &mut Vec<u8>| {
                encode_frame(Kind::Profile, 2, text, buf)?;
                record(buf, 2)
            }
        };
        log.append(profile(b"a")).unwrap();
        log.append(profile(b"a")).unwrap();
        log.finish().unwrap();
        let frames = Frames::scan(&dir, 0..4, &Kind::BUNDLE, |_, _| Ok(())).unwrap();
        let mut texts = Vec::new();
        frames
            .each_case(0..4, |index, texts_of| {
                texts.push((index, texts_of));
                Ok(())
            })
            .unwrap();
        let expected = [Some("a".to_string()), None, Some("{}".to_string())];
        assert_eq!(texts, [(2, expected)]);
        log.append(profile(b"b")).unwrap();
        log.finish().unwrap();
        let err = Frames::scan(&dir, 0..4, &Kind::BUNDLE, |_, _| Ok(())).unwrap_err();
        assert!(err.to_string().contains("different profile"), "{err}");
        // Out of range, the frames are stepped over unread and unjudged.
        Frames::scan(&dir, 3..4, &Kind::BUNDLE, |_, _| Ok(())).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }
}
