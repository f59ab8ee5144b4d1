//! Case records and corpus entries in append-only logs.
//!
//! A campaign publishes each case record, and each corpus entry, by
//! appending one **frame** to a log, not by creating files: a create
//! costs tens of microseconds to a millisecond of system time on a busy
//! disk, an append a few.
//!
//! ```text
//! cases/worker-N.log   — the record frames one writer appended, in completion order
//! cases/cases.log      — the canonical record log: one frame per case, by index
//! corpus/worker-N.log  — the corpus frames one writer appended
//! corpus/corpus.log    — the canonical corpus log: one frame per entry, by name
//! ```
//!
//! **Frame.** A 16-byte little-endian header — body length (`u32`),
//! key (`u32`), checksum (`u64`) — then the body. A record frame's key
//! is its case index and its body the record's canonical JSON text
//! ([`CaseRecord::to_json`](crate::CaseRecord::to_json) rendered). A
//! corpus frame's key is 0 and its body leads with the entry's
//! fingerprint, by which it is keyed, then the entry's four documents
//! ([`corpus::encode_entry`](crate::corpus::encode_entry)). The checksum
//! is a [`Fingerprint`] of the key and the body. No body may exceed
//! [`FRAME_CAP`] bytes; the reader checks a frame's length against the
//! cap before it allocates anything.
//!
//! **Writers.** Each case-running thread owns a [`LogWriter`], which
//! creates a fresh `worker-N.log` under `cases/` at its first record,
//! and one under `corpus/` at its first corpus entry, and never appends
//! to a log it did not create. It `fdatasync`s its logs every
//! [`SYNC_EVERY`] records and when it finishes, the corpus log before the
//! record log, so a corpus entry is durable no later than the record
//! that names it; it syncs each directory at its first sync, so the
//! logs' names survive an OS crash too. A process kill loses nothing
//! that was appended. [`CampaignDir::write_case`] and
//! [`corpus::save`](crate::corpus::save), for what is published outside
//! a run, append to one unsynced log per process, `worker-pID-….log`.
//!
//! **Reader.** [`FrameReader`] reads a log frame by frame. A frame that
//! runs past the end of its log, or one whose checksum fails with
//! nothing but zero bytes after it (all a crash can leave past the
//! data), is a torn tail: it is dropped, and its case runs again. A bad
//! frame anywhere else and a frame over the cap are
//! [`CampaignError::Corrupt`]; so are two different frames for one case
//! ([`CaseFrames::scan`]). A writer whose append or sync fails abandons
//! its log, so nothing is ever appended after a torn frame.
//!
//! **Compaction.** Once a directory holds a record for every case it
//! owns, [`CampaignDir::compact`] streams every corpus frame, in name
//! order, into `corpus.log` and every record frame, in index order, into
//! `cases.log` (each a temp file, synced, renamed) and removes the
//! worker logs. Every frame is a pure function of `(config, index)`, so
//! the canonical logs are byte-identical however the campaign ran.

use crate::error::CampaignError;
use crate::state::CampaignDir;
use rtl_core::Fingerprint;
use rtl_obs::write_atomic;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// The largest body a frame may carry, in bytes. A record is about
/// half a kilobyte and a shrunk corpus entry a few; the cap bounds what a
/// damaged length can make a reader allocate.
pub const FRAME_CAP: u32 = 1 << 20;

/// A writer `fdatasync`s its logs after this many record frames.
pub const SYNC_EVERY: u32 = 8;

/// The frame header: body length, key, checksum.
pub const HEADER: usize = 16;

/// The canonical record log's file name under `cases/`.
pub const CANONICAL: &str = "cases.log";

/// The checksum of one frame: a [`Fingerprint`] of its key and body.
pub fn frame_sum(index: u32, record: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write(&index.to_le_bytes());
    fp.write(record);
    fp.finish()
}

/// Appends one frame, keyed `index`, to `out`.
///
/// # Errors
///
/// A body longer than [`FRAME_CAP`].
pub fn encode_frame(index: u32, record: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    let len = u32::try_from(record.len())
        .ok()
        .filter(|&len| len <= FRAME_CAP)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "the body of frame {index} is {} bytes, over the {FRAME_CAP}-byte frame cap",
                    record.len()
                ),
            )
        })?;
    out.extend_from_slice(&header(len, index, frame_sum(index, record)));
    out.extend_from_slice(record);
    Ok(())
}

/// A frame header's bytes.
fn header(len: u32, index: u32, sum: u64) -> [u8; HEADER] {
    let mut bytes = [0; HEADER];
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    bytes[4..8].copy_from_slice(&index.to_le_bytes());
    bytes[8..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// One frame the reader stepped onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The case index the header names.
    pub index: u32,
    /// Where the frame's header starts in its log.
    pub offset: u64,
    /// The record's length.
    pub len: u32,
    /// The header's checksum.
    pub sum: u64,
    /// Whether the record was read and its checksum verified (see
    /// [`FrameReader::next`]); [`FrameReader::record`] holds it then.
    pub verified: bool,
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
    /// tail ([`tail`](FrameReader::tail) says which). A frame whose index
    /// `want` accepts is read and verified, and its record is
    /// [`record`](FrameReader::record); any other is stepped over
    /// unread.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Corrupt`] for a frame over [`FRAME_CAP`], or a
    /// checksum failure with non-zero bytes after it;
    /// [`CampaignError::Io`] for a failed read.
    pub fn next(&mut self, want: impl Fn(u32) -> bool) -> Result<Option<Frame>, CampaignError> {
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
        let mut frame = Frame {
            index: word(4),
            offset: self.offset,
            len: word(0),
            sum: u64::from_le_bytes(header[8..].try_into().expect("8 bytes")),
            verified: false,
        };
        if frame.len > FRAME_CAP {
            return Err(CampaignError::Corrupt(format!(
                "frame at byte {} claims {} bytes, over the {FRAME_CAP}-byte frame cap",
                frame.offset, frame.len
            )));
        }
        let end = self.offset + HEADER as u64 + u64::from(frame.len);
        if end > self.len {
            self.tail = Some(self.offset);
            return Ok(None);
        }
        if want(frame.index) {
            self.buf.clear();
            self.buf.reserve_exact(frame.len as usize);
            self.buf.resize(frame.len as usize, 0);
            self.src.read_exact(&mut self.buf)?;
            if frame_sum(frame.index, &self.buf) != frame.sum {
                if self.only_zeros_remain(self.len - end)? {
                    self.tail = Some(self.offset);
                    return Ok(None);
                }
                return Err(CampaignError::Corrupt(format!(
                    "frame at byte {} (case {}) fails its checksum",
                    frame.offset, frame.index
                )));
            }
            frame.verified = true;
        } else {
            let skipped = io::copy(
                &mut (&mut self.src).take(u64::from(frame.len)),
                &mut io::sink(),
            )?;
            if skipped < u64::from(frame.len) {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
            }
        }
        self.offset = end;
        Ok(Some(frame))
    }

    /// Whether the `rest` bytes after the current frame are all zero:
    /// nothing was written after it, though a crash may have left the
    /// log's length past its data.
    fn only_zeros_remain(&mut self, rest: u64) -> io::Result<bool> {
        let mut rest = (&mut self.src).take(rest);
        let mut chunk = [0u8; 4096];
        loop {
            let n = rest.read(&mut chunk)?;
            if n == 0 {
                return Ok(true);
            }
            if chunk[..n].iter().any(|&b| b != 0) {
                return Ok(false);
            }
        }
    }

    /// The record of the last verified frame.
    pub fn record(&self) -> &[u8] {
        &self.buf
    }

    /// Where the dropped tail starts, once [`next`](FrameReader::next)
    /// met one.
    pub fn tail(&self) -> Option<u64> {
        self.tail
    }

    /// The record buffer's capacity: never more than [`FRAME_CAP`].
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Appends record frames, and the corpus frames they name, to worker
/// logs of its own (see the module docs). Dropping it finishes it,
/// ignoring errors; call [`finish`](LogWriter::finish) to see them.
#[derive(Debug)]
pub struct LogWriter {
    dir: CampaignDir,
    cases: Log,
    corpus: Log,
    frame: Vec<u8>,
}

/// One worker log a [`LogWriter`] appends to.
#[derive(Debug)]
struct Log {
    /// The directory the log lives in.
    parent: PathBuf,
    file: Option<File>,
    /// Frames appended since the last sync.
    unsynced: u32,
    dir_synced: bool,
}

impl Log {
    fn new(parent: PathBuf) -> Log {
        Log {
            parent,
            file: None,
            unsynced: 0,
            dir_synced: false,
        }
    }

    /// Appends one encoded frame in one write, creating the log first.
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                let file = create_log(&self.parent)?;
                // A fresh log's directory entry is not yet durable.
                self.dir_synced = false;
                self.file.insert(file)
            }
        };
        if let Err(e) = file.write_all(frame) {
            // The write may have left part of the frame: that log now
            // ends in a torn tail, and the next append starts a new one.
            self.file = None;
            self.unsynced = 0;
            return Err(e);
        }
        self.unsynced += 1;
        Ok(())
    }

    /// Syncs whatever was appended since the last sync.
    fn sync(&mut self) -> io::Result<()> {
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
                sync_dir(&self.parent)?;
                self.dir_synced = true;
            }
        }
        Ok(())
    }
}

impl LogWriter {
    /// A writer for `dir`'s `cases/` and `corpus/`. It creates each log
    /// at its first append, so a writer that publishes nothing leaves no
    /// file.
    pub fn new(dir: &CampaignDir) -> LogWriter {
        LogWriter {
            dir: dir.clone(),
            cases: Log::new(dir.cases()),
            corpus: Log::new(dir.corpus()),
            frame: Vec::new(),
        }
    }

    /// The campaign directory the writer publishes into.
    pub fn dir(&self) -> &CampaignDir {
        &self.dir
    }

    /// Appends case `index`'s record as one frame, in one write.
    ///
    /// # Errors
    ///
    /// A record over [`FRAME_CAP`], or file-system failure.
    pub fn append(&mut self, index: u32, record: &[u8]) -> io::Result<()> {
        self.frame.clear();
        encode_frame(index, record, &mut self.frame)?;
        self.cases.append(&self.frame)?;
        if self.cases.unsynced >= SYNC_EVERY {
            self.finish()?;
        }
        Ok(())
    }

    /// Appends one corpus entry's frame (a body from
    /// [`corpus::encode_entry`](crate::corpus::encode_entry)), in one
    /// write. It is synced no later than the next record frame.
    ///
    /// # Errors
    ///
    /// A body over [`FRAME_CAP`], or file-system failure.
    pub fn append_entry(&mut self, body: &[u8]) -> io::Result<()> {
        self.frame.clear();
        encode_frame(0, body, &mut self.frame)?;
        self.corpus.append(&self.frame)
    }

    /// Syncs whatever was appended since the last sync: the corpus log
    /// first, so no record is durable before the entry it names.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn finish(&mut self) -> io::Result<()> {
        self.corpus.sync()?;
        self.cases.sync()
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
pub(crate) fn append_direct(parent: &Path, index: u32, record: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER + record.len());
    encode_frame(index, record, &mut frame)?;
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
            format!("frame {index} was cut short"),
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

/// The logs under `parent`: the canonical log `canonical` first, then
/// the worker logs by name. A missing `parent` holds none.
///
/// # Errors
///
/// File-system failure.
pub fn list_logs(parent: &Path, canonical: &str) -> Result<Vec<PathBuf>, CampaignError> {
    let listing = match std::fs::read_dir(parent) {
        Ok(listing) => listing,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
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
    let path = parent.join(canonical);
    let mut logs: Vec<PathBuf> = Vec::new();
    if path.exists() {
        logs.push(path);
    }
    logs.extend(workers.into_iter().map(|name| parent.join(name)));
    Ok(logs)
}

/// Reads `frame` (header and body) back from `log` into `buf`: `false`
/// when the bytes there are no longer the frame a scan verified.
pub(crate) fn reread(log: &mut File, frame: &Frame, buf: &mut Vec<u8>) -> io::Result<bool> {
    log.seek(SeekFrom::Start(frame.offset))?;
    buf.resize(HEADER + frame.len as usize, 0);
    log.read_exact(buf)?;
    Ok(buf[..HEADER] == header(frame.len, frame.index, frame.sum)
        && frame_sum(frame.index, &buf[HEADER..]) == frame.sum)
}

/// Publishes the canonical log `parent/canonical`: `write` streams it
/// into a temp file, which is synced and renamed over it, and `parent`
/// is synced.
///
/// # Errors
///
/// An error from `write`, or file-system failure.
pub(crate) fn write_canonical(
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

/// Where one case's frame lies.
#[derive(Debug, Clone, Copy)]
struct At {
    log: usize,
    frame: Frame,
}

/// The record frames of campaign logs, by case index: which log holds
/// each case's frame, and where.
#[derive(Debug)]
pub struct CaseFrames {
    logs: Vec<PathBuf>,
    at: Vec<Option<At>>,
}

impl CaseFrames {
    /// The logs under `dir`'s `cases/`: the canonical log first, then the
    /// worker logs by name. A missing `cases/` holds none.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn logs(dir: &CampaignDir) -> Result<Vec<PathBuf>, CampaignError> {
        list_logs(&dir.cases(), CANONICAL)
    }

    /// Scans every log under `dir` for a campaign of `cases` cases. Each
    /// frame of a case in `range` is verified, and `visit` sees its
    /// record once; frames of other cases are stepped over unread, so a
    /// ranged scan neither parses nor judges them.
    ///
    /// # Errors
    ///
    /// A bad frame that is not a torn tail, a frame for a case outside
    /// the campaign, two different frames for one case in `range`, an
    /// error from `visit`, or file-system failure.
    pub fn scan(
        dir: &CampaignDir,
        cases: u32,
        range: Range<u32>,
        mut visit: impl FnMut(u32, &[u8]) -> Result<(), CampaignError>,
    ) -> Result<CaseFrames, CampaignError> {
        let logs = Self::logs(dir)?;
        let mut at: Vec<Option<At>> = vec![None; cases as usize];
        for (log, path) in logs.iter().enumerate() {
            let corrupt = |m: String| CampaignError::Corrupt(format!("{}: {m}", path.display()));
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            let mut reader = FrameReader::new(BufReader::new(file), len);
            while let Some(frame) =
                reader
                    .next(|index| range.contains(&index))
                    .map_err(|e| match e {
                        CampaignError::Corrupt(m) => corrupt(m),
                        other => other,
                    })?
            {
                let slot = at.get_mut(frame.index as usize).ok_or_else(|| {
                    corrupt(format!(
                        "a record for case {}, outside the campaign's {cases} case(s)",
                        frame.index
                    ))
                })?;
                match slot {
                    Some(first)
                        if frame.verified
                            && (first.frame.len, first.frame.sum) != (frame.len, frame.sum) =>
                    {
                        return Err(corrupt(format!(
                            "case {} has a different record in {}",
                            frame.index,
                            logs[first.log].display()
                        )));
                    }
                    Some(_) => {}
                    None => {
                        *slot = Some(At { log, frame });
                        if frame.verified {
                            visit(frame.index, reader.record())?;
                        }
                    }
                }
            }
        }
        Ok(CaseFrames { logs, at })
    }

    /// Whether case `index` has a frame.
    pub fn contains(&self, index: u32) -> bool {
        matches!(self.at.get(index as usize), Some(Some(_)))
    }

    /// Every case with a frame, ascending.
    pub fn indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.at
            .iter()
            .enumerate()
            .filter(|(_, at)| at.is_some())
            .map(|(index, _)| index as u32)
    }

    /// Takes over `other`'s frames (a merge gathering its shards). The
    /// two must cover disjoint cases of one campaign.
    pub fn absorb(&mut self, other: CaseFrames) {
        let base = self.logs.len();
        self.logs.extend(other.logs);
        for (slot, theirs) in self.at.iter_mut().zip(other.at) {
            if let Some(At { log, frame }) = theirs {
                slot.get_or_insert(At {
                    log: base + log,
                    frame,
                });
            }
        }
    }

    /// Streams every frame, in case order, into `dir`'s canonical log:
    /// a temp file, synced, renamed over `cases.log`, and the directory
    /// synced. Each frame is read back and verified on the way.
    ///
    /// # Errors
    ///
    /// A frame that changed since the scan, or file-system failure.
    pub fn write_canonical(&self, dir: &CampaignDir) -> Result<(), CampaignError> {
        write_canonical(&dir.cases(), CANONICAL, |out| {
            let mut sources: Vec<Option<File>> = self.logs.iter().map(|_| None).collect();
            let mut frame = Vec::new();
            for at in self.at.iter().flatten() {
                let source = match &mut sources[at.log] {
                    Some(file) => file,
                    slot => slot.insert(File::open(&self.logs[at.log])?),
                };
                if !reread(source, &at.frame, &mut frame)? {
                    return Err(CampaignError::Corrupt(format!(
                        "{}: case {}'s frame changed since it was scanned",
                        self.logs[at.log].display(),
                        at.frame.index
                    )));
                }
                out.write_all(&frame)?;
            }
            Ok(())
        })
    }
}

impl CampaignDir {
    /// Compacts the corpus and record logs of a campaign of `cases` cases
    /// into the canonical `corpus/corpus.log` and `cases/cases.log` and
    /// removes the worker logs (see the [module docs](crate::caselog)).
    /// Callers compact once the directory holds a record for every case
    /// it owns. A directory with no worker log is already compact and is
    /// left alone.
    ///
    /// # Errors
    ///
    /// A corrupt log, or file-system failure.
    pub fn compact(&self, cases: u32) -> Result<(), CampaignError> {
        crate::corpus::compact(&self.corpus())?;
        let logs = CaseFrames::logs(self)?;
        let canonical = self.cases().join(CANONICAL);
        if logs.iter().all(|log| *log == canonical) {
            return Ok(());
        }
        let frames = CaseFrames::scan(self, cases, 0..cases, |_, _| Ok(()))?;
        frames.write_canonical(self)?;
        remove_worker_logs(&self.cases(), CANONICAL)?;
        sync_dir(&self.cases())?;
        Ok(())
    }

    /// Removes every worker log under `cases/` and `corpus/`, leaving
    /// the canonical logs and the sidecars alone: for a directory whose
    /// records and entries are compacted or held elsewhere.
    ///
    /// # Errors
    ///
    /// File-system failure.
    pub fn remove_worker_logs(&self) -> Result<(), CampaignError> {
        remove_worker_logs(&self.corpus(), crate::corpus::CANONICAL)?;
        remove_worker_logs(&self.cases(), CANONICAL)
    }

    /// Renders every case record of the campaign in this directory as a
    /// `case-NNNNNN.json` file at `out`'s [`case_path`](CampaignDir::case_path),
    /// and every corpus entry as `<name>.asim`, `.stim`, `.ckpt` and
    /// `.json` files under `out`'s `corpus/`, each through
    /// [`write_atomic`]: the bytes a campaign that kept one file per
    /// record and per corpus document published. Returns how many
    /// records and entries were exported.
    ///
    /// # Errors
    ///
    /// A missing, foreign-format or corrupt campaign, or file-system
    /// failure.
    pub fn export(&self, out: &CampaignDir) -> Result<(u32, u32), CampaignError> {
        let cases = self.load()?.cases;
        let corpus = crate::corpus::CorpusFrames::scan(&self.corpus())?;
        let mut records = 0;
        CaseFrames::scan(self, cases, 0..cases, |index, record| {
            write_atomic(&out.case_path(index), record)?;
            records += 1;
            Ok(())
        })?;
        let mut entries = 0;
        corpus.each(|name, files| {
            for (ext, text) in files.documents() {
                write_atomic(&out.corpus().join(format!("{name}.{ext}")), text.as_bytes())?;
            }
            entries += 1;
            Ok(())
        })?;
        Ok((records, entries))
    }
}

/// Removes every worker log under `parent`.
pub(crate) fn remove_worker_logs(parent: &Path, canonical: &str) -> Result<(), CampaignError> {
    let path = parent.join(canonical);
    for log in list_logs(parent, canonical)? {
        if log != path {
            std::fs::remove_file(log)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose append fails (here ENOSPC, from a log that is the
    /// full device) abandons that log: its next append starts a fresh
    /// worker log, so nothing lands after a frame the failure may have
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
        log.append(1, b"{}").unwrap();
        log.finish().unwrap();
        assert!(log.cases.dir_synced);
        log.cases.file = Some(File::options().append(true).open(full).unwrap());
        let err = log.append(3, b"{}").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC: {err}");
        log.append(3, b"{}").unwrap();
        assert!(!log.cases.dir_synced);
        log.finish().unwrap();
        assert!(log.cases.dir_synced);
        let mut seen = Vec::new();
        CaseFrames::scan(&dir, 4, 0..4, |index, record| {
            seen.push((index, record.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, [(1, b"{}".to_vec()), (3, b"{}".to_vec())]);
        assert_eq!(CaseFrames::logs(&dir).unwrap().len(), 2);
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
                        append_direct(&dir.cases(), index, record(index).as_bytes()).unwrap();
                    }
                });
            }
        });
        let mut seen = 0;
        CaseFrames::scan(&dir, 200, 0..200, |index, bytes| {
            assert_eq!(bytes, record(index).as_bytes());
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 200);
        assert_eq!(CaseFrames::logs(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
