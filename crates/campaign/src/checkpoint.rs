//! Case checkpoints as frames of the worker's own log.
//!
//! With [`RunOptions::case_checkpoint`](crate::RunOptions) on, a case's
//! lockstep run saves its position every [`CASE_CHECKPOINT_EVERY`]
//! verified cycles through a [`LogCheckpoints`] store: one
//! [`Kind::Checkpoint`](crate::caselog::Kind) frame keyed by the case
//! index, appended by the thread's own [`LogWriter`], which keeps at most
//! one, its in-flight case's latest, at its log's tail (see
//! [`LogWriter::checkpoint`]). A kill mid-case leaves that frame behind;
//! the next resume's scan hands the case the one with the most verified
//! cycles, and the case carries on from it. Compaction, a shard merge
//! and `campaign export` never copy one.
//!
//! **Body.** A [`CaseCheckpoint`]: the [`Fingerprint`] of the rest (`u64`
//! little-endian), the verified cycle count (`u64`), the case's profile
//! tally and flight ring so far — each a presence byte, then a `u32`
//! length and its text — and the lockstep document, to the end. The
//! tallies ride along so a resumed case's profile equals an
//! uninterrupted run's, and its flight log an uninterrupted checkpointed
//! run's (one that emits `session/cycles` once per chunk).

use crate::caselog::LogWriter;
use rtl_core::{Fingerprint, Profile, ProfileHook};
use rtl_cosim::CheckpointStore;
use rtl_obs::{Event, FlightRing};
use std::io;
use std::sync::{Arc, Mutex};

/// The cycle cadence of `--case-checkpoint` lockstep checkpoints.
pub const CASE_CHECKPOINT_EVERY: u64 = 256;

/// One case checkpoint: where the case's lockstep run stood, and what
/// its profile hook and flight ring held there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseCheckpoint {
    /// Cycles verified at the checkpoint.
    pub verified: u64,
    /// The case's profile tally, when it runs with profiling on.
    pub profile: Option<Profile>,
    /// The case's flight ring, oldest event first, when the flight
    /// recorder is armed.
    pub flight: Option<Vec<Event>>,
    /// The [`Lockstep::checkpoint`](rtl_cosim::Lockstep::checkpoint)
    /// document.
    pub lockstep: Vec<u8>,
}

impl CaseCheckpoint {
    /// The frame body (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// A tally too long for its length field.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut body = vec![0; 8];
        body.extend_from_slice(&self.verified.to_le_bytes());
        let flight = self.flight.as_ref().map(|events| {
            events
                .iter()
                .map(|event| event.render() + "\n")
                .collect::<String>()
        });
        for text in [self.profile.as_ref().map(Profile::render), flight] {
            let Some(text) = text else {
                body.push(0);
                continue;
            };
            let len = u32::try_from(text.len()).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "a case checkpoint's tally is over 4 GiB",
                )
            })?;
            body.push(1);
            body.extend_from_slice(&len.to_le_bytes());
            body.extend_from_slice(text.as_bytes());
        }
        body.extend_from_slice(&self.lockstep);
        let sum = checksum(&body[8..]);
        body[..8].copy_from_slice(&sum.to_le_bytes());
        Ok(body)
    }

    /// Decodes a frame body ([`encode`](CaseCheckpoint::encode)). Every
    /// length is checked against the bytes that remain before anything
    /// is allocated for it.
    ///
    /// # Errors
    ///
    /// A message naming the failed checksum, or the truncated, malformed
    /// or unparseable part.
    pub fn decode(body: &[u8]) -> Result<CaseCheckpoint, String> {
        let Some((sum, rest)) = body.split_first_chunk::<8>() else {
            return Err("the body is too short for its checksum".into());
        };
        if u64::from_le_bytes(*sum) != checksum(rest) {
            return Err("the body fails its checksum".into());
        }
        let Some((verified, mut rest)) = rest.split_first_chunk::<8>() else {
            return Err("the body ends before its verified cycle count".into());
        };
        let mut text = |what: &str| -> Result<Option<&str>, String> {
            let Some((&present, after)) = rest.split_first() else {
                return Err(format!("the body ends before the {what}"));
            };
            rest = after;
            if present == 0 {
                return Ok(None);
            }
            let Some((len, after)) = rest.split_first_chunk::<4>() else {
                return Err(format!("the body ends before the {what}'s length"));
            };
            let len = u32::from_le_bytes(*len) as usize;
            if present != 1 || len > after.len() {
                return Err(format!("the {what} is malformed"));
            }
            let (bytes, after) = after.split_at(len);
            rest = after;
            std::str::from_utf8(bytes)
                .map(Some)
                .map_err(|_| format!("the {what} is not UTF-8"))
        };
        let profile = text("profile tally")?
            .map(|text| Profile::parse(text).map_err(|e| format!("the profile tally: {e}")))
            .transpose()?;
        let flight = text("flight ring")?
            .map(|text| {
                text.lines()
                    .map(|line| Event::parse(line).map_err(|e| format!("the flight ring: {e}")))
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        Ok(CaseCheckpoint {
            verified: u64::from_le_bytes(*verified),
            profile,
            flight,
            lockstep: rest.to_vec(),
        })
    }
}

/// The body checksum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write(bytes);
    fp.finish()
}

/// The [`CheckpointStore`] a campaign case runs with: each save is a
/// checkpoint frame of the worker's log, carrying the case's profile
/// hook and flight ring as they stand, and the document it resumes from
/// is the checkpoint the campaign's scan found for it, whose tallies
/// [`load`](CheckpointStore::load) puts back in the hook and ring. Its
/// checkpoints only save work, so it is
/// [optional](CheckpointStore::optional): a lane mix that cannot resume
/// runs without it.
pub struct LogCheckpoints {
    /// The worker's log.
    pub log: Arc<Mutex<LogWriter>>,
    /// The case's index: every frame's key.
    pub index: u32,
    /// The case's profile hook (disabled when it does not profile).
    pub profile: ProfileHook,
    /// The case's flight ring, when the recorder is armed.
    pub flight: Option<Arc<FlightRing>>,
    /// The checkpoint to resume from.
    pub resume: Option<CaseCheckpoint>,
}

impl CheckpointStore for LogCheckpoints {
    fn every(&self) -> Option<u64> {
        Some(CASE_CHECKPOINT_EVERY)
    }

    fn resumes(&self) -> bool {
        self.resume.is_some()
    }

    fn load(&self) -> io::Result<Vec<u8>> {
        let lacks = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("the case checkpoint holds no {what}"),
            )
        };
        let checkpoint = self.resume.as_ref().ok_or(io::ErrorKind::NotFound)?;
        if self.profile.enabled() {
            let profile = checkpoint.profile.as_ref();
            self.profile
                .restore(profile.ok_or_else(|| lacks("profile tally"))?);
        }
        if let Some(ring) = &self.flight {
            let events = checkpoint.flight.clone();
            ring.restore(events.ok_or_else(|| lacks("flight ring"))?);
        }
        Ok(checkpoint.lockstep.clone())
    }

    fn save(&self, verified: u64, doc: &[u8]) -> io::Result<()> {
        let body = CaseCheckpoint {
            verified,
            profile: self.profile.enabled().then(|| self.profile.snapshot()),
            flight: self.flight.as_ref().map(|ring| ring.snapshot()),
            lockstep: doc.to_vec(),
        }
        .encode()?;
        let mut log = self.log.lock().expect(crate::runner::LOG_POISONED);
        log.checkpoint(self.index, &body)
    }

    fn optional(&self) -> bool {
        true
    }
}
