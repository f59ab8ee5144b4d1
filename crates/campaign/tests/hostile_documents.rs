//! Garbage → error or a dropped tail, never a panic, for the campaign
//! log decoders: the frame reader ([`FrameReader`]) and the corpus frame
//! body decoder ([`decode_entry`]).
//!
//! A valid log of real record renderings is fed to the decoder as
//! arbitrary bytes, as every truncation, with zeros where a crash leaves
//! them, with every single bit flipped, and with a length prefix set
//! anywhere up to `u32::MAX`. Each
//! input must either return `Err` or end in a dropped tail, the frames
//! read before that must be the log's own, and the record buffer must
//! never grow past [`FRAME_CAP`]: a damaged length cannot make the reader
//! allocate for it, and no record larger than the cap reaches the JSON
//! parser, whose tree costs about 30 bytes per input byte.
//!
//! A corpus frame's body is fed to its decoder truncated at every byte,
//! with every single bit flipped, with each length prefix set anywhere up
//! to `u32::MAX`, with a document that is not UTF-8 and with a document
//! missing. Each must return `Err`, or for a flip that leaves the body
//! well formed, an entry; never a panic.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtl_campaign::caselog::{encode_frame, FrameReader, FRAME_CAP, HEADER};
use rtl_campaign::corpus::{decode_entry, encode_entry};
use rtl_campaign::{CampaignError, CaseRecord, CaseStatus, CorpusFiles, LaneAccess};

/// What the decoder made of a log: the frames it read, and where a
/// dropped tail starts.
type Decoded = Result<(Vec<(u32, Vec<u8>)>, Option<u64>), CampaignError>;

fn decode(bytes: &[u8]) -> Decoded {
    let mut reader = FrameReader::new(bytes, bytes.len() as u64);
    let mut frames = Vec::new();
    let result = loop {
        match reader.next(|_| true) {
            Ok(Some(frame)) => frames.push((frame.index, reader.record().to_vec())),
            Ok(None) => break Ok((frames, reader.tail())),
            Err(e) => break Err(e),
        }
    };
    assert!(
        reader.capacity() <= FRAME_CAP as usize,
        "the record buffer grew to {} bytes",
        reader.capacity()
    );
    result
}

/// Five real records, as the runner renders them.
fn records() -> Vec<(u32, Vec<u8>)> {
    (0..5u32)
        .map(|index| {
            let record = CaseRecord {
                index,
                seed: 40 + u64::from(index),
                cycles: 64,
                lane_stats: vec![LaneAccess {
                    lane: "interp".into(),
                    cycles: 64,
                    accesses: 100 + u64::from(index),
                }],
                status: if index % 2 == 0 {
                    CaseStatus::Agreed
                } else {
                    CaseStatus::Diverged {
                        cycle: 40,
                        kind: "output:x3".into(),
                        corpus: Some(format!("seed-{index}")),
                    }
                },
            };
            (index, record.to_json().render().into_bytes())
        })
        .collect()
}

/// The valid log of [`records`], and where each frame starts.
fn valid_log() -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut starts = Vec::new();
    for (index, record) in records() {
        starts.push(log.len());
        encode_frame(index, &record, &mut log).unwrap();
    }
    (log, starts)
}

/// The decoder either refused `bytes` or dropped a tail, after reading
/// only a prefix of the valid log's frames.
fn refused_or_tail(decoded: &Decoded, what: &str) {
    if let Ok((frames, tail)) = decoded {
        assert!(tail.is_some(), "{what}: read as a whole log");
        assert!(
            records().starts_with(frames),
            "{what}: read a frame the log does not hold"
        );
    }
}

#[test]
fn the_valid_log_reads_back_whole() {
    let (log, _) = valid_log();
    let (frames, tail) = decode(&log).unwrap();
    assert_eq!(frames, records());
    assert_eq!(tail, None);
    assert_eq!(decode(&[]).unwrap(), (Vec::new(), None));
}

/// A crash can leave a log longer than its data, the rest zeros. Zeros
/// after the last frame, or over the end of it, are a dropped tail;
/// zeros with a frame after them are not.
#[test]
fn a_zero_filled_tail_is_dropped_and_zeros_before_a_frame_are_refused() {
    let (log, starts) = valid_log();
    for zeros in [1, HEADER - 1, HEADER, 100, 5000] {
        let mut bytes = log.clone();
        bytes.resize(log.len() + zeros, 0);
        let (frames, tail) = decode(&bytes).unwrap();
        assert_eq!(frames, records(), "{zeros} zeros");
        assert_eq!(tail, Some(log.len() as u64), "{zeros} zeros");

        let last = *starts.last().unwrap();
        let mut torn = log.clone();
        torn.truncate(last + HEADER + 7);
        torn.resize(log.len() + zeros, 0);
        let (frames, tail) = decode(&torn).unwrap();
        assert_eq!(frames, records()[..4], "{zeros} zeros over the last frame");
        assert_eq!(tail, Some(last as u64), "{zeros} zeros over the last frame");
    }
    let mut bytes = log.clone();
    bytes.resize(log.len() + 100, 0);
    bytes.extend_from_slice(&log[..starts[1]]);
    let err = decode(&bytes).unwrap_err();
    assert!(err.to_string().contains("fails its checksum"), "{err}");
}

#[test]
fn arbitrary_bytes_are_refused_or_a_dropped_tail() {
    let (log, _) = valid_log();
    let mut rng = StdRng::seed_from_u64(0xca5e_0001);
    for round in 0..20_000 {
        let len = rng.random_range(1..=2 * HEADER + 64);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Every other input starts as a valid log, so the garbage also
        // lands after good frames.
        if round % 2 == 1 {
            bytes.splice(0..0, log.iter().copied());
        }
        refused_or_tail(&decode(&bytes), &format!("round {round}"));
    }
}

#[test]
fn every_truncation_ends_in_a_dropped_tail_at_a_frame_boundary() {
    let (log, starts) = valid_log();
    for cut in 0..log.len() {
        let (frames, tail) = decode(&log[..cut]).unwrap();
        let whole = starts.iter().filter(|&&start| start < cut).count();
        let boundary = starts.contains(&cut);
        let kept = if boundary { whole } else { whole - 1 };
        assert_eq!(frames, records()[..kept], "cut at {cut}");
        let expected = (!boundary).then(|| starts[kept] as u64);
        assert_eq!(tail, expected, "cut at {cut}");
    }
}

#[test]
fn every_single_bit_flip_is_refused_or_a_dropped_tail() {
    let (log, _) = valid_log();
    for bit in 0..log.len() * 8 {
        let mut bytes = log.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        refused_or_tail(&decode(&bytes), &format!("bit {bit}"));
    }
}

#[test]
fn length_prefixes_up_to_u32_max_never_allocate_past_the_cap() {
    let (log, starts) = valid_log();
    let mut rng = StdRng::seed_from_u64(0xca5e_0002);
    let mut lengths = vec![
        0,
        1,
        FRAME_CAP - 1,
        FRAME_CAP,
        FRAME_CAP + 1,
        1 << 24,
        1 << 31,
        u32::MAX - 1,
        u32::MAX,
    ];
    lengths.extend((0..2_000).map(|_| rng.next_u64() as u32));
    for frame in [0, starts.len() - 1] {
        for &len in &lengths {
            let mut bytes = log.clone();
            let at = starts[frame];
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            let decoded = decode(&bytes);
            refused_or_tail(&decoded, &format!("frame {frame}, length {len}"));
            if len > FRAME_CAP {
                assert!(
                    matches!(&decoded, Err(CampaignError::Corrupt(m)) if m.contains("frame cap")),
                    "frame {frame}, length {len}: {decoded:?}"
                );
            }
        }
    }
}

/// A 16 MiB record is refused before the reader allocates for it, and
/// the writer refuses to frame one.
#[test]
fn a_record_over_the_cap_is_refused_unread() {
    let huge = vec![b' '; 16 << 20];
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(huge.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&[0; HEADER - 4]);
    bytes.extend_from_slice(&huge);
    let mut reader = FrameReader::new(&bytes[..], bytes.len() as u64);
    let err = reader.next(|_| true).unwrap_err();
    assert!(err.to_string().contains("frame cap"), "{err}");
    assert_eq!(reader.capacity(), 0, "nothing was allocated");

    let mut out = Vec::new();
    let err = encode_frame(0, &huge, &mut out).unwrap_err();
    assert!(err.to_string().contains("frame cap"), "{err}");
    assert!(out.is_empty());
    let mut at_cap = Vec::new();
    encode_frame(7, &vec![b' '; FRAME_CAP as usize], &mut at_cap).unwrap();
    let (frames, tail) = decode(&at_cap).unwrap();
    assert_eq!((frames.len(), frames[0].0, tail), (1, 7, None));
}

/// A corpus entry's documents, shaped like a shrunk entry's.
fn entry_files() -> CorpusFiles {
    CorpusFiles {
        asim: "# cosim fuzz case seed 7 size 1\nc* x0 .\nM c 0 c 1 1\nA x0 2 c.0.3 c\n.\n".into(),
        stim: "3\n-1\n40\n".into(),
        ckpt: "asim2-checkpoint v1\ndesign 0123456789abcdef\ncycle 40\nc 7\n".into(),
        meta: "{\"format\": \"asim2-corpus v1\", \"name\": \"seed-7\"}".into(),
    }
}

const FINGERPRINT: u64 = 0x0123_4567_89ab_cdef;

/// A valid corpus frame body, and where each length prefix starts.
fn entry_body() -> (Vec<u8>, Vec<usize>) {
    let files = entry_files();
    let body = encode_entry(FINGERPRINT, "seed-7", &files).unwrap();
    let mut prefixes = vec![8];
    for text in ["seed-7", &files.asim, &files.stim, &files.ckpt] {
        prefixes.push(prefixes.last().unwrap() + 4 + text.len());
    }
    (body, prefixes)
}

#[test]
fn a_corpus_body_reads_back_whole() {
    let (body, _) = entry_body();
    let (fingerprint, name, files) = decode_entry(&body).unwrap();
    assert_eq!(
        (fingerprint, name.as_str(), files),
        (FINGERPRINT, "seed-7", entry_files())
    );
}

#[test]
fn every_truncation_of_a_corpus_body_is_refused() {
    let (body, _) = entry_body();
    for cut in 0..body.len() {
        assert!(decode_entry(&body[..cut]).is_err(), "cut at {cut}");
    }
    let mut longer = body.clone();
    longer.push(b'\n');
    let err = decode_entry(&longer).unwrap_err();
    assert!(err.contains("follow the last document"), "{err}");
}

#[test]
fn every_single_bit_flip_of_a_corpus_body_is_refused_or_decodes() {
    let (body, prefixes) = entry_body();
    for bit in 0..body.len() * 8 {
        let mut bytes = body.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let at = bit / 8;
        let in_a_prefix = prefixes.iter().any(|&p| (p..p + 4).contains(&at));
        match decode_entry(&bytes) {
            // A flipped length cannot tile the body exactly again.
            Ok(_) => assert!(!in_a_prefix, "bit {bit}: a flipped length decoded"),
            Err(e) => assert!(!e.is_empty()),
        }
    }
}

#[test]
fn corpus_lengths_up_to_u32_max_are_refused_before_allocating() {
    let (body, prefixes) = entry_body();
    let mut rng = StdRng::seed_from_u64(0xca5e_0003);
    let mut lengths = vec![FRAME_CAP, FRAME_CAP + 1, 1 << 31, u32::MAX - 1, u32::MAX];
    lengths.extend((0..500).map(|_| rng.next_u64() as u32 | (1 << 20)));
    for &at in &prefixes {
        for &len in &lengths {
            let mut bytes = body.clone();
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            let err = decode_entry(&bytes).unwrap_err();
            assert!(
                err.contains("claims"),
                "prefix at {at}, length {len}: {err}"
            );
        }
    }
    // A document over the cap is refused even when its bytes are there.
    let mut huge = FINGERPRINT.to_le_bytes().to_vec();
    huge.extend_from_slice(&(FRAME_CAP + 1).to_le_bytes());
    huge.resize(huge.len() + FRAME_CAP as usize + 1, b'a');
    let err = decode_entry(&huge).unwrap_err();
    assert!(err.contains("claims"), "{err}");
    let over = CorpusFiles {
        ckpt: "x".repeat(FRAME_CAP as usize + 1),
        ..entry_files()
    };
    assert!(encode_entry(FINGERPRINT, "seed-7", &over).is_err());
}

#[test]
fn non_utf8_and_missing_documents_are_refused() {
    let (body, prefixes) = entry_body();
    for (what, &at) in ["name", ".asim", ".stim", ".ckpt", ".json"]
        .iter()
        .zip(&prefixes)
    {
        let mut bytes = body.clone();
        bytes[at + 4] = 0xff;
        let err = decode_entry(&bytes).unwrap_err();
        assert_eq!(err, format!("the {what} is not UTF-8"));
    }
    // The `.json` document left out: the body ends before it.
    let err = decode_entry(&body[..prefixes[4]]).unwrap_err();
    assert_eq!(err, "the body ends before the .json");
    for name in ["", ".tmp-1-seed-7", "../x", "a/b"] {
        let body = encode_entry(FINGERPRINT, name, &entry_files()).unwrap();
        let err = decode_entry(&body).unwrap_err();
        assert!(err.contains("not a plain file stem"), "{name:?}: {err}");
    }
}

#[test]
fn arbitrary_bytes_are_never_a_corpus_panic() {
    let (body, _) = entry_body();
    let mut rng = StdRng::seed_from_u64(0xca5e_0004);
    for round in 0..20_000 {
        let len = rng.random_range(0..=96);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        if round % 2 == 1 {
            let keep = rng.random_range(0..body.len());
            bytes.splice(0..0, body[..keep].iter().copied());
        }
        let _ = decode_entry(&bytes);
    }
}
