//! Property tests for the workspace's one JSON codec: arbitrary trees
//! round-trip through both renderers, and no input — random bytes or a
//! truncated real document — makes the parser panic.

use proptest::prelude::*;
use rtl_obs::json::Json;
use rtl_obs::Event;

/// A case record as `CampaignDir::write_case` renders it.
const RECORD: &str = r#"{
  "index": 0,
  "seed": 1,
  "cycles": 40,
  "lane_stats": [
    {
      "lane": "interp",
      "cycles": 41,
      "accesses": 123
    },
    {
      "lane": "vm-fault",
      "cycles": 41,
      "accesses": 123
    }
  ],
  "status": "diverged",
  "divergence_cycle": 40,
  "divergence_kind": "trace",
  "corpus": "seed-1"
}
"#;

/// The head of an `asim2-profile v1` sidecar.
const PROFILE: &str = r#"{
  "format": "asim2-profile v1",
  "counters": {
    "c/change": 82,
    "c/eval": 82,
    "m0/read/0": 42,
    "m1/read/10": 4
  }
}
"#;

/// `asim2-events v1` lines, one of each shape with a payload.
const EVENTS: [&str; 3] = [
    r#"{"v":1,"e":"meta","format":"asim2-events v1"}"#,
    r#"{"v":1,"e":"span","src":"campaign","key":"case","id":2,"phase":"exit","us":4394}"#,
    r#"{"v":1,"e":"mark","src":"shard","key":"run","detail":"shard \"0\"\n\u0001"}"#,
];

/// Fleet frames as `protocol::encode` lays them out: a record upload
/// carrying the record text, and an events upload carrying the log.
fn frames() -> Vec<String> {
    let frame = |kind: &str, body: String| {
        Json::Obj(vec![
            ("type".into(), Json::str(kind)),
            ("index".into(), Json::num(0)),
            ("body".into(), Json::Str(body)),
        ])
        .render_compact()
    };
    vec![
        frame("record", RECORD.to_string()),
        frame("events", EVENTS.join("\n") + "\n"),
    ]
}

/// A splitmix64 stream: the tree generator's entropy, seeded by proptest.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A short string over an alphabet of the characters escaping gets
    /// wrong: quotes, backslashes, every control-character class, DEL,
    /// and multi-byte UTF-8 of every length.
    fn text(&mut self) -> String {
        const ALPHABET: [char; 14] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
        ];
        (0..self.below(8))
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn number(&mut self) -> Json {
        match self.below(4) {
            0 => Json::num(u64::MAX),
            1 => Json::num(self.next()),
            2 => Json::num(-(self.below(1000) as i64)),
            _ => Json::num(format!(
                "{}.{}e-{}",
                self.below(100),
                self.below(100),
                self.below(9)
            )),
        }
    }

    fn tree(&mut self, depth: usize) -> Json {
        let leaf_only = depth == 0;
        match self.below(if leaf_only { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 1),
            2 => self.number(),
            3 => Json::Str(self.text()),
            4 => Json::Arr((0..self.below(4)).map(|_| self.tree(depth - 1)).collect()),
            _ => {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                for _ in 0..self.below(4) {
                    let key = self.text();
                    if pairs.iter().all(|(k, _)| *k != key) {
                        pairs.push((key, self.tree(depth - 1)));
                    }
                }
                Json::Obj(pairs)
            }
        }
    }
}

/// Every strict prefix of `text`, trailing whitespace aside, that ends
/// on a char boundary.
fn prefixes(text: &str) -> impl Iterator<Item = &str> {
    let text = text.trim_end();
    (0..text.len())
        .filter(|&end| text.is_char_boundary(end))
        .map(|end| &text[..end])
}

proptest! {
    /// Any tree — control characters, quotes, backslashes, non-ASCII
    /// text and `u64::MAX` included — parses back from both layouts, and
    /// the compact layout never holds a raw newline.
    #[test]
    fn trees_round_trip_through_both_renderers(seed in any::<u64>()) {
        let doc = Gen(seed).tree(4);
        prop_assert_eq!(Json::parse(&doc.render()), Ok(doc.clone()));
        let line = doc.render_compact();
        prop_assert!(!line.contains('\n'), "{}", line);
        prop_assert_eq!(Json::parse(&line), Ok(doc));
    }

    /// Arbitrary bytes, read as lossy UTF-8, never panic the parser or
    /// the event schema on top of it.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = Event::parse(&text);
    }

    /// Bytes drawn from JSON's own punctuation get much deeper into the
    /// grammar than uniform bytes do; they never panic it either.
    #[test]
    fn json_flavoured_bytes_never_panic(picks in proptest::collection::vec(any::<u8>(), 0..256)) {
        const ALPHABET: &[u8] = b"{}[]{}[],:\"\\\\u0aeE.+-19tfn \n";
        let text: String = picks
            .iter()
            .map(|&p| char::from(ALPHABET[usize::from(p) % ALPHABET.len()]))
            .collect();
        let _ = Json::parse(&text);
        let _ = Event::parse(&text);
    }
}

/// Every truncation of a real record, profile, event line and fleet
/// frame is refused with an error (a strict prefix of one object is never
/// a document), and the whole document still parses.
#[test]
fn every_prefix_of_a_real_document_is_an_error() {
    let mut docs = vec![RECORD.to_string(), PROFILE.to_string()];
    docs.extend(EVENTS.iter().map(|line| line.to_string()));
    docs.extend(frames());
    for doc in &docs {
        assert!(Json::parse(doc).is_ok(), "{doc}");
        for prefix in prefixes(doc) {
            assert!(Json::parse(prefix).is_err(), "accepted {prefix:?}");
        }
    }
    for line in EVENTS {
        assert!(Event::parse(line).is_ok(), "{line}");
        for prefix in prefixes(line) {
            assert!(Event::parse(prefix).is_err(), "accepted {prefix:?}");
        }
    }
}

/// One duplicated key, at any depth, refuses each kind of document.
#[test]
fn a_duplicated_key_refuses_every_document_kind() {
    let record = RECORD.replacen("\"seed\": 1,", "\"seed\": 1,\n  \"seed\": 2,", 1);
    let profile = PROFILE.replacen("\"c/eval\": 82,", "\"c/eval\": 82,\n    \"c/eval\": 1,", 1);
    let event = EVENTS[1].replacen("\"id\":2,", "\"id\":2,\"id\":3,", 1);
    for doc in [record.as_str(), profile.as_str(), event.as_str()] {
        let err = Json::parse(doc).unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
    }
    assert!(Event::parse(&event).is_err());
}
