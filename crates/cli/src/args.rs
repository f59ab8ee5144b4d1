//! The one flag grammar: every `asim2` command's row in [`COMMANDS`] and
//! the one parser, [`parse`], that reads a command line against it.
//!
//! A row spells its flags the way the usage text does: `--flag` is a
//! switch, `--flag VALUE` takes the next token as its value (whatever
//! it looks like), and `--flag[=MS]` is a switch that may carry an
//! inline value. A lone `-` is a positional. The parser refuses a flag
//! outside the row and a value flag with nothing after it; what a flag
//! *means* is checked by the command that reads it.

use crate::{usage_err, CliError};

/// The positional count of a row that takes any number of them. A
/// command checks its own minimum, so the message names what is missing.
const MANY: usize = usize::MAX;

/// The shared run flags: how a campaign executes, never what it
/// computes, so none of them is fingerprinted.
const RUN: &str = "--workers N --limit N --case-checkpoint --flight --metrics-out F \
    --profile-out F --progress[=MS] --quiet";

/// The shared config flags: the fingerprinted campaign configuration.
const CONFIG: &str =
    "--cases N --seed N --engines LIST --cycles N --size N --compare-every N --lint-oracle";

/// Every command and subcommand: its name, its flags (the lists are
/// joined, in order) and how many positionals it accepts.
#[rustfmt::skip]
const COMMANDS: &[(&str, &[&str], usize)] = &[
    ("help", &[], 0),
    ("check", &["-v"], 1),
    ("run", &["--cycles N --engine NAME --no-trace --stats --interactive --checkpoint FILE \
        --checkpoint-every N --resume FILE"], 1),
    ("compile", &["--backend NAME -o OUT --cycles N --interactive --no-opt"], 1),
    ("netlist", &["--format NAME"], 1),
    ("vcd", &["-o OUT --cycles N"], 1),
    ("spec", &[], 1),
    ("fig", &[], 1),
    ("lint", &["--deny WHAT --allow CODE --format NAME --codes"], MANY),
    ("cosim", &["--engines LIST --cycles N --scenario NAME --compare-every N --compare LIST \
        --checkpoint F --checkpoint-every N --resume F --dump-divergence DIR \
        --export-digests F --check-digests F --lint-oracle"], 1),
    ("fuzz", &["--seed N --cases N --cycles N --size N --engines LIST"], 0),
    ("profile", &["--scenario NAME --engine NAME --cycles N --top N --format NAME"], 1),
    ("campaign run", &["--dir D", RUN, CONFIG], 0),
    ("campaign resume", &["--dir D", RUN], 0),
    ("campaign replay", &["--dir D --engines LIST"], 0),
    ("campaign shrink", &["--dir D --seed N --engines LIST --cycles N --size N \
        --compare-every N"], 0),
    ("campaign export", &["--dir D --out O"], 0),
    ("campaign shard plan", &["--plan F --shards K", CONFIG], 0),
    ("campaign shard run", &["--plan F --shard I --dir D", RUN], 0),
    ("campaign shard merge", &["--plan F --out D --shards DIRS --metrics-out F \
        --profile-out F"], 0),
    ("fleet serve", &["--dir D --bind ADDR --port-file F --token T --lease N \
        --lease-deadline MS --limit N --flight --metrics-out F --profile-out F \
        --progress[=MS] --quiet", CONFIG], 0),
    ("fleet work", &["--connect ADDR --token T --name N --workers N --scratch D \
        --fingerprint HEX --abandon-after N --quiet"], 0),
    ("fleet status", &["--connect ADDR --token T --watch[=MS] --format NAME"], 0),
    ("metrics summarize", &["--check --group"], MANY),
    ("metrics trace-export", &["--out F"], MANY),
    ("metrics flight", &[], 1),
];

/// What a flag of a row takes after it.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: a switch.
    Nothing,
    /// The next token.
    Value,
    /// Nothing, or an inline `=VALUE`.
    Inline,
}

/// The flags of a row, in order, with what each takes.
fn row_flags(lists: &[&'static str]) -> Vec<(&'static str, Takes)> {
    let mut flags = Vec::new();
    for token in lists.iter().flat_map(|l| l.split_whitespace()) {
        if let Some(flag) = token.strip_suffix("[=MS]") {
            flags.push((flag, Takes::Inline));
        } else if token.starts_with('-') {
            flags.push((token, Takes::Nothing));
        } else if let Some(last) = flags.last_mut() {
            last.1 = Takes::Value;
        }
    }
    flags
}

/// One flag or positional of a parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arg<'a> {
    /// A flag of the row with its value, if it took one.
    Flag(&'a str, Option<&'a str>),
    /// A positional argument.
    Positional(&'a str),
}

/// A command line parsed against its row of [`COMMANDS`].
pub(crate) struct Args<'a> {
    /// The row's name: `run`, `campaign shard merge`, ...
    pub name: &'static str,
    /// The flags and positionals, in command-line order.
    pub items: Vec<Arg<'a>>,
}

impl<'a> Args<'a> {
    /// Every value given to `flag`, in order.
    pub fn values(&self, flag: &str) -> Vec<&'a str> {
        self.items
            .iter()
            .filter_map(|item| match *item {
                Arg::Flag(f, value) if f == flag => value,
                _ => None,
            })
            .collect()
    }

    /// The first value given to `flag`.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).first().copied()
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.items
            .iter()
            .any(|item| matches!(item, Arg::Flag(f, _) if *f == flag))
    }

    /// The first value of `flag`, parsed as an integer.
    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| usage_err(format!("{flag} needs an integer")))
            })
            .transpose()
    }

    /// The positionals, in order.
    pub fn positionals(&self) -> Vec<&'a str> {
        self.items
            .iter()
            .filter_map(|item| match *item {
                Arg::Positional(p) => Some(p),
                Arg::Flag(..) => None,
            })
            .collect()
    }

    /// The first positional.
    pub fn positional(&self) -> Option<&'a str> {
        self.positionals().first().copied()
    }
}

/// The words that can follow `group` in a command name, in table order.
fn subcommands(group: &str) -> Vec<&'static str> {
    let mut subs = Vec::new();
    for (name, ..) in COMMANDS {
        let rest = name.strip_prefix(group).and_then(|r| r.strip_prefix(' '));
        if let Some(word) = rest.and_then(|r| r.split(' ').next()) {
            if !subs.contains(&word) {
                subs.push(word);
            }
        }
    }
    subs
}

/// Parses a whole command line: the command words name a row, and the
/// rest must fit it.
///
/// # Errors
///
/// A usage error (exit 1) for a missing or unknown command, a flag the
/// row does not take, a value flag with nothing after it, or more
/// positionals than the row accepts.
pub(crate) fn parse<'a>(words: &[&'a str]) -> Result<Args<'a>, CliError> {
    let mut group = String::new();
    let mut at = 0;
    let (name, lists, max) = loop {
        let Some(&word) = words.get(at) else {
            return Err(usage_err(if group.is_empty() {
                "missing command".to_string()
            } else {
                format!(
                    "{group} needs a subcommand ({})",
                    subcommands(&group).join("|")
                )
            }));
        };
        let word = match word {
            "--help" | "-h" if at == 0 => "help",
            word => word,
        };
        let name = if group.is_empty() {
            word.to_string()
        } else {
            format!("{group} {word}")
        };
        at += 1;
        if let Some(row) = COMMANDS.iter().find(|row| row.0 == name) {
            break *row;
        }
        if subcommands(&name).is_empty() {
            return Err(usage_err(if group.is_empty() {
                format!("unknown command {word:?}")
            } else {
                format!(
                    "unknown {group} subcommand {word:?} (expected {})",
                    subcommands(&group).join("|")
                )
            }));
        }
        group = name;
    };

    let flags = row_flags(lists);
    let mut items = Vec::new();
    let mut rest = words[at..].iter().copied();
    while let Some(word) = rest.next() {
        if word == "-" || !word.starts_with('-') {
            let taken = items
                .iter()
                .filter(|i| matches!(i, Arg::Positional(_)))
                .count();
            if taken == max {
                return Err(usage_err(format!("unexpected argument {word:?}")));
            }
            items.push(Arg::Positional(word));
            continue;
        }
        let (flag, inline) = match word.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (word, None),
        };
        let takes = flags.iter().find(|f| f.0 == flag).map(|f| f.1);
        match (takes, inline) {
            (Some(Takes::Value), None) => {
                let value = rest
                    .next()
                    .ok_or_else(|| usage_err(format!("{word} needs a value")))?;
                items.push(Arg::Flag(flag, Some(value)));
            }
            (Some(Takes::Nothing), None) | (Some(Takes::Inline), _) => {
                items.push(Arg::Flag(flag, inline));
            }
            _ => {
                let accepted: Vec<&str> = flags.iter().map(|f| f.0).collect();
                let accepted = if accepted.is_empty() {
                    "none".to_string()
                } else {
                    accepted.join(" ")
                };
                return Err(usage_err(format!(
                    "{name} does not take {word} (accepted: {accepted})"
                )));
            }
        }
    }
    Ok(Args { name, items })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed<'a>(words: &[&'a str]) -> Args<'a> {
        match parse(words) {
            Ok(args) => args,
            Err(e) => panic!("{words:?}: {}", e.message),
        }
    }

    /// The first line of the usage error `words` is refused with.
    fn refusal(words: &[&str]) -> String {
        match parse(words) {
            Ok(_) => panic!("{words:?} parsed"),
            Err(e) => {
                assert_eq!(e.code, 1, "{}", e.message);
                e.message.lines().next().unwrap_or_default().to_string()
            }
        }
    }

    /// Each command, a misspelling of one of its flags, and one of its
    /// value flags (`None` where it has none).
    const PROBES: &[(&str, &str, Option<&str>)] = &[
        ("help", "--verbose", None),
        ("check", "--verbose", None),
        ("run", "--no-trcae", Some("--cycles")),
        ("compile", "--no-optt", Some("-o")),
        ("netlist", "--fromat", Some("--format")),
        ("vcd", "--cylces", Some("-o")),
        ("spec", "--foo", None),
        ("fig", "--foo", None),
        ("lint", "--bogus", Some("--allow")),
        ("cosim", "--lint-oracel", Some("--scenario")),
        ("fuzz", "--sede", Some("--seed")),
        ("profile", "--topp", Some("--top")),
        ("campaign run", "--wrokers", Some("--workers")),
        ("campaign resume", "--cases", Some("--dir")),
        ("campaign replay", "--seed", Some("--engines")),
        ("campaign shrink", "--lint-oracle", Some("--seed")),
        ("campaign export", "--shards", Some("--out")),
        ("campaign shard plan", "--shard", Some("--shards")),
        ("campaign shard run", "--shards", Some("--shard")),
        ("campaign shard merge", "--cases", Some("--out")),
        ("fleet serve", "--workers", Some("--lease")),
        ("fleet work", "--lease", Some("--connect")),
        ("fleet status", "--progress", Some("--connect")),
        ("metrics summarize", "--out", None),
        ("metrics trace-export", "--check", Some("--out")),
        ("metrics flight", "--out", None),
    ];

    /// Runs the whole tool: exit code, stdout, stderr.
    fn run(words: &[&str]) -> (i32, String, String) {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = crate::run_with_input(&args, &mut &b""[..], &mut out, &mut err);
        let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
        (code, text(out), text(err))
    }

    #[test]
    fn every_command_refuses_a_misspelled_or_trailing_flag() {
        for (name, ..) in COMMANDS {
            assert!(PROBES.iter().any(|p| p.0 == *name), "no probe for {name}");
        }
        // A command that writes a directory is given one, which must not
        // appear: the refusal comes before anything runs.
        let dir = std::env::temp_dir().join(format!("asim-cli-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for &(name, misspelled, value_flag) in PROBES {
            let mut words: Vec<&str> = name.split(' ').collect();
            let (_, lists, _) = COMMANDS.iter().find(|row| row.0 == name).unwrap();
            if row_flags(lists).iter().any(|flag| flag.0 == "--dir") {
                words.extend(["--dir", dir.to_str().unwrap()]);
            }
            words.push(misspelled);
            let (code, out, err) = run(&words);
            assert_eq!(code, 1, "{words:?}: {err}");
            assert!(out.is_empty(), "{words:?} ran: {out}");
            assert!(!dir.exists(), "{words:?} wrote {}", dir.display());
            let expected = format!("{name} does not take {misspelled} (accepted: ");
            assert!(err.starts_with(&expected), "{words:?}: {err}");
            if let Some(flag) = value_flag {
                words.pop();
                words.push(flag);
                let (code, out, err) = run(&words);
                assert_eq!(code, 1, "{words:?}: {err}");
                assert!(out.is_empty(), "{words:?} ran: {out}");
                assert!(err.starts_with(&format!("{flag} needs a value\n")), "{err}");
            }
        }
    }

    /// The flags `USAGE` lists for each command, one entry per line that
    /// starts a command (its continuation lines included).
    fn usage_flags() -> Vec<(&'static str, Vec<&'static str>)> {
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in crate::USAGE.lines().skip(1).take_while(|l| !l.is_empty()) {
            if let Some(rest) = line.trim_start().strip_prefix("asim2 ") {
                let words: Vec<&str> = rest.split_whitespace().collect();
                let name = (1..=words.len())
                    .rev()
                    .find_map(|n| {
                        let name = words[..n].join(" ");
                        COMMANDS.iter().find(|row| row.0 == name)
                    })
                    .unwrap_or_else(|| panic!("no row for usage line {line:?}"))
                    .0;
                entries.push((name, Vec::new()));
            }
            let flags = &mut entries.last_mut().expect("a command line first").1;
            for token in line.split(|c: char| c.is_whitespace() || "[]()|".contains(c)) {
                let token = token.split('=').next().unwrap_or_default();
                let token = token.trim_end_matches([',', ';']);
                let name = token.trim_start_matches('-');
                if token.len() > name.len() && name.starts_with(|c: char| c.is_ascii_lowercase()) {
                    flags.push(token);
                }
            }
        }
        entries
    }

    #[test]
    fn the_table_and_the_usage_text_list_the_same_flags() {
        let usage = usage_flags();
        for (name, lists, _) in COMMANDS {
            let mut documented: Vec<&str> = usage
                .iter()
                .filter(|(n, _)| n == name)
                .flat_map(|(_, flags)| flags.iter().copied())
                .collect();
            documented.sort_unstable();
            documented.dedup();
            let mut row: Vec<&str> = row_flags(lists).iter().map(|f| f.0).collect();
            row.sort_unstable();
            assert_eq!(row, documented, "{name}: table row vs USAGE");
        }
    }

    #[test]
    fn token_rules() {
        // The token after a value flag is its value, whatever it looks like.
        let args = parsed(&["campaign", "run", "--dir", "-x", "--progress=5", "--quiet"]);
        assert_eq!(args.name, "campaign run");
        assert_eq!(args.value("--dir"), Some("-x"));
        assert_eq!(args.value("--progress"), Some("5"));
        assert!(args.has("--quiet") && !args.has("--flight"));
        let args = parsed(&[
            "fleet",
            "status",
            "--watch",
            "--connect",
            "h:1",
            "--token",
            "t",
        ]);
        assert!(args.has("--watch") && args.value("--watch").is_none());
        // A lone `-` is a positional; order is kept for `--group`.
        let args = parsed(&["metrics", "summarize", "-", "--group", "a", "b"]);
        assert_eq!(args.positionals(), ["-", "a", "b"]);
        assert_eq!(args.items[1], Arg::Flag("--group", None));
        // `--allow` repeats; short flags stay.
        let args = parsed(&["lint", "f", "--allow", "a", "--allow", "b", "g"]);
        assert_eq!(args.values("--allow"), ["a", "b"]);
        assert_eq!(args.positionals(), ["f", "g"]);
        assert_eq!(parsed(&["compile", "f", "-o", "x"]).value("-o"), Some("x"));
        assert!(parsed(&["check", "f", "-v"]).has("-v"));
        assert_eq!(parsed(&["-h"]).name, "help");

        for (words, refused) in [
            (
                &["run", "f", "--cycles=5"][..],
                "run does not take --cycles=5 (accepted: ",
            ),
            (
                &["campaign", "run", "--quiet=1"],
                "campaign run does not take --quiet=1",
            ),
            (
                &["spec", "counter", "--foo"],
                "spec does not take --foo (accepted: none)",
            ),
            (&["fuzz", "3"], "unexpected argument \"3\""),
            (&["check", "a", "b"], "unexpected argument \"b\""),
            (&["run", "f", "--resume"], "--resume needs a value"),
            (&[], "missing command"),
            (&["frob"], "unknown command \"frob\""),
            (
                &["campaign"],
                "campaign needs a subcommand (run|resume|replay|shrink|export|shard)",
            ),
            (
                &["campaign", "shard"],
                "campaign shard needs a subcommand (plan|run|merge)",
            ),
            (
                &["metrics", "frob"],
                "unknown metrics subcommand \"frob\" (expected summarize|trace-export|flight)",
            ),
        ] {
            let line = refusal(words);
            assert!(line.starts_with(refused), "{words:?}: {line}");
        }
    }
}
