//! Waveform-diff reporting: the divergent window of each lane as
//! side-by-side VCD documents.
//!
//! A [`DivergenceReport`](crate::DivergenceReport) names the first
//! divergent cycle and quotes trace text — but "what did the signals *do*
//! leading up to it" is a waveform question. This module replays each
//! stepped lane of a diverged scenario deterministically from cycle 0 and
//! records the window of cycles ending at the divergence as a VCD
//! document per lane, in exactly the sample format
//! [`VcdSink`] uses (width-masked cycle-edge
//! samples — the same values the [`VcdDiff`](rtl_core::observe::VcdDiff)
//! lens compares). Load the documents side by side in any waveform viewer
//! and the first differing sample *is* the divergence.
//!
//! Timestamps are relative to the window start (the first sampled cycle
//! is `#0`); each document's absolute window is returned alongside its
//! path and printed by `asim2 cosim --dump-divergence DIR`.

use crate::stream::ScenarioError;
use rtl_core::vcd::{VcdOptions, VcdSink};
use rtl_core::{
    Design, EngineLane, EngineOptions, EngineRegistry, Session, SimState, TraceSink, Until,
};
use rtl_machines::Scenario;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// How many cycles of history each document keeps before (and including)
/// the divergent cycle.
pub const DEFAULT_WINDOW: u64 = 32;

/// One lane's dumped window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneDump {
    /// The lane's registry name.
    pub lane: String,
    /// Where the document was written (`DIR/<lane>.vcd`).
    pub path: PathBuf,
    /// The absolute cycle range sampled, `start..end` (timestamp `#0` in
    /// the document is absolute cycle `start`).
    pub start: u64,
    /// One past the last sampled cycle — `divergence cycle + 1` unless
    /// the lane halted earlier.
    pub end: u64,
}

/// A [`TraceSink`] forwarding cycle-edge samples to a [`VcdSink`] only
/// inside the window: the first `skip` cycles run silently.
struct WindowSink<'a> {
    inner: VcdSink<&'a mut Vec<u8>>,
    skip: u64,
    seen: u64,
}

impl TraceSink for WindowSink<'_> {
    fn end_cycle(&mut self, design: &Design, state: &SimState) -> io::Result<()> {
        let index = self.seen;
        self.seen += 1;
        if index >= self.skip {
            self.inner.end_cycle(design, state)
        } else {
            Ok(())
        }
    }
}

/// Replays every *stepped* lane in `names` over `scenario` and writes one
/// VCD document per lane into `dir`, covering the `window` cycles ending
/// at `divergence_cycle` inclusive. Stream lanes (subprocess stdout) have
/// no steppable state and are skipped. A lane that halts before the
/// window still gets a (possibly empty) well-formed document — the halt
/// itself is the interesting signal there.
///
/// # Errors
///
/// Specification load failures, unknown lane names, or I/O.
pub fn dump_divergence(
    registry: &EngineRegistry,
    names: &[String],
    scenario: &Scenario,
    divergence_cycle: u64,
    window: u64,
    dir: &Path,
) -> Result<Vec<LaneDump>, ScenarioError> {
    let design = scenario.design()?;
    std::fs::create_dir_all(dir)
        .map_err(|e| ScenarioError::Engine(format!("cannot create {}: {e}", dir.display())))?;
    let end = divergence_cycle.saturating_add(1);
    let start = end.saturating_sub(window.max(1));
    let mut dumps = Vec::new();
    for name in names {
        let lane = registry
            .build(
                name,
                &design,
                &EngineOptions {
                    trace: true,
                    ..EngineOptions::default()
                },
            )
            .map_err(ScenarioError::Engine)?;
        let EngineLane::Stepped(engine) = lane else {
            continue;
        };
        let mut doc = Vec::new();
        let sampled = {
            let mut sink = WindowSink {
                inner: VcdSink::new(&mut doc, VcdOptions::default()),
                skip: start,
                seen: 0,
            };
            // Header up front: a lane that halts before the window start
            // still produces a well-formed zero-sample document.
            sink.inner.ensure_header(&design).map_err(|e| {
                ScenarioError::Engine(format!("cannot render VCD for {name:?}: {e}"))
            })?;
            let mut session = Session::over(engine)
                .sink(sink)
                .scripted(scenario.input.iter().copied())
                .build();
            // A halt inside the replay is expected for error-kind
            // divergences; the document simply ends where the lane did.
            let outcome = session.run(Until::Cycles(end));
            outcome.cycles.saturating_sub(start)
        };
        writeln!(doc, "#{sampled}")
            .map_err(|e| ScenarioError::Engine(format!("cannot render VCD for {name:?}: {e}")))?;
        let path = dir.join(format!("{name}.vcd"));
        std::fs::write(&path, &doc)
            .map_err(|e| ScenarioError::Engine(format!("cannot write {}: {e}", path.display())))?;
        dumps.push(LaneDump {
            lane: name.clone(),
            path,
            start,
            end: start + sampled,
        });
    }
    Ok(dumps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyVmFactory;
    use rtl_machines::scenarios;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asim2-wavedump-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dumps_side_by_side_windows_that_differ_at_the_divergence() {
        let mut registry = crate::engines::default_registry();
        registry.register(Box::new(FaultyVmFactory::from_cycle(10)));
        let scenario = scenarios::by_name("classic/counter")
            .unwrap()
            .with_cycles(20);
        let names = vec!["interp".to_string(), "vm-fault".to_string()];
        let dir = scratch("fault");
        let dumps = dump_divergence(&registry, &names, &scenario, 10, 8, &dir).unwrap();
        assert_eq!(dumps.len(), 2);
        let healthy = std::fs::read_to_string(&dumps[0].path).unwrap();
        let faulty = std::fs::read_to_string(&dumps[1].path).unwrap();
        for (dump, text) in [(&dumps[0], &healthy), (&dumps[1], &faulty)] {
            assert_eq!((dump.start, dump.end), (3, 11), "{dump:?}");
            assert!(text.contains("$enddefinitions $end"), "{text}");
            assert!(text.ends_with("#8\n"), "window-relative close: {text}");
        }
        // The window covers the corruption onset, so the documents differ
        // — the faulty lane's observed output flips bit 0 from cycle 10.
        assert_ne!(healthy, faulty);
        // But the shared prefix (cycles before the trigger) is identical.
        let diverge_at = healthy
            .lines()
            .zip(faulty.lines())
            .position(|(a, b)| a != b)
            .expect("documents differ");
        assert!(diverge_at > 0, "agreeing prefix precedes the divergence");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_lanes_are_skipped_and_windows_clamp_to_cycle_zero() {
        let registry = crate::engines::default_registry();
        let scenario = scenarios::by_name("classic/counter")
            .unwrap()
            .with_cycles(8);
        let names = vec!["interp".to_string(), "vm".to_string(), "rust".to_string()];
        let dir = scratch("clamp");
        // Divergence at cycle 2 with a huge window: starts at 0.
        let dumps = dump_divergence(&registry, &names, &scenario, 2, 500, &dir).unwrap();
        assert_eq!(dumps.len(), 2, "the rust stream lane has no waveform");
        assert_eq!((dumps[0].start, dumps[0].end), (0, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
