//! The open engine registry: named factories for every execution tier.
//!
//! The paper's central claim is that several execution strategies —
//! interpreter, bytecode VM, compiled code — implement one simulation
//! contract. This module expresses the *construction* side of that
//! contract: an [`EngineFactory`] turns a [`Design`] into a lane, either a
//! steppable in-process [`Engine`] or a black-box [`StreamEngine`] (e.g. a
//! generated simulator binary run as a subprocess, compared by its output
//! stream). An [`EngineRegistry`] holds factories under stable names and
//! is open: downstream crates register their tiers, external tools can
//! add subprocess lanes, and drivers look engines up by name.
//!
//! The built-in tiers live with their engines (`rtl-interp` registers
//! `interp`/`interp-faithful`, `rtl-compile` registers `vm`/`vm-noopt`
//! and the generated-Rust subprocess lane); `rtl-cosim` assembles the
//! default registry from them.

use crate::design::Design;
use crate::engine::Engine;
use crate::word::Word;

/// Construction options shared by every factory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOptions {
    /// Record cycle and memory trace events (differential harnesses
    /// compare them, as the bytes they render to, when on).
    pub trace: bool,
    /// Execution-profile tap (disabled/no-op by default). Engines that
    /// support profiling attach a per-lane tally to it; the hook always
    /// compares equal, so two options differing only here configure the
    /// same simulation.
    pub profile: rtl_prof::ProfileHook,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            trace: true,
            profile: rtl_prof::ProfileHook::disabled(),
        }
    }
}

/// A black-box execution lane: runs a bounded simulation in one shot and
/// returns the raw trace/output bytes. The differential harness compares
/// the stream byte-for-byte against the stepped lanes' agreed output —
/// this is how a generated simulator binary (a subprocess with no
/// steppable state) joins a co-simulation.
pub trait StreamEngine {
    /// Runs cycles `0..cycles` with the scripted stimulus and returns
    /// everything the simulator wrote.
    ///
    /// # Errors
    ///
    /// A human-readable message (build failure, subprocess crash); stream
    /// lanes have no structured runtime-error channel.
    fn run_stream(&mut self, cycles: u64, stimulus: &[Word]) -> Result<Vec<u8>, String>;
}

/// One execution lane built by a factory.
pub enum EngineLane<'d> {
    /// A steppable in-process engine: joins per-cycle lockstep comparison
    /// and drives through [`Session`](crate::session::Session).
    Stepped(Box<dyn Engine + 'd>),
    /// A black-box stream runner, compared by its full output stream.
    Stream(Box<dyn StreamEngine + 'd>),
}

impl EngineLane<'_> {
    /// `true` for [`EngineLane::Stepped`].
    pub fn is_stepped(&self) -> bool {
        matches!(self, EngineLane::Stepped(_))
    }
}

impl std::fmt::Debug for EngineLane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineLane::Stepped(_) => f.write_str("EngineLane::Stepped(..)"),
            EngineLane::Stream(_) => f.write_str("EngineLane::Stream(..)"),
        }
    }
}

/// A named constructor for one execution tier.
pub trait EngineFactory: Send + Sync {
    /// The stable registry name (`interp`, `vm`, `rust`, ...).
    fn name(&self) -> &str;

    /// One line for `--engines` listings.
    fn description(&self) -> &str {
        ""
    }

    /// `true` when [`build`](EngineFactory::build) returns a stepped,
    /// in-process lane (the default). Stream lanes return `false` so
    /// drivers that need per-cycle stepping can reject them up front.
    fn is_stepped(&self) -> bool {
        true
    }

    /// Builds the lane over a design.
    ///
    /// # Errors
    ///
    /// A human-readable message (e.g. a missing host toolchain for a
    /// subprocess lane).
    fn build<'d>(
        &self,
        design: &'d Design,
        options: &EngineOptions,
    ) -> Result<EngineLane<'d>, String>;
}

/// A set of [`EngineFactory`]s under unique names, in registration order.
#[derive(Default)]
pub struct EngineRegistry {
    factories: Vec<Box<dyn EngineFactory>>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a factory. Re-registering a name replaces the earlier factory
    /// (last registration wins), so embedders can shadow built-in tiers.
    pub fn register(&mut self, factory: Box<dyn EngineFactory>) {
        if let Some(slot) = self
            .factories
            .iter_mut()
            .find(|f| f.name() == factory.name())
        {
            *slot = factory;
        } else {
            self.factories.push(factory);
        }
    }

    /// Looks a factory up by name.
    pub fn get(&self, name: &str) -> Option<&dyn EngineFactory> {
        self.factories
            .iter()
            .find(|f| f.name() == name)
            .map(Box::as_ref)
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.factories.iter().map(|f| f.name()).collect()
    }

    /// Builds the named lane over a design.
    ///
    /// # Errors
    ///
    /// Unknown name (listing the known ones), or the factory's own build
    /// failure.
    pub fn build<'d>(
        &self,
        name: &str,
        design: &'d Design,
        options: &EngineOptions,
    ) -> Result<EngineLane<'d>, String> {
        match self.get(name) {
            Some(f) => f.build(design, options),
            None => Err(format!(
                "unknown engine {name:?} (known: {})",
                self.names().join(", ")
            )),
        }
    }

    /// Parses a comma-separated engine list (`"interp,vm,rust"`) against
    /// the registry, requiring at least two distinct names — a comparison
    /// against yourself proves nothing.
    ///
    /// # Errors
    ///
    /// Unknown names, fewer than two entries, or duplicates.
    pub fn parse_list(&self, list: &str) -> Result<Vec<String>, String> {
        let names: Vec<String> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| match self.get(name) {
                Some(f) => Ok(f.name().to_string()),
                None => Err(format!(
                    "unknown engine {name:?} (known: {})",
                    self.names().join(", ")
                )),
            })
            .collect::<Result<_, _>>()?;
        if names.len() < 2 {
            return Err("need at least two engines (e.g. --engines interp,vm)".into());
        }
        for (i, n) in names.iter().enumerate() {
            if names[..i].contains(n) {
                return Err(format!("duplicate engine {n:?}"));
            }
        }
        Ok(names)
    }
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::InputSource;
    use crate::state::SimState;

    /// A trivial engine over a design: bumps the cycle counter and nothing
    /// else. Enough to exercise the registry plumbing in-crate.
    struct IdleEngine<'d> {
        design: &'d Design,
        state: SimState,
    }

    impl Engine for IdleEngine<'_> {
        fn design(&self) -> &Design {
            self.design
        }

        fn state(&self) -> &SimState {
            &self.state
        }

        fn restore(&mut self, snapshot: &SimState) {
            self.state = snapshot.clone();
        }

        fn step(
            &mut self,
            _trace: &mut crate::trace::TraceBuf<'_>,
            _input: &mut dyn InputSource,
        ) -> Result<(), crate::error::SimError> {
            self.state.bump_cycle();
            Ok(())
        }
    }

    struct IdleFactory;

    impl EngineFactory for IdleFactory {
        fn name(&self) -> &str {
            "idle"
        }

        fn build<'d>(
            &self,
            design: &'d Design,
            _options: &EngineOptions,
        ) -> Result<EngineLane<'d>, String> {
            Ok(EngineLane::Stepped(Box::new(IdleEngine {
                design,
                state: SimState::new(design),
            })))
        }
    }

    struct BrokenFactory;

    impl EngineFactory for BrokenFactory {
        fn name(&self) -> &str {
            "broken"
        }

        fn is_stepped(&self) -> bool {
            false
        }

        fn build<'d>(
            &self,
            _design: &'d Design,
            _options: &EngineOptions,
        ) -> Result<EngineLane<'d>, String> {
            Err("toolchain missing".into())
        }
    }

    fn registry() -> EngineRegistry {
        let mut r = EngineRegistry::new();
        r.register(Box::new(IdleFactory));
        r.register(Box::new(BrokenFactory));
        r
    }

    #[test]
    fn lookup_build_and_errors() {
        let r = registry();
        assert_eq!(r.names(), ["idle", "broken"]);
        let design = Design::from_source("# d\nx .\nA x 2 1 0 .").unwrap();
        let lane = r.build("idle", &design, &EngineOptions::default()).unwrap();
        assert!(lane.is_stepped());
        assert!(r
            .build("broken", &design, &EngineOptions::default())
            .unwrap_err()
            .contains("toolchain"));
        assert!(r
            .build("ghost", &design, &EngineOptions::default())
            .unwrap_err()
            .contains("known: idle, broken"));
    }

    #[test]
    fn reregistration_replaces() {
        let mut r = registry();
        assert!(r.get("broken").is_some());
        struct Fixed;
        impl EngineFactory for Fixed {
            fn name(&self) -> &str {
                "broken"
            }
            fn description(&self) -> &str {
                "now fine"
            }
            fn build<'d>(
                &self,
                design: &'d Design,
                options: &EngineOptions,
            ) -> Result<EngineLane<'d>, String> {
                IdleFactory.build(design, options)
            }
        }
        r.register(Box::new(Fixed));
        assert_eq!(r.names(), ["idle", "broken"], "order preserved");
        assert_eq!(r.get("broken").unwrap().description(), "now fine");
    }

    #[test]
    fn list_parsing() {
        let r = registry();
        assert_eq!(r.parse_list("idle, broken").unwrap(), ["idle", "broken"]);
        assert!(r.parse_list("idle").is_err(), "one engine is no comparison");
        assert!(r.parse_list("idle,idle").is_err(), "duplicates rejected");
        assert!(r.parse_list("idle,warp").is_err());
    }
}
