//! The default engine registry.
//!
//! Engine *construction* lives in `rtl-core`'s open
//! [`EngineRegistry`]: each execution tier registers an
//! [`EngineFactory`](rtl_core::EngineFactory) with its own crate
//! (`rtl-interp` the interpreter tiers, `rtl-compile` the VM tiers and
//! the generated-Rust subprocess lane). This module only *assembles* the
//! default registry; every lane is named by its registry name.

use rtl_core::EngineRegistry;

/// The default registry: every built-in tier, in registration order —
/// `interp`, `interp-faithful`, `vm`, `vm-noopt`, the `rust` subprocess
/// stream lane, plus `vm-fault` (the deliberately broken VM that
/// validates the harness itself — see [`crate::fault`]). Open by
/// construction: callers may [`register`](EngineRegistry::register) more
/// lanes on their own copy.
///
/// The `rust` lane here compiles per run and cleans up after itself.
/// Long-running harnesses that revisit designs (campaigns) shadow the
/// lane with a [`BinaryCache`](rtl_compile::BinaryCache)-backed factory
/// instead — an *owned* cache, whose scratch directories are removed when
/// it drops. (A process-global cache would never drop and would leak its
/// compiled binaries into the temp directory at exit.)
pub fn default_registry() -> EngineRegistry {
    let mut r = EngineRegistry::new();
    r.register(Box::new(rtl_interp::InterpFactory::indexed()));
    r.register(Box::new(rtl_interp::InterpFactory::faithful()));
    r.register(Box::new(rtl_compile::VmFactory::full()));
    r.register(Box::new(rtl_compile::VmFactory::no_opt()));
    r.register(Box::new(rtl_compile::GeneratedRustFactory::default()));
    r.register(Box::new(crate::fault::FaultyVmFactory::default()));
    r
}

/// The shared default registry (built once per process).
pub fn registry() -> &'static EngineRegistry {
    static REGISTRY: std::sync::OnceLock<EngineRegistry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(default_registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_core::{Design, EngineLane, EngineOptions};

    const COUNTER: &str = "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .";

    #[test]
    fn every_stepped_lane_builds_and_steps() {
        let design = Design::from_source(COUNTER).unwrap();
        let stepped: Vec<&str> = registry()
            .names()
            .into_iter()
            .filter(|name| registry().get(name).unwrap().is_stepped())
            .collect();
        assert_eq!(
            stepped,
            ["interp", "interp-faithful", "vm", "vm-noopt", "vm-fault"]
        );
        for name in stepped {
            let options = EngineOptions {
                trace: true,
                ..EngineOptions::default()
            };
            let Ok(EngineLane::Stepped(mut engine)) = registry().build(name, &design, &options)
            else {
                panic!("{name} is stepped");
            };
            let mut out = Vec::new();
            engine.step(&mut out, &mut rtl_core::NoInput).unwrap();
            assert_eq!(engine.state().cycle(), 1, "{name}");
        }
    }

    #[test]
    fn registries_cross_threads() {
        // The contract parallel campaign workers rely on: a registry can
        // be built on (or shared with) any thread, and lanes built there
        // run there. EngineFactory is Send + Sync by declaration; this
        // pins the whole registry.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineRegistry>();
        let handle = std::thread::spawn(|| {
            let registry = default_registry();
            let design = Design::from_source(COUNTER).unwrap();
            let lane = registry
                .build("vm", &design, &EngineOptions::default())
                .unwrap();
            let EngineLane::Stepped(mut engine) = lane else {
                panic!("vm is stepped");
            };
            engine
                .step(&mut Vec::new(), &mut rtl_core::NoInput)
                .unwrap();
            engine.state().cycle()
        });
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn registry_lists_every_lane() {
        assert_eq!(
            registry().names(),
            [
                "interp",
                "interp-faithful",
                "vm",
                "vm-noopt",
                "rust",
                "vm-fault"
            ]
        );
        assert!(!registry().get("rust").unwrap().is_stepped());
    }
}
