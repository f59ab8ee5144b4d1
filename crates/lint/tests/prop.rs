//! Property tests: lint findings are a function of the *specification*,
//! not of incidental formatting or run order. Pretty-printing a spec and
//! re-linting it must yield the same codes in the same order, and both
//! renderers must be byte-deterministic run to run.

use proptest::prelude::*;
use rtl_lint::lint_source;
use rtl_machines::synth;

proptest! {
    /// Pretty-print round-trip preserves the finding codes and their
    /// deterministic order (spans may move, codes may not).
    #[test]
    fn pretty_roundtrip_keeps_codes(seed in 0u64..500, size in 1usize..30) {
        let source = rtl_lang::pretty(&synth::random_spec(seed, size));
        let first = lint_source(&source);
        let spec = rtl_lang::parse(&source).expect("synth specs parse");
        let again = lint_source(&rtl_lang::pretty(&spec));
        let codes = |r: &rtl_lint::Report| -> Vec<String> {
            r.diagnostics().iter().map(|d| d.code.to_string()).collect()
        };
        prop_assert_eq!(codes(&first), codes(&again));
    }

    /// Both renderers are byte-identical across repeated runs — the CI
    /// determinism gate relies on this.
    #[test]
    fn rendering_is_deterministic(seed in 0u64..500) {
        let source = rtl_lang::pretty(&synth::random_spec(seed, 12));
        let a = lint_source(&source);
        let b = lint_source(&source);
        prop_assert_eq!(a.render_text("spec"), b.render_text("spec"));
        prop_assert_eq!(a.to_json("spec").render(), b.to_json("spec").render());
    }
}
