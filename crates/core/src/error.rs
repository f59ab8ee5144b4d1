//! Elaboration and simulation diagnostics.

use rtl_lang::{Span, Word};
use std::fmt;

/// Errors detected while elaborating a parsed [`Spec`](rtl_lang::Spec) into
/// a [`Design`](crate::design::Design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElabError {
    /// An expression referenced a name with no component definition.
    /// Message matches the original: `Error. Component <x> not found.`
    ComponentNotFound {
        /// The missing name.
        name: String,
        /// The component whose expression referenced it.
        referrer: String,
        /// Location of the referencing expression.
        span: Span,
    },
    /// Two components share a name. The original compiler silently kept the
    /// first and generated broken Pascal; we diagnose (divergence D2-adjacent).
    DuplicateComponent {
        /// The duplicated name.
        name: String,
        /// Location of the second definition.
        span: Span,
    },
    /// A concatenation exceeded the 31-bit word.
    /// Message matches the original: `Error. Too many bits in <expr>.`
    TooManyBits {
        /// The expression text.
        expr: String,
        /// Location of the expression.
        span: Span,
    },
    /// ALUs and/or selectors form a combinational loop. Message follows the
    /// original `Error. Circular dependency with a and/or b.` but lists the
    /// whole cycle.
    CircularDependency {
        /// Names of the components on the cycle.
        members: Vec<String>,
    },
    /// A name was marked for tracing (`*`) but never defined; the original
    /// would emit malformed Pascal here, we refuse up front.
    TracedUndefined {
        /// The traced name.
        name: String,
        /// Location of the declaration.
        span: Span,
    },
    /// A memory declared more cells than the configured limit.
    TooManyCells {
        /// The memory name.
        name: String,
        /// The declared size.
        size: u32,
        /// The configured limit.
        limit: u32,
    },
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElabError::ComponentNotFound {
                name,
                referrer,
                span,
            } => write!(
                f,
                "Error. Component <{name}> not found. (referenced by {referrer}, {span})"
            ),
            ElabError::DuplicateComponent { name, span } => {
                write!(f, "Error. Component {name} defined twice. ({span})")
            }
            ElabError::TooManyBits { expr, span } => {
                write!(f, "Error. Too many bits in {expr}. ({span})")
            }
            ElabError::CircularDependency { members } => {
                write!(f, "Error. Circular dependency with ")?;
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and/or ")?;
                    }
                    write!(f, "{m}")?;
                }
                write!(f, ".")
            }
            ElabError::TracedUndefined { name, span } => {
                write!(f, "Error. Traced name {name} has no definition. ({span})")
            }
            ElabError::TooManyCells { name, size, limit } => write!(
                f,
                "Error. Memory {name} declares {size} cells; the limit is {limit}."
            ),
        }
    }
}

impl std::error::Error for ElabError {}

/// Non-fatal findings reported by elaboration (the original `checkdcl`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Warning {
    /// A name in the declaration list has no component definition.
    DeclaredNotDefined(String),
    /// A component was defined but never declared in the name list.
    DefinedNotDeclared(String),
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Warning::DeclaredNotDefined(n) => {
                write!(f, "Warning: {n} declared but not defined.")
            }
            Warning::DefinedNotDeclared(n) => {
                write!(f, "Warning: {n} defined but not declared.")
            }
        }
    }
}

/// Why a simulated design stopped before its cycle bound — the runtime
/// conditions the original generated Pascal crashed on with a
/// range-check error (Appendix A calls them "runtime errors"). This is a
/// *value*, not a stringified error: harnesses match on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaltKind {
    /// A selector index fell outside its case list.
    SelectorOutOfRange {
        /// Selector name.
        component: String,
        /// The index value.
        index: Word,
        /// Number of cases.
        cases: usize,
        /// Cycle at which it happened.
        cycle: Word,
    },
    /// A memory address fell outside `0..size`.
    AddressOutOfRange {
        /// Memory name.
        component: String,
        /// The address value.
        address: Word,
        /// Number of cells.
        size: u32,
        /// Cycle at which it happened.
        cycle: Word,
    },
    /// An ALU function expression evaluated outside `0..=13`.
    BadAluFunction {
        /// ALU name.
        component: String,
        /// The function value.
        funct: Word,
        /// Cycle at which it happened.
        cycle: Word,
    },
    /// A memory-mapped input was requested but the stimulus is exhausted.
    InputExhausted {
        /// Cycle at which it happened.
        cycle: Word,
    },
}

impl HaltKind {
    /// The cycle at which the design halted.
    pub fn cycle(&self) -> Word {
        match self {
            HaltKind::SelectorOutOfRange { cycle, .. }
            | HaltKind::AddressOutOfRange { cycle, .. }
            | HaltKind::BadAluFunction { cycle, .. }
            | HaltKind::InputExhausted { cycle } => *cycle,
        }
    }

    /// A stable machine-readable label for reports and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            HaltKind::SelectorOutOfRange { .. } => "selector-out-of-range",
            HaltKind::AddressOutOfRange { .. } => "address-out-of-range",
            HaltKind::BadAluFunction { .. } => "bad-alu-function",
            HaltKind::InputExhausted { .. } => "input-exhausted",
        }
    }
}

impl fmt::Display for HaltKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaltKind::SelectorOutOfRange {
                component,
                index,
                cases,
                cycle,
            } => write!(
                f,
                "selector {component} index {index} outside 0..{cases} at cycle {cycle}"
            ),
            HaltKind::AddressOutOfRange {
                component,
                address,
                size,
                cycle,
            } => write!(
                f,
                "memory {component} address {address} outside 0..{size} at cycle {cycle}"
            ),
            HaltKind::BadAluFunction {
                component,
                funct,
                cycle,
            } => write!(
                f,
                "alu {component} function {funct} outside 0..=13 at cycle {cycle}"
            ),
            HaltKind::InputExhausted { cycle } => write!(f, "input exhausted at cycle {cycle}"),
        }
    }
}

/// A failed simulation step: the design halted, or the harness around it
/// failed. The library surfaces the original's runtime crashes as typed
/// [`HaltKind`] values instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The design stopped itself with a runtime halt.
    Halt(HaltKind),
    /// Writing trace or output text failed.
    Io(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Halt(halt) => halt.fmt(f),
            SimError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<HaltKind> for SimError {
    fn from(halt: HaltKind) -> Self {
        SimError::Halt(halt)
    }
}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_match_original_wording() {
        let e = ElabError::CircularDependency {
            members: vec!["alu".into(), "sel".into()],
        };
        assert_eq!(
            e.to_string(),
            "Error. Circular dependency with alu and/or sel."
        );

        let w = Warning::DeclaredNotDefined("ghost".into());
        assert_eq!(w.to_string(), "Warning: ghost declared but not defined.");
        let w = Warning::DefinedNotDeclared("extra".into());
        assert_eq!(w.to_string(), "Warning: extra defined but not declared.");
    }

    #[test]
    fn sim_errors_carry_context() {
        let e = SimError::Halt(HaltKind::SelectorOutOfRange {
            component: "mux".into(),
            index: 9,
            cases: 4,
            cycle: 17,
        });
        let s = e.to_string();
        assert!(
            s.contains("mux") && s.contains('9') && s.contains("17"),
            "{s}"
        );
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        let e: SimError = io.into();
        assert!(matches!(e, SimError::Io(_)));
    }
}
