//! # rtl-machines — reference machines for the ASIM II reproduction
//!
//! The thesis demonstrates ASIM II on two machines: the **Itty Bitty Stack
//! Machine** running the Sieve of Eratosthenes (Appendix D, the Figure 5.1
//! benchmark) and a **tiny 10-bit computer** (Appendix F, the hardware-
//! construction example). This crate builds both, each at two levels —
//! an instruction-set simulator that serves as an independent oracle, and
//! a micro-coded RTL implementation expressed in the ASIM II language —
//! plus the supporting cast:
//!
//! * [`builder`] — a programmatic [`Spec`](rtl_lang::Spec) builder,
//! * [`stack`] — ISA, assembler, ISS, microcode and RTL for the stack
//!   machine; workloads in [`stack::programs`] (sieve, Fibonacci, GCD),
//! * [`tiny`] — the 10-bit machine with its division demo,
//! * [`classic`] — small bundled specifications (counter, GCD datapath,
//!   traffic light, and the completed fragments of Figures 3.1/4.1–4.3),
//! * [`synth`] — synthetic chains for scaling benchmarks and the one
//!   seeded design generator, behind property tests' random designs and
//!   every campaign case,
//! * [`scenarios`] — the named scenario registry: every design above
//!   packaged as a replayable workload for the cosim harness.
//!
//! ```
//! // Assemble the sieve, build its RTL model, and check the first primes.
//! let w = rtl_machines::stack::sieve_workload(5);
//! assert_eq!(w.primes, vec![3, 5, 7, 11]);
//! let spec = rtl_machines::stack::rtl::spec(&w.program, Some(w.cycles));
//! assert!(rtl_core::Design::elaborate(&spec).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod classic;
pub mod scenarios;
pub mod stack;
pub mod synth;
pub mod tiny;

pub use builder::SpecBuilder;
pub use scenarios::Scenario;
