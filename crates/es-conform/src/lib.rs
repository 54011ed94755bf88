//! Differential conformance harness for the es reproduction.
//!
//! The paper's claims — pipelines, redirection, exit status, spoofable
//! hooks — were historically tested only against [`es_os::SimOs`]; the
//! [`es_os::RealOs`] backend's parity was an assumption. This crate
//! turns that assumption into a tested contract, in the style of
//! Smoosh's executable POSIX semantics (see PAPERS.md): every
//! *scenario* (a short scripted shell session) runs on a machine
//! booted on each backend, and the two [`es_core::harness::SessionTrace`]s
//! are compared field by field through a shared oracle:
//!
//! * per-command **outcomes** (return values and error strings — this
//!   covers exit status and `&&`/`||` short-circuiting),
//! * **stdout** and **stderr** bytes,
//! * the **descriptor-table delta** (no backend may leak).
//!
//! Known, intentional fidelity gaps are recorded in the
//! [`scenarios::LEDGER`]: a divergence matching a ledger entry is
//! expected (and *must* keep firing — stale entries fail the suite);
//! any divergence not in the ledger is a silent mismatch and fails.
//! Scenarios that cannot run on `RealOs` at all (virtual clock,
//! signals, fault injection) are marked [`scenarios::Mode::SimOnly`]
//! with the reason inline.
//!
//! On top of the oracle sits a grammar-aware script fuzzer
//! ([`fuzz::ScriptGen`], built on the `shims/proptest` strategy API):
//! seeded random sessions composed from pipelines over the simulated
//! coreutils, redirections, backquotes, `catch`/`throw`, hook spoofs,
//! `fork`, and `%limit` budgets. The full profile adds FaultPlan
//! weather and is driven against `SimOs` (panic-freedom, no fd leaks,
//! byte-identical replay per seed); the real-safe profile restricts
//! itself to constructs verified byte-identical across backends and is
//! driven through the differential oracle against `RealOs`.
//!
//! The integration tests (`tests/conform.rs`, `tests/fuzz.rs`) drive
//! everything and emit `BENCH_conform.json` at the repo root.

pub mod fuzz;
pub mod oracle;
pub mod report;
pub mod run;
pub mod scenarios;

pub use oracle::{compare, normalize, Divergence, Field};
pub use run::{have_tools, run_real, run_sim};
pub use scenarios::{Mode, Scenario, LEDGER, SCENARIOS};
