//! # ibsim-analysis
//!
//! Protocol-conformance and pitfall analysis for `ibsim` packet traces.
//!
//! The paper's central methodological point (§IX-A) is that the ODP
//! pitfalls are *invisible* without raw packets: no error codes, no
//! failed verbs, just time disappearing. This crate is the only reader
//! of the simulator's `ibdump`-style captures. One walk over a capture
//! builds a per-request record — every transmission attempt with the
//! cause that explains it, and the replies it drew — and everything
//! below is a projection of it:
//!
//! * [`lint_capture`] — an RC **trace linter**: per-flow PSN
//!   monotonicity and contiguity, sequence-error-NAK justification,
//!   retransmission justification, ACK/response matching; plus the §V
//!   damming and §VI flood **pitfall signatures**.
//! * [`render_workflow`] — the Fig. 1/5/8-style annotated timeline.
//! * [`summarize`] — per-opcode traffic counts.
//!
//! Beside it stands a check of a different shape:
//! [`check_conservation`] — **packet conservation** between the two
//! ends of a link: nothing silently lost, nothing invented.
//!
//! Findings come back as a structured [`LintReport`] whose rules carry
//! stable [`RuleId`] codes, so CI can assert "clean trace" exactly.
//!
//! # Examples
//!
//! ```
//! use ibsim_analysis::{lint_capture, LintConfig, RuleId};
//! use ibsim_fabric::Capture;
//! use ibsim_verbs::Packet;
//!
//! let cap: Capture<Packet> = Capture::new();
//! let report = lint_capture(&cap, &LintConfig::default());
//! assert!(report.is_clean());
//! assert_eq!(report.count(RuleId::FloodSignature), 0);
//! ```

#![warn(missing_docs)]

mod conservation;
mod finding;
mod linter;
mod record;
#[cfg(test)]
mod reference;
mod signature;
#[cfg(test)]
pub(crate) mod testutil;
mod timeline;

pub use conservation::check_conservation;
pub use finding::{Finding, LintReport, RuleId, Severity};
pub use linter::{lint_capture, LintConfig};
pub use record::{summarize, TrafficSummary};
pub use timeline::render_workflow;
