//! Static plan certification: proofs that a lowered plan is *correct*,
//! not merely schedulable.
//!
//! The analyzer in the crate root proves Definition 1's scheduling
//! properties (race freedom, false-sharing freedom, balance). Nothing
//! there proves a plan *computes `DFT_n`* — historically that trust
//! rested on floating-point sampling tests. This module closes the gap
//! with two independent static passes over the stage IR:
//!
//! * [`dataflow`] — abstract interpretation over steps and stages
//!   proving, for **all** `n`: in-bounds access, write-once-per-stage,
//!   full output coverage, ping-pong buffer discipline (no stage reads a
//!   value the previous generation left behind), exchange bijectivity and
//!   µ-block granularity, and fused-exchange legality.
//! * [`symbolic`] — a symbolic interpreter executing the plan over exact
//!   cyclotomic arithmetic ([`spiral_spl::exact`]) and proving the
//!   composed plan matrix equals `DFT_n` **entrywise with zero
//!   tolerance**, for `n ≤ 64` (every codelet size). Codelets run as
//!   the DAG the compiled kernels and the `cemit` C backend are both
//!   printed from, so one semantics covers both backends.
//!
//! [`certify_plan`] composes both; the tuner, the wisdom loader, and the
//! debug-build executor guard consume the verdicts.

pub mod dataflow;
pub mod symbolic;

use serde::{Deserialize, Serialize};
use spiral_codegen::plan::Plan;
use std::fmt;

/// Which certification pass produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CertPass {
    /// Exact cyclotomic equivalence against `DFT_n`.
    Symbolic,
    /// Abstract interpretation of buffer dataflow.
    Dataflow,
}

impl fmt::Display for CertPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertPass::Symbolic => write!(f, "symbolic"),
            CertPass::Dataflow => write!(f, "dataflow"),
        }
    }
}

/// One certification failure, localized to the pass, plan step, local
/// stage, and element/table index that witnessed it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CertFinding {
    /// The pass that rejected the plan.
    pub pass: CertPass,
    /// Plan step the finding is anchored to, if step-local.
    pub step: Option<usize>,
    /// Stage within the step's local program, if stage-local.
    pub stage: Option<usize>,
    /// Witness index (buffer element, table slot, or output entry).
    pub index: Option<usize>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for CertFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pass", self.pass)?;
        if let Some(s) = self.step {
            write!(f, ", step {s}")?;
        }
        if let Some(s) = self.stage {
            write!(f, ", stage {s}")?;
        }
        if let Some(i) = self.index {
            write!(f, ", index {i}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Certification configuration.
#[derive(Clone, Copy, Debug)]
pub struct CertOptions {
    /// Largest `n` the exact symbolic-equivalence sweep runs at (the
    /// sweep executes `2·n` basis vectors through the full plan over
    /// exact arithmetic; 64 — the largest codelet size — keeps it fast).
    pub symbolic_limit: usize,
}

impl Default for CertOptions {
    fn default() -> CertOptions {
        CertOptions { symbolic_limit: 64 }
    }
}

/// Verdict of certifying one plan (serializable).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CertReport {
    /// Transform size.
    pub n: usize,
    /// Thread count the plan targets.
    pub threads: usize,
    /// Cache-line parameter µ.
    pub mu: usize,
    /// Whether the dataflow pass accepted the plan.
    pub dataflow_certified: bool,
    /// Whether the symbolic pass accepted the plan; `None` when it did
    /// not run (`n` above the limit, or dataflow already rejected).
    pub symbolic_certified: Option<bool>,
    /// Failures, if any.
    pub findings: Vec<CertFinding>,
}

impl CertReport {
    /// True iff every pass that ran accepted the plan.
    pub fn is_certified(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run both certification passes over a plan: dataflow always, and the
/// exact symbolic equivalence when `n ≤ opts.symbolic_limit` and the
/// dataflow pass accepted (a plan with broken dataflow has no
/// well-defined value semantics to compare).
pub fn certify_plan(plan: &Plan, opts: &CertOptions) -> CertReport {
    let mut findings = dataflow::certify_dataflow(plan);
    let dataflow_certified = findings.is_empty();
    let symbolic_certified = if dataflow_certified && plan.n <= opts.symbolic_limit {
        let sym = symbolic::certify_symbolic(plan);
        let ok = sym.is_empty();
        findings.extend(sym);
        Some(ok)
    } else {
        None
    };
    CertReport {
        n: plan.n,
        threads: plan.threads,
        mu: plan.mu,
        dataflow_certified,
        symbolic_certified,
        findings,
    }
}
