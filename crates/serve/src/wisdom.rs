//! Wisdom: persisted tuning results, FFTW-style.
//!
//! The tuner's feedback loop (paper §2.3) is expensive relative to the
//! transforms a serving workload actually runs, so its output is worth
//! keeping. A wisdom file records, per `(n, threads, µ)` key, the
//! winning fully-expanded SPL formula as its ASCII rendering plus the
//! tuner's choice description and modeled cost. Formulas — not compiled
//! plans — are the unit of persistence: the ASCII form round-trips
//! through [`spiral_spl::parse()`], stays human-diffable, and is
//! recompiled through the exact pipeline the tuner used
//! ([`Plan::from_formula`] + exchange fusion), so a loaded plan is the
//! same executable object a fresh tuning run would have produced.
//!
//! Wisdom is only valid on the host that produced it: the file embeds a
//! [`HostFingerprint`] and loading rejects the whole file when the
//! fingerprint disagrees with the current host (a plan tuned for
//! another µ or core count is silently wrong, not just slow). Individual
//! entries are re-validated on load — unparseable formulas, dimension
//! mismatches, failed lowering, and plans flagged by the
//! `spiral-verify` static analyzer are rejected entry-by-entry with a
//! recorded reason, and the rest of the file still loads.

use serde::{Deserialize, Serialize};
use spiral_codegen::plan::Plan;
use spiral_smp::topology::HostFingerprint;
use spiral_verify::certify::CertOptions;
use spiral_verify::{verify_plan, VerifyOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version of the on-disk wisdom schema. Files with any other version
/// are discarded wholesale (with a reason in the [`LoadReport`]).
///
/// v2: entries record the short-vector backend width (`vec_width`) the
/// winning plan was tuned with, and loading rejects entries wider than
/// the host's detected SIMD width.
///
/// v3 added a worker-process count per entry and a process budget to
/// the host fingerprint for a multi-process tier that no longer exists.
///
/// v4: both fields are gone again; v3 files are discarded wholesale.
pub const WISDOM_SCHEMA_VERSION: u64 = 4;

/// One persisted tuning result.
///
/// `threads` is the *request* key (what the service was asked to plan
/// for); `plan_threads` is what the stored formula actually compiles to
/// — they differ when the parallel search declined `n` (no admissible
/// split) and the tuner fell back to a sequential plan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WisdomEntry {
    /// Transform size.
    pub n: u64,
    /// Requested thread count (cache key).
    pub threads: u64,
    /// Cache-line length in complex elements the plan was tuned for.
    pub mu: u64,
    /// Thread count to compile the formula with (≤ `threads`).
    pub plan_threads: u64,
    /// The winning formula, ASCII SPL (round-trips through `parse`).
    pub formula: String,
    /// The tuner's human-readable choice description.
    pub choice: String,
    /// Cost of the winner under the tuner's model.
    pub cost: f64,
    /// Short-vector lane width the winning plan executes with (ν);
    /// 1 = scalar backend. Entries wider than the loading host's
    /// detected SIMD width are stale and rejected on load.
    pub vec_width: u64,
}

/// The on-disk wisdom file: schema version, host identity, entries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WisdomFile {
    /// Must equal [`WISDOM_SCHEMA_VERSION`].
    pub schema: u64,
    /// Host the entries were tuned on.
    pub host: HostFingerprint,
    /// Persisted tuning results, in insertion order.
    pub entries: Vec<WisdomEntry>,
}

/// A wisdom entry compiled back into an executable plan.
#[derive(Clone, Debug)]
pub struct CompiledEntry {
    /// The recompiled plan (shared with the service cache).
    pub plan: Arc<Plan>,
    /// ASCII SPL of the formula the plan was compiled from.
    pub formula: String,
    /// The tuner's choice description.
    pub choice: String,
    /// Cost under the tuner's model at tuning time.
    pub cost: f64,
}

/// An entry the loader refused, and why.
#[derive(Clone, Debug)]
pub struct RejectedEntry {
    /// Transform size of the offending entry.
    pub n: u64,
    /// Requested thread count of the offending entry.
    pub threads: u64,
    /// µ of the offending entry.
    pub mu: u64,
    /// Why it was rejected.
    pub reason: String,
}

/// What [`WisdomStore::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Entries that compiled and validated.
    pub loaded: usize,
    /// Entries rejected individually, with reasons.
    pub rejected: Vec<RejectedEntry>,
    /// Set when the whole file was discarded (missing is *not* a
    /// discard — a missing file is an empty store with no report line).
    pub discarded: Option<String>,
}

impl LoadReport {
    /// One-line human summary for logs.
    pub fn summary(&self) -> String {
        match &self.discarded {
            Some(reason) => format!("wisdom discarded: {reason}"),
            None => format!(
                "wisdom: {} entries loaded, {} rejected",
                self.loaded,
                self.rejected.len()
            ),
        }
    }
}

/// In-memory wisdom store bound to a file path and a host fingerprint.
pub struct WisdomStore {
    path: PathBuf,
    host: HostFingerprint,
    entries: HashMap<(usize, usize, usize), (WisdomEntry, CompiledEntry)>,
}

impl WisdomStore {
    /// Open (or start) the store at `path` for the current host.
    pub fn open(path: impl Into<PathBuf>) -> (WisdomStore, LoadReport) {
        WisdomStore::open_for_host(path, HostFingerprint::current())
    }

    /// Open (or start) the store at `path` for an explicit host
    /// fingerprint — the testable entry point for staleness handling.
    pub fn open_for_host(
        path: impl Into<PathBuf>,
        host: HostFingerprint,
    ) -> (WisdomStore, LoadReport) {
        let path = path.into();
        let mut store = WisdomStore {
            path,
            host,
            entries: HashMap::new(),
        };
        let mut report = LoadReport::default();
        let text = match std::fs::read_to_string(&store.path) {
            Ok(t) => t,
            // Missing file: a fresh store, not an error.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return (store, report),
            Err(e) => {
                report.discarded = Some(format!("unreadable wisdom file: {e}"));
                return (store, report);
            }
        };
        let file: WisdomFile = match serde_json::from_str(&text) {
            Ok(f) => f,
            Err(e) => {
                report.discarded = Some(format!("unparseable wisdom file: {e}"));
                return (store, report);
            }
        };
        if file.schema != WISDOM_SCHEMA_VERSION {
            report.discarded = Some(format!(
                "schema version {} (this build reads {})",
                file.schema, WISDOM_SCHEMA_VERSION
            ));
            return (store, report);
        }
        if file.host != store.host {
            report.discarded = Some(format!(
                "stale host fingerprint: file tuned on [{}], this host is [{}]",
                file.host.compact(),
                store.host.compact()
            ));
            return (store, report);
        }
        for entry in file.entries {
            // Entry-level staleness gate: a formula tuned with a wider
            // short-vector backend than this host can execute is wrong
            // to serve even when the rest of the fingerprint matches
            // (e.g. a hand-merged or edited wisdom file).
            if entry.vec_width > store.host.simd_width.max(1) {
                report.rejected.push(RejectedEntry {
                    n: entry.n,
                    threads: entry.threads,
                    mu: entry.mu,
                    reason: format!(
                        "stale host: entry tuned with vec({}) exceeds this host's SIMD width {}",
                        entry.vec_width, store.host.simd_width
                    ),
                });
                continue;
            }
            match compile_entry(&entry) {
                Ok(compiled) => {
                    store.entries.insert(entry_key(&entry), (entry, compiled));
                    report.loaded += 1;
                }
                Err(reason) => report.rejected.push(RejectedEntry {
                    n: entry.n,
                    threads: entry.threads,
                    mu: entry.mu,
                    reason,
                }),
            }
        }
        (store, report)
    }

    /// The path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of valid entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the compiled plan for `(n, threads, µ)`.
    pub fn get(&self, n: usize, threads: usize, mu: usize) -> Option<&CompiledEntry> {
        self.entries.get(&(n, threads, mu)).map(|(_, c)| c)
    }

    /// Record a fresh tuning result under `(n, threads, µ)`. The caller
    /// supplies the already-compiled plan so the store never recompiles
    /// what the tuner just built.
    pub fn record(&mut self, entry: WisdomEntry, plan: Arc<Plan>) {
        let key = entry_key(&entry);
        let compiled = CompiledEntry {
            plan,
            formula: entry.formula.clone(),
            choice: entry.choice.clone(),
            cost: entry.cost,
        };
        self.entries.insert(key, (entry, compiled));
    }

    /// Write the store to its path as pretty JSON, creating parent
    /// directories as needed. Entries are sorted by key so the file is
    /// deterministic and diffable.
    ///
    /// The write is crash-safe: the JSON goes to a temporary file in the
    /// *same directory* (rename across filesystems is not atomic), is
    /// fsynced, and is then renamed over the target — so a crash or
    /// failure mid-save leaves the previous wisdom file intact, never a
    /// truncated one.
    pub fn save(&self) -> Result<(), String> {
        use std::io::Write as _;

        let mut entries: Vec<WisdomEntry> = self.entries.values().map(|(e, _)| e.clone()).collect();
        entries.sort_by_key(|e| (e.n, e.threads, e.mu));
        let file = WisdomFile {
            schema: WISDOM_SCHEMA_VERSION,
            host: self.host.clone(),
            entries,
        };
        let json = serde_json::to_string_pretty(&file)
            .map_err(|e| format!("wisdom serialization failed: {e}"))?;
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| {
                    format!("cannot create wisdom directory {}: {e}", dir.display())
                })?;
            }
        }
        let mut tmp_name = self.path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let write_result = (|| -> Result<(), String> {
            let mut f = std::fs::File::create(&tmp)
                .map_err(|e| format!("cannot create temp wisdom file {}: {e}", tmp.display()))?;
            #[cfg(feature = "faults")]
            if spiral_smp::faults::serve_at(
                spiral_smp::faults::ServeSite::WisdomSaveFail,
                self.entries.len(),
            ) {
                // Model a torn write: half the bytes land, then the
                // save "crashes". The target file must stay untouched.
                let half = &json.as_bytes()[..json.len() / 2];
                let _ = f.write_all(half);
                let _ = f.sync_all();
                return Err("injected wisdom save failure (torn write)".to_string());
            }
            f.write_all(json.as_bytes())
                .map_err(|e| format!("cannot write temp wisdom file {}: {e}", tmp.display()))?;
            f.sync_all()
                .map_err(|e| format!("cannot sync temp wisdom file {}: {e}", tmp.display()))?;
            Ok(())
        })();
        if let Err(e) = write_result {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!(
                "cannot rename {} over wisdom file {}: {e}",
                tmp.display(),
                self.path.display()
            )
        })
    }
}

/// Persisted wisdom fields are `u64` in the JSON schema; the sizes and
/// thread counts this workspace tunes always fit a `usize`.
fn field_usize(v: u64) -> usize {
    usize::try_from(v).expect("wisdom field fits usize")
}

/// In-memory store key for a persisted entry.
fn entry_key(entry: &WisdomEntry) -> (usize, usize, usize) {
    (
        field_usize(entry.n),
        field_usize(entry.threads),
        field_usize(entry.mu),
    )
}

/// Recompile a persisted entry through the tuner's own pipeline and
/// re-validate the result. Returns the rejection reason on any failure.
pub fn compile_entry(entry: &WisdomEntry) -> Result<CompiledEntry, String> {
    if !entry.cost.is_finite() || entry.cost < 0.0 {
        return Err(format!("non-finite or negative cost {}", entry.cost));
    }
    if entry.plan_threads == 0 || entry.plan_threads > entry.threads.max(1) {
        return Err(format!(
            "plan_threads {} outside 1..={}",
            entry.plan_threads,
            entry.threads.max(1)
        ));
    }
    let formula =
        spiral_spl::parse(&entry.formula).map_err(|e| format!("formula does not parse: {e}"))?;
    if formula.dim() != field_usize(entry.n) {
        return Err(format!(
            "formula dimension {} disagrees with entry size {}",
            formula.dim(),
            entry.n
        ));
    }
    let plan_threads = field_usize(entry.plan_threads);
    let plan = Plan::from_formula(&formula, plan_threads, field_usize(entry.mu))
        .map_err(|e| format!("formula fails to lower: {e}"))?;
    // Same post-pass the tuner applies to parallel winners.
    let plan = if plan_threads > 1 {
        plan.fuse_exchanges()
    } else {
        plan
    };
    if entry.vec_width.max(1) != plan.vec_width.max(1) as u64 {
        return Err(format!(
            "recorded vec_width {} disagrees with the recompiled plan's vec({})",
            entry.vec_width, plan.vec_width
        ));
    }
    let report = verify_plan(&plan, &VerifyOptions::default());
    if report.has_errors() {
        return Err(format!(
            "static verification rejected the recompiled plan: {}",
            report
                .diagnostics
                .iter()
                .map(|d| d.detail.as_str())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    // Re-certify: a wisdom file is untrusted input, so each entry must
    // re-prove its dataflow discipline — and, at certifiable sizes, its
    // exact equality with DFT_n — before the server will execute it.
    let cert = spiral_verify::certify::certify_plan(&plan, &CertOptions::default());
    if !cert.is_certified() {
        return Err(format!(
            "certification rejected the recompiled plan: {}",
            cert.findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    Ok(CompiledEntry {
        plan: Arc::new(plan),
        formula: entry.formula.clone(),
        choice: entry.choice.clone(),
        cost: entry.cost,
    })
}
