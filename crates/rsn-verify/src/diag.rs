//! Structured diagnostics: stable error codes, severities, provenance and
//! witness configurations, rendered both human-readable and as `rsn-obs`
//! JSON.

use std::fmt;

use rsn_core::{Config, NodeId, Rsn};
use rsn_obs::json::Json;

use crate::explain::Explanation;

/// Severity of a diagnostic.
///
/// `Error` findings violate the RSN validity contract (a configuration
/// exists that breaks select/path agreement, decodes an out-of-range mux
/// address, or control state can never be written); `Warning` findings
/// indicate dead or wasted structure; `Info` findings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory note.
    Info,
    /// Dead or wasted structure; the network still behaves validly.
    Warning,
    /// A violation of the validity contract.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes of the check catalog.
///
/// Codes are append-only: a code, once published, never changes meaning.
/// The catalog (with encodings) is documented in `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Code {
    /// `RSN001` — a configuration exists where a segment's select
    /// predicate disagrees with active-scan-path membership (SAT, with
    /// witness).
    SelectPathMismatch,
    /// `RSN002` — a segment's select predicate is unsatisfiable: the
    /// segment can never be selected (SAT proof).
    NeverSelected,
    /// `RSN003` — at most one input of a multiplexer is ever selectable:
    /// the mux never switches (SAT proof per input condition).
    MuxNeverSwitches,
    /// `RSN004` — a specific multiplexer input is never selectable while
    /// others are (SAT proof).
    DeadMuxInput,
    /// `RSN005` — a configuration exists that decodes a multiplexer
    /// address beyond the input count (SAT, with witness).
    MuxAddressOverflow,
    /// `RSN006` — a multiplexer address reads a register that has no
    /// shadow (structural).
    AddressWithoutShadow,
    /// `RSN007` — a node is unreachable from every scan-in port
    /// (graph reachability).
    UnreachableFromScanIn,
    /// `RSN008` — no scan-out port is reachable from a node
    /// (graph reachability).
    CannotReachScanOut,
    /// `RSN009` — a cyclic control dependency between the shadow
    /// registers of two or more segments (SCC over the control-dependency
    /// graph; idiomatic SIB-style self-gating is excluded).
    ControlDependencyCycle,
    /// `RSN010` — a shadow register drives control logic but can never
    /// lie on any scan path, so its bits are stuck at reset (SAT proof).
    UncontrollableControlRegister,
}

impl Code {
    /// The stable `RSN0xx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::SelectPathMismatch => "RSN001",
            Code::NeverSelected => "RSN002",
            Code::MuxNeverSwitches => "RSN003",
            Code::DeadMuxInput => "RSN004",
            Code::MuxAddressOverflow => "RSN005",
            Code::AddressWithoutShadow => "RSN006",
            Code::UnreachableFromScanIn => "RSN007",
            Code::CannotReachScanOut => "RSN008",
            Code::ControlDependencyCycle => "RSN009",
            Code::UncontrollableControlRegister => "RSN010",
        }
    }

    /// The severity associated with the code.
    pub fn severity(self) -> Severity {
        match self {
            Code::SelectPathMismatch
            | Code::MuxAddressOverflow
            | Code::UncontrollableControlRegister => Severity::Error,
            Code::NeverSelected
            | Code::MuxNeverSwitches
            | Code::DeadMuxInput
            | Code::AddressWithoutShadow
            | Code::UnreachableFromScanIn
            | Code::CannotReachScanOut
            | Code::ControlDependencyCycle => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verified finding: stable code, severity, node provenance, message
/// and (for SAT-derived existence findings) a witness configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable catalog code.
    pub code: Code,
    /// Severity, defaulting to [`Code::severity`].
    pub severity: Severity,
    /// The primary node the finding is about, if any.
    pub node: Option<NodeId>,
    /// Name of the primary node (provenance survives serialization).
    pub node_name: String,
    /// Related nodes (the register of a shadow-less address, the members
    /// of a control cycle, ...).
    pub related: Vec<NodeId>,
    /// Human-readable explanation.
    pub message: String,
    /// A configuration reproducing the finding through the simulator,
    /// extracted from the SAT model (existence findings only).
    pub witness: Option<Config>,
    /// Root-cause explanation (minimal structural cut, forcing control
    /// bits, repair hints), attached by
    /// [`explain_report`](crate::explain_report).
    pub explanation: Option<Explanation>,
}

impl Diagnostic {
    /// Creates a diagnostic for `node` with the code's default severity.
    pub fn new(code: Code, rsn: &Rsn, node: NodeId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            node: Some(node),
            node_name: rsn.node(node).name().to_string(),
            related: Vec::new(),
            message: message.into(),
            witness: None,
            explanation: None,
        }
    }

    /// Attaches a witness configuration.
    pub fn with_witness(mut self, witness: Config) -> Diagnostic {
        self.witness = Some(witness);
        self
    }

    /// Attaches related nodes.
    pub fn with_related(mut self, related: Vec<NodeId>) -> Diagnostic {
        self.related = related;
        self
    }

    /// Serializes to an `rsn-obs` JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("code", Json::Str(self.code.as_str().into()));
        obj.set("severity", Json::Str(self.severity.to_string()));
        if let Some(n) = self.node {
            obj.set("node", Json::Num(n.0 as f64));
            obj.set("node_name", Json::Str(self.node_name.clone()));
        }
        if !self.related.is_empty() {
            obj.set(
                "related",
                Json::Arr(self.related.iter().map(|n| Json::Num(n.0 as f64)).collect()),
            );
        }
        obj.set("message", Json::Str(self.message.clone()));
        if let Some(w) = &self.witness {
            obj.set(
                "witness",
                Json::Str(
                    w.as_bits()
                        .iter()
                        .map(|&b| if b { '1' } else { '0' })
                        .collect(),
                ),
            );
        }
        if let Some(e) = &self.explanation {
            obj.set("explanation", e.to_json());
        }
        obj
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.code)?;
        if self.node.is_some() {
            write!(f, " {}", self.node_name)?;
        }
        write!(f, ": {}", self.message)?;
        if self.witness.is_some() {
            write!(f, " (witness configuration attached)")?;
        }
        Ok(())
    }
}

/// The result of one verification run: all diagnostics plus run
/// statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Name of the verified network.
    pub network: String,
    /// Node count of the verified network.
    pub nodes: usize,
    /// All findings, ordered by check then node.
    pub diagnostics: Vec<Diagnostic>,
    /// Checks that ran (stable names, see DESIGN.md).
    pub checks_run: Vec<&'static str>,
    /// Checks that were requested but starved by a resource budget; their
    /// properties are *unproven*, not passed (stable names, as in
    /// [`VerifyReport::checks_run`]).
    pub incomplete: Vec<&'static str>,
    /// Number of SAT queries issued.
    pub sat_queries: usize,
}

impl VerifyReport {
    /// Findings of exactly `severity`.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.with_severity(Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.with_severity(Severity::Warning).count()
    }

    /// `true` if no error-severity finding was made.
    ///
    /// A clean but [incomplete](VerifyReport::is_complete) report is *not*
    /// a proof: starved check families were never run.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// `true` if every requested check family actually ran (none was
    /// starved by a resource budget).
    pub fn is_complete(&self) -> bool {
        self.incomplete.is_empty()
    }

    /// Renders the report for terminals: one line per diagnostic (plus
    /// an indented root-cause block when an explanation is attached), a
    /// summary line, and one explicit `UNPROVEN` marker per starved
    /// check family.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
            if let Some(e) = &d.explanation {
                for line in e.render_lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s) across {} check(s), {} SAT queries",
            self.network,
            self.error_count(),
            self.warning_count(),
            self.checks_run.len(),
            self.sat_queries,
        );
        for fam in &self.incomplete {
            let _ = writeln!(
                out,
                "UNPROVEN {fam}: budget exhausted before this check family ran",
            );
        }
        if !self.incomplete.is_empty() {
            let _ = writeln!(
                out,
                "INCOMPLETE: budget exhausted before {} — unproven, not passed",
                self.incomplete.join(", "),
            );
        }
        out
    }

    /// Serializes the report to an `rsn-obs` JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("network", Json::Str(self.network.clone()));
        obj.set("nodes", Json::Num(self.nodes as f64));
        obj.set("errors", Json::Num(self.error_count() as f64));
        obj.set("warnings", Json::Num(self.warning_count() as f64));
        obj.set("sat_queries", Json::Num(self.sat_queries as f64));
        obj.set(
            "checks",
            Json::Arr(
                self.checks_run
                    .iter()
                    .map(|c| Json::Str((*c).into()))
                    .collect(),
            ),
        );
        if !self.incomplete.is_empty() {
            obj.set(
                "incomplete",
                Json::Arr(
                    self.incomplete
                        .iter()
                        .map(|c| Json::Str((*c).into()))
                        .collect(),
                ),
            );
        }
        obj.set(
            "diagnostics",
            Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
        );
        obj
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}
