//! The aggregated analysis report with text and JSON renderers.

use crate::diag::{DiagCode, Diagnostic, Severity};
use rcarb_json::{Json, ToJson};

/// Everything the analyzer found, in check order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Adds many findings.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Absorbs another report, prefixing every location with `prefix`
    /// (used to tag per-partition findings in multi-stage flows).
    pub fn absorb(&mut self, mut other: AnalysisReport, prefix: &str) {
        for d in &mut other.diagnostics {
            d.location = format!("{prefix}{}", d.location);
        }
        self.diagnostics.append(&mut other.diagnostics);
    }

    /// All findings, in the order the checks produced them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Findings with the given code.
    pub fn with_code(&self, code: DiagCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// True when at least one finding carries `code`.
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of error-severity findings.
    pub fn num_errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn num_warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// True when no errors were found (warnings and infos allowed).
    pub fn is_clean(&self) -> bool {
        self.num_errors() == 0
    }

    /// Sorts the findings into the canonical order — code, then
    /// location, then message — so report output is deterministic and
    /// independent of the order the check families ran in.
    /// [`analyze_plan`](crate::analyze_plan) calls this once after the
    /// last family; diffing two reports (or snapshotting one in CI) is
    /// then byte-stable.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.code.as_str(), &a.location, &a.message).cmp(&(
                b.code.as_str(),
                &b.location,
                &b.message,
            ))
        });
    }

    /// Renders the compiler-style text report, most severe first.
    pub fn render_text(&self) -> String {
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
        let mut out = String::new();
        for d in sorted {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "analysis: {} error(s), {} warning(s), {} finding(s) total\n",
            self.num_errors(),
            self.num_warnings(),
            self.diagnostics.len()
        ));
        out
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("errors".to_owned(), (self.num_errors() as u64).to_json()),
            (
                "warnings".to_owned(),
                (self.num_warnings() as u64).to_json(),
            ),
            ("clean".to_owned(), Json::Bool(self.is_clean())),
            (
                "diagnostics".to_owned(),
                Json::Arr(self.diagnostics.iter().map(diagnostic_json).collect()),
            ),
        ])
    }
}

fn diagnostic_json(d: &Diagnostic) -> Json {
    let mut fields = vec![
        ("code".to_owned(), Json::Str(d.code.as_str().to_owned())),
        ("severity".to_owned(), Json::Str(d.severity.to_string())),
        ("location".to_owned(), d.location.to_json()),
        ("message".to_owned(), d.message.to_json()),
    ];
    fields.push((
        "help".to_owned(),
        match &d.help {
            Some(h) => h.to_json(),
            None => Json::Null,
        },
    ));
    fields.push((
        "witness".to_owned(),
        match &d.witness {
            Some(w) => Json::Obj(vec![
                ("expect".to_owned(), w.expect.to_json()),
                (
                    "task".to_owned(),
                    match w.task {
                        Some(t) => (t.index() as u64).to_json(),
                        None => Json::Null,
                    },
                ),
                (
                    "arbiter".to_owned(),
                    match w.arbiter {
                        Some(a) => (a.index() as u64).to_json(),
                        None => Json::Null,
                    },
                ),
                (
                    "path".to_owned(),
                    Json::Arr(w.path.iter().map(|s| s.to_json()).collect()),
                ),
            ]),
            None => Json::Null,
        },
    ));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        let mut r = AnalysisReport::new();
        r.push(Diagnostic::new(
            DiagCode::ConstantLut,
            "netlist a",
            "constant",
        ));
        r.push(
            Diagnostic::new(DiagCode::TriStateContention, "arbiter Arb2", "double grant")
                .with_help("check the FSM"),
        );
        r.push(Diagnostic::new(
            DiagCode::UnreachableState,
            "fsm b",
            "state dead",
        ));
        r
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.num_errors(), 1);
        assert_eq!(r.num_warnings(), 1);
        assert!(!r.is_clean());
        assert!(AnalysisReport::new().is_clean());
        assert!(r.has_code(DiagCode::TriStateContention));
        assert_eq!(r.with_code(DiagCode::ConstantLut).len(), 1);
    }

    #[test]
    fn text_report_sorts_errors_first() {
        let text = sample().render_text();
        let err_pos = text.find("error[RCA101]").unwrap();
        let warn_pos = text.find("warning[RCA404]").unwrap();
        let info_pos = text.find("info[RCA403]").unwrap();
        assert!(err_pos < warn_pos && warn_pos < info_pos);
        assert!(text.contains("1 error(s), 1 warning(s), 3 finding(s)"));
    }

    #[test]
    fn json_report_is_structured() {
        let doc = sample().to_json();
        assert_eq!(doc["errors"].as_u64(), Some(1));
        assert_eq!(doc["clean"].as_bool(), Some(false));
        let diags = doc["diagnostics"].as_array().unwrap();
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[1]["code"].as_str(), Some("RCA101"));
        assert_eq!(diags[1]["help"].as_str(), Some("check the FSM"));
        assert!(diags[0]["help"].is_null());
    }

    #[test]
    fn absorb_prefixes_locations() {
        let mut outer = AnalysisReport::new();
        outer.absorb(sample(), "partition #0: ");
        assert!(outer.diagnostics()[0]
            .location
            .starts_with("partition #0: netlist a"));
        assert_eq!(outer.diagnostics().len(), 3);
    }
}
