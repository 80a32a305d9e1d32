//! Parse errors and accumulated diagnostics.

use crate::span::Span;
use std::fmt;

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note, does not affect parsing outcome.
    Note,
    /// Suspicious construct the parser recovered from.
    Warning,
    /// Hard error; the affected design unit is unusable.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single message attached to a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the problem is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Location in the source buffer.
    pub span: Span,
    /// Originating source file, when known. Spans are file-relative, so
    /// multi-file front-ends (the project catalog) stamp the path here to
    /// keep diagnostics actionable.
    pub file: Option<String>,
}

impl Diagnostic {
    /// Returns the diagnostic with its originating file set.
    pub fn in_file(mut self, file: impl Into<String>) -> Diagnostic {
        self.file = Some(file.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.file {
            Some(file) => write!(
                f,
                "{} at {file}:{}: {}",
                self.severity, self.span, self.message
            ),
            None => write!(f, "{} at {}: {}", self.severity, self.span, self.message),
        }
    }
}

/// Ordered collection of diagnostics produced while parsing one source file.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    pub(crate) items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a note.
    pub fn note(&mut self, message: impl Into<String>, span: Span) {
        self.items.push(Diagnostic {
            severity: Severity::Note,
            message: message.into(),
            span,
            file: None,
        });
    }

    /// Records a warning.
    pub fn warn(&mut self, message: impl Into<String>, span: Span) {
        self.items.push(Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
            file: None,
        });
    }

    /// Records an error.
    pub fn error(&mut self, message: impl Into<String>, span: Span) {
        self.items.push(Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
            file: None,
        });
    }

    /// Stamps every diagnostic that does not yet name a file with `file`.
    /// Parsers work on one buffer at a time and leave the field empty;
    /// multi-file callers set it once per parsed file.
    pub fn set_file(&mut self, file: &str) {
        for d in &mut self.items {
            if d.file.is_none() {
                d.file = Some(file.to_string());
            }
        }
    }

    /// All recorded diagnostics, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of diagnostics recorded.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no diagnostic has been recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when at least one `Error`-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Appends all diagnostics from `other`.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }
}

/// A fatal parse error: the parser could not recover enough to produce a
/// design unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of what went wrong.
    pub message: String,
    /// Where it went wrong.
    pub span: Span,
    /// Originating source file, when known (see [`Diagnostic::file`]).
    pub file: Option<String>,
}

impl ParseError {
    /// Creates a new parse error.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
            file: None,
        }
    }

    /// Returns the error with its originating file set.
    pub fn in_file(mut self, file: impl Into<String>) -> ParseError {
        self.file = Some(file.into());
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.file {
            Some(file) => write!(f, "parse error at {file}:{}: {}", self.span, self.message),
            None => write!(f, "parse error at {}: {}", self.span, self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Convenience alias used throughout the parsers.
pub type ParseResult<T> = Result<T, ParseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_accumulate_in_order() {
        let mut d = Diagnostics::new();
        d.note("n", Span::dummy());
        d.warn("w", Span::dummy());
        d.error("e", Span::dummy());
        let sev: Vec<_> = d.iter().map(|x| x.severity).collect();
        assert_eq!(
            sev,
            vec![Severity::Note, Severity::Warning, Severity::Error]
        );
        assert_eq!(d.len(), 3);
        assert!(d.has_errors());
    }

    #[test]
    fn empty_has_no_errors() {
        let d = Diagnostics::new();
        assert!(d.is_empty());
        assert!(!d.has_errors());
    }

    #[test]
    fn warnings_are_not_errors() {
        let mut d = Diagnostics::new();
        d.warn("only a warning", Span::dummy());
        assert!(!d.has_errors());
        assert!(!d.is_empty());
    }

    #[test]
    fn extend_merges() {
        let mut a = Diagnostics::new();
        a.note("a", Span::dummy());
        let mut b = Diagnostics::new();
        b.error("b", Span::dummy());
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert!(a.has_errors());
    }

    #[test]
    fn parse_error_display() {
        let e = ParseError::new("unexpected token", Span::new(0, 1, 3, 4));
        assert_eq!(e.to_string(), "parse error at 3:4: unexpected token");
        let in_file = e.in_file("rtl/core.vhd");
        assert_eq!(
            in_file.to_string(),
            "parse error at rtl/core.vhd:3:4: unexpected token"
        );
    }

    #[test]
    fn diagnostics_carry_the_originating_file() {
        let mut d = Diagnostics::new();
        d.error("bad token", Span::new(0, 1, 2, 5));
        d.set_file("rtl/top.sv");
        let rendered: Vec<String> = d.iter().map(|x| x.to_string()).collect();
        assert_eq!(rendered, vec!["error at rtl/top.sv:2:5: bad token"]);
        // Already-stamped diagnostics keep their file on a second pass.
        d.set_file("other.sv");
        assert_eq!(d.iter().next().unwrap().file.as_deref(), Some("rtl/top.sv"));
    }

    #[test]
    fn severity_ordering_matches_escalation() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
