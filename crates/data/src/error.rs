//! Error type for the data layer.

use std::fmt;

/// Errors raised by schema validation, relation construction, CSV I/O,
/// and the serving front door.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, so future robustness variants (like `Timeout`, added for the
/// front door) are not breaking changes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataError {
    /// A schema lists the same attribute name twice.
    DuplicateAttribute(String),
    /// An attribute name was not found in a schema.
    UnknownAttribute(String),
    /// A relation name was not found in a database.
    UnknownRelation(String),
    /// A row had the wrong arity or a value of the wrong type for its column.
    TypeMismatch { attribute: String, expected: &'static str, got: String },
    /// Row arity differs from schema arity.
    ArityMismatch { expected: usize, got: usize },
    /// CSV parsing failed at a given line.
    Csv { line: usize, message: String },
    /// An I/O error, stringified (keeps the error type `Clone + Eq`).
    Io(String),
    /// Generic invariant violation with context.
    Invalid(String),
    /// A worker thread panicked; the panic was contained and the payload
    /// stringified. The batch that raised it was rolled back or merged
    /// from a degraded retry — the process never aborts.
    WorkerPanic(String),
    /// A fault injected at the named site (`fdb_data::fault`; only raised
    /// with the `fault-injection` feature on and a plan installed).
    Injected(String),
    /// A blocking submit waited past its deadline for queue space. The
    /// submitted delta was **not** enqueued and will never publish.
    Timeout {
        /// How long the submit waited before giving up, in milliseconds.
        waited_ms: u64,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::DuplicateAttribute(a) => write!(f, "duplicate attribute `{a}` in schema"),
            DataError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            DataError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            DataError::TypeMismatch { attribute, expected, got } => {
                write!(f, "type mismatch on `{attribute}`: expected {expected}, got {got}")
            }
            DataError::ArityMismatch { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            DataError::Csv { line, message } => write!(f, "csv error at line {line}: {message}"),
            DataError::Io(m) => write!(f, "io error: {m}"),
            DataError::Invalid(m) => write!(f, "invalid: {m}"),
            DataError::WorkerPanic(m) => write!(f, "worker panicked: {m}"),
            DataError::Injected(site) => write!(f, "injected fault at `{site}`"),
            DataError::Timeout { waited_ms } => {
                write!(f, "submit timed out after {waited_ms} ms waiting for queue space")
            }
        }
    }
}

// `source()` is intentionally the default `None` for every variant: causes
// are stringified into the variant payloads (see `Io`, `WorkerPanic`) so
// the type stays `Clone + PartialEq + Eq` — which the rollback and
// agreement test machinery rely on.
impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DataError::TypeMismatch {
            attribute: "price".into(),
            expected: "f64",
            got: "Int(3)".into(),
        };
        assert!(e.to_string().contains("price"));
        assert!(DataError::UnknownRelation("R".into()).to_string().contains("R"));
        assert!(DataError::Csv { line: 7, message: "bad".into() }.to_string().contains("7"));
        assert!(DataError::Timeout { waited_ms: 250 }.to_string().contains("250"));
    }

    /// One witness per variant. A compile-time reminder lives in the match
    /// below: adding a variant without extending this list fails the test
    /// via the count check, and `#[non_exhaustive]` does not apply inside
    /// the defining crate, so the `match` must stay exhaustive here.
    fn witnesses() -> Vec<DataError> {
        let all = vec![
            DataError::DuplicateAttribute("a".into()),
            DataError::UnknownAttribute("a".into()),
            DataError::UnknownRelation("R".into()),
            DataError::TypeMismatch { attribute: "a".into(), expected: "i64", got: "F64".into() },
            DataError::ArityMismatch { expected: 3, got: 2 },
            DataError::Csv { line: 1, message: "m".into() },
            DataError::Io("m".into()),
            DataError::Invalid("m".into()),
            DataError::WorkerPanic("m".into()),
            DataError::Injected("site".into()),
            DataError::Timeout { waited_ms: 10 },
        ];
        for e in &all {
            match e {
                DataError::DuplicateAttribute(_)
                | DataError::UnknownAttribute(_)
                | DataError::UnknownRelation(_)
                | DataError::TypeMismatch { .. }
                | DataError::ArityMismatch { .. }
                | DataError::Csv { .. }
                | DataError::Io(_)
                | DataError::Invalid(_)
                | DataError::WorkerPanic(_)
                | DataError::Injected(_)
                | DataError::Timeout { .. } => {}
            }
        }
        all
    }

    #[test]
    fn every_variant_renders_a_nonempty_distinct_message() {
        use std::collections::HashSet;
        use std::error::Error;
        let all = witnesses();
        let messages: Vec<String> = all.iter().map(ToString::to_string).collect();
        for (e, m) in all.iter().zip(&messages) {
            assert!(!m.is_empty(), "{e:?} renders empty");
            // Stringified-cause design: no variant hides a source chain.
            assert!(e.source().is_none(), "{e:?} should have no source");
        }
        let distinct: HashSet<&str> = messages.iter().map(String::as_str).collect();
        assert_eq!(distinct.len(), messages.len(), "duplicate Display strings: {messages:?}");
    }
}
