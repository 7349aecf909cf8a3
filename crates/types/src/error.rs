//! Error types for the Ladon workspace.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the Ladon stack.
///
/// Protocol-level *rejections* (an invalid pre-prepare, a stale rank QC) are
/// not errors — honest replicas silently ignore invalid messages, per the
/// paper. `LadonError` covers configuration misuse instead.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LadonError {
    /// Invalid system configuration.
    Config(String),
}

impl fmt::Display for LadonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadonError::Config(s) => write!(f, "configuration error: {s}"),
        }
    }
}

impl Error for LadonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_detail() {
        let e = LadonError::Config("n too small".into());
        assert_eq!(e.to_string(), "configuration error: n too small");
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn Error) {}
        takes_err(&LadonError::Config("n too small".into()));
    }
}
