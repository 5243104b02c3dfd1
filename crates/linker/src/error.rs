//! Linker error types.

use std::error::Error;
use std::fmt;

/// Errors returned by the simulated dynamic linker.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinkerError {
    /// No registered image has this name (`dlopen` of a missing `.so`).
    LibraryNotFound(String),
    /// A dependency chain contains a cycle.
    CircularDependency(Vec<String>),
    /// The symbol was not found in the library or its dependency tree.
    SymbolNotFound {
        /// The library searched.
        library: String,
        /// The missing symbol.
        symbol: String,
    },
}

impl fmt::Display for LinkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkerError::LibraryNotFound(name) => write!(f, "library not found: {name:?}"),
            LinkerError::CircularDependency(chain) => {
                write!(f, "circular library dependency: {}", chain.join(" -> "))
            }
            LinkerError::SymbolNotFound { library, symbol } => {
                write!(f, "symbol {symbol:?} not found in {library:?} or its dependencies")
            }
        }
    }
}

impl Error for LinkerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(LinkerError::LibraryNotFound("libfoo.so".into())
            .to_string()
            .contains("libfoo.so"));
        assert!(LinkerError::CircularDependency(vec!["a".into(), "b".into(), "a".into()])
            .to_string()
            .contains("a -> b -> a"));
        assert!(LinkerError::SymbolNotFound {
            library: "libEGL.so".into(),
            symbol: "eglFrobnicate".into()
        }
        .to_string()
        .contains("eglFrobnicate"));
    }
}
