//! Error type shared by all large-object managers.

/// Errors surfaced by large-object operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LobError {
    /// A byte-range operation referenced bytes beyond the object.
    OutOfRange {
        /// Requested start offset.
        off: u64,
        /// Requested length.
        len: u64,
        /// Current object size.
        size: u64,
    },
    /// A single operation exceeded [`crate::MAX_OP_BYTES`].
    OperationTooLarge {
        /// Requested length.
        len: u64,
    },
    /// A caller asked for something no store can do: parameters out of
    /// range, a name too long or already taken. Nothing was changed.
    InvalidArgument(String),
    /// A page failed structural validation (bad magic, impossible counts):
    /// damage, never a caller mistake.
    Corrupt(String),
    /// An internal invariant was violated (returned by `check_invariants`).
    InvariantViolated(String),
}

impl std::fmt::Display for LobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LobError::OutOfRange { off, len, size } => write!(
                f,
                "byte range [{off}, {off}+{len}) out of range for object of {size} bytes"
            ),
            LobError::OperationTooLarge { len } => {
                write!(f, "operation of {len} bytes exceeds the per-op limit")
            }
            LobError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            LobError::Corrupt(msg) => write!(f, "corrupt storage structure: {msg}"),
            LobError::InvariantViolated(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for LobError {}

/// Shorthand for results carrying a [`LobError`].
pub type Result<T> = std::result::Result<T, LobError>;

/// `r`'s value, for the [`crate::LargeObject`] methods that cannot return
/// an error yet (`size`, `segments`, `snapshot` and the other cost-free
/// walks): a damaged page panics there with its `Corrupt` message.
pub(crate) fn or_panic<T>(r: Result<T>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = LobError::OutOfRange {
            off: 10,
            len: 5,
            size: 12,
        };
        assert_eq!(
            e.to_string(),
            "byte range [10, 10+5) out of range for object of 12 bytes"
        );
        assert!(LobError::Corrupt("x".into())
            .to_string()
            .contains("corrupt"));
        assert_eq!(
            LobError::InvalidArgument("x".into()).to_string(),
            "invalid argument: x"
        );
    }
}
