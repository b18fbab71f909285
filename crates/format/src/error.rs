//! Error type shared by the trace format readers/writers.

use ocelotl_trace::ModelSinkError;
use std::fmt;

/// Errors produced while reading or writing trace files.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content, with a line number (text format) or
    /// byte offset (binary format) when available.
    Parse {
        /// Human-readable description of what went wrong.
        message: String,
        /// 1-based line (text) or byte offset (binary), if known.
        position: Option<u64>,
    },
    /// The file's declared format/version is not supported.
    UnsupportedVersion(String),
    /// A columnar chunk failed its checksum: the payload bytes on disk do
    /// not match the checksum stored in the chunk index. Other chunks of
    /// the file remain decodable through the planner.
    ChunkCorrupt {
        /// The file holding the chunk (empty when the reader has no path,
        /// e.g. decoding from memory; [`io`](crate::io) fills it in).
        file: String,
        /// Zero-based chunk index within the file.
        chunk: u64,
    },
    /// The model sink refused the stream: nothing failed to parse, but the
    /// input cannot become a model (no time range to slice, or a model
    /// too large to address).
    Refused {
        /// The input whose stream was refused.
        file: String,
        /// Why the sink refused it.
        refusal: ModelSinkError,
    },
}

impl FormatError {
    pub(crate) fn parse(message: impl Into<String>, position: Option<u64>) -> Self {
        Self::Parse {
            message: message.into(),
            position,
        }
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "I/O error: {e}"),
            FormatError::Parse { message, position } => match position {
                Some(p) => write!(f, "parse error at {p}: {message}"),
                None => write!(f, "parse error: {message}"),
            },
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version: {v}"),
            FormatError::ChunkCorrupt { file, chunk } => {
                if file.is_empty() {
                    write!(f, "chunk {chunk} failed its checksum")
                } else {
                    write!(f, "{file}: chunk {chunk} failed its checksum")
                }
            }
            FormatError::Refused { file, refusal } => write!(f, "{file}: {refusal}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, FormatError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = FormatError::parse("bad record", Some(12));
        assert!(e.to_string().contains("12"));
        let e = FormatError::parse("bad record", None);
        assert!(e.to_string().contains("bad record"));
        let e = FormatError::UnsupportedVersion("PTF 9".into());
        assert!(e.to_string().contains("PTF 9"));
        let e: FormatError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        let e = FormatError::Refused {
            file: "t.btf".into(),
            refusal: ModelSinkError::TooLarge,
        };
        let msg = e.to_string();
        assert!(
            msg.starts_with("t.btf: the model's size overflows"),
            "{msg}"
        );
    }
}
