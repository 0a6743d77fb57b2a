//! The unified fallible API surface of `edc-core`.
//!
//! Every failure the pipeline can produce — read-path corruption, write-
//! path faults, journal-recovery problems, raw flash faults — funnels into
//! one [`EdcError`] so callers match on a single type, while the
//! constituent error enums stay available for precise handling. Nothing on
//! these paths panics: a fault is data, not an abort.

use crate::journal::RecoveryError;
use crate::pipeline::ReadError;
use core::fmt;
use edc_compress::CodecError;
use edc_flash::{ArrayError, FaultError};

/// Errors from the pipeline's write side ([`crate::pipeline::EdcPipeline::write`],
/// `write_batch`, `flush`, `flush_all`).
#[derive(Debug)]
pub enum WriteError {
    /// Offset or length not 4 KiB-aligned / not whole blocks.
    Unaligned,
    /// `offset + len` does not fit the 64-bit byte address space.
    OutOfRange,
    /// The store is powered off after a simulated power cut; call
    /// [`crate::pipeline::EdcPipeline::recover`] first.
    Offline,
    /// A simulated power cut fired mid-flush. Runs whose journal record
    /// was durable before the cut survive recovery; the run being stored
    /// at the instant of the cut does not.
    PowerCut {
        /// Page programs completed before the lights went out.
        after_programs: u64,
    },
    /// A codec lookup failed (a run sealed with an impossible tag).
    Codec(CodecError),
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::Unaligned => write!(f, "write must be whole 4 KiB-aligned blocks"),
            WriteError::OutOfRange => write!(f, "write runs past the end of the address space"),
            WriteError::Offline => {
                write!(f, "store is powered off after a power cut; recover() first")
            }
            WriteError::PowerCut { after_programs } => {
                write!(f, "power cut after {after_programs} page programs")
            }
            WriteError::Codec(e) => write!(f, "codec lookup failed: {e}"),
        }
    }
}

impl std::error::Error for WriteError {}

/// The unified `edc-core` error: everything the pipeline's fallible API
/// can return, with `From` impls so `?` composes across layers.
#[derive(Debug)]
pub enum EdcError {
    /// Read-path failure (corruption, checksum mismatch, unrecoverable
    /// read fault, powered-off store).
    Read(ReadError),
    /// Write-path failure (alignment, power cut, powered-off store).
    Write(WriteError),
    /// Journal-replay failure during [`crate::pipeline::EdcPipeline::recover`].
    Recovery(RecoveryError),
    /// A flash-level fault surfaced directly (device campaigns driving
    /// `edc-flash` through the pipeline's error type).
    Fault(FaultError),
    /// An integrity audit found live metadata structures out of sync
    /// (e.g. the dedup refcount ledger disagreeing with the mapping
    /// table). Always a logic-level inconsistency, never media damage.
    Integrity(&'static str),
    /// A RAIS array-level failure (shape error, degraded-path loss,
    /// member fault) surfaced through the pipeline's error type.
    Array(ArrayError),
}

impl fmt::Display for EdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdcError::Read(e) => write!(f, "read failed: {e}"),
            EdcError::Write(e) => write!(f, "write failed: {e}"),
            EdcError::Recovery(e) => write!(f, "recovery failed: {e}"),
            EdcError::Fault(e) => write!(f, "flash fault: {e}"),
            EdcError::Integrity(msg) => write!(f, "integrity audit failed: {msg}"),
            EdcError::Array(e) => write!(f, "array error: {e}"),
        }
    }
}

impl std::error::Error for EdcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdcError::Read(e) => Some(e),
            EdcError::Write(e) => Some(e),
            EdcError::Recovery(e) => Some(e),
            EdcError::Fault(e) => Some(e),
            EdcError::Integrity(_) => None,
            EdcError::Array(e) => Some(e),
        }
    }
}

impl From<ReadError> for EdcError {
    fn from(e: ReadError) -> Self {
        EdcError::Read(e)
    }
}

impl From<WriteError> for EdcError {
    fn from(e: WriteError) -> Self {
        EdcError::Write(e)
    }
}

impl From<RecoveryError> for EdcError {
    fn from(e: RecoveryError) -> Self {
        EdcError::Recovery(e)
    }
}

impl From<FaultError> for EdcError {
    fn from(e: FaultError) -> Self {
        EdcError::Fault(e)
    }
}

impl From<ArrayError> for EdcError {
    fn from(e: ArrayError) -> Self {
        EdcError::Array(e)
    }
}

impl From<CodecError> for EdcError {
    fn from(e: CodecError) -> Self {
        EdcError::Write(WriteError::Codec(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_compose_with_question_mark() {
        fn read() -> Result<(), EdcError> {
            Err(ReadError::Unaligned)?
        }
        fn write() -> Result<(), EdcError> {
            Err(WriteError::Offline)?
        }
        fn fault() -> Result<(), EdcError> {
            Err(FaultError::ReadFault)?
        }
        fn codec() -> Result<(), EdcError> {
            Err(CodecError::WriteThrough)?
        }
        fn array() -> Result<(), EdcError> {
            Err(ArrayError::EmptyChunk)?
        }
        assert!(matches!(read(), Err(EdcError::Read(_))));
        assert!(matches!(write(), Err(EdcError::Write(_))));
        assert!(matches!(fault(), Err(EdcError::Fault(_))));
        assert!(matches!(codec(), Err(EdcError::Write(WriteError::Codec(_)))));
        assert!(matches!(array(), Err(EdcError::Array(ArrayError::EmptyChunk))));
    }

    #[test]
    fn displays_are_informative() {
        let e = EdcError::Write(WriteError::PowerCut { after_programs: 42 });
        assert!(e.to_string().contains("42"));
        assert!(EdcError::Write(WriteError::Unaligned).to_string().contains("4 KiB"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
