//! System-wide error handling.
//!
//! SemperOS inherits M3's convention of small error codes carried in
//! message replies. We mirror that with a compact [`Code`] enum wrapped in
//! an [`Error`] struct so call sites can use `Result<T>` idiomatically
//! while the wire protocol stays a single byte.

use serde::{Deserialize, Serialize};

/// Error codes returned by system calls, inter-kernel calls, and services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Code {
    /// The referenced capability selector is empty or out of range.
    NoSuchCap,
    /// The capability exists but does not grant the required permission.
    NoPerm,
    /// Arguments of a call were malformed (bad range, bad selector, ...).
    InvalidArgs,
    /// The target selector is already occupied.
    Exists,
    /// The capability is currently being revoked; capability-modifying
    /// operations on it are denied (prevents *pointless* exchanges,
    /// Table 2 of the paper).
    RevokeInProgress,
    /// The peer VPE exited or was killed while the operation was in flight
    /// (produces *orphaned* capabilities that the protocol cleans up).
    VpeGone,
    /// The peer VPE rejected a capability exchange.
    ExchangeDenied,
    /// No free capability slots / message slots / table space.
    NoSpace,
    /// No service with the requested name is registered anywhere.
    NoSuchService,
    /// Filesystem: path does not exist.
    NoSuchFile,
    /// Filesystem: directory entry already exists.
    FileExists,
    /// Filesystem: operation on a directory where a file was expected (or
    /// vice versa).
    IsDir,
    /// Filesystem: read/write past the end of the file without append mode.
    EndOfFile,
    /// The session / send gate is not (or no longer) established.
    InvalidSession,
    /// Message could not be sent because the channel's credit/slot budget
    /// is exhausted. Kernels retry; applications see it as backpressure.
    ChannelFull,
    /// The operation is recognised but not implemented by this build.
    NotSupported,
    /// Generic internal inconsistency; indicates a bug in the kernel.
    InternalError,
    /// The VPE referenced by the call does not exist (never created or
    /// already destroyed).
    NoSuchVpe,
    /// Timeout while waiting for a remote party. The protocols
    /// themselves are timeout-free; under a fault plan the kernel
    /// answers this when a VPE's answer is starved past its phase's
    /// deadline, or when the peer kernel an operation needs has crashed
    /// (`Kernel::poll_faults`, `Kernel::peer_down`).
    Timeout,
}

impl Code {
    /// Short stable mnemonic, useful in logs and traces.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Code::NoSuchCap => "ENOCAP",
            Code::NoPerm => "EPERM",
            Code::InvalidArgs => "EINVAL",
            Code::Exists => "EEXIST",
            Code::RevokeInProgress => "EREVOKE",
            Code::VpeGone => "EVPEGONE",
            Code::ExchangeDenied => "EDENIED",
            Code::NoSpace => "ENOSPC",
            Code::NoSuchService => "ENOSVC",
            Code::NoSuchFile => "ENOENT",
            Code::FileExists => "EFEXIST",
            Code::IsDir => "EISDIR",
            Code::EndOfFile => "EEOF",
            Code::InvalidSession => "ESESS",
            Code::ChannelFull => "EFULL",
            Code::NotSupported => "ENOTSUP",
            Code::InternalError => "EINTERNAL",
            Code::NoSuchVpe => "ENOVPE",
            Code::Timeout => "ETIMEOUT",
        }
    }
}

/// The error type used throughout the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Error {
    code: Code,
}

impl Error {
    /// Creates a new error with the given code.
    pub fn new(code: Code) -> Self {
        Error { code }
    }

    /// Returns the error code.
    pub fn code(&self) -> Code {
        self.code
    }
}

impl From<Code> for Error {
    fn from(code: Code) -> Self {
        Error::new(code)
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} ({:?})", self.code.mnemonic(), self.code)
    }
}

impl std::error::Error for Error {}

/// Convenience alias used by all crates.
pub type Result<T> = core::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_mnemonic() {
        let e = Error::new(Code::NoSuchCap);
        assert!(e.to_string().contains("ENOCAP"));
    }

    #[test]
    fn from_code() {
        let e: Error = Code::NoPerm.into();
        assert_eq!(e.code(), Code::NoPerm);
    }

    #[test]
    fn mnemonics_are_unique() {
        let codes = [
            Code::NoSuchCap,
            Code::NoPerm,
            Code::InvalidArgs,
            Code::Exists,
            Code::RevokeInProgress,
            Code::VpeGone,
            Code::ExchangeDenied,
            Code::NoSpace,
            Code::NoSuchService,
            Code::NoSuchFile,
            Code::FileExists,
            Code::IsDir,
            Code::EndOfFile,
            Code::InvalidSession,
            Code::ChannelFull,
            Code::NotSupported,
            Code::InternalError,
            Code::NoSuchVpe,
            Code::Timeout,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for c in codes {
            assert!(seen.insert(c.mnemonic()), "duplicate mnemonic {}", c.mnemonic());
        }
    }
}
