//! The one kernel connection (and reply correlator) every client uses.
//!
//! Every actor that talks to a kernel or a service — the trace
//! replayer, the webserver and the m3fs service — keeps its request
//! tags here. [`KernelConn`] and [`Correlator`] are the single
//! implementation of that bookkeeping: typed submission, and completion
//! matching that returns a hard [`Error`] on any mismatch, in every
//! build profile:
//!
//! ```
//! # use semper_apps::conn::KernelConn;
//! # use semper_base::msg::{Outbox, Payload, Syscall, SysReply, SysReplyData};
//! # use semper_base::{Msg, PeId};
//! let mut conn = KernelConn::new(PeId(3), PeId(0));
//! let mut out = Outbox::new();
//! conn.submit(Syscall::Noop, &mut out);
//! assert!(conn.busy());
//! // ... the kernel replies, echoing the tag the call carried ...
//! let Payload::Sys { tag, .. } = &out.drain()[0].0.payload else { unreachable!() };
//! let reply = SysReply { tag: *tag, result: Ok(SysReplyData::None) };
//! conn.accept(&reply).expect("tag mismatch is a hard error, not a dropped reply");
//! assert!(!conn.busy());
//! ```
//!
//! VPEs have exactly one blocking system call in flight (the invariant
//! the paper's thread-pool sizing rests on), so "completion polling" is
//! a single-slot affair: [`KernelConn::busy`] says whether a call is in
//! flight, [`KernelConn::accept`] resolves it.

use semper_base::msg::{Outbox, Payload, SysReply, Syscall};
use semper_base::{Code, Error, Msg, PeId, Result};

/// Matches request tags to reply tags for a channel with one request in
/// flight at a time (syscalls to a kernel, filesystem IPC over a
/// session). Allocates tags monotonically from 1; rejects replies that
/// do not match the outstanding request with a hard error.
#[derive(Debug, Clone, Default)]
pub struct Correlator {
    /// The last tag issued (0 before the first).
    last_tag: u64,
    waiting: Option<u64>,
}

impl Correlator {
    /// True while a request is outstanding.
    pub fn busy(&self) -> bool {
        self.waiting.is_some()
    }

    /// Allocates the next tag and marks it outstanding.
    ///
    /// # Panics
    ///
    /// Panics if a request is already outstanding (one blocking request
    /// per channel): overwriting its tag would turn its reply into an
    /// unrelated mismatch.
    pub fn issue(&mut self) -> u64 {
        assert!(self.waiting.is_none(), "one request in flight at a time");
        self.last_tag += 1;
        self.waiting = Some(self.last_tag);
        self.last_tag
    }

    /// Resolves the outstanding request against an echoed tag. A reply
    /// that matches nothing — no request outstanding, or a different
    /// tag — is a protocol violation and returns `InternalError`; the
    /// caller surfaces it instead of dropping the reply.
    pub fn accept(&mut self, tag: u64) -> Result<()> {
        match self.waiting {
            Some(t) if t == tag => {
                self.waiting = None;
                Ok(())
            }
            _ => Err(Error::new(Code::InternalError)),
        }
    }

    /// Clears the outstanding marker (failure teardown).
    pub fn reset(&mut self) {
        self.waiting = None;
    }
}

/// A VPE's connection to its group's kernel: typed submission of
/// [`Syscall`]s, single-slot completion tracking, hard-error reply
/// matching.
#[derive(Debug, Clone)]
pub struct KernelConn {
    pe: PeId,
    kernel_pe: PeId,
    corr: Correlator,
}

impl KernelConn {
    /// A connection from the VPE on `pe` to the kernel on `kernel_pe`,
    /// issuing tags from 1.
    pub fn new(pe: PeId, kernel_pe: PeId) -> KernelConn {
        KernelConn { pe, kernel_pe, corr: Correlator::default() }
    }

    /// True while a system call is in flight (VPEs block on syscalls).
    pub fn busy(&self) -> bool {
        self.corr.busy()
    }

    /// Submits a system call to the kernel; the message leaves with the
    /// handler's output, under the tag the reply must echo.
    pub fn submit(&mut self, call: Syscall, out: &mut Outbox) {
        let tag = self.corr.issue();
        out.push(Msg::new(self.pe, self.kernel_pe, Payload::sys(tag, call)));
    }

    /// Resolves the in-flight call against a reply. A mismatched or
    /// unexpected reply is a hard error (never silently dropped — the
    /// caller fails or panics).
    pub fn accept(&mut self, reply: &SysReply) -> Result<()> {
        self.corr.accept(reply.tag)
    }

    /// Clears the in-flight marker (failure teardown).
    pub fn reset(&mut self) {
        self.corr.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::msg::SysReplyData;

    #[test]
    fn submit_and_accept_roundtrip() {
        let mut conn = KernelConn::new(PeId(5), PeId(0));
        let mut out = Outbox::new();
        conn.submit(Syscall::Noop, &mut out);
        assert!(conn.busy());
        let msgs = out.drain();
        assert!(matches!(&msgs[0].0.payload, Payload::Sys { tag: 1, call: Syscall::Noop }));
        assert_eq!(msgs[0].0.dst, PeId(0));
        let reply = SysReply { tag: 1, result: Ok(SysReplyData::None) };
        conn.accept(&reply).unwrap();
        assert!(!conn.busy());
    }

    #[test]
    fn mismatched_reply_is_a_hard_error() {
        let mut conn = KernelConn::new(PeId(5), PeId(0));
        let mut out = Outbox::new();
        conn.submit(Syscall::Noop, &mut out);
        let bogus = SysReply { tag: 42, result: Ok(SysReplyData::None) };
        assert_eq!(conn.accept(&bogus).unwrap_err().code(), Code::InternalError);
        // An unsolicited reply with nothing in flight is also an error.
        conn.reset();
        let reply = SysReply { tag: 1, result: Ok(SysReplyData::None) };
        assert_eq!(conn.accept(&reply).unwrap_err().code(), Code::InternalError);
    }

    #[test]
    fn correlator_tags_are_monotone_from_first() {
        let mut c = Correlator::default();
        assert_eq!(c.issue(), 1);
        c.accept(1).unwrap();
        assert_eq!(c.issue(), 2);
        c.accept(2).unwrap();
        assert!(!c.busy());
    }

    /// A second request while one is outstanding is refused in every
    /// build profile, before it can overwrite the outstanding tag.
    #[test]
    #[should_panic(expected = "one request in flight at a time")]
    fn second_issue_while_busy_panics() {
        let mut c = Correlator::default();
        let _ = c.issue();
        let _ = c.issue();
    }
}
