//! The Nginx webserver experiment (§5.3.3).
//!
//! The paper stresses Nginx "similar to the Apache ab benchmark" with
//! PEs that resemble a network interface, constantly sending requests to
//! webserver processes on separate PEs; the servers replay the recorded
//! request-handling trace per request and respond. [`NginxServer`] is
//! one webserver VPE; [`LoadGen`] is one network-interface PE running a
//! closed loop with a configurable number of outstanding requests.

use std::collections::VecDeque;
use std::sync::Arc;

use semper_base::msg::{HttpReq, HttpResp, Outbox, Payload};
use semper_base::{CostModel, Msg, PeId, VpeId};

use crate::client::Replayer;
use crate::trace::{nginx_request, Trace, DOCROOT_PAGES};

/// One webserver VPE serving requests from load generators.
pub struct NginxServer {
    replayer: Replayer,
    /// The request trace of each docroot page, built once; a request
    /// replays a shared handle.
    pages: Vec<Arc<Trace>>,
    pe: PeId,
    pending: VecDeque<(PeId, HttpReq)>,
    current: Option<(PeId, HttpReq)>,
    served: u64,
    booted: bool,
}

impl NginxServer {
    /// Creates a server VPE.
    pub fn new(
        vpe: VpeId,
        pe: PeId,
        kernel_pe: PeId,
        cost: CostModel,
        service_name: u64,
    ) -> NginxServer {
        NginxServer {
            replayer: Replayer::new(vpe, pe, kernel_pe, cost, service_name),
            pages: (0..DOCROOT_PAGES).map(|page| Arc::new(nginx_request(page))).collect(),
            pe,
            pending: VecDeque::new(),
            current: None,
            served: 0,
            booted: false,
        }
    }

    /// The server's VPE.
    pub fn vpe(&self) -> VpeId {
        self.replayer.vpe()
    }

    /// Requests fully served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// True once the m3fs session is up.
    pub fn ready(&self) -> bool {
        self.replayer.has_session()
    }

    /// Starts the server: opens its m3fs session.
    ///
    /// # Panics
    ///
    /// Panics if the server was started before.
    pub fn boot(&mut self, out: &mut Outbox) -> u64 {
        assert!(!self.booted, "server booted twice");
        self.booted = true;
        self.replayer.open_session(out)
    }

    /// Handles one incoming message; returns the modeled cycle cost.
    pub fn handle(&mut self, msg: &Msg, out: &mut Outbox) -> u64 {
        if let Payload::Http(req) = &msg.payload {
            self.pending.push_back((msg.src, *req));
            return self.kick(out);
        }
        let (cost, done) = self.replayer.on_msg(msg, out);
        if done {
            self.finish_current(out);
            return cost + self.kick(out);
        }
        if self.replayer.has_session() && self.current.is_none() {
            return cost + self.kick(out);
        }
        cost
    }

    fn finish_current(&mut self, out: &mut Outbox) {
        let Some((src, req)) = self.current.take() else { return };
        self.served += 1;
        out.push(Msg::new(
            self.pe(),
            src,
            Payload::HttpReply(HttpResp { id: req.id, bytes: 16 * 1024 }),
        ));
    }

    fn kick(&mut self, out: &mut Outbox) -> u64 {
        if !self.replayer.has_session() || self.current.is_some() || self.replayer.busy() {
            return 0;
        }
        let Some((src, req)) = self.pending.pop_front() else { return 0 };
        self.replayer.load(Arc::clone(&self.pages[(req.uri % DOCROOT_PAGES) as usize]));
        self.current = Some((src, req));
        let (cost, done) = self.replayer.run(out);
        if done {
            self.finish_current(out);
            return cost + self.kick(out);
        }
        cost
    }

    fn pe(&self) -> PeId {
        self.pe
    }
}

/// One network-interface PE generating closed-loop load.
pub struct LoadGen {
    pe: PeId,
    servers: Vec<PeId>,
    /// Requests sent to each server and not yet answered, by index into
    /// `servers`.
    outstanding: Vec<u32>,
    /// Requests the closed loop keeps outstanding at each server.
    depth: u32,
    next_id: u64,
    completed: u64,
    bytes: u64,
    started: bool,
}

impl LoadGen {
    /// Creates a load generator targeting `servers` with `depth`
    /// outstanding requests per server.
    pub fn new(pe: PeId, servers: Vec<PeId>, depth: u32) -> LoadGen {
        let outstanding = vec![0; servers.len()];
        LoadGen {
            pe,
            servers,
            outstanding,
            depth,
            next_id: 1,
            completed: 0,
            bytes: 0,
            started: false,
        }
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Response payload bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Starts the load: `depth` requests to every server.
    ///
    /// # Panics
    ///
    /// Panics if the load was started before.
    pub fn boot(&mut self, out: &mut Outbox) -> u64 {
        assert!(!self.started, "load generator started twice");
        self.started = true;
        for s in 0..self.servers.len() {
            for _ in 0..self.depth {
                self.send_request(s, out);
            }
        }
        0
    }

    /// Sends the next request to server `s` (an index into `servers`).
    fn send_request(&mut self, s: usize, out: &mut Outbox) {
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding[s] += 1;
        out.push(Msg::new(
            self.pe,
            self.servers[s],
            Payload::Http(HttpReq { id, uri: (id % u64::from(DOCROOT_PAGES)) as u32 }),
        ));
    }

    /// Handles one response; immediately issues the next request
    /// (closed loop). A response arrives over a server's channel, labelled
    /// with its index in `servers`. The one the intake rule cannot refuse,
    /// a server's unsolicited reply, is dropped unread at zero cost, like
    /// another actor's payload.
    pub fn handle(&mut self, msg: &Msg, out: &mut Outbox) -> u64 {
        let Payload::HttpReply(resp) = &msg.payload else { return 0 };
        let s = msg.label as usize;
        if self.outstanding.get(s).is_none_or(|&n| n == 0) {
            return 0;
        }
        self.outstanding[s] -= 1;
        self.completed += 1;
        self.bytes += resp.bytes;
        self.send_request(s, out);
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_boot_sends_depth_per_server() {
        let mut lg = LoadGen::new(PeId(0), vec![PeId(1), PeId(2)], 3);
        let mut out = Outbox::new();
        lg.boot(&mut out);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 6);
        assert_eq!(msgs.iter().filter(|(m, _)| m.dst == PeId(1)).count(), 3);
    }

    #[test]
    fn loadgen_closed_loop_reissues() {
        let mut lg = LoadGen::new(PeId(0), vec![PeId(1)], 1);
        let mut out = Outbox::new();
        lg.boot(&mut out);
        out.drain();
        let resp = Msg::new(PeId(1), PeId(0), Payload::HttpReply(HttpResp { id: 1, bytes: 10 }));
        lg.handle(&resp, &mut out);
        assert_eq!(lg.completed(), 1);
        assert_eq!(lg.bytes(), 10);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0.dst, PeId(1));
    }

    #[test]
    #[should_panic(expected = "load generator started twice")]
    fn loadgen_second_boot_panics() {
        let mut lg = LoadGen::new(PeId(0), vec![PeId(1)], 1);
        lg.boot(&mut Outbox::new());
        lg.boot(&mut Outbox::new());
    }

    #[test]
    #[should_panic(expected = "server booted twice")]
    fn server_second_boot_panics() {
        let mut s = NginxServer::new(VpeId(2), PeId(1), PeId(0), CostModel::calibrated(), 7);
        s.boot(&mut Outbox::new());
        s.boot(&mut Outbox::new());
    }

    /// Request ids cycle through the docroot's pages, and the server
    /// holds one trace per page.
    #[test]
    fn requests_cover_every_docroot_page_once_per_cycle() {
        let mut lg = LoadGen::new(PeId(0), vec![PeId(1)], DOCROOT_PAGES);
        let mut out = Outbox::new();
        lg.boot(&mut out);
        let mut uris: Vec<u32> = out
            .drain()
            .iter()
            .map(|(m, _)| match &m.payload {
                Payload::Http(req) => req.uri,
                other => panic!("{other:?}"),
            })
            .collect();
        uris.sort_unstable();
        assert_eq!(uris, (0..DOCROOT_PAGES).collect::<Vec<_>>());
        let s = NginxServer::new(VpeId(2), PeId(1), PeId(0), CostModel::calibrated(), 7);
        assert_eq!(s.pages.len(), DOCROOT_PAGES as usize);
    }

    /// Anything but a response is dropped unread at zero cost.
    #[test]
    fn loadgen_drops_anything_but_a_response() {
        let mut lg = LoadGen::new(PeId(0), vec![PeId(1)], 1);
        lg.boot(&mut Outbox::new());
        let mut out = Outbox::new();
        let stray = Msg::new(PeId(1), PeId(0), Payload::Http(HttpReq { id: 1, uri: 0 }));
        assert_eq!(lg.handle(&stray, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(lg.completed(), 0);
    }

    /// A response counts only from one of the generator's servers with
    /// a request outstanding: the intake rule refuses a forged one from
    /// another PE, and one from a server that was sent nothing yet is
    /// dropped and sends nothing.
    #[test]
    fn loadgen_drops_a_response_it_did_not_ask_for() {
        use semper_base::KernelId;
        use semper_caps::MembershipTable;
        use semper_kernel::host::Channels;
        let mut lg = LoadGen::new(PeId(0), vec![PeId(1)], 1);
        let mut out = Outbox::new();
        let reply =
            |src| Msg::new(PeId(src), PeId(0), Payload::HttpReply(HttpResp { id: 1, bytes: 10 }));
        // Before the load starts, no request is outstanding.
        assert_eq!(lg.handle(&reply(1), &mut out), 0);
        lg.boot(&mut Outbox::new());
        // Server PE 1 answers over its channel; PE 9 has none. The
        // kernel is on PE 15.
        let membership = MembershipTable::new(vec![KernelId(0); 16], vec![PeId(15)]);
        let mut channels = Channels::new(membership);
        channels.open(PeId(1), PeId(0), 0);
        assert!(channels.admit(&mut reply(9)).is_none());
        assert_eq!((lg.completed(), lg.bytes()), (0, 0));
        // The outstanding request's answer counts and sends the next.
        let mut answer = reply(1);
        assert!(channels.admit(&mut answer).is_some());
        lg.handle(&answer, &mut out);
        assert_eq!(out.drain().len(), 1);
        assert_eq!(lg.completed(), 1);
    }
}
