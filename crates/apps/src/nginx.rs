//! The Nginx webserver experiment (§5.3.3).
//!
//! The paper stresses Nginx "similar to the Apache ab benchmark" with
//! PEs that resemble a network interface, constantly sending requests to
//! webserver processes on separate PEs; the servers replay the recorded
//! request-handling trace per request and respond. [`NginxServer`] is
//! one webserver VPE; [`LoadGen`] is one network-interface PE running a
//! closed loop with a configurable number of outstanding requests.

use std::collections::VecDeque;

use semper_base::msg::{HttpReq, HttpResp, Outbox, Payload};
use semper_base::{CostModel, Msg, PeId, VpeId};

use crate::client::Replayer;
use crate::trace::nginx_request;

/// One webserver VPE serving requests from load generators.
pub struct NginxServer {
    replayer: Replayer,
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
    pub fn boot(&mut self, out: &mut Outbox) -> u64 {
        debug_assert!(!self.booted);
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
        self.replayer.load(nginx_request(req.uri));
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
    /// Outstanding requests per server.
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
        LoadGen { pe, servers, depth, next_id: 1, completed: 0, bytes: 0, started: false }
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Response payload bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Starts the load: `depth` requests to every server. Iterates the
    /// target list by index — the previous implementation cloned the
    /// whole target `Vec` on every boot just to appease the borrow on
    /// `send_request`.
    pub fn boot(&mut self, out: &mut Outbox) -> u64 {
        debug_assert!(!self.started);
        self.started = true;
        for s in 0..self.servers.len() {
            let server = self.servers[s];
            for _ in 0..self.depth {
                self.send_request(server, out);
            }
        }
        0
    }

    fn send_request(&mut self, server: PeId, out: &mut Outbox) {
        let id = self.next_id;
        self.next_id += 1;
        out.push(Msg::new(self.pe, server, Payload::Http(HttpReq { id, uri: (id % 8) as u32 })));
    }

    /// Handles one response; immediately issues the next request
    /// (closed loop).
    pub fn handle(&mut self, msg: &Msg, out: &mut Outbox) -> u64 {
        match &msg.payload {
            Payload::HttpReply(resp) => {
                self.completed += 1;
                self.bytes += resp.bytes;
                let server = msg.src;
                self.send_request(server, out);
                0
            }
            other => panic!("loadgen got unexpected payload {other:?}"),
        }
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
    #[should_panic(expected = "loadgen got unexpected payload")]
    fn loadgen_rejects_anything_but_a_response() {
        let mut lg = LoadGen::new(PeId(0), vec![PeId(1)], 1);
        let stray = Msg::new(PeId(1), PeId(0), Payload::Http(HttpReq { id: 1, uri: 0 }));
        lg.handle(&stray, &mut Outbox::new());
    }
}
