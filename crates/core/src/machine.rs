//! The timed machine: event loop, busy-time modeling, boot sequencing.
//!
//! Every PE hosts one [`Node`]. Messages pop from the deterministic
//! event queue in delivery order; a node that is still executing a
//! previous handler delays delivery until it is free — this per-PE
//! serialization is what makes kernels the contention points whose
//! behaviour the paper measures (parallel efficiency drops as more
//! instances share a kernel).

use std::collections::BTreeMap;

use semper_apps::client::ClientPhase;
use semper_apps::{AppClient, LoadGen, NginxServer, Trace};
use semper_base::msg::{Outbox, Payload, SysReply, Upcall, UpcallReply};
use semper_base::{KernelId, MachineConfig, Msg, PeId, VpeId};
use semper_kernel::{Kernel, KernelStats};
use semper_m3fs::{FsImage, FsService, FsSpec, M3FS_NAME};
use semper_noc::{GlobalMemory, Mesh, Noc};
use semper_sim::{Cycles, PeSchedule};

use crate::topology::{Role, Topology};

/// A stub VPE used by the microbenchmarks: accepts every exchange and
/// collects system-call replies.
#[derive(Debug, Default)]
pub struct StubVpe {
    /// The last system-call reply received, with its delivery time.
    pub last_reply: Option<(SysReply, Cycles)>,
}

/// What runs on one PE.
pub enum Node {
    /// A kernel instance.
    Kernel(Box<Kernel>),
    /// An m3fs instance.
    Service(Box<FsService>),
    /// An application benchmark instance.
    Client(Box<AppClient>),
    /// An Nginx webserver process.
    Server(Box<NginxServer>),
    /// A load generator.
    LoadGen(LoadGen),
    /// A microbenchmark stub VPE.
    Stub(StubVpe),
    /// Unused PE.
    Idle,
}

/// What to populate the non-OS PEs with.
pub enum Workload {
    /// Stub VPEs on every client PE (microbenchmarks).
    Micro,
    /// One application client per trace.
    Apps(Vec<Trace>),
    /// Webservers plus closed-loop load generators.
    Nginx {
        /// Outstanding requests per (generator, server) pair.
        depth: u32,
    },
}

/// Boot stagger between client starts, in cycles. The paper replays the
/// *same* trace in every instance, started together — the resulting
/// alignment of capability-operation bursts at the kernels is the very
/// contention the evaluation measures. A small per-instance offset
/// (~launch jitter) keeps the simulation realistic without decorrelating
/// the bursts.
const CLIENT_STAGGER: u64 = 40;

/// The assembled machine.
pub struct Machine {
    cfg: MachineConfig,
    topo: Topology,
    noc: Noc,
    /// The stall-lane event schedule: global heap plus per-PE lanes for
    /// messages arriving while their destination is still executing
    /// (see [`semper_sim::sched`] for the ordering contract).
    sched: PeSchedule<Msg>,
    nodes: Vec<Node>,
    /// Per-client (start, finish) times.
    client_times: BTreeMap<u32, (Cycles, Option<Cycles>)>,
    booted_os: bool,
    /// Reusable outbox for handler output (capacity persists across
    /// events; see [`Outbox::drain_iter`]).
    scratch: Outbox,
    /// Reusable outbox for credit-return traffic, kept separate so the
    /// injection order (credits first, handler output second) is
    /// preserved exactly.
    credit_scratch: Outbox,
    /// Message-level tracing to stderr (`MACHINE_TRACE=1`), cached at
    /// build time. A diagnostics aid for stalls: prints every event as
    /// it is dispatched and every handler emission as it is scheduled,
    /// so lost-versus-parked messages can be told apart.
    trace: bool,
}

impl Machine {
    /// Builds a machine: `cfg` hardware/OS shape, `clients`/`servers`/
    /// `loadgens` role counts, populated per `workload`.
    pub fn build(cfg: MachineConfig, clients: u32, loadgens: u16, workload: Workload) -> Machine {
        let nginx_depth = match &workload {
            Workload::Nginx { depth } => Some(*depth),
            _ => None,
        };
        let servers = if nginx_depth.is_some() { clients as u16 } else { 0 };
        let app_clients = if nginx_depth.is_some() { 0 } else { clients };
        let topo = Topology::build(&cfg, app_clients, servers, loadgens);
        let noc = Noc::new(Mesh::new(cfg.mesh_width), cfg.cost);

        // One kernel per group, each with its disjoint 1 TiB memory
        // partition, its VPEs registered in VPE order and the directory
        // installed.
        let mut kernels: BTreeMap<u16, Kernel> = (0..cfg.kernels)
            .map(|k| {
                let mem = GlobalMemory::new((u64::from(k) + 1) << 40, 1 << 40);
                let mut kernel =
                    Kernel::new(KernelId(k), cfg.clone(), topo.membership.clone(), mem);
                kernel.set_vpe_dir(topo.vpe_dir.clone());
                (k, kernel)
            })
            .collect();
        for (vpe_idx, pe) in topo.vpe_dir.iter().enumerate() {
            let k = topo.membership.kernel_of(*pe);
            kernels
                .get_mut(&k.0)
                .expect("every PE belongs to a kernel")
                .add_vpe(VpeId(vpe_idx as u16), *pe);
        }

        // The filesystem image shared by all service instances via `Arc`
        // (each instance clones its private copy lazily on first
        // metadata write — copy-on-write keeps the paper's
        // per-instance-copy semantics while machine build pays for one
        // image instead of one per service). Built lazily: micro-
        // benchmark machines host no services, and the image build
        // dominated their construction cost (the figure benches build
        // machines per measurement).
        let mut image_parts: Option<(std::sync::Arc<FsImage>, u64)> = None;

        let mut nodes: Vec<Node> = Vec::with_capacity(cfg.num_pes as usize);
        let mut trace_iter = match workload {
            Workload::Apps(traces) => {
                assert_eq!(traces.len() as u32, app_clients, "one trace per client");
                Some(traces.into_iter())
            }
            _ => None,
        };
        for pe in 0..cfg.num_pes {
            let pe = PeId(pe);
            let node = match topo.roles[pe.idx()] {
                Role::Kernel(k) => {
                    Node::Kernel(Box::new(kernels.remove(&k.0).expect("each kernel used once")))
                }
                Role::Service(s) => {
                    let vpe = topo.service_vpes[s as usize];
                    let kernel_pe = topo.membership.kernel_pe(topo.kernel_of(pe));
                    let (image, region_size) =
                        image_parts.get_or_insert_with(|| build_image(app_clients.max(clients)));
                    let mut svc = FsService::new(
                        vpe,
                        pe,
                        kernel_pe,
                        cfg.cost,
                        std::sync::Arc::clone(image),
                        *region_size,
                    );
                    // The service-side half of syscall batching: close
                    // one file = one batched revoke of its extents.
                    svc.set_batched_ops(cfg.has_feature(semper_base::Feature::SyscallBatching));
                    Node::Service(Box::new(svc))
                }
                Role::Client(c) => {
                    let vpe = topo.client_vpes[c as usize];
                    let kernel_pe = topo.membership.kernel_pe(topo.kernel_of(pe));
                    match &mut trace_iter {
                        Some(it) => {
                            let trace = it.next().expect("trace per client");
                            Node::Client(Box::new(AppClient::new(
                                vpe, pe, kernel_pe, cfg.cost, M3FS_NAME, trace,
                            )))
                        }
                        None => Node::Stub(StubVpe::default()),
                    }
                }
                Role::Server(s) => {
                    let vpe = topo.server_vpes[s as usize];
                    let kernel_pe = topo.membership.kernel_pe(topo.kernel_of(pe));
                    Node::Server(Box::new(NginxServer::new(
                        vpe, pe, kernel_pe, cfg.cost, M3FS_NAME,
                    )))
                }
                Role::LoadGen(l) => {
                    // Targets assigned at boot (round-robin share of the
                    // servers).
                    let _ = l;
                    Node::LoadGen(LoadGen::new(pe, Vec::new(), 0))
                }
                Role::Idle => Node::Idle,
            };
            nodes.push(node);
        }

        let sched = PeSchedule::new(cfg.num_pes as usize);
        let mut m = Machine {
            cfg,
            topo,
            noc,
            sched,
            nodes,
            client_times: BTreeMap::new(),
            booted_os: false,
            scratch: Outbox::new(),
            credit_scratch: Outbox::new(),
            trace: std::env::var_os("MACHINE_TRACE").is_some(),
        };
        if let Some(depth) = nginx_depth {
            m.assign_loadgen_targets(depth);
        }
        m
    }

    /// Assigns each load generator its round-robin share of the servers
    /// in place (no per-generator `Vec` churn; the generators reuse
    /// their target buffers).
    fn assign_loadgen_targets(&mut self, depth: u32) {
        let gens = std::mem::take(&mut self.topo.loadgen_pes);
        if gens.is_empty() {
            return;
        }
        for (i, pe) in gens.iter().enumerate() {
            let servers = &self.topo.server_pes;
            if let Node::LoadGen(lg) = &mut self.nodes[pe.idx()] {
                lg.set_targets(
                    servers
                        .iter()
                        .enumerate()
                        .filter(|(s, _)| s % gens.len() == i)
                        .map(|(_, p)| *p),
                    depth,
                );
            }
        }
        self.topo.loadgen_pes = gens;
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.sched.now()
    }

    /// Events processed so far, as the scheduler *counts* pops: one per
    /// delivery plus one per deferral hop of every stalled message (see
    /// [`PeSchedule::processed`]). The count is part of the determinism
    /// contract; the heap operations actually executed for it are
    /// [`Machine::heap_ops`].
    pub fn events(&self) -> u64 {
        self.sched.processed()
    }

    /// Messages handed to a handler so far: the part of
    /// [`Machine::events`] that was not a stall-lane deferral hop.
    pub fn deliveries(&self) -> u64 {
        self.sched.delivered()
    }

    /// Queue pushes plus pops the scheduler has executed. A host-side
    /// figure with no simulated effect.
    pub fn heap_ops(&self) -> u64 {
        self.sched.heap_ops()
    }

    // ----- event loop -----------------------------------------------------

    /// Injects messages into the NoC. Messages without an offset leave
    /// when the handler completes (`end`); messages with an offset leave
    /// that many cycles after the handler started (`start`) — the
    /// pipelined sends of loop-heavy handlers like the revocation
    /// fan-out.
    fn send_batch(&mut self, msgs: Vec<(Msg, Option<u64>)>, start: Cycles, end: Cycles) {
        for (m, off) in msgs {
            let at = match off {
                None => end,
                Some(o) => (start + o).min(end),
            };
            let delivery = self.noc.route(&m, at);
            let dst = m.dst.idx();
            self.sched.schedule(delivery, dst, m);
        }
    }

    /// Injects messages into the NoC at time `at`.
    fn send_at(&mut self, msgs: Vec<(Msg, Option<u64>)>, at: Cycles) {
        self.send_batch(msgs, at, at);
    }

    /// Processes one event; returns false when the queue is empty.
    ///
    /// Messages for a PE that is still executing park in that PE's
    /// stall lane inside [`PeSchedule`]; `pop_ready` hands back only
    /// messages whose PE is free at their delivery time, in the exact
    /// order the old requeue-retry loop produced.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None)
    }

    /// [`Machine::step`] with an optional delivery deadline: heap
    /// entries after `deadline` are not popped, so a stalled message
    /// whose PE frees beyond the deadline stays parked instead of
    /// running its handler early — exactly where the old retry loop
    /// stopped when its requeued entry landed past the deadline.
    fn step_bounded(&mut self, deadline: Option<Cycles>) -> bool {
        let popped = match deadline {
            None => self.sched.pop_ready(),
            Some(d) => self.sched.pop_ready_before(d),
        };
        let Some((t, pe, msg)) = popped else { return false };
        if self.trace {
            eprintln!("[{t}] {} -> {} (pe {pe}): {:?}", msg.src, msg.dst, msg.payload);
        }
        assert!(
            self.scratch.is_empty() && self.credit_scratch.is_empty(),
            "a handler's output outlived its event"
        );
        let cost = match &mut self.nodes[pe] {
            Node::Kernel(k) => k.handle(&msg, &mut self.scratch),
            Node::Service(s) => s.handle(&msg, &mut self.scratch),
            Node::Client(c) => c.handle(&msg, &mut self.scratch),
            Node::Server(s) => s.handle(&msg, &mut self.scratch),
            Node::LoadGen(l) => l.handle(&msg, &mut self.scratch),
            Node::Stub(stub) => handle_stub(stub, &msg, &mut self.scratch, t, &self.cfg.cost),
            Node::Idle => 0,
        };
        let end = t + cost;
        self.sched.set_busy(pe, end);
        // DTU slot tracking (§4.1): consuming an inter-kernel request
        // frees the slot, returning the sender's credit. This is a
        // hardware-level exchange, so it does not occupy the sender's
        // kernel CPU. Credit traffic is injected before the handler's
        // output, as it was when each used a throwaway outbox.
        if matches!(msg.payload, Payload::Kcall(_)) {
            let dst_kernel = self.topo.kernel_of(msg.dst);
            let src_pe = msg.src.idx();
            if let Node::Kernel(k) = &mut self.nodes[src_pe] {
                k.return_credit(&mut self.credit_scratch, dst_kernel);
            }
            for (m, _) in self.credit_scratch.drain_iter() {
                let delivery = self.noc.route(&m, t);
                let dst = m.dst.idx();
                self.sched.schedule(delivery, dst, m);
            }
        }
        // Record client completion.
        if let (Role::Client(c), Node::Client(client)) = (self.topo.roles[pe], &self.nodes[pe]) {
            match client.phase() {
                ClientPhase::Done => {
                    if let Some(entry) = self.client_times.get_mut(&c) {
                        entry.1.get_or_insert(end);
                    }
                }
                ClientPhase::Failed(e) => {
                    panic!("client {c} failed: {e}");
                }
                _ => {}
            }
        }
        for (m, off) in self.scratch.drain_iter() {
            let at = match off {
                None => end,
                Some(o) => (t + o).min(end),
            };
            let delivery = self.noc.route(&m, at);
            let dst = m.dst.idx();
            if self.trace {
                eprintln!(
                    "  [emit@{at} deliver@{delivery}] {} -> {}: {:?}",
                    m.src, m.dst, m.payload
                );
            }
            self.sched.schedule(delivery, dst, m);
        }
        true
    }

    /// Runs until no events remain; returns the final time.
    pub fn run_until_idle(&mut self) -> Cycles {
        while self.step() {}
        self.sched.now()
    }

    /// Runs until the next event would be after `deadline` (events at
    /// exactly `deadline` are processed; messages stalled behind a PE
    /// that only frees after the deadline are left parked).
    pub fn run_until(&mut self, deadline: Cycles) {
        while self.step_bounded(Some(deadline)) {}
    }

    /// Advances simulated time to (at least) `horizon` and returns the
    /// base for the caller's next wait: `max(horizon, now())`.
    ///
    /// `Machine::now()` only advances when an event is processed, so a
    /// wait loop that recomputes `run_until(now() + window)` livelocks
    /// as soon as the next event lies beyond the window — `now()` never
    /// moves, the horizon never reaches the event. Callers instead
    /// thread the *returned* horizon through consecutive waits:
    ///
    /// ```text
    /// let mut horizon = m.now();
    /// while !condition(&m) {
    ///     horizon = m.advance_until(horizon + WINDOW);
    /// }
    /// ```
    ///
    /// Each wait moves the absolute horizon forward by `WINDOW` even
    /// when no event lands inside it, so a future event is always
    /// reached after finitely many waits. A horizon in the past is a
    /// no-op that returns `now()` (the clamp that makes interleaving
    /// with unbounded runs such as `run_until_idle` safe). The repo
    /// benchmark's nginx workload serves its fixed request count in
    /// windows of this form.
    pub fn advance_until(&mut self, horizon: Cycles) -> Cycles {
        let horizon = horizon.max(self.sched.now());
        self.run_until(horizon);
        horizon.max(self.sched.now())
    }

    // ----- boot ------------------------------------------------------------

    /// Boots the OS services and waits for them to become ready.
    pub fn boot_os(&mut self) {
        assert!(!self.booted_os, "boot_os called twice");
        self.booted_os = true;
        let pes = self.topo.service_pes.clone();
        for (i, pe) in pes.iter().enumerate() {
            let at = self.sched.now() + (i as u64) * 200;
            let mut out = Outbox::new();
            let cost = match &mut self.nodes[pe.idx()] {
                Node::Service(s) => s.boot(&mut out),
                _ => unreachable!("service PE hosts a service"),
            };
            self.sched.extend_busy(pe.idx(), at + cost);
            self.send_at(out.drain(), at + cost);
        }
        self.run_until_idle();
        for pe in &self.topo.service_pes {
            if let Node::Service(s) = &self.nodes[pe.idx()] {
                assert!(s.ready(), "service on {pe} failed to boot");
            }
        }
    }

    /// Starts all application clients (staggered); returns the base
    /// start time.
    pub fn start_clients(&mut self) -> Cycles {
        assert!(self.booted_os, "boot_os first");
        let base = self.sched.now();
        let pes = self.topo.client_pes.clone();
        for (i, pe) in pes.iter().enumerate() {
            let at = base + (i as u64) * CLIENT_STAGGER;
            let mut out = Outbox::new();
            let cost = match &mut self.nodes[pe.idx()] {
                Node::Client(c) => c.boot(&mut out),
                Node::Stub(_) => continue,
                _ => unreachable!("client PE hosts a client"),
            };
            self.client_times.insert(i as u32, (at, None));
            self.sched.extend_busy(pe.idx(), at + cost);
            self.send_at(out.drain(), at + cost);
        }
        base
    }

    /// Boots the Nginx servers, waits for their sessions, then starts
    /// the load generators.
    pub fn start_nginx(&mut self) {
        assert!(self.booted_os, "boot_os first");
        let pes = self.topo.server_pes.clone();
        for (i, pe) in pes.iter().enumerate() {
            let at = self.sched.now() + (i as u64) * 200;
            let mut out = Outbox::new();
            let cost = match &mut self.nodes[pe.idx()] {
                Node::Server(s) => s.boot(&mut out),
                _ => unreachable!("server PE hosts a server"),
            };
            self.sched.extend_busy(pe.idx(), at + cost);
            self.send_at(out.drain(), at + cost);
        }
        self.run_until_idle();
        let gens = self.topo.loadgen_pes.clone();
        for pe in gens {
            let mut out = Outbox::new();
            if let Node::LoadGen(lg) = &mut self.nodes[pe.idx()] {
                lg.boot(&mut out);
            }
            let at = self.sched.now();
            self.send_at(out.drain(), at);
        }
    }

    // ----- direct syscall injection (microbenchmarks) ----------------------

    /// Issues a system call from a stub VPE and runs the machine until
    /// the reply arrives. Returns the reply and the round-trip time in
    /// cycles (issue to reply delivery) — the measurement of Table 3.
    pub fn syscall_blocking(
        &mut self,
        vpe: VpeId,
        call: semper_base::msg::Syscall,
    ) -> (SysReply, u64) {
        let pe = self.topo.vpe_dir[vpe.idx()];
        let kernel_pe = self.topo.membership.kernel_pe(self.topo.kernel_of(pe));
        match &mut self.nodes[pe.idx()] {
            Node::Stub(s) => s.last_reply = None,
            _ => panic!("syscall_blocking requires a stub VPE on {pe}"),
        }
        let start = self.sched.now().max(self.sched.busy_until(pe.idx()));
        let msg = Msg::new(pe, kernel_pe, Payload::sys(0, call));
        let delivery = self.noc.route(&msg, start);
        self.sched.schedule(delivery, kernel_pe.idx(), msg);
        loop {
            if let Node::Stub(s) = &mut self.nodes[pe.idx()] {
                if let Some((reply, at)) = s.last_reply.take() {
                    return (reply, (at - start).0);
                }
            }
            if !self.step() {
                panic!("queue drained without a syscall reply for {vpe}");
            }
        }
    }

    // ----- metrics ----------------------------------------------------------

    /// Per-client `(start, finish)` times; finish is `None` for clients
    /// still running.
    pub fn client_times(&self) -> &BTreeMap<u32, (Cycles, Option<Cycles>)> {
        &self.client_times
    }

    /// Statistics of every kernel, by kernel id.
    pub fn kernel_stats(&self) -> Vec<KernelStats> {
        let mut v = Vec::new();
        for pe in 0..self.cfg.num_pes {
            if let Node::Kernel(k) = &self.nodes[pe as usize] {
                v.push(*k.stats());
            }
        }
        v
    }

    /// Total requests completed by all load generators.
    pub fn loadgen_completed(&self) -> u64 {
        self.topo
            .loadgen_pes
            .iter()
            .map(|pe| match &self.nodes[pe.idx()] {
                Node::LoadGen(lg) => lg.completed(),
                _ => 0,
            })
            .sum()
    }

    /// Runs kernel invariant checks (tests).
    pub fn check_invariants(&self) {
        for pe in 0..self.cfg.num_pes {
            if let Node::Kernel(k) = &self.nodes[pe as usize] {
                k.check_invariants().unwrap_or_else(|e| panic!("kernel {}: {e}", k.id()));
            }
        }
    }

    /// Enables an optional protocol feature on every kernel — and, for
    /// syscall batching, on the services that are its actor-side half
    /// (ablation benchmarks).
    pub fn enable_feature_everywhere(&mut self, f: semper_base::Feature) {
        if !self.cfg.features.contains(&f) {
            self.cfg.features.push(f);
        }
        for node in &mut self.nodes {
            match node {
                Node::Kernel(k) => k.enable_feature_for_test(f),
                Node::Service(s) if f == semper_base::Feature::SyscallBatching => {
                    s.set_batched_ops(true)
                }
                _ => {}
            }
        }
    }

    /// Access to a kernel node by id (tests).
    pub fn kernel(&self, id: KernelId) -> &Kernel {
        let pe = self.topo.membership.kernel_pe(id);
        match &self.nodes[pe.idx()] {
            Node::Kernel(k) => k,
            _ => unreachable!("kernel PE hosts a kernel"),
        }
    }
}

fn handle_stub(
    stub: &mut StubVpe,
    msg: &Msg,
    out: &mut Outbox,
    t: Cycles,
    cost: &semper_base::CostModel,
) -> u64 {
    match &msg.payload {
        Payload::SysReply(r) => {
            stub.last_reply = Some((r.clone(), t));
            0
        }
        Payload::Upcall(Upcall::AcceptExchange { op, .. }) => {
            out.push(Msg::new(
                msg.dst,
                msg.src,
                Payload::upcall_reply(UpcallReply::AcceptExchange { op: *op, accept: true }),
            ));
            cost.upcall_work
        }
        Payload::Upcall(Upcall::SessionOpen { op, .. }) => {
            out.push(Msg::new(
                msg.dst,
                msg.src,
                Payload::upcall_reply(UpcallReply::SessionOpen { op: *op, result: Ok(1) }),
            ));
            cost.session_accept
        }
        other => panic!("stub got unexpected payload {other:?}"),
    }
}

/// Builds the benchmark filesystem image sized for `max_instances`
/// parallel instances (shared across instances via `Arc`).
fn build_image(max_instances: u32) -> (std::sync::Arc<FsImage>, u64) {
    let (dirs, files) = semper_apps::trace::required_image();
    let mut spec = FsSpec::empty();
    for d in dirs {
        spec = spec.dir(&d);
    }
    for (p, s) in files {
        spec = spec.file(&p, s);
    }
    // Headroom: runtime work files — generous 32 MiB per instance.
    let headroom = 64 * 1024 * 1024 + max_instances as u64 * 32 * 1024 * 1024;
    let region = spec.region_size(headroom);
    (std::sync::Arc::new(FsImage::build(&spec, region)), region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::msg::{Perms, SysReplyData, Syscall};

    fn micro(kernels: u16, vpes: u32) -> Machine {
        let mut cfg = MachineConfig::small();
        cfg.kernels = kernels;
        cfg.services = 0;
        cfg.num_pes = (kernels + kernels * 2).max(kernels + vpes as u16 + 2);
        cfg.mesh_width = semper_base::config::mesh_width_for(cfg.num_pes);
        Machine::build(cfg, vpes, 0, Workload::Micro)
    }

    #[test]
    fn micro_machine_noop_roundtrip() {
        let mut m = micro(1, 2);
        let (reply, cycles) = m.syscall_blocking(VpeId(0), Syscall::Noop);
        assert!(reply.result.is_ok());
        assert!(cycles > 0, "syscall must take time");
    }

    #[test]
    fn create_and_obtain_across_groups_timed() {
        let mut m = micro(2, 4);
        // Client 0 → group 0, client 1 → group 1 (round-robin).
        let (r, _) =
            m.syscall_blocking(VpeId(0), Syscall::CreateMem { size: 4096, perms: Perms::RW });
        let Ok(SysReplyData::Mem { sel, .. }) = r.result else { panic!("{r:?}") };
        let (r, spanning_cycles) = m.syscall_blocking(
            VpeId(1),
            Syscall::Exchange {
                other: VpeId(0),
                own_sel: semper_base::CapSel::INVALID,
                other_sel: sel,
                kind: semper_base::ExchangeKind::Obtain,
            },
        );
        assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{r:?}");
        // Local obtain for comparison: client 2 is in group 0 with 0.
        let (r, local_cycles) = m.syscall_blocking(
            VpeId(2),
            Syscall::Exchange {
                other: VpeId(0),
                own_sel: semper_base::CapSel::INVALID,
                other_sel: sel,
                kind: semper_base::ExchangeKind::Obtain,
            },
        );
        assert!(r.result.is_ok(), "{r:?}");
        assert!(
            spanning_cycles > local_cycles,
            "spanning {spanning_cycles} should exceed local {local_cycles}"
        );
        m.check_invariants();
    }

    /// The livelock regression: a naive wait loop that recomputes
    /// `run_until(now() + window)` never advances once the queue is
    /// quiet, because `now()` only moves when an event is processed.
    /// `advance_until` must keep moving the returned base horizon by the
    /// full window even across an empty queue, and must clamp a horizon
    /// that an interleaved unbounded run left in the past.
    #[test]
    fn advance_until_moves_the_horizon_without_events() {
        let mut m = micro(1, 2);
        let (_, _) = m.syscall_blocking(VpeId(0), Syscall::Noop);
        let t0 = m.now();
        assert!(t0 > Cycles(0));
        // Horizon in the past: terminates, returns now().
        assert_eq!(m.advance_until(Cycles(0)), t0);
        // Empty queue: each wait still advances the base by the window,
        // so a bounded number of waits crosses any future event time.
        let mut horizon = m.now();
        for i in 1..=8u64 {
            horizon = m.advance_until(horizon + 500);
            assert_eq!(horizon, t0 + i * 500, "wait {i} must move the horizon");
        }
    }
}
