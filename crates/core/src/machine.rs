//! The timed machine: event loop, busy-time modeling, boot sequencing.
//!
//! Every PE hosts one [`Node`]. Messages pop (by handle; each is stored
//! once while in flight) from the deterministic event queue in delivery
//! order; a node that is still executing a previous handler delays
//! delivery until it is free — this per-PE serialization is what makes
//! kernels the contention points whose behaviour the paper measures
//! (parallel efficiency drops as more instances share a kernel).
//!
//! The kernels, the stub VPEs, the kernel delivery step (credit return
//! included) and the intake rule every message passes before the NoC
//! are [`semper_kernel::host`]'s, shared with the untimed `TestCluster`;
//! the NoC and the per-PE schedule are the machine's own.

use std::collections::BTreeMap;

use semper_apps::client::ClientPhase;
use semper_apps::{AppClient, LoadGen, NginxServer, Trace};
use semper_base::msg::{Outbox, Payload, SysReply, Syscall};
use semper_base::{KernelId, MachineConfig, Msg, PeId, VpeId};
use semper_kernel::host::{self, Channels, StubVpe};
use semper_kernel::{Kernel, KernelStats};
use semper_m3fs::{FsImage, FsService, FsSpec, M3FS_NAME};
use semper_noc::{GlobalMemory, Mesh, Noc};
use semper_sim::{Cycles, PeSchedule, Slab};

use crate::topology::{Role, Topology};

/// What runs on one PE.
pub enum Node {
    /// A kernel instance (an index into the machine's kernels).
    Kernel(KernelId),
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

/// What carries messages between PEs: channels, NoC, the messages in
/// flight and the event schedule.
///
/// A message is stored once, in `msgs`, from its injection until its
/// handler returns; the schedule, its queue and its stall lanes order
/// only the message's `u32` handle, and the handler reads the message
/// in its slot, as a DTU's receiver reads a message in its receive
/// buffer (§2.2). Each message names its channel's route record in the
/// NoC by the index the intake rule gives it, so routing probes no map
/// for kernel traffic.
struct Net {
    channels: Channels,
    noc: Noc,
    /// The messages in flight, each from its injection to the return of
    /// its handler; a slot is `None` only while it is free.
    msgs: Slab<Option<Msg>>,
    /// The stall-lane event schedule of message handles: global queue
    /// plus per-PE lanes for messages arriving while their destination
    /// is still executing (see [`semper_sim::sched`] for the ordering
    /// contract).
    sched: PeSchedule<u32>,
}

impl Net {
    /// Injects what the intake rule ([`Channels::admit`]) admits of
    /// `out`'s messages into the NoC. Messages without an offset leave
    /// when the handler completes (`end`); messages with an offset leave
    /// that many cycles after the handler started (`start`) — the
    /// pipelined sends of loop-heavy handlers like the revocation fan-out.
    fn inject(&mut self, out: &mut Outbox, start: Cycles, end: Cycles) {
        for (mut m, off) in out.drain_iter() {
            let Some(ch) = self.channels.admit(&mut m) else {
                continue;
            };
            let at = match off {
                None => end,
                Some(o) => (start + o).min(end),
            };
            let delivery = self.noc.send(ch, &m, at);
            let dst = m.dst.idx();
            self.sched.schedule(delivery, dst, self.msgs.insert(Some(m)));
        }
    }

    /// Drops the delivered message `h` and frees its slot.
    fn retire(&mut self, h: u32) {
        self.msgs[h] = None;
        self.msgs.release(h);
    }
}

/// The assembled machine.
pub struct Machine {
    cfg: MachineConfig,
    topo: Topology,
    net: Net,
    nodes: Vec<Node>,
    /// The kernels, indexed by kernel id.
    kernels: Vec<Kernel>,
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
        // partition.
        let kernels = host::kernels(&cfg, &topo.membership, &topo.vpe_dir, |k| {
            GlobalMemory::new((u64::from(k.0) + 1) << 40, 1 << 40)
        });

        // The filesystem image shared by all service instances via `Arc`
        // (each instance clones its private copy lazily on first
        // metadata write — copy-on-write keeps the paper's
        // per-instance-copy semantics while machine build pays for one
        // image instead of one per service). Built lazily: micro-
        // benchmark machines host no services, and the image build
        // dominated their construction cost (the figure benches build
        // machines per measurement).
        let mut image_parts: Option<(std::sync::Arc<FsImage>, u64)> = None;

        let mut channels = Channels::new(topo.membership.clone());
        let mut trace_iter = match workload {
            Workload::Apps(traces) => {
                assert_eq!(traces.len() as u32, app_clients, "one trace per client");
                Some(traces.into_iter())
            }
            _ => None,
        };
        let nodes = (0..cfg.num_pes).map(PeId).map(|pe| {
            let kernel_pe = topo.membership.kernel_pe(topo.kernel_of(pe));
            match topo.roles[pe.idx()] {
                Role::Kernel(k) => Node::Kernel(k),
                Role::Service(s) => {
                    let vpe = topo.service_vpes[s as usize];
                    let (image, region_size) =
                        image_parts.get_or_insert_with(|| build_image(app_clients.max(clients)));
                    Node::Service(Box::new(FsService::new(
                        vpe,
                        pe,
                        kernel_pe,
                        cfg.cost,
                        std::sync::Arc::clone(image),
                        *region_size,
                    )))
                }
                Role::Client(c) => {
                    let vpe = topo.client_vpes[c as usize];
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
                    Node::Server(Box::new(NginxServer::new(
                        vpe, pe, kernel_pe, cfg.cost, M3FS_NAME,
                    )))
                }
                // A round-robin share of the servers, the i-th answering on label i.
                Role::LoadGen(l) => {
                    let share = topo.server_pes.iter().enumerate();
                    let gens = topo.loadgen_pes.len();
                    let servers: Vec<PeId> =
                        share.filter(|(s, _)| s % gens == l as usize).map(|(_, p)| *p).collect();
                    servers.iter().zip(0..).for_each(|(&s, i)| channels.open(s, pe, i));
                    Node::LoadGen(LoadGen::new(pe, servers, nginx_depth.unwrap_or(0)))
                }
                Role::Idle => Node::Idle,
            }
        });
        Machine {
            nodes: nodes.collect(),
            net: Net {
                channels,
                noc,
                msgs: Slab::new(),
                sched: PeSchedule::new(cfg.num_pes as usize),
            },
            cfg,
            topo,
            kernels,
            client_times: BTreeMap::new(),
            booted_os: false,
            scratch: Outbox::new(),
            credit_scratch: Outbox::new(),
        }
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
        self.net.sched.now()
    }

    /// Events processed so far, as the scheduler *counts* pops: one per
    /// delivery plus one per deferral hop of every stalled message (see
    /// [`PeSchedule::processed`]). The count is part of the determinism
    /// contract; the heap operations actually executed for it are
    /// [`Machine::heap_ops`].
    pub fn events(&self) -> u64 {
        self.net.sched.processed()
    }

    /// Messages handed to a handler so far: the part of
    /// [`Machine::events`] that was not a stall-lane deferral hop.
    pub fn deliveries(&self) -> u64 {
        self.net.sched.delivered()
    }

    /// Queue pushes plus pops the scheduler has executed. A host-side
    /// figure with no simulated effect.
    pub fn heap_ops(&self) -> u64 {
        self.net.sched.heap_ops()
    }

    // ----- event loop -----------------------------------------------------

    /// Processes one event; returns false when the queue is empty.
    ///
    /// Messages for a PE that is still executing park in that PE's
    /// stall lane inside [`PeSchedule`]; `pop_ready` hands back only
    /// messages whose PE is free at their delivery time, in the exact
    /// order the old requeue-retry loop produced.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None).is_some()
    }

    /// [`Machine::step`] with an optional delivery deadline: heap
    /// entries after `deadline` are not popped, so a stalled message
    /// whose PE frees beyond the deadline stays parked instead of
    /// running its handler early — exactly where the old retry loop
    /// stopped when its requeued entry landed past the deadline.
    /// Returns the processed message's delivery time.
    fn step_bounded(&mut self, deadline: Option<Cycles>) -> Option<Cycles> {
        let (t, pe, h) = match deadline {
            None => self.net.sched.pop_ready(),
            Some(d) => self.net.sched.pop_ready_before(d),
        }?;
        let msg = self.net.msgs[h].as_ref().expect("a scheduled handle names a message in flight");
        let out = &mut self.scratch;
        let cost = match &mut self.nodes[pe] {
            Node::Kernel(_) => {
                let credits = &mut self.credit_scratch;
                host::deliver(&mut self.kernels, &self.topo.membership, msg, out, credits)
                    .expect("the timed machine arms no crash points")
            }
            Node::Service(s) => s.handle(msg, out),
            Node::Client(c) => c.handle(msg, out),
            Node::Server(s) => s.handle(msg, out),
            Node::LoadGen(l) => l.handle(msg, out),
            Node::Stub(stub) => stub.handle(msg, out, &self.cfg.cost),
            Node::Idle => 0,
        };
        self.net.retire(h);
        // A consumed request's credit returns at its delivery, in the
        // DTU, ahead of the handler's output.
        if !self.credit_scratch.is_empty() {
            self.net.inject(&mut self.credit_scratch, t, t);
        }
        let end = t + cost;
        self.net.sched.set_busy(pe, end);
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
        self.net.inject(&mut self.scratch, t, end);
        Some(t)
    }

    /// Runs until no events remain; returns the final time.
    pub fn run_until_idle(&mut self) -> Cycles {
        while self.step() {}
        self.net.sched.now()
    }

    /// Runs until the next event would be after `deadline` (events at
    /// exactly `deadline` are processed; messages stalled behind a PE
    /// that only frees after the deadline are left parked).
    pub fn run_until(&mut self, deadline: Cycles) {
        while self.step_bounded(Some(deadline)).is_some() {}
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
        let horizon = horizon.max(self.net.sched.now());
        self.run_until(horizon);
        horizon.max(self.net.sched.now())
    }

    // ----- boot ------------------------------------------------------------

    /// Boots the actors on `pes`, the i-th `spacing · i` cycles from now:
    /// each is busy for its boot cost, then its first messages leave.
    fn boot_staggered(&mut self, pes: &[PeId], spacing: u64) {
        let base = self.net.sched.now();
        for (i, pe) in pes.iter().enumerate() {
            let at = base + (i as u64) * spacing;
            let cost = match &mut self.nodes[pe.idx()] {
                Node::Service(s) => s.boot(&mut self.scratch),
                Node::Client(c) => c.boot(&mut self.scratch),
                Node::Server(s) => s.boot(&mut self.scratch),
                Node::LoadGen(l) => l.boot(&mut self.scratch),
                Node::Stub(_) => continue,
                Node::Kernel(_) | Node::Idle => unreachable!("nothing to boot on {pe}"),
            };
            if let Role::Client(c) = self.topo.roles[pe.idx()] {
                self.client_times.insert(c, (at, None));
            }
            self.net.sched.extend_busy(pe.idx(), at + cost);
            self.net.inject(&mut self.scratch, at + cost, at + cost);
        }
    }

    /// Boots the OS services and waits for them to become ready.
    pub fn boot_os(&mut self) {
        assert!(!self.booted_os, "boot_os called twice");
        self.booted_os = true;
        let pes = self.topo.service_pes.clone();
        self.boot_staggered(&pes, 200);
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
        let base = self.net.sched.now();
        let pes = self.topo.client_pes.clone();
        self.boot_staggered(&pes, CLIENT_STAGGER);
        base
    }

    /// Boots the Nginx servers, waits for their sessions, then starts
    /// the load generators.
    pub fn start_nginx(&mut self) {
        assert!(self.booted_os, "boot_os first");
        let pes = self.topo.server_pes.clone();
        self.boot_staggered(&pes, 200);
        self.run_until_idle();
        let gens = self.topo.loadgen_pes.clone();
        self.boot_staggered(&gens, 0);
    }

    // ----- direct syscall injection (microbenchmarks) ----------------------

    /// Issues a system call from a stub VPE and runs the machine until
    /// the reply arrives. Returns the reply and the round-trip time in
    /// cycles (issue to reply delivery) — the measurement of Table 3.
    pub fn syscall_blocking(&mut self, vpe: VpeId, call: Syscall) -> (SysReply, u64) {
        let pe = self.topo.vpe_dir[vpe.idx()];
        let kernel_pe = self.topo.membership.kernel_pe(self.topo.kernel_of(pe));
        assert!(
            matches!(self.nodes[pe.idx()], Node::Stub(_)),
            "syscall_blocking requires a stub VPE on {pe}"
        );
        let start = self.net.sched.now().max(self.net.sched.busy_until(pe.idx()));
        self.send(Msg::new(pe, kernel_pe, Payload::sys(0, call)), start);
        loop {
            let Some(t) = self.step_bounded(None) else {
                panic!("queue drained without a syscall reply for {vpe}");
            };
            if let Node::Stub(s) = &mut self.nodes[pe.idx()] {
                if let Some(reply) = s.take_reply(0) {
                    return (reply, (t - start).0);
                }
            }
        }
    }

    /// Sends `msg` from its source PE at `at`: through the intake rule into the NoC.
    pub fn send(&mut self, msg: Msg, at: Cycles) {
        self.scratch.push(msg);
        self.net.inject(&mut self.scratch, at, at);
    }

    // ----- metrics ----------------------------------------------------------

    /// Sends the intake rule refused so far ([`Channels::admit`]).
    pub fn refused_sends(&self) -> u64 {
        self.net.channels.refused
    }

    /// Per-client `(start, finish)` times; finish is `None` for clients
    /// still running.
    pub fn client_times(&self) -> &BTreeMap<u32, (Cycles, Option<Cycles>)> {
        &self.client_times
    }

    /// Statistics of every kernel, by kernel id.
    pub fn kernel_stats(&self) -> Vec<KernelStats> {
        self.kernels.iter().map(|k| *k.stats()).collect()
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

    /// Runs kernel invariant checks, and with no event pending the links
    /// between kernels ([`host::check_invariants`]) and that no message
    /// is left in flight.
    pub fn check_invariants(&self) {
        let idle = self.net.sched.is_empty();
        assert!(!idle || self.net.msgs.live() == 0, "a message outlived its delivery");
        host::check_invariants(&self.kernels, idle).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Enables an optional protocol feature on every kernel (ablation
    /// benchmarks).
    pub fn enable_feature_everywhere(&mut self, f: semper_base::Feature) {
        if !self.cfg.features.contains(&f) {
            self.cfg.features.push(f);
        }
        for k in &mut self.kernels {
            k.enable_feature_for_test(f);
        }
    }

    /// Access to a kernel by id (tests).
    pub fn kernel(&self, id: KernelId) -> &Kernel {
        &self.kernels[id.idx()]
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
    use crate::MicroMachine;
    use semper_base::KernelMode;

    fn micro(kernels: u16, vpes_per_group: u16) -> MicroMachine {
        MicroMachine::new(kernels, vpes_per_group, KernelMode::SemperOS)
    }

    #[test]
    fn micro_machine_noop_roundtrip() {
        let (reply, cycles) = micro(1, 2).machine().syscall_blocking(VpeId(0), Syscall::Noop);
        assert!(reply.result.is_ok());
        assert!(cycles > 0, "syscall must take time");
    }

    #[test]
    fn create_and_obtain_across_groups_timed() {
        let mut m = micro(2, 2);
        let (owner, remote, local) = (m.vpe(0, 0), m.vpe(1, 0), m.vpe(0, 1));
        let sel = m.create_mem(owner);
        let (_, spanning_cycles) = m.obtain(remote, owner, sel);
        let (_, local_cycles) = m.obtain(local, owner, sel);
        assert!(
            spanning_cycles > local_cycles,
            "spanning {spanning_cycles} should exceed local {local_cycles}"
        );
        m.machine().check_invariants();
    }

    /// The livelock regression: a naive wait loop that recomputes
    /// `run_until(now() + window)` never advances once the queue is
    /// quiet, because `now()` only moves when an event is processed.
    /// `advance_until` must keep moving the returned base horizon by the
    /// full window even across an empty queue, and must clamp a horizon
    /// that an interleaved unbounded run left in the past.
    #[test]
    fn advance_until_moves_the_horizon_without_events() {
        let mut mm = micro(1, 2);
        let m = mm.machine();
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
