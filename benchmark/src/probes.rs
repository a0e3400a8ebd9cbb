//! Layer probes: each layer's cost timed from outside, by calling the
//! layer's public functions on inputs shaped like the workload — its PE
//! count, its (source, destination) pairs, its tree shapes, its
//! operation sequence. Spans inside `Machine::step` are a later issue;
//! until then the host-time shares below are estimates by substitution
//! (isolated unit cost × the run's count ÷ the run's time).

use std::time::Instant;

use semper_apps::trace::{nginx_request, required_image};
use semper_apps::AppKind;
use semper_base::msg::{CapKindDesc, Payload, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, CapType, CostModel, KernelMode, MachineConfig};
use semper_base::{DdlKey, Msg, PeId, VpeId};
use semper_caps::{CapTable, Capability, KeyAllocator, MappingDb};
use semper_kernel::harness::TestCluster;
use semper_m3fs::{FsImage, FsSpec};
use semper_noc::{Mesh, Noc};
use semper_sim::{Cycles, EventQueue, PeSchedule};
use semperos::machine::Workload as Population;
use semperos::{Machine, MicroMachine, Topology};

use crate::inputs::{self, EdgeKind, ForestInput, MICRO_KERNELS, MICRO_VPES_PER_GROUP};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{self, Counters, Outcome, Workload};

/// Host seconds one timed probe may take.
const PROBE_BUDGET_S: f64 = 0.25;

/// Runs `batch` — which returns (operations done, seconds they took) —
/// until the probe budget is used, at least five times; the median
/// nanoseconds per operation.
fn ns_per_op(rec: &mut Recorder, name: &'static str, mut batch: impl FnMut() -> (u64, f64)) -> f64 {
    let open = rec.begin(name);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed().as_secs_f64() < PROBE_BUDGET_S {
        let (ops, secs) = batch();
        samples.push(secs * 1e9 / ops.max(1) as f64);
    }
    rec.end(open);
    median(&samples)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// What the `sim` and `noc` probes need to know about a workload.
struct Shape {
    pes: usize,
    mesh_width: u16,
    kernels: u16,
    /// The (source, destination) channels the workload's messages use.
    pairs: Vec<(PeId, PeId)>,
    /// PEs that serialize many senders (kernels and services).
    shared: Vec<bool>,
    /// Messages in flight: the closed loop's concurrency (for
    /// `revoke_teardown`, the mean fan-out of one tree's revoke).
    depth: usize,
}

fn shape_of(w: Workload) -> Shape {
    let both = |pairs: &mut Vec<(PeId, PeId)>, a: PeId, b: PeId| {
        pairs.push((a, b));
        pairs.push((b, a));
    };
    let (cfg, topo, depth) = match w {
        Workload::AppsMix512 => {
            let cfg = Workload::apps_config();
            let topo = Topology::build(&cfg, inputs::APPS_INSTANCES, 0, 0);
            (cfg, topo, inputs::APPS_INSTANCES as usize)
        }
        Workload::Nginx256 => {
            let cfg = Workload::nginx_config();
            let topo =
                Topology::build(&cfg, 0, workloads::NGINX_SERVERS, workloads::NGINX_LOADGENS);
            (cfg, topo, workloads::NGINX_SERVERS as usize * workloads::NGINX_DEPTH as usize)
        }
        Workload::ExchangeChurn | Workload::RevokeTeardown => {
            let mut mm =
                MicroMachine::new(MICRO_KERNELS, MICRO_VPES_PER_GROUP, KernelMode::SemperOS);
            let m = mm.machine();
            let depth = if w == Workload::ExchangeChurn { 1 } else { 600 };
            (m.cfg().clone(), m.topo().clone(), depth)
        }
    };
    let kernel_pe = |pe: PeId| topo.membership.kernel_pe(topo.kernel_of(pe));
    // A VPE talks to its group's kernel and to the m3fs instance of its
    // group (the kernel's own choice when every group has one).
    let service_of = |pe: PeId, i: usize| {
        topo.service_pes
            .iter()
            .copied()
            .find(|s| topo.kernel_of(*s) == topo.kernel_of(pe))
            .unwrap_or(topo.service_pes[i % topo.service_pes.len()])
    };
    let mut pairs = Vec::new();
    for (i, pe) in topo.client_pes.iter().chain(&topo.server_pes).enumerate() {
        both(&mut pairs, *pe, kernel_pe(*pe));
        if !topo.service_pes.is_empty() {
            both(&mut pairs, *pe, service_of(*pe, i));
        }
    }
    for s in &topo.service_pes {
        both(&mut pairs, *s, kernel_pe(*s));
    }
    for (i, srv) in topo.server_pes.iter().enumerate() {
        both(&mut pairs, topo.loadgen_pes[i % topo.loadgen_pes.len()], *srv);
    }
    if topo.service_pes.is_empty() {
        // The capability workloads: half of all exchanges cross kernels.
        for a in 0..cfg.kernels {
            for b in 0..cfg.kernels {
                if a != b {
                    let pe = |k| topo.membership.kernel_pe(semper_base::KernelId(k));
                    pairs.push((pe(a), pe(b)));
                }
            }
        }
    }
    let mut shared = vec![false; cfg.num_pes as usize];
    for k in 0..cfg.kernels {
        shared[topo.membership.kernel_pe(semper_base::KernelId(k)).idx()] = true;
    }
    for s in &topo.service_pes {
        shared[s.idx()] = true;
    }
    Shape {
        pes: cfg.num_pes as usize,
        mesh_width: cfg.mesh_width,
        kernels: cfg.kernels,
        pairs,
        shared,
        depth,
    }
}

fn noop(src: PeId, dst: PeId) -> Msg {
    Msg::new(src, dst, Payload::sys(0, Syscall::Noop))
}

// ----- sim -------------------------------------------------------------------

/// `EventQueue::schedule` + `pop` with `depth` entries pending.
fn queue_ns_per_event(rec: &mut Recorder, shape: &Shape) -> f64 {
    let mut q: EventQueue<Msg> = EventQueue::new();
    for i in 0..shape.depth {
        let (src, dst) = shape.pairs[i % shape.pairs.len()];
        q.schedule_in(100 + (i as u64 * 37) % 4000, noop(src, dst));
    }
    ns_per_op(rec, "sim.queue_probe", || {
        const N: u64 = 200_000;
        let ((), secs) = timed(|| {
            for i in 0..N {
                let (_, msg) = q.pop().expect("the queue never drains");
                q.schedule_in(500 + (i * 61) % 4000, std::hint::black_box(msg));
            }
        });
        (N, secs)
    })
}

/// A synthetic closed loop on `PeSchedule`: `depth` messages circulate
/// over the workload's channels between its PEs; kernels and services
/// serialize their senders, so deliveries stall and wake as they do in
/// the machine. Cost per processed pop, the unit `Machine::events` counts.
fn sched_ns_per_event(rec: &mut Recorder, shape: &Shape) -> f64 {
    let mut next_of: Vec<Vec<PeId>> = vec![Vec::new(); shape.pes];
    for (src, dst) in &shape.pairs {
        next_of[src.idx()].push(*dst);
    }
    let mut sched: PeSchedule<Msg> = PeSchedule::new(shape.pes);
    for i in 0..shape.depth {
        let (src, dst) = shape.pairs[(i * 7) % shape.pairs.len()];
        sched.schedule(Cycles(100 + i as u64 * 40), dst.idx(), noop(src, dst));
    }
    let mut turn = 0usize;
    ns_per_op(rec, "sim.sched_probe", || {
        let before = sched.processed();
        let ((), secs) = timed(|| {
            for _ in 0..100_000 {
                let (t, pe, mut msg) = sched.pop_ready().expect("the loop never drains");
                // Shared PEs run a handler per message; the others think.
                let end = t + if shape.shared[pe] { 1_500 } else { 6_000 };
                sched.set_busy(pe, end);
                let here = msg.dst;
                turn += 1;
                msg.src = here;
                msg.dst = next_of[pe][turn % next_of[pe].len()];
                sched.schedule(end + 60, msg.dst.idx(), std::hint::black_box(msg));
            }
        });
        (sched.processed() - before, secs)
    })
}

// ----- noc -------------------------------------------------------------------

struct NocProbe {
    route_ns: f64,
    mean_hops: f64,
    wire_cycles_per_msg: f64,
}

fn noc_probe(rec: &mut Recorder, shape: &Shape) -> NocProbe {
    let cost = CostModel::calibrated();
    let msgs: Vec<Msg> = shape.pairs.iter().map(|(s, d)| noop(*s, *d)).collect();
    let mut noc = Noc::new(Mesh::new(shape.mesh_width), cost);
    let mut now = 0u64;
    let route_ns = ns_per_op(rec, "noc.route_probe", || {
        let ((), secs) = timed(|| {
            for msg in &msgs {
                now += 50;
                std::hint::black_box(noc.route(msg, Cycles(now)));
            }
        });
        (msgs.len() as u64, secs)
    });
    // An idle NoC: injections far apart, so no FIFO floor applies and
    // the delta is DTU send + wire + DTU receive.
    let mut idle = Noc::new(Mesh::new(shape.mesh_width), cost);
    let mut wire = 0u64;
    let mut hops = 0u64;
    for (i, msg) in msgs.iter().enumerate() {
        let at = Cycles(i as u64 * 1_000_000);
        wire += (idle.route(msg, at) - at).0;
        hops += idle.mesh().hops(msg.src, msg.dst);
    }
    NocProbe {
        route_ns,
        mean_hops: hops as f64 / msgs.len() as f64,
        wire_cycles_per_msg: wire as f64 / msgs.len() as f64,
    }
}

// ----- caps ------------------------------------------------------------------

struct CapsProbe {
    insert_ns: f64,
    delete_ns: f64,
    lookup_ns: f64,
}

/// The capability trees the workload leaves in the mapping databases.
fn caps_shape(w: Workload, seed: u64) -> ForestInput {
    match w {
        Workload::AppsMix512 | Workload::Nginx256 => inputs::gen_extent_trees(seed),
        Workload::RevokeTeardown => inputs::gen_forest(seed),
        Workload::ExchangeChurn => {
            let mut input = inputs::gen_exchange(seed);
            input.trees.truncate(60);
            input
        }
    }
}

/// One mapping database with one table per VPE (the machine spreads the
/// capabilities over its kernels; the per-capability work is the same).
struct CapsWorld {
    db: MappingDb,
    tables: Vec<CapTable>,
    alloc: KeyAllocator,
}

impl CapsWorld {
    fn new() -> CapsWorld {
        let vpes = (MICRO_KERNELS * MICRO_VPES_PER_GROUP) as usize;
        CapsWorld {
            db: MappingDb::new(),
            tables: (0..vpes).map(|_| CapTable::new(2)).collect(),
            alloc: KeyAllocator::new(),
        }
    }

    /// Inserts the trees; appends each root's key to `roots` and every
    /// capability's (VPE, selector) to `held`.
    fn insert(
        &mut self,
        trees: &[inputs::TreeSpec],
        roots: &mut Vec<DdlKey>,
        held: &mut Vec<(u16, CapSel)>,
    ) {
        let kind = CapKindDesc::Memory { addr: 0, size: 4096, perms: Perms::RW };
        let mut keys = Vec::new();
        for tree in trees {
            keys.clear();
            let owner = tree.root_owner;
            let key = self.alloc.alloc(PeId(owner), VpeId(owner), CapType::Memory);
            let sel = self.tables[owner as usize].insert_new(key);
            self.db.insert(Capability::root(key, kind, VpeId(owner), sel));
            roots.push(key);
            keys.push(key);
            held.push((owner, sel));
            for e in &tree.edges {
                let parent = keys[e.parent as usize];
                let key = self.alloc.alloc(PeId(e.to), VpeId(e.to), CapType::Memory);
                let sel = self.tables[e.to as usize].insert_new(key);
                self.db.insert(Capability::child(key, kind, VpeId(e.to), sel, parent));
                self.db.link_child(parent, key).expect("the parent was just inserted");
                keys.push(key);
                held.push((e.to, sel));
            }
        }
    }

    fn delete(&mut self, roots: &[DdlKey]) {
        let mut stack = Vec::new();
        let mut deleted = Vec::new();
        for root in roots {
            self.db.delete_local_subtree_into(*root, &mut stack, &mut deleted);
            for cap in deleted.drain(..) {
                self.tables[cap.owner.idx()].remove_key(cap.key);
            }
        }
    }
}

/// Inserts and deletes the workload's trees, `resident` capabilities at
/// a time: everything at once for the capability workloads (grow, then
/// tear down), the run's peak for the application workloads, whose
/// databases stay small while files open and close.
fn caps_probe(rec: &mut Recorder, w: Workload, seed: u64, resident: u64) -> CapsProbe {
    let trees = caps_shape(w, seed);
    let caps = trees.caps() as u64;
    let per_tree = caps / trees.trees.len() as u64;
    let chunk = ((resident / per_tree).max(1) as usize).min(trees.trees.len());

    let mut insert_samples = Vec::new();
    let mut delete_samples = Vec::new();
    let mut lookup_samples = Vec::new();
    let (mut roots, mut held) = (Vec::new(), Vec::new());
    let open = rec.begin("caps.probe");
    let started = Instant::now();
    while insert_samples.len() < 5 || started.elapsed().as_secs_f64() < 3.0 * PROBE_BUDGET_S {
        let mut world = CapsWorld::new();
        let (mut insert_s, mut delete_s, mut lookup_s) = (0.0, 0.0, 0.0);
        let mut cursor = 0usize;
        for part in trees.trees.chunks(chunk) {
            roots.clear();
            held.clear();
            insert_s += timed(|| world.insert(part, &mut roots, &mut held)).1;
            lookup_s += timed(|| {
                for _ in 0..held.len() {
                    cursor = (cursor + 7919) % held.len();
                    let (vpe, sel) = held[cursor];
                    let key = world.tables[vpe as usize].get(sel).expect("the selector is live");
                    std::hint::black_box(world.db.get(key).expect("the key is live"));
                }
            })
            .1;
            delete_s += timed(|| world.delete(&roots)).1;
        }
        assert!(world.db.is_empty(), "the caps probe must empty the database");
        insert_samples.push(insert_s * 1e9 / caps as f64);
        lookup_samples.push(lookup_s * 1e9 / caps as f64);
        delete_samples.push(delete_s * 1e9 / caps as f64);
    }
    rec.end(open);
    CapsProbe {
        insert_ns: median(&insert_samples),
        delete_ns: median(&delete_samples),
        lookup_ns: median(&lookup_samples),
    }
}

// ----- kernel ----------------------------------------------------------------

/// `MicroMachine` numbers VPE `(group g, slot j)` as `g + j * kernels`,
/// `TestCluster` as `g * vpes_per_group + j`.
fn cluster_vpe(v: u16) -> VpeId {
    VpeId((v % MICRO_KERNELS) * MICRO_VPES_PER_GROUP + v / MICRO_KERNELS)
}

fn cluster_create(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    match c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW }).result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("kernel probe: create_mem failed: {other:?}"),
    }
}

fn cluster_exchange(
    c: &mut TestCluster,
    holder: (VpeId, CapSel),
    to: VpeId,
    kind: EdgeKind,
) -> CapSel {
    let (caller, call) = workloads::exchange_call(holder, to, kind);
    workloads::exchanged_sel(c.syscall(caller, call))
        .unwrap_or_else(|e| panic!("kernel probe: exchange failed: {e}"))
}

/// Grows the trees on the cluster; returns each root's (VPE, selector)
/// and the number of system calls made.
fn cluster_grow(c: &mut TestCluster, trees: &[inputs::TreeSpec]) -> (Vec<(VpeId, CapSel)>, u64) {
    let mut roots = Vec::new();
    let mut calls = 0;
    let mut caps = Vec::new();
    for tree in trees {
        caps.clear();
        let owner = cluster_vpe(tree.root_owner);
        let root = cluster_create(c, owner);
        roots.push((owner, root));
        caps.push((owner, root));
        for e in &tree.edges {
            let to = cluster_vpe(e.to);
            let sel = cluster_exchange(c, caps[e.parent as usize], to, e.kind);
            caps.push((to, sel));
        }
        calls += 1 + tree.edges.len() as u64;
    }
    (roots, calls)
}

/// The workload's system calls replayed on `TestCluster`: kernels and
/// capability structures only — no NoC, no scheduler, no timing. Host
/// nanoseconds per system call.
fn kernel_syscall_ns(rec: &mut Recorder, w: Workload, seed: u64, counters: &Counters) -> f64 {
    match w {
        Workload::ExchangeChurn => {
            // The exact call sequence, a tenth of it per batch.
            let input = inputs::gen_exchange(seed);
            ns_per_op(rec, "kernel.replay_probe", || {
                let mut c = TestCluster::new(MICRO_KERNELS, MICRO_VPES_PER_GROUP);
                let ((_, calls), secs) = timed(|| cluster_grow(&mut c, &input.trees[..20]));
                (calls, secs)
            })
        }
        Workload::RevokeTeardown => {
            // The exact forest; the timed part is the 48 revokes.
            let input = inputs::gen_forest(seed);
            ns_per_op(rec, "kernel.replay_probe", || {
                let mut c = TestCluster::new(MICRO_KERNELS, MICRO_VPES_PER_GROUP);
                let (roots, _) = cluster_grow(&mut c, &input.trees);
                let ((), secs) = timed(|| {
                    for (vpe, sel) in &roots {
                        let reply = c.syscall(*vpe, Syscall::Revoke { sel: *sel, own: true });
                        assert!(reply.result.is_ok(), "kernel probe: revoke failed");
                    }
                });
                (roots.len() as u64, secs)
            })
        }
        Workload::AppsMix512 | Workload::Nginx256 => {
            // No m3fs on the cluster, so replay the run's *mix*: one
            // exchange and one revoke of the exchanged capability per
            // unit, spanning groups as often as the run's exchanges did.
            let exchanges = (counters.exchanges_local + counters.exchanges_spanning).max(1);
            let spanning_per_1000 = counters.exchanges_spanning * 1000 / exchanges;
            let kernels = if w == Workload::AppsMix512 { 32 } else { 8 };
            let mut c = TestCluster::new(kernels, 2);
            let vpe = |g: u16, j: u16| VpeId(g * 2 + j);
            let roots: Vec<CapSel> =
                (0..kernels).map(|g| cluster_create(&mut c, vpe(g, 0))).collect();
            let mut unit = 0u64;
            ns_per_op(rec, "kernel.replay_probe", || {
                const UNITS: u64 = 2_000;
                let ((), secs) = timed(|| {
                    for _ in 0..UNITS {
                        unit += 1;
                        let g = (unit % kernels as u64) as u16;
                        let spans = (unit * 7919) % 1000 < spanning_per_1000;
                        let to = if spans { vpe((g + 1) % kernels, 1) } else { vpe(g, 1) };
                        let holder = (vpe(g, 0), roots[g as usize]);
                        let sel = cluster_exchange(&mut c, holder, to, EdgeKind::Obtain);
                        let reply = c.syscall(to, Syscall::Revoke { sel, own: true });
                        assert!(reply.result.is_ok(), "kernel probe: revoke failed");
                    }
                });
                (2 * UNITS, secs)
            })
        }
    }
}

struct KernelSim {
    exchange_local: u64,
    exchange_spanning: u64,
    revoke_local_per_cap: f64,
    revoke_spanning_per_cap: f64,
}

/// Table 3's operations and Figure 5's tree revoke on a machine with
/// the workload's kernel count (simulated cycles, deterministic).
fn kernel_sim_probe(rec: &mut Recorder, kernels: u16) -> KernelSim {
    let open = rec.begin("kernel.sim_probe");
    let machine = || MicroMachine::new(kernels, 2, KernelMode::SemperOS);
    const CHILDREN: u32 = 96;
    let probe = KernelSim {
        exchange_local: machine().measure_exchange_local(),
        exchange_spanning: machine().measure_exchange_spanning(),
        revoke_local_per_cap: machine().measure_tree_revoke(CHILDREN, 0) as f64 / CHILDREN as f64,
        revoke_spanning_per_cap: machine().measure_tree_revoke(CHILDREN, (kernels - 1).min(12))
            as f64
            / CHILDREN as f64,
    };
    rec.end(open);
    probe
}

// ----- m3fs and apps ---------------------------------------------------------

struct FsProbe {
    image_build_ms: f64,
    extent_lookup_ns: f64,
    meta_ns_per_event: f64,
}

fn fs_probe(rec: &mut Recorder, instances: u32) -> FsProbe {
    let (dirs, files) = required_image();
    let mut spec = FsSpec::empty();
    for d in &dirs {
        spec = spec.dir(d);
    }
    for (path, size) in &files {
        spec = spec.file(path, *size);
    }
    // The headroom `Machine::build` gives the image.
    let region = spec.region_size((64 + instances as u64 * 32) * 1024 * 1024);
    let mut image = None;
    let image_build_ms = ns_per_op(rec, "m3fs.image_probe", || {
        let (built, secs) = timed(|| FsImage::build(&spec, region));
        image = Some(built);
        (1, secs)
    }) / 1e6;

    let image = image.expect("the image probe ran");
    let extent_lookup_ns = ns_per_op(rec, "m3fs.lookup_probe", || {
        let ((), secs) = timed(|| {
            for (path, size) in &files {
                std::hint::black_box(image.stat(path).expect("the file is in the image"));
                std::hint::black_box(image.extent_at(path, size / 2).expect("inside the file"));
            }
        });
        (2 * files.len() as u64, secs)
    });

    // `find` only reads metadata, so on this machine the kernel idles
    // after the sessions open and the events are m3fs and client work.
    let meta_ns_per_event = ns_per_op(rec, "m3fs.meta_probe", || {
        let mut cfg = MachineConfig::small();
        cfg.num_pes = 64;
        cfg.mesh_width = 8;
        let traces = (0..32).map(|i| AppKind::Find.trace(i)).collect();
        let mut m = Machine::build(cfg, 32, 0, Population::Apps(traces));
        m.boot_os();
        let before = m.events();
        let ((), secs) = timed(|| {
            m.start_clients();
            m.run_until_idle();
        });
        (m.events() - before, secs)
    });
    FsProbe { image_build_ms, extent_lookup_ns, meta_ns_per_event }
}

// ----- all probes of one workload --------------------------------------------

/// Host-side medians of the traced repetitions, in seconds.
pub struct RepTimes {
    pub run_s: f64,
    pub gen_s: f64,
    pub build_s: f64,
    pub boot_s: f64,
    pub trace_overhead_pct: f64,
}

/// Every per-layer metric of `metrics::PER_LAYER`, in that order.
pub fn per_layer(
    rec: &mut Recorder,
    w: Workload,
    seed: u64,
    outcome: &Outcome,
    times: &RepTimes,
) -> Vec<(&'static str, f64)> {
    let c = &outcome.counters;
    let shape = shape_of(w);
    let queue_ns = queue_ns_per_event(rec, &shape);
    let sched_ns = sched_ns_per_event(rec, &shape);
    let noc = noc_probe(rec, &shape);
    let caps = caps_probe(rec, w, seed, outcome.peak_caps);
    let syscall_ns = kernel_syscall_ns(rec, w, seed, c);
    let ksim = kernel_sim_probe(rec, shape.kernels);

    let (fs, trace_gen_ms, trace_ops) = match w {
        Workload::AppsMix512 => {
            let input = inputs::gen_apps(seed);
            let ops: usize = input.instances.iter().map(|(k, n)| k.trace(*n).ops.len()).sum();
            let fs = fs_probe(rec, inputs::APPS_INSTANCES);
            (Some(fs), times.gen_s * 1e3, ops as f64 / input.instances.len() as f64)
        }
        Workload::Nginx256 => {
            // Servers generate one request trace per request, inside the
            // timed section.
            let ns = ns_per_op(rec, "apps.trace_probe", || {
                let ((), secs) = timed(|| {
                    for uri in 0..1000 {
                        std::hint::black_box(nginx_request(uri));
                    }
                });
                (1000, secs)
            });
            let fs = fs_probe(rec, workloads::NGINX_SERVERS as u32);
            (Some(fs), ns * outcome.ops as f64 / 1e6, nginx_request(0).ops.len() as f64)
        }
        Workload::ExchangeChurn | Workload::RevokeTeardown => (None, 0.0, 0.0),
    };

    // Attribution by substitution. `Machine::events` counts pops, wake
    // tokens included, which is the unit of the scheduler probe; the
    // machine does not expose how many of them were messages, so the NoC
    // count is exact only where every message has a kernel at one end.
    let run_ns = times.run_s * 1e9;
    let messages = match w {
        Workload::ExchangeChurn | Workload::RevokeTeardown => {
            c.dispatches + c.syscalls + c.exchanges_local + c.exchanges_spanning
        }
        Workload::AppsMix512 | Workload::Nginx256 => outcome.events,
    };
    // Inserts and deletes are counted by the kernels; lookups are not,
    // so they stay inside the kernel's share.
    let caps_host_ns =
        caps.insert_ns * c.caps_created as f64 + caps.delete_ns * c.caps_deleted as f64;
    let kernel_replay_ns = syscall_ns * c.syscalls as f64;
    let sim_share = sched_ns * outcome.events as f64 / run_ns;
    let noc_share = noc.route_ns * messages as f64 / run_ns;
    let caps_share = caps_host_ns / run_ns;
    let kernel_share = (kernel_replay_ns - caps_host_ns).max(0.0) / run_ns;

    let ops = outcome.ops.max(1) as f64;
    let busy = |cycles: u64| cycles as f64 / outcome.makespan as f64;
    let fs_or = |f: fn(&FsProbe) -> f64| fs.as_ref().map_or(0.0, f);
    vec![
        ("sim.queue_ns_per_event", queue_ns),
        ("sim.sched_ns_per_event", sched_ns),
        ("sim.events_per_op", outcome.events as f64 / ops),
        ("noc.route_ns", noc.route_ns),
        ("noc.mean_hops", noc.mean_hops),
        ("noc.wire_cycles_per_msg", noc.wire_cycles_per_msg),
        ("caps.insert_ns_per_cap", caps.insert_ns),
        ("caps.delete_ns_per_cap", caps.delete_ns),
        ("caps.lookup_ns", caps.lookup_ns),
        ("caps.peak_caps", outcome.peak_caps as f64),
        ("kernel.syscall_ns", syscall_ns),
        ("kernel.dispatches_per_op", c.dispatches as f64 / ops),
        ("kernel.kcalls_per_op", c.kcalls as f64 / ops),
        ("kernel.credit_stalls", c.credit_stalls as f64),
        ("kernel.max_pending_ops", c.max_pending_ops as f64),
        ("kernel.busy_share_mean", busy(c.busy_sum) / outcome.kernels as f64),
        ("kernel.busy_share_max", busy(c.busy_max)),
        ("kernel.exchange_local_p50_cycles", ksim.exchange_local as f64),
        ("kernel.exchange_spanning_p50_cycles", ksim.exchange_spanning as f64),
        ("kernel.revoke_local_cycles_per_cap", ksim.revoke_local_per_cap),
        ("kernel.revoke_spanning_cycles_per_cap", ksim.revoke_spanning_per_cap),
        ("m3fs.image_build_ms", fs_or(|f| f.image_build_ms)),
        ("m3fs.extent_lookup_ns", fs_or(|f| f.extent_lookup_ns)),
        ("m3fs.meta_ns_per_event", fs_or(|f| f.meta_ns_per_event)),
        ("apps.trace_gen_ms", trace_gen_ms),
        ("apps.trace_ops_per_instance", trace_ops),
        ("core.build_ms", times.build_s * 1e3),
        ("core.boot_ms", times.boot_s * 1e3),
        ("core.ns_per_event", run_ns / outcome.events as f64),
        ("core.events_per_sec", outcome.events as f64 / times.run_s),
        ("base.msg_size_bytes", std::mem::size_of::<Msg>() as f64),
        ("sim.host_share", sim_share),
        ("noc.host_share", noc_share),
        ("kernel.host_share", kernel_share),
        ("caps.host_share", caps_share),
        ("core.unattributed_share", 1.0 - sim_share - noc_share - kernel_share - caps_share),
        ("trace_overhead_pct", times.trace_overhead_pct),
    ]
}
