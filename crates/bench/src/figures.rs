//! The rows of the six sub-second figure benches, as plain functions.
//!
//! Each bench's `main` prints what its function here returns, and
//! `tests/paper_pins.rs` compares the same rows — every printed cell,
//! on the simulated clock — and each anchor's relative error to the
//! published value with `tests/goldens/paper_figures.txt`.

use semper_base::config::Feature;
use semper_base::msg::{CapKindDesc, ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Code, KernelMode, VpeId};
use semper_kernel::harness::TestCluster;
use semperos::experiment::MicroMachine;

/// A measured value the paper publishes a number for.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// Short name, unique within its figure.
    pub name: &'static str,
    /// What this reproduction measures.
    pub measured: f64,
    /// The published value.
    pub paper: f64,
    /// Where the paper gives it.
    pub source: &'static str,
}

impl Anchor {
    /// Signed relative error of the measurement against the paper.
    pub fn rel_err(&self) -> f64 {
        (self.measured - self.paper) / self.paper
    }
}

// ----- Table 2 --------------------------------------------------------------

/// Table 2's interference cases, each constructed once on the untimed
/// protocol cluster. [`table2_interference`] asserts that every case
/// shows the paper's outcome, so the fields hold what that outcome
/// looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2 {
    /// Obtain ‖ obtain (serialized): both obtains succeeded.
    pub obtain_obtain_ok: bool,
    /// Obtain ‖ requester crash (orphaned): orphaned child links cleaned.
    pub obtain_crash_orphans_cleaned: u64,
    /// Delegate ‖ revoke of the parent (invalid, prevented): the revoke
    /// was acknowledged.
    pub delegate_revoke_acked: bool,
    /// Delegate ‖ revoke: the receiver kept a memory capability.
    pub delegate_revoke_leaked: bool,
    /// Revoke ‖ obtain (pointless): the obtain was denied at once.
    pub revoke_obtain_denied: bool,
    /// Revoke ‖ obtain: the revoke was acknowledged.
    pub revoke_obtain_acked: bool,
    /// Revoke ‖ revoke (incomplete, prevented): both were acknowledged.
    pub revoke_revoke_acked: bool,
    /// Revoke ‖ revoke: capabilities left after both acknowledgements.
    pub revoke_revoke_caps_left: usize,
}

fn create_mem(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    match c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW }).result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("create_mem: {other:?}"),
    }
}

fn obtain_call(other: VpeId, sel: CapSel) -> Syscall {
    Syscall::Exchange {
        other,
        own_sel: CapSel::INVALID,
        other_sel: sel,
        kind: ExchangeKind::Obtain,
    }
}

fn delegate_call(other: VpeId, sel: CapSel) -> Syscall {
    Syscall::Exchange {
        other,
        own_sel: sel,
        other_sel: CapSel::INVALID,
        kind: ExchangeKind::Delegate,
    }
}

/// True if kernel `k` of `c` holds a memory capability.
fn holds_memory(c: &TestCluster, k: usize) -> bool {
    c.kernels[k].mapdb().iter().any(|cap| matches!(cap.kind, CapKindDesc::Memory { .. }))
}

/// Constructs each of Table 2's cases and asserts the paper's outcome.
pub fn table2_interference() -> Table2 {
    // Obtain then obtain: serialized at the owner's kernel.
    let obtain_obtain_ok = {
        let mut c = TestCluster::new(3, 1);
        let sel = create_mem(&mut c, VpeId(0));
        let t1 = c.syscall_async(VpeId(1), obtain_call(VpeId(0), sel));
        let t2 = c.syscall_async(VpeId(2), obtain_call(VpeId(0), sel));
        c.pump_all();
        let ok1 = c.take_reply(VpeId(1), t1).unwrap().result.is_ok();
        let ok2 = c.take_reply(VpeId(2), t2).unwrap().result.is_ok();
        c.check_invariants();
        assert!(ok1 && ok2, "obtain || obtain: a serialized obtain failed");
        ok1 && ok2
    };

    // Obtain then requester crash: orphaned, then cleaned.
    let obtain_crash_orphans_cleaned = {
        let mut c = TestCluster::new(2, 1);
        let sel = create_mem(&mut c, VpeId(0));
        c.syscall_async(VpeId(1), obtain_call(VpeId(0), sel));
        c.pump_n(4); // child linked at owner, reply in flight
        c.kill(VpeId(1));
        c.pump_all();
        // Counted where the orphan is found; the link check below holds
        // only once the owner dropped the link.
        let orphans = c.kernels.iter().map(|k| k.stats().orphans_cleaned).sum();
        c.check_invariants();
        assert_eq!(orphans, 1, "obtain || crash: the orphaned child link was not cleaned");
        orphans
    };

    // Delegate racing a revoke of the parent: invalid prevented.
    let (delegate_revoke_acked, delegate_revoke_leaked) = {
        let mut c = TestCluster::new(2, 1);
        let sel = create_mem(&mut c, VpeId(0));
        c.syscall_async(VpeId(0), delegate_call(VpeId(1), sel));
        c.pump_n(4); // receiver-side capability created, not inserted
        let rt = c.syscall_front(VpeId(0), Syscall::Revoke { sel, own: true });
        c.pump_all();
        let revoked = c.take_reply(VpeId(0), rt).unwrap().result.is_ok();
        let leaked = holds_memory(&c, 1);
        c.check_invariants();
        assert!(revoked, "delegate || revoke: the revoke was not acknowledged");
        assert!(!leaked, "delegate || revoke: the receiver kept an invalid capability");
        (revoked, leaked)
    };

    // Exchange against a capability under revocation: pointless.
    let (revoke_obtain_denied, revoke_obtain_acked) = {
        let mut c = TestCluster::new(2, 2);
        let sel = create_mem(&mut c, VpeId(0));
        // Span the tree so the revoke stays in flight.
        let dt = c.syscall_async(VpeId(0), delegate_call(VpeId(2), sel));
        c.pump_all();
        assert!(c.take_reply(VpeId(0), dt).unwrap().result.is_ok());
        let rt = c.syscall_async(VpeId(0), Syscall::Revoke { sel, own: true });
        c.pump_n(1); // marked locally, remote child still pending
        let ot = c.syscall_async(VpeId(1), obtain_call(VpeId(0), sel));
        c.pump_all();
        let denied = c.take_reply(VpeId(1), ot).unwrap().result.unwrap_err().code()
            == Code::RevokeInProgress;
        let done = c.take_reply(VpeId(0), rt).unwrap().result.is_ok();
        c.check_invariants();
        assert!(denied, "revoke || obtain: the pointless obtain was not denied");
        assert!(done, "revoke || obtain: the revoke was not acknowledged");
        (denied, done)
    };

    // Overlapping revokes: incomplete acknowledgements prevented.
    let (revoke_revoke_acked, revoke_revoke_caps_left) = {
        let mut c = TestCluster::new(3, 1);
        let a = create_mem(&mut c, VpeId(0));
        let db = c.syscall(VpeId(0), delegate_call(VpeId(1), a));
        let Ok(SysReplyData::Delegated { recv_sel: b }) = db.result else { panic!() };
        assert!(c.syscall(VpeId(1), delegate_call(VpeId(2), b)).result.is_ok());
        let t_outer = c.syscall_async(VpeId(0), Syscall::Revoke { sel: a, own: true });
        let t_inner = c.syscall_async(VpeId(1), Syscall::Revoke { sel: b, own: true });
        c.pump_all();
        let outer = c.take_reply(VpeId(0), t_outer).unwrap().result.is_ok();
        let inner = c.take_reply(VpeId(1), t_inner).unwrap().result.is_ok();
        let remaining = c.total_caps();
        c.check_invariants();
        assert!(outer && inner, "revoke || revoke: a revoke was not acknowledged");
        assert_eq!(remaining, 3, "revoke || revoke: acknowledged before the subtree was gone");
        (outer && inner, remaining)
    };

    Table2 {
        obtain_obtain_ok,
        obtain_crash_orphans_cleaned,
        delegate_revoke_acked,
        delegate_revoke_leaked,
        revoke_obtain_denied,
        revoke_obtain_acked,
        revoke_revoke_acked,
        revoke_revoke_caps_left,
    }
}

// ----- Table 3 --------------------------------------------------------------

/// One row of Table 3: a capability operation's cycles on SemperOS, and
/// on the M3 baseline where the paper measures one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapOpRow {
    /// "Exchange" or "Revoke".
    pub op: &'static str,
    /// "Local" (one kernel) or "Spanning" (two kernels).
    pub scope: &'static str,
    /// Measured SemperOS cycles.
    pub cycles: u64,
    /// Published SemperOS cycles.
    pub paper: u64,
    /// Measured and published M3 cycles (group-local rows only).
    pub m3: Option<(u64, u64)>,
}

/// Table 3: two applications on a small machine; the second obtains a
/// capability from the first, then the first revokes it. Group-local
/// uses one kernel for both, group-spanning two. The M3 baseline runs
/// the single-kernel mode with plain capability references.
pub fn table3_cap_ops() -> Vec<CapOpRow> {
    let semper = || MicroMachine::new(2, 2, KernelMode::SemperOS);
    let m3 = || MicroMachine::new(1, 2, KernelMode::M3);
    let row = |op, scope, cycles, paper, m3| CapOpRow { op, scope, cycles, paper, m3 };
    vec![
        row(
            "Exchange",
            "Local",
            semper().measure_exchange_local(),
            3597,
            Some((m3().measure_exchange_local(), 3250)),
        ),
        row("Exchange", "Spanning", semper().measure_exchange_spanning(), 6484, None),
        row(
            "Revoke",
            "Local",
            semper().measure_revoke_local(),
            1997,
            Some((m3().measure_revoke_local(), 1423)),
        ),
        row("Revoke", "Spanning", semper().measure_revoke_spanning(), 3876, None),
    ]
}

/// Table 3's anchors: the group-local exchange's and revoke's increase
/// over M3 (the ratios §5.1 quotes), in that order. The published cells
/// themselves are in the rows.
pub fn table3_anchors(rows: &[CapOpRow]) -> [Anchor; 2] {
    let increase = |name, op| {
        let r = rows.iter().find(|r| r.op == op && r.m3.is_some()).expect("a row with M3");
        let (m3, m3_paper) = r.m3.expect("checked");
        let over = |a: u64, b: u64| (a as f64 - b as f64) / b as f64;
        Anchor {
            name,
            measured: over(r.cycles, m3),
            paper: over(r.paper, m3_paper),
            source: "Table 3",
        }
    };
    [
        increase("exchange_increase_over_m3", "Exchange"),
        increase("revoke_increase_over_m3", "Revoke"),
    ]
}

// ----- Figure 4 -------------------------------------------------------------

/// One chain length of Figure 4: revocation cycles of a group-local
/// chain, a group-spanning chain, and the M3 baseline's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRow {
    /// Number of links.
    pub len: u32,
    /// Local chain (two VPEs of one group).
    pub local: u64,
    /// Group-spanning chain (two kernels, §5.2's adversarial case).
    pub spanning: u64,
    /// Single-kernel M3 baseline.
    pub m3: u64,
}

/// Figure 4: revoking capability chains of 1–100 links. One machine per
/// shape is reused across all lengths — measurement cycles are
/// identical on a quiesced reused machine.
pub fn fig4_chain_revoke() -> Vec<ChainRow> {
    let mut semper = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let mut m3 = MicroMachine::new(1, 2, KernelMode::M3);
    [1u32, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        .into_iter()
        .map(|len| ChainRow {
            len,
            local: semper.measure_chain_revoke(len, false),
            spanning: semper.measure_chain_revoke(len, true),
            m3: m3.measure_chain_revoke(len, false),
        })
        .collect()
}

/// Figure 4's two ratios at the longest chain, read off the plot.
pub fn fig4_anchors(rows: &[ChainRow]) -> Vec<Anchor> {
    let last = rows.last().expect("Figure 4 has rows");
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    vec![
        Anchor {
            name: "spanning_over_local_at_100",
            measured: ratio(last.spanning, last.local),
            paper: 3.0,
            source: "Fig. 4 (approximate)",
        },
        Anchor {
            name: "local_over_m3_at_100",
            measured: ratio(last.local, last.m3),
            paper: 2.0,
            source: "Fig. 4 (approximate)",
        },
    ]
}

// ----- Figure 5 -------------------------------------------------------------

/// The numbers of kernels other than the root's that Figure 5 spreads
/// the children over ("1 + k kernels").
pub const FIG5_KERNELS: [u16; 5] = [0, 1, 4, 8, 12];

/// One tree size of Figure 5: revocation cycles per entry of
/// [`FIG5_KERNELS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRow {
    /// Children of the root.
    pub children: u32,
    /// Cycles with the children on 1 + `FIG5_KERNELS[i]` kernels.
    pub cycles: [u64; 5],
}

/// Figure 5: revoking a root with 1–128 children spread over 0–12 other
/// kernels. All measurements share one 13-group machine; group 0 hosts
/// the root VPE.
pub fn fig5_tree_revoke() -> Vec<TreeRow> {
    let mut m = MicroMachine::new(13, 12, KernelMode::SemperOS);
    [1u32, 16, 32, 48, 64, 80, 96, 112, 128]
        .into_iter()
        .map(|children| TreeRow {
            children,
            cycles: FIG5_KERNELS.map(|k| m.measure_tree_revoke(children, k)),
        })
        .collect()
}

/// Figure 5's break-even: the smallest measured tree that 12 kernels
/// revoke faster than one (infinite if none does).
pub fn fig5_anchors(rows: &[TreeRow]) -> Vec<Anchor> {
    let break_even = rows.iter().find(|r| r.cycles[4] < r.cycles[0]);
    vec![Anchor {
        name: "break_even_children_12_kernels",
        measured: break_even.map_or(f64::INFINITY, |r| f64::from(r.children)),
        paper: 80.0,
        source: "Fig. 5 / §5.2 (approximate)",
    }]
}

// ----- Ablations ------------------------------------------------------------

/// One tree of the batching ablation: revocation cycles without and
/// with [`Feature::RevokeBatching`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchingRow {
    /// Children of the root.
    pub children: u32,
    /// Kernels other than the root's holding the children.
    pub kernels: u16,
    /// Cycles with one request per remote child.
    pub plain: u64,
    /// Cycles with one request per kernel.
    pub batched: u64,
}

/// The §5.2 message-batching ablation on Figure 5's wide trees. All
/// plain measurements share one machine, all batched ones the other.
pub fn ablate_batching() -> Vec<BatchingRow> {
    let mut plain_m = MicroMachine::new(13, 12, KernelMode::SemperOS);
    let mut batched_m = MicroMachine::new(13, 12, KernelMode::SemperOS);
    batched_m.machine().enable_feature_everywhere(Feature::RevokeBatching);
    let mut rows = Vec::new();
    for children in [16u32, 32, 64, 96, 128] {
        for kernels in [4u16, 12] {
            rows.push(BatchingRow {
                children,
                kernels,
                plain: plain_m.measure_tree_revoke(children, kernels),
                batched: batched_m.measure_tree_revoke(children, kernels),
            });
        }
    }
    rows
}

/// What the two-way delegate handshake (§4.3.2) buys and costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// The delegate/revoke race leaves an invalid capability with the
    /// two-way handshake (must be false).
    pub two_way_leaks: bool,
    /// The same race under the naive one-way protocol.
    pub one_way_leaks: bool,
    /// Group-spanning delegate latency with the handshake.
    pub two_way_cycles: u64,
    /// The same without it.
    pub one_way_cycles: u64,
}

/// Races a delegate against a revoke of its parent; true if the
/// receiver kept a capability whose parent is gone.
fn race_leaks(one_way: bool) -> bool {
    let mut c = TestCluster::new(2, 1);
    if one_way {
        for k in &mut c.kernels {
            k.enable_feature_for_test(Feature::OneWayDelegate);
        }
    }
    let sel = create_mem(&mut c, VpeId(0));
    c.syscall_async(VpeId(0), delegate_call(VpeId(1), sel));
    c.pump_n(4);
    let rt = c.syscall_front(VpeId(0), Syscall::Revoke { sel, own: true });
    c.pump_all();
    assert!(c.take_reply(VpeId(0), rt).unwrap().result.is_ok());
    holds_memory(&c, 1)
}

fn delegate_latency(one_way: bool) -> u64 {
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    if one_way {
        m.machine().enable_feature_everywhere(Feature::OneWayDelegate);
    }
    let (a, b) = (m.vpe(0, 0), m.vpe(1, 0));
    let sel = m.create_mem(a);
    m.delegate(a, b, sel).1
}

/// The handshake ablation; asserts that only the one-way protocol
/// leaves the *invalid* window open.
pub fn ablate_handshake() -> Handshake {
    let h = Handshake {
        two_way_leaks: race_leaks(false),
        one_way_leaks: race_leaks(true),
        two_way_cycles: delegate_latency(false),
        one_way_cycles: delegate_latency(true),
    };
    assert!(!h.two_way_leaks && h.one_way_leaks, "ablation must show the window");
    h
}
