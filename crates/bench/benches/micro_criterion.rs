//! Criterion microbenchmarks of the core data structures.
//!
//! These measure *host* performance of the building blocks (not
//! simulated cycles): DDL key packing, mapping-database operations, the
//! event queue, and NoC routing. They guard against regressions that
//! would make the big experiments slow to simulate.

use criterion::{criterion_group, criterion_main, Criterion};
use semper_base::msg::{CapKindDesc, Payload, Perms, Syscall};
use semper_base::{CapSel, CapType, CostModel, DdlKey, Msg, PeId, VpeId};
use semper_caps::{Capability, MappingDb};
use semper_noc::{Mesh, Noc};
use semper_sim::{Cycles, EventQueue, PeSchedule};
use std::hint::black_box;

fn ddl_keys(c: &mut Criterion) {
    c.bench_function("ddl_key_pack_unpack", |b| {
        b.iter(|| {
            let k = DdlKey::new(
                black_box(PeId(513)),
                black_box(VpeId(42)),
                CapType::Session,
                black_box(123_456),
            );
            black_box((k.pe(), k.vpe(), k.cap_type(), k.object_id()))
        })
    });
}

fn mapdb_subtree(c: &mut Criterion) {
    // A 3-level tree with 85 capabilities.
    fn build() -> MappingDb {
        let mem = CapKindDesc::Memory { addr: 0, size: 64, perms: Perms::RW };
        let mut db = MappingDb::new();
        let mut next = 0u32;
        let key = |n: &mut u32| {
            let k = DdlKey::new(PeId(0), VpeId(0), CapType::Memory, *n);
            *n += 1;
            k
        };
        let root = key(&mut next);
        db.insert(Capability::root(root, mem, VpeId(0), CapSel(0)));
        for _ in 0..4 {
            let mid = key(&mut next);
            db.insert(Capability::child(mid, mem, VpeId(0), CapSel(0), root));
            db.link_child(root, mid).unwrap();
            for _ in 0..20 {
                let leaf = key(&mut next);
                db.insert(Capability::child(leaf, mem, VpeId(0), CapSel(0), mid));
                db.link_child(mid, leaf).unwrap();
            }
        }
        db
    }
    let db = build();
    let root = DdlKey::new(PeId(0), VpeId(0), CapType::Memory, 0);
    c.bench_function("mapdb_local_subtree_85caps", |b| {
        b.iter(|| black_box(db.local_subtree(black_box(root))))
    });
    c.bench_function("mapdb_delete_subtree_85caps", |b| {
        b.iter_batched(
            build,
            |mut db| black_box(db.delete_local_subtree(root)),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(Cycles(i * 7 % 997), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // The case that dominated `revoke_teardown`: 4 096 messages behind
    // one busy PE, each handler keeping it busy for another 100 cycles,
    // so every delivery finds the rest of the lane still waiting.
    c.bench_function("pe_schedule_deep_lane_drain_4k", |b| {
        b.iter(|| {
            let mut s: PeSchedule<u64> = PeSchedule::new(1);
            for i in 0..4096u64 {
                s.schedule(Cycles(i), 0, i);
            }
            let mut acc = 0u64;
            while let Some((t, pe, e)) = s.pop_ready() {
                s.set_busy(pe, t + 100);
                acc = acc.wrapping_add(e);
            }
            black_box((acc, s.processed()))
        })
    });
}

fn noc_route(c: &mut Criterion) {
    let mut noc = Noc::new(Mesh::new(32), CostModel::calibrated());
    let msg = Msg::new(PeId(0), PeId(640 - 1), Payload::sys(0, Syscall::Noop));
    let mut t = Cycles::ZERO;
    c.bench_function("noc_route_single", |b| {
        b.iter(|| {
            t += 1000u64;
            black_box(noc.route(black_box(&msg), t))
        })
    });
}

criterion_group!(benches, ddl_keys, mapdb_subtree, event_queue, noc_route);
criterion_main!(benches);
