//! Seeded input generation. The benchmark owns its generator (a
//! splitmix64) so the program under test only ever sees generated
//! inputs, and so `semper_sim::DetRng` can change without moving the
//! benchmark's workloads.
//!
//! Every generator keeps the *aggregate* size of its workload fixed
//! (number of instances per application, calls per round, capabilities
//! per tree class, share of group-spanning exchanges): the seed moves
//! structure and placement only, so runs with different seeds do the
//! same amount of work and their metrics are comparable.

use semper_apps::AppKind;

/// The machine shape of both capability-operation workloads: Figure 5's
/// 13 kernels with 12 stub VPEs per group.
pub const MICRO_KERNELS: u16 = 13;
pub const MICRO_VPES_PER_GROUP: u16 = 12;

pub const APPS_INSTANCES: u32 = 512;
pub const EXCHANGE_ROUNDS: usize = 200;
pub const EXCHANGE_CALLS_PER_ROUND: usize = 1000;
/// Tree sizes of `revoke_teardown`, one of each per shape class:
/// 16 sizes from 500 to 2000 capabilities, 20 000 per class.
const FOREST_SIZES: std::ops::RangeInclusive<u32> = 5..=20;

/// FNV-1a over a generated input's encoding: recorded with the results so
/// two result files can show they ran the same inputs.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01B3))
}

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; the modulo bias at these bounds (< 2^20
    /// against 2^64) is far below anything the workloads can resolve.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `apps_mix_512`: which application and which instance number each of
/// the 512 clients replays.
pub struct AppsInput {
    pub instances: Vec<(AppKind, u32)>,
}

pub fn gen_apps(seed: u64) -> AppsInput {
    let mut rng = SplitMix64::new(seed);
    // Equal shares: 85 of each application, the two left-over clients
    // take the first two kinds of a seeded order.
    let mut order = AppKind::ALL;
    rng.shuffle(&mut order);
    let mut kinds: Vec<AppKind> =
        (0..APPS_INSTANCES as usize).map(|i| order[i % order.len()]).collect();
    rng.shuffle(&mut kinds);
    // Instance numbers individualise the `/work/<n>` paths and must stay
    // unique within one image.
    let mut numbers: Vec<u32> = (0..APPS_INSTANCES).collect();
    rng.shuffle(&mut numbers);
    AppsInput { instances: kinds.into_iter().zip(numbers).collect() }
}

impl AppsInput {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (kind, n) in &self.instances {
            out.push(*kind as u8);
            out.extend_from_slice(&n.to_le_bytes());
        }
        out
    }
}

/// `nginx_256_8k8s`: the load generators fix the requests, so the only
/// input is the phase at which the timed section starts — a warm-up of
/// 1.0 to 1.1 M cycles.
pub fn gen_nginx_warmup_cycles(seed: u64) -> u64 {
    1_000_000 + SplitMix64::new(seed).below(100_000)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// The receiver asks for the capability.
    Obtain,
    /// The holder hands the capability over.
    Delegate,
}

/// One exchange: capability number `parent` of the tree (0 is the root,
/// `i` the capability edge `i - 1` created) gets a child held by `to`.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    pub parent: u32,
    pub to: u16,
    pub kind: EdgeKind,
}

/// A capability tree as the sequence of exchanges that builds it. VPEs
/// are numbered as `MicroMachine` numbers its stubs: VPE `v` lives in
/// group `v % MICRO_KERNELS`.
pub struct TreeSpec {
    pub root_owner: u16,
    pub edges: Vec<Edge>,
}

/// The input of both capability-operation workloads: `exchange_churn`
/// times the exchanges, `revoke_teardown` times revoking the roots.
pub struct ForestInput {
    pub trees: Vec<TreeSpec>,
}

impl ForestInput {
    pub fn caps(&self) -> usize {
        self.trees.iter().map(|t| 1 + t.edges.len()).sum()
    }

    pub fn exchanges(&self) -> usize {
        self.trees.iter().map(|t| t.edges.len()).sum()
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for t in &self.trees {
            out.extend_from_slice(&t.root_owner.to_le_bytes());
            out.extend_from_slice(&(t.edges.len() as u32).to_le_bytes());
            for e in &t.edges {
                out.extend_from_slice(&e.parent.to_le_bytes());
                out.extend_from_slice(&e.to.to_le_bytes());
                out.push(e.kind as u8);
            }
        }
        out
    }
}

#[derive(Clone, Copy)]
enum Shape {
    Chain,
    Wide,
    Random,
}

fn group_of(vpe: u16) -> u16 {
    vpe % MICRO_KERNELS
}

fn any_vpe(rng: &mut SplitMix64) -> u16 {
    rng.below((MICRO_KERNELS * MICRO_VPES_PER_GROUP) as u64) as u16
}

/// A partner for `holder`: in another group when `spanning`, else
/// another VPE of the holder's own group.
fn partner(rng: &mut SplitMix64, holder: u16, spanning: bool) -> u16 {
    let (g, j) = (group_of(holder), holder / MICRO_KERNELS);
    if spanning {
        let other = (g + 1 + rng.below(MICRO_KERNELS as u64 - 1) as u16) % MICRO_KERNELS;
        other + rng.below(MICRO_VPES_PER_GROUP as u64) as u16 * MICRO_KERNELS
    } else {
        let slot =
            (j + 1 + rng.below(MICRO_VPES_PER_GROUP as u64 - 1) as u16) % MICRO_VPES_PER_GROUP;
        g + slot * MICRO_KERNELS
    }
}

/// A tree of `edges` exchanges, exactly half of them group-spanning.
fn gen_tree(rng: &mut SplitMix64, shape: Shape, edges: usize) -> TreeSpec {
    let root_owner = any_vpe(rng);
    let mut spanning: Vec<bool> = (0..edges).map(|i| i % 2 == 0).collect();
    rng.shuffle(&mut spanning);
    let mut owners = vec![root_owner];
    let mut out = Vec::with_capacity(edges);
    for (i, spans) in spanning.into_iter().enumerate() {
        let parent = match shape {
            Shape::Chain => i,
            Shape::Wide => 0,
            Shape::Random => rng.below(i as u64 + 1) as usize,
        };
        let to = partner(rng, owners[parent], spans);
        let kind = if rng.below(2) == 0 { EdgeKind::Obtain } else { EdgeKind::Delegate };
        owners.push(to);
        out.push(Edge { parent: parent as u32, to, kind });
    }
    TreeSpec { root_owner, edges: out }
}

/// `exchange_churn`: 200 rounds, each growing a random tree by 1000
/// exchanges whose source is drawn from the tree built so far.
pub fn gen_exchange(seed: u64) -> ForestInput {
    let mut rng = SplitMix64::new(seed);
    let trees = (0..EXCHANGE_ROUNDS)
        .map(|_| gen_tree(&mut rng, Shape::Random, EXCHANGE_CALLS_PER_ROUND))
        .collect();
    ForestInput { trees }
}

/// `revoke_teardown`: 48 trees — chains, wide trees and random shapes,
/// 16 of each with 500 to 2000 capabilities — in a seeded order.
pub fn gen_forest(seed: u64) -> ForestInput {
    let mut rng = SplitMix64::new(seed);
    let mut plan: Vec<(Shape, usize)> = Vec::new();
    for shape in [Shape::Chain, Shape::Wide, Shape::Random] {
        for hundreds in FOREST_SIZES {
            plan.push((shape, hundreds as usize * 100));
        }
    }
    rng.shuffle(&mut plan);
    let trees = plan.into_iter().map(|(shape, caps)| gen_tree(&mut rng, shape, caps - 1)).collect();
    ForestInput { trees }
}

/// Many small wide trees: the shape m3fs leaves in the mapping database
/// (a file's extents delegated to its client), for the `caps` probes of
/// the two application workloads.
pub fn gen_extent_trees(seed: u64) -> ForestInput {
    let mut rng = SplitMix64::new(seed);
    ForestInput { trees: (0..4000).map(|_| gen_tree(&mut rng, Shape::Wide, 8)).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed ⇒ byte-identical input, another seed ⇒ another input.
    fn seeded<T>(gen: fn(u64) -> T, encode: fn(&T) -> Vec<u8>) {
        assert_eq!(encode(&gen(1)), encode(&gen(1)));
        assert_ne!(encode(&gen(1)), encode(&gen(2)));
    }

    #[test]
    fn apps_input_is_seeded_with_equal_shares() {
        seeded(gen_apps, AppsInput::encode);
        let input = gen_apps(7);
        assert_eq!(input.instances.len(), APPS_INSTANCES as usize);
        for kind in AppKind::ALL {
            let n = input.instances.iter().filter(|(k, _)| *k == kind).count();
            assert!((85..=86).contains(&n), "{kind:?} has {n} instances");
        }
        let mut numbers: Vec<u32> = input.instances.iter().map(|(_, n)| *n).collect();
        numbers.sort_unstable();
        assert_eq!(numbers, (0..APPS_INSTANCES).collect::<Vec<_>>());
    }

    fn check_forest(input: &ForestInput) {
        for t in &input.trees {
            let mut owners = vec![t.root_owner];
            let mut spanning = 0;
            for (i, e) in t.edges.iter().enumerate() {
                assert!(e.parent as usize <= i, "source must already exist");
                let holder = owners[e.parent as usize];
                assert_ne!(holder, e.to, "no exchange with oneself");
                assert!(e.to < MICRO_KERNELS * MICRO_VPES_PER_GROUP);
                spanning += (group_of(holder) != group_of(e.to)) as usize;
                owners.push(e.to);
            }
            assert_eq!(spanning, t.edges.len().div_ceil(2), "half the exchanges span groups");
        }
    }

    #[test]
    fn nginx_input_is_seeded() {
        assert_eq!(gen_nginx_warmup_cycles(1), gen_nginx_warmup_cycles(1));
        assert_ne!(gen_nginx_warmup_cycles(1), gen_nginx_warmup_cycles(2));
        assert!((1_000_000..1_100_000).contains(&gen_nginx_warmup_cycles(5)));
    }

    #[test]
    fn exchange_input_is_seeded_and_half_spanning() {
        seeded(gen_exchange, ForestInput::encode);
        let input = gen_exchange(3);
        assert_eq!(input.exchanges(), EXCHANGE_ROUNDS * EXCHANGE_CALLS_PER_ROUND);
        check_forest(&input);
    }

    #[test]
    fn forest_input_is_seeded_with_fixed_size() {
        seeded(gen_forest, ForestInput::encode);
        for seed in [1, 2, 99] {
            let input = gen_forest(seed);
            assert_eq!(input.trees.len(), 48);
            assert_eq!(input.caps(), 60_000);
            check_forest(&input);
        }
    }
}
