//! Collective sweep: tree-barrier/reduction latency as the fleet grows
//! from one HUB's worth of CABs to a folded-Clos with 2048 members,
//! combining tree against the naive linear gather (ISSUE 10).
//!
//!     cargo bench -p nectar-bench --bench collective [-- --quick]
//!
//! Each fleet size runs the same workload twice: a 4-ary combining
//! tree (log-depth, interior CABs merge one Arrive per child subtree)
//! and a chain (depth = fleet, every operand crawls to the root one
//! hop at a time — the "every member sends to the coordinator"
//! baseline without the FIFO blowup). Five barrier epochs of a u64
//! Sum reduction; the reported figure is quiescence time divided by
//! epochs. The root's `arrives_rx` counter is printed as the proof of
//! interior combining: 4-ary trees hear ≤4 frames per epoch at the
//! root no matter the fleet. Results land in `BENCH_collective.json`
//! (in `$NECTAR_BENCH_DIR` when set, else the workspace root).
//!
//! Determinism contract: every reported quantity is integer-valued
//! and schedule-derived, so same-seed runs render byte-identical
//! JSON — CI double-runs `--quick` and diffs the bytes.

use nectar::collective::{deploy_barrier_fleet, CollectiveGroup};
use nectar::config::Config;
use nectar::topology::{ClosSpec, Topology};
use nectar::world::World;
use nectar_sim::json::Json::{self, Arr, Obj, Row, S, U};
use nectar_sim::{par_map, SimDuration, SimTime};
use nectar_stack::collective::{CollectiveConfig, CollectiveEngine};
use nectar_wire::collective::CombineOp;

const SEED: u64 = 0xc011ec7;
const EPOCHS: u32 = 5;
const FANOUT: usize = 4;

struct FleetCfg {
    label: &'static str,
    fleet: usize,
}

impl FleetCfg {
    fn sizes(quick: bool) -> Vec<FleetCfg> {
        let mut v = vec![
            FleetCfg { label: "single-hub-16", fleet: 16 },
            FleetCfg { label: "clos-256", fleet: 256 },
        ];
        if !quick {
            v.push(FleetCfg { label: "clos-2048", fleet: 2048 });
        }
        v
    }

    fn topology(&self) -> Topology {
        if self.fleet <= 16 {
            Topology::single_hub(self.fleet)
        } else {
            Topology::folded_clos(&ClosSpec::for_cabs(self.fleet))
        }
    }
}

#[derive(Clone, Copy)]
enum Shape {
    Tree,
    Chain,
}

struct ShapeResult {
    shape: &'static str,
    depth: u64,
    total_ns: u64,
    per_epoch_ns: u64,
    root_arrives_rx: u64,
    arrive_retransmits: u64,
    replicas: u64,
    reduced_value: u64,
}

fn run_shape(cfg: &FleetCfg, shape: Shape) -> ShapeResult {
    let topo = cfg.topology();
    assert!(topo.cabs() >= cfg.fleet, "topology too small for the fleet");
    let config = Config { seed: SEED, ..Config::default() };
    let (mut world, mut sim) = World::new(config, topo);

    let members: Vec<u16> = (0..cfg.fleet as u16).collect();
    let group = match shape {
        Shape::Tree => CollectiveGroup::tree(1, members, FANOUT),
        Shape::Chain => CollectiveGroup::chain(1, members),
    };
    // a lossless sweep never needs the straggler timer; push the RTO
    // past the deepest chain so spurious retransmits can't pollute the
    // latency figure (uniform across both shapes for a fair race)
    let coll_cfg = CollectiveConfig { rto: SimDuration::from_millis(500), max_retries: 20 };
    for &m in &group.members {
        world.cabs[m as usize].proto.with_coll(|c| *c = CollectiveEngine::new(coll_cfg));
    }
    let handles =
        deploy_barrier_fleet(&mut world, &group, CombineOp::Sum, EPOCHS, |i| i as u64 + 1);

    world.run_until(&mut sim, SimTime::ZERO + SimDuration::from_secs(120));
    assert_eq!(sim.pending(), 0, "collective sweep did not reach quiescence");

    let n = cfg.fleet as u64;
    let expected = n * (n + 1) / 2;
    for (i, h) in handles.iter().enumerate() {
        assert!(h.done.get() && !h.failed.get(), "{}: member {i} incomplete", cfg.label);
        assert_eq!(h.last_value.get(), expected, "{}: member {i} wrong sum", cfg.label);
    }

    let root = group.members[0] as usize;
    let stats = world.cabs[root].proto.coll().stats();
    let root_arrives_rx = stats.arrives_rx;
    let (retrans, replicas) = group.members.iter().fold((0, 0), |(rt, rp), &m| {
        let s = world.cabs[m as usize].proto.coll().stats();
        (rt + s.arrive_retransmits, rp + s.replicas)
    });
    // barrier completion = the last member's final release; the sim
    // clock itself is clamped to the run_until deadline
    let total_ns = handles.iter().map(|h| h.finished_at.get()).max().unwrap_or(0);
    assert!(total_ns > 0, "{}: no member stamped a finish time", cfg.label);
    ShapeResult {
        shape: match shape {
            Shape::Tree => "tree",
            Shape::Chain => "chain",
        },
        depth: group.depth() as u64,
        total_ns,
        per_epoch_ns: total_ns / EPOCHS as u64,
        root_arrives_rx,
        arrive_retransmits: retrans,
        replicas,
        reduced_value: handles[0].last_value.get(),
    }
}

impl ShapeResult {
    fn fields(&self) -> Vec<(&'static str, Json<'static>)> {
        vec![
            ("shape", S(self.shape)),
            ("depth", U(self.depth)),
            ("total_ns", U(self.total_ns)),
            ("per_epoch_ns", U(self.per_epoch_ns)),
            ("root_arrives_rx", U(self.root_arrives_rx)),
            ("arrive_retransmits", U(self.arrive_retransmits)),
            ("replicas", U(self.replicas)),
            ("reduced_value", U(self.reduced_value)),
        ]
    }
}

struct FleetResult {
    label: &'static str,
    fleet: u64,
    hubs: u64,
    stages: u64,
    tree: ShapeResult,
    chain: ShapeResult,
}

impl FleetResult {
    /// tree latency as permille of chain latency (integer, CI-stable).
    fn tree_vs_chain_permille(&self) -> u64 {
        self.tree.per_epoch_ns * 1000 / self.chain.per_epoch_ns.max(1)
    }
}

fn fleet_result(cfg: &FleetCfg, tree: ShapeResult, chain: ShapeResult) -> FleetResult {
    let topo = cfg.topology();
    println!(
        "  {}: tree {} µs/epoch (depth {}), chain {} µs/epoch (depth {}), root heard {} arrives",
        cfg.label,
        tree.per_epoch_ns / 1_000,
        tree.depth,
        chain.per_epoch_ns / 1_000,
        chain.depth,
        tree.root_arrives_rx
    );
    FleetResult {
        label: cfg.label,
        fleet: cfg.fleet as u64,
        hubs: topo.hubs as u64,
        stages: topo.stages() as u64,
        tree,
        chain,
    }
}

/// What the artifact claims, checked before it is written.
fn check(fleets: &[FleetResult]) {
    assert!(fleets.len() >= 2, "only {} fleet sizes", fleets.len());
    assert!(fleets.windows(2).all(|w| w[0].fleet < w[1].fleet), "fleets not strictly growing");
    let largest = fleets.last().expect("at least two fleets");
    assert!(largest.fleet >= 256, "largest fleet {} below the 256-member bar", largest.fleet);
    for f in fleets {
        for s in [&f.tree, &f.chain] {
            let sum = f.fleet * (f.fleet + 1) / 2;
            assert_eq!(s.reduced_value, sum, "{}/{}: wrong reduction value", f.label, s.shape);
        }
        assert!(f.tree.depth < f.chain.depth, "{}: tree not log-depth", f.label);
        // interior combining: the root hears one Arrive per child per
        // epoch, never one per descendant
        assert!(
            f.tree.root_arrives_rx <= FANOUT as u64 * EPOCHS as u64,
            "{}: root heard uncombined arrives",
            f.label
        );
    }
    // the headline claim: at ≥256 members the log-depth tree must beat
    // the linear gather outright
    for f in fleets.iter().filter(|f| f.fleet >= 256) {
        assert!(
            f.tree.per_epoch_ns < f.chain.per_epoch_ns,
            "{}: tree ({} ns) no faster than chain ({} ns)",
            f.label,
            f.tree.per_epoch_ns,
            f.chain.per_epoch_ns
        );
    }
}

fn to_json(quick: bool, fleets: &[FleetResult]) -> String {
    let fleet = |f: &FleetResult| {
        Obj(vec![
            ("label", S(f.label)),
            ("fleet", U(f.fleet)),
            ("hubs", U(f.hubs)),
            ("stages", U(f.stages)),
            ("tree_vs_chain_permille", U(f.tree_vs_chain_permille())),
            ("tree", Row(f.tree.fields())),
            ("chain", Row(f.chain.fields())),
        ])
    };
    Obj(vec![
        ("seed", U(SEED)),
        ("mode", S(if quick { "quick" } else { "full" })),
        ("epochs", U(EPOCHS as u64)),
        ("fanout", U(FANOUT as u64)),
        ("fleets", Arr(fleets.iter().map(fleet).collect())),
    ])
    .render()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("NECTAR_COLLECTIVE_QUICK").is_ok();
    let sizes = FleetCfg::sizes(quick);
    println!(
        "collective: {} fleet sizes up to {} members, {}-ary tree vs chain, {} epochs",
        sizes.len(),
        sizes.iter().map(|s| s.fleet).max().unwrap_or(0),
        FANOUT,
        EPOCHS
    );
    // every (fleet, shape) run is its own world: run them in parallel
    let grid: Vec<(&FleetCfg, Shape)> =
        sizes.iter().flat_map(|cfg| [(cfg, Shape::Tree), (cfg, Shape::Chain)]).collect();
    let mut shapes = par_map(&grid, |&(cfg, shape)| run_shape(cfg, shape)).into_iter();
    let results: Vec<FleetResult> = sizes
        .iter()
        .map(|cfg| {
            let (tree, chain) = (shapes.next().expect("tree"), shapes.next().expect("chain"));
            fleet_result(cfg, tree, chain)
        })
        .collect();

    println!("| fleet | hubs | tree µs/epoch | tree depth | chain µs/epoch | chain depth | tree/chain ‰ |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for f in &results {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            f.label,
            f.hubs,
            f.tree.per_epoch_ns / 1_000,
            f.tree.depth,
            f.chain.per_epoch_ns / 1_000,
            f.chain.depth,
            f.tree_vs_chain_permille()
        );
    }

    check(&results);
    nectar_bench::write_artifact("BENCH_collective.json", &to_json(quick, &results));
}
