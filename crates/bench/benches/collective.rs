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
use nectar_sim::{SimDuration, SimTime};
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

#[derive(Clone, Default)]
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
        world.cabs[m as usize].proto.coll = CollectiveEngine::new(coll_cfg);
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
    let stats = world.cabs[root].proto.coll.stats();
    let root_arrives_rx = stats.arrives_rx;
    let (retrans, replicas) = group.members.iter().fold((0, 0), |(rt, rp), &m| {
        let s = world.cabs[m as usize].proto.coll.stats();
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
        reduced_value: expected,
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

fn run_fleet(cfg: &FleetCfg) -> FleetResult {
    let topo = cfg.topology();
    let tree = run_shape(cfg, Shape::Tree);
    let chain = run_shape(cfg, Shape::Chain);
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

fn shape_json(s: &ShapeResult) -> String {
    format!(
        "{{\"shape\":\"{}\",\"depth\":{},\"total_ns\":{},\"per_epoch_ns\":{},\
         \"root_arrives_rx\":{},\"arrive_retransmits\":{},\"replicas\":{},\
         \"reduced_value\":{}}}",
        s.shape,
        s.depth,
        s.total_ns,
        s.per_epoch_ns,
        s.root_arrives_rx,
        s.arrive_retransmits,
        s.replicas,
        s.reduced_value
    )
}

fn to_json(quick: bool, fleets: &[FleetResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n\"seed\": {},\n\"mode\": \"{}\",\n\"epochs\": {},\n\"fanout\": {},\n\"fleets\": [\n",
        SEED,
        if quick { "quick" } else { "full" },
        EPOCHS,
        FANOUT
    ));
    for (i, f) in fleets.iter().enumerate() {
        let sep = if i + 1 < fleets.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"label\": \"{}\", \"fleet\": {}, \"hubs\": {}, \"stages\": {}, \
             \"tree_vs_chain_permille\": {},\n   \"tree\": {},\n   \"chain\": {}}}{}\n",
            f.label,
            f.fleet,
            f.hubs,
            f.stages,
            f.tree_vs_chain_permille(),
            shape_json(&f.tree),
            shape_json(&f.chain),
            sep
        ));
    }
    out.push_str("]\n}\n");
    out
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
    let results: Vec<FleetResult> = sizes.iter().map(run_fleet).collect();

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

    // the headline claim: at ≥256 members the log-depth tree must beat
    // the linear gather outright
    for f in results.iter().filter(|f| f.fleet >= 256) {
        assert!(
            f.tree.per_epoch_ns < f.chain.per_epoch_ns,
            "{}: tree ({} ns) no faster than chain ({} ns)",
            f.label,
            f.tree.per_epoch_ns,
            f.chain.per_epoch_ns
        );
    }

    nectar_bench::write_artifact("BENCH_collective.json", &to_json(quick, &results));
}
