//! Telemetry overhead guarantees, enforced with a counting allocator.
//!
//! The engine calls into telemetry on every step (clock reads, span
//! records, counter samples), and since the flight recorder landed it also
//! feeds job counters and the per-node usage sampler from the same loop.
//! Those calls must be allocation-free: a disabled handle is a single
//! branch, an enabled handle pushes `Copy` records into preallocated
//! rings, and counter/usage accumulation is flat array arithmetic. This
//! binary holds exactly one test, and the counter only tracks the test's
//! own thread: the libtest harness's main thread lazily initialises its
//! result-channel thread-locals at an arbitrary instant while the test
//! body runs, and those harness allocations are not ours to forbid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Raised by the test thread only; allocations on any other thread
    /// (the libtest harness) leave the counter untouched.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn step_loop_telemetry_calls_do_not_allocate() {
    use telemetry::ArgValue;

    COUNTED.with(|c| c.set(true));

    // --- disabled handle: the default-build hot path ---
    let telem = telemetry::Telemetry::disabled();
    // handle creation may allocate (detached atomics); done before measuring
    let counter = telem.counter("engine.steps");
    let hist = telem.histogram("engine.step_duration_us");
    let args = [("job", ArgValue::U64(1)), ("node", ArgValue::U64(2))];

    let before = allocs();
    for i in 0..10_000u64 {
        let t0 = telem.clock_us();
        telem.record_span("step", "allocate_nodes", t0, i);
        telem.counter_sample("map_slot_target", i, 12.0);
        telem.instant("lifecycle", "map_launched", i, &args);
        counter.inc();
        hist.record(i);
        let _ = telem.is_enabled();
    }
    assert_eq!(
        allocs() - before,
        0,
        "disabled telemetry must add zero heap allocations to the step loop"
    );

    // --- enabled handle: spans and counter samples land in preallocated
    // rings, so the steady state stays allocation-free too ---
    let telem = telemetry::Telemetry::with_capacity(64, 64);
    let counter = telem.counter("engine.steps");
    let before = allocs();
    for i in 0..10_000u64 {
        let t0 = telem.clock_us();
        telem.record_span("step", "allocate_nodes", t0, i);
        telem.counter_sample("map_slot_target", i, 12.0);
        counter.inc();
    }
    assert_eq!(
        allocs() - before,
        0,
        "enabled rings are preallocated: pushes past capacity overwrite, never grow"
    );
    assert!(telem.dropped_spans() > 0, "ring really wrapped");

    // --- flight-recorder accumulation: job counters and the per-node
    // usage sampler run on the same per-step path and must be equally
    // allocation-free (construction happens once, before measuring) ---
    use mapreduce::{Counter, CounterLedger};
    use simgrid::node::NodeSpec;
    use simgrid::usage::NodeUsageSampler;

    let mut ledger = CounterLedger::new();
    let specs = [NodeSpec::paper_worker(); 4];
    let mut sampler = NodeUsageSampler::new(&specs);
    let before = allocs();
    for i in 0..10_000u64 {
        ledger.add(Counter::HdfsBytesRead, 0.5);
        ledger.inc(Counter::TotalLaunchedMaps);
        let _ = ledger.get(Counter::HdfsBytesRead);
        sampler.accumulate((i % 4) as usize, 1.0, 8.0, 110.0, 60.0, 3, 2);
    }
    assert_eq!(
        allocs() - before,
        0,
        "counter and usage accumulation must add zero allocations per step"
    );

    // --- dense allocate phase: once a warm-up round has sized the
    // epoch-stamped fabric slabs and the positional rate buffer, the whole
    // allocate → usage-sample path must stay allocation-free — at the
    // paper's 16-node testbed and at 256 nodes alike, since slab sizing is
    // the only thing cluster scale changes ---
    use simgrid::cluster::NodeId;
    use simgrid::network::{Fabric, FabricConfig, FabricScratch, Flow, FlowId};

    for nodes in [16usize, 256] {
        let fabric = Fabric::new(FabricConfig::paper_gbe());
        // a shuffle-shaped flow set: a ring of bounded-demand transfers
        // plus an unbounded fan-in hotspot on node 0 (exercises the
        // incast degradation and the contended water-filling rounds)
        let flows: Vec<Flow> = (0..nodes)
            .map(|i| Flow {
                id: FlowId(i as u64),
                src: NodeId(i),
                dst: NodeId((i + 1) % nodes),
                demand: 40.0,
            })
            .chain((1..12).map(|i| Flow {
                id: FlowId((nodes + i) as u64),
                src: NodeId(i),
                dst: NodeId(0),
                demand: f64::INFINITY,
            }))
            .collect();
        let node_specs = vec![NodeSpec::paper_worker(); nodes];
        let mut usage = NodeUsageSampler::new(&node_specs);
        let mut scratch = FabricScratch::new();
        let mut rates = Vec::new();
        let up = vec![true; nodes];
        let cpu = vec![4.0; nodes];
        let disk = vec![60.0; nodes];
        let mut nic_in = vec![0.0; nodes];
        let mut nic_out = vec![0.0; nodes];
        let occ = vec![2usize; nodes];
        // warm-up: sizes the slabs once
        fabric.allocate_into(&flows, nodes, &mut scratch, &mut rates);
        let before = allocs();
        for _ in 0..1_000 {
            fabric.allocate_into(&flows, nodes, &mut scratch, &mut rates);
            for ((fin, fout), &r) in nic_in.iter_mut().zip(nic_out.iter_mut()).zip(&rates) {
                *fout = r;
                *fin = r;
            }
            usage.accumulate_all(0.1, &up, &cpu, &disk, &nic_in, &nic_out, &occ, &occ);
        }
        assert_eq!(
            allocs() - before,
            0,
            "warm dense allocate phase must be allocation-free at {nodes} nodes"
        );
    }

    // --- arena recycling: after a warm-up cell has sized every scratch
    // buffer, a steady-state loop of same-shaped cells must never grow
    // them again — the sweep pool's per-worker arenas stay flat ---
    use harness::runner::{CellRequest, System as SweepSystem};
    use mapreduce::{EngineArena, EngineConfig};
    use sweepengine::SweepCell;
    use workloads::Puma;

    let cell = CellRequest::cold(
        EngineConfig::small_test(4, 0),
        vec![Puma::Grep.job(0, 512.0, 8, Default::default())],
        SweepSystem::SMapReduce,
        1,
    );
    let mut arena = EngineArena::new();
    cell.run(&mut arena).expect("warm-up cell");
    let after_warmup = arena.growth_events();
    for _ in 0..8 {
        cell.run(&mut arena).expect("steady-state cell");
    }
    assert_eq!(
        arena.growth_events(),
        after_warmup,
        "steady-state cells must reuse warm-up capacity, not regrow the arena"
    );
    assert_eq!(arena.cells_served(), 9);
    assert_eq!(
        arena.cells_recycled(),
        8,
        "every cell after the fresh warm-up must recycle"
    );
}
