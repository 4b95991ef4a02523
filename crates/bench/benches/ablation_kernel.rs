//! Ablation **A3** (DESIGN.md): the event-driven kernel vs the naive
//! evaluate-everything-per-cycle baseline on the *same* design. The paper
//! motivates software event-driven simulation by speed ("RTL simulation
//! based on software languages can be faster than commercial HDL
//! simulators"); the cycle sweeper stands in for the slow comparator and
//! additionally cross-checks results word for word.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eventsim::cyclesim::{CycleOutcome, CycleSim};
use eventsim::{RunOutcome, SimTime, Simulator};
use fpgatest::elaborate::fsm_to_table;
use fpgatest::workloads;
use nenya::{compile, CompileOptions};
use std::hint::black_box;

struct Prepared {
    netlist: eventsim::netlist::Netlist,
    fsm: nenya::fsm::Fsm,
    image: Vec<i64>,
}

fn prepare(pixels: usize) -> Prepared {
    let design = compile(
        "fdct1",
        &workloads::fdct_source(pixels),
        &CompileOptions {
            width: 32,
            ..CompileOptions::default()
        },
    )
    .expect("fdct compiles");
    let config = &design.configs[0];
    let dp_doc = nenya::xml::emit_datapath(&config.datapath);
    let hds = xform::apply(xform::stylesheets::datapath_to_hds(), dp_doc.root())
        .expect("stylesheet applies");
    Prepared {
        netlist: eventsim::hds::parse(&hds).expect("hds parses"),
        fsm: config.fsm.clone(),
        image: workloads::test_image(pixels),
    }
}

/// Runs the design on the event kernel; returns the output image.
fn run_event(p: &Prepared) -> Vec<Option<i64>> {
    let mut sim = Simulator::new();
    let map = p.netlist.elaborate(&mut sim).expect("elaborates");
    let clk = map.signal("clk").expect("clk");
    fpgatest::elaborate::attach_control_unit(&mut sim, &map, &p.fsm, clk).expect("fsm binds");
    for (addr, &v) in p.image.iter().enumerate() {
        map.mems["img"].store(addr, v);
    }
    let summary = sim.run(SimTime(u64::MAX / 4)).expect("no kernel error");
    assert!(matches!(summary.outcome, RunOutcome::Stopped(_)));
    map.mems["out"].snapshot()
}

/// Runs the same design on the cycle sweeper; returns the output image.
fn run_cycle(p: &Prepared) -> Vec<Option<i64>> {
    let mut sim = CycleSim::from_netlist(&p.netlist).expect("cycle model builds");
    let (table, conds, outs) = fsm_to_table(&p.fsm).expect("fsm converts");
    let cond_refs: Vec<&str> = conds.iter().map(String::as_str).collect();
    let out_refs: Vec<(&str, u32)> = outs.iter().map(|(n, w)| (n.as_str(), *w)).collect();
    sim.add_control_unit(&p.fsm.name, &cond_refs, &out_refs, table)
        .expect("control unit binds");
    for (addr, &v) in p.image.iter().enumerate() {
        sim.mem("img").expect("img").store(addr, v);
    }
    let summary = sim.run(50_000_000).expect("cycle run");
    assert_eq!(summary.outcome, CycleOutcome::Done);
    sim.mem("out").expect("out").snapshot()
}

fn ablation_kernel(c: &mut Criterion) {
    let prepared = prepare(128);

    // Cross-check once: both engines must agree word for word.
    let ev = run_event(&prepared);
    let cy = run_cycle(&prepared);
    assert_eq!(ev, cy, "engines disagree on the FDCT output image");

    let mut group = c.benchmark_group("ablation_kernel");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("event_kernel", "fdct1_128px"), |b| {
        b.iter(|| black_box(run_event(&prepared)));
    });
    group.bench_function(BenchmarkId::new("cycle_baseline", "fdct1_128px"), |b| {
        b.iter(|| black_box(run_cycle(&prepared)));
    });
    group.finish();
}

criterion_group!(benches, ablation_kernel);
criterion_main!(benches);
