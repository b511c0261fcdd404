//! Criterion micro-benchmarks of the mapper's inner loops: BFS over the
//! occupied graph, SWAP selection, multi-qubit position finding, move
//! chain construction, and commutation-aware DAG building.

use criterion::{criterion_group, criterion_main, Criterion};
use na_arch::{HardwareParams, NeighborTable, Neighborhood, Site};
use na_circuit::generators::Qft;
use na_circuit::{CircuitDag, Qubit};
use na_mapper::decision::Capability;
use na_mapper::route::distance::{bfs_occupied, bfs_occupied_table_into};
use na_mapper::route::gate::RoutedGate;
use na_mapper::{
    FrontierGate, GateRouter, MapperConfig, MappingState, RouteScratch, RoutingContext,
    ShuttleRouter,
};

fn paper_state() -> (HardwareParams, MappingState) {
    let params = HardwareParams::mixed();
    let state = MappingState::identity(&params, 200).expect("fits");
    (params, state)
}

fn bench_bfs(c: &mut Criterion) {
    let (params, state) = paper_state();
    let hood = Neighborhood::new(params.r_int);
    let table = NeighborTable::build(state.lattice(), &hood);
    c.bench_function("bfs_occupied_15x15", |b| {
        b.iter(|| bfs_occupied(&state, &[Site::new(0, 0)], &hood))
    });
    let mut dist = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    c.bench_function("bfs_occupied_csr_15x15", |b| {
        b.iter(|| {
            bfs_occupied_table_into(&state, &[Site::new(0, 0)], &table, &mut dist, &mut queue)
        })
    });
}

fn bench_best_swap(c: &mut Criterion) {
    let (params, mut state) = paper_state();
    let hood = Neighborhood::new(params.r_int);
    let table = NeighborTable::build(state.lattice(), &hood);
    let mut scratch = RouteScratch::new();
    let router = GateRouter::new(&params, &MapperConfig::gate_only());
    // A frontier of 8 distant 2-qubit gates.
    let front: Vec<RoutedGate> = (0..8)
        .map(|i| RoutedGate {
            op_index: i,
            qubits: vec![Qubit(i as u32), Qubit(199 - i as u32)],
            position: None,
        })
        .collect();
    c.bench_function("best_swap_front8", |b| {
        b.iter(|| {
            let mut ctx = RoutingContext::new(&mut state, &table, params.r_int, &mut scratch);
            router.best_swap(&mut ctx, &front, &[])
        })
    });
}

fn bench_find_position(c: &mut Criterion) {
    let (params, mut state) = paper_state();
    let hood = Neighborhood::new(params.r_int);
    let table = NeighborTable::build(state.lattice(), &hood);
    let mut scratch = RouteScratch::new();
    let router = GateRouter::new(&params, &MapperConfig::gate_only());
    let qubits = [Qubit(0), Qubit(100), Qubit(199)];
    c.bench_function("find_position_c2z", |b| {
        b.iter(|| {
            let mut ctx = RoutingContext::new(&mut state, &table, params.r_int, &mut scratch);
            router.find_position(&mut ctx, &qubits)
        })
    });
}

fn bench_move_chains(c: &mut Criterion) {
    let (params, mut state) = paper_state();
    let hood = Neighborhood::new(params.r_int);
    let table = NeighborTable::build(state.lattice(), &hood);
    let mut scratch = RouteScratch::new();
    let router = ShuttleRouter::new(&params, &MapperConfig::shuttle_only());
    let front: Vec<FrontierGate> = (0..8)
        .map(|i| FrontierGate {
            op_index: i,
            qubits: vec![Qubit(i as u32), Qubit(199 - i as u32)],
            capability: Capability::Shuttling,
        })
        .collect();
    let front_refs: Vec<&FrontierGate> = front.iter().collect();
    c.bench_function("best_chain_front8", |b| {
        b.iter(|| {
            let mut ctx = RoutingContext::new(&mut state, &table, params.r_int, &mut scratch);
            router.best_chains(&mut ctx, &front_refs, &[])
        })
    });
}

fn bench_dag_construction(c: &mut Criterion) {
    let qft = Qft::new(100).build();
    c.bench_function("dag_qft100", |b| b.iter(|| CircuitDag::new(&qft)));
}

criterion_group!(
    benches,
    bench_bfs,
    bench_best_swap,
    bench_find_position,
    bench_move_chains,
    bench_dag_construction
);
criterion_main!(benches);
