//! Criterion benches for graph construction and setup-packet emission
//! (the source-side CPU cost of Algorithm 1, per L and d).

// criterion_group! expands to an undocumented fn.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slicing_graph::{build, GraphParams, OverlayAddr};

fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
    (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
}

fn setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for (l, d) in [(5usize, 2usize), (8, 3), (12, 4)] {
        let pseudo = addrs(1_000, d);
        let candidates = addrs(10_000, l * d + 8);
        group.bench_with_input(
            BenchmarkId::new("build", format!("L{l}_d{d}")),
            &(l, d),
            |b, &(l, d)| {
                let mut rng = StdRng::seed_from_u64(17);
                b.iter(|| {
                    build::build(
                        GraphParams::new(l, d),
                        &pseudo,
                        &candidates,
                        OverlayAddr(1),
                        &mut rng,
                    )
                    .unwrap()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("setup_packets", format!("L{l}_d{d}")),
            &(l, d),
            |b, &(l, d)| {
                let mut rng = StdRng::seed_from_u64(17);
                let (graph, blueprint) = build::build(
                    GraphParams::new(l, d),
                    &pseudo,
                    &candidates,
                    OverlayAddr(1),
                    &mut rng,
                )
                .unwrap();
                b.iter(|| blueprint.setup_packets(&graph));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, setup);
criterion_main!(benches);
