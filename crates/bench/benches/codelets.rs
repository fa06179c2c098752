//! Codelet microbenchmarks: the compiled straight-line kernels vs.
//! interpreting the DAG they were printed from (`Dag::eval`, the test
//! oracle) — what compiling the codelets buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spiral_codegen::codelet::Codelet;
use spiral_spl::cplx::Cplx;

fn bench_codelets(c: &mut Criterion) {
    let mut group = c.benchmark_group("codelets");
    for n in [2usize, 4, 8, 16, 32] {
        let x: Vec<Cplx> = (0..n).map(|k| Cplx::new(k as f64, -1.0)).collect();
        let mut out = vec![Cplx::ZERO; n];
        let mut scratch = Vec::new();

        let codelet = Codelet::for_size(n);
        group.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| {
                codelet.apply(&x, &mut out, &mut scratch);
                out[0]
            });
        });

        let dag = codelet.dag();
        group.bench_with_input(BenchmarkId::new("dag_interp", n), &n, |b, _| {
            b.iter(|| {
                dag.eval(&x, &mut out, &mut scratch);
                out[0]
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_codelets
}
criterion_main!(benches);
