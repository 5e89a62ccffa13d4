//! E8 — parallelization via the framework (§7): the wavefront recurrence,
//! sequential vs. the skewed schedule with a parallel inner loop, as
//! hand-compiled kernels; plus the interpreter-level outer-parallel
//! speedup on row-wise prefix sums (the parallel executor runs on the
//! `inl-vm` bytecode path), and interp-vs-VM on the sequential wavefront.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use inl_bench::{kernel_wavefront_sqrt_seq, kernel_wavefront_sqrt_skewed_parallel};
use inl_exec::{Interpreter, Machine, ParallelExecutor, VmRunner};
use inl_ir::zoo;
use std::hint::black_box;

fn wavefront_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8_wavefront_kernels");
    group.sample_size(10);
    let max_threads = std::thread::available_parallelism().map_or(2, |x| x.get());
    for n in [512usize, 2048] {
        let w = n + 1;
        let mut base = vec![0.0; w * w];
        for i in 0..w {
            for j in 0..w {
                base[i * w + j] = if i == 0 || j == 0 { 1.0 } else { 0.0 };
            }
        }
        group.bench_with_input(
            BenchmarkId::new("sequential_row_major", n),
            &base,
            |b, base| {
                b.iter(|| {
                    let mut a = base.clone();
                    kernel_wavefront_sqrt_seq(&mut a, n);
                    black_box(a[w + 1]);
                })
            },
        );
        let mut thread_counts = vec![1usize, 2, max_threads];
        thread_counts.dedup();
        for threads in thread_counts {
            group.bench_with_input(
                BenchmarkId::new(format!("skewed_parallel_{threads}t"), n),
                &base,
                |b, base| {
                    b.iter(|| {
                        let mut a = base.clone();
                        kernel_wavefront_sqrt_skewed_parallel(&mut a, n, threads);
                        black_box(a[w + 1]);
                    })
                },
            );
        }
    }
    group.finish();
}

fn outer_parallel_interpreter(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8_outer_parallel_interp");
    group.sample_size(10);
    let q = zoo::row_prefix_sums();
    let mut qpar = q.clone();
    let outer = qpar.loops().next().unwrap();
    qpar.set_loop_parallel(outer, true);
    let n: i128 = 400;
    let init = |_: &str, idx: &[usize]| (idx[0] + idx[1]) as f64 * 0.001;
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut m = Machine::new(&q, &[n], &init);
            Interpreter::new(&q).run(&mut m);
            black_box(m.array_by_name("B").unwrap()[5]);
        })
    });
    {
        let threads = 2usize;
        group.bench_function(format!("parallel_vm_{threads}t"), |b| {
            b.iter(|| {
                let mut m = Machine::new(&qpar, &[n], &init);
                ParallelExecutor::new(&qpar, threads).run_vm(&mut m);
                black_box(m.array_by_name("B").unwrap()[5]);
            })
        });
    }
    group.finish();
}

fn wavefront_backends(c: &mut Criterion) {
    // the dependence-carrying wavefront itself through both sequential
    // backends — the VM's win on a nest the parallel path can't split
    let mut group = c.benchmark_group("E8_wavefront_backends");
    group.sample_size(10);
    let p = zoo::wavefront();
    let runner = VmRunner::new(&p);
    let n: i128 = 200;
    let init = |_: &str, idx: &[usize]| {
        if idx[0] == 0 || idx[1] == 0 {
            1.0
        } else {
            0.0
        }
    };
    group.bench_function("interp", |b| {
        b.iter(|| {
            let mut m = Machine::new(&p, &[n], &init);
            Interpreter::new(&p).run(&mut m);
            black_box(m.array_by_name("A").unwrap()[3]);
        })
    });
    group.bench_function("vm", |b| {
        b.iter(|| {
            let mut m = Machine::new(&p, &[n], &init);
            runner.run(&mut m);
            black_box(m.array_by_name("A").unwrap()[3]);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    wavefront_kernels,
    outer_parallel_interpreter,
    wavefront_backends
);
criterion_main!(benches);
