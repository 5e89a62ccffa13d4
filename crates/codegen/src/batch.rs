//! Parallel compile-side batch driver: generate code for many
//! transformation matrices of one program across a thread pool.
//!
//! Every candidate matrix of a program is tested and generated against
//! the same §3 dependence matrix, so the caller analyzes the program once
//! and passes `(layout, deps)` in; each job is then `generate` alone.
//! The poly query cache (`inl_poly::cache`) is what makes the repeated
//! legality and bound sub-systems cheap across jobs. Workers pull jobs
//! from a shared atomic index (a work-stealing-free queue) and every job
//! records a `batch.compile` timeline slice tagged with its variant
//! index, so a Chrome trace shows the per-variant schedule across worker
//! threads.

use crate::cost::CostFeatures;
use crate::generate::{generate, CodegenError};
use inl_core::depend::DependenceMatrix;
use inl_core::instance::InstanceLayout;
use inl_ir::Program;
use inl_linalg::IMat;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One compiled variant out of [`compile_batch`].
#[derive(Clone, Debug)]
pub struct CompiledVariant {
    /// The variant's label (e.g. its loop order, `"KJLI"`).
    pub label: String,
    /// Pseudocode of the generated program — the batch drivers compare
    /// this text across runs to assert bitwise-identical output.
    pub pseudocode: String,
    /// The generated program itself (runnable through `inl-exec`).
    pub program: Program,
    /// Static cost features of the variant (the scheduler's ranking
    /// signal), as computed by [`crate::cost::cost_features`].
    pub features: CostFeatures,
    /// Wall time of this job's code generation alone.
    pub wall_ns: u64,
}

/// Compile every `(label, matrix)` variant of `p` on `threads` worker
/// threads (`0` = one per available core), against `p`'s `layout` and
/// dependence matrix `deps`. Results come back in variant order
/// regardless of which worker ran which job. If any variant fails to
/// generate, the error of the first failing variant (in variant order)
/// is returned.
pub fn compile_batch(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    variants: &[(String, IMat)],
    threads: usize,
) -> Result<Vec<CompiledVariant>, CodegenError> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let compile = |i: usize, (label, m): &(String, IMat)| {
        let _slice = inl_obs::timeline::scope_args("batch.compile", &[("variant", i as i64)]);
        let _span = inl_obs::span("batch.compile");
        let t0 = Instant::now();
        let r = generate(p, layout, deps, m)?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        Ok(CompiledVariant {
            label: label.clone(),
            pseudocode: r.program.to_pseudocode(),
            program: r.program,
            features: r.features,
            wall_ns,
        })
    };
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<CompiledVariant, CodegenError>)> =
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(variants.len().max(1)))
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(v) = variants.get(i) else {
                                break done;
                            };
                            done.push((i, compile(i, v)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
    // each index was claimed by exactly one worker
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_core::complete::complete_transform;
    use inl_core::depend::analyze;
    use inl_ir::zoo;
    use inl_linalg::IVec;

    #[test]
    fn batch_returns_program_and_features() {
        // two legal variants of simple Cholesky: identity completion and
        // the J-outer interchange; the batch result must carry a runnable
        // program whose pseudocode matches, and non-default features.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let j = p.loops().find(|&l| p.loop_decl(l).name == "J").unwrap();
        let variants: Vec<(String, IMat)> = [
            ("IJ".to_string(), vec![]),
            (
                "JI".to_string(),
                vec![IVec::unit(layout.len(), layout.loop_position(j))],
            ),
        ]
        .into_iter()
        .map(|(label, partial)| {
            let c = complete_transform(&p, &layout, &deps, &partial).expect("completes");
            (label, c.matrix)
        })
        .collect();
        let out = compile_batch(&p, &layout, &deps, &variants, 2).expect("compiles");
        assert_eq!(out.len(), 2);
        for (v, (label, _)) in out.iter().zip(&variants) {
            assert_eq!(&v.label, label, "results come back in variant order");
            assert_eq!(v.pseudocode, v.program.to_pseudocode());
            assert!(v.features.deps > 0, "{}: features populated", v.label);
        }
    }

    #[test]
    fn illegal_matrix_is_an_error_not_a_panic() {
        // reversing simple Cholesky's outer loop runs the I iterations
        // backwards against their carried flow dependence
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i = p.loops().find(|&l| p.loop_decl(l).name == "I").unwrap();
        let mut reversed = IMat::identity(layout.len());
        let pos = layout.loop_position(i);
        reversed[(pos, pos)] = -1;
        let variants = vec![
            ("id".to_string(), IMat::identity(layout.len())),
            ("I'".to_string(), reversed),
        ];
        for threads in [1, 2] {
            let err = compile_batch(&p, &layout, &deps, &variants, threads)
                .expect_err("an illegal variant fails the batch");
            assert!(matches!(err, CodegenError::Illegal(_)), "{err:?}");
        }
    }
}
