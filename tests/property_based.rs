//! Property-based tests on the framework's invariants, over the random
//! imperfectly nested programs of [`inl_fuzz::arb_program`] (shapes,
//! triangular bounds, guards, sibling nests):
//!
//! * Theorem 1: execution order = lexicographic order on instance vectors,
//!   for *random* imperfectly nested programs;
//! * legality soundness: any legal transformation of a random program over
//!   a random transformation sequence generates code that executes
//!   bitwise identically;
//! * dependence soundness: if the checker declares a matrix legal with no
//!   unsatisfied dependences, execution agrees.

use inl::codegen::generate;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::transform::Transform;
use inl::exec::{equivalent, run_traced};
use inl::ir::Program;
use inl::linalg::lex::lex_cmp;
use inl_fuzz::arb_program;
use proptest::prelude::*;
use std::cmp::Ordering;

/// A random transformation sequence over the program's loops/statements.
fn arb_transforms(p: &Program) -> impl Strategy<Value = Vec<Transform>> {
    let loops: Vec<_> = p.loops().collect();
    let stmts: Vec<_> = p.stmts().collect();
    let single = (
        0..5usize,
        0..loops.len(),
        0..loops.len(),
        -2..=2i64,
        0..stmts.len(),
    )
        .prop_map(move |(kind, a, b, f, s)| match kind {
            0 => Transform::Interchange(loops[a], loops[b % loops.len().max(1)]),
            1 => Transform::Reverse(loops[a]),
            2 => Transform::Skew {
                target: loops[a],
                source: loops[b % loops.len()],
                factor: f as i128,
            },
            3 => Transform::Scale {
                target: loops[a],
                factor: (f.unsigned_abs() as i128) + 1,
            },
            _ => Transform::Align {
                stmt: stmts[s],
                looop: loops[a],
                offset: f as i128,
            },
        });
    prop::collection::vec(single, 1..3)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Theorem 1 holds on random programs.
    #[test]
    fn execution_order_is_lex_order((p, n) in arb_program().prop_flat_map(|p| (Just(p), 1i64..5))) {
        let layout = InstanceLayout::new(&p);
        let (_, trace) = run_traced(&p, &[n as i128], &|_, _| 0.0);
        let vecs: Vec<_> = trace
            .instances
            .iter()
            .map(|r| layout.instance_vector(r.stmt, &r.iter))
            .collect();
        for w in vecs.windows(2) {
            prop_assert_eq!(lex_cmp(&w[0], &w[1]), Ordering::Less);
        }
    }

    /// Soundness: whenever the framework accepts a transformation and
    /// generates code, execution is bitwise identical.
    #[test]
    fn legal_codegen_is_semantics_preserving(
        (p, seq) in arb_program().prop_flat_map(|p| {
            let t = arb_transforms(&p);
            (Just(p), t)
        })
    ) {
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let Ok(m) = Transform::compose(&p, &layout, &seq) else {
            return Ok(()); // structurally invalid transform (e.g. alignment without edge)
        };
        let Ok(result) = generate(&p, &layout, &deps, &m) else {
            return Ok(()); // rejected as illegal or unsupported: fine
        };
        for n in [1i128, 2, 4] {
            let r = equivalent(&p, &result.program, &[n], &|_, idx| {
                (idx[0] * 7 + idx.get(1).copied().unwrap_or(0) * 3 + 1) as f64 * 0.125
            });
            prop_assert!(
                r.is_ok(),
                "seq {:?} on {}: {}\nsource:\n{}\ntarget:\n{}",
                seq,
                p.name(),
                r.unwrap_err(),
                p.to_pseudocode(),
                result.program.to_pseudocode()
            );
        }
    }

    /// The dependence matrix always has lexicographically non-negative
    /// instance-vector differences (execution order).
    #[test]
    fn dependences_are_lex_nonnegative(p in arb_program()) {
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        for d in &deps.deps {
            let lead = d.entries.iter().find(|e| !e.is_zero());
            if let Some(e) = lead {
                prop_assert!(
                    e.lo.is_some_and(|l| l >= 0),
                    "dependence with lex-negative difference: {}",
                    deps.display()
                );
            }
        }
    }
}
