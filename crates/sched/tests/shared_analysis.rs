//! Differential: the one analysis per shape that `schedule_with` threads
//! through its search, batch compile and alignment refinement generates
//! exactly the code a fresh, independent analysis does.
//!
//! For each checked variant, its shape program gets a freshly built
//! `InstanceLayout` and `depend::analyze`, and `generate` on the
//! variant's matrix must reproduce the scheduler's pseudocode byte for
//! byte. Every variant of the zoo programs with 1–3 loops is checked; the
//! 4-loop Cholesky/LU programs have hundreds of variants, so every 7th
//! of theirs is, to bound debug-build test time.

use inl_codegen::generate;
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_sched::sweep::SWEEP_ZOO;
use inl_sched::{schedule_with, SchedConfig};

#[test]
fn shared_analysis_generates_what_a_fresh_analysis_does() {
    let cfg = SchedConfig {
        threads: 1,
        ..SchedConfig::default()
    };
    for (name, ctor, _) in SWEEP_ZOO {
        let p = ctor();
        let stride = if p.loops().count() >= 4 { 7 } else { 1 };
        let r = schedule_with(&p, &cfg).expect("schedules");
        let mut checked = 0;
        for v in r.variants.iter().step_by(stride) {
            let shape = &r.shapes[v.shape_index];
            let layout = InstanceLayout::new(shape);
            let deps = analyze(shape, &layout).expect("fresh analysis");
            let fresh = generate(shape, &layout, &deps, &v.matrix)
                .unwrap_or_else(|e| panic!("{name} {}: fresh generate failed: {e:?}", v.label));
            assert_eq!(
                fresh.program.to_pseudocode(),
                v.pseudocode,
                "{name} {}: shared analysis diverged from a fresh one",
                v.label
            );
            checked += 1;
        }
        assert!(checked > 0, "{name}: no variant checked");
    }
}
