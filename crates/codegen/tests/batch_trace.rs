//! A Chrome trace exported the moment `compile_batch` returns must hold
//! every worker's `batch.compile` slice — exactly one per variant, none
//! lost to a worker thread whose thread-local ring has not retired yet.
//! Its own test binary, so no other test's workers share the timeline.

use inl_codegen::compile_batch;
use inl_core::complete::complete_transform;
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_ir::zoo;
use inl_linalg::{IMat, IVec};
use inl_obs::{timeline, Json};

#[test]
fn trace_right_after_batch_has_one_slice_per_variant() {
    let p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let j = p.loops().find(|&l| p.loop_decl(l).name == "J").unwrap();
    let interchange = vec![IVec::unit(layout.len(), layout.loop_position(j))];
    let variants: Vec<(String, IMat)> = (0..8)
        .map(|i| {
            let partial = if i % 2 == 0 {
                vec![]
            } else {
                interchange.clone()
            };
            let c = complete_transform(&p, &layout, &deps, &partial).expect("completes");
            (format!("v{i}"), c.matrix)
        })
        .collect();

    inl_obs::set_timeline_enabled(true);
    // repeated so the window between a worker leaving `thread::scope` and
    // its thread-local destructor running is hit many times
    for round in 0..50 {
        timeline::reset();
        compile_batch(&p, &layout, &deps, &variants, 4).expect("compiles");
        let trace = timeline::export_chrome_trace();
        let Some(Json::Array(events)) = trace.get("traceEvents") else {
            panic!("missing traceEvents")
        };
        let mut seen: Vec<u64> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("batch.compile"))
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("args")?.get("variant")?.as_u64())
            .collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..variants.len() as u64).collect::<Vec<_>>(),
            "round {round}: one batch.compile slice per variant"
        );
        assert_eq!(timeline::dropped_total(), 0, "round {round}");
    }
    inl_obs::set_timeline_enabled(false);
}
