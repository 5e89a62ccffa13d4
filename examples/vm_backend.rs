//! The bytecode VM backend: compile a loop nest once to flat register
//! bytecode, then run it many times — and check it is bitwise identical
//! to the reference interpreter.
//!
//! ```sh
//! cargo run --example vm_backend
//! ```

use inl::exec::{run_fresh, run_fresh_with, Backend, Machine, VmRunner};
use inl::ir::zoo;

fn spd(_: &str, idx: &[usize]) -> f64 {
    if idx[0] == idx[1] {
        (idx[0] + 10) as f64
    } else {
        1.0 / ((idx[0] + idx[1] + 2) as f64)
    }
}

fn main() {
    let p = zoo::cholesky_kij();

    // `Backend` is the one-shot entry point: pick a backend per call.
    for backend in [Backend::Interp, Backend::Vm] {
        let m = run_fresh_with(backend, &p, &[6], &spd);
        println!(
            "{backend:?}: A[0..4] = {:?}",
            &m.array_by_name("A").unwrap()[..4]
        );
    }
    println!();

    // The two-stage lowering, spelled out. `compile` is parameter-
    // symbolic: bounds, guards and subscripts become integer coefficient
    // rows over a flat register file.
    let cp = inl::vm::compile(&p);
    println!(
        "compiled {}: {} instructions, {} f64 registers",
        p.name(),
        cp.ninstrs(),
        cp.nfregs
    );
    println!("{}", cp.disasm(&p));

    // `VmRunner` wraps compile-once / run-per-parameter-binding; `bind`
    // happens inside `run` against the machine's parameters.
    let runner = VmRunner::new(&p);
    for n in [2i128, 4, 8, 16] {
        let interp = run_fresh(&p, &[n], &spd);
        let mut vm = Machine::new(&p, &[n], &spd);
        runner.run(&mut vm);
        println!(
            "N={n:2}: VM bitwise-identical to interpreter? {}",
            interp.same_state(&vm).is_ok()
        );
    }
}
