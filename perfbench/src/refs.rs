//! Seeded inputs, the compile pipeline replayed through public calls, and
//! the independent references outputs are checked against.

use inl_codegen::{cost_features, generate};
use inl_core::complete::complete_transform;
use inl_core::{analyze, check_legal, InstanceLayout};
use inl_exec::{Interpreter, Machine};
use inl_ir::Program;
use inl_linalg::{IMat, IVec, Int};

use crate::ledger::Ledger;

/// SplitMix64 step: a small, well-mixed generator for seeded choices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic permutation of `0..n` drawn from `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = mix(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

fn unit(seed: u64, name: &str, idx: &[usize]) -> f64 {
    let mut h = mix(seed);
    for b in name.bytes() {
        h = mix(h ^ b as u64);
    }
    for &i in idx {
        h = mix(h ^ i as u64);
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded initial array values. Square arrays are symmetric and strictly
/// diagonally dominant (so every Cholesky order stays finite); the
/// perturbation in `[0, 1)` comes from `seed`, the array name and the
/// (unordered) index.
pub fn seeded_init(seed: u64) -> impl Fn(&str, &[usize]) -> f64 {
    move |name, idx| match idx {
        [i, j] if i == j => (*i + 10) as f64 + 0.5 * unit(seed, name, &[*i, *i]),
        [i, j] => {
            let (a, b) = if i < j { (*i, *j) } else { (*j, *i) };
            (1.0 + 0.25 * unit(seed, name, &[a, b])) / (a + b + 2) as f64
        }
        _ => 2.0 + idx.iter().sum::<usize>() as f64 + unit(seed, name, idx),
    }
}

/// Every loop order of `p` that an order string can name: all
/// permutations of its loop names, when those are distinct single
/// characters; empty otherwise.
pub fn order_strings(p: &Program) -> Vec<String> {
    let names: Vec<String> = p.loops().map(|l| p.loop_decl(l).name.clone()).collect();
    let distinct = names.iter().collect::<std::collections::HashSet<_>>().len() == names.len();
    if !distinct || names.iter().any(|n| n.chars().count() != 1) {
        return Vec::new();
    }
    let mut out = Vec::new();
    permute(&names, &mut Vec::new(), &mut out);
    out
}

fn permute(names: &[String], prefix: &mut Vec<usize>, out: &mut Vec<String>) {
    if prefix.len() == names.len() {
        out.push(prefix.iter().map(|&i| names[i].as_str()).collect());
        return;
    }
    for i in 0..names.len() {
        if !prefix.contains(&i) {
            prefix.push(i);
            permute(names, prefix, out);
            prefix.pop();
        }
    }
}

/// Unit partial rows for an order string, outermost slot first (the
/// service's documented meaning of `order`).
pub fn order_rows(p: &Program, layout: &InstanceLayout, order: &str) -> Vec<IVec> {
    order
        .chars()
        .map(|ch| {
            let l = p
                .loops()
                .find(|&l| p.loop_decl(l).name == ch.to_string())
                .expect("order names a loop of the program");
            IVec::unit(layout.len(), layout.loop_position(l))
        })
        .collect()
}

/// Outcome of one replayed compile: the generated program, or the reason
/// legality rejected the order.
pub type Compiled = Result<Program, String>;

/// Counts read around one replayed compile.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileCounts {
    pub bounds_scanned: u64,
    pub order_completed: bool,
}

/// Replay the service's compile pipeline through public calls, one span
/// per layer call: `InstanceLayout::new` → `analyze` → `complete_transform`
/// → `check_legal` → `generate` → `cost_features`. `check_legal` and
/// `cost_features` run only when `led` is tracing (they repeat work
/// `generate` already does, to time it on its own).
pub fn compile(
    p: &Program,
    order: Option<&str>,
    led: &mut Ledger,
    id: u64,
) -> (Compiled, CompileCounts) {
    let mut counts = CompileCounts::default();
    let layout = led.call("core.layout", id, || InstanceLayout::new(p));
    let deps = match led.call("depend.analyze", id, || analyze(p, &layout)) {
        Ok(d) => d,
        Err(e) => return (Err(format!("analysis failed: {e}")), counts),
    };
    let matrix = match order {
        None => IMat::identity(layout.len()),
        Some(ord) => {
            let rows = order_rows(p, &layout, ord);
            match led.call("complete.transform", id, || {
                complete_transform(p, &layout, &deps, &rows)
            }) {
                Ok(c) => {
                    counts.order_completed = true;
                    c.matrix
                }
                Err(e) => return (Err(format!("completion rejected the order: {e:?}")), counts),
            }
        }
    };
    let report = if led.tracing() {
        led.call("legal.check", id, || {
            check_legal(p, &layout, &deps, &matrix)
        })
        .ok()
    } else {
        None
    };
    let generated = match led.call("codegen.generate", id, || {
        generate(p, &layout, &deps, &matrix)
    }) {
        Ok(g) => g,
        Err(e) => return (Err(format!("codegen rejected the schedule: {e:?}")), counts),
    };
    counts.bounds_scanned = generated.features.bounds_scanned as u64;
    if let Some(Ok(ast)) = report.as_ref().map(|r| &r.new_ast) {
        led.call("codegen.cost", id, || {
            cost_features(
                &layout,
                &deps,
                &matrix,
                ast,
                &generated.program,
                generated.features.bounds_scanned,
                generated.features.loops_augmented,
            )
        });
    }
    (Ok(generated.program), counts)
}

/// Small parameter values reference checks run at: 7, 9, ... per
/// parameter.
pub fn check_params(p: &Program) -> Vec<Int> {
    (0..p.nparams() as Int).map(|k| 7 + 2 * k).collect()
}

/// The reference state: `p` run by the tree-walking interpreter.
pub fn interpret(p: &Program, params: &[Int], init: &dyn Fn(&str, &[usize]) -> f64) -> Machine {
    let mut m = Machine::new(p, params, init);
    Interpreter::new(p).run(&mut m);
    m
}

/// FNV-1a 64 over every array's name and `f64` bit patterns, in the
/// service's `Run` digest format: (hex digest, arrays, cells).
pub fn digest(m: &Machine) -> (String, u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut cells = 0u64;
    for a in m.arrays() {
        a.name.bytes().for_each(&mut step);
        for v in &a.data {
            v.to_bits().to_le_bytes().into_iter().for_each(&mut step);
            cells += 1;
        }
    }
    (format!("{h:016x}"), m.arrays().len() as u64, cells)
}

/// Bytes of array state a machine holds (8 per `f64` cell).
pub fn state_bytes(m: &Machine) -> u64 {
    m.arrays().iter().map(|a| a.data.len() as u64 * 8).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(50, 7);
        assert_eq!(a, shuffled(50, 7));
        assert_ne!(a, shuffled(50, 8));
        let mut s = a.clone();
        s.sort();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn init_is_symmetric_and_seeded() {
        let f = seeded_init(3);
        assert_eq!(f("A", &[2, 5]).to_bits(), f("A", &[5, 2]).to_bits());
        assert_ne!(f("A", &[2, 5]), seeded_init(4)("A", &[2, 5]));
        assert!(f("A", &[4, 4]) >= 14.0);
    }

    #[test]
    fn cholesky_orders_are_all_permutations() {
        assert_eq!(order_strings(&inl_ir::zoo::cholesky_kij()).len(), 24);
        assert!(order_strings(&inl_ir::zoo::lu_kij()).is_empty());
    }
}
