//! The completion procedure (§6 of the paper).
//!
//! Given a dependence matrix and a *partial* transformation — the desired
//! rows for the first few loop slots — produce a complete legal
//! transformation matrix. This generalizes the Li–Pingali completion for
//! perfectly nested loops \[10\]:
//!
//! * loop slots are processed outside-in; each gets either the next
//!   user-supplied row or a greedily chosen candidate (unit position
//!   selectors, then their negations, then pairwise skew combinations)
//!   that keeps every still-active dependence non-negative — preferring
//!   candidates that *strictly satisfy* the most dependences;
//! * dependences whose projection ends up all-zero between *different*
//!   statements are satisfied syntactically: they impose "source's child
//!   before target's child" constraints at the divergence node, which a
//!   topological sort turns into the child permutations (the edge rows);
//! * leftover all-zero *self* dependences are legal — the augmentation
//!   step (§5.4) adds loops that carry them.
//!
//! The §6 worked example — completing "make the updated-column position
//! outermost" on right-looking Cholesky into the left-looking form — is
//! reproduced in the tests.

use crate::depend::{DepEntry, Dependence, DependenceMatrix};
use crate::instance::{InstanceLayout, Position};
use crate::legal::{check_legal, LegalityReport};
use inl_ir::{LoopId, Node, Program, StmtId};
use inl_linalg::{IMat, IVec, InlError, Int};
use inl_poly::{is_empty, Feasibility, LinExpr};
use std::collections::HashMap;

/// Why completion failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompletionError {
    /// A user-supplied row would make some dependence's projection
    /// negative.
    PartialRowIllegal(usize),
    /// A user-supplied row's length does not match the instance-vector
    /// length.
    PartialRowBadLength {
        /// Index of the offending row in `partial`.
        row: usize,
        /// Its actual length.
        got: usize,
        /// The instance-vector length it must have.
        want: usize,
    },
    /// More partial rows than loop slots.
    TooManyRows,
    /// No candidate row was valid for the given slot.
    NoCandidate(usize),
    /// The syntactic ordering constraints are cyclic.
    OrderingCycle,
    /// The assembled matrix failed the final legality check.
    FinalCheckFailed(String),
    /// Exact arithmetic overflowed (or a polyhedral budget was exhausted)
    /// while evaluating candidate rows.
    Arithmetic(InlError),
}

impl From<InlError> for CompletionError {
    fn from(e: InlError) -> Self {
        CompletionError::Arithmetic(e)
    }
}

/// A successful completion.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The complete legal transformation matrix.
    pub matrix: IMat,
    /// Its legality report (always legal; carries the recovered AST and
    /// the self-dependences left to augmentation).
    pub report: LegalityReport,
}

/// Per-dependence completion state.
struct DepState<'a> {
    /// Index into `deps.deps` (names the dependence in explain records).
    idx: usize,
    dep: &'a Dependence,
    /// Common loop positions (ascending) of src/dst.
    common: Vec<usize>,
    /// Rows already applied at this dependence's common slots that may be
    /// zero on some instances (context for exact queries).
    zero_context: Vec<IVec>,
    satisfied: bool,
}

/// Interval of `row · entries`. Bounds that overflow widen to "unbounded"
/// — sound, and inconclusive intervals fall through to the exact check.
fn row_dot(row: &IVec, entries: &[DepEntry]) -> DepEntry {
    let mut acc = DepEntry::dist(0);
    for (j, &c) in row.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let e = entries[j];
        let scaled = if c > 0 {
            DepEntry {
                lo: e.lo.and_then(|x| x.checked_mul(c)),
                hi: e.hi.and_then(|x| x.checked_mul(c)),
            }
        } else {
            DepEntry {
                lo: e.hi.and_then(|x| x.checked_mul(c)),
                hi: e.lo.and_then(|x| x.checked_mul(c)),
            }
        };
        acc = DepEntry {
            lo: acc.lo.zip(scaled.lo).and_then(|(a, b)| a.checked_add(b)),
            hi: acc.hi.zip(scaled.hi).and_then(|(a, b)| a.checked_add(b)),
        };
    }
    acc
}

/// `row · Δ` as a linear expression over the dependence polyhedron.
fn row_expr(
    layout: &InstanceLayout,
    nparams: usize,
    d: &Dependence,
    row: &IVec,
) -> Result<LinExpr, InlError> {
    let space = d.system.nvars();
    let mut acc = LinExpr::zero(space);
    for (j, &c) in row.iter().enumerate() {
        if c != 0 {
            let term = d.checked_delta_expr(layout, nparams, j)?.checked_scale(c)?;
            acc = acc.checked_add(&term)?;
        }
    }
    Ok(acc)
}

/// Outcome of applying a row to a dependence.
enum RowEffect {
    /// Every instance gets a strictly positive value: dependence satisfied.
    Satisfies,
    /// Identically zero (or possibly zero, never negative): stays active.
    /// The boolean says whether the row must join the zero context.
    NonNegative(bool),
    /// Some instance would go negative: the row is invalid.
    Invalid,
}

fn apply_row(
    layout: &InstanceLayout,
    nparams: usize,
    st: &DepState<'_>,
    row: &IVec,
) -> Result<RowEffect, InlError> {
    let v = row_dot(row, &st.dep.entries);
    if v.is_positive() {
        return Ok(RowEffect::Satisfies);
    }
    if v.is_zero() {
        return Ok(RowEffect::NonNegative(false));
    }
    // Both polyhedral questions below share the dependence system with the
    // zero context pinned, and the candidate row as a LinExpr — build each
    // once here instead of per query.
    let ctx = context_system(layout, nparams, st)?;
    let re = row_expr(layout, nparams, st.dep, row)?;
    if v.lo.is_some_and(|l| l >= 0) {
        // never negative; strictly positive unless it can be 0
        return Ok(if can_be(&ctx, &re, 0)? {
            RowEffect::NonNegative(true)
        } else {
            RowEffect::Satisfies
        });
    }
    // interval admits negative values: ask the polyhedron
    Ok(if can_be_negative(&ctx, &re)? {
        RowEffect::Invalid
    } else if can_be(&ctx, &re, 0)? {
        RowEffect::NonNegative(true)
    } else {
        RowEffect::Satisfies
    })
}

fn context_system(
    layout: &InstanceLayout,
    nparams: usize,
    st: &DepState<'_>,
) -> Result<inl_poly::System, InlError> {
    let mut sys = st.dep.system.clone();
    for z in &st.zero_context {
        sys.add_eq(row_expr(layout, nparams, st.dep, z)?);
    }
    Ok(sys)
}

/// Can `row_expr` go strictly negative over the context polyhedron?
fn can_be_negative(ctx: &inl_poly::System, row_expr: &LinExpr) -> Result<bool, InlError> {
    let mut sys = ctx.clone();
    let space = sys.nvars();
    sys.add_ge(
        row_expr
            .checked_neg()?
            .checked_sub(&LinExpr::constant(space, 1))?,
    );
    Ok(is_empty(&sys) != Feasibility::Empty)
}

/// Can `row_expr` take exactly `value` over the context polyhedron?
fn can_be(ctx: &inl_poly::System, row_expr: &LinExpr, value: Int) -> Result<bool, InlError> {
    let mut sys = ctx.clone();
    let space = sys.nvars();
    sys.add_eq(row_expr.checked_sub(&LinExpr::constant(space, value))?);
    Ok(is_empty(&sys) != Feasibility::Empty)
}

/// Loop-slot positions of the layout, outside-in.
fn loop_slot_positions(layout: &InstanceLayout) -> Vec<usize> {
    layout
        .positions()
        .iter()
        .enumerate()
        .filter(|(_, pos)| matches!(pos, Position::Loop(_)))
        .map(|(i, _)| i)
        .collect()
}

/// Fresh per-dependence completion state for every dependence.
fn build_states<'a>(layout: &InstanceLayout, deps: &'a DependenceMatrix) -> Vec<DepState<'a>> {
    deps.deps
        .iter()
        .enumerate()
        .map(|(idx, d)| {
            let ncommon = d.common_loops();
            let mut common: Vec<usize> = d.src_loops[..ncommon]
                .iter()
                .map(|&l| layout.loop_position(l))
                .collect();
            common.sort_unstable();
            DepState {
                idx,
                dep: d,
                common,
                zero_context: Vec::new(),
                satisfied: false,
            }
        })
        .collect()
}

/// Evaluate a candidate row at `slot` against all active dependences whose
/// common slots include this slot; returns the first violated dependence's
/// index (into `deps.deps`), or `None` if the row is legal here.
fn evaluate_at(
    layout: &InstanceLayout,
    nparams: usize,
    slot: usize,
    row: &IVec,
    states: &[DepState<'_>],
) -> Result<Option<usize>, InlError> {
    for st in states.iter() {
        if st.satisfied || !st.common.contains(&slot) {
            continue;
        }
        if matches!(apply_row(layout, nparams, st, row)?, RowEffect::Invalid) {
            return Ok(Some(st.idx));
        }
    }
    Ok(None)
}

/// Commit a validated row at `slot`: mark newly satisfied dependences and
/// extend zero contexts where the row may be zero on some instances.
fn commit_at(
    layout: &InstanceLayout,
    nparams: usize,
    slot: usize,
    row: &IVec,
    states: &mut [DepState<'_>],
) -> Result<(), InlError> {
    for st in states.iter_mut() {
        if st.satisfied || !st.common.contains(&slot) {
            continue;
        }
        match apply_row(layout, nparams, st, row)? {
            RowEffect::Invalid => unreachable!("validated"),
            RowEffect::Satisfies => st.satisfied = true,
            RowEffect::NonNegative(needs_ctx) => {
                if needs_ctx {
                    st.zero_context.push(row.clone());
                }
            }
        }
    }
    Ok(())
}

/// Outcome of [`check_prefix`]: either every supplied row keeps every
/// dependence projection non-negative, or the check names the first row and
/// dependence that clash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrefixCheck {
    /// The prefix is extendable: no dependence projection goes negative
    /// under the supplied rows.
    Legal,
    /// Row `row` (index into `partial`) drives dependence `dep` (index
    /// into [`DependenceMatrix::deps`]) negative — every completion of
    /// this prefix is illegal, so a search can prune the whole subtree.
    Violation {
        /// Index of the offending row in `partial`.
        row: usize,
        /// Index of the violated dependence in the dependence matrix.
        dep: usize,
    },
}

/// Check whether a *prefix* of transformation rows can be extended to a
/// legal matrix, without running the completion itself.
///
/// This is the pruning predicate of the auto-scheduler (`inl-sched`): a
/// search over outer-row choices calls this at every tree node, and a
/// [`PrefixCheck::Violation`] kills the entire subtree below the node — the
/// dimension-matching idea from Acharya–Bondhugula applied to the paper's
/// dependence projections. The check is sound and complete for prefix
/// legality (it is exactly the validation pass [`complete_transform`] runs
/// over user-supplied rows), but deliberately emits **no** explain records:
/// callers running thousands of probes record their own decisions.
pub fn check_prefix(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    partial: &[IVec],
) -> Result<PrefixCheck, CompletionError> {
    let _span = inl_obs::span("complete.prefix");
    inl_obs::counter_add!("complete.prefix_checks", 1);
    let n = layout.len();
    let nparams = p.nparams();
    let loop_slots = loop_slot_positions(layout);
    if partial.len() > loop_slots.len() {
        return Err(CompletionError::TooManyRows);
    }
    let mut states = build_states(layout, deps);
    for (slot_idx, &slot) in loop_slots.iter().take(partial.len()).enumerate() {
        let row = &partial[slot_idx];
        if row.len() != n {
            return Err(CompletionError::PartialRowBadLength {
                row: slot_idx,
                got: row.len(),
                want: n,
            });
        }
        if let Some(dep) = evaluate_at(layout, nparams, slot, row, &states)? {
            return Ok(PrefixCheck::Violation { row: slot_idx, dep });
        }
        commit_at(layout, nparams, slot, row, &mut states)?;
    }
    Ok(PrefixCheck::Legal)
}

/// Complete a partial transformation into a full legal matrix.
///
/// `partial` supplies desired rows (over source vector positions) for the
/// outermost loop slots, in order; it may be empty.
pub fn complete_transform(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    partial: &[IVec],
) -> Result<Completion, CompletionError> {
    let _span = inl_obs::span("complete.transform");
    inl_obs::timeline::instant("stage.completion");
    let n = layout.len();
    let nparams = p.nparams();
    let loop_slots = loop_slot_positions(layout);
    if partial.len() > loop_slots.len() {
        return Err(CompletionError::TooManyRows);
    }

    // dependency state
    let mut states: Vec<DepState<'_>> = build_states(layout, deps);

    let mut chosen_rows: Vec<(usize, IVec)> = Vec::new(); // (slot, row)
    let mut used_positions: Vec<bool> = vec![false; n];
    for (slot_idx, &slot) in loop_slots.iter().enumerate() {
        // evaluate a candidate against all active deps whose common slots
        // include this slot; returns the first violated dependence's index
        let evaluate =
            |row: &IVec, states: &Vec<DepState<'_>>| -> Result<Option<usize>, InlError> {
                evaluate_at(layout, nparams, slot, row, states)
            };
        let commit = |row: &IVec, states: &mut Vec<DepState<'_>>| -> Result<(), InlError> {
            commit_at(layout, nparams, slot, row, states)
        };

        let independent = |row: &IVec, chosen: &[(usize, IVec)]| -> Result<bool, InlError> {
            let mut m = IMat::zeros(0, 0);
            for (_, r) in chosen {
                m.push_row(r);
            }
            let before = if m.nrows() == 0 { 0 } else { m.checked_rank()? };
            m.push_row(row);
            Ok(m.checked_rank()? > before)
        };

        if slot_idx < partial.len() {
            let row = partial[slot_idx].clone();
            if row.len() != n {
                return Err(CompletionError::PartialRowBadLength {
                    row: slot_idx,
                    got: row.len(),
                    want: n,
                });
            }
            if let Some(dep_idx) = evaluate(&row, &states)? {
                if inl_obs::explain_enabled() {
                    let d = &deps.deps[dep_idx];
                    inl_obs::explain::reject(
                        "complete",
                        format!(
                            "partial row {slot_idx} {}",
                            crate::provenance::row_text(&row)
                        ),
                        format!(
                            "{}: projection of row would go negative",
                            crate::provenance::dep_label(p, dep_idx, d)
                        ),
                    )
                    .detail("dep_row", crate::provenance::dep_row(d))
                    .feature("slot", slot as i64)
                    .feature("deps", deps.deps.len() as i64);
                }
                return Err(CompletionError::PartialRowIllegal(slot_idx));
            }
            if inl_obs::explain_enabled() {
                inl_obs::explain::accept(
                    "complete",
                    format!(
                        "partial row {slot_idx} {}",
                        crate::provenance::row_text(&row)
                    ),
                    "row keeps every active dependence non-negative",
                )
                .feature("slot", slot as i64);
            }
            commit(&row, &mut states)?;
            for (j, &v) in row.iter().enumerate() {
                if v != 0 {
                    used_positions[j] = true;
                }
            }
            chosen_rows.push((slot, row));
            continue;
        }
        // Candidate preference mirrors the paper's worked example: keep the
        // remaining original loops in their original order. Try the slot's
        // own selector if unused, then the unused loop selectors outside-in,
        // then reversals, then skew combinations; take the first valid,
        // linearly independent candidate.
        let mut candidates: Vec<IVec> = Vec::new();
        if !used_positions[slot] {
            candidates.push(IVec::unit(n, slot));
        }
        for &q in &loop_slots {
            if !used_positions[q] && q != slot {
                candidates.push(IVec::unit(n, q));
            }
        }
        for &q in &loop_slots {
            candidates.push(IVec::unit(n, q)); // used ones (may combine via independence)
            candidates.push(-&IVec::unit(n, q));
        }
        for &a in &loop_slots {
            for &b in &loop_slots {
                if a != b {
                    candidates.push(&IVec::unit(n, a) + &IVec::unit(n, b));
                    candidates.push(&IVec::unit(n, a) - &IVec::unit(n, b));
                }
            }
        }
        let mut picked: Option<IVec> = None;
        let mut tried = 0i64;
        for cand in &candidates {
            inl_obs::counter_add!("complete.candidates_tried", 1);
            tried += 1;
            if independent(cand, &chosen_rows)? && evaluate(cand, &states)?.is_none() {
                picked = Some(cand.clone());
                break;
            }
        }
        let Some(row) = picked else {
            if inl_obs::explain_enabled() {
                inl_obs::explain::reject(
                    "complete",
                    format!("loop slot {slot}"),
                    format!("no legal, linearly independent candidate row among {tried} tried"),
                )
                .feature("slot", slot as i64)
                .feature("candidates_tried", tried);
            }
            return Err(CompletionError::NoCandidate(slot_idx));
        };
        if inl_obs::explain_enabled() {
            inl_obs::explain::note(
                "complete",
                format!("loop slot {slot}"),
                format!(
                    "chose row {} after {tried} candidates",
                    crate::provenance::row_text(&row)
                ),
            )
            .feature("slot", slot as i64)
            .feature("candidates_tried", tried);
        }
        commit(&row, &mut states)?;
        for (j, &v) in row.iter().enumerate() {
            if v != 0 {
                used_positions[j] = true;
            }
        }
        chosen_rows.push((slot, row));
    }

    // syntactic ordering constraints from deps still active between
    // different statements
    let mut constraints: HashMap<Option<LoopId>, Vec<(usize, usize)>> = HashMap::new();
    let mut constraint_deps: HashMap<Option<LoopId>, Vec<usize>> = HashMap::new();
    for st in &states {
        if st.satisfied || st.dep.src == st.dep.dst {
            continue;
        }
        let (node, ca, cb) = divergence(p, st.dep.src, st.dep.dst);
        if ca != cb {
            constraints.entry(node).or_default().push((ca, cb));
            constraint_deps.entry(node).or_default().push(st.idx);
        }
    }
    // topological sort of each constrained node's children
    let mut perms: HashMap<Option<LoopId>, Vec<usize>> = HashMap::new();
    for (node, edges) in &constraints {
        let c = match node {
            None => p.root().len(),
            Some(l) => p.loop_decl(*l).children.len(),
        };
        let node_name = || match node {
            None => "<root>".to_string(),
            Some(l) => format!("loop {}", p.loop_decl(*l).name),
        };
        let Some(order) = topo_order(c, edges) else {
            if inl_obs::explain_enabled() {
                let evidence: Vec<String> = constraint_deps[node]
                    .iter()
                    .zip(edges)
                    .map(|(&idx, &(ca, cb))| {
                        format!(
                            "{} (row {}) needs child {ca} before child {cb}",
                            crate::provenance::dep_label(p, idx, &deps.deps[idx]),
                            crate::provenance::dep_row(&deps.deps[idx])
                        )
                    })
                    .collect();
                inl_obs::explain::reject(
                    "complete",
                    format!("child ordering at {}", node_name()),
                    "all-zero cross-statement dependences impose a cyclic child order",
                )
                .detail("constraints", evidence.join("; "))
                .feature("constraints", edges.len() as i64);
            }
            return Err(CompletionError::OrderingCycle);
        };
        // order[i] = old child at new index i  =>  perm[old] = new
        let mut perm = vec![0usize; c];
        for (newi, &old) in order.iter().enumerate() {
            perm[old] = newi;
        }
        perms.insert(*node, perm);
    }

    // assemble the matrix
    let mut m = IMat::zeros(n, n);
    for (slot, row) in &chosen_rows {
        for (j, &v) in row.iter().enumerate() {
            m[(*slot, j)] = v;
        }
    }
    for (i, pos) in layout.positions().iter().enumerate() {
        if let Position::Edge { parent, child } = *pos {
            let new_child = perms.get(&parent).map_or(child, |perm| perm[child]);
            let target = layout.edge_position(parent, new_child).expect("edge");
            m[(target, i)] = 1;
        }
    }

    let report = check_legal(p, layout, deps, &m)?;
    if !report.is_legal() {
        let why = report
            .new_ast
            .as_ref()
            .err()
            .cloned()
            .unwrap_or_else(|| format!("{:?}", report.violations));
        if inl_obs::explain_enabled() {
            // check_legal above already recorded the violating dependence
            // row; this record ties the failure to the completion attempt.
            inl_obs::explain::reject(
                "complete",
                format!("assembled matrix {}", crate::provenance::matrix_text(&m)),
                format!("final legality check failed: {why}"),
            )
            .feature("partial_rows", partial.len() as i64);
        }
        return Err(CompletionError::FinalCheckFailed(why));
    }
    if inl_obs::explain_enabled() {
        inl_obs::explain::accept(
            "complete",
            format!("assembled matrix {}", crate::provenance::matrix_text(&m)),
            format!(
                "completed {} partial rows to a legal transformation ({} self-dependences to augmentation)",
                partial.len(),
                report.unsatisfied_self.len()
            ),
        )
        .feature("partial_rows", partial.len() as i64)
        .feature("unsatisfied_self", report.unsatisfied_self.len() as i64)
        .feature("deps", deps.deps.len() as i64);
    }
    Ok(Completion { matrix: m, report })
}

/// The node at which the paths to two statements diverge, and the child
/// indices each takes there.
fn divergence(p: &Program, a: StmtId, b: StmtId) -> (Option<LoopId>, usize, usize) {
    let la = p.loops_surrounding(a);
    let lb = p.loops_surrounding(b);
    let ncommon = la.iter().zip(&lb).take_while(|(x, y)| x == y).count();
    let node: Option<LoopId> = if ncommon == 0 {
        None
    } else {
        Some(la[ncommon - 1])
    };
    let children: &[Node] = match node {
        None => p.root(),
        Some(l) => &p.loop_decl(l).children,
    };
    let towards = |s: StmtId, next: Option<LoopId>| -> usize {
        let target = match next {
            Some(l) => Node::Loop(l),
            None => Node::Stmt(s),
        };
        children
            .iter()
            .position(|&ch| crate::transform::node_contains(p, ch, target))
            .expect("child towards statement")
    };
    let ca = towards(a, la.get(ncommon).copied());
    let cb = towards(b, lb.get(ncommon).copied());
    (node, ca, cb)
}

/// Stable topological order of `0..c` under `before` edges; `None` on a
/// cycle. Prefers the smallest available original index (stability).
fn topo_order(c: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut indeg = vec![0usize; c];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); c];
    for &(a, b) in edges {
        if a == b {
            return None;
        }
        adj[a].push(b);
        indeg[b] += 1;
    }
    let mut out = Vec::with_capacity(c);
    let mut done = vec![false; c];
    while out.len() < c {
        let next = (0..c).find(|&i| !done[i] && indeg[i] == 0)?;
        done[next] = true;
        out.push(next);
        for &t in &adj[next] {
            indeg[t] -= 1;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::analyze;
    use crate::perstmt::schedule_all;
    use inl_ir::zoo;

    fn looop(p: &Program, name: &str) -> LoopId {
        p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
    }

    #[test]
    fn empty_partial_completes_to_legal() {
        for p in [
            zoo::simple_cholesky(),
            zoo::cholesky_kij(),
            zoo::wavefront(),
        ] {
            let layout = InstanceLayout::new(&p);
            let deps = analyze(&p, &layout).expect("analysis");
            let c = complete_transform(&p, &layout, &deps, &[]).expect("completes");
            assert!(c.report.is_legal(), "{}", p.name());
        }
    }

    #[test]
    fn paper_section6_completion() {
        // §6: completing the one-row partial transformation on full
        // Cholesky yields a legal matrix that (a) reorders K's children to
        // [J-nest, S1, I-loop] and (b) has the left-looking per-statement
        // permutation (k,j,l) → (l,j,k) for S3, with every per-statement
        // transform non-singular (no augmentation).
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        // "make the updated-column position outermost": the unit selector
        // of the L position (see EXPERIMENTS.md E6 for why this is the
        // corrected form of the paper's printed first row)
        let l = looop(&p, "L");
        let partial = vec![IVec::unit(layout.len(), layout.loop_position(l))];
        let c = complete_transform(&p, &layout, &deps, &partial).expect("completes");
        assert!(c.report.is_legal());
        let ast = c.report.new_ast.as_ref().unwrap();
        let k = looop(&p, "K");
        assert_eq!(
            ast.child_perms[&Some(k)],
            vec![1, 2, 0],
            "children reorder to J,S1,I"
        );
        let scheds =
            schedule_all(&p, &layout, ast, &c.matrix, &deps, &c.report).expect("schedules");
        for s in &scheds {
            assert_eq!(s.n_aug, 0, "no augmentation needed (paper's claim)");
            assert!(s.n_s.is_unimodular());
        }
        let s3 = p.stmts().find(|&s| p.stmt_decl(s).name == "S3").unwrap();
        let sched = scheds.iter().find(|s| s.stmt == s3).unwrap();
        assert_eq!(
            sched.rows,
            IMat::from_rows(&[&[0, 0, 1][..], &[0, 1, 0], &[1, 0, 0]]),
            "S3 is scheduled left-looking: (k,j,l) → (l,j,k)"
        );
    }

    #[test]
    fn simple_cholesky_interchange_completion() {
        // partial: new outer = old J position. Completion must discover
        // the statement reordering (S2's loop before S1) that makes the
        // interchange legal.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let j = looop(&p, "J");
        let partial = vec![IVec::unit(layout.len(), layout.loop_position(j))];
        let c = complete_transform(&p, &layout, &deps, &partial).expect("completes");
        assert!(c.report.is_legal());
        let ast = c.report.new_ast.as_ref().unwrap();
        let order = ast.program.stmts_in_syntactic_order();
        assert_eq!(
            ast.program.stmt_decl(order[0]).name,
            "S2",
            "updates before sqrt"
        );
    }

    #[test]
    fn illegal_partial_row_rejected() {
        // new outer = −I reverses every I-carried dependence
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i = looop(&p, "I");
        let partial = vec![-&IVec::unit(layout.len(), layout.loop_position(i))];
        assert!(matches!(
            complete_transform(&p, &layout, &deps, &partial),
            Err(CompletionError::PartialRowIllegal(0))
        ));
    }

    #[test]
    fn too_many_rows_rejected() {
        let p = zoo::perfect_nest();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let rows = vec![IVec::unit(2, 0), IVec::unit(2, 1), IVec::unit(2, 0)];
        assert!(matches!(
            complete_transform(&p, &layout, &deps, &rows),
            Err(CompletionError::TooManyRows)
        ));
    }

    #[test]
    fn prefix_check_agrees_with_completion() {
        // check_prefix is exactly the validation pass complete_transform
        // runs over partial rows: a Violation must imply
        // PartialRowIllegal, and Legal prefixes of unit rows must complete.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i = looop(&p, "I");
        let j = looop(&p, "J");
        let pos = |l| layout.loop_position(l);
        let ok = vec![IVec::unit(layout.len(), pos(j))];
        assert_eq!(
            check_prefix(&p, &layout, &deps, &ok).unwrap(),
            PrefixCheck::Legal
        );
        assert!(complete_transform(&p, &layout, &deps, &ok).is_ok());
        let bad = vec![-&IVec::unit(layout.len(), pos(i))];
        let PrefixCheck::Violation { row, dep } = check_prefix(&p, &layout, &deps, &bad).unwrap()
        else {
            panic!("reversed I must violate a dependence");
        };
        assert_eq!(row, 0);
        assert!(dep < deps.deps.len());
        assert!(matches!(
            complete_transform(&p, &layout, &deps, &bad),
            Err(CompletionError::PartialRowIllegal(0))
        ));
    }

    #[test]
    fn prefix_check_validates_shape() {
        let p = zoo::perfect_nest();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        assert!(matches!(
            check_prefix(&p, &layout, &deps, &[IVec::unit(3, 0)]),
            Err(CompletionError::PartialRowBadLength { .. })
        ));
        let rows = vec![IVec::unit(2, 0), IVec::unit(2, 1), IVec::unit(2, 0)];
        assert!(matches!(
            check_prefix(&p, &layout, &deps, &rows),
            Err(CompletionError::TooManyRows)
        ));
    }

    #[test]
    fn completion_is_deterministic() {
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let a = complete_transform(&p, &layout, &deps, &[]).unwrap();
        let b = complete_transform(&p, &layout, &deps, &[]).unwrap();
        assert_eq!(a.matrix, b.matrix);
    }
}
