//! `cp-verify` — offline model checker for the ring communication
//! schedules declared by `cp_core::schedule`.
//!
//! The ring algorithms (paper Alg. 2–4) follow fixed, data-independent
//! communication schedules. `cp-core` declares them as [`cp_comm::CommPlan`]
//! data; this crate *checks* those declarations without running any rank:
//!
//! * [`check_plan`] — structural validation, FIFO send/recv matching
//!   (variant + wire-byte agreement per matched pair), collective
//!   agreement, deadlock-freedom over **all** interleavings via wait-for
//!   graph analysis, and wire-byte conservation. Sound and complete for
//!   the fabric's execution model (a Kahn process network with buffered
//!   sends), so it scales to any CP degree.
//! * [`explore_interleavings`] — brute-force enumeration of every
//!   reachable program-counter state, tractable for CP ≤ 4. Used to
//!   cross-validate the graph criterion: both engines must agree.
//! * [`grid_cases`] — the (T, P, varseq) grid of *real* schedules built
//!   through the production plan builders, for CP ∈ {2, 3, 4, 5, 8}
//!   (odd and non-power-of-two worlds included, so rank-rotation
//!   off-by-ones on odd rings are exercised).
//! * [`apply_mutation`] — seeded bugs (deadlock, wrong variant, dropped
//!   hop, short bytes) that both this checker and the runtime
//!   `cp_comm::CheckedFabric` sanitizer must catch.
//! * [`check_template`] — the **symbolic** layer: each schedule family
//!   ([`cp_core::template::SymTemplate`]) declared once over symbolic `(W, byte tables)`,
//!   with the structural laws proven on the template itself, so one
//!   check covers every instantiation. [`verify_symbolic`] cross-grounds
//!   every template against the production builders for `W ∈ 2..=16`,
//!   and [`apply_template_mutation`] seeds template-level bugs that the
//!   symbolic checker must reject.
//!
//! The `cp-verify` binary runs both layers as a CI smoke check:
//!
//! ```text
//! cargo run -p cp-verify            # CP ∈ {2, 3, 4, 5, 8}
//! cargo run -p cp-verify -- --cp 2 --cp 4
//! cargo run -p cp-verify -- --symbolic --mutations
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod explore;
mod grid;
mod mutate;
mod template;

pub use check::{check_plan, CheckReport, OpRef, Violation};
pub use explore::{explore_default, explore_interleavings, ExploreOutcome};
pub use grid::{grid_cases, GridCase};
pub use mutate::{apply_mutation, Mutation};
pub use template::{
    all_templates, apply_template_mutation, check_template, symbolic_traffic, template_cases,
    SymViolation, TemplateCase, TemplateMutation,
};

/// CP degrees exhaustively explorable by [`explore_interleavings`] within
/// the default state budget.
pub const EXPLORABLE_CP: usize = 4;

/// Verifies every grid schedule for one CP degree with both engines.
///
/// Returns `(cases_checked, failures)` where each failure pairs the case
/// name with a description. The explorer runs only for `cp <=
/// EXPLORABLE_CP`; the graph checker runs always.
pub fn verify_grid(cp: usize) -> Result<(usize, Vec<(String, String)>), cp_core::CoreError> {
    let cases = grid_cases(cp)?;
    let mut failures = Vec::new();
    for case in &cases {
        let report = check_plan(&case.plan);
        for v in &report.violations {
            failures.push((case.name.clone(), v.to_string()));
        }
        if cp <= EXPLORABLE_CP {
            match explore_default(&case.plan) {
                ExploreOutcome::Complete { .. } => {}
                ExploreOutcome::Deadlock { pcs, blocked } => failures.push((
                    case.name.clone(),
                    format!("explorer found deadlock at pcs {pcs:?}: {blocked:?}"),
                )),
                ExploreOutcome::Truncated { states } => failures.push((
                    case.name.clone(),
                    format!("explorer truncated after {states} states"),
                )),
            }
        }
    }
    Ok((cases.len(), failures))
}

/// Runs the symbolic layer end to end: proves the template laws on every
/// declared family once, then cross-validates by grounding each template
/// at every `W ∈ 2..=max_world` — grounding must reproduce the production
/// builder's plan bitwise, pass the concrete graph checker (and the
/// exhaustive explorer for `W <= EXPLORABLE_CP`), and match the symbolic
/// closed-form traffic prediction.
///
/// Returns `(checks_run, failures)`.
///
/// # Errors
///
/// Propagates [`cp_core::CoreError`] from the production plan builders.
pub fn verify_symbolic(
    max_world: usize,
) -> Result<(usize, Vec<(String, String)>), cp_core::CoreError> {
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for t in all_templates() {
        checked += 1;
        for v in check_template(&t) {
            failures.push((t.name.clone(), format!("symbolic law violation: {v}")));
        }
    }
    for world in 2..=max_world {
        for case in template_cases(world)? {
            checked += 1;
            let grounded = match case.template.ground(world, &case.tables) {
                Ok(p) => p,
                Err(e) => {
                    failures.push((case.name.clone(), format!("grounding failed: {e}")));
                    continue;
                }
            };
            let report = check_plan(&grounded);
            for v in &report.violations {
                failures.push((case.name.clone(), v.to_string()));
            }
            if world <= EXPLORABLE_CP && !explore_default(&grounded).is_complete() {
                failures.push((
                    case.name.clone(),
                    "explorer did not complete on grounded instance".to_string(),
                ));
            }
            match symbolic_traffic(&case.template, world, &case.tables) {
                Ok(sym) if sym == grounded.predicted_traffic() => {}
                Ok(_) => failures.push((
                    case.name.clone(),
                    "symbolic traffic diverges from grounded prediction".to_string(),
                )),
                Err(e) => failures.push((case.name.clone(), format!("symbolic traffic: {e}"))),
            }
        }
    }
    Ok((checked, failures))
}

/// Self-test for the symbolic layer: seeds every [`TemplateMutation`]
/// into every declared template (skipping templates with no site for a
/// mutation) and confirms [`check_template`] rejects each mutant.
/// Returns `(mutants_checked, escapes)`.
pub fn verify_template_mutations() -> (usize, Vec<String>) {
    let mut checked = 0usize;
    let mut escapes = Vec::new();
    for t in all_templates() {
        for mutation in TemplateMutation::seeds() {
            let Some(mutant) = apply_template_mutation(&t, mutation) else {
                continue;
            };
            checked += 1;
            if check_template(&mutant).is_empty() {
                escapes.push(format!("{} survived {}", t.name, mutation.tag()));
            }
        }
    }
    (checked, escapes)
}

/// Self-test: seeds every mutation into every grid schedule and confirms
/// the checker catches each one. Returns `(mutants_checked, escapes)`.
pub fn verify_mutations(cp: usize) -> Result<(usize, Vec<String>), cp_core::CoreError> {
    let cases = grid_cases(cp)?;
    let mut checked = 0usize;
    let mut escapes = Vec::new();
    for case in &cases {
        for mutation in Mutation::seeds(cp.saturating_sub(1)) {
            let Some(mutated) = apply_mutation(&case.plan, mutation) else {
                continue;
            };
            checked += 1;
            if check_plan(&mutated).is_clean() {
                escapes.push(format!("{} survived {}", case.name, mutation.tag()));
            }
        }
    }
    Ok((checked, escapes))
}
