//! The **single lowering module** — the only place in the workspace that
//! matches on [`FaultModel`] variants.
//!
//! Every fault model lowers onto two shared vocabularies:
//!
//! * **generation side** — [`classes`] / [`lower`] map the model to
//!   composable [`TestPrimitive`]s grouped into [`PrimitiveClass`]es;
//!   `requirements_for` and the whole generator run off these, and they
//!   reproduce the legacy per-model catalog byte-identically (pinned by
//!   the lowering-equivalence suite and the Table 3 goldens).
//! * **simulation side** — [`behavior`] maps the model to a declarative
//!   [`FaultBehavior`] rule table; the scalar `FaultyMemory` and the
//!   packed `widesim::WideBatch` are generic interpreters over it.
//!
//! [`machines`] additionally provides the paper's two-cell Mealy-machine
//! view (Figure 2) for the BFE derivation; dynamic faults, whose effect
//! depends on operation history rather than state alone, have no such
//! machine and return an empty vector (as [`FaultModel::StuckOpen`]
//! always did).
//!
//! A repo-level lint (`tests/fault_layer_lint.rs` + the CI
//! `fault-layer-lint` job) fails the build if a `FaultModel::` variant
//! match appears outside this module, `model.rs`, or `parse.rs` — the
//! decoupling cannot silently erode.

use crate::behavior::{
    FaultBehavior, Invariant, ReadOutput, ReadRule, Role, StoreEffect, WriteEffect, WriteRule,
};
use crate::dir::TransitionDir;
use crate::model::{AdfKind, FaultModel};
use crate::primitives::{PrimitiveClass, TestPrimitive};
use crate::tp::Observation;
use marchgen_model::{Bit, Cell, MemOp, PairState, Tri, TwoCellMachine};

fn read_obs(cell: Cell, expected: Bit) -> Observation {
    Observation::Read { cell, expected }
}

/// The model's primitive classes: labelled fault instances, each with the
/// alternative test primitives that cover it.
#[must_use]
pub fn classes(model: FaultModel) -> Vec<PrimitiveClass> {
    match model {
        FaultModel::StuckAt(v) => {
            // SA⟨v⟩ is exposed by writing v̄ and reading it back, from any
            // starting state.
            let w = v.flip();
            vec![PrimitiveClass::new(
                format!("SA{v}"),
                vec![TestPrimitive::single(
                    Tri::X,
                    MemOp::write(Cell::I, w),
                    read_obs(Cell::I, w),
                )],
            )]
        }
        FaultModel::Transition(d) => {
            // TF⟨d⟩: the d transition must actually be exercised, so the
            // initialization pins the pre-transition value.
            vec![PrimitiveClass::new(
                format!("TF<{d}>"),
                vec![TestPrimitive::single(
                    d.from_value().into(),
                    MemOp::write(Cell::I, d.to_value()),
                    read_obs(Cell::I, d.to_value()),
                )],
            )]
        }
        FaultModel::StuckOpen => {
            // SOF: the latch must hold the stale pre-transition value when
            // the verifying read fires, hence pre-read + immediate.
            let alt = |d: TransitionDir| {
                TestPrimitive::single(
                    d.from_value().into(),
                    MemOp::write(Cell::I, d.to_value()),
                    read_obs(Cell::I, d.to_value()),
                )
                .with_immediate()
                .with_pre_read()
            };
            vec![PrimitiveClass::new(
                "SOF".to_string(),
                vec![alt(TransitionDir::Up), alt(TransitionDir::Down)],
            )]
        }
        FaultModel::AddressDecoder(AdfKind::Write) => {
            // Writes aimed at one cell also reach the other: expose by
            // writing the aggressor address with the complement of the
            // observed cell's content. Either polarity works — one class
            // of two alternatives per address order.
            let class = |aggr: Cell| {
                let victim = aggr.other();
                let alt = |v: Bit| {
                    let init = PairState::UNKNOWN.with(victim, v.into());
                    TestPrimitive::pair(init, MemOp::write(aggr, v.flip()), read_obs(victim, v))
                };
                PrimitiveClass::new(
                    format!("ADF<w> ({aggr}-writes reach {victim})"),
                    vec![alt(Bit::One), alt(Bit::Zero)],
                )
            };
            vec![class(Cell::J), class(Cell::I)]
        }
        FaultModel::AddressDecoder(AdfKind::Read) => {
            // Reads of one cell return the other cell's content: expose by
            // reading while the two cells hold opposite values.
            let class = |read: Cell| {
                let alt = |iv: Bit| {
                    let init = PairState::new_known(iv, iv.flip());
                    let expected = match read {
                        Cell::I => iv,
                        Cell::J => iv.flip(),
                    };
                    TestPrimitive::pair(init, MemOp::read(read), Observation::SelfRead { expected })
                };
                PrimitiveClass::new(
                    format!("ADF<r> (reads of {read} return {})", read.other()),
                    vec![alt(Bit::Zero), alt(Bit::One)],
                )
            };
            vec![class(Cell::J), class(Cell::I)]
        }
        FaultModel::CouplingInversion(d) => {
            // CFin⟨d⟩: the victim flips whichever value it holds, so the
            // two victim polarities are alternatives (Section 5 example).
            let class = |aggr: Cell| {
                let victim = aggr.other();
                let alt = |v: Bit| {
                    let init = PairState::UNKNOWN
                        .with(aggr, d.from_value().into())
                        .with(victim, v.into());
                    TestPrimitive::pair(init, MemOp::write(aggr, d.to_value()), read_obs(victim, v))
                };
                PrimitiveClass::new(
                    format!("CFin<{d}> (aggressor {aggr})"),
                    vec![alt(Bit::Zero), alt(Bit::One)],
                )
            };
            vec![class(Cell::I), class(Cell::J)]
        }
        FaultModel::CouplingIdempotent(d, f) => {
            // CFid⟨d,f⟩: only a victim holding f̄ shows the forcing — a
            // single TP per address order (paper Figure 3 / f.2.3).
            let class = |aggr: Cell| {
                let victim = aggr.other();
                let init = PairState::UNKNOWN
                    .with(aggr, d.from_value().into())
                    .with(victim, f.flip().into());
                PrimitiveClass::new(
                    format!("CFid<{d},{f}> (aggressor {aggr})"),
                    vec![TestPrimitive::pair(
                        init,
                        MemOp::write(aggr, d.to_value()),
                        read_obs(victim, f.flip()),
                    )],
                )
            };
            vec![class(Cell::I), class(Cell::J)]
        }
        FaultModel::CouplingState(s, f) => {
            // CFst⟨s,f⟩: while the aggressor holds s the victim is forced
            // to f. Two excitations work: entering the aggressor state
            // with a sensitized victim, or writing the victim under the
            // active condition.
            let class = |aggr: Cell| {
                let victim = aggr.other();
                let enter_condition = TestPrimitive::pair(
                    PairState::UNKNOWN
                        .with(aggr, s.flip().into())
                        .with(victim, f.flip().into()),
                    MemOp::write(aggr, s),
                    read_obs(victim, f.flip()),
                );
                let write_under_condition = TestPrimitive::pair(
                    PairState::UNKNOWN.with(aggr, s.into()),
                    MemOp::write(victim, f.flip()),
                    read_obs(victim, f.flip()),
                );
                PrimitiveClass::new(
                    format!("CFst<{s},{f}> (aggressor {aggr})"),
                    vec![enter_condition, write_under_condition],
                )
            };
            vec![class(Cell::I), class(Cell::J)]
        }
        FaultModel::ReadDestructive(x) | FaultModel::IncorrectRead(x) => {
            // Both return the wrong value on the exciting read itself.
            let label = model.to_string();
            vec![PrimitiveClass::new(
                label,
                vec![TestPrimitive::single(
                    x.into(),
                    MemOp::read(Cell::I),
                    Observation::SelfRead { expected: x },
                )],
            )]
        }
        FaultModel::DeceptiveReadDestructive(x) => {
            // The exciting read answers correctly; a second read catches
            // the flipped cell.
            vec![PrimitiveClass::new(
                model.to_string(),
                vec![TestPrimitive::single(
                    x.into(),
                    MemOp::read(Cell::I),
                    read_obs(Cell::I, x),
                )],
            )]
        }
        FaultModel::DataRetention(x) => {
            // The cell decays after the wait period T.
            vec![PrimitiveClass::new(
                model.to_string(),
                vec![TestPrimitive::single(
                    x.into(),
                    MemOp::Delay,
                    read_obs(Cell::I, x),
                )],
            )]
        }
        FaultModel::DynamicReadDestructive(x) | FaultModel::DynamicIncorrectRead(x) => {
            // Two-operation sequence wX:rX — the exciting read (fired
            // immediately after the write) returns the complement. The
            // read itself observes the fault.
            vec![PrimitiveClass::new(
                model.to_string(),
                vec![TestPrimitive::single(
                    Tri::X,
                    MemOp::read(Cell::I),
                    Observation::SelfRead { expected: x },
                )
                .with_setup(MemOp::write(Cell::I, x))],
            )]
        }
        FaultModel::DynamicDeceptiveReadDestructive(x) => {
            // wX:rX answers correctly but flips the cell; a later read
            // catches the flip.
            vec![PrimitiveClass::new(
                model.to_string(),
                vec![
                    TestPrimitive::single(Tri::X, MemOp::read(Cell::I), read_obs(Cell::I, x))
                        .with_setup(MemOp::write(Cell::I, x)),
                ],
            )]
        }
        FaultModel::LinkedIdempotent(f) => {
            // LCF⟨f⟩ = CFid⟨↑,f⟩ ∘ CFid⟨↓,f̄⟩ on one aggressor/victim
            // pair. Each component gets its own single-TP class so every
            // tour excites both links; behavioural verification (the two
            // effects can mask each other) rejects orderings where one
            // link's forcing is overwritten before its read.
            let link = |aggr: Cell| {
                let victim = aggr.other();
                let up = PrimitiveClass::new(
                    format!("LCF<{f}> ↑-link (aggressor {aggr})"),
                    vec![TestPrimitive::pair(
                        PairState::UNKNOWN
                            .with(aggr, Bit::Zero.into())
                            .with(victim, f.flip().into()),
                        MemOp::write(aggr, Bit::One),
                        read_obs(victim, f.flip()),
                    )],
                );
                let down = PrimitiveClass::new(
                    format!("LCF<{f}> ↓-link (aggressor {aggr})"),
                    vec![TestPrimitive::pair(
                        PairState::UNKNOWN
                            .with(aggr, Bit::One.into())
                            .with(victim, f.into()),
                        MemOp::write(aggr, Bit::Zero),
                        read_obs(victim, f),
                    )],
                );
                [up, down]
            };
            let mut v = Vec::new();
            v.extend(link(Cell::I));
            v.extend(link(Cell::J));
            v
        }
    }
}

/// The single lowering function of the primitive algebra:
/// `FaultModel -> Vec<TestPrimitive>` (the model's classes, flattened).
#[must_use]
pub fn lower(model: FaultModel) -> Vec<TestPrimitive> {
    classes(model)
        .into_iter()
        .flat_map(|c| c.alternatives)
        .collect()
}

/// The model's declarative simulation behaviour — the rule table both
/// verifiers interpret generically.
#[must_use]
pub fn behavior(model: FaultModel) -> FaultBehavior {
    match model {
        FaultModel::StuckAt(v) => {
            let mut b = FaultBehavior::single_cell();
            b.powerup_force = Some(v);
            b.write_rules.push(WriteRule {
                at: Role::Single,
                value: None,
                pre: None,
                effect: WriteEffect::Force(v),
            });
            b
        }
        FaultModel::Transition(d) => {
            let mut b = FaultBehavior::single_cell();
            b.write_rules.push(WriteRule {
                at: Role::Single,
                value: Some(d.to_value()),
                pre: Some(d.from_value()),
                effect: WriteEffect::Block,
            });
            b
        }
        FaultModel::StuckOpen => {
            let mut b = FaultBehavior::single_cell();
            b.uses_latch = true;
            b.write_rules.push(WriteRule {
                at: Role::Single,
                value: None,
                pre: None,
                effect: WriteEffect::Block,
            });
            b.read_rules.push(ReadRule {
                at: Role::Single,
                holds: None,
                after_write: None,
                output: ReadOutput::Latch,
                store: StoreEffect::Keep,
            });
            b
        }
        FaultModel::AddressDecoder(AdfKind::Write) => {
            let mut b = FaultBehavior::pair_cells();
            b.write_rules.push(WriteRule {
                at: Role::Aggressor,
                value: None,
                pre: None,
                effect: WriteEffect::CopyToVictim,
            });
            b
        }
        FaultModel::AddressDecoder(AdfKind::Read) => {
            let mut b = FaultBehavior::pair_cells();
            b.read_rules.push(ReadRule {
                at: Role::Aggressor,
                holds: None,
                after_write: None,
                output: ReadOutput::Victim,
                store: StoreEffect::Keep,
            });
            b
        }
        FaultModel::CouplingInversion(d) => {
            let mut b = FaultBehavior::pair_cells();
            b.write_rules.push(WriteRule {
                at: Role::Aggressor,
                value: Some(d.to_value()),
                pre: Some(d.from_value()),
                effect: WriteEffect::FlipVictim,
            });
            b
        }
        FaultModel::CouplingIdempotent(d, f) => {
            let mut b = FaultBehavior::pair_cells();
            b.write_rules.push(WriteRule {
                at: Role::Aggressor,
                value: Some(d.to_value()),
                pre: Some(d.from_value()),
                effect: WriteEffect::ForceVictim(f),
            });
            b
        }
        FaultModel::CouplingState(s, f) => {
            let mut b = FaultBehavior::pair_cells();
            b.invariant = Some(Invariant { when: s, force: f });
            b
        }
        FaultModel::ReadDestructive(x) => {
            let mut b = FaultBehavior::single_cell();
            b.read_rules.push(ReadRule {
                at: Role::Single,
                holds: Some(x),
                after_write: None,
                output: ReadOutput::Complement,
                store: StoreEffect::Flip,
            });
            b
        }
        FaultModel::DeceptiveReadDestructive(x) => {
            let mut b = FaultBehavior::single_cell();
            b.read_rules.push(ReadRule {
                at: Role::Single,
                holds: Some(x),
                after_write: None,
                output: ReadOutput::Stored,
                store: StoreEffect::Flip,
            });
            b
        }
        FaultModel::IncorrectRead(x) => {
            let mut b = FaultBehavior::single_cell();
            b.read_rules.push(ReadRule {
                at: Role::Single,
                holds: Some(x),
                after_write: None,
                output: ReadOutput::Complement,
                store: StoreEffect::Keep,
            });
            b
        }
        FaultModel::DataRetention(x) => {
            let mut b = FaultBehavior::single_cell();
            b.delay_flip = Some(x);
            b
        }
        FaultModel::DynamicReadDestructive(x) => {
            let mut b = FaultBehavior::single_cell();
            b.read_rules.push(ReadRule {
                at: Role::Single,
                holds: Some(x),
                after_write: Some(x),
                output: ReadOutput::Complement,
                store: StoreEffect::Flip,
            });
            b
        }
        FaultModel::DynamicDeceptiveReadDestructive(x) => {
            let mut b = FaultBehavior::single_cell();
            b.read_rules.push(ReadRule {
                at: Role::Single,
                holds: Some(x),
                after_write: Some(x),
                output: ReadOutput::Stored,
                store: StoreEffect::Flip,
            });
            b
        }
        FaultModel::DynamicIncorrectRead(x) => {
            let mut b = FaultBehavior::single_cell();
            b.read_rules.push(ReadRule {
                at: Role::Single,
                holds: Some(x),
                after_write: Some(x),
                output: ReadOutput::Complement,
                store: StoreEffect::Keep,
            });
            b
        }
        FaultModel::LinkedIdempotent(f) => {
            let mut b = FaultBehavior::pair_cells();
            b.write_rules.push(WriteRule {
                at: Role::Aggressor,
                value: Some(Bit::One),
                pre: Some(Bit::Zero),
                effect: WriteEffect::ForceVictim(f),
            });
            b.write_rules.push(WriteRule {
                at: Role::Aggressor,
                value: Some(Bit::Zero),
                pre: Some(Bit::One),
                effect: WriteEffect::ForceVictim(f.flip()),
            });
            b
        }
    }
}

/// Behavioural two-cell machines of the fault model's instances, labelled
/// by which cell (or ordered pair role) is affected. Returns an empty
/// vector for [`FaultModel::StuckOpen`], whose sense-amplifier latch is
/// not a function of the pair state, and for the dynamic faults, whose
/// effect depends on operation history (the n-cell simulator models both
/// directly).
#[must_use]
pub fn machines(model: FaultModel) -> Vec<(String, TwoCellMachine)> {
    let m0 = TwoCellMachine::fault_free();
    let states = PairState::all_known();
    match model {
        FaultModel::StuckOpen
        | FaultModel::DynamicReadDestructive(_)
        | FaultModel::DynamicDeceptiveReadDestructive(_)
        | FaultModel::DynamicIncorrectRead(_) => Vec::new(),
        FaultModel::StuckAt(v) => per_cell(model, |c| {
            let mut m = m0.clone();
            for s in states {
                for d in Bit::ALL {
                    m = m.with_delta(s, MemOp::write(c, d), {
                        let good = m0.transition(s, MemOp::write(c, d)).next;
                        good.with(c, v.into())
                    });
                }
                m = m.with_override(
                    s,
                    MemOp::read(c),
                    marchgen_model::Transition {
                        next: s,
                        output: Some(v),
                    },
                );
            }
            m
        }),
        FaultModel::Transition(dir) => per_cell(model, |c| {
            let mut m = m0.clone();
            for s in states {
                if s.get(c) == dir.from_value().into() {
                    m = m.with_delta(s, MemOp::write(c, dir.to_value()), s);
                }
            }
            m
        }),
        FaultModel::ReadDestructive(x) => per_cell(model, |c| {
            let mut m = m0.clone();
            for s in states {
                if s.get(c) == x.into() {
                    m = m.with_override(
                        s,
                        MemOp::read(c),
                        marchgen_model::Transition {
                            next: s.with(c, x.flip().into()),
                            output: Some(x.flip()),
                        },
                    );
                }
            }
            m
        }),
        FaultModel::DeceptiveReadDestructive(x) => per_cell(model, |c| {
            let mut m = m0.clone();
            for s in states {
                if s.get(c) == x.into() {
                    m = m.with_delta(s, MemOp::read(c), s.with(c, x.flip().into()));
                }
            }
            m
        }),
        FaultModel::IncorrectRead(x) => per_cell(model, |c| {
            let mut m = m0.clone();
            for s in states {
                if s.get(c) == x.into() {
                    m = m.with_lambda(s, MemOp::read(c), Some(x.flip()));
                }
            }
            m
        }),
        FaultModel::DataRetention(x) => per_cell(model, |c| {
            let mut m = m0.clone();
            for s in states {
                if s.get(c) == x.into() {
                    m = m.with_delta(s, MemOp::Delay, s.with(c, x.flip().into()));
                }
            }
            m
        }),
        FaultModel::AddressDecoder(AdfKind::Write) => per_aggressor(model, |aggr| {
            let victim = aggr.other();
            let mut m = m0.clone();
            for s in states {
                for d in Bit::ALL {
                    let good = m0.transition(s, MemOp::write(aggr, d)).next;
                    m = m.with_delta(s, MemOp::write(aggr, d), good.with(victim, d.into()));
                }
            }
            m
        }),
        FaultModel::AddressDecoder(AdfKind::Read) => per_aggressor(model, |read| {
            let other = read.other();
            let mut m = m0.clone();
            for s in states {
                m = m.with_lambda(s, MemOp::read(read), s.get(other).bit());
            }
            m
        }),
        FaultModel::CouplingInversion(dir) => per_aggressor(model, |aggr| {
            let victim = aggr.other();
            let mut m = m0.clone();
            for s in states {
                if s.get(aggr) == dir.from_value().into() {
                    let good = m0.transition(s, MemOp::write(aggr, dir.to_value())).next;
                    m = m.with_delta(
                        s,
                        MemOp::write(aggr, dir.to_value()),
                        good.with(victim, good.get(victim).flip()),
                    );
                }
            }
            m
        }),
        FaultModel::CouplingIdempotent(dir, f) => per_aggressor(model, |aggr| {
            let victim = aggr.other();
            let mut m = m0.clone();
            for s in states {
                if s.get(aggr) == dir.from_value().into() && s.get(victim) == f.flip().into() {
                    let good = m0.transition(s, MemOp::write(aggr, dir.to_value())).next;
                    m = m.with_delta(
                        s,
                        MemOp::write(aggr, dir.to_value()),
                        good.with(victim, f.into()),
                    );
                }
            }
            m
        }),
        FaultModel::CouplingState(cond, f) => per_aggressor(model, |aggr| {
            let victim = aggr.other();
            let mut m = m0.clone();
            for s in states {
                // Entering the condition with a sensitized victim.
                if s.get(aggr) == cond.flip().into() && s.get(victim) == f.flip().into() {
                    let good = m0.transition(s, MemOp::write(aggr, cond)).next;
                    m = m.with_delta(s, MemOp::write(aggr, cond), good.with(victim, f.into()));
                }
                // Victim writes that cannot stick while the condition holds.
                if s.get(aggr) == cond.into() {
                    let good = m0.transition(s, MemOp::write(victim, f.flip())).next;
                    m = m.with_delta(
                        s,
                        MemOp::write(victim, f.flip()),
                        good.with(victim, f.into()),
                    );
                }
            }
            m
        }),
        FaultModel::LinkedIdempotent(f) => per_aggressor(model, |aggr| {
            let victim = aggr.other();
            let mut m = m0.clone();
            for s in states {
                // ↑-link: CFid⟨↑,f⟩, sensitized victim holds f̄.
                if s.get(aggr) == Bit::Zero.into() && s.get(victim) == f.flip().into() {
                    let good = m0.transition(s, MemOp::write(aggr, Bit::One)).next;
                    m = m.with_delta(s, MemOp::write(aggr, Bit::One), good.with(victim, f.into()));
                }
                // ↓-link: CFid⟨↓,f̄⟩, sensitized victim holds f.
                if s.get(aggr) == Bit::One.into() && s.get(victim) == f.into() {
                    let good = m0.transition(s, MemOp::write(aggr, Bit::Zero)).next;
                    m = m.with_delta(
                        s,
                        MemOp::write(aggr, Bit::Zero),
                        good.with(victim, f.flip().into()),
                    );
                }
            }
            m
        }),
    }
}

fn per_cell(
    model: FaultModel,
    build: impl Fn(Cell) -> TwoCellMachine,
) -> Vec<(String, TwoCellMachine)> {
    Cell::ALL
        .into_iter()
        .map(|c| (format!("{model} on cell {c}"), build(c)))
        .collect()
}

fn per_aggressor(
    model: FaultModel,
    build: impl Fn(Cell) -> TwoCellMachine,
) -> Vec<(String, TwoCellMachine)> {
    Cell::ALL
        .into_iter()
        .map(|c| (format!("{model} (aggressor {c})"), build(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_flattens_classes() {
        for model in FaultModel::all_extended() {
            let flat: Vec<_> = classes(model)
                .into_iter()
                .flat_map(|c| c.alternatives)
                .collect();
            assert_eq!(lower(model), flat, "{model}");
            assert!(!lower(model).is_empty(), "{model} lowers to nothing");
        }
    }

    #[test]
    fn primitive_scope_matches_model_arity() {
        use crate::tp::TpKind;
        for model in FaultModel::all_extended() {
            let want = if model.is_pair_fault() {
                TpKind::Pair
            } else {
                TpKind::SingleCell
            };
            for p in lower(model) {
                assert_eq!(p.scope, want, "{model}: {p}");
            }
        }
    }

    #[test]
    fn behavior_arity_matches_model() {
        for model in FaultModel::all_extended() {
            assert_eq!(
                behavior(model).pair,
                model.is_pair_fault(),
                "{model} behaviour arity"
            );
        }
    }

    #[test]
    fn only_dynamic_models_are_dynamic() {
        for model in FaultModel::all_extended() {
            let is_dyn = matches!(
                model,
                FaultModel::DynamicReadDestructive(_)
                    | FaultModel::DynamicDeceptiveReadDestructive(_)
                    | FaultModel::DynamicIncorrectRead(_)
            );
            assert_eq!(behavior(model).is_dynamic(), is_dyn, "{model}");
            // Dynamic models lower to two-operation sequences; everything
            // else to single-operation ones.
            for p in lower(model) {
                assert_eq!(p.sequence().len() == 2, is_dyn, "{model}: {p}");
            }
        }
    }

    #[test]
    fn dynamic_models_have_no_state_machine() {
        for model in FaultModel::all_extended() {
            if behavior(model).is_dynamic() {
                assert!(machines(model).is_empty(), "{model}");
            }
        }
    }

    #[test]
    fn lcf_links_both_cfid_components() {
        let cs = classes(FaultModel::LinkedIdempotent(Bit::Zero));
        assert_eq!(cs.len(), 4, "two links × two address orders");
        assert!(cs.iter().all(|c| c.alternatives.len() == 1));
        assert_eq!(cs[0].label, "LCF<0> ↑-link (aggressor i)");
        assert_eq!(cs[1].label, "LCF<0> ↓-link (aggressor i)");
        // ↑-link TP equals the CFid⟨↑,0⟩ detection TP.
        let cfid = classes(FaultModel::CouplingIdempotent(TransitionDir::Up, Bit::Zero));
        assert_eq!(cs[0].alternatives, cfid[0].alternatives);
        // LCF machines carry both component BFEs.
        let ms = machines(FaultModel::LinkedIdempotent(Bit::Zero));
        assert_eq!(ms.len(), 2);
        let m0 = TwoCellMachine::fault_free();
        assert_eq!(m0.diff(&ms[0].1).len(), 2, "↑ and ↓ component deltas");
    }

    #[test]
    fn all_extended_primitives_are_consistent() {
        for model in FaultModel::all_extended() {
            for p in lower(model) {
                assert!(p.to_pattern().is_consistent(), "{model}: {p}");
            }
        }
    }
}
