//! Declarative fault behaviour — the **simulation-side lowering
//! target**.
//!
//! A [`FaultBehavior`] is a small rule table describing how one fault
//! model perturbs the three memory operations (write, read, wait): which
//! site cell a rule applies to, what trigger condition arms it, and what
//! effect it has on the stored value, the read output, or the coupled
//! victim cell. The scalar simulator (`marchgen-sim`'s `FaultyMemory`)
//! and the packed verifier (`widesim::WideBatch`) are *generic
//! interpreters* over this table — neither contains a single
//! `FaultModel`-variant match. The only place rules are authored is
//! [`crate::lowering::behavior`].
//!
//! Two-operation **dynamic faults** are expressed through
//! [`ReadRule::after_write`]: the rule arms only when the immediately
//! preceding operation was a write of the given value to the same
//! address (the interpreter tracks one `last_write` slot, cleared by any
//! read or delay).

use marchgen_model::Bit;

/// Which site cell an interpreter rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The single-cell site address.
    Single,
    /// The aggressor address of a pair site.
    Aggressor,
}

/// What an armed [`WriteRule`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteEffect {
    /// The write is lost (transition faults, the stuck-open cell).
    Block,
    /// The write lands but the cell ends at the given value (stuck-at).
    Force(Bit),
    /// The written value also lands in the victim cell (write-decoder
    /// faults).
    CopyToVictim,
    /// The victim cell inverts (inversion coupling).
    FlipVictim,
    /// The victim cell is forced to the given value (idempotent and
    /// linked coupling).
    ForceVictim(Bit),
}

/// One write-path rule: when a write at the rule's [`Role`] cell matches
/// the `value`/`pre` triggers, `effect` fires. Trigger comparisons use
/// the cell's **pre-write** content, matching the behavioural catalog
/// (re-writing 1 over 1 is not a transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRule {
    /// The site cell the written address must be.
    pub at: Role,
    /// Written value the rule requires (`None` = any).
    pub value: Option<Bit>,
    /// Pre-write content the rule requires (`None` = any).
    pub pre: Option<Bit>,
    /// What happens when the rule arms.
    pub effect: WriteEffect,
}

/// Where an armed [`ReadRule`] takes the read output from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutput {
    /// The stored value (the fault only perturbs storage).
    Stored,
    /// The complement of the stored value (incorrect/destructive reads).
    Complement,
    /// The sense-amplifier latch (stuck-open).
    Latch,
    /// The victim cell's content (read-decoder faults).
    Victim,
}

/// What an armed [`ReadRule`] does to the stored value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreEffect {
    /// Storage untouched.
    Keep,
    /// The cell flips (destructive reads).
    Flip,
}

/// One read-path rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRule {
    /// The site cell the read address must be.
    pub at: Role,
    /// Stored value the rule requires (`None` = any).
    pub holds: Option<Bit>,
    /// Dynamic trigger: the rule arms only when the immediately
    /// preceding operation was a write of this value to the same
    /// address (`None` = static rule, no history condition).
    pub after_write: Option<Bit>,
    /// Where the device output comes from.
    pub output: ReadOutput,
    /// What happens to the stored value.
    pub store: StoreEffect,
}

/// A continuously enforced state condition (state coupling): while the
/// aggressor holds `when`, the victim is forced to `force`. Re-applied
/// after **every** operation, including power-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invariant {
    /// Aggressor content that activates the condition.
    pub when: Bit,
    /// Value the victim is forced to while active.
    pub force: Bit,
}

/// The complete declarative behaviour of one fault model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultBehavior {
    /// `true` when instances are ordered cell pairs (aggressor/victim).
    pub pair: bool,
    /// `true` when the model reads the sense-amplifier latch, so both
    /// latch power-up values are distinct scenarios (stuck-open).
    pub uses_latch: bool,
    /// Value the site cell is forced to at power-up (stuck-at).
    pub powerup_force: Option<Bit>,
    /// Continuous state-coupling condition, if any.
    pub invariant: Option<Invariant>,
    /// Write-path rules, applied in order.
    pub write_rules: Vec<WriteRule>,
    /// Read-path rules; the first armed rule wins.
    pub read_rules: Vec<ReadRule>,
    /// Wait-period decay: a site cell holding this value flips on `Del`.
    pub delay_flip: Option<Bit>,
}

impl FaultBehavior {
    /// An inert single-cell behaviour to extend per model.
    #[must_use]
    pub fn single_cell() -> FaultBehavior {
        FaultBehavior {
            pair: false,
            uses_latch: false,
            powerup_force: None,
            invariant: None,
            write_rules: Vec::new(),
            read_rules: Vec::new(),
            delay_flip: None,
        }
    }

    /// An inert pair behaviour to extend per model.
    #[must_use]
    pub fn pair_cells() -> FaultBehavior {
        FaultBehavior {
            pair: true,
            ..FaultBehavior::single_cell()
        }
    }

    /// `true` when any rule carries an operation-history trigger — the
    /// interpreters must track the last write, and the behaviour is not
    /// expressible as a two-cell Mealy machine over state alone.
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        self.read_rules.iter().any(|r| r.after_write.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaffold_constructors() {
        assert!(!FaultBehavior::single_cell().pair);
        assert!(FaultBehavior::pair_cells().pair);
        assert!(!FaultBehavior::single_cell().is_dynamic());
    }

    #[test]
    fn dynamic_detection_keys_on_after_write() {
        let mut b = FaultBehavior::single_cell();
        b.read_rules.push(ReadRule {
            at: Role::Single,
            holds: Some(Bit::Zero),
            after_write: Some(Bit::Zero),
            output: ReadOutput::Complement,
            store: StoreEffect::Flip,
        });
        assert!(b.is_dynamic());
    }
}
