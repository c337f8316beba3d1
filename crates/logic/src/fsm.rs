//! Symbolic Mealy finite-state machines.

use crate::cube::Cube;
use crate::sop::Sop;
use std::error::Error;
use std::fmt;

/// One FSM transition: in state `from`, when the inputs satisfy `guard`,
/// move to `to` asserting `outputs` (bit per output, Mealy style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Source state index.
    pub from: usize,
    /// Input condition (cube over the FSM inputs).
    pub guard: Cube,
    /// Destination state index.
    pub to: usize,
    /// Outputs asserted while this transition fires (bitmask).
    pub outputs: u64,
}

/// A deficiency found by [`Fsm::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmError {
    /// Two transitions of one state have overlapping guards.
    NondeterministicState {
        /// The offending state.
        state: usize,
    },
    /// A state's guards do not cover every input combination.
    IncompleteState {
        /// The offending state.
        state: usize,
    },
    /// A transition references a state index outside the machine.
    DanglingState {
        /// The offending index.
        state: usize,
    },
    /// An output bit beyond `num_outputs` is asserted.
    OutputOutOfRange {
        /// The transition's source state.
        state: usize,
    },
    /// A guard binds an input beyond `num_inputs`.
    GuardOutOfRange {
        /// The transition's source state.
        state: usize,
    },
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmError::NondeterministicState { state } => {
                write!(f, "state {state} has overlapping transition guards")
            }
            FsmError::IncompleteState { state } => {
                write!(f, "state {state} does not cover all input combinations")
            }
            FsmError::DanglingState { state } => {
                write!(f, "transition references unknown state {state}")
            }
            FsmError::OutputOutOfRange { state } => {
                write!(
                    f,
                    "state {state} asserts an output beyond the declared width"
                )
            }
            FsmError::GuardOutOfRange { state } => {
                write!(
                    f,
                    "state {state} has a guard on an input beyond the declared width"
                )
            }
        }
    }
}

impl Error for FsmError {}

/// A Mealy machine over `num_inputs` input bits and `num_outputs` output
/// bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Fsm {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    states: Vec<String>,
    reset: usize,
    transitions: Vec<Transition>,
}

impl Fsm {
    /// Creates an FSM shell; add states and transitions afterwards.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 inputs or outputs are requested.
    pub fn new(name: impl Into<String>, num_inputs: usize, num_outputs: usize) -> Self {
        assert!(num_inputs <= 64, "FSMs are limited to 64 inputs");
        assert!(num_outputs <= 64, "FSMs are limited to 64 outputs");
        Self {
            name: name.into(),
            num_inputs,
            num_outputs,
            states: Vec::new(),
            reset: 0,
            transitions: Vec::new(),
        }
    }

    /// Adds a named state, returning its index.
    pub fn add_state(&mut self, name: impl Into<String>) -> usize {
        self.states.push(name.into());
        self.states.len() - 1
    }

    /// Declares the reset state.
    ///
    /// # Panics
    ///
    /// Panics if `state` was never added.
    pub fn set_reset(&mut self, state: usize) {
        assert!(state < self.states.len(), "unknown reset state");
        self.reset = state;
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, t: Transition) {
        self.transitions.push(t);
    }

    /// The machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output bits.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// State names, indexed by state index.
    pub fn state_names(&self) -> &[String] {
        &self.states
    }

    /// The reset state index.
    pub fn reset_state(&self) -> usize {
        self.reset
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Transitions leaving `state`.
    pub fn transitions_from(&self, state: usize) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.from == state)
    }

    /// Checks determinism, completeness and referential integrity, and
    /// that every guard and output stays within the declared widths.
    ///
    /// # Errors
    ///
    /// Returns the first [`FsmError`] found.
    pub fn validate(&self) -> Result<(), FsmError> {
        let n = self.states.len();
        for t in &self.transitions {
            if t.from >= n || t.to >= n {
                return Err(FsmError::DanglingState {
                    state: t.from.max(t.to),
                });
            }
            if self.num_outputs < 64 && t.outputs >> self.num_outputs != 0 {
                return Err(FsmError::OutputOutOfRange { state: t.from });
            }
            if self.num_inputs < 64 && t.guard.mask() >> self.num_inputs != 0 {
                return Err(FsmError::GuardOutOfRange { state: t.from });
            }
        }
        for state in 0..n {
            let guards: Vec<Cube> = self.transitions_from(state).map(|t| t.guard).collect();
            for i in 0..guards.len() {
                for j in (i + 1)..guards.len() {
                    if guards[i].intersects(guards[j]) {
                        return Err(FsmError::NondeterministicState { state });
                    }
                }
            }
            let cover = Sop::from_cubes(self.num_inputs, guards);
            if !cover.is_tautology() {
                return Err(FsmError::IncompleteState { state });
            }
        }
        Ok(())
    }

    /// Behavioural step: from `state` with `inputs`, returns
    /// `(next_state, outputs)`.
    ///
    /// # Panics
    ///
    /// Panics if no transition matches (machines that pass
    /// [`validate`](Self::validate) always match).
    pub fn step(&self, state: usize, inputs: u64) -> (usize, u64) {
        self.transitions_from(state)
            .find(|t| t.guard.eval(inputs))
            .map(|t| (t.to, t.outputs))
            .unwrap_or_else(|| panic!("state {state} has no transition for inputs {inputs:#b}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-input toggle machine: toggles state while the input is high and
    /// asserts output 0 in state 1.
    fn toggle() -> Fsm {
        let mut fsm = Fsm::new("toggle", 1, 1);
        let s0 = fsm.add_state("S0");
        let s1 = fsm.add_state("S1");
        fsm.set_reset(s0);
        let hi = Cube::universe().with_lit(0, true);
        let lo = Cube::universe().with_lit(0, false);
        fsm.add_transition(Transition {
            from: s0,
            guard: hi,
            to: s1,
            outputs: 0b1,
        });
        fsm.add_transition(Transition {
            from: s0,
            guard: lo,
            to: s0,
            outputs: 0,
        });
        fsm.add_transition(Transition {
            from: s1,
            guard: hi,
            to: s0,
            outputs: 0,
        });
        fsm.add_transition(Transition {
            from: s1,
            guard: lo,
            to: s1,
            outputs: 0b1,
        });
        fsm
    }

    #[test]
    fn toggle_validates_and_steps() {
        let fsm = toggle();
        fsm.validate().expect("deterministic and complete");
        let (s, o) = fsm.step(0, 1);
        assert_eq!((s, o), (1, 1));
        let (s, o) = fsm.step(s, 0);
        assert_eq!((s, o), (1, 1));
        let (s, o) = fsm.step(s, 1);
        assert_eq!((s, o), (0, 0));
    }

    #[test]
    fn overlapping_guards_detected() {
        let mut fsm = Fsm::new("bad", 1, 0);
        let s0 = fsm.add_state("S0");
        fsm.add_transition(Transition {
            from: s0,
            guard: Cube::universe(),
            to: s0,
            outputs: 0,
        });
        fsm.add_transition(Transition {
            from: s0,
            guard: Cube::universe().with_lit(0, true),
            to: s0,
            outputs: 0,
        });
        assert_eq!(
            fsm.validate(),
            Err(FsmError::NondeterministicState { state: 0 })
        );
    }

    #[test]
    fn incomplete_guards_detected() {
        let mut fsm = Fsm::new("bad", 1, 0);
        let s0 = fsm.add_state("S0");
        fsm.add_transition(Transition {
            from: s0,
            guard: Cube::universe().with_lit(0, true),
            to: s0,
            outputs: 0,
        });
        assert_eq!(fsm.validate(), Err(FsmError::IncompleteState { state: 0 }));
    }

    #[test]
    fn dangling_state_detected() {
        let mut fsm = Fsm::new("bad", 0, 0);
        let s0 = fsm.add_state("S0");
        fsm.add_transition(Transition {
            from: s0,
            guard: Cube::universe(),
            to: 7,
            outputs: 0,
        });
        assert_eq!(fsm.validate(), Err(FsmError::DanglingState { state: 7 }));
    }

    #[test]
    fn output_range_checked() {
        let mut fsm = Fsm::new("bad", 0, 1);
        let s0 = fsm.add_state("S0");
        fsm.add_transition(Transition {
            from: s0,
            guard: Cube::universe(),
            to: s0,
            outputs: 0b10,
        });
        assert_eq!(fsm.validate(), Err(FsmError::OutputOutOfRange { state: 0 }));
    }

    #[test]
    fn guard_range_checked() {
        // One input, but the guards test a second one: without the check
        // the machine validates and synthesis drops the `x1` literals.
        let mut fsm = Fsm::new("bad", 1, 0);
        for i in 0..3 {
            fsm.add_state(format!("S{i}"));
        }
        for s in 0..3 {
            for p in [true, false] {
                fsm.add_transition(Transition {
                    from: s,
                    guard: Cube::universe().with_lit(1, p),
                    to: if p { (s + 1) % 3 } else { s },
                    outputs: 0,
                });
            }
        }
        assert_eq!(fsm.validate(), Err(FsmError::GuardOutOfRange { state: 0 }));
        assert_eq!(
            FsmError::GuardOutOfRange { state: 0 }.to_string(),
            "state 0 has a guard on an input beyond the declared width"
        );
    }
}
