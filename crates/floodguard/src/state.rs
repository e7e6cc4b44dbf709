//! The FloodGuard finite-state machine (paper Fig. 3):
//! Idle → Init → Defense → Finish → Idle.

use std::fmt;

/// The four states of FloodGuard's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum State {
    /// No attack: only the monitoring component is active.
    Idle,
    /// Attack detected: migration rules being installed, analyzer tracking
    /// applications, cache starting to absorb table-miss packets.
    Init,
    /// Proactive flow rules installed and kept current; table-miss packets
    /// flow through the cache under rate limiting.
    Defense,
    /// Attack over: migration stopped, cache draining its backlog.
    Finish,
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            State::Idle => "idle",
            State::Init => "init",
            State::Defense => "defense",
            State::Finish => "finish",
        })
    }
}

/// A recorded transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// State left.
    pub from: State,
    /// State entered.
    pub to: State,
    /// Simulation time of the transition.
    pub at: f64,
}

/// The state machine with a transition log.
///
/// Transitions are restricted to the cycle of the paper's Fig. 3; illegal
/// jumps are rejected.
#[derive(Debug, Clone)]
pub struct StateMachine {
    current: State,
    log: Vec<Transition>,
}

impl StateMachine {
    /// Creates a machine in [`State::Idle`].
    pub fn new() -> StateMachine {
        StateMachine {
            current: State::Idle,
            log: Vec::new(),
        }
    }

    /// The current state.
    pub fn state(&self) -> State {
        self.current
    }

    /// The transition log.
    pub fn log(&self) -> &[Transition] {
        &self.log
    }

    /// Attempts the transition to `to` at time `at`.
    ///
    /// Returns `true` when legal (and performs it), `false` otherwise.
    /// Legal edges: Idle→Init, Init→Defense, Defense→Finish, Finish→Idle,
    /// plus Finish→Init (a new attack starts while the cache still drains).
    pub fn transition(&mut self, to: State, at: f64) -> bool {
        let legal = matches!(
            (self.current, to),
            (State::Idle, State::Init)
                | (State::Init, State::Defense)
                | (State::Defense, State::Finish)
                | (State::Finish, State::Idle)
                | (State::Finish, State::Init)
        );
        if legal {
            self.log.push(Transition {
                from: self.current,
                to,
                at,
            });
            self.current = to;
        }
        legal
    }

    /// Whether FloodGuard is actively defending (Init or Defense).
    pub fn is_active(&self) -> bool {
        matches!(self.current, State::Init | State::Defense)
    }
}

impl Default for StateMachine {
    fn default() -> Self {
        StateMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cycle() {
        let mut sm = StateMachine::new();
        assert_eq!(sm.state(), State::Idle);
        assert!(!sm.is_active());
        assert!(sm.transition(State::Init, 1.0));
        assert!(sm.is_active());
        assert!(sm.transition(State::Defense, 1.1));
        assert!(sm.transition(State::Finish, 5.0));
        assert!(!sm.is_active());
        assert!(sm.transition(State::Idle, 6.0));
        assert_eq!(sm.log().len(), 4);
        assert_eq!(sm.log()[0].from, State::Idle);
        assert_eq!(sm.log()[3].at, 6.0);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut sm = StateMachine::new();
        assert!(
            !sm.transition(State::Defense, 0.0),
            "idle cannot jump to defense"
        );
        assert!(!sm.transition(State::Finish, 0.0));
        assert!(!sm.transition(State::Idle, 0.0), "self loop rejected");
        sm.transition(State::Init, 1.0);
        assert!(
            !sm.transition(State::Idle, 1.5),
            "init cannot abort to idle"
        );
        assert!(!sm.transition(State::Finish, 1.5));
        assert_eq!(sm.log().len(), 1);
    }

    #[test]
    fn renewed_attack_during_drain() {
        let mut sm = StateMachine::new();
        sm.transition(State::Init, 1.0);
        sm.transition(State::Defense, 1.2);
        sm.transition(State::Finish, 3.0);
        // A fresh flood arrives while the cache drains.
        assert!(sm.transition(State::Init, 3.5));
        assert_eq!(sm.state(), State::Init);
    }

    #[test]
    fn display_names() {
        assert_eq!(State::Idle.to_string(), "idle");
        assert_eq!(State::Defense.to_string(), "defense");
    }
}
