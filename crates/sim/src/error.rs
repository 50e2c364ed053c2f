//! Error types for the simulator.

use hdp_hdl::HdlError;
use std::error::Error;
use std::fmt;

/// Errors produced while building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A signal name or width was rejected.
    Hdl(HdlError),
    /// A referenced signal does not exist.
    UnknownSignal {
        /// The raw signal index.
        index: usize,
    },
    /// A component drove or read a signal with the wrong width.
    SignalWidth {
        /// Name of the signal.
        signal: String,
        /// Width expected by the signal.
        expected: usize,
        /// Width of the offending value.
        found: usize,
    },
    /// Combinational settling did not converge — a zero-delay feedback
    /// loop between components.
    NoConvergence {
        /// The delta-cycle limit that was exhausted.
        limit: usize,
        /// `signal (last driven by component)` descriptions of the
        /// signals still changing in the final delta pass — the wires
        /// of the feedback loop. Capped to the first few offenders.
        oscillating: Vec<String>,
    },
    /// A component detected a protocol violation (FIFO overflow, VGA
    /// underrun, SRAM handshake misuse, ...).
    Protocol {
        /// The reporting component.
        component: String,
        /// Description of the violation.
        message: String,
    },
    /// Duplicate signal name.
    DuplicateSignal {
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Hdl(e) => write!(f, "{e}"),
            SimError::UnknownSignal { index } => write!(f, "unknown signal #{index}"),
            SimError::SignalWidth {
                signal,
                expected,
                found,
            } => write!(
                f,
                "signal `{signal}` has width {expected}, driven with width {found}"
            ),
            SimError::NoConvergence { limit, oscillating } => {
                write!(f, "combinational settling exceeded {limit} delta cycles")?;
                if !oscillating.is_empty() {
                    write!(f, "; oscillating: {}", oscillating.join(", "))?;
                }
                Ok(())
            }
            SimError::Protocol { component, message } => {
                write!(f, "protocol violation in `{component}`: {message}")
            }
            SimError::DuplicateSignal { name } => {
                write!(f, "duplicate signal name `{name}`")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Hdl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HdlError> for SimError {
    fn from(e: HdlError) -> Self {
        SimError::Hdl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn hdl_error_converts_and_sources() {
        let e = SimError::from(HdlError::InvalidWidth { width: 0 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("width"));
    }

    #[test]
    fn no_convergence_names_oscillating_signals() {
        let e = SimError::NoConvergence {
            limit: 64,
            oscillating: vec![
                "x (last driven by `a`)".into(),
                "y (last driven by `b`)".into(),
            ],
        };
        let text = e.to_string();
        assert!(text.contains("64"));
        assert!(text.contains("x (last driven by `a`)"));
        assert!(text.contains("y (last driven by `b`)"));
    }

    #[test]
    fn protocol_error_names_component() {
        let e = SimError::Protocol {
            component: "u_fifo".into(),
            message: "push on full".into(),
        };
        assert!(e.to_string().contains("u_fifo"));
        assert!(e.to_string().contains("push on full"));
    }
}
