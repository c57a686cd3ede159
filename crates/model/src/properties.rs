//! Checkers for the consensus and weak-consensus correctness properties.
//!
//! The paper (§3) defines a hierarchy of properties on the input/output
//! relation of a deciding object:
//!
//! * **Validity** — every output value equals some process's input.
//! * **Agreement** — all output values are equal.
//! * **Coherence** — if any process outputs `(1, v)`, no process outputs
//!   `(d, v′)` with `v′ ≠ v`.
//! * **Acceptance** (ratifiers) — if all inputs equal `v`, all outputs are
//!   `(1, v)`.
//! * **Full decision** (consensus) — every process outputs `(1, ·)`.
//!
//! These functions take the per-process inputs and the per-process outputs of
//! a completed run and report the first violation found. Probabilistic
//! agreement (conciliators) is a distributional property checked statistically
//! by the experiment harness, not here.

use std::error::Error;
use std::fmt;

use crate::{Decision, ProcessId, Value};

/// A violated correctness property, with the witnessing processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyViolation {
    /// A process output a value that is nobody's input.
    Validity {
        /// The offending process.
        pid: ProcessId,
        /// The invalid output value.
        value: Value,
    },
    /// Two processes output different values.
    Agreement {
        /// First witness process.
        pid_a: ProcessId,
        /// First witness value.
        value_a: Value,
        /// Second witness process.
        pid_b: ProcessId,
        /// Second witness value.
        value_b: Value,
    },
    /// A process decided `v` while another output `v′ ≠ v`.
    Coherence {
        /// The process that decided.
        decider: ProcessId,
        /// The decided value.
        decided: Value,
        /// The conflicting process.
        other: ProcessId,
        /// The conflicting value.
        conflicting: Value,
    },
    /// Inputs were unanimous but some process failed to decide that value.
    Acceptance {
        /// The unanimous input.
        unanimous: Value,
        /// The offending process.
        pid: ProcessId,
        /// Its (wrong or undecided) output.
        output: Decision,
    },
    /// A process failed to decide (decision bit 0) in a full consensus run.
    Undecided {
        /// The offending process.
        pid: ProcessId,
        /// Its output.
        output: Decision,
    },
}

impl PropertyViolation {
    /// The violated property's name, without witness details — useful for
    /// comparing verdicts across checkers that may surface different
    /// witnesses of the same failure.
    pub fn kind(&self) -> &'static str {
        match self {
            PropertyViolation::Validity { .. } => "validity",
            PropertyViolation::Agreement { .. } => "agreement",
            PropertyViolation::Coherence { .. } => "coherence",
            PropertyViolation::Acceptance { .. } => "acceptance",
            PropertyViolation::Undecided { .. } => "undecided",
        }
    }
}

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyViolation::Validity { pid, value } => {
                write!(
                    f,
                    "validity violated: {pid} output {value}, which is nobody's input"
                )
            }
            PropertyViolation::Agreement {
                pid_a,
                value_a,
                pid_b,
                value_b,
            } => write!(
                f,
                "agreement violated: {pid_a} output {value_a} but {pid_b} output {value_b}"
            ),
            PropertyViolation::Coherence {
                decider,
                decided,
                other,
                conflicting,
            } => write!(
                f,
                "coherence violated: {decider} decided {decided} but {other} output {conflicting}"
            ),
            PropertyViolation::Acceptance {
                unanimous,
                pid,
                output,
            } => write!(
                f,
                "acceptance violated: all inputs were {unanimous} but {pid} output {output}"
            ),
            PropertyViolation::Undecided { pid, output } => {
                write!(f, "process {pid} failed to decide: output {output}")
            }
        }
    }
}

impl Error for PropertyViolation {}

/// Checks validity: every output value is some process's input.
///
/// # Errors
///
/// Returns the first [`PropertyViolation::Validity`] found.
pub fn check_validity(inputs: &[Value], outputs: &[Decision]) -> Result<(), PropertyViolation> {
    for (ix, out) in outputs.iter().enumerate() {
        if !inputs.contains(&out.value()) {
            return Err(PropertyViolation::Validity {
                pid: ProcessId(ix),
                value: out.value(),
            });
        }
    }
    Ok(())
}

/// Checks agreement: all output values are equal.
///
/// # Errors
///
/// Returns the first [`PropertyViolation::Agreement`] found.
pub fn check_agreement(outputs: &[Decision]) -> Result<(), PropertyViolation> {
    let Some(first) = outputs.first() else {
        return Ok(());
    };
    for (ix, out) in outputs.iter().enumerate().skip(1) {
        if out.value() != first.value() {
            return Err(PropertyViolation::Agreement {
                pid_a: ProcessId(0),
                value_a: first.value(),
                pid_b: ProcessId(ix),
                value_b: out.value(),
            });
        }
    }
    Ok(())
}

/// Checks coherence: if any process output `(1, v)`, every output value is
/// `v` (whatever its decision bit).
///
/// # Errors
///
/// Returns the first [`PropertyViolation::Coherence`] found.
pub fn check_coherence(outputs: &[Decision]) -> Result<(), PropertyViolation> {
    let decider = outputs.iter().enumerate().find(|(_, out)| out.is_decided());
    let Some((dix, dout)) = decider else {
        return Ok(());
    };
    for (ix, out) in outputs.iter().enumerate() {
        if out.value() != dout.value() {
            return Err(PropertyViolation::Coherence {
                decider: ProcessId(dix),
                decided: dout.value(),
                other: ProcessId(ix),
                conflicting: out.value(),
            });
        }
    }
    Ok(())
}

/// Checks acceptance (the defining property of ratifiers): if all inputs are
/// the same value `v`, every output must be `(1, v)`.
///
/// Vacuously satisfied when inputs are not unanimous.
///
/// # Errors
///
/// Returns the first [`PropertyViolation::Acceptance`] found.
pub fn check_acceptance(inputs: &[Value], outputs: &[Decision]) -> Result<(), PropertyViolation> {
    let Some(&first) = inputs.first() else {
        return Ok(());
    };
    if inputs.iter().any(|&v| v != first) {
        return Ok(());
    }
    for (ix, out) in outputs.iter().enumerate() {
        if !out.is_decided() || out.value() != first {
            return Err(PropertyViolation::Acceptance {
                unanimous: first,
                pid: ProcessId(ix),
                output: *out,
            });
        }
    }
    Ok(())
}

/// Checks that every process decided (decision bit 1) — required of a full
/// consensus object, on top of validity and agreement.
///
/// # Errors
///
/// Returns the first [`PropertyViolation::Undecided`] found.
fn check_all_decided(outputs: &[Decision]) -> Result<(), PropertyViolation> {
    for (ix, out) in outputs.iter().enumerate() {
        if !out.is_decided() {
            return Err(PropertyViolation::Undecided {
                pid: ProcessId(ix),
                output: *out,
            });
        }
    }
    Ok(())
}

/// Checks the full consensus contract: everyone decided, outputs valid and in
/// agreement.
///
/// # Errors
///
/// Returns the first violation found, checking decision, validity, then
/// agreement.
pub fn check_consensus(inputs: &[Value], outputs: &[Decision]) -> Result<(), PropertyViolation> {
    check_all_decided(outputs)?;
    check_validity(inputs, outputs)?;
    check_agreement(outputs)
}

/// Checks the weak-consensus contract (validity + coherence); termination is
/// witnessed by the outputs existing at all.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_weak_consensus(
    inputs: &[Value],
    outputs: &[Decision],
) -> Result<(), PropertyViolation> {
    check_validity(inputs, outputs)?;
    check_coherence(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: Value) -> Decision {
        Decision::decide(v)
    }
    fn c(v: Value) -> Decision {
        Decision::continue_with(v)
    }

    #[test]
    fn validity_accepts_inputs_only() {
        assert!(check_validity(&[1, 2], &[c(1), d(2)]).is_ok());
        let err = check_validity(&[1, 2], &[c(3)]).unwrap_err();
        assert!(matches!(err, PropertyViolation::Validity { value: 3, .. }));
    }

    #[test]
    fn agreement_detects_split() {
        assert!(check_agreement(&[c(1), d(1), c(1)]).is_ok());
        assert!(check_agreement(&[]).is_ok());
        let err = check_agreement(&[c(1), c(2)]).unwrap_err();
        assert!(matches!(
            err,
            PropertyViolation::Agreement { value_b: 2, .. }
        ));
    }

    #[test]
    fn coherence_vacuous_without_decider() {
        assert!(check_coherence(&[c(1), c(2), c(3)]).is_ok());
    }

    #[test]
    fn coherence_binds_non_deciders() {
        assert!(check_coherence(&[d(1), c(1), d(1)]).is_ok());
        let err = check_coherence(&[d(1), c(2)]).unwrap_err();
        assert!(matches!(
            err,
            PropertyViolation::Coherence {
                decided: 1,
                conflicting: 2,
                ..
            }
        ));
    }

    #[test]
    fn acceptance_requires_unanimous_decision() {
        assert!(check_acceptance(&[5, 5], &[d(5), d(5)]).is_ok());
        // Not unanimous: vacuous.
        assert!(check_acceptance(&[5, 6], &[c(9), c(9)]).is_ok());
        // Unanimous but one process only continued.
        let err = check_acceptance(&[5, 5], &[d(5), c(5)]).unwrap_err();
        assert!(matches!(
            err,
            PropertyViolation::Acceptance { unanimous: 5, .. }
        ));
        // Unanimous but wrong value decided.
        assert!(check_acceptance(&[5, 5], &[d(5), d(6)]).is_err());
    }

    #[test]
    fn consensus_checks_everything() {
        assert!(check_consensus(&[1, 2], &[d(2), d(2)]).is_ok());
        assert!(matches!(
            check_consensus(&[1, 2], &[d(2), c(2)]).unwrap_err(),
            PropertyViolation::Undecided { .. }
        ));
        assert!(matches!(
            check_consensus(&[1, 2], &[d(3), d(3)]).unwrap_err(),
            PropertyViolation::Validity { .. }
        ));
        assert!(matches!(
            check_consensus(&[1, 2], &[d(1), d(2)]).unwrap_err(),
            PropertyViolation::Agreement { .. }
        ));
    }

    #[test]
    fn weak_consensus_allows_disagreement_without_decision() {
        assert!(check_weak_consensus(&[1, 2], &[c(1), c(2)]).is_ok());
        assert!(check_weak_consensus(&[1, 2], &[d(1), c(2)]).is_err());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = PropertyViolation::Agreement {
            pid_a: ProcessId(0),
            value_a: 1,
            pid_b: ProcessId(3),
            value_b: 2,
        };
        assert_eq!(
            v.to_string(),
            "agreement violated: p0 output 1 but p3 output 2"
        );
    }
}
