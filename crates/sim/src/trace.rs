//! Optional execution traces for debugging and analysis.

use std::fmt;

use mc_model::{Op, ProcessId, RegContents};

/// One executed operation in an execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global step index (0-based).
    pub step: u64,
    /// The process that took the step.
    pub pid: ProcessId,
    /// The operation that executed.
    pub op: Op,
    /// For reads: the value returned. For probabilistic writes: whether the
    /// write took effect, encoded as `Some(1)`/`Some(0)`. Otherwise `None`.
    pub observed: RegContents,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>6}] {} {}", self.step, self.pid, self.op)?;
        if let Some(v) = self.observed {
            write!(f, " -> {v}")?;
        }
        Ok(())
    }
}

/// A recorded execution: the sequence of operations as applied.
///
/// Traces are recorded only when
/// [`EngineConfig::record_trace`](crate::EngineConfig) is set; they make
/// failures reproducible and adversary behaviour inspectable, at the cost of
/// one amortised `Vec` push per step: about +2 µs on a 500-step run
/// (`perf_stack`, `sim_sweep` against `sim_sweep_jsonl`'s `sim.simulate`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::RegisterId;

    #[test]
    fn trace_records_and_filters() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(Event {
            step: 0,
            pid: ProcessId(0),
            op: Op::Read(RegisterId(0)),
            observed: Some(4),
        });
        t.push(Event {
            step: 1,
            pid: ProcessId(1),
            op: Op::Write {
                reg: RegisterId(0),
                value: 5,
            },
            observed: None,
        });
        assert_eq!(t.len(), 2);
        let rendered = t.to_string();
        assert!(rendered.contains("p0 read(r0) -> 4"), "{rendered}");
    }
}
