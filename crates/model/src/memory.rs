//! The register file and the model's one step rule.

use crate::{Op, Probability, RegContents, RegisterId, Response, Value};

/// A flat array of atomic multiwriter registers, all initially ⊥, and the
/// rule by which an operation acts on them ([`perform`](Memory::perform)).
///
/// The simulator's engine, the lab's controller and the checker's replay
/// all apply operations one at a time through this one rule, so atomicity
/// holds by construction. Memory grows on demand as registers are touched,
/// so *unbounded* constructions (§4.1.1) run in space proportional to the
/// registers actually used.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    cells: Vec<RegContents>,
}

impl Memory {
    /// Creates an empty register file.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Reads register `reg`; unallocated/untouched registers read as ⊥.
    #[inline]
    pub fn read(&self, reg: RegisterId) -> RegContents {
        self.cells.get(index(reg)).copied().flatten()
    }

    /// Writes `value` to register `reg`, growing the file if needed.
    #[inline]
    fn write(&mut self, reg: RegisterId, value: Value) {
        let ix = index(reg);
        if ix >= self.cells.len() {
            self.cells.resize(ix + 1, None);
        }
        self.cells[ix] = Some(value);
    }

    /// Performs `op`, the model's step rule (§2): a read returns the last
    /// write (⊥ if none), a write stores its value, a collect reads its
    /// block, and a probabilistic write lands exactly when `coin` says so.
    ///
    /// `coin` is the probabilistic write's local coin, resolved only now,
    /// after the scheduler committed to this operation. It is consulted
    /// exactly once per probabilistic write, with the write's probability,
    /// degenerate probabilities 0 and 1 included, and never for any other
    /// operation, so substrates that draw it from one stream stay aligned.
    ///
    /// Returns the response for the session and what a trace records: a
    /// read's contents, a probabilistic write's coin (`Some(1)` if it
    /// landed, `Some(0)` if not), nothing otherwise. A probabilistic write's
    /// response carries `performed: None`, the model without detection.
    #[inline]
    pub fn perform(
        &mut self,
        op: &Op,
        coin: impl FnOnce(Probability) -> bool,
    ) -> (Response, RegContents) {
        match *op {
            Op::Read(reg) => {
                let contents = self.read(reg);
                (Response::Read(contents), contents)
            }
            Op::Write { reg, value } => {
                self.write(reg, value);
                (Response::Write, None)
            }
            Op::ProbWrite { reg, value, prob } => {
                let landed = coin(prob);
                if landed {
                    self.write(reg, value);
                }
                (
                    Response::ProbWrite { performed: None },
                    Some(u64::from(landed)),
                )
            }
            Op::Collect { base, len } => {
                let block = (0..len).map(|d| self.read(base.offset(d))).collect();
                (Response::Collect(block), None)
            }
        }
    }

    /// Makes room for registers `0..count` without materializing any, so
    /// writing them never reallocates; [`touched`](Memory::touched) is
    /// unchanged.
    pub fn reserve(&mut self, count: u64) {
        let count = index(RegisterId(count));
        self.cells.reserve(count.saturating_sub(self.cells.len()));
    }

    /// Clears register `reg` back to ⊥: a subsequent read observes an
    /// initial register, exactly as if it had never been written. Pool
    /// recycling support — the materialized high-water mark is unchanged.
    pub fn clear_register(&mut self, reg: RegisterId) {
        if let Some(cell) = self.cells.get_mut(index(reg)) {
            *cell = None;
        }
    }

    /// Number of register slots currently materialized (a high-water mark of
    /// the highest register ever written, plus one).
    pub fn touched(&self) -> usize {
        self.cells.len()
    }

    /// Iterates over the materialized registers and their contents, in id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (RegisterId, RegContents)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(ix, c)| (RegisterId(ix as u64), *c))
    }

    /// Returns how many materialized registers hold a non-⊥ value.
    pub fn written_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }
}

#[inline]
fn index(reg: RegisterId) -> usize {
    usize::try_from(reg.raw()).expect("register id exceeds addressable memory")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(m: &mut Memory, reg: u64, value: Value) {
        let op = Op::Write {
            reg: RegisterId(reg),
            value,
        };
        assert_eq!(m.perform(&op, |_| unreachable!()), (Response::Write, None));
    }

    fn read(m: &mut Memory, reg: u64) -> RegContents {
        let (response, observed) = m.perform(&Op::Read(RegisterId(reg)), |_| unreachable!());
        assert_eq!(response, Response::Read(observed));
        observed
    }

    #[test]
    fn unwritten_registers_read_bottom() {
        let mut m = Memory::new();
        m.reserve(16);
        assert_eq!(read(&mut m, 0), None);
        assert_eq!(read(&mut m, 1 << 20), None);
        assert_eq!(m.touched(), 0, "a reserve or a read materializes nothing");
    }

    #[test]
    fn read_returns_the_last_write() {
        let mut m = Memory::new();
        write(&mut m, 3, 7);
        assert_eq!(read(&mut m, 3), Some(7));
        assert_eq!(read(&mut m, 2), None);
        write(&mut m, 3, 8);
        assert_eq!(read(&mut m, 3), Some(8));
        assert_eq!(m.touched(), 4);
        assert_eq!(m.written_count(), 1);
    }

    #[test]
    fn prob_write_consults_the_coin_once_and_lands_when_it_says_so() {
        for p in [0.0, 0.25, 0.5, 1.0] {
            let prob = Probability::new(p).unwrap();
            for coin in [false, true] {
                let mut m = Memory::new();
                let op = Op::ProbWrite {
                    reg: RegisterId(1),
                    value: 9,
                    prob,
                };
                let mut calls = Vec::new();
                let (response, observed) = m.perform(&op, |asked| {
                    calls.push(asked);
                    coin
                });
                assert_eq!(calls, [prob], "p = {p}, coin {coin}");
                assert_eq!(response, Response::ProbWrite { performed: None });
                assert_eq!(observed, Some(u64::from(coin)), "p = {p}");
                assert_eq!(read(&mut m, 1), coin.then_some(9), "p = {p}");
            }
        }
    }

    #[test]
    fn collect_reads_the_block() {
        let mut m = Memory::new();
        write(&mut m, 1, 5);
        write(&mut m, 3, 6);
        let op = Op::Collect {
            base: RegisterId(0),
            len: 3,
        };
        let (response, observed) = m.perform(&op, |_| unreachable!());
        assert_eq!(response, Response::Collect(vec![None, Some(5), None]));
        assert_eq!(observed, None);
    }

    #[test]
    fn cleared_register_reads_bottom_again() {
        let mut m = Memory::new();
        write(&mut m, 2, 9);
        m.clear_register(RegisterId(2));
        assert_eq!(read(&mut m, 2), None);
        assert_eq!(m.touched(), 3, "high-water mark is preserved");
        // Clearing a never-materialized register is a no-op.
        m.clear_register(RegisterId(100));
        assert_eq!(m.touched(), 3);
    }

    #[test]
    fn iter_walks_materialized_cells() {
        let mut m = Memory::new();
        write(&mut m, 1, 9);
        let cells: Vec<_> = m.iter().collect();
        assert_eq!(cells, vec![(RegisterId(0), None), (RegisterId(1), Some(9))]);
    }
}
