//! The register file.

use mc_model::{RegContents, RegisterId, Value};

/// A flat array of atomic multiwriter registers, all initially ⊥.
///
/// The engine serializes operations, so atomicity is by construction: each
/// read returns the last value written to that register. Memory grows on
/// demand as registers are allocated and touched, which is what lets
/// *unbounded* constructions (§4.1.1) run in space proportional to the
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
    pub fn write(&mut self, reg: RegisterId, value: Value) {
        let ix = index(reg);
        if ix >= self.cells.len() {
            self.cells.resize(ix + 1, None);
        }
        self.cells[ix] = Some(value);
    }

    /// Makes room for registers `0..count` without materializing any, so
    /// writing them never reallocates; [`touched`](Memory::touched) is
    /// unchanged.
    pub(crate) fn reserve(&mut self, count: u64) {
        let count = index(RegisterId(count));
        self.cells.reserve(count.saturating_sub(self.cells.len()));
    }

    /// Reads a contiguous block of `len` registers starting at `base`.
    pub fn collect(&self, base: RegisterId, len: u64) -> Vec<RegContents> {
        (0..len).map(|d| self.read(base.offset(d))).collect()
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

    /// Iterates over the materialized registers and their contents.
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

    #[test]
    fn fresh_registers_read_bottom() {
        let m = Memory::new();
        assert_eq!(m.read(RegisterId(0)), None);
        assert_eq!(m.read(RegisterId(1 << 20)), None);
        assert_eq!(m.touched(), 0);
    }

    #[test]
    fn read_after_write() {
        let mut m = Memory::new();
        m.write(RegisterId(3), 7);
        assert_eq!(m.read(RegisterId(3)), Some(7));
        assert_eq!(m.read(RegisterId(2)), None);
        assert_eq!(m.touched(), 4);
        assert_eq!(m.written_count(), 1);
    }

    #[test]
    fn last_write_wins() {
        let mut m = Memory::new();
        m.write(RegisterId(0), 1);
        m.write(RegisterId(0), 2);
        assert_eq!(m.read(RegisterId(0)), Some(2));
    }

    #[test]
    fn cleared_register_reads_bottom_again() {
        let mut m = Memory::new();
        m.write(RegisterId(2), 9);
        m.clear_register(RegisterId(2));
        assert_eq!(m.read(RegisterId(2)), None);
        assert_eq!(m.touched(), 3, "high-water mark is preserved");
        // Clearing a never-materialized register is a no-op.
        m.clear_register(RegisterId(100));
        assert_eq!(m.touched(), 3);
    }

    #[test]
    fn collect_reads_block() {
        let mut m = Memory::new();
        m.write(RegisterId(1), 5);
        assert_eq!(m.collect(RegisterId(0), 3), vec![None, Some(5), None]);
    }

    #[test]
    fn iter_walks_materialized_cells() {
        let mut m = Memory::new();
        m.write(RegisterId(1), 9);
        let cells: Vec<_> = m.iter().collect();
        assert_eq!(cells, vec![(RegisterId(0), None), (RegisterId(1), Some(9))]);
    }
}
