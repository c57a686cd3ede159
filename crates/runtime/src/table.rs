//! An append-only table of cells that are built once and never move.

use std::sync::OnceLock;

/// Cells built once each, in index order, that never move while the table
/// lives: the first `CHUNK` inline, the unbounded rest in boxed chunks of
/// `CHUNK` linked on as they are first reached. A built cell is borrowed
/// with one acquire load per chunk on the way to it, with no lock and no
/// reference count. `Consensus` keeps its stages in one, and
/// `RuntimeTelemetry` its per-thread cells.
///
/// `OnceLock` synchronises: its builder completes a cell with a release
/// store that every later `get` acquires, so a borrowed cell is fully
/// built, and racing builders wait for the first, so each cell is built
/// once.
pub(crate) struct Table<T, const CHUNK: usize> {
    cells: [OnceLock<T>; CHUNK],
    next: OnceLock<Box<Table<T, CHUNK>>>,
}

impl<T, const CHUNK: usize> Table<T, CHUNK> {
    pub(crate) fn new() -> Table<T, CHUNK> {
        Table {
            cells: std::array::from_fn(|_| OnceLock::new()),
            next: OnceLock::new(),
        }
    }

    /// Cell `ix`, boxing the chunks on the way to it.
    pub(crate) fn cell(&self, ix: usize) -> &OnceLock<T> {
        let mut chunk = self;
        for _ in 0..ix / CHUNK {
            chunk = chunk.next.get_or_init(|| Box::new(Table::new()));
        }
        &chunk.cells[ix % CHUNK]
    }

    /// Every built cell with its index, in index order; a cell not yet
    /// built is skipped, not taken for the end.
    pub(crate) fn built(&self) -> impl Iterator<Item = (usize, &T)> {
        std::iter::successors(Some(self), |chunk| chunk.next.get().map(|next| &**next))
            .flat_map(|chunk| &chunk.cells)
            .enumerate()
            .filter_map(|(ix, cell)| Some((ix, cell.get()?)))
    }

    /// Runs `f` on every built cell, in index order.
    pub(crate) fn for_each_built_mut(&mut self, mut f: impl FnMut(&mut T)) {
        let mut chunk = Some(self);
        while let Some(table) = chunk {
            table
                .cells
                .iter_mut()
                .filter_map(OnceLock::get_mut)
                .for_each(&mut f);
            chunk = table.next.get_mut().map(|next| &mut **next);
        }
    }
}
