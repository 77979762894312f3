//! The event-driven settle worklist shared by the scalar and wide
//! simulators.
//!
//! A settle must evaluate exactly the combinational cells with a changed
//! input, in topological order. [`Worklist`] is a bitset over topological
//! positions: whenever a net's value changes, its combinational loads are
//! marked from the CSR fan-out in [`SimTables`], and the settle pops the
//! marked positions lowest first. A load always sits later in the
//! topological order than its driver, so a cell marked during a settle is
//! still ahead of the drain and is evaluated by the same pass. The marked
//! bits are bounded by a word range, so a quiet settle touches nothing.

use crate::tables::SimTables;

/// Pending combinational cells, one bit per topological position.
#[derive(Debug)]
pub(crate) struct Worklist {
    words: Vec<u64>,
    /// Number of positions (the bits past it in the last word stay clear).
    len: usize,
    /// Every marked bit lies in `words[lo..hi]`; empty when `lo >= hi`.
    lo: usize,
    hi: usize,
}

impl Worklist {
    /// A worklist over `len` positions with every position marked, so
    /// the first settle is a full pass.
    pub(crate) fn new(len: usize) -> Self {
        let mut w = Worklist {
            words: vec![0; len.div_ceil(64)],
            len,
            lo: 0,
            hi: 0,
        };
        w.mark_all();
        w
    }

    /// Marks every position: the next settle evaluates every cell once.
    /// For events that change cell outputs without touching any input
    /// net (domain power flips, clearing stuck-at forces).
    pub(crate) fn mark_all(&mut self) {
        self.words.fill(!0);
        if let Some(last) = self.words.last_mut() {
            *last >>= (64 - self.len % 64) % 64;
        }
        self.lo = 0;
        self.hi = self.words.len();
    }

    /// Marks the combinational loads of `net` (called when its value
    /// changes).
    #[inline]
    pub(crate) fn mark_loads(&mut self, t: &SimTables, net: usize) {
        for &pos in t.loads(net) {
            self.mark(pos as usize);
        }
    }

    #[inline]
    fn mark(&mut self, pos: usize) {
        let w = pos / 64;
        self.words[w] |= 1 << (pos % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// Number of marked positions (the settle frontier).
    pub(crate) fn pending(&self) -> u64 {
        self.words[self.lo.min(self.hi)..self.hi]
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// Unmarks and returns the lowest marked position.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        while self.lo < self.hi {
            let w = self.words[self.lo];
            if w != 0 {
                self.words[self.lo] = w & (w - 1);
                return Some(self.lo * 64 + w.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        self.lo = self.words.len();
        self.hi = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut Worklist) -> Vec<usize> {
        std::iter::from_fn(|| w.pop()).collect()
    }

    #[test]
    fn full_pass_covers_every_position_once_across_word_boundaries() {
        for len in [0, 1, 63, 64, 65, 128, 130, 200] {
            let mut w = Worklist::new(len);
            assert_eq!(w.pending(), len as u64, "len {len}");
            assert_eq!(drain(&mut w), (0..len).collect::<Vec<_>>(), "len {len}");
            assert_eq!(w.pending(), 0);
            assert_eq!(w.pop(), None, "a drained list stays quiet");
        }
    }

    #[test]
    fn marks_pop_lowest_first_and_collapse_duplicates() {
        let mut w = Worklist::new(200);
        drain(&mut w);
        for p in [199, 64, 63, 0, 127, 128, 64] {
            w.mark(p);
        }
        assert_eq!(w.pending(), 6);
        assert_eq!(drain(&mut w), [0, 63, 64, 127, 128, 199]);
    }
}
