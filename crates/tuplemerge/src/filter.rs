//! The table filter: which tables can hold a rule for a key at all.
//!
//! Pruned tuple space search (Srinivasan, Suri, Varghese 1999): a per-field
//! lookup returns the set of tables that can match, and only the
//! intersection is probed. Here the per-field lookup is one load — every
//! *address* field (wider than 16 bits, the test [`Tuple::relaxed`] uses)
//! has 4096 rows indexed by the key's top [`ROW_BITS`] bits, each row a
//! bitset over tables.
//!
//! **What a set bit promises.** Bit `t` of a row is set if table `t` files a
//! rule whose range in that field reaches the row's top 12 bits; a clear bit
//! proves it files none, so the table is skipped unhashed. A table that
//! masks the field to fewer than 8 bits sets every row
//! ([`Filter::lay_column`]). Any other table sets, per rule, the rows its
//! range reaches ([`Filter::add`]): `lo`'s row through `hi`'s, not the
//! rows of the table's mask, so a /8 table holding only /24s names one row
//! per rule, not sixteen. The rule's covering prefix is at least the
//! table's mask, so at least 8 bits long, and its range spans at most
//! 2^(12 − 8) = 16 rows. Bits are only ever cleared a column at a time, so a
//! removal leaves a superset — still exact — until the engine recomputes
//! the filter.
//!
//! Rows are `tables.div_ceil(8)` bytes wide, at most 8, and read as one
//! little-endian `u64`: the first 64 tables are filtered and a table past
//! them is always probed.

use crate::tuple::Tuple;
use nm_common::memsize;
use nm_common::ruleset::FieldsSpec;

/// Tables a row has bits for.
pub(crate) const FILTERED: usize = 64;

/// Key bits a row is indexed by. TupleMerge relaxes address masks to
/// multiples of 4, and on ClassBench ACLs the number of tables a key is let
/// through stops falling much past 12 bits.
const ROW_BITS: u8 = 12;

/// Rows per field: one per value of a key's top [`ROW_BITS`] bits.
const ROWS: usize = 1 << ROW_BITS;

/// Mask lengths below this set a table's whole column: a rule's range may
/// then span more than 2^(12 − 8) rows.
const MIN_ROW_LEN: u8 = 8;

/// Bytes a row read spans, whatever the row's width.
const WORD: usize = 8;

#[derive(Clone, Debug)]
pub(crate) struct Filter {
    /// `(field, right shift)` per address field; the shift leaves a value's
    /// top [`ROW_BITS`] bits.
    fields: Box<[(u8, u8)]>,
    /// Bytes per row.
    width: usize,
    /// One bit per table a column has been laid for.
    all: u64,
    /// `fields.len() * ROWS` rows of `width` bytes, then padding so the last
    /// row can be read as a whole word.
    rows: Vec<u8>,
}

impl Filter {
    /// An empty filter over the address fields of `spec`.
    pub fn new(spec: &FieldsSpec) -> Self {
        let fields = (0..spec.len())
            .filter(|&d| spec.bits(d) > 16)
            .map(|d| (d as u8, spec.bits(d) - ROW_BITS))
            .collect();
        Self { fields, width: 0, all: 0, rows: vec![0; WORD] }
    }

    /// Byte offset of the row of field `f` (an index into `fields`) for a
    /// value whose top [`ROW_BITS`] bits are `top`.
    fn row(&self, f: usize, top: u64) -> usize {
        (f * ROWS + top as usize % ROWS) * self.width
    }

    /// The tables among the first [`FILTERED`] that can hold a rule matching
    /// `key`, one bit each. A key outside a field's domain reads some row of
    /// it; it matches no rule, and every candidate is box-checked.
    #[inline]
    pub fn candidates(&self, key: &[u64]) -> u64 {
        // nm-lint: hotpath
        let mut cand = self.all;
        for (f, &(d, shift)) in self.fields.iter().enumerate() {
            let at = self.row(f, key[d as usize] >> shift);
            let word: [u8; WORD] = self.rows[at..at + WORD].try_into().expect("rows are padded");
            cand &= u64::from_le_bytes(word);
        }
        cand
        // nm-lint: end-hotpath
    }

    /// Starts table `t`'s column afresh, for a table about to file its first
    /// rule under `lens`: every row of a field the table masks to fewer than
    /// [`MIN_ROW_LEN`] bits, no row of the others. Widens the rows when `t`
    /// is the first table of another eight.
    pub fn lay_column(&mut self, t: usize, lens: &Tuple) {
        if t >= FILTERED {
            return;
        }
        let (cell, bit) = (t / 8, 1u8 << (t % 8));
        if cell >= self.width {
            let (old, width, nrows) =
                (std::mem::take(&mut self.rows), self.width, self.fields.len() * ROWS);
            self.width = cell + 1;
            self.rows = vec![0; nrows * self.width + WORD - self.width];
            for r in 0..nrows {
                self.rows[r * self.width..][..width].copy_from_slice(&old[r * width..][..width]);
            }
        }
        self.all |= 1 << t;
        for (f, &(d, _)) in self.fields.iter().enumerate() {
            let every = lens.0[d as usize] < MIN_ROW_LEN;
            for top in 0..ROWS as u64 {
                let at = self.row(f, top) + cell;
                self.rows[at] = if every { self.rows[at] | bit } else { self.rows[at] & !bit };
            }
        }
    }

    /// Records a rule (its box: `lo, hi` per field) filed in table `t`,
    /// which masks under `lens`: the rows from `lo`'s to `hi`'s, at most 16,
    /// in each field whose column is not already full.
    pub fn add(&mut self, t: usize, lens: &Tuple, bounds: &[u64]) {
        if t >= FILTERED {
            return;
        }
        for (f, &(d, shift)) in self.fields.iter().enumerate() {
            let d = d as usize;
            if lens.0[d] < MIN_ROW_LEN {
                continue;
            }
            for top in bounds[2 * d] >> shift..=bounds[2 * d + 1] >> shift {
                let at = self.row(f, top);
                self.rows[at + t / 8] |= 1 << (t % 8);
            }
        }
    }

    /// Clears every column; the tables that still file rules lay theirs
    /// again.
    pub fn clear(&mut self) {
        self.all = 0;
        self.rows.fill(0);
    }

    /// Checks that table `t`, which masks under `lens` and files rules with
    /// the boxes `filed`, is named wherever one of them can match: on every
    /// row of a field it masks to fewer than [`MIN_ROW_LEN`] bits, and on
    /// every row from a rule's `lo` to its `hi` in the other fields.
    #[cfg(test)]
    pub fn assert_names<'a>(&self, t: usize, lens: &Tuple, filed: impl Iterator<Item = &'a [u64]>) {
        if t >= FILTERED {
            return;
        }
        assert!(self.all >> t & 1 == 1, "table {t} has no column");
        let named = |f: usize, top: u64| self.rows[self.row(f, top) + t / 8] >> (t % 8) & 1 == 1;
        for (f, &(d, _)) in self.fields.iter().enumerate() {
            if lens.0[d as usize] < MIN_ROW_LEN {
                let gap = (0..ROWS as u64).find(|&top| !named(f, top));
                assert_eq!(gap, None, "table {t} masks field {d} short of a full column");
            }
        }
        for bounds in filed {
            for (f, &(d, shift)) in self.fields.iter().enumerate() {
                let d = d as usize;
                let rows = bounds[2 * d] >> shift..=bounds[2 * d + 1] >> shift;
                let gap = rows.clone().find(|&top| !named(f, top));
                assert_eq!(gap, None, "table {t} hides a rule on field {d}, rows {rows:?}");
            }
        }
    }

    /// Index bytes: the rows and the field list.
    pub fn memory_bytes(&self) -> usize {
        memsize::vec_bytes(&self.rows) + std::mem::size_of_val(&*self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lens(src: u8, dst: u8) -> Tuple {
        Tuple(vec![src, dst, 0, 0, 0])
    }

    /// A box from its source and destination ranges, every other field 0.
    fn bounds(src: (u64, u64), dst: (u64, u64)) -> [u64; 10] {
        [src.0, src.1, dst.0, dst.1, 0, 0, 0, 0, 0, 0]
    }

    #[test]
    fn columns_intersect_per_field() {
        let mut f = Filter::new(&FieldsSpec::five_tuple());
        assert_eq!(f.candidates(&[0; 5]), 0, "no table yet");
        f.lay_column(0, &lens(0, 0)); // masks neither address: every key
        f.lay_column(1, &lens(8, 4)); // src by its /8's rows, dst everywhere
        f.lay_column(2, &lens(16, 24));
        f.add(1, &lens(8, 4), &bounds((0x0a00_0000, 0x0aff_ffff), (0, 0xffff_ffff)));
        f.add(2, &lens(16, 24), &bounds((0x0a01_0000, 0x0a01_ffff), (0xc0a8_0100, 0xc0a8_01ff)));
        assert_eq!(f.candidates(&[0x0a0f_0000, 0xc0af_0000, 1, 2, 3]), 0b111);
        assert_eq!(f.candidates(&[0x0a0f_0000, 0xc1ff_0000, 1, 2, 3]), 0b011);
        assert_eq!(f.candidates(&[0x0b63_0000, 0xc0af_0000, 1, 2, 3]), 0b001);
        // Out-of-domain keys read some row; nothing panics.
        f.candidates(&[u64::MAX; 5]);
        // A column laid again forgets its rules; the others keep theirs.
        f.lay_column(2, &lens(16, 24));
        assert_eq!(f.candidates(&[0x0a0f_0000, 0xc0af_0000, 1, 2, 3]), 0b011);
        assert_eq!(f.memory_bytes(), 2 * ROWS + WORD - 1 + 2 * 2);
    }

    #[test]
    fn a_rule_names_the_rows_its_range_reaches() {
        let mut f = Filter::new(&FieldsSpec::single("ip", 32));
        let lens = Tuple(vec![8]);
        f.lay_column(0, &lens);
        // A /8, a /10 and a /24 in one /8 table, each under its own top
        // byte, and the rows each must be named on.
        let filed = [
            (0x0a00_0000, 0x0aff_ffff, 16),
            (0x0b40_0000, 0x0b7f_ffff, 4),
            (0x0c12_3400, 0x0c12_34ff, 1),
        ];
        for (lo, hi, _) in filed {
            f.add(0, &lens, &[lo, hi]);
        }
        let named = |row: u64| f.candidates(&[row << 20]) == 1;
        for (lo, hi, rows) in filed {
            let (first, last) = (lo >> 20, hi >> 20);
            assert_eq!(last + 1 - first, rows);
            assert!((first..=last).all(named), "a row of {lo:#x}-{hi:#x} is not named");
            assert!(!named(first - 1) && !named(last + 1), "{lo:#x}-{hi:#x} spills a row");
        }
        assert_eq!((0..ROWS as u64).filter(|&row| named(row)).count(), 16 + 4 + 1);
        let boxes = filed.map(|(lo, hi, _)| [lo, hi]);
        f.assert_names(0, &lens, boxes.iter().map(|b| &b[..]));
    }

    #[test]
    fn rows_widen_by_the_byte_and_stop_at_a_word() {
        let mut f = Filter::new(&FieldsSpec::single("ip", 32));
        for t in 0..70 {
            let lo = (t as u64 % 3) << 24;
            f.lay_column(t, &Tuple(vec![8]));
            f.add(t, &Tuple(vec![8]), &[lo, lo | 0xff_ffff]);
            let want = (0..=t.min(FILTERED - 1)).filter(|u| u % 3 == 1).fold(0, |w, u| w | 1 << u);
            assert_eq!(f.candidates(&[0x01ff_ffff]), want, "after table {t}");
            assert_eq!(f.width, (t / 8 + 1).min(WORD));
        }
        f.clear();
        assert_eq!(f.candidates(&[0x01ff_ffff]), 0);
    }

    #[test]
    fn a_spec_without_addresses_admits_every_table() {
        let mut f = Filter::new(&FieldsSpec::uniform(3, 16));
        f.lay_column(0, &Tuple(vec![16, 0, 0]));
        f.lay_column(9, &Tuple(vec![0, 16, 0]));
        f.add(9, &Tuple(vec![0, 16, 0]), &[0; 6]);
        assert_eq!(f.candidates(&[1, 2, 3]), 1 | 1 << 9);
        assert_eq!(f.memory_bytes(), WORD - 2, "no rows at all");
    }
}
