//! A population lowered once: every predicate of every profile as index
//! intervals, in one flat table that a compile's passes all read.

use std::hash::{Hash, Hasher};

use crate::{IndexInterval, Profile, Schema, TypesError};

/// Profiles lowered to index intervals ([`crate::Predicate::to_intervals`]),
/// one row per profile in the order they were pushed: entry
/// `(row, attr)` is don't-care or a range of one interval buffer.
///
/// The covering pass, the automaton build and the drift statistics of
/// one compile read the same table, so each predicate is lowered once.
///
/// # Example
///
/// ```
/// use ens_types::{Domain, LoweredTable, Predicate, ProfileSet, Schema};
/// # fn main() -> Result<(), ens_types::TypesError> {
/// let schema = Schema::builder()
///     .attribute("x", Domain::int(0, 9))?
///     .attribute("y", Domain::int(0, 9))?
///     .build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::ne(3)))?;
/// let table = LoweredTable::lower(&schema, ps.iter())?;
/// assert_eq!(table.rows(), 1);
/// assert_eq!(table.get(0, 0).map(<[_]>::len), Some(2));
/// assert_eq!(table.get(0, 1), None); // don't-care
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LoweredTable {
    /// Attributes per row.
    width: usize,
    rows: usize,
    /// Entry `k = row * width + attr` spans `ivs[off[k]..off[k + 1]]`.
    off: Vec<u32>,
    /// Whether entry `k` is don't-care (its span is empty).
    dont_care: Vec<bool>,
    ivs: Vec<IndexInterval>,
}

impl LoweredTable {
    /// An empty table over `schema`'s attributes.
    #[must_use]
    pub fn new(schema: &Schema) -> Self {
        Self::with_width(schema.len())
    }

    fn with_width(width: usize) -> Self {
        LoweredTable {
            width,
            rows: 0,
            off: vec![0],
            dont_care: Vec::new(),
            ivs: Vec::new(),
        }
    }

    /// Lowers `profiles`, in order, into a new table.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn lower<'a, I>(schema: &Schema, profiles: I) -> Result<Self, TypesError>
    where
        I: IntoIterator<Item = &'a Profile>,
    {
        let mut table = LoweredTable::new(schema);
        for p in profiles {
            table.push(schema, p)?;
        }
        Ok(table)
    }

    /// Lowers `profile` into a new last row.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors; the table is unchanged then.
    pub fn push(&mut self, schema: &Schema, profile: &Profile) -> Result<(), TypesError> {
        let (entries, ivs) = (self.dont_care.len(), self.ivs.len());
        for (id, attr) in schema.iter() {
            let pred = profile.predicate(id);
            let dont_care = pred.is_dont_care();
            if !dont_care {
                if let Err(e) = pred.lower_into(attr.domain(), &mut self.ivs) {
                    self.dont_care.truncate(entries);
                    self.off.truncate(entries + 1);
                    self.ivs.truncate(ivs);
                    return Err(e);
                }
            }
            self.dont_care.push(dont_care);
            self.off.push(self.ivs.len() as u32);
        }
        self.rows += 1;
        Ok(())
    }

    /// A table of `rows` of this one, in that order.
    #[must_use]
    pub fn select(&self, rows: &[u32]) -> Self {
        let mut out = Self::with_width(self.width);
        for &row in rows {
            out.push_row(self, row as usize);
        }
        out
    }

    /// Appends row `row` of `from`, which has this table's width.
    pub(crate) fn push_row(&mut self, from: &LoweredTable, row: usize) {
        let k = row * from.width;
        let span = from.off[k] as usize..from.off[k + from.width] as usize;
        let (start, at) = (from.off[k], self.ivs.len() as u32);
        self.ivs.extend_from_slice(&from.ivs[span]);
        self.dont_care
            .extend_from_slice(&from.dont_care[k..k + from.width]);
        let ends = &from.off[k + 1..=k + from.width];
        self.off.extend(ends.iter().map(|&end| end - start + at));
        self.rows += 1;
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Attributes per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// `row`'s normalised intervals on attribute `attr`, `None` where it
    /// is don't-care.
    #[must_use]
    pub fn get(&self, row: usize, attr: usize) -> Option<&[IndexInterval]> {
        let k = row * self.width + attr;
        (!self.dont_care[k]).then(|| &self.ivs[self.off[k] as usize..self.off[k + 1] as usize])
    }

    /// Whether row `a` agrees with row `b` of `other` on every attribute
    /// but `skip`.
    pub(crate) fn rows_agree(
        &self,
        a: usize,
        other: &LoweredTable,
        b: usize,
        skip: Option<usize>,
    ) -> bool {
        (0..self.width).all(|k| Some(k) == skip || self.get(a, k) == other.get(b, k))
    }

    /// Feeds `row` to `state` attribute by attribute, attribute `skip`
    /// as a wildcard: rows that agree but on `skip` hash alike.
    pub(crate) fn hash_row<H: Hasher>(&self, row: usize, skip: Option<usize>, state: &mut H) {
        for k in 0..self.width {
            match self.get(row, k) {
                _ if Some(k) == skip => state.write_u8(2),
                None => state.write_u8(0),
                Some(ivs) => {
                    state.write_u8(1);
                    ivs.hash(state);
                }
            }
        }
    }
}
