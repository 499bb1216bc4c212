//! The authoritative page-level table both baselines keep: the content
//! of the translation pages in flash, held as one dense vector.

use leaftl_flash::{Lpa, Ppa};

/// Entries per translation page: 4 KB / 8 B.
pub const ENTRIES_PER_TRANSLATION_PAGE: u64 = 512;

/// Raw value of an entry that was never written.
const UNMAPPED: u64 = u64::MAX;

/// Dense LPA → PPA table indexed by LPA.
///
/// The vector grows in whole translation pages, up to the page of the
/// highest LPA written (the simulator rejects any LPA at or above the
/// device's logical page count, so that bounds it). Mappings are never
/// removed, so `mapped` only grows.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlashTable {
    entries: Vec<u64>,
    mapped: usize,
}

impl FlashTable {
    /// The translation page holding `lpa`'s entry.
    pub(crate) fn page_of(lpa: Lpa) -> u64 {
        lpa.raw() / ENTRIES_PER_TRANSLATION_PAGE
    }

    /// The PPA `lpa` maps to, or `None` when it was never written.
    pub(crate) fn get(&self, lpa: Lpa) -> Option<Ppa> {
        let raw = *self.entries.get(usize::try_from(lpa.raw()).ok()?)?;
        (raw != UNMAPPED).then(|| Ppa::new(raw))
    }

    /// Maps `lpa` to `ppa`, growing the table to cover `lpa`'s
    /// translation page.
    pub(crate) fn set(&mut self, lpa: Lpa, ppa: Ppa) {
        assert_ne!(
            ppa.raw(),
            UNMAPPED,
            "PPA collides with the unmapped sentinel"
        );
        let covered = (Self::page_of(lpa) + 1) * ENTRIES_PER_TRANSLATION_PAGE;
        let covered = usize::try_from(covered).expect("LPA space exceeds the address width");
        if self.entries.len() < covered {
            self.entries.resize(covered, UNMAPPED);
        }
        // In bounds: `covered` includes `lpa`'s whole page.
        let slot = &mut self.entries[lpa.raw() as usize];
        if *slot == UNMAPPED {
            self.mapped += 1;
        }
        *slot = ppa.raw();
    }

    /// Number of mapped LPAs.
    pub(crate) fn mapped(&self) -> usize {
        self.mapped
    }

    /// Translation pages covered: the highest written page plus one.
    pub(crate) fn translation_pages(&self) -> u64 {
        self.entries.len() as u64 / ENTRIES_PER_TRANSLATION_PAGE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_by_whole_pages_and_counts_first_writes() {
        let mut table = FlashTable::default();
        assert_eq!(table.translation_pages(), 0);
        assert_eq!(table.get(Lpa::new(3)), None);
        table.set(Lpa::new(600), Ppa::new(0));
        assert_eq!(table.translation_pages(), 2);
        assert_eq!(table.get(Lpa::new(600)), Some(Ppa::new(0)));
        assert_eq!(table.get(Lpa::new(599)), None);
        assert_eq!(table.get(Lpa::new(1 << 40)), None);
        table.set(Lpa::new(600), Ppa::new(9));
        table.set(Lpa::new(1), Ppa::new(7));
        assert_eq!(table.mapped(), 2);
        assert_eq!(table.translation_pages(), 2);
        assert_eq!(table.get(Lpa::new(600)), Some(Ppa::new(9)));
    }
}
