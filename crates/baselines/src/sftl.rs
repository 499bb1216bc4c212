//! SFTL: Spatial-locality-aware FTL (Jiang et al., MSST 2011) — the
//! condensed page-level baseline of the LeaFTL evaluation.
//!
//! SFTL keeps DFTL's translation-page organisation but condenses each
//! cached translation page: a page's 512 entries collapse into its
//! strictly sequential runs (consecutive LPAs mapped to consecutive
//! PPAs), each run costing one 8-byte descriptor. Sequential workloads
//! condense dramatically; random workloads degrade to one descriptor
//! per entry — exactly the behaviour the paper contrasts LeaFTL
//! against (LeaFTL additionally captures strided and irregular
//! patterns).
//!
//! # Run accounting
//!
//! Each translation page keeps a count of its *run starts*. The entry
//! at page offset `o` starts a run iff it is mapped and either `o == 0`,
//! entry `o - 1` is unmapped, or `ppa(o - 1) + 1 != ppa(o)`. Storing
//! LPA `l` can change the start status of only `l` and of `l + 1` (when
//! `l + 1` is on the same page, since a run never crosses a translation
//! page), so every store subtracts those two statuses, writes, and adds
//! them back. The condensed size of a page is then O(1) to read, and
//! always equals what a walk of its 512 entries counts
//! ([`Sftl::recount_runs_walk`], the oracle the tests compare against).

use crate::table::{FlashTable, ENTRIES_PER_TRANSLATION_PAGE};
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::lru::LruCache;
use leaftl_sim::{MapCost, MappingLookup, MappingScheme};

/// Bytes per run descriptor.
pub const RUN_BYTES: usize = 8;

/// The SFTL mapping scheme.
#[derive(Debug, Clone, Default)]
pub struct Sftl {
    /// Authoritative table (models the translation pages in flash).
    flash_table: FlashTable,
    /// Run starts per translation page the table covers.
    runs: Vec<u32>,
    /// Cached translation pages: page id → condensed byte size. The
    /// mappings themselves are read through `flash_table`; the cache
    /// models *which* pages are resident and how many bytes they cost.
    resident: LruCache<u64, ()>,
    budget: usize,
}

impl Sftl {
    /// An empty SFTL instance (budget set by the simulator).
    pub fn new() -> Self {
        Sftl::default()
    }

    /// Total mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.flash_table.mapped()
    }

    /// Translation pages the table covers: the highest written page
    /// plus one.
    pub fn translation_pages(&self) -> u64 {
        self.flash_table.translation_pages()
    }

    /// Number of strictly sequential runs on one translation page.
    pub fn run_count(&self, page: u64) -> usize {
        usize::try_from(page)
            .ok()
            .and_then(|page| self.runs.get(page))
            .map_or(0, |&runs| runs as usize)
    }

    /// Condensed size of one translation page: number of strictly
    /// sequential runs × 8 B. An empty page costs one descriptor
    /// (the page header).
    pub fn condensed_bytes(&self, page: u64) -> usize {
        self.run_count(page).max(1) * RUN_BYTES
    }

    /// Bytes of the resident translation pages, as the cache charges
    /// them.
    pub fn resident_bytes(&self) -> usize {
        self.resident.bytes()
    }

    /// Ids of the resident translation pages, most recently used first.
    pub fn resident_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.resident.keys_mru().copied()
    }

    /// Counts one page's runs by walking all of its entries. O(page);
    /// the oracle the incremental count is tested against.
    #[doc(hidden)]
    pub fn recount_runs_walk(&self, page: u64) -> usize {
        let base = page * ENTRIES_PER_TRANSLATION_PAGE;
        let mut runs = 0usize;
        let mut prev: Option<(u64, u64)> = None;
        for offset in 0..ENTRIES_PER_TRANSLATION_PAGE {
            let lpa = Lpa::new(base + offset);
            let Some(ppa) = self.flash_table.get(lpa) else {
                prev = None;
                continue;
            };
            let extends = matches!(prev, Some((last_lpa, last_ppa))
                if lpa.raw() == last_lpa + 1 && ppa.raw() == last_ppa + 1);
            if !extends {
                runs += 1;
            }
            prev = Some((lpa.raw(), ppa.raw()));
        }
        runs
    }

    /// Whether the entry at `lpa` starts a run (see the module docs).
    fn starts_run(&self, lpa: Lpa) -> bool {
        let Some(ppa) = self.flash_table.get(lpa) else {
            return false;
        };
        if lpa.raw().is_multiple_of(ENTRIES_PER_TRANSLATION_PAGE) {
            return true;
        }
        self.flash_table
            .get(Lpa::new(lpa.raw() - 1))
            .is_none_or(|prev| prev.offset(1) != ppa)
    }

    /// Run starts among `lpa` and its same-page successor.
    fn starts_at(&self, lpa: Lpa) -> u32 {
        let next = lpa.offset(1);
        let next_starts =
            FlashTable::page_of(next) == FlashTable::page_of(lpa) && self.starts_run(next);
        u32::from(self.starts_run(lpa)) + u32::from(next_starts)
    }

    /// Writes one mapping and keeps its page's run count exact;
    /// returns the page.
    fn store(&mut self, lpa: Lpa, ppa: Ppa) -> u64 {
        let page = FlashTable::page_of(lpa);
        let before = self.starts_at(lpa);
        self.flash_table.set(lpa, ppa);
        let pages = self.flash_table.translation_pages() as usize;
        if self.runs.len() < pages {
            self.runs.resize(pages, 0);
        }
        let after = self.starts_at(lpa);
        let runs = &mut self.runs[page as usize];
        *runs = *runs - before + after;
        page
    }

    /// Ensures a translation page is resident; returns the cost.
    fn touch_page(&mut self, page: u64, dirty: bool) -> MapCost {
        let mut cost = MapCost::FREE;
        let bytes = self.condensed_bytes(page);
        if self.resident.contains(&page) {
            self.resident.get(&page); // promote
            self.resident.resize(&page, bytes);
            if dirty {
                self.resident.mark_dirty(&page);
            }
        } else {
            cost.translation_reads += 1;
            self.resident.insert(page, (), bytes, dirty);
        }
        while self.resident.bytes() > self.budget {
            match self.resident.pop_lru() {
                Some((_, _, was_dirty)) => {
                    if was_dirty {
                        cost.translation_writes += 1;
                    }
                }
                None => break,
            }
        }
        cost
    }
}

impl MappingScheme for Sftl {
    fn name(&self) -> &'static str {
        "SFTL"
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        let mut cost = MapCost::FREE;
        let mut touched: Option<u64> = None;
        for &(lpa, ppa) in pairs {
            let page = self.store(lpa, ppa);
            if touched != Some(page) {
                cost.add(self.touch_page(page, true));
                touched = Some(page);
            } else {
                self.resident.resize(&page, self.condensed_bytes(page));
                self.resident.mark_dirty(&page);
            }
        }
        cost
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        let Some(ppa) = self.flash_table.get(lpa) else {
            return (None, MapCost::FREE);
        };
        let cost = self.touch_page(FlashTable::page_of(lpa), false);
        (Some(MappingLookup::exact(ppa)), cost)
    }

    fn memory_bytes(&self) -> usize {
        self.resident.bytes() + self.translation_pages() as usize * 8
    }

    fn set_memory_budget(&mut self, bytes: usize) {
        self.budget = bytes.max(RUN_BYTES);
    }

    fn maintain(&mut self) -> (MapCost, bool) {
        (MapCost::FREE, false)
    }

    fn snapshot_bytes(&self) -> usize {
        self.translation_pages() as usize * 8
    }
}

/// The condensed size SFTL would need to hold *everything* in DRAM —
/// used by the memory-footprint comparison (Fig. 15), independent of
/// the cache budget.
pub fn sftl_full_table_bytes(sftl: &Sftl) -> usize {
    (0..sftl.translation_pages())
        .map(|page| sftl.condensed_bytes(page))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(lpa0: u64, ppa0: u64, n: u64) -> Vec<(Lpa, Ppa)> {
        (0..n)
            .map(|i| (Lpa::new(lpa0 + i), Ppa::new(ppa0 + i)))
            .collect()
    }

    #[test]
    fn sequential_page_condenses_to_one_run() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 1000, 512));
        assert_eq!(sftl.condensed_bytes(0), RUN_BYTES);
        assert_eq!(sftl_full_table_bytes(&sftl), RUN_BYTES);
    }

    #[test]
    fn random_page_degrades_to_per_entry_runs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        // Every other LPA: no two entries are sequential.
        for i in 0..256u64 {
            sftl.update_batch(&[(Lpa::new(i * 2), Ppa::new(5000 + i))]);
        }
        assert_eq!(sftl.condensed_bytes(0), 256 * RUN_BYTES);
    }

    #[test]
    fn lookup_roundtrip_and_costs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 100, 8));
        let (hit, cost) = sftl.lookup(Lpa::new(3));
        assert_eq!(hit.unwrap().ppa, Ppa::new(103));
        assert_eq!(cost, MapCost::FREE); // page already resident
        assert!(sftl.lookup(Lpa::new(99)).0.is_none());
    }

    #[test]
    fn eviction_and_refetch() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(RUN_BYTES); // one run fits
        sftl.update_batch(&batch(0, 100, 4)); // page 0 resident, dirty
                                              // Page 1 arrives; page 0 is evicted dirty.
        let cost = sftl.update_batch(&batch(512, 200, 4));
        assert_eq!(cost.translation_writes, 1);
        // Re-touching page 0 misses.
        let (_, cost) = sftl.lookup(Lpa::new(0));
        assert_eq!(cost.translation_reads, 1);
    }

    #[test]
    fn overwrite_breaks_runs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 1000, 512));
        assert_eq!(sftl.condensed_bytes(0), RUN_BYTES);
        // Rewrite one LPA in the middle to a far PPA: run splits in 3.
        sftl.update_batch(&[(Lpa::new(100), Ppa::new(9000))]);
        assert_eq!(sftl.condensed_bytes(0), 3 * RUN_BYTES);
    }

    /// The incremental count of every covered page equals the walk.
    fn assert_counts_match_walk(sftl: &Sftl) {
        for page in 0..sftl.translation_pages() {
            assert_eq!(
                sftl.run_count(page),
                sftl.recount_runs_walk(page),
                "page {page}"
            );
        }
    }

    #[test]
    fn runs_never_cross_a_translation_page() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        // LPAs 500..524 on consecutive PPAs straddle the 511 → 512 edge.
        sftl.update_batch(&batch(500, 1000, 24));
        assert_eq!(sftl.run_count(0), 1);
        assert_eq!(sftl.run_count(1), 1);
        assert_eq!(sftl_full_table_bytes(&sftl), 2 * RUN_BYTES);
        // Rewriting 511 (the page's last entry) leaves page 1 alone.
        sftl.update_batch(&[(Lpa::new(511), Ppa::new(7))]);
        assert_eq!(sftl.run_count(0), 2);
        assert_eq!(sftl.run_count(1), 1);
        assert_counts_match_walk(&sftl);
    }

    #[test]
    fn rewriting_the_current_ppa_changes_nothing() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 1000, 10));
        sftl.update_batch(&[(Lpa::new(20), Ppa::new(50))]);
        let (runs, mapped) = (sftl.run_count(0), sftl.mapped_pages());
        for lpa in [0, 5, 9, 20] {
            let ppa = sftl.lookup(Lpa::new(lpa)).0.unwrap().ppa;
            sftl.update_batch(&[(Lpa::new(lpa), ppa)]);
            assert_eq!(sftl.run_count(0), runs);
            assert_eq!(sftl.mapped_pages(), mapped);
        }
        assert_counts_match_walk(&sftl);
    }

    #[test]
    fn bridging_ppa_merges_two_runs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 1000, 5));
        sftl.update_batch(&batch(6, 1006, 5));
        assert_eq!(sftl.run_count(0), 2);
        sftl.update_batch(&[(Lpa::new(5), Ppa::new(1005))]);
        assert_eq!(sftl.run_count(0), 1);
        // Breaking the middle and restoring it round-trips the count.
        sftl.update_batch(&[(Lpa::new(5), Ppa::new(9))]);
        assert_eq!(sftl.run_count(0), 3);
        sftl.update_batch(&[(Lpa::new(5), Ppa::new(1005))]);
        assert_eq!(sftl.condensed_bytes(0), RUN_BYTES);
        assert_counts_match_walk(&sftl);
    }

    #[test]
    fn empty_and_first_touched_pages_cost_one_descriptor() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        assert_eq!(sftl.condensed_bytes(0), RUN_BYTES);
        assert_eq!(sftl.condensed_bytes(1 << 40), RUN_BYTES);
        assert_eq!(sftl_full_table_bytes(&sftl), 0);
        let cost = sftl.update_batch(&[(Lpa::new(3 * 512 + 7), Ppa::new(1))]);
        assert_eq!(cost.translation_reads, 1);
        assert_eq!(sftl.resident_bytes(), RUN_BYTES);
        // Pages 0..2 were never written but the GTD-style coverage
        // charges each one header descriptor.
        assert_eq!(sftl.run_count(0), 0);
        assert_eq!(sftl.condensed_bytes(3), RUN_BYTES);
        assert_eq!(sftl_full_table_bytes(&sftl), 4 * RUN_BYTES);
        assert_counts_match_walk(&sftl);
    }

    #[test]
    fn gap_breaks_runs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 1000, 10));
        sftl.update_batch(&batch(20, 1010, 10));
        // Two runs (gap at LPAs 10..19) even though PPAs continue.
        assert_eq!(sftl.condensed_bytes(0), 2 * RUN_BYTES);
    }
}
