//! Differential testing: every FTL scheme must return exactly the data
//! an in-memory shadow map predicts, under arbitrary mixed workloads
//! with GC pressure and compaction — for every error bound γ.

use leaftl_repro::baselines::{Dftl, Sftl, ENTRY_BYTES};
use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::{Lpa, Ppa};
use leaftl_repro::sim::{ExactPageMap, LeaFtlScheme, MapCost, MappingScheme, Ssd, SsdConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Drives a random mixed workload and checks every read against a
/// shadow map. Overwrite-heavy enough to force GC several times.
fn differential_run<S: MappingScheme + Clone>(ssd: &mut Ssd<S>, seed: u64, ops: usize) {
    let logical = ssd.config().logical_pages();
    let hot_span = logical / 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut content = 1u64;

    for i in 0..ops {
        let style: f64 = rng.gen();
        if style < 0.55 {
            // Write a short run in the hot region (forces overwrites).
            let start = rng.gen_range(0..hot_span);
            let len = rng.gen_range(1..16u64).min(logical - start);
            for j in 0..len {
                let lpa = start + j;
                content += 1;
                ssd.write(Lpa::new(lpa), content).unwrap();
                shadow.insert(lpa, content);
            }
        } else if style < 0.65 {
            // Strided write burst.
            let stride = rng.gen_range(2..6u64);
            let count = rng.gen_range(2..20u64);
            let start = rng.gen_range(0..logical.saturating_sub(stride * count + 1));
            for j in 0..count {
                let lpa = start + j * stride;
                content += 1;
                ssd.write(Lpa::new(lpa), content).unwrap();
                shadow.insert(lpa, content);
            }
        } else {
            // Read-back of a previously written page (or a miss).
            let lpa = rng.gen_range(0..logical);
            let got = ssd.read(Lpa::new(lpa)).unwrap();
            let expected = shadow.get(&lpa).copied();
            assert_eq!(got, expected, "op {i}: lpa {lpa} mismatch");
        }
    }

    // Full sweep at the end.
    for (&lpa, &expected) in &shadow {
        let got = ssd.read(Lpa::new(lpa)).unwrap();
        assert_eq!(got, Some(expected), "final sweep: lpa {lpa}");
    }
}

#[test]
fn exact_page_map_oracle() {
    let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
    differential_run(&mut ssd, 101, 1500);
    assert!(ssd.stats().gc_runs > 0, "workload must trigger GC");
}

#[test]
fn leaftl_gamma_zero_matches_shadow() {
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(SsdConfig::small_test(), scheme);
    differential_run(&mut ssd, 202, 1500);
    assert_eq!(ssd.stats().mispredictions, 0, "γ=0 must never mispredict");
}

#[test]
fn leaftl_gamma_one_matches_shadow() {
    let mut config = SsdConfig::small_test();
    config.gamma = 1;
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(1));
    let mut ssd = Ssd::new(config, scheme);
    differential_run(&mut ssd, 303, 1500);
}

#[test]
fn leaftl_gamma_four_matches_shadow() {
    let mut config = SsdConfig::small_test();
    config.gamma = 4;
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
    let mut ssd = Ssd::new(config, scheme);
    differential_run(&mut ssd, 404, 1500);
}

#[test]
fn leaftl_gamma_eight_with_frequent_compaction() {
    let mut config = SsdConfig::small_test();
    config.gamma = 8;
    let scheme = LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(8)
            .with_compaction_interval(200),
    );
    let mut ssd = Ssd::new(config, scheme);
    differential_run(&mut ssd, 505, 1500);
    assert!(
        ssd.stats().compactions > 0,
        "compaction interval must have fired"
    );
}

#[test]
fn dftl_matches_shadow_with_tiny_cmt() {
    let mut config = SsdConfig::small_test();
    // Squeeze the CMT (budget = 2 KB = 256 entries, below the working
    // set) so demand paging is exercised hard. The write buffer is
    // dedicated memory and does not count against this budget.
    config.dram_bytes = 2 * 1024;
    config.write_buffer_pages = 32;
    let mut ssd = Ssd::new(config, Dftl::new());
    differential_run(&mut ssd, 606, 1200);
    assert!(
        ssd.stats().flash.translation_reads > 0,
        "tiny CMT must miss"
    );
}

#[test]
fn sftl_matches_shadow() {
    let mut config = SsdConfig::small_test();
    config.dram_bytes = 200 * 1024;
    let mut ssd = Ssd::new(config, Sftl::new());
    differential_run(&mut ssd, 707, 1200);
}

#[test]
fn unsorted_flush_ablation_still_correct() {
    // The Fig. 7 ablation: no LPA sort before flush. Mappings become
    // mostly single points but must stay correct.
    let mut config = SsdConfig::small_test();
    config.sort_buffer_on_flush = false;
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(config, scheme);
    differential_run(&mut ssd, 808, 1000);
}

/// Drives a bare `Dftl` with unsorted, duplicate-laden batches, sorted
/// batches and lookups under a CMT of `cmt_entries` entries. After every
/// operation it checks lookups, `mapped_pages`, `full_table_bytes` and
/// the CMT + GTD footprint against a `BTreeMap` model. Returns the summed
/// translation cost.
fn dftl_against_model(seed: u64, cmt_entries: usize, ops: usize) -> MapCost {
    /// Eight translation pages of LPAs.
    const SPACE: u64 = 4096;
    let mut dftl = Dftl::new();
    dftl.set_memory_budget(cmt_entries * ENTRY_BYTES);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut total = MapCost::FREE;
    let mut next_ppa = 0u64;
    for i in 0..ops {
        let style: f64 = rng.gen();
        if style < 0.3 {
            // Random LPAs within a window: unsorted, with duplicates.
            let start = rng.gen_range(0..SPACE);
            let window = rng.gen_range(1..200u64);
            let len = rng.gen_range(1..64usize);
            let batch: Vec<(Lpa, Ppa)> = (0..len)
                .map(|_| {
                    next_ppa += 1;
                    let lpa = (start + rng.gen_range(0..window)) % SPACE;
                    (Lpa::new(lpa), Ppa::new(next_ppa))
                })
                .collect();
            for &(lpa, ppa) in &batch {
                model.insert(lpa.raw(), ppa.raw());
            }
            total.add(dftl.update_batch(&batch));
        } else if style < 0.5 {
            // Flush-shaped: strictly increasing LPAs.
            let start = rng.gen_range(0..SPACE);
            let stride = rng.gen_range(1..4u64);
            let batch: Vec<(Lpa, Ppa)> = (0..rng.gen_range(1..64u64))
                .map(|j| start + j * stride)
                .take_while(|&lpa| lpa < SPACE)
                .map(|lpa| {
                    next_ppa += 1;
                    (Lpa::new(lpa), Ppa::new(next_ppa))
                })
                .collect();
            for &(lpa, ppa) in &batch {
                model.insert(lpa.raw(), ppa.raw());
            }
            total.add(dftl.update_batch_sorted(&batch));
        } else {
            // Past SPACE the table has never grown: always unmapped.
            let lpa = rng.gen_range(0..SPACE + 512);
            let (hit, cost) = dftl.lookup(Lpa::new(lpa));
            total.add(cost);
            let expected = model.get(&lpa).copied();
            assert_eq!(hit.map(|h| h.ppa.raw()), expected, "op {i}: lpa {lpa}");
        }
        assert_eq!(dftl.mapped_pages(), model.len(), "op {i}");
        assert_eq!(dftl.full_table_bytes(), model.len() * ENTRY_BYTES, "op {i}");
        let gtd_pages = model.keys().next_back().map_or(0, |&max| max / 512 + 1);
        assert_eq!(
            dftl.memory_bytes(),
            dftl.cached_entries() * ENTRY_BYTES + gtd_pages as usize * 8,
            "op {i}"
        );
    }
    total
}

/// `(translation_reads, translation_writes)` of seed 2023 with a
/// 37-entry CMT over 3000 operations.
const PINNED_DFTL_COST: (u32, u32) = (40936, 39750);

#[test]
fn dftl_table_matches_btree_model() {
    for seed in 0..8 {
        for cmt_entries in [1, 37, 512, usize::MAX / ENTRY_BYTES] {
            dftl_against_model(seed, cmt_entries, 600);
        }
    }
    // The cached mapping table's behaviour is pinned: these totals were
    // produced by the HashMap-backed table this dense one replaced.
    let cost = dftl_against_model(2023, 37, 3000);
    assert_eq!(
        (cost.translation_reads, cost.translation_writes),
        PINNED_DFTL_COST
    );
}
