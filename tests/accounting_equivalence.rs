//! Incremental-accounting equivalence: every live counter the learned
//! table maintains (total memory bytes, per-group bytes, segment count,
//! CRB bytes, max level depth) must exactly equal a from-scratch
//! recomputation walk, after arbitrary interleavings of `learn` /
//! `learn_sorted` / `compact` / interval-gated maintenance /
//! demand-paging evictions, at every shard count.
//!
//! This is the contract that lets `LeaFtlScheme::lookup` and
//! `update_batch` drop the O(groups) `memory_bytes()` walk from every
//! translation: the O(1) counters *are* the walk, provably, at all
//! times — not just at quiescence.
//!
//! A second invariant pins the exact per-group demand-paging charge:
//! the resident-group LRU's byte accounting always equals the sum of
//! the table's exact per-group footprints over the resident groups
//! (no drift after learns grow a resident group or compaction shrinks
//! one).
//!
//! The same contract holds for SFTL's per-translation-page run counts:
//! each equals a walk of the page's entries after every operation, so
//! the condensed sizes charged on every lookup and update are exact.

use leaftl_repro::baselines::{sftl_full_table_bytes, Sftl, RUN_BYTES};
use leaftl_repro::core::{LeaFtlConfig, MappingScheme, ShardedMapping};
use leaftl_repro::flash::{Lpa, Ppa};
use leaftl_repro::sim::LeaFtlScheme;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// LPA space: 32 groups, so every shard count under test owns several.
const SPACE: u64 = 8192;

/// One accounting-relevant operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Unsorted, possibly duplicated batch through `update_batch`
    /// (wraps mod SPACE, so LPAs arrive out of order).
    Learn { lpa: u64, len: u64, stride: u64 },
    /// Flush-shaped batch through `update_batch_sorted`: strictly
    /// increasing LPAs on consecutive PPAs.
    LearnSorted { lpa: u64, len: u64, stride: u64 },
    /// Translate one address (drives demand-paging touches/evictions).
    Lookup { lpa: u64 },
    /// Interval-gated inline maintenance (`maintain`).
    Maintain,
    /// Unconditional per-shard compaction sweep (`maintain_shard`).
    Compact,
    /// Unsorted batch through `update_batch` that keeps revisiting a
    /// `span`-wide window, so it is laden with duplicate LPAs.
    Churn { lpa: u64, len: u64, span: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..SPACE, 1u64..300, 1u64..5)
            .prop_map(|(lpa, len, stride)| Op::Learn { lpa, len, stride }),
        3 => (0u64..SPACE, 1u64..300, 1u64..5)
            .prop_map(|(lpa, len, stride)| Op::LearnSorted { lpa, len, stride }),
        3 => (0u64..SPACE).prop_map(|lpa| Op::Lookup { lpa }),
        1 => Just(Op::Maintain),
        1 => Just(Op::Compact),
    ]
}

/// SFTL's mix: the LeaFTL ops plus duplicate-laden churn.
fn sftl_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => op(),
        1 => (0u64..SPACE, 1u64..300, 1u64..40)
            .prop_map(|(lpa, len, span)| Op::Churn { lpa, len, span }),
    ]
}

/// The LPAs one op writes, in batch order.
fn written_lpas(op: Op) -> Vec<u64> {
    match op {
        Op::Learn { lpa, len, stride } => (0..len).map(|j| (lpa + j * stride) % SPACE).collect(),
        Op::LearnSorted { lpa, len, stride } => (0..len)
            .map(|j| lpa + j * stride)
            .take_while(|&addr| addr < SPACE)
            .collect(),
        Op::Churn { lpa, len, span } => (0..len).map(|j| (lpa + j * 7 % span) % SPACE).collect(),
        Op::Lookup { .. } | Op::Maintain | Op::Compact => Vec::new(),
    }
}

fn apply<S: MappingScheme>(scheme: &mut S, op: Op, next_ppa: &mut u64) {
    let mut batch = |lpas: Vec<u64>| -> Vec<(Lpa, Ppa)> {
        lpas.into_iter()
            .map(|lpa| {
                *next_ppa += 1;
                (Lpa::new(lpa), Ppa::new(*next_ppa - 1))
            })
            .collect()
    };
    match op {
        Op::Learn { .. } | Op::Churn { .. } => {
            scheme.update_batch(&batch(written_lpas(op)));
        }
        Op::LearnSorted { .. } => {
            scheme.update_batch_sorted(&batch(written_lpas(op)));
        }
        Op::Lookup { lpa } => {
            scheme.lookup(Lpa::new(lpa));
        }
        Op::Maintain => {
            scheme.maintain();
        }
        Op::Compact => {
            for shard in 0..scheme.shard_count() {
                scheme.maintain_shard(shard);
            }
        }
    }
}

/// Asserts every incremental counter of one shard equals its
/// from-scratch recomputation, and that residency byte accounting
/// equals the sum of exact per-group footprints.
fn check_shard(index: usize, shard: &LeaFtlScheme) -> Result<(), TestCaseError> {
    let table = shard.table();
    let walk = table.recompute_walk();
    prop_assert_eq!(
        table.memory_bytes(),
        walk.memory,
        "shard {}: memory counter diverged from walk",
        index
    );
    prop_assert_eq!(
        table.segment_count(),
        walk.segments,
        "shard {}: segment counter diverged from walk",
        index
    );
    prop_assert_eq!(
        table.max_level_depth(),
        walk.max_level_depth,
        "shard {}: depth counter diverged from walk",
        index
    );
    for group in table.group_ids() {
        prop_assert_eq!(
            table.group_bytes(group),
            table.recompute_group_bytes(group),
            "shard {}: group {} bytes diverged from walk",
            index,
            group
        );
    }
    let resident_walk: usize = shard
        .resident_groups()
        .map(|group| table.group_bytes(group))
        .sum();
    prop_assert_eq!(
        shard.resident_bytes(),
        resident_walk,
        "shard {}: residency accounting drifted from exact group bytes",
        index
    );
    Ok(())
}

/// Asserts SFTL's incremental run counts, full-table size, residency
/// bytes and mapped count against walks of its translation pages.
fn check_sftl(sftl: &Sftl, written: &BTreeSet<u64>) -> Result<(), TestCaseError> {
    let walk_bytes = |page: u64| sftl.recount_runs_walk(page).max(1) * RUN_BYTES;
    for page in 0..sftl.translation_pages() {
        prop_assert_eq!(
            sftl.run_count(page),
            sftl.recount_runs_walk(page),
            "page {}: run count diverged from walk",
            page
        );
    }
    let full: usize = (0..sftl.translation_pages()).map(walk_bytes).sum();
    prop_assert_eq!(sftl_full_table_bytes(sftl), full);
    let resident: usize = sftl.resident_pages().map(walk_bytes).sum();
    prop_assert_eq!(
        sftl.resident_bytes(),
        resident,
        "residency accounting drifted from walked page sizes"
    );
    prop_assert_eq!(sftl.mapped_pages(), written.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SFTL's run counts equal the 512-entry walk after every
    /// operation, with the DRAM budget tight (a few descriptors),
    /// medium, or unbounded.
    #[test]
    fn sftl_run_counts_equal_walk(
        ops in vec(sftl_op(), 1..40),
        budget in prop_oneof![Just(usize::MAX), Just(1024usize), Just(64usize)],
    ) {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(budget);
        let mut written = BTreeSet::new();
        let mut next_ppa = 100_000u64;
        for &o in &ops {
            written.extend(written_lpas(o));
            apply(&mut sftl, o, &mut next_ppa);
            check_sftl(&sftl, &written)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every operation — not just at the end — the incremental
    /// counters equal the recomputed walk, for 1/2/4/8 shards, with
    /// the DRAM budget tight enough to exercise demand-paging
    /// evictions or wide enough to stay resident.
    #[test]
    fn counters_equal_recomputed_walk(
        ops in vec(op(), 1..40),
        shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        budget in prop_oneof![Just(usize::MAX), Just(4096usize), Just(512usize)],
        gamma in 0u32..5,
    ) {
        let mut scheme = ShardedMapping::new(shards, SPACE, |_| {
            LeaFtlScheme::new(
                LeaFtlConfig::default()
                    .with_gamma(gamma)
                    // Small enough that sibling-credited interval
                    // maintenance actually fires mid-sequence.
                    .with_compaction_interval(2000),
            )
        });
        scheme.set_memory_budget(budget);
        let mut next_ppa = 100_000u64;
        for &o in &ops {
            apply(&mut scheme, o, &mut next_ppa);
            for (index, shard) in scheme.shards().enumerate() {
                check_shard(index, &shard)?;
            }
        }
        // Final full sweep: the deepest-group depth decrease and the
        // emptied-group drop paths must also reconcile.
        scheme.compact_all();
        for (index, shard) in scheme.shards().enumerate() {
            check_shard(index, &shard)?;
        }
    }

    /// The counters are also equivalent *across* shardings: N shards
    /// hold exactly the unsharded groups, so the per-shard counter
    /// sums/maxes equal the monolithic scheme's counters.
    #[test]
    fn sharded_counters_sum_to_monolithic(
        ops in vec(op(), 1..30),
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
        gamma in 0u32..5,
    ) {
        let build = |n: usize| {
            let mut s = ShardedMapping::new(n, SPACE, |_| {
                LeaFtlScheme::new(
                    LeaFtlConfig::default()
                        .with_gamma(gamma)
                        // Interval gating ON, and `Op::Maintain` is NOT
                        // filtered below: sibling credits are computed
                        // from deduped batch lengths (matching what each
                        // table counts for its own writes), so the
                        // device-wide write counter — and therefore the
                        // interval-maintenance firing points — agree
                        // between split and plain even when batches
                        // carry duplicate LPAs.
                        .with_compaction_interval(2000),
                )
            });
            s.set_memory_budget(usize::MAX);
            s
        };
        let mut plain = build(1);
        let mut split = build(shards);
        let mut ppa_plain = 100_000u64;
        let mut ppa_split = 100_000u64;
        for &o in &ops {
            apply(&mut plain, o, &mut ppa_plain);
            apply(&mut split, o, &mut ppa_split);
        }
        let plain_shard = plain.shard(0);
        let plain_table = plain_shard.table();
        let segments: usize = split.shards().map(|s| s.table().segment_count()).sum();
        let bytes: usize = split.shards().map(|s| s.table().memory_bytes().total()).sum();
        let depth = split
            .shards()
            .map(|s| s.table().max_level_depth())
            .max()
            .unwrap_or(0);
        prop_assert_eq!(segments, plain_table.segment_count());
        prop_assert_eq!(bytes, plain_table.memory_bytes().total());
        prop_assert_eq!(depth, plain_table.max_level_depth());
    }
}
