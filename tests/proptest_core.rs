//! Property-based tests for the learned mapping table: the paper's
//! correctness contracts hold for *arbitrary* monotonic batches and
//! overwrite histories.

use leaftl_repro::core::{plr, LeaFtlConfig, LeaFtlTable, Segment};
use leaftl_repro::flash::{Lpa, Ppa};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Strategy: a strictly monotonic (offset, ppa) batch within one group,
/// as produced by a sorted buffer flush.
fn monotonic_batch() -> impl Strategy<Value = Vec<(u8, u64)>> {
    (vec(1u8..6, 1..120), 0u64..200, 1_000u64..1_000_000)
        .prop_map(|(gaps, start, base_ppa)| {
            let mut x = start;
            let mut out = Vec::new();
            for (i, gap) in gaps.into_iter().enumerate() {
                if x > 255 {
                    break;
                }
                out.push((x as u8, base_ppa + i as u64));
                x += gap as u64;
            }
            out
        })
        .prop_filter("non-empty", |b| !b.is_empty())
}

/// One step of an interleaved table history.
#[derive(Debug, Clone)]
enum TableOp {
    /// `learn` of a batch handed over in reverse LPA order, with one
    /// stale duplicate that the last-wins dedup must drop.
    Learn(Vec<(u8, u64)>, u64),
    /// `learn_sorted` of an LPA-sorted, duplicate-free batch.
    LearnSorted(Vec<(u8, u64)>, u64),
    /// An (incremental) compaction sweep.
    Compact,
}

fn table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        3 => (monotonic_batch(), 0u64..6).prop_map(|(b, g)| TableOp::Learn(b, g)),
        3 => (monotonic_batch(), 0u64..6).prop_map(|(b, g)| TableOp::LearnSorted(b, g)),
        2 => Just(TableOp::Compact),
    ]
}

/// Turns a one-group batch into table pairs at `group`, renumbering
/// PPAs so every batch gets fresh, increasing addresses (allocator
/// behaviour).
fn place(batch: &[(u8, u64)], group: u64, ppa_base: &mut u64) -> Vec<(Lpa, Ppa)> {
    let pairs = batch
        .iter()
        .enumerate()
        .map(|(i, &(x, _))| {
            (
                Lpa::new(group * 256 + x as u64),
                Ppa::new(*ppa_base + i as u64),
            )
        })
        .collect();
    *ppa_base += batch.len() as u64 + 3;
    pairs
}

/// After a sweep: no invariant violation (including the clean-group
/// rule behind the incremental sweep), every modelled LPA translates
/// within its bound, nothing unmodelled translates, and the live
/// counters equal a from-scratch walk.
fn check_swept(table: &LeaFtlTable, model: &BTreeMap<u64, u64>) -> Result<(), TestCaseError> {
    let violations = table.validate();
    prop_assert!(violations.is_empty(), "invariants: {:?}", violations);
    for (&lpa, &ppa) in model {
        let hit = table.lookup(Lpa::new(lpa));
        prop_assert!(hit.is_some(), "lpa {lpa} lost");
        let hit = hit.expect("checked");
        if hit.approximate {
            let err = (hit.ppa.raw() as i64 - ppa as i64).unsigned_abs();
            prop_assert!(err <= hit.error_bound as u64, "lpa {lpa}: err {err}");
        } else {
            prop_assert_eq!(hit.ppa.raw(), ppa, "lpa {} accurate hit", lpa);
        }
    }
    for lpa in 0..6 * 256u64 {
        if !model.contains_key(&lpa) {
            prop_assert!(table.lookup(Lpa::new(lpa)).is_none(), "phantom {lpa}");
        }
    }
    let walk = table.recompute_walk();
    prop_assert_eq!(table.memory_bytes(), walk.memory);
    prop_assert_eq!(table.segment_count(), walk.segments);
    prop_assert_eq!(table.max_level_depth(), walk.max_level_depth);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every fitted segment honours the error bound for every member,
    /// for every γ.
    #[test]
    fn plr_error_bound_holds(batch in monotonic_batch(), gamma in 0u32..16) {
        let pieces = plr::fit(&batch, gamma);
        let truth: HashMap<u8, u64> = batch.iter().copied().collect();
        let mut covered = 0usize;
        for piece in &pieces {
            for &x in &piece.members {
                let y = truth[&x];
                let err = (piece.segment.translate(x).raw() as i64 - y as i64).unsigned_abs();
                prop_assert!(err <= gamma as u64, "x={x} err={err} gamma={gamma}");
                covered += 1;
            }
        }
        // Members partition the input exactly.
        prop_assert_eq!(covered, batch.len());
    }

    /// γ=0 always yields accurate segments with exact translations.
    #[test]
    fn plr_gamma_zero_is_exact(batch in monotonic_batch()) {
        let pieces = plr::fit(&batch, 0);
        let truth: HashMap<u8, u64> = batch.iter().copied().collect();
        for piece in &pieces {
            prop_assert!(piece.segment.is_accurate());
            for &x in &piece.members {
                prop_assert_eq!(piece.segment.translate(x).raw(), truth[&x]);
                prop_assert!(piece.segment.accurate_has_offset(x));
            }
        }
    }

    /// Accurate segments never claim offsets between their members
    /// right after fitting (the stride test identifies exactly the
    /// member set).
    #[test]
    fn plr_accurate_claims_exactly_members(batch in monotonic_batch()) {
        let pieces = plr::fit(&batch, 0);
        for piece in &pieces {
            let claimed = piece.segment.accurate_members();
            prop_assert_eq!(&claimed, &piece.members);
        }
    }

    /// The 8-byte wire codec round-trips every segment.
    #[test]
    fn segment_codec_roundtrip(batch in monotonic_batch(), gamma in 0u32..16) {
        for piece in plr::fit(&batch, gamma) {
            let decoded = Segment::decode(piece.segment.encode());
            prop_assert_eq!(decoded, piece.segment);
        }
    }

    /// The full table behaves exactly like a hash map under arbitrary
    /// overwrite histories, within the error bound, including after
    /// compaction.
    #[test]
    fn table_matches_oracle(
        batches in vec((monotonic_batch(), 0u64..4), 1..30),
        gamma in 0u32..10,
        compact_every in 1usize..10,
    ) {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut ppa_base = 0u64;
        for (round, (batch, group)) in batches.iter().enumerate() {
            // Spread batches over a few groups; renumber PPAs so they
            // are unique and increasing per batch (allocator behaviour).
            let pairs: Vec<(Lpa, Ppa)> = batch
                .iter()
                .enumerate()
                .map(|(i, &(x, _))| {
                    (
                        Lpa::new(group * 256 + x as u64),
                        Ppa::new(ppa_base + i as u64),
                    )
                })
                .collect();
            ppa_base += batch.len() as u64 + 7;
            for &(lpa, ppa) in &pairs {
                oracle.insert(lpa.raw(), ppa.raw());
            }
            table.learn(&pairs);
            if round % compact_every == compact_every - 1 {
                table.compact();
            }
        }
        table.compact();
        let violations = table.validate();
        prop_assert!(violations.is_empty(), "invariants: {:?}", violations);
        for (&lpa, &ppa) in &oracle {
            let hit = table.lookup(Lpa::new(lpa));
            prop_assert!(hit.is_some(), "lpa {lpa} lost");
            let hit = hit.expect("checked");
            let err = (hit.ppa.raw() as i64 - ppa as i64).unsigned_abs();
            prop_assert!(
                err <= hit.error_bound as u64,
                "lpa {lpa}: predicted {} true {ppa} bound {}",
                hit.ppa.raw(),
                hit.error_bound
            );
            if !hit.approximate {
                prop_assert_eq!(hit.ppa.raw(), ppa, "accurate hits must be exact");
            }
        }
        // Nothing invented: unmapped LPAs stay unmapped.
        for probe in [0u64, 100, 255, 256, 999, 1023] {
            if !oracle.contains_key(&probe) {
                prop_assert!(table.lookup(Lpa::new(probe)).is_none(), "phantom {probe}");
            }
        }
    }

    /// Memory never exceeds the page-level equivalent: segments cost at
    /// most 8 bytes per *live* mapping plus CRB bookkeeping bounded by
    /// one byte per mapping (§3.1 worst case, after compaction).
    #[test]
    fn memory_bounded_by_page_level(
        batches in vec(monotonic_batch(), 1..15),
        gamma in 0u32..8,
    ) {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
        let mut live = std::collections::HashSet::new();
        let mut ppa_base = 0u64;
        for batch in &batches {
            let pairs: Vec<(Lpa, Ppa)> = batch
                .iter()
                .enumerate()
                .map(|(i, &(x, _))| (Lpa::new(x as u64), Ppa::new(ppa_base + i as u64)))
                .collect();
            ppa_base += batch.len() as u64;
            for &(lpa, _) in &pairs {
                live.insert(lpa.raw());
            }
            table.learn(&pairs);
        }
        table.compact();
        let memory = table.memory_bytes();
        let page_level = live.len() * 8;
        prop_assert!(
            memory.segment_bytes <= page_level,
            "segments {} > page-level {page_level}",
            memory.segment_bytes
        );
    }

    /// Incremental compaction is indistinguishable from a full sweep:
    /// any interleaving of `learn`, `learn_sorted` and `compact` keeps
    /// the table valid, model-exact and counter-consistent after every
    /// sweep.
    #[test]
    fn interleaved_learn_and_compact_match_model(
        ops in vec(table_op(), 1..40),
        gamma in prop_oneof![Just(0u32), Just(4u32), Just(16u32)],
    ) {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut ppa_base = 0u64;
        for op in ops.iter().chain(std::iter::once(&TableOp::Compact)) {
            match op {
                TableOp::Learn(batch, group) => {
                    let pairs = place(batch, *group, &mut ppa_base);
                    for &(lpa, ppa) in &pairs {
                        model.insert(lpa.raw(), ppa.raw());
                    }
                    let mut shuffled: Vec<(Lpa, Ppa)> = pairs.iter().rev().copied().collect();
                    // A stale copy of the first pair, ahead of the live one.
                    shuffled.insert(0, (pairs[0].0, Ppa::new(pairs[0].1.raw() + 1_000_000)));
                    table.learn(&shuffled);
                }
                TableOp::LearnSorted(batch, group) => {
                    let pairs = place(batch, *group, &mut ppa_base);
                    for &(lpa, ppa) in &pairs {
                        model.insert(lpa.raw(), ppa.raw());
                    }
                    table.learn_sorted(&pairs);
                }
                TableOp::Compact => {
                    table.compact();
                    check_swept(&table, &model)?;
                }
            }
        }
    }
}
