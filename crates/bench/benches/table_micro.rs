//! Lookup + residency-touch cost vs table size: the incremental
//! accounting regression guard.
//!
//! Every `LeaFtlScheme::lookup` runs a residency check
//! (`touch_group`) that consults the table's total footprint and — when
//! demand paging is active — the touched group's exact byte size.
//! Both are now O(1) incremental counters; before this change
//! `memory_bytes()` walked every group on every translation, so
//! per-lookup cost grew linearly with table size (the `shard_micro`
//! burst-32 "sharding win" was mostly that artifact).
//!
//! Two axes, each at 64 vs 4096 resident groups (64× the state):
//!
//! * **resident** — the paper's headline case: the whole table fits in
//!   DRAM, `touch_group` is one footprint comparison. Per-lookup cost
//!   must be flat in group count (tens-to-hundreds of ns, Fig. 23b).
//! * **paged** — budget below the footprint: every lookup pays the
//!   LRU residency check with the exact per-group byte charge. Cost is
//!   per-group work (hash + list splice), still flat in group count.
//!
//! A third group guards the incremental compaction sweep:
//!
//! * **sweep** — one 128-page scattered flush over 32 groups, then
//!   `compact()`. The sweep visits only the groups learned into since
//!   the last one, so its cost follows the 32 dirtied groups and must
//!   stay flat in table size (a full sweep would grow 64×).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::LeaFtlConfig;
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::{LeaFtlScheme, MappingScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Group counts under test: per-lookup cost must not grow with this.
const GROUP_COUNTS: [u64; 2] = [64, 4096];

/// Builds a warmed monolithic scheme covering `groups` 256-LPA groups:
/// a sequential base layer plus scattered overwrites, the state shape a
/// mixed workload leaves behind.
fn warmed(groups: u64) -> LeaFtlScheme {
    let space = groups * 256;
    let mut scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
    scheme.set_memory_budget(usize::MAX);
    let base: Vec<(Lpa, Ppa)> = (0..space).map(|i| (Lpa::new(i), Ppa::new(i))).collect();
    scheme.update_batch_sorted(&base);
    let mut rng = StdRng::seed_from_u64(11);
    for round in 0..4u64 {
        let mut batch: Vec<(Lpa, Ppa)> = (0..(space / 8).max(64))
            .map(|i| {
                (
                    Lpa::new(rng.gen_range(0u64..space)),
                    Ppa::new(space + round * space + i),
                )
            })
            .collect();
        batch.sort_by_key(|&(lpa, _)| lpa);
        batch.dedup_by_key(|&mut (lpa, _)| lpa);
        scheme.update_batch(&batch);
    }
    scheme
}

fn burst(space: u64, len: usize) -> Vec<Lpa> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..len)
        .map(|_| Lpa::new(rng.gen_range(0u64..space)))
        .collect()
}

/// Fully resident table: lookup + the O(1) footprint check.
fn bench_lookup_resident(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_lookup_resident");
    const LOOKUPS: usize = 1024;
    group.throughput(Throughput::Elements(LOOKUPS as u64));
    for &groups in &GROUP_COUNTS {
        let mut scheme = warmed(groups);
        let lpas = burst(groups * 256, LOOKUPS);
        group.bench_function(BenchmarkId::from_parameter(groups), |b| {
            b.iter(|| {
                for &lpa in &lpas {
                    black_box(scheme.lookup(black_box(lpa)));
                }
            })
        });
    }
    group.finish();
}

/// Demand-paged table: lookup + LRU residency touch with the exact
/// per-group byte charge (misses fault the group in, dirty victims
/// charge write-backs).
fn bench_lookup_paged(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_lookup_paged");
    const LOOKUPS: usize = 1024;
    group.throughput(Throughput::Elements(LOOKUPS as u64));
    for &groups in &GROUP_COUNTS {
        let mut scheme = warmed(groups);
        // Half the footprint stays resident: every burst mixes hits,
        // faults and evictions.
        let budget = scheme.table().memory_bytes().total() / 2;
        scheme.set_memory_budget(budget);
        let lpas = burst(groups * 256, LOOKUPS);
        group.bench_function(BenchmarkId::from_parameter(groups), |b| {
            b.iter(|| {
                for &lpa in &lpas {
                    black_box(scheme.lookup(black_box(lpa)));
                }
            })
        });
    }
    group.finish();
}

/// Groups one scattered sweep flush touches, whatever the table size.
const SWEEP_GROUPS: usize = 32;
/// Pages per sweep flush: one 128-page write buffer.
const SWEEP_PAGES: usize = 128;

/// Sorted 128-page flushes, each scattered over `SWEEP_GROUPS`
/// distinct groups, with fresh increasing PPAs per flush.
fn scattered_flushes(groups: u64, count: usize) -> Vec<Vec<(Lpa, Ppa)>> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut next_ppa = groups * 256 * 8;
    (0..count)
        .map(|_| {
            let mut ids: Vec<u64> = Vec::with_capacity(SWEEP_GROUPS);
            while ids.len() < SWEEP_GROUPS {
                let id = rng.gen_range(0..groups);
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            let mut lpas: Vec<u64> = ids
                .iter()
                .flat_map(|&id| (0..SWEEP_PAGES / SWEEP_GROUPS).map(move |_| id * 256))
                .map(|base| base + rng.gen_range(0u64..256))
                .collect();
            lpas.sort_unstable();
            lpas.dedup();
            lpas.into_iter()
                .map(|lpa| {
                    next_ppa += 1;
                    (Lpa::new(lpa), Ppa::new(next_ppa))
                })
                .collect()
        })
        .collect()
}

/// One scattered flush + the incremental sweep it triggers.
fn bench_sweep_after_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_sweep_after_flush");
    group.throughput(Throughput::Elements(SWEEP_PAGES as u64));
    for &groups in &GROUP_COUNTS {
        // The `warmed` table, compacted once so the measured sweeps
        // start clean.
        let mut table = warmed(groups).table().clone();
        table.compact();
        let flushes = scattered_flushes(groups, 64);
        let mut next = 0usize;
        group.bench_function(BenchmarkId::from_parameter(groups), |b| {
            b.iter(|| {
                table.learn_sorted(black_box(&flushes[next % flushes.len()]));
                next += 1;
                table.compact();
                black_box(table.segment_count())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lookup_resident,
    bench_lookup_paged,
    bench_sweep_after_flush
);
criterion_main!(benches);
