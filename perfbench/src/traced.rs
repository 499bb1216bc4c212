//! The traced run: per-layer numbers, taken from outside the program.
//!
//! The run alternates untraced and traced repetitions of the workload.
//! The traced one drives `Ssd::read` and `Ssd::write` page by page with
//! `replay`'s own clamp and write-sequence rules, times every call, and
//! classifies it by which `SimStats` counters the call moved; on the
//! open-loop workload it attaches the device's `TraceSink` instead. Its
//! simulated outcome must equal the untraced repetition's bit for bit.
//! Layer probes then time `core` and `baselines` calls on the warmed
//! state: lookups over the trace's read addresses, learning and SFTL
//! updates over flush-shaped batches of its writes, and compaction of a
//! copy of the final table.

use crate::setup::{
    baseline_specs, check_device, device_config, for_each_page, lea_read_spec, lea_scheme,
    prepare_closed, prepare_write_gc, replay_sliced, write_gc_device, ClosedSpec, Phases, Tally,
    Workload, SLICE_OPS,
};
use crate::spans::Spans;
use crate::{check_held_out_seed, Args, Metric, Outcome};
use leaftl_baselines::{Dftl, Sftl};
use leaftl_core::LeaFtlTable;
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::{
    replay_open_loop_with, validate_chrome_trace, HostOp, LeaFtlScheme, MappingScheme,
    ReplayReport, SimError, SimStats, Ssd, SsdConfig, TrafficClass,
};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// Untraced/traced repetition pairs every traced run makes at least.
const MIN_PAIRS: usize = 2;
/// Passes of each layer probe; the fastest one is reported.
const PROBE_PASSES: usize = 3;

/// Every per-layer metric, in output order, with its unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s_host"),
    ("ssd.prefill_pages_per_s", "pages/s_host"),
    ("ssd.read.calls", "count"),
    ("ssd.read.host_ns_mean", "ns_host"),
    ("ssd.read.host_ns_p99", "ns_host"),
    ("ssd.read.buffer_hit.share", "fraction"),
    ("ssd.read.cache_hit.share", "fraction"),
    ("ssd.read.flash.share", "fraction"),
    ("ssd.read.translation_miss.share", "fraction"),
    ("ssd.read.mispredict.share", "fraction"),
    ("ssd.cache_hit_ratio", "ratio"),
    ("ssd.translation_reads", "count"),
    ("ssd.mispredict_ratio", "ratio"),
    ("ssd.write.calls", "count"),
    ("ssd.write.host_ns_mean", "ns_host"),
    ("ssd.write.buffered.share", "fraction"),
    ("ssd.write.flush.share", "fraction"),
    ("ssd.write.gc.share", "fraction"),
    ("ssd.gc_runs", "count"),
    ("ssd.gc_pages_per_run", "pages"),
    ("ssd.translation_programs", "count"),
    ("core.lookup_ns", "ns_host"),
    ("core.levels_per_lookup", "levels"),
    ("core.learn_ns_per_pair", "ns_host"),
    ("core.compact_ms", "ms_host"),
    ("core.segments", "count"),
    ("core.map_bytes", "bytes"),
    ("baselines.dftl.host_ns_per_page", "ns_host"),
    ("baselines.sftl.host_ns_per_page", "ns_host"),
    ("baselines.sftl.update_ns_per_pair", "ns_host"),
    ("baselines.dftl.translation_reads", "count"),
    ("baselines.sftl.translation_reads", "count"),
    ("device.replay_host_s", "s_host"),
    ("device.wait_p99_us", "us_sim"),
    ("device.gc_dispatched", "count"),
    ("device.compact_dispatched", "count"),
    ("device.gc_stall_ms", "ms_sim"),
    ("device.translation_stall_ms", "ms_sim"),
    ("device.die_busy.host", "fraction"),
    ("device.die_busy.gc", "fraction"),
    ("device.die_busy.compact", "fraction"),
    ("device.die_busy.maplog", "fraction"),
    ("qos.admission_wait_ms", "ms_sim"),
    ("qos.ticks", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.events", "count"),
];

/// Per-layer values of one traced run. Layers the workload never calls
/// are declared bypassed and read 0; any other metric left unset is a
/// bug in this file.
struct Layers {
    values: Vec<(&'static str, f64)>,
    bypassed: Vec<&'static str>,
}

impl Layers {
    fn new(bypassed: &[&'static str]) -> Self {
        Layers {
            values: Vec::new(),
            bypassed: bypassed.to_vec(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.iter().find(|&&(n, _)| n == name) {
                    Some(&(_, v)) => v,
                    None => {
                        assert!(
                            self.bypassed.iter().any(|prefix| name.starts_with(prefix)),
                            "per-layer metric {name} was neither measured nor bypassed"
                        );
                        0.0
                    }
                };
                (name, value, unit)
            })
            .collect()
    }
}

const READ_CLASSES: [&str; 5] = [
    "buffer_hit",
    "cache_hit",
    "flash",
    "translation_miss",
    "mispredict",
];
const WRITE_CLASSES: [&str; 3] = ["buffered", "flush", "gc"];

/// Host nanoseconds of every timed call of one kind, by class.
struct Calls<const N: usize> {
    ns: Vec<u64>,
    class_ns: [u64; N],
    class_calls: [u64; N],
}

impl<const N: usize> Calls<N> {
    fn new() -> Self {
        Calls {
            ns: Vec::new(),
            class_ns: [0; N],
            class_calls: [0; N],
        }
    }

    fn record(&mut self, class: usize, ns: u64) {
        self.ns.push(ns);
        self.class_ns[class] += ns;
        self.class_calls[class] += 1;
    }

    fn total_ns(&self) -> u64 {
        self.class_ns.iter().sum()
    }

    fn mean_ns(&self) -> f64 {
        self.total_ns() as f64 / self.ns.len().max(1) as f64
    }

    /// Exact p99 over the recorded calls; a thinner sample than 1000
    /// calls fails the run.
    fn p99_ns(&mut self, label: &str, tally: &mut Tally) -> f64 {
        let n = self.ns.len();
        tally.check(n >= 1000, || format!("{label}: p99 over {n} calls"));
        if n == 0 {
            return 0.0;
        }
        self.ns.sort_unstable();
        self.ns[((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1] as f64
    }

    fn share(&self, class: usize) -> f64 {
        self.class_ns[class] as f64 / self.total_ns().max(1) as f64
    }

    fn merge(&mut self, other: Calls<N>) {
        self.ns.extend(other.ns);
        for i in 0..N {
            self.class_ns[i] += other.class_ns[i];
            self.class_calls[i] += other.class_calls[i];
        }
    }

    fn to_json(&self, classes: &[&str; N]) -> Value {
        Value::Object(
            classes
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    (
                        c.to_string(),
                        json!({"calls": self.class_calls[i], "host_ns": self.class_ns[i]}),
                    )
                })
                .collect(),
        )
    }
}

/// The `SimStats` counters a call's class is read from.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Counters {
    buffer_hits: u64,
    cache_hits: u64,
    translation_reads: u64,
    mispredictions: u64,
    gc_runs: u64,
    data_programs: u64,
}

impl Counters {
    fn of(stats: &SimStats) -> Self {
        Counters {
            buffer_hits: stats.buffer_hits,
            cache_hits: stats.cache_hits,
            translation_reads: stats.flash.translation_reads,
            mispredictions: stats.mispredictions,
            gc_runs: stats.gc_runs,
            data_programs: stats.flash.data_programs,
        }
    }

    /// Read class, in precedence order: served from the write buffer,
    /// from the data cache, after a translation-page read, after a
    /// misprediction's second flash read, or by one flash read.
    fn read_class(self, after: Counters) -> usize {
        if after.buffer_hits > self.buffer_hits {
            0
        } else if after.cache_hits > self.cache_hits {
            1
        } else if after.translation_reads > self.translation_reads {
            3
        } else if after.mispredictions > self.mispredictions {
            4
        } else {
            2
        }
    }

    /// Write class: ran a GC, flushed the buffer to flash, or buffered.
    fn write_class(self, after: Counters) -> usize {
        if after.gc_runs > self.gc_runs {
            2
        } else if after.data_programs > self.data_programs {
            1
        } else {
            0
        }
    }
}

/// Drives one measured trace page by page, exactly as `replay_sliced`
/// does with `replay`, timing and classifying every call.
fn drive<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    ops: &[HostOp],
    reads: &mut Calls<5>,
    writes: &mut Calls<3>,
) -> Result<ReplayReport, SimError> {
    let logical = ssd.config().logical_pages();
    let start_ns = ssd.now_ns();
    let (mut pages_read, mut pages_written) = (0u64, 0u64);
    for slice in ops.chunks(SLICE_OPS) {
        drive_slice(
            ssd,
            slice,
            logical,
            reads,
            writes,
            &mut pages_read,
            &mut pages_written,
        )?;
    }
    Ok(ReplayReport {
        ops: ops.len() as u64,
        pages_read,
        pages_written,
        elapsed_ns: ssd.now_ns() - start_ns,
        stats: ssd.stats().clone(),
    })
}

/// One `replay` call's worth of [`drive`]: the write-content counter
/// restarts here, as it does per `replay` call.
fn drive_slice<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    ops: &[HostOp],
    logical: u64,
    reads: &mut Calls<5>,
    writes: &mut Calls<3>,
    pages_read: &mut u64,
    pages_written: &mut u64,
) -> Result<(), SimError> {
    for_each_page(ops, logical, |lpa, write| {
        let before = Counters::of(ssd.stats());
        let start = Instant::now();
        match write {
            None => {
                black_box(ssd.read(lpa)?);
            }
            Some(content) => ssd.write(lpa, content)?,
        }
        let ns = start.elapsed().as_nanos() as u64;
        let after = Counters::of(ssd.stats());
        match write {
            None => {
                reads.record(before.read_class(after), ns);
                *pages_read += 1;
            }
            Some(_) => {
                writes.record(before.write_class(after), ns);
                *pages_written += 1;
            }
        }
        Ok(())
    })
}

/// Fastest of [`PROBE_PASSES`] timed passes of `f`, in host ns.
fn probe_ns(mut f: impl FnMut()) -> f64 {
    (0..PROBE_PASSES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::MAX, f64::min)
}

/// Page-expanded read addresses of a trace.
fn read_lpas(ops: &[HostOp], logical: u64) -> Vec<Lpa> {
    let mut lpas = Vec::new();
    let visited: Result<(), ()> = for_each_page(ops, logical, |lpa, write| {
        if write.is_none() {
            lpas.push(lpa);
        }
        Ok(())
    });
    visited.expect("collecting addresses cannot fail");
    lpas
}

/// The trace's writes cut into write-buffer-sized flushes: each batch
/// sorted by LPA, deduplicated, and placed on consecutive PPAs.
fn flush_batches(ops: &[HostOp], config: &SsdConfig) -> Vec<Vec<(Lpa, Ppa)>> {
    let logical = config.logical_pages();
    let mut writes = Vec::new();
    let visited: Result<(), ()> = for_each_page(ops, logical, |lpa, write| {
        if write.is_some() {
            writes.push(lpa);
        }
        Ok(())
    });
    visited.expect("collecting addresses cannot fail");
    let mut next_ppa = 0u64;
    writes
        .chunks(config.write_buffer_pages)
        .map(|chunk| {
            let mut lpas = chunk.to_vec();
            lpas.sort_unstable();
            lpas.dedup();
            lpas.into_iter()
                .map(|lpa| {
                    next_ppa += 1;
                    (lpa, Ppa::new(next_ppa - 1))
                })
                .collect()
        })
        .collect()
}

fn pairs(batches: &[Vec<(Lpa, Ppa)>]) -> f64 {
    batches.iter().map(Vec::len).sum::<usize>().max(1) as f64
}

/// `core` probes on a warmed LeaFTL table: lookups over the trace's read
/// addresses and learning of its flush-shaped write batches.
fn core_warm_probes(
    table: &LeaFtlTable,
    ops: &[HostOp],
    config: &SsdConfig,
    spans: &mut Spans,
    layers: &mut Layers,
) {
    let lpas = read_lpas(ops, config.logical_pages());
    let (levels, _) = spans.time("probe core.levels", || {
        let found: Vec<u32> = lpas
            .iter()
            .filter_map(|&lpa| table.lookup(lpa).map(|r| r.levels_visited))
            .collect();
        found.iter().map(|&l| l as f64).sum::<f64>() / found.len().max(1) as f64
    });
    let (lookup_ns, _) = spans.time("probe core.lookup", || {
        probe_ns(|| {
            for &lpa in &lpas {
                black_box(table.lookup(black_box(lpa)));
            }
        })
    });
    layers.set("core.lookup_ns", lookup_ns / lpas.len().max(1) as f64);
    layers.set("core.levels_per_lookup", levels);

    let batches = flush_batches(ops, config);
    let (learn_ns, _) = spans.time("probe core.learn", || {
        probe_ns(|| {
            let mut fresh = LeaFtlTable::new(*table.config());
            for batch in &batches {
                fresh.learn_sorted(black_box(batch));
            }
            black_box(fresh.segment_count());
        })
    });
    layers.set("core.learn_ns_per_pair", learn_ns / pairs(&batches));
}

/// `core` probes on the final table: compaction of a copy, segment count
/// and live footprint.
fn core_final_probes(table: &LeaFtlTable, spans: &mut Spans, layers: &mut Layers) {
    let (compact_ns, _) = spans.time("probe core.compact", || {
        (0..PROBE_PASSES)
            .map(|_| {
                let mut copy = table.clone();
                let start = Instant::now();
                copy.compact();
                let ns = start.elapsed().as_nanos() as f64;
                black_box(copy.segment_count());
                ns
            })
            .fold(f64::MAX, f64::min)
    });
    layers.set("core.compact_ms", compact_ns / 1e6);
    layers.set("core.segments", table.segment_count() as f64);
    layers.set("core.map_bytes", table.memory_bytes().total() as f64);
}

/// Simulated counters every workload reports from its `SimStats`.
fn set_sim_counters(stats: &SimStats, layers: &mut Layers) {
    layers.set("ssd.cache_hit_ratio", stats.cache_hit_ratio());
    layers.set(
        "ssd.translation_reads",
        stats.flash.translation_reads as f64,
    );
    layers.set("ssd.mispredict_ratio", stats.misprediction_ratio());
    layers.set("ssd.gc_runs", stats.gc_runs as f64);
    layers.set(
        "ssd.gc_pages_per_run",
        stats.flash.gc_programs as f64 / stats.gc_runs.max(1) as f64,
    );
    layers.set(
        "ssd.translation_programs",
        stats.flash.translation_programs as f64,
    );
}

/// The two baselines' statistics with the counters [`set_sim_counters`]
/// reads summed.
fn sum_stats(a: &SimStats, b: &SimStats) -> SimStats {
    let mut s = a.clone();
    s.host_reads += b.host_reads;
    s.buffer_hits += b.buffer_hits;
    s.cache_hits += b.cache_hits;
    s.lookups += b.lookups;
    s.mispredictions += b.mispredictions;
    s.gc_runs += b.gc_runs;
    s.flash.translation_reads += b.flash.translation_reads;
    s.flash.gc_programs += b.flash.gc_programs;
    s.flash.translation_programs += b.flash.translation_programs;
    s
}

/// Best (smallest) value of a non-empty list.
fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

/// Host time and outcome of the traced and untraced halves of a run.
struct Pairs {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    phases: Vec<Phases>,
}

impl Pairs {
    fn new() -> Self {
        Pairs {
            untraced_s: Vec::new(),
            traced_s: Vec::new(),
            phases: Vec::new(),
        }
    }

    fn push(&mut self, untraced_s: f64, traced_s: f64, phases: [Phases; 2]) {
        self.untraced_s.push(untraced_s);
        self.traced_s.push(traced_s);
        self.phases.extend(phases);
    }

    fn done(&self, spans: &Spans, seconds: f64) -> bool {
        self.traced_s.len() >= MIN_PAIRS && spans.elapsed_s() >= seconds
    }

    fn finish(&self, layers: &mut Layers) -> Value {
        let gen: Vec<f64> = self.phases.iter().map(|p| p.gen_s).collect();
        let prefill: Vec<f64> = self
            .phases
            .iter()
            .map(|p| p.prefill_pages as f64 / p.prefill_s)
            .collect();
        layers.set("workloads.gen_s", best(&gen));
        layers.set(
            "ssd.prefill_pages_per_s",
            prefill.iter().copied().fold(f64::MIN, f64::max),
        );
        layers.set(
            "trace.overhead_frac",
            best(&self.traced_s) / best(&self.untraced_s) - 1.0,
        );
        json!({
            "untraced_measured_s": self.untraced_s,
            "traced_measured_s": self.traced_s,
            "gen_s": gen,
            "prefill_pages_per_s": prefill,
        })
    }
}

/// One closed-loop scheme's untraced/traced pair: per-call timings of
/// the traced half, its statistics, and both halves' host times.
struct ClosedPair {
    reads: Calls<5>,
    writes: Calls<3>,
    stats: SimStats,
    untraced_s: f64,
    traced_s: f64,
    /// Set-up phases of the untraced and the traced repetition.
    phases: [Phases; 2],
}

/// Layer probes a scheme supports, run on the traced repetition's
/// device: `warm` before the measured phase, `finish` after it.
trait Probes: MappingScheme + Clone {
    fn warm(_ssd: &Ssd<Self>, _ops: &[HostOp], _spans: &mut Spans, _layers: &mut Layers) {}
    fn finish(_ssd: &Ssd<Self>, _spans: &mut Spans, _layers: &mut Layers) {}
}

impl Probes for Dftl {}

impl Probes for Sftl {
    /// `update_batch` on copies of the warmed SFTL map.
    fn warm(ssd: &Ssd<Self>, ops: &[HostOp], spans: &mut Spans, layers: &mut Layers) {
        let batches = flush_batches(ops, ssd.config());
        let (ns, _) = spans.time("probe sftl.update_batch", || {
            (0..PROBE_PASSES)
                .map(|_| {
                    let mut copy = ssd.scheme().clone();
                    let start = Instant::now();
                    for batch in &batches {
                        black_box(copy.update_batch(black_box(batch)));
                    }
                    start.elapsed().as_nanos() as f64
                })
                .fold(f64::MAX, f64::min)
        });
        layers.set("baselines.sftl.update_ns_per_pair", ns / pairs(&batches));
    }
}

impl Probes for LeaFtlScheme {
    fn warm(ssd: &Ssd<Self>, ops: &[HostOp], spans: &mut Spans, layers: &mut Layers) {
        core_warm_probes(ssd.scheme().table(), ops, ssd.config(), spans, layers);
    }

    fn finish(ssd: &Ssd<Self>, spans: &mut Spans, layers: &mut Layers) {
        core_final_probes(ssd.scheme().table(), spans, layers);
    }
}

/// One untraced and one traced repetition of a closed-loop scheme, with
/// the scheme's layer probes and the bit-identity check between them.
#[allow(clippy::too_many_arguments)]
fn closed_pair<S: Probes>(
    spans: &mut Spans,
    tally: &mut Tally,
    layers: &mut Layers,
    label: &str,
    config: &SsdConfig,
    scheme: impl Fn() -> S,
    spec: &ClosedSpec,
    seed: u64,
) -> Result<ClosedPair, SimError> {
    let mut untraced = prepare_closed(spans, config.clone(), scheme(), spec, seed)?;
    let (report, untraced_s) = spans.time("measured", || {
        replay_sliced(
            &mut untraced.ssd,
            &untraced.measured,
            SLICE_OPS,
            &mut Vec::new(),
        )
    });
    let report = report?;
    let untraced_phases = untraced.phases.clone();
    drop(untraced);

    let mut traced = prepare_closed(spans, config.clone(), scheme(), spec, seed)?;
    S::warm(&traced.ssd, &traced.measured, spans, layers);
    let mut reads = Calls::new();
    let mut writes = Calls::new();
    let (traced_report, traced_s) = spans.time("measured traced", || {
        drive(&mut traced.ssd, &traced.measured, &mut reads, &mut writes)
    });
    let traced_report = traced_report?;
    tally.passed(traced_report.pages_read + traced_report.pages_written);
    tally.check(
        format!("{traced_report:?}") == format!("{report:?}"),
        || format!("{label}: traced run simulated a different outcome than replay"),
    );
    check_device(&traced.ssd, label, tally);
    S::finish(&traced.ssd, spans, layers);
    Ok(ClosedPair {
        reads,
        writes,
        stats: traced_report.stats,
        untraced_s,
        traced_s,
        phases: [untraced_phases, traced.phases],
    })
}

fn set_call_metrics(
    reads: &mut Calls<5>,
    writes: &Calls<3>,
    tally: &mut Tally,
    layers: &mut Layers,
) {
    layers.set("ssd.read.calls", reads.ns.len() as f64);
    layers.set("ssd.read.host_ns_mean", reads.mean_ns());
    layers.set("ssd.read.host_ns_p99", reads.p99_ns("ssd.read", tally));
    layers.set("ssd.read.buffer_hit.share", reads.share(0));
    layers.set("ssd.read.cache_hit.share", reads.share(1));
    layers.set("ssd.read.flash.share", reads.share(2));
    layers.set("ssd.read.translation_miss.share", reads.share(3));
    layers.set("ssd.read.mispredict.share", reads.share(4));
    layers.set("ssd.write.calls", writes.ns.len() as f64);
    layers.set("ssd.write.host_ns_mean", writes.mean_ns());
    layers.set("ssd.write.buffered.share", writes.share(0));
    layers.set("ssd.write.flush.share", writes.share(1));
    layers.set("ssd.write.gc.share", writes.share(2));
}

fn lea_read(
    args: &Args,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Layers, Value), SimError> {
    let mut layers = Layers::new(&["baselines.", "device.", "qos."]);
    let config = device_config(4);
    let spec = lea_read_spec();
    let mut pairs = Pairs::new();
    let mut last = None;
    while !pairs.done(spans, args.seconds) {
        spans.open("pair");
        let pair = closed_pair(
            spans,
            tally,
            &mut layers,
            "lea-read",
            &config,
            || lea_scheme(&config),
            &spec,
            args.seed,
        )?;
        spans.close();
        pairs.push(pair.untraced_s, pair.traced_s, pair.phases.clone());
        last = Some(pair);
    }
    let mut trace = last.expect("at least one pair ran");
    set_call_metrics(&mut trace.reads, &trace.writes, tally, &mut layers);
    set_sim_counters(&trace.stats, &mut layers);
    layers.set(
        "trace.events",
        (trace.reads.ns.len() + trace.writes.ns.len()) as f64,
    );
    let record = json!({
        "pairs": pairs.finish(&mut layers),
        "read_classes": trace.reads.to_json(&READ_CLASSES),
        "write_classes": trace.writes.to_json(&WRITE_CLASSES),
    });
    Ok((layers, record))
}

fn baselines(
    args: &Args,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Layers, Value), SimError> {
    let mut layers = Layers::new(&["core.", "device.", "qos."]);
    let config = device_config(0);
    let [dftl_spec, sftl_spec] = baseline_specs();
    let mut pairs = Pairs::new();
    let mut last = None;
    while !pairs.done(spans, args.seconds) {
        spans.open("pair");
        let dftl = closed_pair(
            spans,
            tally,
            &mut layers,
            "baselines/dftl",
            &config,
            Dftl::new,
            &dftl_spec,
            args.seed,
        )?;
        let sftl = closed_pair(
            spans,
            tally,
            &mut layers,
            "baselines/sftl",
            &config,
            Sftl::new,
            &sftl_spec,
            args.seed,
        )?;
        spans.close();
        let mut phases = dftl.phases.clone();
        phases[0].add(&sftl.phases[0]);
        phases[1].add(&sftl.phases[1]);
        pairs.push(
            dftl.untraced_s + sftl.untraced_s,
            dftl.traced_s + sftl.traced_s,
            phases,
        );
        last = Some((dftl, sftl));
    }
    let (dftl, sftl) = last.expect("at least one pair ran");
    let per_page = |t: &ClosedPair| {
        (t.reads.total_ns() + t.writes.total_ns()) as f64
            / (t.reads.ns.len() + t.writes.ns.len()).max(1) as f64
    };
    layers.set("baselines.dftl.host_ns_per_page", per_page(&dftl));
    layers.set("baselines.sftl.host_ns_per_page", per_page(&sftl));
    layers.set(
        "baselines.dftl.translation_reads",
        dftl.stats.flash.translation_reads as f64,
    );
    layers.set(
        "baselines.sftl.translation_reads",
        sftl.stats.flash.translation_reads as f64,
    );
    set_sim_counters(&sum_stats(&dftl.stats, &sftl.stats), &mut layers);
    let record = json!({
        "pairs": pairs.finish(&mut layers),
        "dftl_read_classes": dftl.reads.to_json(&READ_CLASSES),
        "dftl_write_classes": dftl.writes.to_json(&WRITE_CLASSES),
        "sftl_read_classes": sftl.reads.to_json(&READ_CLASSES),
        "sftl_write_classes": sftl.writes.to_json(&WRITE_CLASSES),
    });
    let events =
        dftl.reads.ns.len() + dftl.writes.ns.len() + sftl.reads.ns.len() + sftl.writes.ns.len();
    let (mut reads, mut writes) = (dftl.reads, dftl.writes);
    reads.merge(sftl.reads);
    writes.merge(sftl.writes);
    set_call_metrics(&mut reads, &writes, tally, &mut layers);
    layers.set("trace.events", events as f64);
    Ok((layers, record))
}

fn write_gc(
    args: &Args,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Layers, Value), SimError> {
    let mut layers = Layers::new(&["ssd.read.", "ssd.write.", "baselines."]);
    let mut pairs = Pairs::new();
    let mut last = None;
    while !pairs.done(spans, args.seconds) {
        spans.open("pair");
        let mut untraced = prepare_write_gc(spans, args.seed)?;
        let (report, untraced_s) = spans.time("measured", || {
            replay_open_loop_with(
                &mut untraced.ssd,
                untraced.measured.iter().copied(),
                write_gc_device(false),
            )
        });
        let report = report?;
        let untraced_phases = untraced.phases.clone();
        drop(untraced);

        let mut traced = prepare_write_gc(spans, args.seed)?;
        let ops: Vec<HostOp> = traced.measured.iter().map(|t| t.op).collect();
        LeaFtlScheme::warm(&traced.ssd, &ops, spans, &mut layers);
        let (traced_report, traced_s) = spans.time("measured traced", || {
            replay_open_loop_with(
                &mut traced.ssd,
                traced.measured.iter().copied(),
                write_gc_device(true),
            )
        });
        let traced_report = traced_report?;
        tally.passed(traced_report.pages_read + traced_report.pages_written);
        tally.check(
            format!("{traced_report:?}") == format!("{report:?}"),
            || "lea-write-gc: traced replay differs from the untraced one".to_string(),
        );
        check_device(&traced.ssd, "lea-write-gc", tally);
        let sink = traced.ssd.take_trace();
        let (check, _) = spans.time("probe trace export", || {
            let json = sink.map(|s| s.export_chrome_json()).unwrap_or_default();
            validate_chrome_trace(&json)
        });
        LeaFtlScheme::finish(&traced.ssd, spans, &mut layers);
        spans.close();
        pairs.push(untraced_s, traced_s, [untraced_phases, traced.phases]);
        last = Some((traced_report, check));
    }
    let (report, check) = last.expect("at least one pair ran");
    let (events, trace_check) = match check {
        Ok(check) => {
            tally.check(check.all_die_tracks_active(), || {
                "lea-write-gc: a die track of the exported trace is empty".to_string()
            });
            let record = json!({
                "events": check.events,
                "die_tracks": check.die_tracks,
                "queue_events": check.queue_events,
                "control_events": check.control_events,
            });
            (check.events, record)
        }
        Err(e) => {
            tally.check(false, || {
                format!("lea-write-gc: exported trace is invalid: {e}")
            });
            (0, json!(e))
        }
    };
    let stats = &report.stats;
    set_sim_counters(stats, &mut layers);
    let wait = &report.wait_latency;
    layers.set("device.replay_host_s", best(&pairs.untraced_s));
    layers.set(
        "device.wait_p99_us",
        crate::sim_percentile_us(wait, 99.0, "device wait", tally),
    );
    layers.set("device.gc_dispatched", report.gc_dispatched as f64);
    layers.set(
        "device.compact_dispatched",
        report.compact_dispatched as f64,
    );
    layers.set("device.gc_stall_ms", report.gc_stall_ns as f64 / 1e6);
    layers.set(
        "device.translation_stall_ms",
        stats.translation_stall_ns as f64 / 1e6,
    );
    let util = &report.utilization;
    layers.set("device.die_busy.host", util.class_share(TrafficClass::Host));
    layers.set("device.die_busy.gc", util.class_share(TrafficClass::Gc));
    layers.set(
        "device.die_busy.compact",
        util.class_share(TrafficClass::Compact),
    );
    layers.set(
        "device.die_busy.maplog",
        util.class_share(TrafficClass::MapLog),
    );
    layers.set(
        "qos.admission_wait_ms",
        report.admission_wait_ns as f64 / 1e6,
    );
    layers.set("qos.ticks", report.qos_ticks.len() as f64);
    layers.set("trace.events", events as f64);
    let record = json!({
        "pairs": pairs.finish(&mut layers),
        "trace_check": trace_check,
        "wait_samples": wait.count(),
    });
    Ok((layers, record))
}

pub fn run(args: &Args) -> Result<Outcome, SimError> {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    check_held_out_seed(args.workload, args.seed, &mut tally);
    let (layers, detail) = match args.workload {
        Workload::LeaRead => lea_read(args, &mut spans, &mut tally)?,
        Workload::Baselines => baselines(args, &mut spans, &mut tally)?,
        Workload::LeaWriteGc => write_gc(args, &mut spans, &mut tally)?,
    };
    let record = vec![
        ("bypassed_layers".to_string(), json!(layers.bypassed)),
        ("traced".to_string(), detail),
        ("spans".to_string(), spans.to_json()),
    ];
    Ok(Outcome {
        tally,
        metrics: layers.into_metrics(),
        record,
    })
}
