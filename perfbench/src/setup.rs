//! The three workloads, the shared set-up protocol, and the output
//! checks every run applies.
//!
//! Set-up follows the warm-up protocol of the experiment harness:
//! build → sequential prefill → warm-up replay → flush → reset the
//! statistics, so measured statistics start after the modelled caches
//! fill. Every repetition rebuilds its device from scratch instead of
//! cloning a warmed one.

use crate::spans::Spans;
use leaftl_baselines::{sftl_full_table_bytes, Dftl, Sftl};
use leaftl_core::LeaFtlConfig;
use leaftl_flash::Lpa;
use leaftl_sim::{
    replay, DeviceConfig, DramPolicy, HostOp, LatencyHistogram, LeaFtlScheme, MappingScheme,
    QosControllerConfig, QosSpec, QueuedReplayReport, ReplayReport, SimError, SimStats, Slo, Ssd,
    SsdConfig, TimedOp, Weighted,
};
use leaftl_workloads::{
    gc_heavy_writer, msr_hm, msr_src2, multi_tenant_trace, tpcc, warmup_ops, zipf_tenant,
    ProfileParams, TenantSpec,
};
use std::collections::HashMap;
use std::time::Instant;

/// Device capacity and controller DRAM of every workload.
const CAPACITY: u64 = 512 << 20;
const DRAM_BYTES: usize = 32 << 10;
/// Sequentially prefilled share of the logical space on the closed loops.
const CLOSED_PREFILL: f64 = 0.75;
/// First write content of every replay call: `replay` and the open-loop
/// replays stamp page `n` of a call with `WRITE_SEQ_BASE + n`.
const WRITE_SEQ_BASE: u64 = 0x5eed_0000_0000_0000;
/// Seed of every warm-up trace. It is fixed, so each workload measures
/// `--seed`'s trace on an identically pre-aged device; a warm-up drawn
/// from `--seed` leaves a different block-validity landscape per seed,
/// which moved GC work in the measured window by ±20 %.
const WARM_SEED: u64 = 0x7761_726d;
/// Salt of the held-out seed the self-test compares against.
pub const HELD_OUT_SALT: u64 = 0x6865_6c64;

/// Submission queues and total queue depth of the open-loop device.
const QUEUES: usize = 3;
const QUEUE_DEPTH: usize = 32;
/// The guaranteed tenant's p99 arrival→complete budget.
const SLO_BUDGET_US: f64 = 5_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LeaRead,
    LeaWriteGc,
    Baselines,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lea-read" => Some(Workload::LeaRead),
            "lea-write-gc" => Some(Workload::LeaWriteGc),
            "baselines" => Some(Workload::Baselines),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LeaRead => "lea-read",
            Workload::LeaWriteGc => "lea-write-gc",
            Workload::Baselines => "baselines",
        }
    }
}

/// A closed-loop workload: one profile replayed blocking at QD 1.
pub struct ClosedSpec {
    pub profile: ProfileParams,
    pub warm_ops: usize,
    pub ops: usize,
}

/// `lea-read`: TPCC on LeaFTL γ=4 with 32 KiB of DRAM — reads dominate,
/// a share of them mispredict or demand-page translation groups.
pub fn lea_read_spec() -> ClosedSpec {
    ClosedSpec {
        profile: tpcc(),
        warm_ops: 5_000,
        ops: 50_000,
    }
}

/// `baselines`: MSR-hm on DFTL and SFTL. Op counts are weighted so each
/// scheme takes a comparable share of the measured host time (SFTL costs
/// 10–20× DFTL per page). SFTL's warm-up fragments its condensed map past
/// the DRAM budget, so its translation pages demand-page.
pub fn baseline_specs() -> [ClosedSpec; 2] {
    [
        ClosedSpec {
            profile: msr_hm(),
            warm_ops: 5_000,
            ops: 80_000,
        },
        ClosedSpec {
            profile: msr_hm(),
            warm_ops: 4_000,
            ops: 14_000,
        },
    ]
}

/// The 512 MiB device all workloads share: 32 KiB of DRAM, 128-page
/// write buffer, 32-page stripes, 2000-write compaction interval.
pub fn device_config(gamma: u32) -> SsdConfig {
    let mut config = SsdConfig::scaled(CAPACITY);
    config.dram_bytes = DRAM_BYTES;
    config.write_buffer_pages = 128;
    config.stripe_pages = 32;
    config.dram_policy = DramPolicy::DataFloor(0.2);
    config.compaction_interval_writes = 2_000;
    config.gamma = gamma;
    config
}

pub fn lea_scheme(config: &SsdConfig) -> LeaFtlScheme {
    LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(config.gamma)
            .with_compaction_interval(config.compaction_interval_writes),
    )
}

/// Ops per timed slice of a closed-loop replay phase, and prefill ops
/// (512-page writes) per timed slice of the prefill.
pub const SLICE_OPS: usize = 1_000;
const PREFILL_SLICE_OPS: usize = 16;

/// Host seconds of one repetition's set-up: per phase, and per timed
/// slice in a fixed order (the same in every repetition).
#[derive(Debug, Clone, Default)]
pub struct Phases {
    pub gen_s: f64,
    pub build_s: f64,
    pub prefill_s: f64,
    pub warm_s: f64,
    pub flush_s: f64,
    pub prefill_pages: u64,
    pub slices: Vec<f64>,
}

impl Phases {
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.build_s + self.prefill_s + self.warm_s + self.flush_s
    }

    pub fn add(&mut self, other: &Phases) {
        self.gen_s += other.gen_s;
        self.build_s += other.build_s;
        self.prefill_s += other.prefill_s;
        self.warm_s += other.warm_s;
        self.flush_s += other.flush_s;
        self.prefill_pages += other.prefill_pages;
        self.slices.extend_from_slice(&other.slices);
    }
}

/// A warmed device plus the traces that produced it and the measured
/// trace still to run.
pub struct Prepared<S: MappingScheme + Clone, M> {
    pub ssd: Ssd<S>,
    pub prefill: Vec<HostOp>,
    pub warm: Vec<HostOp>,
    pub measured: Vec<M>,
    pub phases: Phases,
}

fn pages(ops: &[HostOp]) -> u64 {
    ops.iter().map(|op| op.page_count() as u64).sum()
}

/// Replays `ops` as back-to-back `replay` calls of `slice` ops each and
/// returns their combined report, pushing each call's host seconds to
/// `times`. `replay` restarts its write-content counter per call, so
/// slicing changes page contents but not the device's behaviour; it lets
/// the benchmark take each slice's best time across repetitions.
pub fn replay_sliced<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    ops: &[HostOp],
    slice: usize,
    times: &mut Vec<f64>,
) -> Result<ReplayReport, SimError> {
    let mut total = ReplayReport {
        ops: 0,
        pages_read: 0,
        pages_written: 0,
        elapsed_ns: 0,
        stats: SimStats::new(),
    };
    for chunk in ops.chunks(slice) {
        let start = Instant::now();
        let report = replay(ssd, chunk.iter().copied())?;
        times.push(start.elapsed().as_secs_f64());
        total.ops += report.ops;
        total.pages_read += report.pages_read;
        total.pages_written += report.pages_written;
        total.elapsed_ns += report.elapsed_ns;
        total.stats = report.stats;
    }
    Ok(total)
}

/// Builds, prefills, warms, flushes and resets one device. `generate`
/// yields the warm-up and measured traces for the device's logical size.
fn prepare<S, M>(
    spans: &mut Spans,
    config: SsdConfig,
    scheme: S,
    prefill_fraction: f64,
    generate: impl FnOnce(u64) -> (Vec<HostOp>, Vec<M>),
) -> Result<Prepared<S, M>, SimError>
where
    S: MappingScheme + Clone,
{
    let logical = config.logical_pages();
    let mut slices = Vec::new();
    let ((prefill, (warm, measured)), gen_s) = spans.time("generate", || {
        (warmup_ops(logical, prefill_fraction), generate(logical))
    });
    slices.push(gen_s);
    let (mut ssd, build_s) = spans.time("build", || Ssd::new(config, scheme));
    slices.push(build_s);
    let (done, prefill_s) = spans.time("prefill", || {
        replay_sliced(&mut ssd, &prefill, PREFILL_SLICE_OPS, &mut slices)
    });
    done?;
    let (done, warm_s) = spans.time("warm-up", || {
        replay_sliced(&mut ssd, &warm, SLICE_OPS, &mut slices)
    });
    done?;
    let (done, flush_s) = spans.time("flush", || ssd.flush());
    done?;
    slices.push(flush_s);
    ssd.reset_stats();
    let phases = Phases {
        gen_s,
        build_s,
        prefill_s,
        warm_s,
        flush_s,
        prefill_pages: pages(&prefill),
        slices,
    };
    Ok(Prepared {
        ssd,
        prefill,
        warm,
        measured,
        phases,
    })
}

pub fn prepare_closed<S: MappingScheme + Clone>(
    spans: &mut Spans,
    config: SsdConfig,
    scheme: S,
    spec: &ClosedSpec,
    seed: u64,
) -> Result<Prepared<S, HostOp>, SimError> {
    prepare(spans, config, scheme, CLOSED_PREFILL, |logical| {
        (
            spec.profile.generate(logical, spec.warm_ops, WARM_SEED),
            spec.profile.generate(logical, spec.ops, seed),
        )
    })
}

/// The open-loop tenants of `lea-write-gc`: a guaranteed Zipf tenant
/// beside two best-effort writers. Rates keep the backlog flat.
fn write_gc_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(zipf_tenant(), 0, 1_000_000, 8_000)
            .with_slo(Slo::guaranteed(SLO_BUDGET_US)),
        TenantSpec::new(gc_heavy_writer(), 1, 1_600_000, 5_000),
        TenantSpec::new(msr_src2(), 2, 20_000_000, 400),
    ]
}

pub fn write_gc_trace(logical: u64, seed: u64) -> Vec<TimedOp> {
    multi_tenant_trace(&write_gc_tenants(), logical, seed)
}

/// `lea-write-gc` set-up: LeaFTL γ=0 at 0.9 prefill, warmed by the
/// GC-heavy writer until collection runs.
pub fn prepare_write_gc(
    spans: &mut Spans,
    seed: u64,
) -> Result<Prepared<LeaFtlScheme, TimedOp>, SimError> {
    let mut config = device_config(0);
    // A narrow collection hysteresis: GC runs in many short rounds, so
    // the measured window spans many of them whatever phase of the
    // collection cycle the warm-up ends in.
    config.gc_high_watermark = config.gc_low_watermark + 0.005;
    let scheme = lea_scheme(&config);
    prepare(spans, config, scheme, 0.9, |logical| {
        (
            gc_heavy_writer().generate(logical, 60_000, WARM_SEED),
            write_gc_trace(logical, seed),
        )
    })
}

/// The open-loop device: three queues at QD 32, background GC and
/// compaction, weighted arbitration retuned by a QoS controller.
pub fn write_gc_device(trace: bool) -> DeviceConfig {
    let tenants = write_gc_tenants();
    let slos: Vec<Slo> = tenants.iter().map(|t| t.slo).collect();
    let config = DeviceConfig::new(QUEUES, QUEUE_DEPTH)
        .background_gc()
        .background_compaction()
        .with_arbiter(Box::new(Weighted::new(vec![1; QUEUES], 1)))
        .with_qos(QosSpec::new(slos).with_controller(QosControllerConfig::default()));
    if trace {
        config.with_trace()
    } else {
        config
    }
}

/// Fully compacted learned-table footprint (the Fig. 15/19 metric).
pub fn lea_map_bytes(ssd: &Ssd<LeaFtlScheme>) -> usize {
    let mut table = ssd.scheme().table().clone();
    table.compact();
    table.memory_bytes().total()
}

pub fn dftl_map_bytes(ssd: &Ssd<Dftl>) -> usize {
    ssd.scheme().full_table_bytes()
}

pub fn sftl_map_bytes(ssd: &Ssd<Sftl>) -> usize {
    sftl_full_table_bytes(ssd.scheme())
}

/// Visits every page of one replay call in order, applying `replay`'s
/// address clamp and write-content sequence: `f(lpa, Some(content))` for
/// a written page, `f(lpa, None)` for a read one. Stops at the first
/// error `f` returns.
pub fn for_each_page<E>(
    ops: &[HostOp],
    logical: u64,
    mut f: impl FnMut(Lpa, Option<u64>) -> Result<(), E>,
) -> Result<(), E> {
    let mut seq = WRITE_SEQ_BASE;
    for op in ops {
        match *op {
            HostOp::Read { lpa, pages } => {
                for i in 0..pages as u64 {
                    f(Lpa::new((lpa.raw() + i) % logical), None)?;
                }
            }
            HostOp::Write { lpa, pages } => {
                for i in 0..pages as u64 {
                    seq = seq.wrapping_add(1);
                    f(Lpa::new((lpa.raw() + i) % logical), Some(seq))?;
                }
            }
        }
    }
    Ok(())
}

/// Operations attempted and failed, with a note per failure kind.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note());
        }
    }

    pub fn failed_many(&mut self, attempted: u64, failed: u64, note: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.notes.push(note());
        }
    }
}

/// Shadow contents of a device whose every replay call ran closed-loop.
/// Shadow contents of a closed-loop device after its prefill, warm-up
/// and (when given) measured traces, each replayed in its slices.
fn closed_shadow(
    logical: u64,
    prefill: &[HostOp],
    warm: &[HostOp],
    measured: &[HostOp],
) -> Vec<Option<u64>> {
    let mut shadow = vec![None; logical as usize];
    let calls = prefill
        .chunks(PREFILL_SLICE_OPS)
        .chain(warm.chunks(SLICE_OPS))
        .chain(measured.chunks(SLICE_OPS));
    for ops in calls {
        let applied: Result<(), ()> = for_each_page(ops, logical, |lpa, write| {
            if let Some(content) = write {
                shadow[lpa.raw() as usize] = Some(content);
            }
            Ok(())
        });
        applied.expect("the shadow model cannot fail");
    }
    shadow
}

/// Reads back every logical page and counts the pages `ok` rejects.
fn read_back<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    mut ok: impl FnMut(u64, Option<u64>) -> bool,
) -> Result<(u64, u64), SimError> {
    let logical = ssd.config().logical_pages();
    let mut failed = 0;
    for lpa in 0..logical {
        let got = ssd.read(Lpa::new(lpa))?;
        if !ok(lpa, got) {
            failed += 1;
        }
    }
    Ok((logical, failed))
}

/// Device-level checks after a measured phase: per-die utilization
/// conservation.
pub fn check_device<S: MappingScheme + Clone>(ssd: &Ssd<S>, label: &str, tally: &mut Tally) {
    let conserved = ssd.check_utilization_conservation();
    tally.check(conserved.is_ok(), || {
        format!("{label}: utilization conservation: {conserved:?}")
    });
}

/// Reads back every page of a closed-loop device against the shadow
/// built from its prefill, warm-up and measured traces.
pub fn verify_closed<S: MappingScheme + Clone>(
    p: &mut Prepared<S, HostOp>,
    label: &str,
    tally: &mut Tally,
) -> Result<(), SimError> {
    let logical = p.ssd.config().logical_pages();
    let shadow = closed_shadow(logical, &p.prefill, &p.warm, &p.measured);
    let (attempted, failed) = read_back(&mut p.ssd, |lpa, got| got == shadow[lpa as usize])?;
    tally.failed_many(attempted, failed, || {
        format!("{label}: {failed} of {attempted} pages read back wrong")
    });
    Ok(())
}

/// Reads back every page of the open-loop device. Per queue, writes
/// dispatch in order, but the arbiter interleaves queues, so a page two
/// tenants wrote may hold either tenant's last write to it.
pub fn verify_open(
    p: &mut Prepared<LeaFtlScheme, TimedOp>,
    tally: &mut Tally,
) -> Result<(), SimError> {
    let logical = p.ssd.config().logical_pages();
    let before = closed_shadow(logical, &p.prefill, &p.warm, &[]);
    // Page → each stream's last write to it.
    let mut last: HashMap<u64, Vec<(u32, u64)>> = HashMap::new();
    let mut seq = WRITE_SEQ_BASE;
    for timed in &p.measured {
        if let HostOp::Write { lpa, pages } = timed.op {
            for i in 0..pages as u64 {
                seq = seq.wrapping_add(1);
                let writers = last.entry((lpa.raw() + i) % logical).or_default();
                match writers.iter_mut().find(|(s, _)| *s == timed.stream) {
                    Some(writer) => writer.1 = seq,
                    None => writers.push((timed.stream, seq)),
                }
            }
        }
    }
    let (attempted, failed) = read_back(&mut p.ssd, |lpa, got| match last.get(&lpa) {
        Some(writers) => writers.iter().any(|&(_, v)| got == Some(v)),
        None => got == before[lpa as usize],
    })?;
    tally.failed_many(attempted, failed, || {
        format!("lea-write-gc: {failed} of {attempted} pages read back wrong")
    });
    Ok(())
}

/// Simulated outcome of one measured phase. Every field comes from the
/// deterministic model, so repetitions of one seed agree exactly.
#[derive(Debug, Clone)]
pub struct Sim {
    pub read: LatencyHistogram,
    pub write: LatencyHistogram,
    /// The latency-critical client: the guaranteed tenant's
    /// arrival→complete latency in the open loop, every page request of
    /// the single client (reads and writes) in a closed loop.
    pub slo: LatencyHistogram,
    pub pages: u64,
    pub elapsed_ns: u64,
    pub host_writes: u64,
    pub programs: u64,
    pub map_bytes: usize,
    /// Exact rendering of everything the model produced.
    pub fingerprint: String,
}

impl Sim {
    pub fn closed(report: &ReplayReport, map_bytes: usize) -> Sim {
        let stats = &report.stats;
        let mut slo = stats.read_latency.clone();
        slo.merge(&stats.write_latency);
        Sim {
            read: stats.read_latency.clone(),
            write: stats.write_latency.clone(),
            slo,
            pages: report.pages_read + report.pages_written,
            elapsed_ns: report.elapsed_ns,
            host_writes: stats.host_writes,
            programs: stats.flash.total_programs(),
            map_bytes,
            fingerprint: format!("{report:?}"),
        }
    }

    pub fn open(report: &QueuedReplayReport, map_bytes: usize) -> Sim {
        let stats = &report.stats;
        let slo = report
            .per_stream
            .iter()
            .find(|s| s.stream == 0)
            .map(|s| s.latency.clone())
            .unwrap_or_default();
        Sim {
            read: stats.read_latency.clone(),
            write: stats.write_latency.clone(),
            slo,
            pages: report.pages_read + report.pages_written,
            elapsed_ns: report.elapsed_ns,
            host_writes: stats.host_writes,
            programs: stats.flash.total_programs(),
            map_bytes,
            fingerprint: format!("{report:?}"),
        }
    }

    /// Sums two measured phases run one after the other on two devices.
    pub fn merge(mut self, other: Sim) -> Sim {
        self.read.merge(&other.read);
        self.write.merge(&other.write);
        self.slo.merge(&other.slo);
        self.pages += other.pages;
        self.elapsed_ns += other.elapsed_ns;
        self.host_writes += other.host_writes;
        self.programs += other.programs;
        self.map_bytes += other.map_bytes;
        self.fingerprint.push_str(&other.fingerprint);
        self
    }

    pub fn waf(&self) -> f64 {
        self.programs as f64 / self.host_writes.max(1) as f64
    }

    pub fn iops(&self) -> f64 {
        self.pages as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// Page requests the open-loop trace submits.
pub fn open_pages(trace: &[TimedOp]) -> u64 {
    trace.iter().map(|t| t.op.page_count() as u64).sum()
}
