//! Benchmark of the LeaFTL simulator: host throughput and set-up time of
//! three workloads, plus the simulated device metrics they produce, with
//! a separate traced run for per-layer numbers.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload lea-read --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the full run record (every repetition's host values,
//! sample counts, check notes and spans). Exit code 1 means an output
//! check failed, 2 a usage error. See README.md for the metric map.

mod setup;
mod spans;
mod traced;

use leaftl_baselines::{Dftl, Sftl};
use leaftl_sim::{
    replay_open_loop_with, LatencyHistogram, MappingScheme, SimError, Ssd, SsdConfig,
};
use serde_json::{json, Value};
use setup::{
    baseline_specs, check_device, device_config, dftl_map_bytes, lea_map_bytes, lea_read_spec,
    lea_scheme, open_pages, prepare_closed, prepare_write_gc, replay_sliced, sftl_map_bytes,
    verify_closed, verify_open, write_gc_device, write_gc_trace, ClosedSpec, Phases, Sim, Tally,
    Workload, HELD_OUT_SALT, SLICE_OPS,
};
use spans::Spans;
use std::process::ExitCode;

/// Repetitions every run makes, however short `--seconds` is: at least
/// two are needed to check that one seed repeats exactly.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <lea-read|lea-write-gc|baselines> --seed <u64> --seconds <u64> --trace <0|1>";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1) as f64,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run hands back for printing.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub record: Vec<(String, Value)>,
}

/// One timed repetition: set-up phases, the host seconds of every
/// measured slice, and the simulated outcome.
struct Rep {
    phases: Phases,
    measured: Vec<f64>,
    sim: Sim,
    detail: Value,
}

impl Rep {
    fn measured_s(&self) -> f64 {
        self.measured.iter().sum()
    }

    fn pages_per_s(&self) -> f64 {
        self.sim.pages as f64 / self.measured_s()
    }
}

/// Sum over slice positions of the best (smallest) host time any
/// repetition took for that slice. Every repetition cuts its phases into
/// the same slices, so this is the phase's time with each slice measured
/// in the fastest machine state the run saw.
fn best_sum<'a>(slices: impl Iterator<Item = &'a [f64]>) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for times in slices {
        if best.is_empty() {
            best = times.to_vec();
        }
        assert_eq!(best.len(), times.len(), "repetitions cut different slices");
        for (b, &t) in best.iter_mut().zip(times) {
            *b = b.min(t);
        }
    }
    best.iter().sum()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Percentile `pct` of a simulated latency histogram, in µs, read off
/// the piecewise-linear CDF through `(min, 0)` and each non-empty
/// bucket's `(upper bound, cumulative fraction)`, clamped to the largest
/// sample. `LatencyHistogram::percentile_ns` returns the bucket's upper
/// bound instead, which steps by up to 2× when a seed moves the rank
/// across a bucket edge. A p99 needs 1000 samples (ten beyond it); a
/// thinner one fails the run.
pub fn sim_percentile_us(h: &LatencyHistogram, pct: f64, label: &str, tally: &mut Tally) -> f64 {
    let needed = (10.0 / (1.0 - pct / 100.0)).round() as u64;
    tally.check(h.count() >= needed, || {
        format!(
            "{label}: p{pct} over {} samples (needs {needed})",
            h.count()
        )
    });
    let max_us = h.max_ns() as f64 / 1000.0;
    let target = pct / 100.0;
    let (mut lo_us, mut lo_frac) = (h.min_ns() as f64 / 1000.0, 0.0);
    for (upper_us, frac) in h.cdf_points() {
        let upper_us = upper_us.min(max_us).max(lo_us);
        if frac >= target {
            return lo_us + (upper_us - lo_us) * (target - lo_frac) / (frac - lo_frac);
        }
        (lo_us, lo_frac) = (upper_us, frac);
    }
    max_us
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One closed-loop repetition on one scheme: set-up, measured replay,
/// device checks and (when `verify`) the full read-back.
#[allow(clippy::too_many_arguments)]
fn closed_rep<S: MappingScheme + Clone>(
    spans: &mut Spans,
    tally: &mut Tally,
    label: &str,
    config: SsdConfig,
    scheme: S,
    spec: &ClosedSpec,
    seed: u64,
    verify: bool,
    map_bytes: fn(&Ssd<S>) -> usize,
) -> Result<(Phases, Vec<f64>, Sim), SimError> {
    let mut p = prepare_closed(spans, config, scheme, spec, seed)?;
    let mut measured = Vec::new();
    let (report, _) = spans.time("measured", || {
        replay_sliced(&mut p.ssd, &p.measured, SLICE_OPS, &mut measured)
    });
    let report = report?;
    tally.passed(report.pages_read + report.pages_written);
    check_device(&p.ssd, label, tally);
    let sim = Sim::closed(&report, map_bytes(&p.ssd));
    if verify {
        spans
            .time("verify", || verify_closed(&mut p, label, tally))
            .0?;
    }
    Ok((p.phases, measured, sim))
}

fn timed_rep(
    workload: Workload,
    seed: u64,
    spans: &mut Spans,
    tally: &mut Tally,
    verify: bool,
) -> Result<Rep, SimError> {
    match workload {
        Workload::LeaRead => {
            let config = device_config(4);
            let scheme = lea_scheme(&config);
            let spec = lea_read_spec();
            let (phases, measured, sim) = closed_rep(
                spans,
                tally,
                "lea-read",
                config,
                scheme,
                &spec,
                seed,
                verify,
                lea_map_bytes,
            )?;
            Ok(Rep {
                phases,
                measured,
                sim,
                detail: Value::Null,
            })
        }
        Workload::Baselines => {
            let [dftl_spec, sftl_spec] = baseline_specs();
            let config = device_config(0);
            let (mut phases, mut measured, dftl) = closed_rep(
                spans,
                tally,
                "baselines/dftl",
                config.clone(),
                Dftl::new(),
                &dftl_spec,
                seed,
                verify,
                dftl_map_bytes,
            )?;
            let dftl_s: f64 = measured.iter().sum();
            let (sftl_phases, sftl_measured, sftl) = closed_rep(
                spans,
                tally,
                "baselines/sftl",
                config,
                Sftl::new(),
                &sftl_spec,
                seed,
                verify,
                sftl_map_bytes,
            )?;
            phases.add(&sftl_phases);
            let detail = json!({
                "dftl_measured_s": dftl_s,
                "dftl_pages": dftl.pages,
                "sftl_measured_s": sftl_measured.iter().sum::<f64>(),
                "sftl_pages": sftl.pages,
            });
            measured.extend(sftl_measured);
            Ok(Rep {
                phases,
                measured,
                sim: dftl.merge(sftl),
                detail,
            })
        }
        Workload::LeaWriteGc => {
            let mut p = prepare_write_gc(spans, seed)?;
            let submitted = open_pages(&p.measured);
            let last_arrival_ns = p.measured.last().map_or(0, |t| t.at_ns);
            let (report, measured_s) = spans.time("measured", || {
                replay_open_loop_with(
                    &mut p.ssd,
                    p.measured.iter().copied(),
                    write_gc_device(false),
                )
            });
            let report = report?;
            let completed = report.pages_read + report.pages_written;
            let per_stream: u64 = report.per_stream.iter().map(|s| s.latency.count()).sum();
            tally.passed(completed);
            tally.check(completed == submitted && per_stream == submitted, || {
                format!("lea-write-gc: {completed} pages completed ({per_stream} by stream) of {submitted} submitted")
            });
            check_device(&p.ssd, "lea-write-gc", tally);
            let sim = Sim::open(&report, lea_map_bytes(&p.ssd));
            if verify {
                spans.time("verify", || verify_open(&mut p, tally)).0?;
            }
            let stats = &report.stats;
            let ticks = &report.qos_ticks;
            let detail = json!({
                "last_arrival_ms": last_arrival_ns as f64 / 1e6,
                "sim_elapsed_ms": report.elapsed_ns as f64 / 1e6,
                "gc_dispatched": report.gc_dispatched,
                "compact_dispatched": report.compact_dispatched,
                "gc_runs": stats.gc_runs,
                "qos_ticks": ticks.len(),
                "settled_free_fraction": {
                    "first": ticks.first().map(|t| t.settled_free_fraction),
                    "last": ticks.last().map(|t| t.settled_free_fraction),
                    "min": ticks.iter().map(|t| t.settled_free_fraction).reduce(f64::min),
                },
                "host_writes": stats.host_writes,
                "data_programs": stats.flash.data_programs,
                "gc_programs": stats.flash.gc_programs,
                "translation_programs": stats.flash.translation_programs,
            });
            Ok(Rep {
                phases: p.phases,
                measured: vec![measured_s],
                sim,
                detail,
            })
        }
    }
}

/// Checks that the held-out seed yields a different measured trace, so
/// constant outputs cannot pass the seed self-test.
pub fn check_held_out_seed(workload: Workload, seed: u64, tally: &mut Tally) {
    let held_out = seed ^ HELD_OUT_SALT;
    let logical = device_config(0).logical_pages();
    let differs = match workload {
        Workload::LeaRead => {
            let p = lea_read_spec().profile;
            p.generate(logical, 1_000, seed) != p.generate(logical, 1_000, held_out)
        }
        Workload::Baselines => {
            let p = &baseline_specs()[0].profile;
            p.generate(logical, 1_000, seed) != p.generate(logical, 1_000, held_out)
        }
        Workload::LeaWriteGc => write_gc_trace(logical, seed) != write_gc_trace(logical, held_out),
    };
    tally.check(differs, || {
        format!("held-out seed {held_out} produced the same trace as seed {seed}")
    });
}

fn run_timed(args: &Args) -> Result<Outcome, SimError> {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    check_held_out_seed(args.workload, args.seed, &mut tally);
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || spans.elapsed_s() < args.seconds {
        spans.open("repetition");
        let rep = timed_rep(
            args.workload,
            args.seed,
            &mut spans,
            &mut tally,
            reps.is_empty(),
        )?;
        spans.close();
        reps.push(rep);
    }
    let first = &reps[0].sim;
    for (i, rep) in reps.iter().enumerate().skip(1) {
        tally.check(rep.sim.fingerprint == first.fingerprint, || {
            format!("repetition {i} simulated a different outcome than repetition 0")
        });
    }

    let rates: Vec<f64> = reps.iter().map(Rep::pages_per_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.phases.setup_s()).collect();
    let best_rate = first.pages as f64 / best_sum(reps.iter().map(|r| &r.measured[..]));
    let best_setup = best_sum(reps.iter().map(|r| &r.phases.slices[..]));
    let read_p50 = sim_percentile_us(&first.read, 50.0, "sim read", &mut tally);
    let read_p99 = sim_percentile_us(&first.read, 99.0, "sim read", &mut tally);
    let write_p99 = sim_percentile_us(&first.write, 99.0, "sim write", &mut tally);
    let slo_p99 = sim_percentile_us(&first.slo, 99.0, "slo client", &mut tally);
    let ok_frac = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    let metrics = vec![
        ("host_pages_per_s", best_rate, "pages/s_host"),
        ("setup_s", best_setup, "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("sim_read_p50_us", read_p50, "us_sim"),
        ("sim_read_p99_us", read_p99, "us_sim"),
        ("sim_write_p99_us", write_p99, "us_sim"),
        ("sim_iops", first.iops(), "pages/s_sim"),
        ("waf", first.waf(), "ratio"),
        ("map_bytes", first.map_bytes as f64, "bytes"),
        ("slo_p99_us", slo_p99, "us_sim"),
        ("ok_frac", ok_frac, "fraction"),
    ];
    let rep_records: Vec<Value> = reps
        .iter()
        .map(|r| {
            json!({
                "setup_s": r.phases.setup_s(),
                "gen_s": r.phases.gen_s,
                "build_s": r.phases.build_s,
                "prefill_s": r.phases.prefill_s,
                "warm_s": r.phases.warm_s,
                "flush_s": r.phases.flush_s,
                "measured_s": r.measured_s(),
                "pages": r.sim.pages,
                "host_pages_per_s": r.pages_per_s(),
                "detail": r.detail.clone(),
            })
        })
        .collect();
    let record = vec![
        ("repetitions".to_string(), Value::Array(rep_records)),
        ("setup_s_median".to_string(), json!(median(&setups))),
        (
            "setup_s_best_repetition".to_string(),
            json!(setups.iter().copied().fold(f64::MAX, f64::min)),
        ),
        ("host_pages_per_s_median".to_string(), json!(median(&rates))),
        (
            "host_pages_per_s_best_repetition".to_string(),
            json!(rates.iter().copied().fold(f64::MIN, f64::max)),
        ),
        (
            "samples".to_string(),
            json!({
                "sim_read": first.read.count(),
                "sim_write": first.write.count(),
                "slo_client": first.slo.count(),
            }),
        ),
        (
            "sim_cdf_us".to_string(),
            json!({
                "sim_read": first.read.cdf_points(),
                "sim_write": first.write.cdf_points(),
                "slo_client": first.slo.cdf_points(),
            }),
        ),
        ("spans".to_string(), spans.to_json()),
    ];
    Ok(Outcome {
        tally,
        metrics,
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced::run(&args)
    } else {
        run_timed(&args)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: simulator error: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let tally = &outcome.tally;
    for note in &tally.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let mut record = vec![
        ("workload".to_string(), json!(args.workload.name())),
        ("seed".to_string(), json!(args.seed)),
        ("seconds".to_string(), json!(args.seconds)),
        ("trace".to_string(), json!(args.trace)),
        ("check_failures".to_string(), json!(tally.notes)),
    ];
    record.extend(outcome.record);
    let metrics = Value::Object(
        outcome
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect(),
    );
    let record = Value::Object(vec![("record".to_string(), Value::Object(record))]);
    println!("{}", serde_json::to_string(&record).expect("render record"));
    let result = json!({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).expect("render result"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
