//! Command-line entry point:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! Exits non-zero on a set-up failure or a wrong result.

use std::process::ExitCode;

use perfbench::util::Metric;
use perfbench::{RunOpts, END_TO_END, PER_LAYER, REPORTED_ONLY, WORKLOADS};

fn parse() -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut o = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => o.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => o.trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !(o.seconds > 0.0 && o.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, o))
}

/// Orders `got` by `want`, filling per-layer gaps with 0 and rejecting
/// missing end-to-end metrics, unit mismatches and non-finite values.
fn select(
    got: &[Metric],
    want: &[(&str, &'static str)],
    fill: bool,
) -> Result<Vec<Metric>, String> {
    want.iter()
        .map(|&(name, unit)| {
            let m = match got.iter().find(|m| m.name == name) {
                Some(m) if m.unit != unit => {
                    return Err(format!("metric {name} reported in {} not {unit}", m.unit))
                }
                Some(m) => m.clone(),
                None if fill => Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    samples: 0,
                },
                None => return Err(format!("metric {name} was not measured")),
            };
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", m.value));
            }
            Ok(m)
        })
        .collect()
}

fn main() -> ExitCode {
    let (workload, o) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&workload, &o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload);
            return ExitCode::FAILURE;
        }
    };
    let (want, fill): (&[(&str, &'static str)], bool) = if o.trace {
        (&PER_LAYER, true)
    } else {
        (&END_TO_END, false)
    };
    let source = if o.trace { &report.layer } else { &report.e2e };
    let metrics = match select(source, want, fill) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (all timings measured, wall clock)",
        workload, o.seed, o.seconds, o.trace as u8
    );
    for l in &report.lines {
        println!("{l}");
    }
    let extra: Vec<&Metric> = if o.trace {
        Vec::new()
    } else {
        REPORTED_ONLY
            .iter()
            .filter_map(|(name, _)| report.e2e.iter().find(|m| m.name == *name))
            .collect()
    };
    for m in metrics.iter().chain(extra) {
        let note = if m.samples == 0 {
            "  (not on this path)"
        } else {
            ""
        };
        println!(
            "  {:<30} {:>16.4} {:<6} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let failed_frac = if report.attempted == 0 {
        0.0
    } else {
        report.failed as f64 / report.attempted as f64
    };
    println!(
        "  {:<30} {:>16.6} {:<6} n={}",
        "failed_frac", failed_frac, "ratio", report.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let ok = report.correct && report.attempted > 0;
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
