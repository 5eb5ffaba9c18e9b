//! `perfbench --workload <advise-mix|search-exact|figure-sweep|all>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or, with `all`, every workload untraced and then
//! traced), checks every output, prints a report, and ends its standard
//! output with one JSON result line. Exits non-zero when a check fails.

use std::process::ExitCode;

use perfbench::{build_padtool, report, result_line, run_workload, Workload};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traces: Vec<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (workloads, traces) = if workload == "all" {
        (Workload::ALL.to_vec(), trace.map_or(vec![false, true], |t| vec![t]))
    } else {
        let w = Workload::from_name(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
        (vec![w], vec![trace.unwrap_or(false)])
    };
    Ok(Args { workloads, seed, seconds, traces })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let serve = args.workloads.iter().any(|w| *w != Workload::FigureSweep);
    let padtool = if serve {
        match build_padtool() {
            Ok(path) => path,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        std::path::PathBuf::new()
    };

    let prefix = args.workloads.len() > 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        for &traced in &args.traces {
            let outcome = match run_workload(w, args.seed, args.seconds, traced, &padtool) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            for line in report(w, &outcome, traced) {
                println!("{line}");
            }
            correct &= outcome.correct();
            attempted += outcome.attempted;
            failed += outcome.failed;
            outcomes.push((w, traced, outcome));
        }
    }

    let mut metrics = Vec::new();
    if correct {
        for (w, traced, o) in &outcomes {
            for m in if *traced { &o.layers } else { &o.e2e } {
                let name = if prefix { format!("{}.{}", w.name(), m.name) } else { m.name.to_string() };
                metrics.push((name, m));
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
