//! fgbench — one benchmark for the live control path, the attack path and
//! the simulator, with per-layer attribution. See `benchmark/README.md`.
//!
//! ```text
//! fgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fgbench run    [--seed <n>] [--seconds <s>] [--smoke]   every workload, tracing off
//! fgbench trace  [--seed <n>] [--seconds <s>] [--smoke]   every workload, traced
//! fgbench repeat [<k>] [--seed <n>] [--seconds <s>]       spread of k runs on two seeds
//! fgbench manifest                                        print BENCHMARK.json
//! ```
//!
//! The first form is one run of one workload. Its last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The other forms start that first form as child processes, one workload
//! at a time, so every workload gets a fresh process (its own peak memory,
//! a cold Algorithm 1 memo) exactly as the driver runs it.

mod gen;
mod json;
mod metrics;
mod procstat;
mod stats;
mod sut;
mod trace;
mod wireio;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use workloads::{Outcome, RunArgs, Workload};

/// Seconds per workload under `--smoke`: with set-ups, drains and one
/// whole reproduction pass, four workloads fit in 15 s.
const SMOKE_SECONDS: f64 = 2.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         fgbench run|trace [--seed <n>] [--seconds <s>] [--smoke]\n       \
         fgbench repeat [<k>] [--seed <n>] [--seconds <s>]\n       \
         fgbench manifest\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// Flags shared by every form.
#[derive(Debug, Clone)]
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                flags.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                flags.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v} is not a number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: {v} is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => flags.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_owned()),
        }
    }
    Ok(flags)
}

/// The environment block every run prints.
fn print_environment(args: &RunArgs, workload: Workload) {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into())
    };
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# fgbench {} — workload {}",
        env!("CARGO_PKG_VERSION"),
        workload.name()
    );
    println!("# commit: {}", commit());
    println!("# rustc: {rustc}");
    println!("# kernel: {}", read("/proc/sys/kernel/osrelease"));
    println!("# nproc: {nproc}");
    println!(
        "# transport: every frame crosses the host's loopback interface (127.0.0.1); \
         one process holds the system under test and the load generator"
    );
    println!(
        "# threads: generator <= {} (named {}-N), endpoint under test: control loop + 1 runtime worker + reactor",
        nproc.min(2),
        procstat::GEN_PREFIX
    );
    println!(
        "# seed {} | measuring for {} s | {}",
        args.seed,
        args.seconds,
        if args.trace {
            "traced run: per-layer metrics, end-to-end metrics are not taken from it"
        } else {
            "plain run: end-to-end metrics, tracing off"
        }
    );
}

/// The checked-out commit, when the benchmark runs inside a git checkout.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| format!("{reference} (packed)")),
        None => head.to_owned(),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`
/// (and `smoke` on a smoke run, which is never comparable with a full one).
fn result_line(outcome: &Outcome, trace: bool, smoke: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, ",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    if smoke {
        s.push_str("\"smoke\": true, ");
    }
    s.push_str("\"metrics\": {");
    for (i, (name, unit)) in metrics::reported(trace).iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        json::string(&mut s, name);
        s.push_str(": {\"value\": ");
        // A layer this workload does not run did no work: 0.
        json::number(&mut s, outcome.get(name).unwrap_or(0.0));
        s.push_str(", \"unit\": ");
        json::string(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// One run of one workload, in this process.
fn run_one(workload: Workload, args: &RunArgs, smoke: bool) -> ExitCode {
    print_environment(args, workload);
    let outcome = workload.run(args);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, unit) in metrics::reported(args.trace) {
        match outcome.get(name) {
            Some(v) => println!("{name:<44} {v:>16.4} {unit}"),
            None if args.trace => {}
            None => {
                eprintln!(
                    "fgbench: workload {} did not report {name}",
                    workload.name()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    for failure in &outcome.failures {
        println!("# FAILED {failure}");
    }
    println!(
        "# operations: {} attempted, {} failed (fail_ratio {:.6}){}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        if outcome.failed == 0 {
            " — all output checks passed"
        } else {
            ""
        }
    );
    println!("{}", result_line(&outcome, args.trace, smoke));
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Metric values parsed back from a child's result line.
fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut values = Vec::new();
    for part in metrics.split("\"unit\"") {
        let Some((head, value)) = part.rsplit_once("\": {\"value\": ") else {
            continue;
        };
        let name = head.rsplit_once('"')?.1;
        let value = value.trim_end_matches([',', ' ']);
        values.push((name.to_owned(), value.parse().ok()?));
    }
    Some((correct, values))
}

/// Starts the single-run form as a child process, passes its output
/// through and returns its parsed result line.
fn run_child(
    workload: Workload,
    args: &RunArgs,
    smoke: bool,
) -> Option<(bool, Vec<(String, f64)>)> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().expect("start a child run");
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.expect("child output is UTF-8");
        println!("{line}");
        last = line;
    }
    let status = child.wait().expect("wait for the child run");
    let parsed = parse_result(&last);
    if !status.success() {
        println!("# child run of {} exited with {status}", workload.name());
        return parsed.map(|(_, values)| (false, values));
    }
    parsed
}

/// `run` / `trace`: every workload once.
fn run_all(flags: &Flags, trace: bool) -> ExitCode {
    let seconds = flags.seconds.unwrap_or(if flags.smoke {
        SMOKE_SECONDS
    } else {
        f64::from(metrics::RUN_SECONDS)
    });
    let mut ok = true;
    for workload in Workload::ALL {
        let args = RunArgs {
            seed: flags.seed,
            seconds,
            trace,
        };
        match run_child(workload, &args, flags.smoke) {
            Some((correct, _)) => ok &= correct,
            None => ok = false,
        }
        println!();
    }
    if ok {
        println!("# all output checks passed on every workload");
        ExitCode::SUCCESS
    } else {
        println!("# FAILED: at least one workload reported failed operations");
        ExitCode::FAILURE
    }
}

/// `repeat <k>`: the whole benchmark `k` times on `seed` and `k` times on
/// `seed + 1`; per end-to-end metric the min/median/max and the
/// interquartile spread as a share of its bound. Exits non-zero when a
/// spread exceeds its bound.
fn repeat(flags: &Flags) -> ExitCode {
    let k: usize = match flags.positional.first().map(|s| s.parse()) {
        None => 2,
        Some(Ok(k)) if k >= 1 => k,
        Some(_) => return usage(),
    };
    let seconds = flags.seconds.unwrap_or(f64::from(metrics::RUN_SECONDS));
    let mut ok = true;
    let mut table: Vec<(Workload, &metrics::EndToEnd, Vec<f64>)> = Vec::new();
    for workload in Workload::ALL {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); metrics::END_TO_END.len()];
        for seed in [flags.seed, flags.seed + 1] {
            for _ in 0..k {
                let args = RunArgs {
                    seed,
                    seconds,
                    trace: false,
                };
                let Some((correct, metrics)) = run_child(workload, &args, false) else {
                    ok = false;
                    continue;
                };
                ok &= correct;
                for (i, m) in metrics::END_TO_END.iter().enumerate() {
                    if let Some((_, v)) = metrics.iter().find(|(n, _)| n == m.name) {
                        values[i].push(*v);
                    }
                }
                println!();
            }
        }
        for (m, v) in metrics::END_TO_END.iter().zip(values) {
            table.push((workload, m, v));
        }
    }
    println!(
        "# repeat: {k} runs on seed {} and {k} on seed {}, {seconds} s each",
        flags.seed,
        flags.seed + 1
    );
    println!(
        "{:<18} {:<18} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6} {:>13}",
        "workload", "metric", "n", "min", "median", "max", "spread", "bound", "spread/bound"
    );
    for (workload, m, mut v) in table {
        if v.len() < 2 {
            println!("{:<18} {:<18} too few values", workload.name(), m.name);
            ok = false;
            continue;
        }
        stats::sort(&mut v);
        let spread = stats::spread(&v);
        let within = spread <= m.bound || m.name == "setup_s";
        ok &= within;
        println!(
            "{:<18} {:<18} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6.2} {:>13.2}{}",
            workload.name(),
            m.name,
            v.len(),
            v[0],
            stats::median(&v),
            v[v.len() - 1],
            spread,
            m.bound,
            spread / m.bound,
            if within { "" } else { "  EXCEEDS ITS BOUND" }
        );
    }
    if ok {
        println!("# every end-to-end metric's spread is within its bound (setup_s is reported, not gated)");
        ExitCode::SUCCESS
    } else {
        println!("# FAILED: a spread exceeds its bound, or a run failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (form, rest) = match args.first().map(String::as_str) {
        Some(form @ ("run" | "trace" | "repeat" | "manifest")) => (form, &args[1..]),
        Some(_) => ("one", &args[..]),
        None => return usage(),
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("fgbench: {e}");
            return usage();
        }
    };
    match form {
        "manifest" => {
            print!("{}", metrics::benchmark_json());
            ExitCode::SUCCESS
        }
        "run" => run_all(&flags, false),
        "trace" => run_all(&flags, true),
        "repeat" => repeat(&flags),
        _ => {
            let (Some(workload), Some(seconds)) = (flags.workload, flags.seconds) else {
                return usage();
            };
            let args = RunArgs {
                seed: flags.seed,
                seconds,
                trace: flags.trace,
            };
            run_one(workload, &args, flags.smoke)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut outcome = Outcome::default();
        outcome.check(10, 0, "nothing");
        for m in metrics::END_TO_END {
            outcome.set(m.name, 1.5);
        }
        let line = result_line(&outcome, false, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        let (correct, values) = parse_result(&line).expect("own line parses");
        assert!(correct);
        assert_eq!(values.len(), metrics::END_TO_END.len());
        assert!(values.iter().all(|(_, v)| *v == 1.5));
        assert_eq!(values[0].0, "setup_s");
        let traced = result_line(&Outcome::default(), true, true);
        assert!(traced.contains("\"smoke\": true"));
        assert!(traced.contains("\"correct\": false"));
        let (_, layers) = parse_result(&traced).expect("parses");
        assert_eq!(layers.len(), metrics::PER_LAYER.len());
    }

    #[test]
    fn flags() {
        let args: Vec<String> = "--workload sim_repro --seed 7 --seconds 2.5 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let f = parse_flags(&args).expect("valid flags");
        assert_eq!(f.workload, Some(Workload::SimRepro));
        assert_eq!((f.seed, f.seconds, f.trace), (7, Some(2.5), true));
        assert!(parse_flags(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_flags(&["--workload".into(), "x".into()]).is_err());
        assert!(parse_flags(&["--seconds".into(), "0".into()]).is_err());
    }
}
