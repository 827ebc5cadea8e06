//! The repository's benchmark: seven workloads, end-to-end metrics from a
//! timing run, per-layer metrics and a ledger from a traced run. See
//! `README.md` beside this package and `BENCHMARK.json` at the root.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one result line (what the driver calls)
//! benchmark [--seed N] [--seconds S] [--trace 1] [--repeat K]  all seven, each in a child process
//! benchmark --check | --list | --emit-benchmark-json
//! ```

mod fixture;
mod host;
mod http;
mod json;
mod registry;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use registry::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// How the driver starts the benchmark, and the directory it lives in.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
const PATHS: [&str; 1] = ["benchmark"];

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    mode: Mode,
}

enum Mode {
    Run,
    Check,
    List,
    EmitJson,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: registry::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        mode: Mode::Run,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--check" => cli.mode = Mode::Check,
            "--list" => cli.mode = Mode::List,
            "--emit-benchmark-json" => cli.mode = Mode::EmitJson,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &cli.workload {
        if registry::workload(name).is_none() {
            return Err(format!(
                "unknown workload {name:?}; --list prints the registry"
            ));
        }
    }
    Ok(cli)
}

/// One workload in this process; prints the result line last on stdout.
fn run_one(name: &str, cli: &Cli) -> Result<(), String> {
    use workloads::*;
    let host = host::Host::detect();
    eprintln!("{}", host.describe(cli.seed));
    let def = registry::workload(name).expect("checked by parse_cli");
    let scratch = fixture::Scratch::new(def.name).map_err(|e| format!("scratch directory: {e}"))?;
    let ctx = run::Ctx {
        host: &host,
        seed: cli.seed,
        scratch: &scratch,
    };
    let (s, t) = (cli.seconds, cli.trace);
    let outcome = match def.name {
        "engine-baseline" => run::run::<engine::EngineBaseline>(def.name, &ctx, s, t),
        "capture-spill" => run::run::<capture::CaptureSpill>(def.name, &ctx, s, t),
        "online-monitor" => run::run::<online::OnlineMonitor>(def.name, &ctx, s, t),
        "replay-layered" => run::run::<replay::ReplayLayered>(def.name, &ctx, s, t),
        "serve-http-hot" => run::run::<serve::Serve<true>>(def.name, &ctx, s, t),
        "serve-http-churn" => run::run::<serve::Serve<false>>(def.name, &ctx, s, t),
        "mutate-epochs" => run::run::<mutate::MutateEpochs>(def.name, &ctx, s, t),
        other => Err(format!(
            "workload {other} is registered but not implemented"
        )),
    }?;
    println!("{}", outcome.to_json());
    Ok(())
}

/// `metrics` of one child's result line, or why there is none.
fn run_child(workload: &str, cli: &Cli, trace: bool) -> Result<(Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start the child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: child printed nothing"))?;
    let doc = Json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let attempted = doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
    let failed = doc
        .get("failed")
        .and_then(Json::as_f64)
        .unwrap_or(attempted);
    let fail_ratio = failed / attempted.max(1.0);
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload}: oracle failures, fail_ratio {fail_ratio}"
        ));
    }
    Ok((doc, fail_ratio))
}

fn metric_values(doc: &Json) -> BTreeMap<String, f64> {
    doc.get("metrics")
        .and_then(Json::as_obj)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// All seven workloads, each in a child process so that `peak_rss_mb`
/// and allocator state do not leak from one into the next.
fn run_set(cli: &Cli, set: usize) -> Result<BTreeMap<(String, String), f64>, String> {
    let mut table = BTreeMap::new();
    for w in &WORKLOADS {
        let (doc, fail_ratio) = run_child(w.name, cli, false)?;
        println!("set {set} seed {} workload {}", cli.seed, w.name);
        println!("  {:<34} {fail_ratio:>16} ratio", "fail_ratio");
        let values = metric_values(&doc);
        for m in &END_TO_END {
            let v = values
                .get(m.name)
                .copied()
                .ok_or(format!("{}: {} missing", w.name, m.name))?;
            println!("  {:<34} {:>16.6} {}", m.name, v, m.unit);
            table.insert((w.name.to_string(), m.name.to_string()), v);
        }
        if cli.trace {
            let (doc, _) = run_child(w.name, cli, true)?;
            let values = metric_values(&doc);
            for m in &PER_LAYER {
                let v = values
                    .get(m.name)
                    .copied()
                    .ok_or(format!("{}: {} missing", w.name, m.name))?;
                println!("  {:<34} {:>16.6} {}", m.name, v, m.unit);
            }
        }
    }
    Ok(table)
}

fn run_all(cli: &Cli) -> Result<(), String> {
    let host = host::Host::detect();
    println!("{}", host.describe(cli.seed));
    let mut sets = Vec::new();
    for set in 1..=cli.repeat {
        sets.push(run_set(cli, set)?);
    }
    if cli.repeat < 2 {
        return Ok(());
    }
    // Spread of each end-to-end metric over the sets against its bound:
    // the interquartile range as a share of the median.
    println!(
        "spread over {} sets (interquartile range / median, against the bound)",
        cli.repeat
    );
    let mut exceeded = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let values: Vec<f64> = sets.iter().map(|s| s[&key]).collect();
            let spread = stats::relative_spread(&values).unwrap_or(f64::INFINITY);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            // Set-up time is bounded on its median, not on its spread.
            let over = spread > bound && m.name != "setup_s";
            println!(
                "  {:<18} {:<12} spread {:>8.4} bound {:>5.2} {}",
                w.name,
                m.name,
                spread,
                bound,
                if over { "EXCEEDED" } else { "ok" }
            );
            if over {
                exceeded.push(format!("{} {}", w.name, m.name));
            }
        }
    }
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "spread exceeds the bound on: {}",
            exceeded.join(", ")
        ))
    }
}

fn check() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the root of the repository): {e}"))?;
    let mut errs = registry::check(&text);
    let doc = Json::parse(&text).unwrap_or(Json::Null);
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|s| s.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default()
    };
    if strings("command") != COMMAND {
        errs.push(format!("command is not {COMMAND:?}"));
    }
    if strings("paths") != PATHS {
        errs.push(format!("paths is not {PATHS:?}"));
    }
    if errs.is_empty() {
        println!("BENCHMARK.json matches the registry");
        Ok(())
    } else {
        Err(errs.join("\n"))
    }
}

fn main() -> ExitCode {
    let result = parse_cli().and_then(|cli| match (&cli.mode, &cli.workload) {
        (Mode::Check, _) => check(),
        (Mode::List, _) => {
            print!("{}", registry::list());
            Ok(())
        }
        (Mode::EmitJson, _) => {
            print!("{}", registry::benchmark_json(&COMMAND, &PATHS));
            Ok(())
        }
        (Mode::Run, Some(name)) => run_one(name, &cli),
        (Mode::Run, None) => run_all(&cli),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
