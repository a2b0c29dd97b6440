//! `e2e`: the session lifecycle over real TCP, on four deployments, with
//! outside-in layer timings. See README.md beside this package.

mod compare;
mod drive;
mod layers;
mod placement;
mod reference;
mod report;
mod run;
mod workload;
mod world;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use report::RunReport;
use run::RunConfig;
use workload::Workload;

/// Seconds a run measures unless told otherwise; `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// Set-ups in fresh processes besides the run's own (`setup_s` is the
/// median of all of them).
const EXTRA_SETUPS: usize = 6;

const USAGE: &str = "usage:
  e2e run (--workload <name> | --all) [--seed <u64>] [--seconds <n> | --measure-ms <n>] [--trace 0|1]
      workloads: single_node parked_conns replicated_civ cross_domain
      --trace 0  timed run only; the last line carries the end-to-end metrics
      --trace 1  also the layer pass and traced re-run; the last line carries the per-layer metrics
      (neither)  everything; the last line carries both sets
  e2e compare <a.json|dir> <b.json|dir> [--bounds <BENCHMARK.json>]";

/// `--name value` options after the subcommand, and bare arguments.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some("all") => parsed.flags.push("all".into()),
                Some(name) => {
                    let value = iter.next().ok_or(format!("--{name} needs a value"))?;
                    parsed.options.push((name.to_string(), value.clone()));
                }
                None => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} takes a whole number, got `{v}`"))
            })
            .transpose()
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed")?.unwrap_or(1);
    let measure = match (args.number("seconds")?, args.number("measure-ms")?) {
        (Some(_), Some(_)) => return Err("give --seconds or --measure-ms, not both".into()),
        (Some(s), None) => Duration::from_secs(s),
        (None, Some(ms)) => Duration::from_millis(ms),
        (None, None) => Duration::from_secs(DEFAULT_SECONDS),
    };
    if measure.is_zero() {
        return Err("the measured interval must be longer than zero".into());
    }
    let trace = match args.get("trace") {
        None => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };

    if args.flags.iter().any(|f| f == "all") {
        // One process per workload: a served deployment cannot be shut
        // down, and must not keep polling beside the next one.
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut all_correct = true;
        for workload in Workload::ALL {
            let mut child = std::process::Command::new(&exe);
            child.args(["run", "--workload", workload.name()]);
            child.args(["--seed", &seed.to_string()]);
            child.args(["--measure-ms", &measure.as_millis().to_string()]);
            if let Some(t) = args.get("trace") {
                child.args(["--trace", t]);
            }
            let status = child.status().map_err(|e| e.to_string())?;
            all_correct &= status.success();
        }
        return Ok(if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let report = run::run_workload(&RunConfig {
        workload: args.workload()?,
        seed,
        measure,
        layers: trace != Some(false),
        extra_setups: EXTRA_SETUPS,
        out_dir: run::target_dir().join("e2e"),
        command: std::env::args().collect::<Vec<_>>().join(" "),
    });
    report.print_table();
    println!("{}", driver_line(&report, trace));
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The last line of a run: every end-to-end metric with `--trace 0`,
/// every per-layer metric with `--trace 1`, both sets without `--trace`.
fn driver_line(report: &RunReport, trace: Option<bool>) -> String {
    let metrics: Vec<_> = match trace {
        Some(false) => report.end_to_end.iter().collect(),
        Some(true) => report.per_layer.iter().collect(),
        None => report.end_to_end.iter().chain(&report.per_layer).collect(),
    };
    report.driver_line(&metrics)
}

/// One set-up in this (fresh) process; prints its seconds, relative to the
/// host-speed reference and raw. What the parent run spawns to make
/// `setup_s` a median.
fn cmd_setup(args: &Args) -> Result<ExitCode, String> {
    let (_world, _clients, warm_up, time) =
        run::set_up(args.workload()?, args.number("seed")?.unwrap_or(1));
    if warm_up.failed != 0 {
        return Err(format!("warm-up failed: {:?}", warm_up.failures));
    }
    println!("{} {}", time.seconds, time.raw_s);
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files or two directories".into());
    };
    let bounds = args.get("bounds").unwrap_or("BENCHMARK.json");
    let agreed = compare::compare(Path::new(a), Path::new(b), Path::new(bounds))?;
    Ok(if agreed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "setup" => cmd_setup(&args),
        "compare" => cmd_compare(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2e: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
