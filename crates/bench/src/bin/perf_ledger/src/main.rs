//! `perf_ledger` — one benchmark, four workloads, every layer, recall
//! attached. See `README.md` beside this package for the method, the
//! metric glossary and how to read the output.
//!
//! ```text
//! perf_ledger --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]
//! perf_ledger compare <a> <b> [--benchmark BENCHMARK.json]
//! ```

mod adapter;
mod compare;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts allocations while armed, so `ivf.allocs_per_query` is measured
/// (as `search_qps` does). Disarmed it adds one relaxed load per call.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System`; same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made (by any thread) while `f` runs.
pub fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

struct Cli {
    workload: String,
    opts: run::Opts,
    smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: perf_ledger --workload <{}|all> --seed <u64> [--seconds <n>] [--trace [0|1]] \
         [--smoke]\n       perf_ledger compare <a> <b> [--benchmark BENCHMARK.json]",
        workloads::NAMES.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                workload = Some(value(i)?.clone());
                i += 1;
            }
            "--seed" => {
                seed = Some(
                    value(i)?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
                i += 1;
            }
            "--seconds" => {
                let s = value(i)?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    trace = true;
                    i += 1;
                }
                _ => trace = true,
            },
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Cli {
        workload,
        opts: run::Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(if smoke { 1.0 } else { workloads::RUN_SECONDS }),
            trace,
        },
        smoke,
    })
}

/// The commit checked out in the working directory, read from `.git`
/// without starting a process; `unknown` outside a repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_json() -> String {
    let features: Vec<String> = rabitq_core::hw::cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    format!(
        "{{\"nproc\":{},\"cpu_features\":[{}],\"kernel\":\"{}\",\"commit\":\"{}\"}}",
        rabitq_core::hw::cores(),
        features.join(","),
        rabitq_core::hw::active_kernel(),
        git_commit()
    )
}

/// Runs one workload and prints its report; the last line printed is the
/// object the driver's contract asks for. Returns whether the run passed
/// the correctness gate.
fn run_and_print(shape: &workloads::Shape, cli: &Cli) -> std::io::Result<bool> {
    let opts = &cli.opts;
    println!(
        "# perf_ledger workload={} seed={} seconds={} trace={} smoke={}",
        shape.name, opts.seed, opts.seconds, opts.trace as u8, cli.smoke
    );
    let host = host_json();
    println!("# host {host}");
    let shape_json = format!(
        "{{\"dataset\":\"{}\",\"dim\":{},\"n\":{},\"segments\":{},\"pool\":{},\"nprobe\":{},\
         \"k\":{},\"queries\":{},\"recall_floor\":{},\
         \"wal_flush\":\"store default: no fsync per insert, fsync on seal and manifest\"}}",
        shape.dataset.name(),
        shape.dataset.dim(),
        shape.n,
        shape.segments,
        shape.pool,
        shape.nprobe,
        workloads::K,
        workloads::N_QUERIES,
        shape.recall_floor
    );
    println!("# shape {shape_json}");
    let outcome = run::run(shape, opts)?;
    outcome.ledger.print();
    if let Some(path) = &outcome.trace_file {
        println!("# trace file {}", path.display());
    }
    for v in &outcome.violations {
        println!("# VIOLATION {v}");
    }
    let correct = outcome.violations.is_empty();
    let violations: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| format!("\"{}\"", v.replace('\\', "/").replace('"', "'")))
        .collect();
    println!(
        "{{\"ledger\":1,\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"host\":{host},\"shape\":{shape_json},\"correct\":{correct},\"attempted\":{},\
         \"failed\":{},\"violations\":[{}],\"metrics\":{}}}",
        shape.name,
        opts.seed,
        opts.seconds,
        opts.trace,
        cli.smoke,
        outcome.attempted,
        outcome.failed,
        violations.join(","),
        outcome.ledger.to_json(true)
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.ledger.to_json(false)
    );
    Ok(correct)
}

fn compare_main(args: &[String]) -> Result<usize, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--benchmark" {
            benchmark = args.get(i + 1).ok_or("--benchmark needs a path")?.clone();
            i += 1;
        } else {
            files.push(&args[i]);
        }
        i += 1;
    }
    let [a, b] = files[..] else {
        return Err(usage());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = compare::bounds_from(&read(&benchmark)?).map_err(|e| e.to_string())?;
    Ok(compare::compare(&read(a)?, &read(b)?, &bounds))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare_main(&args[1..]) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                println!("{n} regressed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for shape in workloads::shapes(cli.smoke) {
        if cli.workload != "all" && cli.workload != shape.name {
            continue;
        }
        match run_and_print(&shape, &cli) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("{}: {e}", shape.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cli_accepts_the_driver_and_the_issue_forms() {
        let c = cli(&[
            "--workload",
            "http_d128",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert!(!c.opts.trace && c.opts.seconds == 15.0 && c.opts.seed == 7);
        assert!(
            cli(&["--workload", "all", "--seed", "1", "--trace", "1"])
                .unwrap()
                .opts
                .trace
        );
        let c = cli(&["--workload", "all", "--seed", "1", "--trace", "--smoke"]).unwrap();
        assert!(c.opts.trace && c.smoke && c.opts.seconds == 1.0);
        assert!(cli(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(cli(&["--workload", "all"]).is_err(), "seed is required");
        assert!(cli(&["--workload", "all", "--seed", "1", "--seconds", "0"]).is_err());
    }

    /// The guard the issue asks for: every workload in smoke shape, both
    /// modes, emits exactly the names `BENCHMARK.json` declares, all
    /// finite, and passes its own correctness gate.
    #[test]
    fn smoke_run_emits_exactly_the_declared_metrics() {
        let benchmark = include_str!("../../../../../../BENCHMARK.json");
        let json = rabitq_serve::Json::parse(benchmark).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(rabitq_serve::Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), pairs(&report::END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&report::PER_LAYER));
        let workloads_declared: Vec<&str> = json
            .get("workloads")
            .and_then(rabitq_serve::Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads_declared, workloads::NAMES);
        assert_eq!(
            json.get("run_seconds").and_then(rabitq_serve::Json::as_f64),
            Some(workloads::RUN_SECONDS)
        );
        for shape in workloads::shapes(true) {
            for trace in [false, true] {
                let opts = run::Opts {
                    seed: 42,
                    seconds: 1.0,
                    trace,
                };
                let outcome = run::run(&shape, &opts).expect("smoke run");
                assert!(
                    outcome.violations.is_empty(),
                    "{} trace={trace}: {:?}",
                    shape.name,
                    outcome.violations
                );
                assert!(outcome.attempted > 0 && outcome.failed == 0);
                assert_eq!(outcome.trace_file.is_some(), trace);
            }
        }
    }
}
