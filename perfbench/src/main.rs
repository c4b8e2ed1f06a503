//! The repository's benchmark of record. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <implicit-degrees|warmup-flood|threshold-certify> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --all [--trace 0|1]
//! ```
//!
//! One process runs one workload: an untimed warm-up run, then timed runs
//! until `--seconds` have passed. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! runs and reports the per-layer metrics. Every run's output is checked.
//! The last line of standard output is the result object; the human table
//! goes to standard error.

mod alloc;
mod clock;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Kind, Outcome, Probe, DEFAULT_SEED};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups timed per timed run (the set-up is short, so one sample per run
/// would make `setup_s` the noisiest metric).
const SETUPS_PER_RUN: usize = 5;
/// Timed runs made even when `--seconds` is already spent.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Option<Kind>,
    all: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str =
    "usage: perfbench (--workload <implicit-degrees|warmup-flood|threshold-certify> | --all) \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--all" {
            args.all = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(kind) => bench(kind, &args),
        None => all(&args),
    }
}

/// Runs every workload, each in a process of its own so that its peak RSS
/// is its own.
fn all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark's own executable path");
    let mut ok = true;
    for kind in Kind::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status()
            .expect("spawn a benchmark process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Counts attempted and failed runs. A run fails when it errors, panics,
/// produces a wrong output, or its rounds/messages differ from the values
/// recorded for the seed (or, at an unrecorded seed, from the first run).
struct Tally {
    kind: Kind,
    seed: u64,
    attempted: u64,
    failed: u64,
    expected: Option<(u64, u64)>,
}

impl Tally {
    fn judge(&mut self, o: &Outcome) {
        self.attempted += 1;
        let counts = (o.rounds, o.messages);
        let verdict = o.verdict.clone().and_then(|()| match self.expected {
            Some(want) if want != counts => Err(format!(
                "(rounds, messages) = {counts:?}, expected {want:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.expected = Some(counts);
                Ok(())
            }
        });
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!(
                "perfbench: {} seed {} run {}: {why}",
                self.kind.name(),
                self.seed,
                self.attempted
            );
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The per-layer numbers of one traced run.
fn layer_metrics(
    o: &Outcome,
    split: &trace::Split,
    network_new_ns: u64,
    sequential_ns: u64,
) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 / 1e9;
    let e = &o.engine;
    let phases = e.step_nanos + e.route_nanos + e.deliver_nanos + e.learn_nanos + e.exchange_nanos;
    let node_steps = split.node_steps as f64;
    let messages = o.messages as f64;
    let round_p50 = if split.round_ns.is_empty() {
        0.0
    } else {
        median(split.round_ns.iter().map(|&ns| s(ns)).collect())
    };
    let round_max = split.round_ns.iter().max().map_or(0.0, |&ns| s(ns));
    vec![
        ("ncc.step_s", s(e.step_nanos), "s"),
        ("ncc.node_steps", node_steps, "count"),
        (
            "ncc.step_ns_per_node_step",
            ratio(e.step_nanos as f64, node_steps),
            "ns",
        ),
        (
            "ncc.msgs_per_node_step",
            ratio(messages, node_steps),
            "ratio",
        ),
        ("ncc.route_s", s(e.route_nanos), "s"),
        (
            "ncc.route_ns_per_msg",
            ratio(e.route_nanos as f64, messages),
            "ns",
        ),
        ("ncc.learn_s", s(e.learn_nanos), "s"),
        (
            "ncc.learn_ns_per_msg",
            ratio(e.learn_nanos as f64, messages),
            "ns",
        ),
        ("ncc.knowledge_arena", e.knowledge_arena as f64, "count"),
        (
            "ncc.parallel_route_rounds",
            e.parallel_route_rounds as f64,
            "count",
        ),
        (
            "ncc.parallel_sweep_rounds",
            e.parallel_sweep_rounds as f64,
            "count",
        ),
        (
            "ncc.other_s",
            (split.engine_ns as f64 - phases as f64) / 1e9,
            "s",
        ),
        ("ncc.deliver_s", s(e.deliver_nanos), "s"),
        ("ncc.max_queue_len", o.max_queue_len as f64, "count"),
        ("ncc.compactions", e.compactions as f64, "count"),
        ("ncc.round_s.p50", round_p50, "s"),
        ("ncc.round_s.max", round_max, "s"),
        ("connectivity.certify_s", s(split.certify_ns), "s"),
        (
            "connectivity.certify_pairs",
            split.certify_pairs as f64,
            "count",
        ),
        (
            "connectivity.certify_us_per_pair",
            ratio(split.certify_ns as f64 / 1e3, split.certify_pairs as f64),
            "us",
        ),
        ("core.engine_runs", split.engine_runs as f64, "count"),
        ("core.driver_s", s(split.driver_ns), "s"),
        ("ncc.network_new_s", s(network_new_ns), "s"),
        ("baseline.sequential_s", s(sequential_ns), "s"),
    ]
}

/// Medians, metric by metric, of several traced runs.
fn median_layers(runs: &[Vec<Metric>]) -> Vec<Metric> {
    runs[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| (name, median(runs.iter().map(|r| r[i].1).collect()), unit))
        .collect()
}

fn bench(kind: Kind, args: &Args) -> ExitCode {
    let seed = args.seed;
    let mut tally = Tally {
        kind,
        seed,
        attempted: 0,
        failed: 0,
        expected: kind.recorded(seed),
    };
    // Warm-up: untimed, but checked.
    tally.judge(&kind.prepare(seed).run(Probe::Off));

    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let (mut wall, mut cpu, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = (0, 0);
    let mut traced_wall = Vec::new();
    let mut layers = Vec::new();
    let mut spans = trace::Trace::new();
    let start = clock::now();
    while wall.len() < MIN_RUNS || clock::since_ns(start) as f64 / 1e9 < args.seconds {
        let mut prepared = None;
        for _ in 0..SETUPS_PER_RUN {
            let p = kind.prepare(seed);
            setup.push(p.setup_ns() as f64 / 1e9);
            gen.push(p.gen_ns as f64 / 1e9);
            prepared = Some(p);
        }
        let o = prepared
            .expect("SETUPS_PER_RUN is positive")
            .run(Probe::Off);
        tally.judge(&o);
        let secs = o.wall_ns as f64 / 1e9;
        wall.push(secs);
        cpu.push(o.cpu_ns as f64 / 1e9);
        rate.push(o.rounds as f64 / secs);
        counts = (o.rounds, o.messages);

        if args.traced {
            let p = kind.prepare(seed);
            let (sink, stamps) = trace::sink();
            let o = p.run(Probe::Spans(sink));
            tally.judge(&o);
            let end = o.started + std::time::Duration::from_nanos(o.wall_ns);
            let run = u32::try_from(layers.len()).expect("fewer than 2^32 traced runs");
            let split = spans.record(run, kind.call(), o.started, end, stamps);
            traced_wall.push(o.wall_ns as f64 / 1e9);
            layers.push(layer_metrics(
                &o,
                &split,
                kind.network_new_ns(seed),
                kind.sequential_ns(seed),
            ));
        }
    }

    let metrics: Vec<Metric> = if args.traced {
        let counted = kind.prepare(seed).run(Probe::Allocations);
        tally.judge(&counted);
        let mut m = median_layers(&layers);
        m.push(("alloc.count", counted.alloc.count as f64, "count"));
        m.push(("alloc.peak_bytes", counted.alloc.peak_bytes as f64, "B"));
        m.push(("graphgen.gen_s", median(gen), "s"));
        m.push((
            "trace.overhead_pct",
            100.0 * (median(traced_wall) / median(wall.clone()) - 1.0),
            "%",
        ));
        m
    } else {
        vec![
            ("wall_s", median(wall.clone()), "s"),
            ("rounds_per_s", median(rate), "1/s"),
            ("cpu_s", median(cpu), "s"),
            ("setup_s", median(setup.clone()), "s"),
            ("peak_rss_mb", clock::peak_rss_mb(), "MB"),
            ("rounds", counts.0 as f64, "count"),
            ("messages", counts.1 as f64, "count"),
        ]
    };

    let failed_frac = tally.failed as f64 / tally.attempted as f64;
    eprintln!(
        "perfbench {} seed {seed} {}: {} timed runs ({} traced), {} set-ups, host {}",
        kind.name(),
        if args.traced { "traced" } else { "untraced" },
        wall.len(),
        layers.len(),
        setup.len(),
        fingerprint()
    );
    for &(name, value, unit) in &metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    eprintln!("  {:<34} {failed_frac:>16.6} ratio", "failed_frac");
    if args.traced {
        eprintln!("  self time by span:");
        for (name, ns) in spans.self_time_by_name() {
            eprintln!("    {name:<32} {:>16.6} s", ns as f64 / 1e9);
        }
        let path = trace_path(kind, seed);
        match spans.write_chrome(&path) {
            Ok(()) => eprintln!("  trace: {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let walls: Vec<String> = wall.iter().map(f64::to_string).collect();
    println!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"timed_runs\":{},\
         \"traced_runs\":{},\"setup_samples\":{},\"warmup_runs\":1,\"fingerprint\":\"{}\",\
         \"commit\":\"{}\",\"wall_s_samples\":[{}]}}}}",
        kind.name(),
        u8::from(args.traced),
        wall.len(),
        layers.len(),
        setup.len(),
        fingerprint(),
        commit(),
        walls.join(",")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_path(kind: Kind, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}.json", kind.name()))
}

/// FNV-1a: a stable hash (std's hasher may change between releases). The
/// same scheme as `engine_bench`, so fingerprints compare across the two.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `arch-<nproc>c-<cpu model hash>`, as `engine_bench` writes it.
fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown-cpu".to_string());
    format!(
        "{}-{}c-{:08x}",
        std::env::consts::ARCH,
        cores,
        fnv1a(model.as_bytes()) as u32
    )
}

/// The checked-out commit, read from the repository's `.git` directory
/// (`unknown` in a source tree without one).
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(name)
                    .and_then(|h| h.strip_suffix(' '))
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
