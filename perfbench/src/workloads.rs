//! The three workloads: how each generates its input from the seed, builds
//! its request, runs through the public API, and checks its output.

use crate::alloc;
use crate::clock;
use crate::trace::SpanSink;
use dgr::connectivity::{sequential_realization, ThresholdInstance};
use dgr::graphgen;
use dgr::ncc::{Config, EngineKind, EngineStats, Network, NodeId, RunMetrics};
use dgr::primitives::proto::clique::{rounds_for, CliqueWarmup};
use dgr::primitives::{ContactTable, PathToClique};
use dgr::realization::{havel_hakimi, DegreeSequence};
use dgr::{CapacityPolicy, Kt0, Realization, SortBackend, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The default seed of every workload.
pub const DEFAULT_SEED: u64 = 1;
/// The held-out seed, for re-checking a claim on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 7919;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Algorithm 3 (implicit degree realization) end to end.
    ImplicitDegrees,
    /// The NCC0 path-to-clique warm-up at message density.
    WarmupFlood,
    /// Algorithm 6 threshold realization with max-flow certification.
    ThresholdCertify,
}

const IMPLICIT_N: usize = 4096;
const IMPLICIT_K: usize = 4;
/// The implicit-degrees degree multiset is that of
/// `near_regular_sequence(IMPLICIT_N, IMPLICIT_K, IMPLICIT_MULTISET_SEED)`;
/// the workload seed only shuffles it over the path positions. Algorithm 3's
/// phase count is a function of the multiset alone, and a multiset drawn
/// per seed moves the run between 1,311 and 1,875 rounds (seeds 1–10), so a
/// fixed multiset keeps the work per run the same at every seed.
const IMPLICIT_MULTISET_SEED: u64 = 9;
const WARMUP_N: usize = 100_000;
const WARMUP_WORKERS: usize = 2;
const THRESHOLD_N: usize = 2048;
const THRESHOLD_RHO: (usize, usize) = (1, 4);

/// `(workload, seed, rounds, messages)` as recorded at this benchmark's
/// introduction. A run at one of these seeds must reproduce them exactly.
const RECORDED: [(Kind, u64, u64, u64); 6] = [
    (Kind::ImplicitDegrees, DEFAULT_SEED, 1_499, 3_272_670),
    (Kind::ImplicitDegrees, HELD_OUT_SEED, 1_499, 3_272_670),
    (Kind::WarmupFlood, DEFAULT_SEED, 17, 3_037_859),
    (Kind::WarmupFlood, HELD_OUT_SEED, 17, 3_037_859),
    (Kind::ThresholdCertify, DEFAULT_SEED, 215, 188_451),
    (Kind::ThresholdCertify, HELD_OUT_SEED, 215, 188_399),
];

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::ImplicitDegrees,
        Kind::WarmupFlood,
        Kind::ThresholdCertify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ImplicitDegrees => "implicit-degrees",
            Kind::WarmupFlood => "warmup-flood",
            Kind::ThresholdCertify => "threshold-certify",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The `(rounds, messages)` recorded for `seed`, if it is a recorded seed.
    pub fn recorded(self, seed: u64) -> Option<(u64, u64)> {
        RECORDED
            .iter()
            .find(|r| r.0 == self && r.1 == seed)
            .map(|r| (r.2, r.3))
    }

    /// The root span of the call this workload times: `(name, layer)`.
    pub fn call(self) -> (&'static str, &'static str) {
        match self {
            Kind::WarmupFlood => ("Network::run_protocol", "ncc"),
            _ => ("Realization::run", "facade"),
        }
    }

    fn n(self) -> usize {
        match self {
            Kind::ImplicitDegrees => IMPLICIT_N,
            Kind::WarmupFlood => WARMUP_N,
            Kind::ThresholdCertify => THRESHOLD_N,
        }
    }

    fn generate(self, seed: u64) -> Vec<usize> {
        match self {
            Kind::ImplicitDegrees => {
                let mut degrees =
                    graphgen::near_regular_sequence(IMPLICIT_N, IMPLICIT_K, IMPLICIT_MULTISET_SEED);
                degrees.shuffle(&mut StdRng::seed_from_u64(seed));
                degrees
            }
            Kind::WarmupFlood => Vec::new(),
            Kind::ThresholdCertify => {
                graphgen::uniform_thresholds(THRESHOLD_N, THRESHOLD_RHO.0, THRESHOLD_RHO.1, seed)
            }
        }
    }

    fn warmup_config(seed: u64) -> Config {
        Config::ncc0(seed).with_worker_threads(WARMUP_WORKERS)
    }

    /// Generates the input and builds the request, timing both.
    pub fn prepare(self, seed: u64) -> Prepared {
        let t0 = clock::now();
        let input = self.generate(seed);
        let t1 = clock::now();
        let request = match self {
            Kind::ImplicitDegrees => Request::Driver(
                Realization::new(Workload::Implicit(input.clone()))
                    .seed(seed)
                    .workers(1)
                    .tracking(Kt0::Untracked)
                    .sort(SortBackend::Bitonic)
                    .policy(CapacityPolicy::Strict),
            ),
            Kind::ThresholdCertify => Request::Driver(
                Realization::new(Workload::Ncc0Threshold(input.clone()))
                    .seed(seed)
                    .workers(1),
            ),
            Kind::WarmupFlood => Request::Warmup(Network::new(WARMUP_N, Self::warmup_config(seed))),
        };
        let t2 = clock::now();
        Prepared {
            kind: self,
            input,
            request,
            gen_ns: clock::nanos(t1 - t0),
            build_ns: clock::nanos(t2 - t1),
        }
    }

    /// Times a `Network::new` of this workload's size and seed. The warm-up
    /// builds exactly this network; the drivers build the same-sized one
    /// inside `run()`.
    pub fn network_new_ns(self, seed: u64) -> u64 {
        let config = match self {
            Kind::WarmupFlood => Self::warmup_config(seed),
            _ => Config::ncc0(seed),
        };
        let t = clock::now();
        let net = black_box(Network::new(self.n(), config));
        let ns = clock::since_ns(t);
        drop(net);
        ns
    }

    /// Times the sequential reference on this workload's input: Havel–Hakimi
    /// for degrees, the sequential threshold construction, and for the
    /// warm-up the contact tables computed directly from the path order.
    pub fn sequential_ns(self, seed: u64) -> u64 {
        let input = self.generate(seed);
        match self {
            Kind::ImplicitDegrees => {
                let seq = DegreeSequence::new(input);
                let t = clock::now();
                let edges = havel_hakimi::realize(&seq).expect("generated sequences are graphic");
                let ns = clock::since_ns(t);
                black_box(edges);
                ns
            }
            Kind::ThresholdCertify => {
                let inst = ThresholdInstance::new(input);
                let t = clock::now();
                let graph = sequential_realization(&inst);
                let ns = clock::since_ns(t);
                black_box(graph);
                ns
            }
            Kind::WarmupFlood => {
                let net = Network::new(WARMUP_N, Self::warmup_config(seed));
                let t = clock::now();
                let tables = expected_contacts(net.ids_in_path_order());
                let ns = clock::since_ns(t);
                black_box(tables);
                ns
            }
        }
    }
}

enum Request {
    Driver(Realization),
    Warmup(Network),
}

/// A generated input and its built request, ready to run.
pub struct Prepared {
    kind: Kind,
    input: Vec<usize>,
    request: Request,
    /// Input generation time.
    pub gen_ns: u64,
    /// Builder or `Network::new` time.
    build_ns: u64,
}

/// What a run records besides its wall and CPU time. Spans and allocation
/// counts come from separate runs: counting every allocation costs the
/// allocation-heavy drivers a quarter of their wall time, which would
/// swamp the span overhead the traced run reports.
pub enum Probe {
    Off,
    Spans(SpanSink),
    Allocations,
}

/// One run's measurements and verdict.
pub struct Outcome {
    /// When the call started.
    pub started: Instant,
    /// Wall time of the call.
    pub wall_ns: u64,
    /// CPU time of the whole process during the call.
    pub cpu_ns: u64,
    /// The allocator window of a [`Probe::Allocations`] call (zero otherwise).
    pub alloc: alloc::Window,
    pub rounds: u64,
    pub messages: u64,
    pub max_queue_len: usize,
    pub engine: EngineStats,
    /// `Err` names the first check the output failed.
    pub verdict: Result<(), String>,
}

enum Output {
    Driver(Result<dgr::Realized, dgr::RealizationError>),
    Warmup(
        Result<dgr::ncc::RunResult<CliqueWarmup>, dgr::ncc::SimError>,
        Network,
    ),
}

impl Prepared {
    /// Setup time: input generation plus request construction.
    pub fn setup_ns(&self) -> u64 {
        self.gen_ns + self.build_ns
    }

    /// Runs the request, timing only the call, then checks the output.
    pub fn run(self, probe: Probe) -> Outcome {
        let (sink, count_allocations) = match probe {
            Probe::Off => (None, false),
            Probe::Spans(sink) => (Some(sink), false),
            Probe::Allocations => (None, true),
        };
        let Prepared {
            kind,
            input,
            request,
            ..
        } = self;
        if count_allocations {
            alloc::start();
        }
        let (cpu0, t0) = (clock::cpu_ns(), clock::now());
        let output = catch_unwind(AssertUnwindSafe(|| match request {
            Request::Driver(realization) => Output::Driver(match sink {
                Some(sink) => realization.observe(sink).run(),
                None => realization.run(),
            }),
            Request::Warmup(net) => {
                let result = match sink {
                    Some(mut sink) => net.run_protocol_on(
                        EngineKind::Batched,
                        None,
                        Some(&mut sink),
                        PathToClique::new,
                    ),
                    None => net.run_protocol(PathToClique::new),
                };
                // The network is dropped after the timer stops.
                Output::Warmup(result, net)
            }
        }));
        let (wall_ns, cpu_ns) = (clock::since_ns(t0), clock::cpu_ns() - cpu0);
        let alloc = if count_allocations {
            alloc::stop()
        } else {
            alloc::Window::default()
        };
        let mut outcome = Outcome {
            started: t0,
            wall_ns,
            cpu_ns,
            alloc,
            rounds: 0,
            messages: 0,
            max_queue_len: 0,
            engine: EngineStats::default(),
            verdict: Ok(()),
        };
        outcome.verdict = match output {
            Err(_) => Err("the run panicked".to_string()),
            Ok(Output::Driver(Err(e))) => Err(format!("the run failed: {e}")),
            Ok(Output::Warmup(Err(e), _)) => Err(format!("the run failed: {e}")),
            Ok(Output::Driver(Ok(realized))) => {
                outcome.note(realized.metrics(), &realized.engine_stats);
                check_driver(kind, &input, &realized)
            }
            Ok(Output::Warmup(Ok(result), net)) => {
                outcome.note(&result.metrics, &result.engine);
                check_warmup(net.ids_in_path_order(), &result)
            }
        };
        outcome
    }
}

impl Outcome {
    fn note(&mut self, metrics: &RunMetrics, engine: &EngineStats) {
        self.rounds = metrics.rounds;
        self.messages = metrics.messages;
        self.max_queue_len = metrics.max_queue_len;
        self.engine = engine.clone();
    }
}

fn clean(metrics: &RunMetrics) -> Result<(), String> {
    if metrics.violations.total() != 0 {
        return Err(format!("{} model violations", metrics.violations.total()));
    }
    if metrics.undelivered != 0 {
        return Err(format!("{} messages undelivered", metrics.undelivered));
    }
    Ok(())
}

/// Degree runs: every path position's realized degree equals its requested
/// degree. Threshold runs: the max-flow certification passed.
fn check_driver(kind: Kind, input: &[usize], realized: &dgr::Realized) -> Result<(), String> {
    clean(realized.metrics())?;
    match kind {
        Kind::ImplicitDegrees => {
            let out = realized.degrees();
            if out.is_unrealizable() {
                return Err("a graphic sequence was refused".to_string());
            }
            let out = out.expect_realized();
            if out.path_order.len() != input.len() {
                return Err(format!(
                    "{} path positions for {} requested degrees",
                    out.path_order.len(),
                    input.len()
                ));
            }
            for (i, (&id, &want)) in out.path_order.iter().zip(input).enumerate() {
                let got = out.graph.degree_of(id);
                if got != want {
                    return Err(format!(
                        "path position {i} has degree {got}, requested {want}"
                    ));
                }
            }
            Ok(())
        }
        Kind::ThresholdCertify => {
            let report = &realized.threshold().report;
            if report.certified() {
                Ok(())
            } else {
                Err(format!(
                    "certification failed: {:?}",
                    report.first_violation
                ))
            }
        }
        Kind::WarmupFlood => unreachable!("the warm-up runs on a Network"),
    }
}

/// Warm-up runs: no KT0 violation, nothing undelivered, the expected round
/// count, and one output per path position whose contact table equals the
/// one computed sequentially from the network's path order.
fn check_warmup(ids: &[NodeId], result: &dgr::ncc::RunResult<CliqueWarmup>) -> Result<(), String> {
    clean(&result.metrics)?;
    if result.metrics.rounds != rounds_for(ids.len()) {
        return Err(format!(
            "{} rounds, expected {}",
            result.metrics.rounds,
            rounds_for(ids.len())
        ));
    }
    if result.outputs.len() != ids.len() {
        return Err(format!(
            "{} outputs for {} nodes",
            result.outputs.len(),
            ids.len()
        ));
    }
    let want = expected_contacts(ids);
    for (i, ((id, out), want)) in result.outputs.iter().zip(&want).enumerate() {
        if *id != ids[i] || out.contacts != *want {
            return Err(format!("path position {i} has the wrong contact table"));
        }
    }
    Ok(())
}

/// The power-of-two contact tables of a path, computed sequentially.
fn expected_contacts(ids: &[NodeId]) -> Vec<ContactTable> {
    let n = ids.len();
    let levels = dgr::primitives::levels_for(n);
    (0..n)
        .map(|i| ContactTable {
            fwd: (0..levels)
                .map(|k| ids.get(i + (1 << k)).copied())
                .collect(),
            bwd: (0..levels)
                .map(|k| i.checked_sub(1 << k).map(|j| ids[j]))
                .collect(),
        })
        .collect()
}
