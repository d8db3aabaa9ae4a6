//! The stack's benchmark: three workloads (`interactive`, `stream`,
//! `serve`) driven through the public entry points of `cr-core`,
//! `cr-store` and `cr-server`, with every input generated from `--seed`
//! before timing starts.
//!
//! ```text
//! perfbench --workload <interactive|stream|serve> --seed <n> --seconds <s>
//!           --trace <0|1> [--inject <wrong-value|drop-entity|lost-ack>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! metrics from spans recorded around each call. The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Every workload checks its own outputs; a wrong
//! output makes `correct` false and the exit code 1. `--inject` plants one
//! fault of the named kind so the self-test can show each gate trips.
//! See `README.md` in this directory for the metric table.

mod fig4;
mod interactive;
mod serve;
mod stream;
mod trace;

use std::time::{Duration, Instant};

/// Faults the self-test plants, one per correctness gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Corrupt one entity's final true values before the check.
    WrongValue,
    /// Lose one resolved entity on its way out of the scheduler.
    DropEntity,
    /// Lose the reply to one acknowledged mutation.
    LostAck,
}

/// Run parameters shared by the workloads.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Inject,
}

impl Params {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.5))
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs found by the workload's gates (each also in `failed`).
    pub wrong: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts and other context, printed to standard error.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Records a wrong output: counted as a failed operation and fatal for
    /// the run's exit code.
    pub fn wrong(&mut self, s: impl Into<String>) {
        self.failed += 1;
        if self.wrong.len() < 20 {
            self.wrong.push(s.into());
        }
    }

    /// The four timing figures of one layer.
    pub fn layer(&mut self, name: &str, s: trace::LayerStats) {
        self.metric(format!("{name}.calls"), s.calls as f64, "count");
        self.metric(format!("{name}.busy_us"), s.busy_us, "us");
        self.metric(format!("{name}.p50_us"), s.p50_us, "us");
        self.metric(format!("{name}.p99_us"), s.p99_us, "us");
    }
}

/// The end-to-end figures of one untraced run (see `README.md` for what
/// each means on each workload).
pub struct EndToEnd {
    pub setup_s: f64,
    /// `VmHWM` read when the measured work ended, before the final checks.
    pub peak_rss_mb: f64,
    pub first_ms: Latency,
    pub wait_ms: Latency,
    pub throughput_per_s: f64,
    pub answers_per_entity: f64,
    pub f_measure: f64,
}

/// The median and the tail of one latency figure, and how they were taken.
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    /// Steps, and the sum of their latencies.
    pub steps: usize,
    pub sum: f64,
    pub about: String,
}

impl Latency {
    /// One wait per step: the median over the step's repeated visits (a
    /// step is an entity's first wait or its wait after one answer). A host
    /// stall lands on one visit of a step, not on most of them, so the tail
    /// across steps is the program's.
    pub fn of_steps(mut samples: Vec<(u64, f64)>) -> Latency {
        let n = samples.len();
        samples.sort_by_key(|&(key, _)| key);
        let steps: Vec<f64> = samples
            .chunk_by(|a, b| a.0 == b.0)
            .map(|visits| trace::median(visits.iter().map(|&(_, ms)| ms).collect()))
            .collect();
        let sum = steps.iter().sum();
        let t = trace::tail_of(steps);
        Latency {
            p50: t.p50,
            tail: t.tail,
            steps: t.n,
            sum,
            about: format!(
                "{n} samples over {} steps, tail at p{:.2}",
                t.n,
                t.tail_rank * 100.0
            ),
        }
    }
}

pub fn emit_end_to_end(report: &mut Report, e: EndToEnd) {
    report.note(format!(
        "first_ms: {}; wait_ms: {}",
        e.first_ms.about, e.wait_ms.about
    ));
    report.metric("setup_s", e.setup_s, "s");
    report.metric("peak_rss_mb", e.peak_rss_mb, "MB");
    report.metric("first_ms_p50", e.first_ms.p50, "ms");
    report.metric("first_ms_p99", e.first_ms.tail, "ms");
    report.metric("wait_ms_p50", e.wait_ms.p50, "ms");
    report.metric("wait_ms_p99", e.wait_ms.tail, "ms");
    report.metric("throughput_per_s", e.throughput_per_s, "1/s");
    report.metric("answers_per_entity", e.answers_per_entity, "count");
    report.metric("f_measure", e.f_measure, "ratio");
}

/// Per-layer figures that are counts or ratios rather than span timings.
/// A layer a workload does not use reports 0.
#[derive(Default)]
pub struct Extras {
    pub injected_axioms: f64,
    pub asked_attrs: f64,
    pub resolved_per_answer: f64,
    pub retraction_invalidated: f64,
    pub cone_union: f64,
    pub replays_saved: f64,
    pub steals: f64,
    pub split_subtasks: f64,
    pub batch_tasks: f64,
    pub queue_high_water: f64,
    pub backpressure_stalls: f64,
    pub parallel_efficiency: f64,
    pub bytes_per_entity: f64,
    pub hit_ratio: f64,
    pub log_bytes_per_event: f64,
    pub events_replayed_per_rehydrate: f64,
    pub shed: f64,
    pub expired: f64,
    pub bytes_per_request: f64,
    pub queue_wait: trace::LayerStats,
    pub overhead_share: f64,
}

/// Emits every per-layer metric. Engine layers come from the spans of the
/// same name; on `serve` the engine runs inside the server, so they come
/// from the dispatch spans of the request kind that ends in that layer.
pub fn emit_layers(report: &mut Report, tr: &trace::Tracer, x: &Extras) {
    let engine = |name: &'static str, kinds: &'static [&'static str]| {
        tr.layer(move |s| s.name == name || (s.name == "server.dispatch" && kinds.contains(&s.tag)))
    };
    report.layer("ingest.session_new", tr.named("ingest.session_new"));
    report.layer("isvalid", engine("isvalid", &["is_valid"]));
    report.metric("isvalid.injected_axioms", x.injected_axioms, "count");
    report.layer("deduce", engine("deduce", &["deduce"]));
    report.layer("truevalue", engine("truevalue", &["true_values"]));
    report.layer("suggest", engine("suggest", &["suggest"]));
    report.metric("suggest.asked_attrs", x.asked_attrs, "count");
    report.metric(
        "suggest.resolved_per_answer",
        x.resolved_per_answer,
        "ratio",
    );
    report.layer(
        "ingest.apply_input",
        engine("ingest.apply_input", &["apply_input"]),
    );
    report.metric(
        "ingest.retraction_invalidated",
        x.retraction_invalidated,
        "count",
    );
    report.layer(
        "ingest.revision_batch",
        tr.layer(|s| {
            s.name == "server.dispatch" && matches!(s.tag, "ingest_causal" | "absorb_batch")
        }),
    );
    report.metric("ingest.cone_union", x.cone_union, "count");
    report.metric("ingest.replays_saved", x.replays_saved, "count");
    report.metric("sched.steals", x.steals, "count");
    report.metric("sched.split_subtasks", x.split_subtasks, "count");
    report.metric("sched.batch_tasks", x.batch_tasks, "count");
    report.metric("sched.queue_high_water", x.queue_high_water, "count");
    report.metric("sched.backpressure_stalls", x.backpressure_stalls, "count");
    report.metric("sched.parallel_efficiency", x.parallel_efficiency, "ratio");
    report.metric("encode.bytes_per_entity", x.bytes_per_entity, "bytes");
    report.layer(
        "store.mutation",
        tr.layer(|s| {
            s.name == "server.dispatch"
                && matches!(s.tag, "apply_input" | "ingest_causal" | "absorb_batch")
        }),
    );
    report.layer("store.rehydrate", tr.named("store.rehydrate"));
    report.layer(
        "store.snapshot",
        tr.layer(|s| s.name == "server.dispatch" && s.tag == "snapshot"),
    );
    report.metric("store.hit_ratio", x.hit_ratio, "ratio");
    report.metric("store.log_bytes_per_event", x.log_bytes_per_event, "bytes");
    report.metric(
        "store.events_replayed_per_rehydrate",
        x.events_replayed_per_rehydrate,
        "count",
    );
    report.layer("server.submit", tr.named("server.submit"));
    report.layer("server.dispatch", tr.named("server.dispatch"));
    report.layer("server.queue_wait", x.queue_wait);
    report.metric("server.shed", x.shed, "count");
    report.metric("server.expired", x.expired, "count");
    report.layer("codec.encode", tr.named("codec.encode"));
    report.layer("codec.decode", tr.named("codec.decode"));
    report.metric("codec.bytes_per_request", x.bytes_per_request, "bytes");
    report.metric("trace.unaccounted_share", tr.unaccounted_share(), "ratio");
    report.metric("trace.overhead_share", x.overhead_share, "ratio");
    report.note(format!(
        "{} spans; unaccounted {:.3}; tracing overhead {:.3}",
        tr.span_count(),
        tr.unaccounted_share(),
        x.overhead_share
    ));
}

/// Writes the run's spans under `.bench_out/` in the working directory.
pub fn write_spans(tr: &trace::Tracer, workload: &str, seed: u64, report: &mut Report) {
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{workload}-seed{seed}.jsonl"));
    match tr.write(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Set-ups timed per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Time the set-ups of one run take, at least: a set-up of a few
/// milliseconds is repeated until its median rests on this much work.
const SETUP_SECONDS: f64 = 2.0;

/// Times `setup` at least `SETUP_REPS` times and for at least
/// `SETUP_SECONDS`, keeping the last result; returns it with the median
/// set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_SECONDS {
        drop(last.take());
        let t = Instant::now();
        let v = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), trace::median(times))
}

fn arg(args: &[String], name: &str) -> Option<String> {
    // The last occurrence wins, so a default in the command line can be
    // overridden by appending the flag again.
    args.windows(2)
        .rev()
        .find(|w| w[0] == name)
        .map(|w| w[1].clone())
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <interactive|stream|serve> --seed <n> --seconds <s> \
         --trace <0|1> [--inject <wrong-value|drop-entity|lost-ack>]"
    );
    std::process::exit(2);
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = arg(&args, "--workload").unwrap_or_else(|| usage("missing --workload"));
    let seed = arg(&args, "--seed")
        .map(|s| {
            s.parse::<u64>()
                .unwrap_or_else(|_| usage("--seed must be a whole number"))
        })
        .unwrap_or(7);
    let seconds = arg(&args, "--seconds")
        .map(|s| {
            s.parse::<f64>()
                .unwrap_or_else(|_| usage("--seconds must be a number"))
        })
        .unwrap_or(10.0);
    let trace = match arg(&args, "--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace must be 0 or 1"),
    };
    let inject = match arg(&args, "--inject").as_deref() {
        None | Some("none") => Inject::None,
        Some("wrong-value") => Inject::WrongValue,
        Some("drop-entity") => Inject::DropEntity,
        Some("lost-ack") => Inject::LostAck,
        Some(other) => usage(&format!("unknown fault {other:?}")),
    };
    let params = Params {
        seed,
        seconds,
        trace,
        inject,
    };
    let report = match workload.as_str() {
        "interactive" => interactive::run(&params),
        "stream" => stream::run(&params),
        "serve" => serve::run(&params),
        other => usage(&format!("unknown workload {other:?}")),
    };

    for n in &report.notes {
        eprintln!("perfbench[{workload}]: {n}");
    }
    for w in &report.wrong {
        eprintln!("perfbench[{workload}]: WRONG: {w}");
    }
    let correct = report.wrong.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
