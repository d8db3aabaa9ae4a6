//! `stream`: a seeded power-law entity population, generated into memory
//! at set-up and resolved through `cr_core::sched::resolve_stream` by two
//! scheduler workers behind the default bounded queue, with the cap-1
//! ground-truth user. Passes over the whole population repeat until the
//! run's time is spent.
//!
//! The user is wrapped so that the waits it sits through are timed on the
//! worker threads: from the start of an entity's resolution (when the
//! worker asks for its user) to its first suggestion, and from each
//! answer to the next suggestion; the sink closes the last wait.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cr_core::framework::{GroundTruthOracle, UserOracle};
use cr_core::sched::{resolve_stream, SchedulerConfig};
use cr_core::spec::UserInput;
use cr_core::{Accuracy, ResolutionOutcome, Resolver, Specification, Suggestion, TrueValues};
use cr_data::gen::{PowerLawConfig, PowerLawDataset};
use cr_types::{Schema, Tuple, Value};

use crate::fig4::{self, Counts, Waits};
use crate::trace::{self, Rng, Tracer};
use crate::{Inject, Params, Report};

/// The population is drawn in shards, each a `PowerLawDataset` with its
/// own Σ/Γ, so that a run averages over many constraint structures instead
/// of resting on one.
const SHARDS: usize = 1000;
const PER_SHARD: usize = 3;
const MAX_TUPLES: usize = 64;
const GIANTS: usize = 2;
const WORKERS: usize = 2;
/// Entities the traced run drives serially through the session API.
const TRACE_SAMPLE: usize = 200;

struct Inputs {
    specs: Vec<Specification>,
    truths: Vec<Tuple>,
}

fn inputs(seed: u64) -> Inputs {
    let mut inp = Inputs {
        specs: Vec::new(),
        truths: Vec::new(),
    };
    for shard in 0..SHARDS {
        let ds = PowerLawDataset::new(&PowerLawConfig {
            seed: (seed ^ 0xCA1E)
                .wrapping_mul(1_000_003)
                .wrapping_add(shard as u64),
            entities: PER_SHARD,
            max_tuples: MAX_TUPLES,
            giants: if shard == 0 { GIANTS } else { 0 },
            ..Default::default()
        });
        inp.specs.extend(ds.specs());
        inp.truths.extend((0..ds.len()).map(|i| ds.truth(i)));
    }
    inp
}

/// Order-insensitive digest of one entity's outcome: summed with wrapping
/// addition so out-of-order sink calls compare against a serial pass.
fn digest(i: usize, o: &ResolutionOutcome) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    i.hash(&mut h);
    o.valid.hash(&mut h);
    o.complete.hash(&mut h);
    o.interactions.hash(&mut h);
    o.user_values.hash(&mut h);
    format!("{:?}", o.resolved).hash(&mut h);
    h.finish()
}

/// Per-entity clocks of one pass, in nanoseconds since the pass started.
struct PassClock {
    t0: Instant,
    last: Vec<AtomicU64>,
    asked: Vec<AtomicUsize>,
    waits: Mutex<Waits>,
}

impl PassClock {
    fn new(n: usize) -> Self {
        PassClock {
            t0: Instant::now(),
            last: (0..n).map(|_| AtomicU64::new(0)).collect(),
            asked: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            waits: Mutex::new(Waits::default()),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Closes the wait of entity `i` that ends now.
    fn close_wait(&self, i: usize) {
        let now = self.now();
        let since = self.last[i].swap(now, Ordering::Relaxed);
        let ms = now.saturating_sub(since) as f64 / 1e6;
        let round = self.asked[i].fetch_add(1, Ordering::Relaxed);
        self.waits
            .lock()
            .expect("a wait recorder panicked")
            .push(i as u64, round, ms);
    }
}

/// The cap-1 ground-truth user, timing the waits it sits through.
struct TimedUser<'a> {
    i: usize,
    inner: GroundTruthOracle,
    clock: &'a PassClock,
}

impl UserOracle for TimedUser<'_> {
    fn provide(&mut self, schema: &Schema, suggestion: &Suggestion) -> UserInput {
        self.clock.close_wait(self.i);
        let input = self.inner.provide(schema, suggestion);
        // The next wait starts when the answer is handed back.
        self.clock.last[self.i].store(self.clock.now(), Ordering::Relaxed);
        input
    }
}

/// One `resolve_stream` pass over every entity.
struct Pass {
    secs: f64,
    drained: usize,
    digest: u64,
    waits: Waits,
    outcomes: Vec<Option<ResolutionOutcome>>,
    telemetry: cr_core::SchedTelemetry,
}

fn stream_pass(resolver: &Resolver, inp: &Inputs, keep: bool, drop_one: bool) -> Pass {
    let n = inp.specs.len();
    let clock = PassClock::new(n);
    let sum = AtomicU64::new(0);
    let drained = AtomicUsize::new(0);
    let kept: Mutex<Vec<Option<ResolutionOutcome>>> = Mutex::new(if keep {
        (0..n).map(|_| None).collect()
    } else {
        Vec::new()
    });
    let config = SchedulerConfig::with_workers(WORKERS);
    let start = Instant::now();
    let telemetry = resolve_stream(
        resolver,
        inp.specs.iter().cloned(),
        &|i| {
            let now = clock.now();
            clock.last[i].store(now, Ordering::Relaxed);
            TimedUser {
                i,
                inner: GroundTruthOracle::with_cap(inp.truths[i].clone(), 1),
                clock: &clock,
            }
        },
        &config,
        &|i, o: ResolutionOutcome| {
            // The user was not asked again after the last answer (or never):
            // the settlement closes the open wait.
            let settled_after_answer = o.user_values == clock.asked[i].load(Ordering::Relaxed);
            if settled_after_answer {
                clock.close_wait(i);
            }
            if drop_one && i == 0 {
                return;
            }
            sum.fetch_add(digest(i, &o), Ordering::Relaxed);
            drained.fetch_add(1, Ordering::Relaxed);
            if keep {
                kept.lock().expect("a sink panicked")[i] = Some(o);
            }
        },
    );
    let secs = start.elapsed().as_secs_f64();
    Pass {
        secs,
        drained: drained.into_inner(),
        digest: sum.into_inner(),
        waits: clock.waits.into_inner().expect("a wait recorder panicked"),
        outcomes: kept.into_inner().expect("a sink panicked"),
        telemetry,
    }
}

pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let (inp, setup_s) = crate::timed_setup(|| inputs(p.seed));
    let config = fig4::config();
    let resolver = Resolver::new(config);
    let n = inp.specs.len();

    // Serial reference, before timing: every outcome and their digest.
    let serial_start = Instant::now();
    let reference: Vec<ResolutionOutcome> = inp
        .specs
        .iter()
        .zip(&inp.truths)
        .map(|(s, t)| resolver.resolve(s, &mut GroundTruthOracle::with_cap(t.clone(), 1)))
        .collect();
    let serial_secs = serial_start.elapsed().as_secs_f64();
    let want_digest = reference
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, o)| acc.wrapping_add(digest(i, o)));

    let budget = p.budget();
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut waits = Waits::default();
    let mut passes = 0u64;
    let mut first_pass: Option<Pass> = None;
    let mut telemetry = cr_core::SchedTelemetry::default();
    let mut stream_secs = Vec::new();
    // The traced run keeps one stream pass for the scheduler layer and
    // spends the rest of its time on the serial, traced sample.
    while passes == 0 || (!p.trace && start.elapsed() < budget) {
        let mut pass = stream_pass(
            &resolver,
            &inp,
            passes == 0,
            passes == 0 && p.inject == Inject::DropEntity,
        );
        if pass.drained != n {
            report.wrong(format!(
                "pass {passes}: {} of {n} entities drained",
                pass.drained
            ));
        } else if pass.digest != want_digest {
            report.wrong(format!(
                "pass {passes}: outcome digest differs from the serial reference"
            ));
        }
        rates.push(n as f64 / pass.secs);
        stream_secs.push(pass.secs);
        waits.first_ms.append(&mut pass.waits.first_ms);
        waits.round_ms.append(&mut pass.waits.round_ms);
        telemetry = pass.telemetry;
        passes += 1;
        if first_pass.is_none() {
            first_pass = Some(pass);
        }
    }
    report.attempted = passes * n as u64;
    let peak_rss_mb = trace::peak_rss_mb();

    // Per-entity check of the first pass, and the accuracy figures.
    let first = first_pass.expect("at least one pass");
    let mut acc = Accuracy::new();
    let mut answers = 0usize;
    for (i, o) in first.outcomes.iter().enumerate() {
        let Some(o) = o else { continue };
        let mut resolved: TrueValues = o.resolved.clone();
        if p.inject == Inject::WrongValue && i == 0 {
            let mut values = resolved.as_slice().to_vec();
            values[0] = Some(Value::str("injected-wrong-value"));
            resolved = TrueValues::new(values);
        }
        if resolved != reference[i].resolved || o.user_values != reference[i].user_values {
            report.wrong(format!(
                "entity {i}: stream outcome differs from the serial reference"
            ));
        }
        acc.add_entity(inp.specs[i].entity(), &inp.truths[i], &resolved);
        answers += o.user_values;
    }

    if p.trace {
        let mut tr = Tracer::new(false);
        let mut counts = Counts::default();
        let mut sample: Vec<usize> = (0..n).collect();
        Rng::new(p.seed ^ 0x05A3_B1E5).shuffle(&mut sample);
        sample.truncate(TRACE_SAMPLE);
        let mut scratch_waits = Waits::default();
        let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
        let mut round = 0u64;
        while round < 2 || start.elapsed() < budget {
            let traced = round % 2 == 1;
            tr.set_on(traced);
            let t = Instant::now();
            for &i in &sample {
                let v = fig4::resolve(
                    &config,
                    &inp.specs[i],
                    &inp.truths[i],
                    i as u64,
                    &mut tr,
                    &mut scratch_waits,
                    &mut counts,
                );
                if v.resolved != reference[i].resolved || v.answers != reference[i].user_values {
                    report.wrong(format!(
                        "entity {i}: stepwise session differs from the serial reference"
                    ));
                }
            }
            if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(t.elapsed().as_secs_f64());
            round += 1;
        }
        tr.set_on(false);
        let mut x = crate::Extras::default();
        counts.fill(&mut x);
        x.overhead_share = overhead(&traced_s, &untraced_s);
        x.steals = telemetry.steals as f64;
        x.split_subtasks = telemetry.split_subtasks as f64;
        x.batch_tasks = telemetry.batch_tasks as f64;
        x.queue_high_water = telemetry.queue_high_water as f64;
        x.backpressure_stalls = telemetry.backpressure_stalls as f64;
        x.parallel_efficiency = serial_secs / (WORKERS as f64 * trace::median(stream_secs));
        crate::emit_layers(&mut report, &tr, &x);
        crate::write_spans(&tr, "stream", p.seed, &mut report);
    } else {
        report.note(format!(
            "{n} entities x {passes} passes; serial reference {serial_secs:.3}s; setup {setup_s:.4}s"
        ));
        crate::emit_end_to_end(
            &mut report,
            crate::EndToEnd {
                setup_s,
                peak_rss_mb,
                first_ms: crate::Latency::of_steps(waits.first_ms),
                wait_ms: crate::Latency::of_steps(waits.round_ms),
                throughput_per_s: trace::median(rates),
                answers_per_entity: answers as f64 / n as f64,
                f_measure: acc.f_measure().f_measure,
            },
        );
    }
    report
}

/// Relative cost of tracing: median traced pass over median untraced.
fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    let (t, u) = (
        trace::median(traced.to_vec()),
        trace::median(untraced.to_vec()),
    );
    if u > 0.0 {
        t / u - 1.0
    } else {
        0.0
    }
}
