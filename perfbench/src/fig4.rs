//! One simulated user resolving one entity through the stepwise
//! `ResolutionSession` API: the loop of the paper's Fig. 4, step for step
//! as `Resolver::resolve` runs it, with the user's waits timed and each
//! call optionally wrapped in a span.

use std::time::Instant;

use cr_core::framework::{DeductionMethod, GroundTruthOracle, UserOracle};
use cr_core::{ResolutionConfig, ResolutionSession, Specification, TrueValues};
use cr_types::Tuple;

use crate::trace::Tracer;

/// Counts gathered at the layer boundaries of traced entities.
#[derive(Default)]
pub struct Counts {
    pub sessions: usize,
    pub encode_bytes: usize,
    pub injected_axioms: usize,
    pub suggestions: usize,
    pub asked_attrs: usize,
    pub answers_deduced_after: usize,
    pub newly_known: usize,
    pub retraction_invalidated: usize,
}

impl Counts {
    /// Moves the counts into the per-layer extras.
    pub fn fill(&self, x: &mut crate::Extras) {
        x.injected_axioms = self.injected_axioms as f64;
        x.asked_attrs = self.asked_attrs as f64 / self.suggestions.max(1) as f64;
        x.resolved_per_answer = self.newly_known as f64 / self.answers_deduced_after.max(1) as f64;
        x.retraction_invalidated = self.retraction_invalidated as f64;
        x.bytes_per_entity = self.encode_bytes as f64 / self.sessions.max(1) as f64;
    }
}

/// Result of one entity's loop.
pub struct Visit {
    pub resolved: TrueValues,
    pub answers: usize,
}

/// Waits the user sat through, in milliseconds, each keyed by the step it
/// belongs to (`step_key`), so that repeated visits of one step can be
/// told apart from different steps.
#[derive(Default)]
pub struct Waits {
    /// From opening the session to the first suggestion or settlement.
    pub first_ms: Vec<(u64, f64)>,
    /// From an answer to the next suggestion or settlement.
    pub round_ms: Vec<(u64, f64)>,
}

impl Waits {
    /// Records the wait of entity `id` that ends now: its first wait when
    /// `round` is 0, else the wait after its `round`-th answer.
    pub fn push(&mut self, id: u64, round: usize, ms: f64) {
        if round == 0 {
            self.first_ms.push((step_key(id, 0), ms));
        } else {
            self.round_ms.push((step_key(id, round), ms));
        }
    }
}

/// The key of step `round` of entity `id`.
pub fn step_key(id: u64, round: usize) -> u64 {
    (id << 8) | round as u64
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Resolves `spec` with the cap-1 ground-truth user, recording the waits
/// into `waits`, spans into `tr` (when on) and layer counts into `counts`
/// (when tracing).
pub fn resolve(
    config: &ResolutionConfig,
    spec: &Specification,
    truth: &Tuple,
    id: u64,
    tr: &mut Tracer,
    waits: &mut Waits,
    counts: &mut Counts,
) -> Visit {
    let traced = tr.on();
    let opened = Instant::now();
    let root = tr.begin("entity", id);
    let s = tr.begin("ingest.session_new", id);
    let mut session = ResolutionSession::new(config, spec);
    tr.end(s);
    if traced {
        counts.sessions += 1;
        counts.encode_bytes += session.encoded().approx_bytes();
    }
    let mut oracle = GroundTruthOracle::with_cap(truth.clone(), 1);
    let mut last_values = TrueValues::new(vec![None; spec.schema().arity()]);
    let mut answers = 0;
    // When the current wait started, and how many answers came before it.
    let mut mark = opened;
    let mut waited = 0;
    // Known attributes before the last answer, for the useful-work ratio.
    let mut known_before_answer: Option<(usize, usize)> = None;
    let mut settled = true;

    for round in 0..=config.max_rounds {
        let axioms_before = if traced { session.injected_axioms() } else { 0 };
        let s = tr.begin("isvalid", id);
        let valid = session.is_valid();
        tr.end(s);
        if traced {
            counts.injected_axioms += session.injected_axioms() - axioms_before;
        }
        if !valid {
            break;
        }
        let s = tr.begin("deduce", id);
        let od = session
            .deduce(DeductionMethod::UnitPropagation)
            .expect("deduction cannot conflict on a valid specification");
        tr.end(s);
        let s = tr.begin("truevalue", id);
        last_values = session.true_values(&od);
        tr.end(s);
        if let Some((before, n)) = known_before_answer.take() {
            counts.answers_deduced_after += n;
            counts.newly_known += last_values.known_count().saturating_sub(before);
        }
        if last_values.complete() || round == config.max_rounds {
            break;
        }
        let s = tr.begin("suggest", id);
        let sug = session.suggest(&od, &last_values);
        tr.end(s);
        waits.push(id, waited, ms_since(mark));
        waited += 1;
        if traced {
            counts.suggestions += 1;
            counts.asked_attrs += sug.len();
        }
        let input = oracle.provide(spec.schema(), &sug);
        if input.is_empty() {
            // The user settles with the values derived so far; the wait
            // for this suggestion was already recorded.
            settled = false;
            break;
        }
        answers += input.values.len();
        known_before_answer = Some((last_values.known_count(), input.values.len()));
        mark = Instant::now();
        let invalidated_before = if traced { session.replays().1 } else { 0 };
        let s = tr.begin("ingest.apply_input", id);
        session.apply_input(&input);
        tr.end(s);
        if traced {
            counts.retraction_invalidated += session.replays().1 - invalidated_before;
        }
    }
    if settled {
        waits.push(id, waited, ms_since(mark));
    }
    tr.end(root);
    Visit {
        resolved: last_values,
        answers,
    }
}

/// The engine configuration every workload resolves with: the library
/// default (lazy axioms, incremental, unit-propagation deduce) at
/// `max_rounds` 10.
pub fn config() -> ResolutionConfig {
    ResolutionConfig {
        max_rounds: 10,
        ..ResolutionConfig::default()
    }
}
