//! `interactive`: closed-loop Fig. 4 sessions, one simulated user at a
//! time. Each entity's session is driven step by step (`new`, then
//! `is_valid`, `deduce`, `true_values`, `suggest`, then `apply_input`,
//! repeated) by a cap-1 ground-truth user who waits for every suggestion.
//!
//! Inputs: the seed datasets `nba` and `person` at a 0.6 constraint
//! fraction and `career` as generated (the mix `bench_incremental` runs),
//! plus `cr_data::gen` wide-domain scenarios that isolate lazy-axiom and
//! CDCL cost. The entities are visited in a seeded order, pass after pass,
//! until the run's time is spent.

use std::sync::Arc;
use std::time::Instant;

use cr_core::framework::GroundTruthOracle;
use cr_core::{Accuracy, CompiledProgram, ResolutionConfig, Resolver, Specification};
use cr_data::gen::ScenarioConfig;
use cr_data::{career, nba, person};
use cr_types::{Tuple, Value};

use crate::fig4::{self, Counts, Waits};
use crate::trace::{self, Rng, Tracer};
use crate::{Inject, Params, Report};

const NBA_ENTITIES: usize = 600;
const PERSON_ENTITIES: usize = 160;
const CAREER_ENTITIES: usize = 180;
const WIDE_ENTITIES: usize = 160;
const CONSTRAINT_FRACTION: f64 = 0.6;
/// Entities also resolved on the from-scratch path as a second referee.
const SCRATCH_SAMPLE: usize = 4;

pub struct Case {
    pub label: &'static str,
    pub spec: Specification,
    pub truth: Tuple,
}

/// The entities of a seed dataset. With `subsample`, each entity keeps its
/// own seeded 60% of Σ and Γ, compiled into its own program at set-up, so
/// a run averages over many constraint draws instead of resting on one.
fn seeded(label: &'static str, ds: &cr_data::Dataset, subsample: Option<u64>) -> Vec<Case> {
    (0..ds.len())
        .map(|i| {
            let spec = match subsample {
                Some(s) => {
                    let draw = s.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9));
                    let spec = ds.spec(i).with_constraint_fraction(
                        CONSTRAINT_FRACTION,
                        CONSTRAINT_FRACTION,
                        draw,
                    );
                    let table = ds.value_table().map(|t| t.as_ref());
                    spec.set_compiled_program(Arc::new(CompiledProgram::compile(
                        spec.sigma(),
                        spec.gamma(),
                        table,
                    )));
                    spec
                }
                None => ds.spec(i),
            };
            Case {
                label,
                spec,
                truth: ds.truth(i).clone(),
            }
        })
        .collect()
}

/// Generates every input of the workload from `seed`.
pub fn cases(seed: u64) -> Vec<Case> {
    let nba_sizes: Vec<usize> = (0..NBA_ENTITIES)
        .map(|i| 27 + (i * 108) / NBA_ENTITIES)
        .collect();
    let person_sizes: Vec<usize> = (0..PERSON_ENTITIES)
        .map(|i| 100 + (i * 150) / PERSON_ENTITIES)
        .collect();
    let sub = Some(seed.wrapping_add(11));
    let mut out = seeded("nba", &nba::generate_with_sizes(&nba_sizes, seed), sub);
    out.extend(seeded(
        "person",
        &person::generate_with_sizes(&person_sizes, seed),
        sub,
    ));
    out.extend(seeded(
        "career",
        &career::generate(career::CareerConfig {
            entities: CAREER_ENTITIES,
            seed,
            ..Default::default()
        }),
        None,
    ));
    for i in 0..WIDE_ENTITIES {
        let s = cr_data::gen::scenario(&ScenarioConfig {
            seed: seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
            attrs: 5,
            tuples: 60,
            domain: 48,
            conflict_density: 1.0,
            null_density: 0.02,
            sigma: 8,
            gamma: 3,
            order_density: 0.1,
            new_value_answers: i % 2 == 1,
        });
        out.push(Case {
            label: "wide",
            spec: s.spec,
            truth: s.truth,
        });
    }
    out
}

pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let (cases, setup_s) = crate::timed_setup(|| cases(p.seed));
    let config = fig4::config();

    // Referees, computed before timing: the library's own loop on every
    // entity, and the paper's from-scratch loop on a seeded sample.
    let resolver = Resolver::new(config);
    let reference: Vec<_> = cases
        .iter()
        .map(|c| {
            resolver.resolve(
                &c.spec,
                &mut GroundTruthOracle::with_cap(c.truth.clone(), 1),
            )
        })
        .collect();
    let scratch = Resolver::new(ResolutionConfig {
        incremental: false,
        ..config
    });
    let mut rng = Rng::new(p.seed ^ 0x1A7E_2AC7);
    for _ in 0..SCRATCH_SAMPLE {
        let i = rng.below(cases.len());
        let c = &cases[i];
        let o = scratch.resolve(
            &c.spec,
            &mut GroundTruthOracle::with_cap(c.truth.clone(), 1),
        );
        if o.resolved != reference[i].resolved || o.user_values != reference[i].user_values {
            report.wrong(format!(
                "{} entity {i}: scratch path disagrees with the incremental engine",
                c.label
            ));
        }
    }

    let mut tr = Tracer::new(false);
    let mut waits = Waits::default();
    let mut counts = Counts::default();
    let mut pass_rates = Vec::new();
    // Traced runs visit each entity twice in a row, untraced then traced;
    // the pair's times give the tracing overhead.
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut first_visit: Vec<Option<fig4::Visit>> = (0..cases.len()).map(|_| None).collect();
    let mut visits = 0u64;
    let budget = p.budget();
    let start = Instant::now();
    let mut pass = 0u64;
    'run: loop {
        let mut order: Vec<usize> = (0..cases.len()).collect();
        rng.shuffle(&mut order);
        let pass_start = Instant::now();
        for &i in &order {
            if start.elapsed() >= budget && pass > 0 {
                break 'run;
            }
            let c = &cases[i];
            // A traced run visits the entity twice in a row, untraced and
            // traced, in alternating order so neither visit always finds
            // the caches warm.
            let modes: &[bool] = match (p.trace, visits % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            let mut visit = None;
            for &traced in modes {
                tr.set_on(traced);
                let t = Instant::now();
                let v = fig4::resolve(
                    &config,
                    &c.spec,
                    &c.truth,
                    i as u64,
                    &mut tr,
                    &mut waits,
                    &mut counts,
                );
                let secs = t.elapsed().as_secs_f64();
                tr.set_on(false);
                if traced {
                    traced_s += secs;
                } else {
                    untraced_s += secs;
                }
                visit = Some(v);
            }
            let mut visit = visit.expect("at least one visit");
            visits += 1;
            if p.inject == Inject::WrongValue && visits == 1 {
                let mut values = visit.resolved.as_slice().to_vec();
                values[0] = Some(Value::str("injected-wrong-value"));
                visit.resolved = cr_core::TrueValues::new(values);
            }
            let want = &reference[i];
            if visit.resolved != want.resolved || visit.answers != want.user_values {
                report.wrong(format!(
                    "{} entity {i}: stepwise session gave {:?} after {} answers, Resolver::resolve gave {:?} after {}",
                    c.label, visit.resolved, visit.answers, want.resolved, want.user_values
                ));
            }
            if first_visit[i].is_none() {
                first_visit[i] = Some(visit);
            }
        }
        let secs = pass_start.elapsed().as_secs_f64();
        pass_rates.push(cases.len() as f64 / secs);
        pass += 1;
    }
    let peak_rss_mb = trace::peak_rss_mb();
    report.attempted = visits;

    let mut acc = Accuracy::new();
    let (mut first_answers, mut visited) = (0usize, 0usize);
    for (c, v) in cases.iter().zip(&first_visit) {
        if let Some(v) = v {
            acc.add_entity(c.spec.entity(), &c.truth, &v.resolved);
            first_answers += v.answers;
            visited += 1;
        }
    }
    report.note(format!(
        "{} entities, {visits} sessions in {pass} full passes, {} first waits, {} round waits, setup {setup_s:.4}s",
        cases.len(),
        waits.first_ms.len(),
        waits.round_ms.len()
    ));

    if p.trace {
        let mut x = crate::Extras::default();
        counts.fill(&mut x);
        x.overhead_share = if untraced_s > 0.0 {
            traced_s / untraced_s - 1.0
        } else {
            0.0
        };
        crate::emit_layers(&mut report, &tr, &x);
        crate::write_spans(&tr, "interactive", p.seed, &mut report);
    } else {
        crate::emit_end_to_end(
            &mut report,
            crate::EndToEnd {
                setup_s,
                peak_rss_mb,
                first_ms: crate::Latency::of_steps(waits.first_ms),
                wait_ms: crate::Latency::of_steps(waits.round_ms),
                throughput_per_s: trace::median(pass_rates),
                answers_per_entity: first_answers as f64 / visited.max(1) as f64,
                f_measure: acc.f_measure().f_measure,
            },
        );
    }
    report
}
