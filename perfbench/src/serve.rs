//! `serve`: an open-loop generator on a wall-clock schedule (1 tick =
//! 1 ms) against one `cr_server::Server` over a `SessionStore` with a
//! `MemoryBackend`. With a `FileBackend`, fsync per commit, the benchmark
//! did not repeat: on a 2-vCPU virtual machine the fsync time moved with
//! the host's disk load, and runs of one seed read a p50 of 0.9 to 1.3 ms. Everything above the backend (the log's framing and checksums,
//! snapshots, rehydration by replay) runs the same over memory.
//!
//! Sessions outnumber the store's `max_live`, and their popularity is
//! skewed (Zipf), so LRU eviction and rehydration happen. Four tenants
//! share the sessions. Each session is one simulated user working through
//! Fig. 4 over the wire: `Suggest` reads tell it what to answer, and
//! `ApplyInput` writes answer one asked attribute from the ground truth
//! (or, with no question open, give the next ground-truth value). Beside
//! them run the other reads (`IsValid`, `Deduce`, `TrueValues`) and
//! writes: `IngestCausal` batches from a `cr_data::chaos`-reordered causal
//! timeline, `AbsorbBatch` revisions and `Snapshot`. Every request and
//! reply passes through `encode_message` / `decode_message`.
//!
//! The request sequence (which session, which kind) is drawn from the seed
//! at set-up, and each session gets as many causal and revision batches as
//! the sequence sends it, so no write falls back to a read.
//!
//! Request `k` of the sequence is due at `k / rate` seconds. The one driver
//! thread submits each request when it is due (or as soon as it can, if
//! late) and dispatches at once, so the queue of late requests lives in
//! the generator and its wait is reported as `server.queue_wait`.
//!
//! The seed gives `POPULATIONS` independent populations, each its own
//! sessions and request sequence. Each population runs `REPEATS` times at
//! the base rate, each time on a fresh store; the repeats send identical
//! requests over identical state, and a request's latency (send to decoded
//! reply) is the median of its repeats. Finally, untimed, every user of
//! the last run finishes its loop.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cr_core::causal::{CausalRevision, CausalRevisionSource};
use cr_core::framework::DeductionMethod;
use cr_core::ingest::{Revision, RevisionSource};
use cr_core::spec::UserInput;
use cr_core::{Accuracy, Specification, TrueValues};
use cr_data::chaos::{chaos, ChaosConfig};
use cr_data::gen::{
    causal_timeline, revision_timeline, scenario, CausalTimelineConfig, RevisionTimelineConfig,
    ScenarioConfig,
};
use cr_server::admission::AdmissionConfig;
use cr_server::proto::{
    decode_message, encode_message, Message, Reply, Request, Response, ServeError,
};
use cr_server::Server;
use cr_store::{
    decode_log, reference_of, verify_recovery, LogRecord, MemoryBackend, SessionId, SessionStore,
    StorageBackend, StoreConfig,
};
use cr_types::wire::{Envelope, IdemKey, RequestId, TenantId};
use cr_types::{AttrId, Tuple};

use crate::trace::{self, LayerStats, Rng, Tracer};
use crate::{Inject, Params, Report};

/// Sessions per population: enough that the cold tail is not set by a
/// handful of them (with 128, the p99 moved by 60% between seeds).
const SESSIONS: usize = 512;
/// Engines the store keeps live: a quarter of the sessions, so that about
/// 30% of the requests find their session cold.
const MAX_LIVE: usize = 128;
/// Tenants: the fleet's default (`cr_data::fleet::FleetConfig`) of four
/// clients, each its own tenant.
const TENANTS: u32 = 4;
/// Zipf exponent of session popularity: YCSB's default request
/// distribution constant.
const ZIPF_S: f64 = 0.99;
/// Requests per second of the base rate: about a third of the capacity
/// the benchmark measures on a 2-vCPU virtual machine (700–1050/s), so
/// the generator is rarely late.
const BASE_RATE: f64 = 300.0;
/// Independent populations (sessions and request sequence) drawn from
/// the seed, so that the figures of a run rest on more than one draw.
const POPULATIONS: usize = 3;
/// Times each population runs at the base rate, each time on a fresh store.
const REPEATS: usize = 3;
/// Share of the sequence that warms the live set and is not measured.
const WARM_SHARE: f64 = 0.1;
/// Envelope deadline, in ticks after the request was due: long enough
/// that a host stall of a few hundred milliseconds does not expire the
/// requests due during it.
const DEADLINE_TICKS: u64 = 2000;
/// User steps a session may take to settle after the base rate.
const SETTLE_STEPS: usize = 24;

/// Request weights, from the fleet's default script
/// (`cr_data::fleet::FleetConfig::default()`): per four clients, 12 inputs,
/// 4 reads of each kind, 8 revision batches, 12 causal events in batches
/// of 1–3 (6 batches on average) and one snapshot.
const MIX: [(Kind, u32); 8] = [
    (Kind::Input, 12),
    (Kind::Suggest, 4),
    (Kind::IsValid, 4),
    (Kind::Deduce, 4),
    (Kind::TrueValues, 4),
    (Kind::IngestCausal, 6),
    (Kind::AbsorbBatch, 8),
    (Kind::Snapshot, 1),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// The user's input: the answer to an attribute the last suggestion
    /// asked about, or, with no question open, the ground-truth value of
    /// the next attribute in turn.
    Input,
    /// The user asks what to answer next.
    Suggest,
    /// One step of a user finishing its Fig. 4 loop (not in `MIX`): answer
    /// an open question, or ask for a suggestion.
    UserStep,
    IsValid,
    Deduce,
    TrueValues,
    IngestCausal,
    AbsorbBatch,
    Snapshot,
}

/// One session's generated inputs.
struct SessionData {
    spec: Specification,
    truth: Tuple,
    /// Causal batches, in chaos delivery order.
    causal: Vec<Vec<CausalRevision>>,
    /// Plain revision batches of one revision each, as the fleet sends them.
    revisions: Vec<Vec<Revision>>,
}

/// Every input of the workload, generated from the seed.
struct Inputs {
    sessions: Vec<SessionData>,
    /// The request sequence: the first `warm` requests warm the live set,
    /// the rest are measured.
    sequence: Vec<(usize, Kind)>,
    warm: usize,
}

/// Draws the request sequence: session `i` is the `i`-th most popular
/// (Zipf), kinds by `MIX`. Ranking sessions by index keeps each seed's
/// size-by-rank the same, so that a seed does not change the workload by
/// making its most popular session a large or a small one.
fn sequence(seed: u64, len: usize) -> Vec<(usize, Kind)> {
    let mut rng = Rng::new(seed ^ 0x21FF);
    let mut total = 0.0;
    let popularity: Vec<f64> = (0..SESSIONS)
        .map(|rank| {
            total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
            total
        })
        .collect();
    let weights: u32 = MIX.iter().map(|&(_, w)| w).sum();
    (0..len)
        .map(|_| {
            let x = rng.unit() * total;
            let session = popularity.partition_point(|&c| c < x).min(SESSIONS - 1);
            let mut w = rng.below(weights as usize) as u32;
            let kind = MIX
                .iter()
                .find(|&&(_, k)| {
                    let hit = w < k;
                    w = w.saturating_sub(k);
                    hit
                })
                .map_or(Kind::Input, |&(kind, _)| kind);
            (session, kind)
        })
        .collect()
}

/// Generates session `i`'s scenario with `causal_batches` causal and
/// `revision_batches` revision batches.
fn session_data(
    seed: u64,
    i: usize,
    causal_batches: usize,
    revision_batches: usize,
) -> SessionData {
    let s_seed = seed.wrapping_mul(0x1_0000).wrapping_add(i as u64);
    let sc = scenario(&ScenarioConfig {
        seed: s_seed,
        attrs: 5,
        tuples: 32 + i % 16,
        domain: 16,
        order_density: 0.1,
        conflict_density: 1.0,
        null_density: 0.02,
        ..ScenarioConfig::default()
    });
    let mut causal = Vec::new();
    if causal_batches > 0 {
        // Two events per batch on average, as in the fleet's 1–3.
        let rounds = causal_batches;
        let timeline = causal_timeline(
            &sc.spec,
            &CausalTimelineConfig {
                seed: s_seed ^ 0xF1EE,
                sources: 2,
                events: 2 * causal_batches,
                rounds,
                burst: 2,
                sync_density: 0.2,
                ..CausalTimelineConfig::default()
            },
        );
        let mut delivery = chaos(
            &timeline,
            &sc.spec,
            &ChaosConfig::schedule_preserving(s_seed),
        );
        // Duplicates land up to two rounds late.
        let events: Vec<CausalRevision> = (0..rounds + 3)
            .flat_map(|round| delivery.poll(round, &sc.spec))
            .collect();
        let n = events.len();
        causal = (0..causal_batches)
            .map(|j| events[j * n / causal_batches..(j + 1) * n / causal_batches].to_vec())
            .filter(|b| !b.is_empty())
            .collect();
    }
    let mut plain = revision_timeline(
        &sc.spec,
        &RevisionTimelineConfig {
            seed: s_seed ^ 0xAB50,
            events: revision_batches,
            rounds: 1,
            burst: 1,
            retract_cfds: true,
            withdraw_orders: true,
            replace_values: true,
            withdraw_answer_rounds: Vec::new(),
        },
    );
    let revisions = plain
        .poll(0, &sc.spec)
        .into_iter()
        .map(|r| vec![r])
        .collect();
    SessionData {
        spec: sc.spec,
        truth: sc.truth,
        causal,
        revisions,
    }
}

fn inputs(seed: u64, len: usize) -> Inputs {
    let sequence = sequence(seed, len);
    let mut writes = vec![(0usize, 0usize); SESSIONS];
    for &(s, kind) in &sequence {
        match kind {
            Kind::IngestCausal => writes[s].0 += 1,
            Kind::AbsorbBatch => writes[s].1 += 1,
            _ => {}
        }
    }
    let sessions = (0..SESSIONS)
        .map(|i| session_data(seed, i, writes[i].0, writes[i].1))
        .collect();
    Inputs {
        sessions,
        warm: (len as f64 * WARM_SHARE).round() as usize,
        sequence,
    }
}

/// A server over a fresh, empty store, with every session open. The
/// store's and the admission's knobs are the crates' defaults, but for
/// `max_live`; every envelope carries its own deadline.
fn new_server(inp: &Inputs) -> Server<MemoryBackend> {
    let store = SessionStore::new(
        MemoryBackend::new(),
        StoreConfig {
            max_live: MAX_LIVE,
            ..StoreConfig::default()
        },
    )
    .expect("quarantine policy is replayable");
    let mut server = Server::new(store, AdmissionConfig::default());
    for (i, s) in inp.sessions.iter().enumerate() {
        server.open(i as u64, &s.spec);
    }
    server
}

/// The client side of one session.
#[derive(Default)]
struct Client {
    /// Attributes the last suggestion asked about.
    ask: Vec<AttrId>,
    settled: bool,
    next_causal: usize,
    revisions: usize,
    /// Inputs sent with no question open.
    confirmed: usize,
    /// Whether the store ever built this session's engine.
    built: bool,
    touched: bool,
    answers: usize,
    /// Acknowledged mutation records, rendered for the exactly-once check.
    acked: Vec<String>,
}

fn render_input(i: &UserInput) -> String {
    format!("input {:?}", i.values)
}

fn render_causal(ev: &CausalRevision) -> String {
    format!("causal {:?}", ev.stamp.dedup_key())
}

fn render_revision(r: &Revision) -> String {
    format!("revision {r:?}")
}

/// What the generator asks for, and what an acknowledgement commits.
struct Planned {
    req: Request,
    effect: Effect,
}

/// What an acknowledgement commits on the client side.
#[derive(Default)]
struct Effect {
    /// Mutation records, rendered for the exactly-once check.
    records: Vec<String>,
    /// The asked attribute an input answers.
    answer: Option<AttrId>,
    /// Whether the input was sent with no question open.
    confirm: bool,
    causal: bool,
    revision: bool,
}

fn plan(kind: Kind, c: &Client, d: &SessionData) -> Planned {
    let read = |req: Request| Planned {
        req,
        effect: Effect::default(),
    };
    let input = |attr: AttrId, effect: Effect| {
        let mut input = UserInput::empty();
        input.values.insert(attr, d.truth.get(attr).clone());
        Planned {
            effect: Effect {
                records: vec![render_input(&input)],
                ..effect
            },
            req: Request::ApplyInput { input },
        }
    };
    let up = DeductionMethod::UnitPropagation;
    let asked = c.ask.iter().copied().find(|&a| !d.truth.get(a).is_null());
    match kind {
        Kind::IsValid => read(Request::IsValid),
        Kind::Deduce => read(Request::Deduce { method: up }),
        Kind::TrueValues => read(Request::TrueValues { method: up }),
        Kind::Suggest => read(Request::Suggest { method: up }),
        Kind::Input | Kind::UserStep => match asked {
            Some(attr) => input(
                attr,
                Effect {
                    answer: Some(attr),
                    ..Effect::default()
                },
            ),
            None if kind == Kind::UserStep => read(Request::Suggest { method: up }),
            None => {
                let arity = d.truth.arity();
                let attr = (0..arity)
                    .map(|k| AttrId(((c.confirmed + k) % arity) as u16))
                    .find(|&a| !d.truth.get(a).is_null())
                    .unwrap_or(AttrId(0));
                input(
                    attr,
                    Effect {
                        confirm: true,
                        ..Effect::default()
                    },
                )
            }
        },
        // The supply matches the sequence, so only after a failed write
        // can it run short; the request is then a read.
        Kind::IngestCausal => match d.causal.get(c.next_causal) {
            Some(events) => Planned {
                req: Request::IngestCausal {
                    events: events.clone(),
                },
                effect: Effect {
                    records: events.iter().map(render_causal).collect(),
                    causal: true,
                    ..Effect::default()
                },
            },
            None => read(Request::IsValid),
        },
        Kind::AbsorbBatch => match d.revisions.get(c.revisions) {
            Some(revs) => Planned {
                req: Request::AbsorbBatch { revs: revs.clone() },
                effect: Effect {
                    records: revs.iter().map(render_revision).collect(),
                    revision: true,
                    ..Effect::default()
                },
            },
            None => read(Request::Deduce { method: up }),
        },
        Kind::Snapshot => read(Request::Snapshot),
    }
}

/// Figures of one run at the base rate.
#[derive(Default)]
struct RateRun {
    requests: u64,
    failed: u64,
    /// Send-to-reply latency of every request (failures as infinity), in
    /// sequence order.
    latency_ms: Vec<f64>,
    /// The same, for requests whose session was cold at submission, with
    /// their place in the sequence.
    cold_ms: Vec<(usize, f64)>,
    cold: u64,
    request_bytes: u64,
    queue_wait_us: Vec<f64>,
    traced_service_us: Vec<f64>,
    untraced_service_us: Vec<f64>,
}

/// The generator and the single driver thread.
struct Driver<'a> {
    inp: &'a Inputs,
    server: Server<MemoryBackend>,
    clients: Vec<Client>,
    epoch: Instant,
    next_id: u64,
    inject_lost_ack: bool,
    /// Requests sent, by the kind actually sent.
    sent: BTreeMap<&'static str, u64>,
    /// Failed replies by kind, for the run's notes.
    errors: BTreeMap<&'static str, u64>,
}

impl RateRun {
    /// Adds another run's counts and layer samples to this one (the
    /// latencies are taken per step before).
    fn absorb(&mut self, mut other: RateRun) {
        self.requests += other.requests;
        self.failed += other.failed;
        self.cold += other.cold;
        self.request_bytes += other.request_bytes;
        self.queue_wait_us.append(&mut other.queue_wait_us);
        self.traced_service_us.append(&mut other.traced_service_us);
        self.untraced_service_us
            .append(&mut other.untraced_service_us);
    }
}

impl<'a> Driver<'a> {
    /// A driver over a fresh store, its clients new.
    fn new(inp: &'a Inputs) -> Self {
        Driver {
            inp,
            server: new_server(inp),
            clients: (0..SESSIONS).map(|_| Client::default()).collect(),
            epoch: Instant::now(),
            next_id: 1,
            inject_lost_ack: false,
            sent: BTreeMap::new(),
            errors: BTreeMap::new(),
        }
    }

    fn tick(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Sends `requests` at `rate` per second, the `k`-th due at `k / rate`
    /// seconds; with `trace` set, every other request is traced (the rest
    /// give the untraced service time).
    fn run_rate(
        &mut self,
        requests: &[(usize, Kind)],
        rate: f64,
        tr: &mut Tracer,
        trace: bool,
    ) -> RateRun {
        let mut out = RateRun::default();
        let start = Instant::now();
        for (k, &(session, kind)) in requests.iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            wait_until(due);
            let traced = trace && k % 2 == 1;
            tr.set_on(traced);
            let send = Instant::now();
            if traced {
                out.queue_wait_us
                    .push(send.saturating_duration_since(due).as_secs_f64() * 1e6);
            }
            let (ok, cold, bytes) = self.request(session, kind, due, tr);
            let service_us = send.elapsed().as_secs_f64() * 1e6;
            if trace {
                if traced {
                    &mut out.traced_service_us
                } else {
                    &mut out.untraced_service_us
                }
                .push(service_us);
            }
            // A failed or refused request misses every latency limit.
            let latency = if ok { service_us / 1e3 } else { f64::INFINITY };
            out.requests += 1;
            out.request_bytes += bytes as u64;
            out.latency_ms.push(latency);
            if cold {
                out.cold += 1;
                out.cold_ms.push((k, latency));
            }
            if !ok {
                out.failed += 1;
            }
        }
        tr.set_on(false);
        out
    }

    /// Plans, sends and settles one request. Returns whether it
    /// succeeded, whether its session was cold, and the request's size.
    fn request(
        &mut self,
        s: usize,
        kind: Kind,
        due: Instant,
        tr: &mut Tracer,
    ) -> (bool, bool, usize) {
        let id = self.next_id;
        self.next_id += 1;
        let Planned { req, effect } = plan(kind, &self.clients[s], &self.inp.sessions[s]);
        let due_tick = due.saturating_duration_since(self.epoch).as_millis() as u64;
        let env = Envelope {
            request_id: RequestId(id),
            tenant: TenantId(s as u32 % TENANTS),
            session: s as u64,
            deadline: Some(due_tick + DEADLINE_TICKS),
            idempotency: req.is_mutation().then_some(IdemKey(id)),
        };
        let root = tr.begin("request", id);
        let t = tr.begin("codec.encode", id);
        let bytes = encode_message(&Message::Request { env, req });
        tr.end(t);
        let t = tr.begin("codec.decode", id);
        let Ok(Message::Request { env, req }) = decode_message(&bytes) else {
            panic!("a request failed its own codec round trip");
        };
        tr.end(t);
        let kind_name = req.kind();
        *self.sent.entry(kind_name).or_default() += 1;
        let cold = !self
            .server
            .store()
            .admission_probe(SessionId(s as u64))
            .expect("every session is open")
            .live;
        if cold && tr.on() {
            // Traced requests build a cold session's engine in a span of
            // its own; the dispatch that follows finds it live.
            let name = if self.clients[s].built {
                "store.rehydrate"
            } else {
                "ingest.session_new"
            };
            let t = tr.begin(name, id);
            self.server
                .store_mut()
                .session(SessionId(s as u64))
                .expect("every session is open");
            tr.end(t);
        }
        self.clients[s].built = true;
        self.clients[s].touched = true;
        let now = self.tick();
        let t = tr.begin("server.submit", id);
        let shed = self.server.submit(now, env, req);
        tr.end(t);
        let replies = match shed {
            Some(reply) => vec![reply],
            None => {
                let t = tr.begin("server.dispatch", id);
                let replies = self.server.dispatch(now);
                tr.tag(t, kind_name);
                tr.end(t);
                replies
            }
        };
        let mut ok = false;
        for reply in replies {
            let t = tr.begin("codec.encode", id);
            let wire = encode_message(&Message::Reply(reply));
            tr.end(t);
            let t = tr.begin("codec.decode", id);
            let Ok(Message::Reply(reply)) = decode_message(&wire) else {
                panic!("a reply failed its own codec round trip");
            };
            tr.end(t);
            if reply.request_id == RequestId(id) {
                ok = self.settle(s, &effect, reply);
            }
        }
        tr.end(root);
        (ok, cold, bytes.len())
    }

    /// Applies a reply to the client's state. Returns whether it succeeded.
    fn settle(&mut self, s: usize, effect: &Effect, reply: Reply) -> bool {
        let resp = match reply.outcome {
            Ok(resp) => resp,
            Err(e) => {
                let kind = match e {
                    ServeError::Overloaded { .. } => "overloaded",
                    ServeError::DeadlineExceeded { .. } => "deadline",
                    ServeError::UnknownSession { .. } => "unknown session",
                    ServeError::Store { .. } => "store",
                };
                *self.errors.entry(kind).or_default() += 1;
                return false;
            }
        };
        if !effect.records.is_empty() && self.inject_lost_ack {
            // The planted fault: this acknowledgement never reaches the
            // client, which therefore does not count the logged mutation.
            self.inject_lost_ack = false;
            return true;
        }
        let c = &mut self.clients[s];
        c.acked.extend(effect.records.iter().cloned());
        if let Some(attr) = effect.answer {
            c.answers += 1;
            c.ask.retain(|&a| a != attr);
        }
        c.confirmed += usize::from(effect.confirm);
        c.next_causal += usize::from(effect.causal);
        c.revisions += usize::from(effect.revision);
        if let Response::Suggest { ask, .. } = resp {
            c.settled = ask.is_empty();
            c.ask = ask.into_iter().map(|(a, _)| a).collect();
        }
        true
    }
}

/// Sleeps until shortly before `due`, then spins to it.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The store's check: every acknowledged mutation is in its session's log
/// exactly once, with nothing unacknowledged beside it, and, with `replay`
/// set, every touched session's state equals a from-scratch replay of its
/// log.
fn verify(driver: &mut Driver<'_>, report: &mut Report, replay: bool) {
    let config = *driver.server.store().config();
    for (s, data) in driver.inp.sessions.iter().enumerate() {
        let id = SessionId(s as u64);
        let bytes = driver
            .server
            .store()
            .backend()
            .read_log(id)
            .unwrap_or_default();
        let (records, _, scan_err) = decode_log(&bytes);
        if let Some(e) = scan_err {
            report.wrong(format!("session {s}: the log has a corrupt tail: {e}"));
            continue;
        }
        let mut logged: Vec<String> = records
            .iter()
            .flat_map(|r| match r {
                LogRecord::Input(i) => Some(render_input(i)),
                LogRecord::Causal(ev) => Some(render_causal(ev)),
                LogRecord::Revision(rev) => Some(render_revision(rev)),
                LogRecord::BatchMark { .. } | LogRecord::Snapshot(_) => None,
            })
            .collect();
        let mut acked = driver.clients[s].acked.clone();
        logged.sort();
        acked.sort();
        if logged != acked {
            report.wrong(format!(
                "session {s}: {} mutations acknowledged but {} logged (each must be logged exactly once)",
                acked.len(),
                logged.len()
            ));
            continue;
        }
        if !replay || !driver.clients[s].touched {
            continue;
        }
        let mut reference = reference_of(&config.resolution, config.policy, &data.spec, &records);
        match driver.server.store_mut().session(id) {
            Ok(session) => {
                if let Err(e) = verify_recovery(session, &mut reference) {
                    report.wrong(format!(
                        "session {s}: served state differs from a replay of its log: {e}"
                    ));
                }
            }
            Err(e) => report.wrong(format!("session {s}: could not be touched: {e}")),
        }
    }
}

/// Accuracy of every session's current true values, read through the
/// store (untimed).
fn accuracy(driver: &mut Driver<'_>) -> f64 {
    let mut acc = Accuracy::new();
    for (s, data) in driver.inp.sessions.iter().enumerate() {
        let session = driver
            .server
            .store_mut()
            .session(SessionId(s as u64))
            .expect("every session is open");
        let values = if session.is_valid() {
            let od = session
                .deduce(DeductionMethod::UnitPropagation)
                .expect("valid specifications deduce");
            session.true_values(&od)
        } else {
            TrueValues::new(vec![None; data.spec.schema().arity()])
        };
        acc.add_entity(data.spec.entity(), &data.truth, &values);
    }
    acc.f_measure().f_measure
}

pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let secs = p.seconds.max(1.0);
    // The runs share the time.
    let len = (BASE_RATE * secs / (POPULATIONS * REPEATS) as f64)
        .round()
        .max(20.0) as usize;
    let seed_of = |r: usize| {
        p.seed
            .wrapping_mul(POPULATIONS as u64)
            .wrapping_add(r as u64)
    };
    let (populations, setup_s) = crate::timed_setup(|| {
        (0..POPULATIONS)
            .map(|r| inputs(seed_of(r), len))
            .collect::<Vec<Inputs>>()
    });
    let mut tr = Tracer::new(false);

    // Each population runs `REPEATS` times at the base rate, each time on
    // a fresh store, the populations taking turns. A repeat sends identical
    // requests over identical state, so a request's latency is the median
    // of its repeats. The warm-up part of the sequence fills the live set
    // first and is not measured. Traced runs trace every other request.
    let mut base = RateRun::default();
    let (mut first, mut wait) = (Vec::new(), Vec::new());
    let mut last = None;
    let runs = POPULATIONS * REPEATS;
    for k in 0..runs {
        let (r, inp) = (k % POPULATIONS, &populations[k % POPULATIONS]);
        let mut d = Driver::new(inp);
        let (warm, measured) = inp.sequence.split_at(inp.warm);
        d.run_rate(warm, BASE_RATE, &mut tr, false);
        d.inject_lost_ack = k + 1 == runs && p.inject == Inject::LostAck;
        let before = (d.server.telemetry(), d.server.store().recovery());
        let run = d.run_rate(measured, BASE_RATE, &mut tr, p.trace);
        let after = (d.server.telemetry(), d.server.store().recovery());
        // A step is one request of one population's sequence.
        let step = |i: usize| (r * measured.len() + i) as u64;
        first.extend(run.cold_ms.iter().map(|&(i, ms)| (step(i), ms)));
        wait.extend(
            run.latency_ms
                .iter()
                .enumerate()
                .map(|(i, &ms)| (step(i), ms)),
        );
        base.absorb(run);
        if !d.errors.is_empty() {
            report.note(format!("run {k}: failed replies {:?}", d.errors));
        }
        if k + 1 < runs {
            verify(&mut d, &mut report, false);
        } else {
            last = Some((d, before, after));
        }
    }
    let (mut driver, (telemetry0, recovery0), (telemetry1, recovery1)) =
        last.expect("at least one population");
    let sent = driver.sent.clone();
    report.attempted = base.requests;
    report.failed += base.failed;

    let mut x = crate::Extras::default();
    if p.trace {
        // Counts read from the engines still live after the base rate.
        let (mut cones, mut saved, mut axioms, mut bytes, mut live) =
            (0usize, 0usize, 0usize, 0usize, 0usize);
        for s in 0..SESSIONS {
            let id = SessionId(s as u64);
            if driver.server.store().is_live(id) {
                let session = driver.server.store_mut().session(id).expect("live session");
                let t = session.revision_telemetry();
                cones += t.cone_union;
                saved += t.replays_saved;
                axioms += session.injected_axioms();
                bytes += session.encoded().approx_bytes();
                live += 1;
            }
        }
        let logged_bytes: u64 = (0..SESSIONS)
            .map(|s| {
                driver
                    .server
                    .store()
                    .log_len(SessionId(s as u64))
                    .unwrap_or(0)
            })
            .sum();
        let events: usize = driver.clients.iter().map(|c| c.acked.len()).sum();
        x.cone_union = cones as f64;
        x.replays_saved = saved as f64;
        x.injected_axioms = axioms as f64;
        x.bytes_per_entity = bytes as f64 / live.max(1) as f64;
        x.hit_ratio = 1.0 - base.cold as f64 / base.requests.max(1) as f64;
        x.log_bytes_per_event = logged_bytes as f64 / events.max(1) as f64;
        let rehydrations = recovery1.rehydrations - recovery0.rehydrations;
        x.events_replayed_per_rehydrate = (recovery1.events_replayed - recovery0.events_replayed)
            as f64
            / rehydrations.max(1) as f64;
        x.shed = ((telemetry1.shed_rate + telemetry1.shed_queue)
            - (telemetry0.shed_rate + telemetry0.shed_queue)) as f64;
        x.expired = ((telemetry1.expired_in_queue + telemetry1.expired_mid_request)
            - (telemetry0.expired_in_queue + telemetry0.expired_mid_request))
            as f64;
        x.bytes_per_request = base.request_bytes as f64 / base.requests.max(1) as f64;
        x.queue_wait = LayerStats::of(base.queue_wait_us.clone());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let untraced = mean(&base.untraced_service_us);
        x.overhead_share = if untraced > 0.0 {
            mean(&base.traced_service_us) / untraced - 1.0
        } else {
            0.0
        };
    }

    // Untimed: every session's user finishes its Fig. 4 loop over the
    // wire, one session after the other. The answers it took, and the
    // accuracy reached, are the workload's quality figures.
    for s in 0..SESSIONS {
        for _ in 0..SETTLE_STEPS {
            if driver.clients[s].settled {
                break;
            }
            driver.request(s, Kind::UserStep, Instant::now(), &mut Tracer::new(false));
        }
    }
    let answers: usize = driver.clients.iter().map(|c| c.answers).sum();
    let answers_per_entity = answers as f64 / SESSIONS as f64;
    // The requests per second the driver thread could serve back to back:
    // the inverse of the mean step latency.
    let wait = crate::Latency::of_steps(wait);
    let throughput = 1e3 * wait.steps as f64 / wait.sum;
    let f_measure = accuracy(&mut driver);
    let peak_rss_mb = trace::peak_rss_mb();
    report.note(format!(
        "base rate {BASE_RATE}/s: {} requests over {POPULATIONS} populations x {REPEATS} repeats, {} cold, {} failed; \
         capacity {throughput:.1}/s; setup {setup_s:.4}s; sent in the last run {sent:?}",
        base.requests, base.cold, base.failed
    ));

    verify(&mut driver, &mut report, true);
    drop(driver);

    if p.trace {
        crate::emit_layers(&mut report, &tr, &x);
        crate::write_spans(&tr, "serve", p.seed, &mut report);
    } else {
        crate::emit_end_to_end(
            &mut report,
            crate::EndToEnd {
                setup_s,
                first_ms: crate::Latency::of_steps(first),
                wait_ms: wait,
                peak_rss_mb,
                throughput_per_s: throughput,
                answers_per_entity,
                f_measure,
            },
        );
    }
    report
}
