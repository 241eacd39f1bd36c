//! The three traffic mixes as pre-encoded request frames plus a seeded
//! cyclic schedule per connection. Everything a generator thread needs is
//! built here, during set-up: per request it only writes bytes and decodes
//! one reply.

use smore::{Prediction, Predictor};
use smore_data::Dataset;
use smore_serve::protocol::encode_request;
use smore_serve::{synthetic, Request};
use smore_stream::TenantSession;
use smore_tensor::Matrix;

use crate::BoxResult;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Predict-only traffic on a large fleet serving from the shared base.
    Steady,
    /// A share of tenants stream drifted labelled ingests until they
    /// personalize, then predict on held-out drifted windows; the rest
    /// predict on the base.
    Storm,
    /// Predict-only traffic on a fleet of already-personalized tenants
    /// archived in a state dir: a hot set that fits the session caps plus
    /// a uniform cold tail that rehydrates on every visit.
    Churn,
}

impl Workload {
    /// Parses the `--workload` spelling.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "steady" => Some(Self::Steady),
            "storm" => Some(Self::Storm),
            "churn" => Some(Self::Churn),
            _ => None,
        }
    }

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Steady => "steady",
            Self::Storm => "storm",
            Self::Churn => "churn",
        }
    }
}

/// Tenants in the `steady` and `storm` fleets.
pub const FLEET_TENANTS: u64 = 4096;
/// Share of `storm` requests that go to drifting tenants. Each drifting
/// tenant streams until it enrols (about 32 ingests), predicts its
/// held-out windows, and hands its slot to a fresh tenant, so enrolment
/// work is a fixed share of the requests served, whatever the rate.
const STORM_DRIFT_SHARE: f64 = 0.04;
/// Drifting tenants streaming at once on each connection.
const STORM_ACTIVE: usize = 2;
/// Labelled ingests pre-encoded per drifting tenant; one that has not
/// enrolled after all of them fails the run.
pub const INGESTS_PER_DRIFTER: usize = 64;
/// Held-out predicts each drifting tenant sends once personalized.
const HELD_OUT_PER_DRIFTER: usize = 16;
/// Requests per second per connection the drifting-tenant pool is sized
/// for; a faster run exhausts it and fails.
const STORM_MAX_RATE: f64 = 12_000.0;
/// Windows in the drifted pool every drifting tenant streams from.
const DRIFT_POOL: usize = 96;
/// Candidates drawn for the held-out drifted windows (those equal to a
/// pool window are dropped).
const HELD_OUT_CANDIDATES: usize = 256;
/// Archived personalized tenants in `churn` (ids `0..CHURN_TENANTS`).
pub const CHURN_TENANTS: u64 = 1024;
/// `churn`'s hot set (ids `0..CHURN_HOT`): small enough to stay resident
/// under the per-shard session cap.
pub const CHURN_HOT: u64 = 32;
/// Share of `churn` requests that go to the cold tail.
const CHURN_COLD_SHARE: f64 = 0.02;
/// Length of each connection's cyclic schedule.
const SCHEDULE_LEN: usize = 4096;

/// SplitMix64: a tiny seeded generator, so the schedule depends only on
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The fields of an answer the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Predicted class.
    pub label: u32,
    /// Most similar domain tag.
    pub best_domain: u32,
    /// Out-of-distribution verdict.
    pub is_ood: bool,
}

impl Answer {
    fn of(p: &Prediction) -> Self {
        Self { label: p.label as u32, best_domain: p.best_domain as u32, is_ood: p.is_ood }
    }
}

/// What the reply to one frame must satisfy.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// A predict whose answer must equal the in-process one.
    Exact(Answer),
    /// A drifting tenant's labelled ingest (index into [`Plan::drifters`]).
    Ingest(usize),
    /// A drifting tenant's predict on a held-out drifted window:
    /// the true label and whether the base snapshot gets it right.
    HeldOut { label: u32, base_correct: bool },
}

/// One pre-encoded request frame (its request id is its index).
pub struct Frame {
    /// The full frame: length prefix, CRC and payload.
    pub bytes: Vec<u8>,
    /// The tenant it addresses.
    pub tenant: u64,
    /// What its reply must satisfy.
    pub expect: Expect,
}

impl Frame {
    /// Whether the frame is a `Predict` (latency samples count only these).
    pub fn is_predict(&self) -> bool {
        !matches!(self.expect, Expect::Ingest(_))
    }
}

/// One slot of the measured schedule.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Slot `i` sends base frame `i`.
    Base,
    /// Send the next request of the connection's `n`-th drifting slot.
    Drift(u32),
}

/// A drifting tenant's pre-encoded streams, in its connection's frames.
pub struct Drifter {
    /// Labelled drifted ingests, in stream order.
    pub ingests: Vec<u32>,
    /// Predicts on held-out drifted windows, sent once personalized.
    pub held_out: Vec<u32>,
}

/// One connection's frames and schedules.
pub struct ConnPlan {
    /// Every frame this connection may send; the first `picks.len()` are
    /// the base traffic the warm-up sends in order.
    pub frames: Vec<Frame>,
    /// Cyclic measured schedule.
    pub picks: Vec<Pick>,
    /// `storm`: this connection's drifting tenants, in the order they
    /// take a slot.
    pub pool: Vec<usize>,
}

/// A workload's complete traffic for one seed.
pub struct Plan {
    /// The mix.
    pub workload: Workload,
    /// One plan per connection.
    pub conns: Vec<ConnPlan>,
    /// `storm`'s drifting tenants (empty otherwise).
    pub drifters: Vec<Drifter>,
}

/// One connection's drifting-tenant progress while resolving
/// [`Pick::Drift`] slots (vectors are indexed by drifter).
pub struct DriftCursor {
    /// Whether the tenant has answered `adapted = true`.
    pub adapted: Vec<bool>,
    /// Ingests sent per tenant.
    pub ingests_sent: Vec<usize>,
    held_out_sent: Vec<usize>,
    /// The tenant streaming in each slot.
    active: [Option<usize>; STORM_ACTIVE],
    /// Next pool entry to hand a slot.
    next_fresh: usize,
    /// Drift picks that found the pool exhausted (sent base frames).
    pub exhausted: u64,
}

impl DriftCursor {
    /// Fresh progress over `n` drifters.
    pub fn new(n: usize) -> Self {
        Self {
            adapted: vec![false; n],
            ingests_sent: vec![0; n],
            held_out_sent: vec![0; n],
            active: [None; STORM_ACTIVE],
            next_fresh: 0,
            exhausted: 0,
        }
    }
}

impl Plan {
    /// The frame measured slot `i` of connection `conn` sends: its base
    /// frame, or for a drift pick the slot's tenant's next ingest until it
    /// has personalized, then its held-out predicts, after which a fresh
    /// tenant takes the slot.
    pub fn resolve(&self, conn: usize, i: usize, cursor: &mut DriftCursor) -> u32 {
        let cp = &self.conns[conn];
        let base = (i % cp.picks.len()) as u32;
        let Pick::Drift(n) = cp.picks[i % cp.picks.len()] else {
            return base;
        };
        let slot = n as usize % STORM_ACTIVE;
        loop {
            let d = match cursor.active[slot] {
                Some(d) => d,
                None => {
                    let Some(&d) = cp.pool.get(cursor.next_fresh) else {
                        cursor.exhausted += 1;
                        return base;
                    };
                    cursor.next_fresh += 1;
                    cursor.active[slot] = Some(d);
                    d
                }
            };
            let drifter = &self.drifters[d];
            if !cursor.adapted[d] {
                let k = cursor.ingests_sent[d];
                cursor.ingests_sent[d] += 1;
                return drifter.ingests[k % drifter.ingests.len()];
            }
            if let Some(&id) = drifter.held_out.get(cursor.held_out_sent[d]) {
                cursor.held_out_sent[d] += 1;
                return id;
            }
            cursor.active[slot] = None;
        }
    }

    /// Whether a request for `tenant` is served through its session
    /// rather than straight from the shared base.
    pub fn stateful(&self, tenant: u64) -> bool {
        match self.workload {
            Workload::Steady => false,
            Workload::Storm => tenant < self.drifters.len() as u64,
            Workload::Churn => true,
        }
    }
}

fn predict_frame(id: usize, tenant: u64, window: &Matrix, expect: Expect) -> Frame {
    let request = Request::Predict { tenant_id: tenant, window: window.clone() };
    Frame { bytes: encode_request(id as u64, &request), tenant, expect }
}

/// Answers of `model` on every window.
fn answers(model: &dyn Predictor, windows: &[Matrix]) -> BoxResult<Vec<Answer>> {
    windows.iter().map(|w| Ok(Answer::of(&model.predict_window(w)?))).collect()
}

/// Everything the plans are built from.
pub struct Inputs<'a> {
    /// The fleet dataset; every window is fair game for predicts.
    pub ds: &'a Dataset,
    /// The shared base snapshot's serving model.
    pub base: &'a dyn Predictor,
    /// `churn`: a session resumed from the archived delta bytes.
    pub personalized: Option<&'a mut TenantSession>,
}

/// Builds the workload's plan for `seed` over `conns` connections and a
/// measured phase of `seconds`.
pub fn build(
    workload: Workload,
    seed: u64,
    conns: usize,
    seconds: f64,
    inputs: Inputs<'_>,
) -> BoxResult<Plan> {
    let windows = inputs.ds.windows();
    let base_answers = answers(inputs.base, windows)?;
    let mut plan = Plan { workload, conns: Vec::with_capacity(conns), drifters: Vec::new() };
    match workload {
        Workload::Steady => {
            for conn in 0..conns {
                let mut rng = Rng::new(seed, conn as u64 + 1);
                let frames: Vec<Frame> = (0..SCHEDULE_LEN)
                    .map(|id| {
                        let tenant = rng.below(FLEET_TENANTS);
                        let w = rng.below(windows.len() as u64) as usize;
                        predict_frame(id, tenant, &windows[w], Expect::Exact(base_answers[w]))
                    })
                    .collect();
                let picks = vec![Pick::Base; frames.len()];
                plan.conns.push(ConnPlan { frames, picks, pool: Vec::new() });
            }
        }
        Workload::Churn => {
            let session = inputs.personalized.ok_or("churn needs the personalized session")?;
            let expected: Vec<Answer> = windows
                .iter()
                .map(|w| Ok(Answer::of(session.predict_window(w)?)))
                .collect::<BoxResult<_>>()?;
            for conn in 0..conns {
                let mut rng = Rng::new(seed, conn as u64 + 1);
                let frames: Vec<Frame> = (0..SCHEDULE_LEN)
                    .map(|id| {
                        let tenant = if rng.unit() < CHURN_COLD_SHARE {
                            CHURN_HOT + rng.below(CHURN_TENANTS - CHURN_HOT)
                        } else {
                            rng.below(CHURN_HOT)
                        };
                        let w = rng.below(windows.len() as u64) as usize;
                        predict_frame(id, tenant, &windows[w], Expect::Exact(expected[w]))
                    })
                    .collect();
                let picks = vec![Pick::Base; frames.len()];
                plan.conns.push(ConnPlan { frames, picks, pool: Vec::new() });
            }
        }
        Workload::Storm => build_storm(&mut plan, seed, conns, seconds, &inputs, &base_answers)?,
    }
    Ok(plan)
}

/// Windows with their oracle labels.
type Labelled = Vec<(Matrix, usize)>;

/// The drifted pool every drifting tenant streams from, and held-out
/// drifted windows (with labels) that appear nowhere in that pool.
pub fn drift_windows(ds: &Dataset, seed: u64) -> BoxResult<(Labelled, Labelled)> {
    let pool = synthetic::drift_stream(ds, DRIFT_POOL, seed ^ 0xD1F7)?;
    let mut held_out: Labelled = Vec::new();
    for (w, label) in synthetic::drift_stream(ds, HELD_OUT_CANDIDATES, seed ^ 0x4E1D)? {
        if !pool.iter().any(|(p, _)| *p == w) && !held_out.iter().any(|(h, _)| *h == w) {
            held_out.push((w, label));
        }
    }
    if held_out.len() < 16 {
        return Err(format!("only {} held-out drifted windows", held_out.len()).into());
    }
    Ok((pool, held_out))
}

fn build_storm(
    plan: &mut Plan,
    seed: u64,
    conns: usize,
    seconds: f64,
    inputs: &Inputs<'_>,
    base_answers: &[Answer],
) -> BoxResult<()> {
    let windows = inputs.ds.windows();
    let (pool, held_out) = drift_windows(inputs.ds, seed)?;
    let held_out_base: Vec<bool> = held_out
        .iter()
        .map(|(w, label)| Ok(inputs.base.predict_window(w)?.label == *label))
        .collect::<BoxResult<_>>()?;
    // Drifter d is tenant d and belongs to connection d % conns; base
    // tenants come after the drifters.
    let per_drifter = (INGESTS_PER_DRIFTER + HELD_OUT_PER_DRIFTER) as f64;
    let per_conn =
        (seconds * STORM_MAX_RATE * STORM_DRIFT_SHARE / per_drifter).ceil() as usize + STORM_ACTIVE;
    let drifting = per_conn * conns;
    if drifting as u64 >= FLEET_TENANTS {
        return Err(format!("{drifting} drifting tenants do not fit the fleet").into());
    }
    let mut drifters: Vec<Option<Drifter>> = (0..drifting).map(|_| None).collect();
    for conn in 0..conns {
        let mut rng = Rng::new(seed, conn as u64 + 1);
        let mut frames: Vec<Frame> = (0..SCHEDULE_LEN)
            .map(|id| {
                let tenant = drifting as u64 + rng.below(FLEET_TENANTS - drifting as u64);
                let w = rng.below(windows.len() as u64) as usize;
                predict_frame(id, tenant, &windows[w], Expect::Exact(base_answers[w]))
            })
            .collect();
        // Each drifting tenant streams the pool, then predicts held-out
        // windows, both from its own offset.
        let mine: Vec<usize> = (conn..drifting).step_by(conns).collect();
        for &d in &mine {
            let tenant = d as u64;
            let offset = rng.below(pool.len() as u64) as usize;
            let mut ingests = Vec::with_capacity(INGESTS_PER_DRIFTER);
            for k in 0..INGESTS_PER_DRIFTER {
                let (window, label) = &pool[(offset + k) % pool.len()];
                let id = frames.len();
                let request = Request::Ingest {
                    tenant_id: tenant,
                    label: Some(*label as u32),
                    window: window.clone(),
                };
                frames.push(Frame {
                    bytes: encode_request(id as u64, &request),
                    tenant,
                    expect: Expect::Ingest(d),
                });
                ingests.push(id as u32);
            }
            let offset = rng.below(held_out.len() as u64) as usize;
            let mut held = Vec::with_capacity(HELD_OUT_PER_DRIFTER);
            for k in 0..HELD_OUT_PER_DRIFTER {
                let i = (offset + k) % held_out.len();
                let (window, label) = &held_out[i];
                let expect =
                    Expect::HeldOut { label: *label as u32, base_correct: held_out_base[i] };
                held.push(frames.len() as u32);
                frames.push(predict_frame(frames.len(), tenant, window, expect));
            }
            drifters[d] = Some(Drifter { ingests, held_out: held });
        }
        let picks = (0..SCHEDULE_LEN)
            .map(|_| {
                if rng.unit() < STORM_DRIFT_SHARE {
                    Pick::Drift(rng.below(STORM_ACTIVE as u64) as u32)
                } else {
                    Pick::Base
                }
            })
            .collect();
        plan.conns.push(ConnPlan { frames, picks, pool: mine });
    }
    plan.drifters = drifters
        .into_iter()
        .collect::<Option<Vec<Drifter>>>()
        .ok_or("every drifting tenant belongs to a connection")?;
    Ok(())
}
