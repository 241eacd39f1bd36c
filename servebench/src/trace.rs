//! The traced replay: the same seed's request list, run in process on one
//! thread through each layer's public calls, with a span around every
//! call. Spans stay in memory and are written out when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use smore::{Predictor, ServeScratch};
use smore_serve::protocol::{decode_request, decode_response, encode_response};
use smore_serve::{FlushPolicy, Request, Response, WirePrediction};
use smore_stream::{ServeEngine, SessionStore, StateDir};

use crate::stats::{median, self_times, Span};
use crate::workload::{DriftCursor, Expect, Plan};
use crate::BoxResult;

/// Span recorder: open and close spans; self times come later.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `epoch`, with room for `capacity` spans.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self { epoch, spans: Vec::with_capacity(capacity) }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its handle.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Renames an open span once its outcome is known.
    pub fn rename(&mut self, idx: usize, name: &'static str) {
        self.spans[idx].name = name;
    }

    /// Appends spans recorded elsewhere (another thread, same epoch).
    pub fn absorb(&mut self, spans: &[Span]) {
        let offset = self.spans.len();
        self.spans
            .extend(spans.iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..*s }));
    }

    /// Median self time, in nanoseconds, of the spans of each name.
    pub fn self_time_medians(&self) -> HashMap<&'static str, f64> {
        let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (span, ns) in self.spans.iter().zip(self_times(&self.spans)) {
            by_name.entry(span.name).or_default().push(ns as f64);
        }
        by_name.into_iter().filter_map(|(name, mut v)| Some((name, median(&mut v)?))).collect()
    }

    /// Writes every span as a tab-separated line: index, name, request,
    /// parent (`-` for none), start and end in ns, self time in ns.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 64);
        out.push_str("index\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
                s.name, s.request, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

/// What the replay observed besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Stateful requests that found their session resident.
    pub hits: u64,
    /// Stateful requests that had to open or rehydrate a session.
    pub misses: u64,
    /// Per drifting tenant: ingests up to and including the one that
    /// enrolled.
    pub ingests_to_personalize: Vec<f64>,
    /// The suspended delta of the first tenant that personalized.
    pub delta: Option<Vec<u8>>,
}

fn wire(p: &smore::Prediction, buffered: bool, adapted: bool) -> WirePrediction {
    WirePrediction {
        label: p.label as u32,
        is_ood: p.is_ood,
        delta_max: p.delta_max,
        best_domain: p.best_domain as u32,
        buffered,
        adapted,
    }
}

/// Replays `plan`'s measured schedule, connections interleaved, for
/// `requests` requests.
pub fn replay(
    plan: &Plan,
    engine: &Arc<ServeEngine>,
    store: &mut SessionStore,
    requests: usize,
    tracer: &mut Tracer,
) -> BoxResult<Replay> {
    let base = engine.base_snapshot();
    let mut scratch = ServeScratch::new();
    let conns = plan.conns.len();
    let mut cursors: Vec<DriftCursor> =
        (0..conns).map(|_| DriftCursor::new(plan.drifters.len())).collect();
    let mut out = Replay::default();
    for i in 0..requests {
        let conn = i % conns;
        let cp = &plan.conns[conn];
        let cursor = &mut cursors[conn];
        let id = plan.resolve(conn, i / conns, cursor) as usize;
        let frame = &cp.frames[id];
        let req = i as u64;
        let root = tracer.open("request", None, req);

        let s = tracer.open("protocol.decode_request", Some(root), req);
        let decoded = decode_request(&frame.bytes[4..]);
        tracer.close(s);
        let (request_id, request) = decoded.map_err(|bad| bad.message)?;
        let (tenant, window, label) = match request {
            Request::Predict { tenant_id, window } => (tenant_id, window, None),
            Request::Ingest { tenant_id, label, window } => (tenant_id, window, label),
            other => return Err(format!("unexpected request in the plan: {other:?}").into()),
        };

        let prediction = if plan.stateful(tenant) {
            let hit = store.is_resident(tenant);
            if hit {
                out.hits += 1;
            } else {
                out.misses += 1;
            }
            let s = tracer.open(if hit { "store.hit" } else { "store.miss" }, Some(root), req);
            let served = store.with_session(tenant, |session| -> BoxResult<WirePrediction> {
                Ok(match label {
                    None => {
                        let name = if session.is_personalized() {
                            "delta.predict"
                        } else {
                            "engine.predict"
                        };
                        let c = tracer.open(name, Some(s), req);
                        let p = wire(session.predict_window(&window)?, false, false);
                        tracer.close(c);
                        p
                    }
                    Some(label) => {
                        let c = tracer.open("engine.ingest", Some(s), req);
                        let o = session.ingest_labelled(&window, label as usize)?;
                        if o.adapted.is_some() {
                            tracer.rename(c, "engine.enroll");
                        }
                        tracer.close(c);
                        wire(&o.prediction, o.buffered, o.adapted.is_some())
                    }
                })
            });
            tracer.close(s);
            served??
        } else {
            let s = tracer.open("compute.predict_base", Some(root), req);
            let p =
                wire(Predictor::predict_window_with(&*base, &window, &mut scratch)?, false, false);
            tracer.close(s);
            p
        };

        if let Expect::Ingest(d) = frame.expect {
            if prediction.adapted && !cursor.adapted[d] {
                cursor.adapted[d] = true;
                out.ingests_to_personalize.push(cursor.ingests_sent[d] as f64);
            }
        }

        let s = tracer.open("protocol.encode_response", Some(root), req);
        let bytes = encode_response(request_id, &Response::Prediction(prediction));
        tracer.close(s);
        let s = tracer.open("protocol.decode_response", Some(root), req);
        let back = decode_response(&bytes[4..]);
        tracer.close(s);
        back.map_err(|bad| bad.message)?;
        tracer.close(root);
    }
    let personalized = cursors.iter().find_map(|c| c.adapted.iter().position(|&a| a));
    if let Some(d) = personalized {
        // Suspend every session the way eviction does, then read back the
        // first personalized tenant's archived delta.
        store.drain()?;
        out.delta = store.archived_delta(d as u64).map(<[u8]>::to_vec);
    }
    Ok(out)
}

/// Times the calls the session store makes on eviction and rehydration,
/// directly on `bytes`: `StateDir::write`, `StateDir::open` (over
/// `scan_dir`, or the freshly written directory), `StateDir::take`,
/// `ServeEngine::resume_session` and `TenantSession::suspend`.
pub fn time_store_calls(
    engine: &ServeEngine,
    bytes: &[u8],
    dir: &Path,
    scan_dir: Option<&Path>,
    calls: u64,
    tracer: &mut Tracer,
) -> BoxResult<()> {
    let mut state = StateDir::open(dir, FlushPolicy::OnEvict, |_| true)?;
    for tenant in 0..calls {
        let s = tracer.open("persist.write", None, tenant);
        state.write(tenant, bytes)?;
        tracer.close(s);
    }
    drop(state);
    let s = tracer.open("persist.open", None, 0);
    let scanned = StateDir::open(scan_dir.unwrap_or(dir), FlushPolicy::OnEvict, |_| true)?;
    tracer.close(s);
    drop(scanned);
    let mut state = StateDir::open(dir, FlushPolicy::OnEvict, |_| true)?;
    for tenant in 0..calls {
        let s = tracer.open("persist.take", None, tenant);
        let taken = state.take(tenant)?;
        tracer.close(s);
        taken.ok_or("a written tenant was not indexed")?;
    }
    for tenant in 0..calls {
        let s = tracer.open("engine.resume", None, tenant);
        let session = engine.resume_session(tenant, bytes)?;
        tracer.close(s);
        let s = tracer.open("engine.suspend", None, tenant);
        let suspended = session.suspend();
        tracer.close(s);
        suspended.ok_or("a resumed personalized session suspended to nothing")?;
    }
    Ok(())
}
