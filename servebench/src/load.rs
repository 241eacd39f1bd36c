//! The closed-loop load generator: one thread and one connection per
//! generator slot, each keeping [`DEPTH`] pipelined requests in flight,
//! sending its next request only when a reply arrives.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use smore_serve::protocol::{decode_response, read_frame, FrameRead};
use smore_serve::{ErrorCode, Response};

use crate::procfs;
use crate::stats::{Outcome, Span, Tally};
use crate::workload::{Answer, DriftCursor, Expect, Plan, INGESTS_PER_DRIFTER};

/// Requests each connection keeps in flight.
pub const DEPTH: usize = 32;
/// A reply slower than this fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// High bits of a latency sample that hold its send slice.
pub const SLICE_BITS: u32 = 16;
/// Low bits of a latency sample that hold its nanoseconds (~78 h).
pub const NS_MASK: u64 = (1 << (64 - SLICE_BITS)) - 1;

/// When the warm-up ends and the measured phase starts and ends.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Trace and span epoch.
    pub epoch: Instant,
    /// Measurement start: requests sent from here on are attempted.
    pub t0: Instant,
    /// Measurement end: no request is sent from here on.
    pub t1: Instant,
    /// Slices the measured phase is cut into.
    pub slices: usize,
}

impl Phases {
    /// Start of slice `k` (`k == slices` is `t1`).
    pub fn slice_start(&self, k: usize) -> Instant {
        self.t0 + (self.t1 - self.t0).mul_f64(k as f64 / self.slices as f64)
    }

    /// The slice `t` falls in, if inside the measured phase.
    pub fn slice_of(&self, t: Instant) -> Option<usize> {
        if t < self.t0 || t >= self.t1 {
            return None;
        }
        let frac = (t - self.t0).as_secs_f64() / (self.t1 - self.t0).as_secs_f64();
        Some(((frac * self.slices as f64) as usize).min(self.slices - 1))
    }
}

/// What one connection observed.
pub struct ConnResult {
    /// Outcomes of requests sent in `[t0, t1)`.
    pub tally: Tally,
    /// Predictions received in each slice of `[t0, t1)`.
    pub completed: Vec<u64>,
    /// Send → reply nanoseconds of every attempted, answered `Predict`,
    /// with its send slice in the top [`SLICE_BITS`] bits.
    pub predict_ns: Vec<u64>,
    /// Sum and count of send → reply over every attempted, answered
    /// request (ingests included).
    pub all_ns_sum: u128,
    /// Count for [`ConnResult::all_ns_sum`].
    pub all_count: u64,
    /// Samples dropped because the pre-sized buffer was full.
    pub dropped_samples: u64,
    /// This thread's CPU ticks in each slice of `[t0, t1)`.
    pub generator_ticks: Vec<u64>,
    /// Replies whose answer differed from the in-process answer.
    pub mismatches: u64,
    /// The first mismatch, described.
    pub first_mismatch: Option<String>,
    /// Time from a drifting tenant's first ingest to its first
    /// `adapted = true` reply, per tenant that personalized.
    pub personalize: Vec<Duration>,
    /// Drifting tenants that sent all their ingests without enrolling.
    pub stuck: u64,
    /// Drift picks that found the drifting-tenant pool exhausted.
    pub exhausted: u64,
    /// Replies carrying `adapted = true`, over this connection's drifters.
    pub adapted_replies: u64,
    /// Held-out predicts answered, answered correctly, and answered
    /// correctly by the base snapshot on the same windows.
    pub held_out: (u64, u64, u64),
    /// Client spans (traced runs only).
    pub spans: Vec<Span>,
    /// Why the connection ended early, if it did; its in-flight requests
    /// count as transport failures.
    pub transport_error: Option<String>,
}

#[derive(Clone, Copy)]
struct InFlight {
    sent: Instant,
    /// The measured slice it was sent in (`None` during warm-up).
    slice: Option<usize>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Drives connection `conn` of `plan` against `addr` through `phases`.
/// `sample_cap` sizes the latency buffer; `trace` records client spans.
pub fn drive(
    addr: SocketAddr,
    plan: &Plan,
    conn: usize,
    phases: Phases,
    sample_cap: usize,
    trace: bool,
) -> Result<ConnResult, String> {
    let cp = &plan.conns[conn];
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
    let mut reader = BufReader::with_capacity(
        64 << 10,
        stream.try_clone().map_err(|e| format!("clone socket: {e}"))?,
    );
    let mut writer = stream;

    // Buffers sized (and touched) now, so the measured phase never grows
    // them and peak memory does not depend on throughput.
    let mut predict_ns: Vec<u64> = vec![1; sample_cap];
    predict_ns.clear();
    let mut spans: Vec<Span> = Vec::new();
    if trace {
        spans = vec![Span { name: "", start: 0, end: 0, parent: None, request: 0 }; 2 * sample_cap];
        spans.clear();
    }
    let mut in_flight: Vec<Option<InFlight>> = vec![None; cp.frames.len()];
    let mut cursor = DriftCursor::new(plan.drifters.len());
    let mut first_ingest: Vec<Option<Instant>> = vec![None; plan.drifters.len()];
    let mut adapted_at: Vec<Option<Instant>> = vec![None; plan.drifters.len()];

    let mut r = ConnResult {
        tally: Tally::default(),
        completed: vec![0; phases.slices],
        predict_ns: Vec::new(),
        all_ns_sum: 0,
        all_count: 0,
        dropped_samples: 0,
        generator_ticks: Vec::new(),
        mismatches: 0,
        first_mismatch: None,
        personalize: Vec::new(),
        stuck: 0,
        exhausted: 0,
        adapted_replies: 0,
        held_out: (0, 0, 0),
        spans: Vec::new(),
        transport_error: None,
    };
    // One slot counter over both phases: warm-up slot i sends base frame
    // i, as measured slot i does unless it is a drift pick, so the
    // measured phase continues where the warm-up stopped and never reuses
    // a frame that is still in flight.
    let mut next = 0usize;
    let mut pending = 0usize;
    // Thread CPU read at the first reply of each slice and after t1.
    let mut ticks: Vec<Option<u64>> = vec![None; phases.slices + 1];

    // Sends the next scheduled request; false once the phase has ended.
    let mut send_next = |now: Instant,
                         in_flight: &mut Vec<Option<InFlight>>,
                         cursor: &mut DriftCursor,
                         first_ingest: &mut Vec<Option<Instant>>|
     -> Result<bool, String> {
        if now >= phases.t1 {
            return Ok(false);
        }
        let slice = phases.slice_of(now);
        let id = match slice {
            Some(_) => plan.resolve(conn, next, cursor),
            None => (next % cp.picks.len()) as u32,
        } as usize;
        next += 1;
        let frame = &cp.frames[id];
        if in_flight[id].is_some() {
            return Err(format!("frame {id} scheduled while still in flight"));
        }
        if let Expect::Ingest(d) = frame.expect {
            first_ingest[d].get_or_insert(now);
        }
        let sent = Instant::now();
        writer.write_all(&frame.bytes).map_err(|e| format!("send: {e}"))?;
        in_flight[id] = Some(InFlight { sent, slice });
        Ok(true)
    };

    for _ in 0..DEPTH {
        match send_next(Instant::now(), &mut in_flight, &mut cursor, &mut first_ingest) {
            Ok(sent) => pending += usize::from(sent),
            Err(e) => {
                r.transport_error = Some(e);
                break;
            }
        }
    }
    while pending > 0 && r.transport_error.is_none() {
        let payload = match read_frame(&mut reader) {
            Ok(FrameRead::Payload(p)) => p,
            Ok(other) => {
                r.transport_error = Some(format!("unexpected frame from server: {other:?}"));
                break;
            }
            Err(e) => {
                r.transport_error = Some(format!("receive: {e}"));
                break;
            }
        };
        let received = Instant::now();
        let boundary =
            if received >= phases.t1 { Some(phases.slices) } else { phases.slice_of(received) };
        if let Some(k) = boundary {
            if ticks[k].is_none() {
                let now = procfs::thread_cpu_ticks().map_err(|e| e.to_string())?;
                for slot in ticks.iter_mut().take(k + 1).filter(|t| t.is_none()) {
                    *slot = Some(now);
                }
            }
        }
        let (id, response) = match decode_response(&payload) {
            Ok(decoded) => decoded,
            Err(bad) => {
                r.transport_error = Some(format!("undecodable reply: {}", bad.message));
                break;
            }
        };
        let decoded = Instant::now();
        let slot = usize::try_from(id).ok().and_then(|i| in_flight.get_mut(i));
        let Some(InFlight { sent, slice }) = slot.and_then(Option::take) else {
            r.transport_error = Some(format!("reply for request {id}, which is not in flight"));
            break;
        };
        pending -= 1;
        let id = id as usize;
        let frame = &cp.frames[id];

        let outcome = match &response {
            Response::Prediction(_) => Outcome::Predicted,
            Response::Error { code: ErrorCode::Overloaded, .. } => Outcome::Overloaded,
            _ => Outcome::Refused,
        };
        if let (Outcome::Predicted, Some(k)) = (outcome, phases.slice_of(received)) {
            r.completed[k] += 1;
        }
        if let Response::Prediction(p) = &response {
            match frame.expect {
                Expect::Exact(want) => {
                    let got =
                        Answer { label: p.label, best_domain: p.best_domain, is_ood: p.is_ood };
                    if got != want {
                        r.mismatches += 1;
                        r.first_mismatch.get_or_insert_with(|| {
                            format!(
                                "tenant {} request {id}: got {got:?}, expected {want:?}",
                                frame.tenant
                            )
                        });
                    }
                }
                Expect::Ingest(d) => {
                    if p.adapted {
                        r.adapted_replies += 1;
                        if adapted_at[d].is_none() {
                            adapted_at[d] = Some(received);
                            cursor.adapted[d] = true;
                        }
                    }
                }
                Expect::HeldOut { label, base_correct } => {
                    if slice.is_some() {
                        r.held_out.0 += 1;
                        r.held_out.1 += u64::from(p.label == label);
                        r.held_out.2 += u64::from(base_correct);
                    }
                }
            }
        }
        if let Some(k) = slice {
            r.tally.record(outcome);
            if outcome == Outcome::Predicted {
                let ns = nanos(received - sent);
                r.all_ns_sum += u128::from(ns);
                r.all_count += 1;
                if frame.is_predict() {
                    if predict_ns.len() < predict_ns.capacity() {
                        predict_ns.push(((k as u64) << (64 - SLICE_BITS)) | ns.min(NS_MASK));
                    } else {
                        r.dropped_samples += 1;
                    }
                }
            } else if r.tally.failed() <= 3 {
                eprintln!("servebench: request {id} failed: {response:?}");
            }
            if trace && spans.len() + 2 <= spans.capacity() {
                let at = |t: Instant| nanos(t - phases.epoch);
                let parent = spans.len();
                spans.push(Span {
                    name: "client.request",
                    start: at(sent),
                    end: at(decoded),
                    parent: None,
                    request: id as u64,
                });
                spans.push(Span {
                    name: "protocol.decode_response",
                    start: at(received),
                    end: at(decoded),
                    parent: Some(parent),
                    request: id as u64,
                });
            }
        }
        match send_next(decoded, &mut in_flight, &mut cursor, &mut first_ingest) {
            Ok(sent) => pending += usize::from(sent),
            Err(e) => r.transport_error = Some(e),
        }
    }
    if r.transport_error.is_some() {
        // Every measured request still in flight is lost with the
        // connection; close the CPU slices at the moment of failure.
        for _ in in_flight.iter().flatten().filter(|f| f.slice.is_some()) {
            r.tally.record(Outcome::Transport);
        }
        let now = procfs::thread_cpu_ticks().map_err(|e| e.to_string())?;
        for slot in ticks.iter_mut().filter(|t| t.is_none()) {
            *slot = Some(now);
        }
    }

    let ticks = ticks
        .into_iter()
        .collect::<Option<Vec<u64>>>()
        .ok_or("the connection saw no reply after the measured phase ended")?;
    r.generator_ticks = ticks.windows(2).map(|w| w[1].saturating_sub(w[0])).collect();
    r.predict_ns = predict_ns;
    r.spans = spans;
    r.personalize = first_ingest
        .iter()
        .zip(&adapted_at)
        .filter_map(|(first, adapted)| {
            Some(adapted.as_ref()?.saturating_duration_since(*first.as_ref()?))
        })
        .collect();
    r.stuck = (0..plan.drifters.len())
        .filter(|&d| !cursor.adapted[d] && cursor.ingests_sent[d] >= INGESTS_PER_DRIFTER)
        .count() as u64;
    r.exhausted = cursor.exhausted;
    Ok(r)
}
