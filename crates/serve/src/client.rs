//! A blocking client for the SMORE wire protocol.
//!
//! [`ServeClient`] supports two calling styles over one connection:
//!
//! - **Synchronous** ([`predict`](ServeClient::predict),
//!   [`ingest`](ServeClient::ingest), [`ping`](ServeClient::ping)): one
//!   request in flight, the response returned in place. Simple, but each
//!   request pays a full round trip before the next one is sent.
//! - **Pipelined** ([`send_predict`](ServeClient::send_predict) /
//!   [`send_ingest`](ServeClient::send_ingest), then
//!   [`flush`](ServeClient::flush) and [`recv`](ServeClient::recv)):
//!   many requests in flight, responses correlated by the echoed request
//!   id. This is what the `load_gen` smoke client uses: the server's
//!   workers serve each request on its own, so pipelining hides the round
//!   trip while the shard queues stay full.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use smore_obs::StatsSnapshot;
use smore_tensor::Matrix;

use crate::protocol::{
    decode_response, encode_request, read_frame, ErrorCode, FrameRead, Request, Response,
    WirePrediction,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (or the server hung up mid-frame).
    Io(io::Error),
    /// The server's bytes failed structural validation.
    Malformed(String),
    /// The server answered with an error response.
    Server {
        /// Failure class reported by the server.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Malformed(m) => write!(f, "malformed server frame: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Backoff schedule for [`ServeClient::predict_retrying`] /
/// [`ServeClient::ingest_retrying`]: retries apply **only** to
/// [`ErrorCode::Overloaded`] refusals — the one error the server
/// explicitly asks the client to retry — with exponential, jittered
/// delays so a refused fleet does not re-synchronize into the same
/// full queue.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, the first included (`1` disables retrying).
    pub attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Cap on the (pre-jitter) delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }
}

/// One connection to a SMORE serving front-end.
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// xorshift64* state feeding retry jitter — no clock, no new deps.
    jitter_state: u64,
}

impl ServeClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        // Seed jitter from the ephemeral local port: cheap, distinct per
        // connection, deterministic within one.
        let seed = match stream.local_addr() {
            Ok(addr) => u64::from(addr.port()) | 0x9E37_79B9_7F4A_7C15,
            Err(_) => 0x9E37_79B9_7F4A_7C15,
        };
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            next_id: 0,
            jitter_state: seed,
        })
    }

    /// Sets (or clears) the socket read/write timeout. With a timeout
    /// set, a stalled or dead server surfaces as [`ClientError::Io`]
    /// within the bound instead of blocking a caller forever.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure (e.g. a zero duration).
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(&encode_request(id, request))?;
        Ok(id)
    }

    /// Queues a pipelined predict; returns the request id to correlate
    /// the response. Call [`flush`](Self::flush) before blocking on
    /// [`recv`](Self::recv).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_predict(&mut self, tenant_id: u64, window: &Matrix) -> io::Result<u64> {
        self.send(&Request::Predict { tenant_id, window: window.clone() })
    }

    /// Queues a pipelined ingest (label = delayed ground truth for the
    /// oracle strategy).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_ingest(
        &mut self,
        tenant_id: u64,
        window: &Matrix,
        label: Option<u32>,
    ) -> io::Result<u64> {
        self.send(&Request::Ingest { tenant_id, label, window: window.clone() })
    }

    /// Flushes queued pipelined requests to the socket.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Blocks for the next response frame; returns `(request_id,
    /// response)`. Error *responses* (e.g. `Overloaded`) are returned as
    /// [`Response::Error`] values, not `Err` — pipelined callers decide
    /// per request.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure or server hang-up;
    /// [`ClientError::Malformed`] when the server's bytes fail
    /// validation.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        match read_frame(&mut self.reader)? {
            FrameRead::Closed => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            FrameRead::Oversized { declared } | FrameRead::Runt { declared } => {
                Err(ClientError::Malformed(format!("server framed {declared} bytes")))
            }
            FrameRead::Payload(payload) => {
                decode_response(&payload).map_err(|bad| ClientError::Malformed(bad.message))
            }
        }
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.send(request)?;
        self.flush()?;
        loop {
            let (got, response) = self.recv()?;
            if got == id || got == crate::protocol::UNKNOWN_REQUEST_ID {
                return Ok(response);
            }
            // A response to an earlier pipelined request; synchronous
            // callers after pipelined use must drain first — drop it.
        }
    }

    fn expect_prediction(response: Response) -> Result<WirePrediction, ClientError> {
        match response {
            Response::Prediction(p) => Ok(p),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Malformed(format!("expected a prediction, got {other:?}"))),
        }
    }

    /// Synchronous predict: send, flush, block for the prediction.
    ///
    /// # Errors
    ///
    /// Transport / framing errors, or [`ClientError::Server`] when the
    /// server answers with an error response.
    pub fn predict(
        &mut self,
        tenant_id: u64,
        window: &Matrix,
    ) -> Result<WirePrediction, ClientError> {
        let response = self.round_trip(&Request::Predict { tenant_id, window: window.clone() })?;
        Self::expect_prediction(response)
    }

    /// Synchronous ingest.
    ///
    /// # Errors
    ///
    /// Same conditions as [`predict`](Self::predict).
    pub fn ingest(
        &mut self,
        tenant_id: u64,
        window: &Matrix,
        label: Option<u32>,
    ) -> Result<WirePrediction, ClientError> {
        let response =
            self.round_trip(&Request::Ingest { tenant_id, label, window: window.clone() })?;
        Self::expect_prediction(response)
    }

    /// [`predict`](Self::predict) with `Overloaded`-aware retry: an
    /// admission-control refusal sleeps an exponentially-growing,
    /// jittered delay and tries again, up to [`RetryPolicy::attempts`].
    /// Every other error — transport, protocol, model rejection — is
    /// returned immediately; retrying cannot fix those.
    ///
    /// # Errors
    ///
    /// Same conditions as [`predict`](Self::predict); the final
    /// `Overloaded` is returned when every attempt was refused.
    pub fn predict_retrying(
        &mut self,
        tenant_id: u64,
        window: &Matrix,
        policy: RetryPolicy,
    ) -> Result<WirePrediction, ClientError> {
        self.with_retry(policy, |c| c.predict(tenant_id, window))
    }

    /// [`ingest`](Self::ingest) with `Overloaded`-aware retry (see
    /// [`predict_retrying`](Self::predict_retrying)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ingest`](Self::ingest).
    pub fn ingest_retrying(
        &mut self,
        tenant_id: u64,
        window: &Matrix,
        label: Option<u32>,
        policy: RetryPolicy,
    ) -> Result<WirePrediction, ClientError> {
        self.with_retry(policy, |c| c.ingest(tenant_id, window, label))
    }

    fn with_retry(
        &mut self,
        policy: RetryPolicy,
        mut call: impl FnMut(&mut Self) -> Result<WirePrediction, ClientError>,
    ) -> Result<WirePrediction, ClientError> {
        let attempts = policy.attempts.max(1);
        let mut delay = policy.base_delay;
        // All attempts but the last may back off and go around; the last
        // one falls through below and returns whatever it got.
        for _ in 1..attempts {
            match call(self) {
                Err(ClientError::Server { code: ErrorCode::Overloaded, .. }) => {
                    std::thread::sleep(self.jittered(delay));
                    delay = (delay * 2).min(policy.max_delay);
                }
                outcome => return outcome,
            }
        }
        call(self)
    }

    /// Scales `delay` by a factor in `[0.5, 1.5)` from the xorshift64*
    /// stream, de-synchronizing a fleet of refused clients.
    fn jittered(&mut self, delay: Duration) -> Duration {
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        let unit = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        delay.mul_f64(0.5 + unit)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport / framing errors; a non-Pong answer is
    /// [`ClientError::Malformed`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Malformed(format!("expected pong, got {other:?}"))),
        }
    }

    /// Scrapes the server's telemetry: counters, gauges, per-stage
    /// latency histograms and the adaptation journal tail. Answered by
    /// the server's writer thread for this connection, after every reply
    /// queued before it, so it counts every reply this client has
    /// received and works even while every worker queue is refusing
    /// admission.
    ///
    /// # Errors
    ///
    /// Transport / framing errors; [`ClientError::Malformed`] when the
    /// snapshot bytes fail to decode (e.g. a version this build does not
    /// speak).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(bytes) => {
                StatsSnapshot::decode(&bytes).map_err(|e| ClientError::Malformed(e.to_string()))
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Malformed(format!("expected stats, got {other:?}"))),
        }
    }

    /// Sends pre-encoded raw bytes — the corruption tests' entry point
    /// for hostile frames.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }
}
