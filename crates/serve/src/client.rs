//! The client library: one struct shared by the integration tests and
//! the `benchmark/` `serve_mixed` workload, so every consumer speaks
//! the exact same protocol.

use crate::proto::{
    kind, read_frame, write_frame, BatchSummary, LaneResult, ProtoError, ScenarioBatch,
};
use parendi_telemetry::MetricsSnapshot;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A submitted batch's full response: every retired lane (sorted by
/// lane index), the optional VCD slice, and the `DONE` summary.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-scenario outputs, sorted by lane.
    pub lanes: Vec<LaneResult>,
    /// The requested lane's VCD text, if the batch asked for one.
    pub vcd: Option<String>,
    /// Cost and provenance of the run.
    pub summary: BatchSummary,
}

impl BatchResult {
    /// The outputs of scenario `lane`, if it retired.
    pub fn lane(&self, lane: u32) -> Option<&LaneResult> {
        self.lanes.iter().find(|l| l.lane == lane)
    }
}

/// A connection to a running daemon. One request/response at a time;
/// open several clients for concurrency (connections are cheap, the
/// daemon is thread-per-connection).
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to the daemon at `socket`.
    pub fn connect(socket: impl AsRef<Path>) -> Result<Self, ProtoError> {
        let stream = UnixStream::connect(socket.as_ref()).map_err(|source| ProtoError::Io {
            context: "connect to serve socket",
            source,
        })?;
        Ok(Client { stream })
    }

    /// Submits a batch and collects the streamed response: lanes
    /// arrive as they retire, then the terminal `DONE`/`ERR`.
    pub fn submit(&mut self, batch: &ScenarioBatch) -> Result<BatchResult, ProtoError> {
        write_frame(&mut self.stream, kind::SUBMIT, batch.to_text().as_bytes())?;
        let mut lanes = Vec::new();
        let mut vcd = None;
        loop {
            match read_frame(&mut self.stream)? {
                (kind::LANE, payload) => {
                    let text = std::str::from_utf8(&payload)
                        .map_err(|_| ProtoError::Corrupt("lane frame is not UTF-8".into()))?;
                    lanes.push(LaneResult::from_text(text).map_err(ProtoError::Corrupt)?);
                }
                (kind::VCD, payload) => {
                    let text = std::str::from_utf8(&payload)
                        .map_err(|_| ProtoError::Corrupt("vcd frame is not UTF-8".into()))?;
                    // Strip the `lane <n>` header line; the caller
                    // asked for exactly one lane and knows which.
                    let body = text.split_once('\n').map(|(_, b)| b).unwrap_or("");
                    vcd = Some(body.to_string());
                }
                (kind::DONE, payload) => {
                    let text = std::str::from_utf8(&payload)
                        .map_err(|_| ProtoError::Corrupt("done frame is not UTF-8".into()))?;
                    let summary = BatchSummary::from_text(text).map_err(ProtoError::Corrupt)?;
                    lanes.sort_by_key(|l| l.lane);
                    return Ok(BatchResult {
                        lanes,
                        vcd,
                        summary,
                    });
                }
                (kind::ERR, payload) => {
                    return Err(ProtoError::Remote(
                        String::from_utf8_lossy(&payload).into_owned(),
                    ))
                }
                (k, _) => {
                    return Err(ProtoError::Corrupt(format!(
                        "unexpected frame kind {k} in submit response"
                    )))
                }
            }
        }
    }

    /// Fetches the daemon's metrics snapshot (cache hits/misses,
    /// queue depth, scenario totals).
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ProtoError> {
        write_frame(&mut self.stream, kind::STATS, b"")?;
        match read_frame(&mut self.stream)? {
            (kind::STATS_REPLY, payload) => Ok(MetricsSnapshot::parse_json(
                &String::from_utf8_lossy(&payload),
            )),
            (kind::ERR, payload) => Err(ProtoError::Remote(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            (k, _) => Err(ProtoError::Corrupt(format!(
                "unexpected frame kind {k} in stats response"
            ))),
        }
    }

    /// Drops every cached compile — the deterministic cold start the
    /// load generator's cold/warm split needs.
    pub fn clear_cache(&mut self) -> Result<(), ProtoError> {
        self.simple(kind::CLEAR)
    }

    /// Asks the daemon to stop accepting and exit. Consumes the
    /// client; the daemon confirms before the accept loop winds down.
    pub fn shutdown(mut self) -> Result<(), ProtoError> {
        self.simple(kind::SHUTDOWN)
    }

    fn simple(&mut self, req: u32) -> Result<(), ProtoError> {
        write_frame(&mut self.stream, req, b"")?;
        match read_frame(&mut self.stream)? {
            (kind::DONE, _) => Ok(()),
            (kind::ERR, payload) => Err(ProtoError::Remote(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            (k, _) => Err(ProtoError::Corrupt(format!(
                "unexpected frame kind {k} in reply"
            ))),
        }
    }
}
