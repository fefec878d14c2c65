//! `nscd`: the near-stream simulation service.
//!
//! The evaluation harnesses call [`near_stream::RunRequest`] in
//! process; this crate puts the same engine behind a Unix socket so
//! simulations can be submitted from shell scripts, other languages, or
//! several processes at once — all sharing one worker pool and one
//! result cache. Two binaries:
//!
//! * `nscd` — the daemon ([`server::serve`]): accepts connections on a
//!   Unix socket, reads newline-delimited JSON requests, fans `run`
//!   requests across the shared [`nsc_sim::pool::ThreadPool`],
//!   consults the content-addressed result cache ([`nsc_sim::cache`])
//!   before simulating, and streams responses back **in submission
//!   order** per connection.
//! * `nsc-client` — a thin CLI ([`client`]): `submit`, `status`,
//!   `flush`, `shutdown` subcommands speaking the same protocol.
//!
//! # Wire protocol
//!
//! One JSON object per line (see [`json`] for the exact subset), client
//! to daemon:
//!
//! ```text
//! {"op":"run","id":1,"request_id":81985529216486895,"workload":"histogram","size":"tiny","mode":"NS"}
//! {"op":"status","id":2}
//! {"op":"metrics","id":3}
//! {"op":"logs","id":4}
//! {"op":"trace","id":5,"request_id":81985529216486895}
//! {"op":"inspect","id":6}
//! {"op":"inspect","id":7,"key":"00c5…32 hex digits…9e"}
//! {"op":"timeline","id":8,"since":41}
//! {"op":"health","id":9}
//! {"op":"flush","id":10}
//! {"op":"shutdown","id":11}
//! ```
//!
//! and back, in submission order:
//!
//! ```text
//! {"id":1,"ok":true,"request_id":81985529216486895,"cached":false,"workload":"histogram","mode":"NS","blob":"schema=nsc-run-v1\n...","latency":"{...}"}
//! {"id":2,"ok":true,"served":12,"cache_hits":8,"cache_misses":4,"jobs":8,...}
//! {"id":3,"ok":true,"schema":"nsc-metrics-v1","snapshot":"{...}"}
//! {"id":4,"ok":true,"count":17,"dropped":0,"lines":"{...}\n{...}\n"}
//! {"id":5,"ok":true,"request_id":81985529216486895,"wall_us":812,"spans":9,"tree":"{...}"}
//! {"id":6,"ok":true,"enabled":true,"hits":8,"misses":4,"stores":4,"bytes":3216,"entries":4}
//! {"id":8,"ok":true,"count":2,"latest_seq":43,"cap":900,"sample_ms":1000,"frames":"{...}\n{...}\n"}
//! {"id":9,"ok":true,"verdict":"ok","frames_seen":43,"rules":"{...}\n{...}\n"}
//! ```
//!
//! Both sides of the protocol have typed spellings: [`Request`] for the
//! client-to-daemon lines and [`Response`] for the daemon-to-client
//! lines; each `render`s to exactly the flat object above and `parse`s
//! back losslessly. The `inspect` op reports the result cache (hits,
//! misses and stores since startup, plus the records on disk and their
//! bytes; with an optional 32-hex-digit `"key"`, whether that one record
//! is present and its size).
//!
//! The `snapshot` of a `metrics` response is a full
//! [`nsc_sim::metrics`] registry snapshot (schema `nsc-metrics-v1`)
//! rendered as single-line JSON and carried as an escaped string field:
//! the wire protocol itself stays flat (strings/integers/booleans
//! only), and the client re-parses the nested document with
//! [`nsc_sim::json::parse`]. The `latency` of a `run` response and the
//! `tree` of a `trace` response travel the same way: they carry one
//! request's span tree ([`nsc_sim::span`], schema `nsc-span-v1`), and
//! are the *same* tree — the daemon seals it once, at delivery time.
//! The `lines` of a `logs` response is a newline-joined drain of the
//! [`nsc_sim::log`] flight recorder.
//!
//! Every `run` carries a 64-bit `request_id`, minted by the client (the
//! daemon mints one when the field is absent or zero) and echoed in the
//! response; it keys the daemon's bounded per-request trace store that
//! the `trace` op reads. A `request_id` reused within one connection is
//! rejected with a typed error. `trace` accepts an optional
//! `"perfetto":true` flag asking for a combined Chrome trace-event
//! document (serve spans + that run's sim events on one timeline).
//!
//! # Overload behavior
//!
//! A `run` may carry `"deadline_ms":N`; if the run is still queued when
//! that budget (measured from line arrival) expires, it is shed before
//! simulating. When the daemon's bounded admission queue
//! (`NSC_QUEUE_CAP`) is full, cache hits are still answered inline
//! (degraded mode) and misses get an immediate typed shed. Shed
//! responses are `ok:false` plus a `"shed"` reason — `"overloaded"`
//! (with a `"retry_after_ms"` hint), `"deadline_exceeded"`, or
//! `"shutting_down"` — see [`shed_obj`]. A completed `request_id`
//! resubmitted on a later connection is answered by replaying the
//! stored response (`"deduped":true`) instead of re-simulating, which
//! is what makes client retries after a lost response idempotent.
//!
//! The `blob` of a `run` response is the result-cache record
//! ([`near_stream::request::encode`]): every `f64` travels by bit
//! pattern, so a client-side [`near_stream::request::decode`] recovers
//! the daemon's [`RunResult`] exactly. `status` and `flush` responses
//! ride the same ordered response stream, which makes `flush` a drain
//! barrier: by the time its response arrives, every earlier `run` on
//! that connection has completed and been delivered.

pub mod client;
pub mod json;
pub mod server;

use json::Obj;
use near_stream::request::{self, CachedRun};
use near_stream::{ExecMode, RunResult};
use nsc_bench::{size_from_str, Prepared};
use nsc_sim::cache::{self, CacheStats, Footprint, Key, ResultCache};
use nsc_sim::fault::{self, FaultStats};
use nsc_sim::span::{self, SpanTrace};
use nsc_workloads::Size;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The spelling of a [`Size`] on the wire (inverse of
/// [`nsc_bench::size_from_str`]).
pub fn size_label(size: Size) -> &'static str {
    match size {
        Size::Tiny => "tiny",
        Size::Small => "small",
        Size::Paper => "paper",
    }
}

/// A parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Simulate `workload` at `size` under `mode` (cache-aware).
    Run {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Request trace id (0 = unset; the daemon mints one). Unique
        /// per connection; keys the daemon's trace store.
        request_id: u64,
        /// Table VI workload name.
        workload: String,
        /// Input scale.
        size: Size,
        /// Execution mode.
        mode: ExecMode,
        /// Per-request deadline in milliseconds, measured from the
        /// moment the request line started arriving (0 = the daemon's
        /// `NSC_DEADLINE_MS` default, which itself defaults to none).
        /// An admitted run whose deadline has already passed at dequeue
        /// is shed with a typed `deadline_exceeded` response instead of
        /// simulating.
        deadline_ms: u64,
    },
    /// Report served/cache/pool counters.
    Status {
        /// Correlation id.
        id: u64,
    },
    /// Dump the daemon's full metrics-registry snapshot.
    Metrics {
        /// Correlation id.
        id: u64,
    },
    /// Drain the daemon's log flight recorder.
    Logs {
        /// Correlation id.
        id: u64,
    },
    /// Fetch one request's sealed span tree from the trace store.
    Trace {
        /// Correlation id.
        id: u64,
        /// The run to look up.
        request_id: u64,
        /// Also return a combined Perfetto document (serve spans + that
        /// run's simulator events).
        perfetto: bool,
    },
    /// Report result-cache counters and occupancy (optionally one key's
    /// record).
    Inspect {
        /// Correlation id.
        id: u64,
        /// Optional 32-hex-digit cache key to probe individually.
        key: Option<String>,
    },
    /// Fetch sampled telemetry frames newer than a cursor
    /// (`nsc-timeline-v1`; see [`nsc_sim::timeline`]).
    Timeline {
        /// Correlation id.
        id: u64,
        /// Cursor: the highest frame `seq` the client has already
        /// seen (0 = everything the ring retains).
        since: u64,
    },
    /// Evaluate the daemon's SLO rules into a typed verdict.
    Health {
        /// Correlation id.
        id: u64,
    },
    /// Drain: respond once every earlier request has been answered.
    Flush {
        /// Correlation id.
        id: u64,
    },
    /// Graceful shutdown: drain in-flight runs, then stop accepting.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

impl Request {
    /// Parses one request line. `Err((id, message))` carries the
    /// request's id when one could be extracted (0 otherwise) so the
    /// server can still correlate the error response.
    pub fn parse(line: &str) -> Result<Request, (u64, String)> {
        let obj = Obj::parse(line).ok_or((0, format!("malformed request line: {line:?}")))?;
        let id = obj.get_num("id").ok_or((0, "missing numeric \"id\"".to_owned()))?;
        let op = obj.get_str("op").ok_or((id, "missing \"op\"".to_owned()))?;
        match op {
            "run" => {
                let workload = obj
                    .get_str("workload")
                    .ok_or((id, "run needs \"workload\"".to_owned()))?
                    .to_owned();
                let size_s = obj.get_str("size").unwrap_or("small");
                let size = size_from_str(size_s)
                    .ok_or((id, format!("unknown size: {size_s:?} (want tiny|small|full)")))?;
                let mode_s = obj.get_str("mode").unwrap_or("NS");
                let mode = ExecMode::parse(mode_s)
                    .ok_or((id, format!("unknown mode: {mode_s:?}")))?;
                let request_id = obj.get_num("request_id").unwrap_or(0);
                let deadline_ms = obj.get_num("deadline_ms").unwrap_or(0);
                Ok(Request::Run { id, request_id, workload, size, mode, deadline_ms })
            }
            "status" => Ok(Request::Status { id }),
            "metrics" => Ok(Request::Metrics { id }),
            "logs" => Ok(Request::Logs { id }),
            "trace" => {
                let request_id = obj
                    .get_num("request_id")
                    .ok_or((id, "trace needs numeric \"request_id\"".to_owned()))?;
                let perfetto = obj.get_bool("perfetto").unwrap_or(false);
                Ok(Request::Trace { id, request_id, perfetto })
            }
            "inspect" => {
                let key = obj.get_str("key").map(str::to_owned);
                Ok(Request::Inspect { id, key })
            }
            "timeline" => {
                let since = obj.get_num("since").unwrap_or(0);
                Ok(Request::Timeline { id, since })
            }
            "health" => Ok(Request::Health { id }),
            "flush" => Ok(Request::Flush { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err((id, format!("unknown op: {other:?}"))),
        }
    }

    /// Renders the request as one protocol line (client side).
    pub fn render(&self) -> String {
        match self {
            Request::Run { id, request_id, workload, size, mode, deadline_ms } => {
                let mut o = Obj::new()
                    .str("op", "run")
                    .num("id", *id)
                    .str("workload", workload)
                    .str("size", size_label(*size))
                    .str("mode", mode.label());
                if *request_id != 0 {
                    o = o.num("request_id", *request_id);
                }
                if *deadline_ms != 0 {
                    o = o.num("deadline_ms", *deadline_ms);
                }
                o.render()
            }
            Request::Status { id } => Obj::new().str("op", "status").num("id", *id).render(),
            Request::Metrics { id } => Obj::new().str("op", "metrics").num("id", *id).render(),
            Request::Logs { id } => Obj::new().str("op", "logs").num("id", *id).render(),
            Request::Trace { id, request_id, perfetto } => {
                let mut o = Obj::new()
                    .str("op", "trace")
                    .num("id", *id)
                    .num("request_id", *request_id);
                if *perfetto {
                    o = o.bool("perfetto", true);
                }
                o.render()
            }
            Request::Inspect { id, key } => {
                let mut o = Obj::new().str("op", "inspect").num("id", *id);
                if let Some(k) = key {
                    o = o.str("key", k);
                }
                o.render()
            }
            Request::Timeline { id, since } => {
                let mut o = Obj::new().str("op", "timeline").num("id", *id);
                if *since != 0 {
                    o = o.num("since", *since);
                }
                o.render()
            }
            Request::Health { id } => Obj::new().str("op", "health").num("id", *id).render(),
            Request::Flush { id } => Obj::new().str("op", "flush").num("id", *id).render(),
            Request::Shutdown { id } => Obj::new().str("op", "shutdown").num("id", *id).render(),
        }
    }

    /// The request's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Run { id, .. }
            | Request::Status { id }
            | Request::Metrics { id }
            | Request::Logs { id }
            | Request::Trace { id, .. }
            | Request::Inspect { id, .. }
            | Request::Timeline { id, .. }
            | Request::Health { id }
            | Request::Flush { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// One key's record, as reported by `inspect` with a `"key"` argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyReport {
    /// The probed key (32 hex digits).
    pub key: String,
    /// Whether the store holds a record for it.
    pub present: bool,
    /// The record's size in bytes (`0` when absent).
    pub bytes: u64,
}

/// The payload of an `inspect` response: the daemon's result-cache
/// counters and what its directory holds, flat on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InspectBody {
    /// Whether cache consultation is armed in the daemon process.
    pub enabled: bool,
    /// Hits, misses and stores since startup.
    pub stats: CacheStats,
    /// Records on disk and their bytes.
    pub footprint: Footprint,
    /// The individually probed key, when one was given.
    pub key: Option<KeyReport>,
}

/// A parsed protocol response — the daemon-to-client mirror of
/// [`Request`]. The daemon renders each handler's outcome through this
/// type (one flat object per line, same shapes as documented in the
/// module docs) and clients parse lines back into it losslessly.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A completed `run`: the result blob plus its provenance.
    Run {
        /// Correlation id, echoed from the request.
        id: u64,
        /// The run's trace id (client-minted or daemon-minted).
        request_id: u64,
        /// Whether the result was replayed from the result cache.
        cached: bool,
        /// Whether an idempotent resubmission replayed a stored
        /// response instead of re-simulating.
        deduped: bool,
        /// Workload name, echoed.
        workload: String,
        /// Execution mode, echoed.
        mode: ExecMode,
        /// The run's simulated cycle count.
        cycles: u64,
        /// The result-cache record ([`near_stream::request::encode`]).
        blob: String,
        /// The sealed span tree (`nsc-span-v1` JSON), appended by the
        /// daemon at delivery time; absent until then.
        latency: Option<String>,
    },
    /// Daemon counters (`status`).
    Status {
        /// Correlation id.
        id: u64,
        /// Runs completed since startup.
        served: u64,
        /// Result-cache hits.
        cache_hits: u64,
        /// Result-cache misses (the run simulated).
        cache_misses: u64,
        /// Worker-pool width.
        jobs: u64,
        /// Whether the result cache is armed.
        cache_enabled: bool,
        /// Milliseconds since the daemon started.
        uptime_ms: u64,
        /// Runs currently simulating.
        in_flight: u64,
        /// Runs admitted but not yet completed.
        queue_depth: u64,
        /// Admission-queue capacity.
        queue_cap: u64,
        /// Live connections.
        conns: u64,
        /// Connection cap.
        max_conns: u64,
    },
    /// A full metrics-registry snapshot (`metrics`).
    Metrics {
        /// Correlation id.
        id: u64,
        /// Snapshot schema (`nsc-metrics-v1`).
        schema: String,
        /// The registry snapshot as escaped single-line JSON.
        snapshot: String,
    },
    /// A drain of the log flight recorder (`logs`).
    Logs {
        /// Correlation id.
        id: u64,
        /// Records drained.
        count: u64,
        /// Records lost to ring overflow since the last drain.
        dropped: u64,
        /// Newline-joined rendered records.
        lines: String,
    },
    /// One request's sealed span tree (`trace`).
    Trace {
        /// Correlation id.
        id: u64,
        /// The traced run.
        request_id: u64,
        /// End-to-end wall time in microseconds.
        wall_us: u64,
        /// Span count.
        spans: u64,
        /// Simulator trace events captured for the run.
        sim_events: u64,
        /// The span tree (`nsc-span-v1` JSON).
        tree: String,
        /// Combined Chrome trace-event document, when requested.
        perfetto: Option<String>,
    },
    /// Tiered result-cache statistics (`inspect`).
    Inspect {
        /// Correlation id.
        id: u64,
        /// The cache report.
        body: InspectBody,
    },
    /// Sampled telemetry frames (`timeline`).
    Timeline {
        /// Correlation id.
        id: u64,
        /// Frames returned (those with `seq > since`).
        count: u64,
        /// Highest frame `seq` the daemon has recorded (the client's
        /// next cursor), 0 when the sampler has not fired yet.
        latest_seq: u64,
        /// Ring capacity (`NSC_TIMELINE_CAP`).
        cap: u64,
        /// Sampler interval in ms (0 = sampling disabled).
        sample_ms: u64,
        /// The frames as `nsc-timeline-v1` ndjson (one frame per
        /// line), carried as an escaped string field like `metrics`'
        /// `snapshot`.
        frames: String,
    },
    /// An SLO evaluation (`health`).
    Health {
        /// Correlation id.
        id: u64,
        /// Typed verdict: `ok`, `degraded` or `failing`.
        verdict: String,
        /// Number of frames the evaluation could see.
        frames_seen: u64,
        /// Per-rule evidence plus the verdict line, as ndjson (same
        /// document [`nsc_sim::timeline::HealthReport::to_ndjson`]
        /// renders).
        rules: String,
    },
    /// The drain barrier answered (`flush`).
    Flush {
        /// Correlation id.
        id: u64,
        /// This response's sequence number on the connection (= how
        /// many requests preceded it).
        flushed: u64,
    },
    /// Graceful-shutdown acknowledgement (`shutdown`).
    Shutdown {
        /// Correlation id.
        id: u64,
    },
    /// A typed overload shed: `ok:false` plus a machine-readable
    /// reason clients use to decide whether to retry.
    Shed {
        /// Correlation id.
        id: u64,
        /// The shed run's trace id (0 = none extracted).
        request_id: u64,
        /// `"overloaded"`, `"deadline_exceeded"`, or `"shutting_down"`.
        reason: String,
        /// Human-readable explanation.
        error: String,
        /// Backoff hint in milliseconds (0 = none).
        retry_after_ms: u64,
    },
    /// A genuine request error.
    Error {
        /// Correlation id (0 when none could be extracted).
        id: u64,
        /// The failing run's trace id (0 = not a run / none known).
        request_id: u64,
        /// What went wrong.
        error: String,
    },
}

impl Response {
    /// Builds the wire object (unrendered so the daemon can append
    /// delivery-time fields such as a `run`'s `latency`).
    pub fn to_obj(&self) -> Obj {
        match self {
            Response::Run {
                id,
                request_id,
                cached,
                deduped,
                workload,
                mode,
                cycles,
                blob,
                latency,
            } => {
                let mut o = Obj::new()
                    .num("id", *id)
                    .bool("ok", true)
                    .num("request_id", *request_id)
                    .bool("cached", *cached)
                    .str("workload", workload)
                    .str("mode", mode.label())
                    .num("cycles", *cycles)
                    .str("blob", blob);
                if let Some(l) = latency {
                    o = o.str("latency", l);
                }
                if *deduped {
                    o = o.bool("deduped", true);
                }
                o
            }
            Response::Status {
                id,
                served,
                cache_hits,
                cache_misses,
                jobs,
                cache_enabled,
                uptime_ms,
                in_flight,
                queue_depth,
                queue_cap,
                conns,
                max_conns,
            } => Obj::new()
                .num("id", *id)
                .bool("ok", true)
                .num("served", *served)
                .num("cache_hits", *cache_hits)
                .num("cache_misses", *cache_misses)
                .num("jobs", *jobs)
                .bool("cache_enabled", *cache_enabled)
                .num("uptime_ms", *uptime_ms)
                .num("in_flight", *in_flight)
                .num("queue_depth", *queue_depth)
                .num("queue_cap", *queue_cap)
                .num("conns", *conns)
                .num("max_conns", *max_conns),
            Response::Metrics { id, schema, snapshot } => Obj::new()
                .num("id", *id)
                .bool("ok", true)
                .str("schema", schema)
                .str("snapshot", snapshot),
            Response::Logs { id, count, dropped, lines } => Obj::new()
                .num("id", *id)
                .bool("ok", true)
                .num("count", *count)
                .num("dropped", *dropped)
                .str("lines", lines),
            Response::Trace {
                id,
                request_id,
                wall_us,
                spans,
                sim_events,
                tree,
                perfetto,
            } => {
                let mut o = Obj::new()
                    .num("id", *id)
                    .bool("ok", true)
                    .num("request_id", *request_id)
                    .num("wall_us", *wall_us)
                    .num("spans", *spans)
                    .num("sim_events", *sim_events)
                    .str("tree", tree);
                if let Some(p) = perfetto {
                    o = o.str("perfetto", p);
                }
                o
            }
            Response::Inspect { id, body } => {
                let mut o = Obj::new()
                    .num("id", *id)
                    .bool("ok", true)
                    .bool("enabled", body.enabled)
                    .num("hits", body.stats.hits)
                    .num("misses", body.stats.misses)
                    .num("stores", body.stats.stores)
                    .num("bytes", body.footprint.bytes)
                    .num("entries", body.footprint.entries);
                if let Some(k) = &body.key {
                    o = o
                        .str("key", &k.key)
                        .bool("key_present", k.present)
                        .num("key_bytes", k.bytes);
                }
                o
            }
            Response::Timeline { id, count, latest_seq, cap, sample_ms, frames } => Obj::new()
                .num("id", *id)
                .bool("ok", true)
                .num("count", *count)
                .num("latest_seq", *latest_seq)
                .num("cap", *cap)
                .num("sample_ms", *sample_ms)
                .str("frames", frames),
            Response::Health { id, verdict, frames_seen, rules } => Obj::new()
                .num("id", *id)
                .bool("ok", true)
                .str("verdict", verdict)
                .num("frames_seen", *frames_seen)
                .str("rules", rules),
            Response::Flush { id, flushed } => {
                Obj::new().num("id", *id).bool("ok", true).num("flushed", *flushed)
            }
            Response::Shutdown { id } => Obj::new().num("id", *id).bool("ok", true),
            Response::Shed { id, request_id, reason, error, retry_after_ms } => {
                let mut o = Obj::new()
                    .num("id", *id)
                    .bool("ok", false)
                    .str("error", error)
                    .str("shed", reason);
                if *request_id != 0 {
                    o = o.num("request_id", *request_id);
                }
                if *retry_after_ms != 0 {
                    o = o.num("retry_after_ms", *retry_after_ms);
                }
                o
            }
            Response::Error { id, request_id, error } => {
                let mut o = Obj::new().num("id", *id).bool("ok", false).str("error", error);
                if *request_id != 0 {
                    o = o.num("request_id", *request_id);
                }
                o
            }
        }
    }

    /// Renders the response as one protocol line (daemon side).
    pub fn render(&self) -> String {
        self.to_obj().render()
    }

    /// Classifies and parses one already-parsed wire object. The
    /// discriminant is structural (which fields are present), because
    /// the wire format predates this type and carries no `op` tag.
    pub fn from_obj(obj: &Obj) -> Option<Response> {
        let id = obj.get_num("id")?;
        let ok = obj.get_bool("ok")?;
        if !ok {
            let error = obj.get_str("error").unwrap_or_default().to_owned();
            let request_id = obj.get_num("request_id").unwrap_or(0);
            return Some(match obj.get_str("shed") {
                Some(reason) => Response::Shed {
                    id,
                    request_id,
                    reason: reason.to_owned(),
                    error,
                    retry_after_ms: obj.get_num("retry_after_ms").unwrap_or(0),
                },
                None => Response::Error { id, request_id, error },
            });
        }
        if let Some(blob) = obj.get_str("blob") {
            return Some(Response::Run {
                id,
                request_id: obj.get_num("request_id")?,
                cached: obj.get_bool("cached")?,
                deduped: obj.get_bool("deduped").unwrap_or(false),
                workload: obj.get_str("workload")?.to_owned(),
                mode: ExecMode::parse(obj.get_str("mode")?)?,
                cycles: obj.get_num("cycles")?,
                blob: blob.to_owned(),
                latency: obj.get_str("latency").map(str::to_owned),
            });
        }
        if let Some(snapshot) = obj.get_str("snapshot") {
            return Some(Response::Metrics {
                id,
                schema: obj.get_str("schema")?.to_owned(),
                snapshot: snapshot.to_owned(),
            });
        }
        if let Some(lines) = obj.get_str("lines") {
            return Some(Response::Logs {
                id,
                count: obj.get_num("count")?,
                dropped: obj.get_num("dropped")?,
                lines: lines.to_owned(),
            });
        }
        if let Some(tree) = obj.get_str("tree") {
            return Some(Response::Trace {
                id,
                request_id: obj.get_num("request_id")?,
                wall_us: obj.get_num("wall_us")?,
                spans: obj.get_num("spans")?,
                sim_events: obj.get_num("sim_events")?,
                tree: tree.to_owned(),
                perfetto: obj.get_str("perfetto").map(str::to_owned),
            });
        }
        if let Some(entries) = obj.get_num("entries") {
            let key = obj.get_str("key").map(|k| KeyReport {
                key: k.to_owned(),
                present: obj.get_bool("key_present").unwrap_or(false),
                bytes: obj.get_num("key_bytes").unwrap_or(0),
            });
            return Some(Response::Inspect {
                id,
                body: InspectBody {
                    enabled: obj.get_bool("enabled")?,
                    stats: CacheStats {
                        hits: obj.get_num("hits")?,
                        misses: obj.get_num("misses")?,
                        stores: obj.get_num("stores")?,
                    },
                    footprint: Footprint { entries, bytes: obj.get_num("bytes")? },
                    key,
                },
            });
        }
        if let Some(frames) = obj.get_str("frames") {
            return Some(Response::Timeline {
                id,
                count: obj.get_num("count")?,
                latest_seq: obj.get_num("latest_seq")?,
                cap: obj.get_num("cap")?,
                sample_ms: obj.get_num("sample_ms")?,
                frames: frames.to_owned(),
            });
        }
        if let Some(verdict) = obj.get_str("verdict") {
            return Some(Response::Health {
                id,
                verdict: verdict.to_owned(),
                frames_seen: obj.get_num("frames_seen")?,
                rules: obj.get_str("rules").unwrap_or_default().to_owned(),
            });
        }
        if let Some(flushed) = obj.get_num("flushed") {
            return Some(Response::Flush { id, flushed });
        }
        if obj.get_num("served").is_some() {
            return Some(Response::Status {
                id,
                served: obj.get_num("served")?,
                cache_hits: obj.get_num("cache_hits")?,
                cache_misses: obj.get_num("cache_misses")?,
                jobs: obj.get_num("jobs")?,
                cache_enabled: obj.get_bool("cache_enabled")?,
                uptime_ms: obj.get_num("uptime_ms")?,
                in_flight: obj.get_num("in_flight")?,
                queue_depth: obj.get_num("queue_depth")?,
                queue_cap: obj.get_num("queue_cap")?,
                conns: obj.get_num("conns")?,
                max_conns: obj.get_num("max_conns")?,
            });
        }
        Some(Response::Shutdown { id })
    }

    /// Parses one response line ([`Response::from_obj`] on the parsed
    /// object).
    pub fn parse(line: &str) -> Option<Response> {
        Response::from_obj(&Obj::parse(line)?)
    }

    /// The response's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Run { id, .. }
            | Response::Status { id, .. }
            | Response::Metrics { id, .. }
            | Response::Logs { id, .. }
            | Response::Trace { id, .. }
            | Response::Inspect { id, .. }
            | Response::Timeline { id, .. }
            | Response::Health { id, .. }
            | Response::Flush { id, .. }
            | Response::Shutdown { id }
            | Response::Shed { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }
}

/// Builds the `inspect` report from a live [`ResultCache`] (the daemon
/// calls this at delivery time; `nsc-client inspect --local` reads the
/// same report in process). The only caller that walks the cache
/// directory for its footprint.
pub fn inspect_body(store: &ResultCache, key: Option<&str>) -> Result<InspectBody, String> {
    let key = match key {
        None => None,
        Some(hex) => {
            let k = cache::Key::parse_hex(hex)
                .ok_or_else(|| format!("bad cache key (want 32 hex digits): {hex:?}"))?;
            let bytes = store.probe(&k);
            Some(KeyReport { key: k.hex(), present: bytes.is_some(), bytes: bytes.unwrap_or(0) })
        }
    };
    let footprint = store
        .footprint()
        .map_err(|e| format!("cache directory {}: {e}", store.root().display()))?;
    Ok(InspectBody { enabled: cache::enabled(), stats: store.stats(), footprint, key })
}

/// The outcome of one `run` request, before serialization.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's metrics.
    pub result: RunResult,
    /// Whether the result was replayed from the cache.
    pub cached: bool,
}

/// Executes one run request in this process: replays a stored result
/// when the cache holds one, otherwise builds and compiles the workload
/// and simulates it (storing the result when the cache is armed). This
/// is the daemon's backend, and also what `nsc-client submit --local`
/// calls.
pub fn execute(workload: &str, size: Size, mode: ExecMode) -> Result<RunOutcome, String> {
    execute_spanned(workload, size, mode, &mut SpanTrace::begin(0))
}

/// [`execute`] with per-phase attribution: records `pool_dispatch`
/// (workload build + kernel compilation), `cache_probe` (key memo read
/// or digest, then one result-cache lookup) and `simulate` (the run and
/// its store) spans into `spans`. With the cache armed, a request whose
/// key is already memoized (see [`request_key`]) builds and compiles
/// nothing: a hit is one memo probe plus one lookup, and `pool_dispatch`
/// reads zero. If that lookup misses (the record was purged or fails to
/// decode), the build happens inside `simulate`. The simulation is
/// untouched — only wall-clock fences are added around it — so results
/// stay byte-identical with or without a live trace.
pub fn execute_spanned(
    workload: &str,
    size: Size,
    mode: ExecMode,
    spans: &mut SpanTrace,
) -> Result<RunOutcome, String> {
    let t0 = span::now_us();
    let Some(name) = resolve(workload) else {
        spans.push("pool_dispatch", t0, span::now_us());
        return Err(format!(
            "unknown workload: {workload:?} (known: {})",
            nsc_workloads::names().join(", ")
        ));
    };
    if !cache::enabled() {
        let p = prepare(name, size);
        let t1 = span::now_us();
        spans.push("pool_dispatch", t0, t1);
        spans.push("cache_probe", t1, t1);
        let result = spans
            .time("simulate", || p.request(mode, &nsc_bench::system_for(size)).try_run())
            .map_err(|e| e.to_string())?
            .0;
        return Ok(RunOutcome { result, cached: false });
    }
    let store = cache::shared();
    let memo = MemoKey::armed(name, size, mode);
    let mut built = None;
    let (t_probe, key) = match remembered(&memo) {
        Some(key) => (t0, key),
        None => {
            let p = built.insert(prepare(name, size));
            let t1 = span::now_us();
            (t1, remember(memo, p.request(mode, &nsc_bench::system_for(size)).key()))
        }
    };
    spans.push("pool_dispatch", t0, t_probe);
    let hit = request::lookup_cached(store, &key);
    spans.push("cache_probe", t_probe, span::now_us());
    if let Some(result) = hit {
        return Ok(RunOutcome { result, cached: true });
    }
    let result = spans
        .time("simulate", || {
            let p = built.unwrap_or_else(|| prepare(name, size));
            p.request(mode, &nsc_bench::system_for(size)).try_run_and_store_in(store, &key)
        })
        .map_err(|e| e.to_string())?;
    Ok(RunOutcome { result, cached: false })
}

/// The listed workload name spelled `workload`, if there is one.
fn resolve(workload: &str) -> Option<&'static str> {
    nsc_workloads::names().into_iter().find(|n| *n == workload)
}

/// Builds and compiles one listed workload.
fn prepare(name: &'static str, size: Size) -> Prepared {
    nsc_bench::prepare(nsc_workloads::by_name(name, size).expect("listed names build"))
}

/// A `run` request's identity in the key memo: the tuple plus the
/// calling thread's armed fault plan, which the content key folds in.
/// The plan enters by its `Debug` rendering, which prints every field
/// and each `f64` exactly (shortest round-trip).
#[derive(PartialEq, Eq, Hash)]
struct MemoKey {
    workload: &'static str,
    size: Size,
    mode: ExecMode,
    plan: Option<String>,
}

impl MemoKey {
    fn armed(workload: &'static str, size: Size, mode: ExecMode) -> MemoKey {
        let plan = fault::current_plan().map(|p| format!("{p:?}"));
        MemoKey { workload, size, mode, plan }
    }
}

/// The process's request → content-key memo. Sound because, within one
/// process, the workload generators, `system_for(size)` and `compile`
/// are deterministic in the memo key (`NSC_COMPILE` only changes the
/// bytecode plan, which the content key leaves out). Bounded because
/// only resolved names enter: 14 workloads × 3 sizes × 8 modes × the
/// plans armed around them (the daemon arms none or one per tuple).
fn key_memo() -> &'static Mutex<HashMap<MemoKey, Key>> {
    static MEMO: OnceLock<Mutex<HashMap<MemoKey, Key>>> = OnceLock::new();
    MEMO.get_or_init(Default::default)
}

fn remembered(memo: &MemoKey) -> Option<Key> {
    key_memo().lock().unwrap_or_else(|e| e.into_inner()).get(memo).copied()
}

fn remember(memo: MemoKey, key: Key) -> Key {
    key_memo().lock().unwrap_or_else(|e| e.into_inner()).insert(memo, key);
    key
}

/// The content key a `run` of `workload` at `size` under `mode` is
/// cached under, given the fault plan armed on the calling thread — the
/// key [`execute`] looks up. Memoized per process: the first call for a
/// tuple builds, compiles and digests its workload, later calls are one
/// hash-map probe. `None` for an unknown workload.
pub fn request_key(workload: &str, size: Size, mode: ExecMode) -> Option<Key> {
    let name = resolve(workload)?;
    let memo = MemoKey::armed(name, size, mode);
    Some(remembered(&memo).unwrap_or_else(|| {
        remember(memo, prepare(name, size).request(mode, &nsc_bench::system_for(size)).key())
    }))
}

/// Builds a successful `run` response (unrendered: the daemon appends
/// the `latency` field at delivery time, once the span tree is sealed).
pub fn run_response(id: u64, request_id: u64, workload: &str, mode: ExecMode, out: &RunOutcome) -> Obj {
    Response::Run {
        id,
        request_id,
        cached: out.cached,
        deduped: false,
        workload: workload.to_owned(),
        mode,
        cycles: out.result.cycles,
        blob: request::encode(&out.result, &FaultStats::default()),
        latency: None,
    }
    .to_obj()
}

/// Builds an error response (unrendered, for callers that append fields).
pub fn error_obj(id: u64, msg: &str) -> Obj {
    Response::Error { id, request_id: 0, error: msg.to_owned() }.to_obj()
}

/// Builds a typed shed response: `ok:false` with a machine-readable
/// `shed` reason (`"overloaded"`, `"deadline_exceeded"`,
/// `"shutting_down"`) so clients can distinguish "back off and retry"
/// from a genuine request error. A non-zero `retry_after_ms` carries
/// the daemon's backoff hint (its current queue backlog times the
/// smoothed per-run wall time).
pub fn shed_obj(id: u64, request_id: u64, reason: &str, msg: &str, retry_after_ms: u64) -> Obj {
    Response::Shed {
        id,
        request_id,
        reason: reason.to_owned(),
        error: msg.to_owned(),
        retry_after_ms,
    }
    .to_obj()
}

/// Whether `response` is a shed a client may retry after backing off
/// (`overloaded` / `shutting_down`). A `deadline_exceeded` shed is
/// deliberately *not* retryable: the caller's time budget is spent.
pub fn is_retryable_shed(response: &Obj) -> bool {
    response.get_bool("ok") == Some(false)
        && matches!(response.get_str("shed"), Some("overloaded" | "shutting_down"))
}

/// Whether a run request would be answered from the result cache
/// without simulating — the saturation-time probe behind the daemon's
/// degraded mode (cache hits keep flowing while misses are shed). Any
/// fault plan installed on the calling thread participates in the key,
/// exactly as it would on the run path.
pub fn cache_would_hit(workload: &str, size: Size, mode: ExecMode) -> bool {
    // The memoized key makes a warm probe one hash-map read plus one
    // `stat` of the record file, without touching the hit/miss counters:
    // that is what keeps degraded mode cheap.
    cache::enabled()
        && request_key(workload, size, mode).is_some_and(|key| cache::shared().contains(&key))
}

/// Renders an error response line.
pub fn error_response(id: u64, msg: &str) -> String {
    error_obj(id, msg).render()
}

/// Decodes the `blob` of a `run` response back into the daemon's exact
/// [`RunResult`].
pub fn decode_response_blob(resp: &Obj) -> Option<CachedRun> {
    request::decode(resp.get_str("blob")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_roundtrip() {
        let reqs = [
            Request::Run {
                id: 3,
                request_id: 0,
                workload: "histogram".into(),
                size: Size::Tiny,
                mode: ExecMode::Ns,
                deadline_ms: 0,
            },
            Request::Run {
                id: 8,
                request_id: 0x0123_4567_89AB_CDEF,
                workload: "bin_tree".into(),
                size: Size::Small,
                mode: ExecMode::Base,
                deadline_ms: 0,
            },
            Request::Run {
                id: 12,
                request_id: 7,
                workload: "sssp".into(),
                size: Size::Tiny,
                mode: ExecMode::Ns,
                deadline_ms: 1500,
            },
            Request::Status { id: 4 },
            Request::Metrics { id: 5 },
            Request::Logs { id: 9 },
            Request::Trace { id: 10, request_id: 77, perfetto: false },
            Request::Trace { id: 11, request_id: 78, perfetto: true },
            Request::Inspect { id: 13, key: None },
            Request::Inspect { id: 14, key: Some("00112233445566778899aabbccddeeff".into()) },
            Request::Timeline { id: 15, since: 0 },
            Request::Timeline { id: 16, since: 42 },
            Request::Health { id: 17 },
            Request::Flush { id: 6 },
            Request::Shutdown { id: 7 },
        ];
        for r in reqs {
            let line = r.render();
            assert_eq!(Request::parse(&line), Ok(r), "line: {line}");
        }
    }

    #[test]
    fn response_lines_roundtrip() {
        let resps = [
            Response::Run {
                id: 1,
                request_id: 0x0123_4567_89AB_CDEF,
                cached: true,
                deduped: false,
                workload: "histogram".into(),
                mode: ExecMode::Ns,
                cycles: 123_456,
                blob: "schema=nsc-run-v1\ncycles=123456\n".into(),
                latency: None,
            },
            Response::Run {
                id: 2,
                request_id: 7,
                cached: false,
                deduped: true,
                workload: "sssp".into(),
                mode: ExecMode::Base,
                cycles: 9,
                blob: "schema=nsc-run-v1\n".into(),
                latency: Some("{\"schema\":\"nsc-span-v1\"}".into()),
            },
            Response::Status {
                id: 3,
                served: 12,
                cache_hits: 8,
                cache_misses: 4,
                jobs: 8,
                cache_enabled: true,
                uptime_ms: 5000,
                in_flight: 1,
                queue_depth: 2,
                queue_cap: 64,
                conns: 3,
                max_conns: 32,
            },
            Response::Metrics {
                id: 4,
                schema: "nsc-metrics-v1".into(),
                snapshot: "{\"counters\":{}}".into(),
            },
            Response::Logs { id: 5, count: 17, dropped: 0, lines: "a\nb\n".into() },
            Response::Trace {
                id: 6,
                request_id: 77,
                wall_us: 812,
                spans: 9,
                sim_events: 40,
                tree: "{\"schema\":\"nsc-span-v1\"}".into(),
                perfetto: None,
            },
            Response::Inspect {
                id: 7,
                body: InspectBody {
                    enabled: true,
                    stats: CacheStats { hits: 10, misses: 11, stores: 12 },
                    footprint: Footprint { entries: 12, bytes: 9648 },
                    key: None,
                },
            },
            Response::Inspect {
                id: 8,
                body: InspectBody {
                    enabled: false,
                    stats: CacheStats::default(),
                    footprint: Footprint::default(),
                    key: Some(KeyReport {
                        key: "00112233445566778899aabbccddeeff".into(),
                        present: true,
                        bytes: 812,
                    }),
                },
            },
            Response::Inspect {
                id: 18,
                body: InspectBody {
                    enabled: true,
                    stats: CacheStats { hits: 0, misses: 1, stores: 1 },
                    footprint: Footprint { entries: 1, bytes: 804 },
                    key: Some(KeyReport {
                        key: "ffeeddccbbaa99887766554433221100".into(),
                        present: false,
                        bytes: 0,
                    }),
                },
            },
            Response::Timeline {
                id: 15,
                count: 2,
                latest_seq: 9,
                cap: 900,
                sample_ms: 1000,
                frames: "{\"schema\":\"nsc-timeline-v1\",\"seq\":8}\n{\"schema\":\"nsc-timeline-v1\",\"seq\":9}\n".into(),
            },
            Response::Timeline {
                id: 16,
                count: 0,
                latest_seq: 0,
                cap: 900,
                sample_ms: 0,
                frames: String::new(),
            },
            Response::Health {
                id: 17,
                verdict: "degraded".into(),
                frames_seen: 5,
                rules: "{\"rule\":\"p99_us\",\"breached\":true}\n".into(),
            },
            Response::Flush { id: 9, flushed: 4 },
            Response::Shutdown { id: 10 },
            Response::Shed {
                id: 11,
                request_id: 0xBEEF,
                reason: "overloaded".into(),
                error: "admission queue full".into(),
                retry_after_ms: 120,
            },
            Response::Error { id: 12, request_id: 0, error: "unknown op".into() },
            Response::Error { id: 13, request_id: 55, error: "unknown request_id".into() },
        ];
        for r in resps {
            let line = r.render();
            assert_eq!(Response::parse(&line), Some(r), "line: {line}");
        }
    }

    #[test]
    fn response_id_covers_every_variant() {
        assert_eq!(Response::Shutdown { id: 42 }.id(), 42);
        assert_eq!(Response::Flush { id: 7, flushed: 1 }.id(), 7);
        assert_eq!(
            Response::Error { id: 9, request_id: 0, error: "x".into() }.id(),
            9
        );
    }

    #[test]
    fn inspect_body_rejects_bad_keys() {
        let dir = std::env::temp_dir().join(format!("nsc-inspect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultCache::at(dir.clone());
        assert!(inspect_body(&store, Some("not-hex")).is_err());
        assert!(inspect_body(&store, Some("abcd")).is_err());
        let body = inspect_body(&store, Some(&"ab".repeat(16))).expect("well-formed key");
        let k = body.key.expect("key report present");
        assert_eq!((k.present, k.bytes), (false, 0), "unknown key has no record");
        assert_eq!(body.footprint, Footprint::default(), "a missing directory is empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_restarted_store_reports_and_hits_earlier_records() {
        let dir = std::env::temp_dir().join(format!("nsc-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = ResultCache::at(dir.clone());
        let keys: Vec<Key> = (0..4u64)
            .map(|i| Key::parse_hex(&format!("{:032x}", 0xa0 + i)).unwrap())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            first.store(k, &"z".repeat(32 + i)).unwrap();
        }
        let before = inspect_body(&first, None).unwrap().footprint;
        assert_eq!(before, Footprint { entries: 4, bytes: 32 + 33 + 34 + 35 });

        // A second store over the same directory (a restarted daemon)
        // starts with zeroed counters but sees every earlier record.
        let second = ResultCache::at(dir.clone());
        let body = inspect_body(&second, Some(&keys[2].hex())).unwrap();
        assert_eq!(body.footprint, before);
        assert_eq!(body.stats, CacheStats::default());
        let k = body.key.expect("key report present");
        assert_eq!((k.present, k.bytes), (true, 34));
        for (i, k) in keys.iter().enumerate() {
            let blob = second.lookup(k, |b| Some(b.to_owned()));
            assert_eq!(blob, Some("z".repeat(32 + i)));
        }
        assert_eq!(second.stats(), CacheStats { hits: 4, misses: 0, stores: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_responses_are_typed_and_classified() {
        let o = shed_obj(4, 0xBEEF, "overloaded", "admission queue full", 120);
        let line = o.render();
        let back = Obj::parse(&line).unwrap();
        assert_eq!(back.get_bool("ok"), Some(false));
        assert_eq!(back.get_str("shed"), Some("overloaded"));
        assert_eq!(back.get_num("retry_after_ms"), Some(120));
        assert_eq!(back.get_num("request_id"), Some(0xBEEF));
        assert!(is_retryable_shed(&back));

        let deadline = shed_obj(5, 1, "deadline_exceeded", "expired in queue", 0);
        assert!(!is_retryable_shed(&deadline), "deadline sheds must not auto-retry");
        assert!(deadline.get_num("retry_after_ms").is_none());

        let draining = shed_obj(6, 2, "shutting_down", "daemon draining", 0);
        assert!(is_retryable_shed(&draining));

        let genuine = error_obj(7, "unknown workload");
        assert!(!is_retryable_shed(&genuine), "plain errors are not sheds");
    }

    #[test]
    fn cache_probe_is_safe_for_unknown_workloads() {
        // Regardless of cache state, probing a nonexistent workload must
        // report a miss (the run path will answer with a typed error).
        assert!(!cache_would_hit("not-a-workload", Size::Tiny, ExecMode::Ns));
        // The run path's typed error still names every known workload.
        let err = execute("not-a-workload", Size::Tiny, ExecMode::Ns).unwrap_err();
        for name in nsc_workloads::names() {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    #[test]
    fn trace_without_request_id_is_rejected() {
        let (id, msg) = Request::parse("{\"id\":4,\"op\":\"trace\"}").unwrap_err();
        assert_eq!(id, 4);
        assert!(msg.contains("request_id"), "got: {msg}");
    }

    #[test]
    fn bad_requests_keep_their_id() {
        assert_eq!(Request::parse("not json").unwrap_err().0, 0);
        assert_eq!(Request::parse("{\"op\":\"run\"}").unwrap_err().0, 0);
        let (id, msg) = Request::parse("{\"id\":9,\"op\":\"warp\"}").unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("unknown op"));
        let (id, _) = Request::parse("{\"id\":9,\"op\":\"run\",\"workload\":\"x\",\"size\":\"huge\"}")
            .unwrap_err();
        assert_eq!(id, 9);
    }

    #[test]
    fn run_response_blob_is_exact() {
        let out = execute("histogram", Size::Tiny, ExecMode::Ns).expect("run");
        let line = run_response(1, 0xABCD, "histogram", ExecMode::Ns, &out).render();
        let resp = Obj::parse(&line).expect("response parses");
        assert_eq!(resp.get_bool("ok"), Some(true));
        assert_eq!(resp.get_num("request_id"), Some(0xABCD));
        let back = decode_response_blob(&resp).expect("blob decodes");
        // Bit-exact round trip: the re-encoded record matches byte for
        // byte (RunResult has no PartialEq; the codec is the equality).
        assert_eq!(
            request::encode(&back.result, &FaultStats::default()),
            request::encode(&out.result, &FaultStats::default()),
        );
    }

    #[test]
    fn execute_rejects_unknown_workload() {
        let err = execute("nope", Size::Tiny, ExecMode::Base).unwrap_err();
        assert!(err.contains("unknown workload"), "got: {err}");
    }

    #[test]
    fn execute_spanned_records_backend_phases() {
        let mut spans = SpanTrace::begin(42);
        execute_spanned("histogram", Size::Tiny, ExecMode::Ns, &mut spans).expect("run");
        let tree = spans.finish();
        for name in ["pool_dispatch", "cache_probe", "simulate"] {
            assert!(tree.span(name).is_some(), "missing span {name}");
        }
        assert!(tree.spans_total_us() <= tree.wall_us);
    }
}
