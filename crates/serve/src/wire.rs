//! The JSON envelope inside each frame.
//!
//! A client sends [`RequestFrame`]s — a correlation id, a tenant name,
//! an optional deadline budget and one [`RequestBody`] — and receives
//! [`ResponseFrame`]s echoing the id. Bodies are externally tagged
//! (`{"Simulate": {...}}`), and the payloads are exactly the
//! `rcarb::backend` request/response structs: the wire adds correlation,
//! deadlines and error reporting, never semantics.
//!
//! Responses are deterministic functions of their request (no
//! timestamps, no server identity), which is what makes the transport
//! equivalence tests possible: the same request must produce the same
//! *bytes* in-process and over a socket.
//!
//! Every [`WireError`] carries a machine-readable `retryable` hint: it
//! is `true` exactly when the server guarantees the request **never
//! reached dispatch** (quota rejection, graceful-drain `GoAway`,
//! wire-level damage), so a client retry can never duplicate a backend
//! execution.

use rcarb::backend::{
    AnalyzeRequest, AnalyzeResponse, Backend, PlanRequest, PlanResponse, SimulateRequest,
    SimulateResponse, SweepRequest, SweepResponse, SynthesizeRequest, SynthesizeResponse,
};
use rcarb_core::Error;
use rcarb_json::{decode_fields, Decoder, FromJson, Json, JsonError, ToJson};

/// One client request: a correlation id (echoed on the response), the
/// requesting tenant, an optional deadline, and the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id; responses to pipelined requests may
    /// arrive out of order, so clients match on this.
    pub id: u64,
    /// Tenant name for quota accounting and per-tenant metrics.
    pub tenant: String,
    /// Optional deadline budget in milliseconds, counted from the
    /// moment the server decodes the frame. Work that would start after
    /// the budget elapses is shed with
    /// [`ErrorCode::DeadlineExceeded`] *before* the backend runs —
    /// admission, the bounded queue, and worker pickup all honor it.
    pub deadline_ms: Option<u64>,
    /// The operation to perform.
    pub body: RequestBody,
}

/// One server response, correlated by `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The request's correlation id (0 for protocol-level errors raised
    /// before a request id could be parsed).
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// The operations a client can request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe; answered with [`ResponseBody::Pong`] without
    /// touching the backend.
    Ping,
    /// [`Backend::synthesize`].
    Synthesize(SynthesizeRequest),
    /// [`Backend::plan`].
    Plan(PlanRequest),
    /// [`Backend::analyze`].
    Analyze(AnalyzeRequest),
    /// [`Backend::simulate`].
    Simulate(SimulateRequest),
    /// [`Backend::sweep`].
    Sweep(SweepRequest),
}

impl RequestBody {
    /// The operation's name, for spans and per-method metrics.
    pub fn method(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Synthesize(_) => "synthesize",
            RequestBody::Plan(_) => "plan",
            RequestBody::Analyze(_) => "analyze",
            RequestBody::Simulate(_) => "simulate",
            RequestBody::Sweep(_) => "sweep",
        }
    }
}

/// The outcomes a server can answer with.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Answer to [`RequestBody::Ping`].
    Pong,
    /// Answer to [`RequestBody::Synthesize`].
    Synthesize(SynthesizeResponse),
    /// Answer to [`RequestBody::Plan`].
    Plan(PlanResponse),
    /// Answer to [`RequestBody::Analyze`].
    Analyze(AnalyzeResponse),
    /// Answer to [`RequestBody::Simulate`].
    Simulate(SimulateResponse),
    /// Answer to [`RequestBody::Sweep`].
    Sweep(SweepResponse),
    /// The request failed; the connection stays usable (except after
    /// protocol-level errors, where the server hangs up).
    Error(WireError),
}

impl ResponseBody {
    /// True for [`ResponseBody::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, ResponseBody::Error(_))
    }
}

/// A served failure: a machine-readable code, a retryability guarantee,
/// plus the underlying error's rendered message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Failure classification.
    pub code: ErrorCode,
    /// `true` exactly when the server guarantees the request never
    /// reached dispatch, so resending it cannot duplicate a backend
    /// execution. Client retry policies must refuse to auto-retry
    /// anything else.
    pub retryable: bool,
    /// Human-readable detail (the backend error's `Display`).
    pub message: String,
}

/// Classification of a served failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request itself was malformed (unknown names, bad ranges,
    /// unparseable payload). Not retryable: the same bytes will fail
    /// the same way.
    BadRequest,
    /// The tenant exceeded its in-flight quota; the request was turned
    /// away at admission, so it is safe to retry after completions.
    QuotaExceeded,
    /// The backend rejected a well-formed request (bind/channel/fault
    /// plan errors — the design, not the protocol, is at fault).
    Backend,
    /// The server failed internally.
    Internal,
    /// The request's deadline elapsed before the backend ran; the work
    /// was shed at admission or in the queue. Not retryable — the
    /// budget is already spent.
    DeadlineExceeded,
    /// The server is draining for shutdown and admitted nothing; fail
    /// over to another instance and retry there.
    GoAway,
    /// The frame was damaged in transit (checksum mismatch, truncation,
    /// a peer stall mid-frame). The request inside was never parsed,
    /// so resending on a fresh connection is safe.
    Transport,
}

rcarb_json::impl_json_unit_enum!(ErrorCode {
    BadRequest,
    QuotaExceeded,
    Backend,
    Internal,
    DeadlineExceeded,
    GoAway,
    Transport,
});
rcarb_json::impl_json_struct!(WireError {
    code,
    retryable,
    message
});
rcarb_json::impl_json_struct!(ResponseFrame { id, body });

// RequestFrame is not `impl_json_struct!`: `deadline_ms` may be omitted
// as well as null (older clients never send it).
impl ToJson for RequestFrame {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_owned(), self.id.to_json()),
            ("tenant".to_owned(), self.tenant.to_json()),
            ("deadline_ms".to_owned(), self.deadline_ms.to_json()),
            ("body".to_owned(), self.body.to_json()),
        ])
    }
}

impl FromJson for RequestFrame {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        let frame = decode_fields!(d, { id, tenant, deadline_ms = None, body } => {
            Self { id, tenant, deadline_ms, body }
        });
        Ok(frame)
    }
}

impl WireError {
    /// Classifies a backend [`Error`] onto the wire. Never retryable:
    /// the request reached dispatch.
    pub fn from_backend(err: &Error) -> Self {
        let code = match err {
            Error::Request { .. } | Error::InvalidTaskCount { .. } | Error::InvalidBurst => {
                ErrorCode::BadRequest
            }
            _ => ErrorCode::Backend,
        };
        Self {
            code,
            retryable: false,
            message: err.to_string(),
        }
    }

    /// A quota rejection for `tenant` — turned away at admission, safe
    /// to retry.
    pub fn quota(tenant: &str, limit: usize) -> Self {
        Self {
            code: ErrorCode::QuotaExceeded,
            retryable: true,
            message: format!("tenant `{tenant}` is at its in-flight quota ({limit})"),
        }
    }

    /// A graceful-drain rejection — the server admitted nothing, fail
    /// over and retry elsewhere.
    pub fn goaway() -> Self {
        Self {
            code: ErrorCode::GoAway,
            retryable: true,
            message: "server is draining for shutdown; no new work admitted".to_owned(),
        }
    }

    /// A deadline shed: the budget elapsed at `stage` ("admission" or
    /// "queue") before the backend ran.
    pub fn deadline(stage: &str) -> Self {
        Self {
            code: ErrorCode::DeadlineExceeded,
            retryable: false,
            message: format!("deadline elapsed at {stage} before the backend ran"),
        }
    }

    /// A wire-damage rejection: the frame never parsed, so the request
    /// never existed server-side and a resend is safe.
    pub fn transport(detail: impl std::fmt::Display) -> Self {
        Self {
            code: ErrorCode::Transport,
            retryable: true,
            message: detail.to_string(),
        }
    }

    /// A malformed-payload rejection (valid frame, bad contents).
    pub fn bad_request(detail: impl std::fmt::Display) -> Self {
        Self {
            code: ErrorCode::BadRequest,
            retryable: false,
            message: detail.to_string(),
        }
    }
}

impl ToJson for RequestBody {
    fn to_json(&self) -> Json {
        match self {
            RequestBody::Ping => Json::Str("Ping".to_owned()),
            RequestBody::Synthesize(r) => tag("Synthesize", r),
            RequestBody::Plan(r) => tag("Plan", r),
            RequestBody::Analyze(r) => tag("Analyze", r),
            RequestBody::Simulate(r) => tag("Simulate", r),
            RequestBody::Sweep(r) => tag("Sweep", r),
        }
    }
}

impl FromJson for RequestBody {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        let unknown = |name: &str| JsonError::shape(format!("unknown request `{name}`"));
        if d.peek() == Some(b'"') {
            return match &*d.string()? {
                "Ping" => Ok(RequestBody::Ping),
                other => Err(unknown(other)),
            };
        }
        let shape = "expected a single-key request object or a bare variant string";
        d.variant(shape, shape, |d, tag| match tag {
            "Synthesize" => FromJson::from_json(d).map(RequestBody::Synthesize),
            "Plan" => FromJson::from_json(d).map(RequestBody::Plan),
            "Analyze" => FromJson::from_json(d).map(RequestBody::Analyze),
            "Simulate" => FromJson::from_json(d).map(RequestBody::Simulate),
            "Sweep" => FromJson::from_json(d).map(RequestBody::Sweep),
            other => Err(unknown(other)),
        })
    }
}

impl ToJson for ResponseBody {
    fn to_json(&self) -> Json {
        match self {
            ResponseBody::Pong => Json::Str("Pong".to_owned()),
            ResponseBody::Synthesize(r) => tag("Synthesize", r),
            ResponseBody::Plan(r) => tag("Plan", r),
            ResponseBody::Analyze(r) => tag("Analyze", r),
            ResponseBody::Simulate(r) => tag("Simulate", r),
            ResponseBody::Sweep(r) => tag("Sweep", r),
            ResponseBody::Error(e) => tag("Error", e),
        }
    }
}

impl FromJson for ResponseBody {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        let unknown = |name: &str| JsonError::shape(format!("unknown response `{name}`"));
        if d.peek() == Some(b'"') {
            return match &*d.string()? {
                "Pong" => Ok(ResponseBody::Pong),
                other => Err(unknown(other)),
            };
        }
        let shape = "expected a single-key response object or a bare variant string";
        d.variant(shape, shape, |d, tag| match tag {
            "Synthesize" => FromJson::from_json(d).map(ResponseBody::Synthesize),
            "Plan" => FromJson::from_json(d).map(ResponseBody::Plan),
            "Analyze" => FromJson::from_json(d).map(ResponseBody::Analyze),
            "Simulate" => FromJson::from_json(d).map(ResponseBody::Simulate),
            "Sweep" => FromJson::from_json(d).map(ResponseBody::Sweep),
            "Error" => FromJson::from_json(d).map(ResponseBody::Error),
            other => Err(unknown(other)),
        })
    }
}

fn tag<T: ToJson>(name: &str, value: &T) -> Json {
    Json::Obj(vec![(name.to_owned(), value.to_json())])
}

/// Answers one request body against a backend. This is the *entire*
/// service dispatch — both the daemon and the in-memory transport call
/// exactly this function, so they cannot diverge.
pub fn dispatch(backend: &dyn Backend, body: &RequestBody) -> ResponseBody {
    let result = match body {
        RequestBody::Ping => return ResponseBody::Pong,
        RequestBody::Synthesize(req) => backend.synthesize(req).map(ResponseBody::Synthesize),
        RequestBody::Plan(req) => backend.plan(req).map(ResponseBody::Plan),
        RequestBody::Analyze(req) => backend.analyze(req).map(ResponseBody::Analyze),
        RequestBody::Simulate(req) => backend.simulate(req).map(ResponseBody::Simulate),
        RequestBody::Sweep(req) => backend.sweep(req).map(ResponseBody::Sweep),
    };
    result.unwrap_or_else(|e| ResponseBody::Error(WireError::from_backend(&e)))
}

/// Encodes a response frame to its canonical wire bytes (compact JSON).
///
/// There is exactly one encoder so the byte-equivalence guarantee holds
/// by construction: every transport serializes through this function.
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    rcarb_json::to_string(frame).into_bytes()
}

/// Decodes a request frame from wire bytes.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed JSON or a document that is not a
/// request frame.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, JsonError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| JsonError::shape("request payload is not UTF-8"))?;
    rcarb_json::from_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb::backend::InProcessBackend;

    #[test]
    fn frames_round_trip_through_json() {
        let frame = RequestFrame {
            id: 42,
            tenant: "acme".to_owned(),
            deadline_ms: Some(1500),
            body: RequestBody::Synthesize(SynthesizeRequest::round_robin(6)),
        };
        let text = rcarb_json::to_string(&frame);
        let back: RequestFrame = rcarb_json::from_str(&text).unwrap();
        assert_eq!(frame, back);

        let resp = ResponseFrame {
            id: 42,
            body: ResponseBody::Error(WireError::quota("acme", 8)),
        };
        let bytes = encode_response(&resp);
        let back: ResponseFrame =
            rcarb_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn legacy_requests_without_a_deadline_still_decode() {
        let text = r#"{"id": 7, "tenant": "old", "body": "Ping"}"#;
        let frame: RequestFrame = rcarb_json::from_str(text).unwrap();
        assert_eq!(frame.deadline_ms, None);
        let null_text = r#"{"id": 7, "tenant": "old", "deadline_ms": null, "body": "Ping"}"#;
        let frame: RequestFrame = rcarb_json::from_str(null_text).unwrap();
        assert_eq!(frame.deadline_ms, None);
    }

    #[test]
    fn retryable_hints_match_the_dispatch_guarantee() {
        // Admission-stage rejections never dispatched: retryable.
        assert!(WireError::quota("t", 4).retryable);
        assert!(WireError::goaway().retryable);
        assert!(WireError::transport("checksum mismatch").retryable);
        // Dispatched or permanently doomed: not retryable.
        assert!(!WireError::deadline("queue").retryable);
        assert!(!WireError::bad_request("nonsense").retryable);
        let backend_err = Error::Request {
            detail: "bad".to_owned(),
        };
        assert!(!WireError::from_backend(&backend_err).retryable);
    }

    #[test]
    fn every_error_code_round_trips_with_its_retryable_hint() {
        for err in [
            WireError::quota("t", 1),
            WireError::goaway(),
            WireError::deadline("admission"),
            WireError::transport("stalled"),
            WireError::bad_request("junk"),
            WireError {
                code: ErrorCode::Internal,
                retryable: false,
                message: "boom".to_owned(),
            },
            WireError {
                code: ErrorCode::Backend,
                retryable: false,
                message: "no fit".to_owned(),
            },
        ] {
            let frame = ResponseFrame {
                id: 9,
                body: ResponseBody::Error(err.clone()),
            };
            let back: ResponseFrame =
                rcarb_json::from_str(std::str::from_utf8(&encode_response(&frame)).unwrap())
                    .unwrap();
            assert_eq!(back.body, ResponseBody::Error(err));
        }
    }

    #[test]
    fn ping_is_answered_without_a_backend_call() {
        assert_eq!(
            dispatch(&InProcessBackend::new(), &RequestBody::Ping),
            ResponseBody::Pong
        );
    }

    #[test]
    fn backend_errors_become_wire_errors() {
        let mut req = SynthesizeRequest::round_robin(4);
        req.encoding = "thermometer".to_owned();
        let body = dispatch(&InProcessBackend::new(), &RequestBody::Synthesize(req));
        match body {
            ResponseBody::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert!(!e.retryable);
                assert!(e.message.contains("thermometer"));
            }
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_payloads_error_cleanly() {
        assert!(decode_request(b"\xff\xfe").is_err());
        assert!(decode_request(b"{\"id\": }").is_err());
        assert!(decode_request(b"[1,2,3]").is_err());
    }
}
