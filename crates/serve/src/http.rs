//! Hand-rolled HTTP/1.1 request parsing and response rendering.
//!
//! The parser is *incremental*: [`parse`] inspects a byte buffer and either
//! returns a complete [`Request`] (plus how many bytes it consumed), asks
//! for more bytes ([`Parsed::Partial`]), or rejects the input with a typed
//! [`HttpError`] that maps onto a deterministic `4xx`/`5xx` status. It never
//! panics on any input — the workspace proptests feed it header soup,
//! multi-script UTF-8 and truncated/oversize requests — and it enforces
//! hard limits before buffering: request heads are capped at
//! [`MAX_HEAD_BYTES`] and bodies at [`MAX_BODY_BYTES`] (the same 64 KiB
//! record guard `dimkb::degrade` applies to batch inputs).
//!
//! A response is rendered whole into one string
//! ([`Response::render_into`]), which the server sends with a single write.
//! Responses carry no `Date` header, so a fixed request script yields
//! byte-identical transcripts run to run — the property the
//! `results/quick/serve.txt` golden pins.

use std::fmt::{self, Write as _};

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Maximum request-target length.
pub const MAX_TARGET_BYTES: usize = 1024;
/// Maximum body size — the same cap `dimkb::degrade` enforces per record.
pub const MAX_BODY_BYTES: usize = dimkb::degrade::MAX_RECORD_BYTES;

/// Request methods the service understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

impl Method {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

/// A parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (path), e.g. `/link`.
    pub target: String,
    /// Header `(name, value)` pairs in wire order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (at most [`MAX_BODY_BYTES`]).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after the response.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, or a `400` error.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadRequest("body is not valid UTF-8".to_string()))
    }
}

/// Outcome of an incremental parse attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// A full request was parsed from the first `consumed` bytes.
    Complete {
        /// The request.
        request: Request,
        /// Bytes of the buffer the request occupied (head + body).
        consumed: usize,
    },
    /// The buffer holds a valid prefix; read more bytes and retry.
    Partial,
}

/// A typed request-rejection reason; [`HttpError::status`] maps each onto
/// the deterministic status code the server answers with.
#[derive(Debug, Clone, PartialEq)]
pub enum HttpError {
    /// Malformed request line, header, or body (`400`).
    BadRequest(String),
    /// The target path exceeds [`MAX_TARGET_BYTES`] (`414`).
    TargetTooLong(usize),
    /// Declared body length exceeds [`MAX_BODY_BYTES`] (`413`).
    BodyTooLarge(usize),
    /// Request line + headers exceed [`MAX_HEAD_BYTES`] (`431`).
    HeadTooLarge,
    /// A syntactically valid method this server does not implement (`501`).
    UnsupportedMethod(String),
    /// `Transfer-Encoding` bodies are not implemented (`501`).
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The status code this rejection is answered with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::BodyTooLarge(_) => 413,
            HttpError::TargetTooLong(_) => 414,
            HttpError::HeadTooLarge => 431,
            HttpError::UnsupportedMethod(_) | HttpError::UnsupportedTransferEncoding => 501,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::TargetTooLong(n) => {
                write!(f, "target is {n} bytes (cap {MAX_TARGET_BYTES})")
            }
            HttpError::BodyTooLarge(n) => {
                write!(f, "declared body is {n} bytes (cap {MAX_BODY_BYTES})")
            }
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::UnsupportedMethod(m) => write!(f, "method {m:?} not implemented"),
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding bodies not implemented")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Incrementally parses one request from the front of `buf`.
///
/// Limits are enforced as early as the buffered bytes allow: an over-long
/// head or an oversize `Content-Length` declaration is rejected before the
/// server reads (or buffers) the offending bytes.
pub fn parse(buf: &[u8]) -> Result<Parsed, HttpError> {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        return Ok(Parsed::Partial);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len - 4]) // lint:allow(no_panic, head_len is a find_head_end offset: position + 4, so head_len - 4 <= buf.len())
        .map_err(|_| HttpError::BadRequest("head is not valid UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request head".to_string()))?;
    let (method, target) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("header line without colon: {line:?}")))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::BadRequest(format!("invalid header name: {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let req = Request { method, target, headers, body: Vec::new() };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let content_length = content_length(&req.headers)?;
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    if buf.len() < head_len + content_length {
        return Ok(Parsed::Partial);
    }
    let mut req = req;
    req.body = buf[head_len..head_len + content_length].to_vec(); // lint:allow(no_panic, the Partial check above guarantees buf.len() >= head_len + content_length)
    Ok(Parsed::Complete { request: req, consumed: head_len + content_length })
}

/// The declared body length: 0 without a `Content-Length` header. Every
/// `Content-Length` value must be `1*DIGIT` (RFC 7230 §3.3.2, so no sign)
/// and all of them must agree; otherwise the request is a `400`.
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut declared = None;
    for (_, v) in headers.iter().filter(|(name, _)| name == "content-length") {
        let n = match v.parse::<usize>() {
            // `parse` alone would also take a leading `+`.
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(HttpError::BadRequest(format!("invalid content-length: {v:?}"))),
        };
        if declared.is_some_and(|d| d != n) {
            return Err(HttpError::BadRequest("conflicting content-length headers".to_string()));
        }
        declared = Some(n);
    }
    Ok(declared.unwrap_or(0))
}

/// Byte offset one past the `\r\n\r\n` head terminator, if present within
/// the head cap (searching further would let a hostile peer grow the buffer
/// unboundedly before rejection).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES)]; // lint:allow(no_panic, upper bound is min-clamped to buf.len())
    window.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn parse_request_line(line: &str) -> Result<(Method, String), HttpError> {
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if parts.next().is_some() {
        return Err(HttpError::BadRequest(format!("malformed request line: {line:?}")));
    }
    if method.is_empty() || target.is_empty() || version.is_empty() {
        return Err(HttpError::BadRequest(format!("malformed request line: {line:?}")));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version: {version:?}")));
    }
    if target.len() > MAX_TARGET_BYTES {
        return Err(HttpError::TargetTooLong(target.len()));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!("target must be absolute: {target:?}")));
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other if other.bytes().all(is_token_byte) => {
            return Err(HttpError::UnsupportedMethod(other.to_string()));
        }
        other => {
            return Err(HttpError::BadRequest(format!("invalid method: {other:?}")));
        }
    };
    Ok((method, target.to_string()))
}

/// RFC 7230 `tchar` (the characters legal in methods and header names).
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// An HTTP response. The renderer emits `Content-Type`, `Content-Length`,
/// `Connection`, an optional `Retry-After` on overload sheds, and nothing
/// else (no `Date`, no `Server`) — so responses are a pure function of the
/// request and the server's admission decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Whether the server will close the connection after this response.
    pub close: bool,
    /// Optional `Retry-After` header, in whole seconds. `None` (the default
    /// for every existing constructor) keeps the wire form byte-identical to
    /// the pre-overload-control protocol, so goldens only change when a
    /// response is explicitly a shed.
    pub retry_after: Option<u16>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            close: false,
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After: secs` header (overload sheds only).
    pub fn with_retry_after(mut self, secs: u16) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// The deterministic error-shaped response for a parse rejection.
    pub fn from_error(err: &HttpError) -> Response {
        let mut body = String::from("{\"error\":");
        crate::json::string(&mut body, &err.to_string());
        body.push('}');
        // Parse errors leave the stream in an unknown state; always close.
        Response {
            status: err.status(),
            content_type: "application/json",
            body,
            close: true,
            retry_after: None,
        }
    }

    /// Overwrites `out` with the full wire form: status line, the fixed
    /// headers plus `Retry-After` when set, blank line, body. `out` is
    /// cleared first, so a buffer reused across a connection's responses
    /// never carries a longer predecessor's tail into the next one.
    pub fn render_into(&self, out: &mut String) {
        out.clear();
        // `fmt::Write` for `String` never fails.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(out, "Retry-After: {secs}\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
    }

    /// The full wire form as a fresh string (what transcripts and tests
    /// compare).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(raw: &[u8]) -> (Request, usize) {
        match parse(raw) {
            Ok(Parsed::Complete { request, consumed }) => (request, consumed),
            other => panic!("expected complete parse, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_without_body() {
        let (req, used) = complete(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert_eq!(used, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".len());
    }

    #[test]
    fn parses_post_with_body_and_reports_consumed() {
        let raw = b"POST /link HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdEXTRA";
        let (req, used) = complete(raw);
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"abcd");
        assert_eq!(used, raw.len() - 5, "trailing pipelined bytes are not consumed");
        // Repeated Content-Length headers are fine while they agree.
        let raw = b"POST /link HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let (req, _) = complete(raw);
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn partial_until_head_and_body_complete() {
        assert_eq!(parse(b"POST /link HTTP/1.1\r\nContent-"), Ok(Parsed::Partial));
        assert_eq!(
            parse(b"POST /link HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Ok(Parsed::Partial)
        );
    }

    #[test]
    fn rejects_oversize_declared_body_before_reading_it() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = parse(raw.as_bytes()).expect_err("over cap");
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn rejects_runaway_head() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        while raw.len() < MAX_HEAD_BYTES + 10 {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert_eq!(parse(&raw), Err(HttpError::HeadTooLarge));
    }

    #[test]
    fn rejects_malformed_lines_with_400() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: twelve\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 10\r\n\r\nbody",
            b"POST /x HTTP/1.1\r\nBad Header Name: v\r\n\r\n",
        ] {
            let err = parse(raw).expect_err("malformed");
            assert_eq!(err.status(), 400, "{raw:?} -> {err:?}");
        }
    }

    #[test]
    fn unknown_but_wellformed_method_is_501() {
        let err = parse(b"BREW /coffee HTTP/1.1\r\n\r\n").expect_err("teapot protocol");
        assert_eq!(err, HttpError::UnsupportedMethod("BREW".to_string()));
        assert_eq!(err.status(), 501);
        let err = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .expect_err("chunked");
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn target_cap_is_414() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_TARGET_BYTES + 1));
        assert_eq!(parse(raw.as_bytes()).map_err(|e| e.status()), Err(414));
    }

    #[test]
    fn response_wire_form_is_deterministic() {
        let r = Response::json(200, "{\"ok\":true}".to_string());
        assert_eq!(
            r.render(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: keep-alive\r\n\r\n{\"ok\":true}"
        );
        let mut closing = r;
        closing.close = true;
        assert!(closing.render().contains("Connection: close"));
    }

    #[test]
    fn retry_after_header_is_emitted_only_when_set() {
        let shed = Response::json(503, "{\"error\":\"x\"}".to_string()).with_retry_after(1);
        let wire = shed.render();
        assert!(wire.contains("\r\nRetry-After: 1\r\n\r\n"), "{wire}");
        let plain = Response::json(200, "{}".to_string());
        assert!(!plain.render().contains("Retry-After"));
    }

    /// A keep-alive connection renders every response into one reused
    /// buffer: a short response after a long one must not keep the long
    /// one's tail, whatever headers either carries.
    #[test]
    fn render_into_a_reused_buffer_equals_a_fresh_render() {
        let long = Response::json(200, format!("{{\"text\":\"{}\"}}", "x".repeat(512)));
        let short = Response::json(404, "{}".to_string());
        let shed = Response::json(503, "{\"error\":\"x\"}".to_string()).with_retry_after(1);
        let mut closing_shed = shed.clone();
        closing_shed.close = true;
        let mut closing = short.clone();
        closing.close = true;
        let mut wire = String::from("stale bytes left by an earlier response");
        for r in [&long, &short, &shed, &long, &closing_shed, &closing, &long, &short] {
            r.render_into(&mut wire);
            assert_eq!(wire, r.render(), "{} {:?}", r.status, r.retry_after);
        }
    }

    #[test]
    fn error_response_carries_status_and_closes() {
        let r = Response::from_error(&HttpError::BodyTooLarge(1 << 20));
        assert_eq!(r.status, 413);
        assert!(r.close);
        assert!(r.body.contains("1048576"));
    }
}
