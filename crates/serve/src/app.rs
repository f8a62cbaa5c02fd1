//! The service application: routing, request handlers, the response cache,
//! and the chaos hook on the request path.
//!
//! Endpoints (all bodies JSON):
//!
//! | route            | request                                   | response                      |
//! |------------------|-------------------------------------------|-------------------------------|
//! | `POST /link`     | `{"mention", "context"?}`                 | ranked candidate units        |
//! | `POST /annotate` | `{"text"}`                                | linked quantity mentions      |
//! | `POST /convert`  | `{"value", "from", "to"}`                 | converted value (dimension law)|
//! | `POST /solve`    | `{"equation"}`                            | calculator answer (§VI-D)     |
//! | `POST /verify`   | `{"equation", "quantities", "answer_unit"?}` | typed dimensional verdict  |
//! | `GET /healthz`   | —                                         | liveness                      |
//! | `GET /metrics`   | —                                         | this server's metrics JSON    |
//!
//! Every `POST` consults [`dimkb::degrade::inject`] once under the
//! [`SITE_REQUEST`] site with the app's [`AppConfig::faults`] plan before
//! doing work: with the default (off) plan, or rate 0, responses are
//! byte-identical to a chaos-free build; with an active plan a faulted
//! request is answered with a structured degraded `503` (and quarantined)
//! instead of crashing a worker — injected panics are caught by the
//! worker's per-request isolation and land in the same degraded path.

use crate::cache::ShardedLru;
use crate::http::{Method, Request, Response};
use crate::json;
use crate::metrics::ServerMetrics;
use dim_chaos::FaultPlan;
use dim_core::DimKs;
use dimkb::degrade::{QuarantineEntry, RecordError};
use dimlink::LinkResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Chaos/quarantine site for the request path (every `POST` consults it).
pub const SITE_REQUEST: &str = "srv.request";

/// Upper bound on retained quarantine entries; beyond it only the counter
/// moves (a chaos soak must not grow memory without bound).
const MAX_QUARANTINE_ENTRIES: usize = 1024;

/// Shards of the response cache.
const CACHE_SHARDS: usize = 8;

/// Application configuration.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// LRU entries per shard; 0 turns the response cache off.
    pub cache_per_shard: usize,
    /// Record faults injected on the request path (off by default).
    pub faults: FaultPlan,
}

impl Default for AppConfig {
    fn default() -> AppConfig {
        AppConfig { cache_per_shard: 128, faults: FaultPlan::OFF }
    }
}

/// The assembled application: DimKS plus serving infrastructure, and the
/// metrics of the server it runs in.
pub struct App {
    ks: DimKs,
    cache: ShardedLru,
    faults: FaultPlan,
    seq: AtomicU64,
    metrics: ServerMetrics,
    quarantine: Mutex<Vec<QuarantineEntry>>,
}

impl App {
    /// Builds the app over the standard (lexical) DimKS.
    pub fn new(config: AppConfig) -> App {
        App {
            ks: DimKs::standard(),
            cache: ShardedLru::new(CACHE_SHARDS, config.cache_per_shard),
            faults: config.faults,
            seq: AtomicU64::new(0),
            metrics: ServerMetrics::default(),
            quarantine: Mutex::new(Vec::new()),
        }
    }

    /// The response cache (test/report hook).
    pub fn cache(&self) -> &ShardedLru {
        &self.cache
    }

    /// The server's metrics; the server's threads count into them too.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The metrics as `GET /metrics` and the drain report render them.
    pub fn metrics_snapshot(&self) -> dim_obs::Snapshot {
        self.metrics.snapshot(self.cache.len())
    }

    /// Snapshot of retained quarantine entries.
    pub fn quarantine_entries(&self) -> Vec<QuarantineEntry> {
        self.lock_quarantine().clone()
    }

    /// Routes and executes one request. Infallible by construction: every
    /// failure mode is a structured response. (Panics are possible only
    /// through the engine or an injected fault, and the server worker wraps
    /// this call in per-request isolation — see [`App::degraded_response`].)
    pub fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        let m = &self.metrics;
        m.requests.inc();
        let response = self.route(req);
        match response.status {
            200..=299 => m.responses_2xx.inc(),
            400..=499 => m.responses_4xx.inc(),
            _ => m.responses_5xx.inc(),
        }
        m.request.observe(started.elapsed().as_nanos() as u64);
        response
    }

    fn route(&self, req: &Request) -> Response {
        match (req.method, req.target.as_str()) {
            (Method::Get, "/healthz") => Response::json(200, "{\"status\":\"ok\"}".to_string()),
            (Method::Get, "/metrics") => {
                let mut body = self.metrics_snapshot().to_json();
                // The obs writer pretty-prints with a trailing newline;
                // serve bodies are exact-length, so keep it as-is.
                if body.ends_with('\n') {
                    body.pop();
                }
                Response::json(200, body)
            }
            (Method::Post, "/link" | "/annotate" | "/convert" | "/solve") => {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed); // lint:allow(relaxed_ordering, uniqueness comes from fetch_add atomicity; no ordering needed)
                // The chaos hook: an inactive plan has no effect.
                if let Err(e) = dimkb::degrade::inject(self.faults, SITE_REQUEST, seq as usize) {
                    return self.quarantined_response(seq, e);
                }
                self.dispatch_post(req)
            }
            // Same per-request chaos wiring as the other POST routes, in
            // its own arm so the established chaos transcripts (which
            // never call `/verify`) stay byte-identical.
            (Method::Post, "/verify") => {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed); // lint:allow(relaxed_ordering, uniqueness comes from fetch_add atomicity; no ordering needed)
                if let Err(e) = dimkb::degrade::inject(self.faults, SITE_REQUEST, seq as usize) {
                    return self.quarantined_response(seq, e);
                }
                self.dispatch_post(req)
            }
            (Method::Post, _) => error_response(404, "no such endpoint"),
            (Method::Get, _) => error_response(404, "no such endpoint"),
        }
    }

    fn dispatch_post(&self, req: &Request) -> Response {
        let body = match req.body_utf8() {
            Ok(b) => b,
            Err(e) => return error_response(400, &e.to_string()),
        };
        let key = cache_key(&req.target, body);
        if let Some(hit) = self.cache.get(&key) {
            return Response::json(200, hit);
        }
        let parsed = match json::parse(body) {
            Ok(v) => v,
            Err(e) => return error_response(400, &format!("invalid JSON body: {e}")),
        };
        let result = match req.target.as_str() {
            "/link" => self.link(&parsed),
            "/annotate" => self.annotate(&parsed),
            "/convert" => self.convert(&parsed),
            "/solve" => self.solve(&parsed),
            "/verify" => self.verify(&parsed),
            _ => Err((404, "no such endpoint".to_string())),
        };
        match result {
            Ok(body) => {
                self.cache.insert(&key, body.clone());
                Response::json(200, body)
            }
            Err((status, msg)) => error_response(status, &msg),
        }
    }

    /// `POST /link` — unit linking (Definition 1).
    fn link(&self, v: &dim_json::Value) -> Result<String, (u16, String)> {
        let mention = json::str_field(v, "mention").map_err(|e| (400, e))?;
        let context = json::opt_str_field(v, "context").map_err(|e| (400, e))?.unwrap_or("");
        let ks = &self.ks;
        let links = ks.link(mention, context);
        let mut out = String::from("{\"mention\":");
        dim_json::write_string(mention, &mut out);
        out.push_str(",\"links\":[");
        for (i, l) in links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_link(ks, &mut out, l);
        }
        out.push_str("]}");
        Ok(out)
    }

    /// `POST /annotate` — sentence annotation via the DimKS annotator.
    fn annotate(&self, v: &dim_json::Value) -> Result<String, (u16, String)> {
        let text = json::str_field(v, "text").map_err(|e| (400, e))?;
        let ks = &self.ks;
        let mentions = ks.annotate(text);
        let mut out = String::from("{\"mentions\":[");
        for (i, m) in mentions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"value\":");
            json::number(&mut out, m.value);
            out.push_str(",\"unit\":");
            dim_json::write_string(&ks.kb().unit(m.best_unit()).code, &mut out);
            out.push_str(",\"surface\":");
            dim_json::write_string(&m.unit_surface, &mut out);
            out.push_str(&format!(",\"start\":{},\"end\":{}", m.start, m.end));
            out.push_str(&format!(",\"candidates\":{}", m.links.len()));
            out.push('}');
        }
        out.push_str("]}");
        Ok(out)
    }

    /// `POST /convert` — dimensional conversion through the KB, applying
    /// the dimension law (incomparable units are a structured `422`).
    fn convert(&self, v: &dim_json::Value) -> Result<String, (u16, String)> {
        let value = json::num_field(v, "value").map_err(|e| (400, e))?;
        let from = json::str_field(v, "from").map_err(|e| (400, e))?;
        let to = json::str_field(v, "to").map_err(|e| (400, e))?;
        let ks = &self.ks;
        let from_id = resolve_unit(ks, from).ok_or_else(|| {
            (422, format!("unknown unit {from:?}"))
        })?;
        let to_id =
            resolve_unit(ks, to).ok_or_else(|| (422, format!("unknown unit {to:?}")))?;
        let kb = ks.kb();
        match kb.convert(value, from_id, to_id) {
            Ok(converted) => {
                let mut out = String::from("{\"value\":");
                json::number(&mut out, converted);
                out.push_str(",\"from\":");
                dim_json::write_string(&kb.unit(from_id).code, &mut out);
                out.push_str(",\"to\":");
                dim_json::write_string(&kb.unit(to_id).code, &mut out);
                out.push('}');
                Ok(out)
            }
            Err(e) => Err((422, e.to_string())),
        }
    }

    /// `POST /solve` — the §VI-D calculator over an MWP equation string.
    fn solve(&self, v: &dim_json::Value) -> Result<String, (u16, String)> {
        let equation = json::str_field(v, "equation").map_err(|e| (400, e))?;
        match dim_mwp::calculate(equation) {
            Ok(answer) => {
                let mut out = String::from("{\"answer\":");
                json::number(&mut out, answer);
                out.push('}');
                Ok(out)
            }
            Err(e) => Err((422, e.to_string())),
        }
    }

    /// `POST /verify` — dimensional verification of a solution equation
    /// against its quantities' units (the `dim-verify` two-law checker).
    /// Equation literals are bound to quantities by written value; unit
    /// surfaces resolve through the naming dictionary with the linker as
    /// fallback. The verdict is typed, never a bare bool: the dimension
    /// law reports the offending node and expected-vs-found vectors, the
    /// conversion law the node whose admissible scales are disjoint.
    fn verify(&self, v: &dim_json::Value) -> Result<String, (u16, String)> {
        let equation = json::str_field(v, "equation").map_err(|e| (400, e))?;
        let items = match json::field(v, "quantities") {
            Some(dim_json::Value::Arr(items)) => items,
            Some(_) => return Err((400, "field \"quantities\" must be an array".to_string())),
            None => return Err((400, "missing field \"quantities\"".to_string())),
        };
        let ks = &self.ks;
        let kb = ks.kb();
        let mut quantities = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let value =
                json::num_field(item, "value").map_err(|e| (400, format!("quantity {i}: {e}")))?;
            let unit = json::opt_str_field(item, "unit")
                .map_err(|e| (400, format!("quantity {i}: {e}")))?
                .unwrap_or("");
            let (unit_code, is_percent) = if unit.is_empty() {
                (None, false)
            } else if unit == "%" {
                (None, true)
            } else {
                let id = resolve_unit(ks, unit)
                    .ok_or_else(|| (422, format!("unresolvable unit {unit:?} in quantity {i}")))?;
                (Some(kb.unit(id).code.clone()), false)
            };
            quantities.push(dim_mwp::ProblemQuantity {
                value,
                unit_code,
                surface: unit.to_string(),
                is_percent,
            });
        }
        let (answer_dim, answer_scale) = match json::opt_str_field(v, "answer_unit")
            .map_err(|e| (400, e))?
        {
            None | Some("") => {
                (dim_verify::Ty::Dim(dimkb::DimVec::DIMENSIONLESS), dim_verify::Scales::one(1.0))
            }
            Some(surface) => {
                let id = resolve_unit(ks, surface)
                    .ok_or_else(|| (422, format!("unresolvable answer unit {surface:?}")))?;
                let u = kb.unit(id);
                let scales = if u.conversion.is_affine() {
                    dim_verify::Scales::Free
                } else {
                    dim_verify::Scales::one(u.conversion.factor)
                };
                (dim_verify::Ty::Dim(u.dim), scales)
            }
        };
        let tree = dim_mwp::parse(equation).map_err(|e| (422, e.to_string()))?;
        let bound = dim_verify::bind_quantities(&tree, &quantities);
        let (dims, scales) = dim_verify::resolve_quantities(&quantities, kb);
        let report = dim_verify::check(&bound, &dims, Some(answer_dim));
        let scale_report = dim_verify::check_scales(&bound, &scales, &answer_scale);

        let accepted = report.is_consistent() && scale_report.is_consistent();
        let mut out = String::from("{\"accepted\":");
        out.push_str(if accepted { "true" } else { "false" });
        out.push_str(",\"dim\":");
        match report {
            dim_verify::VerifyReport::Consistent { dim } => {
                out.push_str("{\"consistent\":true,\"vector\":");
                let vector = match dim {
                    dim_verify::Ty::Any => "any".to_string(),
                    dim_verify::Ty::Dim(d) => d.vector_form(),
                };
                dim_json::write_string(&vector, &mut out);
                out.push('}');
            }
            dim_verify::VerifyReport::Inconsistent { node, site, expected, found } => {
                out.push_str(&format!("{{\"consistent\":false,\"node\":{node},\"site\":"));
                dim_json::write_string(site.symbol(), &mut out);
                out.push_str(",\"expected\":");
                dim_json::write_string(&expected.vector_form(), &mut out);
                out.push_str(",\"found\":");
                dim_json::write_string(&found.vector_form(), &mut out);
                out.push('}');
            }
            dim_verify::VerifyReport::UnresolvableUnit { quantity } => {
                out.push_str(&format!(
                    "{{\"consistent\":false,\"unresolvable_quantity\":{quantity}}}"
                ));
            }
        }
        out.push_str(",\"scale\":");
        match scale_report {
            dim_verify::ScaleReport::Consistent => out.push_str("{\"consistent\":true}"),
            dim_verify::ScaleReport::Mismatch { node, site } => {
                out.push_str(&format!("{{\"consistent\":false,\"node\":{node},\"site\":"));
                dim_json::write_string(site.symbol(), &mut out);
                out.push('}');
            }
        }
        out.push('}');
        Ok(out)
    }

    /// The structured degraded `503` for a chaos-faulted request, recording
    /// the quarantine entry (bounded) and the `srv.degraded` counter.
    fn quarantined_response(&self, seq: u64, error: RecordError) -> Response {
        self.metrics.degraded.inc();
        {
            let mut q = self.lock_quarantine();
            if q.len() < MAX_QUARANTINE_ENTRIES {
                q.push(QuarantineEntry {
                    site: SITE_REQUEST.to_string(),
                    index: seq as usize,
                    error: error.to_string(),
                });
            }
        }
        let mut body = String::from("{\"degraded\":true,\"kind\":");
        dim_json::write_string(error.kind(), &mut body);
        body.push_str(",\"error\":");
        dim_json::write_string(&error.to_string(), &mut body);
        body.push('}');
        Response::json(503, body)
    }

    /// The degraded response for a request whose handler panicked (the
    /// worker's per-request `catch_unwind` calls this instead of dying;
    /// injected chaos panics land here).
    pub fn degraded_response(&self, message: String) -> Response {
        let seq = self.seq.load(Ordering::Relaxed).saturating_sub(1); // lint:allow(relaxed_ordering, best-effort attribution of a panicked request; exactness is not required)
        self.metrics.responses_5xx.inc();
        self.quarantined_response(seq, RecordError::Panicked(message))
    }

    fn lock_quarantine(&self) -> std::sync::MutexGuard<'_, Vec<QuarantineEntry>> {
        match self.quarantine.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Resolves a unit surface form: exact naming-dictionary hit first, then
/// the linker's fuzzy ranking.
fn resolve_unit(ks: &DimKs, surface: &str) -> Option<dimkb::UnitId> {
    if let Some(&id) = ks.kb().lookup(surface).first() {
        return Some(id);
    }
    ks.annotator().linker().link(surface, "").first().map(|l| l.unit)
}

/// Renders one link candidate into the response body.
fn render_link(ks: &DimKs, out: &mut String, l: &LinkResult) {
    out.push_str("{\"code\":");
    dim_json::write_string(&ks.kb().unit(l.unit).code, out);
    out.push_str(",\"score\":");
    json::number(out, l.score);
    out.push_str(",\"prior\":");
    json::number(out, l.prior);
    out.push_str(",\"mention_sim\":");
    json::number(out, l.mention_sim);
    out.push_str(",\"context_prob\":");
    json::number(out, l.context_prob);
    out.push('}')
}

/// The cache key for a `POST` request: route + raw body.
fn cache_key(target: &str, body: &str) -> String {
    format!("{target}\u{0}{body}")
}

/// A structured error response (`{"error": ...}`).
fn error_response(status: u16, message: &str) -> Response {
    let mut body = String::from("{\"error\":");
    dim_json::write_string(message, &mut body);
    body.push('}');
    Response::json(status, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: Method::Post,
            target: target.to_string(),
            headers: vec![("content-length".to_string(), body.len().to_string())],
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(target: &str) -> Request {
        Request { method: Method::Get, target: target.to_string(), headers: vec![], body: vec![] }
    }

    fn app() -> App {
        App::new(AppConfig::default())
    }

    #[test]
    fn healthz_is_static() {
        let app = app();
        let r = app.handle(&get("/healthz"));
        assert_eq!((r.status, r.body.as_str()), (200, "{\"status\":\"ok\"}"));
    }

    #[test]
    fn link_returns_ranked_candidates() {
        let app = app();
        let r = app.handle(&post("/link", "{\"mention\":\"km\",\"context\":\"driving\"}"));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"code\":\"KiloM\""), "{}", r.body);
    }

    #[test]
    fn annotate_finds_fig1_quantities() {
        let app = app();
        let r = app.handle(&post(
            "/annotate",
            "{\"text\":\"LeBron James's height is 2.06 meters and Stephen Curry's height is 188 cm.\"}",
        ));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"value\":2.06") && r.body.contains("\"unit\":\"M\""), "{}", r.body);
        assert!(r.body.contains("\"value\":188") && r.body.contains("\"unit\":\"CentiM\""));
    }

    #[test]
    fn convert_applies_dimension_law() {
        let app = app();
        let ok = app.handle(&post("/convert", "{\"value\":2.5,\"from\":\"m\",\"to\":\"cm\"}"));
        assert_eq!(ok.status, 200);
        assert!(ok.body.contains("\"value\":250"), "{}", ok.body);
        let bad = app.handle(&post("/convert", "{\"value\":1,\"from\":\"m\",\"to\":\"s\"}"));
        assert_eq!(bad.status, 422, "incomparable dimensions refuse: {}", bad.body);
        let unknown =
            app.handle(&post("/convert", "{\"value\":1,\"from\":\"zorblax\",\"to\":\"m\"}"));
        assert_eq!(unknown.status, 422);
    }

    #[test]
    fn solve_runs_the_calculator() {
        let app = app();
        let r = app.handle(&post("/solve", "{\"equation\":\"x=150*20%/5%-150\"}"));
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"answer\":450}");
        let bad = app.handle(&post("/solve", "{\"equation\":\"x=1+\"}"));
        assert_eq!(bad.status, 422);
    }

    #[test]
    fn verify_accepts_a_consistent_solution() {
        let app = app();
        let r = app.handle(&post(
            "/verify",
            "{\"equation\":\"x=100+50\",\"quantities\":[{\"value\":100,\"unit\":\"米\"},{\"value\":50,\"unit\":\"米\"}],\"answer_unit\":\"米\"}",
        ));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.starts_with("{\"accepted\":true"), "{}", r.body);
        assert!(r.body.contains("\"vector\":\"A0E0L1I0M0H0T0D0\""), "{}", r.body);
    }

    #[test]
    fn verify_flags_a_dimension_break_at_the_node() {
        let app = app();
        let r = app.handle(&post(
            "/verify",
            "{\"equation\":\"x=100+50\",\"quantities\":[{\"value\":100,\"unit\":\"米\"},{\"value\":50,\"unit\":\"千克\"}],\"answer_unit\":\"米\"}",
        ));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.starts_with("{\"accepted\":false"), "{}", r.body);
        assert!(r.body.contains("\"site\":\"+\""), "{}", r.body);
        assert!(r.body.contains("\"expected\"") && r.body.contains("\"found\""), "{}", r.body);
    }

    #[test]
    fn verify_flags_a_conversion_break_through_the_scale_law() {
        let app = app();
        // metres + centimetres: dimensionally clean, numerically wrong.
        let r = app.handle(&post(
            "/verify",
            "{\"equation\":\"x=100+50\",\"quantities\":[{\"value\":100,\"unit\":\"米\"},{\"value\":50,\"unit\":\"厘米\"}],\"answer_unit\":\"米\"}",
        ));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.starts_with("{\"accepted\":false"), "{}", r.body);
        assert!(r.body.contains("\"dim\":{\"consistent\":true"), "{}", r.body);
        assert!(r.body.contains("\"scale\":{\"consistent\":false"), "{}", r.body);

        // The same shape with an explicit conversion constant passes: the
        // constant is admitted in its unit-conversion reading. (Values
        // distinct from the constant, so literal binding is unambiguous.)
        let ok = app.handle(&post(
            "/verify",
            "{\"equation\":\"x=2+50/100\",\"quantities\":[{\"value\":2,\"unit\":\"米\"},{\"value\":50,\"unit\":\"厘米\"}],\"answer_unit\":\"米\"}",
        ));
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert!(ok.body.starts_with("{\"accepted\":true"), "{}", ok.body);
    }

    #[test]
    fn verify_rejects_unresolvable_units_and_bad_equations() {
        let app = app();
        let unknown = app.handle(&post(
            "/verify",
            "{\"equation\":\"x=1\",\"quantities\":[{\"value\":1,\"unit\":\"zorblax9000\"}]}",
        ));
        assert_eq!(unknown.status, 422, "{}", unknown.body);
        let bad_eq = app.handle(&post(
            "/verify",
            "{\"equation\":\"x=1+\",\"quantities\":[]}",
        ));
        assert_eq!(bad_eq.status, 422, "{}", bad_eq.body);
        let not_array = app.handle(&post("/verify", "{\"equation\":\"x=1\",\"quantities\":3}"));
        assert_eq!(not_array.status, 400, "{}", not_array.body);
    }

    #[test]
    fn malformed_bodies_are_400() {
        let app = app();
        for (target, body) in [
            ("/link", "{not json"),
            ("/link", "{\"context\":\"no mention\"}"),
            ("/link", "{\"mention\":42}"),
            ("/convert", "{\"value\":\"NaN-ish\",\"from\":\"m\",\"to\":\"cm\"}"),
            ("/solve", "{}"),
        ] {
            let r = app.handle(&post(target, body));
            assert_eq!(r.status, 400, "{target} {body} -> {}", r.body);
        }
        let mut req = post("/annotate", "{\"text\":\"x\"}");
        req.body = vec![0xFF, 0xFE];
        assert_eq!(app.handle(&req).status, 400);
    }

    #[test]
    fn unknown_routes_are_404() {
        let app = app();
        assert_eq!(app.handle(&get("/nope")).status, 404);
        assert_eq!(app.handle(&post("/nope", "{}")).status, 404);
    }

    #[test]
    fn repeated_request_is_served_from_cache() {
        let app = app();
        let req = post("/link", "{\"mention\":\"km\",\"context\":\"road\"}");
        let first = app.handle(&req);
        let cached = app.handle(&req);
        assert_eq!(first.body, cached.body, "cache must not change bytes");
        assert_eq!(app.cache().len(), 1);
    }

    #[test]
    fn metrics_endpoint_returns_snapshot_json() {
        let app = app();
        let r = app.handle(&get("/metrics"));
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with('{') && r.body.contains("\"counters\""), "{}", r.body);
    }
}
