//! The HTTP face of the query service: a JSON shim over
//! [`QueryService::execute`] mounted on the shared `ariadne-obs` HTTP
//! core, with the observability routes as fallback.
//!
//! ```text
//! GET /query?pql=<urlencoded PQL>[&params=k=v;k2=v2][&cursor=<token>]
//!           [&limit=N][&layers=LO..HI]
//!     X-Ariadne-Tenant: <quota identity, default "anonymous">
//! ```
//!
//! `200` responses carry the page, its replay cost, and `next_cursor`
//! (or `null` on the last page). `429`/`503` rejections carry a
//! `Retry-After` header. Everything else on the listener falls through
//! to [`ariadne_obs::obs_route`] (`/metrics`, `/trace`, `/report`,
//! `/healthz`).

use crate::{QueryPage, QueryRequest, QueryService, ServeError};
use ariadne_obs::export::escape;
use ariadne_obs::{obs_route, Handler, Request, Response};
use ariadne_pql::Value;
use std::sync::Arc;

/// The request handler for [`crate::serve`]: `/query` plus the
/// observability routes.
pub fn handler(service: Arc<QueryService>) -> Handler {
    Arc::new(move |req: &Request| -> Response {
        if req.path != "/query" {
            return obs_route(req);
        }
        if req.method != "GET" {
            return Response::plain(405, "only GET is supported\n");
        }
        handle_query(&service, req)
    })
}

fn handle_query(service: &QueryService, req: &Request) -> Response {
    let pql = req.param("pql");
    let cursor = req.param("cursor");
    let limit = match req.param("limit") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => return error_response(400, "limit must be a positive integer"),
        },
        None => None,
    };
    let layers = match req.param("layers") {
        Some(raw) => match parse_layers(&raw) {
            Some(range) => Some(range),
            None => {
                return error_response(
                    400,
                    "layers must be LO..HI with LO <= HI, or a single layer N",
                )
            }
        },
        None => None,
    };
    let tenant = req.header("x-ariadne-tenant").unwrap_or("anonymous");
    let raw_params = req.param("params").unwrap_or_default();
    let params: Vec<(&str, &str)> = match parse_params(&raw_params) {
        Some(pairs) => pairs,
        None => return error_response(400, "params must be k=v pairs separated by ';'"),
    };

    let request = QueryRequest {
        pql: pql.as_deref(),
        params: &params,
        cursor: cursor.as_deref(),
        limit,
        layers,
        tenant,
    };
    match service.execute(&request) {
        Ok(page) => Response::json(200, render_page(&page)),
        Err(e) => {
            let resp = error_response(e.status(), &e.to_string());
            match e {
                ServeError::Throttled { retry_after_secs }
                | ServeError::Busy { retry_after_secs } => {
                    resp.with_header("Retry-After", retry_after_secs.to_string())
                }
                _ => resp,
            }
        }
    }
}

/// `k=v` pairs separated by `;` (e.g. `alpha=v5;sigma=9`); an empty
/// string is no bindings.
fn parse_params(raw: &str) -> Option<Vec<(&str, &str)>> {
    raw.split(';')
        .filter(|pair| !pair.trim().is_empty())
        .map(|pair| pair.split_once('=').map(|(k, v)| (k.trim(), v.trim())))
        .collect()
}

/// `LO..HI` (inclusive, `LO <= HI`) or a bare `N` meaning `N..N`.
fn parse_layers(raw: &str) -> Option<(u32, u32)> {
    match raw.split_once("..") {
        Some((lo, hi)) => {
            let range: (u32, u32) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
            (range.0 <= range.1).then_some(range)
        }
        None => {
            let n: u32 = raw.trim().parse().ok()?;
            Some((n, n))
        }
    }
}

fn error_response(status: u16, message: &str) -> Response {
    let mut body = String::from("{\"error\":");
    json_string(&mut body, message);
    body.push_str("}\n");
    Response::json(status, body)
}

fn render_page(page: &QueryPage) -> String {
    let mut out = String::with_capacity(256 + page.rows().len() * 48);
    out.push_str(&format!(
        "{{\"fingerprint\":\"{:016x}\",\"layers\":[{},{}],\"total_rows\":{},\"offset\":{},\"returned\":{},\"cache\":\"{}\",",
        page.fingerprint,
        page.layer_range.0,
        page.layer_range.1,
        page.total_rows,
        page.offset,
        page.rows().len(),
        if page.cache_hit { "hit" } else { "miss" },
    ));
    out.push_str(&format!(
        "\"replay\":{{\"layers\":{},\"bytes_read\":{},\"segments_read\":{},\"segments_skipped\":{}}},",
        page.replay.layers,
        page.replay.bytes_read,
        page.replay.segments_read,
        page.replay.segments_skipped,
    ));
    out.push_str("\"rows\":[");
    for (i, (pred, tuple)) in page.rows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json_string(&mut out, pred);
        for value in tuple {
            out.push(',');
            json_value(&mut out, value);
        }
        out.push(']');
    }
    out.push_str("],\"next_cursor\":");
    match &page.next_cursor {
        Some(token) => json_string(&mut out, token),
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    out
}

/// Append `v` as JSON. Non-finite floats have no JSON spelling and are
/// emitted as strings.
fn json_value(out: &mut String, v: &Value) {
    match v {
        Value::Id(id) => out.push_str(&id.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) if f.is_finite() => out.push_str(&format!("{f:?}")),
        Value::Float(f) => json_string(out, &f.to_string()),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => json_string(out, s),
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_value(out, item);
            }
            out.push(']');
        }
        Value::Unit => out.push_str("null"),
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_param_parses_ranges_and_singletons() {
        assert_eq!(parse_layers("2..5"), Some((2, 5)));
        assert_eq!(parse_layers("7"), Some((7, 7)));
        assert_eq!(parse_layers(" 1 .. 3 "), Some((1, 3)));
        assert_eq!(parse_layers("3..3"), Some((3, 3)));
        assert_eq!(parse_layers("5..3"), None);
        assert_eq!(parse_layers("a..b"), None);
        assert_eq!(parse_layers(""), None);
    }

    #[test]
    fn params_parse_pairs() {
        assert_eq!(parse_params(""), Some(vec![]));
        assert_eq!(
            parse_params("alpha=v5; sigma=9"),
            Some(vec![("alpha", "v5"), ("sigma", "9")])
        );
        assert_eq!(parse_params("broken"), None);
    }

    #[test]
    fn json_strings_escape_controls() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_values_cover_every_variant() {
        let mut s = String::new();
        json_value(
            &mut s,
            &Value::List(std::sync::Arc::new(vec![
                Value::Id(3),
                Value::Int(-1),
                Value::Float(1.5),
                Value::Bool(true),
                Value::str("x"),
                Value::Unit,
            ])),
        );
        assert_eq!(s, "[3,-1,1.5,true,\"x\",null]");
        let mut nan = String::new();
        json_value(&mut nan, &Value::Float(f64::NAN));
        assert_eq!(nan, "\"NaN\"");
    }
}
