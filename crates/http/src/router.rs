//! Method + path-pattern routing.
//!
//! The Chronos REST API is versioned (paper §2.2: "the API is versioned
//! [... so] new clients [can] use the newly developed features while other
//! clients still use older versions"), so route tables are built per version
//! prefix and mounted side by side on one server.
//!
//! Every request pays for routing before its handler runs, so
//! [`Router::dispatch`] decodes each path segment once per request and
//! tries the routes against those segments without allocating; only the
//! matching route builds its [`RouteParams`]. A table of 60 routes costs
//! its last route no more allocations than its first.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::types::{Method, Request, Response, Status};
use crate::url::decode_segment_cow;

/// Captured `:name` path parameters.
#[derive(Debug, Clone, Default)]
pub struct RouteParams {
    params: HashMap<String, String>,
}

impl RouteParams {
    /// The captured value for `:name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }

    /// The captured value, or a `400`-style error message.
    pub fn require(&self, name: &str) -> Result<&str, Response> {
        self.get(name).ok_or_else(|| {
            Response::error(Status::BAD_REQUEST, format!("missing path parameter :{name}"))
        })
    }
}

type Handler = Arc<dyn Fn(&Request, &RouteParams) -> Response + Send + Sync>;

struct Route {
    method: Method,
    segments: Vec<Segment>,
    handler: Handler,
}

enum Segment {
    Literal(String),
    Param(String),
    /// `*rest`: matches the remainder of the path (including slashes).
    Wildcard(String),
}

/// A routing table mapping `(method, path pattern)` to handlers.
///
/// Patterns are `/`-separated; a segment starting with `:` captures one
/// segment, `*` captures the whole remainder:
///
/// ```
/// use chronos_http::{Router, Request, Response, Method, Status};
/// let mut router = Router::new();
/// router.get("/api/v1/jobs/:id", |_req, params| {
///     Response::text(Status::OK, format!("job {}", params.get("id").unwrap()))
/// });
/// let req = Request::new(Method::Get, "/api/v1/jobs/42");
/// assert_eq!(router.dispatch(&req).body, b"job 42");
/// ```
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Registers a handler for `method` + `pattern`.
    pub fn add<F>(&mut self, method: Method, pattern: &str, handler: F)
    where
        F: Fn(&Request, &RouteParams) -> Response + Send + Sync + 'static,
    {
        let segments = pattern
            .trim_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                if let Some(name) = s.strip_prefix(':') {
                    Segment::Param(name.to_string())
                } else if let Some(name) = s.strip_prefix('*') {
                    Segment::Wildcard(name.to_string())
                } else {
                    Segment::Literal(s.to_string())
                }
            })
            .collect();
        self.routes.push(Route { method, segments, handler: Arc::new(handler) });
    }

    /// Shorthand for [`Router::add`] with `GET`.
    pub fn get<F>(&mut self, pattern: &str, handler: F)
    where
        F: Fn(&Request, &RouteParams) -> Response + Send + Sync + 'static,
    {
        self.add(Method::Get, pattern, handler);
    }

    /// Shorthand for [`Router::add`] with `POST`.
    pub fn post<F>(&mut self, pattern: &str, handler: F)
    where
        F: Fn(&Request, &RouteParams) -> Response + Send + Sync + 'static,
    {
        self.add(Method::Post, pattern, handler);
    }

    /// Shorthand for [`Router::add`] with `PUT`.
    pub fn put<F>(&mut self, pattern: &str, handler: F)
    where
        F: Fn(&Request, &RouteParams) -> Response + Send + Sync + 'static,
    {
        self.add(Method::Put, pattern, handler);
    }

    /// Shorthand for [`Router::add`] with `DELETE`.
    pub fn delete<F>(&mut self, pattern: &str, handler: F)
    where
        F: Fn(&Request, &RouteParams) -> Response + Send + Sync + 'static,
    {
        self.add(Method::Delete, pattern, handler);
    }

    /// Routes a request to its handler. Returns `404` when no pattern
    /// matches and `405` when a pattern matches with a different method
    /// (routes are tried in registration order; the first match wins).
    ///
    /// The server hands over the raw (still percent-encoded) request
    /// target. It is split once here and each segment is percent-decoded
    /// exactly once per request, borrowing a segment that holds no `%`;
    /// routes then compare against those decoded segments without
    /// allocating, and only the route that matches builds its
    /// [`RouteParams`]. Trailing (and duplicate) slashes are ignored on
    /// both the pattern and the path, so `/jobs` and `/jobs/` are the same
    /// route, and an encoded `%2F` stays inside its segment.
    pub fn dispatch(&self, request: &Request) -> Response {
        let segments = decode_path(&request.path);
        let mut path_matched = false;
        for route in &self.routes {
            if route.matches(&segments) {
                if route.method == request.method {
                    return (route.handler)(request, &route.params(&segments));
                }
                path_matched = true;
            }
        }
        if path_matched {
            Response::error(Status::METHOD_NOT_ALLOWED, "method not allowed")
        } else {
            Response::error(Status::NOT_FOUND, format!("no route for {}", request.path))
        }
    }
}

/// The non-empty segments of a raw path, each percent-decoded once.
fn decode_path(path: &str) -> Vec<Cow<'_, str>> {
    let mut segments = Vec::with_capacity(path.bytes().filter(|&b| b == b'/').count() + 1);
    segments.extend(path.split('/').filter(|s| !s.is_empty()).map(decode_segment_cow));
    segments
}

impl Route {
    /// Whether the decoded path segments fit this route's pattern.
    fn matches(&self, path: &[Cow<'_, str>]) -> bool {
        let mut parts = path.iter();
        for segment in &self.segments {
            match segment {
                Segment::Wildcard(_) => return true,
                Segment::Literal(lit) => match parts.next() {
                    Some(part) if **part == **lit => {}
                    _ => return false,
                },
                Segment::Param(_) => {
                    if parts.next().is_none() {
                        return false;
                    }
                }
            }
        }
        parts.next().is_none()
    }

    /// The captures of a path that [`Route::matches`] accepted: `:name`
    /// takes its segment, `*name` the rest of the path joined with `/`.
    fn params(&self, path: &[Cow<'_, str>]) -> RouteParams {
        let mut params = RouteParams::default();
        for (i, segment) in self.segments.iter().enumerate() {
            match segment {
                Segment::Literal(_) => {}
                Segment::Param(name) => {
                    params.params.insert(name.clone(), path[i].to_string());
                }
                Segment::Wildcard(name) => {
                    params.params.insert(name.clone(), path[i..].join("/"));
                    break;
                }
            }
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: Method, path: &str) -> Request {
        Request::new(method, path)
    }

    fn router() -> Router {
        let mut r = Router::new();
        r.get("/api/v1/jobs", |_, _| Response::text(Status::OK, "list"));
        r.get("/api/v1/jobs/:id", |_, p| {
            Response::text(Status::OK, format!("job:{}", p.get("id").unwrap()))
        });
        r.post("/api/v1/jobs/:id/abort", |_, p| {
            Response::text(Status::OK, format!("abort:{}", p.get("id").unwrap()))
        });
        r.get("/files/*path", |_, p| {
            Response::text(Status::OK, format!("file:{}", p.get("path").unwrap()))
        });
        r
    }

    #[test]
    fn literal_and_param_routes() {
        let r = router();
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/jobs")).body, b"list");
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/jobs/42")).body, b"job:42");
        assert_eq!(r.dispatch(&req(Method::Post, "/api/v1/jobs/42/abort")).body, b"abort:42");
    }

    #[test]
    fn params_are_decoded() {
        let r = router();
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/jobs/a%20b")).body, b"job:a b");
    }

    #[test]
    fn params_are_decoded_exactly_once() {
        let r = router();
        // %2520 is a percent-encoded "%20": one decode yields the literal
        // text "a%20b", not "a b".
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/jobs/a%2520b")).body, b"job:a%20b");
        // A plus in a path is a literal plus (form encoding applies to
        // query strings only).
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/jobs/a+b")).body, b"job:a+b");
    }

    #[test]
    fn encoded_slash_does_not_split_segments() {
        let r = router();
        // %2F decodes to "/" inside the one captured segment; it must not
        // turn /jobs/:id into a deeper path.
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/jobs/a%2Fb")).body, b"job:a/b");
    }

    #[test]
    fn literals_match_encoded_spellings() {
        let r = router();
        // RFC 3986: percent-encoded unreserved characters are equivalent
        // to their literal spelling.
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/j%6Fbs")).body, b"list");
    }

    #[test]
    fn wildcard_segments_are_decoded() {
        let r = router();
        assert_eq!(
            r.dispatch(&req(Method::Get, "/files/dir%20a/b%2Bc.txt")).body,
            b"file:dir a/b+c.txt"
        );
    }

    #[test]
    fn wildcard_captures_remainder() {
        let r = router();
        assert_eq!(r.dispatch(&req(Method::Get, "/files/a/b/c.txt")).body, b"file:a/b/c.txt");
    }

    #[test]
    fn not_found_vs_method_not_allowed() {
        let r = router();
        assert_eq!(r.dispatch(&req(Method::Get, "/nope")).status, Status::NOT_FOUND);
        assert_eq!(
            r.dispatch(&req(Method::Delete, "/api/v1/jobs")).status,
            Status::METHOD_NOT_ALLOWED
        );
    }

    #[test]
    fn trailing_slash_is_ignored() {
        let r = router();
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/jobs/")).body, b"list");
        // ...consistently: on parameterised and nested routes too, and
        // duplicate separators collapse.
        assert_eq!(r.dispatch(&req(Method::Get, "/api/v1/jobs/42/")).body, b"job:42");
        assert_eq!(r.dispatch(&req(Method::Post, "/api/v1/jobs/42/abort/")).body, b"abort:42");
        assert_eq!(r.dispatch(&req(Method::Get, "//api//v1//jobs")).body, b"list");
    }

    #[test]
    fn longer_paths_do_not_match_shorter_patterns() {
        let r = router();
        assert_eq!(
            r.dispatch(&req(Method::Get, "/api/v1/jobs/42/extra")).status,
            Status::NOT_FOUND
        );
    }

    #[test]
    fn first_matching_route_wins() {
        let mut r = Router::new();
        r.get("/x/:a", |_, _| Response::text(Status::OK, "param"));
        r.get("/x/lit", |_, _| Response::text(Status::OK, "literal"));
        // Registration order decides: the param route was added first.
        assert_eq!(r.dispatch(&req(Method::Get, "/x/lit")).body, b"param");
    }

    #[test]
    fn require_reports_missing_params() {
        let p = RouteParams::default();
        assert!(p.require("id").is_err());
    }

    /// The router as it was before paths were decoded once per request:
    /// every route re-splits the raw path and re-decodes each segment it
    /// compares. Kept as the oracle of `decoded_once_matches_the_oracle`.
    mod oracle {
        use super::super::*;

        fn decode_segment(s: &str) -> String {
            crate::url::decode_component(&s.replace('+', "%2B"))
        }

        fn match_route(route: &Route, path: &str) -> Option<RouteParams> {
            let mut params = RouteParams::default();
            let mut parts = path.trim_matches('/').split('/').filter(|s| !s.is_empty()).peekable();
            let mut segs = route.segments.iter().peekable();
            loop {
                match (segs.next(), parts.peek().copied()) {
                    (None, None) => return Some(params),
                    (None, Some(_)) => return None,
                    (Some(Segment::Wildcard(name)), _) => {
                        let rest: Vec<String> = parts.map(decode_segment).collect();
                        params.params.insert(name.clone(), rest.join("/"));
                        return Some(params);
                    }
                    (Some(_), None) => return None,
                    (Some(Segment::Literal(lit)), Some(part)) => {
                        if *lit != decode_segment(part) {
                            return None;
                        }
                        parts.next();
                    }
                    (Some(Segment::Param(name)), Some(part)) => {
                        params.params.insert(name.clone(), decode_segment(part));
                        parts.next();
                    }
                }
            }
        }

        pub(super) fn dispatch(router: &Router, request: &Request) -> Response {
            let mut path_matched = false;
            for route in &router.routes {
                if let Some(params) = match_route(route, &request.path) {
                    if route.method == request.method {
                        return (route.handler)(request, &params);
                    }
                    path_matched = true;
                }
            }
            if path_matched {
                Response::error(Status::METHOD_NOT_ALLOWED, "method not allowed")
            } else {
                Response::error(Status::NOT_FOUND, format!("no route for {}", request.path))
            }
        }
    }

    /// Patterns shaped like the served table: literal-only routes, `:id`
    /// captures, literals with a dot, two captures on one route, wildcards
    /// (alone and after a capture), and one path served for GET and POST.
    const PATTERNS: &[(Method, &str)] = &[
        (Method::Get, "/api"),
        (Method::Get, "/healthz"),
        (Method::Get, "/api/v1/version"),
        (Method::Get, "/api/v1/systems"),
        (Method::Post, "/api/v1/systems"),
        (Method::Get, "/api/v1/systems/:id"),
        (Method::Get, "/api/v1/jobs/:id"),
        (Method::Post, "/api/v1/jobs/:id/abort"),
        (Method::Get, "/api/v1/evaluations/:id/summary"),
        (Method::Get, "/api/v1/evaluations/:id/summary.csv"),
        (Method::Get, "/api/v1/evaluations/:id/charts/:chart"),
        (Method::Get, "/api/v1/experiments/:id/trend"),
        (Method::Post, "/api/v1/agent/jobs/:id/heartbeat"),
        (Method::Get, "/files/*path"),
        (Method::Get, "/api/v1/blobs/:id/*rest"),
        (Method::Get, "/api/v1/stats"),
    ];

    /// Segments a random path is drawn from: the table's literals, encoded
    /// spellings of them, `%XX` escapes that decode to a separator, a
    /// percent sign or nothing valid, non-ASCII text raw and encoded, bytes
    /// that are not UTF-8, and `+` in every position.
    const PIECES: &[&str] = &[
        "api",
        "v1",
        "v0",
        "jobs",
        "systems",
        "evaluations",
        "charts",
        "summary.csv",
        "stats",
        "version",
        "healthz",
        "files",
        "blobs",
        "abort",
        "j%6Fbs",
        "%61pi",
        "v%31",
        "st%61ts",
        "summary%2Ecsv",
        "%2F",
        "a%2Fb",
        "%25",
        "%2525",
        "%G1",
        "%",
        "%4",
        "100%",
        "é",
        "%C3%A9",
        "%FF",
        "+",
        "a+b",
        "%2B",
        "42",
        "0.svg",
        "x",
    ];

    /// splitmix64: a seeded stream with no dependency.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn piece(&mut self) -> &'static str {
            PIECES[self.below(PIECES.len())]
        }
    }

    /// A path shaped like `pattern`: literals kept or swapped for a random
    /// piece, captures filled with pieces, a wildcard with 0–3 of them.
    fn path_like(draws: &mut Draws, pattern: &str) -> Vec<String> {
        let mut segments = Vec::new();
        for part in pattern.split('/').filter(|s| !s.is_empty()) {
            if part.starts_with('*') {
                for _ in 0..draws.below(4) {
                    segments.push(draws.piece().to_string());
                }
            } else if part.starts_with(':') || draws.below(8) == 0 {
                segments.push(draws.piece().to_string());
            } else {
                segments.push(part.to_string());
            }
        }
        segments
    }

    fn random_path(draws: &mut Draws) -> String {
        let mut segments = if draws.below(4) == 0 {
            (0..draws.below(7)).map(|_| draws.piece().to_string()).collect()
        } else {
            let (_, pattern) = PATTERNS[draws.below(PATTERNS.len())];
            path_like(draws, pattern)
        };
        // Empty segments make duplicate, leading and trailing slashes.
        for _ in 0..draws.below(3) {
            let at = draws.below(segments.len() + 1);
            segments.insert(at, String::new());
        }
        let mut path = format!("/{}", segments.join("/"));
        if draws.below(4) == 0 {
            path.push('/');
        }
        path
    }

    /// Every handler answers with its route number and every capture, so a
    /// body comparison compares the chosen route and all its params.
    fn differential_router() -> Router {
        let mut r = Router::new();
        for (index, &(method, pattern)) in PATTERNS.iter().enumerate() {
            r.add(method, pattern, move |_, p| {
                let mut params: Vec<_> = p.params.iter().collect();
                params.sort();
                Response::text(Status::OK, format!("{index} {params:?}"))
            });
        }
        r
    }

    #[test]
    fn decoded_once_matches_the_oracle() {
        let r = differential_router();
        let methods = [Method::Get, Method::Post, Method::Delete];
        let mut draws = Draws(0xC4_0705);
        let mut seen = [0usize; 3];
        for _ in 0..20_000 {
            let request = req(methods[draws.below(methods.len())], &random_path(&mut draws));
            let new = r.dispatch(&request);
            let old = oracle::dispatch(&r, &request);
            assert_eq!(
                (new.status, String::from_utf8_lossy(&new.body)),
                (old.status, String::from_utf8_lossy(&old.body)),
                "{} {}",
                request.method,
                request.path
            );
            match new.status {
                Status::OK => seen[0] += 1,
                Status::METHOD_NOT_ALLOWED => seen[1] += 1,
                _ => seen[2] += 1,
            }
        }
        // The draw reaches every outcome often: matches, 405s and 404s.
        assert!(seen.iter().all(|&n| n > 1_000), "outcomes (200, 405, 404): {seen:?}");
    }
}
