//! The operations the load generators issue, and how a request seen by
//! the server is classified back into one of them.

use chronos_http::{Method, Request};
use chronos_util::Id;

/// One kind of request on the wire. The four agent-protocol calls make up
/// a job; the rest are the dashboard's reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Claim,
    Heartbeat,
    Log,
    Result,
    Status,
    Stats,
    Summary,
    Chart,
    Csv,
    Jobs,
    Trend,
    Regressions,
    Other,
}

/// `(label, dispatch span, call span)` per kind, in declaration order. Span
/// names are `&'static str`, so they are spelled out rather than formatted.
const NAMES: [(&str, &str, &str); 13] = [
    ("claim", "dispatch.claim", "call.claim"),
    ("heartbeat", "dispatch.heartbeat", "call.heartbeat"),
    ("log", "dispatch.log", "call.log"),
    ("result", "dispatch.result", "call.result"),
    ("status", "dispatch.status", "call.status"),
    ("stats", "dispatch.stats", "call.stats"),
    ("summary", "dispatch.summary", "call.summary"),
    ("chart", "dispatch.chart", "call.chart"),
    ("csv", "dispatch.csv", "call.csv"),
    ("jobs", "dispatch.jobs", "call.jobs"),
    ("trend", "dispatch.trend", "call.trend"),
    ("regressions", "dispatch.regressions", "call.regressions"),
    ("other", "dispatch.other", "call.other"),
];

impl OpKind {
    /// Every kind but `Other`, protocol calls first.
    pub const ALL: [OpKind; 12] = [
        OpKind::Claim,
        OpKind::Heartbeat,
        OpKind::Log,
        OpKind::Result,
        OpKind::Status,
        OpKind::Stats,
        OpKind::Summary,
        OpKind::Chart,
        OpKind::Csv,
        OpKind::Jobs,
        OpKind::Trend,
        OpKind::Regressions,
    ];

    /// The read kinds, in the order a dashboard refresh lists them.
    pub const READS: [OpKind; 8] = [
        OpKind::Status,
        OpKind::Stats,
        OpKind::Summary,
        OpKind::Chart,
        OpKind::Csv,
        OpKind::Jobs,
        OpKind::Trend,
        OpKind::Regressions,
    ];

    /// Short label used in metric names (`server.dispatch_us_p50.<label>`).
    pub fn label(self) -> &'static str {
        NAMES[self as usize].0
    }

    /// Span name of the server-side `Router::dispatch` for this kind.
    pub fn dispatch_span(self) -> &'static str {
        NAMES[self as usize].1
    }

    /// Span name of the client-side call for this kind.
    pub fn call_span(self) -> &'static str {
        NAMES[self as usize].2
    }

    /// Whether this is one of the four agent-protocol calls.
    pub fn is_protocol(self) -> bool {
        matches!(self, OpKind::Claim | OpKind::Heartbeat | OpKind::Log | OpKind::Result)
    }

    /// The GET path of a read kind against one evaluation of one experiment.
    pub fn read_path(self, evaluation: Id, experiment: Id) -> String {
        let (eval, exp) = (evaluation.to_base32(), experiment.to_base32());
        match self {
            OpKind::Status => format!("/api/v1/evaluations/{eval}"),
            OpKind::Stats => "/api/v1/stats".to_string(),
            OpKind::Summary => format!("/api/v1/evaluations/{eval}/summary"),
            OpKind::Chart => format!("/api/v1/evaluations/{eval}/charts/0.svg"),
            OpKind::Csv => format!("/api/v1/evaluations/{eval}/summary.csv"),
            OpKind::Jobs => format!("/api/v1/evaluations/{eval}/jobs"),
            OpKind::Trend => format!("/api/v1/experiments/{exp}/trend"),
            OpKind::Regressions => format!("/api/v1/experiments/{exp}/regressions"),
            other => panic!("{other:?} is not a read"),
        }
    }

    /// Classifies a request the server received.
    pub fn classify(request: &Request) -> OpKind {
        let path = request.path.as_str();
        let Some(rest) = path.strip_prefix("/api/v1/") else { return OpKind::Other };
        match request.method {
            Method::Post => match rest {
                "agent/claim" => OpKind::Claim,
                _ if !rest.starts_with("agent/jobs/") => OpKind::Other,
                _ if rest.ends_with("/heartbeat") => OpKind::Heartbeat,
                _ if rest.ends_with("/log") => OpKind::Log,
                _ if rest.ends_with("/result") => OpKind::Result,
                _ => OpKind::Other,
            },
            Method::Get => match rest {
                "stats" => OpKind::Stats,
                _ if rest.starts_with("experiments/") && rest.ends_with("/trend") => OpKind::Trend,
                _ if rest.starts_with("experiments/") && rest.ends_with("/regressions") => {
                    OpKind::Regressions
                }
                _ if !rest.starts_with("evaluations/") => OpKind::Other,
                _ if rest.ends_with("/summary") => OpKind::Summary,
                _ if rest.ends_with("/summary.csv") => OpKind::Csv,
                _ if rest.ends_with("/jobs") => OpKind::Jobs,
                _ if rest.contains("/charts/") => OpKind::Chart,
                _ if rest.matches('/').count() == 1 => OpKind::Status,
                _ => OpKind::Other,
            },
            _ => OpKind::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_path_classifies_back_to_its_kind() {
        let (evaluation, experiment) = (Id::generate(), Id::generate());
        for kind in OpKind::READS {
            let request = Request::new(Method::Get, kind.read_path(evaluation, experiment));
            assert_eq!(OpKind::classify(&request), kind);
        }
    }

    #[test]
    fn protocol_paths_classify() {
        let job = Id::generate().to_base32();
        let post = |path: String| OpKind::classify(&Request::new(Method::Post, path));
        assert_eq!(post("/api/v1/agent/claim".into()), OpKind::Claim);
        assert_eq!(post(format!("/api/v1/agent/jobs/{job}/heartbeat")), OpKind::Heartbeat);
        assert_eq!(post(format!("/api/v1/agent/jobs/{job}/log")), OpKind::Log);
        assert_eq!(post(format!("/api/v1/agent/jobs/{job}/result")), OpKind::Result);
        assert_eq!(post(format!("/api/v1/agent/jobs/{job}/fail")), OpKind::Other);
        assert_eq!(post("/api/v1/login".into()), OpKind::Other);
        assert!(OpKind::ALL.iter().filter(|k| k.is_protocol()).count() == 4);
    }

    #[test]
    fn names_follow_declaration_order() {
        for kind in OpKind::ALL.into_iter().chain([OpKind::Other]) {
            assert_eq!(kind.dispatch_span(), format!("dispatch.{}", kind.label()));
            assert_eq!(kind.call_span(), format!("call.{}", kind.label()));
        }
        assert_eq!((OpKind::Claim.label(), OpKind::Other.label()), ("claim", "other"));
        assert_eq!(OpKind::Regressions.label(), "regressions");
    }
}
