//! In-memory spans around calls into each layer, self-time subtraction,
//! and the trace file.
//!
//! The harness records spans from outside the program (choosing-metrics
//! §4): around client calls, around every `Router::dispatch`, around the
//! wrapped `EvaluationClient` phases and `ResultSink`. A span names the
//! span that caused it. Server-side spans cannot know their cause (the
//! agent's `ControlClient` adds no header of ours), so they are recorded
//! as orphans and adopted afterwards by the call or root span on the same
//! track — one load client — whose interval contains them.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id; 0 means "no span".
    pub id: u32,
    /// The span that caused this one, or 0.
    pub parent: u32,
    /// `layer.operation`, e.g. `dispatch.claim` or `sue.execute`.
    pub name: &'static str,
    /// The load client (agent or protocol client or reader) it belongs to.
    pub track: u32,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Whether orphans on the same track may be adopted by this span.
    pub adopts: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A started span; finish it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    track: u32,
    start: u64,
    adopts: bool,
}

impl Open {
    /// The id children name as their parent (0 when tracing is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// The span sink. With tracing off every call is a branch and nothing else,
/// so the same harness code runs the untraced end-to-end measurement.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<(u32, Vec<Span>)>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) spans.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), state: Mutex::new((0, Vec::new())) }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span. `adopts` marks call and root spans, which take in the
    /// orphan server-side spans their interval contains.
    pub fn begin(&self, name: &'static str, track: u32, parent: u32, adopts: bool) -> Open {
        if !self.enabled {
            return Open { id: 0, parent, name, track, start: 0, adopts };
        }
        let id = {
            let mut state = self.state.lock().expect("tracer lock poisoned");
            state.0 += 1;
            state.0
        };
        Open { id, parent, name, track, start: self.now(), adopts }
    }

    /// Ends a span and stores it; returns its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = self.now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            track: open.track,
            start: open.start,
            end,
            adopts: open.adopts,
        };
        let nanos = span.nanos();
        self.state.lock().expect("tracer lock poisoned").1.push(span);
        nanos
    }

    /// Times `f` inside a span.
    pub fn span<T>(&self, name: &'static str, track: u32, parent: u32, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, track, parent, false);
        let value = f();
        self.end(open);
        value
    }

    /// Takes every span recorded so far, orphans adopted.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut self.state.lock().expect("tracer lock poisoned").1);
        adopt_orphans(&mut spans);
        spans
    }
}

/// Gives every parentless, non-adopting span the innermost adopting span on
/// its track that contains it. Spans no adopter contains stay roots.
pub fn adopt_orphans(spans: &mut [Span]) {
    let mut adopters: BTreeMap<u32, Vec<(u64, u64, u32)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.adopts) {
        adopters.entry(span.track).or_default().push((span.start, span.end, span.id));
    }
    for span in spans.iter_mut().filter(|s| s.parent == 0 && !s.adopts) {
        let Some(candidates) = adopters.get(&span.track) else { continue };
        let innermost = candidates
            .iter()
            .filter(|(start, end, _)| *start <= span.start && span.end <= *end)
            .min_by_key(|(start, end, _)| end - start);
        if let Some((_, _, id)) = innermost {
            span.parent = *id;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest further, overlap each other
/// (a heartbeat thread beside the SuE phases) or stick out of the parent;
/// the covered part is the union of the children clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push((span.start, span.end));
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map(|intervals| covered_within(intervals, span.start, span.end))
                .unwrap_or(0);
            (span.id, span.nanos() - covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_within(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(end);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Spans with their self times worked out once: per-name queries, the
/// accounted share and the trace file all read from here.
pub struct Profile<'a> {
    spans: &'a [Span],
    selfs: BTreeMap<u32, u64>,
}

impl<'a> Profile<'a> {
    /// Works out the self time of every span.
    pub fn new(spans: &'a [Span]) -> Self {
        Profile { spans, selfs: self_times(spans) }
    }

    /// Durations (µs) of every span called `name`, in start order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let mut picked: Vec<&Span> = self.spans.iter().filter(|s| s.name == name).collect();
        picked.sort_by_key(|s| s.start);
        picked.iter().map(|s| s.nanos() as f64 / 1e3).collect()
    }

    /// Self times (µs) of every span whose name `pick` accepts.
    pub fn self_us(&self, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        let picked = self.spans.iter().filter(|s| pick(s.name));
        picked.map(|s| self.selfs[&s.id] as f64 / 1e3).collect()
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for span in self.spans {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.nanos();
            entry.2 += self.selfs[&span.id];
        }
        totals
    }

    /// The share of client-observed time that named layers account for.
    ///
    /// Client-observed time is the sum of the root spans of the load
    /// clients (tracks below `load_tracks`): jobs, `run_once` calls,
    /// refreshes. Whatever part of it lies inside a span not named
    /// `harness.*` belongs to the layer that span names; the self time of
    /// `harness.*` spans — the load generator's own bookkeeping between
    /// calls — is what is left over.
    pub fn accounted_share(&self, load_tracks: u32) -> f64 {
        let of_clients = || self.spans.iter().filter(|s| s.track < load_tracks);
        let observed: u64 = of_clients().filter(|s| s.parent == 0).map(Span::nanos).sum();
        if observed == 0 {
            return 0.0;
        }
        let harness: u64 = of_clients()
            .filter(|s| s.name.starts_with("harness."))
            .map(|s| self.selfs[&s.id])
            .sum();
        observed.saturating_sub(harness) as f64 / observed as f64
    }

    /// Renders the trace file body: environment stamp, per-name totals and
    /// the raw spans as `[id, parent, name, track, start_ns, end_ns]` rows.
    pub fn render(&self, workload: &str, stamp: &chronos_json::Value, load_tracks: u32) -> String {
        use chronos_json::{obj, Value};
        let totals: Vec<Value> = self
            .totals_by_name()
            .into_iter()
            .map(|(name, (count, total, own))| {
                obj! {
                    "name" => name,
                    "count" => count,
                    "total_ms" => total as f64 / 1e6,
                    "self_ms" => own as f64 / 1e6,
                }
            })
            .collect();
        let rows: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::from(s.id as u64),
                    Value::from(s.parent as u64),
                    Value::from(s.name),
                    Value::from(s.track as u64),
                    Value::from(s.start),
                    Value::from(s.end),
                ])
            })
            .collect();
        let doc = obj! {
            "workload" => workload,
            "environment" => stamp.clone(),
            "accounted_share" => self.accounted_share(load_tracks),
            "layers" => Value::Array(totals),
            "span_columns" =>
                chronos_json::arr!["id", "parent", "name", "track", "start_ns", "end_ns"],
            "spans" => Value::Array(rows),
        };
        doc.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, track: 0, start, end, adopts: false }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 > call 10..60 > dispatch 20..50
        let spans = vec![
            span(1, 0, "harness.job", 0, 100),
            span(2, 1, "call.claim", 10, 60),
            span(3, 2, "dispatch.claim", 20, 50),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50); // only the direct child is subtracted
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // Siblings 10..40 and 30..70 overlap by 10; a third sticks out past
        // the parent's end and a fourth lies wholly outside.
        let spans = vec![
            span(1, 0, "agent.run_once", 0, 100),
            span(2, 1, "sue.execute", 10, 40),
            span(3, 1, "dispatch.heartbeat", 30, 70),
            span(4, 1, "dispatch.log", 90, 130),
            span(5, 1, "dispatch.result", 150, 170),
        ];
        let selfs = self_times(&spans);
        // covered: 10..70 (60) + 90..100 (10)
        assert_eq!(selfs[&1], 30);
    }

    #[test]
    fn orphans_go_to_the_innermost_adopter_on_their_track() {
        let mut spans = vec![
            Span { adopts: true, ..span(1, 0, "harness.job", 0, 100) },
            Span { adopts: true, ..span(2, 1, "call.claim", 10, 60) },
            span(3, 0, "dispatch.claim", 20, 50),
            span(4, 0, "dispatch.log", 70, 80),
            Span { track: 9, ..span(5, 0, "dispatch.claim", 20, 50) },
            span(6, 0, "dispatch.result", 95, 120),
        ];
        adopt_orphans(&mut spans);
        assert_eq!(spans[2].parent, 2);
        assert_eq!(spans[3].parent, 1);
        assert_eq!(spans[4].parent, 0, "another track's spans are not candidates");
        assert_eq!(spans[5].parent, 0, "not contained: stays a root");
    }

    #[test]
    fn accounted_share_leaves_out_harness_self_time_and_other_tracks() {
        let spans = vec![
            span(1, 0, "harness.job", 0, 100),
            span(2, 1, "call.claim", 0, 90),
            span(3, 0, "harness.job", 150, 250),
            span(4, 3, "call.claim", 150, 250),
            Span { track: 1000, ..span(5, 0, "core.check_timeouts", 0, 5) },
        ];
        // observed 100 + 100 on the load track; harness self 10
        assert!((Profile::new(&spans).accounted_share(2) - 0.95).abs() < 1e-12);
        assert_eq!(Profile::new(&spans[4..]).accounted_share(2), 0.0);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let tracer = Tracer::new(false);
        let open = tracer.begin("call.claim", 0, 0, true);
        assert_eq!(open.id(), 0);
        tracer.end(open);
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let tracer = Tracer::new(true);
        let root = tracer.begin("harness.job", 3, 0, true);
        tracer.span("call.claim", 3, root.id(), || ());
        tracer.end(root);
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "call.claim").unwrap();
        let parent = spans.iter().find(|s| s.name == "harness.job").unwrap();
        assert_eq!(child.parent, parent.id);
        assert!(parent.start <= child.start && child.end <= parent.end);
    }
}
