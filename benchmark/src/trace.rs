//! Spans around the calls into each layer's public functions.
//!
//! The benchmark records a span at every boundary it crosses itself; spans
//! inside the engine are a later change. Spans stay in memory and are
//! written out once, at exit. Recording can be switched off per iteration,
//! which is how one traced run measures its own overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// `iteration` of a span recorded outside the timed loop (set-up, baseline
/// samples).
pub const OUTSIDE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.build`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Timed iteration this span belongs to, or [`OUTSIDE`].
    pub iteration: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder for the one driver thread. Spans open and close
/// around closures, so none can be left open or closed out of order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    iteration: u32,
    /// The innermost open span.
    parent: Option<u32>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            iteration: OUTSIDE,
            parent: None,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Switches recording on or off, between spans.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Tags subsequent spans with a timed iteration (or [`OUTSIDE`]).
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans `f` opens through the tracer it is
    /// handed become its children.
    pub fn nest<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.recording {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.parent,
            iteration: self.iteration,
        });
        let outer = self.parent.replace(id);
        let r = f(self);
        self.parent = outer;
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Runs `f` inside a span that has no children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.nest(name, |_| f())
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// iteration}`; `iteration` is `null` outside the timed loop.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                        )
                        .with(
                            "iteration",
                            if s.iteration == OUTSIDE {
                                Json::Null
                            } else {
                                Json::from(u64::from(s.iteration))
                            },
                        )
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// Median seconds per timed iteration spent in spans called `name`
/// (several calls in one iteration add up). A layer the timed loop never
/// enters — set-up, baseline samples — reports the median of its calls
/// outside the loop instead. 0 when no such span was recorded.
pub fn layer_seconds(spans: &[Span], name: &str) -> f64 {
    let mut per_iteration: BTreeMap<u32, f64> = BTreeMap::new();
    let mut outside = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if s.iteration == OUTSIDE {
            outside.push(s.seconds());
        } else {
            *per_iteration.entry(s.iteration).or_default() += s.seconds();
        }
    }
    let samples = if per_iteration.is_empty() {
        outside
    } else {
        per_iteration.into_values().collect()
    };
    if samples.is_empty() {
        0.0
    } else {
        stats::median(&samples)
    }
}

/// Share of the timed iterations' wall — their root spans — that no child
/// span covers, in percent. 0 when no iteration was traced.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let own = self_seconds(spans);
    let (mut wall, mut uncovered) = (0.0, 0.0);
    for (s, own) in spans.iter().zip(own) {
        if s.parent.is_none() && s.iteration != OUTSIDE {
            wall += s.seconds();
            uncovered += own;
        }
    }
    if wall > 0.0 {
        100.0 * uncovered / wall
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, it: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: it,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("iteration", 0, 1000, None, 0),       // 0
            span("graph.build", 100, 400, Some(0), 0), // 1: sibling a
            span("core.run", 500, 900, Some(0), 0),    // 2: sibling b
            span("core.drain", 600, 800, Some(2), 0),  // 3: nested in b
            span("core.sink", 650, 700, Some(3), 0),   // 4: nested deeper
        ];
        let own = self_seconds(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        // Root loses both siblings, but not the grandchildren twice.
        assert_eq!(ns(own[0]), 1000 - 300 - 400);
        assert_eq!(ns(own[1]), 300);
        assert_eq!(ns(own[2]), 400 - 200);
        assert_eq!(ns(own[3]), 200 - 50);
        assert_eq!(ns(own[4]), 50);
        // Self times of a tree add up to its root.
        assert_eq!(ns(own.iter().sum()), 1000);
        assert!((unattributed_pct(&spans) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("iteration", 0, 100, None, 0),
            span("a", 10, 60, Some(0), 0),
            span("b", 40, 80, Some(0), 0),
        ];
        assert_eq!((self_seconds(&spans)[0] * 1e9).round() as u64, 30);
    }

    #[test]
    fn layer_seconds_sums_within_an_iteration_and_takes_the_median_across() {
        let spans = vec![
            span("graph.build", 0, 10, None, 0),
            span("graph.build", 10, 30, None, 0), // iteration 0: 30 ns
            span("graph.build", 0, 50, None, 1),  // iteration 1: 50 ns
            span("graph.build", 0, 70, None, 2),  // iteration 2: 70 ns
            span("graph.build", 0, 999, None, OUTSIDE), // set-up: ignored
            span("refsim.run", 0, 5, None, OUTSIDE),
        ];
        assert!((layer_seconds(&spans, "graph.build") - 50e-9).abs() < 1e-15);
        assert!((layer_seconds(&spans, "refsim.run") - 5e-9).abs() < 1e-15);
        assert_eq!(layer_seconds(&spans, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_tags_and_can_be_switched_off() {
        let mut t = Tracer::default();
        assert_eq!(t.nest("ignored", |t| t.span("ignored", || 1)), 1);
        assert!(t.spans().is_empty(), "nothing is recorded while off");

        t.set_recording(true);
        t.set_iteration(3);
        // An early return out of the body still closes the span.
        let inner: Result<u8, ()> = t.nest("iteration", |t| {
            t.span("core.run", || Err(()))?;
            unreachable!()
        });
        assert_eq!(inner, Err(()));
        t.span("after", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[2].parent, None,
            "the failed iteration left nothing open"
        );
        assert_eq!(spans[1].iteration, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let json = t.to_json();
        let text = json.line();
        assert_eq!(Json::parse(&text).unwrap(), json);
        assert!(text.contains("\"parent\": null") && text.contains("\"iteration\": 3"));
    }
}
