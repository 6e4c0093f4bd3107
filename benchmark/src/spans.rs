//! Benchmark-side host-time spans: what the benchmark called, when, and
//! what caused it. Spans are recorded around the calls into the
//! simulator, kept in memory, and written once when the run ends.

use std::time::Instant;

use crate::json::escape;

/// One closed-or-open interval of host time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran (`run_kernel`, `rung:core.l1_hit_ns`, …).
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one item (one simulation) share this; 0 outside items.
    pub item: u64,
}

impl Span {
    /// Host nanoseconds between start and end (0 while open).
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e - self.start_ns)
    }
}

/// In-memory span recorder. A disabled recorder runs the same closures
/// and records nothing, so traced and untraced passes share one code
/// path.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    item: u64,
    items_seen: u64,
}

impl Spans {
    /// A recorder that keeps every span.
    #[must_use]
    pub fn enabled() -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            item: 0,
            items_seen: 0,
        }
    }

    /// A recorder that keeps nothing (end-to-end runs).
    #[must_use]
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span. The span closes exactly once, when `f` returns.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.stack.last().copied(),
            item: self.item,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = Some(self.now_ns());
        out
    }

    /// Like [`Spans::scope`], but the span and everything under it share
    /// a fresh item identifier.
    pub fn item_scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let outer = self.item;
        self.items_seen += 1;
        self.item = self.items_seen;
        let out = self.scope(name, f);
        self.item = outer;
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus the part of it that
    /// its direct children cover.
    #[must_use]
    pub fn self_ns(&self, idx: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_ns)
            .sum();
        self.spans[idx].duration_ns().saturating_sub(covered)
    }

    /// Total self time per span name, largest first.
    #[must_use]
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let mut by: std::collections::BTreeMap<&str, (u64, usize)> =
            std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by.entry(&s.name).or_default();
            e.0 += self.self_ns(i);
            e.1 += 1;
        }
        let mut v: Vec<_> = by
            .into_iter()
            .map(|(n, (ns, count))| (n.to_owned(), ns, count))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Chrome `trace_event` JSON (complete `X` events, microseconds), the
    /// format of the repository's other exports; loads in
    /// `chrome://tracing` and Perfetto.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"item\":{},\"self_ns\":{}}}}}",
                escape(&s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                i,
                parent,
                s.item,
                self.self_ns(i),
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Spans {
        let mut sp = Spans::enabled();
        sp.scope("workload", |sp| {
            sp.scope("pass", |sp| {
                for _ in 0..3 {
                    sp.item_scope("item", |sp| {
                        sp.scope("build_sim", |_| std::hint::black_box(1 + 1));
                        sp.scope("run_kernel", |sp| {
                            sp.scope("inner", |_| ());
                        });
                    });
                }
            });
        });
        sp
    }

    #[test]
    fn children_lie_inside_parents_and_every_span_closes_once() {
        let sp = sample();
        assert_eq!(sp.spans().len(), 2 + 3 * 4);
        assert!(sp.stack.is_empty());
        for s in sp.spans() {
            let end = s.end_ns.expect("closed");
            assert!(end >= s.start_ns);
            if let Some(p) = s.parent {
                let parent = &sp.spans()[p];
                assert!(parent.start_ns <= s.start_ns);
                assert!(parent.end_ns.expect("closed") >= end);
            }
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_never_negative() {
        let sp = sample();
        for i in 0..sp.spans().len() {
            let children: u64 = sp
                .spans()
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(Span::duration_ns)
                .sum();
            assert_eq!(sp.self_ns(i) + children, sp.spans()[i].duration_ns());
        }
        let total: u64 = sp.self_time_by_name().iter().map(|e| e.1).sum();
        assert_eq!(total, sp.spans()[0].duration_ns());
    }

    #[test]
    fn spans_of_one_item_share_its_id() {
        let sp = sample();
        let items: Vec<u64> = sp
            .spans()
            .iter()
            .filter(|s| s.name == "item")
            .map(|s| s.item)
            .collect();
        assert_eq!(items, vec![1, 2, 3]);
        for s in sp.spans() {
            match s.name.as_str() {
                "workload" | "pass" => assert_eq!(s.item, 0),
                _ => {
                    let mut p = s;
                    while p.name != "item" {
                        p = &sp.spans()[p.parent.expect("under an item")];
                    }
                    assert_eq!(s.item, p.item);
                }
            }
        }
    }

    #[test]
    fn disabled_recorder_runs_the_work_and_keeps_nothing() {
        let mut sp = Spans::disabled();
        let got = sp.item_scope("item", |sp| sp.scope("x", |_| 41) + 1);
        assert_eq!(got, 42);
        assert!(sp.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses() {
        let text = sample().to_chrome_trace();
        let v = json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(json::Value::as_array);
        assert_eq!(events.map(<[json::Value]>::len), Some(14));
    }
}
