//! Trace exporters: Chrome `trace_event` JSON and a line-oriented dump.
//!
//! The JSON is hand-rolled (the workspace is offline — no serde); the
//! schema is the subset of the Trace Event Format that `chrome://tracing`
//! and Perfetto accept: instant events (`ph: "i"`) for protocol events,
//! counter events (`ph: "C"`) for the interval sampler's time-series, and
//! metadata events naming the process rows. One simulated cycle maps to
//! one microsecond of trace time (`ts` is in µs).

use crate::event::{Scope, TraceEvent};
use crate::sampler::IntervalSample;

/// Escapes `s` for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `(pid, tid)` for a scope: one process row per component type, one
/// thread row per component instance.
fn pid_tid(scope: Scope) -> (u16, u16) {
    match scope {
        Scope::Sm(i) => (1, i),
        Scope::L2Bank(i) => (2, i),
        Scope::Noc(i) => (3, i),
        Scope::Dram(i) => (4, i),
        Scope::Device(i) => (5, i),
        Scope::Home(i) => (6, i),
    }
}

fn push_meta(out: &mut String, pid: u16, name: &str) {
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name)
    ));
}

/// Renders events plus the sampler time-series as a Chrome-trace JSON
/// document (load via `chrome://tracing` or <https://ui.perfetto.dev>).
#[must_use]
pub fn to_chrome_trace(events: &[TraceEvent], samples: &[IntervalSample]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };
    for (pid, name) in [
        (1, "SMs"),
        (2, "L2 banks"),
        (3, "NoC"),
        (4, "DRAM"),
        (5, "Devices"),
        (6, "Home"),
    ] {
        sep(&mut out);
        push_meta(&mut out, pid, name);
    }
    // One thread_name record per distinct scope, so every thread row
    // (not just the process groups) is labelled in chrome://tracing.
    let mut scopes: Vec<Scope> = events.iter().map(|e| e.scope).collect();
    scopes.sort_by_key(|&s| pid_tid(s));
    scopes.dedup();
    for scope in scopes {
        let (pid, tid) = pid_tid(scope);
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&scope.to_string())
        ));
    }
    for e in events {
        let (pid, tid) = pid_tid(e.scope);
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"detail\":\"{}\"}}}}",
            e.kind.name(),
            e.kind.class().name(),
            e.cycle.0,
            json_escape(&e.kind.to_string())
        ));
    }
    for s in samples {
        for (name, value) in [
            ("ipc", s.ipc()),
            ("expired_miss_rate", s.expired_miss_rate()),
            (
                "stall_cycles_per_cycle",
                if s.delta.cycles.0 == 0 {
                    0.0
                } else {
                    s.delta.sm.total_stall_cycles() as f64 / s.delta.cycles.0 as f64
                },
            ),
            (
                "noc_flits_per_cycle",
                if s.delta.cycles.0 == 0 {
                    0.0
                } else {
                    s.delta.noc.flits as f64 / s.delta.cycles.0 as f64
                },
            ),
        ] {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"{name}\":{:.6}}}}}",
                s.end.0, value
            ));
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders events one per line (`[cycle] scope: detail`), the
/// machine-greppable dump.
#[must_use]
pub fn to_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::LeaseOp;
    use gtsc_types::{BlockAddr, Cycle, SimStats};

    fn demo_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: Cycle(1),
                scope: Scope::Sm(0),
                kind: EventKind::ColdMiss {
                    block: BlockAddr(4),
                    warp: 2,
                },
            },
            TraceEvent {
                cycle: Cycle(9),
                scope: Scope::L2Bank(1),
                kind: EventKind::Lease {
                    op: LeaseOp::Grant,
                    block: BlockAddr(4),
                    wts: 0,
                    rts: 10,
                    epoch: 0,
                },
            },
        ]
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_has_events_and_counters() {
        let mut stats = SimStats {
            cycles: Cycle(100),
            ..SimStats::default()
        };
        stats.sm.issued = 50;
        let sample = IntervalSample {
            start: Cycle(0),
            end: Cycle(100),
            delta: stats,
        };
        let json = to_chrome_trace(&demo_events(), &[sample]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"name\":\"cold_miss\""), "{json}");
        assert!(json.contains("\"cat\":\"lease\""), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"ipc\":0.500000"), "{json}");
        // Every distinct scope in the events gets a thread_name row.
        assert!(
            json.contains("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0"),
            "{json}"
        );
        assert!(json.contains("\"args\":{\"name\":\"sm0\"}"), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"l2[1]\"}"), "{json}");
        // Balanced braces/brackets — a cheap well-formedness check on
        // top of the CI job's real JSON parser.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn lines_render_one_event_per_line() {
        let dump = to_lines(&demo_events());
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("sm0"));
        assert!(lines[1].contains("l2[1]"));
        assert!(lines[1].contains("lease grant"));
    }
}
