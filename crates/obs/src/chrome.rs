//! Chrome-trace-format JSON exporter.
//!
//! Serialises a [`Tracer`] event log into the Trace Event Format that
//! `chrome://tracing` and Perfetto load directly. Timestamps in that
//! format are microseconds; we map **1 cycle ≡ 1 µs**, so the viewer's
//! time axis reads directly in cycles. JSON is hand-written — the
//! workspace has no serde and builds fully offline.

use crate::span::{write_u64, EventKind, Tracer};
use std::collections::BTreeMap;

/// Escape a string for a JSON string literal. Most strings hold no
/// metacharacter and are copied whole.
fn escape(s: &str, out: &mut String) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
}

/// Bytes reserved per event: the shortest event row (empty category and
/// name, one-digit numbers, no args, separator included) is 72 bytes, so
/// the presized buffer is never larger than the document. Armed serving
/// traces average ~140 bytes per event, so the buffer then grows once.
const EVENT_BYTES: usize = 72;

/// Export the event log as a Chrome trace JSON document.
///
/// Every category gets its own thread row (`tid`), assigned in sorted
/// category order so the document is deterministic. Thread-name metadata
/// events label each row with its category.
#[must_use]
pub fn export(tracer: &Tracer, process_name: &str) -> String {
    let mut tids = BTreeMap::new();
    for e in tracer.events() {
        let next = tids.len() + 1;
        tids.entry(e.cat).or_insert(next);
    }
    // Re-number in sorted category order so insertion order cannot leak in.
    for (i, (_, tid)) in tids.iter_mut().enumerate() {
        *tid = i + 1;
    }

    let mut out = String::with_capacity(EVENT_BYTES * tracer.events().len());
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"",
    );
    escape(process_name, &mut out);
    out.push_str("\"}}");
    for (cat, &tid) in &tids {
        out.push_str(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
        let _ = write_u64(&mut out, tid as u64, 0);
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        escape(cat, &mut out);
        out.push_str("\"}}");
    }

    for e in tracer.events() {
        out.push_str(match e.kind {
            EventKind::Complete => ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":",
            EventKind::Instant => ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":",
        });
        let _ = write_u64(&mut out, tids[e.cat] as u64, 0);
        out.push_str(",\"ts\":");
        let _ = write_u64(&mut out, e.ts, 0);
        if e.kind == EventKind::Complete {
            out.push_str(",\"dur\":");
            let _ = write_u64(&mut out, e.dur, 0);
            out.push_str(",\"cat\":\"");
        } else {
            out.push_str(",\"s\":\"t\",\"cat\":\"");
        }
        escape(e.cat, &mut out);
        out.push_str("\",\"name\":\"");
        escape(&e.name, &mut out);
        out.push_str("\",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape(k, &mut out);
            out.push_str("\":\"");
            escape(v, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }

    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// The exporter as it was written with `write!` and a per-`char`
    /// escape: the oracle `export` must match byte for byte.
    fn formatted_export(tracer: &Tracer, process_name: &str) -> String {
        fn esc(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                    c => out.push(c),
                }
            }
        }
        let mut tids = BTreeMap::new();
        for e in tracer.events() {
            tids.insert(e.cat, 0);
        }
        for (i, (_, tid)) in tids.iter_mut().enumerate() {
            *tid = i + 1;
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        write!(out, "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\"").unwrap();
        out.push_str(",\"args\":{\"name\":\"");
        esc(process_name, &mut out);
        out.push_str("\"}}");
        for (cat, tid) in &tids {
            write!(out, ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\"")
                .unwrap();
            out.push_str(",\"args\":{\"name\":\"");
            esc(cat, &mut out);
            out.push_str("\"}}");
        }
        for e in tracer.events() {
            let (ph, tid) = (if e.kind == EventKind::Complete { "X" } else { "i" }, tids[e.cat]);
            write!(out, ",\n{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{},", e.ts).unwrap();
            if e.kind == EventKind::Complete {
                write!(out, "\"dur\":{},", e.dur).unwrap();
            } else {
                out.push_str("\"s\":\"t\",");
            }
            out.push_str("\"cat\":\"");
            esc(e.cat, &mut out);
            out.push_str("\",\"name\":\"");
            esc(&e.name, &mut out);
            out.push_str("\",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                out.push_str(if i > 0 { ",\"" } else { "\"" });
                esc(k, &mut out);
                out.push_str("\":\"");
                esc(v, &mut out);
                out.push('"');
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }

    #[test]
    fn export_matches_the_format_machinery_byte_for_byte() {
        let hostile = ["", "plain", "q\"uote", "back\\slash", "new\nline", "t\tab", "\u{1}", "é→"];
        let mut t = Tracer::new();
        for (i, name) in hostile.iter().enumerate() {
            let ts = 10_000_000_000 * i as u64;
            let s = t.begin_at(["gokernel", "patia", "compkit"][i % 3], *name, ts);
            let args = hostile.iter().map(|v| (*v, (*v).to_owned())).take(i).collect();
            t.end_at_with(s, ts + 1_234_567, args);
            t.instant("patia", format!("mark{name}"), ts, vec![("v", (*name).to_owned())]);
        }
        for process in hostile {
            assert_eq!(export(&t, process), formatted_export(&t, process), "{process:?}");
        }
        let empty = Tracer::new();
        assert_eq!(export(&empty, "adm"), formatted_export(&empty, "adm"), "no events");
        let mut tiny = Tracer::new();
        tiny.instant("", "", 0, Vec::new());
        let json = export(&tiny, "");
        assert_eq!(json, formatted_export(&tiny, ""));
        let row = json.lines().nth(3).expect("header, process, thread, event");
        assert_eq!(row.len() + 2, EVENT_BYTES, "the shortest event row and its `,\\n`");
    }

    #[test]
    fn escapes_json_metacharacters() {
        let mut s = String::new();
        escape("a\"b\\c\nd\te\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn escapes_every_control_character_and_passes_unicode() {
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let mut s = String::new();
            escape(&c.to_string(), &mut s);
            assert!(s.starts_with('\\'), "control {:#04x} must be escaped, got {s:?}", c as u32);
            assert!(s.is_ascii(), "escapes are pure ASCII: {s:?}");
        }
        let mut s = String::new();
        escape("naïve — ünïcode 🚀", &mut s);
        assert_eq!(s, "naïve — ünïcode 🚀", "non-control unicode passes through verbatim");
    }

    #[test]
    fn export_escapes_hostile_names_and_args_end_to_end() {
        // Span names and arg values are open strings (node names, error
        // messages); the exported document must stay valid JSON whatever
        // they contain.
        let mut t = Tracer::new();
        let s = t.begin_at("patia", "tick \"zero\"\n", 0);
        t.end_at_with(s, 10, vec![("cause", "path\\to\u{7}\tnode".to_owned())]);
        let json = export(&t, "quote \" backslash \\");
        assert!(json.contains("\"name\":\"tick \\\"zero\\\"\\n\""), "{json}");
        assert!(json.contains("\"cause\":\"path\\\\to\\u0007\\tnode\""), "{json}");
        assert!(json.contains("\"name\":\"quote \\\" backslash \\\\\""), "{json}");
        assert!(!json.contains('\u{7}'), "no raw control bytes leak into the document");
    }

    #[test]
    fn exports_complete_and_instant_events() {
        let mut t = Tracer::new();
        let s = t.begin_at("gokernel", "invoke", 100);
        t.end_at_with(s, 173, vec![("cycles", "73".to_owned())]);
        t.instant("patia", "switch", 500, Vec::new());
        let json = export(&t, "adm");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":100,\"dur\":73,"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cycles\":\"73\""));
        assert!(json.contains("\"name\":\"adm\""));
        // Categories get distinct, sorted thread rows.
        assert!(
            json.contains("\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"gokernel\"}")
        );
        assert!(json.contains("\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"patia\"}"));
    }

    #[test]
    fn export_is_deterministic() {
        let mut t = Tracer::new();
        t.instant("b", "two", 2, Vec::new());
        t.instant("a", "one", 1, Vec::new());
        let x = export(&t, "p");
        let y = export(&t, "p");
        assert_eq!(x, y);
    }
}
