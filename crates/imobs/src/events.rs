//! A structured, leveled operational event log.
//!
//! Metrics answer "how much"; the event log answers "what happened": WAL
//! append failures, compactions, torn broadcasts, backpressure episodes —
//! the discrete operational edges that counters flatten away. Each
//! [`Event`] is leveled, wall-clock timestamped, carries the active trace
//! id (so events join the same causal traces as [`crate::Span`]s), and
//! holds **typed fields** rather than a formatted message: the record path
//! never runs a format string, only the sinks do.
//!
//! Storage is a bounded ring of per-slot mutexes indexed by an atomic
//! sequence counter — writers never contend on a shared lock (two writers
//! collide only when the ring wraps onto the same slot), and the ring
//! keeps the most recent `capacity` events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default ring capacity: enough recent history for an incident timeline
/// without unbounded memory.
pub const DEFAULT_EVENT_CAPACITY: usize = 128;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventLevel {
    /// Expected lifecycle edges (compactions, epoch advances).
    Info,
    /// Degraded but recoverable conditions (backpressure, deadline misses).
    Warn,
    /// Invariant losses (WAL failures, torn broadcasts).
    Error,
}

impl EventLevel {
    /// The lowercase wire/JSON spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

impl std::fmt::Display for EventLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value. Numeric variants keep their type so sinks can
/// render them without quotes; [`FieldValue::Text`] is for values only
/// known at runtime (error strings) and is the one allocating variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned quantity (counts, byte sizes, durations in µs).
    U64(u64),
    /// A signed level (gauge readings, deltas).
    I64(i64),
    /// A static label (stage names, outcomes).
    Str(&'static str),
    /// A runtime string (error messages); the only allocating variant.
    Text(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::Text(s) => f.write_str(s),
        }
    }
}

/// One typed key/value pair attached to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventField {
    /// Field name (static — field sets are fixed per event code).
    pub name: &'static str,
    /// Field value.
    pub value: FieldValue,
}

impl EventField {
    /// An unsigned field.
    #[must_use]
    pub fn u64(name: &'static str, value: u64) -> Self {
        Self {
            name,
            value: FieldValue::U64(value),
        }
    }

    /// A signed field.
    #[must_use]
    pub fn i64(name: &'static str, value: i64) -> Self {
        Self {
            name,
            value: FieldValue::I64(value),
        }
    }

    /// A static-string field.
    #[must_use]
    pub fn str(name: &'static str, value: &'static str) -> Self {
        Self {
            name,
            value: FieldValue::Str(value),
        }
    }

    /// A runtime-string field (allocates; use for error messages, not on
    /// per-request paths).
    #[must_use]
    pub fn text(name: &'static str, value: impl Into<String>) -> Self {
        Self {
            name,
            value: FieldValue::Text(value.into()),
        }
    }
}

/// One recorded operational event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone per-log sequence number (orders events across slots).
    pub seq: u64,
    /// Severity.
    pub level: EventLevel,
    /// Stable machine-readable code (`wal_append_failed`,
    /// `torn_broadcast`, …). Static: codes are a fixed vocabulary.
    pub code: &'static str,
    /// Wall-clock microseconds since the Unix epoch when recorded.
    pub at_unix_micros: u64,
    /// The active trace id (`0` when the event happened outside any
    /// request trace). Matches the span/slow-log ids, so a torn broadcast
    /// stitches to the request that caused it.
    pub trace: u64,
    /// Typed fields in record order.
    pub fields: Vec<EventField>,
}

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Event {
    /// Render the event as one JSON object line (the `/events` format).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"level\":\"{}\",\"code\":\"{}\",\"at_unix_micros\":{}",
            self.seq,
            self.level.as_str(),
            self.code,
            self.at_unix_micros
        );
        if self.trace != 0 {
            let _ = write!(out, ",\"trace\":\"{:#x}\"", self.trace);
        }
        for field in &self.fields {
            let _ = write!(out, ",\"{}\":", field.name);
            match &field.value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::Str(s) => {
                    out.push('"');
                    escape_json(s, &mut out);
                    out.push('"');
                }
                FieldValue::Text(s) => {
                    out.push('"');
                    escape_json(s, &mut out);
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

/// A bounded ring of the most recent [`Event`]s.
///
/// Writers claim a slot with one atomic fetch-add and lock only that slot's
/// mutex — concurrent writers touch disjoint slots (they contend only when
/// the ring wraps a full lap onto the same slot), so recording stays cheap
/// and wait-free in the common case. Readers lock each slot briefly to
/// clone it out; a snapshot is consistent per slot, not across the ring
/// (events recorded mid-snapshot may or may not appear — fine for a
/// diagnostic surface).
#[derive(Debug)]
pub struct EventLog {
    seq: AtomicU64,
    slots: Vec<Mutex<Option<Event>>>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// A ring retaining the most recent `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            seq: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Record one event under `trace` (`0` for no trace).
    pub fn record(
        &self,
        level: EventLevel,
        code: &'static str,
        trace: u64,
        fields: Vec<EventField>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let at_unix_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let event = Event {
            seq,
            level,
            code,
            at_unix_micros,
            trace,
            fields,
        };
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().expect("event slot lock") = Some(event);
    }

    /// Record an [`EventLevel::Info`] event.
    pub fn info(&self, code: &'static str, trace: u64, fields: Vec<EventField>) {
        self.record(EventLevel::Info, code, trace, fields);
    }

    /// Record an [`EventLevel::Warn`] event.
    pub fn warn(&self, code: &'static str, trace: u64, fields: Vec<EventField>) {
        self.record(EventLevel::Warn, code, trace, fields);
    }

    /// Record an [`EventLevel::Error`] event.
    pub fn error(&self, code: &'static str, trace: u64, fields: Vec<EventField>) {
        self.record(EventLevel::Error, code, trace, fields);
    }

    /// Total events ever recorded (not just the retained window).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn entries(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("event slot lock").clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The retained events as JSON lines (the `/events` endpoint body).
    #[must_use]
    pub fn render_json_lines(&self) -> String {
        let mut out = String::new();
        for event in self.entries() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_in_order_with_typed_fields() {
        let log = EventLog::new(8);
        log.info(
            "compaction_finished",
            0,
            vec![
                EventField::u64("folded", 5),
                EventField::u64("duration_micros", 120),
            ],
        );
        log.error(
            "wal_append_failed",
            0xBEEF,
            vec![EventField::text("error", "disk full")],
        );
        let events = log.entries();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].code, "compaction_finished");
        assert_eq!(events[0].level, EventLevel::Info);
        assert_eq!(events[0].fields[0].name, "folded");
        assert_eq!(events[0].fields[0].value, FieldValue::U64(5));
        assert_eq!(events[1].trace, 0xBEEF);
        assert_eq!(events[1].level, EventLevel::Error);
        assert_eq!(log.recorded(), 2);
    }

    #[test]
    fn the_ring_keeps_only_the_most_recent_events() {
        let log = EventLog::new(4);
        for i in 0..10u64 {
            log.info("tick", 0, vec![EventField::u64("i", i)]);
        }
        let events = log.entries();
        assert_eq!(events.len(), 4, "ring bounds retention");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest events evicted first");
        assert_eq!(log.recorded(), 10);
    }

    #[test]
    fn json_rendering_escapes_and_types_fields() {
        let log = EventLog::new(2);
        log.warn(
            "shard_deadline_missed",
            0x2A,
            vec![
                EventField::u64("shard", 1),
                EventField::str("stage", "estimate"),
                EventField::text("error", "timed \"out\"\n"),
                EventField::i64("depth", -3),
            ],
        );
        let line = log.render_json_lines();
        assert!(line.contains("\"level\":\"warn\""), "{line}");
        assert!(
            line.contains("\"code\":\"shard_deadline_missed\""),
            "{line}"
        );
        assert!(line.contains("\"trace\":\"0x2a\""), "{line}");
        assert!(line.contains("\"shard\":1"), "{line}");
        assert!(line.contains("\"stage\":\"estimate\""), "{line}");
        assert!(
            line.contains("\"error\":\"timed \\\"out\\\"\\n\""),
            "{line}"
        );
        assert!(line.contains("\"depth\":-3"), "{line}");
        assert!(line.ends_with('\n'));
    }

    #[test]
    fn untraced_events_omit_the_trace_key() {
        let log = EventLog::new(2);
        log.info("tick", 0, vec![]);
        let line = log.render_json_lines();
        assert!(!line.contains("trace"), "{line}");
    }
}
