//! Text timeline renderer for flight-recorder traces.

use crate::event::{Event, NO_TAG};

/// Render a human-readable timeline from recorded events.
///
/// * `tag`: `Some(id)` keeps only that tag's events (plus slot-scoped
///   reader events tagged [`NO_TAG`]); `None` keeps everything.
/// * `last_n`: the window size. If any anomaly (collision, power cutoff,
///   decode failure) is present, the window is the `last_n` events up to
///   and including the *first* anomaly — the lead-up you want when
///   debugging. Otherwise it is simply the final `last_n` events.
///
/// Anomaly lines are prefixed with `!`.
pub fn render_timeline(events: &[Event], tag: Option<u8>, last_n: usize) -> String {
    let kept: Vec<&Event> = events
        .iter()
        .filter(|e| match tag {
            Some(t) => e.tag == t || e.tag == NO_TAG,
            None => true,
        })
        .collect();
    if kept.is_empty() {
        return "  (no events recorded)\n".to_string();
    }
    let anomaly = kept.iter().position(|e| e.kind.is_anomaly());
    let end = anomaly.map(|i| i + 1).unwrap_or(kept.len());
    let start = end.saturating_sub(last_n.max(1));
    let mut out = String::new();
    if start > 0 {
        out.push_str(&format!("  ... {start} earlier event(s) elided ...\n"));
    }
    for e in &kept[start..end] {
        out.push_str(&e.describe());
        out.push('\n');
    }
    if end < kept.len() {
        out.push_str(&format!(
            "  ... {} later event(s) after first anomaly ...\n",
            kept.len() - end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecodeFailReason, EventKind, MigrateReason};

    fn ev(slot: u64, tag: u8, kind: EventKind) -> Event {
        Event { slot, tag, kind }
    }

    #[test]
    fn windows_end_at_first_anomaly() {
        let events = vec![
            ev(
                1,
                3,
                EventKind::TagMigrated {
                    from: 0,
                    to: 2,
                    reason: MigrateReason::FeedbackNack,
                },
            ),
            ev(2, 3, EventKind::AckNack { ack: true }),
            ev(3, 3, EventKind::Settled { offset: 2 }),
            ev(4, NO_TAG, EventKind::Collision { transmitters: 2 }),
            ev(5, 3, EventKind::AckNack { ack: false }),
        ];
        let t = render_timeline(&events, None, 10);
        assert!(t.contains("! slot"));
        assert!(t.contains("collision (2 transmitters)"));
        assert!(t.contains("1 later event(s) after first anomaly"));
        assert!(!t.contains("feedback NACK"));
    }

    #[test]
    fn filters_by_tag_and_elides() {
        let mut events = Vec::new();
        for slot in 0..20u64 {
            events.push(ev(slot, (slot % 2) as u8, EventKind::AckNack { ack: true }));
        }
        let t = render_timeline(&events, Some(1), 3);
        // 10 tag-1 events, window of 3, no anomaly -> 7 elided.
        assert!(t.contains("7 earlier event(s) elided"));
        assert!(!t.contains("tag  0"));
    }

    #[test]
    fn decode_fail_is_anomalous() {
        let events = vec![ev(
            9,
            1,
            EventKind::DecodeFail {
                reason: DecodeFailReason::NoPreamble,
            },
        )];
        let t = render_timeline(&events, Some(1), 5);
        assert!(t.starts_with("! slot"));
    }

    #[test]
    fn empty_input_renders_placeholder() {
        assert!(render_timeline(&[], None, 5).contains("no events"));
    }
}
