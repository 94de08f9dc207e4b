//! Joins the collector's telemetry phase events with the benchmark's own
//! operation spans. Both are stamped with `ts_telemetry::monotonic_ns`,
//! so collect, signal-round, scan, sort and free spans can be cut to the
//! measurement window and set against the slow operations they overlap.

use std::collections::BTreeMap;

use threadscan::PhaseKind;
use ts_telemetry::EventRecord;

use crate::recorder::Recorder;

/// The phase boundaries of one collect, as far as they were recorded.
#[derive(Default)]
struct Collect {
    begin: Option<u64>,
    end: Option<u64>,
    sort: (Option<u64>, Option<u64>),
    round: (Option<u64>, Option<u64>),
    free: (Option<u64>, Option<u64>),
    entries: u64,
    survivors: u64,
    /// Scan begin per ring (thread); ends pair with them in order.
    scans: Vec<(usize, u64, Option<u64>)>,
}

fn span((begin, end): (Option<u64>, Option<u64>)) -> Option<u64> {
    end?.checked_sub(begin?)
}

/// Per-layer figures derived from one traced window.
#[derive(Default)]
pub struct PhaseSummary {
    /// Collects that began inside the window and completed.
    pub collects: u64,
    pub collect_ns: Recorder,
    pub sort_ns: Recorder,
    pub free_ns: Recorder,
    pub round_ns: Recorder,
    pub scan_ns: Recorder,
    /// Total collect time inside the window.
    pub busy_ns: u64,
    pub entries: u64,
    pub survivors: u64,
    /// Mean over collects of the share of the collect each span covers.
    pub sort_share: f64,
    pub round_share: f64,
    pub free_share: f64,
    /// `[begin, end)` of every collect, sorted by begin.
    intervals: Vec<(u64, u64)>,
}

impl PhaseSummary {
    /// Groups `events` by collect and keeps the collects that began in
    /// `[window_start, window_end)`.
    pub fn from_events(events: &[EventRecord], window_start: u64, window_end: u64) -> Self {
        let mut by_id: BTreeMap<u64, Collect> = BTreeMap::new();
        for ev in events {
            let c = by_id.entry(ev.collect_id).or_default();
            let t = Some(ev.ts_ns);
            match ev.kind {
                PhaseKind::CollectBegin => {
                    c.begin = t;
                    c.entries = ev.arg;
                }
                PhaseKind::CollectEnd => {
                    c.end = t;
                    c.survivors = ev.arg;
                }
                PhaseKind::SortBegin => c.sort.0 = t,
                PhaseKind::SortEnd => c.sort.1 = t,
                PhaseKind::Announce => c.round.0 = t,
                PhaseKind::AllAcked => c.round.1 = t,
                PhaseKind::FreeBegin => c.free.0 = t,
                PhaseKind::FreeEnd => c.free.1 = t,
                PhaseKind::ScanBegin => c.scans.push((ev.ring, ev.ts_ns, None)),
                PhaseKind::ScanEnd => {
                    if let Some(open) = c
                        .scans
                        .iter_mut()
                        .rev()
                        .find(|(ring, _, end)| *ring == ev.ring && end.is_none())
                    {
                        open.2 = t;
                    }
                }
                PhaseKind::SignalSent => {}
            }
        }

        let mut out = PhaseSummary::default();
        let (mut sort_share, mut round_share, mut free_share) = (0.0, 0.0, 0.0);
        for c in by_id.values() {
            let (Some(begin), Some(end)) = (c.begin, c.end) else {
                continue;
            };
            if !(window_start..window_end).contains(&begin) || end < begin {
                continue;
            }
            let ns = end - begin;
            out.collects += 1;
            out.collect_ns.record(ns);
            out.busy_ns += ns;
            out.entries += c.entries;
            out.survivors += c.survivors;
            out.intervals.push((begin, end));
            let share = |s: Option<u64>| s.map_or(0.0, |s| s as f64 / ns.max(1) as f64);
            if let Some(s) = span(c.sort) {
                out.sort_ns.record(s);
            }
            if let Some(s) = span(c.free) {
                out.free_ns.record(s);
            }
            if let Some(s) = span(c.round) {
                out.round_ns.record(s);
            }
            sort_share += share(span(c.sort));
            round_share += share(span(c.round));
            free_share += share(span(c.free));
            for &(_, b, e) in &c.scans {
                if let Some(e) = e {
                    out.scan_ns.record(e.saturating_sub(b));
                }
            }
        }
        if out.collects > 0 {
            let n = out.collects as f64;
            out.sort_share = sort_share / n;
            out.round_share = round_share / n;
            out.free_share = free_share / n;
        }
        out.intervals.sort_unstable();
        out
    }

    /// Whether `[start, end)` overlaps any collect.
    pub fn overlaps_collect(&self, start: u64, end: u64) -> bool {
        // The last collect beginning before `end` is the only candidate
        // that can still be running at `start` when collects do not
        // overlap each other (they serialize on the reclaimer lock).
        let i = self.intervals.partition_point(|&(b, _)| b < end);
        i > 0 && self.intervals[i - 1].1 > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ring: usize, ts_ns: u64, kind: PhaseKind, collect_id: u64, arg: u64) -> EventRecord {
        EventRecord {
            ring,
            seq: 0,
            ts_ns,
            kind,
            collect_id,
            arg,
        }
    }

    #[test]
    fn collects_are_grouped_cut_to_the_window_and_attributed() {
        use PhaseKind::*;
        let events = [
            // Collect 1: inside the window.
            ev(0, 100, CollectBegin, 1, 1000),
            ev(0, 100, SortBegin, 1, 0),
            ev(0, 130, SortEnd, 1, 2),
            ev(0, 130, Announce, 1, 2),
            ev(0, 131, SignalSent, 1, 0),
            ev(0, 132, ScanBegin, 1, 0),
            ev(1, 135, ScanBegin, 1, 0),
            ev(0, 150, ScanEnd, 1, 0),
            ev(1, 165, ScanEnd, 1, 0),
            ev(0, 170, AllAcked, 1, 2),
            ev(0, 180, FreeBegin, 1, 900),
            ev(0, 190, FreeEnd, 1, 900),
            ev(0, 200, CollectEnd, 1, 100),
            // Collect 2: begins after the window closes.
            ev(1, 5000, CollectBegin, 2, 10),
            ev(1, 5100, CollectEnd, 2, 0),
        ];
        let s = PhaseSummary::from_events(&events, 50, 1000);
        assert_eq!(s.collects, 1);
        assert_eq!((s.entries, s.survivors, s.busy_ns), (1000, 100, 100));
        assert_eq!(s.collect_ns.quantile(0.5), 100.0);
        assert_eq!(s.sort_ns.quantile(0.5), 30.0);
        assert_eq!(s.round_ns.quantile(0.5), 40.0);
        assert_eq!(s.free_ns.quantile(0.5), 10.0);
        assert_eq!(s.scan_ns.count(), 2);
        assert_eq!(s.scan_ns.quantile(1.0), 30.0);
        assert!((s.sort_share - 0.3).abs() < 1e-9);
        assert!((s.round_share - 0.4).abs() < 1e-9);
        assert!((s.free_share - 0.1).abs() < 1e-9);
        assert!(s.overlaps_collect(150, 160));
        assert!(s.overlaps_collect(50, 101));
        assert!(!s.overlaps_collect(200, 300));
        assert!(!s.overlaps_collect(10, 100));
    }
}
