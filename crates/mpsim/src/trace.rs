//! Execution tracing: per-rank timelines in Chrome trace format.
//!
//! When enabled (see [`crate::runner::run_spmd_traced`]), every rank
//! records its computation spans, sends, and receive waits on the
//! *virtual* clock. The combined [`Trace`] serializes to the Chrome
//! trace-event JSON format — open `chrome://tracing` (or Perfetto) and
//! load the file to see the parallel schedule: local scan work, the
//! `log P` recursive-doubling rounds, and who waits for whom.

use std::fmt::Write as _;

/// One recorded event on a rank's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Local computation of `flops`, occupying `[start, start + dur]`.
    Compute {
        /// Virtual start time (seconds).
        start: f64,
        /// Duration (seconds).
        dur: f64,
        /// Flops performed.
        flops: u64,
    },
    /// A message send (instantaneous on the sender's timeline).
    Send {
        /// Virtual time of the send.
        at: f64,
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// A receive: the rank blocked from `start` until the message's
    /// availability time `start + wait` (zero wait if it was already
    /// there).
    Recv {
        /// Virtual time the receive was posted.
        start: f64,
        /// Time spent waiting for the message.
        wait: f64,
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
    },
}

impl TraceEvent {
    /// The same event with every virtual timestamp advanced by `dt`
    /// seconds. Used by traced persistent worlds
    /// ([`crate::runner::SpmdWorld::new_traced`]) to place each job's
    /// events (whose clocks restart at zero) back-to-back on one merged
    /// timeline, keeping per-rank timestamps monotone across jobs.
    #[must_use]
    pub fn shifted(&self, dt: f64) -> Self {
        let mut ev = self.clone();
        match &mut ev {
            Self::Compute { start, .. } | Self::Recv { start, .. } => *start += dt,
            Self::Send { at, .. } => *at += dt,
        }
        ev
    }
}

/// All ranks' recorded events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `events[rank]` is that rank's timeline in recording order.
    pub events: Vec<Vec<TraceEvent>>,
}

impl Trace {
    /// Total number of events across ranks.
    pub fn len(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes to Chrome trace-event JSON (the "JSON array" flavour).
    /// Times are microseconds of virtual time; `tid` is the rank.
    ///
    /// The output leads with metadata events (`ph:"M"`) naming the
    /// process and each rank's thread, and pairs every Send with its
    /// matching Recv through flow events (`ph:"s"` on the sender,
    /// `ph:"f"` with `bp:"e"` on the receiver), so Perfetto draws
    /// message arrows across rank timelines instead of disconnected
    /// spans. Matching relies on the runtime's per-`(src, dst, tag)`
    /// FIFO delivery: the `n`-th send of a triple pairs with the `n`-th
    /// receive of the same triple.
    pub fn to_chrome_json(&self) -> String {
        use std::collections::HashMap;

        // Assign one flow id per (src, dst, tag, occurrence) in send order.
        let mut flow_ids: HashMap<(usize, usize, u64, u64), u64> = HashMap::new();
        {
            let mut send_seq: HashMap<(usize, usize, u64), u64> = HashMap::new();
            let mut next_id = 0u64;
            for (rank, events) in self.events.iter().enumerate() {
                for ev in events {
                    if let TraceEvent::Send { dst, tag, .. } = ev {
                        let seq = send_seq.entry((rank, *dst, *tag)).or_insert(0);
                        flow_ids.insert((rank, *dst, *tag, *seq), next_id);
                        *seq += 1;
                        next_id += 1;
                    }
                }
            }
        }

        let mut out = String::from("[\n");
        let _ = write!(
            out,
            r#"  {{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{{"name":"mpsim virtual clock"}}}}"#
        );
        for rank in 0..self.events.len() {
            let _ = write!(
                out,
                ",\n  {{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{rank},\"args\":{{\"name\":\"rank {rank}\"}}}}"
            );
        }
        let mut recv_seq: HashMap<(usize, usize, u64), u64> = HashMap::new();
        // Emission traverses sends in the same order ids were assigned,
        // so the sender side is a plain counter.
        let mut next_send_id = 0u64;
        for (rank, events) in self.events.iter().enumerate() {
            for ev in events {
                match ev {
                    TraceEvent::Compute { start, dur, flops } => {
                        let _ = write!(
                            out,
                            ",\n  {{\"name\":\"compute\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{rank},\"args\":{{\"flops\":{flops}}}}}",
                            start * 1e6,
                            dur * 1e6
                        );
                    }
                    TraceEvent::Send {
                        at,
                        dst,
                        tag,
                        bytes,
                    } => {
                        let ts = at * 1e6;
                        let _ = write!(
                            out,
                            ",\n  {{\"name\":\"send\",\"ph\":\"i\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{rank},\"s\":\"t\",\"args\":{{\"dst\":{dst},\"tag\":{tag},\"bytes\":{bytes}}}}}"
                        );
                        let id = next_send_id;
                        next_send_id += 1;
                        let _ = write!(
                            out,
                            ",\n  {{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\"ts\":{ts:.3},\"pid\":0,\"tid\":{rank}}}"
                        );
                    }
                    TraceEvent::Recv {
                        start,
                        wait,
                        src,
                        tag,
                        bytes,
                    } => {
                        let ts = start * 1e6;
                        let end = (start + wait) * 1e6;
                        let _ = write!(
                            out,
                            ",\n  {{\"name\":\"recv-wait\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{rank},\"args\":{{\"src\":{src},\"tag\":{tag},\"bytes\":{bytes}}}}}",
                            wait * 1e6
                        );
                        let seq = recv_seq.entry((*src, rank, *tag)).or_insert(0);
                        if let Some(id) = flow_ids.get(&(*src, rank, *tag, *seq)) {
                            *seq += 1;
                            let _ = write!(
                                out,
                                ",\n  {{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{end:.3},\"pid\":0,\"tid\":{rank}}}"
                            );
                        }
                    }
                };
            }
        }
        let _ = write!(out, "\n]\n");
        out
    }

    /// Writes the Chrome JSON to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_chrome_json())
    }

    /// Fraction of a rank's final virtual time spent blocked in receives
    /// (a load-imbalance / critical-path indicator).
    pub fn wait_fraction(&self, rank: usize) -> f64 {
        let events = &self.events[rank];
        let waited: f64 = events
            .iter()
            .map(|e| match e {
                TraceEvent::Recv { wait, .. } => *wait,
                _ => 0.0,
            })
            .sum();
        let end = events
            .iter()
            .map(|e| match e {
                TraceEvent::Compute { start, dur, .. } => start + dur,
                TraceEvent::Send { at, .. } => *at,
                TraceEvent::Recv { start, wait, .. } => start + wait,
            })
            .fold(0.0, f64::max);
        if end > 0.0 {
            waited / end
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            events: vec![
                vec![
                    TraceEvent::Compute {
                        start: 0.0,
                        dur: 1.0,
                        flops: 100,
                    },
                    TraceEvent::Send {
                        at: 1.0,
                        dst: 1,
                        tag: 7,
                        bytes: 64,
                    },
                ],
                vec![TraceEvent::Recv {
                    start: 0.0,
                    wait: 1.5,
                    src: 0,
                    tag: 7,
                    bytes: 64,
                }],
            ],
        }
    }

    #[test]
    fn counting() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(Trace::default().is_empty());
    }

    #[test]
    fn chrome_json_shape() {
        let json = sample().to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains(r#""name":"compute""#));
        assert!(json.contains(r#""name":"send""#));
        assert!(json.contains(r#""name":"recv-wait""#));
        assert!(json.contains(r#""tid":1"#));
        // Round-trip through the in-tree parser and schema validator.
        let doc = bt_obs::json::parse(&json).expect("trace must be valid JSON");
        let summary = bt_obs::json::validate_chrome_trace(&doc).expect("trace must validate");
        // 3 events + process_name + 2 thread_name + 1 flow pair.
        assert_eq!(summary.events, 8);
        assert_eq!(summary.flow_starts, 1);
        assert_eq!(summary.flow_finishes, 1);
    }

    #[test]
    fn thread_metadata_names_ranks() {
        let json = sample().to_chrome_json();
        assert!(json.contains(r#""name":"process_name""#));
        assert!(json.contains(r#""args":{"name":"rank 0"}"#));
        assert!(json.contains(r#""args":{"name":"rank 1"}"#));
    }

    #[test]
    fn flow_events_pair_send_with_recv() {
        // Two sends on the same (src, dst, tag) triple: FIFO order must
        // give the first send id 0 and the second id 1, with both recvs
        // matched in the same order.
        let t = Trace {
            events: vec![
                vec![
                    TraceEvent::Send {
                        at: 1.0,
                        dst: 1,
                        tag: 3,
                        bytes: 8,
                    },
                    TraceEvent::Send {
                        at: 2.0,
                        dst: 1,
                        tag: 3,
                        bytes: 8,
                    },
                ],
                vec![
                    TraceEvent::Recv {
                        start: 0.0,
                        wait: 1.5,
                        src: 0,
                        tag: 3,
                        bytes: 8,
                    },
                    TraceEvent::Recv {
                        start: 1.5,
                        wait: 1.0,
                        src: 0,
                        tag: 3,
                        bytes: 8,
                    },
                ],
            ],
        };
        let json = t.to_chrome_json();
        let doc = bt_obs::json::parse(&json).expect("valid JSON");
        let summary = bt_obs::json::validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(summary.flow_starts, 2);
        assert_eq!(summary.flow_finishes, 2);
        // The validator checks every finish has a matching start id;
        // additionally pin the ids to FIFO order.
        assert!(json.contains(r#""ph":"s","id":0"#));
        assert!(json.contains(r#""ph":"s","id":1"#));
        assert!(json.contains(r#""ph":"f","bp":"e","id":0"#));
        assert!(json.contains(r#""ph":"f","bp":"e","id":1"#));
    }

    #[test]
    fn unmatched_recv_gets_no_flow_finish() {
        // A recv with no corresponding send (e.g. truncated trace) must
        // not emit a dangling flow finish.
        let t = Trace {
            events: vec![
                vec![],
                vec![TraceEvent::Recv {
                    start: 0.0,
                    wait: 0.5,
                    src: 0,
                    tag: 9,
                    bytes: 4,
                }],
            ],
        };
        let json = t.to_chrome_json();
        let doc = bt_obs::json::parse(&json).expect("valid JSON");
        let summary = bt_obs::json::validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(summary.flow_starts, 0);
        assert_eq!(summary.flow_finishes, 0);
    }

    #[test]
    fn wait_fraction_computed() {
        let t = sample();
        assert_eq!(t.wait_fraction(0), 0.0);
        assert!((t.wait_fraction(1) - 1.0).abs() < 1e-12);
    }
}
