//! Open-loop load generator with due-time accounting.
//!
//! Request `k` of a schedule is due at `start + k / rate`, whatever
//! happened to earlier requests. An endpoint (one connection) carries one
//! request at a time, so when a reply is slow the requests due behind it
//! go out late. Every latency is measured from the request's due time,
//! not from when it was sent: a stall is charged to every request queued
//! behind it, and how late the generator ran is reported on its own.
//!
//! Each endpoint is driven by its own thread, which sleeps until a
//! request is due and blocks while it waits for the reply, so the client
//! leaves the host's cores to the server.

use crate::stats::{self, Dist};
use std::time::{Duration, Instant};

/// One request/reply channel.
pub trait Endpoint {
    /// Send request `k` and wait for its reply: `Ok(ok)` tells whether
    /// the reply passed its check; `Err` is a transport failure, which
    /// ends the drive.
    fn call(&mut self, k: usize) -> std::io::Result<bool>;
}

/// `count` requests at `rate` per second.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate: f64,
    pub count: usize,
}

/// One request's timeline, in nanoseconds since the schedule start.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub ack_ns: u64,
    pub ok: bool,
}

/// Outcome of driving one endpoint.
#[derive(Debug, Default)]
pub struct Drive {
    /// Requests sent and answered, in order.
    pub records: Vec<Record>,
    /// Requests that fell due but were never sent (the drive overran its
    /// grace period, or the transport failed).
    pub unsent: usize,
    /// Largest number of requests due but not yet answered, seen at any
    /// send.
    pub backlog_max: usize,
    /// The same count at the last send: large when the backlog kept
    /// growing to the end of the schedule.
    pub backlog_end: usize,
    /// Transport error that ended the drive early, if any.
    pub error: Option<String>,
    /// Wall time from schedule start to the last reply.
    pub wall: Duration,
}

impl Drive {
    fn series(&self, f: impl Fn(&Record) -> u64) -> Vec<f64> {
        self.records.iter().map(|r| f(r) as f64 / 1e3).collect()
    }

    /// Due→reply latencies in microseconds, in request order.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.series(|r| r.ack_ns - r.due_ns)
    }

    /// Due→reply latencies in microseconds.
    pub fn latency_us(&self) -> Option<Dist> {
        stats::summarize(&mut self.latencies_us(), 0.99)
    }

    /// Send→reply round trips in microseconds (no generator lateness).
    pub fn round_trip_us(&self) -> Option<Dist> {
        stats::summarize(&mut self.series(|r| r.ack_ns - r.sent_ns), 0.99)
    }

    /// How late each request was sent, in microseconds.
    pub fn late_us(&self) -> Option<Dist> {
        stats::summarize(&mut self.series(|r| r.sent_ns - r.due_ns), 0.99)
    }

    /// Replies that failed their check.
    pub fn bad(&self) -> usize {
        self.records.iter().filter(|r| !r.ok).count()
    }

    /// Replies received per second of wall time.
    pub fn achieved_rate(&self) -> f64 {
        self.records.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Sleep until just before `t`, then spin the rest: a sleep alone wakes
/// tens of microseconds late, which would be charged to the system under
/// test, while a long spin would take the core the server needs.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(30);
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Drive `endpoint` on `schedule` from `start` in the calling thread.
/// Requests due are sent, late if need be, until the schedule's end plus
/// `grace`; any still unsent then count in [`Drive::unsent`].
pub fn drive(
    endpoint: &mut impl Endpoint,
    schedule: Schedule,
    start: Instant,
    grace: Duration,
) -> Drive {
    let Schedule { rate, count } = schedule;
    let hard_stop = start + Duration::from_secs_f64(count as f64 / rate) + grace;
    let mut out = Drive {
        records: Vec::with_capacity(count),
        ..Drive::default()
    };
    for k in 0..count {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        wait_until(due);
        let sent = Instant::now();
        if sent >= hard_stop {
            out.unsent = count - k;
            break;
        }
        // Requests due by now (this one included) minus those answered.
        let due_by_now = ((ns_between(start, sent) as f64 / 1e9) * rate).floor() as usize + 1;
        out.backlog_end = due_by_now.min(count) - k;
        out.backlog_max = out.backlog_max.max(out.backlog_end);
        match endpoint.call(k) {
            Ok(ok) => {
                let ack = Instant::now();
                out.records.push(Record {
                    due_ns: ns_between(start, due),
                    sent_ns: ns_between(start, sent),
                    ack_ns: ns_between(start, ack),
                    ok,
                });
                out.wall = ack.saturating_duration_since(start);
            }
            Err(e) => {
                out.error = Some(e.to_string());
                out.unsent = count - k;
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers after `service`, except request `stall_at`, which takes
    /// `stall` — a responder hiccup.
    struct Stalling {
        service: Duration,
        stall_at: usize,
        stall: Duration,
    }

    impl Endpoint for Stalling {
        fn call(&mut self, k: usize) -> std::io::Result<bool> {
            let busy = if k == self.stall_at {
                self.stall
            } else {
                self.service
            };
            wait_until(Instant::now() + busy);
            Ok(true)
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 2000 requests at 4000/s (one due every 250 µs), 20 µs service,
        // one 40 ms stall at request 500: ~160 requests fall due during
        // the stall and go out late.
        let mut responder = Stalling {
            service: Duration::from_micros(20),
            stall_at: 500,
            stall: Duration::from_millis(40),
        };
        let d = drive(
            &mut responder,
            Schedule {
                rate: 4000.0,
                count: 2000,
            },
            Instant::now(),
            Duration::from_secs(5),
        );
        assert_eq!((d.records.len(), d.unsent, d.bad()), (2000, 0, 0));

        // The request right behind the stall was due 250 µs after the
        // stalled one was sent, so it waited out almost the whole stall.
        let next = d.records[501];
        assert!(next.ack_ns - next.due_ns >= 35_000_000, "{next:?}");
        assert!(next.sent_ns - next.due_ns >= 35_000_000, "{next:?}");

        // From due time, the stall dominates the tail (~8% of requests
        // are late), while send→reply round trips stay short.
        let lat = d.latency_us().unwrap();
        let late = d.late_us().unwrap();
        let rtt = d.round_trip_us().unwrap();
        assert_eq!((lat.n, lat.tail_label), (2000, "p99"));
        assert!(lat.tail >= 10_000.0, "{lat:?}");
        assert!(late.tail >= 10_000.0, "{late:?}");
        assert!(rtt.p50 < 5_000.0, "{rtt:?}");
        assert!(d.backlog_max >= 100, "{}", d.backlog_max);
    }

    #[test]
    fn a_responder_slower_than_the_rate_leaves_requests_unsent() {
        // 1 ms service at 4000/s can answer only a quarter of the
        // schedule before the grace period ends.
        let mut responder = Stalling {
            service: Duration::from_millis(1),
            stall_at: usize::MAX,
            stall: Duration::ZERO,
        };
        let d = drive(
            &mut responder,
            Schedule {
                rate: 4000.0,
                count: 800,
            },
            Instant::now(),
            Duration::from_millis(10),
        );
        assert!(d.unsent > 500, "{}", d.unsent);
        assert_eq!(d.records.len() + d.unsent, 800);
        assert!(d.backlog_max > 500, "{}", d.backlog_max);
        assert!(d.backlog_end > 500, "{}", d.backlog_end);
    }
}
