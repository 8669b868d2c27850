//! Open-loop load generation: requests are due on a seeded schedule
//! whether or not earlier ones have been answered, and each is timed from
//! when it was *due*, so a stall is charged to every request it delays.

use crate::gen::{Rng, StdRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Due offsets (seconds from the phase start) for `rate` requests per
/// second over `duration_s`: `round(rate·duration)` equal slots with one
/// arrival placed uniformly at random in each. Every seed offers the same
/// count over the same span, and arrivals never bunch beyond two per slot
/// width, so a tail measures the service rather than a burst of the
/// schedule.
pub fn schedule(rng: &mut StdRng, rate: f64, duration_s: f64) -> Vec<f64> {
    let n = (rate * duration_s).round().max(1.0) as usize;
    let slot = duration_s / n as f64;
    (0..n)
        .map(|i| (i as f64 + rng.gen::<f64>()) * slot)
        .collect()
}

/// One finished request of an open-loop phase.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    /// Index into the schedule.
    pub index: usize,
    /// How late the generator sent it, ms (send instant − due instant).
    pub late_ms: f64,
    /// Completion instant − due instant, ms: queueing in the generator,
    /// the transport, the server queue and the handler all count.
    pub latency_ms: f64,
    /// What `send` returned.
    pub result: R,
}

/// Runs the schedule on `clients` threads, each holding at most one
/// request in flight; `send(i)` performs request `i`. Returns the samples
/// in schedule order and the phase wall time in seconds (start to last
/// completion).
pub fn run<R: Send>(
    due: &[f64],
    clients: usize,
    send: impl Fn(usize) -> R + Sync,
) -> (Vec<Sample<R>>, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(due.len()));
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= due.len() {
                    break;
                }
                let due_at = start + Duration::from_secs_f64(due[i]);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let sent = Instant::now();
                let result = send(i);
                let done = Instant::now();
                let sample = Sample {
                    index: i,
                    late_ms: sent.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                    latency_ms: done.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                    result,
                };
                samples
                    .lock()
                    .expect("sample lock: a client thread panicked")
                    .push(sample);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = samples
        .into_inner()
        .expect("sample lock: a client thread panicked");
    samples.sort_by_key(|s| s.index);
    (samples, wall)
}

/// Whether the generator fell further behind over the phase: the median
/// lateness of the last quarter of the schedule exceeds that of the first
/// quarter by more than `slack_ms`. A backlog that keeps growing means the
/// offered rate is above what the service sustains.
pub fn lateness_grows<R>(samples: &[Sample<R>], slack_ms: f64) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let late = |s: &[Sample<R>]| {
        crate::stats::median(&s.iter().map(|x| x.late_ms).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    late(&samples[samples.len() - q..]) > late(&samples[..q]) + slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_counted() {
        let a = schedule(&mut crate::gen::stream(3, "arrivals"), 8.0, 10.0);
        let b = schedule(&mut crate::gen::stream(3, "arrivals"), 8.0, 10.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 80);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
    }

    #[test]
    fn latency_is_counted_from_the_due_time() {
        // Three requests due 10 ms apart on one client, each taking 40 ms:
        // the third is sent ~60 ms late and its latency includes that wait.
        let service = Duration::from_millis(40);
        let (samples, _) = run(&[0.0, 0.01, 0.02], 1, |_| std::thread::sleep(service));
        let third = &samples[2];
        assert!(third.late_ms >= 55.0, "late {}", third.late_ms);
        assert!(
            third.latency_ms >= third.late_ms + 39.0,
            "latency {}",
            third.latency_ms
        );
        // The first request was sent on time: latency ≈ service time.
        assert!(samples[0].late_ms < 15.0, "late {}", samples[0].late_ms);
    }

    #[test]
    fn growing_backlog_is_detected() {
        let mk = |late: &[f64]| -> Vec<Sample<()>> {
            late.iter()
                .enumerate()
                .map(|(i, &l)| Sample {
                    index: i,
                    late_ms: l,
                    latency_ms: l,
                    result: (),
                })
                .collect()
        };
        assert!(lateness_grows(
            &mk(&[0.0, 1.0, 2.0, 3.0, 300.0, 400.0, 500.0, 600.0]),
            50.0
        ));
        assert!(!lateness_grows(
            &mk(&[0.0, 9.0, 2.0, 3.0, 1.0, 4.0, 8.0, 2.0]),
            50.0
        ));
    }
}
