//! The closed-loop load driver: one client sends its next op only after the
//! previous one completed, so a slower system receives less load.

use std::time::{Duration, Instant};

/// What one client did during one window.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    pub attempted: u64,
    /// Ops that returned an error or a wrong result. A failed op has no
    /// latency sample: it misses every latency figure.
    pub failed: u64,
    pub latencies_ns: Vec<u64>,
    /// When each sampled op completed, from the window's start (same length
    /// and order as `latencies_ns`).
    pub completions_ns: Vec<u64>,
    /// From the first op's start to the last op's end.
    pub elapsed: Duration,
}

/// Runs `op` back to back until `window` has passed; `op` returns whether it
/// succeeded *and* produced the expected result. An op started inside the
/// window always runs to completion and is counted.
pub fn closed_loop(window: Duration, mut op: impl FnMut() -> bool) -> LoopStats {
    let mut stats = LoopStats::default();
    let started = Instant::now();
    loop {
        let op_started = Instant::now();
        if op_started.duration_since(started) >= window {
            break;
        }
        let ok = op();
        let done = Instant::now();
        stats.attempted += 1;
        if ok {
            let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            stats.latencies_ns.push(ns(done.duration_since(op_started)));
            stats.completions_ns.push(ns(done.duration_since(started)));
        } else {
            stats.failed += 1;
        }
    }
    stats.elapsed = started.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stops_on_time() {
        let window = Duration::from_millis(60);
        let stats = closed_loop(window, || {
            std::thread::sleep(Duration::from_millis(2));
            true
        });
        assert!(stats.elapsed >= window);
        // At most one op overruns the window, by its own length (plus
        // scheduling slack on a busy machine).
        assert!(stats.elapsed < window + Duration::from_millis(40));
        assert!(stats.attempted >= 2);
        assert_eq!(stats.latencies_ns.len() as u64, stats.attempted);
        assert_eq!(stats.completions_ns.len(), stats.latencies_ns.len());
        assert!(stats.completions_ns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn counts_failures_against_attempts() {
        let mut i = 0u64;
        let stats = closed_loop(Duration::from_millis(20), || {
            i += 1;
            !i.is_multiple_of(4)
        });
        assert_eq!(stats.attempted, i);
        assert_eq!(stats.failed, i / 4);
        // Failed ops contribute no latency sample.
        assert_eq!(
            stats.latencies_ns.len() as u64,
            stats.attempted - stats.failed
        );
    }
}
