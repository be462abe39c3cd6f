//! Order statistics over latency samples, and the sample-count rule that
//! says which tail percentile a sample supports.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by nearest rank: the smallest
/// sample with at least a `q` share of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its median (nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, 0.5)
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond the
/// `q`-quantile — the rule a reported tail percentile must meet (p95 needs
/// 200 samples, p99 needs 1000).
pub fn supports_quantile(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= MIN_TAIL_SAMPLES as f64
}

/// Fewest samples in a slice whose median (and throughput) is taken: 20
/// lie beyond the median.
pub const MEDIAN_SLICE_SAMPLES: usize = 40;
/// Fewest samples in a slice whose p95 is taken: 10 lie beyond it.
pub const TAIL_SLICE_SAMPLES: usize = 200;

/// One client's samples in a window, as the closed-loop driver records
/// them: latencies and completion times (nanoseconds from the window's
/// start, ascending) in op order, and the length of the client's *round* —
/// the number of consecutive ops after which its op mix repeats (1 when
/// every op is drawn alike).
#[derive(Debug, Clone, Copy)]
pub struct ClientSamples<'a> {
    pub latencies_ns: &'a [u64],
    pub completions_ns: &'a [u64],
    pub round_len: usize,
}

/// What one reported op stream did in a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    pub samples: usize,
    /// Slices `ops_per_s` and `p50_ms` are medians over.
    pub slices: usize,
    /// Slices `p95_ms` is a median over.
    pub tail_slices: usize,
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Whether every client has the [`TAIL_SLICE_SAMPLES`] a p95 needs.
    pub p95_supported: bool,
}

/// Cuts `n` samples into consecutive slices of whole rounds holding at
/// least `min_samples` each. An incomplete last slice is left out; fewer
/// than two slices means one slice: everything.
fn slices(n: usize, round_len: usize, min_samples: usize) -> Vec<(usize, usize)> {
    let len = min_samples.div_ceil(round_len) * round_len;
    let count = n / len;
    if count < 2 {
        return vec![(0, n)];
    }
    (0..count).map(|i| (i * len, (i + 1) * len)).collect()
}

fn sorted_ms(latencies_ns: &[u64]) -> Vec<f64> {
    let mut ms: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Summarizes the clients of one op stream by its **median slice**.
///
/// Each client's samples are cut, in time order, into slices of whole
/// rounds (so every slice holds the same op mix). Every slice of at least
/// [`MEDIAN_SLICE_SAMPLES`] yields a throughput (its ops over the time they
/// took) and a p50; every slice of at least [`TAIL_SLICE_SAMPLES`] yields a
/// p95. The stream reports the median over slices — throughputs summed
/// over clients, latencies pooled — so outside interference that hits a
/// minority of slices does not move the result, while a stall that recurs
/// in most slices still does.
///
/// `None` when no client has a sample (every op failed).
pub fn summarize_stream(clients: &[ClientSamples<'_>]) -> Option<StreamSummary> {
    let (mut p50s, mut p95s) = (Vec::new(), Vec::new());
    let (mut samples, mut ops_per_s, mut supported) = (0, 0.0, true);
    for c in clients {
        assert_eq!(c.latencies_ns.len(), c.completions_ns.len());
        let n = c.latencies_ns.len();
        if n == 0 {
            continue;
        }
        samples += n;
        supported &= supports_quantile(n, 0.95);
        let mut rates = Vec::new();
        for (begin, end) in slices(n, c.round_len, MEDIAN_SLICE_SAMPLES) {
            p50s.push(quantile_sorted(
                &sorted_ms(&c.latencies_ns[begin..end]),
                0.5,
            ));
            // Closed loop: a slice starts when the op before it completed.
            let started_ns = if begin == 0 {
                0
            } else {
                c.completions_ns[begin - 1]
            };
            let took_s = (c.completions_ns[end - 1] - started_ns) as f64 / 1e9;
            rates.push((end - begin) as f64 / took_s);
        }
        ops_per_s += median(&mut rates);
        for (begin, end) in slices(n, c.round_len, TAIL_SLICE_SAMPLES) {
            p95s.push(quantile_sorted(
                &sorted_ms(&c.latencies_ns[begin..end]),
                0.95,
            ));
        }
    }
    if samples == 0 {
        return None;
    }
    Some(StreamSummary {
        samples,
        slices: p50s.len(),
        tail_slices: p95s.len(),
        ops_per_s,
        p50_ms: median(&mut p50s),
        p95_ms: median(&mut p95s),
        p95_supported: supported,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.95), 95.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&mut [4.0, 2.0]), 2.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!supports_quantile(199, 0.95));
        assert!(supports_quantile(200, 0.95));
        assert!(!supports_quantile(999, 0.99));
        assert!(supports_quantile(1000, 0.99));
        // The median is supported from 20 samples on.
        assert!(supports_quantile(20, 0.5));
    }

    /// `n` ops of `latency_ms` each, back to back.
    fn steady(n: usize, latency_ms: u64) -> (Vec<u64>, Vec<u64>) {
        let lat = vec![latency_ms * 1_000_000; n];
        let done = (1..=n as u64).map(|i| i * latency_ms * 1_000_000).collect();
        (lat, done)
    }

    fn client<'a>(samples: &'a (Vec<u64>, Vec<u64>), round_len: usize) -> ClientSamples<'a> {
        ClientSamples {
            latencies_ns: &samples.0,
            completions_ns: &samples.1,
            round_len,
        }
    }

    #[test]
    fn slices_are_whole_rounds() {
        // Rounds of 15: a median slice is 3 rounds, a tail slice 14.
        assert_eq!(slices(100, 15, 40), vec![(0, 45), (45, 90)]);
        assert_eq!(slices(89, 15, 40), vec![(0, 89)]);
        assert_eq!(slices(430, 15, 200), vec![(0, 210), (210, 420)]);
        assert_eq!(slices(419, 15, 200), vec![(0, 419)]);
        assert_eq!(slices(85, 1, 40), vec![(0, 40), (40, 80)]);
    }

    #[test]
    fn few_samples_make_one_slice() {
        let s = steady(79, 10);
        let sum = summarize_stream(&[client(&s, 1)]).unwrap();
        assert_eq!((sum.samples, sum.slices, sum.tail_slices), (79, 1, 1));
        assert_eq!((sum.p50_ms, sum.p95_ms), (10.0, 10.0));
        assert!((sum.ops_per_s - 100.0).abs() < 1e-9);
        assert!(!sum.p95_supported);
        assert!(
            summarize_stream(&[client(&steady(200, 1), 1)])
                .unwrap()
                .p95_supported
        );
        assert!(summarize_stream(&[client(&(Vec::new(), Vec::new()), 1)]).is_none());
    }

    #[test]
    fn a_disturbed_minority_of_slices_does_not_move_the_result() {
        // 1000 ops of 10 ms; ops 400..600 take 30 ms.
        let (mut lat, mut done, mut now) = (Vec::new(), Vec::new(), 0u64);
        for i in 0..1000 {
            let ms = if (400..600).contains(&i) { 30 } else { 10 };
            now += ms * 1_000_000;
            lat.push(ms * 1_000_000);
            done.push(now);
        }
        let s = (lat, done);
        let sum = summarize_stream(&[client(&s, 1)]).unwrap();
        assert_eq!((sum.slices, sum.tail_slices), (25, 5));
        assert_eq!((sum.p50_ms, sum.p95_ms), (10.0, 10.0));
        assert!((sum.ops_per_s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn clients_add_their_throughput_and_pool_their_latency() {
        let (a, b) = (steady(80, 10), steady(80, 20));
        let sum = summarize_stream(&[client(&a, 1), client(&b, 1)]).unwrap();
        assert_eq!((sum.samples, sum.slices), (160, 4));
        assert!((sum.ops_per_s - 150.0).abs() < 1e-9);
        // Nearest-rank median of the slice medians [10, 10, 20, 20].
        assert_eq!(sum.p50_ms, 10.0);
    }
}
