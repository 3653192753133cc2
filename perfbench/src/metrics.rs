//! Metric math shared by every workload: nearest-rank percentiles, the
//! tail-percentile rule, `read_drift`, `unattributed_share` and ratios
//! reported together with their base.

use std::fmt;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`): the
/// smallest sample with at least `p · n` samples at or below it. An empty
/// slice has no percentile.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted.get(rank.min(sorted.len()) - 1).copied()
}

/// The percentiles the tail rule may pick, highest first. The ladder is
/// coarse on purpose: a run's sample count varies a little from seed to
/// seed, and a fine ladder would make the chosen percentile (and with it
/// the reported value) flip between runs.
const TAIL_LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// Samples that must lie strictly beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest ladder percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (0.99 = p99).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: u64,
    /// Samples in the distribution.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Tail {
    /// `p99`, `p99.9`, … — the percentile's conventional label.
    pub fn label(&self) -> String {
        let pct = format!("{:.2}", self.pct * 100.0);
        let pct = pct.trim_end_matches('0').trim_end_matches('.');
        format!("p{pct}")
    }
}

/// The tail rule: the highest percentile with at least ten samples beyond
/// it, or `None` when even the median lacks them (fewer than 20 samples).
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let rank = (pct * n as f64).ceil().max(1.0) as usize;
        let beyond = n.checked_sub(rank)?;
        (rank <= n && beyond >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: sorted[rank - 1],
            n,
            beyond,
        })
    })
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `read_drift` of one connection: the p50 of its last tenth of read
/// latencies (in the order served) divided by the p50 of its first tenth.
/// `None` below 10 reads, where a tenth is empty.
pub fn drift(reads_in_order: &[u64]) -> Option<f64> {
    let tenth = reads_in_order.len() / 10;
    if tenth == 0 {
        return None;
    }
    let p50 = |slice: &[u64]| {
        let mut s = slice.to_vec();
        s.sort_unstable();
        nearest_rank(&s, 0.5)
    };
    let first = p50(&reads_in_order[..tenth])?;
    let last = p50(&reads_in_order[reads_in_order.len() - tenth..])?;
    (first > 0).then(|| last as f64 / first as f64)
}

/// `read_drift` of a run: the median of its connections' drifts.
pub fn run_drift(connections: &[Vec<u64>]) -> Option<f64> {
    let drifts: Vec<f64> = connections.iter().filter_map(|c| drift(c)).collect();
    median(&drifts)
}

/// `unattributed_share`: the part of the served time that no measured
/// layer's self time accounts for. `1 − Σ self ÷ served`; negative when
/// the peels, each taken in isolation, add up to more than the served
/// time. `None` without served time.
pub fn unattributed_share(served_total: f64, layer_self: &[f64]) -> Option<f64> {
    (served_total > 0.0).then(|| 1.0 - layer_self.iter().sum::<f64>() / served_total)
}

/// A ratio reported with its base: the numerator and the denominator stay
/// visible, so "0.0" from 0/0 and "0.0" from 0/5000 read differently.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num ÷ den`.
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// The ratio's value; 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ({} / {})", self.value(), self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v = ascending(100);
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7], 0.5), Some(7));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1
        let t = tail(&ascending(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (0.99, 990, 10, 1000));
        assert_eq!(t.label(), "p99");
        // 999 samples: p99 leaves 9 beyond, so the rule falls back to p90
        let t = tail(&ascending(999)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (0.9, 900, 99));
        assert_eq!(t.label(), "p90");
        // 10 000 samples reach p99.9
        let t = tail(&ascending(10_000)).unwrap();
        assert_eq!((t.label().as_str(), t.value, t.beyond), ("p99.9", 9990, 10));
        // 20 samples: only the median qualifies; 19 have no tail at all
        assert_eq!(tail(&ascending(20)).unwrap().label(), "p50");
        assert_eq!(tail(&ascending(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn drift_compares_the_last_tenth_with_the_first() {
        // flat latency: no drift
        assert_eq!(drift(&[100; 50]), Some(1.0));
        // latency growing linearly 100 → 1090: the first tenth's p50 is
        // its 5th sample, 140; the last tenth's is 1040
        let growing: Vec<u64> = (0..100).map(|i| 100 + 10 * i).collect();
        assert_eq!(drift(&growing), Some(1040.0 / 140.0));
        // fewer than ten reads: no tenth to compare
        assert_eq!(drift(&[1, 2, 3]), None);
        // the run value is the median over connections
        let conns = vec![
            vec![100; 20],
            vec![200; 10].into_iter().chain(vec![400; 10]).collect(),
            vec![5],
        ];
        assert_eq!(run_drift(&conns), Some(1.5));
    }

    #[test]
    fn unattributed_share_is_what_the_layers_leave_over() {
        let share = unattributed_share(100.0, &[20.0, 30.0, 40.0]).unwrap();
        assert!((share - 0.1).abs() < 1e-12, "{share}");
        assert_eq!(unattributed_share(100.0, &[]), Some(1.0));
        // isolated peels may add up to more than the served time
        let over = unattributed_share(100.0, &[80.0, 40.0]).unwrap();
        assert!((over + 0.2).abs() < 1e-12);
        assert_eq!(unattributed_share(0.0, &[1.0]), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::new(3.0, 12.0);
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.to_string(), "0.250000 (3 / 12)");
        // an empty base reads 0 but still shows that it was empty
        let empty = Ratio::new(0.0, 0.0);
        assert_eq!(empty.value(), 0.0);
        assert_eq!(empty.to_string(), "0.000000 (0 / 0)");
        assert_eq!(Ratio::new(0.0, 5000.0).to_string(), "0.000000 (0 / 5000)");
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
