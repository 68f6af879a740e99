//! Order statistics over timing samples.

/// The `p`-quantile (0 ≤ p ≤ 1) of `samples` by the nearest-rank rule,
/// or 0 when there are none. Sorts `samples` in place.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The fastest time seen at each index (a tick, a fork point) over the
/// run's hours. Every hour repeats the same work, and host weather only
/// ever adds time to it, so the fastest repeat is the closest reading of
/// what the code itself costs.
#[derive(Default)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    pub fn record(&mut self, index: usize, value: f64) {
        if index >= self.0.len() {
            self.0.resize(index + 1, f64::INFINITY);
        }
        self.0[index] = self.0[index].min(value);
    }

    /// The fastest time at each index, in index order.
    pub fn values(&self) -> Vec<f64> {
        self.0.clone()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// `num / den`, or 0 when there is no work to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn fastest_drops_slow_hours() {
        let mut f = Fastest::default();
        for hour in [[1.0, 5.0], [2.0, 6.0], [90.0, 4.0]] {
            for (tick, &us) in hour.iter().enumerate() {
                f.record(tick, us);
            }
        }
        assert_eq!(f.values(), vec![1.0, 4.0]);
        assert_eq!(f.sum(), 5.0);
    }
}
