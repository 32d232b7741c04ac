//! Small measurement helpers: a log-linear latency histogram, medians,
//! and the order-sensitive emission digest the output checks compare.

use gallium_net::{Packet, PortId};
use gallium_switchsim::FxHasher64;
use std::hash::Hasher;

/// Values below this are kept exactly (one bucket per ns).
const LINEAR: u64 = 1 << 10;
/// Mantissa bits per power of two above [`LINEAR`]: a relative
/// resolution of 1/512.
const SUB_BITS: u32 = 9;

/// Log-linear histogram of nanosecond samples: fixed memory whatever the
/// run length, quantiles within 0.2 %.
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for LogHist {
    fn default() -> Self {
        let octaves = 64 - LINEAR.trailing_zeros() as usize;
        LogHist {
            buckets: vec![0; LINEAR as usize + (octaves << SUB_BITS)],
            count: 0,
            sum: 0,
        }
    }
}

impl LogHist {
    fn index(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let octave = (exp - LINEAR.trailing_zeros()) as usize;
        let mantissa = ((v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        LINEAR as usize + (octave << SUB_BITS) + mantissa
    }

    /// Lower edge of bucket `i`.
    fn value(i: usize) -> u64 {
        if i < LINEAR as usize {
            return i as u64;
        }
        let rel = i - LINEAR as usize;
        let exp = (rel >> SUB_BITS) as u32 + LINEAR.trailing_zeros();
        let mantissa = (rel & ((1 << SUB_BITS) - 1)) as u64;
        (1u64 << exp) | (mantissa << (exp - SUB_BITS))
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Forget every sample.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Width of bucket `i`.
    fn width(i: usize) -> f64 {
        if i < LINEAR as usize {
            1.0
        } else {
            (Self::value(i) >> SUB_BITS) as f64
        }
    }

    /// The `q`-quantile (0 when empty), spreading each bucket's samples
    /// evenly over its width as the grouped-data median does, so a
    /// quantile that falls inside a 1 ns bucket keeps its fraction.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= target {
                let within = ((target - seen as f64) / n as f64).max(0.0);
                return Self::value(i) as f64 + Self::width(i) * within;
            }
            seen += n;
        }
        unreachable!("the target rank is at most the sample count")
    }
}

/// The `q`-quantile of `v`, interpolating linearly between order
/// statistics (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Order-sensitive digest of an emission sequence. `bytes` covers frame
/// contents only (what the reference interpreter can produce); `ports`
/// additionally covers egress ports, for comparing two deployments.
#[derive(Debug, Clone, Default)]
pub struct Digest {
    bytes: FxHasher64,
    ports: FxHasher64,
    /// Frames folded in.
    pub frames: u64,
}

impl Digest {
    /// Fold one emitted frame.
    pub fn frame(&mut self, bytes: &[u8]) {
        self.bytes.write_usize(bytes.len());
        self.bytes.write(bytes);
        self.frames += 1;
    }

    /// Fold a deployment's emissions, egress ports included.
    pub fn emissions(&mut self, out: &[(PortId, Packet)]) {
        for (port, pkt) in out {
            self.ports.write_u16(port.0);
            self.frame(pkt.bytes());
        }
    }

    /// `(frames, bytes digest)`: what the reference check compares.
    pub fn content(&self) -> (u64, u64) {
        (self.frames, self.bytes.finish())
    }

    /// Content plus egress ports.
    pub fn full(&self) -> (u64, u64, u64) {
        (self.frames, self.bytes.finish(), self.ports.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = LogHist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 100_000.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.005,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.count(), 100_000);
        assert!((h.mean() - 50_000.5).abs() < 1e-6);
        let mut big = LogHist::default();
        big.record(u64::MAX);
        assert!(big.quantile(0.5) > 9.2e18);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.9) - 9.0).abs() < 1e-12);
        assert!((quantile(&v, 0.1) - 1.0).abs() < 1e-12);
    }
}
