//! Small helpers the benchmark owns outright, so that edits elsewhere in
//! the repo cannot change what is measured: the seeded generator behind
//! every input, the percentile rule, the process clocks, and copies of the
//! two `sygraph_bench` helpers the workloads need.

use std::time::Duration;

use sygraph_core::graph::CsrHost;
use sygraph_gen::Dataset;
use sygraph_sim::DeviceProfile;

/// SplitMix64. Every benchmark input (sources, op order, repeat positions,
/// arrival gaps) is drawn from one of these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the independent uses of one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap (seconds) of a Poisson process at `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).max(1e-12).ln() / rate
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile `p` of `samples`, refused unless at least ten samples lie
/// beyond it (choosing-metrics §1): p90 needs 100 samples, p95 needs 200.
/// The median needs one sample.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = n as f64 * (1.0 - p / 100.0);
    if n == 0 || (p > 50.0 && beyond < 10.0 - 1e-9) {
        return Err(format!(
            "p{p} refused: {n} samples leave {beyond:.1} beyond it (10 needed)"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(nearest_rank(&sorted, p))
}

/// Median, or 0 for an empty sample (a layer the workload never reached).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User + system CPU seconds of this process, all threads. `/proc` counts
/// in clock ticks of 1/100 s (USER_HZ is 100 on every Linux ABI this
/// repo builds for).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `count` sources with at least one out-edge, drawn without replacement
/// (copy of `sygraph_bench::sample_useful_sources`, made distinct so that
/// "fresh" requests never collide with an earlier one).
pub fn sample_useful_sources(host: &CsrHost, count: usize, rng: &mut Rng) -> Vec<u32> {
    let mut useful: Vec<u32> = (0..host.vertex_count() as u32)
        .filter(|&v| host.degree(v) > 0)
        .collect();
    assert!(
        useful.len() >= count,
        "graph has {} useful sources, {count} wanted",
        useful.len()
    );
    for i in 0..count {
        let j = i + rng.below(useful.len() - i);
        useful.swap(i, j);
    }
    useful.truncate(count);
    useful
}

/// Copy of `sygraph_bench::scaled_profile`: VRAM by edge ratio, L2 and
/// launch overhead by vertex ratio, so cache-fitting and launch-bound
/// behaviour carry over from the paper-scale dataset.
pub fn scaled_profile(profile: &DeviceProfile, ds: &Dataset) -> DeviceProfile {
    let vertex_ratio = ds.host.vertex_count() as f64 / ds.paper_vertices as f64;
    let scaled_vram = (profile.vram_bytes as f64 * ds.scale_ratio()) as u64;
    let floor =
        (ds.host.edge_count() as u64 * 16 + ds.host.vertex_count() as u64 * 64).max(8 << 20);
    let mut p = profile
        .clone()
        .with_vram(scaled_vram.max(floor))
        .with_l2(((profile.l2_bytes as f64 * vertex_ratio * 64.0) as u64).min(profile.l2_bytes));
    p.launch_overhead_us = (profile.launch_overhead_us * vertex_ratio).max(0.005);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&xs, 95.0).is_err(), "p95 of 199 samples");
        assert!(percentile(&xs, 90.0).is_ok(), "p90 of 199 samples");
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0).unwrap(), 190.0);
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&xs, 90.0).is_err(), "p90 of 99 samples");
        assert_eq!(percentile(&xs, 50.0).unwrap(), 50.0);
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn rng_repeats_per_seed_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn sources_are_distinct_and_useful() {
        let host = CsrHost::from_edges(6, &[(0, 1), (1, 2), (2, 0), (4, 5)]);
        let got = sample_useful_sources(&host, 4, &mut Rng::new(1, 0));
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 4]);
    }
}
