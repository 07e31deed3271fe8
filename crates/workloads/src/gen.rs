//! Seeded input generators for the workloads.
//!
//! Everything is derived from a caller-supplied seed so simulator runs are
//! exactly reproducible (the determinism tests rely on it).

use emx_faults::Rng64;

/// Key distributions for sorting inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Uniform over the full u32 range.
    Uniform,
    /// Already sorted ascending (best case for merge irregularity).
    Sorted,
    /// Sorted descending (worst case).
    Reverse,
    /// Sum of four uniform bytes scaled up — a rough bell curve with heavy
    /// duplication, stressing equal-key handling.
    Gaussian,
    /// All keys equal (degenerate duplicates).
    Constant,
}

/// Generate `n` 31-bit keys (the sign bit is kept clear so keys survive any
/// signed comparison in kernels).
pub fn keys(n: usize, dist: KeyDist, seed: u64) -> Vec<u32> {
    let mut rng = Rng64::new(seed);
    match dist {
        KeyDist::Uniform => (0..n).map(|_| (rng.next_u64() >> 33) as u32).collect(),
        KeyDist::Sorted => {
            let mut v = keys(n, KeyDist::Uniform, seed);
            v.sort_unstable();
            v
        }
        KeyDist::Reverse => {
            let mut v = keys(n, KeyDist::Uniform, seed);
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        }
        KeyDist::Gaussian => (0..n)
            .map(|_| {
                let s: u32 = (0..4).map(|_| (rng.next_u64() >> 56) as u32).sum();
                s << 12
            })
            .collect(),
        KeyDist::Constant => vec![0x2A2A_2A2A; n],
    }
}

/// Generate `count` uniform indices in `[0, bound)` — graph predecessor
/// lists, sparse-matrix column indices, and any other irregular access
/// pattern the workloads need, reproducible per seed.
pub fn indices(count: usize, bound: usize, seed: u64) -> Vec<u32> {
    assert!(bound > 0, "index bound must be positive");
    let mut rng = Rng64::new(seed ^ 0x1D1C_E5C0_FFEE_D00D);
    (0..count).map(|_| rng.below(bound as u64) as u32).collect()
}

/// Signal shapes for FFT inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Signal {
    /// A unit impulse at index 0 (flat spectrum — easy to eyeball).
    Impulse,
    /// A sum of two sine waves at the given bin frequencies.
    TwoTones(usize, usize),
    /// Uniform random complex samples in [-1, 1).
    Random,
}

/// Generate `n` complex samples as `(re, im)` pairs in f32.
pub fn signal(n: usize, shape: Signal, seed: u64) -> Vec<(f32, f32)> {
    let mut rng = Rng64::new(seed ^ 0xF0F0_F0F0_F0F0_F0F0);
    match shape {
        Signal::Impulse => {
            let mut v = vec![(0.0, 0.0); n];
            if n > 0 {
                v[0] = (1.0, 0.0);
            }
            v
        }
        Signal::TwoTones(f1, f2) => (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                let s = (2.0 * std::f64::consts::PI * f1 as f64 * x).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * f2 as f64 * x).sin();
                (s as f32, 0.0)
            })
            .collect(),
        Signal::Random => {
            // 24 high bits give a uniform sample in [0, 1) exactly
            // representable in f32, scaled into [-1, 1).
            let mut sample = || -1.0 + ((rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0;
            (0..n).map(|_| (sample(), sample())).collect()
        }
    }
}

/// Naive O(n^2) DFT in f64, the verification oracle for the simulated FFT.
pub fn dft(input: &[(f32, f32)]) -> Vec<(f64, f64)> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for (j, &(xr, xi)) in input.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                let (s, c) = angle.sin_cos();
                re += f64::from(xr) * c - f64::from(xi) * s;
                im += f64::from(xr) * s + f64::from(xi) * c;
            }
            (re, im)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_reproducible_per_seed() {
        assert_eq!(
            keys(100, KeyDist::Uniform, 7),
            keys(100, KeyDist::Uniform, 7)
        );
        assert_ne!(
            keys(100, KeyDist::Uniform, 7),
            keys(100, KeyDist::Uniform, 8)
        );
    }

    #[test]
    fn sorted_and_reverse_are_ordered() {
        let s = keys(50, KeyDist::Sorted, 1);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let r = keys(50, KeyDist::Reverse, 1);
        assert!(r.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn indices_are_bounded_and_reproducible() {
        let a = indices(500, 37, 9);
        assert_eq!(a, indices(500, 37, 9));
        assert_ne!(a, indices(500, 37, 10));
        assert!(a.iter().all(|&i| i < 37));
    }

    #[test]
    fn keys_keep_sign_bit_clear() {
        for dist in [KeyDist::Uniform, KeyDist::Gaussian, KeyDist::Constant] {
            assert!(keys(200, dist, 3).iter().all(|&k| k < 1 << 31));
        }
    }

    /// FNV-128 over a stream's raw bits, so a pin covers every draw.
    fn bits_digest(words: impl IntoIterator<Item = u32>) -> String {
        let mut d = emx_stats::digest::Digest128::new();
        for w in words {
            d.write(&w.to_le_bytes());
        }
        d.hex()
    }

    /// The generator streams every committed CSV, digest and corpus
    /// verdict was produced from, bit for bit.
    #[test]
    fn generator_streams_are_pinned() {
        let uniform = keys(1024, KeyDist::Uniform, 7);
        assert_eq!(uniform[..4], [837153010, 36052587, 1934368832, 1251833272]);
        assert_eq!(bits_digest(uniform), "6dccd047f0719b3dfb5b4a43e3ea998b");

        let gaussian = keys(1024, KeyDist::Gaussian, 7);
        assert_eq!(gaussian[..4], [1974272, 1556480, 1679360, 3354624]);
        assert_eq!(bits_digest(gaussian), "9148c92bc126d1bcc8dbbe2a9782f63a");

        let idx = indices(1024, 1000, 7);
        assert_eq!(idx[..4], [613, 833, 283, 755]);
        assert_eq!(bits_digest(idx), "4ef9f48d1e59cba77a29233f6d492e71");

        let sig: Vec<u32> = signal(256, Signal::Random, 7)
            .into_iter()
            .flat_map(|(re, im)| [re.to_bits(), im.to_bits()])
            .collect();
        assert_eq!(sig[..4], [1061569184, 3203143920, 3201987940, 1058740944]);
        assert_eq!(bits_digest(sig), "da81952cf9ec8777c61ea3f58b7c6c49");
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let x = signal(8, Signal::Impulse, 0);
        let f = dft(&x);
        for (re, im) in f {
            assert!((re - 1.0).abs() < 1e-9);
            assert!(im.abs() < 1e-9);
        }
    }

    #[test]
    fn two_tones_peak_at_their_bins() {
        let n = 64;
        let x = signal(n, Signal::TwoTones(5, 13), 0);
        let f = dft(&x);
        let mag: Vec<f64> = f.iter().map(|(r, i)| (r * r + i * i).sqrt()).collect();
        let peak = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak == 5 || peak == n - 5, "dominant bin at ±5, got {peak}");
    }

    #[test]
    fn dft_of_constant_concentrates_at_zero() {
        let x = vec![(1.0f32, 0.0f32); 16];
        let f = dft(&x);
        assert!((f[0].0 - 16.0).abs() < 1e-9);
        for (re, im) in &f[1..] {
            assert!(re.abs() < 1e-9 && im.abs() < 1e-9);
        }
    }
}
