//! The fixed-bucket histogram behind every distribution in the report.

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are upper-inclusive bucket edges; one extra overflow bucket
/// catches everything above the last edge. Count, sum and max are kept
/// exactly alongside. Bounds are static, so two runs — or two machines —
/// produce structurally identical, directly comparable distributions.
#[derive(Debug, Clone)]
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram named `name` over `bounds`.
    pub fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        Histogram {
            name,
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Histogram name (stable, used in the canonical text).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Buckets as `(label, count)` pairs, lowest bound first, overflow
    /// bucket (`>last`) last.
    pub fn buckets(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, &c) in self.counts.iter().enumerate() {
            let label = match self.bounds.get(i) {
                Some(b) => format!("<={b}"),
                None => format!(">{}", self.bounds[self.bounds.len() - 1]),
            };
            out.push((label, c));
        }
        out
    }

    /// The canonical `hist <name> count=.. sum=.. max=.. buckets=..` line
    /// of the profile report, without its newline.
    pub fn canonical_line(&self) -> String {
        let mut s = format!(
            "hist {} count={} sum={} max={} buckets=",
            self.name, self.count, self.sum, self.max
        );
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&c.to_string());
        }
        s
    }
}
