//! Order statistics: the percentile rule every reported timing follows.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count. Named tail metrics (`p90`, `p99`) are only valid when
//! their pass collected enough samples; [`checked_percentile`] refuses
//! them otherwise.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, lowest first.
pub const LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// 1-based nearest rank of the `q` quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Minimum sample count at which percentile `q` has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// Nearest-rank percentile of an ascending sample; `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest percentile on [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// [`percentile`] that refuses a percentile the sample cannot support.
pub fn checked_percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let beyond = samples_beyond(sorted.len(), q);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it, have {} of n={}",
            q * 100.0,
            MIN_BEYOND,
            beyond,
            sorted.len()
        ));
    }
    Ok(percentile(sorted, q))
}

/// A growable sample of one timing or count.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values in ascending order.
    pub fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.values
    }

    /// Nearest-rank percentile `q` (NaN when empty).
    pub fn pct(&mut self, q: f64) -> f64 {
        percentile(self.sorted(), q)
    }

    /// Percentile `q`, refused when the sample is too small for it.
    pub fn checked(&mut self, q: f64) -> Result<f64, String> {
        checked_percentile(self.sorted(), q)
    }

    /// One-line summary: count, median and the rule's tail percentile.
    pub fn summary(&mut self) -> String {
        let n = self.len();
        let p50 = self.pct(0.5);
        match tail_percentile(n) {
            Some(q) if q > 0.5 => format!("n={n} p50={p50:.3} p{}={:.3}", q * 100.0, self.pct(q)),
            _ => format!("n={n} p50={p50:.3}"),
        }
    }
}

/// Percentile `q` over a run whose samples come in time-ordered groups
/// (rounds): consecutive groups are merged into blocks of at least
/// [`min_samples`]`(q)` samples each (a short remainder joins the last
/// block), and the result is the median of the blocks' percentiles, so a
/// burst of host stalls within one stretch of the run moves one block
/// rather than the whole figure. Returns the value and the sample count;
/// refused when all groups together cannot support `q`.
pub fn block_percentile(groups: &[Vec<f64>], q: f64) -> Result<(f64, usize), String> {
    let need = min_samples(q);
    let n: usize = groups.iter().map(Vec::len).sum();
    if n < need {
        return Err(format!("p{} needs {need} samples, have {n}", q * 100.0));
    }
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for g in groups {
        let last = blocks.last_mut().expect("one block");
        if last.len() >= need {
            blocks.push(g.clone());
        } else {
            last.extend(g);
        }
    }
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.len() < need) {
        let short = blocks.pop().expect("more than one block");
        blocks.last_mut().expect("one block").extend(short);
    }
    let per_block: Vec<f64> = blocks
        .iter_mut()
        .map(|b| {
            b.sort_by(f64::total_cmp);
            percentile(b, q)
        })
        .collect();
    Ok((median(&per_block), n))
}

/// Median of an unsorted slice (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
