//! Output checks made apart from the program: every answer is validated
//! against vectors and ground truth the benchmark holds itself.

use pathweaver_datasets::GroundTruth;

/// Plain scalar squared L2, accumulated in f64 — deliberately not the
/// program's SIMD kernels.
pub fn scalar_l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// Checks one answer's hits: 1..=k long, ascending by distance, unique ids,
/// every id known to `lookup` (in range), and every reported distance equal
/// to the scalar L2 between `query` and that id's vector.
pub fn check_hits<'a>(
    query: &[f32],
    hits: &[(f32, u32)],
    k: usize,
    lookup: impl Fn(u32) -> Option<&'a [f32]>,
) -> Result<(), String> {
    if hits.is_empty() || hits.len() > k {
        return Err(format!("{} hits, expected 1..={k}", hits.len()));
    }
    for w in hits.windows(2) {
        if w[1].0 < w[0].0 {
            return Err(format!("hits not ascending: {} after {}", w[1].0, w[0].0));
        }
    }
    let mut ids: Vec<u32> = hits.iter().map(|&(_, id)| id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate id in hits".into());
    }
    for &(d, id) in hits {
        let Some(row) = lookup(id) else {
            return Err(format!("id {id} out of range"));
        };
        let want = scalar_l2(query, row);
        if !d.is_finite() || (f64::from(d) - want).abs() > 1e-4 * want.max(1.0) {
            return Err(format!("id {id}: reported distance {d}, scalar L2 {want}"));
        }
    }
    Ok(())
}

/// Recall@10 of one answer against brute-force ground truth.
pub fn recall_at_10(gt: &GroundTruth, query: usize, hits: &[(f32, u32)]) -> f64 {
    let truth = &gt.neighbors(query)[..10.min(gt.k())];
    let found = hits.iter().take(10).filter(|(_, id)| truth.contains(id)).count();
    found as f64 / truth.len() as f64
}

/// Running tally of checked answers.
#[derive(Debug, Default)]
pub struct Tally {
    /// Answers checked.
    pub checked: u64,
    /// Answers that failed a check.
    pub failed: u64,
    /// Sum of per-answer recall@10 over answers with ground truth.
    pub recall_sum: f64,
    /// Answers contributing to `recall_sum`.
    pub recall_n: u64,
    /// First failure message, for the report.
    pub first_error: Option<String>,
}

impl Tally {
    /// Records one checked answer; `recall` is `None` for answers without
    /// ground truth (delete-visibility probes).
    pub fn record(&mut self, verdict: Result<(), String>, recall: Option<f64>) {
        crate::report::progress_done(verdict.is_ok());
        self.checked += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
        if let Some(r) = recall {
            self.recall_sum += r;
            self.recall_n += 1;
        }
    }

    /// Mean recall@10 over answers with ground truth.
    pub fn recall(&self) -> f64 {
        if self.recall_n == 0 {
            0.0
        } else {
            self.recall_sum / self.recall_n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_hits_catches_each_fault() {
        let rows = [[0.0f32, 0.0], [1.0, 0.0], [3.0, 0.0]];
        let lookup = |id: u32| rows.get(id as usize).map(|r| &r[..]);
        let q = [0.0f32, 0.0];
        assert!(check_hits(&q, &[(0.0, 0), (1.0, 1), (9.0, 2)], 3, lookup).is_ok());
        assert!(check_hits(&q, &[], 3, lookup).is_err());
        assert!(check_hits(&q, &[(1.0, 1), (0.0, 0)], 3, lookup).is_err());
        assert!(check_hits(&q, &[(1.0, 1), (1.0, 1)], 3, lookup).is_err());
        assert!(check_hits(&q, &[(0.0, 7)], 3, lookup).is_err());
        assert!(check_hits(&q, &[(0.5, 1)], 3, lookup).is_err());
        assert!(check_hits(&q, &[(0.0, 0), (1.0, 1)], 1, lookup).is_err());
    }
}
