//! Yearly adoption trajectories (figure E3): shares with Wilson bands and
//! an OLS slope per language.

use serde::Serialize;

use rcr_stats::ci::wilson;
use rcr_stats::regression::ols;
use rcr_stats::tests::cochran_armitage;
use rcr_synth::trend::{language_series, yearly_cohorts};

use crate::compare::CI_LEVEL;
use crate::Result;

/// One language's yearly trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct LanguageTrend {
    /// Language label.
    pub language: String,
    /// `(year, share)` points.
    pub points: Vec<(u16, f64)>,
    /// Wilson 95% band aligned with `points`, as `(lo, hi)`.
    pub band: Vec<(f64, f64)>,
    /// OLS slope in share-per-year.
    pub slope_per_year: f64,
    /// p-value of the slope (parametric, from the OLS t-test).
    pub slope_p: f64,
    /// Cochran–Armitage trend z statistic over the yearly counts (the
    /// non-parametric companion; same sign convention as the slope).
    pub trend_z: f64,
    /// Two-sided Cochran–Armitage p-value.
    pub trend_p: f64,
}

/// Builds trend series for the given languages from interpolated yearly
/// cohorts of `n_per_year` respondents.
///
/// # Errors
/// Statistics errors (degenerate regression inputs).
pub fn language_trends(
    seed: u64,
    n_per_year: usize,
    languages: &[&str],
) -> Result<Vec<LanguageTrend>> {
    let points = yearly_cohorts(seed, n_per_year);
    languages
        .iter()
        .map(|&lang| trend_from_series(lang, &language_series(&points, lang)))
        .collect()
}

/// Wilson bands, the OLS slope, and the Cochran–Armitage trend test over
/// one `(year, share, n)` series.
fn trend_from_series(lang: &str, series: &[(u16, f64, u64)]) -> Result<LanguageTrend> {
    let mut pts = Vec::with_capacity(series.len());
    let mut band = Vec::with_capacity(series.len());
    let mut successes = Vec::with_capacity(series.len());
    let mut trials = Vec::with_capacity(series.len());
    for &(year, share, n) in series {
        pts.push((year, share));
        let s = ((share * n as f64).round() as u64).min(n);
        let ci = wilson(s, n.max(1), CI_LEVEL)?;
        band.push((ci.lo, ci.hi));
        successes.push(s);
        trials.push(n.max(1));
    }
    let xs: Vec<f64> = pts.iter().map(|p| f64::from(p.0)).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
    let fit = ols(&xs, &ys)?;
    let ca = cochran_armitage(&successes, &trials, &xs)?;
    Ok(LanguageTrend {
        language: lang.to_owned(),
        points: pts,
        band,
        slope_per_year: fit.slope,
        slope_p: fit.slope_p,
        trend_z: ca.statistic,
        trend_p: ca.p_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trends_have_expected_shape() {
        let trends = language_trends(0xC0FFEE, 250, &["python", "fortran", "julia"]).unwrap();
        assert_eq!(trends.len(), 3);
        for t in &trends {
            assert_eq!(t.points.len(), 14);
            assert_eq!(t.band.len(), 14);
            for ((_, share), (lo, hi)) in t.points.iter().zip(&t.band) {
                assert!(
                    lo <= share && share <= hi,
                    "{}: band must bracket point",
                    t.language
                );
            }
        }
        let slope_of = |l: &str| {
            trends
                .iter()
                .find(|t| t.language == l)
                .expect("language present")
                .slope_per_year
        };
        assert!(slope_of("python") > 0.02, "python rises");
        assert!(slope_of("fortran") < -0.005, "fortran falls");
        assert!(slope_of("julia") > 0.0, "julia appears");
        let py = trends
            .iter()
            .find(|t| t.language == "python")
            .expect("present");
        assert!(py.slope_p < 0.01, "python trend is significant (OLS)");
        assert!(
            py.trend_p < 0.001,
            "python trend is significant (Cochran–Armitage)"
        );
        assert!(py.trend_z > 0.0, "CA statistic shares the slope's sign");
        let fortran = trends
            .iter()
            .find(|t| t.language == "fortran")
            .expect("present");
        assert!(fortran.trend_z < 0.0);
    }

    #[test]
    fn deterministic() {
        let a = language_trends(1, 80, &["python"]).unwrap();
        let b = language_trends(1, 80, &["python"]).unwrap();
        assert_eq!(a[0].points, b[0].points);
    }
}
