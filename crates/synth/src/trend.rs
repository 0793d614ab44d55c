//! Yearly trend series between the two survey waves (experiment E3).

use crate::calibration::Wave;
use crate::generator::{Generator, InterpolatedCalibration};
use rcr_survey::cohort::Cohort;

/// One point of a language-adoption trend series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Calendar year.
    pub year: u16,
    /// Cohort generated at this year's interpolated calibration.
    pub cohort: Cohort,
}

/// Generates one synthetic cohort per year from 2011 through 2024 inclusive,
/// with calibration interpolated in logit space between the waves.
///
/// `n_per_year` respondents are generated per point; the first and last
/// points use the wave endpoints of the interpolation (t = 0 and t = 1).
pub fn yearly_cohorts(seed: u64, n_per_year: usize) -> Vec<TrendPoint> {
    let g = Generator::new(seed);
    let (y0, y1) = (Wave::Y2011.year(), Wave::Y2024.year());
    (y0..=y1)
        .map(|year| {
            let t = f64::from(year - y0) / f64::from(y1 - y0);
            let cal = InterpolatedCalibration { t };
            TrendPoint {
                year,
                cohort: g.cohort_with(&cal, &year.to_string(), year, n_per_year),
            }
        })
        .collect()
}

/// Extracts, for one language, the `(year, share, n_answered)` series from
/// yearly cohorts.
///
/// # Panics
/// Panics if `points` were not built by [`yearly_cohorts`] (missing the
/// language question).
pub fn language_series(points: &[TrendPoint], lang: &str) -> Vec<(u16, f64, u64)> {
    points
        .iter()
        .map(|p| {
            let (count, n) = p
                .cohort
                .selected_count(rcr_survey::canonical::Q_LANGS, lang)
                .expect("trend cohorts carry the language item");
            let share = if n == 0 { 0.0 } else { count as f64 / n as f64 };
            (p.year, share, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_spans_both_waves() {
        let points = yearly_cohorts(0xC0FFEE, 120);
        assert_eq!(points.len(), 14);
        assert_eq!(points.first().unwrap().year, 2011);
        assert_eq!(points.last().unwrap().year, 2024);
        for p in &points {
            assert_eq!(p.cohort.len(), 120);
        }
    }

    #[test]
    fn python_rises_fortran_falls() {
        let points = yearly_cohorts(0xC0FFEE, 400);
        let py = language_series(&points, "python");
        let fortran = language_series(&points, "fortran");
        // Compare endpoint shares; sampling noise at n=400 is ~±0.05.
        assert!(py.last().unwrap().1 > py.first().unwrap().1 + 0.25);
        assert!(fortran.last().unwrap().1 < fortran.first().unwrap().1 - 0.08);
        // Broad monotonic trend: second half mean above first half mean.
        let half = py.len() / 2;
        let first: f64 = py[..half].iter().map(|p| p.1).sum::<f64>() / half as f64;
        let second: f64 = py[half..].iter().map(|p| p.1).sum::<f64>() / (py.len() - half) as f64;
        assert!(second > first);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = yearly_cohorts(5, 50);
        let b = yearly_cohorts(5, 50);
        assert_eq!(a, b);
    }
}
