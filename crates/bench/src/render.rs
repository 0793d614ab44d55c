//! Rendering experiment outputs into paper-style tables and SVG figures.

use rcr_core::absintstudy::AbsintStudy;
use rcr_core::colstudy::ColPoint;
use rcr_core::compare::{DistributionShift, FieldAdoption, ItemShift, LikertShift};
use rcr_core::experiments::{Demographics, LoadPoint, PolicyOutcome, ResiliencePoint};
use rcr_core::harness::Measurement;
use rcr_core::lintstudy::ClassOutcome;
use rcr_core::memstudy::MemPoint;
use rcr_core::perfgap::{GapClosure, JitGapRow, KernelGap, ScalingCurve, Tier};
use rcr_core::schedstudy::SchedPoint;
use rcr_core::servestudy::ServePoint;
use rcr_core::simstudy::SimPoint;
use rcr_core::trend::LanguageTrend;
use rcr_report::fmt;
use rcr_report::svg::{self, Series};
use rcr_report::table::Table;

/// E1: the demographics grid as a table.
pub fn e1_table(d: &Demographics) -> Table {
    let mut headers = vec!["field".to_owned()];
    headers.extend(d.stages.iter().cloned());
    headers.push("total".into());
    let mut t = Table::new(headers).title(format!(
        "Table 1: respondent demographics (2024 cohort, n={})",
        d.n
    ));
    let nc = d.stages.len();
    for (fi, field) in d.fields.iter().enumerate() {
        let row_counts = &d.counts[fi * nc..(fi + 1) * nc];
        let mut cells = vec![field.clone()];
        cells.extend(row_counts.iter().map(u64::to_string));
        cells.push(row_counts.iter().sum::<u64>().to_string());
        t.row(cells);
    }
    t
}

/// Shared shape for the shift tables (E2 languages, E4 parallelism, E7
/// practices).
pub fn shift_table(title: &str, rows: &[ItemShift]) -> Table {
    let mut t = Table::new([
        "item", "2011", "2024", "Δ (pp)", "z", "p (BH)", "h", "effect",
    ])
    .title(title.to_owned());
    // Present largest absolute change first, as the paper tables do.
    let mut sorted: Vec<&ItemShift> = rows.iter().collect();
    sorted.sort_by(|a, b| {
        (b.p_after - b.p_before)
            .abs()
            .partial_cmp(&(a.p_after - a.p_before).abs())
            .expect("finite proportions")
    });
    for r in sorted {
        t.row([
            r.item.clone(),
            fmt::pct(r.p_before),
            fmt::pct(r.p_after),
            format!("{:+.1}", (r.p_after - r.p_before) * 100.0),
            format!("{:+.2}", r.z),
            fmt::p_value(r.p_adj),
            format!("{:+.2}", r.cohens_h),
            r.effect.to_owned(),
        ]);
    }
    t
}

/// E2 omnibus footnote line.
pub fn omnibus_line(omni: &DistributionShift) -> String {
    format!(
        "Omnibus primary-language shift: χ²({:.0}) = {:.1}, p = {}, Cramér's V = {:.2}",
        omni.df,
        omni.chi2,
        fmt::p_value(omni.p_value),
        omni.cramers_v
    )
}

/// E3: the language-trend figure.
pub fn e3_figure(trends: &[LanguageTrend]) -> String {
    let series: Vec<Series> = trends
        .iter()
        .map(|t| {
            Series::new(
                t.language.clone(),
                t.points.iter().map(|&(y, s)| (f64::from(y), s)).collect(),
            )
            .with_band(t.band.clone())
        })
        .collect();
    svg::line_chart(
        "Figure 1: language adoption, 2011–2024 (Wilson 95% bands)",
        "year",
        "share of respondents",
        &series,
    )
}

/// E3 companion: slopes table (OLS and Cochran–Armitage agree or we want
/// to see it in print).
pub fn e3_slope_table(trends: &[LanguageTrend]) -> Table {
    let mut t = Table::new(["language", "slope (pp/yr)", "p (OLS)", "CA z", "p (CA)"])
        .title("Figure 1 fits: adoption trends".to_owned());
    for tr in trends {
        t.row([
            tr.language.clone(),
            format!("{:+.2}", tr.slope_per_year * 100.0),
            fmt::p_value(tr.slope_p),
            format!("{:+.1}", tr.trend_z),
            fmt::p_value(tr.trend_p),
        ]);
    }
    t
}

/// The speedup-bar tiers of the E5 figure, in ladder order.
const E5_FIGURE_TIERS: [Tier; 6] = [
    Tier::Vm,
    Tier::VmFused,
    Tier::VmJit,
    Tier::NativeNaive,
    Tier::NativeOptimized,
    Tier::NativeParallel,
];

/// E5: the performance-gap figure (log-scale speedup bars over the
/// tree-walk baseline). Tier labels come from [`Tier::name`].
pub fn e5_figure(gaps: &[KernelGap]) -> String {
    let labels: Vec<&str> = E5_FIGURE_TIERS.iter().map(|t| t.name()).collect();
    let groups: Vec<(&str, Vec<f64>)> = gaps
        .iter()
        .map(|g| {
            let s = |tier| g.speedup_vs_interp(tier).unwrap_or(1.0);
            (
                g.kernel.as_str(),
                E5_FIGURE_TIERS
                    .iter()
                    .map(|&tier| s(g.tiers.get(tier)))
                    .collect(),
            )
        })
        .collect();
    svg::bar_chart(
        "Figure 2: speedup over tree-walking interpreter (log scale)",
        "speedup (log10)",
        &labels,
        &groups,
        true,
    )
}

/// E5/E11: the gap table (absolute medians plus speedups). Tier columns
/// come from [`Tier::ALL`] so the table tracks the measured ladder; the
/// last column is the tree-walk tier's gap to the faster serial native
/// tier, the denominator E11, E16 and E22 use.
pub fn gap_table(title: &str, gaps: &[KernelGap]) -> Table {
    let mut headers = vec!["kernel".to_owned(), "size".to_owned()];
    headers.extend(Tier::ALL.iter().map(|t| t.name().to_owned()));
    headers.push("interp→native".into());
    let mut t = Table::new(headers).title(title.to_owned());
    for g in gaps {
        let cell = |tier: Option<Measurement>| {
            tier.map_or("—".to_owned(), |m| fmt::duration_s(m.median_s))
        };
        let final_speedup = g
            .speedup_vs_interp(g.tiers.native_best_serial())
            .map_or("—".to_owned(), fmt::speedup);
        let mut cells = vec![g.kernel.clone(), g.size.clone()];
        cells.extend(Tier::ALL.iter().map(|&tier| cell(g.tiers.get(tier))));
        cells.push(final_speedup);
        t.row(cells);
    }
    t
}

/// E6: scaling figure (measured curves + Amdahl fits as dashed analogs —
/// rendered as extra series).
pub fn e6_figure(curves: &[ScalingCurve]) -> String {
    let mut series = Vec::new();
    for c in curves {
        series.push(Series::new(
            format!("{} (measured)", c.kernel),
            c.threads
                .iter()
                .zip(&c.speedup)
                .map(|(&t, &s)| (t as f64, s))
                .collect(),
        ));
    }
    // Ideal line for reference.
    if let Some(c) = curves.first() {
        series.push(Series::new(
            "ideal",
            c.threads.iter().map(|&t| (t as f64, t as f64)).collect(),
        ));
    }
    svg::line_chart("Figure 3: thread scaling", "threads", "speedup", &series)
}

/// E6 companion: Amdahl-fit table.
pub fn e6_table(curves: &[ScalingCurve]) -> Table {
    let mut t = Table::new(["kernel", "size", "max speedup", "serial fraction (fit)"])
        .title("Figure 3 fits: Amdahl serial fractions".to_owned());
    for c in curves {
        let max = c.speedup.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        t.row([
            c.kernel.clone(),
            c.size.clone(),
            fmt::speedup(max),
            format!("{:.3}", c.amdahl_serial_fraction),
        ]);
    }
    t
}

/// E8: GPU-by-field table.
pub fn e8_table(rows: &[FieldAdoption]) -> Table {
    let mut t = Table::new(["field", "GPU users", "n", "share", "95% CI", "OR", "p (BH)"])
        .title("Table 5: GPU adoption by field, 2024 cohort".to_owned());
    let mut sorted: Vec<&FieldAdoption> = rows.iter().collect();
    sorted.sort_by(|a, b| b.share.partial_cmp(&a.share).expect("finite shares"));
    for r in sorted {
        t.row([
            r.field.clone(),
            r.gpu_users.to_string(),
            r.n_field.to_string(),
            fmt::pct(r.share),
            format!("[{}, {}]", fmt::pct(r.ci.0), fmt::pct(r.ci.1)),
            if r.odds_ratio.is_finite() {
                format!("{:.2}", r.odds_ratio)
            } else {
                "∞".to_owned()
            },
            fmt::p_value(r.p_adj),
        ]);
    }
    t
}

/// E9: wait-time CDF figure.
pub fn e9_figure(outcomes: &[PolicyOutcome]) -> String {
    let series: Vec<Series> = outcomes
        .iter()
        .map(|o| Series::new(o.policy.clone(), o.cdf.clone()))
        .collect();
    svg::line_chart(
        "Figure 4: job wait-time CDF by scheduling policy",
        "wait (s)",
        "fraction of jobs",
        &series,
    )
}

/// E9 companion: the policy summary table.
pub fn e9_table(outcomes: &[PolicyOutcome]) -> Table {
    let mut t = Table::new([
        "policy",
        "mean wait",
        "median",
        "P90",
        "mean slowdown",
        "utilization",
        "fairness",
    ])
    .title("Figure 4 summary: scheduling policies at load 0.85".to_owned());
    for o in outcomes {
        t.row([
            o.policy.clone(),
            fmt::duration_s(o.mean_wait),
            fmt::duration_s(o.median_wait),
            fmt::duration_s(o.p90_wait),
            format!("{:.1}", o.mean_slowdown),
            fmt::pct(o.utilization),
            format!("{:.2}", o.slowdown_fairness),
        ]);
    }
    t
}

/// E10: the load-sweep figure (P90 wait vs offered load, one series per
/// policy).
pub fn e10_figure(points: &[LoadPoint]) -> String {
    let mut by_policy: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for p in points {
        match by_policy.iter_mut().find(|(name, _)| *name == p.policy) {
            Some((_, pts)) => pts.push((p.load, p.p90_wait)),
            None => by_policy.push((p.policy.clone(), vec![(p.load, p.p90_wait)])),
        }
    }
    let series: Vec<Series> = by_policy
        .into_iter()
        .map(|(name, pts)| Series::new(name, pts))
        .collect();
    svg::line_chart(
        "Figure 5: P90 wait vs offered load",
        "offered load",
        "P90 wait (s)",
        &series,
    )
}

/// E10 companion table.
pub fn e10_table(points: &[LoadPoint]) -> Table {
    let mut t = Table::new(["load", "policy", "mean wait", "P90 wait", "utilization"])
        .title("Figure 5 data: load sweep".to_owned());
    for p in points {
        t.row([
            format!("{:.1}", p.load),
            p.policy.clone(),
            fmt::duration_s(p.mean_wait),
            fmt::duration_s(p.p90_wait),
            fmt::pct(p.utilization),
        ]);
    }
    t
}

/// The script tiers of the E11 ablation, in ladder order.
const E11_TIERS: [Tier; 5] = [
    Tier::Interp,
    Tier::Vm,
    Tier::VmFused,
    Tier::VmJit,
    Tier::Vectorized,
];

/// E11: the interpreter-ablation table (gap of each script tier to the
/// faster serial native tier). Column names come from
/// [`Tier::name`], the single tier-name table.
pub fn e11_table(gaps: &[KernelGap]) -> Table {
    let mut headers = vec!["kernel".to_owned()];
    headers.extend(E11_TIERS.iter().map(|t| format!("{} gap", t.name())));
    let mut t = Table::new(headers)
        .title("Table 6: slowdown vs best serial native, by interpreter tier".to_owned());
    for g in gaps {
        let native = g
            .tiers
            .native_best_serial()
            .expect("native tier always measured");
        let gap = |tier: Option<Measurement>| {
            tier.map_or("—".to_owned(), |m| {
                fmt::speedup(m.median_s / native.median_s)
            })
        };
        let mut cells = vec![g.kernel.clone()];
        cells.extend(E11_TIERS.iter().map(|&tier| gap(g.tiers.get(tier))));
        t.row(cells);
    }
    t
}

/// E16: Table 9 — how much of the bytecode-VM → native gap the peephole /
/// superinstruction pass closes per workload.
pub fn e16_table(closures: &[GapClosure]) -> Table {
    let mut t = Table::new([
        "kernel".to_owned(),
        "size".to_owned(),
        Tier::Vm.name().to_owned(),
        Tier::VmFused.name().to_owned(),
        Tier::VmJit.name().to_owned(),
        "native best".to_owned(),
        "speedup".to_owned(),
        "gap closed".to_owned(),
        "JIT gap closed".to_owned(),
    ])
    .title("Table 9: VM→native gap closed by the superinstruction pass".to_owned());
    for c in closures {
        let dash = "—".to_owned();
        t.row([
            c.kernel.clone(),
            c.size.clone(),
            fmt::duration_s(c.vm_s),
            fmt::duration_s(c.vm_fused_s),
            c.vm_jit_s.map_or_else(|| dash.clone(), fmt::duration_s),
            fmt::duration_s(c.native_best_s),
            fmt::speedup(c.speedup),
            fmt::pct(c.closure_frac),
            c.jit_closure_frac.map_or(dash, fmt::pct),
        ]);
    }
    t
}

/// E16 companion figure: fused-VM and JIT speedup over the plain VM per
/// workload (the JIT bar collapses to zero when the tier was not measured).
pub fn e16_figure(closures: &[GapClosure]) -> String {
    let labels = [Tier::VmFused.name(), Tier::VmJit.name()];
    let groups: Vec<(&str, Vec<f64>)> = closures
        .iter()
        .map(|c| {
            let jit = c.vm_jit_s.map_or(0.0, |j| c.vm_s / j.max(1e-12));
            (c.kernel.as_str(), vec![c.speedup, jit])
        })
        .collect();
    svg::bar_chart(
        "Table 9 figure: fused-VM and JIT speedup over the plain bytecode VM",
        "speedup (×)",
        &labels,
        &groups,
        false,
    )
}

/// E22: Table 11 — how much of the remaining fused-VM → native gap the
/// register-IR JIT tier closes per workload. The checksum column is the
/// shared f64 bit pattern all four script tiers were verified to produce.
pub fn e22_table(rows: &[JitGapRow]) -> Table {
    let mut t = Table::new([
        "kernel".to_owned(),
        "size".to_owned(),
        "checksum".to_owned(),
        Tier::Interp.name().to_owned(),
        Tier::Vm.name().to_owned(),
        Tier::VmFused.name().to_owned(),
        Tier::VmJit.name().to_owned(),
        "native best".to_owned(),
        "JIT vs fused".to_owned(),
        "gap closed".to_owned(),
    ])
    .title("Table 11: fused-VM\u{2192}native gap closed by the register-IR JIT".to_owned());
    for r in rows {
        t.row([
            r.kernel.clone(),
            r.size.clone(),
            r.checksum.clone(),
            fmt::duration_s(r.interp_s),
            fmt::duration_s(r.vm_s),
            fmt::duration_s(r.vm_fused_s),
            fmt::duration_s(r.vm_jit_s),
            fmt::duration_s(r.native_best_s),
            fmt::speedup(r.jit_speedup_vs_fused),
            fmt::pct(r.remaining_gap_closed),
        ]);
    }
    t
}

/// E22 companion figure: JIT speedup over the fused VM per workload.
pub fn e22_figure(rows: &[JitGapRow]) -> String {
    let labels = [Tier::VmJit.name()];
    let groups: Vec<(&str, Vec<f64>)> = rows
        .iter()
        .map(|r| (r.kernel.as_str(), vec![r.jit_speedup_vs_fused]))
        .collect();
    svg::bar_chart(
        "Table 11 figure: register-IR JIT speedup over the fused VM",
        "speedup (\u{d7})",
        &labels,
        &groups,
        false,
    )
}

/// E17: Figure 8 data — the scheduler ablation, one row per
/// (workload, scheduler) cell.
pub fn e17_table(points: &[SchedPoint]) -> Table {
    let mut t = Table::new([
        "workload",
        "scheduler",
        "threads",
        "calls",
        "median",
        "per-call (µs)",
        "vs spawn-static",
        "efficiency",
    ])
    .title("Figure 8 data: scheduler ablation".to_owned());
    for p in points {
        t.row([
            p.workload.clone(),
            p.scheduler.clone(),
            p.threads.to_string(),
            p.calls.to_string(),
            fmt::duration_s(p.median_s),
            format!("{:.1}", p.per_call_us),
            fmt::speedup(p.speedup_vs_spawn_static),
            fmt::pct(p.efficiency),
        ]);
    }
    t
}

/// E17: Figure 8 — per-workload speedup of each scheduler over the
/// spawn-per-call static baseline.
pub fn e17_figure(points: &[SchedPoint]) -> String {
    let mut labels: Vec<&str> = Vec::new();
    let mut groups: Vec<(&str, Vec<f64>)> = Vec::new();
    for p in points {
        if !labels.contains(&p.scheduler.as_str()) {
            labels.push(p.scheduler.as_str());
        }
        match groups.iter_mut().find(|(w, _)| *w == p.workload) {
            Some((_, bars)) => bars.push(p.speedup_vs_spawn_static),
            None => groups.push((p.workload.as_str(), vec![p.speedup_vs_spawn_static])),
        }
    }
    svg::bar_chart(
        "Figure 8: scheduler speedup over spawn-per-call static",
        "speedup (×)",
        &labels,
        &groups,
        false,
    )
}

/// Human-readable working-set size for the E18 table (KiB below 1 MiB,
/// MiB above).
fn ws_label(bytes: usize) -> String {
    if bytes < (1 << 20) {
        format!("{:.0} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    }
}

/// E18: Figure 9 data — the memory-hierarchy sweep, one row per
/// (kernel, level, tier) cell.
pub fn e18_table(points: &[MemPoint]) -> Table {
    let mut t = Table::new([
        "kernel",
        "level",
        "working set",
        "n",
        "tier",
        "median",
        "GFLOP/s",
        "GB/s",
        "vs serial",
    ])
    .title("Figure 9 data: kernel tiers across the memory hierarchy".to_owned());
    for p in points {
        t.row([
            p.kernel.clone(),
            p.level.clone(),
            ws_label(p.working_set_bytes),
            p.n.to_string(),
            p.tier.clone(),
            fmt::duration_s(p.median_s),
            format!("{:.2}", p.gflops),
            format!("{:.2}", p.gbps),
            fmt::speedup(p.speedup_vs_serial),
        ]);
    }
    t
}

/// E18: Figure 9 — effective bandwidth of the dot kernel's four tiers as
/// the working set falls out of each cache level (x is log₂ bytes, so the
/// L1→DRAM sweep is evenly spaced).
pub fn e18_figure(points: &[MemPoint]) -> String {
    let mut series: Vec<Series> = Vec::new();
    for tier in rcr_core::memstudy::TIERS {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.kernel == "dot" && p.tier == tier)
            .map(|p| ((p.working_set_bytes as f64).log2(), p.gbps))
            .collect();
        if !pts.is_empty() {
            series.push(Series::new(tier, pts));
        }
    }
    svg::line_chart(
        "Figure 9: dot-kernel effective bandwidth across the memory hierarchy",
        "log2(working-set bytes)",
        "effective GB/s",
        &series,
    )
}

/// E19: Figure 10 data — the serving overload study, one row per
/// (fault level, offered load) cell.
pub fn e19_table(points: &[ServePoint]) -> Table {
    let mut t = Table::new([
        "faults",
        "offered",
        "rate (j/s)",
        "submitted",
        "admitted",
        "sustained (j/s)",
        "p50 (ms)",
        "p99 (ms)",
        "shed",
        "retry ok",
        "goodput",
        "cache hits",
    ])
    .title("Figure 10 data: serving under overload and faults".to_owned());
    for p in points {
        t.row([
            p.fault_level.clone(),
            format!("{:.1}x", p.offered_multiplier),
            format!("{:.0}", p.offered_rate),
            p.submitted.to_string(),
            p.admitted.to_string(),
            format!("{:.0}", p.sustained_jps),
            format!("{:.1}", p.p50_ms),
            format!("{:.1}", p.p99_ms),
            fmt::pct(p.shed_rate),
            fmt::pct(p.retry_success_rate),
            fmt::pct(p.goodput_fraction),
            fmt::pct(p.cache_hit_rate),
        ]);
    }
    t
}

/// E19: Figure 10 — sustained throughput per offered load, grouped by
/// fault level. The reproducible shape: throughput saturates past 1×
/// offered (the excess is shed, not queued into collapse), and injected
/// faults shave it by their badput share rather than toppling it.
pub fn e19_figure(points: &[ServePoint]) -> String {
    let mut labels: Vec<String> = Vec::new();
    let mut groups: Vec<(&str, Vec<f64>)> = Vec::new();
    for p in points {
        let label = format!("{:.1}x offered", p.offered_multiplier);
        if !labels.contains(&label) {
            labels.push(label);
        }
        match groups.iter_mut().find(|(l, _)| *l == p.fault_level) {
            Some((_, bars)) => bars.push(p.sustained_jps),
            None => groups.push((p.fault_level.as_str(), vec![p.sustained_jps])),
        }
    }
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    svg::bar_chart(
        "Figure 10: sustained throughput under overload, by fault level",
        "completed jobs/s",
        &labels,
        &groups,
        false,
    )
}

/// E12: pain-point table.
pub fn e12_table(rows: &[LikertShift]) -> Table {
    let mut t = Table::new(["item", "mean 2011", "mean 2024", "Δ", "U", "p (BH)"])
        .title("Figure 6 data: pain-point Likert items (1=painless, 5=severe)".to_owned());
    for r in rows {
        t.row([
            r.item.trim_start_matches("pain-").to_owned(),
            format!("{:.2}", r.mean_before),
            format!("{:.2}", r.mean_after),
            format!("{:+.2}", r.mean_after - r.mean_before),
            format!("{:.0}", r.u),
            fmt::p_value(r.p_adj),
        ]);
    }
    t
}

/// E12: diverging-profile figure rendered as a grouped bar chart of score
/// distributions (shares per score, 2024 cohort vs 2011).
pub fn e12_figure(rows: &[LikertShift]) -> String {
    let labels = ["2011 mean", "2024 mean"];
    let groups: Vec<(&str, Vec<f64>)> = rows
        .iter()
        .map(|r| {
            (
                r.item.trim_start_matches("pain-"),
                vec![r.mean_before, r.mean_after],
            )
        })
        .collect();
    svg::bar_chart(
        "Figure 6: pain-point means, 2011 vs 2024",
        "mean Likert score",
        &labels,
        &groups,
        false,
    )
}

/// Short label for a recovery policy name ("Resubmit" → "RS",
/// "Checkpoint(τ=120s)" → "CP") so figure group labels stay readable.
fn recovery_abbrev(name: &str) -> &'static str {
    if name.starts_with("Checkpoint") {
        "CP"
    } else if name.starts_with("Resubmit") {
        "RS"
    } else {
        "AB"
    }
}

/// E14: goodput/badput stacked bars vs node MTBF under EASY backfill, one
/// bar per (MTBF, recovery) pair. FCFS tells the same story and would
/// double the bar count, so the figure keeps the backfilling scheduler and
/// the table carries both.
pub fn e14_figure(points: &[ResiliencePoint]) -> String {
    let easy: Vec<&ResiliencePoint> = points
        .iter()
        .filter(|p| p.policy == "EASY-backfill")
        .collect();
    let labels: Vec<String> = easy
        .iter()
        .map(|p| format!("{:.0}h {}", p.mtbf_hours, recovery_abbrev(&p.recovery)))
        .collect();
    let groups: Vec<(&str, Vec<f64>)> = easy
        .iter()
        .zip(&labels)
        .map(|(p, l)| (l.as_str(), vec![p.goodput_node_hours, p.badput_node_hours]))
        .collect();
    svg::stacked_bar_chart(
        "Figure 7: goodput vs wasted work by node MTBF (EASY backfill)",
        "node-hours",
        &["goodput", "badput"],
        &groups,
    )
}

/// E14 companion: the full resilience grid, both schedulers.
pub fn e14_table(points: &[ResiliencePoint]) -> Table {
    let mut t = Table::new([
        "MTBF",
        "policy",
        "recovery",
        "done",
        "lost",
        "node fails",
        "goodput (nh)",
        "badput (nh)",
        "waste",
        "attempts",
    ])
    .title("Figure 7 data: resilience vs node MTBF".to_owned());
    for p in points {
        t.row([
            format!("{:.0}h", p.mtbf_hours),
            p.policy.clone(),
            p.recovery.clone(),
            p.completed.to_string(),
            p.abandoned.to_string(),
            p.node_failures.to_string(),
            format!("{:.1}", p.goodput_node_hours),
            format!("{:.1}", p.badput_node_hours),
            fmt::pct(p.wasted_fraction),
            format!("{:.2}", p.mean_attempts),
        ]);
    }
    t
}

/// E15 and E20: per-class detection-rate bars of a defect-injection study.
pub fn detection_figure(title: &str, classes: &[ClassOutcome]) -> String {
    let labels: Vec<String> = classes
        .iter()
        .map(|c| format!("{} [{}]", c.class, c.expected_code))
        .collect();
    let groups: Vec<(&str, Vec<f64>)> = classes
        .iter()
        .zip(&labels)
        .map(|(c, l)| (l.as_str(), vec![c.detection_rate * 100.0]))
        .collect();
    svg::bar_chart(title, "detection rate (%)", &["detected"], &groups, false)
}

/// E15 and E20 (Tables 8 and 10): detection per defect class of a
/// defect-injection study.
pub fn detection_table(title: &str, classes: &[ClassOutcome]) -> Table {
    let mut t = Table::new([
        "defect class",
        "expected",
        "mutants",
        "detected",
        "rate",
        "diags/mutant",
    ])
    .title(title.to_owned());
    for c in classes {
        t.row([
            c.class.clone(),
            c.expected_code.clone(),
            c.n.to_string(),
            c.detected.to_string(),
            fmt::pct(c.detection_rate),
            format!("{:.1}", c.mean_diagnostics),
        ]);
    }
    t
}

/// E20 companion: the static-admission comparison, one row per arm.
pub fn e20_admission_table(study: &AbsintStudy) -> Table {
    let mut t = Table::new([
        "arm",
        "submitted",
        "admitted",
        "completed",
        "failed",
        "shed static",
        "fuel deaths",
        "compiles",
        "goodput",
    ])
    .title(
        "Table 10 companion: static admission vs runtime-only enforcement \
         on a mixed feasible/infeasible workload"
            .to_owned(),
    );
    for a in &study.admission {
        t.row([
            a.arm.clone(),
            a.submitted.to_string(),
            a.admitted.to_string(),
            a.completed.to_string(),
            a.failed.to_string(),
            a.shed_static.to_string(),
            a.fuel_quota_failures.to_string(),
            a.compile_misses.to_string(),
            fmt::pct(a.goodput_fraction),
        ]);
    }
    t
}

/// E21: Figure 11 data — the columnar scaling study, one row per
/// (population size, tier) cell.
pub fn e21_table(points: &[ColPoint]) -> Table {
    let mut t = Table::new(["rows", "tier", "median", "Mrows/s", "vs row", "checksum"]).title(
        "Figure 11 data: columnar analytics throughput by population size and tier".to_owned(),
    );
    for p in points {
        t.row([
            p.rows.to_string(),
            p.tier.clone(),
            fmt::duration_s(p.median_s),
            format!("{:.2}", p.rows_per_s / 1e6),
            fmt::speedup(p.speedup_vs_row),
            format!("{:016x}", p.checksum),
        ]);
    }
    t
}

/// E21: Figure 11 — rows/sec vs population size, one line per tier
/// (log–log, so constant-throughput tiers are flat and the row engine's
/// fall-off is visible).
pub fn e21_figure(points: &[ColPoint]) -> String {
    let mut series: Vec<Series> = Vec::new();
    for tier in rcr_core::colstudy::TIERS {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.tier == tier)
            .map(|p| ((p.rows as f64).log10(), p.rows_per_s.log10()))
            .collect();
        if !pts.is_empty() {
            series.push(Series::new(tier, pts));
        }
    }
    svg::line_chart(
        "Figure 11: survey-analytics throughput vs population size",
        "log10(rows)",
        "log10(rows/s)",
        &series,
    )
}

/// E23: Figure 12 data — the cluster-DES scaling study, one row per
/// (federation size, arm) cell.
pub fn e23_table(points: &[SimPoint]) -> Table {
    let mut t = Table::new([
        "nodes", "jobs", "arm", "threads", "windows", "events", "median", "events/s", "vs heap",
        "checksum",
    ])
    .title("Figure 12 data: simulated events/sec by federation size and execution arm".to_owned());
    for p in points {
        t.row([
            p.nodes.to_string(),
            p.jobs.to_string(),
            p.arm.clone(),
            p.threads.to_string(),
            p.windows.to_string(),
            p.events.to_string(),
            fmt::duration_s(p.median_s),
            fmt::rate_per_s(p.events_per_s),
            fmt::speedup(p.speedup_vs_heap),
            format!("{:016x}", p.checksum),
        ]);
    }
    t
}

/// E23: Figure 12 — simulated events/sec vs federation size, one line
/// per arm (log–log; an arm that scales flat sustains its throughput as
/// the federation grows).
pub fn e23_figure(points: &[SimPoint]) -> String {
    let mut series: Vec<Series> = Vec::new();
    for arm in rcr_core::simstudy::ARMS {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.arm == arm)
            .map(|p| ((p.nodes as f64).log10(), p.events_per_s.log10()))
            .collect();
        if !pts.is_empty() {
            series.push(Series::new(arm, pts));
        }
    }
    svg::line_chart(
        "Figure 12: cluster-DES throughput vs federation size",
        "log10(nodes)",
        "log10(events/s)",
        &series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_core::experiments::Experiments;
    use rcr_core::perfgap::GapConfig;
    use rcr_core::MASTER_SEED;

    fn ex() -> Experiments {
        Experiments::new(MASTER_SEED)
    }

    #[test]
    fn survey_tables_render() {
        let e = ex();
        let t = e1_table(&e.e1_demographics().unwrap());
        assert_eq!(t.n_rows(), 8);
        assert!(t.render_ascii().contains("physics"));

        let shifts = e.e2_language_shift().unwrap();
        let t = shift_table("Table 2", &shifts);
        assert_eq!(t.n_rows(), 10);
        let ascii = t.render_ascii();
        assert!(ascii.contains("python"));
        assert!(ascii.contains('%'));

        let line = omnibus_line(&e.e2_primary_language_omnibus().unwrap());
        assert!(line.contains("χ²"));

        let t = e8_table(&e.e8_gpu_by_field().unwrap());
        assert_eq!(t.n_rows(), 8);
        let t = e12_table(&e.e12_pain_points().unwrap());
        assert_eq!(t.n_rows(), 6);
    }

    #[test]
    fn figures_render_valid_svg() {
        let e = ex();
        let f = e3_figure(&e.e3_language_trends().unwrap());
        assert!(f.contains("<svg") && f.contains("</svg>"));
        assert!(f.contains("python"));
        let t = e3_slope_table(&e.e3_language_trends().unwrap());
        assert_eq!(t.n_rows(), 5);

        let outcomes = e.e9_sched_policies(300).unwrap();
        let f = e9_figure(&outcomes);
        assert!(f.contains("EASY-backfill"));
        assert!(e9_table(&outcomes).render_ascii().contains("FCFS"));

        let pts = e.e10_load_sweep(200, &[0.5, 0.8]).unwrap();
        let f = e10_figure(&pts);
        assert!(f.contains("<polyline"));
        // Two loads × four policies.
        assert_eq!(e10_table(&pts).n_rows(), 8);

        let f = e12_figure(&e.e12_pain_points().unwrap());
        assert!(f.contains("debugging"));
    }

    #[test]
    fn lint_study_outputs_render() {
        let study = rcr_core::lintstudy::run_study(MASTER_SEED, 8).unwrap();
        let fig = detection_figure("Table 8 figure", &study.classes);
        assert!(fig.contains("<svg") && fig.contains("Table 8 figure") && fig.contains("W001"));
        let t = detection_table("Table 8", &study.classes);
        assert_eq!(t.n_rows(), 5);
        let ascii = t.render_ascii();
        assert!(ascii.contains("Table 8"));
        assert!(ascii.contains("dropped initialization") && ascii.contains("W006"));
    }

    #[test]
    fn resilience_outputs_render() {
        let pts = ex().e14_resilience(120).unwrap();
        let fig = e14_figure(&pts);
        assert!(fig.contains("<svg") && fig.contains("goodput") && fig.contains("badput"));
        // 5 MTBF levels × 2 recoveries under EASY backfill.
        assert!(fig.contains("2h RS") && fig.contains("32h CP"));
        let t = e14_table(&pts);
        assert_eq!(t.n_rows(), 20);
        let ascii = t.render_ascii();
        assert!(ascii.contains("FCFS") && ascii.contains("EASY-backfill"));
        assert!(ascii.contains("Checkpoint"));
    }

    #[test]
    fn perf_tables_and_figures_render() {
        let gaps = rcr_core::perfgap::measure_gaps(&GapConfig::quick()).unwrap();
        let fig = e5_figure(&gaps);
        assert!(fig.contains("matmul"));
        assert!(fig.contains(Tier::VmFused.name()), "fused tier in legend");
        let t = gap_table("Figure 2 data", &gaps);
        assert_eq!(t.n_rows(), 4);
        let ascii = t.render_ascii();
        assert!(ascii.contains("×"));
        assert!(ascii.contains(Tier::VmFused.name()));
        let t = e11_table(&gaps);
        assert_eq!(t.n_rows(), 4);
        let ascii = t.render_ascii();
        assert!(ascii.contains("—"), "missing tiers shown as em-dash");
        assert!(ascii.contains("fused VM gap"), "fused ablation column");

        let closures = rcr_core::perfgap::gap_closure(&gaps);
        let t = e16_table(&closures);
        assert_eq!(t.n_rows(), 4);
        let ascii = t.render_ascii();
        assert!(ascii.contains("gap closed") && ascii.contains('%'));
        assert!(ascii.contains(Tier::VmJit.name()), "JIT column in Table 9");
        let fig = e16_figure(&closures);
        assert!(fig.contains("<svg") && fig.contains("mc-pi"));
        assert!(fig.contains(Tier::VmJit.name()), "JIT series in figure");

        let curves = rcr_core::perfgap::measure_scaling(&GapConfig::quick()).unwrap();
        let fig = e6_figure(&curves);
        assert!(fig.contains("ideal"));
        assert!(
            fig.contains("spmv (work-stealing) (measured)"),
            "work-stealing series in the E6 figure"
        );
        assert_eq!(e6_table(&curves).n_rows(), 6);
    }

    #[test]
    fn gap_table_divides_by_the_faster_serial_native_tier() {
        // The parallel tier is measured but slower than optimized serial,
        // as on a 2-vCPU host: the gap is interp / optimized, 1000×.
        let t = |median_s| Some(Measurement { median_s, runs: 1 });
        let gaps = [KernelGap {
            kernel: "dot".into(),
            size: "n=1".into(),
            tiers: rcr_core::perfgap::TierTimes {
                interp: t(1.0),
                native_naive: t(2e-3),
                native_optimized: t(1e-3),
                native_parallel: t(1.25e-3),
                ..Default::default()
            },
            ..Default::default()
        }];
        let ascii = gap_table("E5", &gaps).render_ascii();
        assert!(ascii.contains("1000×"), "{ascii}");
        assert!(!ascii.contains("800×"), "not interp / parallel: {ascii}");
    }

    #[test]
    fn jit_study_outputs_render() {
        let gaps = rcr_core::perfgap::measure_gaps(&GapConfig::quick()).unwrap();
        let rows = rcr_core::perfgap::jit_gap(&gaps);
        let t = e22_table(&rows);
        assert_eq!(t.n_rows(), 4);
        let ascii = t.render_ascii();
        assert!(ascii.contains("Table 11"), "{ascii}");
        assert!(ascii.contains("checksum"), "{ascii}");
        assert!(ascii.contains(Tier::VmJit.name()), "{ascii}");
        let fig = e22_figure(&rows);
        assert!(fig.contains("<svg") && fig.contains("matmul"));
    }

    #[test]
    fn sched_ablation_outputs_render() {
        let points = rcr_core::schedstudy::run(&GapConfig::quick()).unwrap();
        let t = e17_table(&points);
        assert_eq!(t.n_rows(), 12);
        let ascii = t.render_ascii();
        assert!(ascii.contains("spmv-skewed") && ascii.contains("work-stealing"));
        assert!(ascii.contains("per-call"));
        let fig = e17_figure(&points);
        assert!(fig.contains("<svg") && fig.contains("matmul-tiny"));
        assert!(fig.contains("spawn-dynamic"));
    }

    #[test]
    fn memory_sweep_outputs_render() {
        let points = rcr_core::memstudy::run(&GapConfig::quick()).unwrap();
        let t = e18_table(&points);
        assert_eq!(t.n_rows(), 96);
        let ascii = t.render_ascii();
        assert!(ascii.contains("stencil") && ascii.contains("parallel+simd"));
        assert!(ascii.contains("KiB") && ascii.contains("GB/s"));
        let fig = e18_figure(&points);
        assert!(fig.contains("<svg") && fig.contains("parallel+simd"));
        assert!(fig.contains("effective GB/s"));
    }

    #[test]
    fn serve_study_outputs_render() {
        let points = rcr_core::servestudy::run(MASTER_SEED, &GapConfig::quick()).unwrap();
        let t = e19_table(&points);
        assert_eq!(t.n_rows(), 9);
        let ascii = t.render_ascii();
        assert!(ascii.contains("heavy") && ascii.contains("2.0x"));
        assert!(ascii.contains("p99") && ascii.contains("shed"));
        let fig = e19_figure(&points);
        assert!(fig.contains("<svg") && fig.contains("moderate"));
        assert!(fig.contains("completed jobs/s"));
    }

    #[test]
    fn absint_study_outputs_render() {
        let study = rcr_core::absintstudy::run_study(MASTER_SEED, 6).unwrap();
        let t = detection_table("Table 10", &study.classes);
        assert_eq!(t.n_rows(), 5);
        let ascii = t.render_ascii();
        assert!(ascii.contains("provably-zero divisor") && ascii.contains("W009"));
        let t = e20_admission_table(&study);
        assert_eq!(t.n_rows(), 2);
        let ascii = t.render_ascii();
        assert!(ascii.contains("static-admission") && ascii.contains("runtime-only"));
        let fig = detection_figure("Table 10 figure", &study.classes);
        assert!(fig.contains("<svg") && fig.contains("W012"));
    }

    #[test]
    fn ws_label_picks_sensible_units() {
        assert_eq!(ws_label(24 << 10), "24 KiB");
        assert_eq!(ws_label(96 << 20), "96.0 MiB");
    }

    #[test]
    fn columnar_study_outputs_render() {
        let points = rcr_core::colstudy::run(MASTER_SEED, &GapConfig::quick()).unwrap();
        let t = e21_table(&points);
        assert_eq!(t.n_rows(), 6);
        let ascii = t.render_ascii();
        assert!(ascii.contains("columnar+parallel") && ascii.contains("Mrows/s"));
        assert!(ascii.contains("vs row"));
        let fig = e21_figure(&points);
        assert!(fig.contains("<svg") && fig.contains("columnar+parallel"));
        assert!(fig.contains("population size"));
    }

    #[test]
    fn sim_study_outputs_render() {
        let points = rcr_core::simstudy::run(MASTER_SEED, &GapConfig::quick()).unwrap();
        // Two quick sizes × two arms.
        let t = e23_table(&points);
        assert_eq!(t.n_rows(), 4);
        let ascii = t.render_ascii();
        assert!(ascii.contains("serial-heap") && ascii.contains("windowed-parallel"));
        assert!(ascii.contains("events/s") && ascii.contains("vs heap"));
        assert!(ascii.contains("checksum"));
        let fig = e23_figure(&points);
        assert!(fig.contains("<svg") && fig.contains("windowed-parallel"));
        assert!(fig.contains("federation size"));
    }
}
