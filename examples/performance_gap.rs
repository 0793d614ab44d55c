//! The performance-gap study (E5/E11) at user-selectable scale: how much
//! speed the everyday scripting workflow leaves on the table, measured
//! tier by tier on this machine.
//!
//! ```text
//! cargo run --release --example performance_gap [--quick]
//! ```

use rcr_core::perfgap::{measure_gaps, GapConfig};
use rcr_report::{fmt, table::Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        GapConfig::quick()
    } else {
        GapConfig::default()
    };
    eprintln!(
        "measuring {} sizes on {} threads (this runs each kernel through eight tiers)...",
        if quick { "quick" } else { "full" },
        config.threads
    );

    let gaps = measure_gaps(&config)?;

    let mut table = Table::new([
        "kernel",
        "size",
        "tree-walk",
        "bytecode",
        "native naive",
        "native parallel",
        "total speedup",
    ])
    .title("Performance ladder: median wall time per tier");
    for g in &gaps {
        let cell = |t: Option<rcr_core::perfgap::TierTime>| {
            t.map_or("—".to_owned(), |m| fmt::duration_s(m.median_s))
        };
        table.row([
            g.kernel.clone(),
            g.size.clone(),
            cell(g.tiers.interp),
            cell(g.tiers.vm),
            cell(g.tiers.native_naive),
            cell(g.tiers.native_parallel),
            g.speedup_vs_interp(g.tiers.native_parallel)
                .map_or("—".to_owned(), fmt::speedup),
        ]);
    }
    println!("{}", table.render_ascii());

    // Geometric-mean summary over kernels, the way the papers quote it.
    let ratios: Vec<f64> = gaps
        .iter()
        .filter_map(|g| g.speedup_vs_interp(g.tiers.native_parallel))
        .collect();
    let geomean = rcr_stats::descriptive::geometric_mean(&ratios)?;
    println!(
        "geomean interpreted → parallel-native speedup across {} kernels: {}",
        ratios.len(),
        fmt::speedup(geomean)
    );
    Ok(())
}
