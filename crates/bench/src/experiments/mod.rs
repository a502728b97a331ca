//! One module per table/figure of the paper's evaluation. Each exposes
//! `run(scale) -> ExpTable`; the `ALL` table in `src/bin/experiments.rs`
//! indexes them by id.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;

use crate::harness::Scale;
use pc_datagen::airbnb::{self, AirbnbConfig};
use pc_datagen::border::{self, BorderConfig};
use pc_datagen::intel::{self, IntelConfig};
use pc_datagen::missing::remove_top_fraction;
use pc_storage::Table;

/// The Intel-like table at the configured scale.
pub fn intel_table(scale: &Scale) -> Table {
    intel::generate(IntelConfig {
        rows: scale.rows,
        ..IntelConfig::default()
    })
}

/// Intel-like data with fraction `r` removed, correlated with `light`
/// (the paper's removal): returns `(missing, present)`.
pub fn intel_missing(scale: &Scale, r: f64) -> (Table, Table) {
    remove_top_fraction(&intel_table(scale), intel::cols::LIGHT, r)
}

/// Airbnb-like data with fraction `r` removed, correlated with `price`.
pub fn airbnb_missing(scale: &Scale, r: f64) -> (Table, Table) {
    let t = airbnb::generate(AirbnbConfig {
        rows: scale.rows,
        ..AirbnbConfig::default()
    });
    remove_top_fraction(&t, airbnb::cols::PRICE, r)
}

/// Border-crossing-like data with fraction `r` removed, correlated with
/// `value`.
pub fn border_missing(scale: &Scale, r: f64) -> (Table, Table) {
    let t = border::generate(BorderConfig {
        rows: scale.rows,
        ..BorderConfig::default()
    });
    remove_top_fraction(&t, border::cols::VALUE, r)
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return "inf".into();
    }
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}
