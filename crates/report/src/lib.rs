//! # focal-report — harness output rendering
//!
//! Text tables, CSV, and ASCII charts used by the `focal-bench` harness to
//! print the regenerated paper figures and findings:
//!
//! * [`Table`] — aligned plain-text and Markdown tables.
//! * [`CsvWriter`] / [`write_cell`] — RFC-4180 CSV for downstream plotting.
//! * [`json_escape`] — the one JSON string escape.
//! * [`AsciiChart`] / [`ChartSeries`] — terminal scatter plots of each
//!   figure's series.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod chart;
mod csv;
mod json;
mod table;

pub use chart::{AsciiChart, ChartSeries};
pub use csv::{write_cell, CsvWriter};
pub use json::json_escape;
pub use table::{Align, Table};
