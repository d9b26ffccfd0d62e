//! Shared helpers for the experiment binaries and `campaign_ctl`.
//!
//! Every table and figure of the paper is regenerated by one of the binaries in
//! `src/bin/`; they share the [`cli`] argument vocabulary, the [`exit`] code
//! contract and the markdown table helpers below.

pub mod cli;
pub mod exit;

pub use cli::BenchArgs;
pub use exit::{CtlCode, CtlError};

/// Formats a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats a markdown-style header separator with `n` columns.
pub fn separator(n: usize) -> String {
    format!("|{}", "---|".repeat(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_helpers() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        assert_eq!(separator(2), "|---|---|");
    }
}
