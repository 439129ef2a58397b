//! Declarative job text (NVFlare's `job.json`/`config_fed_server`
//! equivalent).
//!
//! NVFlare deployments describe a run — workflow, rounds, aggregator,
//! filters — in a static config shipped to the server. Here a job is
//! plain `key = value` text (no external serialization crates are
//! available offline). This module owns the line reader and the
//! aggregation-rule names; the keys themselves belong to the host that
//! runs the job (`clinfl::RunSpec` for `clinfl serve`), so a job file and
//! the `clinfl federated` flags share one key table.
//!
//! ```text
//! # adr-finetune.job
//! name        = adr-finetune
//! rounds      = 10
//! min_clients = 8
//! timeout_s   = 600
//! validate    = true
//! aggregator  = weighted_fedavg
//! ```

use crate::aggregator::{Aggregator, CoordinateMedian, MaskedSum, TrimmedMean, WeightedFedAvg};
use std::collections::BTreeMap;

/// Aggregation rule selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregatorKind {
    /// Example-count-weighted FedAvg (default).
    WeightedFedAvg,
    /// Coordinate-wise median.
    CoordinateMedian,
    /// Trimmed mean, dropping one value per end.
    TrimmedMean,
    /// Masked sum for secure aggregation.
    MaskedSum,
}

impl AggregatorKind {
    /// Instantiates the aggregator.
    pub fn build(self) -> Box<dyn Aggregator> {
        match self {
            AggregatorKind::WeightedFedAvg => Box::new(WeightedFedAvg),
            AggregatorKind::CoordinateMedian => Box::new(CoordinateMedian),
            AggregatorKind::TrimmedMean => Box::new(TrimmedMean { trim: 1 }),
            AggregatorKind::MaskedSum => Box::new(MaskedSum),
        }
    }

    /// Parses a rule name (`weighted_fedavg`/`fedavg`,
    /// `coordinate_median`/`median`, `trimmed_mean`,
    /// `masked_sum`/`secure_sum`).
    ///
    /// # Errors
    ///
    /// A message listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "weighted_fedavg" | "fedavg" => Ok(AggregatorKind::WeightedFedAvg),
            "coordinate_median" | "median" => Ok(AggregatorKind::CoordinateMedian),
            "trimmed_mean" => Ok(AggregatorKind::TrimmedMean),
            "masked_sum" | "secure_sum" => Ok(AggregatorKind::MaskedSum),
            other => Err(format!(
                "unknown aggregator {other:?} (expected weighted_fedavg, coordinate_median, trimmed_mean, masked_sum)"
            )),
        }
    }
}

/// Reads `key = value` job text, handing each pair to `set` in file
/// order. Blank lines and `#` comments are skipped. Returns the 1-based
/// line each key was set on, so a host can point a later validation
/// error at the line that caused it.
///
/// ```
/// use clinfl_flare::job::read_lines;
/// let mut rounds = 0u32;
/// let lines = read_lines("# demo\nrounds = 5\n", |key, value| match key {
///     "rounds" => value.parse().map(|v| rounds = v).map_err(|_| "invalid rounds".into()),
///     other => Err(format!("unknown key {other:?}")),
/// })?;
/// assert_eq!((rounds, lines["rounds"]), (5, 2));
/// # Ok::<(), String>(())
/// ```
///
/// # Errors
///
/// A line-numbered message on a malformed line, a duplicated key (it
/// would silently shadow the earlier value — in a config that gates a
/// multi-hour run, that must fail loudly instead), or any error `set`
/// returns (unknown key, invalid value).
pub fn read_lines(
    text: &str,
    mut set: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<BTreeMap<String, usize>, String> {
    let mut seen = BTreeMap::new();
    for (lineno, raw) in (1..).zip(text.lines()) {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| format!("line {lineno}: {msg}");
        let Some((key, value)) = line.split_once('=') else {
            return Err(at(format!("expected `key = value`, got {line:?}")));
        };
        let (key, value) = (key.trim(), value.trim());
        if let Some(first) = seen.insert(key.to_string(), lineno) {
            return Err(at(format!(
                "duplicate job key {key:?} (first set on line {first})"
            )));
        }
        set(key, value).map_err(at)?;
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-key table standing in for a host's.
    fn read(text: &str) -> Result<(String, u32, BTreeMap<String, usize>), String> {
        let (mut name, mut rounds) = (String::from("job"), 1u32);
        let lines = read_lines(text, |key, value| match key {
            "name" => {
                name = value.to_string();
                Ok(())
            }
            "rounds" => {
                rounds = value
                    .parse()
                    .map_err(|_| format!("invalid rounds: {value:?}"))?;
                Ok(())
            }
            other => Err(format!("unknown job key {other:?}")),
        })?;
        Ok((name, rounds, lines))
    }

    #[test]
    fn reads_keys_in_order_with_their_lines() {
        let (name, rounds, lines) =
            read("# ADR fine-tune job\n\nname = adr-finetune\nrounds = 10\n").unwrap();
        assert_eq!((name.as_str(), rounds), ("adr-finetune", 10));
        assert_eq!(lines["name"], 3);
        assert_eq!(lines["rounds"], 4);
        assert!(read("\n# only comments\n\n").unwrap().2.is_empty());
    }

    #[test]
    fn unknown_key_rejected_with_line_number() {
        let err = read("rounds = 2\nbogus = 7\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn malformed_lines_and_values_rejected() {
        assert!(read("rounds = many")
            .unwrap_err()
            .to_string()
            .contains("line 1: invalid rounds"));
        assert!(read("not a kv line").is_err());
    }

    #[test]
    fn duplicate_key_rejected_with_both_line_numbers() {
        let msg = read("name = a\nrounds = 2\n# comment between\nrounds = 5\n")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("duplicate"), "{msg}");
        assert!(msg.contains("rounds"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn aggregator_aliases() {
        for (alias, kind) in [
            ("fedavg", AggregatorKind::WeightedFedAvg),
            ("median", AggregatorKind::CoordinateMedian),
            ("trimmed_mean", AggregatorKind::TrimmedMean),
            ("secure_sum", AggregatorKind::MaskedSum),
        ] {
            assert_eq!(AggregatorKind::parse(alias), Ok(kind));
        }
        assert!(AggregatorKind::parse("quantum").is_err());
    }

    #[test]
    fn build_produces_named_aggregators() {
        assert_eq!(
            AggregatorKind::WeightedFedAvg.build().name(),
            "WeightedFedAvg"
        );
        assert_eq!(AggregatorKind::MaskedSum.build().name(), "MaskedSum");
    }
}
