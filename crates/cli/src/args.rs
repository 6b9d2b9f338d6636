//! Minimal flag parser (no external dependencies): `--key value` pairs and
//! positional arguments.

use std::collections::HashMap;
use std::fmt;

/// Parsed command line: positionals in order, flags as key → value.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// Argument error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (excluding the program name and subcommand).
    /// The named flags are boolean switches: they take no value and
    /// parse as `"1"` when present; every other `--flag` takes a value.
    ///
    /// # Errors
    ///
    /// Returns an error for a trailing non-switch `--flag` with no value.
    pub fn parse_with_switches<I: IntoIterator<Item = String>>(
        raw: I,
        switches: &[&str],
    ) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if switches.contains(&key) {
                    out.flags.insert(key.to_string(), "1".to_string());
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("--{key} expects a value")))?;
                out.flags.insert(key.to_string(), value);
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// Positional argument by index.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Raw flag value.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Flag parsed as `T`, with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse.
    pub fn flag_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.flag(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// Flag parsed as an arrival rate (queries per second), with a
    /// default: trace generation needs a finite rate above zero.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse or is NaN,
    /// infinite, zero or negative.
    pub fn rate_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        let rate: f64 = self.flag_or(key, default)?;
        if rate.is_finite() && rate > 0.0 {
            Ok(rate)
        } else {
            Err(ArgError(format!(
                "--{key} must be a positive finite rate, got {rate}"
            )))
        }
    }
}

/// Resolves a network name (case/punctuation-insensitive) to a `DnnId`.
///
/// # Errors
///
/// Returns an error listing valid names when nothing matches.
pub fn parse_dnn(name: &str) -> Result<planaria_model::DnnId, ArgError> {
    let norm = |s: &str| {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let target = norm(name);
    planaria_model::DnnId::ALL
        .into_iter()
        .find(|id| norm(id.name()) == target)
        .ok_or_else(|| {
            let names: Vec<&str> = planaria_model::DnnId::ALL
                .iter()
                .map(|i| i.name())
                .collect();
            ArgError(format!(
                "unknown network '{name}'; one of {}",
                names.join(", ")
            ))
        })
}

/// Resolves a scenario letter.
///
/// # Errors
///
/// Returns an error for anything but `A`, `B`, or `C`.
pub fn parse_scenario(s: &str) -> Result<planaria_workload::Scenario, ArgError> {
    match s.to_ascii_uppercase().as_str() {
        "A" => Ok(planaria_workload::Scenario::A),
        "B" => Ok(planaria_workload::Scenario::B),
        "C" => Ok(planaria_workload::Scenario::C),
        _ => Err(ArgError(format!("unknown scenario '{s}'; one of A, B, C"))),
    }
}

/// Resolves a QoS level (`S`/`M`/`H`, or `soft`/`medium`/`hard`).
///
/// # Errors
///
/// Returns an error for unknown levels.
pub fn parse_qos(s: &str) -> Result<planaria_workload::QosLevel, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "s" | "soft" => Ok(planaria_workload::QosLevel::Soft),
        "m" | "medium" => Ok(planaria_workload::QosLevel::Medium),
        "h" | "hard" => Ok(planaria_workload::QosLevel::Hard),
        _ => Err(ArgError(format!("unknown QoS level '{s}'; one of S, M, H"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::DnnId;
    use planaria_workload::{QosLevel, Scenario};

    fn parse(words: &[&str]) -> Args {
        Args::parse_with_switches(words.iter().map(|s| s.to_string()), &[]).unwrap()
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["resnet50", "--subarrays", "8", "--seed", "42"]);
        assert_eq!(a.positional(0), Some("resnet50"));
        assert_eq!(a.flag_or("subarrays", 1u32).unwrap(), 8);
        assert_eq!(a.flag_or("seed", 0u64).unwrap(), 42);
        assert_eq!(a.flag_or("missing", 7i32).unwrap(), 7);
    }

    #[test]
    fn dangling_flag_is_an_error() {
        assert!(Args::parse_with_switches(["--oops".to_string()], &[]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let a = Args::parse_with_switches(
            ["--sweep", "resnet50"].iter().map(|s| s.to_string()),
            &["sweep"],
        )
        .unwrap();
        assert_eq!(a.flag("sweep"), Some("1"));
        assert_eq!(a.positional(0), Some("resnet50"));
        // A switch at the end of the line is fine; a value flag is not.
        assert!(Args::parse_with_switches(["--sweep".to_string()], &["sweep"]).is_ok());
    }

    #[test]
    fn bad_value_is_an_error() {
        let a = parse(&["--subarrays", "lots"]);
        assert!(a.flag_or("subarrays", 1u32).is_err());
    }

    #[test]
    fn rates_must_be_finite_and_positive() {
        for bad in ["nan", "inf", "-1", "0"] {
            let err = parse(&["--lambda", bad]).rate_or("lambda", 1.0);
            assert!(err.is_err(), "--lambda {bad} accepted");
        }
        assert_eq!(parse(&["--lambda", "2.5"]).rate_or("lambda", 1.0), Ok(2.5));
        assert_eq!(parse(&[]).rate_or("lambda", 60.0), Ok(60.0));
    }

    #[test]
    fn dnn_names_are_fuzzy() {
        assert_eq!(parse_dnn("resnet-50").unwrap(), DnnId::ResNet50);
        assert_eq!(parse_dnn("ResNet50").unwrap(), DnnId::ResNet50);
        assert_eq!(parse_dnn("TINY yolo").unwrap(), DnnId::TinyYolo);
        assert_eq!(parse_dnn("ssd-m").unwrap(), DnnId::SsdMobileNet);
        assert!(parse_dnn("alexnet").is_err());
    }

    #[test]
    fn scenario_and_qos() {
        assert_eq!(parse_scenario("b").unwrap(), Scenario::B);
        assert_eq!(parse_qos("hard").unwrap(), QosLevel::Hard);
        assert_eq!(parse_qos("M").unwrap(), QosLevel::Medium);
        assert!(parse_scenario("D").is_err());
        assert!(parse_qos("x").is_err());
    }
}
