//! Command-line flags shared by the `bench_*` drivers.
//!
//! Every driver takes `--smoke` (a short run that exits non-zero unless
//! the driver's gate holds) and `--json <path>` (write the report there).
//! A driver may declare further named values, each taking one argument
//! (`bench_serving` declares `family`). Anything else is a usage error:
//! [`Args::from_env`] prints it on one line and exits 2.

use std::collections::BTreeMap;

/// The parsed command line of one driver.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--smoke`: shorten every phase and gate the result.
    pub smoke: bool,
    /// `--json <path>`: where to write the JSON report.
    pub json: Option<String>,
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses `args` (without the program name). `named` lists the value
    /// flags the driver accepts besides `--smoke` and `--json`, without
    /// their leading dashes.
    pub fn parse(args: impl IntoIterator<Item = String>, named: &[&str]) -> Result<Self, String> {
        let mut parsed = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let name = arg.strip_prefix("--").unwrap_or("");
            if name == "smoke" {
                parsed.smoke = true;
                continue;
            }
            if name != "json" && !named.contains(&name) {
                return Err(format!("unknown argument '{arg}'"));
            }
            let value = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))?;
            if name == "json" {
                parsed.json = Some(value);
            } else {
                parsed.values.insert(name.to_string(), value);
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments; on a usage error prints one line and
    /// exits 2.
    pub fn from_env(named: &[&str]) -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::parse(args, named).unwrap_or_else(|err| {
            let bin = program.rsplit(std::path::MAIN_SEPARATOR).next();
            eprintln!("{}: {err}", bin.unwrap_or_default());
            std::process::exit(2);
        })
    }

    /// The value given for a declared named flag, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], named: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()), named)
    }

    #[test]
    fn smoke_and_json_are_both_set() {
        let args = parse(&["--smoke", "--json", "p"], &[]).unwrap();
        assert!(args.smoke);
        assert_eq!(args.json.as_deref(), Some("p"));
        assert_eq!(parse(&[], &[]).unwrap(), Args::default());
    }

    #[test]
    fn json_without_a_path_is_an_error() {
        assert!(parse(&["--smoke", "--json"], &[]).is_err());
        assert!(parse(&["--json", "--smoke"], &[]).is_err());
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        let err = parse(&["--smoke", "--requests", "abc"], &[]).unwrap_err();
        assert!(err.contains("--requests"), "{err}");
        assert!(parse(&["smoke"], &[]).is_err());
    }

    #[test]
    fn named_values_reach_only_the_bins_that_declare_them() {
        let args = parse(&["--family", "mixed"], &["family"]).unwrap();
        assert_eq!(args.value("family"), Some("mixed"));
        assert_eq!(parse(&[], &["family"]).unwrap().value("family"), None);
        assert!(parse(&["--family", "mixed"], &[]).is_err());
        assert!(parse(&["--family"], &["family"]).is_err());
    }
}
