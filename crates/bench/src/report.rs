//! The JSON report skeleton and the smoke exit shared by the `bench_*`
//! drivers.
//!
//! Every `BENCH_*.json` opens with the same two fields, `comment` (what
//! was measured and how to regenerate it) and `host` (the machine it ran
//! on), followed by the driver's own fields. Drivers format their body
//! themselves and hand it to [`write()`].

/// The host line of every report: the logical CPU count the process sees,
/// the target, and the build profile.
fn host() -> String {
    format!(
        "{}-core {}-{} host ({} profile)",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::ARCH,
        std::env::consts::OS,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// Renders a report: `{`, the `comment` and `host` fields, then `body` —
/// one or more `"field": value` lines, comma-separated, indented two
/// spaces, with no trailing comma — and the closing `}`.
fn render(comment: &str, body: &str) -> String {
    // `{:?}` quotes and escapes a string the way JSON needs for the plain
    // text these comments and host lines hold.
    format!(
        "{{\n  \"comment\": {comment:?},\n  \"host\": {:?},\n{body}}}\n",
        host()
    )
}

/// Writes the rendered report to `path` and announces it.
pub fn write(path: &str, comment: &str, body: &str) {
    std::fs::write(path, render(comment, body)).expect("write json output");
    println!("wrote {path}");
}

/// Ends a `--smoke` run: when any check failed, prints them on one line
/// and exits 1; otherwise returns.
pub fn gate(name: &str, failures: &[String]) {
    if !failures.is_empty() {
        eprintln!("{name} smoke FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_ml::json::Value;

    #[test]
    fn a_rendered_report_parses_and_carries_comment_and_host() {
        let text = render(
            "a \"quoted\" comment — with a dash",
            "  \"rows\": [1, 2],\n  \"ok\": true\n",
        );
        let value = Value::parse(&text).unwrap();
        assert_eq!(
            value.field("comment").unwrap().as_str().unwrap(),
            "a \"quoted\" comment — with a dash"
        );
        assert_eq!(value.field("host").unwrap().as_str().unwrap(), host());
        assert!(host().contains("-core "));
        assert!(value.field("rows").is_ok());
    }
}
