//! Prometheus text-exposition checks shared by the serve and cluster
//! suites (the cluster suite includes this file by path).

use std::collections::{HashMap, HashSet};

/// Parses Prometheus text exposition, panicking on any malformed line,
/// on a `# TYPE` name declared twice and on a family whose samples
/// reappear after another family's have started (the format requires
/// each family's lines to form one group). Returns the value of every
/// *unlabelled* sample plus the set of sample names seen (labelled
/// `_bucket` series included).
pub fn validate_exposition(text: &str) -> (HashMap<String, f64>, Vec<String>) {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut grouped: HashSet<String> = HashSet::new();
    let mut family = String::new();
    let mut scalars = HashMap::new();
    let mut names = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a metric name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown metric kind {kind:?} in {line:?}"
            );
            let previous = types.insert(name.to_string(), kind.to_string());
            assert!(previous.is_none(), "# TYPE {name} declared twice");
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "unexpected comment form in exposition: {line:?}"
        );
        // Sample line: `name[{labels}] value`.
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without a value: {line:?}"));
        let parsed: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .unwrap_or_else(|_| panic!("bad sample value in {line:?}")),
        };
        let name = series.split('{').next().expect("split never empty");
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(
            types.contains_key(base),
            "sample {name:?} has no preceding # TYPE header"
        );
        if base != family {
            assert!(
                grouped.insert(base.to_string()),
                "samples of family {base:?} reappear after another family started"
            );
            family = base.to_string();
        }
        names.push(name.to_string());
        if !series.contains('{') {
            scalars.insert(name.to_string(), parsed);
        }
    }
    (scalars, names)
}

/// The exposition's `# HELP` and `# TYPE` lines, sorted: what a golden
/// list pins, independent of the order families are rendered in.
pub fn metadata_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("# HELP ") || line.starts_with("# TYPE "))
        .collect();
    lines.sort_unstable();
    lines
}

/// Asserts `text` declares exactly the `golden` families, one
/// `# HELP`/`# TYPE` line per line of `golden` (in any order).
pub fn assert_metadata_matches(text: &str, golden: &str) {
    let mut expected: Vec<&str> = golden.lines().filter(|line| !line.is_empty()).collect();
    expected.sort_unstable();
    let actual = metadata_lines(text);
    assert!(
        actual == expected,
        "exposition metadata differs from the golden list\n--- actual ---\n{}\n--- golden ---\n{}",
        actual.join("\n"),
        expected.join("\n")
    );
}
