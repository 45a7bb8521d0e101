//! The CI workflow stays loadable YAML. A plain (unquoted) scalar may
//! not contain `": "`: YAML reads it as a nested mapping key and
//! rejects the whole file, so no job of the workflow runs. Step names
//! are where such colons creep in ("serial vs parallel: CSV identical").

const WORKFLOW: &str = include_str!("../.github/workflows/ci.yml");

/// The `name:` values of `yaml` that are plain scalars containing
/// `": "`, as `(line number, value)`.
fn unquoted_names_with_colons(yaml: &str) -> Vec<(usize, &str)> {
    yaml.lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let entry = line.trim_start();
            let entry = entry.strip_prefix("- ").unwrap_or(entry);
            let value = entry.strip_prefix("name:")?.trim();
            let quoted = value.starts_with('"') || value.starts_with('\'');
            (!quoted && value.contains(": ")).then_some((i + 1, value))
        })
        .collect()
}

#[test]
fn workflow_names_with_colons_are_quoted() {
    let bad = unquoted_names_with_colons(WORKFLOW);
    assert!(
        bad.is_empty(),
        ".github/workflows/ci.yml: quote these names, YAML rejects the file otherwise: {bad:?}"
    );
}

#[test]
fn the_name_check_catches_an_unquoted_colon() {
    let step = "      - name: fig8 — serial vs parallel: CSV identical\n";
    assert_eq!(unquoted_names_with_colons(step).len(), 1);
    let quoted = "      - name: \"fig8 — serial vs parallel: CSV identical\"\n";
    assert!(unquoted_names_with_colons(quoted).is_empty());
    assert!(unquoted_names_with_colons("name: CI\n").is_empty());
}
