//! The committed benchmark rows (`BENCH_*.json` at the repository root)
//! are only comparable with the host they were taken on, so every file
//! must record the reference host's CPU count as a numeric
//! `host.reference_cpus` of at least 1. Parsing them also keeps dim-json's
//! parser exercised on real committed documents.

use dim_json::{parse_value, Value};
use std::path::Path;

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn committed_bench_files_record_their_cpu_count() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root)
        .expect("repository root is readable")
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no BENCH_*.json at the repository root");
    for name in &names {
        let text = std::fs::read_to_string(root.join(name)).expect("bench file is readable");
        let doc = parse_value(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cpus = field(&doc, "host").and_then(|host| field(host, "reference_cpus"));
        assert!(
            matches!(cpus, Some(Value::Num(n)) if *n >= 1.0),
            "{name}: host.reference_cpus must be a number >= 1, found {cpus:?}"
        );
    }
}
