//! Machine-readable benchmark reports.
//!
//! Each figure bench writes a `BENCH_<name>.json` next to its console
//! table so experiment tracking (and the CI artifact) can diff runs
//! without scraping stdout. The JSON is hand-rolled (the workspace is
//! offline; the vendored `serde` is marker-only) and deliberately
//! restricted to strings, booleans, and **integer** numbers — latencies
//! are picosecond counts — so same-seed runs serialize byte-identically.

use gtn_sim::time::SimDuration;
use std::fs;
use std::path::PathBuf;

/// A JSON value. No floats on purpose: every quantity a report carries is
/// an integer (ps, counts) or text, which keeps output bit-reproducible.
/// [`crate::compare::parse_json`] reads rendered reports back into it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Unsigned integer.
    U64(u64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; fields render in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Object from `(key, value)` pairs, preserving order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// String value.
pub fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

/// Duration as integer picoseconds.
pub fn ps(d: SimDuration) -> Json {
    Json::U64(d.as_ps())
}

/// A stage decomposition (`timeline::stage_breakdown` output) as an object
/// keyed by stage name, values in picoseconds, pipeline order preserved.
pub fn stages(stages: &[(&'static str, SimDuration)]) -> Json {
    Json::Obj(stages.iter().map(|&(n, d)| (n.to_owned(), ps(d))).collect())
}

impl Json {
    /// Render as pretty-printed JSON (2-space indent, `\n` line ends).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Str(v) => escape_into(v, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }
}

fn escape_into(v: &str, out: &mut String) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// True when `GTN_BENCH_SMOKE` is set: benches shrink their sweeps to a
/// seconds-scale subset so CI can exercise the full path on every push.
pub fn smoke() -> bool {
    std::env::var_os("GTN_BENCH_SMOKE").is_some()
}

/// Where reports land: `$GTN_BENCH_DIR`, or `target/bench-reports`.
///
/// Relative paths are anchored at the **workspace root**, not the process
/// working directory: `cargo bench` runs bench binaries with their CWD set
/// to the package dir (`crates/bench`), which would silently scatter
/// reports where CI's checkout-rooted paths never look.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var_os("GTN_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bench-reports"));
    if dir.is_absolute() {
        return dir;
    }
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop(); // crates/
    root.pop(); // workspace root
    root.join(dir)
}

/// File that indexes every report written into a bench dir. CI validates
/// the dir against this instead of a hard-coded file list, so adding a
/// bench (or renaming a report) cannot silently drop artifact coverage.
pub const MANIFEST: &str = "MANIFEST.json";

/// Write `BENCH_<name>.json` into [`out_dir`] and echo the path.
pub fn write(name: &str, value: &Json) -> PathBuf {
    write_text(&format!("BENCH_{name}.json"), &value.render())
}

/// Write an arbitrary report file (e.g. a Chrome trace) into [`out_dir`]
/// and register it in the dir's `MANIFEST.json`.
pub fn write_text(file_name: &str, contents: &str) -> PathBuf {
    let dir = out_dir();
    fs::create_dir_all(&dir).expect("create bench report dir");
    let path = dir.join(file_name);
    fs::write(&path, contents).expect("write bench report");
    if file_name != MANIFEST {
        register_in_manifest(&dir, file_name);
    }
    println!("wrote {}", path.display());
    path
}

/// Union `file_name` into `<dir>/MANIFEST.json`, kept sorted so repeat
/// runs serialize byte-identically regardless of bench execution order.
fn register_in_manifest(dir: &std::path::Path, file_name: &str) {
    let path = dir.join(MANIFEST);
    let mut names = manifest_entries(&path);
    if !names.iter().any(|n| n == file_name) {
        names.push(file_name.to_owned());
        names.sort();
        let json = Json::Arr(names.into_iter().map(Json::Str).collect());
        fs::write(&path, json.render()).expect("write bench manifest");
    }
}

/// Parse a `MANIFEST.json` (a JSON array of plain-ASCII file names) into
/// its entries. Missing or unreadable files parse as empty — the first
/// report of a run starts the manifest from scratch.
pub fn manifest_entries(path: &std::path::Path) -> Vec<String> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    // Report file names never contain quotes or escapes, so splitting on
    // `"` yields: junk, name, junk, name, ... (odd indices are names).
    text.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_escaped() {
        let v = obj(vec![
            ("name", s("say \"hi\"\n")),
            ("n_ps", ps(SimDuration::from_ns(3))),
            ("ok", Json::Bool(true)),
            ("empty", Json::Arr(vec![])),
            ("list", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
        ]);
        let r = v.render();
        assert!(r.contains("\"say \\\"hi\\\"\\n\""), "{r}");
        assert!(r.contains("\"n_ps\": 3000"), "{r}");
        assert!(r.contains("\"empty\": []"), "{r}");
        assert_eq!(r, v.render());
        assert!(r.ends_with("}\n"));
    }

    #[test]
    fn manifest_union_is_sorted_and_deduplicated() {
        let dir = std::env::temp_dir().join(format!("gtn-manifest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST);
        let _ = fs::remove_file(&path);
        assert!(manifest_entries(&path).is_empty());
        register_in_manifest(&dir, "BENCH_b.json");
        register_in_manifest(&dir, "BENCH_a.json");
        register_in_manifest(&dir, "BENCH_b.json");
        assert_eq!(manifest_entries(&path), ["BENCH_a.json", "BENCH_b.json"]);
        let first = fs::read_to_string(&path).unwrap();
        register_in_manifest(&dir, "BENCH_a.json");
        assert_eq!(fs::read_to_string(&path).unwrap(), first);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stage_object_preserves_pipeline_order() {
        let v = stages(&[
            ("post", SimDuration::from_ns(1)),
            ("wire", SimDuration::from_ns(2)),
        ]);
        let r = v.render();
        assert!(r.find("post").unwrap() < r.find("wire").unwrap(), "{r}");
    }
}
