//! Bench-report validation behind the CI gates.
//!
//! Three checks, each a pure function returning `Err(reason)` so the
//! `bench_compare` binary (and tests) can surface precise failures:
//!
//! - [`check_manifest`]: a bench dir's `MANIFEST.json` lists every report
//!   that was written, every listed file exists and is non-empty, and no
//!   unlisted `BENCH_*` file is lying around. CI validates artifacts
//!   against this instead of a hard-coded file list.
//! - [`diff_against_golden`]: every report named by the golden dir's
//!   manifest is byte-identical in the actual dir. The figure reports
//!   carry only simulated quantities (integer picoseconds and counts), so
//!   any drift — not just large drift — is a regression or an intentional
//!   model change that must re-record the baselines.
//! - [`check_perf_floor`]: the wall-clock `sim_engine_perf` report stays
//!   at or above a recorded events/sec floor. The floor is set ~10x below
//!   measured throughput so runner noise never trips it; an O(n log n) →
//!   O(n^2) style regression still does.
//!
//! When a comparison fails, [`field_diffs`] parses both reports with the
//! built-in mini JSON reader and names the exact leaf fields that moved
//! (`points[3].p99_ps: 1200 -> 1350`) instead of a bare "files differ" —
//! the difference between a CI log that diagnoses a determinism break and
//! one that just announces it. [`diff_paths`] wraps the same machinery as
//! a standalone gate over files or whole report dirs.

use crate::report;
use std::fs;
use std::path::Path;

/// A parsed JSON value from a bench report. Reports are written by
/// [`report::Json`] and only ever contain unsigned integers, booleans,
/// strings, arrays, and objects; anything else (floats, nulls — e.g. a
/// Chrome trace from another tool) fails to parse and the caller falls
/// back to byte comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// Unsigned integer.
    U64(u64),
    /// Boolean.
    Bool(bool),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<JVal>),
    /// Object, field order preserved.
    Obj(Vec<(String, JVal)>),
}

/// Parse a bench report. Returns `Err` on anything outside the report
/// subset (see [`JVal`]).
pub fn parse_json(text: &str) -> Result<JVal, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JVal, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JVal::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JVal::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JVal::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JVal::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JVal::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JVal::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JVal::Bool(false))
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            if matches!(b.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
                return Err(format!("float at byte {start} (reports are integer-only)"));
            }
            std::str::from_utf8(&b[start..*pos])
                .unwrap()
                .parse()
                .map(JVal::U64)
                .map_err(|e| format!("number at byte {start}: {e}"))
        }
        _ => Err(format!("unexpected value at byte {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).ok_or("dangling escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("\\u escape: {e}"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("invalid \\u codepoint")?);
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
            }
            c => out.push(c as char),
        }
    }
    Err("unterminated string".into())
}

/// Flatten a parsed report into `(leaf path, rendered scalar)` pairs in
/// document order: `points[3].p99_ps` → `"1350"`.
pub fn flatten(v: &JVal, prefix: &str, out: &mut Vec<(String, String)>) {
    match v {
        JVal::U64(n) => out.push((prefix.to_owned(), n.to_string())),
        JVal::Bool(x) => out.push((prefix.to_owned(), x.to_string())),
        JVal::Str(t) => out.push((prefix.to_owned(), format!("{t:?}"))),
        JVal::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &format!("{prefix}[{i}]"), out);
            }
        }
        JVal::Obj(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(val, &path, out);
            }
        }
    }
}

/// How many differing fields a diff names before truncating; past this a
/// report has not "drifted", it has been rewritten.
const DIFF_LIMIT: usize = 16;

/// Name the leaf fields that differ between two report texts, most
/// `golden -> actual`. Returns `None` when either side does not parse as
/// a report (caller falls back to byte comparison), `Some(vec![])` when
/// the parsed contents are identical (e.g. trailing-whitespace drift).
pub fn field_diffs(golden: &str, actual: &str) -> Option<Vec<String>> {
    let (g, a) = (parse_json(golden).ok()?, parse_json(actual).ok()?);
    let (mut gf, mut af) = (Vec::new(), Vec::new());
    flatten(&g, "", &mut gf);
    flatten(&a, "", &mut af);
    let mut diffs = Vec::new();
    let lookup: std::collections::HashMap<&str, &str> =
        af.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    for (path, want) in &gf {
        match lookup.get(path.as_str()) {
            Some(got) if *got == want => {}
            Some(got) => diffs.push(format!("{path}: {want} -> {got}")),
            None => diffs.push(format!("{path}: {want} -> (absent)")),
        }
    }
    let known: std::collections::HashSet<&str> = gf.iter().map(|(k, _)| k.as_str()).collect();
    for (path, got) in &af {
        if !known.contains(path.as_str()) {
            diffs.push(format!("{path}: (absent) -> {got}"));
        }
    }
    if diffs.len() > DIFF_LIMIT {
        let more = diffs.len() - DIFF_LIMIT;
        diffs.truncate(DIFF_LIMIT);
        diffs.push(format!("... and {more} more fields"));
    }
    Some(diffs)
}

/// Describe how `actual` drifted from `golden` (both file paths): field
/// diffs when both sides parse as reports, a byte-level verdict when not.
fn describe_file_drift(golden: &Path, actual: &Path) -> Result<Option<String>, String> {
    let want = fs::read(golden).map_err(|e| format!("golden {}: {e}", golden.display()))?;
    let got = match fs::read(actual) {
        Ok(b) => b,
        Err(_) => return Ok(Some(format!("missing from {}", actual.display()))),
    };
    if want == got {
        return Ok(None);
    }
    let parsed = match (std::str::from_utf8(&want), std::str::from_utf8(&got)) {
        (Ok(w), Ok(g)) => field_diffs(w, g),
        _ => None,
    };
    Ok(Some(match parsed {
        Some(diffs) if diffs.is_empty() => {
            "parsed contents identical but bytes differ (formatting drift)".to_owned()
        }
        Some(diffs) => format!("\n    {}", diffs.join("\n    ")),
        None => format!(
            "binary or non-report content differs ({} vs {} bytes)",
            want.len(),
            got.len()
        ),
    }))
}

/// Standalone diff gate: compare two report files, or two report dirs
/// (every file listed in the **actual** dir's manifest — dirs holding a
/// subset of benches, like the double-run gate's, compare exactly what
/// they ran). Returns a pass description; `Err` names each drifted field.
pub fn diff_paths(golden: &Path, actual: &Path) -> Result<String, String> {
    if golden.is_dir() != actual.is_dir() {
        return Err(format!(
            "{} and {} must both be files or both be dirs",
            golden.display(),
            actual.display()
        ));
    }
    if !golden.is_dir() {
        return match describe_file_drift(golden, actual)? {
            None => Ok("diff ok: 1 report identical".into()),
            Some(drift) => Err(format!(
                "{} differs from {}: {drift}",
                actual.display(),
                golden.display()
            )),
        };
    }
    let entries = report::manifest_entries(&actual.join(report::MANIFEST));
    if entries.is_empty() {
        return Err(format!(
            "manifest {} is missing or empty",
            actual.join(report::MANIFEST).display()
        ));
    }
    let mut drifted = Vec::new();
    for name in &entries {
        if let Some(drift) = describe_file_drift(&golden.join(name), &actual.join(name))? {
            drifted.push(format!("{name}: {drift}"));
        }
    }
    if drifted.is_empty() {
        Ok(format!("diff ok: {} reports identical", entries.len()))
    } else {
        Err(format!(
            "{} of {} reports differ:\n  {}",
            drifted.len(),
            entries.len(),
            drifted.join("\n  ")
        ))
    }
}

/// Validate `<dir>/MANIFEST.json` against the directory contents.
/// Returns the manifest entries on success.
pub fn check_manifest(dir: &Path) -> Result<Vec<String>, String> {
    let manifest = dir.join(report::MANIFEST);
    let entries = report::manifest_entries(&manifest);
    if entries.is_empty() {
        return Err(format!("{} is missing or empty", manifest.display()));
    }
    for name in &entries {
        let path = dir.join(name);
        match fs::metadata(&path) {
            Ok(m) if m.len() > 0 => {}
            Ok(_) => return Err(format!("{} is listed but empty", path.display())),
            Err(_) => return Err(format!("{} is listed but missing", path.display())),
        }
    }
    let listed = |n: &str| entries.iter().any(|e| e == n);
    for entry in fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let file = entry.map_err(|e| e.to_string())?.file_name();
        let name = file.to_string_lossy();
        if name.starts_with("BENCH_") && !listed(&name) {
            return Err(format!(
                "{name} exists in {} but is not in MANIFEST.json \
                 (bench wrote it without report::write?)",
                dir.display()
            ));
        }
    }
    Ok(entries)
}

/// Byte-compare every report listed in `golden`'s manifest against the
/// same file under `actual`, and reject any report `actual`'s manifest
/// lists that has no golden (a new bench must record one to be gated).
/// Returns the number of files compared.
pub fn diff_against_golden(golden: &Path, actual: &Path) -> Result<usize, String> {
    let entries = report::manifest_entries(&golden.join(report::MANIFEST));
    if entries.is_empty() {
        return Err(format!(
            "golden manifest {} is missing or empty",
            golden.join(report::MANIFEST).display()
        ));
    }
    let mut drifted = Vec::new();
    for name in &entries {
        match describe_file_drift(&golden.join(name), &actual.join(name))? {
            None => {}
            Some(drift) if drift.starts_with("missing") => {
                drifted.push(format!("{name} {drift}"));
            }
            Some(drift) => drifted.push(format!("{name} differs from golden: {drift}")),
        }
    }
    for name in report::manifest_entries(&actual.join(report::MANIFEST)) {
        if !entries.contains(&name) {
            drifted.push(format!("{name} has no golden"));
        }
    }
    if drifted.is_empty() {
        Ok(entries.len())
    } else {
        Err(format!(
            "{} of {} reports drifted from bench-baselines \
             (simulated metrics are deterministic; a model change must \
             re-record the goldens):\n  {}",
            drifted.len(),
            entries.len(),
            drifted.join("\n  ")
        ))
    }
}

/// Check each `(name, events_per_sec)` row of `floor_file` against the
/// matching row of `actual_file`. Returns the number of rows checked.
pub fn check_perf_floor(floor_file: &Path, actual_file: &Path) -> Result<usize, String> {
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let floors = events_per_sec_rows(&read(floor_file)?);
    if floors.is_empty() {
        return Err(format!(
            "no events_per_sec rows in floor file {}",
            floor_file.display()
        ));
    }
    let actual = events_per_sec_rows(&read(actual_file)?);
    let mut below = Vec::new();
    for (name, floor) in &floors {
        match actual.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got >= floor => {}
            Some((_, got)) => below.push(format!(
                "{name}: {got} events/sec is below the floor of {floor}"
            )),
            None => below.push(format!(
                "{name}: row missing from {}",
                actual_file.display()
            )),
        }
    }
    if below.is_empty() {
        Ok(floors.len())
    } else {
        Err(format!(
            "simulator throughput regression:\n  {}",
            below.join("\n  ")
        ))
    }
}

/// Extract `(name, events_per_sec)` pairs from a report rendered by
/// [`report::Json`] (one field per line), pairing each `events_per_sec`
/// with the most recent `"name"` above it. Rows without an
/// `events_per_sec` field are skipped.
pub fn events_per_sec_rows(text: &str) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            current = rest.strip_suffix("\",").map(str::to_owned);
        } else if let Some(rest) = line.strip_prefix("\"events_per_sec\": ") {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let (Some(name), Ok(v)) = (current.take(), digits.parse()) {
                rows.push((name, v));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{obj, s, Json, MANIFEST};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gtn-compare-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_manifest(dir: &Path, names: &[&str]) {
        let json = Json::Arr(names.iter().map(|n| s(*n)).collect());
        fs::write(dir.join(MANIFEST), json.render()).unwrap();
    }

    #[test]
    fn manifest_check_catches_missing_empty_and_unlisted() {
        let dir = scratch("manifest");
        assert!(check_manifest(&dir).is_err(), "no manifest");
        write_manifest(&dir, &["BENCH_a.json"]);
        assert!(check_manifest(&dir).is_err(), "listed but missing");
        fs::write(dir.join("BENCH_a.json"), "").unwrap();
        assert!(check_manifest(&dir).is_err(), "listed but empty");
        fs::write(dir.join("BENCH_a.json"), "{}\n").unwrap();
        assert_eq!(check_manifest(&dir).unwrap(), ["BENCH_a.json"]);
        fs::write(dir.join("BENCH_rogue.json"), "{}\n").unwrap();
        let err = check_manifest(&dir).unwrap_err();
        assert!(err.contains("BENCH_rogue.json"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn golden_diff_reports_drift_per_file() {
        let golden = scratch("golden");
        let actual = scratch("actual");
        write_manifest(&golden, &["BENCH_a.json", "BENCH_b.json"]);
        for d in [&golden, &actual] {
            fs::write(d.join("BENCH_a.json"), "same\n").unwrap();
        }
        fs::write(golden.join("BENCH_b.json"), "old\n").unwrap();
        fs::write(actual.join("BENCH_b.json"), "new\n").unwrap();
        let err = diff_against_golden(&golden, &actual).unwrap_err();
        assert!(err.contains("BENCH_b.json differs"), "{err}");
        assert!(!err.contains("BENCH_a.json"), "{err}");
        fs::write(actual.join("BENCH_b.json"), "old\n").unwrap();
        assert_eq!(diff_against_golden(&golden, &actual).unwrap(), 2);
        fs::remove_dir_all(&golden).unwrap();
        fs::remove_dir_all(&actual).unwrap();
    }

    fn perf_json(rows: &[(&str, Option<u64>)]) -> String {
        obj(vec![(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|&(n, eps)| {
                        let mut fields = vec![("name", s(n)), ("median_ns", Json::U64(5))];
                        if let Some(e) = eps {
                            fields.push(("events_per_sec", Json::U64(e)));
                        }
                        obj(fields)
                    })
                    .collect(),
            ),
        )])
        .render()
    }

    #[test]
    fn perf_floor_passes_at_or_above_and_fails_below() {
        let dir = scratch("perf");
        let floor = dir.join("floor.json");
        let actual = dir.join("actual.json");
        fs::write(
            &floor,
            perf_json(&[("engine/a", Some(100)), ("engine/b", Some(50))]),
        )
        .unwrap();
        fs::write(
            &actual,
            perf_json(&[
                ("engine/a", Some(100)),
                ("engine/b", Some(51)),
                ("fabric/untracked", None),
            ]),
        )
        .unwrap();
        assert_eq!(check_perf_floor(&floor, &actual).unwrap(), 2);
        fs::write(
            &actual,
            perf_json(&[("engine/a", Some(99)), ("engine/b", Some(51))]),
        )
        .unwrap();
        let err = check_perf_floor(&floor, &actual).unwrap_err();
        assert!(err.contains("engine/a: 99"), "{err}");
        fs::write(&actual, perf_json(&[("engine/b", Some(51))])).unwrap();
        let err = check_perf_floor(&floor, &actual).unwrap_err();
        assert!(err.contains("engine/a: row missing"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_parser_roundtrips_report_output() {
        let report = obj(vec![
            ("bench", s("x")),
            ("ok", Json::Bool(true)),
            ("name", s("say \"hi\"\n")),
            ("empty", Json::Arr(vec![])),
            (
                "points",
                Json::Arr(vec![
                    obj(vec![("p99_ps", Json::U64(1200))]),
                    obj(vec![("p99_ps", Json::U64(9))]),
                ]),
            ),
        ])
        .render();
        let parsed = parse_json(&report).unwrap();
        let mut leaves = Vec::new();
        flatten(&parsed, "", &mut leaves);
        assert_eq!(
            leaves,
            [
                ("bench".into(), "\"x\"".into()),
                ("ok".into(), "true".into()),
                ("name".into(), "\"say \\\"hi\\\"\\n\"".into()),
                ("points[0].p99_ps".into(), "1200".into()),
                ("points[1].p99_ps".into(), "9".into()),
            ]
        );
        assert!(parse_json("{\"f\": 1.5}").is_err(), "floats rejected");
        assert!(parse_json("[1,2").is_err(), "truncated rejected");
        assert!(parse_json("{} junk").is_err(), "trailing rejected");
    }

    #[test]
    fn field_diffs_name_exactly_the_drifted_leaves() {
        let mk = |p99: u64, extra: bool| {
            let mut points = vec![obj(vec![
                ("strategy", s("gpu-tn")),
                ("p99_ps", Json::U64(p99)),
            ])];
            if extra {
                points.push(obj(vec![("strategy", s("cpu"))]));
            }
            obj(vec![("points", Json::Arr(points))]).render()
        };
        assert_eq!(field_diffs(&mk(5, false), &mk(5, false)), Some(vec![]));
        let d = field_diffs(&mk(5, false), &mk(7, true)).unwrap();
        assert_eq!(
            d,
            [
                "points[0].p99_ps: 5 -> 7",
                "points[1].strategy: (absent) -> \"cpu\""
            ]
        );
        assert!(field_diffs("not json", &mk(5, false)).is_none());
    }

    #[test]
    fn diff_paths_compares_files_and_actual_manifest_subsets() {
        let golden = scratch("diff-golden");
        let actual = scratch("diff-actual");
        let report = |v: u64| obj(vec![("total_ps", Json::U64(v))]).render();
        // File mode.
        fs::write(golden.join("BENCH_a.json"), report(1)).unwrap();
        fs::write(actual.join("BENCH_a.json"), report(2)).unwrap();
        let err =
            diff_paths(&golden.join("BENCH_a.json"), &actual.join("BENCH_a.json")).unwrap_err();
        assert!(err.contains("total_ps: 1 -> 2"), "{err}");
        fs::write(actual.join("BENCH_a.json"), report(1)).unwrap();
        assert!(diff_paths(&golden.join("BENCH_a.json"), &actual.join("BENCH_a.json")).is_ok());
        // Dir mode walks the actual dir's manifest: the golden dir may
        // hold more benches than the subset that ran.
        fs::write(golden.join("BENCH_extra.json"), report(9)).unwrap();
        write_manifest(&actual, &["BENCH_a.json"]);
        assert_eq!(
            diff_paths(&golden, &actual).unwrap(),
            "diff ok: 1 reports identical"
        );
        fs::write(actual.join("BENCH_a.json"), report(3)).unwrap();
        let err = diff_paths(&golden, &actual).unwrap_err();
        assert!(
            err.contains("BENCH_a.json") && err.contains("total_ps: 1 -> 3"),
            "{err}"
        );
        fs::remove_dir_all(&golden).unwrap();
        fs::remove_dir_all(&actual).unwrap();
    }

    #[test]
    fn golden_diff_quotes_field_level_drift() {
        let golden = scratch("golden-fields");
        let actual = scratch("actual-fields");
        write_manifest(&golden, &["BENCH_a.json"]);
        let report = |v: u64| obj(vec![("p50_ps", Json::U64(v))]).render();
        fs::write(golden.join("BENCH_a.json"), report(10)).unwrap();
        fs::write(actual.join("BENCH_a.json"), report(11)).unwrap();
        let err = diff_against_golden(&golden, &actual).unwrap_err();
        assert!(err.contains("p50_ps: 10 -> 11"), "{err}");
        fs::remove_dir_all(&golden).unwrap();
        fs::remove_dir_all(&actual).unwrap();
    }

    #[test]
    fn golden_diff_rejects_a_report_without_a_golden() {
        let golden = scratch("golden-unlisted");
        let actual = scratch("actual-unlisted");
        write_manifest(&golden, &["BENCH_a.json"]);
        for d in [&golden, &actual] {
            fs::write(d.join("BENCH_a.json"), "same\n").unwrap();
        }
        write_manifest(&actual, &["BENCH_a.json"]);
        assert_eq!(diff_against_golden(&golden, &actual).unwrap(), 1);
        fs::write(actual.join("BENCH_new.json"), "{}\n").unwrap();
        write_manifest(&actual, &["BENCH_a.json", "BENCH_new.json"]);
        let err = diff_against_golden(&golden, &actual).unwrap_err();
        assert!(err.contains("BENCH_new.json has no golden"), "{err}");
        assert!(!err.contains("BENCH_a.json"), "{err}");
        fs::remove_dir_all(&golden).unwrap();
        fs::remove_dir_all(&actual).unwrap();
    }

    #[test]
    fn events_per_sec_parser_reads_rendered_reports() {
        let text = perf_json(&[("engine/a", Some(123)), ("skip/me", None), ("x", Some(7))]);
        assert_eq!(
            events_per_sec_rows(&text),
            [("engine/a".to_owned(), 123), ("x".to_owned(), 7)]
        );
    }
}
