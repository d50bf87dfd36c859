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
//! - [`check_ceilings`]: the simulator's per-layer host timings, read
//!   from the result lines of the benchmark's traced full-size run
//!   (`benchmark --workload W --trace 1`), stay at or below the recorded
//!   ceilings, its pinned counts (the traced census: events, allocations
//!   and bytes allocated) read exactly their recorded values, and every
//!   cell of each run completed and verified. The ceilings sit at 3x the
//!   reference box's median, so runner noise does not trip them; a
//!   complexity-class slowdown of the calendar does. The census is
//!   deterministic, so any allocation a change moves fails it.
//!
//! When a comparison fails, [`field_diffs`] parses both reports with the
//! built-in mini JSON reader and names the exact leaf fields that moved
//! (`points[3].p99_ps: 1200 -> 1350`) instead of a bare "files differ" —
//! the difference between a CI log that diagnoses a determinism break and
//! one that just announces it. [`diff_paths`] wraps the same machinery as
//! a standalone gate over files or whole report dirs.

use crate::report::{self, Json};
use std::fs;
use std::path::Path;

/// Parse a bench report back into the [`Json`] that rendered it. Reports
/// only ever contain unsigned integers, booleans, strings, arrays, and
/// objects; anything else (floats, nulls — e.g. a Chrome trace from
/// another tool) is `Err`, and a caller comparing reports falls back to
/// bytes.
pub fn parse_json(text: &str) -> Result<Json, String> {
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
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
                        return Ok(Json::Obj(fields));
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
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
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
                .map(Json::U64)
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
pub fn flatten(v: &Json, prefix: &str, out: &mut Vec<(String, String)>) {
    match v {
        Json::U64(n) => out.push((prefix.to_owned(), n.to_string())),
        Json::Bool(x) => out.push((prefix.to_owned(), x.to_string())),
        Json::Str(t) => out.push((prefix.to_owned(), format!("{t:?}"))),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &format!("{prefix}[{i}]"), out);
            }
        }
        Json::Obj(fields) => {
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

/// Check the traced benchmark runs in `dir` against `ceilings`, a file
/// of `{"<workload>": {"<metric>": {"max": N} or {"eq": N}}}`.
/// `<dir>/<workload>.json` holds the last line that
/// `benchmark --workload <workload> --trace 1` printed: one JSON object
/// with `correct`, `failed` and every per-layer metric as
/// `"<metric>": {"value": V, ...}`. A workload passes when its line reads
/// `"correct": true` and `"failed": 0` and each metric with a bound is
/// present and at or below its `max`, or equal to its `eq`. Returns the
/// number of values checked; `Err` names every failure.
pub fn check_ceilings(ceilings: &Path, dir: &Path) -> Result<usize, String> {
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let workloads = match parse_json(&read(ceilings)?)? {
        Json::Obj(w) if !w.is_empty() => w,
        _ => return Err(format!("{} names no workload", ceilings.display())),
    };
    let (mut checked, mut failures) = (0, Vec::new());
    for (workload, metrics) in &workloads {
        let Json::Obj(metrics) = metrics else {
            return Err(format!("{workload}: ceilings are not an object"));
        };
        let line = match read(&dir.join(format!("{workload}.json"))) {
            Ok(line) => line,
            Err(e) => {
                failures.push(format!("{workload}: {e}"));
                continue;
            }
        };
        for flag in ["\"correct\": true", "\"failed\": 0"] {
            if !line.contains(&format!("{flag},")) {
                failures.push(format!("{workload}: the line lacks {flag}"));
            }
        }
        for (metric, ceiling) in metrics {
            let bound = bound_of(ceiling)
                .ok_or(format!("{workload}: {metric} has no integer max or eq"))?;
            match (metric_value(&line, metric), bound) {
                (None, _) => failures.push(format!("{workload}: {metric} is missing")),
                (Some(v), Bound::Max(max)) if v > max as f64 => failures.push(format!(
                    "{workload}: {metric} = {v} is above its max of {max}"
                )),
                (Some(v), Bound::Eq(pin)) if v != pin as f64 => failures.push(format!(
                    "{workload}: {metric} = {v} is not its pinned {pin}"
                )),
                (Some(_), _) => checked += 1,
            }
        }
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(format!(
            "traced benchmark runs fail their ceilings:\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// A metric's recorded bound in the ceilings file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// `{"max": N}`: a ceiling.
    Max(u64),
    /// `{"eq": N}`: a pinned count.
    Eq(u64),
}

/// The bound of `{"max": N}` or `{"eq": N}`.
fn bound_of(ceiling: &Json) -> Option<Bound> {
    let Json::Obj(fields) = ceiling else {
        return None;
    };
    match fields.as_slice() {
        [(k, Json::U64(n))] if k == "max" => Some(Bound::Max(*n)),
        [(k, Json::U64(n))] if k == "eq" => Some(Bound::Eq(*n)),
        _ => None,
    }
}

/// The number after `"<metric>": {"value": ` in a benchmark result line.
fn metric_value(line: &str, metric: &str) -> Option<f64> {
    let key = format!("\"{metric}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
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

    /// A result line as `benchmark --trace 1` prints it last.
    fn layer_line(correct: bool, failed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"ns\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": 8, \"failed\": {failed}, \"metrics\": {{{}}}}}\n",
            metrics.join(", ")
        )
    }

    /// Ceilings for two workloads, and a run dir whose lines sit exactly
    /// at the ring's ceilings and below the mesh's.
    fn ceilings_fixture(tag: &str) -> (PathBuf, PathBuf) {
        let dir = scratch(tag);
        let ceilings = dir.join("ceilings.json");
        fs::write(
            &ceilings,
            r#"{"ring": {"sim.calendar_ns_per_event": {"max": 90}, "nic.trigger_ns_per_op": {"max": 250}},
                "mesh": {"sim.calendar_ns_per_event": {"max": 60}}}"#,
        )
        .unwrap();
        let runs = dir.join("runs");
        fs::create_dir_all(&runs).unwrap();
        let ring = [
            ("sim.events", 5e6),
            ("sim.calendar_ns_per_event", 90.0),
            ("nic.trigger_ns_per_op", 250.0),
        ];
        fs::write(runs.join("ring.json"), layer_line(true, 0, &ring)).unwrap();
        let mesh = [("sim.calendar_ns_per_event", 12.25)];
        fs::write(runs.join("mesh.json"), layer_line(true, 0, &mesh)).unwrap();
        (ceilings, runs)
    }

    #[test]
    fn ceilings_pass_at_and_below_each_max() {
        let (ceilings, runs) = ceilings_fixture("ceilings-pass");
        assert_eq!(check_ceilings(&ceilings, &runs).unwrap(), 3);
        fs::remove_dir_all(runs.parent().unwrap()).unwrap();
    }

    #[test]
    fn ceilings_name_each_workload_and_metric_that_fails() {
        let (ceilings, runs) = ceilings_fixture("ceilings-fail");
        let fails = |line: String, want: &str| {
            fs::write(runs.join("ring.json"), line).unwrap();
            let err = check_ceilings(&ceilings, &runs).unwrap_err();
            assert!(err.contains(want), "{err}");
            assert!(!err.contains("mesh"), "{err}");
        };
        let ok = [
            ("sim.calendar_ns_per_event", 1.0),
            ("nic.trigger_ns_per_op", 1.0),
        ];
        fails(
            layer_line(true, 0, &[ok[0], ("nic.trigger_ns_per_op", 250.5)]),
            "ring: nic.trigger_ns_per_op = 250.5 is above its max of 250",
        );
        fails(
            layer_line(true, 0, &ok[..1]),
            "ring: nic.trigger_ns_per_op is missing",
        );
        fails(
            layer_line(false, 0, &ok),
            "ring: the line lacks \"correct\": true",
        );
        fails(
            layer_line(true, 1, &ok),
            "ring: the line lacks \"failed\": 0",
        );
        fails(String::new(), "ring: sim.calendar_ns_per_event is missing");
        fs::remove_file(runs.join("ring.json")).unwrap();
        let err = check_ceilings(&ceilings, &runs).unwrap_err();
        assert!(err.contains("ring: ") && err.contains("ring.json"), "{err}");
        fs::remove_dir_all(runs.parent().unwrap()).unwrap();
    }

    #[test]
    fn pinned_counts_pass_only_when_equal() {
        let dir = scratch("ceilings-eq");
        let ceilings = dir.join("ceilings.json");
        fs::write(
            &ceilings,
            r#"{"ring": {"alloc.count": {"eq": 538272}, "sim.calendar_ns_per_event": {"max": 90}}}"#,
        )
        .unwrap();
        let runs = dir.join("runs");
        fs::create_dir_all(&runs).unwrap();
        let line = |count: f64| {
            layer_line(
                true,
                0,
                &[("alloc.count", count), ("sim.calendar_ns_per_event", 12.0)],
            )
        };
        fs::write(runs.join("ring.json"), line(538_272.0)).unwrap();
        assert_eq!(check_ceilings(&ceilings, &runs).unwrap(), 2);
        for off_by_one in [538_271.0, 538_273.0] {
            fs::write(runs.join("ring.json"), line(off_by_one)).unwrap();
            let err = check_ceilings(&ceilings, &runs).unwrap_err();
            assert!(
                err.contains(&format!(
                    "ring: alloc.count = {off_by_one} is not its pinned 538272"
                )),
                "{err}"
            );
            assert!(!err.contains("calendar"), "{err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bound_is_one_max_or_one_eq() {
        for (text, bound) in [
            (r#"{"max": 7}"#, Some(Bound::Max(7))),
            (r#"{"eq": 7}"#, Some(Bound::Eq(7))),
            (r#"{"min": 7}"#, None),
            (r#"{"max": 7, "eq": 7}"#, None),
            (r#"{"eq": "7"}"#, None),
        ] {
            assert_eq!(bound_of(&parse_json(text).unwrap()), bound, "{text}");
        }
    }

    /// The `"name"`s of one of `BENCHMARK.json`'s lists, one entry a line.
    fn declared(bench: &str, list: &str) -> Vec<String> {
        bench
            .lines()
            .skip_while(|l| !l.contains(&format!("\"{list}\": [")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .filter_map(|l| l.split("{\"name\": \"").nth(1)?.split('"').next())
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn layer_ceilings_cover_the_benchmark_workloads_with_its_layer_metrics() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let bench = fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let text = fs::read_to_string(root.join("bench-baselines/layer_ceilings.json")).unwrap();
        let Json::Obj(ceilings) = parse_json(&text).unwrap() else {
            panic!("layer_ceilings.json is not an object");
        };
        let workloads: Vec<&str> = ceilings.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(workloads, declared(&bench, "workloads"));
        let layers = declared(&bench, "per_layer");
        assert!(layers.len() > 4, "{layers:?}");
        for (workload, metrics) in &ceilings {
            let Json::Obj(metrics) = metrics else {
                panic!("{workload}: ceilings are not an object");
            };
            assert!(!metrics.is_empty(), "{workload}");
            for (metric, ceiling) in metrics {
                assert!(
                    layers.contains(metric),
                    "{workload}: {metric} is not per_layer"
                );
                assert!(bound_of(ceiling).is_some(), "{workload}: {metric}");
            }
        }
    }
}
