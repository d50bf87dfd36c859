//! `benchmark compare <runs-a> <runs-b>`: medians, quartiles and a verdict
//! per metric and workload, against the bounds in `BENCHMARK.json`.
//!
//! A runs directory holds one file per run: the run's standard output,
//! named after its workload (`pingpong_cells.3.out`, ...). The last line of
//! each file is the run's JSON result.

use crate::measure::{median, quartiles};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;

/// A parsed JSON value (numbers as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    b"true" => Ok(Json::Bool(true)),
                    b"false" => Ok(Json::Bool(false)),
                    b"null" => Ok(Json::Null),
                    tok => std::str::from_utf8(tok)
                        .ok()
                        .and_then(|t| t.parse::<f64>().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad token at byte {start}")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    out.push(match c {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => *other,
                    });
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json` of this checkout.
pub fn benchmark_json() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// The end-to-end and per-layer metrics `BENCHMARK.json` declares.
pub fn declared(bench: &Json) -> (Vec<Declared>, Vec<Declared>) {
    let list = |key: &str| {
        bench
            .get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect::<Vec<_>>()
    };
    (list("end_to_end"), list("per_layer"))
}

/// metric → values, per workload, from every run file in `dir`.
type Runs = BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>;

fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(w) = Workload::ALL
            .into_iter()
            .filter(|w| file.starts_with(w.name()))
            .max_by_key(|w| w.name().len())
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
        // An empty file (say, a run's captured stderr) holds no result.
        let Some(last) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
            continue;
        };
        let result = Json::parse(last).map_err(|e| format!("{file}: last line: {e}"))?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{file}: no metrics"));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(w.name())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// The verdict on one metric of one workload (choosing-metrics §6.5, §8).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 || mb == 0.0 {
        return "unresolved";
    }
    let spread = |v: &[f64], m: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / m
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let worse_by = if lower_is_better {
        mb / ma - 1.0
    } else {
        1.0 - mb / ma
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a, ma).max(spread(b, mb)) > bound {
        return if all_b_better { "better" } else { "unresolved" };
    }
    if worse_by > bound {
        return "worse";
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    if -worse_by > spread(a, ma) && pairs > 0 && wins * 10 >= pairs * 9 {
        "better"
    } else {
        "unchanged"
    }
}

/// Print the comparison of two runs directories; `Err` on unreadable input.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<(), String> {
    let bench = benchmark_json()?;
    let (e2e, layers) = declared(&bench);
    let (a, b) = (load_runs(dir_a)?, load_runs(dir_b)?);
    println!(
        "{:<18} {:<28} {:>38} {:>38} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta"
    );
    for w in Workload::ALL {
        let (Some(ra), Some(rb)) = (a.get(w.name()), b.get(w.name())) else {
            continue;
        };
        for d in e2e.iter().chain(&layers) {
            let (Some(va), Some(vb)) = (ra.get(&d.name), rb.get(&d.name)) else {
                continue;
            };
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
            };
            let delta = (median(vb) / median(va) - 1.0) * 100.0;
            let verdict = d
                .bound
                .map_or("-", |bound| verdict(va, vb, d.lower_is_better, bound));
            println!(
                "{:<18} {:<28} {:>38} {:>38} {:>+7.2}%  {verdict}",
                w.name(),
                format!("{} ({})", d.name, d.unit),
                side(va),
                side(vb),
                delta
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.25e0, "unit": "s"}}}"#;
        let j = Json::parse(line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let wall = j.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert!(Json::parse("{\"a\": }").is_err());
    }

    #[test]
    fn verdicts_respect_bound_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&base, &base, true, 0.1), "unchanged");
        assert_eq!(verdict(&base, &slower, true, 0.1), "worse");
        assert_eq!(verdict(&base, &faster, true, 0.1), "better");
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0];
        assert_eq!(verdict(&noisy, &base, true, 0.1), "unresolved");
    }
}
