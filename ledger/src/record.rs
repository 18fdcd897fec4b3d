//! What a run reports and where it goes: the metric tables (the single
//! source of `BENCHMARK.json`), the run record with its host facts, the
//! result line, and a small JSON reader for `compare`.

use std::fmt::Write as _;
use std::path::Path;

/// Bumped whenever a result's fields or a metric's definition change.
pub const SCHEMA_VERSION: u32 = 1;

/// How long one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The workloads `BENCHMARK.json` lists: the ones whose end-to-end figures
/// repeat within their bounds on a shared two-core virtual machine.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "serve-hot",
        "open-loop Zipf queries over a unix socket, all memo hits inline on the event loop: client, wire, event loop and memo only",
    ),
    (
        "build",
        "closed-loop cold catalogue in a fresh store: explore, generate, fsync'd puts, fw>rt folds and fw>fw>rt plans",
    ),
];

/// Every workload the harness runs: the listed ones plus `serve-churn`,
/// whose query latency moves between runs by more than any admissible
/// bound on such a host; its figures are recorded and compared, not gated.
pub const ALL_WORKLOADS: [&str; 3] = ["serve-hot", "serve-churn", "build"];

/// End-to-end metrics, reported by every workload from its untraced run:
/// the ones steady enough on a shared two-core host for a run-to-run
/// bound. `latency_p50_us` is one query from its scheduled send to its
/// decoded reply at the nominal rate (serve-*), or one
/// `Pipeline::parallelize` of firewall→firewall→static_router into the
/// catalogue's store (build).
pub const END_TO_END: [MetricDef; 3] = [
    m("latency_p50_us", "us", Lower, 0.25),
    m("peak_rss_mb", "MiB", Lower, 0.2),
    m("setup_s", "s", Lower, 0.25),
];

/// Per-workload end-to-end figures: printed, recorded and judged by
/// `compare` against these bounds, but not in `BENCHMARK.json`, because
/// each exists on one kind of workload only or (tails, capacity, the
/// fsync-bound contract and catalogue times) moves with the host more
/// than any admissible bound.
pub const NAMED: [MetricDef; 14] = [
    m("query_p50_us", "us", Lower, 0.25),
    m("query_p90_us", "us", Lower, 0.25),
    m("query_p99_us", "us", Lower, 0.25),
    m("query_max_rate", "1/s", Higher, 0.25),
    m("cpu_us_per_query", "us", Lower, 0.25),
    m("gen_lag_p99_us", "us", Lower, 0.25),
    m("contract_p50_ms", "ms", Lower, 0.25),
    m("contract_p99_ms", "ms", Lower, 0.25),
    m("chain_p50_ms", "ms", Lower, 0.25),
    m("plan_p50_ms", "ms", Lower, 0.25),
    m("catalogue_p50_ms", "ms", Lower, 0.25),
    m("catalogue_per_s", "1/s", Higher, 0.25),
    m("cpu_ms_per_catalogue", "ms", Lower, 0.25),
    m("fail_ratio", "ratio", Lower, 0.0),
];

/// Per-layer metrics, reported by every workload from its traced run. A
/// layer a workload never enters reads 0 there (for instance every
/// `client.*` figure on `build`, every `see.*` figure on `serve-*`).
pub const PER_LAYER: [(&str, &str, Better); 35] = [
    ("client.submit_us", "us", Lower),
    ("client.recv_us", "us", Lower),
    ("client.rtt_us", "us", Lower),
    ("server.read_us", "us", Lower),
    ("service.handle_us", "us", Lower),
    ("server.write_us", "us", Lower),
    ("wire.unattributed_us", "us", Lower),
    ("cache.memo_hit_ratio", "ratio", Higher),
    ("cache.hit_ratio", "ratio", Higher),
    ("cache.evictions_per_kq", "1/kq", Lower),
    ("store.decodes_per_kq", "1/kq", Lower),
    ("solver.passes_per_kq", "1/kq", Lower),
    ("gen.lag_p99_us", "us", Lower),
    ("store.get_us", "us", Lower),
    ("store.decode_us", "us", Lower),
    ("store.put_us", "us", Lower),
    ("store.get_or_explore_us", "us", Lower),
    ("see.explore_us", "us", Lower),
    ("contract.generate_us", "us", Lower),
    ("store.put_contract_us", "us", Lower),
    ("solver.explore_checks", "count", Lower),
    ("solver.explore_queries", "count", Lower),
    ("solver.explore_full_solve_ratio", "ratio", Lower),
    ("solver.compose_checks", "count", Lower),
    ("solver.compose_queries", "count", Lower),
    ("solver.compose_full_solve_ratio", "ratio", Lower),
    ("explore.runs", "count", Lower),
    ("explore.terms_interned", "count", Lower),
    ("composer.compose_us", "us", Lower),
    ("compose.pairs_checked", "count", Lower),
    ("compose.steps", "count", Lower),
    ("composer.plan_self_ms", "ms", Lower),
    ("composer.chain_self_ms", "ms", Lower),
    ("catalogue.unattributed_us", "us", Lower),
    ("trace.overhead_ratio", "ratio", Lower),
];

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// The `BENCHMARK.json` these tables describe.
pub fn manifest() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n  \"paths\": [\"ledger\"],\n",
    );
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"why\": \"{}\"}}{sep}",
            escape(why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            d.better.word(),
            d.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}",
            better.word()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Value {
    pub fn new(name: &str, value: f64, unit: &str) -> Value {
        Value {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate that failed, in words.
    pub gate_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists (end-to-end or per-layer).
    pub metrics: Vec<Value>,
    /// The other end-to-end figures of an untraced run (`NAMED`).
    pub named: Vec<Value>,
    /// Human-readable report lines (printed before the result line).
    pub report: Vec<String>,
    /// A traced run's spans, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

/// Facts about the host and the code a result was measured on.
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub kernel: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
        // Only trust git when the checkout is itself the repository root,
        // so a benchmark copied into some other repository reports nothing
        // rather than that repository's commit.
        let commit = match (
            command_line("git", &["rev-parse", "--show-toplevel"]),
            std::env::current_dir()
                .ok()
                .and_then(|d| d.canonicalize().ok()),
        ) {
            (Some(top), Some(cwd))
                if Path::new(&top).canonicalize().ok().as_ref() == Some(&cwd) =>
            {
                command_line("git", &["rev-parse", "HEAD"])
            }
            _ => None,
        }
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            nproc,
            rustc,
            commit,
            kernel,
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn values_json(values: &[Value]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&v.name),
                v.value,
                escape(&v.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line a run prints.
pub fn result_line(correct: bool, o: &Outcome) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        values_json(&o.metrics)
    )
}

pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The full record appended to the results log.
pub fn record_line(host: &Host, run: &RunInfo<'_>, correct: bool, o: &Outcome) -> String {
    let failures: Vec<String> = o
        .gate_failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    format!(
        "{{\"schema\": {SCHEMA_VERSION}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"kernel\": \"{}\", \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"gate_failures\": [{}], \
         \"metrics\": {}, \"named\": {}}}",
        escape(run.workload),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        host.nproc,
        escape(&host.rustc),
        escape(&host.commit),
        escape(&host.kernel),
        o.attempted,
        o.failed,
        failures.join(", "),
        values_json(&o.metrics),
        values_json(&o.named),
    )
}

/// A parsed JSON value (enough of JSON for result records).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
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
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(
                                self.b.get(self.i..self.i + 4).ok_or("short \\u")?,
                            )
                            .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Copy the whole UTF-8 sequence starting at this byte.
                    let start = self.i - 1;
                    let len = match c {
                        0xF0..=0xFF => 4,
                        0xE0..=0xEF => 3,
                        0xC0..=0xDF => 2,
                        _ => 1,
                    };
                    let end = (start + len).min(self.b.len());
                    out.push_str(&String::from_utf8_lossy(&self.b[start..end]));
                    self.i = end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `-- manifest`");
        let parsed = Json::parse(&committed).unwrap();
        assert_eq!(
            parsed.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
    }

    #[test]
    fn metric_names_are_unique_and_bounds_in_range() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn result_lines_parse_back() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Value::new("latency_p50_us", 12.345678, "us")],
            ..Outcome::default()
        };
        let v = Json::parse(&result_line(true, &o)).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap().get("latency_p50_us").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(12.345678));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(
            Json::parse(r#"{"a": [1, -2.5e3, "x\"yé"], "b": null}"#).unwrap(),
            Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![
                        Json::Num(1.0),
                        Json::Num(-2500.0),
                        Json::Str("x\"yé".into())
                    ])
                ),
                ("b".into(), Json::Null),
            ])
        );
    }
}
