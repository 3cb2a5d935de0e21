//! Metric records, spans, process counters and a small JSON reader.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. Times
/// are mean µs per operation, counts are per operation unless the
/// README says otherwise.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("omega.parse.us", "us"),
    ("omega.dnf.us", "us"),
    ("omega.dnf.clauses_in", "count"),
    ("omega.dnf.clauses_disjoint", "count"),
    ("omega.dnf.work_clauses", "count"),
    ("omega.feasibility_checks", "count"),
    ("counting.clause_sum.us", "us"),
    ("omega.eliminate.splinters_generated", "count"),
    ("omega.eliminate.splinters_pruned", "count"),
    ("omega.eliminate.splinter_yield", "ratio"),
    ("omega.eliminate.normalize_calls", "count"),
    ("omega.eliminate.dark_shadow_clauses", "count"),
    ("counting.convex.leaf_pieces", "count"),
    ("counting.convex.split_cases", "count"),
    ("polyq.faulhaber.calls", "count"),
    ("arith.smith.calls", "count"),
    ("polyq.render.us", "us"),
    ("polyq.answer.pieces", "count"),
    ("polyq.answer.bytes", "bytes"),
    ("arith.int_promotions", "count"),
    ("arith.max_coeff_bits", "bits"),
    ("trace.memo.hits", "count"),
    ("trace.memo.misses", "count"),
    ("trace.memo.hit_rate", "ratio"),
    ("trace.memo.bytes_peak", "bytes"),
    ("serve.codec.text_parse_us", "us"),
    ("serve.codec.binary_roundtrip_us", "us"),
    ("serve.transport.overhead_us", "us"),
    ("serve.route.hash_us", "us"),
    ("serve.admission.shed_frac", "ratio"),
    ("serve.queue.wait_us_mean", "us"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.engine.service_us_mean", "us"),
    ("serve.engine.govern_overhead_us_mean", "us"),
    ("serve.engine.splinters_mean", "count"),
    ("serve.memo.hit_rate", "ratio"),
    ("serve.memo.shared_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
];

/// How one answer compares with what was due.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    /// `ERR`, `SHED`, a bounded answer where an exact one was due, or an
    /// engine error.
    Failed,
    /// An exact answer that is wrong: it disagrees with brute force, or
    /// its bytes differ from the library's answer to the same text.
    Wrong,
}

/// Operations attempted and how many failed; wrong answers are failures
/// too, and any one of them makes the run incorrect.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Ok => {}
            Verdict::Failed => self.failed += 1,
            Verdict::Wrong => {
                self.failed += 1;
                self.wrong += 1;
            }
        }
    }

    /// Marks `n` already-attempted operations wrong (found by the oracle
    /// after the timed phase).
    pub fn mark_wrong(&mut self, n: u64) {
        self.failed += n;
        self.wrong += n;
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Named metric values collected by a run, checked against a metric
/// list when the result is rendered.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn extend(&mut self, other: Metrics) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `"metrics"` object for `list`, in list order, every value with
    /// all the digits of Rust's shortest round-trip formatting.
    ///
    /// # Panics
    ///
    /// Panics when a listed metric was never set or is not finite: every
    /// run must report every metric of its kind, as a JSON number.
    pub fn to_json(&self, list: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self
                .get(name)
                .filter(|v| v.is_finite())
                .unwrap_or_else(|| panic!("metric {name} was not measured: {:?}", self.get(name)));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; `xs` need not be sorted.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A point in a measured phase where a window may end.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Operations completed so far.
    pub ops: usize,
    /// Seconds since the phase started.
    pub t_s: f64,
    /// Process CPU seconds so far.
    pub cpu_s: f64,
}

/// One window's end-to-end figures.
struct Window {
    throughput: f64,
    p50: f64,
    p90: f64,
    cpu_ms_per_op: f64,
}

/// A measured phase: every operation's latency plus window marks.
///
/// End-to-end figures are computed per window and reported as the
/// median over windows. Other tenants of a shared host slow memory-heavy
/// code by up to a third for stretches of seconds to minutes (a pure-ALU
/// loop stays within ±5% meanwhile); a stretch shorter than half the run
/// moves a minority of the windows, not the reported value.
pub struct Measured {
    pub latencies_ms: Vec<f64>,
    pub marks: Vec<Mark>,
    pub peak_rss_mb: f64,
}

impl Measured {
    pub fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn cpu_s(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.cpu_s) - self.marks[0].cpu_s
    }

    /// Splits the phase at marks into windows of at least `min_s`
    /// seconds and `min_ops` operations; a short tail joins the last
    /// window.
    fn windows(&self, min_s: f64, min_ops: usize) -> Vec<Window> {
        let mut cuts = vec![self.marks[0]];
        for m in &self.marks[1..] {
            let last = cuts[cuts.len() - 1];
            if m.t_s - last.t_s >= min_s && m.ops - last.ops >= min_ops {
                cuts.push(*m);
            }
        }
        let end = *self.marks.last().expect("a phase has marks");
        if cuts.len() > 1 && end.ops > cuts[cuts.len() - 1].ops {
            let n = cuts.len();
            cuts[n - 1] = end;
        } else if cuts.len() == 1 {
            cuts.push(end);
        }
        cuts.windows(2)
            .filter(|w| w[1].ops > w[0].ops)
            .map(|w| {
                let lat = &self.latencies_ms[w[0].ops..w[1].ops];
                let ops = lat.len() as f64;
                Window {
                    throughput: ops / (w[1].t_s - w[0].t_s),
                    p50: quantile(lat, 0.5),
                    p90: quantile(lat, 0.9),
                    cpu_ms_per_op: (w[1].cpu_s - w[0].cpu_s) * 1e3 / ops,
                }
            })
            .collect()
    }

    /// The end-to-end metrics (all but `setup_s`): each the median over
    /// windows of at least `min_s` seconds and `min_ops` operations.
    pub fn end_to_end(&self, min_s: f64, min_ops: usize) -> Metrics {
        let w = self.windows(min_s, min_ops);
        let median = |f: fn(&Window) -> f64| quantile(&w.iter().map(f).collect::<Vec<_>>(), 0.5);
        let mut m = Metrics::default();
        m.set("throughput_qps", median(|w| w.throughput));
        m.set("latency_p50_ms", median(|w| w.p50));
        m.set("latency_p90_ms", median(|w| w.p90));
        m.set("cpu_ms_per_op", median(|w| w.cpu_ms_per_op));
        m.set("peak_rss_mb", self.peak_rss_mb);
        m
    }
}

/// Records a closed loop's operations and marks.
pub struct Recorder {
    start: Instant,
    last_mark: Instant,
    latencies_ms: Vec<f64>,
    marks: Vec<Mark>,
}

impl Recorder {
    pub fn start() -> Recorder {
        let start = Instant::now();
        Recorder {
            start,
            last_mark: start,
            latencies_ms: Vec::new(),
            marks: vec![Mark {
                ops: 0,
                t_s: 0.0,
                cpu_s: cpu_seconds(),
            }],
        }
    }

    pub fn op(&mut self, latency_ms: f64) {
        self.latencies_ms.push(latency_ms);
    }

    pub fn ops(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// A window may end here.
    pub fn mark(&mut self) {
        let now = Instant::now();
        self.last_mark = now;
        self.marks.push(Mark {
            ops: self.latencies_ms.len(),
            t_s: (now - self.start).as_secs_f64(),
            cpu_s: cpu_seconds(),
        });
    }

    /// A window may end here; cheap to call after every operation (it
    /// marks at most every 20 ms).
    pub fn maybe_mark(&mut self) {
        if self.last_mark.elapsed() >= std::time::Duration::from_millis(20) {
            self.mark();
        }
    }

    pub fn finish(mut self) -> Measured {
        self.mark();
        Measured {
            latencies_ms: self.latencies_ms,
            marks: self.marks,
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// CPU time (user + system) of the whole process, all threads, in
/// seconds, with nanosecond resolution.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux) that outlives the call, and CLOCK_PROCESS_CPUTIME_ID is a
    // clock every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU affinity of the calling thread; threads it starts afterwards
/// inherit it.
#[cfg(target_os = "linux")]
pub mod affinity {
    /// A `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    const SIZE: usize = std::mem::size_of::<CpuSet>();

    extern "C" {
        fn sched_getaffinity(
            pid: std::ffi::c_int,
            size: usize,
            mask: *mut CpuSet,
        ) -> std::ffi::c_int;
        fn sched_setaffinity(
            pid: std::ffi::c_int,
            size: usize,
            mask: *const CpuSet,
        ) -> std::ffi::c_int;
    }

    /// The CPUs the calling thread may run on, lowest first.
    pub fn allowed() -> Result<Vec<usize>, String> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly SIZE bytes that
        // outlives the call; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, SIZE, &mut mask) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        let cpus: Vec<usize> = (0..SIZE * 8)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if cpus.is_empty() {
            return Err("no CPU allowed".to_string());
        }
        Ok(cpus)
    }

    /// Restricts the calling thread to `cpus` (each below 1024).
    pub fn set(cpus: &[usize]) -> Result<(), String> {
        let mut mask: CpuSet = [0; 16];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly SIZE bytes that
        // outlives the call; pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, SIZE, &mask) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        Ok(())
    }

    /// Restricts the calling thread to its lowest allowed CPU; returns it.
    pub fn pin_to_one() -> Result<usize, String> {
        let cpu = allowed()?[0];
        set(&[cpu])?;
        Ok(cpu)
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One bench-side span around a call into a layer.
struct Span {
    trace_id: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory during a traced run and written as JSONL when it
/// ends. Within one trace, span names are unique, so a parent is named.
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        trace_id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.list.push(Span {
            trace_id,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.list.len() * 96);
        for s in &self.list {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"trace_id\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace_id, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// A parsed JSON value (only what the benchmark reads back: its own
/// result lines, the server's event log and `BENCHMARK.json`).
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
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
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

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
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
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
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
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                _ => out.push(b),
            }
        }
        Err("unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn windows_report_medians_and_absorb_a_short_tail() {
        let mark = |ops, t_s, cpu_s| Mark { ops, t_s, cpu_s };
        let m = Measured {
            // Window 1 is slow (10 ms ops), windows 2 and 3 fast (1 ms).
            latencies_ms: [vec![10.0; 10], vec![1.0; 100], vec![1.0; 100], vec![1.0; 5]].concat(),
            marks: vec![
                mark(0, 0.0, 0.0),
                mark(10, 0.1, 0.1),
                mark(110, 0.2, 0.2),
                mark(210, 0.3, 0.3),
                mark(215, 0.305, 0.305),
            ],
            peak_rss_mb: 1.0,
        };
        let w = m.windows(0.1, 1);
        assert_eq!(w.len(), 3, "the 5-op tail joins the last window");
        let e = m.end_to_end(0.1, 1);
        assert_eq!(e.get("latency_p50_ms"), Some(1.0));
        assert_eq!(e.get("throughput_qps"), Some(1000.0));
        assert_eq!(m.ops(), 215);
    }

    #[test]
    fn json_round_trip() {
        let v = Json::parse(r#"{"a": [1, 2.5e3, -3], "b": {"c": "x\"y"}, "d": true, "e": null}"#)
            .expect("valid JSON");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2500.0),
                Json::Num(-3.0)
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::str),
            Some("x\"y")
        );
        assert!(Json::parse("{\"a\": 1,}").is_err());
    }

    #[test]
    fn process_counters_are_live() {
        let t0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_seconds() > t0, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
