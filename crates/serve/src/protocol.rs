//! The wire protocol: newline-delimited requests, one-line responses.
//!
//! # Request grammar (one request per line)
//!
//! ```text
//! request  := query | "ping" [SP id] | "stats" | "metrics" | "stats/v2"
//!           | "flightrec" | "shards" | "drain"
//! query    := "count" SP id option* SP body
//!           | "sum"   SP id option* SP poly SP body
//! option   := SP key "=" value          (keys below)
//! poly     := affine expression text    (e.g. "x + 2y")
//! body     := "{" vars ":" formula "}"
//! vars     := name ("," name)*
//! formula  := the `.pres` formula syntax of `presburger_omega::parse`
//! ```
//!
//! Blank lines and lines starting with `#` are ignored. Option keys:
//! `deadline_ms`, `max_splinters`, `max_dnf_clauses`, `max_depth`,
//! `max_pieces`, `max_coeff_bits`, `threads` (accepted and ignored: the
//! engine sums on the worker's own thread), `prio` (a priority lane:
//! `interactive`, `batch` or `background` — see [`crate::admission`]),
//! and `client` (a quota identity, same charset as an id; defaults to
//! a connection-scoped identity when quotas are on).
//!
//! # Response grammar (exactly one line per request, in request order
//! per connection)
//!
//! ```text
//! response := "OK" SP id SP "exact" SP value
//!           | "OK" SP id SP "bounded" SP why SP value SP ";" SP value
//!           | "ERR" SP id SP kind SP detail
//!           | "SHED" SP id SP "retry_after_ms=" INT SP "reason=" reason
//!           | "PONG" [SP id] | "STATS" SP counters | "BYE"
//! reason   := cause (":" detail)*
//! cause    := "queue_full" | "draining" | "quota"
//! ```
//!
//! A `reason` is always a single space-free token. Its first
//! colon-separated segment is the shed *cause*; with
//! [`AdmissionConfig::detail`](crate::admission::AdmissionConfig) the
//! server appends the shedding lane and the computed wait
//! (`reason=quota:lane=batch:wait_ms=200`). Clients that only care
//! about the cause match the prefix up to the first `:`
//! ([`crate::retry::shed_cause`]).
//!
//! `why` on a bounded reply is the
//! [`CountError::kind`](presburger_counting::CountError::kind) that degraded
//! the exact pass (`budget`, `deadline`, …), `breaker_open` when the
//! circuit breaker pre-degraded the request, `cancelled` when a drain
//! deadline bounded in-flight work, `evicted` when its deadline lapsed
//! before it ran, or `failover` when it outlived its shard. Replies are
//! typed values ([`crate::wire::Reply`]) that both codecs render.
//!
//! Three verbs answer with a *multi-line* block instead of a single
//! line, each terminated by a `# EOF` line so a client knows where the
//! block ends: `metrics` (alias `stats/v2`) returns the request-scoped
//! telemetry registry in Prometheus text exposition format, `flightrec`
//! dumps the slow-request flight recorder as one JSON object per line
//! (see `server::telemetry` and DESIGN.md §12), and `shards` reports
//! per-shard supervision state (`SHARDS shards=N` followed by one
//! `shard=<i> …` row per shard — see `server::shard` and DESIGN.md
//! §14). The legacy one-line `stats` remains unchanged: a one-shard
//! pool answers with its shard's counters, a larger pool with a
//! `STATS shards=N …` aggregate.

use crate::admission::Lane;
use presburger_counting::Budgets;
use std::fmt;
use std::time::Duration;

/// Longest accepted request id.
pub const MAX_ID_LEN: usize = 64;

/// Longest accepted request line, a cheap guard against garbage floods.
pub const MAX_LINE_LEN: usize = 64 * 1024;

/// The query verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Count solutions (`(Σ V : P : 1)`).
    Count,
    /// Sum a polynomial (`(Σ V : P : z)`).
    Sum,
}

/// Per-request governor overrides; `None` fields inherit the server
/// defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overrides {
    /// Wall-clock deadline for this request, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Cap on §5.2 splinters per clause.
    pub max_splinters: Option<u64>,
    /// Cap on §2.5 DNF work clauses.
    pub max_dnf_clauses: Option<u64>,
    /// Cap on elimination recursion depth.
    pub max_depth: Option<u64>,
    /// Cap on guarded pieces.
    pub max_pieces: Option<u64>,
    /// Cap on coefficient bit-length.
    pub max_coeff_bits: Option<u64>,
    /// Priority lane (`prio=`); `None` rides the default `batch` lane.
    pub prio: Option<Lane>,
}

impl Overrides {
    /// Merges these overrides over `base` budgets (an override wins
    /// over the corresponding base field; the base deadline is used
    /// when no `deadline_ms` override is present).
    pub fn budgets(&self, base: &Budgets) -> Budgets {
        Budgets {
            deadline: self
                .deadline_ms
                .map(Duration::from_millis)
                .or(base.deadline),
            max_splinters: self.max_splinters.or(base.max_splinters),
            max_dnf_clauses: self.max_dnf_clauses.or(base.max_dnf_clauses),
            max_depth: self.max_depth.or(base.max_depth),
            max_pieces: self.max_pieces.or(base.max_pieces),
            max_coeff_bits: self.max_coeff_bits.or(base.max_coeff_bits),
        }
    }

    /// A canonical `key=value` rendering for the cache key (budget
    /// overrides change whether an answer is exact or bounded, so
    /// requests with different overrides must not share cache entries).
    /// `prio` and `client` are deliberately excluded: admission
    /// metadata never changes the answer, so all lanes and clients
    /// share one cache entry per canonical query.
    pub fn cache_key_part(&self) -> String {
        let mut out = String::new();
        let mut push = |k: &str, v: Option<u64>| {
            if let Some(v) = v {
                out.push_str(k);
                out.push('=');
                out.push_str(&v.to_string());
                out.push(' ');
            }
        };
        push("deadline_ms", self.deadline_ms);
        push("max_splinters", self.max_splinters);
        push("max_dnf_clauses", self.max_dnf_clauses);
        push("max_depth", self.max_depth);
        push("max_pieces", self.max_pieces);
        push("max_coeff_bits", self.max_coeff_bits);
        out
    }
}

/// One parsed query request (the textual parts are still unparsed —
/// formula/poly parsing happens on a worker, inside its panic
/// isolation boundary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Request id, echoed on the response line.
    pub id: String,
    /// `count` or `sum`.
    pub verb: Verb,
    /// For `sum`: the affine polynomial text.
    pub poly_text: Option<String>,
    /// The counted variable names, in listed order.
    pub vars: Vec<String>,
    /// The formula text (everything after the first `:` in the body).
    pub formula_text: String,
    /// Per-request governor overrides.
    pub overrides: Overrides,
    /// Quota identity (`client=`). `None` until the connection driver
    /// injects its connection-scoped identity (only when quotas are
    /// on), so requests without an explicit client still meter fairly
    /// per connection. Never part of the cache or routing key.
    pub client: Option<String>,
}

impl Query {
    /// The lane this query rides ([`Lane::Batch`] without a `prio=`).
    pub fn lane(&self) -> Lane {
        self.overrides.prio.unwrap_or(Lane::Batch)
    }
}

/// One parsed request line. `Query` dominates the enum's size (the
/// admission options widened it), but a parsed request is moved into
/// the queue exactly once — boxing would add an allocation per request
/// to save stack bytes nothing holds onto.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// A count/sum query.
    Query(Query),
    /// Liveness probe.
    Ping(Option<String>),
    /// Current server statistics.
    Stats,
    /// Prometheus text exposition of the request-scoped telemetry
    /// registry (`metrics`, alias `stats/v2`). Multi-line, `# EOF`
    /// terminated.
    Metrics,
    /// Dump of the slow-request flight recorder, one JSON object per
    /// line. Multi-line, `# EOF` terminated.
    FlightRec,
    /// Per-shard supervision state (`shards`). Multi-line, `# EOF`
    /// terminated.
    Shards,
    /// Graceful drain: stop admitting, finish or bound in-flight work,
    /// emit a final stats line.
    Drain,
}

/// A malformed request line: the kind and detail of an `ERR` reply,
/// plus the request id when one could be recovered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// The id to echo, if the line got far enough to carry one.
    pub id: Option<String>,
    /// Stable error kind (`protocol`).
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for ProtocolError {}

/// Errors from running a server (`run_stdio` / `PoolTcpServer`).
#[derive(Debug)]
pub enum ServeError {
    /// Socket/stdio failure.
    Io(std::io::Error),
    /// Invalid server configuration.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Config(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Config(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

fn err(id: Option<&str>, detail: impl Into<String>) -> ProtocolError {
    ProtocolError {
        id: id.map(str::to_string),
        kind: "protocol",
        detail: detail.into(),
    }
}

pub(crate) fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_ID_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
}

/// Parses one request line (the caller has already skipped blank and
/// `#`-comment lines and stripped the newline).
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let line = line.trim();
    if line.len() > MAX_LINE_LEN {
        return Err(err(None, format!("line exceeds {MAX_LINE_LEN} bytes")));
    }
    let mut head_tokens = line.splitn(2, char::is_whitespace);
    let verb_text = head_tokens.next().unwrap_or("");
    match verb_text {
        "ping" => {
            let id = head_tokens.next().map(str::trim).filter(|s| !s.is_empty());
            if let Some(id) = id {
                if !valid_id(id) {
                    return Err(err(None, "invalid ping id"));
                }
            }
            return Ok(Request::Ping(id.map(str::to_string)));
        }
        "stats" => return Ok(Request::Stats),
        "metrics" | "stats/v2" => return Ok(Request::Metrics),
        "flightrec" => return Ok(Request::FlightRec),
        "shards" => return Ok(Request::Shards),
        "drain" => return Ok(Request::Drain),
        "count" | "sum" => {}
        other => {
            return Err(err(
                None,
                format!(
                    "unknown verb {other:?} (expected count, sum, ping, stats, metrics, \
                     flightrec, shards or drain)"
                ),
            ))
        }
    }
    let verb = if verb_text == "count" {
        Verb::Count
    } else {
        Verb::Sum
    };

    // Split off the braced body.
    let brace = line
        .find('{')
        .ok_or_else(|| err(None, "missing '{vars : formula}' body"))?;
    let close = line
        .rfind('}')
        .filter(|&c| c > brace)
        .ok_or_else(|| err(None, "missing closing '}'"))?;
    if !line[close + 1..].trim().is_empty() {
        return Err(err(None, "trailing input after '}'"));
    }
    let head: Vec<&str> = line[..brace].split_whitespace().collect();
    let body = &line[brace + 1..close];

    // head[0] is the verb; head[1] must be the id.
    let id = *head.get(1).ok_or_else(|| err(None, "missing request id"))?;
    if !valid_id(id) {
        return Err(err(
            None,
            format!(
                "invalid request id {id:?} (ASCII [A-Za-z0-9_.:-], at most {MAX_ID_LEN} bytes)"
            ),
        ));
    }

    // Options, then (for sum) the polynomial text.
    let mut overrides = Overrides::default();
    let mut client: Option<String> = None;
    let mut poly_parts: Vec<&str> = Vec::new();
    for tok in &head[2..] {
        if let Some((key, value)) = tok.split_once('=') {
            if poly_parts.is_empty() {
                // String-valued admission options come first; the rest
                // are unsigned integers.
                match key {
                    "prio" => {
                        overrides.prio = Some(Lane::parse(value).ok_or_else(|| {
                            err(
                                Some(id),
                                format!(
                                    "unknown priority {value:?} (expected interactive, batch \
                                     or background)"
                                ),
                            )
                        })?);
                        continue;
                    }
                    "client" => {
                        if !valid_id(value) {
                            return Err(err(
                                Some(id),
                                format!(
                                    "invalid client {value:?} (ASCII [A-Za-z0-9_.:-], at most \
                                     {MAX_ID_LEN} bytes)"
                                ),
                            ));
                        }
                        client = Some(value.to_string());
                        continue;
                    }
                    _ => {}
                }
                let parsed: Result<u64, _> = value.parse();
                let slot = match key {
                    "deadline_ms" => Some(&mut overrides.deadline_ms),
                    "max_splinters" => Some(&mut overrides.max_splinters),
                    "max_dnf_clauses" => Some(&mut overrides.max_dnf_clauses),
                    "max_depth" => Some(&mut overrides.max_depth),
                    "max_pieces" => Some(&mut overrides.max_pieces),
                    "max_coeff_bits" => Some(&mut overrides.max_coeff_bits),
                    "threads" => None,
                    _ => return Err(err(Some(id), format!("unknown option {key:?}"))),
                };
                let value = parsed.map_err(|_| {
                    err(Some(id), format!("option {key} needs an unsigned integer"))
                })?;
                // `threads=` is parsed like any option and then dropped.
                if let Some(slot) = slot {
                    *slot = Some(value);
                }
                continue;
            }
            return Err(err(Some(id), "options must precede the polynomial"));
        }
        poly_parts.push(tok);
    }
    let poly_text = match verb {
        Verb::Count => {
            if !poly_parts.is_empty() {
                return Err(err(
                    Some(id),
                    format!(
                        "unexpected token {:?} (count takes no polynomial)",
                        poly_parts[0]
                    ),
                ));
            }
            None
        }
        Verb::Sum => {
            if poly_parts.is_empty() {
                return Err(err(Some(id), "sum needs a polynomial before the body"));
            }
            Some(poly_parts.join(" "))
        }
    };

    // Body: vars : formula.
    let (vars_text, formula_text) = body
        .split_once(':')
        .ok_or_else(|| err(Some(id), "expected ':' between variables and formula"))?;
    let vars: Vec<String> = vars_text
        .split(',')
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .collect();
    if vars.is_empty() {
        return Err(err(Some(id), "at least one counted variable is required"));
    }
    if formula_text.trim().is_empty() {
        return Err(err(Some(id), "empty formula"));
    }
    Ok(Request::Query(Query {
        id: id.to_string(),
        verb,
        poly_text,
        vars,
        formula_text: formula_text.to_string(),
        overrides,
        client,
    }))
}

/// Replaces newlines/carriage returns so any interpolated text stays on
/// one response line.
pub fn sanitize(s: &str) -> String {
    if s.contains(['\n', '\r']) {
        s.replace(['\n', '\r'], " ")
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(line: &str) -> Query {
        match parse_request(line).unwrap() {
            Request::Query(q) => q,
            other => panic!("expected a query, got {other:?}"),
        }
    }

    #[test]
    fn parses_count_with_options() {
        let q = query("count r1 deadline_ms=500 max_splinters=8 {i,j : 1 <= i <= j <= n}");
        assert_eq!(q.id, "r1");
        assert_eq!(q.verb, Verb::Count);
        assert_eq!(q.vars, vec!["i", "j"]);
        assert_eq!(q.overrides.deadline_ms, Some(500));
        assert_eq!(q.overrides.max_splinters, Some(8));
        assert_eq!(q.formula_text.trim(), "1 <= i <= j <= n");
        assert!(q.poly_text.is_none());
    }

    #[test]
    fn parses_prio_and_client_options() {
        let q = query("count r1 prio=interactive client=alice {x : 1 <= x <= 9}");
        assert_eq!(q.overrides.prio, Some(Lane::Interactive));
        assert_eq!(q.lane(), Lane::Interactive);
        assert_eq!(q.client.as_deref(), Some("alice"));
        let q = query("sum s1 prio=background x {x : 1 <= x <= 3}");
        assert_eq!(q.lane(), Lane::Background);
        assert!(q.client.is_none());
        // The default lane is batch, and admission metadata never
        // reaches the cache key.
        let q = query("count r2 {x : x = 1}");
        assert_eq!(q.lane(), Lane::Batch);
        let keyed = query("count r3 prio=interactive client=bob deadline_ms=7 {x : x = 1}");
        assert_eq!(keyed.overrides.cache_key_part(), "deadline_ms=7 ");
        // Bad values are protocol errors with the id recovered.
        for line in [
            "count r4 prio=urgent {x : x = 1}",
            "count r4 client=bad!id {x : x = 1}",
            "count r4 client= {x : x = 1}",
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.id.as_deref(), Some("r4"), "line {line:?}");
        }
    }

    #[test]
    fn threads_is_accepted_and_dropped() {
        // Any unsigned value parses (the old server clamped it to 16)
        // and leaves no trace in the parsed request.
        for line in [
            "count r1 threads=4 {x : x = 1}",
            "count r1 threads=999 {x : x = 1}",
        ] {
            assert_eq!(query(line), query("count r1 {x : x = 1}"), "{line}");
        }
        let e = parse_request("count r1 threads=many {x : x = 1}").unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r1"));
    }

    #[test]
    fn parses_sum_with_poly() {
        let q = query("sum s7 x + 2y {x,y : 0 <= x <= 3 && 0 <= y <= x}");
        assert_eq!(q.verb, Verb::Sum);
        assert_eq!(q.poly_text.as_deref(), Some("x + 2y"));
        assert_eq!(q.vars, vec!["x", "y"]);
    }

    #[test]
    fn quantifier_colons_stay_in_the_formula() {
        let q = query("count q {x : exists j : 1 <= j <= 3 && x = 2j}");
        assert_eq!(q.vars, vec!["x"]);
        assert_eq!(q.formula_text.trim(), "exists j : 1 <= j <= 3 && x = 2j");
    }

    #[test]
    fn control_verbs() {
        assert!(matches!(parse_request("ping"), Ok(Request::Ping(None))));
        assert!(matches!(
            parse_request("ping p1"),
            Ok(Request::Ping(Some(id))) if id == "p1"
        ));
        assert!(matches!(parse_request("stats"), Ok(Request::Stats)));
        assert!(matches!(parse_request("metrics"), Ok(Request::Metrics)));
        assert!(matches!(parse_request("stats/v2"), Ok(Request::Metrics)));
        assert!(matches!(parse_request("flightrec"), Ok(Request::FlightRec)));
        assert!(matches!(parse_request("shards"), Ok(Request::Shards)));
        assert!(matches!(parse_request("drain"), Ok(Request::Drain)));
    }

    #[test]
    fn malformed_lines_error_without_panic() {
        for line in [
            "",
            "zap r1 {x : x = 1}",
            "count",
            "count {x : x = 1}",
            "count id!bad {x : x = 1}",
            "count r1 x = 1",
            "count r1 {x  x = 1}",
            "count r1 { : x = 1}",
            "count r1 {x : }",
            "count r1 bogus_opt=3 {x : x = 1}",
            "count r1 max_depth=zebra {x : x = 1}",
            "count r1 stray {x : x = 1}",
            "sum r1 {x : x = 1}",
            "count r1 {x : x = 1} trailing",
        ] {
            assert!(parse_request(line).is_err(), "line {line:?} should fail");
        }
    }

    #[test]
    fn error_recovers_id_when_present() {
        let e = parse_request("count r9 bogus_opt=3 {x : x = 1}").unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r9"));
        assert_eq!(e.kind, "protocol");
    }

    #[test]
    fn overrides_merge_over_base() {
        let base = Budgets {
            deadline: Some(Duration::from_millis(1000)),
            max_splinters: Some(100),
            ..Budgets::unlimited()
        };
        let o = Overrides {
            max_splinters: Some(5),
            ..Overrides::default()
        };
        let merged = o.budgets(&base);
        assert_eq!(merged.deadline, Some(Duration::from_millis(1000)));
        assert_eq!(merged.max_splinters, Some(5));
        assert!(merged.max_depth.is_none());
    }
}
