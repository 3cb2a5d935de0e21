//! The binary wire protocol: length-prefixed, canonically-encoded
//! frames with batching and pipelining, auto-detected per connection.
//!
//! # Why a second codec
//!
//! The text protocol ([`crate::protocol`]) is one request per line, one
//! reply per line — easy to debug, but every request pays a full text
//! parse and every reply a full text render plus one write syscall.
//! This module adds a compact binary encoding of the *same* requests
//! and replies, plus a batch frame that admits up to
//! [`MAX_BATCH`] requests atomically and answers them with one
//! gathered reply frame. The hard invariant, enforced by the
//! differential tests: **for any request, the binary reply decodes to
//! the byte-identical text reply** ([`Reply::to_text`] of the decoded
//! frame equals the text-path line). It holds by construction: a
//! request's answer is one typed [`Reply`] value, held in its
//! [`Slot`], and the text driver writes its [`Reply::to_text`] while
//! this driver writes its [`Reply::encode`].
//!
//! # Framing
//!
//! A binary connection opens with a 3-byte client preamble —
//! [`MAGIC`] (2 bytes, first byte `0xB7`, outside ASCII so a text
//! connection can never start with it) followed by a protocol
//! [`VERSION`] byte — which the server echoes back as its accept
//! handshake. An unsupported version is answered with an `ERR` reply
//! frame and the connection closes (version negotiation is
//! fail-fast-and-explicit, not silent downgrade).
//!
//! After the preamble, the stream is a sequence of frames:
//!
//! ```text
//! frame   := tag:u8 len:varint payload[len]
//! varint  := canonical (minimal-length) LEB128, at most MAX_FRAME_LEN
//! ```
//!
//! Request tags occupy `0x01..=0x09`, reply tags `0x81..=0x89` (high
//! bit set). Strings are `varint length + UTF-8 bytes`. The encoding is
//! *canonical*: minimal varints, exact payload consumption (trailing
//! bytes are an error), fixed field order, and a fixed presence-bitmask
//! order for query overrides — so `encode(decode(bytes)) == bytes` for
//! every valid frame, which lets caches and routers key on encoded
//! frames directly.
//!
//! # Batching
//!
//! A batch frame carries `1..=MAX_BATCH` inner request frames (nested
//! batches and `drain` are rejected). Queries in a batch are admitted
//! **atomically** per shard — the queries routed to one shard share one
//! queue-lock reservation ([`crate::shard::PoolHandle::submit_batch`])
//! — with partial-shed semantics: when capacity runs out mid-batch the
//! remaining queries get `SHED` replies *in position*, and every inner
//! request still gets exactly one inner reply, in request order, inside
//! one gathered [`Reply::Batch`] frame (a single `write_all`,
//! writev-style).
//!
//! See DESIGN.md §15 for the full byte layout and rationale.

use crate::admission::Lane;
use crate::protocol::{self, ProtocolError, Query, Request, ServeError, Verb, MAX_LINE_LEN};
use crate::server::{control_slot, Slot};
use crate::shard::PoolHandle;
use presburger_trace::metrics::ReqCodec;
use std::io::{Read, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// The two-byte magic prefix of a binary connection. The first byte is
/// outside ASCII, so the text path can never be mistaken for it.
pub const MAGIC: [u8; 2] = [0xB7, 0x50];

/// Current protocol version, carried in the connection preamble.
pub const VERSION: u8 = 1;

/// Hard cap on any varint length field (frame payloads, strings,
/// counts). A length prefix above this is rejected *before* any
/// allocation, so a hostile 8-byte length cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Most inner requests allowed in one batch frame.
pub const MAX_BATCH: usize = 64;

/// The 3-byte connection preamble (client hello and server accept are
/// identical): magic then version.
pub const fn preamble() -> [u8; 3] {
    [MAGIC[0], MAGIC[1], VERSION]
}

// Request frame tags.
const TAG_COUNT: u8 = 0x01;
const TAG_SUM: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_STATS: u8 = 0x04;
const TAG_METRICS: u8 = 0x05;
const TAG_FLIGHTREC: u8 = 0x06;
const TAG_SHARDS: u8 = 0x07;
const TAG_DRAIN: u8 = 0x08;
const TAG_BATCH: u8 = 0x09;

// Reply frame tags (high bit set).
const TAG_OK_EXACT: u8 = 0x81;
const TAG_OK_BOUNDED: u8 = 0x82;
const TAG_ERR: u8 = 0x83;
const TAG_SHED: u8 = 0x84;
const TAG_PONG: u8 = 0x85;
const TAG_STATS_REPLY: u8 = 0x86;
const TAG_BLOCK: u8 = 0x87;
const TAG_BYE: u8 = 0x88;
const TAG_BATCH_REPLY: u8 = 0x89;

/// A malformed-frame error (kind `wire`), distinct from the text
/// protocol's `protocol` kind so clients can tell which codec failed.
fn werr(detail: impl Into<String>) -> ProtocolError {
    ProtocolError {
        id: None,
        kind: "wire",
        detail: detail.into(),
    }
}

/// Appends a canonical LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over one frame payload. Every read is
/// checked against the slice length, so the decoder can never over-read
/// — malformed input yields a typed [`ProtocolError`], never a panic.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| werr("truncated frame: expected a byte"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a canonical LEB128 varint: at most 10 bytes, no overflow,
    /// and minimal length (a multi-byte encoding whose final group is
    /// zero could drop that byte, so it is rejected).
    fn varint(&mut self) -> Result<u64, ProtocolError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let b = self.u8()?;
            let group = u64::from(b & 0x7f);
            if i == 9 && group > 1 {
                return Err(werr("varint overflows u64"));
            }
            v |= group << (7 * i);
            if b & 0x80 == 0 {
                if i > 0 && group == 0 {
                    return Err(werr("non-canonical varint (padded length)"));
                }
                return Ok(v);
            }
        }
        Err(werr("varint longer than 10 bytes"))
    }

    /// Reads a varint that must fit `MAX_FRAME_LEN` (length prefixes,
    /// element counts) — checked *before* any allocation.
    fn len(&mut self) -> Result<usize, ProtocolError> {
        let v = self.varint()?;
        if v > MAX_FRAME_LEN as u64 {
            return Err(werr(format!(
                "length {v} exceeds the {MAX_FRAME_LEN}-byte frame cap"
            )));
        }
        Ok(v as usize)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| werr("truncated frame: string runs past the payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn str_(&mut self) -> Result<String, ProtocolError> {
        let n = self.len()?;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| werr("string is not valid UTF-8"))
    }

    /// Canonicality: a decoded payload must be consumed exactly.
    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(werr(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Appends one `tag + len + payload` frame.
fn put_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One decoded frame on the request side of a connection: a single
/// request, or a batch of them.
#[derive(Clone, Debug, PartialEq)]
pub enum WireRequest {
    /// A single request (same set as the text protocol).
    One(Request),
    /// A batch of `1..=MAX_BATCH` requests, admitted atomically and
    /// answered with one [`Reply::Batch`] frame.
    Batch(Vec<Request>),
}

/// The override presence bitmask, in fixed field order (bit 0 first).
/// Bit 6 ([`RESERVED_OVERRIDE_BIT`]) is never encoded and rejected on
/// decode. Bit 7 is the priority lane (`prio=`), encoded as
/// [`Lane::wire`].
const OVERRIDE_BITS: usize = 8;

/// The reserved override bit (it once carried a `threads` override).
const RESERVED_OVERRIDE_BIT: u8 = 1 << 6;

fn override_values(q: &Query) -> [Option<u64>; OVERRIDE_BITS] {
    let o = &q.overrides;
    [
        o.deadline_ms,
        o.max_splinters,
        o.max_dnf_clauses,
        o.max_depth,
        o.max_pieces,
        o.max_coeff_bits,
        None,
        o.prio.map(Lane::wire),
    ]
}

/// Encodes one request as a single frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    let tag = match req {
        Request::Query(q) => {
            put_str(&mut payload, &q.id);
            if q.verb == Verb::Sum {
                put_str(&mut payload, q.poly_text.as_deref().unwrap_or_default());
            }
            put_varint(&mut payload, q.vars.len() as u64);
            for v in &q.vars {
                put_str(&mut payload, v);
            }
            put_str(&mut payload, &q.formula_text);
            let values = override_values(q);
            let mut mask = 0u8;
            for (bit, v) in values.iter().enumerate() {
                if v.is_some() {
                    mask |= 1 << bit;
                }
            }
            payload.push(mask);
            for v in values.iter().flatten() {
                put_varint(&mut payload, *v);
            }
            match q.verb {
                Verb::Count => TAG_COUNT,
                Verb::Sum => TAG_SUM,
            }
        }
        Request::Ping(id) => {
            match id {
                Some(id) => {
                    payload.push(1);
                    put_str(&mut payload, id);
                }
                None => payload.push(0),
            }
            TAG_PING
        }
        Request::Stats => TAG_STATS,
        Request::Metrics => TAG_METRICS,
        Request::FlightRec => TAG_FLIGHTREC,
        Request::Shards => TAG_SHARDS,
        Request::Drain => TAG_DRAIN,
    };
    let mut out = Vec::with_capacity(payload.len() + 6);
    put_frame(&mut out, tag, &payload);
    out
}

/// Encodes a batch frame of `1..=MAX_BATCH` requests. `drain` cannot
/// ride in a batch (its reply closes the connection mid-frame), and
/// batches cannot nest — both are encoding-time errors here and
/// decoding-time errors on the wire.
pub fn encode_batch(reqs: &[Request]) -> Result<Vec<u8>, ProtocolError> {
    if reqs.is_empty() {
        return Err(werr("empty batch"));
    }
    if reqs.len() > MAX_BATCH {
        return Err(werr(format!(
            "batch of {} exceeds the {MAX_BATCH}-request cap",
            reqs.len()
        )));
    }
    let mut payload = Vec::new();
    put_varint(&mut payload, reqs.len() as u64);
    for req in reqs {
        if matches!(req, Request::Drain) {
            return Err(werr("drain cannot ride in a batch"));
        }
        payload.extend_from_slice(&encode_request(req));
    }
    let mut out = Vec::with_capacity(payload.len() + 6);
    put_frame(&mut out, TAG_BATCH, &payload);
    Ok(out)
}

/// Encodes a [`WireRequest`] (single frame or batch frame).
pub fn encode_wire_request(req: &WireRequest) -> Result<Vec<u8>, ProtocolError> {
    match req {
        WireRequest::One(r) => Ok(encode_request(r)),
        WireRequest::Batch(rs) => encode_batch(rs),
    }
}

fn decode_query(tag: u8, payload: &[u8]) -> Result<Query, ProtocolError> {
    let verb = if tag == TAG_COUNT {
        Verb::Count
    } else {
        Verb::Sum
    };
    let mut cur = Cur::new(payload);
    let id = cur.str_()?;
    if !protocol::valid_id(&id) {
        return Err(werr(format!("invalid request id {id:?}")));
    }
    let poly_text = if verb == Verb::Sum {
        let p = cur.str_()?;
        if p.trim().is_empty() {
            return Err(werr("sum needs a non-empty polynomial"));
        }
        Some(p)
    } else {
        None
    };
    let nvars = cur.len()?;
    if nvars == 0 {
        return Err(werr("at least one counted variable is required"));
    }
    let mut vars = Vec::with_capacity(nvars.min(1024));
    for _ in 0..nvars {
        let v = cur.str_()?;
        if v.trim().is_empty() {
            return Err(werr("empty variable name"));
        }
        vars.push(v);
    }
    let formula_text = cur.str_()?;
    if formula_text.trim().is_empty() {
        return Err(werr("empty formula"));
    }
    if formula_text.len() > MAX_LINE_LEN {
        return Err(werr(format!("formula exceeds {MAX_LINE_LEN} bytes")));
    }
    let mask = cur.u8()?;
    if mask & RESERVED_OVERRIDE_BIT != 0 {
        return Err(werr("override bit 6 is reserved"));
    }
    let mut values = [None; OVERRIDE_BITS];
    for (bit, slot) in values.iter_mut().enumerate() {
        if mask & (1 << bit) != 0 {
            *slot = Some(cur.varint()?);
        }
    }
    cur.finish()?;
    let prio = values[7]
        .map(|p| Lane::from_wire(p).ok_or_else(|| werr(format!("unknown priority lane {p}"))))
        .transpose()?;
    let overrides = crate::protocol::Overrides {
        deadline_ms: values[0],
        max_splinters: values[1],
        max_dnf_clauses: values[2],
        max_depth: values[3],
        max_pieces: values[4],
        max_coeff_bits: values[5],
        prio,
    };
    Ok(Query {
        id,
        verb,
        poly_text,
        vars,
        formula_text,
        overrides,
    })
}

fn decode_request_payload(tag: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
    match tag {
        TAG_COUNT | TAG_SUM => decode_query(tag, payload).map(Request::Query),
        TAG_PING => {
            let mut cur = Cur::new(payload);
            let has_id = cur.u8()?;
            let req = match has_id {
                0 => Request::Ping(None),
                1 => {
                    let id = cur.str_()?;
                    if !protocol::valid_id(&id) {
                        return Err(werr(format!("invalid ping id {id:?}")));
                    }
                    Request::Ping(Some(id))
                }
                other => {
                    return Err(werr(format!(
                        "ping id-presence byte must be 0/1, got {other}"
                    )))
                }
            };
            cur.finish()?;
            Ok(req)
        }
        TAG_STATS | TAG_METRICS | TAG_FLIGHTREC | TAG_SHARDS | TAG_DRAIN => {
            Cur::new(payload).finish()?;
            Ok(match tag {
                TAG_STATS => Request::Stats,
                TAG_METRICS => Request::Metrics,
                TAG_FLIGHTREC => Request::FlightRec,
                TAG_SHARDS => Request::Shards,
                _ => Request::Drain,
            })
        }
        other => Err(werr(format!("unknown request tag 0x{other:02x}"))),
    }
}

/// Decodes one request-side frame from the front of `buf`. Returns the
/// decoded request and the number of bytes consumed. All malformed
/// input — truncation, oversized lengths, padded varints, unknown tags,
/// trailing bytes — yields a typed [`ProtocolError`]; the decoder never
/// panics and never reads past the declared lengths.
pub fn decode_wire_request(buf: &[u8]) -> Result<(WireRequest, usize), ProtocolError> {
    let mut cur = Cur::new(buf);
    let tag = cur.u8()?;
    let len = cur.len()?;
    let payload = cur.bytes(len)?;
    let consumed = cur.pos;
    if tag == TAG_BATCH {
        return Ok((WireRequest::Batch(decode_batch_payload(payload)?), consumed));
    }
    Ok((
        WireRequest::One(decode_request_payload(tag, payload)?),
        consumed,
    ))
}

/// Decodes a batch frame's payload (the bytes after `tag + len`) into
/// its inner requests. Shared by [`decode_wire_request`] and the
/// connection driver, which already holds the raw payload and must not
/// pay a re-framing copy per batch.
fn decode_batch_payload(payload: &[u8]) -> Result<Vec<Request>, ProtocolError> {
    let mut inner = Cur::new(payload);
    let n = inner.len()?;
    if n == 0 {
        return Err(werr("empty batch"));
    }
    if n > MAX_BATCH {
        return Err(werr(format!(
            "batch of {n} exceeds the {MAX_BATCH}-request cap"
        )));
    }
    let mut reqs = Vec::with_capacity(n);
    for _ in 0..n {
        let rest = &payload[inner.pos..];
        let (req, used) = decode_wire_request(rest)?;
        inner.pos += used;
        match req {
            WireRequest::One(Request::Drain) => return Err(werr("drain cannot ride in a batch")),
            WireRequest::One(r) => reqs.push(r),
            WireRequest::Batch(_) => return Err(werr("batches cannot nest")),
        }
    }
    inner.finish()?;
    Ok(reqs)
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// A typed reply: the one model of every line (or `# EOF` block) the
/// server sends. Workers, sheds, rescues and control verbs build a
/// `Reply`, and each codec renders that same value — the text driver
/// writes [`Reply::to_text`], the binary driver writes
/// [`Reply::encode`] — so a binary reply decodes to exactly the text
/// reply by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `OK <id> exact <value>`.
    OkExact {
        /// Echoed request id.
        id: String,
        /// The exact count/sum rendering (may contain spaces).
        value: String,
    },
    /// `OK <id> bounded <why> <lower> ; <upper>`.
    OkBounded {
        /// Echoed request id.
        id: String,
        /// What degraded the exact pass (`budget`, `deadline`, …).
        why: String,
        /// Lower §4.6 bound rendering.
        lower: String,
        /// Upper §4.6 bound rendering.
        upper: String,
    },
    /// `ERR <id> <kind> <detail>`.
    Err {
        /// Echoed request id (`-` when none was recovered).
        id: String,
        /// Stable error kind.
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// `SHED <id> retry_after_ms=<n> reason=<reason>`.
    Shed {
        /// Echoed request id.
        id: String,
        /// Server backoff hint.
        retry_after_ms: u64,
        /// The shed reason token (`queue_full` or `draining`; always
        /// space-free).
        reason: String,
    },
    /// `PONG [id]`.
    Pong {
        /// Echoed ping id, if the ping carried one.
        id: Option<String>,
    },
    /// A one-line `STATS …` reply.
    Stats {
        /// The full stats line, verbatim.
        line: String,
    },
    /// A multi-line block reply (`metrics`, `flightrec`, `shards`),
    /// `# EOF` terminated.
    Block {
        /// The full block, verbatim (no trailing newline).
        text: String,
    },
    /// The `drain` reply: a final stats line then `BYE`.
    Bye {
        /// The final `STATS …` line.
        stats: String,
    },
    /// A gathered batch reply: one inner reply per inner request, in
    /// request order.
    Batch(Vec<Reply>),
}

impl Reply {
    /// `OK <id> exact <value>`, with `value` kept on one line.
    pub fn exact(id: &str, value: &str) -> Reply {
        Reply::OkExact {
            id: id.to_string(),
            value: protocol::sanitize(value),
        }
    }

    /// `OK <id> bounded <why> <lower> ; <upper>`, with both bounds kept
    /// on one line.
    pub fn bounded(id: &str, why: &str, lower: &str, upper: &str) -> Reply {
        Reply::OkBounded {
            id: id.to_string(),
            why: why.to_string(),
            lower: protocol::sanitize(lower),
            upper: protocol::sanitize(upper),
        }
    }

    /// `ERR <id> <kind> <detail>`, with `detail` kept on one line.
    pub fn err(id: &str, kind: &str, detail: &str) -> Reply {
        Reply::Err {
            id: id.to_string(),
            kind: kind.to_string(),
            detail: protocol::sanitize(detail),
        }
    }

    /// `SHED <id> retry_after_ms=<n> reason=<reason>`.
    pub fn shed(id: &str, retry_after_ms: u64, reason: String) -> Reply {
        Reply::Shed {
            id: id.to_string(),
            retry_after_ms,
            reason,
        }
    }

    /// Renders the exact text-protocol form. For [`Reply::Batch`], the
    /// inner replies joined by newlines (one logical line per inner
    /// request — what a text connection would have produced for the
    /// same requests).
    pub fn to_text(&self) -> String {
        match self {
            Reply::OkExact { id, value } => format!("OK {id} exact {value}"),
            Reply::OkBounded {
                id,
                why,
                lower,
                upper,
            } => format!("OK {id} bounded {why} {lower} ; {upper}"),
            Reply::Err { id, kind, detail } => format!("ERR {id} {kind} {detail}"),
            Reply::Shed {
                id,
                retry_after_ms,
                reason,
            } => format!("SHED {id} retry_after_ms={retry_after_ms} reason={reason}"),
            Reply::Pong { id } => match id {
                Some(id) => format!("PONG {id}"),
                None => "PONG".to_string(),
            },
            Reply::Stats { line } => line.clone(),
            Reply::Block { text } => text.clone(),
            Reply::Bye { stats } => format!("{stats}\nBYE"),
            Reply::Batch(replies) => {
                let lines: Vec<String> = replies.iter().map(Reply::to_text).collect();
                lines.join("\n")
            }
        }
    }

    /// Encodes this reply as a single frame ([`Reply::Batch`] as one
    /// gathered frame containing the inner reply frames).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let tag = match self {
            Reply::OkExact { id, value } => {
                put_str(&mut payload, id);
                put_str(&mut payload, value);
                TAG_OK_EXACT
            }
            Reply::OkBounded {
                id,
                why,
                lower,
                upper,
            } => {
                put_str(&mut payload, id);
                put_str(&mut payload, why);
                put_str(&mut payload, lower);
                put_str(&mut payload, upper);
                TAG_OK_BOUNDED
            }
            Reply::Err { id, kind, detail } => {
                put_str(&mut payload, id);
                put_str(&mut payload, kind);
                put_str(&mut payload, detail);
                TAG_ERR
            }
            Reply::Shed {
                id,
                retry_after_ms,
                reason,
            } => {
                put_str(&mut payload, id);
                put_varint(&mut payload, *retry_after_ms);
                put_str(&mut payload, reason);
                TAG_SHED
            }
            Reply::Pong { id } => {
                match id {
                    Some(id) => {
                        payload.push(1);
                        put_str(&mut payload, id);
                    }
                    None => payload.push(0),
                }
                TAG_PONG
            }
            Reply::Stats { line } => {
                put_str(&mut payload, line);
                TAG_STATS_REPLY
            }
            Reply::Block { text } => {
                put_str(&mut payload, text);
                TAG_BLOCK
            }
            Reply::Bye { stats } => {
                put_str(&mut payload, stats);
                TAG_BYE
            }
            Reply::Batch(replies) => {
                put_varint(&mut payload, replies.len() as u64);
                for r in replies {
                    payload.extend_from_slice(&r.encode());
                }
                TAG_BATCH_REPLY
            }
        };
        let mut out = Vec::with_capacity(payload.len() + 6);
        put_frame(&mut out, tag, &payload);
        out
    }

    /// Decodes one reply frame from the front of `buf`. Returns the
    /// reply and the bytes consumed; malformed input yields a typed
    /// [`ProtocolError`], never a panic or an over-read.
    pub fn decode(buf: &[u8]) -> Result<(Reply, usize), ProtocolError> {
        let mut cur = Cur::new(buf);
        let tag = cur.u8()?;
        let len = cur.len()?;
        let payload = cur.bytes(len)?;
        let consumed = cur.pos;
        let reply = Reply::decode_payload(tag, payload)?;
        Ok((reply, consumed))
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> Result<Reply, ProtocolError> {
        let mut cur = Cur::new(payload);
        let reply = match tag {
            TAG_OK_EXACT => Reply::OkExact {
                id: cur.str_()?,
                value: cur.str_()?,
            },
            TAG_OK_BOUNDED => Reply::OkBounded {
                id: cur.str_()?,
                why: cur.str_()?,
                lower: cur.str_()?,
                upper: cur.str_()?,
            },
            TAG_ERR => Reply::Err {
                id: cur.str_()?,
                kind: cur.str_()?,
                detail: cur.str_()?,
            },
            TAG_SHED => Reply::Shed {
                id: cur.str_()?,
                retry_after_ms: cur.varint()?,
                reason: cur.str_()?,
            },
            TAG_PONG => {
                let has_id = cur.u8()?;
                match has_id {
                    0 => Reply::Pong { id: None },
                    1 => Reply::Pong {
                        id: Some(cur.str_()?),
                    },
                    other => {
                        return Err(werr(format!(
                            "pong id-presence byte must be 0/1, got {other}"
                        )))
                    }
                }
            }
            TAG_STATS_REPLY => Reply::Stats { line: cur.str_()? },
            TAG_BLOCK => Reply::Block { text: cur.str_()? },
            TAG_BYE => Reply::Bye { stats: cur.str_()? },
            TAG_BATCH_REPLY => {
                let n = cur.len()?;
                if n > MAX_BATCH {
                    return Err(werr(format!(
                        "batch reply of {n} exceeds the {MAX_BATCH}-reply cap"
                    )));
                }
                let mut replies = Vec::with_capacity(n);
                for _ in 0..n {
                    let rest = &payload[cur.pos..];
                    let mut inner = Cur::new(rest);
                    let itag = inner.u8()?;
                    if itag == TAG_BATCH_REPLY {
                        return Err(werr("batch replies cannot nest"));
                    }
                    let ilen = inner.len()?;
                    let ipayload = inner.bytes(ilen)?;
                    replies.push(Reply::decode_payload(itag, ipayload)?);
                    cur.pos += inner.pos;
                }
                Reply::Batch(replies)
            }
            other => return Err(werr(format!("unknown reply tag 0x{other:02x}"))),
        };
        cur.finish()?;
        Ok(reply)
    }
}

impl From<ProtocolError> for Reply {
    /// The `ERR` reply to a malformed request (`-` when no id was
    /// recovered).
    fn from(e: ProtocolError) -> Reply {
        Reply::err(e.id.as_deref().unwrap_or("-"), e.kind, &e.detail)
    }
}

// ---------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------

/// A frame-read failure: transport i/o, or malformed framing that the
/// connection cannot resync past.
enum FrameError {
    Io(std::io::Error),
    Malformed(ProtocolError),
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Reads one `tag + len + payload` frame from a stream. `Ok(None)` on a
/// clean EOF at a frame boundary; EOF mid-frame, a padded/oversized
/// length, or an over-long varint are malformed framing.
fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut byte = [0u8; 1];
    let n = r.read(&mut byte)?;
    if n == 0 {
        return Ok(None);
    }
    let tag = byte[0];
    let mut len: u64 = 0;
    for i in 0..10 {
        r.read_exact(&mut byte)
            .map_err(|_| FrameError::Malformed(werr("truncated frame: EOF inside the length")))?;
        let group = u64::from(byte[0] & 0x7f);
        if i == 9 && group > 1 {
            return Err(FrameError::Malformed(werr("varint overflows u64")));
        }
        len |= group << (7 * i);
        if byte[0] & 0x80 == 0 {
            if i > 0 && group == 0 {
                return Err(FrameError::Malformed(werr(
                    "non-canonical varint (padded length)",
                )));
            }
            break;
        }
        if i == 9 {
            return Err(FrameError::Malformed(werr("varint longer than 10 bytes")));
        }
    }
    if len > MAX_FRAME_LEN as u64 {
        return Err(FrameError::Malformed(werr(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        ))));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|_| FrameError::Malformed(werr("truncated frame: EOF inside the payload")))?;
    Ok(Some((tag, payload)))
}

// ---------------------------------------------------------------------
// Connection driver
// ---------------------------------------------------------------------

/// What the binary writer thread emits: a single reply frame, or a
/// gathered batch frame (all inner slots awaited in request order, one
/// `write_all` for the whole frame).
enum Out {
    One(Arc<Slot>),
    Many(Vec<Arc<Slot>>),
}

/// Fans a decoded batch out over the pool: queries are admitted via
/// [`PoolHandle::submit_batch`], control requests are answered inline —
/// and the reply slots come back in request order.
fn dispatch_batch(handle: &PoolHandle, reqs: Vec<Request>, saw_drain: &mut bool) -> Vec<Arc<Slot>> {
    let mut slots: Vec<Option<Arc<Slot>>> = Vec::with_capacity(reqs.len());
    let mut queries = Vec::new();
    let mut query_pos = Vec::new();
    for (i, req) in reqs.into_iter().enumerate() {
        match req {
            Request::Query(q) => {
                query_pos.push(i);
                queries.push(q);
                slots.push(None);
            }
            other => slots.push(Some(control_slot(handle, other, saw_drain))),
        }
    }
    let query_slots = handle.submit_batch(queries);
    for (i, slot) in query_pos.into_iter().zip(query_slots) {
        slots[i] = Some(slot);
    }
    slots
        .into_iter()
        .map(|s| s.expect("invariant: every batch position was filled above"))
        .collect()
}

/// Serves one binary connection: validates the client preamble, echoes
/// the accept preamble, then answers frames in request order — single
/// requests with single reply frames, batch frames with one gathered
/// [`Reply::Batch`] frame. Transport behavior mirrors the text driver
/// ([`crate::server::serve_connection`] delegates here when it sees the
/// magic prefix): a `drain` frame answers with [`Reply::Bye`] and
/// closes; with `drain_on_eof`, EOF triggers a server drain and a final
/// [`Reply::Stats`] frame. Malformed framing is answered with a typed
/// `ERR` reply frame and closes the connection (there is no way to
/// resync); malformed *payloads* in well-formed frames answer `ERR` and
/// the connection continues.
pub fn serve_binary_connection(
    handle: &PoolHandle,
    mut reader: impl Read,
    mut writer: impl Write + Send + 'static,
    drain_on_eof: bool,
) -> Result<(), ServeError> {
    let mut pre = [0u8; 3];
    reader.read_exact(&mut pre)?;
    let refusal = if pre[..2] != MAGIC {
        Some(format!("bad magic {:02x}{:02x}", pre[0], pre[1]))
    } else if pre[2] != VERSION {
        Some(format!(
            "unsupported wire version {} (this server speaks {VERSION})",
            pre[2]
        ))
    } else {
        None
    };
    if let Some(detail) = refusal {
        writer.write_all(&Reply::err("-", "wire", &detail).encode())?;
        writer.flush()?;
        return Ok(());
    }
    writer.write_all(&preamble())?;
    writer.flush()?;

    // Per-connection FIFO writer, exactly like the text driver — but
    // emitting frames, and gathering whole batches into one write.
    let (tx, rx) = mpsc::channel::<Out>();
    let writer_thread = thread::Builder::new()
        .name("serve-bin-writer".to_string())
        .spawn(
            move || -> (Box<dyn Write + Send>, Result<(), std::io::Error>) {
                for out in rx {
                    let frame = match out {
                        Out::One(slot) => slot.wait().encode(),
                        Out::Many(slots) => {
                            Reply::Batch(slots.iter().map(|s| s.wait()).collect()).encode()
                        }
                    };
                    if let Err(e) = writer.write_all(&frame).and_then(|()| writer.flush()) {
                        return (Box::new(writer), Err(e));
                    }
                }
                (Box::new(writer), Ok(()))
            },
        )?;

    let mut saw_drain = false;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(FrameError::Io(e)) => {
                drop(tx);
                let _ = writer_thread.join();
                return Err(ServeError::Io(e));
            }
            Err(FrameError::Malformed(e)) => {
                // Framing is broken: answer once and close.
                let _ = tx.send(Out::One(Slot::ready(e.into())));
                break;
            }
        };
        let (tag, payload) = frame;
        let out = if tag == TAG_BATCH {
            match decode_batch_payload(&payload) {
                Ok(reqs) => {
                    handle.observe_wire(ReqCodec::Binary, Some(reqs.len() as u64));
                    Out::Many(dispatch_batch(handle, reqs, &mut saw_drain))
                }
                Err(e) => Out::One(Slot::ready(e.into())),
            }
        } else {
            handle.observe_wire(ReqCodec::Binary, None);
            match decode_request_payload(tag, &payload) {
                Ok(Request::Query(q)) => Out::One(handle.submit(q)),
                Ok(req) => Out::One(control_slot(handle, req, &mut saw_drain)),
                Err(e) => Out::One(Slot::ready(e.into())),
            }
        };
        if tx.send(out).is_err() {
            break; // writer died (broken pipe); stop reading
        }
        if saw_drain {
            break;
        }
    }

    if drain_on_eof && !saw_drain {
        let stats = handle.drain();
        let _ = tx.send(Out::One(Slot::ready(Reply::Stats { line: stats })));
    }
    drop(tx);
    match writer_thread.join() {
        Ok((_, Err(e))) => Err(ServeError::Io(e)),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A minimal binary-protocol client over any `Read + Write` pair
/// (TCP, in-memory pipes): performs the preamble handshake, then sends
/// request/batch frames and decodes reply frames. Used by the
/// calculator's `--binary` client mode and the differential tests.
pub struct BinClient<R: Read, W: Write> {
    reader: R,
    writer: W,
}

fn invalid(e: ProtocolError) -> ServeError {
    ServeError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

impl<R: Read, W: Write> BinClient<R, W> {
    /// Sends the client preamble and validates the server's accept
    /// preamble (magic + matching version).
    pub fn handshake(reader: R, mut writer: W) -> Result<BinClient<R, W>, ServeError> {
        writer.write_all(&preamble())?;
        writer.flush()?;
        let mut client = BinClient { reader, writer };
        let mut ack = [0u8; 3];
        client.reader.read_exact(&mut ack)?;
        if ack != preamble() {
            return Err(invalid(werr(format!(
                "bad server preamble {:02x}{:02x}{:02x}",
                ack[0], ack[1], ack[2]
            ))));
        }
        Ok(client)
    }

    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) -> Result<(), ServeError> {
        self.writer.write_all(&encode_request(req))?;
        self.writer.flush()?;
        Ok(())
    }

    /// Sends one batch frame of `1..=MAX_BATCH` requests.
    pub fn send_batch(&mut self, reqs: &[Request]) -> Result<(), ServeError> {
        let frame = encode_batch(reqs).map_err(invalid)?;
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads and decodes one reply frame.
    pub fn recv(&mut self) -> Result<Reply, ServeError> {
        match read_frame(&mut self.reader) {
            Ok(Some((tag, payload))) => Reply::decode_payload(tag, &payload).map_err(invalid),
            Ok(None) => Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a reply frame",
            ))),
            Err(FrameError::Io(e)) => Err(ServeError::Io(e)),
            Err(FrameError::Malformed(e)) => Err(invalid(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    fn req(line: &str) -> Request {
        parse_request(line).expect("test request parses")
    }

    #[test]
    fn varints_are_canonical() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.varint().unwrap(), v);
            assert!(cur.finish().is_ok());
        }
        // Padded encodings are rejected: 0x80 0x00 is 0 with a spare
        // byte.
        let mut cur = Cur::new(&[0x80, 0x00]);
        assert!(cur.varint().is_err());
        // Over-long encodings are rejected.
        let mut cur = Cur::new(&[0xff; 11]);
        assert!(cur.varint().is_err());
        // Overflow in the 10th byte is rejected.
        let mut cur = Cur::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
        assert!(cur.varint().is_err());
    }

    #[test]
    fn requests_round_trip() {
        for line in [
            "count r1 {x : 1 <= x && x <= 9}",
            "count r2 deadline_ms=500 max_splinters=8 {i,j : 1 <= i <= j <= n}",
            "sum s7 x + 2y {x,y : 0 <= x <= 3 && 0 <= y <= x}",
            "sum s8 max_depth=9 x {x : 1 <= x <= 5}",
            "count r3 prio=interactive {x : 1 <= x && x <= 9}",
            "count r4 prio=background {x : x = 1}",
            "sum s9 prio=batch deadline_ms=9 x {x : 1 <= x <= 5}",
            "ping",
            "ping p1",
            "stats",
            "metrics",
            "flightrec",
            "shards",
            "drain",
        ] {
            let r = req(line);
            let bytes = encode_request(&r);
            let (decoded, used) = decode_wire_request(&bytes).expect("decodes");
            assert_eq!(used, bytes.len(), "{line}: exact consumption");
            assert_eq!(decoded, WireRequest::One(r), "{line}");
            // Canonical: re-encode is byte-identical.
            assert_eq!(encode_wire_request(&decoded).unwrap(), bytes, "{line}");
        }
    }

    #[test]
    fn batches_round_trip_and_reject_nesting() {
        let reqs = vec![
            req("count a {x : 1 <= x && x <= 3}"),
            req("ping p9"),
            req("sum b x {x : 1 <= x <= 5}"),
        ];
        let frame = encode_batch(&reqs).unwrap();
        let (decoded, used) = decode_wire_request(&frame).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(decoded, WireRequest::Batch(reqs.clone()));
        assert_eq!(encode_wire_request(&decoded).unwrap(), frame);
        assert!(encode_batch(&[]).is_err());
        assert!(encode_batch(&[req("drain")]).is_err());
        // A hand-built nested batch is rejected at decode.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        payload.extend_from_slice(&frame);
        let mut nested = Vec::new();
        put_frame(&mut nested, TAG_BATCH, &payload);
        assert!(decode_wire_request(&nested).is_err());
    }

    #[test]
    fn replies_round_trip_through_bytes_and_render_text() {
        let cases = [
            (Reply::exact("r1", "9"), "OK r1 exact 9"),
            (Reply::exact("r1", "n + 1"), "OK r1 exact n + 1"),
            (
                Reply::bounded("r2", "budget", "3", "17"),
                "OK r2 bounded budget 3 ; 17",
            ),
            (
                Reply::bounded("r2", "breaker_open", "0", "n^2"),
                "OK r2 bounded breaker_open 0 ; n^2",
            ),
            (
                Reply::err("-", "protocol", "unknown verb \"zap\""),
                "ERR - protocol unknown verb \"zap\"",
            ),
            (
                Reply::err("r3", "parse", "unexpected token"),
                "ERR r3 parse unexpected token",
            ),
            (
                Reply::shed("r4", 50, "queue_full".to_string()),
                "SHED r4 retry_after_ms=50 reason=queue_full",
            ),
            (Reply::Pong { id: None }, "PONG"),
            (
                Reply::Pong {
                    id: Some("p1".to_string()),
                },
                "PONG p1",
            ),
            (
                Reply::Stats {
                    line: "STATS admitted=3 ok=3 errors=0".to_string(),
                },
                "STATS admitted=3 ok=3 errors=0",
            ),
            (
                Reply::Bye {
                    stats: "STATS admitted=3 ok=3".to_string(),
                },
                "STATS admitted=3 ok=3\nBYE",
            ),
            (
                Reply::Block {
                    text: "# metrics\n# EOF".to_string(),
                },
                "# metrics\n# EOF",
            ),
        ];
        for (reply, line) in &cases {
            assert_eq!(reply.to_text(), *line);
            let bytes = reply.encode();
            let (decoded, used) = Reply::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, *reply);
            assert_eq!(decoded.encode(), bytes, "canonical re-encode for {line:?}");
        }
        let batch = Reply::Batch(cases[..6].iter().map(|(r, _)| r.clone()).collect());
        let bytes = batch.encode();
        let (decoded, used) = Reply::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, batch);
    }

    #[test]
    fn constructors_keep_replies_on_one_line() {
        assert_eq!(Reply::exact("a", "1 +\n2").to_text(), "OK a exact 1 + 2");
        assert_eq!(
            Reply::bounded("b", "budget", "0\r", "n\n").to_text(),
            "OK b bounded budget 0  ; n "
        );
        assert_eq!(
            Reply::err("c", "parse", "bad\nthing").to_text(),
            "ERR c parse bad thing"
        );
        let malformed = parse_request("count r9 bogus_opt=3 {x : x = 1}").unwrap_err();
        assert_eq!(
            Reply::from(malformed).to_text(),
            "ERR r9 protocol unknown option \"bogus_opt\""
        );
    }

    #[test]
    fn truncated_and_garbage_frames_yield_typed_errors() {
        let valid = encode_request(&req("count r1 deadline_ms=9 {x : 1 <= x && x <= 9}"));
        for cut in 0..valid.len() {
            match decode_wire_request(&valid[..cut]) {
                Err(e) => assert_eq!(e.kind, "wire"),
                Ok((_, used)) => assert!(used <= cut, "no over-read on truncation"),
            }
        }
        // Oversized declared length.
        let mut oversized = vec![TAG_COUNT];
        put_varint(&mut oversized, (MAX_FRAME_LEN as u64) + 1);
        assert_eq!(decode_wire_request(&oversized).unwrap_err().kind, "wire");
        // Unknown tag.
        let mut unknown = vec![0x7f];
        put_varint(&mut unknown, 0);
        assert_eq!(decode_wire_request(&unknown).unwrap_err().kind, "wire");
        // Trailing bytes inside a declared payload.
        let mut padded_payload = Vec::new();
        put_varint(&mut padded_payload, 0); // ping, no id
        padded_payload.push(0xee);
        let mut padded = Vec::new();
        put_frame(&mut padded, TAG_PING, &padded_payload);
        assert_eq!(decode_wire_request(&padded).unwrap_err().kind, "wire");
    }

    /// Retired query fields are refused, never silently dropped: the
    /// `threads` override bit 6 and the trailing `client` section.
    #[test]
    fn retired_query_fields_are_refused() {
        // Bit 6 with a value in range of the old cap, moved from
        // `max_coeff_bits` (bit 5, the last two payload bytes).
        let mut threads = encode_request(&req("count r1 max_coeff_bits=4 {x : x = 1}"));
        let mask = threads.len() - 2;
        assert_eq!(threads[mask], 1 << 5);
        threads[mask] = 1 << 6;
        let e = decode_wire_request(&threads).unwrap_err();
        assert_eq!(e.kind, "wire");
        assert_eq!(e.detail, "override bit 6 is reserved");
        // A client section after the overrides: presence byte 1, then
        // the identity string "a".
        let plain = encode_request(&req("count r1 {x : x = 1}"));
        let mut payload = plain[2..].to_vec();
        payload.extend_from_slice(&[1, 1, b'a']);
        let mut client = Vec::new();
        put_frame(&mut client, plain[0], &payload);
        assert_eq!(decode_wire_request(&client).unwrap_err().kind, "wire");
    }

    #[test]
    fn query_decode_enforces_protocol_invariants() {
        // Invalid id.
        let mut q2 = match req("count r1 {x : x = 1}") {
            Request::Query(q) => q,
            _ => unreachable!(),
        };
        q2.id = "bad id!".to_string();
        let bytes = encode_request(&Request::Query(q2));
        assert_eq!(decode_wire_request(&bytes).unwrap_err().kind, "wire");
    }

    #[test]
    fn out_of_range_prio_values_are_rejected() {
        let good = encode_request(&req("count r1 prio=background {x : x = 1}"));
        // Locate the prio varint: it is the last payload byte (lane 2).
        assert_eq!(*good.last().unwrap(), 2);
        let mut bad = good;
        *bad.last_mut().unwrap() = 3;
        assert_eq!(decode_wire_request(&bad).unwrap_err().kind, "wire");
    }
}
