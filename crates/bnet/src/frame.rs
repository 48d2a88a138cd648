//! The bnet wire format: length-prefixed, versioned, bounds-checked.
//!
//! Every frame on the wire is a little-endian `u32` payload length
//! followed by the payload; the payload is a one-byte tag and the
//! tag-specific fields. Integers are little-endian, strings are
//! `u16`-length-prefixed UTF-8. The decoder is a pure function over a
//! byte slice through a bounds-checked cursor: hostile input —
//! truncated, oversized, wrong-tag, junk UTF-8 — always comes back as a
//! [`DecodeError`], never a panic, and the length prefix is validated
//! against [`MAX_FRAME_LEN`] *before* any allocation so a forged header
//! cannot balloon memory.

use std::io::{self, Read, Write};

use bserver::{JobOutcome, JobSpec, RejectReason};

/// Protocol version carried in `HELLO`; the server refuses anything
/// else with [`ErrCode::BadVersion`].
pub const PROTO_VERSION: u16 = 1;

/// Hard cap on a frame's payload length. The length prefix is checked
/// against this before the payload buffer is allocated.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Most arguments a [`WireJob`] may carry.
pub const MAX_ARGS: usize = 64;

/// Longest argument key (bytes) a [`WireJob`] may carry.
pub const MAX_KEY_LEN: usize = 256;

/// Longest free-form string (policy name, error detail) in any frame.
pub const MAX_STR_LEN: usize = 1024;

/// Most counters a `StatsReply` may carry. Sized so a worst-case reply
/// (every counter at [`MAX_KEY_LEN`]) still encodes under
/// [`MAX_FRAME_LEN`] — the server must never emit a frame its own
/// decoder would refuse (checked by a unit test and enforced at write
/// time by [`write_frame`]).
pub const MAX_STATS: usize = 2048;

/// Why the server refused a frame or a connection (the `ERR` code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The frame failed to decode (truncated, junk tag, oversized).
    Malformed,
    /// `HELLO` carried an unsupported protocol version.
    BadVersion,
    /// `HELLO`'s auth token did not match the tenant's.
    AuthFailed,
    /// The tenant is at its connection quota.
    ConnLimit,
    /// The tenant is at its pending-command quota.
    QuotaExceeded,
    /// The server's global admission queue is full — load shedding;
    /// the frame carries a retry-after hint.
    Overloaded,
    /// A `(tenant, seq)` pair was submitted twice.
    DuplicateSeq,
    /// A command frame arrived before `HELLO` completed.
    NoHello,
    /// `HELLO` named a tenant the serving rig does not host.
    UnknownTenant,
}

impl ErrCode {
    /// Every code, in wire-code order.
    pub const ALL: [ErrCode; 9] = [
        ErrCode::Malformed,
        ErrCode::BadVersion,
        ErrCode::AuthFailed,
        ErrCode::ConnLimit,
        ErrCode::QuotaExceeded,
        ErrCode::Overloaded,
        ErrCode::DuplicateSeq,
        ErrCode::NoHello,
        ErrCode::UnknownTenant,
    ];

    /// The on-wire `u16` for this code.
    pub fn code(self) -> u16 {
        match self {
            ErrCode::Malformed => 1,
            ErrCode::BadVersion => 2,
            ErrCode::AuthFailed => 3,
            ErrCode::ConnLimit => 4,
            ErrCode::QuotaExceeded => 5,
            ErrCode::Overloaded => 6,
            ErrCode::DuplicateSeq => 7,
            ErrCode::NoHello => 8,
            ErrCode::UnknownTenant => 9,
        }
    }

    /// The code for an on-wire `u16`, if it names one.
    pub fn from_code(code: u16) -> Option<Self> {
        ErrCode::ALL.into_iter().find(|c| c.code() == code)
    }

    /// Stable snake-case name (perf-counter suffix and log label).
    pub fn name(self) -> &'static str {
        match self {
            ErrCode::Malformed => "malformed",
            ErrCode::BadVersion => "bad_version",
            ErrCode::AuthFailed => "auth_failed",
            ErrCode::ConnLimit => "conn_limit",
            ErrCode::QuotaExceeded => "quota_exceeded",
            ErrCode::Overloaded => "overloaded",
            ErrCode::DuplicateSeq => "duplicate_seq",
            ErrCode::NoHello => "no_hello",
            ErrCode::UnknownTenant => "unknown_tenant",
        }
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A command as it travels on the wire: the [`JobSpec`] fields plus the
/// client-chosen arrival offset the serving wave schedules it at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireJob {
    /// Arrival cycle, as an offset into the wave that serves it (the
    /// fleet rebases every wave onto each shard's current clock).
    pub at_cycle: u64,
    /// Cost hint for `ShortestJobFirst` (see [`JobSpec::cost_hint`]).
    pub cost_hint: u64,
    /// Queue-wait deadline, if any (see [`JobSpec::deadline_cycles`]).
    pub deadline_cycles: Option<u64>,
    /// Named command arguments, in any order, each key at most once:
    /// the decoder refuses a repeated key
    /// ([`DecodeError::RepeatedKey`]) and enforces [`MAX_ARGS`] /
    /// [`MAX_KEY_LEN`].
    pub args: Vec<(String, u64)>,
}

impl WireJob {
    /// Unpacks into the [`JobSpec`] the server submits.
    pub fn to_spec(&self) -> JobSpec {
        let mut spec = JobSpec::new(self.args.iter().cloned().collect());
        spec.cost_hint = self.cost_hint;
        spec.deadline_cycles = self.deadline_cycles;
        spec
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.at_cycle.to_le_bytes());
        out.extend_from_slice(&self.cost_hint.to_le_bytes());
        match self.deadline_cycles {
            Some(d) => {
                out.push(1);
                out.extend_from_slice(&d.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.args.len() as u16).to_le_bytes());
        for (key, value) in &self.args {
            put_str(out, key);
            out.extend_from_slice(&value.to_le_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at_cycle = r.u64()?;
        let cost_hint = r.u64()?;
        let deadline_cycles = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return Err(DecodeError::BadValue("deadline flag")),
        };
        let n_args = r.u16()? as usize;
        if n_args > MAX_ARGS {
            return Err(DecodeError::TooMany {
                what: "args",
                n: n_args,
                max: MAX_ARGS,
            });
        }
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            let key = r.string(MAX_KEY_LEN)?;
            let value = r.u64()?;
            if args.iter().any(|(k, _)| *k == key) {
                return Err(DecodeError::RepeatedKey);
            }
            args.push((key, value));
        }
        Ok(Self {
            at_cycle,
            cost_hint,
            deadline_cycles,
            args,
        })
    }
}

/// A reject reason as it travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireReject {
    /// The tenant's submission queue was full on arrival.
    AdmissionFull,
    /// The queue-wait deadline expired.
    DeadlineExpired,
    /// The job's arguments do not match the system's command spec.
    BadArgs,
}

/// A [`JobOutcome`] as it travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    /// The job ran (see [`JobOutcome::Completed`]).
    Completed {
        /// Accelerator response payload.
        value: u64,
        /// Arrival → host-observed completion, in cycles.
        latency_cycles: u64,
        /// Arrival → dispatch, in cycles.
        queue_wait_cycles: u64,
        /// Core the job ran on.
        core: u16,
        /// Deadline retries consumed.
        retries: u32,
    },
    /// The server refused the job (see [`JobOutcome::Rejected`]).
    Rejected {
        /// Why.
        reason: WireReject,
        /// Deadline retries consumed.
        retries: u32,
        /// Arrival → rejection, in cycles.
        queue_wait_cycles: u64,
    },
}

impl WireOutcome {
    /// Packs a server [`JobOutcome`] for the wire.
    pub fn from_outcome(outcome: &JobOutcome) -> Self {
        match *outcome {
            JobOutcome::Completed {
                value,
                latency_cycles,
                queue_wait_cycles,
                core,
                retries,
            } => WireOutcome::Completed {
                value,
                latency_cycles,
                queue_wait_cycles,
                core,
                retries,
            },
            JobOutcome::Rejected {
                reason,
                retries,
                queue_wait_cycles,
            } => WireOutcome::Rejected {
                reason: match reason {
                    RejectReason::AdmissionFull => WireReject::AdmissionFull,
                    RejectReason::DeadlineExpired => WireReject::DeadlineExpired,
                    RejectReason::BadArgs => WireReject::BadArgs,
                },
                retries,
                queue_wait_cycles,
            },
        }
    }

    /// Whether the job completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, WireOutcome::Completed { .. })
    }

    /// The completion latency, if the job completed.
    pub fn latency_cycles(&self) -> Option<u64> {
        match self {
            WireOutcome::Completed { latency_cycles, .. } => Some(*latency_cycles),
            WireOutcome::Rejected { .. } => None,
        }
    }

    /// Appends this outcome's canonical wire bytes — the replay oracle's
    /// "byte-identical outcomes" are digests over exactly this encoding.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            WireOutcome::Completed {
                value,
                latency_cycles,
                queue_wait_cycles,
                core,
                retries,
            } => {
                out.push(0);
                out.extend_from_slice(&value.to_le_bytes());
                out.extend_from_slice(&latency_cycles.to_le_bytes());
                out.extend_from_slice(&queue_wait_cycles.to_le_bytes());
                out.extend_from_slice(&core.to_le_bytes());
                out.extend_from_slice(&retries.to_le_bytes());
            }
            WireOutcome::Rejected {
                reason,
                retries,
                queue_wait_cycles,
            } => {
                out.push(match reason {
                    WireReject::AdmissionFull => 1,
                    WireReject::DeadlineExpired => 2,
                    WireReject::BadArgs => 3,
                });
                out.extend_from_slice(&retries.to_le_bytes());
                out.extend_from_slice(&queue_wait_cycles.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(WireOutcome::Completed {
                value: r.u64()?,
                latency_cycles: r.u64()?,
                queue_wait_cycles: r.u64()?,
                core: r.u16()?,
                retries: r.u32()?,
            }),
            kind @ 1..=3 => Ok(WireOutcome::Rejected {
                reason: match kind {
                    1 => WireReject::AdmissionFull,
                    2 => WireReject::DeadlineExpired,
                    _ => WireReject::BadArgs,
                },
                retries: r.u32()?,
                queue_wait_cycles: r.u64()?,
            }),
            _ => Err(DecodeError::BadValue("outcome kind")),
        }
    }
}

/// One protocol frame (the decoded payload of a length-prefixed
/// record). Client→server frames first, then server→client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Opens a session: protocol version, tenant id, auth token.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u16,
        /// Global tenant id on the serving rig.
        tenant: u32,
        /// Per-tenant auth token (see `rig::tenant_token`).
        token: u64,
    },
    /// Submits one command under a client-chosen sequence number,
    /// answered synchronously with `Ack` or `Err`.
    Submit {
        /// Client-chosen sequence number, unique per tenant.
        seq: u64,
        /// The command.
        job: WireJob,
    },
    /// Flushes this connection's submissions and asks for their
    /// outcomes; the reply is zero or more `Outcome` frames closed by
    /// `Done`.
    Poll,
    /// Asks for the server's `net/` counters and fleet rollup.
    StatsReq,
    /// Polite close; the server deregisters the connection.
    Bye,
    /// Accepts `Hello`: the session's serving parameters, including the
    /// tenant's pre-allocated device buffer.
    HelloAck {
        /// The tenant id echoed back.
        tenant: u32,
        /// Shards in the serving fleet.
        shards: u32,
        /// Total cores across the fleet.
        cores: u32,
        /// Dispatch policy name (kebab-case).
        policy: String,
        /// Device address of this tenant's pre-allocated buffer.
        buffer_addr: u64,
        /// The buffer's capacity in `u32` elements.
        buffer_eles: u32,
    },
    /// Accepts a `Submit`.
    Ack {
        /// The accepted sequence number.
        seq: u64,
    },
    /// One command's outcome, delivered in reply to `Poll`.
    Outcome {
        /// The command's sequence number.
        seq: u64,
        /// What happened to it.
        outcome: WireOutcome,
    },
    /// Closes a `Poll` reply after its `Outcome` frames.
    Done {
        /// Number of `Outcome` frames that preceded this.
        count: u32,
    },
    /// The server's counters, in reply to `StatsReq`.
    StatsReply {
        /// Sorted `(name, value)` pairs.
        counters: Vec<(String, u64)>,
    },
    /// Refusal: an error code, a retry-after hint (microseconds, `0`
    /// when retrying will not help), and a human-readable detail.
    Err {
        /// Why.
        code: ErrCode,
        /// Back-off hint in microseconds (load shedding), else `0`.
        retry_after_us: u32,
        /// Human-readable detail.
        detail: String,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_SUBMIT: u8 = 0x02;
const TAG_POLL: u8 = 0x04;
const TAG_STATS_REQ: u8 = 0x05;
const TAG_BYE: u8 = 0x06;
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_ACK: u8 = 0x82;
const TAG_OUTCOME: u8 = 0x83;
const TAG_DONE: u8 = 0x84;
const TAG_STATS_REPLY: u8 = 0x85;
const TAG_ERR: u8 = 0x86;

impl Frame {
    /// Encodes the frame's payload (tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Frame::Hello {
                proto,
                tenant,
                token,
            } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&proto.to_le_bytes());
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&token.to_le_bytes());
            }
            Frame::Submit { seq, job } => {
                out.push(TAG_SUBMIT);
                out.extend_from_slice(&seq.to_le_bytes());
                job.encode_into(&mut out);
            }
            Frame::Poll => out.push(TAG_POLL),
            Frame::StatsReq => out.push(TAG_STATS_REQ),
            Frame::Bye => out.push(TAG_BYE),
            Frame::HelloAck {
                tenant,
                shards,
                cores,
                policy,
                buffer_addr,
                buffer_eles,
            } => {
                out.push(TAG_HELLO_ACK);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
                out.extend_from_slice(&cores.to_le_bytes());
                put_str(&mut out, policy);
                out.extend_from_slice(&buffer_addr.to_le_bytes());
                out.extend_from_slice(&buffer_eles.to_le_bytes());
            }
            Frame::Ack { seq } => {
                out.push(TAG_ACK);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Frame::Outcome { seq, outcome } => {
                out.push(TAG_OUTCOME);
                out.extend_from_slice(&seq.to_le_bytes());
                outcome.encode_into(&mut out);
            }
            Frame::Done { count } => {
                out.push(TAG_DONE);
                out.extend_from_slice(&count.to_le_bytes());
            }
            Frame::StatsReply { counters } => {
                out.push(TAG_STATS_REPLY);
                out.extend_from_slice(&(counters.len() as u32).to_le_bytes());
                for (name, value) in counters {
                    put_str(&mut out, name);
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
            Frame::Err {
                code,
                retry_after_us,
                detail,
            } => {
                out.push(TAG_ERR);
                out.extend_from_slice(&code.code().to_le_bytes());
                out.extend_from_slice(&retry_after_us.to_le_bytes());
                put_str(&mut out, detail);
            }
        }
        out
    }

    /// Decodes one payload. Every failure mode is a [`DecodeError`];
    /// this function never panics on any input.
    pub fn decode(payload: &[u8]) -> Result<Frame, DecodeError> {
        let mut r = Reader::new(payload);
        let frame = match r.u8()? {
            TAG_HELLO => Frame::Hello {
                proto: r.u16()?,
                tenant: r.u32()?,
                token: r.u64()?,
            },
            TAG_SUBMIT => Frame::Submit {
                seq: r.u64()?,
                job: WireJob::decode(&mut r)?,
            },
            TAG_POLL => Frame::Poll,
            TAG_STATS_REQ => Frame::StatsReq,
            TAG_BYE => Frame::Bye,
            TAG_HELLO_ACK => Frame::HelloAck {
                tenant: r.u32()?,
                shards: r.u32()?,
                cores: r.u32()?,
                policy: r.string(MAX_STR_LEN)?,
                buffer_addr: r.u64()?,
                buffer_eles: r.u32()?,
            },
            TAG_ACK => Frame::Ack { seq: r.u64()? },
            TAG_OUTCOME => Frame::Outcome {
                seq: r.u64()?,
                outcome: WireOutcome::decode(&mut r)?,
            },
            TAG_DONE => Frame::Done { count: r.u32()? },
            TAG_STATS_REPLY => {
                let n = r.u32()? as usize;
                if n > MAX_STATS {
                    return Err(DecodeError::TooMany {
                        what: "counters",
                        n,
                        max: MAX_STATS,
                    });
                }
                let mut counters = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let name = r.string(MAX_KEY_LEN)?;
                    let value = r.u64()?;
                    counters.push((name, value));
                }
                Frame::StatsReply { counters }
            }
            TAG_ERR => Frame::Err {
                code: ErrCode::from_code(r.u16()?).ok_or(DecodeError::BadValue("err code"))?,
                retry_after_us: r.u32()?,
                detail: r.string(MAX_STR_LEN)?,
            },
            tag => return Err(DecodeError::BadTag(tag)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the field did.
    Truncated,
    /// Bytes remained after the frame's last field.
    Trailing(usize),
    /// The tag byte names no frame.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// A count or length field exceeded its cap.
    TooMany {
        /// What was counted.
        what: &'static str,
        /// The claimed count.
        n: usize,
        /// The cap.
        max: usize,
    },
    /// A discriminant field held an unknown value.
    BadValue(&'static str),
    /// A job named the same argument twice.
    RepeatedKey,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after frame"),
            DecodeError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
            DecodeError::TooMany { what, n, max } => {
                write!(f, "{n} {what} exceeds the cap of {max}")
            }
            DecodeError::BadValue(field) => write!(f, "bad value in {field}"),
            DecodeError::RepeatedKey => write!(f, "repeated argument key"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a framed read failed.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed (including mid-frame EOF).
    Io(io::Error),
    /// The length prefix exceeded [`MAX_FRAME_LEN`]; nothing was
    /// allocated or consumed past the prefix.
    Oversized(u32),
    /// The payload arrived but failed to decode.
    Decode(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport: {e}"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the cap of {MAX_FRAME_LEN}")
            }
            FrameError::Decode(e) => write!(f, "frame decode: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed frame; returns total bytes written
/// (prefix + payload). A payload over [`MAX_FRAME_LEN`] is refused
/// with `InvalidData` *before* anything hits the wire — the receiver
/// would kill the connection over it, so failing the send locally is
/// strictly better.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<usize> {
    let bytes = frame_bytes(frame)?;
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// The bytes [`write_frame`] puts on the wire for `frame`: length
/// prefix, then payload. Fails the same way for an oversized payload.
pub(crate) fn frame_bytes(frame: &Frame) -> io::Result<Vec<u8>> {
    let payload = frame.encode();
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame payload {} exceeds the cap of {MAX_FRAME_LEN}",
                payload.len()
            ),
        ));
    }
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    Ok(bytes)
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF at a
/// frame boundary; the `usize` is total bytes consumed. The length
/// prefix is validated against [`MAX_FRAME_LEN`] before the payload
/// buffer is allocated.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(Frame, usize)>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let frame = Frame::decode(&payload).map_err(FrameError::Decode)?;
    Ok(Some((frame, 4 + len as usize)))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over a payload; every accessor returns
/// [`DecodeError::Truncated`] instead of slicing out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self, max: usize) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        if len > max {
            return Err(DecodeError::TooMany {
                what: "string bytes",
                n: len,
                max,
            });
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn finish(self) -> Result<(), DecodeError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(DecodeError::Trailing(left))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                proto: PROTO_VERSION,
                tenant: 3,
                token: 0xDEAD_BEEF_CAFE_F00D,
            },
            Frame::Submit {
                seq: 42,
                job: WireJob {
                    at_cycle: 1000,
                    cost_hint: 64,
                    deadline_cycles: Some(5000),
                    args: vec![("len".into(), 64), ("vec_addr".into(), 0x1000)],
                },
            },
            Frame::Poll,
            Frame::StatsReq,
            Frame::Bye,
            Frame::HelloAck {
                tenant: 3,
                shards: 2,
                cores: 4,
                policy: "fifo".into(),
                buffer_addr: 0x2000,
                buffer_eles: 4096,
            },
            Frame::Ack { seq: 42 },
            Frame::Outcome {
                seq: 42,
                outcome: WireOutcome::Completed {
                    value: 7,
                    latency_cycles: 900,
                    queue_wait_cycles: 100,
                    core: 1,
                    retries: 0,
                },
            },
            Frame::Outcome {
                seq: 43,
                outcome: WireOutcome::Rejected {
                    reason: WireReject::AdmissionFull,
                    retries: 2,
                    queue_wait_cycles: 50,
                },
            },
            Frame::Outcome {
                seq: 44,
                outcome: WireOutcome::Rejected {
                    reason: WireReject::BadArgs,
                    retries: 0,
                    queue_wait_cycles: 0,
                },
            },
            Frame::Done { count: 3 },
            Frame::StatsReply {
                counters: vec![("net/frames_in".into(), 9)],
            },
            Frame::Err {
                code: ErrCode::Overloaded,
                retry_after_us: 500,
                detail: "admission queue full".into(),
            },
        ]
    }

    #[test]
    fn frames_roundtrip() {
        for frame in sample_frames() {
            let payload = frame.encode();
            assert_eq!(Frame::decode(&payload).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn framed_io_roundtrips_and_counts_bytes() {
        let mut wire = Vec::new();
        let frames = sample_frames();
        let mut written = 0;
        for frame in &frames {
            written += write_frame(&mut wire, frame).unwrap();
        }
        assert_eq!(written, wire.len());
        let mut cursor = std::io::Cursor::new(wire);
        let mut read = 0;
        for frame in &frames {
            let (got, n) = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, frame);
            read += n;
        }
        assert_eq!(read, written);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn every_truncation_of_every_frame_errors() {
        for frame in sample_frames() {
            let payload = frame.encode();
            for cut in 0..payload.len() {
                assert!(
                    Frame::decode(&payload[..cut]).is_err(),
                    "{frame:?} truncated at {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for frame in sample_frames() {
            let mut payload = frame.encode();
            payload.push(0);
            assert_eq!(Frame::decode(&payload), Err(DecodeError::Trailing(1)));
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized(u32::MAX))
        ));
    }

    #[test]
    fn arg_and_string_caps_hold() {
        // A Submit claiming 65 args must be refused by count, not by
        // walking off the end.
        let mut payload = vec![TAG_SUBMIT];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&65u16.to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(DecodeError::TooMany { what: "args", .. })
        ));
        // A string longer than its cap is refused by the declared
        // length, before its bytes are touched.
        let mut payload = vec![TAG_ERR];
        payload.extend_from_slice(&ErrCode::Malformed.code().to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&((MAX_STR_LEN + 1) as u16).to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(DecodeError::TooMany {
                what: "string bytes",
                ..
            })
        ));
    }

    #[test]
    fn repeated_arg_keys_are_refused() {
        let submit = |args: Vec<(&str, u64)>| Frame::Submit {
            seq: 1,
            job: WireJob {
                at_cycle: 0,
                cost_hint: 0,
                deadline_cycles: None,
                args: args.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            },
        };
        let twice = submit(vec![("n_eles", 64), ("vec_addr", 0x1000), ("n_eles", 4096)]);
        assert_eq!(
            Frame::decode(&twice.encode()),
            Err(DecodeError::RepeatedKey)
        );
        // Order is free; only repetition is refused.
        let unsorted = submit(vec![("vec_addr", 0x1000), ("n_eles", 64)]);
        assert_eq!(Frame::decode(&unsorted.encode()), Ok(unsorted));
    }

    #[test]
    fn worst_case_stats_reply_fits_under_the_frame_cap() {
        // The decoder accepts up to MAX_STATS counters with
        // MAX_KEY_LEN names; the encoder must stay under MAX_FRAME_LEN
        // at exactly those caps or the server can emit frames its own
        // peer rejects.
        let counters: Vec<(String, u64)> = (0..MAX_STATS)
            .map(|i| (format!("{i:0>width$}", width = MAX_KEY_LEN), u64::MAX))
            .collect();
        let frame = Frame::StatsReply { counters };
        let mut wire = Vec::new();
        let n = write_frame(&mut wire, &frame).expect("worst-case StatsReply must encode");
        assert!(n - 4 <= MAX_FRAME_LEN as usize);
        let mut cursor = std::io::Cursor::new(wire);
        let (got, _) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn oversized_payload_is_refused_at_write_time() {
        // Past the decoder caps the encoder still refuses locally
        // instead of shipping a frame the peer would kill the
        // connection over.
        let counters: Vec<(String, u64)> = (0..2 * MAX_STATS)
            .map(|i| (format!("{i:0>width$}", width = MAX_KEY_LEN), 0))
            .collect();
        let err = write_frame(&mut Vec::new(), &Frame::StatsReply { counters })
            .expect_err("oversized payload must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn err_codes_roundtrip() {
        for code in ErrCode::ALL {
            assert_eq!(ErrCode::from_code(code.code()), Some(code));
        }
        assert_eq!(ErrCode::from_code(0), None);
        assert_eq!(ErrCode::from_code(999), None);
    }
}
