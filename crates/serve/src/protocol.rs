//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message is one frame: a 4-byte big-endian payload length, then the
//! payload.  The payload starts with a fixed 6-byte header — protocol
//! version, message type, and a 4-byte request id the server echoes in the
//! matching response (connections may pipeline requests; responses complete
//! in any order and are correlated by id) — followed by a type-specific
//! body.  All integers are big-endian; floats travel as the big-endian bits
//! of their `f64`.  The full normative description lives in `PROTOCOL.md`
//! at the workspace root.
//!
//! Error codes come in two disjoint ranges: protocol-level codes below 16
//! ([`codes`]: malformed frames, parse rejections, load shedding) and the
//! execution-layer taxonomy at 16 and up ([`sliq_exec::wire`], produced by
//! [`sliq_exec::ExecError::wire_code`]).

use sliq_circuit::qasm::ParseLimits;
use sliq_circuit::{Circuit, Gate};
use sliq_exec::BackendKind;
use std::io::{self, Read, Write};

/// The protocol version this build speaks (payload byte 0 of every frame).
pub const PROTOCOL_VERSION: u8 = 1;

/// Default cap on a frame's payload length; `read_frame` rejects larger
/// frames before allocating their buffer.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Protocol-level error codes (the sub-16 range reserved by
/// [`sliq_exec::wire`]; execution errors reuse their [`sliq_exec::wire`]
/// codes verbatim).
pub mod codes {
    /// The frame or body could not be decoded.
    pub const MALFORMED: u16 = 1;
    /// The frame's version byte is not supported by this server.
    pub const UNSUPPORTED_VERSION: u16 = 2;
    /// The QASM source was rejected by the parser (message carries
    /// line/column).
    pub const PARSE: u16 = 3;
    /// The admission queue is full; retry later (sent as a distinct
    /// `Overloaded` message type, never silently dropped).
    pub const OVERLOADED: u16 = 4;
    /// The server failed internally (a bug; the message says what broke).
    pub const INTERNAL: u16 = 5;
    /// The frame exceeds the server's size cap.
    pub const FRAME_TOO_LARGE: u16 = 6;
}

// Message type bytes (requests < 0x80 <= responses).
const MSG_RUN_QASM: u8 = 0x01;
const MSG_RUN_GATES: u8 = 0x02;
const MSG_STATS: u8 = 0x03;
const MSG_PING: u8 = 0x04;
const MSG_RUN_OK: u8 = 0x81;
const MSG_ERROR: u8 = 0x82;
const MSG_OVERLOADED: u8 = 0x83;
const MSG_STATS_OK: u8 = 0x84;
const MSG_PONG: u8 = 0x85;

/// Per-request execution options carried in both run request shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Requested backend ([`BackendKind::Auto`] lets the server negotiate).
    pub backend: BackendKind,
    /// Measurement shots to sample after the run (0 = none).
    pub shots: u64,
    /// Seed for the batched sampler (same seed ⇒ same histogram).
    pub seed: u64,
    /// Tenant name for per-tenant budgets (empty = the default tenant).
    pub tenant: String,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            backend: BackendKind::Auto,
            shots: 0,
            seed: 0,
            tenant: String::new(),
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a circuit submitted as OpenQASM 2.0 text.
    RunQasm {
        /// Execution options.
        options: RunOptions,
        /// The QASM program.
        source: String,
    },
    /// Run a circuit submitted in the compact binary gate encoding.
    RunGates {
        /// Execution options.
        options: RunOptions,
        /// The decoded circuit.
        circuit: Circuit,
    },
    /// Fetch the server's counters.
    Stats,
    /// Liveness probe.
    Ping,
}

/// A sampling histogram on the wire: outcome/count pairs sorted by outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHistogram {
    /// Shots drawn.
    pub shots: u64,
    /// Wall-clock microseconds of the batched sampling.
    pub sample_micros: u64,
    /// `(outcome, count)` pairs, ascending by outcome.
    pub counts: Vec<(u64, u64)>,
}

/// The successful result of a run request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The concrete backend that executed the circuit.
    pub backend: BackendKind,
    /// Gates applied by the run.
    pub gates_applied: u64,
    /// Wall-clock microseconds of the run (a cache hit reports the lookup).
    pub run_micros: u64,
    /// Sum of all outcome probabilities after the run.
    pub total_probability: f64,
    /// Live representation nodes (symbolic backends only).
    pub live_nodes: Option<u64>,
    /// Peak memory of the state representation in MiB.
    pub peak_memory_mib: f64,
    /// The sampling histogram, when shots were requested.
    pub histogram: Option<WireHistogram>,
    /// Final classical-register contents for dynamic circuits (bit `i` is
    /// clbit `i`), `None` for static circuits.  Deterministic in the
    /// request's seed.
    pub readout: Option<Vec<bool>>,
}

/// The server's counters, as ordered name/value pairs (forward-compatible:
/// clients ignore names they do not know).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `(name, value)` pairs in server order.
    pub fields: Vec<(String, u64)>,
}

impl StatsSnapshot {
    /// The value of a named counter, if the server reported it.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| *value)
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The run completed; here is the result.
    Run(RunOutcome),
    /// The request failed; `code` is a [`codes`] or [`sliq_exec::wire`]
    /// code.
    Error {
        /// Stable numeric error code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// The admission queue was full and the request was shed (code
    /// [`codes::OVERLOADED`]); the client should back off and retry.
    Overloaded {
        /// Human-readable detail (queue capacity at shed time).
        message: String,
    },
    /// Server counters.
    Stats(StatsSnapshot),
    /// Liveness reply.
    Pong,
}

/// Decoding failures.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The frame or body violates the protocol.
    Malformed(String),
    /// The peer speaks an unsupported protocol version.
    Version(u8),
    /// The frame exceeds the configured size cap.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Version(v) => write!(f, "unsupported protocol version {v}"),
            WireError::FrameTooLarge { len, limit } => {
                write!(f, "frame of {len} bytes exceeds the {limit}-byte cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(value: io::Error) -> Self {
        WireError::Io(value)
    }
}

// ---------------------------------------------------------------------- //
// Primitive encoding
// ---------------------------------------------------------------------- //

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A bounds-checked cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed(format!(
                "truncated {what}: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.bytes(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.bytes(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.bytes(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn rest_utf8(&mut self, what: &str) -> Result<String, WireError> {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        String::from_utf8(slice.to_vec())
            .map_err(|_| WireError::Malformed(format!("{what} is not valid UTF-8")))
    }

    fn done(&self, what: &str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn backend_byte(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Auto => 0,
        BackendKind::BitSlice => 1,
        BackendKind::Qmdd => 2,
        BackendKind::Dense => 3,
        BackendKind::Stabilizer => 4,
    }
}

fn backend_from_byte(byte: u8) -> Result<BackendKind, WireError> {
    Ok(match byte {
        0 => BackendKind::Auto,
        1 => BackendKind::BitSlice,
        2 => BackendKind::Qmdd,
        3 => BackendKind::Dense,
        4 => BackendKind::Stabilizer,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown backend byte {other}"
            )))
        }
    })
}

// ---------------------------------------------------------------------- //
// Circuit encoding (the compact binary gate format)
// ---------------------------------------------------------------------- //

const OP_X: u8 = 0;
const OP_Y: u8 = 1;
const OP_Z: u8 = 2;
const OP_H: u8 = 3;
const OP_S: u8 = 4;
const OP_SDG: u8 = 5;
const OP_T: u8 = 6;
const OP_TDG: u8 = 7;
const OP_RX_PI2: u8 = 8;
const OP_RY_PI2: u8 = 9;
const OP_CNOT: u8 = 10;
const OP_CZ: u8 = 11;
const OP_TOFFOLI: u8 = 12;
const OP_FREDKIN: u8 = 13;
const OP_MEASURE: u8 = 14;
const OP_RESET: u8 = 15;
const OP_COND: u8 = 16;

/// Appends the compact encoding of `circuit` (`u32` qubit count, `u32`
/// classical-bit count, `u32` gate count, then one opcode + operands per
/// gate) to `out`.  `ncontrols` is one byte, so a gate with more than 255
/// controls, conditional or not, is refused with [`WireError::Malformed`].
pub fn encode_circuit(out: &mut Vec<u8>, circuit: &Circuit) -> Result<(), WireError> {
    put_u32(out, circuit.num_qubits() as u32);
    put_u32(out, circuit.num_clbits() as u32);
    put_u32(out, circuit.len() as u32);
    for gate in circuit.iter() {
        encode_gate(out, gate)?;
    }
    Ok(())
}

fn encode_gate(out: &mut Vec<u8>, gate: &Gate) -> Result<(), WireError> {
    match gate {
        Gate::X(q) => single(out, OP_X, *q),
        Gate::Y(q) => single(out, OP_Y, *q),
        Gate::Z(q) => single(out, OP_Z, *q),
        Gate::H(q) => single(out, OP_H, *q),
        Gate::S(q) => single(out, OP_S, *q),
        Gate::Sdg(q) => single(out, OP_SDG, *q),
        Gate::T(q) => single(out, OP_T, *q),
        Gate::Tdg(q) => single(out, OP_TDG, *q),
        Gate::RxPi2(q) => single(out, OP_RX_PI2, *q),
        Gate::RyPi2(q) => single(out, OP_RY_PI2, *q),
        Gate::Cnot { control, target } => {
            out.push(OP_CNOT);
            put_u32(out, *control as u32);
            put_u32(out, *target as u32);
        }
        Gate::Cz { control, target } => {
            out.push(OP_CZ);
            put_u32(out, *control as u32);
            put_u32(out, *target as u32);
        }
        Gate::Toffoli { controls, target } => {
            out.push(OP_TOFFOLI);
            encode_controls(out, controls)?;
            put_u32(out, *target as u32);
        }
        Gate::Fredkin {
            controls,
            target1,
            target2,
        } => {
            out.push(OP_FREDKIN);
            encode_controls(out, controls)?;
            put_u32(out, *target1 as u32);
            put_u32(out, *target2 as u32);
        }
        Gate::Measure { qubit, clbit } => {
            out.push(OP_MEASURE);
            put_u32(out, *qubit as u32);
            put_u32(out, *clbit as u32);
        }
        Gate::Reset { qubit } => single(out, OP_RESET, *qubit),
        Gate::Conditional {
            offset,
            width,
            value,
            gate,
        } => {
            out.push(OP_COND);
            put_u32(out, *offset as u32);
            put_u32(out, *width as u32);
            put_u64(out, *value);
            encode_gate(out, gate)?;
        }
    }
    Ok(())
}

fn encode_controls(out: &mut Vec<u8>, controls: &[usize]) -> Result<(), WireError> {
    let count = u8::try_from(controls.len()).map_err(|_| {
        WireError::Malformed(format!(
            "{} controls exceed the 255 a binary gate can carry",
            controls.len()
        ))
    })?;
    out.push(count);
    for c in controls {
        put_u32(out, *c as u32);
    }
    Ok(())
}

fn single(out: &mut Vec<u8>, op: u8, q: usize) {
    out.push(op);
    put_u32(out, q as u32);
}

/// Decodes a compact circuit, rejecting declared sizes beyond `limits`
/// before allocating anything proportional to them.
fn decode_circuit(cur: &mut Cursor<'_>, limits: &ParseLimits) -> Result<Circuit, WireError> {
    let num_qubits = cur.u32("qubit count")? as usize;
    let num_clbits = cur.u32("clbit count")? as usize;
    let num_gates = cur.u32("gate count")? as usize;
    if num_qubits > limits.max_qubits {
        return Err(WireError::Malformed(format!(
            "{num_qubits} qubits exceeds the limit ({})",
            limits.max_qubits
        )));
    }
    if num_clbits > limits.max_clbits {
        return Err(WireError::Malformed(format!(
            "{num_clbits} classical bits exceeds the limit ({})",
            limits.max_clbits
        )));
    }
    if num_gates > limits.max_gates {
        return Err(WireError::Malformed(format!(
            "{num_gates} gates exceeds the limit ({})",
            limits.max_gates
        )));
    }
    // 5 bytes is the smallest gate encoding, so the declared count can be
    // sanity-checked against the body before reserving the vector.
    if num_gates > cur.remaining() / 5 + 1 {
        return Err(WireError::Malformed(format!(
            "{num_gates} gates declared but only {} body bytes remain",
            cur.remaining()
        )));
    }
    let mut circuit = Circuit::with_clbits(num_qubits, num_clbits);
    for _ in 0..num_gates {
        let gate = decode_gate(cur, true)?;
        circuit.push(gate);
    }
    Ok(circuit)
}

/// Decodes one gate record.  `allow_dynamic` is false inside an `OP_COND`
/// body: conditionals must wrap a plain unitary, and rejecting nested
/// dynamic records here also bounds the decoder's recursion at depth one.
fn decode_gate(cur: &mut Cursor<'_>, allow_dynamic: bool) -> Result<Gate, WireError> {
    let op = cur.u8("gate opcode")?;
    if !allow_dynamic && op >= OP_MEASURE {
        return Err(WireError::Malformed(format!(
            "opcode {op} cannot appear inside a conditional body"
        )));
    }
    Ok(match op {
        OP_X => Gate::X(cur.u32("target")? as usize),
        OP_Y => Gate::Y(cur.u32("target")? as usize),
        OP_Z => Gate::Z(cur.u32("target")? as usize),
        OP_H => Gate::H(cur.u32("target")? as usize),
        OP_S => Gate::S(cur.u32("target")? as usize),
        OP_SDG => Gate::Sdg(cur.u32("target")? as usize),
        OP_T => Gate::T(cur.u32("target")? as usize),
        OP_TDG => Gate::Tdg(cur.u32("target")? as usize),
        OP_RX_PI2 => Gate::RxPi2(cur.u32("target")? as usize),
        OP_RY_PI2 => Gate::RyPi2(cur.u32("target")? as usize),
        OP_CNOT => Gate::Cnot {
            control: cur.u32("control")? as usize,
            target: cur.u32("target")? as usize,
        },
        OP_CZ => Gate::Cz {
            control: cur.u32("control")? as usize,
            target: cur.u32("target")? as usize,
        },
        OP_TOFFOLI => {
            let n = cur.u8("control count")? as usize;
            let mut controls = Vec::with_capacity(n);
            for _ in 0..n {
                controls.push(cur.u32("control")? as usize);
            }
            Gate::Toffoli {
                controls,
                target: cur.u32("target")? as usize,
            }
        }
        OP_FREDKIN => {
            let n = cur.u8("control count")? as usize;
            let mut controls = Vec::with_capacity(n);
            for _ in 0..n {
                controls.push(cur.u32("control")? as usize);
            }
            Gate::Fredkin {
                controls,
                target1: cur.u32("target1")? as usize,
                target2: cur.u32("target2")? as usize,
            }
        }
        OP_MEASURE => Gate::Measure {
            qubit: cur.u32("measure qubit")? as usize,
            clbit: cur.u32("measure clbit")? as usize,
        },
        OP_RESET => Gate::Reset {
            qubit: cur.u32("reset qubit")? as usize,
        },
        OP_COND => Gate::Conditional {
            offset: cur.u32("condition offset")? as usize,
            width: cur.u32("condition width")? as usize,
            value: cur.u64("condition value")?,
            gate: Box::new(decode_gate(cur, false)?),
        },
        other => {
            return Err(WireError::Malformed(format!("unknown gate opcode {other}")));
        }
    })
}

// ---------------------------------------------------------------------- //
// Message encoding
// ---------------------------------------------------------------------- //

fn encode_run_options(out: &mut Vec<u8>, options: &RunOptions) -> Result<(), WireError> {
    out.push(backend_byte(options.backend));
    out.push(0); // flags, reserved
    put_u64(out, options.shots);
    put_u64(out, options.seed);
    let tenant = options.tenant.as_bytes();
    if tenant.len() > u8::MAX as usize {
        return Err(WireError::Malformed(format!(
            "tenant name of {} bytes exceeds 255",
            tenant.len()
        )));
    }
    out.push(tenant.len() as u8);
    out.extend_from_slice(tenant);
    Ok(())
}

fn decode_run_options(cur: &mut Cursor<'_>) -> Result<RunOptions, WireError> {
    let backend = backend_from_byte(cur.u8("backend")?)?;
    let flags = cur.u8("flags")?;
    if flags != 0 {
        return Err(WireError::Malformed(format!("unknown flags {flags:#04x}")));
    }
    let shots = cur.u64("shots")?;
    let seed = cur.u64("seed")?;
    let tenant_len = cur.u8("tenant length")? as usize;
    let tenant = String::from_utf8(cur.bytes(tenant_len, "tenant name")?.to_vec())
        .map_err(|_| WireError::Malformed("tenant name is not valid UTF-8".into()))?;
    Ok(RunOptions {
        backend,
        shots,
        seed,
        tenant,
    })
}

fn frame(message_type: u8, request_id: u32, body: &[u8]) -> Vec<u8> {
    let payload_len = 6 + body.len();
    let mut out = Vec::with_capacity(4 + payload_len);
    put_u32(&mut out, payload_len as u32);
    out.push(PROTOCOL_VERSION);
    out.push(message_type);
    put_u32(&mut out, request_id);
    out.extend_from_slice(body);
    out
}

/// Encodes a request into one complete frame.
pub fn encode_request(request_id: u32, request: &Request) -> Result<Vec<u8>, WireError> {
    let mut body = Vec::new();
    let message_type = match request {
        Request::RunQasm { options, source } => {
            encode_run_options(&mut body, options)?;
            body.extend_from_slice(source.as_bytes());
            MSG_RUN_QASM
        }
        Request::RunGates { options, circuit } => {
            encode_run_options(&mut body, options)?;
            encode_circuit(&mut body, circuit)?;
            MSG_RUN_GATES
        }
        Request::Stats => MSG_STATS,
        Request::Ping => MSG_PING,
    };
    Ok(frame(message_type, request_id, &body))
}

/// Encodes a response into one complete frame.
pub fn encode_response(request_id: u32, response: &Response) -> Vec<u8> {
    let mut body = Vec::new();
    let message_type = match response {
        Response::Run(outcome) => {
            body.push(backend_byte(outcome.backend));
            put_u64(&mut body, outcome.gates_applied);
            put_u64(&mut body, outcome.run_micros);
            put_f64(&mut body, outcome.total_probability);
            put_u64(
                &mut body,
                outcome.live_nodes.map_or(u64::MAX, |n| n.min(u64::MAX - 1)),
            );
            put_f64(&mut body, outcome.peak_memory_mib);
            match &outcome.histogram {
                Some(histogram) => {
                    body.push(1);
                    put_u64(&mut body, histogram.shots);
                    put_u64(&mut body, histogram.sample_micros);
                    put_u32(&mut body, histogram.counts.len() as u32);
                    for (outcome, count) in &histogram.counts {
                        put_u64(&mut body, *outcome);
                        put_u64(&mut body, *count);
                    }
                }
                None => body.push(0),
            }
            match &outcome.readout {
                Some(bits) => {
                    body.push(1);
                    put_u32(&mut body, bits.len() as u32);
                    for bit in bits {
                        body.push(u8::from(*bit));
                    }
                }
                None => body.push(0),
            }
            MSG_RUN_OK
        }
        Response::Error { code, message } => {
            put_u16(&mut body, *code);
            body.extend_from_slice(message.as_bytes());
            MSG_ERROR
        }
        Response::Overloaded { message } => {
            put_u16(&mut body, codes::OVERLOADED);
            body.extend_from_slice(message.as_bytes());
            MSG_OVERLOADED
        }
        Response::Stats(snapshot) => {
            put_u16(&mut body, snapshot.fields.len() as u16);
            for (name, value) in &snapshot.fields {
                let bytes = name.as_bytes();
                body.push(bytes.len().min(u8::MAX as usize) as u8);
                body.extend_from_slice(&bytes[..bytes.len().min(u8::MAX as usize)]);
                put_u64(&mut body, *value);
            }
            MSG_STATS_OK
        }
        Response::Pong => MSG_PONG,
    };
    frame(message_type, request_id, &body)
}

/// Reads one raw frame: `(version, message type, request id, body)`.
fn read_frame(
    reader: &mut impl Read,
    max_frame: usize,
) -> Result<(u8, u8, u32, Vec<u8>), WireError> {
    let mut len_bytes = [0u8; 4];
    // Distinguish a clean close (EOF before any byte) from truncation.
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Err(WireError::Closed);
                }
                return Err(WireError::Malformed("truncated frame length".into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_frame {
        return Err(WireError::FrameTooLarge {
            len,
            limit: max_frame,
        });
    }
    if len < 6 {
        return Err(WireError::Malformed(format!(
            "payload of {len} bytes is shorter than the header"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Malformed("truncated frame payload".into())
        } else {
            WireError::Io(e)
        }
    })?;
    let version = payload[0];
    if version != PROTOCOL_VERSION {
        return Err(WireError::Version(version));
    }
    let message_type = payload[1];
    let request_id = u32::from_be_bytes(payload[2..6].try_into().unwrap());
    payload.drain(..6);
    Ok((version, message_type, request_id, payload))
}

/// Reads and decodes one request frame.  Binary circuit payloads are
/// bounds-checked against `limits` before any size-proportional allocation.
pub fn read_request(
    reader: &mut impl Read,
    max_frame: usize,
    limits: &ParseLimits,
) -> Result<(u32, Request), WireError> {
    let (_, message_type, request_id, body) = read_frame(reader, max_frame)?;
    let mut cur = Cursor::new(&body);
    let request = match message_type {
        MSG_RUN_QASM => {
            let options = decode_run_options(&mut cur)?;
            let source = cur.rest_utf8("qasm source")?;
            Request::RunQasm { options, source }
        }
        MSG_RUN_GATES => {
            let options = decode_run_options(&mut cur)?;
            let circuit = decode_circuit(&mut cur, limits)?;
            cur.done("circuit")?;
            Request::RunGates { options, circuit }
        }
        MSG_STATS => {
            cur.done("stats request")?;
            Request::Stats
        }
        MSG_PING => {
            cur.done("ping")?;
            Request::Ping
        }
        other => {
            return Err(WireError::Malformed(format!(
                "unknown request type {other:#04x}"
            )));
        }
    };
    Ok((request_id, request))
}

/// Reads and decodes one response frame.
pub fn read_response(
    reader: &mut impl Read,
    max_frame: usize,
) -> Result<(u32, Response), WireError> {
    let (_, message_type, request_id, body) = read_frame(reader, max_frame)?;
    let mut cur = Cursor::new(&body);
    let response = match message_type {
        MSG_RUN_OK => {
            let backend = backend_from_byte(cur.u8("backend")?)?;
            let gates_applied = cur.u64("gates applied")?;
            let run_micros = cur.u64("run micros")?;
            let total_probability = cur.f64("total probability")?;
            let live_nodes = match cur.u64("live nodes")? {
                u64::MAX => None,
                n => Some(n),
            };
            let peak_memory_mib = cur.f64("peak memory")?;
            let histogram = match cur.u8("histogram flag")? {
                0 => None,
                1 => {
                    let shots = cur.u64("histogram shots")?;
                    let sample_micros = cur.u64("sample micros")?;
                    let entries = cur.u32("histogram entries")? as usize;
                    if entries > cur.remaining() / 16 {
                        return Err(WireError::Malformed(format!(
                            "{entries} histogram entries declared but only {} bytes remain",
                            cur.remaining()
                        )));
                    }
                    let mut counts = Vec::with_capacity(entries);
                    for _ in 0..entries {
                        let outcome = cur.u64("outcome")?;
                        let count = cur.u64("count")?;
                        counts.push((outcome, count));
                    }
                    Some(WireHistogram {
                        shots,
                        sample_micros,
                        counts,
                    })
                }
                other => {
                    return Err(WireError::Malformed(format!("bad histogram flag {other}")));
                }
            };
            let readout = match cur.u8("readout flag")? {
                0 => None,
                1 => {
                    let nbits = cur.u32("readout bits")? as usize;
                    if nbits > cur.remaining() {
                        return Err(WireError::Malformed(format!(
                            "{nbits} readout bits declared but only {} bytes remain",
                            cur.remaining()
                        )));
                    }
                    let mut bits = Vec::with_capacity(nbits);
                    for byte in cur.bytes(nbits, "readout")? {
                        match byte {
                            0 => bits.push(false),
                            1 => bits.push(true),
                            other => {
                                return Err(WireError::Malformed(format!(
                                    "bad readout bit {other}"
                                )));
                            }
                        }
                    }
                    Some(bits)
                }
                other => {
                    return Err(WireError::Malformed(format!("bad readout flag {other}")));
                }
            };
            cur.done("run result")?;
            Response::Run(RunOutcome {
                backend,
                gates_applied,
                run_micros,
                total_probability,
                live_nodes,
                peak_memory_mib,
                histogram,
                readout,
            })
        }
        MSG_ERROR => {
            let code = cur.u16("error code")?;
            let message = cur.rest_utf8("error message")?;
            Response::Error { code, message }
        }
        MSG_OVERLOADED => {
            let _code = cur.u16("overload code")?;
            let message = cur.rest_utf8("overload message")?;
            Response::Overloaded { message }
        }
        MSG_STATS_OK => {
            let count = cur.u16("stats field count")? as usize;
            let mut fields = Vec::with_capacity(count.min(256));
            for _ in 0..count {
                let name_len = cur.u8("stat name length")? as usize;
                let name = String::from_utf8(cur.bytes(name_len, "stat name")?.to_vec())
                    .map_err(|_| WireError::Malformed("stat name is not valid UTF-8".into()))?;
                let value = cur.u64("stat value")?;
                fields.push((name, value));
            }
            cur.done("stats")?;
            Response::Stats(StatsSnapshot { fields })
        }
        MSG_PONG => {
            cur.done("pong")?;
            Response::Pong
        }
        other => {
            return Err(WireError::Malformed(format!(
                "unknown response type {other:#04x}"
            )));
        }
    };
    Ok((request_id, response))
}

/// Writes pre-encoded frame bytes to a stream and flushes.
pub fn write_all(writer: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    writer.write_all(frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) -> Request {
        let bytes = encode_request(7, &request).expect("encodable");
        let mut reader = &bytes[..];
        let (id, decoded) =
            read_request(&mut reader, MAX_FRAME_BYTES, &ParseLimits::default()).expect("decodable");
        assert_eq!(id, 7);
        decoded
    }

    fn roundtrip_response(response: Response) -> Response {
        let bytes = encode_response(9, &response);
        let mut reader = &bytes[..];
        let (id, decoded) = read_response(&mut reader, MAX_FRAME_BYTES).expect("decodable");
        assert_eq!(id, 9);
        decoded
    }

    fn full_gate_set_circuit() -> Circuit {
        let mut c = Circuit::new(5);
        c.x(0)
            .y(1)
            .z(2)
            .h(3)
            .s(4)
            .sdg(0)
            .t(1)
            .tdg(2)
            .rx_pi2(3)
            .ry_pi2(4)
            .cx(0, 1)
            .cz(1, 2)
            .ccx(0, 1, 2)
            .mcx(vec![0, 1, 2], 3)
            .cswap(0, 1, 2)
            .mcswap(vec![0, 3], 1, 2)
            .swap(2, 4)
            .measure(0, 0)
            .reset(1)
            .if_bit(0, Gate::Z(3))
            .conditional(
                0,
                2,
                0b10,
                Gate::Cnot {
                    control: 1,
                    target: 4,
                },
            );
        c
    }

    #[test]
    fn requests_round_trip() {
        let options = RunOptions {
            backend: BackendKind::Qmdd,
            shots: 1024,
            seed: 42,
            tenant: "acme".into(),
        };
        let qasm = Request::RunQasm {
            options: options.clone(),
            source: "qreg q[2]; h q[0]; cx q[0], q[1];".into(),
        };
        assert_eq!(roundtrip_request(qasm.clone()), qasm);
        let gates = Request::RunGates {
            options,
            circuit: full_gate_set_circuit(),
        };
        assert_eq!(roundtrip_request(gates.clone()), gates);
        assert_eq!(roundtrip_request(Request::Stats), Request::Stats);
        assert_eq!(roundtrip_request(Request::Ping), Request::Ping);
    }

    #[test]
    fn responses_round_trip() {
        let run = Response::Run(RunOutcome {
            backend: BackendKind::BitSlice,
            gates_applied: 17,
            run_micros: 1234,
            total_probability: 1.0 - 1e-15,
            live_nodes: Some(421),
            peak_memory_mib: 1.5,
            histogram: Some(WireHistogram {
                shots: 1000,
                sample_micros: 77,
                counts: vec![(0, 493), (7, 507)],
            }),
            readout: Some(vec![true, false, true]),
        });
        assert_eq!(roundtrip_response(run.clone()), run);
        let nohist = Response::Run(RunOutcome {
            backend: BackendKind::Stabilizer,
            gates_applied: 2,
            run_micros: 3,
            total_probability: 1.0,
            live_nodes: None,
            peak_memory_mib: 0.25,
            histogram: None,
            readout: None,
        });
        assert_eq!(roundtrip_response(nohist.clone()), nohist);
        let error = Response::Error {
            code: sliq_exec::wire::CAPACITY_BYTES,
            message: "bitslice exceeded its memory budget".into(),
        };
        assert_eq!(roundtrip_response(error.clone()), error);
        let overloaded = Response::Overloaded {
            message: "queue full (depth 64)".into(),
        };
        assert_eq!(roundtrip_response(overloaded.clone()), overloaded);
        let stats = Response::Stats(StatsSnapshot {
            fields: vec![("requests".into(), 10), ("overloaded".into(), 2)],
        });
        assert_eq!(roundtrip_response(stats.clone()), stats);
        assert_eq!(roundtrip_response(Response::Pong), Response::Pong);
    }

    #[test]
    fn malformed_frames_are_rejected_structurally() {
        // Truncated length prefix.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(
            read_request(&mut r, MAX_FRAME_BYTES, &ParseLimits::default()),
            Err(WireError::Malformed(_))
        ));
        // Clean close.
        let mut r: &[u8] = &[];
        assert!(matches!(
            read_request(&mut r, MAX_FRAME_BYTES, &ParseLimits::default()),
            Err(WireError::Closed)
        ));
        // Oversized frame is rejected before allocation.
        let mut oversized = Vec::new();
        put_u32(&mut oversized, u32::MAX);
        let mut r: &[u8] = &oversized;
        assert!(matches!(
            read_request(&mut r, 1024, &ParseLimits::default()),
            Err(WireError::FrameTooLarge { .. })
        ));
        // Wrong version byte.
        let mut bytes = encode_request(1, &Request::Ping).unwrap();
        bytes[4] = 99;
        let mut r: &[u8] = &bytes;
        assert!(matches!(
            read_request(&mut r, MAX_FRAME_BYTES, &ParseLimits::default()),
            Err(WireError::Version(99))
        ));
        // Unknown message type.
        let mut bytes = encode_request(1, &Request::Ping).unwrap();
        bytes[5] = 0x7f;
        let mut r: &[u8] = &bytes;
        assert!(matches!(
            read_request(&mut r, MAX_FRAME_BYTES, &ParseLimits::default()),
            Err(WireError::Malformed(_))
        ));
        // Truncated payload: declared length claims more than is present.
        let mut long = encode_request(
            1,
            &Request::RunQasm {
                options: RunOptions::default(),
                source: "qreg q[1];".into(),
            },
        )
        .unwrap();
        long.truncate(long.len() - 4);
        // Fix up the declared length to claim more than is present.
        let mut r: &[u8] = &long;
        assert!(matches!(
            read_request(&mut r, MAX_FRAME_BYTES, &ParseLimits::default()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn control_counts_beyond_one_byte_are_refused_before_encoding() {
        // `ncontrols` is one byte: 255 controls round-trip, on a plain,
        // a swap and a conditional gate alike.
        let circuit = |controls: usize| {
            let mut c = Circuit::with_clbits(controls + 2, 1);
            c.mcx((0..controls).collect(), controls)
                .mcswap((0..controls).collect(), controls, controls + 1)
                .if_bit(
                    0,
                    Gate::Toffoli {
                        controls: (0..controls).collect(),
                        target: controls + 1,
                    },
                );
            c
        };
        let request = |circuit: Circuit| Request::RunGates {
            options: RunOptions::default(),
            circuit,
        };
        assert_eq!(
            roundtrip_request(request(circuit(255))),
            request(circuit(255))
        );
        // 256 would be written as 0 and desynchronise the frame.
        let mut conditional_only = Circuit::with_clbits(258, 1);
        conditional_only.if_bit(
            0,
            Gate::Fredkin {
                controls: (0..256).collect(),
                target1: 256,
                target2: 257,
            },
        );
        for refused in [circuit(256), conditional_only] {
            match encode_request(1, &request(refused)) {
                Err(WireError::Malformed(what)) => assert!(what.contains("256 controls"), "{what}"),
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_circuit_limits_reject_absurd_declarations() {
        let limits = ParseLimits {
            max_qubits: 8,
            max_gates: 4,
            ..ParseLimits::default()
        };
        let mut big = Circuit::new(16);
        big.h(0);
        let request = Request::RunGates {
            options: RunOptions::default(),
            circuit: big,
        };
        let bytes = encode_request(1, &request).unwrap();
        let mut r: &[u8] = &bytes;
        assert!(matches!(
            read_request(&mut r, MAX_FRAME_BYTES, &limits),
            Err(WireError::Malformed(_))
        ));
        let mut many = Circuit::new(2);
        for _ in 0..5 {
            many.h(0);
        }
        let request = Request::RunGates {
            options: RunOptions::default(),
            circuit: many,
        };
        let bytes = encode_request(1, &request).unwrap();
        let mut r: &[u8] = &bytes;
        assert!(matches!(
            read_request(&mut r, MAX_FRAME_BYTES, &limits),
            Err(WireError::Malformed(_))
        ));
        // A declared gate count wildly beyond the body is caught before the
        // gates vector is reserved.
        let mut body = Vec::new();
        encode_run_options(&mut body, &RunOptions::default()).unwrap();
        put_u32(&mut body, 2); // qubits
        put_u32(&mut body, 0); // clbits
        put_u32(&mut body, 1_000_000); // gates
        let framed = frame(MSG_RUN_GATES, 1, &body);
        let mut r: &[u8] = &framed;
        assert!(matches!(
            read_request(&mut r, MAX_FRAME_BYTES, &ParseLimits::default()),
            Err(WireError::Malformed(_))
        ));
    }
}
