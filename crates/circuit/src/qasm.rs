//! A parser and writer for the OpenQASM 2.0 subset covering the supported
//! gate set, including dynamic-circuit statements.
//!
//! Supported statements: `OPENQASM`, `include`, `qreg`, `creg`,
//! `measure q[i] -> c[j]` (and the whole-register form `measure q -> c`),
//! `reset q[i]` (and `reset q`), classically-conditioned gates
//! `if (c == v) <gate>`, `barrier` (a semantic no-op for simulation —
//! tolerated and dropped), and the gates
//! `x y z h s sdg t tdg rx(pi/2) ry(pi/2) cx cz ccx cswap swap`.
//!
//! Measurement, reset and `if` parse into the dynamic IR operations
//! ([`Gate::Measure`], [`Gate::Reset`], [`Gate::Conditional`]) and execute
//! with seeded randomness in the session layer.  Any statement outside this
//! list is a structured [`ParseError`] with the offending line and column —
//! nothing is ever silently skipped, so a program either simulates with
//! exactly the semantics written or fails to parse.
//!
//! Documented extensions, so that every circuit round-trips exactly
//! (`parse(&emit(c)) == c`):
//!
//! * a condition may name a single classical bit (`if (c[2] == 1) …`) or a
//!   bit range (`if (c[2+:3] == 5) …`, meaning bits `c[2..5]`
//!   little-endian);
//! * `mcx c₁, …, cₖ, t` is an X on `t` with any number `k` of controls
//!   ([`Gate::Toffoli`]), and `mcswap c₁, …, cₖ, a, b` a SWAP of `a` and
//!   `b` with any number of controls ([`Gate::Fredkin`]).  [`emit`] writes
//!   `ccx`, `cswap` and `swap` where those fit the control count, and the
//!   extension otherwise — also for a Toffoli with fewer than two controls,
//!   which as `x`/`cx` would parse back as a different gate ([`Gate::X`],
//!   [`Gate::Cnot`]).  Their operands must be distinct qubits.

use crate::circuit::Circuit;
use crate::error::ParseError;
use crate::gate::Gate;
use std::collections::BTreeMap;

/// Input limits enforced by [`parse_with_limits`] *before* any allocation
/// proportional to the declared sizes happens.
///
/// The parser is exposed to adversarial input when it sits behind a service
/// front-end: a one-line `qreg q[9999999999]` or an endless stream of gate
/// statements must be rejected structurally, not by exhausting memory.  The
/// defaults are generous for every legitimate workload in the workspace;
/// servers tighten them per deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum total qubits over all `qreg` declarations.
    pub max_qubits: usize,
    /// Maximum total classical bits over all `creg` declarations.
    pub max_clbits: usize,
    /// Maximum number of gate statements.
    pub max_gates: usize,
    /// Maximum source length in bytes (checked up front).
    pub max_source_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self {
            max_qubits: 1 << 16,
            max_clbits: 1 << 16,
            max_gates: 1 << 22,
            max_source_bytes: 64 << 20,
        }
    }
}

/// Parses an OpenQASM 2.0 program into a [`Circuit`] under the default
/// [`ParseLimits`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending statement, with
/// its 1-based line and column.
///
/// ```
/// use sliq_circuit::qasm;
/// let src = r#"
///     OPENQASM 2.0;
///     include "qelib1.inc";
///     qreg q[2];
///     h q[0];
///     cx q[0], q[1];
/// "#;
/// let circuit = qasm::parse(src)?;
/// assert_eq!(circuit.num_qubits(), 2);
/// assert_eq!(circuit.len(), 2);
/// # Ok::<(), sliq_circuit::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<Circuit, ParseError> {
    parse_with_limits(source, ParseLimits::default())
}

/// Parses an OpenQASM 2.0 program with explicit [`ParseLimits`].
///
/// Declared register sizes and the gate count are checked against the
/// limits as they are encountered — an absurd declaration is rejected
/// before the parser allocates anything proportional to it.
pub fn parse_with_limits(source: &str, limits: ParseLimits) -> Result<Circuit, ParseError> {
    if source.len() > limits.max_source_bytes {
        return Err(ParseError::new(
            0,
            format!(
                "source is {} bytes, limit {}",
                source.len(),
                limits.max_source_bytes
            ),
        ));
    }
    let mut state = ParserState {
        registers: BTreeMap::new(),
        cregs: BTreeMap::new(),
        total_qubits: 0,
        total_clbits: 0,
        gates: Vec::new(),
    };

    // Statements are ';'-terminated; keep track of line numbers (and the
    // column each statement starts at) for errors.
    for (line_no, raw_line) in source.lines().enumerate() {
        let line_no = line_no + 1;
        let line = match raw_line.find("//") {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        let mut offset = 0usize;
        for stmt in line.split(';') {
            let leading = stmt.len() - stmt.trim_start().len();
            let column = offset + leading + 1;
            let piece_len = stmt.len();
            let stmt = stmt.trim();
            offset += piece_len + 1;
            if stmt.is_empty() {
                continue;
            }
            parse_statement(stmt, line_no, column, limits, &mut state)?;
        }
    }

    let mut circuit = Circuit::with_clbits(state.total_qubits, state.total_clbits);
    circuit.extend(state.gates);
    Ok(circuit)
}

/// Registers and gates accumulated while parsing one program.
struct ParserState {
    /// Quantum registers: name → (global offset, size).
    registers: BTreeMap<String, (usize, usize)>,
    /// Classical registers: name → (global offset, size).
    cregs: BTreeMap<String, (usize, usize)>,
    total_qubits: usize,
    total_clbits: usize,
    gates: Vec<Gate>,
}

fn parse_statement(
    stmt: &str,
    line: usize,
    column: usize,
    limits: ParseLimits,
    state: &mut ParserState,
) -> Result<(), ParseError> {
    let lower = stmt.to_ascii_lowercase();
    // Header/metadata statements with no simulation semantics.  A `barrier`
    // constrains optimisation on hardware but never changes the simulated
    // state, so dropping it preserves the written semantics exactly.
    if lower.starts_with("openqasm") || lower.starts_with("include") || lower.starts_with("barrier")
    {
        return Ok(());
    }
    if let Some(rest) = lower.strip_prefix("qreg") {
        let rest = rest.trim();
        let (name, size) = parse_register_decl(rest, line, column)?;
        if size > limits.max_qubits || state.total_qubits + size > limits.max_qubits {
            return Err(ParseError::at(
                line,
                column,
                format!(
                    "register `{name}[{size}]` exceeds the qubit limit ({} total, limit {})",
                    state.total_qubits + size,
                    limits.max_qubits
                ),
            ));
        }
        state.registers.insert(name, (state.total_qubits, size));
        state.total_qubits += size;
        return Ok(());
    }
    if let Some(rest) = lower.strip_prefix("creg") {
        let rest = rest.trim();
        let (name, size) = parse_register_decl(rest, line, column)?;
        if size > limits.max_clbits || state.total_clbits + size > limits.max_clbits {
            return Err(ParseError::at(
                line,
                column,
                format!(
                    "classical register `{name}[{size}]` exceeds the clbit limit ({} total, limit {})",
                    state.total_clbits + size,
                    limits.max_clbits
                ),
            ));
        }
        state.cregs.insert(name, (state.total_clbits, size));
        state.total_clbits += size;
        return Ok(());
    }
    if state.gates.len() >= limits.max_gates {
        return Err(ParseError::at(
            line,
            column,
            format!("gate count exceeds the limit ({})", limits.max_gates),
        ));
    }
    if lower.starts_with("measure") {
        return parse_measure(stmt, line, column, limits, state);
    }
    if lower.starts_with("reset") {
        return parse_reset(stmt, line, column, limits, state);
    }
    if is_if_statement(&lower) {
        return parse_if(stmt, line, column, state);
    }

    let gate = parse_gate(stmt, line, column, &state.registers)?;
    state.gates.push(gate);
    Ok(())
}

/// `measure q[i] -> c[j]` or the whole-register form `measure q -> c`
/// (which expands to one [`Gate::Measure`] per bit; sizes must match).
fn parse_measure(
    stmt: &str,
    line: usize,
    column: usize,
    limits: ParseLimits,
    state: &mut ParserState,
) -> Result<(), ParseError> {
    let rest = stmt["measure".len()..].trim();
    let (qubit_text, clbit_text) = rest.split_once("->").ok_or_else(|| {
        ParseError::at(
            line,
            column,
            format!("measure statement `{stmt}` is missing `->`"),
        )
    })?;
    let (q_offset, q_count) =
        resolve_operand_or_register(qubit_text.trim(), &state.registers, line, column)?;
    let (c_offset, c_count) =
        resolve_operand_or_register(clbit_text.trim(), &state.cregs, line, column)?;
    if q_count != c_count {
        return Err(ParseError::at(
            line,
            column,
            format!(
                "measure maps {q_count} qubit(s) onto {c_count} classical bit(s); sizes must match"
            ),
        ));
    }
    if state.gates.len() + q_count > limits.max_gates {
        return Err(ParseError::at(
            line,
            column,
            format!("gate count exceeds the limit ({})", limits.max_gates),
        ));
    }
    for k in 0..q_count {
        state.gates.push(Gate::Measure {
            qubit: q_offset + k,
            clbit: c_offset + k,
        });
    }
    Ok(())
}

/// `reset q[i]` or the whole-register form `reset q`.
fn parse_reset(
    stmt: &str,
    line: usize,
    column: usize,
    limits: ParseLimits,
    state: &mut ParserState,
) -> Result<(), ParseError> {
    let rest = stmt["reset".len()..].trim();
    if rest.is_empty() {
        return Err(ParseError::at(
            line,
            column,
            "reset statement is missing its qubit operand".to_string(),
        ));
    }
    let (offset, count) = resolve_operand_or_register(rest, &state.registers, line, column)?;
    if state.gates.len() + count > limits.max_gates {
        return Err(ParseError::at(
            line,
            column,
            format!("gate count exceeds the limit ({})", limits.max_gates),
        ));
    }
    for k in 0..count {
        state.gates.push(Gate::Reset { qubit: offset + k });
    }
    Ok(())
}

/// Returns `true` if the (lowercased) statement is an `if` conditional —
/// the keyword must be followed by `(` or whitespace so identifiers like
/// `iffy` are not mistaken for it.
fn is_if_statement(lower: &str) -> bool {
    match lower.strip_prefix("if") {
        Some(rest) => rest.starts_with('(') || rest.starts_with(char::is_whitespace),
        None => false,
    }
}

/// `if (c == v) <gate>`, with the documented single-bit (`c[j]`) and
/// bit-range (`c[j+:w]`) condition extensions.
fn parse_if(
    stmt: &str,
    line: usize,
    column: usize,
    state: &mut ParserState,
) -> Result<(), ParseError> {
    let rest = stmt["if".len()..].trim_start();
    let inner_start = rest
        .strip_prefix('(')
        .ok_or_else(|| ParseError::at(line, column, "if condition is missing `(`".to_string()))?;
    let close = inner_start
        .find(')')
        .ok_or_else(|| ParseError::at(line, column, "if condition is missing `)`".to_string()))?;
    let condition = &inner_start[..close];
    let body = inner_start[close + 1..].trim();

    let (lhs, rhs) = condition.split_once("==").ok_or_else(|| {
        ParseError::at(
            line,
            column,
            format!("if condition `{condition}` must have the form `creg == value`"),
        )
    })?;
    let (offset, width) = resolve_condition_range(lhs.trim(), &state.cregs, line, column)?;
    let value: u64 = rhs.trim().parse().map_err(|_| {
        ParseError::at(
            line,
            column,
            format!("bad condition value `{}`", rhs.trim()),
        )
    })?;
    if width < 64 && value >> width != 0 {
        return Err(ParseError::at(
            line,
            column,
            format!("condition value {value} does not fit in {width} bit(s)"),
        ));
    }
    if body.is_empty() {
        return Err(ParseError::at(
            line,
            column,
            "if condition is missing its gate statement".to_string(),
        ));
    }
    let body_lower = body.to_ascii_lowercase();
    if body_lower.starts_with("measure")
        || body_lower.starts_with("reset")
        || is_if_statement(&body_lower)
    {
        return Err(ParseError::at(
            line,
            column,
            format!("`{body}` cannot be classically conditioned; only unitary gates can"),
        ));
    }
    let gate = parse_gate(body, line, column, &state.registers)?;
    state.gates.push(Gate::Conditional {
        offset,
        width,
        value,
        gate: Box::new(gate),
    });
    Ok(())
}

/// Parses one gate application: `<mnemonic>[(params)] operand {, operand}`.
fn parse_gate(
    stmt: &str,
    line: usize,
    column: usize,
    registers: &BTreeMap<String, (usize, usize)>,
) -> Result<Gate, ParseError> {
    let (head, operand_text) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos) => (&stmt[..pos], &stmt[pos..]),
        None => {
            return Err(ParseError::at(
                line,
                column,
                format!("cannot parse statement `{stmt}`"),
            ))
        }
    };
    let head = head.trim().to_ascii_lowercase();
    let operands: Vec<usize> = operand_text
        .split(',')
        .map(|op| resolve_operand(op.trim(), registers, line, column))
        .collect::<Result<_, _>>()?;

    let need = |n: usize| -> Result<(), ParseError> {
        if operands.len() == n {
            Ok(())
        } else {
            Err(ParseError::at(
                line,
                column,
                format!(
                    "gate `{head}` expects {n} operand(s), got {}",
                    operands.len()
                ),
            ))
        }
    };

    // The variable-arity `mcx`/`mcswap` extensions.
    let too_few = |n: usize| {
        ParseError::at(
            line,
            column,
            format!("gate `{head}` expects at least {n} operand(s)"),
        )
    };
    let distinct = |gate: Gate| {
        if gate.operands_distinct() {
            Ok(gate)
        } else {
            Err(ParseError::at(
                line,
                column,
                format!("gate `{head}` repeats a qubit operand"),
            ))
        }
    };

    let (mnemonic, param) = match head.find('(') {
        Some(pos) => {
            // Search for `)` strictly after the `(` so reversed delimiters
            // (`rx)pi/2(`) are a structured error, not a slice panic.
            let close = pos
                + 1
                + head[pos + 1..].rfind(')').ok_or_else(|| {
                    ParseError::at(line, column, format!("missing `)` in gate `{head}`"))
                })?;
            (
                head[..pos].to_string(),
                Some(head[pos + 1..close].to_string()),
            )
        }
        None => (head.clone(), None),
    };

    let gate = match mnemonic.as_str() {
        "x" => {
            need(1)?;
            Gate::X(operands[0])
        }
        "y" => {
            need(1)?;
            Gate::Y(operands[0])
        }
        "z" => {
            need(1)?;
            Gate::Z(operands[0])
        }
        "h" => {
            need(1)?;
            Gate::H(operands[0])
        }
        "s" => {
            need(1)?;
            Gate::S(operands[0])
        }
        "sdg" => {
            need(1)?;
            Gate::Sdg(operands[0])
        }
        "t" => {
            need(1)?;
            Gate::T(operands[0])
        }
        "tdg" => {
            need(1)?;
            Gate::Tdg(operands[0])
        }
        "rx" | "ry" => {
            need(1)?;
            let param = param.unwrap_or_default();
            if !is_half_pi(&param) {
                return Err(ParseError::at(
                    line,
                    column,
                    format!("only {mnemonic}(pi/2) is supported, got `{param}`"),
                ));
            }
            if mnemonic == "rx" {
                Gate::RxPi2(operands[0])
            } else {
                Gate::RyPi2(operands[0])
            }
        }
        "cx" | "cnot" => {
            need(2)?;
            Gate::Cnot {
                control: operands[0],
                target: operands[1],
            }
        }
        "cz" => {
            need(2)?;
            Gate::Cz {
                control: operands[0],
                target: operands[1],
            }
        }
        "ccx" | "toffoli" => {
            need(3)?;
            Gate::Toffoli {
                controls: vec![operands[0], operands[1]],
                target: operands[2],
            }
        }
        "cswap" | "fredkin" => {
            need(3)?;
            Gate::Fredkin {
                controls: vec![operands[0]],
                target1: operands[1],
                target2: operands[2],
            }
        }
        "swap" => {
            need(2)?;
            Gate::Fredkin {
                controls: Vec::new(),
                target1: operands[0],
                target2: operands[1],
            }
        }
        "mcx" => {
            let [controls @ .., target] = operands.as_slice() else {
                return Err(too_few(1));
            };
            distinct(Gate::Toffoli {
                controls: controls.to_vec(),
                target: *target,
            })?
        }
        "mcswap" => {
            let [controls @ .., target1, target2] = operands.as_slice() else {
                return Err(too_few(2));
            };
            distinct(Gate::Fredkin {
                controls: controls.to_vec(),
                target1: *target1,
                target2: *target2,
            })?
        }
        other => {
            return Err(ParseError::at(
                line,
                column,
                format!("unsupported gate `{other}`"),
            ));
        }
    };
    Ok(gate)
}

/// Resolves an operand that is either one element (`q[i]` → `(index, 1)`)
/// or a whole register (`q` → `(offset, size)`).
fn resolve_operand_or_register(
    op: &str,
    registers: &BTreeMap<String, (usize, usize)>,
    line: usize,
    column: usize,
) -> Result<(usize, usize), ParseError> {
    if op.contains('[') || op.contains(']') {
        let index = resolve_operand(op, registers, line, column)?;
        Ok((index, 1))
    } else {
        let (offset, size) = registers
            .get(op)
            .ok_or_else(|| ParseError::at(line, column, format!("unknown register `{op}`")))?;
        Ok((*offset, *size))
    }
}

/// Resolves the left-hand side of an `if` condition to a clbit range:
/// `c` (whole register), `c[j]` (one bit), or `c[j+:w]` (a range —
/// emit/parse extension).
fn resolve_condition_range(
    lhs: &str,
    cregs: &BTreeMap<String, (usize, usize)>,
    line: usize,
    column: usize,
) -> Result<(usize, usize), ParseError> {
    if !lhs.contains('[') && !lhs.contains(']') {
        let (offset, size) = cregs.get(lhs).ok_or_else(|| {
            ParseError::at(line, column, format!("unknown classical register `{lhs}`"))
        })?;
        if *size > 64 {
            return Err(ParseError::at(
                line,
                column,
                format!(
                    "classical register `{lhs}[{size}]` is too wide for a condition (max 64 bits)"
                ),
            ));
        }
        return Ok((*offset, *size));
    }
    let (open, close) = bracket_span(lhs)
        .ok_or_else(|| ParseError::at(line, column, format!("malformed condition `{lhs}`")))?;
    let name = lhs[..open].trim();
    let (offset, size) = cregs.get(name).ok_or_else(|| {
        ParseError::at(line, column, format!("unknown classical register `{name}`"))
    })?;
    let index_text = lhs[open + 1..close].trim();
    let (start, width) =
        match index_text.split_once("+:") {
            Some((start, width)) => {
                let start: usize = start.trim().parse().map_err(|_| {
                    ParseError::at(line, column, format!("bad bit index in `{lhs}`"))
                })?;
                let width: usize = width.trim().parse().map_err(|_| {
                    ParseError::at(line, column, format!("bad bit width in `{lhs}`"))
                })?;
                (start, width)
            }
            None => {
                let start: usize = index_text.parse().map_err(|_| {
                    ParseError::at(line, column, format!("bad bit index in `{lhs}`"))
                })?;
                (start, 1)
            }
        };
    if width == 0 || width > 64 {
        return Err(ParseError::at(
            line,
            column,
            format!("condition width {width} is outside 1..=64"),
        ));
    }
    if start.checked_add(width).is_none_or(|end| end > *size) {
        return Err(ParseError::at(
            line,
            column,
            format!("bits {start}+:{width} out of range for register `{name}[{size}]`"),
        ));
    }
    Ok((offset + start, width))
}

fn parse_register_decl(
    decl: &str,
    line: usize,
    column: usize,
) -> Result<(String, usize), ParseError> {
    // e.g. `q[5]`
    let (open, close) = bracket_span(decl)
        .ok_or_else(|| ParseError::at(line, column, format!("malformed register `{decl}`")))?;
    let name = decl[..open].trim().to_string();
    let size: usize = decl[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| ParseError::at(line, column, format!("bad register size in `{decl}`")))?;
    Ok((name, size))
}

fn resolve_operand(
    op: &str,
    registers: &BTreeMap<String, (usize, usize)>,
    line: usize,
    column: usize,
) -> Result<usize, ParseError> {
    let (open, close) = bracket_span(op)
        .ok_or_else(|| ParseError::at(line, column, format!("malformed operand `{op}`")))?;
    let name = op[..open].trim();
    let index: usize = op[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| ParseError::at(line, column, format!("bad qubit index in `{op}`")))?;
    let (offset, size) = registers
        .get(name)
        .ok_or_else(|| ParseError::at(line, column, format!("unknown register `{name}`")))?;
    if index >= *size {
        return Err(ParseError::at(
            line,
            column,
            format!("index {index} out of range for register `{name}[{size}]`"),
        ));
    }
    Ok(offset + index)
}

/// Byte offsets of a `[` and the first `]` *after* it.  Returns `None`
/// when either is missing or they are reversed (`q]1[`), which would
/// otherwise panic as an out-of-order slice.
fn bracket_span(text: &str) -> Option<(usize, usize)> {
    let open = text.find('[')?;
    let close = open + 1 + text[open + 1..].find(']')?;
    Some((open, close))
}

fn is_half_pi(expr: &str) -> bool {
    let e = expr.replace(' ', "").to_ascii_lowercase();
    if e == "pi/2" || e == "π/2" || e == "0.5*pi" || e == "pi*0.5" {
        return true;
    }
    e.parse::<f64>()
        .map(|v| (v - std::f64::consts::FRAC_PI_2).abs() < 1e-9)
        .unwrap_or(false)
}

/// Serialises a [`Circuit`] as an OpenQASM 2.0 program using a single `q`
/// quantum register (and a single `c` classical register when the circuit
/// has classical bits).
pub fn emit(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    if circuit.num_clbits() > 0 {
        out.push_str(&format!("creg c[{}];\n", circuit.num_clbits()));
    }
    for gate in circuit.iter() {
        out.push_str(&emit_statement(gate, circuit.num_clbits()));
        out.push_str(";\n");
    }
    out
}

fn emit_statement(gate: &Gate, num_clbits: usize) -> String {
    let operands: Vec<String> = gate.qubits().iter().map(|q| format!("q[{q}]")).collect();
    match gate {
        Gate::RxPi2(_) => format!("rx(pi/2) {}", operands.join(", ")),
        Gate::RyPi2(_) => format!("ry(pi/2) {}", operands.join(", ")),
        Gate::Toffoli { controls, .. } if controls.len() != 2 => {
            format!("mcx {}", operands.join(", "))
        }
        Gate::Fredkin { controls, .. } => {
            let name = match controls.len() {
                0 => "swap",
                1 => "cswap",
                _ => "mcswap",
            };
            format!("{name} {}", operands.join(", "))
        }
        Gate::Measure { qubit, clbit } => format!("measure q[{qubit}] -> c[{clbit}]"),
        Gate::Reset { qubit } => format!("reset q[{qubit}]"),
        Gate::Conditional {
            offset,
            width,
            value,
            gate: inner,
        } => {
            // Whole-register conditions use standard OpenQASM 2 syntax;
            // sub-ranges use the documented `c[j]` / `c[j+:w]` extension so
            // every circuit round-trips exactly.
            let lhs = if *offset == 0 && *width == num_clbits {
                "c".to_string()
            } else if *width == 1 {
                format!("c[{offset}]")
            } else {
                format!("c[{offset}+:{width}]")
            };
            format!(
                "if ({lhs} == {value}) {}",
                emit_statement(inner, num_clbits)
            )
        }
        _ => format!("{} {}", gate.name(), operands.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_program() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            creg c[3];
            h q[0];
            cx q[0], q[1]; ccx q[0], q[1], q[2];
            t q[2];           // a trailing comment
            rx(pi/2) q[1];
            measure q -> c;
        "#;
        let c = parse(src).expect("valid program");
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_clbits(), 3);
        assert_eq!(
            c.gates(),
            &[
                Gate::H(0),
                Gate::Cnot {
                    control: 0,
                    target: 1
                },
                Gate::Toffoli {
                    controls: vec![0, 1],
                    target: 2
                },
                Gate::T(2),
                Gate::RxPi2(1),
                Gate::Measure { qubit: 0, clbit: 0 },
                Gate::Measure { qubit: 1, clbit: 1 },
                Gate::Measure { qubit: 2, clbit: 2 },
            ]
        );
    }

    #[test]
    fn parses_dynamic_statements() {
        let src = r#"
            qreg q[2];
            creg c[2];
            h q[0];
            measure q[0] -> c[0];
            if (c[0] == 1) x q[1];
            reset q[0];
            measure q[1] -> c[1];
            if (c == 3) z q[0];
        "#;
        let c = parse(src).expect("valid program");
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_clbits(), 2);
        assert!(c.is_dynamic());
        assert!(c.validate().is_ok());
        assert_eq!(
            c.gates(),
            &[
                Gate::H(0),
                Gate::Measure { qubit: 0, clbit: 0 },
                Gate::Conditional {
                    offset: 0,
                    width: 1,
                    value: 1,
                    gate: Box::new(Gate::X(1)),
                },
                Gate::Reset { qubit: 0 },
                Gate::Measure { qubit: 1, clbit: 1 },
                Gate::Conditional {
                    offset: 0,
                    width: 2,
                    value: 3,
                    gate: Box::new(Gate::Z(0)),
                },
            ]
        );
        // Whole-register reset expands per qubit.
        let r = parse("qreg q[3]; reset q;").expect("valid");
        assert_eq!(
            r.gates(),
            &[
                Gate::Reset { qubit: 0 },
                Gate::Reset { qubit: 1 },
                Gate::Reset { qubit: 2 },
            ]
        );
    }

    #[test]
    fn malformed_dynamic_statements_are_structured_errors() {
        // Silent skipping is gone: every malformed or unsupported statement
        // carries a line/column.
        let cases: &[(&str, &str)] = &[
            ("qreg q[1]; measure q[0];", "missing `->`"),
            ("qreg q[2]; creg c[1]; measure q -> c;", "sizes must match"),
            ("qreg q[1]; measure q[0] -> c[0];", "unknown register"),
            ("qreg q[1]; creg c[1]; if c[0] == 1 x q[0];", "missing `(`"),
            ("qreg q[1]; creg c[1]; if (c[0] == 1 x q[0];", "missing `)`"),
            ("qreg q[1]; creg c[1]; if (c[0] = 1) x q[0];", "form"),
            (
                "qreg q[1]; creg c[1]; if (d == 1) x q[0];",
                "unknown classical register",
            ),
            ("qreg q[1]; creg c[1]; if (c == 2) x q[0];", "does not fit"),
            (
                "qreg q[1]; creg c[1]; if (c == 1) measure q[0] -> c[0];",
                "conditioned",
            ),
            (
                "qreg q[1]; creg c[1]; if (c == 1) reset q[0];",
                "conditioned",
            ),
            (
                "qreg q[1]; creg c[1]; if (c == 1) if (c == 1) x q[0];",
                "conditioned",
            ),
            ("qreg q[1]; creg c[1]; if (c == 1);", "missing its gate"),
            ("qreg q[1]; reset;", "missing its qubit"),
            ("qreg q[1]; opaque foo q[0];", "unknown register"),
            ("qreg q[1]; gate mygate a { }", "malformed operand"),
        ];
        for (src, needle) in cases {
            let err = parse(src).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{src:?}: expected {needle:?} in {err}"
            );
            assert!(err.line >= 1, "{src:?} lost its position: {err:?}");
        }
    }

    #[test]
    fn multiple_registers_get_distinct_offsets() {
        let src = "qreg a[2]; qreg b[2]; cx a[1], b[0];";
        let c = parse(src).expect("valid");
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(
            c.gates(),
            &[Gate::Cnot {
                control: 1,
                target: 2
            }]
        );
    }

    #[test]
    fn rejects_unknown_gates_and_bad_operands() {
        assert!(parse("qreg q[1]; u3(0.1,0.2,0.3) q[0];").is_err());
        assert!(parse("qreg q[1]; rx(0.3) q[0];").is_err());
        assert!(parse("qreg q[2]; cx q[0], q[5];").is_err());
        assert!(parse("qreg q[2]; cx q[0], r[1];").is_err());
        let err = parse("qreg q[1]; foo q[0];").unwrap_err();
        assert!(err.to_string().contains("foo"));
    }

    #[test]
    fn roundtrip_through_emit() {
        let mut c = Circuit::new(4);
        c.h(0)
            .t(1)
            .sdg(2)
            .cx(0, 1)
            .cz(1, 2)
            .ccx(0, 1, 3)
            .cswap(0, 2, 3)
            .swap(1, 2)
            .rx_pi2(3)
            .ry_pi2(0);
        let text = emit(&c);
        let back = parse(&text).expect("emitted text parses");
        assert_eq!(back, c);
    }

    #[test]
    fn multi_controlled_gates_roundtrip_at_every_control_count() {
        for k in 0..=4usize {
            let controls: Vec<usize> = (0..k).collect();
            let mut c = Circuit::with_clbits(k + 2, 1);
            c.mcx(controls.clone(), k)
                .mcswap(controls.clone(), k, k + 1)
                .conditional(
                    0,
                    1,
                    1,
                    Gate::Toffoli {
                        controls: controls.clone(),
                        target: k + 1,
                    },
                );
            let text = emit(&c);
            let back = parse(&text).unwrap_or_else(|e| panic!("{k} controls: {e}\n{text}"));
            assert_eq!(back, c, "{k} controls:\n{text}");
        }
        // Standard spellings where they fit the control count.
        let mut c = Circuit::new(5);
        c.ccx(0, 1, 2).cswap(0, 1, 2).swap(3, 4);
        assert_eq!(
            emit(&c).lines().skip(3).collect::<Vec<_>>(),
            [
                "ccx q[0], q[1], q[2];",
                "cswap q[0], q[1], q[2];",
                "swap q[3], q[4];"
            ]
        );
    }

    #[test]
    fn multi_controlled_extension_rejects_bad_operand_lists() {
        let cases: &[(&str, &str)] = &[
            ("qreg q[3]; mcx q[0], q[1], q[0];", "repeats a qubit"),
            ("qreg q[3]; mcswap q[0], q[1], q[1];", "repeats a qubit"),
            ("qreg q[3]; mcswap q[2];", "at least 2"),
        ];
        for (src, needle) in cases {
            let err = parse(src).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{src:?}: expected {needle:?} in {err}"
            );
        }
        // The gate-count limit covers the extension like any gate.
        let limits = ParseLimits {
            max_gates: 1,
            ..ParseLimits::default()
        };
        let err =
            parse_with_limits("qreg q[3]; mcx q[0], q[1]; mcx q[1], q[2];", limits).unwrap_err();
        assert!(err.to_string().contains("gate count"), "{err}");
    }

    #[test]
    fn dynamic_circuits_roundtrip_through_emit() {
        let mut c = Circuit::with_clbits(3, 4);
        c.h(0)
            .measure(0, 0)
            .if_bit(0, Gate::X(1))
            .reset(0)
            .measure(1, 2)
            .conditional(0, 4, 9, Gate::Z(2))
            .conditional(1, 2, 2, Gate::H(1));
        let text = emit(&c);
        assert!(text.contains("creg c[4];"), "{text}");
        assert!(text.contains("measure q[0] -> c[0];"), "{text}");
        assert!(text.contains("reset q[0];"), "{text}");
        assert!(text.contains("if (c == 9) z q[2];"), "{text}");
        assert!(text.contains("if (c[1+:2] == 2) h q[1];"), "{text}");
        let back = parse(&text).expect("emitted text parses");
        assert_eq!(back, c);
    }

    #[test]
    fn accepts_numeric_half_pi() {
        let src = "qreg q[1]; rx(1.5707963267948966) q[0];";
        let c = parse(src).expect("valid");
        assert_eq!(c.gates(), &[Gate::RxPi2(0)]);
    }

    #[test]
    fn errors_carry_line_and_column() {
        // `foo` starts at column 12 of line 1 (after `qreg q[1]; `).
        let err = parse("qreg q[1]; foo q[0];").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 12);
        assert!(err.to_string().contains("column 12"), "{err}");
        // Second line, indented statement.
        let err = parse("qreg q[2];\n   cx q[0], q[9];").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 4);
    }

    #[test]
    fn absurd_register_sizes_are_rejected_before_allocation() {
        // One register over the limit.
        let err = parse("qreg q[99999999];").unwrap_err();
        assert!(err.to_string().contains("qubit limit"), "{err}");
        // Many registers accumulating past the limit.
        let limits = ParseLimits {
            max_qubits: 8,
            ..ParseLimits::default()
        };
        assert!(parse_with_limits("qreg a[5]; qreg b[5];", limits).is_err());
        assert!(parse_with_limits("qreg a[5]; qreg b[3];", limits).is_ok());
        // A size too big for usize stays a structured error, not a panic.
        let err = parse("qreg q[999999999999999999999999999];").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("bad register size"), "{err}");
    }

    #[test]
    fn gate_count_limit_rejects_endless_gate_streams() {
        let limits = ParseLimits {
            max_gates: 4,
            ..ParseLimits::default()
        };
        let src = "qreg q[1]; x q[0]; x q[0]; x q[0]; x q[0];";
        assert!(parse_with_limits(src, limits).is_ok());
        let src = "qreg q[1]; x q[0]; x q[0]; x q[0]; x q[0]; x q[0];";
        let err = parse_with_limits(src, limits).unwrap_err();
        assert!(err.to_string().contains("gate count"), "{err}");
    }

    #[test]
    fn source_byte_limit_is_checked_up_front() {
        let limits = ParseLimits {
            max_source_bytes: 16,
            ..ParseLimits::default()
        };
        let err = parse_with_limits("qreg q[1]; x q[0];", limits).unwrap_err();
        assert!(err.to_string().contains("bytes"), "{err}");
    }

    #[test]
    fn reversed_delimiters_are_rejected_not_panics() {
        // Each of these used to panic on an out-of-order str slice.
        let err = parse("qreg q]1[;").unwrap_err();
        assert!(err.to_string().contains("malformed register"), "{err}");
        let err = parse("qreg q[1]; x q]0[;").unwrap_err();
        assert!(err.to_string().contains("malformed operand"), "{err}");
        let err = parse("qreg q[1]; rx)pi/2( q[0];").unwrap_err();
        assert!(err.to_string().contains("missing `)`"), "{err}");
    }

    #[test]
    fn truncated_and_garbage_inputs_error_instead_of_panicking() {
        // Fuzz-style corpus: every prefix of a valid program plus assorted
        // garbage must parse or fail with a structured error — never panic,
        // never allocate absurdly.
        let valid = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0], q[1];\nccx q[0], q[1], q[2];\n";
        for end in 0..=valid.len() {
            let _ = parse(&valid[..end]);
        }
        let garbage: &[&str] = &[
            "",
            ";",
            ";;;;;",
            "qreg",
            "qreg ;",
            "qreg q",
            "qreg q[",
            "qreg q[];",
            "qreg q[-1];",
            "qreg q[1]; h",
            "qreg q[1]; h ;",
            "qreg q[1]; h q;",
            "qreg q[1]; h q[;",
            "qreg q[1]; h q[]",
            "qreg q[1]; rx( q[0];",
            "qreg q[1]; rx() q[0];",
            "qreg q[1]; cx q[0],;",
            "qreg q[1]; cx q[0], q[0], q[0], q[0];",
            "qreg [3]; x [0];",
            "qreg q]1[;",
            "x q]0[;",
            "qreg q[1]; x q]0[;",
            "qreg q[1]; rx)pi/2( q[0];",
            "qreg q[1]; rx(pi/2) q]0[;",
            "qreg ]q[1];",
            "\u{0}\u{1}\u{2}",
            "qreg q[1]; x q[0]\u{335};",
            "κρεγ q[2]; h q[0];",
            "qreg q[18446744073709551616];",
        ];
        for src in garbage {
            // The outcome may be Ok (header statements, empty input) or Err,
            // but must be structured either way.
            if let Err(err) = parse(src) {
                assert!(!err.message.is_empty(), "empty message for {src:?}");
            }
        }
    }
}
