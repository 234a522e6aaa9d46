"""OpenQASM 2.0 export and a small importer.

The paper's tool flow compiles Scaffold programs with assertions into
"multiple versions of OpenQASM", one per breakpoint, which are then simulated.
This module provides the equivalent serialisation layer: breakpoint programs
produced by :mod:`repro.compiler.splitter` can be exported to OpenQASM 2.0 and
(for the supported gate subset) re-imported, which the tests use as a
round-trip check.

Assertions have no OpenQASM representation; they are emitted as structured
comments (``// assert_classical ...``) exactly because the paper's flow also
lowers the assertion to an early measurement plus an external statistical
check.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Sequence

from ..observables.pauli import PauliString, PauliSum
from .instructions import (
    AssertionInstruction,
    BarrierInstruction,
    BlockMarkerInstruction,
    ClassicalAssertInstruction,
    EntangledAssertInstruction,
    GateInstruction,
    MeasureInstruction,
    PrepInstruction,
    ProductAssertInstruction,
    SuperpositionAssertInstruction,
)
from .program import Program
from .registers import Qubit

__all__ = ["to_qasm", "from_qasm", "QasmError"]


class QasmError(ValueError):
    """Raised when a program cannot be expressed in / parsed from OpenQASM 2.0."""


_QASM_FIXED = {
    ("x", 0): "x",
    ("y", 0): "y",
    ("z", 0): "z",
    ("h", 0): "h",
    ("s", 0): "s",
    ("sdg", 0): "sdg",
    ("t", 0): "t",
    ("tdg", 0): "tdg",
    ("x", 1): "cx",
    ("z", 1): "cz",
    ("y", 1): "cy",
    ("h", 1): "ch",
    ("x", 2): "ccx",
    ("swap", 0): "swap",
    ("swap", 1): "cswap",
}

_QASM_PARAM = {
    ("rx", 0): "rx",
    ("ry", 0): "ry",
    ("rz", 0): "rz",
    ("phase", 0): "u1",
    ("rz", 1): "crz",
    ("phase", 1): "cu1",
}


def _format_angle(value: float) -> str:
    """Render an angle, using multiples of pi when they are exact enough."""
    if value == 0.0:
        return "0"
    ratio = value / math.pi
    for denominator in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        scaled = ratio * denominator
        if abs(scaled - round(scaled)) < 1e-12 and round(scaled) != 0:
            numerator = int(round(scaled))
            if denominator == 1:
                return f"{numerator}*pi" if numerator != 1 else "pi"
            if numerator == 1:
                return f"pi/{denominator}"
            return f"{numerator}*pi/{denominator}"
    return f"{value!r}"


def _qubit_ref(qubit: Qubit) -> str:
    return f"{qubit.register.name}[{qubit.index}]"


def to_qasm(program: Program, include_assertions_as_comments: bool = True) -> str:
    """Serialise ``program`` to OpenQASM 2.0 text."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if program.lint_suppressions:
        lines.append(f"// qlint: disable={','.join(sorted(program.lint_suppressions))}")
    for register in program.registers:
        lines.append(f"qreg {register.name}[{register.size}];")
    header_length = len(lines)
    measure_counter = 0
    declared_cregs: list[str] = []

    for instruction in program.instructions:
        if isinstance(instruction, GateInstruction):
            lines.append(_gate_to_qasm(instruction))
        elif isinstance(instruction, PrepInstruction):
            lines.append(f"reset {_qubit_ref(instruction.qubit)};")
            if instruction.value == 1:
                lines.append(f"x {_qubit_ref(instruction.qubit)};")
        elif isinstance(instruction, BarrierInstruction):
            if instruction.marked:
                operands = ",".join(_qubit_ref(q) for q in instruction.marked)
                lines.append(f"barrier {operands};")
            else:
                lines.append("barrier;")
        elif isinstance(instruction, MeasureInstruction):
            creg_name = f"c{measure_counter}"
            measure_counter += 1
            declared_cregs.append(f"creg {creg_name}[{len(instruction.measured)}];")
            for position, qubit in enumerate(instruction.measured):
                lines.append(f"measure {_qubit_ref(qubit)} -> {creg_name}[{position}];")
        elif isinstance(instruction, AssertionInstruction):
            if include_assertions_as_comments:
                lines.append(f"// {instruction.describe()}")
        elif isinstance(instruction, BlockMarkerInstruction):
            lines.append(f"// {instruction.describe().lstrip('# ')}")
        else:  # pragma: no cover - defensive
            raise QasmError(f"cannot serialise {type(instruction).__name__}")

    # Classical registers must be declared before use; splice them in after
    # the quantum register declarations.
    return "\n".join(
        lines[:header_length] + declared_cregs + lines[header_length:]
    ) + "\n"


def _gate_to_qasm(instruction: GateInstruction) -> str:
    key = (instruction.name, len(instruction.controls))
    operands = ",".join(_qubit_ref(q) for q in instruction.controls + instruction.targets)
    if key in _QASM_FIXED:
        return f"{_QASM_FIXED[key]} {operands};"
    if key in _QASM_PARAM:
        params = ",".join(_format_angle(p) for p in instruction.params)
        return f"{_QASM_PARAM[key]}({params}) {operands};"
    if instruction.name == "u3" and not instruction.controls:
        params = ",".join(_format_angle(p) for p in instruction.params)
        return f"u3({params}) {operands};"
    if instruction.name == "phase" and len(instruction.controls) == 2:
        # ccu1 is not in qelib1; emit the standard two-control decomposition:
        # ccU1(t) = cU1(t/2)[c1,t] . CX[c0,c1] . cU1(-t/2)[c1,t] . CX[c0,c1] . cU1(t/2)[c0,t]
        theta = instruction.params[0]
        c0, c1 = instruction.controls
        (target,) = instruction.targets
        plus_half = _format_angle(theta / 2.0)
        minus_half = _format_angle(-theta / 2.0)
        return "\n".join(
            [
                f"cu1({plus_half}) {_qubit_ref(c1)},{_qubit_ref(target)};",
                f"cx {_qubit_ref(c0)},{_qubit_ref(c1)};",
                f"cu1({minus_half}) {_qubit_ref(c1)},{_qubit_ref(target)};",
                f"cx {_qubit_ref(c0)},{_qubit_ref(c1)};",
                f"cu1({plus_half}) {_qubit_ref(c0)},{_qubit_ref(target)};",
            ]
        )
    raise QasmError(
        f"gate {instruction.name!r} with {len(instruction.controls)} controls has no "
        "OpenQASM 2.0 spelling; run the decomposition pass first"
    )


# ---------------------------------------------------------------------------
# Importer (subset)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"^\s*(?P<gate>[a-z][a-z0-9_]*)\s*(\((?P<params>[^)]*)\))?\s+(?P<operands>[^;]+);\s*$"
)
_QREG_RE = re.compile(r"^\s*qreg\s+(?P<name>[a-zA-Z_][\w]*)\s*\[(?P<size>\d+)\]\s*;\s*$")
_CREG_RE = re.compile(r"^\s*creg\s+(?P<name>[a-zA-Z_][\w]*)\s*\[(?P<size>\d+)\]\s*;\s*$")
_MEASURE_RE = re.compile(
    r"^\s*measure\s+(?P<q>[\w\[\]]+)\s*->\s*(?P<c>[\w\[\]]+)\s*;\s*$"
)
_OPERAND_RE = re.compile(r"^(?P<name>[a-zA-Z_][\w]*)\[(?P<index>\d+)\]$")

_IMPORT_FIXED = {
    "x": ("x", 0),
    "y": ("y", 0),
    "z": ("z", 0),
    "h": ("h", 0),
    "s": ("s", 0),
    "sdg": ("sdg", 0),
    "t": ("t", 0),
    "tdg": ("tdg", 0),
    "cx": ("x", 1),
    "cy": ("y", 1),
    "cz": ("z", 1),
    "ch": ("h", 1),
    "ccx": ("x", 2),
    "swap": ("swap", 0),
    "cswap": ("swap", 1),
}

_IMPORT_PARAM = {
    "rx": ("rx", 0),
    "ry": ("ry", 0),
    "rz": ("rz", 0),
    "u1": ("phase", 0),
    "p": ("phase", 0),
    "crz": ("rz", 1),
    "cu1": ("phase", 1),
    "cp": ("phase", 1),
}


_ASSERT_CLASSICAL_RE = re.compile(
    r"^assert_classical\((?P<qubits>[^)]*)\)\s*==\s*(?P<value>\d+)$"
)
_ASSERT_SUPERPOSITION_RE = re.compile(
    r"^assert_superposition\((?P<qubits>[^)]*)\)\s*\[(?P<support>.*)\]$"
)
_ASSERT_JOINT_RE = re.compile(
    # Operand tokens look like ``q[0]``, so the group bodies themselves
    # contain ``]``; lazy/greedy matching splits at the ``], [`` boundary.
    r"^assert_(?P<kind>entangled|product)\(\[(?P<a>.*?)\]\s*,\s*\[(?P<b>.*)\]\)$"
)
_SUPPORT_RE = re.compile(r"^uniform over \[(?P<values>[^\]]*)\]$")
_ASSERT_OBSERVABLE_RE = re.compile(
    r"^assert_observable\(\[(?P<qubits>.*?)\]\)\s*==\s*(?P<expected>\S+)\s*"
    r"\+/-\s*(?P<tolerance>\S+)\s*\[(?P<terms>.*)\]$"
)
_OBSERVABLE_TERM_RE = re.compile(r"^(?P<coefficient>[+-][\d.eE+-]+)\*(?P<label>[IXYZ]+)$")


def _apply_assertion_comment(comment: str, program: Program, resolve) -> None:
    """Re-import one ``// assert_* ...`` structured comment.

    The formats are exactly what :meth:`AssertionInstruction.describe`
    produces (and :func:`to_qasm` emits), so export → import round-trips
    assertions even though OpenQASM 2.0 itself cannot express them.
    """
    match = _ASSERT_CLASSICAL_RE.match(comment)
    if match:
        qubits = [resolve(tok) for tok in match.group("qubits").split(",")]
        program.assert_classical(qubits, int(match.group("value")))
        return
    match = _ASSERT_SUPERPOSITION_RE.match(comment)
    if match:
        qubits = [resolve(tok) for tok in match.group("qubits").split(",")]
        support = match.group("support").strip()
        if support == "uniform":
            values = None
        else:
            inner = _SUPPORT_RE.match(support)
            if inner is None:
                raise QasmError(f"cannot parse superposition support {support!r}")
            values = [int(tok) for tok in inner.group("values").split(",")]
        program.assert_superposition(qubits, values=values)
        return
    match = _ASSERT_JOINT_RE.match(comment)
    if match:
        group_a = [resolve(tok) for tok in match.group("a").split(",")]
        group_b = [resolve(tok) for tok in match.group("b").split(",")]
        if match.group("kind") == "entangled":
            program.assert_entangled(group_a, group_b)
        else:
            program.assert_product(group_a, group_b)
        return
    match = _ASSERT_OBSERVABLE_RE.match(comment)
    if match:
        qubits = [resolve(tok) for tok in match.group("qubits").split(",")]
        terms = []
        for token in match.group("terms").split():
            term_match = _OBSERVABLE_TERM_RE.match(token)
            if term_match is None:
                raise QasmError(f"cannot parse observable term {token!r}")
            label = term_match.group("label")
            if len(label) != len(qubits):
                raise QasmError(
                    f"observable term {token!r} does not span {len(qubits)} qubits"
                )
            terms.append(
                PauliString.from_label(label, float(term_match.group("coefficient")))
            )
        if not terms:
            raise QasmError(f"observable assertion {comment!r} has no terms")
        program.assert_observable(
            qubits,
            PauliSum(terms),
            expectation=float(match.group("expected")),
            tolerance=float(match.group("tolerance")),
        )
        return
    raise QasmError(f"cannot parse assertion comment {comment!r}")


_QLINT_DISABLE_RE = re.compile(
    r"qlint:\s*disable\s*=\s*(?P<codes>QLINT\d{3}(?:\s*,\s*QLINT\d{3})*)\s*$",
    re.IGNORECASE,
)


def _apply_qlint_comment(comment: str, program: Program) -> None:
    """Apply one ``// qlint: disable=QLINT003[,QLINT004]`` suppression comment.

    Suppressions are program-wide: the linter drops every diagnostic whose
    code is listed, regardless of where in the file the comment appears
    (``python -m repro.lint --no-suppress`` reports them anyway).
    """
    match = _QLINT_DISABLE_RE.match(comment)
    if not match:
        raise QasmError(
            f"cannot parse qlint comment {comment!r}; expected "
            "'qlint: disable=QLINT0xx[,QLINT0yy...]'"
        )
    program.suppress_lint(
        *(code.strip() for code in match.group("codes").split(","))
    )


#: Longest angle expression the importer evaluates (``repr`` of a float and
#: the ``k*pi/2^m`` multiples the exporter writes stay far below it).
_MAX_ANGLE_LENGTH = 64

_ANGLE_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)|(?P<pi>pi)|(?P<op>[-+*/()])"
)


def _parse_angle(token: str) -> float:
    return _evaluate_angle(token.strip().replace(" ", ""))


@functools.lru_cache(maxsize=4096)
def _evaluate_angle(text: str) -> float:
    """Evaluate an angle expression over numbers, ``pi``, unary ``+``/``-``,
    ``+ - * /`` and parentheses, with Python's precedence, left
    associativity and number semantics (integer literals stay exact until a
    float or a division meets them), so every angle the exporter writes
    reads back as the float ``eval`` would give.  Anything else raises
    :class:`QasmError`.
    """
    if len(text) > _MAX_ANGLE_LENGTH:
        raise QasmError(
            f"angle expression longer than {_MAX_ANGLE_LENGTH} characters"
        )
    tokens: list = []
    position = 0
    while position < len(text):
        match = _ANGLE_TOKEN_RE.match(text, position)
        if match is None:
            raise QasmError(f"cannot parse angle expression {text!r}")
        if match.group("number"):
            number = match.group("number")
            tokens.append(float(number) if number.strip("0123456789") else int(number))
        elif match.group("pi"):
            tokens.append(math.pi)
        else:
            tokens.append(match.group("op"))
        position = match.end()
    tokens.append(None)
    cursor = 0

    def peek():
        return tokens[cursor]

    def take():
        nonlocal cursor
        cursor += 1
        return tokens[cursor - 1]

    def expression():  # term (('+' | '-') term)*
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term():  # unary (('*' | '/') unary)*
        value = unary()
        while peek() in ("*", "/"):
            value = value * unary() if take() == "*" else value / unary()
        return value

    def unary():  # ('+' | '-')* atom
        signs = []
        while peek() in ("+", "-"):
            signs.append(take())
        value = atom()
        for sign in reversed(signs):
            value = +value if sign == "+" else -value
        return value

    def atom():  # number | pi | '(' expression ')'
        token = take()
        if token == "(":
            value = expression()
            if take() != ")":
                raise QasmError(f"unbalanced parentheses in angle {text!r}")
            return value
        if token is None or isinstance(token, str):
            raise QasmError(f"cannot parse angle expression {text!r}")
        return token

    try:
        value = expression()
        if peek() is not None:
            raise QasmError(f"cannot parse angle expression {text!r}")
        return float(value)
    except (ZeroDivisionError, OverflowError) as exc:
        raise QasmError(f"cannot evaluate angle expression {text!r}: {exc}") from None


def from_qasm(text: str, name: str = "imported") -> Program:
    """Parse the supported OpenQASM 2.0 subset back into a :class:`Program`."""
    program = Program(name)
    registers: dict[str, object] = {}

    def _resolve(token: str) -> Qubit:
        match = _OPERAND_RE.match(token.strip())
        if not match:
            raise QasmError(f"cannot parse operand {token!r}")
        register_name = match.group("name")
        if register_name not in registers:
            raise QasmError(f"unknown register {register_name!r}")
        return registers[register_name][int(match.group("index"))]

    for raw_line in text.splitlines():
        line = raw_line.split("//", 1)[0].strip()
        if not line:
            comment = raw_line.strip()
            if comment.startswith("//"):
                comment = comment[2:].strip()
                if comment.startswith("assert_"):
                    _apply_assertion_comment(comment, program, _resolve)
                elif comment.startswith("qlint:"):
                    _apply_qlint_comment(comment, program)
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if line.startswith("barrier"):
            program.barrier()
            continue
        qreg_match = _QREG_RE.match(line)
        if qreg_match:
            register = program.qreg(qreg_match.group("name"), int(qreg_match.group("size")))
            registers[register.name] = register
            continue
        if _CREG_RE.match(line):
            continue
        measure_match = _MEASURE_RE.match(line)
        if measure_match:
            program.measure(_resolve(measure_match.group("q")))
            continue
        if line.startswith("reset"):
            operand = line[len("reset") :].strip().rstrip(";")
            program.prep_z(_resolve(operand), 0)
            continue
        token_match = _TOKEN_RE.match(line)
        if not token_match:
            raise QasmError(f"cannot parse line: {raw_line!r}")
        gate = token_match.group("gate")
        params_text = token_match.group("params")
        operands = [_resolve(tok) for tok in token_match.group("operands").split(",")]
        if gate in _IMPORT_FIXED:
            base, num_controls = _IMPORT_FIXED[gate]
            params: Sequence[float] = ()
        elif gate in _IMPORT_PARAM:
            base, num_controls = _IMPORT_PARAM[gate]
            params = tuple(_parse_angle(tok) for tok in (params_text or "").split(","))
        elif gate == "u3":
            base, num_controls = "u3", 0
            params = tuple(_parse_angle(tok) for tok in (params_text or "").split(","))
        else:
            raise QasmError(f"unsupported gate {gate!r} in importer")
        controls = operands[:num_controls]
        targets = operands[num_controls:]
        program.gate(base, targets, controls=controls or None, params=params)
    return program
