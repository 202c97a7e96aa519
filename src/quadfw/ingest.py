"""Instance readers and run-report emission.

Two input formats are supported:

* the canonical line-oriented format (primary test fixture format), with
  ``#`` comments::

      NAME <string>
      SENSE MIN|MAX
      NVARS <n>
      VAR <idx> <C|I|B> <lb|-inf> <ub|+inf>
      OBJ QUAD <i> <j> <coef> | OBJ LIN <i> <coef> | OBJ CONST <c>
      CON <id> QUAD <i> <j> <coef> | CON <id> LIN <i> <coef>
      CON <id> SENSE <LE|GE|EQ> <rhs>

  ``OBJ QUAD i j c`` adds ``c * x_i * x_j`` to the objective -- no
  implicit 1/2 factor, matching the model's term convention.

* a QPLIB subset reader covering quadratic/linear objectives and
  constraints, bounds and binary/integer/continuous variables.  QPLIB
  stores ``0.5 x'Qx`` lower-triangle entries, so an off-diagonal entry
  ``(i, j, v)`` maps to the term ``v * x_i * x_j`` and a diagonal entry
  to ``(v / 2) * x_i^2``.  Constraints are two-sided
  ``cl <= 0.5 x'Q_k x + b_k'x <= cu`` and are normalized into LE rows.

Run reports are emitted as JSON with a deterministic field order; times
are in seconds at millisecond resolution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import IncumbentTrace, primal_gap, primal_integral, time_to_first
from .model import (
    INFINITY,
    Problem,
    QuadConstraint,
    Sense,
    VarKind,
    merge_terms,
    normalize_constraint,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedQplibError(ParseError):
    """QPLIB problem-type code outside the supported subset."""


# ---------------------------------------------------------------------------
# canonical format
# ---------------------------------------------------------------------------

_KIND_CODES = {"C": VarKind.CONTINUOUS, "I": VarKind.INTEGER, "B": VarKind.BINARY}


def _parse_bound(token: str, line: int) -> float:
    t = token.lower()
    if t in ("-inf", "-infinity"):
        return -INFINITY
    if t in ("+inf", "inf", "+infinity", "infinity"):
        return INFINITY
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad bound '{token}'", line) from None


def _parse_float(token: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad number '{token}'", line) from None


def _parse_index(token: str, n: int | None, line: int) -> int:
    try:
        idx = int(token)
    except ValueError:
        raise ParseError(f"bad index '{token}'", line) from None
    if n is None:
        raise ParseError("NVARS must appear before indexed directives", line)
    if not (0 <= idx < n):
        raise ParseError(f"index {idx} out of range [0, {n})", line)
    return idx


def parse_canonical(text: str) -> Problem:
    """Parse the canonical format into a minimization-form :class:`Problem`."""
    name = ""
    sense = "MIN"
    n: int | None = None
    declared: dict[int, tuple[VarKind, float, float]] = {}
    obj_terms: list[tuple[int, int, float]] = []
    d_entries: list[tuple[int, float]] = []
    c0 = 0.0
    con_order: list[str] = []
    con_terms: dict[str, list[tuple[int, int, float]]] = {}
    con_lin: dict[str, dict[int, float]] = {}
    con_sense: dict[str, tuple[Sense, float]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive = fields[0].upper()
        if directive == "NAME":
            name = " ".join(fields[1:])
        elif directive == "SENSE":
            if len(fields) != 2 or fields[1].upper() not in ("MIN", "MAX"):
                raise ParseError("expected SENSE MIN|MAX", lineno)
            sense = fields[1].upper()
        elif directive == "NVARS":
            if n is not None:
                raise ParseError("duplicate NVARS directive", lineno)
            if len(fields) != 2:
                raise ParseError("expected NVARS <n>", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"bad variable count '{fields[1]}'", lineno) from None
            if n < 0:
                raise ParseError("variable count must be nonnegative", lineno)
        elif directive == "VAR":
            if len(fields) != 5:
                raise ParseError("expected VAR <idx> <C|I|B> <lb> <ub>", lineno)
            idx = _parse_index(fields[1], n, lineno)
            if idx in declared:
                raise ParseError(f"duplicate declaration of variable {idx}", lineno)
            code = fields[2].upper()
            if code not in _KIND_CODES:
                raise ParseError(f"unknown variable kind '{fields[2]}'", lineno)
            kind = _KIND_CODES[code]
            lo = _parse_bound(fields[3], lineno)
            hi = _parse_bound(fields[4], lineno)
            if kind is VarKind.BINARY:
                lo, hi = max(lo, 0.0), min(hi, 1.0)
            if lo > hi:
                raise ParseError(f"variable {idx} has empty bound range", lineno)
            declared[idx] = (kind, lo, hi)
        elif directive == "OBJ":
            if len(fields) < 2:
                raise ParseError("truncated OBJ directive", lineno)
            what = fields[1].upper()
            if what == "QUAD" and len(fields) == 5:
                i = _parse_index(fields[2], n, lineno)
                j = _parse_index(fields[3], n, lineno)
                obj_terms.append((i, j, _parse_float(fields[4], lineno)))
            elif what == "LIN" and len(fields) == 4:
                i = _parse_index(fields[2], n, lineno)
                d_entries.append((i, _parse_float(fields[3], lineno)))
            elif what == "CONST" and len(fields) == 3:
                c0 += _parse_float(fields[2], lineno)
            else:
                raise ParseError(f"malformed OBJ directive '{line}'", lineno)
        elif directive == "CON":
            if len(fields) < 3:
                raise ParseError("truncated CON directive", lineno)
            cid = fields[1]
            if cid not in con_terms:
                con_order.append(cid)
                con_terms[cid] = []
                con_lin[cid] = {}
            what = fields[2].upper()
            if what == "QUAD" and len(fields) == 6:
                i = _parse_index(fields[3], n, lineno)
                j = _parse_index(fields[4], n, lineno)
                con_terms[cid].append((i, j, _parse_float(fields[5], lineno)))
            elif what == "LIN" and len(fields) == 5:
                i = _parse_index(fields[3], n, lineno)
                con_lin[cid][i] = con_lin[cid].get(i, 0.0) + _parse_float(fields[4], lineno)
            elif what == "SENSE" and len(fields) == 5:
                code = fields[3].upper()
                if code not in ("LE", "GE", "EQ"):
                    raise ParseError(f"unknown constraint sense '{fields[3]}'", lineno)
                if cid in con_sense:
                    raise ParseError(f"duplicate SENSE for constraint '{cid}'", lineno)
                con_sense[cid] = (Sense[code], _parse_float(fields[4], lineno))
            else:
                raise ParseError(f"malformed CON directive '{line}'", lineno)
        else:
            raise ParseError(f"unknown directive '{fields[0]}'", lineno)

    if n is None:
        raise ParseError("missing NVARS directive")
    lb = np.zeros(n)
    ub = np.zeros(n)
    kinds: list[VarKind] = []
    for idx in range(n):
        if idx not in declared:
            raise ParseError(f"variable {idx} was never declared")
        kind, lo, hi = declared[idx]
        kinds.append(kind)
        lb[idx], ub[idx] = lo, hi

    sign = -1.0 if sense == "MAX" else 1.0
    d = np.zeros(n)
    for i, v in d_entries:
        d[i] += sign * v
    obj = merge_terms([(i, j, sign * q) for (i, j, q) in obj_terms])

    constraints: list[QuadConstraint] = []
    for cid in con_order:
        if cid not in con_sense:
            raise ParseError(f"constraint '{cid}' has no SENSE line")
        csense, rhs = con_sense[cid]
        constraints.extend(
            normalize_constraint(con_terms[cid], con_lin[cid], -rhs, csense)
        )

    return Problem(
        n=n,
        terms_obj=obj,
        d=d,
        c0=sign * c0,
        constraints=constraints,
        lb=lb,
        ub=ub,
        integrality=kinds,
        sense_flag=sense,
        name=name,
    )


def write_canonical(problem: Problem) -> str:
    """Serialize a problem so that re-parsing reproduces the same model.

    MAX instances are written back in their original sense (objective
    re-negated); constraints are written in stored normalized form.
    """
    sign = -1.0 if problem.sense_flag == "MAX" else 1.0
    lines = []
    if problem.name:
        lines.append(f"NAME {problem.name}")
    lines.append(f"SENSE {problem.sense_flag}")
    lines.append(f"NVARS {problem.n}")

    def bound(v: float) -> str:
        if v == -INFINITY:
            return "-inf"
        if v == INFINITY:
            return "+inf"
        return repr(float(v))

    for k in range(problem.n):
        kind = problem.integrality[k].value
        lines.append(f"VAR {k} {kind} {bound(problem.lb[k])} {bound(problem.ub[k])}")
    for (i, j, q) in problem.terms_obj:
        lines.append(f"OBJ QUAD {i} {j} {repr(float(sign * q))}")
    for k in range(problem.n):
        if problem.d[k] != 0.0:
            lines.append(f"OBJ LIN {k} {repr(float(sign * problem.d[k]))}")
    if problem.c0 != 0.0:
        lines.append(f"OBJ CONST {repr(float(sign * problem.c0))}")
    for ci, con in enumerate(problem.constraints):
        for (i, j, q) in con.terms:
            lines.append(f"CON {ci} QUAD {i} {j} {repr(float(q))}")
        for k in sorted(con.b):
            lines.append(f"CON {ci} LIN {k} {repr(float(con.b[k]))}")
        lines.append(f"CON {ci} SENSE {con.sense.value} {repr(float(-con.c))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# QPLIB subset reader
# ---------------------------------------------------------------------------


class _LineReader:
    """Yields whitespace-split fields per line, '!' and '#' comments stripped."""

    def __init__(self, text: str):
        self._lines = text.splitlines()
        self._pos = 0
        self.lineno = 0

    def next_fields(self) -> list[str] | None:
        while self._pos < len(self._lines):
            raw = self._lines[self._pos]
            self._pos += 1
            self.lineno = self._pos
            for marker in ("!", "#"):
                cut = raw.find(marker)
                if cut >= 0:
                    raw = raw[:cut]
            fields = raw.split()
            if fields:
                return fields
        return None

    def require(self, what: str) -> list[str]:
        fields = self.next_fields()
        if fields is None:
            raise ParseError(f"unexpected end of file, expected {what}", self.lineno)
        return fields


def _read_int(reader: _LineReader, what: str) -> int:
    fields = reader.require(what)
    try:
        return int(fields[0])
    except ValueError:
        raise ParseError(f"expected {what}, got '{fields[0]}'", reader.lineno) from None


def _read_float(reader: _LineReader, what: str) -> float:
    fields = reader.require(what)
    try:
        return _qplib_float(fields[0])
    except ValueError:
        raise ParseError(f"expected {what}, got '{fields[0]}'", reader.lineno) from None


def _qplib_float(token: str) -> float:
    return float(token.replace("D", "E").replace("d", "e"))


def _var_kind(token: str) -> VarKind:
    return _KIND_BY_CODE[int(token)]


def _read_sparse_block(
    reader: _LineReader, what: str, limits: tuple[int, ...], value=_qplib_float
) -> list[tuple]:
    """A count, then that many entries of 1-based indices, each at most
    its limit, and a value read by ``value``; a bad entry raises
    ParseError with its own line."""
    count = _read_int(reader, f"count of {what}")
    if count < 0:
        raise ParseError(f"negative count for {what}", reader.lineno)
    width = len(limits) + 1
    entries = []
    for _ in range(count):
        fields = reader.require(what)
        if len(fields) < width:
            raise ParseError(f"malformed {what} entry", reader.lineno)
        try:
            idx = tuple(int(t) for t in fields[: width - 1])
            val = value(fields[width - 1])
        except (KeyError, ValueError):
            raise ParseError(f"bad number in {what}: '{' '.join(fields[:width])}'",
                             reader.lineno) from None
        if not all(1 <= i <= hi for i, hi in zip(idx, limits)):
            raise ParseError(f"index {' '.join(fields[: width - 1])} of {what} out of range",
                             reader.lineno)
        entries.append(idx + (val,))
    return entries


def _read_vector(reader: _LineReader, what: str, size: int) -> np.ndarray:
    """A default value for all ``size`` entries, then sparse 1-based overrides."""
    out = np.full(size, _read_float(reader, f"default {what}"))
    for (i, v) in _read_sparse_block(reader, what, (size,)):
        out[i - 1] = v
    return out


_OBJ_CODES = frozenset("LDCQ")
_VAR_CODES = frozenset("CBMIG")
_KIND_BY_CODE = {0: VarKind.CONTINUOUS, 1: VarKind.INTEGER, 2: VarKind.BINARY}
_CON_CODES = frozenset("NBLDCQ")


def parse_qplib(text: str) -> Problem:
    """Parse a QPLIB instance (quadratic/linear subset) into a Problem."""
    reader = _LineReader(text)
    name = " ".join(reader.require("problem name"))
    ptype = reader.require("problem type")[0].upper()
    if len(ptype) != 3 or ptype[0] not in _OBJ_CODES or ptype[1] not in _VAR_CODES \
            or ptype[2] not in _CON_CODES:
        raise UnsupportedQplibError(f"unsupported QPLIB problem type '{ptype}'", reader.lineno)
    obj_code, var_code, con_code = ptype

    sense_field = reader.require("objective sense")[0].lower()
    if sense_field.startswith("min"):
        sense = "MIN"
    elif sense_field.startswith("max"):
        sense = "MAX"
    else:
        raise ParseError(f"bad objective sense '{sense_field}'", reader.lineno)

    n = _read_int(reader, "number of variables")
    has_rows = con_code not in ("N", "B")
    m = _read_int(reader, "number of constraints") if has_rows else 0

    obj_terms: list[tuple[int, int, float]] = []
    if obj_code != "L":
        for (i, j, v) in _read_sparse_block(reader, "objective quadratic entries", (n, n)):
            a, b = sorted((i - 1, j - 1))
            obj_terms.append((a, b, v / 2.0 if a == b else v))

    d = _read_vector(reader, "objective linear coefficients", n)
    c0 = _read_float(reader, "objective constant")

    row_terms: list[list[tuple[int, int, float]]] = [[] for _ in range(m)]
    row_lin: list[dict[int, float]] = [{} for _ in range(m)]
    if has_rows and con_code in ("D", "C", "Q"):
        for (k, i, j, v) in _read_sparse_block(reader, "constraint quadratic entries", (m, n, n)):
            a, b = sorted((i - 1, j - 1))
            row_terms[k - 1].append((a, b, v / 2.0 if a == b else v))
    if has_rows:
        for (k, j, v) in _read_sparse_block(reader, "constraint linear entries", (m, n)):
            row_lin[k - 1][j - 1] = row_lin[k - 1].get(j - 1, 0.0) + v

    has_var_bounds = var_code != "B"
    infinity = 1.0e30
    if has_rows or has_var_bounds:
        infinity = _read_float(reader, "infinity value")

    cl = _read_vector(reader, "constraint lower sides", m) if has_rows else np.zeros(0)
    cu = _read_vector(reader, "constraint upper sides", m) if has_rows else np.zeros(0)
    lb = _read_vector(reader, "variable lower bounds", n) if has_var_bounds else np.zeros(n)
    ub = _read_vector(reader, "variable upper bounds", n) if has_var_bounds else np.ones(n)

    # variable kinds: uniform for C/B/I, explicit type block for M/G
    if var_code == "C":
        kinds = [VarKind.CONTINUOUS] * n
    elif var_code == "B":
        kinds = [VarKind.BINARY] * n
    elif var_code == "I":
        kinds = [VarKind.INTEGER] * n
    else:
        default_code = _read_int(reader, "default variable type")
        if default_code not in _KIND_BY_CODE:
            raise ParseError(f"unknown variable type code {default_code}", reader.lineno)
        kinds = [_KIND_BY_CODE[default_code]] * n
        for (j, kind) in _read_sparse_block(reader, "variable types", (n,), _var_kind):
            kinds[j - 1] = kind
    # remaining blocks (starting points, names) are ignored

    lb = np.where(lb <= -infinity, -INFINITY, lb)
    ub = np.where(ub >= infinity, INFINITY, ub)
    for j in range(n):
        if kinds[j] is VarKind.BINARY:
            lb[j], ub[j] = max(lb[j], 0.0), min(ub[j], 1.0)
        elif kinds[j] is VarKind.INTEGER and lb[j] == 0.0 and ub[j] == 1.0:
            kinds[j] = VarKind.BINARY

    sign = -1.0 if sense == "MAX" else 1.0
    constraints: list[QuadConstraint] = []
    for k in range(m):
        terms = row_terms[k]
        lin = row_lin[k]
        lo, hi = cl[k], cu[k]
        lo = -INFINITY if lo <= -infinity else lo
        hi = INFINITY if hi >= infinity else hi
        if math.isfinite(lo) and math.isfinite(hi) and lo == hi:
            constraints.extend(normalize_constraint(terms, lin, -lo, Sense.EQ))
            continue
        if math.isfinite(hi):
            constraints.extend(normalize_constraint(terms, lin, -hi, Sense.LE))
        if math.isfinite(lo):
            constraints.extend(normalize_constraint(terms, lin, -lo, Sense.GE))

    return Problem(
        n=n,
        terms_obj=merge_terms([(i, j, sign * q) for (i, j, q) in obj_terms]),
        d=sign * d,
        c0=sign * c0,
        constraints=constraints,
        lb=lb,
        ub=ub,
        integrality=kinds,
        sense_flag=sense,
        name=name,
    )


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    instance: str
    status: str  # feasible | no_solution | error
    best_objective: float | None
    events: list[tuple[float, float]]  # (time s, objective, original sense)
    config: dict
    ttf: float | None
    gap: float | None
    primal_integral: float | None
    nodes: int = 0
    restarts: int = 0
    termination: str = ""
    workers: list[dict] = field(default_factory=list)  # per-worker counters

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "status": self.status,
            "best_objective": self.best_objective,
            "events": [{"time": t, "objective": v} for (t, v) in self.events],
            "config": self.config,
            "metrics": {
                "ttf": self.ttf,
                "gap": self.gap,
                "primal_integral": self.primal_integral,
            },
            "nodes": self.nodes,
            "restarts": self.restarts,
            "termination": self.termination,
            "stats": {"workers": self.workers},
        }


def build_report(
    instance: str,
    status: str,
    events: list[tuple[float, float]],
    config: dict,
    time_limit: float,
    reference: float | None = None,
    sense_flag: str = "MIN",
    nodes: int = 0,
    restarts: int = 0,
    termination: str = "",
    workers: list[dict] | None = None,
) -> RunReport:
    """Assemble a RunReport from merged incumbent events (original sense).

    Event times and the TTF are rounded to the millisecond, never past
    ``time_limit``."""
    events = [(min(round(t, 3), time_limit), v) for (t, v) in events]
    values = [v for (_, v) in events]
    improving = (all(b > a for a, b in zip(values, values[1:]))
                 if sense_flag == "MAX"
                 else all(b < a for a, b in zip(values, values[1:])))
    if not improving:
        raise ValueError("incumbent events must be strictly improving")
    best = events[-1][1] if events else None
    ttf = min(round(time_to_first(IncumbentTrace(events, time_limit)), 3), time_limit)
    gap = None
    pi: float | None = None
    if reference is not None:
        gap = primal_gap(best, reference)
        # internal gap computation minimizes; events are original-sense so
        # the sign-sensitive formula applies directly
        pi = primal_integral(IncumbentTrace(events, time_limit, reference))
    elif not events:
        pi = float(time_limit)
    return RunReport(
        instance=instance,
        status=status,
        best_objective=best,
        events=events,
        config=config,
        ttf=ttf,
        gap=gap,
        primal_integral=pi,
        nodes=nodes,
        restarts=restarts,
        termination=termination,
        workers=[] if workers is None else workers,
    )


def write_report(report: RunReport) -> str:
    """Serialize a run report as JSON with deterministic field order."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=False)
