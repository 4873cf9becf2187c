"""Plain-text instance and solution files.

The format is line oriented: `#` starts a comment, blank lines are
skipped, the first line names the kind, scalar headers are `key value`
lines, and each matrix or vector key stands alone on its line followed
by rows of whitespace-separated decimals. Indices inside files are
1-based. Serialization uses 17 significant digits, enough for exact
float round-trips.

Kinds:

    uncertain-q   n, h, matrix m, vectors qbar and ubar
    uncertain-m   n, k, h, matrix m0, k perturbation matrices, vector q
    market        producer/constraint/market sizes, cost and demand
                  data, optional nonadjustable/adjustable switches
    solution-q    n, vector r, n x n matrix d
    solution-m    n, k, vector r, n x k matrix d
"""

from __future__ import annotations

import numpy as np

from .market import MarketModel
from .robust_m import AffineSolutionM, UncertainLcpM
from .robust_q import AffineSolutionQ, UncertainLcpQ

__all__ = [
    "InstanceFormatError",
    "parse_instance",
    "serialize_instance",
    "generate_random",
    "KINDS",
]

KINDS = ("uncertain-q", "uncertain-m", "market", "solution-q", "solution-m")

GENERATOR_SIZE_CAP = 50


class InstanceFormatError(ValueError):
    """Malformed instance text; the message carries the line number."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in np.atleast_1d(values))


class _Reader:
    """Sequential access to the meaningful lines of the text."""

    def __init__(self, text: str):
        self.rows = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((ln, body.split()))
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.rows)

    def peek_key(self) -> str | None:
        if self.done():
            return None
        return self.rows[self.pos][1][0]

    def take(self):
        if self.done():
            last = self.rows[-1][0] if self.rows else 1
            raise InstanceFormatError(f"line {last}: unexpected end of file")
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def scalar(self, key: str) -> str:
        ln, toks = self.take()
        if toks[0] != key or len(toks) != 2:
            raise InstanceFormatError(
                f"line {ln}: expected '{key} <value>', got {' '.join(toks)!r}")
        return toks[1]

    def int_scalar(self, key: str) -> int:
        val = self.scalar(key)
        try:
            return int(val)
        except ValueError:
            raise InstanceFormatError(
                f"line {self.rows[self.pos - 1][0]}: '{key}' needs an "
                f"integer, got {val!r}") from None

    def positive_int(self, key: str) -> int:
        val = self.int_scalar(key)
        if val < 1:
            raise InstanceFormatError(
                f"line {self.rows[self.pos - 1][0]}: {key} must be at least 1")
        return val

    def numbers(self, count: int) -> np.ndarray:
        ln, toks = self.take()
        if len(toks) != count:
            raise InstanceFormatError(
                f"line {ln}: expected {count} numbers, got {len(toks)}")
        try:
            return np.array([float(t) for t in toks])
        except ValueError as exc:
            raise InstanceFormatError(f"line {ln}: malformed number ({exc})") from None

    def key_line(self, key: str):
        ln, toks = self.take()
        if toks != [key]:
            raise InstanceFormatError(
                f"line {ln}: expected section {key!r}, got {' '.join(toks)!r}")

    def matrix(self, key: str, rows: int, cols: int) -> np.ndarray:
        self.key_line(key)
        return np.array([self.numbers(cols) for _ in range(rows)]).reshape(rows, cols)

    def vector(self, key: str, size: int) -> np.ndarray:
        self.key_line(key)
        return self.numbers(size)

    def expect_done(self):
        if not self.done():
            ln, toks = self.rows[self.pos]
            raise InstanceFormatError(
                f"line {ln}: unexpected trailing content {' '.join(toks)!r}")


def _parse_uncertain_q(r: _Reader) -> UncertainLcpQ:
    n = r.positive_int("n")
    h = r.int_scalar("h")
    m = r.matrix("m", n, n)
    qbar = r.vector("qbar", n)
    ubar = r.vector("ubar", n)
    r.expect_done()
    return UncertainLcpQ(m=m, qbar=qbar, ubar=ubar, h=h)


def _parse_uncertain_m(r: _Reader) -> UncertainLcpM:
    n = r.positive_int("n")
    k = r.positive_int("k")
    h = r.int_scalar("h")
    m0 = r.matrix("m0", n, n)
    perts = []
    for i in range(1, k + 1):
        ln, toks = r.take()
        if toks != ["perturbation", str(i)]:
            raise InstanceFormatError(
                f"line {ln}: expected 'perturbation {i}', got {' '.join(toks)!r}")
        perts.append(np.array([r.numbers(n) for _ in range(n)]))
    q = r.vector("q", n)
    r.expect_done()
    return UncertainLcpM(m0=m0, perturbations=perts, q=q, h=h)


def _parse_bool(r: _Reader, key: str) -> bool:
    val = r.scalar(key)
    if val not in ("true", "false"):
        raise InstanceFormatError(
            f"line {r.rows[r.pos - 1][0]}: '{key}' must be true or false")
    return val == "true"


def _parse_market(r: _Reader) -> MarketModel:
    n = r.positive_int("producers")
    m = r.positive_int("constraints")
    k = r.positive_int("markets")
    costs = r.vector("costs", n)
    technology = r.matrix("technology", m, n)
    capacity = r.vector("capacity", m)
    demand_matrix = r.matrix("demand-matrix", k, n)
    sensitivity = r.matrix("sensitivity", k, k)
    demand = r.vector("demand", k)
    halfwidth = r.vector("demand-halfwidth", k)
    nonadj: tuple = ()
    duals = prices = True
    while not r.done():
        key = r.peek_key()
        if key == "nonadjustable-producers":
            ln, toks = r.take()
            try:
                nonadj = tuple(int(t) - 1 for t in toks[1:])  # file is 1-based
            except ValueError:
                raise InstanceFormatError(
                    f"line {ln}: producer indices must be integers") from None
        elif key == "adjustable-duals":
            duals = _parse_bool(r, "adjustable-duals")
        elif key == "adjustable-prices":
            prices = _parse_bool(r, "adjustable-prices")
        else:
            ln, toks = r.rows[r.pos]
            raise InstanceFormatError(
                f"line {ln}: unexpected trailing content {' '.join(toks)!r}")
    return MarketModel(costs=costs, technology=technology, capacity=capacity,
                       demand_matrix=demand_matrix, sensitivity=sensitivity,
                       demand=demand, demand_halfwidth=halfwidth,
                       nonadjustable_producers=nonadj,
                       adjustable_duals=duals, adjustable_prices=prices)


def _parse_solution_q(r: _Reader) -> AffineSolutionQ:
    n = r.positive_int("n")
    rr = r.vector("r", n)
    d = r.matrix("d", n, n)
    r.expect_done()
    return AffineSolutionQ(d=d, r=rr)


def _parse_solution_m(r: _Reader) -> AffineSolutionM:
    n = r.positive_int("n")
    k = r.positive_int("k")
    rr = r.vector("r", n)
    d = r.matrix("d", n, k)
    r.expect_done()
    return AffineSolutionM(d=d, r=rr)


_PARSERS = {
    "uncertain-q": _parse_uncertain_q,
    "uncertain-m": _parse_uncertain_m,
    "market": _parse_market,
    "solution-q": _parse_solution_q,
    "solution-m": _parse_solution_m,
}


def parse_instance(text: str):
    """Parse one instance or solution file into its typed object. A
    well-formed file whose data the typed object rejects (a nan entry,
    say) raises InstanceFormatError too."""
    r = _Reader(text)
    if r.done():
        raise InstanceFormatError("line 1: empty file (expected 'kind <name>')")
    kind = r.scalar("kind")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise InstanceFormatError(
            f"line {r.rows[0][0]}: unknown kind {kind!r} "
            f"(expected one of {', '.join(KINDS)})")
    try:
        return parser(r)
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def serialize_instance(obj) -> str:
    """Render a typed object back to file text (exact round-trip)."""
    lines = []
    if isinstance(obj, UncertainLcpQ):
        lines.append("kind uncertain-q")
        lines.append(f"n {obj.n}")
        lines.append(f"h {obj.h}")
        lines.append("m")
        lines.extend(_fmt_row(row) for row in obj.m)
        lines.append("qbar")
        lines.append(_fmt_row(obj.qbar))
        lines.append("ubar")
        lines.append(_fmt_row(obj.ubar))
    elif isinstance(obj, UncertainLcpM):
        lines.append("kind uncertain-m")
        lines.append(f"n {obj.n}")
        lines.append(f"k {obj.k}")
        lines.append(f"h {obj.h}")
        lines.append("m0")
        lines.extend(_fmt_row(row) for row in obj.m0)
        for i, p in enumerate(obj.perturbations, start=1):
            lines.append(f"perturbation {i}")
            lines.extend(_fmt_row(row) for row in p)
        lines.append("q")
        lines.append(_fmt_row(obj.q))
    elif isinstance(obj, MarketModel):
        lines.append("kind market")
        lines.append(f"producers {obj.n_producers}")
        lines.append(f"constraints {obj.n_duals}")
        lines.append(f"markets {obj.n_prices}")
        lines.append("costs")
        lines.append(_fmt_row(obj.costs))
        lines.append("technology")
        lines.extend(_fmt_row(row) for row in obj.technology)
        lines.append("capacity")
        lines.append(_fmt_row(obj.capacity))
        lines.append("demand-matrix")
        lines.extend(_fmt_row(row) for row in obj.demand_matrix)
        lines.append("sensitivity")
        lines.extend(_fmt_row(row) for row in obj.sensitivity)
        lines.append("demand")
        lines.append(_fmt_row(obj.demand))
        lines.append("demand-halfwidth")
        lines.append(_fmt_row(obj.demand_halfwidth))
        if obj.nonadjustable_producers:
            inline = " ".join(str(i + 1) for i in obj.nonadjustable_producers)
            lines.append(f"nonadjustable-producers {inline}")
        if not obj.adjustable_duals:
            lines.append("adjustable-duals false")
        if not obj.adjustable_prices:
            lines.append("adjustable-prices false")
    elif isinstance(obj, AffineSolutionQ):
        lines.append("kind solution-q")
        lines.append(f"n {obj.r.size}")
        lines.append("r")
        lines.append(_fmt_row(obj.r))
        lines.append("d")
        lines.extend(_fmt_row(row) for row in obj.d)
    elif isinstance(obj, AffineSolutionM):
        lines.append("kind solution-m")
        lines.append(f"n {obj.r.size}")
        lines.append(f"k {obj.d.shape[1]}")
        lines.append("r")
        lines.append(_fmt_row(obj.r))
        lines.append("d")
        lines.extend(_fmt_row(row) for row in obj.d)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"


def _matrix_for_regime(rng: np.random.Generator, n: int, regime: str) -> np.ndarray:
    if regime == "general":
        return rng.uniform(-3.0, 3.0, (n, n)).round(4)
    if regime == "psd":
        g = rng.uniform(-1.5, 1.5, (n, n))
        return (g.T @ g + 0.05 * np.eye(n)).round(4)
    if regime == "pmatrix":
        m = rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(m, 0.0)
        # diagonal dominance with a positive diagonal
        diag = np.abs(m).sum(axis=1) + rng.uniform(0.5, 1.5, n)
        np.fill_diagonal(m, diag)
        return m.round(4)
    raise ValueError(f"unknown regime {regime!r}")


def generate_random(kind: str, n: int, k: int = 1, h: int = 0,
                    seed: int = 0, regime: str = "general") -> str:
    """Reproducible random instance text for the given kind.

    regime shapes the matrix: general (uniform entries), psd
    (Gram-plus-ridge), pmatrix (diagonally dominant positive diagonal;
    not meaningful for market data). The same arguments always produce
    byte-identical text.
    """
    if not 1 <= n <= GENERATOR_SIZE_CAP:
        raise ValueError(f"n must lie in [1, {GENERATOR_SIZE_CAP}]")
    if not 1 <= k <= GENERATOR_SIZE_CAP:
        raise ValueError(f"k must lie in [1, {GENERATOR_SIZE_CAP}]")
    if not 0 <= h <= n:
        raise ValueError(f"h must lie in [0, {n}]")
    rng = np.random.default_rng(seed)

    if kind == "uncertain-q":
        m = _matrix_for_regime(rng, n, regime)
        qbar = rng.uniform(-5.0, 3.0, n).round(4)
        ubar = rng.uniform(0.1, 1.0, n).round(4)
        return serialize_instance(UncertainLcpQ(m=m, qbar=qbar, ubar=ubar, h=h))

    if kind == "uncertain-m":
        m0 = _matrix_for_regime(rng, n, regime)
        perts = [rng.uniform(-0.5, 0.5, (n, n)).round(4) for _ in range(k)]
        q = rng.uniform(-5.0, 3.0, n).round(4)
        return serialize_instance(UncertainLcpM(m0=m0, perturbations=perts,
                                                q=q, h=h))

    if kind == "market":
        if regime == "pmatrix":
            raise ValueError("pmatrix regime does not apply to market data")
        m_rows = 1 + n // 2
        costs = rng.uniform(0.5, 3.0, n).round(4)
        technology = rng.uniform(0.0, 2.0, (m_rows, n)).round(4)
        capacity = rng.uniform(-8.0, -2.0, m_rows).round(4)
        demand_matrix = rng.uniform(0.0, 2.0, (k, n)).round(4)
        if regime == "psd":
            g = rng.uniform(-1.0, 1.0, (k, k))
            sensitivity = (-(g.T @ g) - 0.05 * np.eye(k)).round(4)
        else:
            sensitivity = rng.uniform(-2.0, 2.0, (k, k)).round(4)
        demand = rng.uniform(2.0, 6.0, k).round(4)
        halfwidth = rng.uniform(0.05, 0.5, k).round(4)
        mm = MarketModel(costs=costs, technology=technology, capacity=capacity,
                         demand_matrix=demand_matrix, sensitivity=sensitivity,
                         demand=demand, demand_halfwidth=halfwidth,
                         nonadjustable_producers=tuple(range(h)))
        return serialize_instance(mm)

    raise ValueError(f"unknown kind {kind!r} (instance kinds: uncertain-q, "
                     "uncertain-m, market)")
