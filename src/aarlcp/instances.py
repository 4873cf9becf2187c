"""Plain-text instance and solution files.

The format is line oriented: `#` starts a comment, blank lines are
skipped, the first line names the kind, integer headers are `key value`
lines, and each section key stands alone on its line followed by rows of
whitespace-separated decimals. Indices inside files are 1-based.
Serialization writes each float as its shortest round-trip text, so
parsing gives back the same floats bit for bit.

One table, _LAYOUTS, gives each kind's integer headers and its sections
in file order; parse_instance reads by walking it and serialize_instance
writes by walking it. uncertain-m's `perturbation i` blocks and the
market's optional trailing lines (nonadjustable-producers,
adjustable-duals, adjustable-prices, in any order) are the only special
cases.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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
    "GENERATOR_KINDS",
    "REGIMES",
]


class _Layout(NamedTuple):
    """One kind's file layout.

    cls: the typed class the file parses into
    headers: the integer header keys, in file order. h (the count of
        here-and-now coordinates) is also a field of cls and may be 0;
        every other header is a size of at least 1.
    sections: (field, sizes) in file order. field names the attribute
        of cls, and its file key is field with '_' written '-'. One size
        is a vector on one line, two a matrix of that many rows, and
        three (uncertain-m's perturbations) a list of matrices, each
        under its own 'perturbation i' line. On writing, a header takes
        its value from the first section it sizes.
    """

    cls: type
    headers: tuple
    sections: tuple


_LAYOUTS = {
    "uncertain-q": _Layout(UncertainLcpQ, ("n", "h"), (
        ("m", ("n", "n")), ("qbar", ("n",)), ("ubar", ("n",)))),
    "uncertain-m": _Layout(UncertainLcpM, ("n", "k", "h"), (
        ("m0", ("n", "n")), ("perturbations", ("k", "n", "n")),
        ("q", ("n",)))),
    "market": _Layout(MarketModel, ("producers", "constraints", "markets"), (
        ("costs", ("producers",)),
        ("technology", ("constraints", "producers")),
        ("capacity", ("constraints",)),
        ("demand_matrix", ("markets", "producers")),
        ("sensitivity", ("markets", "markets")),
        ("demand", ("markets",)),
        ("demand_halfwidth", ("markets",)))),
    "solution-q": _Layout(AffineSolutionQ, ("n",), (
        ("r", ("n",)), ("d", ("n", "n")))),
    "solution-m": _Layout(AffineSolutionM, ("n", "k"), (
        ("r", ("n",)), ("d", ("n", "k")))),
}

KINDS = tuple(_LAYOUTS)

# the kinds and matrix regimes generate_random draws
GENERATOR_KINDS = ("uncertain-q", "uncertain-m", "market")
REGIMES = ("general", "psd", "pmatrix")

_MARKET_OPTIONS = ("nonadjustable-producers", "adjustable-duals",
                   "adjustable-prices")

GENERATOR_SIZE_CAP = 50


class InstanceFormatError(ValueError):
    """Malformed instance text; the message carries the line number."""


# the ".0" that repr gives an integral float, dropped so that 1.0 and
# -10.0 are written 1 and -10
_INTEGRAL_TAIL = re.compile(r"\.0(?= |$)")


def _rows(a: np.ndarray) -> list:
    """The lines of a matrix, one per row, or the one line of a vector,
    each entry the shortest text that parses back to the same float
    (repr)."""
    rows = [a.tolist()] if a.ndim == 1 else a.tolist()
    return [_INTEGRAL_TAIL.sub("", " ".join(map(repr, r))) for r in rows]


class _Reader:
    """Sequential access to the meaningful lines of the text."""

    def __init__(self, text: str):
        self.rows = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            toks = raw.split("#", 1)[0].split()
            if toks:
                self.rows.append((ln, toks))
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

    def numbers(self, rows: int, cols: int) -> list:
        """The next `rows` lines as lists of `cols` floats."""
        chunk = self.rows[self.pos:self.pos + rows]
        self.pos += len(chunk)
        out = []
        for ln, toks in chunk:
            if len(toks) != cols:
                raise InstanceFormatError(
                    f"line {ln}: expected {cols} numbers, got {len(toks)}")
            try:
                out.append(list(map(float, toks)))
            except ValueError as exc:
                raise InstanceFormatError(
                    f"line {ln}: malformed number ({exc})") from None
        if len(chunk) < rows:
            self.take()  # raises: the file ended inside the section
        return out

    def key_line(self, key: str):
        ln, toks = self.take()
        if toks != [key]:
            raise InstanceFormatError(
                f"line {ln}: expected section {key!r}, got {' '.join(toks)!r}")

    def expect_done(self):
        if not self.done():
            ln, toks = self.rows[self.pos]
            raise InstanceFormatError(
                f"line {ln}: unexpected trailing content {' '.join(toks)!r}")


def _read_market_options(r: _Reader) -> dict:
    """The market's optional trailing lines, as MarketModel fields."""
    fields = {}
    while (key := r.peek_key()) in _MARKET_OPTIONS:
        if key == "nonadjustable-producers":
            ln, toks = r.take()
            try:  # the file is 1-based
                fields["nonadjustable_producers"] = tuple(
                    int(t) - 1 for t in toks[1:])
            except ValueError:
                raise InstanceFormatError(
                    f"line {ln}: producer indices must be integers") from None
        else:
            val = r.scalar(key)
            if val not in ("true", "false"):
                raise InstanceFormatError(
                    f"line {r.rows[r.pos - 1][0]}: '{key}' must be true or false")
            fields[key.replace("-", "_")] = val == "true"
    return fields


def _market_option_lines(mm: MarketModel) -> list:
    lines = []
    if mm.nonadjustable_producers:
        inline = " ".join(str(i + 1) for i in mm.nonadjustable_producers)
        lines.append(f"nonadjustable-producers {inline}")
    if not mm.adjustable_duals:
        lines.append("adjustable-duals false")
    if not mm.adjustable_prices:
        lines.append("adjustable-prices false")
    return lines


def parse_instance(text: str):
    """Parse one instance or solution file into its typed object. A
    well-formed file whose data the typed object rejects (a nan entry,
    say) raises InstanceFormatError too."""
    r = _Reader(text)
    if r.done():
        raise InstanceFormatError("line 1: empty file (expected 'kind <name>')")
    kind = r.scalar("kind")
    layout = _LAYOUTS.get(kind)
    if layout is None:
        raise InstanceFormatError(
            f"line {r.rows[0][0]}: unknown kind {kind!r} "
            f"(expected one of {', '.join(KINDS)})")
    size = {key: r.int_scalar(key) if key == "h" else r.positive_int(key)
            for key in layout.headers}
    fields = {"h": size["h"]} if "h" in size else {}
    for field, sizes in layout.sections:
        if len(sizes) == 3:
            count, rows, cols = (size[s] for s in sizes)
            blocks = []
            for i in range(1, count + 1):
                ln, toks = r.take()
                if toks != ["perturbation", str(i)]:
                    raise InstanceFormatError(
                        f"line {ln}: expected 'perturbation {i}', "
                        f"got {' '.join(toks)!r}")
                blocks.append(r.numbers(rows, cols))
            fields[field] = blocks
        else:
            r.key_line(field.replace("_", "-"))
            if len(sizes) == 2:
                fields[field] = r.numbers(size[sizes[0]], size[sizes[1]])
            else:
                fields[field] = r.numbers(1, size[sizes[0]])[0]
    if kind == "market":
        fields.update(_read_market_options(r))
    r.expect_done()
    try:
        return layout.cls(**fields)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def serialize_instance(obj) -> str:
    """Render a typed object back to file text (exact round-trip)."""
    for kind, layout in _LAYOUTS.items():
        if isinstance(obj, layout.cls):
            break
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    values = [getattr(obj, field) for field, _ in layout.sections]
    size = {"h": getattr(obj, "h", None)}
    for (_, sizes), value in zip(layout.sections, values):
        shape = (len(value), *value[0].shape) if len(sizes) == 3 else value.shape
        for key, extent in zip(sizes, shape):
            size.setdefault(key, extent)
    lines = [f"kind {kind}"]
    lines += [f"{key} {size[key]}" for key in layout.headers]
    for (field, sizes), value in zip(layout.sections, values):
        if len(sizes) == 3:
            for i, block in enumerate(value, start=1):
                lines.append(f"perturbation {i}")
                lines += _rows(block)
        else:
            lines.append(field.replace("_", "-"))
            lines += _rows(value)
    if kind == "market":
        lines += _market_option_lines(obj)
    return "\n".join(lines) + "\n"


def _matrix_for_regime(rng: np.random.Generator, n: int, regime: str) -> np.ndarray:
    if regime == "general":
        return rng.uniform(-3.0, 3.0, (n, n)).round(4)
    if regime == "psd":
        g = rng.uniform(-1.5, 1.5, (n, n))
        return (g.T @ g + 0.05 * np.eye(n)).round(4)
    m = rng.uniform(-1.0, 1.0, (n, n))  # pmatrix
    np.fill_diagonal(m, 0.0)
    # diagonal dominance with a positive diagonal
    diag = np.abs(m).sum(axis=1) + rng.uniform(0.5, 1.5, n)
    np.fill_diagonal(m, diag)
    return m.round(4)


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
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
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

    raise ValueError(f"unknown kind {kind!r} "
                     f"(instance kinds: {', '.join(GENERATOR_KINDS)})")
