"""Experiment tables and figures with byte-deterministic output.

Everything here is a pure function of its arguments.  A Table holds its
cells column by column; Table.rows is a view derived from them, which
only Table's equality reads.  Error-table rows come with fields in system
order, x and t in the order given and orders sorted; floats are formatted
with repr-exact precision ('.17g'), and files use '\n' endings, so
re-running a command reproduces identical bytes.  CSV metadata lives in
leading '# key: value' comment lines and survives a parse round trip.

The tables evaluate through the package's public evaluators, over whole
arrays: waves.partial_sum over each series' rows in w = tanh(x) and
then in t, and PadeApproximant's call over the t samples, so each cell
has the bits of series.eval(x, t) or approximant(t).  error_table,
divergence_figure and render_figure_svg are quiet (_backend.quiet), so
overflow gives inf or nan silently, as with Python floats.

to_csv writes column by column, and each column's text equals format_cell's
cell by cell.  A float64 array or a column of exact floats is formatted
once per distinct value, keyed on its 64-bit pattern: a key by value would
give -0.0 the text of 0.0, which equals it, and would never find nan, which
equals nothing.  The distinct values are formatted by one % call over
'%.17g\n' repeated once per value, whose text is split at the line
breaks; the SVG's pixel coordinates are formatted the same way with
'%.2f'.  A column of exact ints is written with str once per value
and one of exact strs as it is; any other mix (bool, numpy scalars,
subclasses, Fraction) goes through format_cell, so booleans are refused.
A string cell, column name or metadata pair that from_csv would misread
is refused.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import fixtures
from ._backend import quiet
from .errors import ConfigError
from .pade import pade_fit
from .series import grid
from .solver import solve
from .waves import partial_sum

_FLOAT_FMT = ".17g"
_FLOAT_SPEC = "%" + _FLOAT_FMT


def format_cell(value) -> str:
    """Text of one cell: ints as digits, floats repr-exact ('.17g'), anything else
    through str(); booleans are refused."""
    if isinstance(value, bool):
        raise TypeError("boolean cells are not supported")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def _parse_cell(text: str):
    """The cell that format_cell wrote as `text`: an int, a float ('-0' is
    the float -0.0, as no int is written so) or else the string itself."""
    try:
        value = int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text
    return -0.0 if value == 0 and "-" in text else value


class Table(NamedTuple):
    """Column names, the cells of each column (a sequence of str, int or
    float cells, or a float64 array), and metadata pairs.  Tables compare
    by names, rows and metadata, so an array equals a tuple of its floats."""

    columns: tuple[str, ...]
    cells: tuple
    meta: tuple[tuple[str, str], ...] = ()

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The cells row by row, as Python objects, built on each access."""
        return tuple(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in self.cells)))

    def __eq__(self, other):
        if not isinstance(other, Table):
            return NotImplemented
        same = (self.columns, self.rows, self.meta) == (other.columns, other.rows, other.meta)
        return self is other or same  # rows are new objects, and nan equals no other nan

    def __ne__(self, other):
        return not self == other

    __hash__ = None  # array columns have no hash


def _misread(text: str, first: bool, alone: bool) -> bool:
    """Whether from_csv would misread cell or column name `text`: split it at ',' or a
    line break, take a line it starts (`first`) as metadata, or skip it empty (`alone`)."""
    if not text:
        return alone
    return "," in text or text.splitlines() != [text] or (first and text[0] == "#")


def _formatted(spec: str, values: list) -> list[str]:
    """spec % value for each of `values`, from one % call over the template
    repeated once per value, a line each."""
    return (f"{spec}\n" * len(values) % tuple(values)).split("\n")[:-1]


def _column_texts(name: str, column, first: bool, alone: bool) -> list[str]:
    """format_cell's text of every cell of column `name`; a string cell
    that from_csv would not read back as itself raises ConfigError."""
    kinds = {float} if getattr(column, "dtype", None) == np.float64 else set(map(type, column))
    if kinds == {float}:
        bits, inverse = np.unique(np.asarray(column).view(np.int64), return_inverse=True)
        texts = _formatted(_FLOAT_SPEC, bits.view(np.float64).tolist())
        return np.array(texts, dtype=object)[inverse].tolist()
    if kinds == {int}:
        texts = {cell: str(cell) for cell in set(column)}
        return list(map(texts.__getitem__, column))
    exact = kinds == {str}
    # Each distinct string is checked once, in column order.
    for text in dict.fromkeys(column if exact else (c for c in column if isinstance(c, str))):
        if _misread(text, first, alone) or _parse_cell(text) is not text:
            raise ConfigError(f"column {name!r}: cell {text!r} would not read back as this string")
    return list(column) if exact else [format_cell(cell) for cell in column]


def _read_meta(line: str) -> tuple[str, str] | None:
    """The (key, value) of a '# key: value' line, or None if it has no ': '."""
    key, sep, value = line[1:].strip().partition(": ")
    return (key, value) if sep else None


def _meta_line(key: str, value: str) -> str:
    """The '# key: value' line of a metadata pair; a pair that from_csv
    would not read back as itself, or with whitespace at either end of
    the key or the value, raises ConfigError."""
    line = f"# {key}: {value}"
    padded = any(isinstance(text, str) and text != text.strip() for text in (key, value))
    if padded or line.splitlines() != [line] or _read_meta(line) != (key, value):
        raise ConfigError(f"metadata pair {(key, value)!r} would not read back")
    return line


def to_csv(table: Table) -> str:
    """CSV text of `table`: '# key: value' metadata lines, the header, one
    line per row, each line ending in '\\n'.

    Every cell reads as format_cell writes it; booleans raise TypeError.
    A table without columns, with columns of unequal length, or with a
    column name, string cell or metadata pair that from_csv would not read
    back as itself raises ConfigError.  How columns are written is in the
    module docstring.
    """
    names, width = table.columns, len(table.columns)
    if not width:
        raise ConfigError("a table needs at least one column")
    lengths = [len(column) for column in table.cells]
    if len(lengths) != width or len(set(lengths)) > 1:
        raise ConfigError(f"a header of {width} names over columns of lengths {lengths}")
    lines = [_meta_line(key, value) for key, value in table.meta]
    lines.append(",".join(names))
    texts = []
    for i, (name, column) in enumerate(zip(names, table.cells)):
        if _misread(name, i == 0, width == 1):
            raise ConfigError(f"column name {name!r} would not read back")
        texts.append(_column_texts(name, column, i == 0, width == 1))
    lines.extend(map(",".join, zip(*texts)))
    del texts  # so that the column texts do not live alongside the joined text
    return "\n".join(lines) + "\n"


def from_csv(text: str) -> Table:
    meta = []
    columns: tuple[str, ...] | None = None
    cells: list[list] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            pair = _read_meta(line)
            if pair is None:
                raise ConfigError(f"malformed metadata line: {line!r}")
            meta.append(pair)
        elif columns is None:
            columns = tuple(line.split(","))
            cells = [[] for _ in columns]
        else:
            texts = line.split(",")
            if len(texts) != len(columns):
                raise ConfigError(f"row has {len(texts)} cells but the header has {len(columns)}")
            for column, cell in zip(cells, texts):
                column.append(_parse_cell(cell))
    if columns is None:
        raise ConfigError("CSV text has no header row")
    return Table(columns, tuple(map(tuple, cells)), tuple(meta))


def _fixture_and_orders(fixture: str, orders) -> tuple[fixtures.Fixture, list[int]]:
    """Look up the fixture and return the truncation orders sorted."""
    fx = fixtures.get(fixture)
    if not orders:
        raise ConfigError("at least one truncation order is required")
    if any(n < 1 for n in orders):
        raise ConfigError("truncation orders must be at least 1")
    if len(set(orders)) != len(orders):
        raise ConfigError("truncation orders must be distinct")
    return fx, sorted(orders)


def _require_finite(name: str, values) -> None:
    """A ConfigError naming the first inf or nan among `values`."""
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def _row_values(series, xs) -> np.ndarray:
    """The (order, x) values of the rows of `series` at `xs`: partial_sum
    in w = tanh(x) over rows padded with top zeros, which keep it at +0.0
    until each row's own top, so the bits are TanhPoly.__call__'s."""
    w = np.array([math.tanh(x) for x in xs])
    return partial_sum(grid([p.coeffs for p in series.coeffs]).T[:, :, None], w)


@quiet
def error_table(fixture: str, orders, xs, ts) -> Table:
    """Absolute error of truncated series against the exact waves.

    One row per (field, x, t, order): fields in system order, x and t in
    the order given, orders sorted.  Each row also carries the convergence
    radius at its x and the ratio t/R, so rows outside the disk of
    convergence are easy to filter.  One solve at the largest order
    supplies every truncation, since lower orders are its prefixes, and
    each truncation is one Horner pass over the whole (x, t) grid.
    """
    fx, orders = _fixture_and_orders(fixture, orders)
    _require_finite("x values", xs)
    _require_finite("t values", ts)
    if any(t < 0 for t in ts):
        raise ConfigError("t values must be nonnegative")
    if not xs:
        raise ConfigError("error_table needs at least one x value")
    if not ts:
        raise ConfigError("error_table needs at least one t value")
    solution = solve(fx.system, fx.initial, orders[-1])
    t_row = np.array(ts, dtype=float)
    approx, exact, radius = [], [], []
    for series, wave in zip(solution.series, fx.waves):
        values = _row_values(series, xs)
        approx.append(np.stack([partial_sum(values[: n + 1, :, None], t_row) for n in orders], -1))
        exact.append([[wave(x, t) for t in ts] for x in xs])
        radius.append([wave.convergence_radius(x) for x in xs])
    # Axes (field, x, t, order); each column broadcasts to the full grid.
    approx = np.array(approx)
    exact = np.array(exact)[..., None]
    radius = np.array(radius)[:, :, None, None]
    abs_error = np.abs(approx - exact)
    t_over_radius = t_row[:, None] / radius  # inf where a huge t overflows
    # The field, x, t and order cells are the given objects themselves:
    # each value repeats once per cell of the later axes, and the whole
    # column once per cell of the earlier ones.
    cells = []
    for axis, values in enumerate((fx.system.fields, xs, ts, orders)):
        inner, outer = math.prod(approx.shape[axis + 1 :]), math.prod(approx.shape[:axis])
        cells.append(tuple(chain.from_iterable(map(repeat, values, repeat(inner)))) * outer)
    for values in (approx, exact, abs_error, radius, t_over_radius):
        cells.append(np.broadcast_to(values, approx.shape).ravel())
        cells[-1].flags.writeable = False  # a returned Table is immutable
    meta = (
        ("fixture", fx.name),
        ("orders", " ".join(str(n) for n in orders)),
        ("error", "abs(series - exact wave)"),
    )
    columns = ("field", "x", "t", "order", "approx", "exact")
    columns += ("abs_error", "radius", "t_over_radius")
    return Table(columns, tuple(cells), meta)


@quiet
def divergence_figure(
    fixture: str,
    orders,
    x: float = 0.0,
    pade: tuple[int, int] | None = None,
    t_max: float = 0.5,
    samples: int = 201,
) -> Table:
    """Sample truncated series of the first field along t at fixed x.

    Shows finite-radius divergence directly: every truncation leaves the
    exact curve near the convergence radius, and higher order makes the
    departure more violent, not later.  With `pade` = (L, M), the [L/M]
    rational curve fitted to the same coefficients tracks the exact
    solution past the radius; where the coefficients support only lower
    orders, the fit uses them and a `pade_used` metadata pair names them.
    `samples` points span [0, t_max].
    """
    fx, orders = _fixture_and_orders(fixture, orders)
    needed = orders[-1]
    if pade is not None:
        L, M = pade
        if L < 0 or M < 1:
            raise ConfigError("pade orders must satisfy L >= 0 and M >= 1")
        needed = max(needed, L + M)
    _require_finite("x", (x,))
    _require_finite("t_max", (t_max,))
    if t_max <= 0:
        raise ConfigError("t_max must be positive")
    if samples < 2:
        raise ConfigError("samples must be at least 2")
    series = solve(fx.system, fx.initial, needed).series[0]
    wave = fx.waves[0]
    radius = wave.convergence_radius(x)
    coeff_row = _row_values(series, (x,))[:, 0]

    columns = ["t", "exact"] + [f"T{n}" for n in orders]
    approximant = None
    if pade is not None:
        approximant = pade_fit(coeff_row[: L + M + 1].tolist(), L, M)
        columns.append(f"pade[{L}/{M}]")

    ts = tuple(t_max * i / (samples - 1) for i in range(samples))
    t_row = np.array(ts)
    cells = [ts, tuple(wave(x, t) for t in ts)]
    cells.extend(tuple(partial_sum(coeff_row[: n + 1], t_row).tolist()) for n in orders)
    if approximant is not None:
        cells.append(tuple(approximant(t_row).tolist()))

    meta = [
        ("fixture", fx.name),
        ("field", fx.system.fields[0]),
        ("x", format(x, _FLOAT_FMT)),
        ("radius", format(radius, _FLOAT_FMT)),
        ("orders", " ".join(str(n) for n in orders)),
    ]
    if pade is not None:
        meta.append(("pade", f"{L}/{M}"))
        if approximant.orders != (L, M):
            meta.append(("pade_used", "{}/{}".format(*approximant.orders)))
    return Table(tuple(columns), tuple(cells), tuple(meta))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHES = ("6 3", "2 2", "8 2 2 2", "4 4", "1 3", "10 3")


@quiet
def render_figure_svg(table: Table) -> str:
    """Render a divergence table as a standalone SVG document.

    The exact curve is solid black, each approximation gets its own color
    and dash pattern, and the convergence radius from the table metadata
    appears as a vertical line.  Points leaving the plotted band split
    their polyline instead of being clamped, so divergence shows as a
    curve running off the frame.  The t axis runs from the first t to the
    last, so a table whose first and last t are equal (or that has fewer
    than two rows) raises ConfigError.  The y band is padded around the
    finite values of the exact column, so a nan or inf there is left out
    of the band and of the curve wherever it sits; an exact column
    without a finite value raises ConfigError.
    """
    meta = dict(table.meta)
    width, height = 720.0, 480.0
    left, right, top, bottom = 64.0, 16.0, 16.0, 48.0

    ts, exact = table.cells[0], table.cells[1]
    if len(ts) < 2 or ts[0] == ts[-1]:
        raise ConfigError("a figure needs a t column whose first and last values differ")
    t_lo, t_hi = ts[0], ts[-1]
    # The band spans the finite exact values, wherever a nan or inf sits.
    finite = np.asarray(exact, dtype=float)
    finite = finite[np.isfinite(finite)]
    if not len(finite):
        raise ConfigError("a figure needs a finite value in its exact column")
    y_lo, y_hi = float(finite.min()), float(finite.max())
    pad = 0.6 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    y_lo -= pad
    y_hi += pad

    # Pixel coordinates of a float or, element by element, of a float64 array.
    def sx(t):
        return left + (t - t_lo) / (t_hi - t_lo) * (width - left - right)

    def sy(v):
        return top + (y_hi - v) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]

    def line(x1, y1, x2, y2, stroke="black", style=' stroke-width="1"') -> None:
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}"{style}/>'
        )

    # Axes with a few labeled ticks.
    axis_y = height - bottom
    line(left, axis_y, width - right, axis_y)
    line(left, top, left, axis_y)
    for i in range(6):
        t = t_lo + (t_hi - t_lo) * i / 5
        px = sx(t)
        line(px, axis_y, px, axis_y + 5)
        parts.append(
            f'<text x="{px:.2f}" y="{axis_y + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{t:.2f}</text>'
        )
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4
        py = sy(v)
        line(left - 5, py, left, py)
        parts.append(
            f'<text x="{left - 8:.2f}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 10:.2f}" '
        f'font-size="13" text-anchor="middle">t</text>'
    )

    radius_text = meta.get("radius")
    if radius_text is not None:
        radius = float(radius_text)
        if t_lo <= radius <= t_hi:
            px = sx(radius)
            line(px, top, px, axis_y, "#888888", ' stroke-width="1" stroke-dasharray="3 3"')
            parts.append(
                f'<text x="{px + 4:.2f}" y="{top + 14:.2f}" font-size="12" '
                f'fill="#555555">R = {radius:.4f}</text>'
            )

    curves = list(table.columns[1:])
    styles = [("#000000", "")] + [
        (_PALETTE[i % len(_PALETTE)], f' stroke-dasharray="{_DASHES[i % len(_DASHES)]}"')
        for i in range(len(curves) - 1)
    ]
    # Curves are mapped as whole arrays, quietly, as Python floats overflow.
    # Each sample's x coordinate is formatted once, for every curve; each
    # run of two or more points inside the band is one polyline.
    x_texts = _formatted("%.2f,", sx(np.asarray(ts, dtype=float)).tolist())
    for values, (stroke, dash_attr) in zip(table.cells[1:], styles):
        v = np.asarray(values, dtype=float)
        py = sy(v)
        inside = (y_lo <= v) & (v <= y_hi)
        # Where the mask changes, with False beyond both ends: each
        # in-band run's start, then its stop.
        edges = np.flatnonzero(np.diff(inside, prepend=False, append=False)).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            if stop - start > 1:
                y_texts = _formatted("%.2f", py[start:stop].tolist())
                points = " ".join(map(str.__add__, x_texts[start:stop], y_texts))
                parts.append(
                    f'<polyline points="{points}" fill="none" '
                    f'stroke="{stroke}" stroke-width="1.5"{dash_attr}/>'
                )

    # Legend, top left inside the frame.
    lx, ly = left + 12.0, top + 12.0
    box_h = 18.0 * len(curves) + 8.0
    parts.append(
        f'<rect x="{lx - 6:.2f}" y="{ly - 6:.2f}" width="150" '
        f'height="{box_h:.2f}" fill="white" stroke="#cccccc"/>'
    )
    for ci, (name, (stroke, dash_attr)) in enumerate(zip(curves, styles)):
        yy = ly + 18.0 * ci + 6.0
        line(lx, yy, lx + 28, yy, stroke, f' stroke-width="1.5"{dash_attr}')
        parts.append(
            f'<text x="{lx + 34:.2f}" y="{yy + 4:.2f}" font-size="12">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
