"""Experiment tables and figures with byte-deterministic output.

Everything here is a pure function of its arguments: error-table rows
come with fields in system order, x and t in the order given and orders
sorted; floats are formatted with repr-exact precision ('.17g'), and files
use '\n' endings, so re-running a command reproduces identical bytes.
CSV metadata lives in leading '# key: value' comment lines and survives a
parse round trip.

to_csv writes column by column, and each column's text equals format_cell's
cell by cell.  A column of exact floats is formatted once per distinct
value, keyed on its 64-bit pattern: a key by value would give -0.0 the
text of 0.0, which equals it, and would never find nan, which equals
nothing.  A column of exact ints is written with str and one of exact
strs as it is; any other mix (bool, numpy scalars, subclasses, Fraction)
goes through format_cell, so booleans are still refused.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import fixtures
from ._backend import quiet
from .errors import ConfigError
from .pade import pade_fit
from .solver import solve

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
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class Table(NamedTuple):
    """Columns, rows of (str | int | float) cells, and metadata pairs."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: tuple[tuple[str, str], ...] = ()


def _column_texts(column: tuple) -> list[str]:
    """format_cell's text of every cell of one column."""
    kinds = set(map(type, column))
    if kinds == {float}:
        bits, inverse = np.unique(np.array(column).view(np.int64), return_inverse=True)
        texts = list(map(_FLOAT_SPEC.__mod__, bits.view(np.float64).tolist()))
        return np.array(texts, dtype=object)[inverse].tolist()
    if kinds == {int}:
        return list(map(str, column))
    if kinds == {str}:
        return list(column)
    return [format_cell(cell) for cell in column]


def to_csv(table: Table) -> str:
    """CSV text of `table`: '# key: value' metadata lines, the header, one
    line per row, each line ending in '\\n'.

    Every cell reads as format_cell writes it; booleans raise TypeError.
    A table without columns, or a row whose cell count differs from the
    header's, raises ConfigError, as from_csv would on reading it back.
    How columns are written is in the module docstring.
    """
    width = len(table.columns)
    if not width:
        raise ConfigError("a table needs at least one column")
    for row in table.rows:
        if len(row) != width:
            raise ConfigError(f"row has {len(row)} cells but the header has {width}")
    lines = [f"# {key}: {value}" for key, value in table.meta]
    lines.append(",".join(table.columns))
    texts = [_column_texts(column) for column in zip(*table.rows)]
    lines.extend(map(",".join, zip(*texts)))
    del texts  # so that the column texts do not live alongside the joined text
    return "\n".join(lines) + "\n"


def from_csv(text: str) -> Table:
    meta = []
    columns: tuple[str, ...] | None = None
    rows = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition(": ")
            if not sep:
                raise ConfigError(f"malformed metadata line: {line!r}")
            meta.append((key, value))
        elif columns is None:
            columns = tuple(line.split(","))
        else:
            cells = tuple(_parse_cell(cell) for cell in line.split(","))
            if len(cells) != len(columns):
                raise ConfigError(
                    f"row has {len(cells)} cells but the header has {len(columns)}"
                )
            rows.append(cells)
    if columns is None:
        raise ConfigError("CSV text has no header row")
    return Table(columns, tuple(rows), tuple(meta))


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


@quiet
def _horner(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """partial_sum of each row of `coeffs` (..., n+1) at each of `ts`,
    shape (..., len(ts)).

    The same IEEE multiply and add per element as partial_sum's loop, from
    the top coefficient down and starting from 0.0; numpy does not fuse
    them, so the bits are the same.  Overflow gives inf or nan silently.
    """
    acc = np.zeros(coeffs.shape[:-1] + ts.shape)
    for j in range(coeffs.shape[-1] - 1, -1, -1):
        acc = acc * ts + coeffs[..., j, None]
    return acc


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
        coeffs = np.array([[p(x) for p in series.coeffs] for x in xs])
        approx.append(np.stack([_horner(coeffs[:, : n + 1], t_row) for n in orders], axis=-1))
        exact.append([[wave(x, t) for t in ts] for x in xs])
        radius.append([wave.convergence_radius(x) for x in xs])
    # Axes (field, x, t, order); each column broadcasts to the full grid.
    approx = np.array(approx)
    exact = np.array(exact)[..., None]
    radius = np.array(radius)[:, :, None, None]
    abs_error = np.abs(approx - exact)
    with np.errstate(over="ignore"):
        # A huge t over a radius below 1 is inf, silently, as in Python.
        t_over_radius = t_row[:, None] / radius
    shape = approx.shape

    def column(values: np.ndarray) -> list:
        # Broadcast as Python objects, so a value repeated along the grid
        # is one object in every row that holds it.
        return np.broadcast_to(values.astype(object), shape).ravel().tolist()

    def objects(values, axis: int) -> list:
        """The given objects themselves, along one axis of the grid."""
        along = [1] * len(shape)
        along[axis] = -1
        return column(np.array(values, dtype=object).reshape(along))

    rows = zip(
        objects(fx.system.fields, 0),
        objects(xs, 1),
        objects(ts, 2),
        objects(orders, 3),
        column(approx),
        column(exact),
        column(abs_error),
        column(radius),
        column(t_over_radius),
    )
    meta = (
        ("fixture", fx.name),
        ("orders", " ".join(str(n) for n in orders)),
        ("error", "abs(series - exact wave)"),
    )
    columns = (
        "field",
        "x",
        "t",
        "order",
        "approx",
        "exact",
        "abs_error",
        "radius",
        "t_over_radius",
    )
    return Table(columns, tuple(rows), meta)


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
    solution past the radius.  `samples` points span [0, t_max].
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
    coeffs = [p(x) for p in series.coeffs]

    columns = ["t", "exact"] + [f"T{n}" for n in orders]
    approximant = None
    if pade is not None:
        approximant = pade_fit(coeffs[: L + M + 1], L, M)
        columns.append(f"pade[{L}/{M}]")

    ts = [t_max * i / (samples - 1) for i in range(samples)]
    t_row, coeff_row = np.array(ts), np.array(coeffs)
    cells = [ts, [wave(x, t) for t in ts]]
    cells.extend(_horner(coeff_row[: n + 1], t_row).tolist() for n in orders)
    if approximant is not None:
        cells.append([approximant(t) for t in ts])
    rows = zip(*cells)

    meta = [
        ("fixture", fx.name),
        ("field", fx.system.fields[0]),
        ("x", format(x, _FLOAT_FMT)),
        ("radius", format(radius, _FLOAT_FMT)),
        ("orders", " ".join(str(n) for n in orders)),
    ]
    if pade is not None:
        meta.append(("pade", f"{L}/{M}"))
    return Table(tuple(columns), tuple(rows), tuple(meta))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHES = ("6 3", "2 2", "8 2 2 2", "4 4", "1 3", "10 3")


def render_figure_svg(table: Table) -> str:
    """Render a divergence table as a standalone SVG document.

    The exact curve is solid black, each approximation gets its own color
    and dash pattern, and the convergence radius from the table metadata
    appears as a vertical line.  Points leaving the plotted band split
    their polyline instead of being clamped, so divergence shows as a
    curve running off the frame.
    """
    meta = dict(table.meta)
    width, height = 720.0, 480.0
    left, right, top, bottom = 64.0, 16.0, 16.0, 48.0

    ts = [row[0] for row in table.rows]
    exact = [row[1] for row in table.rows]
    t_lo, t_hi = ts[0], ts[-1]
    y_lo, y_hi = min(exact), max(exact)
    pad = 0.6 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    y_lo -= pad
    y_hi += pad

    def sx(t: float) -> float:
        return left + (t - t_lo) / (t_hi - t_lo) * (width - left - right)

    def sy(v: float) -> float:
        return top + (y_hi - v) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]

    # Axes with a few labeled ticks.
    axis_y = height - bottom
    parts.append(
        f'<line x1="{left:.2f}" y1="{axis_y:.2f}" x2="{width - right:.2f}" '
        f'y2="{axis_y:.2f}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{axis_y:.2f}" stroke="black" stroke-width="1"/>'
    )
    for i in range(6):
        t = t_lo + (t_hi - t_lo) * i / 5
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{axis_y:.2f}" x2="{px:.2f}" '
            f'y2="{axis_y + 5:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{axis_y + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{t:.2f}</text>'
        )
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4
        py = sy(v)
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{py:.2f}" x2="{left:.2f}" '
            f'y2="{py:.2f}" stroke="black" stroke-width="1"/>'
        )
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
            parts.append(
                f'<line x1="{px:.2f}" y1="{top:.2f}" x2="{px:.2f}" '
                f'y2="{axis_y:.2f}" stroke="#888888" stroke-width="1" '
                f'stroke-dasharray="3 3"/>'
            )
            parts.append(
                f'<text x="{px + 4:.2f}" y="{top + 14:.2f}" font-size="12" '
                f'fill="#555555">R = {radius:.4f}</text>'
            )

    def polylines(values: list[float], stroke: str, dash_attr: str) -> None:
        run: list[str] = []
        segments = []
        for t, v in zip(ts, values):
            if y_lo <= v <= y_hi:
                run.append(f"{sx(t):.2f},{sy(v):.2f}")
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) < 2:
                continue
            parts.append(
                f'<polyline points="{" ".join(seg)}" fill="none" '
                f'stroke="{stroke}" stroke-width="1.5"{dash_attr}/>'
            )

    curves = list(table.columns[1:])
    styles = [("#000000", "")] + [
        (_PALETTE[i % len(_PALETTE)], f' stroke-dasharray="{_DASHES[i % len(_DASHES)]}"')
        for i in range(len(curves) - 1)
    ]
    for ci, (stroke, dash_attr) in enumerate(styles):
        polylines([row[1 + ci] for row in table.rows], stroke, dash_attr)

    # Legend, top left inside the frame.
    lx, ly = left + 12.0, top + 12.0
    box_h = 18.0 * len(curves) + 8.0
    parts.append(
        f'<rect x="{lx - 6:.2f}" y="{ly - 6:.2f}" width="150" '
        f'height="{box_h:.2f}" fill="white" stroke="#cccccc"/>'
    )
    for ci, (name, (stroke, dash_attr)) in enumerate(zip(curves, styles)):
        yy = ly + 18.0 * ci + 6.0
        parts.append(
            f'<line x1="{lx:.2f}" y1="{yy:.2f}" x2="{lx + 28:.2f}" y2="{yy:.2f}" '
            f'stroke="{stroke}" stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{lx + 34:.2f}" y="{yy + 4:.2f}" font-size="12">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
