"""Command-line interface.

Subcommands:

    solve    run the recurrence on a system file or builtin fixture
    table    absolute-error grid against the exact waves, as CSV
    figure   sample truncations along t at fixed x, as CSV and SVG
    radius   convergence radius of the builtin kinks per x

Exit codes: 0 on success, 2 for configuration or parse problems
(ConfigError, ParseError or an unreadable file), 3 for any other
TaylorPdeError (degenerate fits, insufficient data).  Every CSV goes
through report.to_csv, so outputs are byte-deterministic.

Note for values starting with a minus sign: write `--x=-15,-10` in the
attached form, or the shell-agnostic argument parser will read `-15,-10`
as a flag.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dsl import parse_system
from .errors import ConfigError, ParseError, TaylorPdeError
from .fixtures import FIXTURES
from .fixtures import get as get_fixture
from .report import Table, divergence_figure, error_table, render_figure_svg, to_csv
from .series import TanhPoly
from .solver import residual, solve
from .waves import builtin_waves


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    return values


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None
    return values


def _parse_trange(text: str) -> tuple[float, ...]:
    """Either an explicit list `0.1,0.2` or a range `start:stop:step`."""
    if ":" not in text:
        return _parse_floats(text, "--t")
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--t range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--t range must be numeric, got {text!r}") from None
    if step <= 0 or stop < start:
        raise ConfigError("--t range needs step > 0 and stop >= start")
    # Floor, so the range never runs past stop; the tolerance keeps a stop
    # that lands on the grid despite rounding (0.1:0.5:0.1 gives 5 values).
    count = int((stop - start) / step + 1e-9) + 1
    return tuple(start + i * step for i in range(count))


def _parse_init(text: str) -> tuple[TanhPoly, ...]:
    """Initial profiles: fields split by ';', tanh-poly coefficients by ','.

    `0,1;1,-0.5` means field 1 starts at tanh(x) and field 2 at
    1 - 0.5*tanh(x).
    """
    profiles = []
    for chunk in text.split(";"):
        try:
            profiles.append(TanhPoly([float(part) for part in chunk.split(",")]))
        except ValueError:
            raise ConfigError(
                f"--init expects ';'-separated lists of comma-separated numbers, got {text!r}"
            ) from None
    return tuple(profiles)


def _load_system(args):
    if args.fixture is not None:
        fx = get_fixture(args.fixture)
        initial = _parse_init(args.init) if args.init else fx.initial
        return fx.system, initial
    if args.system is None:
        raise ConfigError("provide either --system FILE or --fixture NAME")
    if args.init is None:
        raise ConfigError("--init is required with --system")
    text = Path(args.system).read_text()
    return parse_system(text), _parse_init(args.init)


def _cmd_solve(args) -> int:
    if args.order < 1:
        raise ConfigError("--order must be at least 1")
    system, initial = _load_system(args)
    solution = solve(system, initial, args.order)
    if args.print_coeffs:
        width = max(p.degree for s in solution.series for p in s.coeffs) + 1
        columns = ("order", "field") + tuple(f"c{d}" for d in range(width))
        rows = []
        for j in range(args.order + 1):
            for name, series in zip(system.fields, solution.series):
                cells = series.coeffs[j].coeffs
                rows.append((j, name, *cells, *(0.0,) * (width - len(cells))))
        print(to_csv(Table(columns, tuple(rows))), end="")
    else:
        print(f"fields: {', '.join(system.fields)}")
        print(f"order: {args.order}")
        print(f"residual: {residual(system, solution):.17g}")
    return 0


def _cmd_table(args) -> int:
    table = error_table(
        args.fixture,
        _parse_ints(args.orders, "--orders"),
        _parse_floats(args.x, "--x"),
        _parse_trange(args.t),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "error_table.csv"
    path.write_text(to_csv(table))
    print(path)
    return 0


def _cmd_figure(args) -> int:
    pade = None
    if args.pade is not None:
        orders = _parse_ints(args.pade, "--pade")
        if len(orders) != 2:
            raise ConfigError(f"--pade expects L,M, got {args.pade!r}")
        pade = (orders[0], orders[1])
    table = divergence_figure(
        args.fixture,
        _parse_ints(args.orders, "--orders"),
        x=args.x,
        pade=pade,
        t_max=args.t_max,
        samples=args.samples,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "divergence.csv"
    csv_path.write_text(to_csv(table))
    print(csv_path)
    if args.svg:
        svg_path = out_dir / "divergence.svg"
        svg_path.write_text(render_figure_svg(table))
        print(svg_path)
    return 0


def _cmd_radius(args) -> int:
    wave = builtin_waves()[0]
    rows = tuple((x, wave.convergence_radius(x)) for x in _parse_floats(args.x, "--x"))
    print(to_csv(Table(("x", "radius"), rows)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taylorpde",
        description=(
            "Truncated time-power-series solutions of evolution systems over "
            "tanh polynomials, their finite convergence radius, and rational "
            "acceleration past it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the coefficient recurrence")
    p_solve.add_argument("--system", help="path to a system definition file")
    p_solve.add_argument("--fixture", choices=tuple(FIXTURES), help="builtin system")
    p_solve.add_argument(
        "--init",
        help="initial tanh-poly profiles, fields split by ';', coefficients by ','",
    )
    p_solve.add_argument("--order", type=int, required=True, help="truncation order")
    p_solve.add_argument(
        "--print-coeffs",
        action="store_true",
        help="print all coefficients as CSV instead of a summary",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_table = sub.add_parser("table", help="error grid against exact waves")
    p_table.add_argument("--fixture", choices=tuple(FIXTURES), required=True)
    p_table.add_argument("--orders", required=True, help="comma-separated orders")
    p_table.add_argument("--x", required=True, help="comma-separated x values")
    p_table.add_argument("--t", required=True, help="t list or start:stop:step")
    p_table.add_argument("--out", required=True, help="output directory")
    p_table.set_defaults(func=_cmd_table)

    p_figure = sub.add_parser("figure", help="divergence samples along t")
    p_figure.add_argument("--fixture", choices=tuple(FIXTURES), required=True)
    p_figure.add_argument("--x", type=float, default=0.0, help="slice position")
    p_figure.add_argument("--orders", default="5,15", help="comma-separated orders")
    p_figure.add_argument("--pade", help="add an L,M rational curve")
    p_figure.add_argument("--t-max", type=float, default=0.5, dest="t_max")
    p_figure.add_argument("--samples", type=int, default=201)
    p_figure.add_argument("--out", required=True, help="output directory")
    p_figure.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p_figure.set_defaults(func=_cmd_figure)

    p_radius = sub.add_parser("radius", help="convergence radius per x")
    p_radius.add_argument("--x", required=True, help="comma-separated x values")
    p_radius.set_defaults(func=_cmd_radius)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TaylorPdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
