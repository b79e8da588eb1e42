"""Backend equivalence: the compiled kernels must match the pure ones
bitwise, because tests and cached results assume backend choice never
changes a single float.  Known-value checks run on every kernel that is
available, so the pure kernels are checked without the extension too."""

import struct
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taylorpde import _backend, _kernels_py

try:
    from taylorpde import _kernels as _compiled
except ImportError:
    _compiled = None

needs_compiled = pytest.mark.skipif(
    _compiled is None, reason="compiled kernel extension not built"
)
KERNELS = [
    pytest.param(_kernels_py, id="pure"),
    pytest.param(_compiled, id="compiled", marks=needs_compiled),
]

_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_rows = st.lists(st.lists(_floats, min_size=1, max_size=6), min_size=1, max_size=6)


@needs_compiled
def test_backend_prefers_compiled_when_available():
    assert _backend.BACKEND == "compiled"
    assert _backend.conv is _compiled.conv


@pytest.mark.parametrize("kernels", KERNELS)
def test_conv_known_product(kernels):
    assert kernels.conv([1.0, 2.0], [3.0, 4.0]) == [3.0, 10.0, 8.0]


@pytest.mark.parametrize("kernels", KERNELS)
def test_conv_identity(kernels):
    assert kernels.conv([5.0, -1.0, 2.0], [1.0]) == [5.0, -1.0, 2.0]


@needs_compiled
@given(st.lists(_floats, min_size=1, max_size=8), st.lists(_floats, min_size=1, max_size=8))
def test_conv_backends_agree_bitwise(a, b):
    assert _compiled.conv(a, b) == _kernels_py.conv(a, b)


@needs_compiled
@given(_rows, st.data())
def test_series_product_backends_agree_bitwise(rows, data):
    order = len(rows) - 1
    start = data.draw(st.integers(0, order), label="start")
    assert _compiled.series_product(
        rows, rows, order, start=start
    ) == _kernels_py.series_product(rows, rows, order, start=start)


@given(st.data())
def test_series_product_start_returns_the_tail_bitwise(data):
    # Row-only calls (start=order) are how the solver advances one order at
    # a time, so rows must not depend on which other rows were requested.
    a = data.draw(_rows, label="a")
    row = st.lists(_floats, min_size=1, max_size=6)
    b = data.draw(st.lists(row, min_size=len(a), max_size=len(a)), label="b")
    order = len(a) - 1
    start = data.draw(st.integers(0, order), label="start")
    tail = _kernels_py.series_product(a, b, order, start=start)
    assert len(tail) == order + 1 - start
    full = _kernels_py.series_product(a, b, order)[start:]
    assert [[struct.pack("<d", c) for c in row] for row in tail] == [
        [struct.pack("<d", c) for c in row] for row in full
    ]


@pytest.mark.parametrize("kernels", KERNELS)
def test_series_product_known_square(kernels):
    rows = [[1.0], [1.0]]
    assert kernels.series_product(rows, rows, 1) == [[1.0], [2.0]]


def test_pure_fallback_when_extension_unavailable():
    # Block the extension in a child interpreter and confirm the package
    # still imports, reports the pure backend, and solves correctly.
    code = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'taylorpde._kernels':\n"
        "            raise ImportError('blocked for test')\n"
        "        return None\n"
        "sys.meta_path.insert(0, Block())\n"
        "import taylorpde\n"
        "fx = taylorpde.FIXTURES['riccati']\n"
        "sol = taylorpde.solve(fx.system, fx.initial, 3)\n"
        "print(taylorpde.BACKEND)\n"
        "print(taylorpde.residual(fx.system, sol))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["pure", "0.0"]
