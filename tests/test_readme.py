"""The README's Quick start block, run line by line.

Every expression line whose comment opens with a value must print that
value: exactly, or up to the "..." of a value written as a prefix.  The
block's other claims (the tanh and pi/11 comparisons) are checked after
it has run.
"""

import ast
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# A leading number or one-number tuple, with a "..." if it is a prefix.
_NUMBER = r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?"
_VALUE = re.compile(rf"(\({_NUMBER},\)|{_NUMBER})(\.\.\.)?")


def _quick_start() -> list[str]:
    text = README.read_text()
    block = text.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


def _is_expression(code: str) -> bool:
    try:
        ast.parse(code, mode="eval")
    except SyntaxError:
        return False
    return True


def test_quick_start_prints_the_values_its_comments_state():
    namespace: dict = {}
    checked = []
    for line in _quick_start():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        value = _VALUE.match(comment.strip())
        if value is None or not _is_expression(code):
            exec(code, namespace)
            continue
        printed = repr(eval(code, namespace))
        text, prefix = value.groups()
        if prefix:
            assert printed.startswith(text), (code, printed, text)
        else:
            assert printed == text, (code, printed, text)
        checked.append(code)
    assert len(checked) == 6  # eval, residual, two radii, the Pade value and pole

    # (0.42189900494148397,), tanh(0.45) to 3e-10
    (u,) = namespace["solution"].eval(1.0, 0.1)
    assert f"{abs(u - math.tanh(0.45)):.0e}" == "3e-10"
    # 0.28559933214452665 = pi/11
    assert namespace["wave"].convergence_radius(0.0) == math.pi / 11
    # -0.99185971..., 8 digits of tanh(-2.75)
    assert f"{abs(namespace['ap'](0.5) / math.tanh(-2.75) - 1):.0e}" == "1e-08"
