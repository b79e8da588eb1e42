"""Padé sweep accuracy gate for a divergence-report benchmark run.

Usage: python .github/scripts/pade_gate.py RESULT_FILE

RESULT_FILE holds the output of `perfbench/run.py --workload
divergence-report`, whose last line is the JSON result.  Exits 1 unless
its ok_ratio is at least 0.99 and its digits_lost at most 10.5.
"""

import json
import sys

metrics = json.loads(open(sys.argv[1]).read().splitlines()[-1])["metrics"]
ok, lost = metrics["ok_ratio"]["value"], metrics["digits_lost"]["value"]
print(f"ok_ratio {ok:.4f}, digits_lost {lost:.4f}")
if not (ok >= 0.99 and lost <= 10.5):
    print("::error::divergence-report needs ok_ratio >= 0.99 and digits_lost <= 10.5")
    sys.exit(1)
