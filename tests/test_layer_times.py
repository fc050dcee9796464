"""scripts/layer_times.py prints every row of its layer table in a reduced pass."""

import math
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent


def test_reduced_pass_prints_every_layer():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_times.py"), "--sizes", "3",
         "--stacks", "1,4", "--repeat", "1", "--quick"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
    assert done.returncode == 0, done.stderr
    labels = [line.split("  ")[0] for line in done.stdout.splitlines()[1:]]
    assert labels == ["layer", "n=3 observe m=1", "n=3 observe m=4", "layer",
                      "n=3 holonomy 256", "n=3 holonomy 4", "layer", "n=3 finder iterate",
                      "layer", "n=3 finder", "layer", "n=3 seed", "layer", "n=3 point"]
    for line in done.stdout.splitlines():
        if line.startswith("n=3 "):
            assert all(math.isfinite(float(x)) for x in line[22:].split())
    # the holonomy rows count the walk's observation calls and those of one sample: the
    # 256-step grid in two stacks; the 4-step grid, then one stack per refinement level
    rows = {line[:22].strip(): line[22:].split() for line in done.stdout.splitlines()}
    assert rows["n=3 holonomy 256"][1:] == ["2", "0"]
    assert rows["n=3 holonomy 4"][1:] == ["3", "0"]
    # the finder decomposes each point it visits once, both classes in one stack: the seed
    # and one accepted trial per iteration, none halved
    assert rows["n=3 finder"][1:] == ["2", "3", "3"]
