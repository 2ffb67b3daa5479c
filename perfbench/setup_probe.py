"""Set-up probe: do what happens before row 0 of a run, then print ``ready``.

Run as ``python3 perfbench/setup_probe.py <config>`` from the checkout root;
``run.py`` times it from process start to the ``ready`` line.  It imports the
package and the CLI shim, loads the workload's config and builds the first
experiment spec.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isacsim import cli, harness  # noqa: E402,F401  (cli: its import is set-up cost)

cfg, layout, base = harness.load_config(sys.argv[1])
harness.ExperimentSpec(name="roundtrip", sweep=("noiseless",), trials=1, seed=cfg.seed)
print("ready", flush=True)
