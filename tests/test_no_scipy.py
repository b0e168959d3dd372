"""The engine and its command line run on numpy alone.

scipy is a test dependency only, and the engine does not load
``numpy.polynomial`` either: its Gauss-Hermite rule comes from an
eigendecomposition.  The check runs in a fresh interpreter, so a module this
test suite imported cannot hide an import the engine makes, and it covers a
Gaussian and a Bernoulli stream, a fantasy batch and a ``dualgp bo`` step, so
an import deferred into a function body is caught as well as one at module
level.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys, tempfile
import numpy as np
import dualgp
from dualgp.cli import run_cli

rng = np.random.default_rng(0)
x = rng.uniform(-2, 2, (40, 1))
y = np.sin(2 * x[:, 0]) + 0.1 * rng.standard_normal(40)
kernel = dualgp.KernelSpec("matern52", dualgp.Hyperparams(1.0, [0.7]))
config = dualgp.SequentialConfig(num_inducing=8, memory_capacity=6, hyper_steps=1)
result = dualgp.run_stream(dualgp.make_stream(x, y, 2), kernel, dualgp.Gaussian(0.1), config)
labels = np.where(y > 0, 1.0, -1.0)
dualgp.run_stream(dualgp.make_stream(x, labels, 2), kernel, dualgp.BernoulliLogit(), config)
acq = dualgp.ExpectedImprovement(best=float(y.max()), bounds=np.array([[-2.0, 2.0]]))
dualgp.fantasize_batch(result.state, result.lik, acq, 2, search_budget=64)
with tempfile.TemporaryDirectory() as out:
    assert run_cli(["bo", "--objective", "sinebump", "--steps", "1", "--out", out]) == 0
print("numpy.polynomial" in sys.modules)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_stream_fantasy_and_bo_load_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["False", "[]"]
