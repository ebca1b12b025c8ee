"""The library runs on numpy and the standard library alone; scipy is a test dependency."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent(
    """
    import contextlib
    import importlib.abc
    import io
    import sys

    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is refused")
            return None

    sys.meta_path.insert(0, RefuseScipy())

    import numpy as np

    import ampcg
    from ampcg import cli

    g = ampcg.ChainGraph(4, directed={(0, 1)}, undirected={(1, 2), (2, 3)})
    a = np.random.default_rng(3).normal(size=(4, 4))
    result = ampcg.fit(a @ a.T + np.eye(4), g, equal_variances=True)
    assert result.converged and result.iterations > 0

    truth = ampcg.ChainGraph(4, directed={(0, 2), (1, 2)}, undirected={(2, 3)})
    params = ampcg.rescale_equal_variances(ampcg.random_parameters(truth, seed=5), 1.0)
    data = ampcg.sample(ampcg.implied_distribution(params), 500, seed=6)
    skeleton = ampcg.skeleton_recovery(data)
    ampcg.identify_in_class(skeleton.graph, data)
    assert ampcg.is_chain_graph(ampcg.greedy_search(data, ampcg.SearchConfig(restarts=2)))

    argv = ["experiment", "--method", "two-phase", "--p", "4", "--seeds", "1,2", "--n-list", "500"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
    assert not loaded, loaded
    """
)


def test_library_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
