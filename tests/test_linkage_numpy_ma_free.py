"""Linking a pair never loads ``numpy.ma``.

``np.unique`` asked for no indices checks ``np.ma.is_masked``, so its
first call imports ``numpy.ma``, and so does ``np.isin`` on its sort
path, which calls it: 6-10 ms inside a run that otherwise never needs
masked arrays.  The linkage path finds distinct values with
:func:`repro.core.pairtable.sorted_unique` and tests membership with
:func:`repro.core.pairtable.sorted_member` instead.  The link runs in a
fresh interpreter, because this test process may already hold
``numpy.ma``: once with Levenshtein and Jaro-Winkler attributes, which
take the kernel's once-per-distinct-value fallback, then once with the
default weights.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.kernel import kernel_available

CODE = """
import sys
import numpy
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair

assert "numpy.ma" not in sys.modules
old, new = generate_pair(seed=7, initial_households=30).datasets
opaque = (
    ("first_name", "levenshtein", 0.4),
    ("surname", "jaro_winkler", 0.4),
    ("sex", "exact", 0.2),
)
for config in (LinkageConfig(weights=opaque), LinkageConfig()):
    result = link_datasets(old, new, config)
    assert result.num_record_links > 0
    assert "numpy.ma" not in sys.modules, config.weights
"""


@pytest.mark.skipif(not kernel_available(), reason="needs the numpy kernel")
def test_linking_a_pair_does_not_import_numpy_ma():
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", CODE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
