"""The query service's import path stays numpy-free.

``repro serve`` imports the CLI and the service modules, which import
the score store and the pipeline.  numpy is an optional accelerator of
linkage only: loading it on the serve path would add about 12 MB of
resident memory and 70-90 ms of start-up to a process that never links,
so every module on that path imports numpy lazily, if at all.  The
import runs in a fresh interpreter, because this test process may
already hold numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SERVE_MODULES = (
    "repro.cli",
    "repro.service.core",
    "repro.service.http",
    "repro.service.store",
)


def test_serve_import_path_does_not_load_numpy():
    code = (
        "import importlib, sys\n"
        f"for name in {SERVE_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "loaded = sorted(name for name in sys.modules\n"
        "                if name.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
