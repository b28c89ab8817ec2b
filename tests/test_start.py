"""What a process loads and sets when it starts ojainfer.

The command line parses its arguments before numpy loads, and its console
script sets one BLAS thread where the user set none, so that numpy starts no
thread pool and the forked workers may run. A program that imports the
package as a library keeps its environment. Each case runs in a fresh
interpreter, since this one has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ojainfer
from ojainfer import workers
from ojainfer.cli import BLAS_VARS

SRC = str(Path(ojainfer.__file__).resolve().parent.parent)

# Runs the console script's entry point with argv[1:] and prints its exit code and
# whether numpy was loaded by the end.
CONSOLE = """
import json, sys
from ojainfer.cli import main
try:
    main()
except SystemExit as exc:
    print(json.dumps([exc.code, "numpy" in sys.modules]))
"""
# The same through ``python -m ojainfer.cli``, the benchmark's form.
MODULE = """
import json, runpy, sys
try:
    runpy.run_module("ojainfer.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps([exc.code, "numpy" in sys.modules]))
"""


def python(code, *argv, **env):
    """Run ``code`` in a fresh interpreter with no BLAS variable set beyond ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = SRC + os.pathsep + base.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=base | env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def default_pool_threads(**env) -> int:
    """The OS threads of a process once numpy has loaded with the given BLAS variables."""
    return int(python("import os, numpy; print(len(os.listdir('/proc/self/task')))", **env))


@pytest.mark.parametrize("entry", [CONSOLE, MODULE], ids=["console", "module"])
@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["varest", "--help"], 0),
                                        (["synth", "--n", "10"], 1),
                                        (["varest", "--input", "nope.csv", "--alpha", "0.5",
                                          "--out", "x"], 1),
                                        (["synth", "--n", "0", "--d", "561", "--out", "x"], 1)],
                         ids=["help", "varest-help", "usage-error", "out-of-range",
                              "synth-out-of-range"])
def test_parse_runs_before_numpy(entry, argv, code):
    assert json.loads(python(entry, *argv).splitlines()[-1]) == [code, False]


def test_console_script_defaults_to_one_blas_thread(tmp_path):
    out = tmp_path / "c.csv"
    python(CONSOLE, "--quiet", "coverage", "--n", "2000", "--d", "50", "--trials", "4",
           "--out", out)
    config = json.loads((tmp_path / "c.csv.manifest.json").read_text())["config"]
    assert config["blas_threads"] == "1 (default)"
    assert config["workers"] == min(4, workers.usable_cpus())


def test_user_blas_setting_is_kept(tmp_path):
    out = tmp_path / "c.csv"
    env = "import os; print(json.dumps([os.environ.get(k) for k in %r]))" % (BLAS_VARS,)
    printed = python(CONSOLE + env, "--quiet", "coverage", "--n", "2000", "--d", "50",
                     "--trials", "4", "--out", out, OPENBLAS_NUM_THREADS="2")
    assert json.loads(printed.splitlines()[-1]) == ["2", None, None]
    config = json.loads((tmp_path / "c.csv.manifest.json").read_text())["config"]
    assert config["blas_threads"] == "OPENBLAS_NUM_THREADS=2"
    if default_pool_threads(OPENBLAS_NUM_THREADS="2") > 1:
        assert config["workers"] == 1


def test_main_after_numpy_claims_no_default(tmp_path):
    out = tmp_path / "s.csv"
    printed = python("import numpy\n" + CONSOLE, "--quiet", "synth", "--n", "20", "--d", "3",
                     "--out", out)
    assert json.loads(printed) == [0, True]
    config = json.loads((tmp_path / "s.csv.manifest.json").read_text())["config"]
    assert config["blas_threads"] == "unset"


def test_library_import_changes_no_environment():
    code = """
import os
before = dict(os.environ)
import ojainfer
from ojainfer import *
from ojainfer import cli, io, workers
assert cli.cli_dispatch(["--help"]) == 0
print(dict(os.environ) == before)
"""
    assert python(code).splitlines()[-1] == "True"


@pytest.mark.parametrize("first", ["import ojainfer.workers as w; import numpy",
                                   "import numpy; import ojainfer.workers as w",
                                   "from ojainfer import workers as w"])
def test_default_pool_never_allows_fork(first):
    if default_pool_threads() < 2:
        pytest.skip("numpy's default BLAS pool starts no thread on this host")
    # A fork parks OpenBLAS's pool, so only the count at import still sees it.
    code = first + """
import os
pid = os.fork()
if pid == 0:
    os._exit(0)
os.waitpid(pid, 0)
print(w.fork_allowed())
"""
    assert python(code).strip() == "False"


def test_dir_lists_every_export():
    assert set(ojainfer.__all__) <= set(dir(ojainfer))
    with pytest.raises(AttributeError, match="no attribute 'workers_'"):
        ojainfer.workers_
