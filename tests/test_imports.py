"""Every path except `verify` and the oracle runs without scipy.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import screened_hookium

SRC = str(Path(screened_hookium.__file__).resolve().parents[1])

# Prepended to a check: a finder that refuses every scipy module.
REFUSE_SCIPY = '''
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
'''


def run_python(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_import_leaves_scipy_out():
    run_python(
        "import sys\n"
        "import screened_hookium, screened_hookium.cli\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )


def test_commands_run_without_scipy(tmp_path):
    out = str(tmp_path / "out.csv")
    run_python(
        REFUSE_SCIPY
        + "from screened_hookium import cli\n"
        + f"out = {out!r}\n"
        + """
for argv in (["solve", "--N", "2", "--lr", "1"], ["figure", "fig2"], ["figure", "fig3"],
             ["limits", "small-d", "--g", "3.75", "--pair", "1,0,0,3"],
             ["limits", "large-d", "--g", "1"]):
    assert cli.main([*argv, "--out", out]) == 0, argv
try:
    import screened_hookium.oracle
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("the finder let scipy through")
"""
    )


def test_density_runs_without_scipy():
    run_python(
        REFUSE_SCIPY
        + """
import screened_hookium as sh
gs = sh.ground_state(b=1.3, d=0.9)
assert gs.normalization > 0.0
sol = sh.radial_solution(2, 0, sh.solve_g(2, 0)[0])
profile = sh.density_profile_numeric(sol, n_points=24)
assert profile.kind == "numeric" and (profile.values >= 0.0).all()
"""
    )


def test_oracle_names_resolve_lazily():
    assert screened_hookium.radial_eigensolve is screened_hookium.oracle.radial_eigensolve
    assert screened_hookium.RadialGrid is screened_hookium.oracle.RadialGrid
