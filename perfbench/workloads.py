"""The four workloads: seeded inputs, one operation each, and its checker.

Inputs are drawn from a Halton sequence, shifted at random by the seed.
Any prefix of it covers the input space evenly, so a run covers the input
distribution evenly however many operations fit in its time, and runs with
different seeds see the same mix of cheap and costly inputs.  The
package receives only the generated argv or solution objects.  Checkers run
outside the timed region and return None for a correct operation or the
failure kind.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

from rootcheck import root_is_exact, root_set_is_complete

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
OUT_FILE = RUN_DIR / "op-out.json"
CHILD_TIMEOUT_S = 120
LEDGER_SEED = 0

# Substrings of the CLI's error messages, mapped to the package's error types.
_ERROR_KINDS = (
    ("complex truncation roots", "ComplexRootError"),
    ("does not truncate", "TerminationError"),
    ("did not converge", "ConvergenceError"),
    ("doublings", "ConvergenceError"),
    ("step-halving", "ConvergenceError"),
)


def classify_exit(code: int, stderr: str) -> str:
    """Failure kind of a CLI command that exited with a non-zero code."""
    if code == 3:
        return "verify_FAIL"
    for needle, kind in _ERROR_KINDS:
        if needle in stderr:
            return kind
    return f"exit_{code}"


def _radical_inverse(i: int, base: int) -> float:
    out, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * scale
        scale /= base
    return out


def halton(label: str, seed: int, dims: int):
    """Endless points in [0, 1)^dims: the Halton sequence (bases 2, 3, 5, 7)
    under a random shift modulo 1 drawn from (label, seed)."""
    rng = random.Random(f"{label}:{seed}")
    shift = [rng.random() for _ in range(dims)]
    for i in itertools.count(1):
        yield [(_radical_inverse(i, base) + s) % 1.0 for base, s in zip((2, 3, 5, 7), shift)]


def _pick(u: float, n: int) -> int:
    """Index in range(n) for u in [0, 1)."""
    return min(int(u * n), n - 1)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def energy_r(N: int, l_r: int, b: float) -> float:
    return (7.0 + 2.0 * l_r + 4.0 * N) / (2.0 * b**2)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def _roots_ok(N: int, l_r: int, gs: list[float], b: float, d: float) -> bool:
    """N+1 strictly ascending couplings, each an exact root, together the whole set."""
    return (len(gs) == N + 1 and all(g1 < g2 for g1, g2 in zip(gs, gs[1:]))
            and all(root_is_exact(N, l_r, g, b, d) for g in gs)
            and root_set_is_complete(N, l_r, gs, b, d))


class Workload:
    """One operation type.  The traced run repeats the first `pass_size`
    inputs of the seed's stream.  No operation of the timed domain fails at
    the commit the benchmark was written for, so any failure there makes the
    run incorrect.  A workload with a ledger probe also runs, in the traced
    run only, the first `LEDGER_SIZE` inputs of `inputs(LEDGER_SEED,
    ledger=True)`: inputs with known defects, which may fail only with a kind
    in `known_failures`."""

    name = ""
    pass_size = 1
    in_process = True
    warmup_input: dict = {}
    LEDGER_SIZE = 0
    known_failures: tuple[str, ...] = ()

    def setup(self) -> None:
        """Import what the operation needs (part of the measured set-up)."""

    def inputs(self, seed: int, ledger: bool = False):
        raise NotImplementedError

    def prepare(self, inp: dict, traced: bool = False):
        """Untimed preparation; returns (operation, context for the checker)."""
        raise NotImplementedError

    def check(self, inp: dict, ctx, raw) -> str | None:
        raise NotImplementedError


class _InProcessCli(Workload):
    """Commands run through `cli.main(argv)` in the benchmark process, JSON to a file."""

    def setup(self) -> None:
        from screened_hookium import cli

        self.cli = cli
        RUN_DIR.mkdir(exist_ok=True)

    def argv(self, inp: dict) -> list[str]:
        raise NotImplementedError

    def prepare(self, inp, traced=False):
        OUT_FILE.unlink(missing_ok=True)
        argv = self.argv(inp) + ["--format", "json", "--out", str(OUT_FILE)]
        cli = self.cli

        def op():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, err.getvalue()

        return op, None

    @staticmethod
    def results() -> list[dict]:
        with open(OUT_FILE, encoding="utf-8") as fh:
            return json.load(fh)["results"]


class Spectrum(_InProcessCli):
    """`solve` for one class, N log-uniform on [1, 12], l_r 0-4,
    d/b log-uniform on [0.05, 4], b log-uniform on [0.5, 2]."""

    name = "spectrum"
    pass_size = 64
    warmup_input = {"N": 1, "l_r": 0, "d_over_b": 1.0, "b": 1.0}
    # Timed domain: no class in it fails at the parent commit.  The ledger
    # probe draws from the ROADMAP's target domain (N <= 60, d/b up to 20),
    # where about a third of the classes fail.
    N_MAX, D_OVER_B = 12, (0.05, 4.0)
    LEDGER_N_MAX, LEDGER_D_OVER_B, LEDGER_SIZE = 60, (0.05, 20.0), 64
    known_failures = ("ComplexRootError", "TerminationError", "wrong_root")

    def inputs(self, seed, ledger=False):
        n_max, (lo, hi) = ((self.LEDGER_N_MAX, self.LEDGER_D_OVER_B) if ledger
                           else (self.N_MAX, self.D_OVER_B))
        for u in halton(self.name, seed, 4):
            yield {
                "N": min(n_max, int((n_max + 1.0) ** u[0])),
                "d_over_b": _log_uniform(u[1], lo, hi),
                "l_r": _pick(u[2], 5),
                "b": _log_uniform(u[3], 0.5, 2.0),
            }

    def argv(self, inp):
        return ["solve", "--N", str(inp["N"]), "--lr", str(inp["l_r"]),
                "--d-over-b", repr(inp["d_over_b"]), "--b", repr(inp["b"])]

    def check(self, inp, ctx, raw):
        code, stderr = raw
        if code != 0:
            return classify_exit(code, stderr)
        N, l_r, b = inp["N"], inp["l_r"], inp["b"]
        d = inp["d_over_b"] * b  # the same float product the CLI forms
        rows = self.results()
        want_e = energy_r(N, l_r, b)
        if not all(_close(float(r["E_r"]), want_e, 1e-12) for r in rows):
            return "wrong_output"
        return None if _roots_ok(N, l_r, [float(r["g"]) for r in rows], b, d) else "wrong_root"


class Verify(_InProcessCli):
    """`verify` for one class, N 1-4 weighted 1:2:3:2, l_r 0-2,
    d/b log-uniform on [0.75, 4], b = 1."""

    name = "verify"
    # An operation costs about 25 ms per root, so latencies form one cluster
    # per N.  With N uniform the median would sit in the gap between the N=2
    # and N=3 clusters and jump between them from run to run; these weights
    # put the median inside the N=3 cluster and p90 inside the N=4 one.
    N_SLOTS = (1, 2, 2, 3, 3, 3, 4, 4)
    pass_size = 48
    warmup_input = {"N": 1, "l_r": 0, "d_over_b": 1.0}
    # Timed domain: no class in it fails at the parent commit.  The ledger
    # probe draws from d/b in [0.25, 0.55], where the false FAILs of N = 3
    # and 4 lie (the largest d/b seen failing is 0.537).
    D_OVER_B = (0.75, 4.0)
    LEDGER_D_OVER_B, LEDGER_SIZE = (0.25, 0.55), 24
    known_failures = ("verify_FAIL",)

    def inputs(self, seed, ledger=False):
        lo, hi = self.LEDGER_D_OVER_B if ledger else self.D_OVER_B
        for u in halton(self.name, seed, 3):
            yield {"N": self.N_SLOTS[_pick(u[0], len(self.N_SLOTS))], "l_r": _pick(u[1], 3),
                   "d_over_b": _log_uniform(u[2], lo, hi)}

    def argv(self, inp):
        return ["verify", "--N", str(inp["N"]), "--lr", str(inp["l_r"]),
                "--d-over-b", repr(inp["d_over_b"])]

    def check(self, inp, ctx, raw):
        code, stderr = raw
        if code != 0:
            return classify_exit(code, stderr)
        N, l_r = inp["N"], inp["l_r"]
        rows = self.results()
        want_e = energy_r(N, l_r, 1.0)
        if (any(r["status"] != "PASS" for r in rows)
                or not all(_close(float(r["E_exact"]), want_e, 1e-12) for r in rows)):
            return "wrong_output"
        return None if _roots_ok(N, l_r, [float(r["g"]) for r in rows], 1.0, inp["d_over_b"]) else "wrong_root"


class Density(Workload):
    """`density_profile_numeric(sol, r_max=8b, n_points=24)` for one l_r = 0
    state: N 1-4, a random root of the class, d/b log-uniform on [0.5, 2], b = 1.
    The state is built before the timed call."""

    name = "density"
    pass_size = 8
    warmup_input = {"N": 1, "root": 0, "d_over_b": 1.0}
    b = 1.0
    n_points = 24

    def setup(self) -> None:
        import numpy as np
        from screened_hookium import atom, groundstate

        self.np, self.atom, self.groundstate = np, atom, groundstate

    def inputs(self, seed):
        for u in halton(self.name, seed, 3):
            N = 1 + _pick(u[0], 4)
            yield {"N": N, "d_over_b": _log_uniform(u[1], 0.5, 2.0), "root": _pick(u[2], N + 1)}

    def prepare(self, inp, traced=False):
        b, d = self.b, inp["d_over_b"] * self.b
        roots = self.atom.solve_g(inp["N"], 0, b=b, d=d)
        sol = self.atom.radial_solution(inp["N"], 0, float(roots[inp["root"]]), b=b, d=d)
        profile = self.groundstate.density_profile_numeric

        def op():
            return profile(sol, r_max=8.0 * b, n_points=self.n_points)

        return op, sol

    def check(self, inp, sol, prof):
        np = self.np
        r = np.asarray(prof.radii, dtype=float)
        rho = np.asarray(prof.values, dtype=float)
        if (r.shape != (self.n_points,) or rho.shape != r.shape or r[0] != 0.0
                or r[-1] != 8.0 * self.b or not np.all(np.isfinite(rho)) or np.any(rho < 0)):
            return "wrong_output"
        electrons = np.trapezoid(4.0 * math.pi * r**2 * rho, r)
        if abs(electrons - 2.0) > 1e-10:
            return "wrong_density"
        if inp["N"] == 1 and sol.n_r == 0:
            gs = self.groundstate.ground_state(b=self.b, d=inp["d_over_b"] * self.b)
            closed = np.asarray(self.groundstate.density_closed_form(gs, r), dtype=float)
            if np.max(np.abs(rho - closed) / np.abs(closed)) > 1e-10:
                return "wrong_density"
        return None


_HEADERS = {
    "verify": "g,n_r,E_exact,E_oracle,eig_rel_err,l2_error,max_ode_residual,node_oracle,status",
    "fig2": "r,R_g26,R_g12",
    "fig3": "r1,rho",
    "small-d": "n_r,l_r,energy,group,degenerate",
    "large-d": "n_r,l_r,energy,group,degenerate",
}
_CLI_MIX = ("solve", "solve", "solve", "verify", "fig2", "fig3", "small-d", "large-d")


class Cli(Workload):
    """One fresh `python -m screened_hookium.cli ...` process per operation,
    CSV on stdout, over a seeded mix of the README commands."""

    name = "cli"
    pass_size = len(_CLI_MIX)
    in_process = False
    # Run in set-up, so that setup_s includes one start of the program.
    warmup_input = {"kind": "solve", "N": 1, "l_r": 0, "d_over_b": 1.0,
                    "argv": ["solve", "--N", "1", "--lr", "0", "--d-over-b", "1.0"]}

    def __init__(self, env: dict):
        self.env = env

    def inputs(self, seed):
        for u in halton(self.name, seed, 4):
            kind = _CLI_MIX[_pick(u[0], len(_CLI_MIX))]
            inp = {"kind": kind}
            if kind in ("solve", "verify"):
                n_max, lr_slots = (4, 3) if kind == "solve" else (2, 2)
                inp.update(N=1 + _pick(u[1], n_max), l_r=_pick(u[2], lr_slots),
                           d_over_b=_log_uniform(u[3], 0.5, 2.0))
                inp["argv"] = [kind, "--N", str(inp["N"]), "--lr", str(inp["l_r"]),
                               "--d-over-b", repr(inp["d_over_b"])]
            elif kind in ("fig2", "fig3"):
                inp["argv"] = ["figure", kind]
            elif kind == "small-d":
                inp["argv"] = ["limits", "small-d", "--g", repr(_log_uniform(u[1], 1.0, 8.0)),
                               "--levels", "8", "--pair", "1,0,0,3"]
            else:
                inp["argv"] = ["limits", "large-d", "--g", repr(_log_uniform(u[1], 0.5, 2.0)),
                               "--d-over-b", repr(_log_uniform(u[2], 5.0, 20.0)), "--levels", "10"]
            yield inp

    def prepare(self, inp, traced=False):
        flags = ["-X", "importtime"] if traced else []
        cmd = [sys.executable, *flags, "-m", "screened_hookium.cli", *inp["argv"]]

        def op():
            done = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            return done.returncode, done.stdout, done.stderr

        return op, None

    def check(self, inp, ctx, raw):
        code, stdout, stderr = raw
        if code != 0:
            return classify_exit(code, stderr)
        lines = [line for line in stdout.splitlines() if not line.startswith("#")]
        if not lines:
            return "wrong_output"
        header, rows = lines[0], [line.split(",") for line in lines[1:]]
        kind = inp["kind"]
        if kind == "solve":
            N = inp["N"]
            want = ",".join(["g", "E_r", "E_total", "n_r"] + [f"v_{i}" for i in range(1, N + 1)] + ["symmetry"])
            want_e = energy_r(N, inp["l_r"], 1.0)
            ok = header == want and len(rows) == N + 1 and all(_close(float(r[1]), want_e, 1e-11) for r in rows)
        elif kind == "verify":
            ok = header == _HEADERS[kind] and len(rows) == inp["N"] + 1 and all(r[-1] == "PASS" for r in rows)
        elif kind in ("fig2", "fig3"):
            ok = header == _HEADERS[kind] and len(rows) == 400
        else:
            levels = int(inp["argv"][inp["argv"].index("--levels") + 1])
            ok = header == _HEADERS[kind] and len(rows) == levels
        if not ok:
            return "wrong_output"
        if kind in ("solve", "verify"):
            # The CSV prints g to 12 significant digits: far inside the checker's
            # tolerance for these small classes.
            gs = [float(r[0]) for r in rows]
            if not _roots_ok(inp["N"], inp["l_r"], gs, 1.0, inp["d_over_b"]):
                return "wrong_root"
        return None


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(import_ms, scipy_ms) from `python -X importtime -m ...` output.

    import_ms sums the cumulative times of the top-level imports made after
    `runpy`, i.e. everything the module run itself imported; scipy_ms sums
    the outermost `scipy` / `scipy.*` imports wherever they sit in the tree.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2]
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        entries.append((depth, label.strip(), int(parts[1])))
    top = [(name, cum) for depth, name, cum in entries if depth == 0]
    names = [name for name, _ in top]
    after = names.index("runpy") + 1 if "runpy" in names else len(top)
    import_us = sum(cum for _, cum in top[after:])
    # Lines come in completion order (children first); walk them backwards so
    # every entry follows its ancestors.
    scipy_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy_us += cum
        stack.append((depth, is_scipy))
    return import_us / 1e3, scipy_us / 1e3


def make(name: str, env: dict) -> Workload:
    if name == "cli":
        return Cli(env)
    return {"spectrum": Spectrum, "verify": Verify, "density": Density}[name]()


NAMES = ("cli", "spectrum", "verify", "density")
