"""Set-up cost of one workload in a fresh interpreter.

Usage: python3 bench/probe.py <workload>

Imports ``driftless``, builds the CLI parser and makes one small call into
each layer the workload uses, then prints the elapsed seconds.  ``run.py``
starts it several times and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from driftless import analysis, cli, closedform, core, simulate  # noqa: E402


def warm_oracle():
    gains = simulate.GainConfig(-1.0, -1.0)
    sol = closedform.fit_solution([1.0, 0.5], 1.0)
    traj = simulate.integrate_unicycle(
        [1.0, 0.5, 1.0], gains, simulate.IntegratorConfig(t_end=0.1)
    )
    closedform.eval_solution(sol, traj.times[-1])
    analysis.certify_stability(traj, lambda q: simulate.unicycle_field(q, gains), 1e-6)
    core.closed_loop_field(traj.final_state, simulate.unicycle_field_set(), -1.0)


def warm_spin():
    gains = simulate.GainConfig(-1.0, 1.0, True, 0.05, -1.0)
    cfg = simulate.IntegratorConfig(method="rk45", t_end=0.5)
    simulate.run_switching([0.01, 0.0, 0.5], gains, cfg)
    analysis.rho_positive_study([1.0, 0.0, 0.5], -1.0, 1.0, 1.0)


def warm_cli():
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["fit", "--q0", "1,0,1"])
        cli.main(["analyze", "--what", "asymptotics", "--q0", "1,0,20"])
        cli.main(["simulate", "--q0", "1,0,1", "--rho", "-1", "--t-end", "0.01",
                  "--out", "probe.csv"])
    os.unlink(os.path.join(os.environ[cli.OUT_DIR_ENV], "probe.csv"))


WARM = {"oracle-battery": warm_oracle, "spin-switch": warm_spin, "closed-form-cli": warm_cli}

if __name__ == "__main__":
    cli.build_parser()
    WARM[sys.argv[1]]()
    print(repr(time.perf_counter() - T0))
