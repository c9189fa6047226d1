"""Input-domain properties of the command line: every subcommand and every
numeric flag it accepts, fed the edge values nan, +-inf, 0, -1, 1e-300 and
1e300 on the command line or through a --config file, exits with a
documented code, and every value that README's exit-code paragraph calls
invalid exits 2."""

import contextlib
import io
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from driftless import cli, simulate
from test_cli import strict_json

EDGE = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")
INTEGRATOR = ("--t-end", "--step", "--abs-tol", "--rel-tol")
ANALYZE = INTEGRATOR + ("--rho-pos", "--rho-theta", "--tol")
# (argv, numeric flags the subcommand accepts, read or not); small horizons
# keep an example to milliseconds
COMMANDS = {
    "simulate": (["simulate", "--rho-pos=-1", "--rho-theta=-1", "--t-end=1", "--step=0.01"],
                 INTEGRATOR + ("--rho", "--rho-pos", "--rho-theta")),
    "closed-form": (["closed-form", "--t-end=1", "--sample-dt=0.01"], ("--t-end", "--sample-dt")),
    "fit": (["fit"], ()),
    "compare": (["compare", "--t-end=1", "--step=0.01", "--sample-dt=0.01"],
                INTEGRATOR + ("--sample-dt", "--tol")),
    "stability": (["analyze", "--what=stability", "--t-end=1", "--step=0.01"], ANALYZE),
    "asymptotics": (["analyze", "--what=asymptotics"], ANALYZE),
    "brockett": (["analyze", "--what=brockett"], ANALYZE),
    "rho-positive": (["analyze", "--what=rho-positive", "--rho-theta=1", "--t-end=1"], ANALYZE),
    # rho_theta T = 800 overflows exp(rho_theta T); from theta0 = 0 about 8e4 steps
    "rho-positive-long": (["analyze", "--what=rho-positive", "--rho-theta=10", "--t-end=80"],
                          ANALYZE),
    "switch": (["switch", "--t-end=1", "--step=0.01"],
               INTEGRATOR + ("--rho-pos", "--rho-theta", "--rho-theta-after-switch", "--switch-radius")),
}
JSON_STDOUT = {"fit", "compare", "stability", "asymptotics", "brockett", "rho-positive",
               "rho-positive-long", "switch"}
# README's one rule: every number is finite, and these are also positive
# (closed-form's --t-end may be 0)
POSITIVE = {"t_end", "step", "abs_tol", "rel_tol", "sample_dt", "tol", "switch_radius"}
SERIAL = itertools.count()


def documented_invalid(name, args):
    """True where README's exit-code paragraph promises exit 2 for the parsed args."""
    if not all(math.isfinite(float(v)) for v in args.q0.split(",")):
        return True
    for key, v in vars(args).items():
        if isinstance(v, float) and not (
                math.isfinite(v) and (key not in POSITIVE or v > 0.0
                                      or (v == 0.0 and key == "t_end" and name == "closed-form"))):
            return True
    # the per-command gain, horizon and budget rules
    if name == "closed-form":  # np.arange's ceil(stop / dt) samples, the start among them
        n = (args.t_end + 0.5 * args.sample_dt) / args.sample_dt
        return not (n < math.inf and math.ceil(n) - 1 <= simulate.MAX_NODES)
    if name == "simulate" and args.rho is not None and (
            args.rho_pos is not None or args.rho_theta is not None):
        return True
    if name in ("asymptotics", "brockett"):  # --rho-theta defaults to -1 here
        return not args.rho_pos == (-1.0 if args.rho_theta is None else args.rho_theta) < 0.0
    if name.startswith("rho-positive"):  # --rho-theta defaults to 1 here
        return not args.rho_pos < 0.0 < (1.0 if args.rho_theta is None else args.rho_theta)
    if name == "switch" and not (args.rho_pos < 0.0 < args.rho_theta
                                 and args.rho_theta_after_switch < 0.0):
        return True
    if name in ("simulate", "compare", "stability", "switch"):
        n = args.t_end / args.step  # the default method, rk4, makes round(n) steps
        return not (n < math.inf and round(n) <= simulate.MAX_NODES)
    return False


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    base, flags = COMMANDS[name]
    q0 = [draw(st.sampled_from(EDGE + ("1", "0.5"))) for _ in range(3)]
    picked = sorted(draw(st.sets(st.sampled_from(flags)))) if flags else []
    chosen = {f: draw(st.sampled_from(EDGE)) for f in picked}
    return name, q0, chosen, draw(st.booleans())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("domain")


@settings(max_examples=1000, deadline=None)
@given(invocations())
# few random draws reach theta0 = 0 with the long horizon left as it is
@example(("rho-positive-long", ["1", "0", "0"], {}, False))
def test_edge_values_exit_as_documented(workdir, case):
    name, q0, chosen, via_config = case
    base, _ = COMMANDS[name]
    argv = base + ["--q0=" + ",".join(q0)]
    # a fresh name per example: replacing an existing file costs tens of ms on ext4
    serial = next(SERIAL)
    if via_config:
        # explicit flags win over the file: drop the base flags that it sets
        argv = [a for a in argv if a.split("=", 1)[0] not in chosen]
        path = workdir / f"edge{serial}.cfg"
        path.write_text("".join(f"{f[2:].replace('-', '_')} = {v}\n" for f, v in chosen.items()))
        argv += ["--config", str(path)]
    else:
        argv += [f"{f}={v}" for f, v in chosen.items()]
    if name in ("simulate", "closed-form", "switch"):
        argv += ["--out", str(workdir / f"edge{serial}.out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception here is the traceback and exit 1 of a real run
    assert code in (0, 2, 3, 4, 5, 6), (argv, err.getvalue())
    if documented_invalid(name, cli.build_parser().parse_args(cli._apply_config_file(argv))):
        assert code == cli.EXIT_INVALID, (argv, code, err.getvalue())
    if name in JSON_STDOUT and out.getvalue():
        strict_json(out.getvalue())
