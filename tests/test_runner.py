"""The one chain runner, scenarios._run, and the CLI calls that go through it.

A printed number is either within 1e-9 of its closed form or the call exits 3
because the truncation drops more than 1e-10 of a kick that reaches it;
rotating every kick by one phase changes no output of any chain; pattern
prints the bytes of visibility and phase_offset on every chain; config C2
prints what C1 prints; raising nmax by 8 moves no output by more than the
truncation allows; and a tracer bound over the module names the runner looks
up still sees every layer.
"""

import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atomslits
from atomslits import closedform
from atomslits.cli import main
from atomslits.errors import EmptyPatternError, PhysicsDomainError
from atomslits.scenarios import ScenarioSpec, _run
from atomslits.spec import _poisson_tail, _squared_abs, check_domain
from atomslits.transforms import PROJECTOR_NAMES
from atomslits.twopath import FreqTag, pattern, phase_offset, visibility

ROOT = Path(__file__).resolve().parents[1]


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def meta_or_refusal(argv):
    """The `# key=value` lines of a CSV call that exits 0, or None for a clean exit 3."""
    code, out, err = run_quiet(argv)
    if code == 3:
        assert out == "" and err.startswith("atomslits: physics domain error: "), err
        return None
    assert code == 0, err
    return dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))


# Kicks from well inside the truncation to past the |beta|^2 <= nmax guard of
# coherent_state at every nmax the CLI takes.
_part = st.floats(-14.0, 14.0) | st.floats(-3.0, 3.0)
_kick = st.builds(complex, _part, _part)
_nmax = st.integers(2, 171)
TWO_MODE = tuple(n for n in PROJECTOR_NAMES if not n.startswith("single_atom"))
ONE_MODE = ("ground", "single_atom_0", "single_atom_1")


@settings(max_examples=150)
@given(config=st.sampled_from(["B", "C1", "D"]), beta=_kick, alpha=_kick, nmax=_nmax)
def test_exact_pattern_matches_the_closed_form_or_refuses(config, beta, alpha, nmax):
    argv = ["pattern", "--config", config, "--treatment", "exact", f"--beta={beta!r}",
            f"--nmax={nmax}", "--samples", "16"]
    if config == "D":
        argv.append(f"--alpha={alpha!r}")
    meta = meta_or_refusal(argv)
    if meta is not None:
        assert abs(float(meta["visibility"]) - closedform.contrast_exact(config, beta)) < 1e-9


@settings(max_examples=150)
@given(beta=_kick, alpha=_kick, nmax=_nmax)
def test_d_ground_post_selection_matches_the_closed_form_or_refuses(beta, alpha, nmax):
    meta = meta_or_refusal(["pattern", "--config", "D", f"--beta={beta!r}",
                            f"--alpha={alpha!r}", f"--nmax={nmax}", "--coincidence", "ground",
                            "--samples", "16"])
    if meta is not None:
        expected = math.exp(-abs(alpha) ** 2 - abs(beta) ** 2)
        assert abs(float(meta["post_selection_probability"]) - expected) < 1e-9


@settings(max_examples=150)
@given(beta=st.floats(0.0, 14.0), delta=st.floats(0.0, 14.0), nmax=_nmax)
def test_whichway_matches_the_closed_form_or_refuses(beta, delta, nmax):
    meta = meta_or_refusal(["whichway", f"--beta={beta!r}", f"--delta={delta!r}",
                            f"--nmax={nmax}"])
    if meta is not None:
        ref = closedform.whichway_probabilities(beta, delta)
        assert abs(float(meta["simulated_p_plus"]) - ref.p_plus) < 1e-9
        assert abs(float(meta["simulated_p_minus"]) - ref.p_minus) < 1e-9


def test_common_mode_truncation_is_refused_only_under_a_coincidence():
    # alpha 3.9 at nmax 16 drops 45% of |alpha>, which cancels from V and the phase
    spec = ScenarioSpec("D", beta=0.3, alpha=3.9)
    assert visibility(_run(spec, eraser=True)[0]) == pytest.approx(visibility(
        _run(ScenarioSpec("D", beta=0.3, alpha=3.9, nmax=80), eraser=True)[0]), abs=1e-15)
    with pytest.raises(atomslits.TruncationError, match="alpha = 3.9"):
        _run(spec, coincidence="ground")


# --- the physics-domain rule, settled before the chain ------------------------


@st.composite
def domain_chains(draw):
    """A spec of any regime at any nmax, with kicks from deep inside the domain to past
    the |b|^2 <= nmax guard, and a chain its marker space takes."""
    config = draw(st.sampled_from(["A", "B", "C1", "C2", "D", "E"]))
    pulse = "short" if config == "D" else draw(st.sampled_from(["short", "long"]))
    treatment = draw(st.sampled_from(["exact", "first"]))
    if config == "E" and pulse == "short":
        treatment = "first"
    nmax = draw(_nmax)
    sizes = st.floats(0.0, 1.1) | st.floats(0.0, 1.1).map(lambda u: math.sqrt(u * nmax))
    kicks = st.builds(cmath.rect, sizes, st.floats(0.0, 6.3))
    spec = ScenarioSpec(config, pulse, beta=draw(kicks), treatment=treatment, nmax=nmax,
                        alpha=draw(kicks) if config == "D" else 0j)
    two_mode = config not in ("C1", "C2")
    tags = st.sets(st.sampled_from(list(FreqTag)), min_size=1)
    return spec, dict(eraser=two_mode and draw(st.booleans()),
                      dispersive=draw(st.none() | tags),
                      coincidence=draw(st.none() | st.sampled_from(TWO_MODE if two_mode
                                                                   else ONE_MODE)))


@settings(max_examples=300)
@given(drawn=domain_chains())
def test_the_domain_rule_refuses_what_the_chain_refuses(drawn):
    # the front settles a pattern call by check_domain before numpy loads; the chain
    # must then refuse the same, or fail only where a cut leaves no light
    spec, chain = drawn
    try:
        check_domain(spec, chain["coincidence"])
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            _run(spec, **chain)
        assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
        return
    with contextlib.suppress(EmptyPatternError):
        visibility(_run(spec, **chain)[0])


# --- kick phase ------------------------------------------------------------


@st.composite
def chains(draw):
    """A valid spec with |beta|^2 < 0.36, and the runner's keywords for it."""
    config = draw(st.sampled_from(["A", "B", "C1", "C2", "D", "E"]))
    pulse = "short" if config == "D" else draw(st.sampled_from(["short", "long"]))
    treatment = "first" if config == "E" else draw(st.sampled_from(["exact", "first"]))
    fields = dict(beta=cmath.rect(draw(st.floats(0.0, 0.599)), draw(st.floats(0.0, 6.3))),
                  nmax=draw(st.sampled_from([16, 24])))
    if config == "D":
        fields["alpha"] = cmath.rect(draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 6.3)))
    if config == "E":
        fields.update(coupling_g=draw(st.floats(0.0, 2.0)), evolve_time=draw(st.floats(0.0, 2.0)))
    two_mode = config not in ("C1", "C2")
    chain = dict(eraser=two_mode and draw(st.booleans()),
                 coincidence=draw(st.none() | st.sampled_from(TWO_MODE if two_mode else ONE_MODE)))
    if pulse == "long":
        chain["dispersive"] = draw(st.none() | st.sets(st.sampled_from(list(FreqTag)), min_size=1))
    return ScenarioSpec(config, pulse, treatment=treatment, **fields), chain


def outputs(spec, chain):
    """V, the phase and the post-selection of a chain, or the type of its refusal."""
    try:
        m, post_selection = _run(spec, **chain)
        return visibility(m), phase_offset(m), post_selection
    except (PhysicsDomainError, ValueError) as exc:
        return type(exc)


@settings(max_examples=250)
@given(drawn=chains(), theta=st.floats(0.0, 6.3))
def test_kick_phase_changes_no_output(drawn, theta):
    # exp(i theta N) commutes with every transform and projector, which keep the
    # total excitation N, and leaves the path overlaps as they are
    spec, chain = drawn
    turn = cmath.exp(1j * theta)
    rotated = ScenarioSpec(spec.config, spec.pulse, beta=spec.beta * turn,
                           alpha=spec.alpha * turn, epsilon=spec.epsilon,
                           coupling_g=spec.coupling_g, evolve_time=spec.evolve_time,
                           treatment=spec.treatment, nmax=spec.nmax)
    before, after = outputs(spec, chain), outputs(rotated, chain)
    if isinstance(before, type):
        assert before is after
        return
    assert not isinstance(after, type), after
    (v0, phase0, post0), (v1, phase1, post1) = before, after
    assert abs(v0 - v1) < 1e-12
    assert abs(post0 - post1) < 1e-12
    if v0 > 1e-6:
        assert abs((phase0 - phase1 + math.pi) % (2 * math.pi) - math.pi) < 1e-12


# --- pattern prints what report checks ---------------------------------------


@st.composite
def readout_chains(draw):
    """chains(), with a dispersive flip drawn on a short pulse too."""
    spec, chain = draw(chains())
    if "dispersive" not in chain:
        chain["dispersive"] = draw(st.none() | st.sets(st.sampled_from(list(FreqTag)), min_size=1))
    return spec, chain


# two full-contrast cuts whose 2|S|/d rounds to 1 + 2**-52, above the clamp
@example(drawn=(ScenarioSpec("B", beta=0.1), dict(eraser=False, dispersive=None,
                                                  coincidence="sym")))
@example(drawn=(ScenarioSpec("E", "long", beta=0.1),
                dict(eraser=True, dispersive={FreqTag.ANTISYM}, coincidence="sym")))
@settings(max_examples=200)
@given(drawn=readout_chains())
def test_pattern_prints_the_bytes_of_visibility_and_phase_offset(drawn):
    spec, chain = drawn
    try:
        m = _run(spec, **chain)[0]
        readout = visibility(m).hex(), phase_offset(m).hex()
    except (PhysicsDomainError, ValueError):  # a refused kick or an emptied cut
        return
    scan = pattern(m, 16)
    assert (scan.visibility.hex(), scan.phase_offset.hex()) == readout


# --- C1 = C2 and nmax convergence, through the CLI ---------------------------

_small = st.floats(-0.7, 0.7)
_small_kick = st.builds(complex, _small, _small)


@st.composite
def c_argv(draw):
    """A pattern or sweep call on config C1, flags drawn from those C1 takes."""
    command = draw(st.sampled_from(["pattern", "sweep"]))
    argv = [command, "--config", "C1", "--pulse", draw(st.sampled_from(["short", "long"]))]
    argv += _option("--treatment", draw(st.none() | st.sampled_from(["exact", "first"])))
    if command == "pattern":
        argv += [f"--beta={draw(_small_kick)!r}", "--samples", "16"]
    else:
        argv += ["--beta-range", draw(st.sampled_from(["0:0.4:3", "0.1:0.6:2", "0.2:0.2:1"]))]
    argv += _option("--nmax", draw(st.none() | st.integers(2, 40)))
    argv += ["--eraser"] if draw(st.integers(0, 4)) == 0 else []  # C1 refuses it
    tags = draw(st.none() | st.sets(st.sampled_from(list(FreqTag)), min_size=1))
    argv += [] if tags is None else ["--dispersive", ",".join(sorted(t.value for t in tags))]
    argv += _option("--coincidence", draw(st.none() | st.sampled_from(ONE_MODE)))
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


def _option(flag, value):
    return [] if value is None else [flag, str(value)]


@settings(max_examples=150)
@given(argv=c_argv())
def test_c2_prints_what_c1_prints(argv):
    # a rigid movable double slit recoils like one atom scattering into two directions
    code, out, err = run_quiet(argv)
    code2, out2, err2 = run_quiet([("C2" if arg == "C1" else arg) for arg in argv])
    assert (code2, err2) == (code, err)
    assert out2.replace("# config=C2", "# config=C1").replace(
        '"config": "C2"', '"config": "C1"') == out


@st.composite
def nmax_argv(draw):
    """A pattern call of any config and chain, the kicks it builds coherent states
    of, and an nmax in [2, 40]."""
    config = draw(st.sampled_from(["A", "B", "C1", "C2", "D", "E"]))
    pulse = "short" if config == "D" else draw(st.sampled_from(["short", "long"]))
    beta = cmath.rect(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 6.3)))
    argv = ["pattern", "--config", config, "--pulse", pulse, f"--beta={beta!r}"]
    treatment = None
    if config == "E":
        argv += ["--coupling", repr(draw(st.floats(0.0, 2.0))),
                 "--evolve-time", repr(draw(st.floats(0.0, 2.0)))]
    else:
        treatment = draw(st.none() | st.sampled_from(["exact", "first"]))
        argv += _option("--treatment", treatment)
    exact = config in ("B", "C1", "C2", "D") and pulse == "short" and treatment != "first"
    kicks = [beta] if exact else []
    if config == "D":
        kicks.append(cmath.rect(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 6.3))))
        argv.append(f"--alpha={kicks[-1]!r}")
    argv += ["--eraser"] if draw(st.booleans()) else []
    if pulse == "long" and draw(st.booleans()):
        argv += ["--dispersive", draw(st.sampled_from(["SHIFTED", "SYM", "ANTISYM,ELASTIC"]))]
    names = ONE_MODE if config in ("C1", "C2") else TWO_MODE
    argv += _option("--coincidence", draw(st.none() | st.sampled_from(names)))
    return argv + ["--samples", "16"], kicks, draw(st.integers(2, 40))


@settings(max_examples=150)
@given(drawn=nmax_argv())
def test_eight_more_levels_move_no_output_beyond_the_truncation(drawn):
    argv, kicks, nmax = drawn
    coarse, fine = (run_quiet(argv + ["--nmax", str(n)]) for n in (nmax, nmax + 8))
    if coarse[0] != 0 or fine[0] != 0:
        return
    a, b = (dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))
            for _, out, _ in (coarse, fine))
    residual = max((_poisson_tail(_squared_abs(k), nmax) for k in kicks), default=0.0)
    bound = 10.0 * residual + 1e-13
    for key in ("visibility", "post_selection_probability"):
        assert abs(float(a[key]) - float(b[key])) <= bound, (key, a[key], b[key], residual)
    if float(a["visibility"]) > 1e-6:
        gap = float(a["phase_offset"]) - float(b["phase_offset"])
        assert abs((gap + math.pi) % (2 * math.pi) - math.pi) <= bound, (a, b, residual)


# --- layer names -----------------------------------------------------------


def traced_span_names(*argv):
    """The span names perfbench/cli_traced.py records for one CLI call."""
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "cli_traced.py"), *argv],
                            capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert result.returncode == 0, result.stderr
    line = result.stderr.splitlines()[-1]
    prefix = "PERFBENCH_TRACE "
    assert line.startswith(prefix)
    return {span[0] for span in json.loads(line[len(prefix):])["spans"]}


def test_traced_cli_keeps_every_layer_name():
    names = traced_span_names("pattern", "--config", "B", "--beta", "0.2", "--treatment",
                              "first", "--eraser", "--coincidence", "atom1_excited")
    assert {"scenarios.build", "transforms.apply_eraser", "transforms.named_projector",
            "twopath.condition", "twopath.pattern"} <= names
    names = traced_span_names("pattern", "--config", "D", "--beta", "0.2", "--alpha", "0.7",
                              "--coincidence", "ground")
    assert {"scenarios.build", "fockspace.coherent_state", "transforms.named_projector",
            "twopath.condition", "twopath.pattern"} <= names
