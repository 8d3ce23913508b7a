"""Golden marker chains: the in-process hot path at nmax 32 and 64, to the bit.

Each case builds a two-oscillator marker mixture, applies the eraser or a
beat, and a dispersive element on long pulses, then conditions the result on
every projector of its space. The sha256 of the repr of the unconditioned
visibility and phase, of each post-selection, conditioned visibility and
phase, of the pattern bytes and of the conditioned path amplitudes is pinned
in tests/golden_marker.json. The CLI golden runs at nmax 16 only; this one
covers the sizes where the dense arithmetic dominates. The E chains apply
evolve_beat as a stage of their own, to exercise the public transform; on E
short it runs on top of the beat that build has already applied. No CLI
call runs a beat after build, so the runner scenarios._run has no beat stage.
A change that is meant to alter an output regenerates the file and says so:

    PYTHONPATH=src python tests/test_marker_golden.py
"""

import hashlib
import json
from pathlib import Path

from atomslits import (
    EmptyPatternError,
    ScenarioSpec,
    apply_dispersive,
    apply_eraser,
    build,
    condition,
    evolve_beat,
    named_projector,
    pattern,
    phase_offset,
    visibility,
)
from atomslits.transforms import PROJECTOR_NAMES

GOLDEN = Path(__file__).with_name("golden_marker.json")

TWO_MODE_PROJECTORS = tuple(n for n in PROJECTOR_NAMES if not n.startswith("single_atom"))
BEAT = (0.8, 0.5)  # (g, t) of the explicit beat on config E

# kind: (config, pulse, treatment, dispersive tags)
KINDS = {
    "B_short_exact": ("B", "short", "exact", ()),
    "B_short_first": ("B", "short", "first", ()),
    "B_long": ("B", "long", None, ("SHIFTED",)),
    "D_short_exact": ("D", "short", "exact", ()),
    "D_short_first": ("D", "short", "first", ()),
    "E_short": ("E", "short", "first", ()),
    "E_long": ("E", "long", None, ("ANTISYM",)),
}
BETAS = ("0.3", "-0.35+0.2j")
NMAX = (32, 64)

CASES = [(kind, nmax, beta) for kind in KINDS for nmax in NMAX for beta in BETAS]


def _chain(kind, nmax, beta):
    config, pulse, treatment, tags = KINDS[kind]
    spec = ScenarioSpec(config, pulse, beta=complex(beta), alpha=0.6 if config == "D" else 0,
                        coupling_g=BEAT[0] if config == "E" else 0.0,
                        evolve_time=BEAT[1] if config == "E" else 0.0,
                        treatment=treatment, nmax=nmax)
    m = build(spec)
    m = evolve_beat(m, *BEAT) if config == "E" else apply_eraser(m)
    return apply_dispersive(m, tags) if tags else m


def _record(kind, nmax, beta):
    """The repr of every number and the bytes of every array the chain outputs."""
    m = _chain(kind, nmax, beta)
    parts = [repr(visibility(m)), repr(phase_offset(m))]
    for name in TWO_MODE_PROJECTORS:
        conditioned, post = condition(m, named_projector(name, m.space))
        parts.append(repr(post))
        for c in conditioned.components:
            parts.append(c.psi1.amplitudes.tobytes().hex())
            parts.append(c.psi2.amplitudes.tobytes().hex())
        try:
            scan = pattern(conditioned)
        except EmptyPatternError:
            parts.append("EmptyPatternError")
            continue
        parts += [repr(scan.visibility), repr(scan.phase_offset), scan.intensities.tobytes().hex()]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def test_golden_cases_match_the_case_list():
    golden = json.loads(GOLDEN.read_text())
    assert [(c["kind"], c["nmax"], c["beta"]) for c in golden["cases"]] == CASES


def test_marker_chains_match_golden():
    golden = json.loads(GOLDEN.read_text())
    mismatches = [(c["kind"], c["nmax"], c["beta"]) for c in golden["cases"]
                  if _record(c["kind"], c["nmax"], c["beta"]) != c["sha256"]]
    assert not mismatches


if __name__ == "__main__":
    cases = [{"kind": kind, "nmax": nmax, "beta": beta, "sha256": _record(kind, nmax, beta)}
             for kind, nmax, beta in CASES]
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
