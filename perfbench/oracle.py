"""Correctness oracle, independent of the simulator.

Each path state is kept only as much as the transforms and projectors can
see: its amplitudes on |00>, |10>, |01> (|0>, |1> for one oscillator), its
norm, and its overlap with the other path, the latter taken from
`atomslits.closedform`. The eraser and the beat act inside span{|10>, |01>}
and are unitary, every named projector is rank one in that small basis, and
the dispersive element flips a sign, so this scalar model predicts every
visibility, phase offset and post-selection probability the benchmark asks
for. The checks read the program's output, never golden bytes, so output
fields added later do not break them.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re
from dataclasses import dataclass, replace

from atomslits import closedform

VIS_TOL = 1e-9
PHASE_TOL = 1e-7
PROB_TOL = 1e-9

R = 1.0 / math.sqrt(2.0)
ERASER = ((R, R), (-R, R))
PROJECTORS = {
    "atom1_excited": {(1, 0): 1.0},
    "atom2_excited": {(0, 1): 1.0},
    "sym": {(1, 0): R, (0, 1): R},
    "antisym": {(1, 0): R, (0, 1): -R},
    "single_atom_0": {(0,): 1.0},
    "single_atom_1": {(1,): 1.0},
}
KNOWN_CRITERIA = (
    "b_short_contrast",
    "eraser_restores_contrast",
    "long_pulse_b_irreversible",
    "c_contrast_and_coincidence",
    "c_long_dispersive",
    "whichway_discrimination",
    "d_common_mode",
    "e_quarter_beat_eraser",
    "property_suite",
)


@dataclass(frozen=True)
class Comp:
    tag: str
    weight: float
    psi1: dict
    psi2: dict
    overlap: complex  # <psi1|psi2> on the whole marker space
    norm1: float
    norm2: float


@dataclass(frozen=True)
class Prediction:
    visibility: float | None  # None: every path amplitude conditioned away
    phase_offset: float
    post_selection: float
    unconditioned_visibility: float


def _coherent(b: complex) -> tuple[complex, complex]:
    """<0|b> and <1|b> of a coherent state."""
    e = math.exp(-abs(b) ** 2 / 2.0)
    return e, b * e


def _first(b: complex) -> tuple[complex, complex]:
    return math.sqrt(1.0 - abs(b) ** 2), b


def _pure(psi1: dict, psi2: dict, overlap: complex) -> list[Comp]:
    return [Comp("ELASTIC", 1.0, psi1, psi2, overlap, 1.0, 1.0)]


def scenario(case, treatment: str | None = None, beta: complex | None = None) -> list[Comp]:
    """The closed-form model of build(spec) for one case."""
    cfg = case.config
    b = complex(case.beta) if beta is None else complex(beta)
    treatment = treatment or case.resolved_treatment()
    ground = (0, 0) if case.two_mode() else (0,)
    if cfg == "A":
        return _pure({ground: 1.0}, {ground: 1.0}, 1.0)
    if case.pulse == "long":
        w = closedform.longpulse_weights(cfg, b)
        elastic = Comp("ELASTIC", w["elastic"], {ground: 1.0}, {ground: 1.0}, 1.0, 1.0, 1.0)
        if cfg == "B":  # one-path components carry twice their outcome fraction
            return [elastic,
                    Comp("SHIFTED", 2 * w["atom1"], {(1, 0): 1.0}, {}, 0.0, 1.0, 0.0),
                    Comp("SHIFTED", 2 * w["atom2"], {}, {(0, 1): 1.0}, 0.0, 0.0, 1.0)]
        if cfg == "E":
            return [elastic,
                    Comp("SYM", w["sym"], PROJECTORS["sym"], PROJECTORS["sym"], 1.0, 1.0, 1.0),
                    Comp("ANTISYM", w["antisym"], PROJECTORS["antisym"],
                         {k: -v for k, v in PROJECTORS["antisym"].items()}, -1.0, 1.0, 1.0)]
        return [elastic, Comp("SHIFTED", w["shifted"], {(1,): 1.0}, {(1,): -1.0}, -1.0, 1.0, 1.0)]
    exact = treatment == "exact"
    overlap = closedform.contrast_exact(cfg, b) if exact else closedform.first_order_contrast(cfg, b)
    c0, c1 = _coherent(b) if exact else _first(b)
    if cfg == "B":
        return _pure({(0, 0): c0, (1, 0): c1}, {(0, 0): c0, (0, 1): c1}, overlap)
    if cfg in ("C1", "C2"):
        _, m1 = _coherent(-b) if exact else _first(-b)
        return _pure({(0,): c0, (1,): c1}, {(0,): c0, (1,): m1}, overlap)
    if cfg == "D":
        z0, z1 = _coherent(complex(case.alpha or 0))
        _, m1 = _coherent(-b) if exact else _first(-b)
        return _pure({(0, 0): z0 * c0, (1, 0): z1 * c0, (0, 1): z0 * c1},
                     {(0, 0): z0 * c0, (1, 0): z1 * c0, (0, 1): z0 * m1}, overlap)
    # E short: first-order B evolved under the beat
    comps = _pure({(0, 0): c0, (1, 0): c1}, {(0, 0): c0, (0, 1): c1}, overlap)
    return rotate(comps, beat_block(float(case.coupling or 0), float(case.evolve_time or 0)))


def beat_block(g: float, t: float):
    c, s = math.cos(g * t), math.sin(g * t)
    return ((c, -1j * s), (-1j * s, c))


def _rotate_state(psi: dict, m) -> dict:
    a10, a01 = psi.get((1, 0), 0), psi.get((0, 1), 0)
    out = dict(psi)
    out[(1, 0)] = m[0][0] * a10 + m[0][1] * a01
    out[(0, 1)] = m[1][0] * a10 + m[1][1] * a01
    return out


def rotate(comps: list[Comp], m) -> list[Comp]:
    """A 2x2 unitary on span{|10>, |01>}: norms and overlaps are unchanged."""
    return [replace(c, psi1=_rotate_state(c.psi1, m), psi2=_rotate_state(c.psi2, m))
            for c in comps]


def flip(comps: list[Comp], tags) -> list[Comp]:
    return [replace(c, psi2={k: -v for k, v in c.psi2.items()}, overlap=-c.overlap)
            if c.tag in tags else c for c in comps]


def project(comps: list[Comp], v: dict) -> list[Comp]:
    out = []
    for c in comps:
        p1 = sum(x.conjugate() * c.psi1.get(k, 0) for k, x in v.items())
        p2 = sum(x.conjugate() * c.psi2.get(k, 0) for k, x in v.items())
        out.append(replace(c, psi1={k: p1 * x for k, x in v.items()},
                           psi2={k: p2 * x for k, x in v.items()},
                           overlap=p1.conjugate() * p2, norm1=abs(p1) ** 2,
                           norm2=abs(p2) ** 2))
    return out


def _fringe(comps: list[Comp]) -> tuple[complex, float]:
    coherence = sum((c.weight * c.overlap for c in comps), 0j)
    return coherence, sum(c.weight * (c.norm1 + c.norm2) for c in comps)


def predict(case, treatment: str | None = None, beta: complex | None = None,
            beat: tuple[float, float] | None = None) -> Prediction:
    """Visibility, phase offset and post-selection after the case's transforms."""
    comps = scenario(case, treatment, beta)
    if case.eraser:
        comps = rotate(comps, ERASER)
    if beat is not None:
        comps = rotate(comps, beat_block(*beat))
    if case.dispersive:
        comps = flip(comps, set(case.dispersive))
    coherence, mean = _fringe(comps)
    unconditioned = 2.0 * abs(coherence) / mean
    post = 1.0
    if case.coincidence is not None:
        ground = {(0, 0) if case.two_mode() else (0,): 1.0}
        comps = project(comps, PROJECTORS.get(case.coincidence, ground))
        before = mean
        coherence, mean = _fringe(comps)
        post = mean / before
    if mean <= 1e-24 * sum(c.weight for c in comps):
        return Prediction(None, 0.0, 0.0, unconditioned)
    return Prediction(2.0 * abs(coherence) / mean, cmath.phase(coherence), post, unconditioned)


# --- checks ---------------------------------------------------------------


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def _close(what: str, got: float, want: float, tol: float) -> None:
    if not (abs(got - want) <= tol):
        raise Mismatch(f"{what}: got {got!r}, expected {want!r} within {tol:g}")


def _phase_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def check_fringe(what: str, visibility: float, offset: float, post: float,
                 expected: Prediction) -> None:
    if expected.visibility is None:
        raise Mismatch(f"{what}: expected an empty post-selection")
    _close(f"{what} visibility", visibility, expected.visibility, VIS_TOL)
    _close(f"{what} post_selection", post, expected.post_selection, PROB_TOL)
    if expected.visibility > 1e-6 and _phase_gap(offset, expected.phase_offset) > PHASE_TOL:
        raise Mismatch(f"{what} phase_offset: got {offset!r}, expected "
                       f"{expected.phase_offset!r}")


def check_samples(phis, intensities, n: int, visibility: float, offset: float) -> None:
    """The sampled curve is mean * (1 + V cos(phi + offset)) on a uniform grid."""
    if len(phis) != n or len(intensities) != n:
        raise Mismatch(f"expected {n} samples, got {len(phis)}")
    mean = sum(intensities) / n
    for k, (phi, value) in enumerate(zip(phis, intensities)):
        _close(f"phi[{k}]", phi, 2.0 * math.pi * k / n, 1e-12)
        _close(f"intensity[{k}]", value / mean, 1.0 + visibility * math.cos(phi + offset), 1e-9)


def _csv(text: str) -> tuple[dict, list[dict]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(io.StringIO("\n".join(body))))


def check_pattern(call, out: str) -> None:
    case = call.case
    if call.fmt == "json":
        doc = json.loads(out)
        vis, offset = doc["visibility"], doc["phase_offset"]
        post, cond = doc["post_selection_probability"], doc["condition"]
        phis, ints = doc["pattern"]["phis"], doc["pattern"]["intensities"]
    else:
        meta, rows = _csv(out)
        vis, offset = float(meta["visibility"]), float(meta["phase_offset"])
        post, cond = float(meta["post_selection_probability"]), meta["condition"]
        phis = [float(r["phi"]) for r in rows]
        ints = [float(r["intensity"]) for r in rows]
    if cond != (case.coincidence or "none"):
        raise Mismatch(f"condition: got {cond!r}")
    check_fringe("pattern", vis, offset, post, predict(case))
    check_samples(phis, ints, call.samples, vis, offset)


def sweep_lanes(case) -> tuple[str, str]:
    """The treatments behind the visibility_exact and visibility_first_order columns."""
    if case.config == "E":
        return "first", "first"
    if case.pulse == "long" or case.config == "A":
        return case.resolved_treatment(), case.resolved_treatment()
    return "exact", "first"


def check_sweep(call, out: str) -> None:
    lo, hi, steps = call.betas
    columns = ("beta", "visibility_exact", "visibility_first_order", "oracle", "deviation")
    rows = json.loads(out)["rows"] if call.fmt == "json" else _csv(out)[1]
    rows = [{k: float(r[k]) for k in columns} for r in rows]  # later columns are ignored
    if len(rows) != steps:
        raise Mismatch(f"sweep: expected {steps} rows, got {len(rows)}")
    exact_lane, first_lane = sweep_lanes(call.case)
    for k, row in enumerate(rows):
        b = lo + (hi - lo) * k / (steps - 1) if steps > 1 else lo
        _close(f"beta[{k}]", row["beta"], b, 1e-12)
        b = row["beta"]
        for column, lane in (("visibility_exact", exact_lane),
                             ("visibility_first_order", first_lane)):
            want = predict(call.case, lane, b).visibility
            _close(f"{column}(beta={b})", row[column], want, VIS_TOL)
        reference = closedform.first_order_contrast(call.case.config, b)
        _close(f"oracle(beta={b})", row["oracle"], reference, 1e-15)
        _close(f"deviation(beta={b})", row["deviation"],
               abs(row["visibility_exact"] - reference), 1e-15)


def check_whichway(call, out: str) -> None:
    beta, delta = call.whichway
    if call.fmt == "json":
        doc = json.loads(out)
        got = {k: doc[k] for k in ("p_plus", "p_minus", "fractional_error", "detect_prob")}
        sim = doc["simulated"]
        curve = [(p["fractional_error"], p["required_delta"], p["detect_prob"])
                 for p in doc["tradeoff"]]
    else:
        meta, rows = _csv(out)
        got = {k: float(meta[k]) for k in ("p_plus", "p_minus", "fractional_error", "detect_prob")}
        sim = {k: float(meta[f"simulated_{k}"]) for k in ("p_plus", "p_minus", "ratio")}
        curve = [(float(r["fractional_error"]), float(r["required_delta"]),
                  float(r["detect_prob"])) for r in rows]
    ref = closedform.whichway_probabilities(beta, delta)
    for key, value in got.items():
        _close(key, value, getattr(ref, key), 1e-15)
    _close("simulated p_plus", sim["p_plus"], ref.p_plus, PROB_TOL)
    _close("simulated p_minus", sim["p_minus"], ref.p_minus, PROB_TOL)
    _close("simulated ratio", sim["ratio"], ref.fractional_error, 1e-8)
    want = closedform.tradeoff_curve(beta) if beta > 0 else []
    if len(curve) != len(want):
        raise Mismatch(f"tradeoff: expected {len(want)} points, got {len(curve)}")
    for got_point, point in zip(curve, want):
        for value, expected in zip(got_point, point):
            _close("tradeoff", value, expected, 1e-12 * max(1.0, abs(expected)))


_NAMED = re.compile(r"(\w+)\(beta=([-\d.e]+)(?:,delta=([-\d.e]+))?\)$")


def _closed_form_value(criterion: str, name: str) -> float | None:
    """The closedform value a named acceptance check must match, where one exists."""
    m = _NAMED.match(name)
    if not m:
        return None
    quantity, b = m.group(1), float(m.group(2))
    config = {"b_short_contrast": "B", "c_contrast_and_coincidence": "C"}.get(criterion)
    if config and quantity == "first_order_visibility":
        return closedform.first_order_contrast(config, b)
    if config and quantity == "exact_visibility":
        return closedform.contrast_exact(config, b)
    if criterion == "c_long_dispersive" and quantity == "long_pulse_visibility":
        return closedform.contrast_C(b)
    if criterion == "whichway_discrimination" and m.group(3):
        ref = closedform.whichway_probabilities(b, float(m.group(3)))
        return {"p_plus": ref.p_plus, "p_minus": ref.p_minus,
                "ratio": ref.fractional_error}.get(quantity)
    return None


def check_report(report: dict) -> None:
    if report.get("passed") is not True:
        raise Mismatch("report: passed is not true")
    criteria = {c["id"]: c for c in report["criteria"]}
    missing = [cid for cid in KNOWN_CRITERIA if cid not in criteria]
    if missing:
        raise Mismatch(f"report: missing criteria {missing}")
    for cid, crit in criteria.items():
        if crit["passed"] is not True:
            raise Mismatch(f"report: criterion {cid} failed")
        for check in crit["checks"]:
            tol = check["tolerance"]
            gap = abs(check["value"] - check["expected"])
            if "phase" in check["name"]:
                gap = _phase_gap(check["value"], check["expected"])
            if check["passed"] is not True or not gap <= tol:
                raise Mismatch(f"report: {cid}/{check['name']} deviates by {gap:g}")
            reference = _closed_form_value(cid, check["name"])
            if reference is not None:
                _close(f"report {cid}/{check['name']}", check["value"], reference, tol)


def check_reject(out: str, err: str) -> None:
    if out:
        raise Mismatch("rejected call wrote to stdout")
    if not err or "Traceback" in err:
        raise Mismatch("rejected call gave no message or a traceback")


def check_cli(call, code: int, out: str, err: str) -> None:
    """Raise Mismatch unless one CLI call exited and printed as the oracle expects."""
    if code != call.exit_code:
        raise Mismatch(f"exit code {code}, expected {call.exit_code}: {err.strip()[-200:]}")
    if call.kind == "reject":
        check_reject(out, err)
    elif call.kind == "pattern":
        check_pattern(call, out)
    elif call.kind == "sweep":
        check_sweep(call, out)
    elif call.kind == "whichway":
        check_whichway(call, out)
    else:
        check_report(json.loads(out))


def check_marker(op, outcome) -> None:
    """Check one in-process marker chain: (unconditioned V, PatternScan, post-selection)."""
    unconditioned, scan, post = outcome
    expected = predict(op.case, beat=op.beat)
    _close("unconditioned visibility", unconditioned, expected.unconditioned_visibility, VIS_TOL)
    check_fringe("marker", scan.visibility, scan.phase_offset, post, expected)
    check_samples(list(scan.phis), list(scan.intensities), len(scan.phis),
                  scan.visibility, scan.phase_offset)
