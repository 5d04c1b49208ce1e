"""Correctness checks for the benchmark's operations.

Every expected value comes from the construction in ``specs.py`` or from a
theorem about the channel class, never from a stored program output:

- depolarizing ``r >= 0``: minimal partial-transpose eigenvalue ``(1-3r)/4``;
  minimal output entropy ``h((1+r)/2)`` at p = 1 and ``-log((1+r^2)/2)``
  at p = 2; an image-additivity gap of ``r/2`` against the identity on
  maximally entangled directions (``5/8 - 3/8 = 1/4`` at r = 1/2);
- polytopic specs: the vertices are the prepared states, and the minimal
  output entropy is the smallest vertex entropy (entropy is concave);
- round images have no vertices, so they are neither CQ nor eCQ;
- eCQ channels are universally image additive, the disc counterexample is
  breaking but not; dephasing(d) has d one-dimensional fixed blocks;
- an image-additivity gap is never negative (product inputs are inputs) and
  vanishes when the first channel is eCQ; an entropy-additivity gap with a
  breaking factor vanishes.

``check`` returns the list of violated checks for one output; each helper
returns a message or ``None``.
"""

from __future__ import annotations

import json

import numpy as np

ENTROPY_TOL = 1e-6
PT_TOL = 1e-9
STATE_TOL = 1e-6
GAP_FLOOR = -1e-9
GAP_ZERO = 1e-6


def close(name, got, want, tol):
    if got is None or not abs(float(got) - float(want)) <= tol:
        return f"{name}: got {got!r}, expected {want!r} within {tol:g}"
    return None


def equal(name, got, want):
    if got != want:
        return f"{name}: got {got!r}, expected {want!r}"
    return None


def at_least(name, got, bound):
    if got is None or not float(got) >= bound:
        return f"{name}: got {got!r}, expected at least {bound!r}"
    return None


def at_most(name, got, bound):
    if got is None or not float(got) <= bound:
        return f"{name}: got {got!r}, expected at most {bound!r}"
    return None


def _matrix(rows):
    return np.array([[complex(*z) if isinstance(z, list) else z for z in row] for row in rows],
                    dtype=complex)


def same_states(name, got, want, tol=STATE_TOL):
    """The reported states are the expected ones, in any order."""
    if len(got) != len(want):
        return f"{name}: got {len(got)} states, expected {len(want)}"
    left = [_matrix(s) for s in got]
    for i, w in enumerate(want):
        dists = [float(np.sum(np.abs(np.linalg.eigvalsh(g - w)))) for g in left]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return f"{name}: prepared state {i} is {dists[j]:.3e} from every reported vertex"
        left.pop(j)
    return None


def _image(image, exp):
    if exp["kind"] == "round":
        return [equal("image.status", image["status"], "not_polytopic")]
    return [equal("image.status", image["status"], "polytopic"),
            equal("image.n_vertices", image.get("n_vertices"), len(exp["vertices"])),
            same_states("image.vertex_states", image.get("vertex_states", []), exp["vertices"])]


def _classification(cls, exp):
    eb = cls["entanglement_breaking"]
    errs = [equal("entanglement_breaking.status", eb["status"], exp["eb"])]
    if "min_pt" in exp:
        errs.append(close("entanglement_breaking.min_pt_eigenvalue",
                          eb.get("min_pt_eigenvalue"), exp["min_pt"], PT_TOL))
    want = {"cq": exp.get("cq"), "universally_image_additive": exp.get("uia"),
            "ecq": exp.get("ecq")}
    if exp["kind"] == "round":
        want = dict.fromkeys(want, "no")
    for field, status in want.items():
        if status is not None:
            errs.append(equal(f"classification.{field}.status", cls[field]["status"], status))
    return errs


def _entropy(out, exp):
    rows = {row["p"]: row["value"] for row in out.get("min_output", [])}
    return [close(f"entropy p={p:g}", rows.get(p), want, ENTROPY_TOL)
            for p, want in exp["entropy"].items()]


def _fixed_points(fp, exp):
    if "blocks" not in exp:
        return []
    return [equal("fixed_points.status", fp["status"], "ok"),
            equal("fixed_points.blocks",
                  sorted((b["dimension"], b["multiplicity"]) for b in fp.get("blocks", [])),
                  sorted(exp["blocks"])),
            equal("fixed_points.fixed_dim", fp.get("fixed_dim"),
                  sum(d * d for d, _ in exp["blocks"]))]


def _report(out, exp):
    probe = out["image_additivity_vs_identity"]
    return [equal("cptp.is_cptp", out["cptp"]["is_cptp"], True),
            *_image(out["image"], exp),
            *_classification(out["classification"], exp),
            *_entropy(out["entropy"], exp),
            *_fixed_points(out["fixed_points"], exp),
            equal("image_additivity_vs_identity.status", probe["status"], "ok"),
            *_image_gap("image_additivity_vs_identity", probe, ecq=exp.get("uia") == "yes",
                        gap_min=exp.get("identity_gap_min"))]


def _image_gap(name, out, ecq=False, gap_min=None):
    gap = out.get("max_gap")
    errs = [at_least(f"{name}.max_gap", gap, GAP_FLOOR)]
    if ecq:
        errs.append(at_most(f"{name}.max_gap", gap, GAP_ZERO))
    if gap_min is not None:
        errs.append(at_least(f"{name}.max_gap", gap, gap_min - GAP_ZERO))
    return errs


def _image_additivity(out, exp):
    errs = _image_gap("image_additivity", out, ecq=exp.get("ecq", False))
    if "gap" in exp:
        errs.append(close("image_additivity.max_gap", out["max_gap"], exp["gap"], GAP_ZERO))
        errs.append(close("image_additivity.lhs", out["lhs"], exp["lhs"], GAP_ZERO))
        errs.append(close("image_additivity.rhs", out["rhs"], exp["rhs"], GAP_ZERO))
        errs.append(equal("image_additivity.certified_positive", out["certified_positive"], True))
    return errs


def _additivity(out, exp):
    """Every pair in the workload has a breaking factor, so every gap is 0."""
    errs = []
    for row in out["additivity"]:
        p = row["p"]
        errs.append(close(f"additivity p={p:g} gap", row["gap"], 0.0, GAP_ZERO))
        for key in ("single_first", "single_second"):
            want = exp.get(key, {}).get(p)
            if want is not None:
                errs.append(close(f"additivity p={p:g} {key}", row[key], want, ENTROPY_TOL))
    return errs


_CHECKS = {"report": _report, "decompose": _image, "classify": _classification,
           "entropy": _entropy, "image-additivity": _image_additivity,
           "additivity": _additivity}


def check(op, text):
    """Violated checks of ``op``'s JSON output ``text`` (empty when correct)."""
    try:
        out = json.loads(text)
        errs = _CHECKS[op.args[0]](out, op.expect)
    except (ValueError, KeyError, TypeError) as e:
        return [f"{op.name}: unreadable output ({type(e).__name__}: {e})"]
    return [f"{op.name}: {e}" for e in errs if e]
