"""End-to-end analysis pipeline producing a JSON-ready report.

Stages: CPTP verification, image decomposition, classification (CQ / eCQ /
entanglement breaking / universal image additivity), minimal output
entropies, fixed-point structure (square channels), and an image-additivity
probe against the identity channel.  A stage that cannot run records a
status of ``skipped`` or ``error`` with a reason; the pipeline itself never
aborts on a verdict.

Reports are deterministic for a fixed seed and package version: stages use
derived seeds only, keys are sorted on serialization, and wall-clock timings
are attached only on request since they break byte-level reproducibility.
The image and classification stages do not depend on the seed.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from . import __version__
from .channels import identity_channel
from .classify import NO, YES, is_cq, is_entanglement_breaking, is_universally_image_additive
from .entropy import image_additivity_gap, min_output_entropy
from .fixed_points import fixed_point_structure
from .formats import form_kind, matrix_to_json
from .geometry import dimension_bound_check, polytopic_decompose

REPORT_VERSION = "1"

_MAX_JOINT_DIM = 36  # budget of every tensor product; joint spaces grow quadratically


def check_joint_budget(t1, t2):
    """Raise ``ValueError`` when ``t1 (x) t2`` exceeds the desk-scale budget."""
    d_in, d_out = t1.d_in * t2.d_in, t1.d_out * t2.d_out
    if max(d_in, d_out) > _MAX_JOINT_DIM:
        raise ValueError(f"joint map d_in = {d_in}, d_out = {d_out} exceeds the limit "
                         f"of {_MAX_JOINT_DIM}")


def jsonable(x):
    """``x`` with numpy scalars turned into plain Python numbers, recursively."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    return x


def run_pipeline(t, seed=0, p_values=(1.0, 2.0), include_timings=False):
    """Full analysis of one channel; returns the report as a plain dict."""
    report = {
        "report_version": REPORT_VERSION,
        "package_version": __version__,
        "seed": int(seed),
        "channel": {"kind": form_kind(t), "d_in": t.d_in, "d_out": t.d_out},
    }
    timings = {}

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # noqa: BLE001 - verdict pipelines report, never abort
            out = {"status": "error", "reason": f"{type(e).__name__}: {e}"}
        timings[name] = time.perf_counter() - t0
        report[name] = jsonable(out)

    v = t.verify_cptp()
    report["cptp"] = jsonable({
        "is_cptp": v.is_cptp, "is_cp": v.is_cp, "is_tp": v.is_tp,
        "min_choi_eigenvalue": v.min_choi_eigenvalue,
        "marginal_deviation": v.marginal_deviation,
    })
    if not v.is_cptp:
        reason = "map is not CPTP"
        for name in ("image", "classification", "entropy", "fixed_points",
                     "image_additivity_vs_identity"):
            report[name] = {"status": "skipped", "reason": reason}
        if include_timings:
            report["timings"] = timings
        return report

    stage("image", lambda: image_stage(t))
    stage("classification", lambda: classification_stage(t))
    stage("entropy", lambda: _entropy_stage(t, seed, p_values))
    if t.d_in == t.d_out:
        stage("fixed_points", lambda: fixed_point_stage(t, seed))
    else:
        report["fixed_points"] = {"status": "skipped",
                                  "reason": "input and output dimensions differ"}
    try:
        check_joint_budget(t, identity_channel(t.d_in))
    except ValueError:
        report["image_additivity_vs_identity"] = {
            "status": "skipped", "reason": "joint dimensions exceed the desk-scale budget"}
    else:
        stage("image_additivity_vs_identity", lambda: _identity_probe(t, seed))
    if include_timings:
        report["timings"] = jsonable(timings)
    return report


def image_stage(t):
    """Report section of the polytopic decomposition (also ``chan-atlas decompose``)."""
    dec = polytopic_decompose(t)
    return {
        "status": dec.verdict,
        "n_vertices": len(dec.vertices),
        "n_dof": dec.n_dof,
        "preimage_dims": [r.preimage_basis.shape[1] for r in dec.vertices],
        "residual_dim": dec.w_basis.shape[1],
        "dimension_bound_ok": dimension_bound_check(dec),
        "vertex_states": [matrix_to_json(r.state) for r in dec.vertices],
        **dec.checks,
    }


def classification_stage(t, tol=1e-9):
    """Report section of the CQ / EB / universal-image-additivity / eCQ verdicts."""
    cq = is_cq(t)
    eb = is_entanglement_breaking(t, tol=tol)
    uia = is_universally_image_additive(t)
    out = {
        "cq": {"status": cq.status, "reason": cq.reason},
        "entanglement_breaking": {
            "status": eb.status, "reason": eb.reason,
            "min_pt_eigenvalue": eb.witness.get("min_pt_eigenvalue"),
        },
        "universally_image_additive": {"status": uia.status, "reason": uia.reason},
    }
    rec = uia.witness.get("reconstruction")
    if rec is not None:
        ecq = {"status": rec.status, "reason": rec.reason}
        if rec.status == YES:
            ecq["effect_norms"] = list(rec.witness["certificate"].norms)
        out["ecq"] = ecq
    else:
        # without a reconstruction the decomposition decided: no means not polytopic
        verdict = "not_polytopic" if uia.status == NO else "indeterminate"
        out["ecq"] = {"status": uia.status, "reason": f"image decomposition verdict: {verdict}"}
    return out


def _entropy_stage(t, seed, p_values):
    rows = []
    for p in p_values:
        r = min_output_entropy(t, p=p, seed=seed)
        rows.append({"p": float(p), "value": r.value, "converged": r.converged,
                     "grad_norm": r.grad_norm})
    return {"status": "ok", "min_output": rows}


def fixed_point_stage(t, seed):
    """Report section of the fixed-point structure of a square channel."""
    st = fixed_point_structure(t, seed=seed)
    return {
        "status": st.status,
        "reason": st.reason,
        "fixed_dim": st.fixed_dim,
        "support_dim": st.support_dim,
        "blocks": [{"dimension": b.dimension, "multiplicity": b.multiplicity}
                   for b in st.blocks],
    }


def _identity_probe(t, seed):
    rep = image_additivity_gap(t, identity_channel(t.d_in), n_directions=24, seed=seed)
    return {
        "status": "ok",
        "partner": f"identity ({t.d_in})",
        "max_gap": rep.max_gap,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "certified_positive": rep.certified,
        "n_directions": rep.n_directions,
    }


def report_json(report):
    """Canonical serialization: sorted keys, two-space indent, newline at end."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def validate_report(report):
    """Check a report against the shipped schema.  Needs ``jsonschema``.

    Raises the error ``jsonschema.validate`` would raise.  The schema itself
    is checked against its metaschema once per process, when the first
    report is validated.
    """
    import jsonschema

    error = jsonschema.exceptions.best_match(_report_validator().iter_errors(report))
    if error is not None:
        raise error


@functools.cache
def _report_validator():
    import jsonschema

    schema = load_report_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_report_schema():
    from importlib import resources

    with resources.files("chan_atlas").joinpath("schemas/report.schema.json").open(
            "r", encoding="utf-8") as f:
        return json.load(f)
