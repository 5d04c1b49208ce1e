"""Tests of the benchmark's own code: the closed forms behind the oracles, and
that every oracle rejects a perturbed value.

    python3 -m pytest bench

No test runs the program; the outputs here are built from the expectations.
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import specs  # noqa: E402

SEEDS = (0, 1, 2)


def ops_of(workload):
    return [op for seed in SEEDS for op in specs.build(workload, seed)]


ALL_OPS = [op for w in specs.WORKLOADS for op in ops_of(w)]


# -- closed forms --------------------------------------------------------


def channel_apply(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def pure(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def sphere_inputs(n):
    """Pure qubit inputs on a Fibonacci lattice of the Bloch sphere."""
    out = []
    for i in range(n):
        z = 1 - 2 * (i + 0.5) / n
        phi = i * math.pi * (3 - math.sqrt(5))
        r = math.sqrt(1 - z * z)
        out.append(specs.bloch_state((r * math.cos(phi), r * math.sin(phi), z)))
    return out


@pytest.mark.parametrize("r", [0.0, 0.2, 1 / 3, 0.5, 0.9])
def test_depolarizing_pt_eigenvalue(r):
    assert specs.min_pt_eigenvalue(specs.pauli_kraus((r, r, r)), 2) == pytest.approx(
        (1 - 3 * r) / 4, abs=1e-12)


@pytest.mark.parametrize("r", [0.2, 0.5])
def test_depolarizing_entropy_is_constant_on_pure_inputs(r):
    rng = np.random.default_rng(0)
    kraus = specs.conjugated(specs.pauli_kraus((r, r, r)), specs.haar_unitary(rng, 2))
    for rho in sphere_inputs(50):
        out = channel_apply(kraus, rho)
        for p in (1.0, 2.0):
            assert specs.state_entropy(out, p) == pytest.approx(
                specs.depolarizing_entropy(r, p), abs=1e-12)
    assert specs.depolarizing_entropy(r, 2.0) == pytest.approx(-math.log((1 + r * r) / 2))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_trine_entropy_bounds_a_sphere_sweep(p):
    effects = []
    for j in (1, 2, 3):
        a = 2 * math.pi * j / 3
        effects.append((2 / 3) * pure([math.cos(a), math.sin(a)]))
    values = []
    for rho in sphere_inputs(20000):
        probs = [np.trace(m @ rho).real for m in effects]
        values.append(specs.renyi(probs, p))
    h = specs.trine_entropy(p)
    assert min(values) >= h - 1e-12
    # -x log x is steep at 0, so the lattice only comes within about 1e-3
    assert min(values) <= h + 1e-3


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_specs_are_channels(op):
    """Every generated spec is completely positive and trace preserving."""
    for ch in op.specs.values():
        assert_cptp(ch)


def assert_cptp(ch):
    kind = ch["kind"]
    if kind == "direct_sum":
        for block in ch["blocks"]:
            assert_cptp(block)
        return
    if kind in ("kraus", "depolarizing"):
        ops = ([oracles._matrix(k) for k in ch["kraus"]] if kind == "kraus"
               else specs.pauli_kraus((ch["r"],) * 3))
        np.testing.assert_allclose(sum(k.conj().T @ k for k in ops), np.eye(ops[0].shape[1]),
                                   atol=1e-12)
        return
    # measure-and-prepare: PSD effects summing to the identity, states
    if kind == "cq":
        basis = oracles._matrix(ch["basis"])
        effects = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(basis.shape[1])]
    elif kind == "povm":
        effects = [oracles._matrix(m) for m in ch["effects"]]
    else:
        vecs = [oracles._matrix([v])[0] for v in ch["vectors"]]
        effects = [np.outer(v, v.conj()) + oracles._matrix(m)
                   for v, m in zip(vecs, ch["tilde_effects"])]
    np.testing.assert_allclose(sum(effects), np.eye(effects[0].shape[0]), atol=1e-12)
    for m in effects:
        assert np.linalg.eigvalsh(m)[0] >= -1e-12
    for s in (oracles._matrix(s) for s in ch["states"]):
        assert np.linalg.eigvalsh(s)[0] >= -1e-12
        assert np.trace(s).real == pytest.approx(1.0)


# -- every oracle rejects a perturbed value --------------------------------


def correct_output(op):
    """An output that every check of ``op`` accepts, built from its expectations."""
    exp = op.expect
    cmd = op.args[0]
    if cmd == "image-additivity":
        gap = exp.get("gap", 0.0)
        return {"max_gap": gap, "lhs": exp.get("lhs", 0.5), "rhs": exp.get("rhs", 0.5 - gap),
                "certified_positive": gap > 1e-6, "n_directions": 400}
    if cmd == "additivity":
        rows = []
        for p in (1.0, 2.0):
            h1 = exp["single_first"].get(p, 0.3)
            h2 = exp.get("single_second", {}).get(p, 0.2)
            rows.append({"p": p, "gap": 0.0, "single_first": h1, "single_second": h2,
                         "joint": h1 + h2})
        return {"additivity": rows}
    round_ = exp["kind"] == "round"
    image = ({"status": "not_polytopic", "n_vertices": 0, "vertex_states": []} if round_ else
             {"status": "polytopic", "n_vertices": len(exp["vertices"]),
              "vertex_states": [specs._mat(s) for s in exp["vertices"][::-1]]})
    no = "no" if round_ else None
    cls = {"cq": {"status": exp.get("cq", no or "indeterminate")},
           "entanglement_breaking": {"status": exp["eb"],
                                     "min_pt_eigenvalue": exp.get("min_pt", 0.0)},
           "universally_image_additive": {"status": exp.get("uia", no or "indeterminate")},
           "ecq": {"status": exp.get("ecq", no or "indeterminate")}}
    entropy = {"status": "ok", "min_output": [{"p": p, "value": v, "converged": True}
                                              for p, v in exp["entropy"].items()]}
    if cmd == "decompose":
        return image
    if cmd == "classify":
        return cls
    if cmd == "entropy":
        return entropy
    blocks = [{"dimension": d, "multiplicity": m} for d, m in exp.get("blocks", [])]
    gap = exp.get("identity_gap_min", 0.0)
    return {"cptp": {"is_cptp": True}, "image": image, "classification": cls,
            "entropy": entropy,
            "fixed_points": {"status": "ok", "blocks": blocks,
                             "fixed_dim": sum(b["dimension"] ** 2 for b in blocks)},
            "image_additivity_vs_identity": {"status": "ok", "max_gap": gap}}


def perturbations(op, out):
    """(label, mutator) pairs; each mutator breaks one checked value."""
    exp = op.expect
    cmd = op.args[0]
    muts = []

    def add(label, fn):
        muts.append((label, fn))

    if cmd == "image-additivity":
        add("negative gap", lambda o: o.update(max_gap=-1e-6))
        if "gap" in exp:
            add("gap", lambda o: o.update(max_gap=o["max_gap"] + 1e-5))
            add("lhs", lambda o: o.update(lhs=o["lhs"] - 1e-5))
            add("rhs", lambda o: o.update(rhs=o["rhs"] + 1e-5))
            add("uncertified", lambda o: o.update(certified_positive=False))
        return muts
    if cmd == "additivity":
        add("gap", lambda o: o["additivity"][-1].update(gap=2e-6))
        add("negative gap", lambda o: o["additivity"][0].update(gap=-2e-6))
        add("single entropy", lambda o: o["additivity"][-1].update(
            single_first=o["additivity"][-1]["single_first"] + 2e-6))
        return muts
    sections = {"decompose": lambda o: o, "classify": lambda o: o, "entropy": lambda o: o}
    pick = sections.get(cmd)

    def part(name):
        return pick if pick else (lambda o: o[name])

    if cmd in ("report", "decompose"):
        img = part("image")
        add("image status", lambda o: img(o).update(status="indeterminate"))
        if exp["kind"] == "polytopic":
            add("vertex count", lambda o: img(o).update(n_vertices=img(o)["n_vertices"] + 1))
            add("vertex dropped", lambda o: img(o)["vertex_states"].pop())

            def nudge(o):
                m = oracles._matrix(img(o)["vertex_states"][0])
                m = (1 - 1e-5) * m + 1e-5 * np.eye(m.shape[0]) / m.shape[0]
                img(o)["vertex_states"][0] = specs._mat(m)
            add("vertex state", nudge)
    if cmd in ("report", "classify"):
        cls = part("classification")
        for field in ("cq", "entanglement_breaking", "universally_image_additive", "ecq"):
            if cls(out)[field]["status"] != "indeterminate":
                add(f"{field} status",
                    lambda o, f=field: cls(o)[f].update(status="indeterminate"))
        if "min_pt" in exp:
            add("min pt eigenvalue", lambda o: cls(o)["entanglement_breaking"].update(
                min_pt_eigenvalue=exp["min_pt"] + 1e-8))
    if cmd in ("report", "entropy"):
        ent = part("entropy")
        for i in range(len(exp["entropy"])):
            add(f"entropy row {i}", lambda o, i=i: ent(o)["min_output"][i].update(
                value=ent(o)["min_output"][i]["value"] + 2e-6))
    if cmd == "report":
        add("not cptp", lambda o: o["cptp"].update(is_cptp=False))
        add("probe negative gap",
            lambda o: o["image_additivity_vs_identity"].update(max_gap=-1e-6))
        if exp.get("uia") == "yes":
            add("probe gap for eCQ",
                lambda o: o["image_additivity_vs_identity"].update(max_gap=2e-6))
        if "identity_gap_min" in exp:
            add("probe gap below r/2", lambda o: o["image_additivity_vs_identity"].update(
                max_gap=exp["identity_gap_min"] - 2e-6))
        if "blocks" in exp:
            add("fixed blocks", lambda o: o["fixed_points"]["blocks"].append(
                {"dimension": 1, "multiplicity": 1}))
            add("fixed dim", lambda o: o["fixed_points"].update(
                fixed_dim=o["fixed_points"]["fixed_dim"] + 1))
            add("fixed status", lambda o: o["fixed_points"].update(status="indeterminate"))
    return muts


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_oracles_accept_the_expected_output(op):
    assert oracles.check(op, json.dumps(correct_output(op))) == []


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_oracles_reject_each_perturbed_value(op):
    base = correct_output(op)
    muts = perturbations(op, base)
    assert muts
    for label, mutate in muts:
        out = copy.deepcopy(base)
        mutate(out)
        assert oracles.check(op, json.dumps(out)), f"{op.name}: {label} was accepted"


def test_unreadable_output_is_rejected():
    op = specs.build("joint", 0)[0]
    assert oracles.check(op, "not json")
    assert oracles.check(op, json.dumps({"max_gap": 0.25}))


def test_same_seed_same_specs_other_seed_other_specs():
    a = [op.specs for op in specs.build("polytopic", 5)]
    b = [op.specs for op in specs.build("polytopic", 5)]
    c = [op.specs for op in specs.build("polytopic", 6)]
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a) != json.dumps(c)
    assert [op.args for op in specs.build("round", 5)] == [op.args for op in specs.build("round", 6)]
