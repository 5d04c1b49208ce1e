import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import bloch_state, random_cptp

import chan_atlas
from chan_atlas import channels, pipeline
from chan_atlas.channels import (
    NotCptpError,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    map_distance,
    trine_channel,
    unital_qubit_diag,
)
from chan_atlas.cli import main
from chan_atlas.formats import (
    SpecFormatError,
    channel_from_dict,
    channel_to_dict,
    form_kind,
    load_channel,
    matrix_to_json,
)
from chan_atlas.geometry import image_boundary_2d
from chan_atlas.pipeline import load_report_schema, report_json, run_pipeline, validate_report
from chan_atlas.plotdata import write_boundary_csv, write_boundary_svg


def read_csv_rows(path):
    """Rows of a boundary CSV as floats, after checking its header."""
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["theta", "x", "y"]
    return np.array(rows, dtype=float)


def spec_file(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


TRINE_SPEC = {"format_version": "1", "kind": "trine"}
DEPOL_HALF = {"format_version": "1", "kind": "depolarizing", "r": 0.5}
DEPOL_THIRD = {"format_version": "1", "kind": "depolarizing", "r": 1 / 3}
NON_CP_SPEC = {"format_version": "1", "kind": "unital_qubit_diag",
               "lambdas": [0.9, 0.9, 0.1]}


# -- serialization round trips ------------------------------------------


def build_samples():
    rng = np.random.default_rng(0)
    kraus = random_cptp(rng, 2, 3)
    sig = [bloch_state(0.3, 0, 0.2), bloch_state(-0.1, 0.4, 0)]
    samples = [
        kraus,
        dephasing_channel(3),
        depolarizing_channel(0.4),
        unital_qubit_diag((0.5, 0.4, 0.2)),
        trine_channel(),
        cq_channel(np.eye(2, dtype=complex), sig),
        direct_sum(dephasing_channel(2), cq_channel(np.eye(2, dtype=complex), sig)),
    ]
    from chan_atlas.channels import choi_channel, ecq_channel, povm_channel

    samples.append(choi_channel(kraus.to_choi(), 2, 3))
    samples.append(povm_channel([np.eye(2, dtype=complex) / 2] * 2, sig))
    e0 = np.array([1.0, 0, 0], dtype=complex)
    e1 = np.array([0, 1.0, 0], dtype=complex)
    m = np.diag([0.0, 0.0, 1.0]).astype(complex)
    samples.append(ecq_channel([e0, e1], [m, np.zeros((3, 3), dtype=complex)], sig))
    return samples


def test_channel_dict_round_trips():
    for t in build_samples():
        d = channel_to_dict(t)
        assert d["format_version"] == "1"
        t2 = channel_from_dict(d)
        assert form_kind(t2) == form_kind(t)
        assert map_distance(t, t2) < 1e-10


def test_example_alias_matches_trine():
    t = channel_from_dict({"format_version": "1", "kind": "example_eq4"})
    assert map_distance(t, trine_channel()) < 1e-12


def test_spec_rejects_bad_version_and_kind():
    with pytest.raises(SpecFormatError, match="format_version"):
        channel_from_dict({"kind": "trine"})
    with pytest.raises(SpecFormatError, match="format_version"):
        channel_from_dict({"format_version": "0", "kind": "trine"})
    with pytest.raises(SpecFormatError, match="unknown kind"):
        channel_from_dict({"format_version": "1", "kind": "teleport"})
    with pytest.raises(SpecFormatError):
        channel_from_dict(["not", "an", "object"])


def test_spec_rejects_malformed_matrices():
    with pytest.raises(SpecFormatError, match="ragged"):
        channel_from_dict({"format_version": "1", "kind": "kraus",
                           "kraus": [[[1, 0], [0]]]})
    with pytest.raises(SpecFormatError, match="expected a number"):
        channel_from_dict({"format_version": "1", "kind": "kraus",
                           "kraus": [[["x", 0], [0, 1]]]})


_HALF = [[0.5, 0], [0, 0.5]]
_THIRD = (np.eye(3) / 3).tolist()
_ZERO = [[0, 0], [0, 0]]


@pytest.mark.parametrize("fields, message", [
    ({"kind": "kraus", "kraus": [[[1, 0], [0, 1]], np.eye(3).tolist()]},
     r"spec\.kraus\[1\]: shape \(3, 3\) differs from \(2, 2\) of kraus\[0\]"),
    ({"kind": "povm", "effects": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "states": [_HALF, _THIRD]},
     r"spec\.states\[1\]: shape \(3, 3\) differs from \(2, 2\) of states\[0\]"),
    ({"kind": "cq", "basis": [[1, 0], [0, 1]], "states": [_HALF, _THIRD]},
     r"spec\.states\[1\]: shape \(3, 3\) differs"),
    ({"kind": "ecq", "vectors": [[1, 0], [0, 1]], "tilde_effects": [_ZERO, _ZERO],
      "states": [_HALF, _THIRD]}, r"spec\.states\[1\]: shape \(3, 3\) differs"),
    ({"kind": "ecq", "vectors": [[1, 0], [0, 1, 0]], "tilde_effects": [_ZERO, _ZERO],
      "states": [_HALF, _HALF]},
     r"spec\.vectors\[1\]: shape \(3,\) differs from \(2,\) of vectors\[0\]"),
])
def test_ragged_spec_lists_name_the_field(tmp_path, capsys, fields, message):
    spec = {"format_version": "1", **fields}
    with pytest.raises(SpecFormatError, match=message):
        channel_from_dict(spec)
    assert main(["classify", spec_file(tmp_path, spec)]) == 2
    assert "error: spec." in capsys.readouterr().err


def test_spec_out_of_range_parameter_hits_the_cptp_gate():
    # the parser keeps the map representable; the CPTP gate rejects it
    with pytest.raises(NotCptpError):
        channel_from_dict({"format_version": "1", "kind": "depolarizing", "r": 2.0})
    t = channel_from_dict({"format_version": "1", "kind": "depolarizing",
                           "r": 2.0, "allow_non_cptp": True})
    assert not t.verify_cptp().is_cp
    rho = np.eye(2, dtype=complex) / 2
    np.testing.assert_allclose(t.apply(rho), rho, atol=1e-12)


def test_spec_non_cptp_gate():
    with pytest.raises(NotCptpError):
        channel_from_dict(NON_CP_SPEC)
    t = channel_from_dict({**NON_CP_SPEC, "allow_non_cptp": True})
    assert not t.verify_cptp().is_cp


def test_complex_entries_round_trip():
    sig = [bloch_state(0, 0.7, 0), bloch_state(0, -0.7, 0)]  # imaginary parts
    t = cq_channel(np.eye(2, dtype=complex), sig)
    d = channel_to_dict(t)
    assert map_distance(channel_from_dict(d), t) < 1e-12
    entry = d["states"][0][0][1]
    assert isinstance(entry, list) and len(entry) == 2  # [re, im]


def test_load_channel_missing_file(tmp_path):
    with pytest.raises(SpecFormatError, match="cannot read"):
        load_channel(str(tmp_path / "nope.json"))
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFormatError, match="not valid JSON"):
        load_channel(str(bad))


@pytest.mark.parametrize("extra", [{}, {"allow_non_cptp": True}])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, extra):
    path = tmp_path / "nan.json"
    head = '{"format_version": "1", "kind": "kraus", "kraus": [[[1, 0], [0, NaN]]]'
    path.write_text(head + "".join(f", {json.dumps(k)}: {json.dumps(v)}"
                                   for k, v in extra.items()) + "}")
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "spec.kraus[0]" in err and "non-finite" in err


@pytest.mark.parametrize("obj", [
    {"format_version": "1", "kind": "depolarizing", "r": float("inf")},
    {"format_version": "1", "kind": "unital_qubit_diag", "lambdas": [0.5, float("nan"), 0.1]},
    {"format_version": "1", "kind": "cq", "basis": [[1, 0], [0, [1, float("-inf")]]],
     "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
])
def test_spec_rejects_non_finite_fields(obj):
    with pytest.raises(SpecFormatError, match="non-finite"):
        channel_from_dict(obj)


# -- command line -------------------------------------------------------


def test_cli_classify_text(tmp_path, capsys):
    rc = main(["classify", spec_file(tmp_path, DEPOL_HALF)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "entanglement_breaking.status: no" in out
    assert "universally_image_additive.status: no" in out


def test_cli_classify_json(tmp_path, capsys):
    rc = main(["--format", "json", "classify", spec_file(tmp_path, DEPOL_THIRD)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entanglement_breaking"]["status"] == "yes"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys, tol):
    # at depolarizing 1/2 (PT eigenvalue -1/8) nan and inf once answered EB yes
    with pytest.raises(SystemExit) as exc:
        main([f"--tol={tol}", "classify", spec_file(tmp_path, DEPOL_HALF)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err and not captured.out


def test_cli_bits_renders_hex_floats(tmp_path, capsys):
    rc = main(["--bits", "classify", spec_file(tmp_path, DEPOL_HALF)])
    assert rc == 0
    assert "0x1." in capsys.readouterr().out


def test_cli_image_writes_boundary_csv(tmp_path, capsys):
    out = tmp_path / "boundary.csv"
    svg = tmp_path / "boundary.svg"
    rc = main(["image", spec_file(tmp_path, TRINE_SPEC),
               "--out", str(out), "--svg", str(svg), "--points", "64"])
    assert rc == 0
    rows = read_csv_rows(out)
    assert rows.shape == (64, 3)
    assert rows[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert rows[0, 1] == pytest.approx(0.408248290464, abs=1e-9)
    assert svg.read_text().lstrip().startswith("<svg") or "<svg" in svg.read_text()


@pytest.mark.parametrize("points,svg", [("0", False), ("0", True), ("-3", False)])
def test_cli_image_rejects_empty_boundary(tmp_path, capsys, points, svg):
    out = tmp_path / "boundary.csv"
    argv = ["image", spec_file(tmp_path, TRINE_SPEC), "--out", str(out), "--points", points]
    if svg:
        argv += ["--svg", str(tmp_path / "boundary.svg")]
    assert main(argv) == 2
    assert "need at least one boundary point" in capsys.readouterr().err
    assert not out.exists()


def test_cli_entropy(tmp_path, capsys):
    rc = main(["--format", "json", "entropy", spec_file(tmp_path, DEPOL_THIRD),
               "--p", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload["min_output"]
    assert rows[0]["p"] == 2.0
    assert rows[0]["value"] == pytest.approx(np.log(9 / 5), abs=1e-8)


def test_cli_additivity(tmp_path, capsys):
    spec = spec_file(tmp_path, {"format_version": "1", "kind": "cq",
                                "basis": [[1, 0], [0, 1]],
                                "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]})
    pair = spec_file(tmp_path, DEPOL_THIRD, name="pair.json")
    rc = main(["--format", "json", "additivity", spec, "--pair", pair, "--p", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["additivity"][0]
    assert row["p"] == 1.0
    assert -1e-7 <= row["gap"] <= 1e-6
    assert row["joint"] == pytest.approx(row["single_first"] + row["single_second"],
                                         abs=1e-6)


def test_cli_image_additivity_defaults_to_identity(tmp_path, capsys):
    rc = main(["--format", "json", "image-additivity", spec_file(tmp_path, DEPOL_HALF),
               "--directions", "30"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_gap"] == pytest.approx(0.25, abs=1e-6)


def test_cli_decompose_takes_no_directions_and_no_seed(tmp_path, capsys):
    # mixed square vertices (+) a disc block: the residual block is sampled,
    # from a fixed generator, so the output does not follow --seed
    square = [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0),
              bloch_state(0, 0.8, 0), bloch_state(0, -0.8, 0)]
    t = direct_sum(cq_channel(np.eye(4, dtype=complex), square),
                   unital_qubit_diag((0.5, 0.5, 0.0)))
    spec = spec_file(tmp_path, channel_to_dict(t))
    with pytest.raises(SystemExit) as exc:
        main(["decompose", spec, "--directions", "30"])
    assert exc.value.code == 2
    capsys.readouterr()
    outs = []
    for seed in ("0", "7"):
        assert main(["--seed", seed, "--format", "json", "decompose", spec]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    out = json.loads(outs[0])
    assert (out["status"], out["n_vertices"], out["residual_dim"]) == ("polytopic", 4, 2)
    assert out["max_support_excess"] < 0


def test_cli_fixed_points(tmp_path, capsys):
    spec = spec_file(tmp_path, {"format_version": "1", "kind": "cq",
                                "basis": [[1, 0], [0, 1]],
                                "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]})
    rc = main(["--format", "json", "fixed-points", spec])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["blocks"] == [{"dimension": 1, "multiplicity": 1}] * 2


def test_cli_fixed_points_of_redundant_identity(tmp_path, capsys):
    half = (np.eye(2) / np.sqrt(2)).tolist()
    spec = spec_file(tmp_path, {"format_version": "1", "kind": "kraus", "kraus": [half, half]})
    rc = main(["--format", "json", "fixed-points", spec])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["blocks"] == [{"dimension": 2, "multiplicity": 1}]
    assert payload["fixed_dim"] == 4


def test_cli_fixed_points_failed_cesaro_is_indeterminate(tmp_path, capsys):
    # amplitude damping at gamma = 1e-9
    gamma = 1e-9
    kraus = [[[1, 0], [0, np.sqrt(1 - gamma)]], [[0, np.sqrt(gamma)], [0, 0]]]
    spec = spec_file(tmp_path, {"format_version": "1", "kind": "kraus", "kraus": kraus})
    rc = main(["--format", "json", "fixed-points", spec])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "indeterminate"
    assert "Cesaro projection failed verification" in payload["reason"]
    assert payload["fixed_dim"] == 1


@pytest.mark.parametrize("r", [1 - 1e-8, 1 - 1e-9])
def test_cli_fixed_points_of_near_identity_depolarizing(tmp_path, capsys, r):
    spec = spec_file(tmp_path, {"format_version": "1", "kind": "depolarizing", "r": r})
    rc = main(["--format", "json", "fixed-points", spec])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok", payload["reason"]
    assert payload["blocks"] == [{"dimension": 1, "multiplicity": 2}]
    assert payload["fixed_dim"] == 1 and payload["support_dim"] == 2


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    bad = spec_file(tmp_path, {"format_version": "1", "kind": "nope"}, name="bad.json")
    assert main(["classify", bad]) == 2
    noncp = spec_file(tmp_path, NON_CP_SPEC, name="noncp.json")
    assert main(["classify", noncp]) == 3
    # the same map as a Choi spec, and as a block of a direct sum
    choi = matrix_to_json(channel_from_dict({**NON_CP_SPEC, "allow_non_cptp": True}).to_choi())
    as_choi = {"format_version": "1", "kind": "choi", "d_in": 2, "d_out": 2, "choi": choi}
    assert main(["classify", spec_file(tmp_path, as_choi, name="noncp_choi.json")]) == 3
    assert "map is not CPTP" in capsys.readouterr().err
    block = {k: v for k, v in NON_CP_SPEC.items() if k != "format_version"}
    nested = {"format_version": "1", "kind": "direct_sum", "blocks": [{"kind": "trine"}, block]}
    assert main(["classify", spec_file(tmp_path, nested, name="noncp_sum.json")]) == 3
    capsys.readouterr()  # drain stderr


def identity_kraus_spec(d):
    return {"format_version": "1", "kind": "kraus", "kraus": [np.eye(d).tolist()]}


def test_cli_rejects_specs_over_the_dimension_budget(tmp_path, capsys):
    big = spec_file(tmp_path, identity_kraus_spec(13), name="big.json")
    assert main(["classify", big]) == 2
    assert "spec: d_in * d_out = 13 * 13 exceeds the limit of 144" in capsys.readouterr().err
    block = {k: v for k, v in identity_kraus_spec(13).items() if k != "format_version"}
    nested = {"format_version": "1", "kind": "direct_sum", "blocks": [block, block]}
    with pytest.raises(SpecFormatError, match=r"spec\.blocks\[0\]: d_in \* d_out = 13 \* 13"):
        channel_from_dict(nested)
    t = load_channel(spec_file(tmp_path, identity_kraus_spec(12), name="ok.json"))
    assert (t.d_in, t.d_out) == (12, 12)


def test_cli_pair_commands_refuse_joint_maps_over_the_budget(tmp_path, capsys):
    big = spec_file(tmp_path, identity_kraus_spec(7), name="big.json")
    for command in ("image-additivity", "additivity"):
        assert main([command, big, "--pair", big]) == 2
        assert "joint map d_in = 49, d_out = 49 exceeds the limit of 36" in capsys.readouterr().err
    ok = spec_file(tmp_path, identity_kraus_spec(6), name="ok.json")
    assert main(["image-additivity", ok, "--pair", ok, "--directions", "4"]) == 0
    assert main(["additivity", ok, "--pair", ok, "--p", "2"]) == 0
    capsys.readouterr()


def test_cli_report_deterministic(tmp_path, capsys, monkeypatch):
    spec = spec_file(tmp_path, TRINE_SPEC)
    assert main(["report", spec]) == 0
    first = capsys.readouterr().out
    assert main(["report", spec]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["report_version"] == "1"
    assert payload["seed"] == 0
    # the trine alias parses to its concrete measure-and-prepare form
    assert payload["channel"] == {"kind": "povm", "d_in": 2, "d_out": 3}
    assert payload["image"]["status"] == "not_polytopic"
    assert payload["fixed_points"]["status"] == "skipped"
    assert "dimensions differ" in payload["fixed_points"]["reason"]
    monkeypatch.setenv("CHAN_ATLAS_SEED", "7")
    assert main(["report", spec]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7


@pytest.mark.parametrize("t", [depolarizing_channel(0.5), trine_channel(), dephasing_channel(3),
                               direct_sum(dephasing_channel(2), depolarizing_channel(0.2))],
                         ids=["depolarizing", "trine", "dephasing-3", "dephasing-depolarizing"])
def test_cli_report_bytes_do_not_depend_on_blas_threads(tmp_path, t):
    # each report runs in a child process; only the child's environment
    # sets the BLAS thread count
    path = spec_file(tmp_path, channel_to_dict(t))
    src = str(Path(chan_atlas.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "chan_atlas.cli", "report", path],
                             env=env, capture_output=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_cli_report_to_file_validates(tmp_path, capsys):
    spec = spec_file(tmp_path, DEPOL_THIRD)
    out = tmp_path / "report.json"
    assert main(["report", spec, "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    validate_report(payload)
    assert payload["classification"]["entanglement_breaking"]["status"] == "yes"
    assert payload["image_additivity_vs_identity"]["max_gap"] > 0.1


def test_shipped_report_schema_is_valid():
    # the runtime check runs once per process; a broken schema must still fail here
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_report_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_validate_report_checks_the_schema_once(monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    cls = jsonschema.validators.validator_for(load_report_schema())
    checked = []
    check_schema = cls.check_schema
    monkeypatch.setattr(cls, "check_schema",
                        lambda schema: checked.append(1) or check_schema(schema))
    pipeline._report_validator.cache_clear()
    rep = run_pipeline(unital_qubit_diag((0.9, 0.9, 0.1)))
    validate_report(rep)
    validate_report(rep)
    assert checked == [1]


@pytest.mark.parametrize("path, value", [(("seed",), None), (("cptp", "is_cp"), "yes"),
                                         (("image", "status"), "round")],
                         ids=["missing-seed", "cptp-type", "image-status"])
def test_validate_report_raises_what_jsonschema_validate_raises(path, value):
    jsonschema = pytest.importorskip("jsonschema")
    rep = run_pipeline(depolarizing_channel(0.9), p_values=(2.0,))
    *outer, key = path
    node = rep
    for k in outer:
        node = node[k]
    if value is None:
        del node[key]
    else:
        node[key] = value
    errors = []
    for check in (validate_report, lambda r: jsonschema.validate(r, load_report_schema())):
        with pytest.raises(jsonschema.ValidationError) as exc:
            check(rep)
        errors.append((exc.value.message, list(exc.value.path)))
    assert errors[0] == errors[1]


# -- pipeline internals -------------------------------------------------


def test_cptp_verdict_is_computed_once_per_channel(monkeypatch):
    made = []
    verdict = channels.CptpVerdict
    monkeypatch.setattr(channels, "CptpVerdict", lambda **kw: made.append(1) or verdict(**kw))
    t = trine_channel()
    run_pipeline(t)
    assert len(made) == 1  # one check for the whole report
    assert t.verify_cptp() is t.verify_cptp()
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.verify_cptp().is_cptp = False
    made.clear()
    run_pipeline(direct_sum(dephasing_channel(2), depolarizing_channel(0.2)))
    assert len(made) == 3  # the map, and each block once in the EB stage
    made.clear()
    choi = matrix_to_json(depolarizing_channel(0.5).to_choi())
    channel_from_dict({"format_version": "1", "kind": "choi", "d_in": 2, "d_out": 2,
                       "choi": choi})
    assert len(made) == 1  # choi_channel checks it; the loader reuses that verdict


def test_run_pipeline_skips_stages_for_non_cptp():
    t = unital_qubit_diag((0.9, 0.9, 0.1))
    rep = run_pipeline(t)
    assert not rep["cptp"]["is_cptp"]
    for name in ("image", "classification", "entropy", "fixed_points",
                 "image_additivity_vs_identity"):
        assert rep[name] == {"status": "skipped", "reason": "map is not CPTP"}
    validate_report(rep)


def test_run_pipeline_budget_guard():
    rep = run_pipeline(dephasing_channel(7), p_values=(1.0,))
    stage = rep["image_additivity_vs_identity"]
    assert stage["status"] == "skipped"
    assert "desk-scale budget" in stage["reason"]
    validate_report(rep)


def test_report_json_is_canonical():
    rep = run_pipeline(depolarizing_channel(0.9), p_values=(2.0,))
    blob = report_json(rep)
    assert blob.endswith("\n")
    assert json.loads(blob) == rep
    assert blob == report_json(json.loads(blob))


# -- plot data ----------------------------------------------------------


def test_boundary_csv_round_trip(tmp_path):
    rows = image_boundary_2d(trine_channel(), n_points=16)
    path = tmp_path / "rows.csv"
    write_boundary_csv(str(path), rows)
    back = read_csv_rows(path)
    np.testing.assert_allclose(back, rows, atol=1e-12)


def test_boundary_svg_exists(tmp_path):
    rows = image_boundary_2d(trine_channel(), n_points=16)
    path = tmp_path / "rows.svg"
    write_boundary_svg(str(path), rows)
    text = path.read_text()
    assert "<svg" in text and "polygon" in text or "path" in text


def test_report_and_classify_search_vertices_once(tmp_path, capsys, monkeypatch):
    from chan_atlas import geometry

    calls = []
    find = geometry.find_vertices

    def counted(*args, **kwargs):
        calls.append(args)
        return find(*args, **kwargs)

    monkeypatch.setattr(geometry, "find_vertices", counted)
    run_pipeline(depolarizing_channel(0.5))
    assert len(calls) == 1
    calls.clear()
    assert main(["classify", spec_file(tmp_path, DEPOL_HALF)]) == 0
    assert len(calls) == 1
