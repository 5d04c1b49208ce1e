import csv
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    amplitude_damping,
    assembled_polytopic_fixture,
    bloch_state,
    channel_to_dict,
    count_runs,
    ecq_fixture,
    fresh_output,
    random_cptp,
)

import chan_atlas
from chan_atlas import channels, cli, geometry, pipeline
from chan_atlas.channels import (
    NotCptpError,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    kraus_channel,
    map_distance,
    trine_channel,
    unital_qubit_diag,
)
from chan_atlas.cli import main
from chan_atlas.entropy import min_output_entropy
from chan_atlas.formats import (
    SpecFormatError,
    channel_from_dict,
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
    for r in (2.0, 1.2, -0.5, -1.0):
        spec = {"format_version": "1", "kind": "depolarizing", "r": r}
        with pytest.raises(NotCptpError):
            channel_from_dict(spec)
        t = channel_from_dict({**spec, "allow_non_cptp": True})
        assert form_kind(t) == "choi"
        v = t.verify_cptp()
        assert not v.is_cp
        assert v.min_choi_eigenvalue == pytest.approx(min((1 + 3 * r) / 4, (1 - r) / 4),
                                                      abs=1e-15)
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


@pytest.mark.parametrize("content, cause", [
    (b"\xff" + json.dumps(DEPOL_THIRD).encode(), "'utf-8' codec can't decode byte 0xff in "
                                                  "position 0: invalid start byte"),
    (b'{"format_version": "1", "kind": "depolarizing", "r": ' + b"1" * 5000 + b"}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
    (b"[" * 1000 + b"]" * 1000, "maximum recursion depth exceeded while decoding a JSON array"),
    (b'{"format_version": "1", "kind": "kraus", "kraus": [' + b"[" * 5000 + b"1" + b"]" * 5001
     + b"}", "maximum recursion depth exceeded while decoding a JSON array"),
], ids=["not-utf8", "digit-limit", "nested-1000", "nested-5000"])
def test_cli_unreadable_spec_exits_2_naming_the_file(tmp_path, capsys, content, cause):
    # json.load fails without a JSONDecodeError: the file is still named, exit 2
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    with pytest.raises(SpecFormatError) as exc:
        load_channel(str(path))
    assert str(exc.value).startswith(f"cannot read {path}: {cause}")
    assert main(["decompose", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: {cause}")


@pytest.mark.parametrize("extra", [{}, {"allow_non_cptp": True}], ids=["cptp", "allow"])
def test_cli_non_hermitian_choi_exits_2_naming_the_field(tmp_path, capsys, extra):
    # a map that does not preserve Hermiticity is refused as malformed, also
    # under allow_non_cptp, where it used to load and decompose
    choi = [[0.5, 0, 0, 0.5], [0, 0, 0.3, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]
    spec = spec_file(tmp_path, {"format_version": "1", "kind": "choi", "d_in": 2, "d_out": 2,
                                "choi": choi, **extra})
    for command in ("decompose", "report"):
        assert main([command, spec]) == 2
        assert capsys.readouterr() == ("", "error: spec.choi: Choi matrix is not Hermitian\n")


def nested_direct_sum(levels):
    """``levels`` direct sums, each of a 1 -> 1 leaf and the next level."""
    leaf = {"kind": "kraus", "kraus": [[[1]]]}
    spec = leaf
    for _ in range(levels):
        spec = {"kind": "direct_sum", "blocks": [leaf, spec]}
    return {"format_version": "1", **spec}


def test_direct_sum_of_checked_blocks_is_not_checked_again(tmp_path, monkeypatch, capsys):
    # a direct sum of CPTP maps is CPTP: the 143-level spec checks its 144
    # leaves once each and none of its sums (287 checks, 0.27 s before)
    runs = count_runs(monkeypatch, channels.Channel.verify_cptp)
    deepest = load_channel(spec_file(tmp_path, nested_direct_sum(143)))
    assert len(runs) == 144 and all(t.d_in == 1 for t in runs)
    assert deepest.d_in == 144
    # a sum holding an allow_non_cptp block checks itself, and a non-CPTP
    # one still exits 3
    runs.clear()
    leaf = {"kind": "kraus", "kraus": [[[1]]]}
    spec = {"format_version": "1", "kind": "direct_sum",
            "blocks": [{**leaf, "allow_non_cptp": True}, leaf]}
    assert load_channel(spec_file(tmp_path, spec, name="allowed.json")).d_in == 2
    assert [t.d_in for t in runs] == [1, 2]  # the checked leaf, then the sum
    half = {"kind": "kraus", "kraus": [[[0.5]]], "allow_non_cptp": True}
    spec["blocks"][0] = half
    assert main(["classify", spec_file(tmp_path, spec, name="half.json")]) == 3
    assert "map is not CPTP" in capsys.readouterr().err


def test_cli_linear_algebra_failure_exits_4_naming_the_command(tmp_path, monkeypatch, capsys):
    # a LinAlgError is a ValueError, but no fault of the spec: not exit 2;
    # the message names the command and the innermost function of the package
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["entropy", spec_file(tmp_path, TRINE_SPEC)]) == 4
    assert capsys.readouterr() == ("", "error: entropy: LinAlgError in geometry.input_blocks: "
                                       "Eigenvalues did not converge\n")


def test_cli_direct_sum_nesting_stops_at_the_dimension_budget(tmp_path, capsys):
    # each level adds at least 1 to d_in, so 143 levels of 1 -> 1 leaves is
    # the deepest valid spec; a deeper one is refused before the reader
    # recurses (400 levels used to end in a RecursionError traceback)
    deepest = load_channel(spec_file(tmp_path, nested_direct_sum(143)))
    assert (deepest.d_in, deepest.d_out) == (144, 1)
    assert main(["decompose", spec_file(tmp_path, nested_direct_sum(400), name="deep.json")]) == 2
    assert capsys.readouterr() == ("", "error: spec" + ".blocks[1]" * 143 + ".blocks[0]: "
                                   "direct_sum nested deeper than 143 levels\n")


@pytest.mark.parametrize("entry", [0, 1e-200], ids=["zero", "underflow"])
def test_cli_decompose_of_a_rank_0_map_is_one_point(tmp_path, capsys, entry):
    # the zero map, and a map whose natural matrix underflows to zero, have a
    # one-point image: the zero matrix, of affine dimension 0
    path = spec_file(tmp_path, {"format_version": "1", "kind": "kraus", "allow_non_cptp": True,
                                "kraus": [[[entry, 0], [0, entry]]]})
    assert main(["--format", "json", "decompose", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["n_vertices"], out["n_dof"]) == ("polytopic", 1, 0)
    assert (out["character_affine_dim"], out["image_affine_dim"]) == (0, 0)
    assert out["vertex_states"] == [[[0.0, 0.0], [0.0, 0.0]]]


def test_cli_refused_entry_is_quoted_up_to_a_bound(tmp_path, capsys):
    # an entry that is a list of 100,000 integers used to be quoted whole, a
    # 689,000-character line; the message names the field and quotes a prefix
    path = spec_file(tmp_path, kraus_entry_spec(list(range(100_000))))
    assert main(["decompose", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 200
    assert err.startswith("error: spec.kraus[0] row 1[1]: expected a number or [re, im], "
                          "got [0, 1, 2, 3, ")
    assert err.endswith("... (688890 characters)\n")


@pytest.mark.parametrize("argv, code", [(["decompose"], 2), (["report", "x", "--bogus"], 2),
                                        (["--help"], 0), (["decompose", "--help"], 0)])
def test_cli_main_returns_the_usage_exit_code(capsys, argv, code):
    # argparse's SystemExit stays inside main: in-process callers get the code
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert ("usage: chan-atlas" in out) if code == 0 else err.startswith("usage: chan-atlas")


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


def kraus_entry_spec(entry, **extra):
    return {"format_version": "1", "kind": "kraus", "kraus": [[[1, 0], [0, entry]]], **extra}


@pytest.mark.parametrize("entry", [1e160, 1e308, -1e51, [0, 1e160], 10 ** 400],
                         ids=["1e160", "1e308", "-1e51", "imaginary-1e160", "int-1e400"])
@pytest.mark.parametrize("extra", [{}, {"allow_non_cptp": True}], ids=["cptp", "allow"])
def test_cli_rejects_numbers_over_the_magnitude_bound(tmp_path, capsys, entry, extra):
    # a huge finite entry is refused by the reader, naming it, before any
    # analysis could overflow; the test configuration turns RuntimeWarning
    # into an error, so a warning fails here too
    path = spec_file(tmp_path, kraus_entry_spec(entry, **extra))
    for command in ("report", "decompose"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: spec.kraus[0] row 1[1]: number ")
        assert err.endswith(" exceeds the magnitude limit of 1e+50\n")


@pytest.mark.parametrize("obj, path", [
    ({"format_version": "1", "kind": "depolarizing", "r": -1e60}, r"spec\.r: number -1e\+60 "),
    ({"format_version": "1", "kind": "unital_qubit_diag", "lambdas": [0.5, 1e60, 0.1]},
     r"spec\.lambdas\[1\]: number 1e\+60 "),
    ({"format_version": "1", "kind": "cq", "basis": [[1, 0], [0, [1, 2e50]]],
      "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}, r"spec\.basis row 1\[1\]: number 2e\+50 "),
])
def test_spec_rejects_numbers_over_the_magnitude_bound(obj, path):
    with pytest.raises(SpecFormatError, match=path + "exceeds the magnitude limit of 1e\\+50$"):
        channel_from_dict(obj)


def test_spec_numbers_at_the_magnitude_bound_load(tmp_path, capsys):
    # the bound itself is a number; a map with such an entry is analysed
    # without overflow, or refused by the CPTP gate
    path = spec_file(tmp_path, kraus_entry_spec(1e50))
    assert main(["report", path]) == 3
    assert "map is not CPTP" in capsys.readouterr().err
    allowed = spec_file(tmp_path, kraus_entry_spec(-1e50, allow_non_cptp=True), name="allow.json")
    for argv in (["decompose", allowed], ["report", allowed],
                 ["image", allowed, "--out", str(tmp_path / "b.csv")]):
        assert main(argv) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("field, value", [("allow_non_cptp", "no"), ("allow_non_cptp", 0),
                                          ("allow_non_cptp", None), ("d_in", True),
                                          ("d_out", True), ("d_in", 2.0), ("d_out", 0)])
def test_cli_spec_flags_and_dimensions_must_have_their_type(tmp_path, capsys, field, value):
    # "no" is a true value in Python, and True an int equal to 1: neither may
    # stand in for a JSON boolean or integer
    twice_identity = {"format_version": "1", "kind": "kraus", "kraus": [[[2, 0], [0, 2]]]}
    choi = {"format_version": "1", "kind": "choi", "d_in": 2, "d_out": 2,
            "choi": matrix_to_json(depolarizing_channel(0.5).to_choi())}
    spec = {**(twice_identity if field == "allow_non_cptp" else choi), field: value}
    path = spec_file(tmp_path, spec)
    expected = "true or false" if field == "allow_non_cptp" else "a positive integer"
    assert main(["report", path]) == 2
    assert capsys.readouterr().err == f"error: spec: field {field!r} must be {expected}\n"
    # a direct-sum block is read by the same rule and named by its path
    block = {k: v for k, v in spec.items() if k != "format_version"}
    nested = {"format_version": "1", "kind": "direct_sum", "blocks": [{"kind": "trine"}, block]}
    with pytest.raises(SpecFormatError, match=rf"^spec\.blocks\[1\]: field {field!r} must be"):
        channel_from_dict(nested)


def test_spec_reads_numpy_scalars_and_refuses_booleans():
    # exact float and int take the fast path; other real types still load,
    # and a JSON true or false is no number
    spec = {"format_version": "1", "kind": "kraus",
            "kraus": [[[np.float64(1.0), np.int64(0)], [0, [np.float32(1.0), 0.0]]]]}
    assert map_distance(channel_from_dict(spec), kraus_channel([np.eye(2)])) == 0.0
    for entry in (True, [1, False]):
        spec["kraus"][0][1][1] = entry
        with pytest.raises(SpecFormatError,
                           match=r"^spec\.kraus\[0\] row 1\[1\]: expected a number or \[re, im\]"):
            channel_from_dict(spec)


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


def test_bound_keys_follow_the_certificate(tmp_path, capsys):
    # trine has no vertex certificate: a sampled probe, but a qubit input, so
    # H_2 is exact from the Bloch ball and closes the p = 1 minimizer's bracket
    report = run_pipeline(trine_channel())
    validate_report(report)
    probe = report["image_additivity_vs_identity"]
    assert probe["certified_positive"] and probe["rhs_bound"] == "lower"
    assert [row["bound"] for row in report["entropy"]["min_output"]] == ["exact", "exact"]
    # a random 3 -> 3 map has no certificate, no blocks and no qubit input:
    # minimizer entropies at every order
    t = random_cptp(np.random.default_rng(7), 3, 3)
    report = run_pipeline(t)
    validate_report(report)
    assert [row["bound"] for row in report["entropy"]["min_output"]] == ["upper", "upper"]
    assert all(min_output_entropy(t, p).n_starts > 0 for p in (1.0, 2.0))
    # dephasing(3) is CQ: exact probe and exact entropies
    report = run_pipeline(dephasing_channel(3))
    validate_report(report)
    probe = report["image_additivity_vs_identity"]
    assert not probe["certified_positive"] and probe["rhs_bound"] == "exact"
    assert abs(probe["max_gap"]) <= 1e-12
    assert [row["bound"] for row in report["entropy"]["min_output"]] == ["exact", "exact"]
    assert [row["value"] for row in report["entropy"]["min_output"]] == [0.0, 0.0]
    # the CLI rows carry the same keys
    cq = spec_file(tmp_path, {"format_version": "1", "kind": "cq", "basis": [[1, 0], [0, 1]],
                              "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]})
    third = spec_file(tmp_path, DEPOL_THIRD, name="third.json")
    assert main(["--format", "json", "entropy", cq, "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["min_output"][0]["bound"] == "exact"
    assert main(["--format", "json", "additivity", cq, "--pair", third, "--p", "2"]) == 0
    row = json.loads(capsys.readouterr().out)["additivity"][0]
    # the qubit partner is exact from its Bloch ball, -log((1 + r^2)/2) at r = 1/3
    assert row["gap"] == 0.0 and row["bound"] == "exact"
    assert row["single_second"] == pytest.approx(-np.log((1 + 1 / 9) / 2), abs=1e-12)
    assert main(["--format", "json", "image-additivity", third, "--directions", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["rhs_bound"] == "lower"
    assert main(["--format", "json", "image-additivity", third, "--pair", cq,
                 "--directions", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["rhs_bound"] == "exact"


def test_pure_minimal_entropies_print_as_positive_zero():
    # a pure minimum is 0.0, never -0.0: dephasing(3) through its vertex
    # certificate, amplitude damping through its Bloch ball
    for t in (dephasing_channel(3), amplitude_damping(0.3)):
        report = run_pipeline(t)
        assert "-0.0" not in report_json(report)
        for row in report["entropy"]["min_output"]:
            assert row["value"] == 0.0 and np.copysign(1.0, row["value"]) == 1.0
            assert row["bound"] == "exact"


def test_cli_decompose_takes_no_directions_and_no_seed(tmp_path, capsys):
    # mixed square vertices (+) a disc block, whose residual block the facets
    # of the square decide, and a pinching, whose fixed algebra needs generic
    # elements: decompose, classify, fixed-points and the matching report
    # sections draw nothing, so they do not follow --seed
    square = [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0),
              bloch_state(0, 0.8, 0), bloch_state(0, -0.8, 0)]
    t = direct_sum(cq_channel(np.eye(4, dtype=complex), square),
                   unital_qubit_diag((0.5, 0.5, 0.0)))
    spec = spec_file(tmp_path, channel_to_dict(t))
    pinching = spec_file(tmp_path, channel_to_dict(kraus_channel(
        [np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)])),
        name="pinching.json")
    assert main(["decompose", spec, "--directions", "30"]) == 2
    capsys.readouterr()
    runs = [(command, path) for path in (spec, pinching) for command in ("decompose", "classify")]
    runs += [("fixed-points", pinching), ("report", spec), ("report", pinching)]
    outs = {}
    for seed in ("0", "7"):
        for command, path in runs:
            assert main(["--seed", seed, "--format", "json", command, path]) == 0
            out = json.loads(capsys.readouterr().out)
            if command == "report":
                out = {k: out[k] for k in ("image", "classification", "fixed_points")}
            outs.setdefault((command, path), []).append(out)
    for key, (first, second) in outs.items():
        assert first == second, key
    out = outs["decompose", spec][0]
    assert (out["status"], out["n_vertices"], out["residual_dim"]) == ("polytopic", 4, 2)
    assert out["max_support_excess"] == pytest.approx(0.5 / np.sqrt(2) - 0.4, abs=1e-12)
    blocks = outs["fixed-points", pinching][0]["blocks"]
    assert sorted((b["dimension"], b["multiplicity"]) for b in blocks) == [(1, 1), (2, 1)]


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


NON_CHANNEL_SPECS = {
    "half_identity": {"format_version": "1", "kind": "kraus", "kraus": [_HALF],
                      "allow_non_cptp": True},
    "signed_unital": {"format_version": "1", "kind": "unital_qubit_diag",
                      "lambdas": [0.5, -0.5, 1], "allow_non_cptp": True},
}


@pytest.mark.parametrize("name", NON_CHANNEL_SPECS)
def test_cli_analyses_need_a_channel(tmp_path, capsys, name):
    # allow_non_cptp lets a map load; only the channel analyses refuse it
    spec = spec_file(tmp_path, NON_CHANNEL_SPECS[name])
    for argv in (["classify", spec], ["entropy", spec], ["additivity", spec, "--pair", spec],
                 ["image-additivity", spec], ["fixed-points", spec]):
        assert main(argv) == 3, argv
        assert "map is not CPTP" in capsys.readouterr().err
    assert main(["decompose", spec]) == 0
    assert main(["image", spec, "--out", str(tmp_path / "boundary.csv")]) == 0
    capsys.readouterr()
    assert main(["report", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [report[s]["status"] for s in ("image", "classification", "entropy", "fixed_points",
                                          "image_additivity_vs_identity")] == ["skipped"] * 5


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


def test_cli_image_additivity_refuses_directions_over_the_budget(tmp_path, capsys):
    spec = spec_file(tmp_path, DEPOL_HALF)
    assert main(["image-additivity", spec, "--directions", "100000000"]) == 2
    assert capsys.readouterr().err == ("error: --directions 100000000 needs 100000000 x 4^2 "
                                       "matrix entries, over the limit of 1048576\n")


def test_cli_image_refuses_points_over_the_budget(tmp_path, capsys):
    out = tmp_path / "boundary.csv"
    argv = ["image", spec_file(tmp_path, TRINE_SPEC), "--out", str(out)]
    assert main([*argv, "--points", "1000000000000"]) == 2
    assert capsys.readouterr().err == ("error: --points 1000000000000 needs 1000000000000 x 3^2 "
                                       "matrix entries, over the limit of 1048576\n")
    assert not out.exists()


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


@pytest.mark.parametrize("value, reason", [
    ("-1", "fit in an unsigned 64-bit integer, got '-1'"),
    (str(2 ** 64), f"fit in an unsigned 64-bit integer, got '{2 ** 64}'"),
    ("abc", "be an integer, got 'abc'"),
])
def test_cli_env_seed_follows_the_seed_range(tmp_path, capsys, monkeypatch, value, reason):
    # the variable is read by the same rule as --seed, for every command
    spec = spec_file(tmp_path, DEPOL_HALF)
    csv = tmp_path / "boundary.csv"
    commands = (["classify", spec], ["image", spec, "--out", str(csv)], ["decompose", spec],
                ["entropy", spec], ["additivity", spec, "--pair", spec],
                ["image-additivity", spec], ["fixed-points", spec], ["report", spec])
    monkeypatch.setenv("CHAN_ATLAS_SEED", value)
    for argv in commands:
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: CHAN_ATLAS_SEED: seed must {reason}\n")
    assert not csv.exists()
    # --seed overrides the variable, which is then not read
    assert main(["--seed", "7", "report", spec]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    assert main(["--seed", value, "report", spec]) == 2
    assert f"argument --seed: seed must {reason}" in capsys.readouterr().err


def cli_call(capsys, argv):
    """Exit code, standard output and standard error of one in-process call."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_calls_in_one_process_leak_no_option(tmp_path, capsys):
    # the parser is built once per process; an option given to one call must
    # not reach the next, so each second call prints what it prints first
    spec = spec_file(tmp_path, DEPOL_THIRD)
    written = tmp_path / "report.json"
    pairs = [(["entropy", spec, "--p", "2"], ["entropy", spec]),
             (["report", spec, "--timings"], ["report", spec]),
             (["report", spec, "--out", str(written)], ["report", spec]),
             (["--format", "json", "--bits", "classify", spec], ["classify", spec]),
             (["entropy"], ["entropy", spec]),
             (["report", spec, "--bogus"], ["--format", "json", "report", spec])]
    cli._build_parser.cache_clear()
    for before, after in pairs:
        alone = cli_call(capsys, after)
        assert alone[0] == 0 and alone[1] and not alone[2], after
        cli_call(capsys, before)
        assert cli_call(capsys, after) == alone, (before, after)
    assert cli._build_parser.cache_info().misses == 1
    assert json.loads(written.read_text())["seed"] == 0
    rows = json.loads(cli_call(capsys, ["--format", "json", "entropy", spec])[1])["min_output"]
    assert [row["p"] for row in rows] == [1.0, 2.0]
    assert cli_call(capsys, ["entropy"])[0] == 2


def test_cli_runs_the_handler_on_the_module(tmp_path, capsys, monkeypatch):
    # handlers are looked up by name at call time, so one replaced after the
    # parser was built (a test double, the benchmark's tracer) is the one run
    spec = spec_file(tmp_path, TRINE_SPEC)
    assert main(["decompose", spec]) == 0
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: ran.append((args.command, args.spec)))
    assert main(["report", spec]) == 0
    assert ran == [("report", spec)]
    assert capsys.readouterr() == ("", "")


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


@pytest.mark.parametrize("spec, n_ran", [(DEPOL_HALF, 5), (TRINE_SPEC, 4),
                                         (identity_kraus_spec(7), 4),
                                         ({**NON_CP_SPEC, "allow_non_cptp": True}, 0)],
                         ids=["all-stages", "not-square", "over-the-budget", "not-cptp"])
def test_cli_report_timings_hold_the_stages_that_ran(tmp_path, capsys, spec, n_ran):
    # the benchmark reads its stage times from here
    path = spec_file(tmp_path, spec)
    assert main(["report", path]) == 0
    assert "timings" not in json.loads(capsys.readouterr().out)
    assert main(["report", path, "--timings"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate_report(payload)
    ran = {name for name in ("image", "classification", "entropy", "fixed_points",
                             "image_additivity_vs_identity")
           if payload[name].get("status") != "skipped"}
    assert len(ran) == n_ran and set(payload["timings"]) == ran
    assert all(isinstance(v, float) and 0.0 <= v < float("inf")
               for v in payload["timings"].values())


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


def _mutations(node, path=()):
    """``(path, value)`` replacements of every node of a report: wrong types,
    scalars and their pairs, and sections that look like ``not_run``."""
    wrong = [None, "x", True, -1.5, [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], ["a", "b"],
             {"status": "skipped", "reason": "r"}]
    if path:
        for value in wrong:
            yield path, value
        yield path, DELETE
    if isinstance(node, dict):
        yield path + ("extra",), {"status": "ok"}
        for k, v in node.items():
            yield from _mutations(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node[:2]):
            yield from _mutations(v, path + (i,))


DELETE = object()


def test_flat_report_schema_accepts_what_the_nested_one_accepts():
    # the shipped schema, with its scalar flattened, the matrix inlined and
    # each section listed before not_run, against the nested one it replaced
    jsonschema = pytest.importorskip("jsonschema")
    nested = json.loads((Path(__file__).parent / "data" / "report_schema_nested.json").read_text())
    flat = load_report_schema()
    checks = [jsonschema.validators.validator_for(s)(s).is_valid for s in (nested, flat)]
    reports = [run_pipeline(t, p_values=(2.0,)) for t in
               (dephasing_channel(2), unital_qubit_diag((0.9, 0.9, 0.1)))]
    reports[0]["fixed_points"] = {"status": "error", "reason": "r"}
    count = 0
    for rep in reports:
        assert checks[0](rep) and checks[1](rep)
        for path, value in _mutations(rep):
            m = json.loads(json.dumps(rep))
            *up, key = path
            node = m
            for k in up:
                node = node[k]
            if value is DELETE:
                del node[key]
            else:
                node[key] = value
            verdicts = [check(m) for check in checks]
            assert verdicts[0] == verdicts[1], (path, value)
            count += not verdicts[0]
    assert count > 500  # the corpus rejects as well as accepts


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
    # the map, and its 2-dim input block once in the EB stage (its input
    # blocks are 1 + 1 + 2, and a 1-dim block needs no check)
    assert len(made) == 2
    made.clear()
    choi = matrix_to_json(depolarizing_channel(0.5).to_choi())
    channel_from_dict({"format_version": "1", "kind": "choi", "d_in": 2, "d_out": 2,
                       "choi": choi})
    assert len(made) == 1  # choi_channel checks it; the loader reuses that verdict


def _kept_bodies():
    """Every accessor that ``channels.kept`` made in the package, by qualified
    name: they all share the code of its inner function."""
    code = channels.kept(lambda t: t).__code__
    spaces = [vars(importlib.import_module(f"chan_atlas.{m.name}"))
              for m in pkgutil.iter_modules(chan_atlas.__path__)] + [vars(channels.Channel)]
    return {f"{f.__module__}.{f.__qualname__}": f for space in spaces for f in space.values()
            if getattr(f, "__code__", None) is code}


def test_report_runs_each_kept_body_once_per_channel(monkeypatch):
    # every result that depends on the channel alone is computed at most once
    # per channel in a whole report, on every channel the report builds; the
    # ones every report needs run exactly once on its own channel
    every = _kept_bodies()
    needed = [f"chan_atlas.{name}" for name in (
        "channels.Channel.to_choi", "channels.Channel.verify_cptp", "geometry._adjoint_range",
        "geometry.input_blocks", "geometry._decompose", "classify.is_cq",
        "classify.is_universally_image_additive")]
    unguarded = ["geometry.block_restrictions", "entropy._bloch_peak", "entropy._qubit_pencil"]
    assert set(needed) | {f"chan_atlas.{name}" for name in unguarded} <= set(every)
    runs = {name: count_runs(monkeypatch, get) for name, get in every.items()}
    for t in (trine_channel(), depolarizing_channel(0.5), dephasing_channel(3),
              assembled_polytopic_fixture(0)[0], ecq_fixture(1)[0]):
        run_pipeline(t)
        assert all(runs[name].count(t) == 1 for name in needed), t
    for name, ran in runs.items():
        assert all(ran.count(c) == 1 for c in ran), name


def test_run_pipeline_skips_stages_for_non_cptp():
    t = unital_qubit_diag((0.9, 0.9, 0.1))
    rep = run_pipeline(t)
    assert not rep["cptp"]["is_cptp"]
    for name in ("image", "classification", "entropy", "fixed_points",
                 "image_additivity_vs_identity"):
        assert rep[name] == {"status": "skipped", "reason": "map is not CPTP"}
    validate_report(rep)


def test_report_stage_error_names_the_innermost_function(monkeypatch):
    # a LAPACK failure inside the qubit entropy solve, and a failure raised
    # below the fixed-point stage by a function outside the package
    from chan_atlas import entropy

    nan_map = types.SimpleNamespace(linear=np.full((3, 3), np.nan), shift=np.zeros(3))
    monkeypatch.setattr(entropy, "bloch_map", lambda t: nan_map)

    def fail(t):
        raise RuntimeError("no structure")

    monkeypatch.setattr(pipeline, "fixed_point_structure", fail)
    rep = run_pipeline(amplitude_damping(0.3))
    assert rep["entropy"] == {"status": "error",
                              "reason": "LinAlgError in entropy._sphere_peak: "
                                        "SVD did not converge"}
    assert rep["fixed_points"] == {"status": "error",
                                   "reason": "RuntimeError in pipeline.fixed_point_stage: "
                                             "no structure"}
    assert rep["classification"]["cq"]["status"] == "no"
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


def test_runtime_imports_numpy_alone():
    # the command line and a full report load no test-side or optional
    # package; jsonschema is imported only inside validate_report
    code = (
        "import sys\n"
        "import chan_atlas.cli\n"
        "from chan_atlas.channels import trine_channel\n"
        "from chan_atlas.pipeline import run_pipeline\n"
        "run_pipeline(trine_channel())\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}\n"
        "             & {'scipy', 'jsonschema', 'hypothesis', 'pytest'}))\n"
    )
    assert fresh_output(code) == "[]\n"


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first call of main, so the import (which the
    # benchmark times as set-up) pays nothing for it
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import chan_atlas.cli\n"
        "print(len(built), chan_atlas.cli._build_parser.cache_info().currsize)\n"
    )
    assert fresh_output(code) == "0 0\n"


def test_public_names_are_used_by_the_package_or_documented():
    # a public name must be reached from another module of the package, named
    # in the README or used by an acceptance criterion; a name only the tests
    # reach belongs in the tests
    src = Path(chan_atlas.__file__).parent
    root = src.parents[1]
    modules = [p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))
               if p.name != "__init__.py"]
    readme = (root / "README.md").read_text(encoding="utf-8")
    acceptance = (root / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    unused = []
    for name in chan_atlas.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class) {re.escape(name)}\b")
        in_src = any(word.search(line) and not own.match(line)
                     for text in modules for line in text.splitlines())
        if not (in_src or word.search(readme) or word.search(acceptance)):
            unused.append(name)
    assert unused == []
