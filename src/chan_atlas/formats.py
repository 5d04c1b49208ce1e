"""JSON channel descriptions (format_version "1").

A spec is a JSON object with ``format_version``, a ``kind``, and the data
fields for that kind.  Complex entries are written as two-element arrays
``[re, im]``; bare numbers are taken as real.  Matrices are row lists.

Kinds: ``kraus``, ``choi``, ``povm``, ``ecq``, ``cq``, ``direct_sum``,
``depolarizing``, ``unital_qubit_diag``, ``trine`` (alias ``example_eq4``).
Specs are rejected as malformed with :class:`SpecFormatError`, also when
``d_in * d_out`` exceeds :data:`MAX_DIM_PRODUCT`; maps that parse but fail
complete positivity or trace preservation raise
:class:`~.channels.NotCptpError` unless the spec sets ``allow_non_cptp``.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .channels import (
    Channel,
    ChoiForm,
    CqForm,
    DirectSumForm,
    EcqForm,
    KrausForm,
    NotCptpError,
    PovmForm,
    choi_channel,
    cq_channel,
    depolarizing_channel,
    direct_sum,
    ecq_channel,
    kraus_channel,
    povm_channel,
    trine_channel,
    unital_qubit_diag,
)

FORMAT_VERSION = "1"

# Largest d_in * d_out a spec may declare: the analyses grow steeply with the
# dimensions (the fixed-point stage alone holds O(d^6) numbers).
MAX_DIM_PRODUCT = 144


class SpecFormatError(ValueError):
    pass


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _finite(x, where):
    """``x`` itself; JSON's NaN and Infinity are rejected with the field path."""
    if not math.isfinite(x):
        raise SpecFormatError(f"{where}: non-finite number {x!r}")
    return x


def _scalar(x, where):
    if _is_real(x):
        return complex(_finite(x, where))
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(_is_real(v) for v in x):
        return complex(_finite(x[0], where), _finite(x[1], where))
    raise SpecFormatError(f"{where}: expected a number or [re, im], got {x!r}")


def _real(obj, key, where):
    x = obj.get(key)
    if not _is_real(x):
        raise SpecFormatError(f"{where}: field {key!r} must be a real number")
    return float(_finite(x, f"{where}.{key}"))


def _vector(x, where):
    if not isinstance(x, (list, tuple)) or not x:
        raise SpecFormatError(f"{where}: expected a nonempty array")
    return np.array([_scalar(v, f"{where}[{i}]") for i, v in enumerate(x)])


def _matrix(x, where):
    if not isinstance(x, (list, tuple)) or not x:
        raise SpecFormatError(f"{where}: expected a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(x):
        r = _vector(row, f"{where} row {i}")
        if width is None:
            width = r.size
        elif r.size != width:
            raise SpecFormatError(f"{where}: ragged rows ({r.size} vs {width})")
        rows.append(r)
    return np.array(rows)


def _array_list(obj, key, where, read=_matrix):
    """The nonempty list ``obj[key]``, each item through ``read``; items of
    differing shapes fail here, naming the field and the index."""
    x = obj.get(key)
    if not isinstance(x, (list, tuple)) or not x:
        raise SpecFormatError(f"{where}: field {key!r} must be a nonempty array")
    items = [read(m, f"{where}.{key}[{i}]") for i, m in enumerate(x)]
    for i, a in enumerate(items):
        if a.shape != items[0].shape:
            raise SpecFormatError(f"{where}.{key}[{i}]: shape {a.shape} differs from "
                                  f"{items[0].shape} of {key}[0]")
    return items


def scalar_to_json(z):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def vector_to_json(v):
    return [scalar_to_json(z) for z in np.asarray(v).reshape(-1)]


def matrix_to_json(a):
    a = np.asarray(a)
    return [vector_to_json(row) for row in a]


# -- parsing ------------------------------------------------------------


def channel_from_dict(obj):
    """Build a channel from a parsed spec object; CPTP is enforced unless
    the spec sets ``allow_non_cptp``."""
    if not isinstance(obj, dict):
        raise SpecFormatError("channel spec must be a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise SpecFormatError(f"unsupported format_version {version!r}, expected "
                              f"{FORMAT_VERSION!r}")
    return _from_dict_inner(obj, "spec")


def _from_dict_inner(obj, where):
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected a JSON object")
    kind = obj.get("kind")
    parser = _PARSERS.get(kind)
    if parser is None:
        known = ", ".join(sorted(_PARSERS))
        raise SpecFormatError(f"{where}: unknown kind {kind!r} (known: {known})")
    try:
        ch = parser(obj, where)
    except (SpecFormatError, NotCptpError):  # a CPTP verdict keeps its own exit code
        raise
    except ValueError as e:
        raise SpecFormatError(f"{where}: {e}") from e
    if ch.d_in * ch.d_out > MAX_DIM_PRODUCT:
        raise SpecFormatError(f"{where}: d_in * d_out = {ch.d_in} * {ch.d_out} exceeds the "
                              f"limit of {MAX_DIM_PRODUCT}")
    if not obj.get("allow_non_cptp", False):
        ch.require_cptp()
    return ch


def _parse_kraus(obj, where):
    return kraus_channel(_array_list(obj, "kraus", where))


def _parse_choi(obj, where):
    d_in = obj.get("d_in")
    d_out = obj.get("d_out")
    if not isinstance(d_in, int) or not isinstance(d_out, int) or d_in < 1 or d_out < 1:
        raise SpecFormatError(f"{where}: choi spec needs positive integer d_in and d_out")
    j = _matrix(obj.get("choi"), f"{where}.choi")
    if j.shape != (d_in * d_out, d_in * d_out):
        raise SpecFormatError(f"{where}: Choi matrix shape {j.shape} does not match "
                              f"d_in*d_out = {d_in * d_out}")
    if obj.get("allow_non_cptp", False):
        return Channel(ChoiForm(j, d_in, d_out), d_in=d_in, d_out=d_out)
    return choi_channel(j, d_in, d_out)


def _parse_povm(obj, where):
    return povm_channel(_array_list(obj, "effects", where),
                        _array_list(obj, "states", where))


def _parse_ecq(obj, where):
    return ecq_channel(_array_list(obj, "vectors", where, _vector),
                       _array_list(obj, "tilde_effects", where),
                       _array_list(obj, "states", where))


def _parse_cq(obj, where):
    return cq_channel(_matrix(obj.get("basis"), f"{where}.basis"),
                      _array_list(obj, "states", where))


def _parse_direct_sum(obj, where):
    blocks = obj.get("blocks")
    if not isinstance(blocks, (list, tuple)) or len(blocks) < 2:
        raise SpecFormatError(f"{where}: direct_sum needs at least two blocks")
    parsed = [_from_dict_inner(b, f"{where}.blocks[{i}]") for i, b in enumerate(blocks)]
    return direct_sum(*parsed)


def _parse_depolarizing(obj, where):
    r = _real(obj, "r", where)
    if -1 / 3 <= r <= 1:
        return depolarizing_channel(r)
    # outside the CP range: keep the map representable so the verdict
    # machinery (not the parser) rejects it
    return unital_qubit_diag([r] * 3)


def _parse_unital_qubit_diag(obj, where):
    lams = obj.get("lambdas")
    if not isinstance(lams, (list, tuple)) or len(lams) != 3:
        raise SpecFormatError(f"{where}: field 'lambdas' must be three real numbers")
    if not all(_is_real(x) for x in lams):
        raise SpecFormatError(f"{where}: field 'lambdas' must be three real numbers")
    return unital_qubit_diag([float(_finite(x, f"{where}.lambdas[{i}]"))
                              for i, x in enumerate(lams)])


def _parse_trine(obj, where):
    return trine_channel()


_PARSERS = {
    "kraus": _parse_kraus,
    "choi": _parse_choi,
    "povm": _parse_povm,
    "ecq": _parse_ecq,
    "cq": _parse_cq,
    "direct_sum": _parse_direct_sum,
    "depolarizing": _parse_depolarizing,
    "unital_qubit_diag": _parse_unital_qubit_diag,
    "trine": _parse_trine,
    "example_eq4": _parse_trine,
}


def load_channel(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as e:
        raise SpecFormatError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecFormatError(f"{path} is not valid JSON: {e}") from e
    return channel_from_dict(obj)


# -- serialization ------------------------------------------------------


_KIND_BY_FORM = {
    KrausForm: "kraus",
    ChoiForm: "choi",
    PovmForm: "povm",
    EcqForm: "ecq",
    CqForm: "cq",
    DirectSumForm: "direct_sum",
}


def form_kind(t):
    """Spec ``kind`` string of the channel's native representation."""
    return _KIND_BY_FORM[type(t.form)]


def channel_to_dict(t, top=True):
    """Spec object reproducing ``t`` through its native representation."""
    f = t.form
    out = {"format_version": FORMAT_VERSION} if top else {}
    if isinstance(f, KrausForm):
        out.update(kind="kraus", kraus=[matrix_to_json(k) for k in f.operators])
    elif isinstance(f, ChoiForm):
        out.update(kind="choi", choi=matrix_to_json(f.matrix), d_in=f.d_in, d_out=f.d_out)
        v = t.verify_cptp()
        if not v.is_cptp:
            out["allow_non_cptp"] = True
    elif isinstance(f, PovmForm):
        out.update(kind="povm", effects=[matrix_to_json(m) for m in f.effects],
                   states=[matrix_to_json(s) for s in f.states])
    elif isinstance(f, EcqForm):
        out.update(kind="ecq", vectors=[vector_to_json(e) for e in f.vectors],
                   tilde_effects=[matrix_to_json(m) for m in f.tilde_effects],
                   states=[matrix_to_json(s) for s in f.states])
    elif isinstance(f, CqForm):
        out.update(kind="cq", basis=matrix_to_json(f.basis),
                   states=[matrix_to_json(s) for s in f.states])
    elif isinstance(f, DirectSumForm):
        out.update(kind="direct_sum",
                   blocks=[channel_to_dict(b, top=False) for b in f.blocks])
    else:  # pragma: no cover - all forms are covered above
        raise TypeError(f"cannot serialize form {type(f).__name__}")
    return out
