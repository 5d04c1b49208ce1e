"""JSON channel descriptions (format_version "1").

A spec is a JSON object with ``format_version``, a ``kind``, and the data
fields for that kind.  Complex entries are written as two-element arrays
``[re, im]``; bare numbers are taken as real.  Matrices are row lists.

Kinds: ``kraus``, ``choi``, ``povm``, ``ecq``, ``cq``, ``direct_sum``,
``depolarizing``, ``unital_qubit_diag``, ``trine`` (alias ``example_eq4``).
Specs are rejected as malformed with :class:`SpecFormatError`, naming the
field: a number that is NaN, infinite or above :data:`MAX_MAGNITUDE` in
size, a boolean where a number is expected, an ``allow_non_cptp`` that is
not ``true`` or ``false``, a Choi ``d_in`` / ``d_out`` that is not a
positive integer, ``d_in * d_out`` above :data:`MAX_DIM_PRODUCT`, and a
``direct_sum`` nested more than ``MAX_DIM_PRODUCT - 1`` levels deep.  Maps
that parse but fail complete positivity or trace preservation raise
:class:`~.channels.NotCptpError` unless the spec sets ``allow_non_cptp``.
A ``direct_sum`` whose blocks all passed that check is CPTP and is not
checked again; one holding an ``allow_non_cptp`` block checks itself.

The number reader is on every command's path, so it keeps the common case
cheap: exact ``float`` and ``int`` skip the ``numbers.Real`` check, and an
entry's path (``spec.kraus[0] row 1[2]``) is formed only for an error message.
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
from .linalg import is_hermitian

FORMAT_VERSION = "1"

# Largest d_in * d_out a spec may declare: the analyses grow steeply with the
# dimensions (the fixed-point stage alone holds O(d^6) numbers).
MAX_DIM_PRODUCT = 144

# Largest magnitude of a spec number (real and imaginary parts alike).  A
# Kraus entry enters the natural matrix squared, and norms and eigensolvers
# square again, so 1e50 keeps such products near 1e200, far below the float
# overflow at 1.8e308; an entry of about 1.3e154 overflows when squared.
MAX_MAGNITUDE = 1e50


# Longest quote of a refused entry in an error message: an entry may be a
# list of any length, and the message names its field anyway.
MAX_QUOTE = 60


class SpecFormatError(ValueError):
    pass


def _quote(x):
    r = repr(x)
    return r if len(r) <= MAX_QUOTE else f"{r[:MAX_QUOTE]}... ({len(r)} characters)"


def _real_number(x):
    """``x`` as a real number (exact float and int skip the ABC check), or None."""
    if type(x) is float or type(x) is int:
        return x
    return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else None


def _bounded(x):
    """The real ``x`` itself; NaN, infinities and numbers above
    :data:`MAX_MAGNITUDE` are refused, and the caller adds the field path."""
    if -MAX_MAGNITUDE <= x <= MAX_MAGNITUDE:
        return x
    if x != x or abs(x) == math.inf:
        raise SpecFormatError(f"non-finite number {_quote(x)}")
    raise SpecFormatError(f"number {_quote(x)} exceeds the magnitude limit of {MAX_MAGNITUDE:g}")


def _scalar(x):
    re, im = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0)
    re, im = _real_number(re), _real_number(im)
    if re is None or im is None:
        raise SpecFormatError(f"expected a number or [re, im], got {_quote(x)}")
    return complex(_bounded(re), _bounded(im))


def _real(obj, key, where):
    x = _real_number(obj.get(key))
    if x is None:
        raise SpecFormatError(f"{where}: field {key!r} must be a real number")
    try:
        return float(_bounded(x))
    except SpecFormatError as e:
        raise SpecFormatError(f"{where}.{key}: {e}") from None


def _flag(obj, key, where):
    x = obj.get(key, False)
    if type(x) is not bool:
        raise SpecFormatError(f"{where}: field {key!r} must be true or false")
    return x


def _positive_int(obj, key, where):
    x = obj.get(key)
    if type(x) is not int or x < 1:
        raise SpecFormatError(f"{where}: field {key!r} must be a positive integer")
    return x


def _vector(x, where):
    """A nonempty list of spec numbers as a complex array."""
    if not isinstance(x, (list, tuple)) or not x:
        raise SpecFormatError(f"{where}: expected a nonempty array")
    out = []
    try:
        for v in x:
            out.append(_scalar(v))
    except SpecFormatError as e:
        raise SpecFormatError(f"{where}[{len(out)}]: {e}") from None
    return np.array(out)


def _matrix(x, where):
    if not isinstance(x, (list, tuple)) or not x:
        raise SpecFormatError(f"{where}: expected a nonempty array of rows")
    rows = []
    for i, row in enumerate(x):
        r = _vector(row, f"{where} row {i}")
        if rows and r.size != rows[0].size:
            raise SpecFormatError(f"{where}: ragged rows ({r.size} vs {rows[0].size})")
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
    return _from_dict_inner(obj, "spec", 0)


def _from_dict_inner(obj, where, depth):
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected a JSON object")
    # a block at depth k lies in k direct sums, each adding at least 1 to d_in,
    # so a deeper block than this breaks MAX_DIM_PRODUCT: refuse before recursing
    if depth >= MAX_DIM_PRODUCT:
        raise SpecFormatError(f"{where}: direct_sum nested deeper than "
                              f"{MAX_DIM_PRODUCT - 1} levels")
    allow = _flag(obj, "allow_non_cptp", where)
    kind = obj.get("kind")
    parser = _PARSERS.get(kind)
    if parser is None:
        known = ", ".join(sorted(_PARSERS))
        raise SpecFormatError(f"{where}: unknown kind {kind!r} (known: {known})")
    try:
        ch = parser(obj, where, allow, depth)
    except (SpecFormatError, NotCptpError):  # a CPTP verdict keeps its own exit code
        raise
    except ValueError as e:
        raise SpecFormatError(f"{where}: {e}") from e
    if ch.d_in * ch.d_out > MAX_DIM_PRODUCT:
        raise SpecFormatError(f"{where}: d_in * d_out = {ch.d_in} * {ch.d_out} exceeds the "
                              f"limit of {MAX_DIM_PRODUCT}")
    # a direct sum of CPTP maps is CPTP, and a block without allow_non_cptp
    # has passed its own check: only a sum holding an unchecked block checks itself
    checked = kind == "direct_sum" and not any(b.get("allow_non_cptp") for b in obj["blocks"])
    if not (allow or checked):
        ch.require_cptp()
    return ch


def _parse_kraus(obj, where, allow, depth):
    return kraus_channel(_array_list(obj, "kraus", where))


def _parse_choi(obj, where, allow, depth):
    d_in = _positive_int(obj, "d_in", where)
    d_out = _positive_int(obj, "d_out", where)
    j = _matrix(obj.get("choi"), f"{where}.choi")
    if j.shape != (d_in * d_out, d_in * d_out):
        raise SpecFormatError(f"{where}: Choi matrix shape {j.shape} does not match "
                              f"d_in*d_out = {d_in * d_out}")
    if not is_hermitian(j, tol=1e-9):
        raise SpecFormatError(f"{where}.choi: Choi matrix is not Hermitian")
    if allow:
        return Channel(ChoiForm(j, d_in, d_out), d_in=d_in, d_out=d_out)
    return choi_channel(j, d_in, d_out)


def _parse_povm(obj, where, allow, depth):
    return povm_channel(_array_list(obj, "effects", where),
                        _array_list(obj, "states", where))


def _parse_ecq(obj, where, allow, depth):
    return ecq_channel(_array_list(obj, "vectors", where, _vector),
                       _array_list(obj, "tilde_effects", where),
                       _array_list(obj, "states", where))


def _parse_cq(obj, where, allow, depth):
    return cq_channel(_matrix(obj.get("basis"), f"{where}.basis"),
                      _array_list(obj, "states", where))


def _parse_direct_sum(obj, where, allow, depth):
    blocks = obj.get("blocks")
    if not isinstance(blocks, (list, tuple)) or len(blocks) < 2:
        raise SpecFormatError(f"{where}: direct_sum needs at least two blocks")
    parsed = [_from_dict_inner(b, f"{where}.blocks[{i}]", depth + 1)
              for i, b in enumerate(blocks)]
    return direct_sum(*parsed)


def _parse_depolarizing(obj, where, allow, depth):
    r = _real(obj, "r", where)
    if -1 / 3 <= r <= 1:
        return depolarizing_channel(r)
    # outside the CP range: keep the map representable so the verdict
    # machinery (not the parser) rejects it
    return unital_qubit_diag([r] * 3)


def _parse_unital_qubit_diag(obj, where, allow, depth):
    lams = obj.get("lambdas")
    if (not isinstance(lams, (list, tuple)) or len(lams) != 3
            or any(_real_number(x) is None for x in lams)):
        raise SpecFormatError(f"{where}: field 'lambdas' must be three real numbers")
    return unital_qubit_diag(_vector(lams, f"{where}.lambdas").real)


def _parse_trine(obj, where, allow, depth):
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
    except (ValueError, RecursionError) as e:  # not UTF-8, too many digits, nested too deep
        raise SpecFormatError(f"cannot read {path}: {e}") from e
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
