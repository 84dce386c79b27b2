"""Model files.

Three JSON kinds are understood:

    {"kind": "finite_system", "points": [...], "map": [int, ...],
     "weights": [num, ...] or {"num": [int, ...], "den": [int, ...]},
     "invertible": bool}

    {"kind": "markov_chain", "states": [...], "P": [[num, ...], ...]}

    {"kind": "harris_discrete", "states": [...], "K": [[num, ...], ...],
     "R": [int, ...], "ell": int, "epsilon": num, "lambda": [num, ...]}

"points"/"states" are optional labels.  Rational weights are honoured
exactly.  Markov and Harris rows are validated to sum to one within
1e-9 and then renormalised exactly.  "epsilon"/"lambda" may be omitted,
in which case the minorization is fitted and reports say so.

Errors carry the offending field path and a distinct exit code per
failure class (unreadable file, bad JSON, unknown kind, violated
invariant).

``model_hash`` is sha256 over a binary form: the format tag
"cycleflow-model/2", versioned, then the kind, the labels and the
remaining fields in the order of the document above ("map", weights,
"invertible"; "P"; "K", "R", "ell", "epsilon", "lambda").  An array of
floats or integers is the byte f or i, its rank and shape, then its
values in C order as little-endian float64 or int64.  Any other field,
exact weights as [numerator, denominator] pairs among them, is the byte
j, its length and its canonical JSON text in UTF-8.  Lengths, ranks and
shapes are little-endian int64.  Floats are kept to the bit, so -0.0
and 0.0 hash apart; memory order and byte order do not enter.
"""

import hashlib
import json
import os

import numpy as np

from .errors import (
    FileAccessError,
    InvariantError,
    ModelParseError,
    UnknownKindError,
    check_entries,
)
from .harris import HarrisModel
from .markov import StochasticMatrix
from .measure import FiniteSystem
from .report import canonical_json

KINDS = ("finite_system", "markov_chain", "harris_discrete")

# block lengths go into int64 arrays; rational weights stay exact Python
# ints and are not bounded
_INT64_MAX = 2 ** 63 - 1


def _require(doc, key, types, kind):
    if key not in doc:
        raise InvariantError("missing required field", field=key)
    value = doc[key]
    if types is not None and not isinstance(value, types):
        raise InvariantError("field has the wrong type for a %s" % kind,
                             field=key)
    return value


def _only_types(value, allowed):
    # one check per distinct element type, not per element; bool is an
    # int subclass and is refused
    return all(issubclass(t, allowed) and not issubclass(t, bool)
               for t in set(map(type, value)))


def _number_list(value, field):
    if not isinstance(value, list) or not _only_types(value, (int, float)):
        raise InvariantError("expected a list of numbers", field=field)
    return value


def _int_list(value, field):
    if not isinstance(value, list) or not _only_types(value, int):
        raise InvariantError("expected a list of integers", field=field)
    return value


def _index_list(value, field, size):
    # indices into range(size), so into int64 arrays too
    check_entries(_int_list(value, field), field, size)
    return value


def _labels(doc, field, n):
    labels = doc.get(field)
    if labels is not None and not (isinstance(labels, list)
                                   and len(labels) == n):
        raise InvariantError("expected a list of %d labels" % n, field=field)
    return labels


def _matrix(value, field):
    if not isinstance(value, list) or not value:
        raise InvariantError("expected a nonempty matrix", field=field)
    n = len(value)
    for i, row in enumerate(value):
        _number_list(row, "%s[%d]" % (field, i))
        if len(row) != n:
            raise InvariantError("matrix is not square", field="%s[%d]" % (field, i))
    return np.asarray(value, dtype=np.float64)


def _renormalized_rows(matrix, field):
    # rows are divided by their sums in place: the model takes a copy
    check_entries(matrix, field)
    sums = matrix.sum(axis=1)
    gap = np.abs(sums - 1.0)
    bad = int(gap.argmax())
    if gap[bad] > 1e-9:
        raise InvariantError(
            "row sums to %.12g, not 1" % sums[bad], field="%s[%d]" % (field, bad))
    matrix /= sums[:, None]
    return matrix


def _build_finite_system(doc, source):
    mapping = _require(doc, "map", list, "finite_system")
    mapping = _index_list(mapping, "map", len(mapping))
    raw_weights = _require(doc, "weights", (list, dict), "finite_system")
    if isinstance(raw_weights, dict):
        num = _int_list(_require(raw_weights, "num", list, "finite_system"),
                        "weights.num")
        den = _int_list(_require(raw_weights, "den", list, "finite_system"),
                        "weights.den")
        if len(num) != len(den):
            raise InvariantError("num and den differ in length",
                                 field="weights")
        if any(d == 0 for d in den):
            raise InvariantError("zero denominator", field="weights.den")
        system = FiniteSystem.from_rational(
            mapping, num, den,
            invertible=bool(_require(doc, "invertible", bool, "finite_system")),
            points=_labels(doc, "points", len(mapping)), source=source,
        )
    else:
        system = FiniteSystem(
            mapping,
            np.asarray(_number_list(raw_weights, "weights"), dtype=np.float64),
            invertible=bool(_require(doc, "invertible", bool, "finite_system")),
            points=_labels(doc, "points", len(mapping)), source=source,
        )
    return system


def _build_markov_chain(doc, source):
    p = _matrix(_require(doc, "P", list, "markov_chain"), "P")
    p = _renormalized_rows(p, "P")
    return StochasticMatrix(p, states=_labels(doc, "states", p.shape[0]),
                            source=source)


def _build_harris(doc, source):
    k = _matrix(_require(doc, "K", list, "harris_discrete"), "K")
    k = _renormalized_rows(k, "K")
    states = _labels(doc, "states", k.shape[0])
    regen = _index_list(_require(doc, "R", list, "harris_discrete"), "R",
                        k.shape[0])
    ell = _require(doc, "ell", int, "harris_discrete")
    if isinstance(ell, bool) or not 1 <= ell <= _INT64_MAX:
        raise InvariantError("ell must be a positive int64 integer",
                             field="ell")
    epsilon = doc.get("epsilon")
    if epsilon is not None and not _only_types([epsilon], (int, float)):
        raise InvariantError("epsilon must be a number", field="epsilon")
    lam = doc.get("lambda")
    if lam is not None:
        lam = np.asarray(_number_list(lam, "lambda"), dtype=np.float64)
    return HarrisModel(StochasticMatrix(k, states=states), regen,
                       ell=ell, epsilon=epsilon, lam=lam, source=source)


_BUILDERS = {
    "finite_system": _build_finite_system,
    "markov_chain": _build_markov_chain,
    "harris_discrete": _build_harris,
}


def parse_model(doc, source=None):
    """Build a model from an already-parsed JSON document."""
    if not isinstance(doc, dict):
        raise InvariantError("model document must be a JSON object",
                             field="$")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise UnknownKindError(
            "unknown model kind %r (expected one of %s)"
            % (kind, ", ".join(KINDS)), field="kind")
    return _BUILDERS[kind](doc, source)


def load_model(path):
    """Read and validate a model file; see the module docstring for the
    accepted kinds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileAccessError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        # the whole file is decoded in one call, so start is its offset
        raise ModelParseError("%s: not UTF-8: byte 0x%02x at offset %d"
                              % (path, exc.object[exc.start], exc.start)
                              ) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError("%s: %s" % (path, exc)) from exc
    # the text goes before parse_model builds the arrays
    del text
    return parse_model(doc, source=os.path.basename(path))


def model_size(model):
    return model.size if isinstance(model, FiniteSystem) else model.n


def _put(digest, value):
    # one field of the binary form; an array not contiguous native is copied
    if isinstance(value, np.ndarray) and value.dtype != object:
        dtype = "<f8" if value.dtype.kind == "f" else "<i8"
        a = np.ascontiguousarray(value, dtype=dtype)
        shape = np.array((a.ndim,) + a.shape, dtype="<i8")
        digest.update(dtype[1].encode() + shape.tobytes())
        digest.update(memoryview(a))
    else:
        text = canonical_json(value).encode("utf-8")
        digest.update(b"j" + len(text).to_bytes(8, "little") + text)


def model_hash(model):
    """sha256 of the model's binary form (module docstring), tag versioned;
    -0.0 and 0.0 hash apart, and the matrix is hashed in place."""
    if isinstance(model, FiniteSystem):
        weights = ([[w.numerator, w.denominator] for w in model.weights]
                   if model.exact else model.weights)
        fields = ("finite_system", list(model.points), model.mapping,
                  weights, bool(model.invertible))
    elif isinstance(model, StochasticMatrix):
        fields = ("markov_chain", list(model.states), model.matrix)
    elif isinstance(model, HarrisModel):
        fields = ("harris_discrete", list(model.kernel.states),
                  model.kernel.matrix, np.array(model.regen_indices),
                  model.ell, model.epsilon, model.lam)
    else:
        raise UnknownKindError("cannot hash %r" % type(model).__name__)
    digest = hashlib.sha256()
    for value in ("cycleflow-model/2",) + fields:
        _put(digest, value)
    return digest.hexdigest()
