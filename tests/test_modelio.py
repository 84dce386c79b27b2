import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cycleflow as cf
from cycleflow import modelio
from cycleflow.errors import (
    FileAccessError,
    InvariantError,
    ModelParseError,
    UnknownKindError,
    check_entries,
)

FINITE_DOC = {
    "kind": "finite_system",
    "map": [1, 0, 3, 2],
    "weights": [0.3, 0.3, 0.2, 0.2],
    "invertible": True,
}

MARKOV_DOC = {
    "kind": "markov_chain",
    "P": [[2 / 3, 1 / 3], [1 / 4, 3 / 4]],
}

HARRIS_DOC = {
    "kind": "harris_discrete",
    "K": [[0.5, 0.5, 0.0], [0.2, 0.5, 0.3], [0.1, 0.4, 0.5]],
    "R": [0, 1],
    "ell": 1,
}


def write(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# loading


def test_load_finite_system(tmp_path):
    model = cf.load_model(write(tmp_path, FINITE_DOC))
    assert isinstance(model, cf.FiniteSystem)
    assert cf.suite.model_kind(model) == "finite_system"
    assert model.source == "model.json"
    assert list(model.mapping) == [1, 0, 3, 2]
    assert model.invertible


def test_load_rational_weights(tmp_path):
    doc = dict(FINITE_DOC, weights={"num": [1, 1, 1], "den": [2, 3, 6]},
               map=[1, 2, 0])
    model = cf.load_model(write(tmp_path, doc))
    assert model.exact
    assert model.weights[1] == Fraction(1, 3)
    assert model.total_mass == 1


def test_load_markov_chain(tmp_path):
    model = cf.load_model(write(tmp_path, MARKOV_DOC))
    assert isinstance(model, cf.StochasticMatrix)
    assert model.n == 2
    assert model.states == [0, 1]


def test_load_harris_fits_when_unspecified(tmp_path):
    model = cf.load_model(write(tmp_path, HARRIS_DOC))
    assert isinstance(model, cf.HarrisModel)
    assert model.fitted_fields == ("lambda", "epsilon")
    assert model.epsilon == pytest.approx(0.7, abs=1e-12)
    assert np.abs(model.lam - [2 / 7, 5 / 7, 0.0]).max() <= 1e-12


def test_load_harris_honours_given_split(tmp_path):
    doc = dict(HARRIS_DOC, epsilon=0.5, **{"lambda": [2 / 7, 5 / 7, 0.0]})
    model = cf.load_model(write(tmp_path, doc))
    assert model.fitted_fields == ()
    assert model.epsilon == 0.5


def _held(obj, arrays, frozen, seen):
    # the ndarrays and dataclasses reachable from obj through its fields,
    # its kept tables (each cached property read first), tuples, lists and
    # dicts
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return
    if dataclasses.is_dataclass(obj):
        frozen.append(obj)
        for name, attr in vars(type(obj)).items():
            if isinstance(attr, functools.cached_property):
                getattr(obj, name)
        obj = vars(obj)
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        for item in obj:
            _held(item, arrays, frozen, seen)


def test_every_array_a_loaded_model_holds_is_read_only():
    # a table added to a model later without a read-only mark fails here
    rational = dict(FINITE_DOC, weights={"num": [1, 1, 1], "den": [2, 3, 6]},
                    map=[1, 2, 0])
    for doc in (MARKOV_DOC, HARRIS_DOC, rational):
        model = cf.parse_model(doc)
        chain = getattr(model, "kernel", model)
        if isinstance(chain, cf.StochasticMatrix):
            cf.cycle_occupation(chain, 0)   # fills the kept occupations
        arrays, frozen = [], []
        _held(model, arrays, frozen, set())
        assert len(arrays) >= 3 and frozen[0] is model
        for a in arrays:
            assert not a.flags.writeable, (doc["kind"], a)
        for obj in frozen:
            for field in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, field.name, getattr(obj, field.name))


def test_loader_renormalises_sloppy_rows(tmp_path):
    doc = {"kind": "markov_chain",
           "P": [[0.5, 0.5 + 4e-10], [0.25, 0.75]]}
    model = cf.load_model(write(tmp_path, doc))
    assert np.abs(model.matrix.sum(axis=1) - 1.0).max() <= 1e-15


def test_state_labels_carried(tmp_path):
    doc = dict(MARKOV_DOC, states=["sunny", "rainy"])
    model = cf.load_model(write(tmp_path, doc))
    assert model.states == ["sunny", "rainy"]


# ---------------------------------------------------------------------------
# error paths


def test_missing_file_is_access_error(tmp_path):
    with pytest.raises(FileAccessError):
        cf.load_model(str(tmp_path / "absent.json"))


def test_bad_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ModelParseError):
        cf.load_model(str(path))


def test_unknown_kind(tmp_path):
    with pytest.raises(UnknownKindError):
        cf.load_model(write(tmp_path, {"kind": "continuous_flow"}))


def test_non_object_document():
    with pytest.raises(InvariantError) as err:
        cf.parse_model([1, 2, 3])
    assert err.value.field == "$"


def test_row_sum_error_names_the_row(tmp_path):
    doc = {"kind": "markov_chain", "P": [[0.5, 0.4], [0.25, 0.75]]}
    with pytest.raises(InvariantError) as err:
        cf.load_model(write(tmp_path, doc))
    assert err.value.field == "P[0]"
    assert "0.9" in str(err.value)


def test_ragged_matrix_names_the_row(tmp_path):
    doc = {"kind": "markov_chain", "P": [[1.0], [0.5, 0.5]]}
    with pytest.raises(InvariantError) as err:
        cf.load_model(write(tmp_path, doc))
    assert err.value.field.startswith("P[")


def test_missing_field_is_named(tmp_path):
    doc = {"kind": "finite_system", "map": [0]}
    with pytest.raises(InvariantError) as err:
        cf.load_model(write(tmp_path, doc))
    assert err.value.field == "weights"


def test_non_integer_map_rejected(tmp_path):
    doc = dict(FINITE_DOC, map=[1.0, 0.0, 3.0, 2.0])
    with pytest.raises(InvariantError) as err:
        cf.load_model(write(tmp_path, doc))
    assert err.value.field == "map"


def test_bool_is_not_a_number(tmp_path):
    doc = dict(FINITE_DOC, weights=[True, 0.3, 0.2, 0.2])
    with pytest.raises(InvariantError) as err:
        cf.load_model(write(tmp_path, doc))
    assert err.value.field == "weights"


def test_list_checks_keep_the_per_item_verdicts():
    # the per-item rules the type-set checks replace
    def numbers(value):
        return all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in value)

    def integers(value):
        return all(isinstance(v, int) and not isinstance(v, bool)
                   for v in value)

    cases = [[], [0.5, 1], [1, 2], [True], [0.5, False], [1, None],
             ["1"], [np.float64(0.5), 0.5], [np.int64(1)], [2 ** 70, -1],
             [1.0, np.float32(1.0)], [[1.0]]]
    for value in cases:
        for check, rule in ((modelio._number_list, numbers),
                            (modelio._int_list, integers)):
            if rule(value):
                assert check(value, "f") is value
            else:
                with pytest.raises(InvariantError) as err:
                    check(value, "f")
                assert err.value.field == "f"


def test_entry_check_names_the_first_bad_entry():
    # a non-finite entry before a negative one before one out of range,
    # each the first of its kind in C order; object arrays of Fractions
    # or Python ints, past int64 too, skip the finite test
    nan, inf = math.nan, math.inf
    cases = [
        ([[0.5, -1.0], [nan, 2.0]], None, "m[1][0]", "not finite"),
        ([[0.5, -1.0], [-inf, 2.0]], None, "m[1][0]", "not finite"),
        ([[0.5, -1.0], [-2.0, 0.0]], None, "m[0][1]", "negative"),
        ([1, 5, -1], 3, "m[2]", "negative"),
        ([1, 5, 4], 3, "m[1]", "out of range (3 points)"),
        ([0, 2 ** 70], 3, "m[1]", "out of range"),
        ([2 ** 70, -1], 3, "m[1]", "negative"),
        (np.array([Fraction(1), Fraction(-1, 3)], dtype=object), None,
         "m[1]", "negative"),
    ]
    for values, size, field, message in cases:
        with pytest.raises(InvariantError) as err:
            check_entries(values, "m", size)
        assert err.value.field == field
        assert message in str(err.value)
    ok = np.array([Fraction(1, 3), Fraction(0)], dtype=object)
    assert check_entries(ok, "m") is ok
    assert check_entries([0, 2], "m", 3).tolist() == [0, 2]


def test_rational_weights_validated(tmp_path):
    doc = dict(FINITE_DOC, weights={"num": [1, 1], "den": [2]}, map=[1, 0])
    with pytest.raises(InvariantError):
        cf.load_model(write(tmp_path, doc))
    doc = dict(FINITE_DOC, weights={"num": [1, 1], "den": [2, 0]}, map=[1, 0])
    with pytest.raises(InvariantError) as err:
        cf.load_model(write(tmp_path, doc))
    assert err.value.field == "weights.den"


def test_states_length_mismatch(tmp_path):
    doc = dict(MARKOV_DOC, states=["only-one"])
    with pytest.raises(InvariantError) as err:
        cf.load_model(write(tmp_path, doc))
    assert err.value.field == "states"


def test_bad_ell_rejected(tmp_path):
    for ell in (0, True, "two", 2 ** 63):
        doc = dict(HARRIS_DOC, ell=ell)
        with pytest.raises(InvariantError) as err:
            cf.load_model(write(tmp_path, doc))
        assert err.value.field == "ell"


def test_rational_weights_keep_big_integers(tmp_path):
    big = 10 ** 20
    doc = dict(FINITE_DOC, weights={"num": [big, 1], "den": [2 * big, 2]},
               map=[1, 0])
    model = cf.load_model(write(tmp_path, doc))
    assert list(model.weights) == [Fraction(1, 2), Fraction(1, 2)]


# ---------------------------------------------------------------------------
# documents and hashing


def test_document_records_fitted_split(tmp_path):
    # a document that states the fitted split gives the same model, with
    # nothing left to fit
    model = cf.load_model(write(tmp_path, HARRIS_DOC))
    assert model.epsilon == pytest.approx(0.7, abs=1e-12)
    assert model.regen_members == (0, 1)
    doc = dict(HARRIS_DOC, epsilon=model.epsilon,
               **{"lambda": model.lam.tolist()})
    again = cf.parse_model(doc)
    assert again.fitted_fields == ()
    assert cf.model_hash(again) == cf.model_hash(model)


def test_a_fitted_split_written_out_loads_to_the_same_hash():
    # epsilon and lambda copied by hand from a fitted model into its
    # document give back the model, to the bit
    rng = np.random.default_rng(38)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        doc = {"kind": "harris_discrete", "R": [0, 1], "ell": 1,
               "K": rng.dirichlet(np.ones(n), size=n).tolist()}
        model = cf.parse_model(doc)
        written = dict(doc, epsilon=model.epsilon,
                       **{"lambda": model.lam.tolist()})
        again = cf.parse_model(json.loads(json.dumps(written)))
        assert again.fitted_fields == ()
        assert cf.model_hash(again) == cf.model_hash(model)


def test_hash_is_content_sensitive(tmp_path):
    a = cf.load_model(write(tmp_path, MARKOV_DOC, "a.json"))
    b = cf.load_model(write(tmp_path, MARKOV_DOC, "b.json"))
    assert cf.model_hash(a) == cf.model_hash(b)  # names do not matter
    c = cf.parse_model({"kind": "markov_chain", "P": [[0.6, 0.4], [0.25, 0.75]]})
    assert cf.model_hash(c) != cf.model_hash(a)


def test_hash_is_stable_across_runs(tmp_path):
    model = cf.load_model(write(tmp_path, FINITE_DOC))
    assert cf.model_hash(model) == cf.model_hash(model)
    assert len(cf.model_hash(model)) == 64


def test_hash_literals_are_fixed():
    # digests of the binary form cycleflow-model/2; the hash must never
    # drift, reports quote it
    chain = cf.parse_model(MARKOV_DOC)
    assert cf.model_hash(chain) == \
        "e12f3a6e1d6e686986c6e6c7bea5ea3cd3b639ee57725248d9bc3961d159e469"
    harris = cf.parse_model(HARRIS_DOC)
    assert cf.model_hash(harris) == \
        "870dfc482354c207bb0b90379c38f9809fc18f76e984df0b6a5cf97598596905"


def test_hash_is_the_digest_of_the_documented_form():
    # the form written out by hand from the module docstring
    def text(json_text):
        return b"j" + len(json_text).to_bytes(8, "little") + json_text

    def words(*values):
        return b"".join(v.to_bytes(8, "little") for v in values)

    chain = cf.parse_model(dict(MARKOV_DOC, states=["\u03b1", 7]))
    form = (text(b'"cycleflow-model/2"') + text(b'"markov_chain"')
            + text('["\u03b1",7]'.encode("utf-8")) + b"f" + words(2, 2, 2)
            + chain.matrix.astype("<f8").tobytes())
    assert cf.model_hash(chain) == hashlib.sha256(form).hexdigest()

    system = cf.parse_model(dict(FINITE_DOC, map=[1, 0],
                                 weights={"num": [1, 10], "den": [3, 3]},
                                 invertible=False))
    form = (text(b'"cycleflow-model/2"') + text(b'"finite_system"')
            + text(b"[0,1]") + b"i" + words(1, 2, 1, 0)
            + text(b"[[1,3],[10,3]]") + text(b"false"))
    assert cf.model_hash(system) == hashlib.sha256(form).hexdigest()


def _variants():
    # a base model of each kind and models that differ from it in one field
    finite = dict(FINITE_DOC, points=["p", "q", "r", "s"])
    exact = dict(FINITE_DOC, weights={"num": [3, 3, 2, 2],
                                      "den": [10, 10, 10, 10]})
    harris = dict(HARRIS_DOC, epsilon=0.7, **{"lambda": [2 / 7, 5 / 7, 0.0]})
    chain = dict(MARKOV_DOC, states=["x", "y"])
    return [
        (finite, [
            dict(finite, kind="markov_chain", P=[[0.5] * 2] * 2),
            dict(finite, points=["p", "q", "r", "t"]),
            dict(finite, map=[1, 0, 2, 3]),
            dict(finite, weights=[0.3, 0.3, 0.1, 0.3]),
            dict(finite, invertible=False),
        ]),
        (exact, [
            dict(exact, weights={"num": [3, 3, 2, 2],
                                 "den": [10, 10, 10, 11]}),
            dict(exact, weights=[0.3, 0.3, 0.2, 0.2]),
        ]),
        (chain, [
            dict(chain, states=["x", "z"]),
            dict(chain, P=[[2 / 3, 1 / 3], [0.25 + 1e-15, 0.75 - 1e-15]]),
        ]),
        (harris, [
            dict(harris, K=[[0.5, 0.5, 0.0], [0.2, 0.5, 0.3],
                            [0.1, 0.5, 0.4]]),
            dict(harris, R=[0]),
            dict(harris, ell=2),
            dict(harris, epsilon=0.6),
            dict(harris, **{"lambda": [3 / 7, 4 / 7, 0.0]}),
        ]),
    ]


def test_hash_is_injective_on_fields():
    for base, others in _variants():
        model = cf.parse_model(base)
        digest = cf.model_hash(model)
        assert cf.model_hash(cf.parse_model(base)) == digest
        for other in others:
            assert cf.model_hash(cf.parse_model(other)) != digest, other
    # labels are delimited, and a string label is not a number
    split = [cf.parse_model(dict(MARKOV_DOC, states=s))
             for s in (["ab", "c"], ["a", "bc"], [0, 1], ["0", "1"])]
    assert len({cf.model_hash(m) for m in split}) == 4
    # float weights of the same values as exact ones hash apart
    halves = [cf.parse_model(dict(FINITE_DOC, map=[1, 0], weights=w))
              for w in ([0.5, 0.5], {"num": [1, 1], "den": [2, 2]})]
    assert cf.model_hash(halves[0]) != cf.model_hash(halves[1])
    # floats enter by their bits
    signed = [cf.FiniteSystem([1, 0], [1.0, z]) for z in (0.0, -0.0)]
    assert cf.model_hash(signed[0]) != cf.model_hash(signed[1])


def test_hash_depends_on_values_not_layout():
    rows = np.random.default_rng(7).dirichlet(np.ones(6), size=6)
    native = cf.model_hash(cf.StochasticMatrix(rows))
    wide = np.zeros((6, 12))
    wide[:, ::2] = rows
    for layout in (np.asfortranarray(rows), wide[:, ::2]):
        chain = cf.StochasticMatrix(layout)
        assert cf.model_hash(chain) == native
    # the chain's copy keeps a Fortran matrix in Fortran order, so the
    # hash reads it in a layout other than C order
    fortran = cf.StochasticMatrix(np.asfortranarray(rows)).matrix
    assert not fortran.flags.c_contiguous
    # the constructor makes a big-endian matrix native, so its bytes go
    # through the field encoder directly
    digests = []
    for layout in (rows, rows.astype(">f8"), np.asfortranarray(rows),
                   wide[:, ::2]):
        digest = hashlib.sha256()
        modelio._put(digest, layout)
        digests.append(digest.hexdigest())
    assert len(set(digests)) == 1


def test_hash_memory_stays_far_below_the_matrix():
    # a contiguous native matrix is hashed in place: no copy of it and no
    # Python float per entry
    rows = np.random.default_rng(400).dirichlet(np.full(400, 0.2), size=400)
    chain = cf.StochasticMatrix(rows)
    assert chain.matrix.flags.c_contiguous
    cf.model_hash(chain)
    tracemalloc.start()
    try:
        cf.model_hash(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < chain.matrix.nbytes / 8


def test_model_size_all_kinds(tmp_path):
    assert cf.model_size(cf.load_model(write(tmp_path, FINITE_DOC))) == 4
    assert cf.model_size(cf.load_model(write(tmp_path, MARKOV_DOC))) == 2
    assert cf.model_size(cf.load_model(write(tmp_path, HARRIS_DOC))) == 3


def test_each_loaded_kind_names_its_document_kind(tmp_path):
    # ``kind`` is a class attribute, not a field: it never enters a hash,
    # a replace or a comparison of fields
    for doc in (FINITE_DOC, MARKOV_DOC, HARRIS_DOC):
        model = cf.load_model(write(tmp_path, doc))
        assert model.kind == type(model).kind == doc["kind"]
        assert cf.suite.model_kind(model) == doc["kind"]
        assert "kind" not in [f.name for f in dataclasses.fields(model)]
    # a report carries a kind of its own but is not a model
    report = cf.SuiteReport(kind="finite_system", model={}, config={},
                            checks=[])
    for call in (cf.model_hash, cf.model_size, cf.suite.model_kind):
        with pytest.raises(UnknownKindError):
            call(report)


def test_hash_rejects_foreign_objects():
    with pytest.raises(UnknownKindError):
        cf.model_hash({"not": "a model"})
