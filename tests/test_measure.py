import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf
from cycleflow import measure
from cycleflow.errors import (
    InvariantError,
    PreconditionError,
    UnsupportedOperationError,
)


# ---------------------------------------------------------------------------
# construction and validation


def test_weights_must_be_nonnegative():
    with pytest.raises(InvariantError):
        cf.FiniteSystem([1, 0], [0.5, -0.1])


def test_declared_permutation_must_be_one():
    with pytest.raises(InvariantError):
        cf.FiniteSystem([0, 0], [0.5, 0.5], invertible=True)


def test_map_indices_must_be_in_range():
    with pytest.raises(InvariantError):
        cf.FiniteSystem([1, 2], [0.5, 0.5])


def test_event_mask_names_the_index_it_refuses():
    # an index past int64 is out of range, not an overflow
    for members, field in (([0, 5], "B[1]"), ([2 ** 70], "B[0]"),
                           ([-1], "B[0]"), ([0.0, math.nan], "B[1]")):
        with pytest.raises(InvariantError) as err:
            cf.event_mask(3, members, "B")
        assert err.value.field == field


def test_inverse_refused_without_invertibility(endo3):
    with pytest.raises(UnsupportedOperationError):
        endo3.inverse_mapping


def test_writing_into_the_source_arrays_changes_nothing_the_system_reports():
    # an int64 mapping is kept as a copy: mutating the caller's array into
    # a non-permutation leaves the declared permutation and its identities
    mapping = np.array([1, 0, 3, 2], dtype=np.int64)
    weights = np.full(4, 0.25)
    sys = cf.FiniteSystem(mapping, weights)
    before = cf.identity_suite(sys)
    mapping[0] = 0
    weights[:] = [1.0, -1.0, 0.0, 0.0]
    assert sys.invertible and sys.mapping.tolist() == [1, 0, 3, 2]
    assert sys.weights.tolist() == [0.25] * 4
    assert sys.inverse_mapping.tolist() == [1, 0, 3, 2]
    assert cf.identity_suite(sys) == before


def test_system_arrays_are_read_only_and_fields_cannot_be_rebound():
    for sys in (cf.FiniteSystem([1, 0], [0.5, 0.5]),
                cf.FiniteSystem.from_rational([1, 0], [1, 1], [2, 2])):
        for name in ("mapping", "weights", "inverse_mapping"):
            with pytest.raises(ValueError):
                getattr(sys, name)[0] = 1
        for name in ("mapping", "weights", "invertible", "points", "source"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sys, name, getattr(sys, name))
        assert sys.mapping.tolist() == [1, 0]
        assert sys.weights.tolist() == [0.5, 0.5]


def test_exact_weights_round_trip():
    sys = cf.FiniteSystem.from_rational([1, 0], [1, 2], [3, 3])
    assert sys.exact
    assert sys.weights[0] == Fraction(1, 3)
    assert sys.total_mass == Fraction(1)


# ---------------------------------------------------------------------------
# preservation check


def test_rotation_preserves_uniform(rot4):
    report = cf.check_preserving(rot4)
    assert report.preserving
    assert report.max_violation == 0


def test_transpositions_preserve_pair_constant_weights(two2):
    assert cf.check_preserving(two2).preserving


def test_unbalanced_transposition_violation_is_exact():
    sys = cf.FiniteSystem([1, 0, 3, 2], [0.4, 0.2, 0.2, 0.2])
    report = cf.check_preserving(sys)
    assert not report.preserving
    assert report.max_violation == pytest.approx(0.2, abs=1e-15)


def test_collapse_map_preserves_point_mass(endo2):
    assert cf.check_preserving(endo2).preserving


# ---------------------------------------------------------------------------
# hitting profiles


def test_rotation_hitting_times(rot4):
    prof = cf.hitting_profile(rot4, [0])
    assert list(prof.times) == [4, 3, 2, 1]
    assert prof.finite.all()
    assert list(prof.entry) == [0, 0, 0, 0]


def test_disjoint_cycles_hitting_times(two2):
    prof = cf.hitting_profile(two2, [0])
    assert list(prof.times_or_inf) == [2, 1, math.inf, math.inf]
    assert list(prof.finite) == [True, True, False, False]


def test_backward_times_match_forward_on_involution(two2):
    back = cf.hitting_profile(two2, [0], cf.BACKWARD)
    assert list(back.times_or_inf) == [2, 1, math.inf, math.inf]


def test_backward_profile_refused_on_endomorphism(endo3):
    with pytest.raises(UnsupportedOperationError):
        cf.hitting_profile(endo3, [0], cf.BACKWARD)


def test_times_start_at_one(rot4, two2):
    for sys in (rot4, two2):
        for b in range(sys.size):
            prof = cf.hitting_profile(sys, [b])
            finite = prof.times[prof.finite]
            assert (finite >= 1).all()


# ---------------------------------------------------------------------------
# occupation counts: a scalar orbit walk, the referee of hitting_profile


def _occupation_count(sys, a_members, b_members, start):
    """Visits to A strictly before the forward orbit of ``start`` first
    enters B (time zero included, the entry step excluded); ``math.inf``
    when the orbit never enters B yet keeps visiting A."""
    a_mask = sys.mask(a_members)
    b_mask = sys.mask(b_members)
    first_seen = {}
    x = int(start)
    n = 0
    count = 0
    while True:
        if n >= 1 and b_mask[x]:
            return count
        if x in first_seen:
            loop = [p for p, t in first_seen.items() if t >= first_seen[x]]
            return math.inf if any(a_mask[p] for p in loop) else count
        first_seen[x] = n
        count += bool(a_mask[x])
        x = int(sys.mapping[x])
        n += 1


def test_rotation_occupation(rot4):
    assert _occupation_count(rot4, [1, 2], [0], 0) == 2


def test_occupation_counts_start_point(rot4):
    # the n = 0 term counts the start itself
    assert _occupation_count(rot4, [0], [0], 0) == 1


def test_occupation_disjoint_component_zero(two2):
    assert _occupation_count(two2, [2], [0], 0) == 0


def test_occupation_infinite_when_never_hitting(two2):
    assert _occupation_count(two2, [0, 1, 2, 3], [0], 2) == math.inf


def test_occupation_of_everything_is_hitting_time(rot4, two2):
    for sys in (rot4, two2):
        full = list(range(sys.size))
        for b in range(sys.size):
            prof = cf.hitting_profile(sys, [b])
            for w in range(sys.size):
                occ = _occupation_count(sys, full, [b], w)
                assert occ == prof.times_or_inf[w]


# ---------------------------------------------------------------------------
# cycle measures


def _excursion(sys, b, direction=cf.FORWARD):
    # each point of B spreads its weight along its orbit until it returns
    return measure._excursion_sweep(measure._step_map(sys, direction),
                                    sys.mask(b), sys.weights)


def _restriction(sys, b):
    # the weights on the points whose forward orbit enters B
    return np.where(cf.hitting_profile(sys, b).finite, sys.weights, 0)


def test_rotation_forward_excursion_is_uniform(rot4):
    values = _excursion(rot4, [0])
    assert np.allclose(values, 0.25)
    assert values.sum() == pytest.approx(1.0)


def test_transposition_excursion_weights(two2):
    assert np.allclose(_excursion(two2, [0]), [0.3, 0.3, 0.0, 0.0])


def test_restriction_measure_is_weights_on_hitting_set(two2):
    assert np.allclose(_restriction(two2, [0]), [0.3, 0.3, 0.0, 0.0])


def test_backward_excursion_refused_on_endomorphism(endo3):
    with pytest.raises(UnsupportedOperationError):
        _excursion(endo3, [0], cf.BACKWARD)


def test_unknown_kind_rejected(rot4):
    with pytest.raises(PreconditionError):
        cf.hitting_profile(rot4, [0], "sideways")


# ---------------------------------------------------------------------------
# excursion identity (forward measure vs backward hitting set)


def _both(res, name):
    return res[name + "_forward"], res[name + "_backward"]


def test_excursion_identity_rotation(rot4):
    res = cf.identity_residuals(rot4, [0], [1, 2])
    assert _both(res, "excursion_identity") == (0, 0)
    # both sides are 1/2
    assert _excursion(rot4, [0])[[1, 2]].sum() == pytest.approx(0.5)


def test_excursion_identity_disjoint_component(two2):
    res = cf.identity_residuals(two2, [0], [2])
    assert _both(res, "excursion_identity") == (0, 0)


def test_excursion_identity_full_space(two2):
    # both sides are 0.6: time integral over B vs hitting-set mass
    res = cf.identity_residuals(two2, [0], [0, 1, 2, 3])
    assert _both(res, "excursion_identity") == (0, 0)
    assert _excursion(two2, [0]).sum() == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# entrance (stopped-map) invariance


def test_entrance_invariance_base_point(rot4):
    res = cf.identity_residuals(rot4, [0], [0])
    assert _both(res, "entrance_invariance") == (0, 0)


def test_entrance_never_lands_outside_base(rot4):
    # first entry lands in B, never in {1}
    res = cf.identity_residuals(rot4, [0], [1])
    assert _both(res, "entrance_invariance") == (0, 0)


def test_entrance_invariance_pair(two2):
    res = cf.identity_residuals(two2, [0], [0, 1])
    assert _both(res, "entrance_invariance") == (0, 0)


# ---------------------------------------------------------------------------
# invariance of the excursion measures under the map itself


@pytest.mark.parametrize("kind", ["forward", "backward", "restriction"])
def test_shift_invariance_rotation(rot4, kind):
    res = cf.identity_residuals(rot4, [0], [1])
    assert res["shift_invariance_" + kind] == 0


def test_shift_invariance_transposition(two2):
    # m(preimage {0}) = m({1}) = 0.3 = m({0})
    res = cf.identity_residuals(two2, [0], [0])
    assert res["shift_invariance_forward"] == 0
    res = cf.identity_residuals(two2, [0], [2])
    assert res["shift_invariance_restriction"] == 0


def test_shift_invariance_refused_on_endomorphism(endo3):
    # excursion measures of an endomorphism need not be shift-invariant:
    # only the restriction's preimage invariance and the forward
    # recurrence are checked
    res = cf.identity_residuals(endo3, [0], [1])
    assert list(res) == ["restriction_preimage_invariance", "poincare_forward"]
    assert all(v == 0 for v in res.values())


def _image_defect(sys, values, a):
    # |m(image of A) - m(A)|, the image form of invariance
    a_mask = sys.mask(a)
    image = sys.mask(sys.mapping[a_mask])
    return abs(values[image].sum() - values[a_mask].sum())


def test_image_invariance_fails_on_collapse(endo2):
    # restriction measure is a point mass at 0; the image of {1} is {0},
    # so image invariance fails by exactly 1 while preimages stay fine
    nu = _restriction(endo2, [0])
    assert _image_defect(endo2, nu, [1]) == 1.0
    assert _image_defect(endo2, nu, [0]) == 0.0
    for a in ([0], [1]):
        res = cf.identity_residuals(endo2, [0], a)
        assert res["restriction_preimage_invariance"] == 0


def test_image_invariance_matches_shift_on_permutation(rot4):
    nu = _restriction(rot4, [0])
    for a in ([0], [1, 3], [0, 1, 2, 3]):
        assert _image_defect(rot4, nu, a) == \
            cf.identity_residuals(rot4, [0], a)["shift_invariance_restriction"]


# ---------------------------------------------------------------------------
# return-time identity


def _kac_factors(sys, b):
    # E(return time | B) and P(B | the backward orbit hits B)
    b_mask = sys.mask(b)
    w = sys.weights
    fwd = cf.hitting_profile(sys, b)
    bwd = cf.hitting_profile(sys, b, cf.BACKWARD)
    expected = (w * fwd.times)[b_mask].sum() / w[b_mask].sum()
    return expected, w[b_mask & bwd.finite].sum() / w[bwd.finite].sum()


_KAC = ("kac_product", "kac_integral_forward", "kac_integral_backward")


def test_return_identity_rotation(rot4):
    res = cf.identity_residuals(rot4, [0], [])
    assert [res[name] for name in _KAC] == [0, 0, 0]
    assert _kac_factors(rot4, [0]) == pytest.approx((4.0, 0.25))


def test_return_identity_transposition(two2):
    assert cf.identity_residuals(two2, [0], [])["kac_product"] == 0
    assert _kac_factors(two2, [0]) == pytest.approx((2.0, 0.5))


def test_return_identity_whole_space(rot4, two2):
    for sys in (rot4, two2):
        full = list(range(sys.size))
        assert cf.identity_residuals(sys, full, [])["kac_product"] == 0
        assert _kac_factors(sys, full) == pytest.approx((1.0, 1.0))


def test_return_identity_needs_positive_mass(two2):
    # a null base set has no return-time law: its Kac terms are left out
    null = cf.FiniteSystem([1, 0, 3, 2], [0.0, 0.0, 0.5, 0.5])
    res = cf.identity_residuals(null, [0], [])
    assert not set(_KAC) & set(res)
    assert set(_KAC) <= set(cf.identity_residuals(two2, [0], []))


def test_return_identity_needs_probability():
    # a probability statement: a mass other than one is normalised first
    sys = cf.FiniteSystem([1, 0], [2.0, 2.0])
    res = cf.identity_residuals(sys, [0], [])
    assert res == cf.identity_residuals(sys.normalized(), [0], [])
    assert res["kac_product"] == 0


# ---------------------------------------------------------------------------
# positivity equivalence and recurrence


def _hit_mass(sys, b):
    return sys.weights[cf.hitting_profile(sys, b).finite].sum()


def test_positivity_flags_agree(two2):
    assert cf.identity_residuals(two2, [0], [])["positivity_bound"] == 0
    assert cf.identity_suite(two2).positivity_violations == 0
    assert two2.weights[0] == pytest.approx(0.3)
    assert _hit_mass(two2, [0]) == pytest.approx(0.6)


def test_positivity_null_set():
    sys = cf.FiniteSystem([1, 0, 3, 2], [0.0, 0.0, 0.5, 0.5])
    assert cf.identity_residuals(sys, [0], [])["positivity_bound"] == 0
    assert cf.identity_suite(sys).positivity_violations == 0
    assert _hit_mass(sys, [0]) == 0


def test_positivity_single_point(rot4):
    assert cf.identity_residuals(rot4, [3], [])["positivity_bound"] == 0
    assert _hit_mass(rot4, [3]) == pytest.approx(1.0)


def test_recurrence_on_endomorphism(endo3):
    for b in ([1], [2]):
        res = cf.identity_residuals(endo3, b, [])
        assert res["poincare_forward"] == 0
        assert "poincare_backward" not in res


def test_recurrence_on_permutation(rot4):
    res = cf.identity_residuals(rot4, [0, 2], [])
    assert _both(res, "poincare") == (0, 0)


# ---------------------------------------------------------------------------
# backward-orbit identity (independent enumeration)


def test_backward_orbit_identity(rot4, two2):
    assert cf.identity_residuals(rot4, [0], [1, 2])["precapacity"] == 0
    assert cf.identity_residuals(two2, [0], [2, 3])["precapacity"] == 0
    assert cf.identity_residuals(two2, [0], [])["precapacity"] == 0

# ---------------------------------------------------------------------------
# whole-lattice suite


def test_suite_rotation_exhaustive(rot4):
    res = cf.identity_suite(rot4)
    assert res.exhaustive
    assert res.n_pairs == 256
    assert res.positivity_violations == 0
    assert all(float(v) == 0 for v in res.residuals.values())


def test_suite_exact_zero(rot4_exact):
    res = cf.identity_suite(rot4_exact)
    assert res.exact
    assert all(v == 0 for v in res.residuals.values())


def test_suite_unequal_weights(two2):
    res = cf.identity_suite(two2)
    worst = max(float(v) for v in res.residuals.values())
    assert worst <= 1e-15


def test_suite_endomorphism(endo3):
    res = cf.identity_suite(endo3)
    assert set(res.residuals) == {"poincare_forward",
                                  "restriction_preimage_invariance"}
    assert all(float(v) == 0 for v in res.residuals.values())


def test_suite_sampling_above_limit():
    rng = np.random.default_rng(5)
    perm = rng.permutation(12)
    sys = cf.FiniteSystem(perm, _cycle_constant_weights(perm, rng))
    res = cf.identity_suite(sys, exhaustive_limit=8, sample_pairs=40, seed=1)
    assert not res.exhaustive
    assert max(float(v) for v in res.residuals.values()) <= 1e-12


def test_suite_refuses_oversized_exhaustive_plan(monkeypatch):
    sys = cf.FiniteSystem(np.roll(np.arange(13), 1), np.ones(13))

    def unreachable(m):
        raise AssertionError("subset matrix built before the refusal")

    monkeypatch.setattr(measure, "_subset_matrix", unreachable)
    with pytest.raises(PreconditionError) as exc:
        cf.identity_suite(sys, exhaustive_limit=13)
    assert "13 points" in str(exc.value)
    assert "8192 base sets" in str(exc.value)
    assert "67108864 subset pairs" in str(exc.value)
    # a limit at or below the cap samples the same system instead
    assert not cf.identity_suite(sys, exhaustive_limit=12).exhaustive


# ---------------------------------------------------------------------------
# integer lattice: exact weights as numerators over one denominator


def _max_subset_sum_loop(diff_cols, a_masks):
    # reference: the interpreted Fraction loop the lattice matmul replaced;
    # the first row attaining the maximum wins
    best = [Fraction(0)] * len(diff_cols)
    arg = [0] * len(diff_cols)
    for r, row in enumerate(a_masks):
        idx = np.flatnonzero(row)
        for c, col in enumerate(diff_cols):
            s = abs(sum((col[i] for i in idx), Fraction(0)))
            if s > best[c]:
                best[c] = s
                arg[c] = r
    return best, arg


# distinct large primes: the common denominator passes 2^64
_BIG_PRIMES = (2 ** 61 - 1, 2 ** 31 - 1, 1000003, 999983)


@pytest.mark.parametrize("dens,dtype", [([3, 4, 6, 12], np.int64),
                                        (list(_BIG_PRIMES), object)])
def test_max_subset_sum_matches_fraction_loop(dens, dtype):
    sys = cf.FiniteSystem.from_rational([1, 2, 0, 3], [1, 2, 3, 4], dens)
    nums, den = measure._lattice(sys.normalized().weights)
    assert nums.dtype == dtype
    rng = np.random.default_rng(8)
    cols = [nums - nums[rng.permutation(4)] for _ in range(6)]
    cols.append(nums * 0)
    a_masks = measure._subset_matrix(4)
    maxima, rows = measure._max_subset_sum(cols, a_masks)
    oracle = [[Fraction(int(x), den) for x in col] for col in cols]
    best, arg = _max_subset_sum_loop(oracle, a_masks)
    assert [Fraction(int(v), den) for v in maxima] == best
    assert list(rows) == arg


# ---------------------------------------------------------------------------
# referee: every identity of one pair (A, B) in plain Fraction arithmetic,
# straight from the definitions (the interpreted excursion loop, preimages
# and inverse iterates enumerated point by point); the restriction kind
# takes the preimage form the suite reports


def _ref_mass(values, mask):
    return sum((v for v, s in zip(values, mask) if s), Fraction(0))


def _ref_excursion(sys, b_mask, step):
    # each positive-weight base point spreads its weight along its orbit
    # until the orbit re-enters B
    values = [Fraction(0)] * sys.size
    for b in np.flatnonzero(b_mask):
        w = sys.weights[b]
        if w == 0:
            continue
        x = int(b)
        for _ in range(sys.size + 1):
            values[x] += w
            x = int(step[x])
            if b_mask[x]:
                break
        else:
            raise AssertionError("a base point never returns")
    return values


def _ref_preimage_defect(sys, values, a_mask):
    # |m(preimage of A) - m(A)|
    pre = [values[x] for x in range(sys.size) if a_mask[sys.mapping[x]]]
    return abs(sum(pre, Fraction(0)) - _ref_mass(values, a_mask))


def _ref_backward_hits(sys, b_mask):
    # points whose strict backward orbit meets B
    inv = sys.inverse_mapping
    out = np.zeros(sys.size, dtype=bool)
    for x in range(sys.size):
        y = x
        for _ in range(sys.size):
            y = inv[y]
            if b_mask[y]:
                out[x] = True
                break
    return out


def _referee(sys, b_mask, a_masks):
    """Per-base-set residuals, the positivity flag, and the per-pair
    residuals of each A."""
    w = sys.weights
    fwd = cf.hitting_profile(sys, b_mask, cf.FORWARD)
    bwd = cf.hitting_profile(sys, b_mask, cf.BACKWARD)
    mu_f = _ref_excursion(sys, b_mask, sys.mapping)
    mu_b = _ref_excursion(sys, b_mask, sys.inverse_mapping)
    nu = [x if f else Fraction(0) for x, f in zip(w, fwd.finite)]
    reach = _ref_backward_hits(sys, b_mask)
    sel = np.flatnonzero(b_mask & (w > 0))
    mass_b = _ref_mass(w, b_mask)
    hits_f = _ref_mass(w, fwd.finite)
    hits_b = _ref_mass(w, bwd.finite)
    base = {
        "poincare_forward": abs(mass_b - _ref_mass(w, b_mask & fwd.finite)),
        "poincare_backward": abs(mass_b - _ref_mass(w, b_mask & bwd.finite)),
        "positivity_bound": max(Fraction(0), mass_b - min(hits_f, hits_b)),
    }
    if mass_b > 0:
        int_f = sum((w[i] * int(fwd.times[i]) for i in sel), Fraction(0))
        int_b = sum((w[i] * int(bwd.times[i]) for i in sel), Fraction(0))
        conditional = _ref_mass(w, b_mask & bwd.finite) / hits_b
        base["kac_product"] = abs(int_f / mass_b * conditional - 1)
        base["kac_integral_forward"] = abs(int_f - hits_b)
        base["kac_integral_backward"] = abs(int_b - hits_f)

    def entrance(prof, a):
        entered = sum((w[i] for i in sel if a[prof.entry[i]]), Fraction(0))
        return abs(entered - _ref_mass(w, a & b_mask))

    pairs = [{
        "excursion_identity_forward":
            abs(_ref_mass(mu_f, a) - _ref_mass(w, a & bwd.finite)),
        "excursion_identity_backward":
            abs(_ref_mass(mu_b, a) - _ref_mass(w, a & fwd.finite)),
        "entrance_invariance_forward": entrance(fwd, a),
        "entrance_invariance_backward": entrance(bwd, a),
        "shift_invariance_forward": _ref_preimage_defect(sys, mu_f, a),
        "shift_invariance_backward": _ref_preimage_defect(sys, mu_b, a),
        "shift_invariance_restriction": _ref_preimage_defect(sys, nu, a),
        "precapacity": abs(_ref_mass(mu_f, a) - _ref_mass(w, a & reach)),
    } for a in a_masks]
    equivalent = (mass_b > 0) == (hits_f > 0) == (hits_b > 0)
    return base, equivalent, pairs


def _indices(mask):
    return tuple(int(i) for i in np.flatnonzero(mask))


def _referee_suite(sys, plan, names):
    """Maxima over a plan with their first worst witnesses, the way the
    suite keeps them, and the positivity violations."""
    best = dict.fromkeys(names, Fraction(0))
    worst = dict.fromkeys(names, (None, None))
    violations = 0

    def keep(name, value, b, a=None):
        if value > best[name]:
            best[name] = value
            worst[name] = (_indices(b), None if a is None else _indices(a))

    for b_mask, a_masks in plan:
        base, equivalent, pairs = _referee(sys, b_mask, a_masks)
        violations += not equivalent
        for name, value in base.items():
            keep(name, value, b_mask)
        for a_mask, pair in zip(a_masks, pairs):
            for name, value in pair.items():
                keep(name, value, b_mask, a_mask)
    return best, worst, violations


def _pair_maxima(sys, plan):
    # every identity over a plan, from one identity_residuals call a pair
    best = {}
    for b, a_masks in plan:
        for a in a_masks:
            for name, value in cf.identity_residuals(sys, b, a).items():
                assert isinstance(value, Fraction), name
                best[name] = max(best.get(name, Fraction(0)), value)
    return best


def _assert_suite_matches_referee(sys, **plan_args):
    res = cf.identity_suite(sys, **plan_args)
    _, plan = measure._suite_masks(
        sys.size, plan_args.get("exhaustive_limit", 8),
        plan_args.get("sample_pairs", 50), plan_args.get("seed", 0))
    best, worst, violations = _referee_suite(sys, plan, res.residuals)
    assert res.residuals == best
    assert res.worst == worst
    assert res.positivity_violations == violations
    assert _pair_maxima(sys, plan) == best
    return res


def test_suite_on_python_int_lattice_matches_referee():
    # a 3-cycle and a fixed point with unrelated weights: not preserving,
    # so every identity has a nonzero residual to get right
    sys = cf.FiniteSystem.from_rational([1, 2, 0, 3], [3, 1, 4, 1],
                                        _BIG_PRIMES).normalized()
    nums, den = measure._lattice(sys.weights)
    assert nums.dtype == object and den > 2 ** 64
    res = _assert_suite_matches_referee(sys)
    assert res.exhaustive
    assert all(isinstance(v, Fraction) for v in res.residuals.values())
    assert res.residuals["precapacity"] > 0


def test_suite_on_sampled_plans_matches_referee():
    # above the exhaustive limit the sampled A sets are not closed under
    # preimages, so the image and preimage forms of the restriction's
    # invariance report different maxima; both sides must take the
    # preimage form
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(9, 14))
        sys = cf.FiniteSystem.from_rational(
            rng.permutation(m), rng.integers(1, 9, m),
            rng.integers(1, 9, m)).normalized()
        res = _assert_suite_matches_referee(sys, exhaustive_limit=8,
                                            sample_pairs=30, seed=seed)
        assert not res.exhaustive
        assert res.residuals["shift_invariance_restriction"] > 0


def test_identity_residuals_take_the_suite_checks_in_report_order(
        rot4, endo3):
    for sys in (rot4, endo3):
        assert list(cf.identity_residuals(sys, [0], [1])) == \
            list(cf.identity_suite(sys).residuals)


def test_suite_witnesses_replay_through_identity_residuals():
    # each worst pair the suite reports gives back that check's maximum
    # when it is asked for alone; a check whose maximum is 0 has none
    sys = cf.FiniteSystem.from_rational([1, 2, 0, 3], [3, 1, 4, 1],
                                        [7, 5, 3, 2])
    res = cf.identity_suite(sys)
    positive = [name for name, v in res.residuals.items() if v > 0]
    assert len(positive) == 11
    for name in positive:
        b, a = res.worst[name]
        assert cf.identity_residuals(sys, b, a)[name] == res.residuals[name]


# ---------------------------------------------------------------------------
# randomized battery: permutations with cycle-constant weights


def _cycle_constant_weights(perm, rng, exact=False):
    m = len(perm)
    weights = np.zeros(m) if not exact else np.array([Fraction(0)] * m,
                                                     dtype=object)
    seen = np.zeros(m, dtype=bool)
    for start in range(m):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = perm[x]
        if exact:
            w = Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 9)))
        else:
            w = float(rng.uniform(0.0, 2.0))
        for i in cycle:
            weights[i] = w
    return weights


def test_random_permutation_battery():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        m = int(rng.integers(2, 65))
        perm = rng.permutation(m)
        sys = cf.FiniteSystem(perm, _cycle_constant_weights(perm, rng))
        if float(sys.total_mass) == 0.0:
            continue
        res = cf.identity_suite(sys, exhaustive_limit=4, sample_pairs=50,
                                seed=int(rng.integers(2 ** 32)))
        worst = max(float(v) for v in res.residuals.values())
        assert worst <= 1e-12, (m, res.worst)
        assert res.positivity_violations == 0


# ---------------------------------------------------------------------------
# property tests


@st.composite
def _permutation_systems(draw):
    m = draw(st.integers(min_value=1, max_value=10))
    perm = draw(st.permutations(range(m)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    weights = _cycle_constant_weights(np.array(perm), rng)
    return cf.FiniteSystem(perm, weights)


def _cycle_labels(mapping):
    # smallest point of the cycle each periodic point lies on; -1 for the
    # points on a tail, which an invariant measure leaves weightless
    m = len(mapping)
    x = np.arange(m)
    for _ in range(m):
        x = mapping[x]
    labels = np.full(m, -1)
    for start in np.unique(x):
        cycle = [start]
        while mapping[cycle[-1]] != start:
            cycle.append(mapping[cycle[-1]])
        labels[cycle] = min(cycle)
    return labels


@st.composite
def _rational_systems(draw):
    # permutations and endomorphisms, with invariant (cycle-constant) or
    # arbitrary rational weights; small numerators and denominators keep
    # every nonzero exact residual far above the float tolerance
    m = draw(st.integers(min_value=1, max_value=6))
    invertible = draw(st.booleans())
    if invertible:
        mapping = np.array(draw(st.permutations(range(m))))
    else:
        mapping = np.array(draw(st.lists(st.integers(0, m - 1),
                                         min_size=m, max_size=m)))
    fractions = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))
    if draw(st.booleans()):
        labels = _cycle_labels(mapping)
        per_cycle = {c: draw(fractions) for c in np.unique(labels[labels >= 0])}
        weights = [per_cycle[c] if c >= 0 else Fraction(0) for c in labels]
    else:
        weights = draw(st.lists(fractions, min_size=m, max_size=m))
    if sum(weights) == 0:
        weights[int(np.flatnonzero(_cycle_labels(mapping) >= 0)[0])] = 1
    return cf.FiniteSystem(mapping, np.array(weights, dtype=object),
                           invertible=invertible)


@given(_rational_systems())
@settings(max_examples=60, deadline=None)
def test_property_exact_and_float_engines_agree(sys):
    twin = cf.FiniteSystem(sys.mapping, [float(w) for w in sys.weights],
                           invertible=sys.invertible)
    exact = cf.identity_suite(sys)
    approx = cf.identity_suite(twin)
    assert exact.exact and not approx.exact
    assert exact.residuals.keys() == approx.residuals.keys()
    for name, value in exact.residuals.items():
        assert (value == 0) == (approx.residuals[name] <= 1e-12), \
            (name, value, approx.residuals[name])
    assert exact.positivity_violations == approx.positivity_violations


@given(_permutation_systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_property_excursion_identity(sys, data):
    b = data.draw(st.sets(st.integers(0, sys.size - 1), min_size=1))
    a = data.draw(st.sets(st.integers(0, sys.size - 1)))
    res = cf.identity_residuals(sys, sorted(b), sorted(a))
    assert max(_both(res, "excursion_identity")) <= 1e-12


@given(_permutation_systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_property_occupation_of_space_is_return_time(sys, data):
    b = data.draw(st.sets(st.integers(0, sys.size - 1), min_size=1))
    start = data.draw(st.integers(0, sys.size - 1))
    occ = _occupation_count(sys, list(range(sys.size)), sorted(b), start)
    prof = cf.hitting_profile(sys, sorted(b))
    assert occ == prof.times_or_inf[start]
