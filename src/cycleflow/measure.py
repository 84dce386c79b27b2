"""Finite measure-preserving systems and their excursion identities.

A system is a finite point set carrying nonnegative weights and a
self-map.  Everything observable about hitting times, occupation counts
and excursion (cycle) measures on such a system is exactly computable,
so identities that hold only almost everywhere in general become finite
checks here: each one is exposed as a residual that must vanish.

Weights are either float64 or ``fractions.Fraction`` objects; in the
rational case every residual is computed exactly and equality means
equality, not closeness.  Both run one numpy code path: Fraction weights
are scaled once to integer numerators over their common denominator L
(int64, or Python ints where int64 could overflow), and values become
``Fraction(num, L)`` only at the end.  Each identity is defined once, in
``_identity_terms``, as a signed vector whose sum over every set A must
vanish; ``identity_suite`` reduces it over its plan of pairs and
``identity_residuals`` sums it over the one A it is given.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (
    InternalInconsistencyError,
    InvariantError,
    PreconditionError,
    UnsupportedOperationError,
    check_entries,
)

FORWARD = "forward"
BACKWARD = "backward"

_NO_RETURN = ("a positive-weight point of the base set never returns; "
              "the system cannot be measure-preserving")


def event_mask(size, members, field="members"):
    """Normalise a point selection to a boolean mask of length ``size``.

    ``members`` is a boolean mask, point indices or None (the empty set);
    a bad one is an ``InvariantError`` on ``field`` or ``field[i]``.
    """
    mask = np.zeros(size, dtype=bool)
    if members is None:
        return mask
    if isinstance(members, (set, frozenset)):
        members = sorted(members)
    members = np.asarray(members)
    if members.dtype == bool:
        if members.shape != (size,):
            raise InvariantError("boolean mask has wrong length", field=field)
        return members.copy()
    if members.size == 0:
        return mask
    idx = check_entries(members, field, size).astype(np.int64)
    if not np.array_equal(idx, members):
        raise InvariantError("point indices must be integers", field=field)
    mask[idx] = True
    return mask


def _indices(mask):
    return tuple(int(i) for i in np.flatnonzero(mask))


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """A weighted finite point set with a self-map.

    The system keeps read-only copies of its mapping and weights, so what
    is derived from them (``inverse_mapping``) is computed once.

    Parameters
    ----------
    mapping : array of int
        mapping[i] is the index the i-th point is sent to.
    weights : array of float or Fraction
        Nonnegative mass of each point.  An object array of Fractions
        switches every computation on this system to exact arithmetic.
    invertible : bool
        Declares the map a permutation; backward-time operations demand
        it.  The declaration is checked.
    points : list, optional
        Point labels, defaults to 0..m-1.  Labels are carried through
        restriction and reporting but never interpreted.
    source : str, optional
        The file the system was loaded from, for reports.
    """

    # the document kind; a class attribute, not a field
    kind = "finite_system"

    mapping: np.ndarray
    weights: np.ndarray
    invertible: bool = True
    points: list = None
    source: str = None

    def __post_init__(self):
        mapping = np.array(self.mapping, dtype=np.int64)
        if mapping.ndim != 1 or mapping.size == 0:
            raise InvariantError("mapping must be a nonempty 1-d array",
                                 field="mapping")
        m = mapping.shape[0]
        check_entries(mapping, "mapping", m)

        weights = np.asarray(self.weights)
        if weights.shape != (m,):
            raise InvariantError("weights length does not match mapping",
                                 field="weights")
        if weights.dtype == object:
            weights = np.array(
                [w if isinstance(w, Fraction) else Fraction(w) for w in weights],
                dtype=object,
            )
        else:
            weights = weights.astype(np.float64)
        check_entries(weights, "weights")
        # Fraction weights sum exactly; float weights may overflow to inf
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not (weights.dtype == object or math.isfinite(total)):
            raise InvariantError("total mass overflows float64",
                                 field="weights")
        if not total > 0:
            raise InvariantError("total mass must be positive", field="weights")

        if self.invertible and np.bincount(mapping, minlength=m).max() > 1:
            raise InvariantError(
                "system declared invertible but the map is not a permutation",
                field="invertible",
            )
        points = list(range(m) if self.points is None else self.points)
        if len(points) != m:
            raise InvariantError("points length does not match mapping",
                                 field="points")
        mapping.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "points", points)

    @property
    def size(self):
        return self.mapping.shape[0]

    @property
    def exact(self):
        """True when weights are Fractions and residuals are exact."""
        return self.weights.dtype == object

    @property
    def total_mass(self):
        return self.weights.sum()

    @cached_property
    def inverse_mapping(self):
        if not self.invertible:
            raise UnsupportedOperationError(
                "backward iteration needs an invertible system")
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.size)
        inv.flags.writeable = False
        return inv

    def normalized(self):
        """The same system with total mass scaled to one (exactly, in
        rational mode)."""
        total = self.total_mass
        if total == 1:
            return self
        return FiniteSystem(self.mapping, self.weights / total,
                            invertible=self.invertible,
                            points=self.points)


def check_preserving(system):
    """The largest single-point violation of measure preservation: the
    mass a point receives from its preimage against its own mass.  The
    system is normalised as in ``identity_suite``, so this is on the
    scale of its residuals: a float, or a Fraction for exact weights.
    """
    sysn = system.normalized()
    w, den = _lattice(sysn.weights)
    pushed = _scatter(sysn.mapping, w, sysn.size)
    return _unlattice(np.abs(pushed - w).max(), den)


def _scatter(index, values, m):
    """out[j] = sum of values[k] over index[k] == j, added in k order (the
    order of ``np.bincount``), in the dtype of ``values``."""
    out = np.zeros(m, dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def _lattice(weights):
    """Weights as ``(values, den)`` for the one arithmetic path.

    float64 weights pass through with den None.  Fraction weights become
    integer numerators over their common denominator den: int64 while
    max|num| * m < 2^62, Python ints in object arrays otherwise.  The
    bound covers every value formed from them: excursion masses and Kac
    integrals stay below max|num| * m on a permutation (the return times
    of a cycle's base points sum to its length), hitting masses below
    the total, and a subset sum of a difference of two nonnegative
    vectors below the larger of their totals."""
    if weights.dtype != object:
        return weights, None
    den = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    dtype = np.int64 if max(nums) * len(nums) < 2 ** 62 else object
    return np.array(nums, dtype=dtype), den


def _unlattice(value, den):
    """A lattice value back in the weights' arithmetic: float for float
    weights, ``Fraction(num, den)`` for exact ones; a ratio of two lattice
    values is a Fraction already.  Vectors convert elementwise."""
    if np.ndim(value):
        if den is None:
            return value
        return np.array([_unlattice(v, den) for v in value], dtype=object)
    if den is None:
        return float(value)
    return value if isinstance(value, Fraction) else Fraction(int(value), den)


def _ratio(a, b, den):
    return a / b if den is None else Fraction(int(a), int(b))


@dataclass
class HittingProfile:
    """First entry times into a set along forward or backward orbits.

    times[i] is the least n >= 1 with the n-th iterate of point i in the
    set, or -1 when the orbit never enters it; entry[i] is the point
    first entered (i itself when times[i] = -1).
    """

    times: np.ndarray
    entry: np.ndarray
    finite: np.ndarray = field(init=False)

    def __post_init__(self):
        self.finite = self.times > 0


def _step_map(system, direction):
    if direction == FORWARD:
        return system.mapping
    if direction == BACKWARD:
        return system.inverse_mapping
    raise PreconditionError("direction must be forward or backward",
                            field="direction")


def hitting_profile(system, members, direction=FORWARD):
    """First entry times of every point into ``members``.

    The count starts at one step, so a point inside the set reports its
    return time, not zero.
    """
    mask = event_mask(system.size, members)
    step = _step_map(system, direction)
    return HittingProfile(*_kernels.hitting_times(step, mask))


def _excursion_sweep(step, b_mask, weights):
    """Excursion mass vector of float or integer-lattice ``weights``."""
    start = np.flatnonzero(b_mask & (weights > 0)).astype(np.int64)
    values, status = _kernels.excursion_mass(step, b_mask, start,
                                             weights[start])
    if status != 0:
        raise InternalInconsistencyError(_NO_RETURN)
    return values


class _IdentityTerms(NamedTuple):
    """Every identity over one base set B, on lattice weights.

    ``vectors`` maps each vector identity to the signed vector whose sum
    over every set A must vanish; ``terms`` holds the recurrence,
    positivity and Kac residuals under their check names, and whether
    B and its two hitting sets are positive together (``equivalent``).
    ``den`` is the lattice denominator (None for float weights)."""

    vectors: dict
    terms: dict
    den: object

    def over(self, name, a_mask):
        """Residual of a vector identity on the set A."""
        return _unlattice(abs(self.vectors[name][a_mask].sum()), self.den)

    def value(self, name):
        return _unlattice(self.terms[name], self.den)


def _identity_terms(system, w, den, b_mask):
    """The identities of ``system`` over base set ``b_mask``, on weights
    ``w`` (float64, or a lattice from ``_lattice`` over ``den``).

    The two sides of each identity come from independent computations:
    excursion sweeps against hitting times, entry points against the
    base set, and OR-doubled backward hits (no hitting times) against the
    forward excursion.  A non-invertible system gets the forward
    recurrence and the preimage invariance of the restriction only.
    """
    m = system.size
    b_sel = b_mask & (w > 0)
    fwd = hitting_profile(system, b_mask, FORWARD)
    mass_b = w[b_mask].sum()
    terms = {"poincare_forward": abs(mass_b - w[b_mask & fwd.finite].sum())}
    nu = np.where(fwd.finite, w, 0)
    # restriction to the hitting set is preimage-invariant for any map;
    # image invariance can fail on an endomorphism
    restriction = _scatter(system.mapping, nu, m) - nu
    if not system.invertible:
        vectors = {"restriction_preimage_invariance": restriction}
        return _IdentityTerms(vectors, terms, den)
    bwd = hitting_profile(system, b_mask, BACKWARD)
    terms["poincare_backward"] = abs(mass_b - w[b_mask & bwd.finite].sum())
    mu_f = _excursion_sweep(system.mapping, b_mask, w)
    mu_b = _excursion_sweep(system.inverse_mapping, b_mask, w)
    wb = np.where(b_mask, w, 0)
    reach = _kernels.backward_hits(system.inverse_mapping, b_mask)
    vectors = {
        "excursion_identity_forward": mu_f - np.where(bwd.finite, w, 0),
        "excursion_identity_backward": mu_b - nu,
        "entrance_invariance_forward":
            _scatter(fwd.entry[b_sel], w[b_sel], m) - wb,
        "entrance_invariance_backward":
            _scatter(bwd.entry[b_sel], w[b_sel], m) - wb,
        "shift_invariance_forward": _scatter(system.mapping, mu_f, m) - mu_f,
        "shift_invariance_backward": _scatter(system.mapping, mu_b, m) - mu_b,
        "shift_invariance_restriction": restriction,
        "precapacity": mu_f - np.where(reach, w, 0),
    }
    hits_fwd = w[fwd.finite].sum()
    hits_bwd = w[bwd.finite].sum()
    terms.update(
        equivalent=bool((mass_b > 0) == (hits_fwd > 0) == (hits_bwd > 0)),
        positivity_bound=max(0, mass_b - min(hits_fwd, hits_bwd)))
    if mass_b > 0:
        # cumsum adds left to right, the order of a plain loop over B
        int_fwd = np.cumsum(w[b_sel] * fwd.times[b_sel])[-1]
        int_bwd = np.cumsum(w[b_sel] * bwd.times[b_sel])[-1]
        expected = _ratio(int_fwd, mass_b, den)
        conditional = _ratio(w[b_mask & bwd.finite].sum(), hits_bwd, den)
        terms.update(kac_product=abs(expected * conditional - 1),
                     kac_integral_forward=abs(int_fwd - hits_bwd),
                     kac_integral_backward=abs(int_bwd - hits_fwd))
    return _IdentityTerms(vectors, terms, den)


# ---------------------------------------------------------------------------
# whole-lattice identity suite


# An exhaustive plan examines 2^m base sets against 2^m A sets each; above
# this many points (2^24 pairs) it is refused before anything is built.
EXHAUSTIVE_CAP = 12
# A sampled plan keeps a B and an A mask, a byte per point, for each pair;
# one whose masks would pass this many bytes is refused before drawing.
MAX_PLAN_BYTES = 2 ** 26


@lru_cache(maxsize=16)
def _subset_matrix(m):
    # row k of the matrix is the indicator of subset k, bit i <-> point i
    return ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1).astype(bool)


@dataclass
class IdentitySuiteResult:
    exhaustive: bool
    n_base_sets: int
    n_pairs: int
    residuals: dict
    worst: dict
    positivity_violations: int


def _suite_masks(m, exhaustive_limit, sample_pairs, seed):
    """Base sets and per-base-set A collections to examine."""
    if m <= exhaustive_limit:
        if m > EXHAUSTIVE_CAP:
            raise PreconditionError(
                "an exhaustive plan over %d points examines %d base sets and "
                "%d subset pairs; at most %d points are enumerated, so set "
                "exhaustive_limit below %d to sample pairs instead"
                % (m, 2 ** m, 4 ** m, EXHAUSTIVE_CAP, m),
                field="exhaustive_limit")
        full = _subset_matrix(m)
        return True, [(full[k], full) for k in range(2 ** m)]
    size = 2 * m * sample_pairs
    if size > MAX_PLAN_BYTES:
        raise PreconditionError(
            "the masks of %d sampled pairs over %d points take %d bytes, over "
            "the cap of %d bytes" % (sample_pairs, m, size, MAX_PLAN_BYTES),
            field="sample_pairs")
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(sample_pairs):
        b = rng.random(m) < rng.uniform(0.1, 0.9)
        a = rng.random(m) < rng.uniform(0.1, 0.9)
        groups.setdefault(b.tobytes(), [b, []])[1].append(a)
    out = []
    for b, a_list in groups.values():
        out.append((b, np.array(a_list)))
    return False, out


def _max_subset_sum(diff_cols, a_masks):
    """Largest |sum over A| per column, with the first A row attaining it."""
    stacked = np.column_stack(diff_cols)
    vals = np.abs(a_masks.astype(stacked.dtype) @ stacked)
    return vals.max(axis=0), vals.argmax(axis=0)


# the suite's checks in report order, by invertibility of the system:
# vector identities (reduced over A) first, then per-base-set residuals
_SUITE_CHECKS = {
    True: (("excursion_identity_forward", "excursion_identity_backward",
            "entrance_invariance_forward", "entrance_invariance_backward",
            "shift_invariance_forward", "shift_invariance_backward",
            "shift_invariance_restriction", "precapacity"),
           ("poincare_forward", "poincare_backward", "kac_product",
            "kac_integral_forward", "kac_integral_backward",
            "positivity_bound")),
    False: (("restriction_preimage_invariance",), ("poincare_forward",)),
}


def identity_residuals(system, b_members, a_members):
    """Every check of ``identity_suite`` on the one pair (A, B).

    Returns the suite's check names for this system, in report order,
    each mapped to its residual: the vector identities summed over A,
    the recurrence, Kac and positivity residuals of B alone.  The system
    is normalised as in the suite.  The Kac residuals are left out when
    B has no mass, and a non-invertible system gets the forward subset.
    """
    sysn = system.normalized()
    w, den = _lattice(sysn.weights)
    t = _identity_terms(sysn, w, den, event_mask(sysn.size, b_members))
    a_mask = event_mask(sysn.size, a_members)
    vector_names, scalar_names = _SUITE_CHECKS[sysn.invertible]
    out = {name: t.over(name, a_mask) for name in vector_names}
    out.update((name, t.value(name)) for name in scalar_names
               if name in t.terms)
    return out


def identity_suite(system, exhaustive_limit=8, sample_pairs=50, seed=0):
    """Evaluate every excursion identity over the subset lattice.

    Systems with at most ``exhaustive_limit`` points are checked over all
    pairs of subsets (A, B); larger systems over ``sample_pairs`` seeded
    random pairs.  Exhaustive plans over more than ``EXHAUSTIVE_CAP``
    points, and sampled plans whose masks take more than
    ``MAX_PLAN_BYTES``, are refused with a PreconditionError.  The system is
    normalised internally so probability statements apply.  Residuals
    are reported as maxima over everything examined, together with the
    worst witnessing pair.

    Non-invertible systems get the forward recurrence check only; the
    other identities need both orbit directions.
    """
    exhaustive, plan = _suite_masks(system.size, exhaustive_limit,
                                    sample_pairs, seed)
    sysn = system.normalized()
    w, den = _lattice(sysn.weights)
    vector_names, scalar_names = _SUITE_CHECKS[sysn.invertible]
    residuals = {name: 0 for name in vector_names + scalar_names}
    worst = {name: (None, None) for name in residuals}
    violations = 0
    n_pairs = 0

    def bump(name, value, b_mask, a_mask=None):
        if value > residuals[name]:
            residuals[name] = value
            worst[name] = (_indices(b_mask),
                           None if a_mask is None else _indices(a_mask))

    for b_mask, a_masks in plan:
        n_pairs += len(a_masks)
        t = _identity_terms(sysn, w, den, b_mask)
        maxima, argrows = _max_subset_sum(
            [t.vectors[name] for name in vector_names], a_masks)
        for name, value, row in zip(vector_names, maxima, argrows):
            bump(name, value, b_mask, np.asarray(a_masks[row]))
        for name in scalar_names:
            if name in t.terms:
                bump(name, t.terms[name], b_mask)
        violations += not t.terms.get("equivalent", True)

    residuals = {name: _unlattice(v, den) for name, v in residuals.items()}
    return IdentitySuiteResult(
        exhaustive=exhaustive,
        n_base_sets=len(plan),
        n_pairs=n_pairs,
        residuals=residuals,
        worst=worst,
        positivity_violations=violations,
    )
