"""Exact inference over small finite joints of (X, Z1, Z2, N).

Everything here enumerates the full support, so conditional
expectations are exact up to floating-point rounding; all checks use a
1e-12 tolerance and nothing looser.  Every conditional expectation is
one group mean over the support (``_cond_mean``), and a joint groups
its support once per conditioning set: ``by_x`` and ``by_x_y2`` label
each outcome by its X and its (X, Y2) value on first use and are kept
on the joint.  ``build_joint`` (from maps) and ``random_joint`` (from
arrays of draws) share one array assembler.  These joints back the
equivalence, error-bound and exact-recovery checks for the estimators.

``stack`` puts independent joints into one block: a ``DiscreteJoint``
whose ``joint`` column labels each outcome with its joint.  The label
leads every grouping, so each group, and each group sum, is the one the
joint has alone, and ``exact_tqs`` and the theorem checks take a whole
block in one call and give per-joint results, bit for bit those of the
one-joint calls.  A single joint (no ``joint`` column) is the block of
one and gets its results unwrapped.  ``tqsreg verify`` checks its
random joints one block at a time: one exact 3QS pass per block, whose
estimate the theorem checks take.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOL = 1e-12

Outcome = namedtuple("Outcome", "x z1 z2 n y1 y2")


class JointError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite joint over (X, Z1, Z2, N) with deterministic measurements,
    or a block of independent joints (see ``stack``)."""

    x: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    n: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    fvals: np.ndarray  # f(N) evaluated per outcome
    probs: np.ndarray
    additive: bool
    joint: np.ndarray | None = None  # a block's joint of each outcome

    def __post_init__(self):
        if len(self.probs) == 0:
            raise JointError("empty support")
        if self.joint is not None:
            steps = np.diff(self.joint)
            if (len(self.joint) != len(self.probs) or self.joint[0] != 0
                    or np.any((steps != 0) & (steps != 1))):
                raise JointError("joint labels must run 0, 1, ... in support order")
        spans = self.spans
        if max(b - a for a, b in spans) > 10_000:
            raise JointError("support too large to enumerate")
        if np.any(self.probs <= 0):
            raise JointError("probabilities must be positive")
        if any(abs(self.probs[a:b].sum() - 1.0) > TOL for a, b in spans):
            raise JointError("probabilities must sum to 1")

    @cached_property
    def starts(self):
        """Index of each joint's first outcome."""
        if self.joint is None:
            return np.zeros(1, dtype=np.intp)
        return np.flatnonzero(np.diff(self.joint, prepend=-1))

    @property
    def spans(self):
        """(start, stop) of each joint's outcomes."""
        if self.joint is None:
            return [(0, len(self.probs))]
        bounds = self.starts.tolist() + [len(self.probs)]
        return list(zip(bounds[:-1], bounds[1:]))

    @property
    def _labels(self):
        return () if self.joint is None else (self.joint,)

    @cached_property
    def by_x(self):
        """Group id of each outcome's (joint,) X value (see ``_group_ids``)."""
        return _group_ids(*self._labels, self.x)

    @cached_property
    def by_x_y2(self):
        """Group id of each outcome's (joint,) (X, Y2) value."""
        return _group_ids(*self._labels, self.x, self.y2)

    @property
    def size(self):
        return len(self.probs)

    def outcomes(self):
        return [
            Outcome(self.x[i], self.z1[i], self.z2[i], self.n[i], self.y1[i], self.y2[i])
            for i in range(self.size)
        ]

    def expectations(self, values):
        """E[values] of each joint: one ``np.dot`` over its span."""
        p = self.probs
        return np.array([np.dot(p[a:b], values[a:b]) for a, b in self.spans])

    def expectation(self, values):
        """E[values] of a single joint."""
        (e,) = self.expectations(values)
        return float(e)

    def _unwrap(self, per_joint):
        """A per-joint list as the caller sees it: its one item for a
        single joint, the list for a block."""
        return per_joint[0] if self.joint is None else per_joint


_COLUMNS = ("x", "z1", "z2", "n", "y1", "y2", "fvals", "probs")


def stack(joints):
    """One block of the given single joints, in order."""
    if len({j.additive for j in joints}) != 1:
        raise JointError("a block needs joints that are all additive or all not")
    return DiscreteJoint(
        **{c: np.concatenate([getattr(j, c) for j in joints]) for c in _COLUMNS},
        additive=joints[0].additive,
        joint=np.repeat(np.arange(len(joints)), [j.size for j in joints]))


@dataclass(frozen=True)
class TheoremReport:
    lhs: float
    rhs: float
    satisfied: bool
    slack: float


def _unnormalized(ps):
    """Whether each row of ``ps`` fails to be a distribution."""
    return (ps.min(-1) < 0) | (abs(ps.sum(-1) - 1.0) > 1e-9)


def _checked(ps, what):
    if _unnormalized(ps):
        raise JointError(f"{what} distribution is not normalized")


def _normalized(dist, what):
    """Sorted values and probabilities of a value -> probability map,
    checked and without its zero-probability values."""
    vals = np.array(sorted(dist), dtype=float)
    ps = np.array([dist[v] for v in sorted(dist)], dtype=float)
    _checked(ps, what)
    keep = ps > 0
    return vals[keep], ps[keep]


def _kernel(rows):
    """One sorted support and the matrix P[i, j] = P(support[j] | x_i)
    from per-x (values, probabilities) pairs."""
    vals = np.unique(np.concatenate([v for v, _ in rows]))
    p = np.zeros((len(rows), len(vals)))
    for i, (v, ps) in enumerate(rows):
        p[i, np.searchsorted(vals, v)] = ps
    return vals, p


def _assemble(xs, px, z1s, pz1, z2s, pz2, ns, pn, fn, m1=None, m2=None):
    """The joint p(x) p(z1|x) p(z2|x) p(n) on sorted supports.

    ``pz1[i, j]`` is P(Z1 = z1s[j] | X = xs[i]), ``pz2`` likewise, and
    ``fn[k]`` is f(ns[k]).  The measurements are y_i = z_i + f(n) unless
    ``m1``/``m2`` give them per (z, n) pair: y1 = m1[j, k] at
    (z1s[j], ns[k]).  The outcomes are the cells of positive probability
    of the (x, z1, z2, n) grid, in that lexicographic order.
    """
    keep = ((px > 0)[:, None, None, None] & (pz1 > 0)[:, :, None, None]
            & (pz2 > 0)[:, None, :, None] & (pn > 0))
    ix, i1, i2, i3 = np.nonzero(keep)
    z1, z2, fvals = z1s[i1], z2s[i2], fn[i3]
    additive = m1 is None
    y1, y2 = (z1 + fvals, z2 + fvals) if additive else (m1[i1, i3], m2[i2, i3])
    return DiscreteJoint(x=xs[ix], z1=z1, z2=z2, n=ns[i3], y1=y1, y2=y2, fvals=fvals,
                         probs=px[ix] * pz1[ix, i1] * pz2[ix, i2] * pn[i3],
                         additive=additive)


def build_joint(px, pz1_given_x, pz2_given_x, pn, f, additive=True,
                measure_y1=None, measure_y2=None):
    """Assemble a joint factorizing as p(x) p(z1|x) p(z2|x) p(n).

    ``px`` and ``pn`` map value -> probability; the kernels map each x
    value to such a distribution; ``f`` maps n to the error term.  With
    ``additive=True`` the measurements are y_i = z_i + f(n); otherwise
    explicit ``measure_y1(z1, n)`` / ``measure_y2(z2, n)`` maps are
    required.  ``f`` is called once per value of N and each measurement
    map once per (z, n) pair.  The support is ordered by x, then z1, z2
    and n.
    """
    if not additive and (measure_y1 is None or measure_y2 is None):
        raise JointError("non-additive joints need explicit measurement maps")
    xs, pxs = _normalized(px, "x")
    ns, pns = _normalized(pn, "n")
    rows = [(_normalized(pz1_given_x[xv], f"z1|x={xv}"),
             _normalized(pz2_given_x[xv], f"z2|x={xv}")) for xv in xs]
    z1s, pz1 = _kernel([r1 for r1, _ in rows])
    z2s, pz2 = _kernel([r2 for _, r2 in rows])
    fn = np.array([f(v) for v in ns])
    if additive:
        return _assemble(xs, pxs, z1s, pz1, z2s, pz2, ns, pns, fn)
    m1 = np.array([[measure_y1(z, v) for v in ns] for z in z1s])
    m2 = np.array([[measure_y2(z, v) for v in ns] for z in z2s])
    return _assemble(xs, pxs, z1s, pz1, z2s, pz2, ns, pns, fn, m1, m2)


def _group_ids(*cols):
    """Label each outcome by its row of ``cols``: 0, 1, ... over the
    distinct rows in lexicographic order, as ``np.unique(axis=0)`` does.

    One 1-D ``np.unique`` per column; the labels so far and the column's
    combine into one integer, relabelled to stay below the support size.
    """
    _, ids = np.unique(cols[0], return_inverse=True)
    for col in cols[1:]:
        vals, inv = np.unique(col, return_inverse=True)
        _, ids = np.unique(ids * len(vals) + inv, return_inverse=True)
    return ids


def _cond_mean(joint, values, ids):
    """Exact E[values | group] at every outcome, in support order.

    ``ids`` labels each outcome's conditioning group; ``bincount`` sums
    each group in support order, so any labelling of the same partition
    gives the same bits.
    """
    num = np.bincount(ids, weights=joint.probs * values)
    den = np.bincount(ids, weights=joint.probs)
    return (num / den)[ids]


def exact_cond_expectation(joint, target, given):
    """Exact E[target | given] of a single joint, as a map from
    given-value tuples to reals.

    ``target`` and each element of ``given`` are functions of an
    Outcome.  Only attained given-values appear, so conditioning events
    always have positive probability.
    """
    if joint.joint is not None:
        raise JointError("exact_cond_expectation takes a single joint, not a block")
    outs = joint.outcomes()
    tvals = np.array([target(o) for o in outs], dtype=float)
    keys = [tuple(g(o) for g in given) for o in outs]
    means = _cond_mean(joint, tvals, _group_ids(*np.array(keys, dtype=float).T))
    return dict(zip(keys, means))


FORMS_DISAGREE = "3QS forms disagree: estimator implementation bug"


class FormsDisagree(AssertionError):
    """The two 3QS forms differ by more than 1e-12 in ``joints`` (their
    indices in the block); ``z_hat`` holds the residual form for all."""

    def __init__(self, joints, z_hat):
        super().__init__(FORMS_DISAGREE)
        self.joints, self.z_hat = joints, z_hat


def exact_tqs(joint):
    """Exact 3QS estimate at every outcome, via both algebraic forms.

    Evaluates the residual form and the alternate form with exact
    conditional expectations, checks that they agree within 1e-12 in
    every joint (else raises ``FormsDisagree``) and returns the
    residual-form values (aligned with the support order).
    """
    e_y1_x = _cond_mean(joint, joint.y1, joint.by_x)
    eq1 = joint.y1 - _cond_mean(joint, joint.y1 - e_y1_x, joint.by_x_y2)
    eq2 = joint.y1 - _cond_mean(joint, joint.y1, joint.by_x_y2) + e_y1_x
    gap = np.maximum.reduceat(np.abs(eq1 - eq2), joint.starts)
    if np.any(gap > TOL):
        raise FormsDisagree(np.flatnonzero(gap > TOL).tolist(), eq1)
    return eq1


def check_mean_match(joint):
    """Verify E[Y1|X=x] = E[Z1|X=x] for every x of every joint; raise
    naming the first joint's offenders."""
    gap = _cond_mean(joint, joint.y1, joint.by_x) - _cond_mean(joint, joint.z1, joint.by_x)
    bad = np.abs(gap) > 1e-9
    if not bad.any():
        return
    if joint.joint is None:
        raise JointError(f"E[Y1|X] != E[Z1|X] at X={np.unique(joint.x[bad]).tolist()}")
    k = joint.joint[bad][0]
    xs = np.unique(joint.x[bad & (joint.joint == k)]).tolist()
    raise JointError(f"joint {k}: E[Y1|X] != E[Z1|X] at X={xs}")


def _reports(joint, lhs, rhs, slack):
    return joint._unwrap([TheoremReport(*r) for r in zip(
        lhs.tolist(), rhs.tolist(), (slack >= -TOL).tolist(), slack.tolist())])


def verify_theorem1(joint, z_hat):
    """Exact-expectation error bound: MSE of the estimate ``z_hat`` vs raw Y1."""
    check_mean_match(joint)
    lhs = joint.expectations((z_hat - joint.z1) ** 2)
    rhs = joint.expectations((joint.y1 - joint.z1) ** 2)
    return _reports(joint, lhs, rhs, rhs - lhs)


def verify_theorem2(joint, z_hat):
    """Additive-model identity for the 3QS estimate ``z_hat``: its
    offset-corrected MSE equals E[Var(f(N)|X,Y2)]."""
    if not joint.additive:
        raise JointError("theorem 2 requires an additive joint")
    ef = joint.expectations(joint.fvals)
    ef = ef[0] if joint.joint is None else ef[joint.joint]
    lhs = joint.expectations((z_hat - (joint.z1 + ef)) ** 2)
    noise = joint.y1 - joint.z1
    e_f = _cond_mean(joint, noise, joint.by_x_y2)
    e_f2 = _cond_mean(joint, noise ** 2, joint.by_x_y2)
    rhs = joint.expectations(e_f2 - e_f ** 2)
    return _reports(joint, lhs, rhs, -np.abs(lhs - rhs))


def noise_is_observable(joint):
    """True when f(N) is constant on every attained (x, y2) group, per joint."""
    ids = joint.by_x_y2
    hi = np.full(ids.max() + 1, -np.inf)
    lo = np.full(hi.size, np.inf)
    np.maximum.at(hi, ids, joint.fvals)
    np.minimum.at(lo, ids, joint.fvals)
    observed = (hi - lo <= TOL)[ids]
    return joint._unwrap(np.logical_and.reduceat(observed, joint.starts).tolist())


_VALUES = np.arange(-2.0, 3.0)  # random_joint's support values


def random_joint(rng, additive=True, zero_mean_f=True):
    """Small random joint for the randomized theorem suites.

    Supports of size 2-4 per variable, values from {-2..2},
    probabilities from a symmetric Dirichlet(1).  Every support is then
    sorted and checked as ``build_joint`` does with its maps.
    """
    def support(size):
        return rng.choice(_VALUES, size=size, replace=False)

    kx, kz1, kz2, kn = rng.integers(2, 5, size=4)
    xs, z1s, z2s, ns = support(kx), support(kz1), support(kz2), support(kn)
    px = rng.dirichlet(np.ones(kx))
    pz1 = rng.dirichlet(np.ones(kz1), size=kx)  # row i: Z1 given X = xs[i]
    pz2 = rng.dirichlet(np.ones(kz2), size=kx)
    pn = rng.dirichlet(np.ones(kn))
    fn = rng.uniform(-2.0, 2.0, size=kn)
    if zero_mean_f:
        fn = fn - np.dot(pn, fn)
    m1 = m2 = None
    if not additive:
        m1 = rng.uniform(-2.0, 2.0, size=(kz1, kn))
        m2 = rng.uniform(-2.0, 2.0, size=(kz2, kn))

    ox, o1, o2, on = (np.argsort(v) for v in (xs, z1s, z2s, ns))
    xs, z1s, z2s, ns = xs[ox], z1s[o1], z2s[o2], ns[on]
    px, pn, fn = px[ox], pn[on], fn[on]
    pz1, pz2 = pz1[ox][:, o1], pz2[ox][:, o2]
    _checked(px, "x")
    _checked(pn, "n")
    if np.any((_unnormalized(pz1) | _unnormalized(pz2)) & (px > 0)):
        for xv, p, r1, r2 in zip(xs, px, pz1, pz2):  # name the first bad row
            if p > 0:
                _checked(r1, f"z1|x={xv}")
                _checked(r2, f"z2|x={xv}")
    if not additive:
        m1, m2 = m1[o1][:, on], m2[o2][:, on]
    return _assemble(xs, px, z1s, pz1, z2s, pz2, ns, pn, fn, m1, m2)
