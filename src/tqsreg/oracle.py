"""Exact inference over small finite joints of (X, Z1, Z2, N).

Everything here enumerates the full support, so conditional
expectations are exact up to floating-point rounding; all checks use a
1e-12 tolerance and nothing looser.  Every conditional expectation is
one group mean over the support (``_cond_mean``).  These joints back the
equivalence, error-bound and exact-recovery checks for the estimators:
``tqsreg verify`` computes one exact 3QS estimate per joint with
``exact_tqs``, and the theorem checks take the estimate they check.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

TOL = 1e-12

Outcome = namedtuple("Outcome", "x z1 z2 n y1 y2")


class JointError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite joint over (X, Z1, Z2, N) with deterministic measurements."""

    x: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    n: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    fvals: np.ndarray  # f(N) evaluated per outcome
    probs: np.ndarray
    additive: bool

    def __post_init__(self):
        k = len(self.probs)
        if k == 0:
            raise JointError("empty support")
        if k > 10_000:
            raise JointError("support too large to enumerate")
        if np.any(self.probs <= 0):
            raise JointError("probabilities must be positive")
        if abs(self.probs.sum() - 1.0) > TOL:
            raise JointError("probabilities must sum to 1")

    @property
    def size(self):
        return len(self.probs)

    def outcomes(self):
        return [
            Outcome(self.x[i], self.z1[i], self.z2[i], self.n[i], self.y1[i], self.y2[i])
            for i in range(self.size)
        ]

    def expectation(self, values):
        return float(np.dot(self.probs, values))


@dataclass(frozen=True)
class TheoremReport:
    lhs: float
    rhs: float
    satisfied: bool
    slack: float


def _normalized(dist, what):
    vals = np.array(sorted(dist), dtype=float)
    ps = np.array([dist[v] for v in sorted(dist)], dtype=float)
    if np.any(ps < 0) or abs(ps.sum() - 1.0) > 1e-9:
        raise JointError(f"{what} distribution is not normalized")
    keep = ps > 0
    return vals[keep], ps[keep]


def build_joint(px, pz1_given_x, pz2_given_x, pn, f, additive=True,
                measure_y1=None, measure_y2=None):
    """Assemble a joint factorizing as p(x) p(z1|x) p(z2|x) p(n).

    ``px`` and ``pn`` map value -> probability; the kernels map each x
    value to such a distribution; ``f`` maps n to the error term.  With
    ``additive=True`` the measurements are y_i = z_i + f(n); otherwise
    explicit ``measure_y1(z1, n)`` / ``measure_y2(z2, n)`` maps are
    required.  The support is ordered by x, then z1, z2 and n.
    """
    if not additive and (measure_y1 is None or measure_y2 is None):
        raise JointError("non-additive joints need explicit measurement maps")
    xs, pxs = _normalized(px, "x")
    ns, pns = _normalized(pn, "n")
    blocks = []
    for xv, pxv in zip(xs, pxs):
        z1s, pz1s = _normalized(pz1_given_x[xv], f"z1|x={xv}")
        z2s, pz2s = _normalized(pz2_given_x[xv], f"z2|x={xv}")
        i1, i2, i3 = np.indices((len(z1s), len(z2s), len(ns))).reshape(3, -1)
        blocks.append((np.full(i1.size, xv), z1s[i1], z2s[i2], ns[i3],
                       pxv * pz1s[i1] * pz2s[i2] * pns[i3]))
    x, z1, z2, n, probs = (np.concatenate(col) for col in zip(*blocks))
    fvals = np.array([f(v) for v in n])
    if additive:
        y1, y2 = z1 + fvals, z2 + fvals
    else:
        y1 = np.array([measure_y1(z, v) for z, v in zip(z1, n)])
        y2 = np.array([measure_y2(z, v) for z, v in zip(z2, n)])
    return DiscreteJoint(x=x, z1=z1, z2=z2, n=n, y1=y1, y2=y2, fvals=fvals,
                         probs=probs, additive=bool(additive))


def _cond_mean(joint, values, *given):
    """Exact E[values | given] at every outcome, in support order.

    Outcomes are grouped by their row of ``given`` values; ``bincount``
    sums each group in support order.
    """
    _, inv = np.unique(np.column_stack(given), axis=0, return_inverse=True)
    num = np.bincount(inv, weights=joint.probs * values)
    den = np.bincount(inv, weights=joint.probs)
    return (num / den)[inv]


def exact_cond_expectation(joint, target, given):
    """Exact E[target | given] as a map from given-value tuples to reals.

    ``target`` and each element of ``given`` are functions of an
    Outcome.  Only attained given-values appear, so conditioning events
    always have positive probability.
    """
    outs = joint.outcomes()
    tvals = np.array([target(o) for o in outs], dtype=float)
    keys = [tuple(g(o) for g in given) for o in outs]
    means = _cond_mean(joint, tvals, *np.array(keys, dtype=float).T)
    return dict(zip(keys, means))


def exact_tqs(joint):
    """Exact 3QS estimate at every outcome, via both algebraic forms.

    Evaluates the residual form and the alternate form with exact
    conditional expectations, asserts they agree within 1e-12 and
    returns the residual-form values (aligned with the support order).
    """
    e_y1_x = _cond_mean(joint, joint.y1, joint.x)
    eq1 = joint.y1 - _cond_mean(joint, joint.y1 - e_y1_x, joint.x, joint.y2)
    eq2 = joint.y1 - _cond_mean(joint, joint.y1, joint.x, joint.y2) + e_y1_x
    if np.max(np.abs(eq1 - eq2)) > TOL:
        raise AssertionError("3QS forms disagree: estimator implementation bug")
    return eq1


def check_mean_match(joint):
    """Verify E[Y1|X=x] = E[Z1|X=x] for every x; raise naming offenders."""
    gap = _cond_mean(joint, joint.y1, joint.x) - _cond_mean(joint, joint.z1, joint.x)
    bad = np.unique(joint.x[np.abs(gap) > 1e-9]).tolist()
    if bad:
        raise JointError(f"E[Y1|X] != E[Z1|X] at X={bad}")


def verify_theorem1(joint, z_hat):
    """Exact-expectation error bound: MSE of the estimate ``z_hat`` vs raw Y1."""
    check_mean_match(joint)
    lhs = joint.expectation((z_hat - joint.z1) ** 2)
    rhs = joint.expectation((joint.y1 - joint.z1) ** 2)
    slack = rhs - lhs
    return TheoremReport(lhs=lhs, rhs=rhs, satisfied=slack >= -TOL, slack=slack)


def verify_theorem2(joint, z_hat):
    """Additive-model identity for the 3QS estimate ``z_hat``: its
    offset-corrected MSE equals E[Var(f(N)|X,Y2)]."""
    if not joint.additive:
        raise JointError("theorem 2 requires an additive joint")
    ef = joint.expectation(joint.fvals)
    lhs = joint.expectation((z_hat - (joint.z1 + ef)) ** 2)
    noise = joint.y1 - joint.z1
    e_f = _cond_mean(joint, noise, joint.x, joint.y2)
    e_f2 = _cond_mean(joint, noise ** 2, joint.x, joint.y2)
    rhs = joint.expectation(e_f2 - e_f ** 2)
    slack = -abs(lhs - rhs)
    return TheoremReport(lhs=lhs, rhs=rhs, satisfied=slack >= -TOL, slack=slack)


def noise_is_observable(joint):
    """True when f(N) is constant on every attained (x, y2) group."""
    groups = {}
    for o, fv in zip(joint.outcomes(), joint.fvals):
        groups.setdefault((o.x, o.y2), []).append(fv)
    return all(max(v) - min(v) <= TOL for v in groups.values())


def random_joint(rng, additive=True, zero_mean_f=True):
    """Small random joint for the randomized theorem suites.

    Supports of size 2-4 per variable, values from {-2..2},
    probabilities from a symmetric Dirichlet(1).
    """
    def support(size):
        return rng.choice(np.arange(-2.0, 3.0), size=size, replace=False)

    def dirichlet(k):
        return rng.dirichlet(np.ones(k))

    kx, kz1, kz2, kn = rng.integers(2, 5, size=4)
    xs = support(kx)
    z1s = support(kz1)
    z2s = support(kz2)
    ns = support(kn)
    px = dict(zip(xs, dirichlet(kx)))
    pz1 = {x: dict(zip(z1s, dirichlet(kz1))) for x in xs}
    pz2 = {x: dict(zip(z2s, dirichlet(kz2))) for x in xs}
    pn_probs = dirichlet(kn)
    pn = dict(zip(ns, pn_probs))
    fv = rng.uniform(-2.0, 2.0, size=kn)
    if zero_mean_f:
        fv = fv - np.dot(pn_probs, fv)
    ftab = dict(zip(ns, fv))
    f = lambda n: ftab[n]
    if additive:
        return build_joint(px, pz1, pz2, pn, f, additive=True)
    m1 = {(z, n): rng.uniform(-2.0, 2.0) for z in z1s for n in ns}
    m2 = {(z, n): rng.uniform(-2.0, 2.0) for z in z2s for n in ns}
    return build_joint(
        px, pz1, pz2, pn, f, additive=False,
        measure_y1=lambda z, n: m1[(z, n)],
        measure_y2=lambda z, n: m2[(z, n)],
    )
