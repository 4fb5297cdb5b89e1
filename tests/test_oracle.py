import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsreg import oracle
from tqsreg.oracle import (
    TOL,
    DiscreteJoint,
    JointError,
    build_joint,
    check_mean_match,
    exact_cond_expectation,
    exact_tqs,
    noise_is_observable,
    random_joint,
    verify_theorem1,
    verify_theorem2,
)


def fair_coin_joint(f=lambda n: n - 0.5):
    """X, Z1, Z2 degenerate at 0; N a fair coin on {0, 1}."""
    return build_joint(
        px={0.0: 1.0},
        pz1_given_x={0.0: {0.0: 1.0}},
        pz2_given_x={0.0: {0.0: 1.0}},
        pn={0.0: 0.5, 1.0: 0.5},
        f=f,
    )


class TestBuildJoint:
    def test_probabilities_sum_to_one(self, rng):
        j = random_joint(rng)
        assert abs(j.probs.sum() - 1.0) <= TOL

    def test_additive_measurements(self):
        j = fair_coin_joint(f=lambda n: 2 * n)
        for o in j.outcomes():
            assert o.y1 == o.z1 + 2 * o.n
            assert o.y2 == o.z2 + 2 * o.n

    def test_unnormalized_rejected(self):
        with pytest.raises(JointError, match="not normalized"):
            build_joint({0.0: 0.7}, {0.0: {0.0: 1.0}}, {0.0: {0.0: 1.0}},
                        {0.0: 1.0}, lambda n: n)

    def test_nonadditive_needs_maps(self):
        with pytest.raises(JointError, match="measurement maps"):
            build_joint({0.0: 1.0}, {0.0: {0.0: 1.0}}, {0.0: {0.0: 1.0}},
                        {0.0: 1.0}, lambda n: n, additive=False)

    def test_support_size_cap(self):
        with pytest.raises(JointError, match="too large"):
            DiscreteJoint(
                x=np.zeros(20_000), z1=np.zeros(20_000), z2=np.zeros(20_000),
                n=np.zeros(20_000), y1=np.zeros(20_000), y2=np.zeros(20_000),
                fvals=np.zeros(20_000), probs=np.full(20_000, 1 / 20_000),
                additive=True,
            )


class TestExactCondExpectation:
    def test_hand_worked_binary_case(self):
        # E[N | X] with N independent of X is just E[N]
        j = fair_coin_joint()
        e = exact_cond_expectation(j, lambda o: o.n, [lambda o: o.x])
        assert e[(0.0,)] == pytest.approx(0.5, abs=TOL)

    def test_conditioning_on_y2_reveals_n(self):
        # with degenerate Z2, y2 = f(n), so E[N | Y2] recovers N exactly
        j = fair_coin_joint()
        e = exact_cond_expectation(j, lambda o: o.n, [lambda o: o.y2])
        assert e[(-0.5,)] == pytest.approx(0.0, abs=TOL)
        assert e[(0.5,)] == pytest.approx(1.0, abs=TOL)

    def test_law_of_total_expectation(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            e = exact_cond_expectation(j, lambda o: o.y1,
                                       [lambda o: o.x, lambda o: o.y2])
            outs = j.outcomes()
            recon = np.array([e[(o.x, o.y2)] for o in outs])
            assert abs(j.expectation(recon) - j.expectation(j.y1)) <= 1e-10


class TestLemmaEquivalence:
    def test_hundred_random_joints(self, rng):
        # exact_tqs internally asserts the two forms agree within 1e-12
        for _ in range(100):
            exact_tqs(random_joint(rng, additive=True))

    def test_nonadditive_joints_also_agree(self, rng):
        for _ in range(100):
            exact_tqs(random_joint(rng, additive=False))


class TestMeanMatch:
    def test_zero_mean_f_passes(self, rng):
        for _ in range(20):
            check_mean_match(random_joint(rng, zero_mean_f=True))

    def test_biased_f_fails(self):
        with pytest.raises(JointError, match="E\\[Y1\\|X\\] != E\\[Z1\\|X\\]"):
            check_mean_match(fair_coin_joint(f=lambda n: n))  # E f = 0.5


class TestTheorem1:
    def test_textbook_four_outcome_example(self):
        # degenerate signals, fair-coin noise with zero-mean f: the 3QS
        # estimate recovers Z1 exactly (lhs 0) while raw Y1 has MSE Var f
        j = fair_coin_joint()
        rep = verify_theorem1(j, exact_tqs(j))
        assert rep.satisfied
        assert rep.lhs == pytest.approx(0.0, abs=TOL)
        assert rep.rhs == pytest.approx(0.25, abs=TOL)

    def test_hundred_random_joints(self, rng):
        for _ in range(100):
            j = random_joint(rng, zero_mean_f=True)
            rep = verify_theorem1(j, exact_tqs(j))
            assert rep.satisfied, f"slack {rep.slack}"

    def test_corrupted_estimate_violates(self, rng):
        # negative control: a biased estimate must not satisfy the bound
        j = fair_coin_joint()
        rep = verify_theorem1(j, exact_tqs(j) + 1.0)
        assert not rep.satisfied
        assert rep.lhs > rep.rhs + TOL


class TestTheorem2:
    def test_exact_identity_random_joints(self, rng):
        for _ in range(100):
            j = random_joint(rng, zero_mean_f=True)
            rep = verify_theorem2(j, exact_tqs(j))
            assert rep.satisfied
            assert abs(rep.lhs - rep.rhs) <= TOL

    def test_holds_without_zero_mean_f(self, rng):
        # theorem 2 centers by E f itself, so biased f is fine
        for _ in range(50):
            j = random_joint(rng, zero_mean_f=False)
            rep = verify_theorem2(j, exact_tqs(j))
            assert rep.satisfied

    def test_nonadditive_rejected(self, rng):
        with pytest.raises(JointError, match="additive"):
            j = random_joint(rng, additive=False)
            verify_theorem2(j, exact_tqs(j))

    def test_observable_noise_gives_zero_error(self):
        # f(N) determined by (X, Y2) => conditional variance 0 => exact
        # recovery up to the constant E f
        j = fair_coin_joint(f=lambda n: n)  # z2 degenerate: y2 = f(n)
        assert noise_is_observable(j)
        rep = verify_theorem2(j, exact_tqs(j))
        assert rep.lhs == pytest.approx(0.0, abs=TOL)
        assert rep.rhs == pytest.approx(0.0, abs=TOL)
        # and the estimate equals z1 + E f = 0.5 at every outcome
        np.testing.assert_allclose(exact_tqs(j), j.z1 + 0.5, atol=TOL)

    def test_hidden_noise_gives_positive_error(self):
        # Z2 noisy enough that y2 does not reveal n: residual error > 0
        j = build_joint(
            px={0.0: 1.0},
            pz1_given_x={0.0: {0.0: 1.0}},
            pz2_given_x={0.0: {-1.0: 0.5, 1.0: 0.5}},
            pn={-1.0: 0.5, 1.0: 0.5},
            f=lambda n: n,
        )
        # y2 = z2 + n collides at 0, where f is ambiguous (+1 or -1)
        assert not noise_is_observable(j)
        rep = verify_theorem2(j, exact_tqs(j))
        assert rep.satisfied
        assert rep.rhs > 0.1


class TestRandomJoint:
    def test_deterministic_given_rng_state(self):
        a = random_joint(np.random.default_rng(5))
        b = random_joint(np.random.default_rng(5))
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.y1, b.y1)

    def test_zero_mean_f_property(self, rng):
        for _ in range(20):
            j = random_joint(rng, zero_mean_f=True)
            assert abs(j.expectation(j.fvals)) <= 1e-10

    def test_runtime_budget(self, rng):
        import time
        t0 = time.perf_counter()
        for _ in range(100):
            j = random_joint(rng)
            z_hat = exact_tqs(j)
            verify_theorem1(j, z_hat)
            verify_theorem2(j, z_hat)
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# reference oracle: the original outcome-by-outcome dict/lambda enumeration


def _ref_build_joint(px, pz1_given_x, pz2_given_x, pn, f, additive=True,
                     measure_y1=None, measure_y2=None):
    if additive:
        measure_y1 = lambda z, n: z + f(n)
        measure_y2 = lambda z, n: z + f(n)
    xs, pxs = oracle._normalized(px, "x")
    ns, pns = oracle._normalized(pn, "n")
    rows = {k: [] for k in ("x", "z1", "z2", "n", "y1", "y2", "fvals", "probs")}
    for xv, pxv in zip(xs, pxs):
        z1s, pz1s = oracle._normalized(pz1_given_x[xv], "z1")
        z2s, pz2s = oracle._normalized(pz2_given_x[xv], "z2")
        for z1v, p1 in zip(z1s, pz1s):
            for z2v, p2 in zip(z2s, pz2s):
                for nv, pnv in zip(ns, pns):
                    for key, v in (("x", xv), ("z1", z1v), ("z2", z2v), ("n", nv),
                                   ("y1", measure_y1(z1v, nv)),
                                   ("y2", measure_y2(z2v, nv)), ("fvals", f(nv)),
                                   ("probs", pxv * p1 * p2 * pnv)):
                        rows[key].append(v)
    return DiscreteJoint(**{k: np.array(v) for k, v in rows.items()},
                         additive=bool(additive))


def _ref_cond_expectation(joint, target, given_fns):
    num, den = {}, {}
    for o, p in zip(joint.outcomes(), joint.probs):
        k = tuple(g(o) for g in given_fns)
        num[k] = num.get(k, 0.0) + p * target(o)
        den[k] = den.get(k, 0.0) + p
    return {k: num[k] / den[k] for k in num}


def _ref_exact_tqs(joint):
    x, xy2 = [lambda o: o.x], [lambda o: o.x, lambda o: o.y2]
    e_y1_x = _ref_cond_expectation(joint, lambda o: o.y1, x)
    e_r = _ref_cond_expectation(joint, lambda o: o.y1 - e_y1_x[(o.x,)], xy2)
    return np.array([o.y1 - e_r[(o.x, o.y2)] for o in joint.outcomes()])


def _ref_theorem1(joint, z_hat):
    e_y1 = _ref_cond_expectation(joint, lambda o: o.y1, [lambda o: o.x])
    e_z1 = _ref_cond_expectation(joint, lambda o: o.z1, [lambda o: o.x])
    if any(abs(e_y1[k] - e_z1[k]) > 1e-9 for k in e_y1):
        return None
    lhs = joint.expectation((z_hat - joint.z1) ** 2)
    rhs = joint.expectation((joint.y1 - joint.z1) ** 2)
    return lhs, rhs, rhs - lhs >= -TOL, rhs - lhs


def _ref_theorem2_rhs(joint):
    xy2 = [lambda o: o.x, lambda o: o.y2]
    e_f = _ref_cond_expectation(joint, lambda o: o.y1 - o.z1, xy2)
    e_f2 = _ref_cond_expectation(joint, lambda o: (o.y1 - o.z1) ** 2, xy2)
    return joint.expectation(np.array(
        [e_f2[(o.x, o.y2)] - e_f[(o.x, o.y2)] ** 2 for o in joint.outcomes()]))


GRID = [v / 2 for v in range(-4, 5)]


@st.composite
def joint_specs(draw):
    """build_joint arguments: supports of 1-4 grid values, integer
    weights normalised by their sum, additive or not."""
    def support():
        return draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=4,
                             unique=True))

    def dist(values):
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=len(values),
                                   max_size=len(values))), dtype=float)
        return dict(zip(values, w / w.sum()))

    xs, ns = support(), support()
    px, pn = dist(xs), dist(ns)
    pz1 = {x: dist(support()) for x in xs}
    pz2 = {x: dist(support()) for x in xs}
    ftab = dict(zip(ns, draw(st.lists(st.sampled_from(GRID), min_size=len(ns),
                                      max_size=len(ns)))))
    zero_mean = draw(st.booleans())
    if zero_mean:
        ef = sum(pn[n] * v for n, v in ftab.items())
        ftab = {n: v - ef for n, v in ftab.items()}
    kwargs = {"additive": draw(st.booleans())}
    if not kwargs["additive"]:
        a, b, c = (draw(st.sampled_from(GRID)) for _ in range(3))
        kwargs["measure_y1"] = lambda z, n: a * z + b * n * n
        kwargs["measure_y2"] = lambda z, n: z - c * z * n
    return (px, pz1, pz2, pn, ftab.__getitem__), kwargs, zero_mean


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(joint_specs())
    def test_array_oracle_matches_enumeration(self, spec):
        args, kwargs, zero_mean = spec
        j, ref = build_joint(*args, **kwargs), _ref_build_joint(*args, **kwargs)
        for name in DiscreteJoint.__dataclass_fields__:
            a, b = getattr(j, name), getattr(ref, name)
            assert np.asarray(a).dtype == np.asarray(b).dtype, name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name

        z_hat = exact_tqs(j)
        assert z_hat.tobytes() == _ref_exact_tqs(ref).tobytes()
        xy2 = [lambda o: o.x, lambda o: o.y2]
        e_new = exact_cond_expectation(j, lambda o: o.y1, xy2)
        e_ref = _ref_cond_expectation(ref, lambda o: o.y1, xy2)
        assert list(e_new) == list(e_ref)
        assert _bits(*e_new.values()) == _bits(*e_ref.values())

        ref1 = _ref_theorem1(ref, z_hat)
        if ref1 is None:
            with pytest.raises(JointError, match="E\\[Y1\\|X\\]"):
                verify_theorem1(j, z_hat)
        else:
            rep1 = verify_theorem1(j, z_hat)
            assert rep1.satisfied == ref1[2]
            assert _bits(rep1.lhs, rep1.rhs, rep1.slack) == _bits(ref1[0], ref1[1], ref1[3])
        if not j.additive:
            return
        rep2 = verify_theorem2(j, z_hat)
        assert abs(rep2.rhs - _ref_theorem2_rhs(ref)) <= 1e-15
        if zero_mean:
            # the paper's identities themselves, not only agreement
            assert rep1.slack >= -TOL
            assert abs(rep2.lhs - rep2.rhs) <= TOL


# ---------------------------------------------------------------------------
# reference random joints and grouping: draws through maps, rows grouped
# by the structured np.unique


def _ref_random_joint(rng, additive=True, zero_mean_f=True):
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
        return _ref_build_joint(px, pz1, pz2, pn, f, additive=True)
    m1 = {(z, n): rng.uniform(-2.0, 2.0) for z in z1s for n in ns}
    m2 = {(z, n): rng.uniform(-2.0, 2.0) for z in z2s for n in ns}
    return _ref_build_joint(
        px, pz1, pz2, pn, f, additive=False,
        measure_y1=lambda z, n: m1[(z, n)],
        measure_y2=lambda z, n: m2[(z, n)],
    )


def _ref_cond_mean(joint, values, *given):
    _, inv = np.unique(np.column_stack(given), axis=0, return_inverse=True)
    inv = inv.ravel()
    num = np.bincount(inv, weights=joint.probs * values)
    den = np.bincount(inv, weights=joint.probs)
    return (num / den)[inv]


def _ref_noise_is_observable(joint):
    groups = {}
    for o, fv in zip(joint.outcomes(), joint.fvals):
        groups.setdefault((o.x, o.y2), []).append(fv)
    return all(max(v) - min(v) <= TOL for v in groups.values())


def _assert_same_fields(a, b):
    for name in DiscreteJoint.__dataclass_fields__:
        u, v = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert u.dtype == v.dtype, name
        assert u.tobytes() == v.tobytes(), name


class TestRandomJointReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_same_joints_and_stream_as_maps(self, seed, additive, zero_mean_f):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            _assert_same_fields(random_joint(rng, additive, zero_mean_f),
                                _ref_random_joint(ref_rng, additive, zero_mean_f))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


class TestGroupIdsReference:
    @staticmethod
    def _check(j):
        for ids, given in ((j.by_x, (j.x,)), (j.by_x_y2, (j.x, j.y2))):
            _, ref_ids = np.unique(np.column_stack(given), axis=0, return_inverse=True)
            assert np.array_equal(ids, ref_ids.ravel())
            for values in (j.y1, j.z1, j.y1 - j.z1, (j.y1 - j.z1) ** 2):
                got = oracle._cond_mean(j, values, ids)
                assert got.tobytes() == _ref_cond_mean(j, values, *given).tobytes()
        # the arbitrary-column path of exact_cond_expectation
        given = [lambda o: o.z1, lambda o: o.n, lambda o: o.y2]
        e = exact_cond_expectation(j, lambda o: o.y1, given)
        keys = [(o.z1, o.n, o.y2) for o in j.outcomes()]
        ref = _ref_cond_mean(j, j.y1, *np.array(keys).T)
        assert _bits(*(e[k] for k in keys)) == ref.tobytes()
        assert noise_is_observable(j) == _ref_noise_is_observable(j)

    @settings(max_examples=100, deadline=None)
    @given(joint_specs())
    def test_built_joints(self, spec):
        args, kwargs, _ = spec
        self._check(build_joint(*args, **kwargs))

    def test_random_joints(self, rng):
        for additive in (True, False):
            for _ in range(50):
                self._check(random_joint(rng, additive=additive))

    def test_ids_cached_on_the_joint_only(self):
        import gc
        import weakref

        j = fair_coin_joint()
        assert j.by_x_y2 is j.by_x_y2
        assert "by_x" not in DiscreteJoint.__dataclass_fields__
        ref = weakref.ref(j)
        del j
        gc.collect()
        assert ref() is None
