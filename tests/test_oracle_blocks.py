"""Stacked blocks of joints: one oracle call per block gives, joint by
joint, the bits of the one-joint calls; ``verify`` checks its joints in
blocks of ``cli.VERIFY_BLOCK`` and writes the same file as joint by joint."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsreg import cli, oracle
from tqsreg.oracle import (
    TOL,
    DiscreteJoint,
    JointError,
    check_mean_match,
    exact_tqs,
    noise_is_observable,
    random_joint,
    stack,
    verify_theorem1,
    verify_theorem2,
)

BLOCK = cli.VERIFY_BLOCK


def _joints(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_joint(rng, **kwargs) for _ in range(count)]


class TestStackedEqualsOneJoint:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.one_of(st.sampled_from([1, BLOCK - 1, BLOCK + 1]), st.integers(1, 12)),
           st.sampled_from([0.0, 1.0, -0.25]))
    def test_values_and_reports(self, seed, count, offset):
        joints = _joints(seed, count)
        block = stack(joints)
        z_hat = exact_tqs(block)
        t1 = verify_theorem1(block, z_hat + offset)
        t2 = verify_theorem2(block, z_hat)
        assert len(t1) == len(t2) == count
        for joint, (a, b), r1, r2 in zip(joints, block.spans, t1, t2):
            z = exact_tqs(joint)
            assert z_hat[a:b].tobytes() == z.tobytes()
            for got, want in ((r1, verify_theorem1(joint, z + offset)),
                              (r2, verify_theorem2(joint, z))):
                assert type(got) is type(want)
                assert (got.lhs, got.rhs, got.slack, got.satisfied) == (
                    want.lhs, want.rhs, want.slack, want.satisfied)
        assert noise_is_observable(block) == [noise_is_observable(j) for j in joints]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_nonadditive_estimates(self, seed, count):
        joints = _joints(seed, count, additive=False)
        z_hat = exact_tqs(stack(joints))
        assert z_hat.tobytes() == np.concatenate([exact_tqs(j) for j in joints]).tobytes()


class TestBlockChecks:
    def test_single_joint_keeps_its_types(self):
        (joint,) = _joints(0, 1)
        rep = verify_theorem1(joint, exact_tqs(joint))
        assert isinstance(rep, oracle.TheoremReport)
        assert type(rep.lhs) is float and type(rep.satisfied) is bool
        assert type(noise_is_observable(joint)) is bool
        assert isinstance(verify_theorem2(stack([joint]), exact_tqs(joint)), list)

    def test_cap_and_normalisation_per_joint(self):
        big = stack([_flat(6000), _flat(6000)])  # 12 000 outcomes, 6000 per joint
        assert big.spans == [(0, 6000), (6000, 12000)]
        with pytest.raises(JointError, match="too large"):
            stack([_flat(2), _flat(10_001)])
        with pytest.raises(JointError, match="sum to 1"):  # each joint sums to 1/2
            _flat(4, joint=[0, 0, 1, 1])

    @pytest.mark.parametrize("labels", [[1, 1, 2], [0, 0, 2], [0, 1, 0], [0, 0]])
    def test_labels_run_in_order(self, labels):
        with pytest.raises(JointError, match="joint labels"):
            _flat(3, joint=labels)

    def test_mixed_additivity_refused(self):
        with pytest.raises(JointError, match="all additive"):
            stack(_joints(1, 1) + _joints(1, 1, additive=False))

    def test_mean_match_names_the_first_joint(self):
        joints = _joints(2, 4)
        biased = dataclasses.replace(joints[2], y1=joints[2].y1 + 0.5)
        with pytest.raises(JointError) as err:
            check_mean_match(biased)
        with pytest.raises(JointError, match="^joint 2: ") as block_err:
            check_mean_match(stack(joints[:2] + [biased, joints[3]]))
        assert str(block_err.value) == f"joint 2: {err.value}"

    def test_disagreeing_forms_name_their_joints(self):
        joints = _joints(3, 5)
        shifted = [_shifted(j) if k in (1, 4) else j for k, j in enumerate(joints)]
        with pytest.raises(AssertionError, match="3QS forms disagree"):
            exact_tqs(shifted[1])
        with pytest.raises(oracle.FormsDisagree) as err:
            exact_tqs(stack(shifted))
        assert err.value.joints == [1, 4]
        assert str(err.value) == oracle.FORMS_DISAGREE

    def test_single_joint_only_helpers(self):
        with pytest.raises(JointError, match="single joint"):
            oracle.exact_cond_expectation(stack(_joints(4, 2)), lambda o: o.y1,
                                          [lambda o: o.x])
        with pytest.raises(ValueError):
            stack(_joints(4, 2)).expectation(np.zeros(1))


class _BadKernels:
    """A Generator whose kernel draws (``dirichlet`` with ``size``) come
    back with the listed (kernel, row) rows doubled: kernel 1 is Z1 | X,
    kernel 2 is Z2 | X, rows in draw order.  ``xs`` is the X support as
    drawn (the first ``choice``)."""

    def __init__(self, seed, bad):
        self._rng, self._bad, self._kernels, self.xs = np.random.default_rng(seed), bad, 0, None

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, *args, **kwargs):
        out = self._rng.choice(*args, **kwargs)
        self.xs = out if self.xs is None else self.xs
        return out

    def dirichlet(self, alpha, size=None):
        out = self._rng.dirichlet(alpha, size=size)
        if size is not None:
            self._kernels += 1
            for kernel, row in self._bad:
                if kernel == self._kernels:
                    out[row] *= 2
        return out


class TestRandomJointChecks:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("bad", [[(1, 0)], [(2, 1)], [(1, 1), (2, 0)], [(1, 0), (2, 0)]])
    def test_first_unnormalized_row_is_named(self, seed, bad):
        rng = _BadKernels(seed, bad)
        with pytest.raises(JointError) as err:
            random_joint(rng)
        # rows are checked in x order, Z1 before Z2
        x, kernel = min((rng.xs[row], kernel) for kernel, row in bad)
        assert str(err.value) == f"z{kernel}|x={x} distribution is not normalized"


def _flat(size, joint=None):
    """A joint of ``size`` equally likely outcomes, all at 0."""
    z = np.zeros(size)
    return DiscreteJoint(x=z, z1=z, z2=z, n=z, y1=z, y2=z, fvals=z,
                         probs=np.full(size, 1 / size), additive=True,
                         joint=None if joint is None else np.array(joint))


def _shifted(joint, by=1e5):
    """The joint with Z1 and Y1 moved by ``by``: the theorems are unmoved,
    but at this scale the two 3QS forms round apart by more than 1e-12,
    while E[Y1|X] and E[Z1|X] still agree within 1e-9."""
    return dataclasses.replace(joint, z1=joint.z1 + by, y1=joint.y1 + by)


def _verify(tmp_path, *flags):
    assert cli.main(["verify", "--out", str(tmp_path), *flags]) in (0, 1)
    blob = (tmp_path / "theorems.json").read_bytes()
    return json.loads(blob), hashlib.sha256(blob).hexdigest()


class TestVerifyBlocks:
    # sha256 of theorems.json for `verify --seed 0 --joints 600`, as written
    # joint by joint before verify checked its joints in blocks
    PINNED = {(): "8986368bc4419c1c8580a4e5bb5f55a959776fea21c3244cc934aec15b3a852f",
              ("--corrupt-for-testing",):
                  "fa7162269f0fe0982c8f685f6ffe295f26d4e47a9fbe39280b1c848d1be7d410"}

    @pytest.mark.parametrize("flags", list(PINNED))
    def test_pinned_bytes(self, tmp_path, flags):
        _, digest = _verify(tmp_path, "--seed", "0", "--joints", "600", *flags)
        assert digest == self.PINNED[flags]

    @pytest.mark.parametrize("count", [1, BLOCK + 1])
    def test_entries_equal_one_joint_calls(self, tmp_path, count):
        doc, _ = _verify(tmp_path, "--seed", "7", "--joints", str(count))
        rng = np.random.default_rng(np.random.SeedSequence(7))
        assert [e["joint"] for e in doc["reports"]] == list(range(count))
        for entry in doc["reports"]:
            joint = random_joint(rng)
            z = exact_tqs(joint)
            assert entry["support"] == joint.size
            assert entry["theorem1"] == dataclasses.asdict(verify_theorem1(joint, z))
            assert entry["theorem2"] == dataclasses.asdict(verify_theorem2(joint, z))

    def test_disagreeing_forms_fail_their_joint_only(self, tmp_path, monkeypatch, capsys):
        drawn = []

        def drawing(rng, **kwargs):
            joint = random_joint(rng, **kwargs)
            drawn.append(joint)
            return _shifted(joint) if len(drawn) - 1 in (2, BLOCK + 1) else joint

        monkeypatch.setattr(cli.oracle, "random_joint", drawing)
        assert cli.main(["verify", "--out", str(tmp_path), "--joints",
                         str(BLOCK + 3)]) == cli.EXIT_VERIFY_FAIL
        doc = json.loads((tmp_path / "theorems.json").read_text())
        assert doc["failures"] == [2, BLOCK + 1]
        assert f"FAIL: 2/{BLOCK + 3} joints failed: [2, {BLOCK + 1}]" in capsys.readouterr().out
        for entry, joint in zip(doc["reports"], drawn):
            if entry["joint"] in doc["failures"]:
                assert entry == {"joint": entry["joint"], "seed": 0, "support": joint.size,
                                 "error": "3QS forms disagree: estimator implementation bug",
                                 "satisfied": False}
            else:
                assert entry["satisfied"]
                assert entry["theorem1"]["slack"] >= -TOL
