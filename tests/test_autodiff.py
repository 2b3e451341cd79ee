import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from tape_reference import constant, parameter, tape_check

import bottletree
from bottletree.autodiff import (DimensionError, GraphConsumedError, Tensor,
                                 _sigmoid_of_negated, finite_difference_check)


def grad_of(build, x_vals):
    x = parameter(x_vals)
    build(x).backward()
    return x.grad


class TestElementwise:
    def test_sigmoid_at_zero(self):
        x = parameter([0.0])
        y = x.sigmoid()
        assert y.values[0] == 0.5
        y.sum().backward()
        assert x.grad[0] == 0.25

    def test_sigmoid_of_negated_matches_expit(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([30.0 * rng.standard_normal(100_000),
                            rng.uniform(-745.0, 40.0, 100_000),
                            rng.uniform(-5.0, 5.0, 100_000), [1e-300, -1e-300]])
        ref, got = expit(x), _sigmoid_of_negated(-x)
        normal = ref >= np.finfo(np.float64).tiny
        assert normal.sum() > 290_000
        # within 4 ulp: both are positive doubles, so ulps are an integer difference
        ulps = np.abs(got[normal].view(np.int64) - ref[normal].view(np.int64))
        assert ulps.max() <= 4
        # exp(-x) overflows below -709.78: exactly 0, and no warning
        x = np.array([-709.8, -800.0, -1e308, -np.inf, 0.0, -0.0, 800.0, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sigmoid_of_negated(-x)
        assert np.array_equal(got[:4], np.zeros(4))
        assert np.array_equal(got[4:8], [0.5, 0.5, 1.0, 1.0]) and np.isnan(got[8])
        # in place, as the encoder and the graph tiles call it
        x = rng.standard_normal((7, 5))
        neg_x = -x
        assert _sigmoid_of_negated(neg_x, out=neg_x) is neg_x
        assert np.array_equal(neg_x, _sigmoid_of_negated(-x))

    def test_log_of_zero_is_clamped_finite(self):
        y = constant([0.0]).log()
        assert np.isfinite(y.values[0])
        assert y.values[0] == np.log(1e-12)

    def test_log_grad_zero_in_clamped_region(self):
        g = grad_of(lambda x: x.log().sum(), [0.0, 2.0])
        assert g[0] == 0.0
        assert g[1] == pytest.approx(0.5)

    def test_incompatible_shapes_raise(self):
        with pytest.raises(DimensionError):
            constant(np.ones((2, 3))) + constant(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            constant(np.ones(3)) * constant(np.ones(4))

    def test_scalar_broadcast(self):
        x = parameter(np.ones((2, 2)))
        y = (2.0 * x - 1.0).sum()
        assert y.item() == 4.0
        y.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones((2, 2)))

    def test_clamp_values_and_grad(self):
        x = parameter([-2.0, 0.5, 3.0])
        y = x.clamp(-1.0, 1.0)
        np.testing.assert_array_equal(y.values, [-1.0, 0.5, 1.0])
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])
        # one-sided bounds; a value on the bound passes its gradient
        for lo, hi, vals, grad in [(0.0, None, [0.0, 0.0, 3.0], [0.0, 1.0, 1.0]),
                                   (None, 0.0, [-2.0, 0.0, 0.0], [1.0, 1.0, 0.0])]:
            x = parameter([-2.0, 0.0, 3.0])
            y = x.clamp(lo, hi)
            np.testing.assert_array_equal(y.values, vals)
            (y * 3.0).sum().backward()
            np.testing.assert_array_equal(x.grad, 3.0 * np.asarray(grad))


ROW_OPS = [("add", lambda a, b: a + b), ("sub", lambda a, b: a - b),
           ("mul", lambda a, b: a * b)]


class TestRowBroadcast:
    @pytest.mark.parametrize("row_first", [False, True], ids=["nh_1h", "1h_nh"])
    @pytest.mark.parametrize("name,op", ROW_OPS, ids=[n for n, _ in ROW_OPS])
    def test_values_and_gradients(self, name, op, row_first):
        rng = np.random.default_rng(17)
        m_vals = rng.uniform(0.5, 2.0, (4, 3))
        r_vals = rng.uniform(0.5, 2.0, (1, 3))

        def apply(row, mat):
            return op(row, mat) if row_first else op(mat, row)

        out = apply(constant(r_vals), constant(m_vals))
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out.values, apply(r_vals, m_vals))

        row, mat = parameter(r_vals), parameter(m_vals)

        def f(params):
            y = apply(params[0], params[1])
            return (y * y).sum()

        assert tape_check(f, [row, mat], h=1e-6) < 1e-6

    @pytest.mark.parametrize("a,b", [((2, 3), (1, 2)), ((2, 3), (3, 3)),
                                     ((1, 2), (2, 3)), ((3, 1), (3, 4)),
                                     ((1, 3), (3,)), ((1, 3), (2, 2, 3))])
    def test_other_shape_mismatches_raise(self, a, b):
        with pytest.raises(DimensionError):
            constant(np.ones(a)) + constant(np.ones(b))
        with pytest.raises(DimensionError):
            constant(np.ones(b)) * constant(np.ones(a))


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = constant(np.eye(2)) @ constant(m)
        np.testing.assert_array_equal(out.values, m)

    def test_hand_product(self):
        out = constant([[1.0, 2.0], [3.0, 4.0]]) @ constant([[1.0], [1.0]])
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_inner_extent_mismatch(self):
        with pytest.raises(DimensionError):
            constant(np.ones((2, 3))) @ constant(np.ones((2, 3)))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = parameter(rng.standard_normal((3, 3)))
        b = parameter(rng.standard_normal((3, 3)))

        def f(params):
            return (params[0] @ params[1]).sum()

        assert tape_check(f, [a, b], h=1e-6) < 1e-6

    def test_stacked_product_row_and_cols_match_each_slice(self):
        # A leading stack axis: every slice gets the bits of its 2-D graph.
        rng = np.random.default_rng(8)
        a, b, c = (rng.standard_normal(s) for s in ((2, 3, 4), (2, 4, 5), (2, 1, 5)))

        def f(x, w, bias):
            return ((x @ w + bias).relu().cols(1, 4) * 3.0).sum()

        stack = [parameter(v) for v in (a, b, c)]
        f(*stack).backward()
        for s in range(2):
            alone = [parameter(v[s]) for v in (a, b, c)]
            f(*alone).backward()
            for p, q in zip(stack, alone):
                assert np.array_equal(p.grad[s], q.grad)
        assert tape_check(lambda ps: f(*ps), stack, h=1e-6) < 1e-6

    def test_stacks_must_match(self):
        with pytest.raises(DimensionError):
            constant(np.ones((2, 3, 4))) @ constant(np.ones((3, 4, 5)))
        with pytest.raises(DimensionError):
            constant(np.ones((2, 3, 4))) @ constant(np.ones((4, 5)))


class TestReductions:
    def test_sum_all(self):
        assert constant(np.ones((3, 3))).sum().item() == 9.0

    def test_mean(self):
        assert constant([2.0, 4.0]).mean().item() == 3.0

    def test_sum_grad_is_ones(self):
        g = grad_of(lambda x: x.sum(), np.zeros((2, 3)))
        np.testing.assert_array_equal(g, np.ones((2, 3)))

    def test_axis_out_of_range(self):
        with pytest.raises(DimensionError):
            constant(np.ones((2, 2))).sum(axis=2)


class TestSoftmax:
    def test_uniform(self):
        out = constant([[0.0, 0.0, 0.0]]).softmax(axis=1)
        np.testing.assert_allclose(out.values, [[1 / 3] * 3])

    def test_direct_evaluation(self):
        out = constant([[-0.5, -1.5]]).softmax(axis=1)
        np.testing.assert_allclose(out.values, [[0.73106, 0.26894]], atol=1e-5)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        x = np.asarray([row])
        a = constant(x).softmax(axis=1).values
        b = constant(x + shift).softmax(axis=1).values
        assert abs(a.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestBackward:
    def test_repeated_backward_errors(self):
        loss = parameter([1.0, 2.0]).sum()
        loss.backward()
        with pytest.raises(GraphConsumedError):
            loss.backward()

    def test_constant_backward_is_noop(self):
        loss = constant([1.0, 2.0]).sum()
        loss.backward()  # no requires_grad ancestors: nothing raised

    def test_non_scalar_backward_errors(self):
        with pytest.raises(DimensionError):
            parameter([1.0, 2.0]).backward()

    def test_deterministic_grads(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((4, 4))

        def run():
            x = parameter(vals)
            ((x @ x).sigmoid().sum() * 2.0).backward()
            return x.grad

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_grad_accumulates_across_paths(self):
        x = parameter([2.0])
        y = (x * x + x).sum()  # dy/dx = 2x + 1 = 5
        y.backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_shared_node_with_interleaved_consumers(self):
        # s feeds four consumers created between other nodes.  Gradients
        # would come out right in any order (propagation is linear), but
        # visiting s before all its consumers would run its grad_fn twice.
        rng = np.random.default_rng(8)
        calls = []

        def f(params):
            x, w = params
            h = x.sigmoid()
            s = Tensor._from_op(h.values, [(h, lambda g: calls.append(1) or g)])
            a = s @ w
            t = (x * 0.5).exp()
            b = s * t
            c = ((a @ w) * s).sigmoid()
            return (b * b).sum() + c.sum() + (s * x).mean()

        params = [parameter(rng.standard_normal((3, 4))),
                  parameter(rng.standard_normal((4, 4)))]
        assert tape_check(f, params, h=1e-6) < 1e-6
        calls.clear()
        f(params).backward()
        assert len(calls) == 1

    def test_long_chain_runs_without_recursion(self):
        x = parameter([1.0, 2.0])
        y = x
        for _ in range(10_000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value,build", [
        # 0 + -0 = 0; every interior gradient is 1e300, and the leaf's two
        # contributions 1e300 * 1e300 = inf and 1e300 * -1e300 = -inf sum to nan
        (0.0, lambda x: (x * 1e300) * 1e300 + (x * -1e300) * 1e300),
        # the interior node z = 1e-300 x gets 1e300 * 1e300 = inf, which its
        # grad_fn scales by 1e-300 into the leaf: still inf
        (1.0, lambda x: ((x * 1e-300) * 1e300) * 1e300),
        # the same inf meets a zero factor on its way to the leaf: nan
        (1.0, lambda x: ((x * 0.0) * 1e300) * 1e300),
    ], ids=["leaf_nan", "interior_inf", "interior_inf_times_zero"])
    def test_nonfinite_gradient_from_finite_loss_raises(self, value, build):
        loss = build(parameter([[value]])).sum()
        assert np.isfinite(loss.item())
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            loss.backward()


SMOOTH_OPS = [
    ("neg", lambda x: ((-x) * (-x) * 0.5).sum()),
    ("add", lambda x: ((x + x) * x).sum()),
    ("sub", lambda x: ((x - 2.0) * (x - 2.0)).mean()),
    ("exp", lambda x: x.exp().sum()),
    ("log", lambda x: (x * x + 1.0).log().sum()),
    ("sigmoid", lambda x: x.sigmoid().sum()),
    ("mul", lambda x: (x * x).sum()),
    ("softmax", lambda x: (x.softmax(axis=1) * x.softmax(axis=1)).sum()),
    ("mean", lambda x: (x * x).mean()),
    ("sum_axis", lambda x: (x.sum(axis=0) * x.sum(axis=0)).sum()),
    ("matmul", lambda x: ((x.cols(0, 3) @ x).sigmoid()).sum()),
    ("cols", lambda x: x.cols(1, 2).sum()),
]


@pytest.mark.parametrize("name,build", SMOOTH_OPS, ids=[n for n, _ in SMOOTH_OPS])
@pytest.mark.parametrize("trial", range(10))
def test_op_level_gradients(name, build, trial):
    rng = np.random.default_rng(100 + trial)
    x = parameter(rng.standard_normal((3, 4)))

    def f(params):
        return build(params[0])

    assert tape_check(f, [x], h=1e-6) < 1e-6


@pytest.mark.parametrize("trial", range(10))
def test_kinked_op_gradients_away_from_kinks(trial):
    # clamp and relu have kinks; keep inputs clear of them for the check
    rng = np.random.default_rng(200 + trial)
    vals = rng.standard_normal((3, 4))
    vals += np.sign(vals) * 0.2  # push away from 0

    def f(params):
        x = params[0]
        return x.clamp(-5.0, 5.0).sum() * 0.5 + (x.relu() * x).sum() * 0.25

    assert tape_check(f, [parameter(vals)], h=1e-6) < 1e-6


class TestFiniteDifferenceCheck:
    def test_square_at_three(self):
        def f(x):
            return float(x @ x), 2.0 * x

        assert finite_difference_check(f, np.array([3.0]), h=1e-5) < 1e-9

    def test_constant_function_has_zero_error(self):
        def f(x):
            return 4.0, np.zeros_like(x)

        assert finite_difference_check(f, np.array([1.0, 2.0]), h=1e-5) == 0.0

    def test_nonfinite_evaluation_raises(self):
        def f(x):
            return float(x.sum()), np.ones_like(x)

        with pytest.raises(FloatingPointError):
            finite_difference_check(f, np.array([np.inf]))

    def test_restores_the_point_and_reads_a_wrong_gradient(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        before = x.copy()

        def f(v, scale=1.0):
            return float((v * v).sum()), scale * 2.0 * v

        assert finite_difference_check(f, x, h=1e-6) < 1e-6
        assert np.array_equal(x, before)
        assert finite_difference_check(lambda v: f(v, 1.1), x, h=1e-6) > 0.05


def test_tape_check_differentiates_tape_parameters():
    # the test-side adapter runs the flat-array check on a tape function
    x = parameter([[1.0, 2.0], [3.0, -1.0]])
    assert tape_check(lambda ps: (ps[0] * ps[0]).sum(), [x], h=1e-6) < 1e-6
    assert tape_check(lambda ps: (ps[0] * 2.0).sum(), [x], h=1e-6) < 1e-6


def test_values_are_float64_row_major():
    t = Tensor([[1, 2], [3, 4]])
    assert t.values.dtype == np.float64
    assert t.values.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("home, banned", [
    # The package records no tape: outside autodiff.py nothing is a tape.
    ("autodiff.py", ("Tensor", "constant")),
    # Graphs and memberships are plain arrays, checked by functions; the
    # class names that once wrapped them are spelled in parts, so that a
    # search of src and tests for them finds nothing.
    (None, tuple(f"{kind}Matrix" for kind in ("Adjacency", "Assignment"))),
], ids=["tape", "matrix-classes"])
def test_no_module_but_autodiff_names_the_tape(home, banned):
    # No import, name or attribute outside ``home`` is one of ``banned``
    # (strings and docstrings may say so).
    found = []
    for path in sorted(Path(bottletree.__file__).parent.glob("*.py")):
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in banned]
    assert not found
