import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saam import autodiff as ad
from saam.autodiff import (
    DimensionError,
    Graph,
    NumericError,
    add,
    backward,
    concat,
    constant,
    cross_entropy,
    div,
    embedding_lookup,
    grad_check,
    matmul,
    max_over_axis,
    mul,
    outer,
    pad_rows,
    parameter,
    reduce_mean,
    reduce_sum,
    reshape,
    sigmoid,
    slice_rows,
    softmax_lastdim,
    squared_error,
    stack_rows,
    tanh,
    transpose,
    zero_grads,
)
from saam.selftest import op_gradcheck_cases

from oracles import dense_scatter_embedding_lookup


class TestMatmul:
    def test_identity(self):
        out = matmul(constant([[1.0, 0.0], [0.0, 1.0]]), constant([[3.0], [4.0]]))
        assert_allclose(out.data, [[3.0], [4.0]])

    def test_zero_annihilator(self):
        out = matmul(constant([[1.0, 2.0]]), constant([[0.0], [0.0]]))
        assert_allclose(out.data, [[0.0]])

    def test_hand_product(self):
        # hand computation: [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
        out = matmul(constant([[1.0, 2.0], [3.0, 4.0]]), constant([[5.0, 6.0], [7.0, 8.0]]))
        assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 2))))

    def test_backward_accumulates_into_both(self):
        a = parameter([[1.0, 2.0], [3.0, 4.0]])
        b = parameter([[5.0], [6.0]])
        with Graph():
            out = matmul(a, b)
            backward(reduce_sum(out))
        assert_allclose(a.grad, [[5.0, 6.0], [5.0, 6.0]])
        assert_allclose(b.grad, [[4.0], [6.0]])


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_lastdim(constant([0.0, 0.0, 0.0]))
        assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_stability_limit(self):
        out = softmax_lastdim(constant([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    def test_direct_exp_sum_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.sum(np.exp(x))  # independent direct computation
        out = softmax_lastdim(constant(x))
        assert_allclose(out.data, expected, atol=1e-12, rtol=0)
        assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            softmax_lastdim(constant(np.zeros((0,))))

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(scale=10.0, size=(3, 5))
            y = softmax_lastdim(constant(x)).data
            assert np.all(y >= 0.0) and np.all(y <= 1.0)
            assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)


class TestOuter:
    def test_basis_row_selection(self):
        out = outer(constant([1.0, 0.0]), constant([2.0, 5.0, 7.0]))
        assert_allclose(out.data, [[2.0, 5.0, 7.0], [0.0, 0.0, 0.0]])

    def test_hand_oracle(self):
        out = outer(constant([0.5, 0.5]), constant([2.0, 4.0]))
        assert_allclose(out.data, [[1.0, 2.0], [1.0, 2.0]])

    def test_scalar_case(self):
        out = outer(constant([1.0]), constant([3.5]))
        assert_allclose(out.data, [[3.5]])

    def test_rank_validation(self):
        with pytest.raises(DimensionError):
            outer(constant([[1.0]]), constant([1.0]))

    def test_sum_over_first_axis_property(self):
        # sum_i u_i * v == (sum u) * v
        rng = np.random.default_rng(1)
        for _ in range(25):
            u = rng.normal(size=4)
            v = rng.normal(size=3)
            got = reduce_sum(outer(constant(u), constant(v)), axis=0).data
            assert_allclose(got, u.sum() * v, atol=1e-12, rtol=0)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(constant(0.0)).item() == pytest.approx(0.5)

    def test_tanh_zero(self):
        assert tanh(constant(0.0)).item() == pytest.approx(0.0)

    def test_add(self):
        assert_allclose(add(constant([1.0, 2.0]), constant([3.0, 4.0])).data, [4.0, 6.0])

    def test_scalar_broadcast(self):
        b = parameter(np.array([2.0]))
        with Graph():
            out = mul(constant([1.0, 2.0, 3.0]), b)
            backward(reduce_sum(out))
        assert_allclose(out.data, [2.0, 4.0, 6.0])
        assert_allclose(b.grad, [6.0])

    def test_relu_gradient_at_zero_is_zero(self):
        x = parameter([-1.0, 0.0, 2.0])
        with Graph():
            backward(reduce_sum(ad.relu(x)))
        assert x.grad.tolist() == [0.0, 0.0, 1.0]

    def test_div_by_zero(self):
        with pytest.raises(NumericError):
            div(constant([1.0]), constant([0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(constant([1.0, 2.0]), constant([1.0, 2.0, 3.0]))


class TestReduce:
    def test_sum_axis0(self):
        assert_allclose(reduce_sum(constant([[1.0, 2.0], [3.0, 4.0]]), axis=0).data, [4.0, 6.0])

    def test_max_over_axis(self):
        assert_allclose(max_over_axis(constant([[1.0, 5.0], [2.0, 3.0]]), 0).data, [2.0, 5.0])

    def test_mean_all(self):
        assert reduce_mean(constant([2.0, 4.0, 6.0])).item() == pytest.approx(4.0)

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            reduce_sum(constant([1.0]), axis=3)

    def test_max_backward_first_occurrence_on_tie(self):
        x = parameter([[2.0, 1.0], [2.0, 0.0]])
        with Graph():
            out = max_over_axis(x, 0)
            backward(reduce_sum(out))
        assert_allclose(x.grad, [[1.0, 1.0], [0.0, 0.0]])


class TestEmbedding:
    def test_gather(self):
        table = constant([[1.0, 1.0], [2.0, 2.0]])
        out = embedding_lookup(table, [1, 0, 1])
        assert_allclose(out.data, [[2.0, 2.0], [1.0, 1.0], [2.0, 2.0]])

    def test_empty_ids(self):
        out = embedding_lookup(constant(np.zeros((3, 4))), [])
        assert out.shape == (0, 4)

    def test_duplicate_id_backward_scatter_add(self):
        table = parameter(np.zeros((3, 2)))
        upstream = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
        with Graph():
            out = embedding_lookup(table, [1, 1, 2])
            backward(reduce_sum(mul_by(out, upstream)))
        # row 1 used twice: its gradient is the sum of both upstream rows
        expected = np.zeros((3, 2))
        expected[1] = upstream[0] + upstream[1]
        expected[2] = upstream[2]
        assert_allclose(table.grad, expected)

    def test_out_of_range_names_id(self):
        with pytest.raises(IndexError, match="7"):
            embedding_lookup(constant(np.zeros((3, 2))), [0, 7])

    def test_row_scatter_bit_identical_to_dense_scatter(self):
        # ids repeat within a lookup, across the lookups of one document and
        # across the documents of one batch; rows 5, 8 and 11 are never read
        batch = [[[4, 1, 4, 4, 0], [1, 1], [], [7, 4]],
                 [[0, 0, 0], [9, 4, 1, 10]],
                 [[2, 6, 2, 3, 7, 7, 9]]]
        rng = np.random.default_rng(5)
        init = rng.normal(size=(12, 3))
        weights = [[rng.normal(scale=3.0, size=(len(ids), 3)) for ids in doc] for doc in batch]

        def table_grad(lookup):
            table = parameter(init.copy())
            for doc, doc_weights in zip(batch, weights):
                with Graph():
                    terms = [reduce_sum(mul_by(ad.tanh(lookup(table, ids)), w))
                             for ids, w in zip(doc, doc_weights)]
                    loss = terms[0]
                    for term in terms[1:]:
                        loss = add(loss, term)
                    backward(loss)
            return table.grad

        grad = table_grad(embedding_lookup)
        assert np.array_equal(grad, table_grad(dense_scatter_embedding_lookup))
        assert not grad[[5, 8, 11]].any()

    def test_constant_table_grad_stays_none(self):
        table = constant(np.arange(8.0).reshape(4, 2))
        x = parameter(np.ones((3, 2)))
        with Graph():
            backward(reduce_sum(mul(embedding_lookup(table, [1, 3, 1]), x)))
        assert table.grad is None
        assert_allclose(x.grad, [[2.0, 3.0], [6.0, 7.0], [2.0, 3.0]])


def mul_by(t, arr):
    return mul(t, constant(arr))


class TestLosses:
    def test_one_hot_correct(self):
        assert cross_entropy(constant([1.0, 0.0, 0.0]), 0).item() == pytest.approx(0.0)

    def test_uniform_five(self):
        out = cross_entropy(constant([0.2] * 5), 3)
        assert out.item() == pytest.approx(math.log(5.0), abs=1e-12)

    def test_calculator_oracle(self):
        out = cross_entropy(constant([0.7, 0.3]), 1)
        assert out.item() == pytest.approx(1.2039728043259361, abs=1e-9)

    def test_invalid_class(self):
        with pytest.raises(IndexError):
            cross_entropy(constant([0.5, 0.5]), 2)

    def test_not_a_distribution(self):
        with pytest.raises(ValueError):
            cross_entropy(constant([0.7, 0.7]), 0)

    def test_clamped_at_zero_probability(self):
        out = cross_entropy(constant([1.0, 0.0]), 1)
        assert out.item() == pytest.approx(-math.log(1e-12))

    def test_squared_error_cases(self):
        assert squared_error(constant(3.0), 3.0).item() == 0.0
        assert squared_error(constant(5.0), 1.0).item() == 16.0
        assert squared_error(constant(2.5), 4.0).item() == 2.25


class TestBackward:
    def test_identity_leaf(self):
        x = parameter(2.0)
        backward(x)
        assert_allclose(x.grad, 1.0)

    def test_sum_of_squares(self):
        x = parameter([1.0, 2.0, 3.0])
        with Graph():
            backward(reduce_sum(mul(x, x)))
        assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_rejected(self):
        x = parameter([1.0, 2.0])
        with pytest.raises(DimensionError):
            backward(x)

    def test_fanout_accumulation_matches_hand_split(self):
        # x feeds two consumers; gradient is the sum of both partials.
        # Hand-split oracle: d/dx [x*a] + d/dx [x*b] = a + b, evaluated separately.
        a, b = 3.0, 5.0
        x = parameter(2.0)
        with Graph():
            y = add(ad.scale(x, a), ad.scale(x, b))
            backward(y)
        assert_allclose(x.grad, a + b)

    def test_grads_accumulate_across_backward_calls(self):
        x = parameter(4.0)
        for _ in range(2):
            with Graph():
                backward(mul(x, x))
        assert_allclose(x.grad, 2 * 2 * 4.0)

    def test_zero_grads(self):
        x = parameter(4.0)
        with Graph():
            backward(mul(x, x))
        zero_grads([x])
        assert x.grad is None


class TestTapeOwnership:
    def test_ungraphed_ops_record_nothing(self):
        x = parameter([1.0, 2.0])
        for _ in range(1000):
            out = mul(x, x)
            assert out.graph is None
            assert not out.requires_grad
        assert ad._graph_stack == []

    def test_ops_record_only_inside_graph(self):
        x = parameter([1.0, 2.0])
        with Graph() as g:
            inside = mul(x, x)
        outside = mul(x, x)
        assert inside.graph is g and inside.requires_grad
        assert [out for out, _ in g.ops] == [inside]
        assert outside.graph is None

    def test_backward_of_ungraphed_loss_raises(self):
        x = parameter([1.0, 2.0])
        loss = reduce_sum(mul(x, x))
        with pytest.raises(ValueError, match="outside any Graph"):
            backward(loss)
        assert x.grad is None

    def test_backward_of_constant_raises(self):
        with Graph():
            with pytest.raises(ValueError, match="Graph"):
                backward(reduce_sum(mul(constant([1.0]), constant([2.0]))))


class TestStructuralOps:
    def test_transpose_roundtrip(self):
        x = parameter([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with Graph():
            out = transpose(x)
            backward(reduce_sum(mul_by(out, np.arange(6.0).reshape(3, 2))))
        assert out.shape == (3, 2)
        assert_allclose(x.grad, np.arange(6.0).reshape(3, 2).T)

    def test_reshape(self):
        x = constant([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(reshape(x, (4,)).data, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DimensionError):
            reshape(x, (3,))

    def test_stack_and_slice_and_pad(self):
        r0 = parameter([1.0, 2.0])
        r1 = parameter([3.0, 4.0])
        with Graph():
            m = stack_rows([r0, r1])
            padded = pad_rows(m, 4)
            seg = slice_rows(padded, 0, 2)
            backward(reduce_sum(mul_by(seg, np.array([[1.0, 10.0], [100.0, 1000.0]]))))
        assert padded.shape == (4, 2)
        assert_allclose(padded.data[2:], 0.0)
        assert_allclose(r0.grad, [1.0, 10.0])
        assert_allclose(r1.grad, [100.0, 1000.0])

    def test_concat_rows_side_by_side(self):
        a = parameter([[1.0, 2.0], [3.0, 4.0]])
        b = parameter([[5.0], [6.0]])
        with Graph():
            out = concat([a, b])
            backward(reduce_sum(mul_by(out, np.arange(6.0).reshape(2, 3))))
        assert_allclose(out.data, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
        assert_allclose(a.grad, [[0.0, 1.0], [3.0, 4.0]])
        assert_allclose(b.grad, [[2.0], [5.0]])
        with pytest.raises(DimensionError):
            concat([a, parameter([[1.0]])])  # leading axes differ
        with pytest.raises(DimensionError):
            concat([a, parameter([1.0, 2.0])])

    def test_concat_backward_splits(self):
        a = parameter([1.0, 2.0])
        b = parameter([3.0])
        with Graph():
            out = concat([a, b])
            backward(reduce_sum(mul_by(out, np.array([1.0, 2.0, 3.0]))))
        assert_allclose(out.data, [1.0, 2.0, 3.0])
        assert_allclose(a.grad, [1.0, 2.0])
        assert_allclose(b.grad, [3.0])


class TestFiniteScan:
    def test_nan_raises_in_debug_mode(self):
        x = constant([710.0])  # exp overflows float64
        with pytest.raises(NumericError):
            mul(x, constant([np.inf]))

    def test_finite_values_whose_sum_overflows_pass(self):
        with np.errstate(over="ignore"):
            out = ad.scale(constant([1e308, 1e308, -1.0]), 1.0)
        assert out.data[0] == 1e308

    def test_lone_nan_raises(self):
        x = np.zeros(50)
        x[17] = np.nan
        with pytest.raises(NumericError, match="scale"):
            ad.scale(constant(x), 1.0)

    def test_both_infinities_raise(self):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="scale"):
            ad.scale(constant([np.inf, 1.0, -np.inf]), 1.0)

    def test_scan_prints_no_warning(self):
        # numpy's default error state warns; any warning here is an error
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            assert ad.scale(constant([1e308, 1e308, -1.0]), 1.0).data[0] == 1e308
            for infinities in ([np.inf, 1.0, -np.inf], [np.inf, np.inf], [-np.inf]):
                with pytest.raises(NumericError, match="scale"):
                    ad.scale(constant(infinities), 1.0)


class TestFusedEncoderOps:
    @staticmethod
    def gru_params(rng, e=3, h=4):
        return [parameter(rng.normal(size=shape)) for _ in "zrh"
                for shape in ((e, h), (h, h), (1, h))]

    def test_gru_gate_overflow_raises_although_state_stays_finite(self):
        rng = np.random.default_rng(0)
        emb = constant(np.abs(rng.normal(size=(2, 3))) + 0.5)
        params = self.gru_params(rng)
        params[0].data[...] = 1e308  # x @ wz overflows: z saturates at 1
        wz, uz, bz, wr, ur, br, wh, uh, bh = (p.data for p in params)
        h = np.zeros((1, 4))
        with np.errstate(over="ignore"):
            for x in emb.data[:, None]:  # the GRU step in plain numpy
                pre_z = x @ wz + h @ uz + bz
                assert np.all(np.isinf(pre_z))
                z = 1.0 / (1.0 + np.exp(-pre_z))
                r = 1.0 / (1.0 + np.exp(-(x @ wr + h @ ur + br)))
                h = z * h + (1.0 - z) * np.tanh(x @ wh + (r * h) @ uh + bh)
            assert np.all(np.isfinite(h))  # so only the pre-activation scan can catch it
            with pytest.raises(NumericError, match="gru_scan"):
                ad.gru_scan([emb], *params)

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])  # relu hides -inf from the output
    def test_conv_infinite_bias_raises(self, inf):
        rng = np.random.default_rng(1)
        emb = constant(rng.normal(size=(4, 3)))
        w = parameter(rng.normal(size=(6, 2)))
        b = parameter(np.array([0.0, inf]))
        with pytest.raises(NumericError, match="conv_max_pool"):
            ad.conv_max_pool([emb], w, b, 2)

    def test_shape_contracts(self):
        rng = np.random.default_rng(2)
        emb = constant(rng.normal(size=(3, 2)))
        with pytest.raises(DimensionError):
            ad.conv_max_pool([emb], parameter(np.zeros((0, 2))), parameter(np.zeros(2)), 0)
        with pytest.raises(DimensionError):
            ad.conv_max_pool([emb], parameter(np.zeros((5, 2))), parameter(np.zeros(2)), 2)
        with pytest.raises(DimensionError):
            ad.conv_max_pool([], parameter(np.zeros((4, 2))), parameter(np.zeros(2)), 2)
        with pytest.raises(DimensionError):
            ad.gru_scan([], *self.gru_params(rng, e=2))
        with pytest.raises(DimensionError):
            ad.gru_scan([emb], *self.gru_params(rng, e=3))
        with pytest.raises(DimensionError):  # sentences of different widths
            ad.gru_scan([emb, constant(np.zeros((2, 3)))], *self.gru_params(rng, e=2))

    def test_one_tape_entry_each(self):
        rng = np.random.default_rng(3)
        doc = [parameter(rng.normal(size=(n, 3))) for n in (5, 2)]
        with Graph() as graph:
            ad.gru_scan(doc, *self.gru_params(rng))
            ad.conv_max_pool(doc, parameter(rng.normal(size=(9, 2))), parameter(np.zeros(2)), 3)
        assert len(graph.ops) == 2

    def test_document_rows_match_one_sentence_calls(self):
        # forward only; saam.selftest.fused_encoder_check compares the gradients
        rng = np.random.default_rng(4)
        doc = [constant(rng.normal(size=(n, 3))) for n in (4, 1, 6, 2)]
        gru = self.gru_params(rng)
        w, b = parameter(rng.normal(size=(9, 2))), parameter(rng.normal(size=2))
        assert np.array_equal(ad.gru_scan(doc, *gru).data,
                              np.concatenate([ad.gru_scan([s], *gru).data for s in doc]))
        assert np.array_equal(ad.conv_max_pool(doc, w, b, 3).data,
                              np.concatenate([ad.conv_max_pool([s], w, b, 3).data for s in doc]))

    @pytest.mark.parametrize("op", ["gru", "cnn"])
    def test_sentence_without_tokens_is_a_zero_row_and_gets_no_gradient(self, op):
        rng = np.random.default_rng(5)
        real = parameter(rng.normal(size=(3, 3)))
        params = self.gru_params(rng) if op == "gru" else [parameter(rng.normal(size=(6, 2))),
                                                            parameter(rng.normal(size=2))]

        def run(doc):
            zero_grads([real, *params])
            with Graph():
                out = (ad.gru_scan(doc, *params) if op == "gru"
                       else ad.conv_max_pool(doc, *params, 2))
                backward(reduce_sum(mul_by(out, np.ones(out.shape))))
            return out.data, [p.grad for p in (real, *params)]

        empty = constant(np.zeros((0, 3)))
        out, grads = run([empty, real, empty])
        alone_out, alone_grads = run([real])
        assert np.array_equal(out[[0, 2]], np.zeros((2, out.shape[1])))
        assert np.array_equal(out[1], alone_out[0])
        assert all(np.array_equal(g, a) for g, a in zip(grads, alone_grads))
        assert run([empty])[0].shape == (1, out.shape[1])


class TestGradCheck:
    def test_linear_is_exact(self):
        w = parameter([1.5, -2.0, 0.5])

        def build():
            return reduce_sum(mul_by(w, np.array([2.0, 3.0, 4.0])))

        report = grad_check(build, {"w": w})
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(7)
        w = parameter(rng.normal(size=(4, 3)))
        x = constant(rng.normal(size=(1, 4)))

        def build():
            logits = matmul(x, w)
            dist = reshape(softmax_lastdim(logits), (3,))
            return cross_entropy(dist, 1)

        report = grad_check(build, {"w": w}, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()

    def test_corrupted_backward_is_named(self):
        w = parameter([0.3, -0.8])

        def broken_square(t):
            out_data = t.data ** 2

            def backward_fn(out):
                ad._accumulate(t, 3.0 * out.grad)  # wrong rule: should be 2*x*g

            return ad._make(out_data, (t,), backward_fn, "broken_square")

        def build():
            return reduce_sum(broken_square(w))

        report = grad_check(build, {"w": w})
        assert not report.passed
        assert "w" in report.failures
        assert "BAD" in report.summary()

    @pytest.mark.parametrize("name,build,params",
                             [pytest.param(*case, id=case[0]) for case in op_gradcheck_cases()])
    def test_every_op_passes_gradcheck(self, name, build, params):
        report = grad_check(build, params)
        assert report.passed, f"{name}: {report.summary()}"
