import numpy as np
import pytest

from carnot_extremals import (
    AlgebraSpec,
    InputError,
    SkewMatrix,
    UnsupportedRankError,
    kernel_basis,
    leaf_classify,
)

from oracles import bracket_structure, random_skew, so3_kernel_direction

SCALES = (1e-300, 1e-200, 1e-15, 1e-7, 1e200, 1e300)


class TestAlgebraSpec:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_dimension(self, k):
        spec = AlgebraSpec(k)
        assert spec.dim == k * (k + 1) // 2
        assert spec.num_pairs == k * (k - 1) // 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_pair_index_is_a_bijection(self, k):
        spec = AlgebraSpec(k)
        indices = [spec.pair_index(i, j) for i, j in spec.pairs()]
        assert indices == list(range(spec.num_pairs))

    def test_rejects_bad_pairs(self):
        spec = AlgebraSpec(3)
        for i, j in [(2, 1), (0, 1), (1, 1), (1, 4)]:
            with pytest.raises(InputError):
                spec.pair_index(i, j)

    def test_rejects_small_k(self):
        with pytest.raises(InputError):
            AlgebraSpec(1)


class TestSkewMatrix:
    def test_from_entries_round_trip(self):
        m = SkewMatrix.from_entries(3, {(1, 2): 1.0, (1, 3): -2.0, (2, 3): 0.5})
        np.testing.assert_array_equal(m.matrix, -m.matrix.T)
        np.testing.assert_array_equal(m.flat(), [1.0, -2.0, 0.5])
        again = SkewMatrix.from_flat(3, m.flat())
        np.testing.assert_array_equal(again.matrix, m.matrix)

    def test_rejects_non_skew(self):
        with pytest.raises(InputError):
            SkewMatrix(np.eye(2))

    def test_rejects_bad_entry_keys(self):
        with pytest.raises(InputError):
            SkewMatrix.from_entries(3, {(2, 1): 1.0})

    def test_sigma_max_of_rotation_generator(self):
        m = SkewMatrix.from_entries(3, {(1, 2): 1.0})
        assert kernel_basis(m).sigma_max == pytest.approx(1.0, abs=1e-14)
        assert kernel_basis(SkewMatrix.zero(4)).sigma_max == 0.0
        assert SkewMatrix.zero(4).is_zero


class TestBracketTable:
    def test_k2_single_bracket(self):
        c = bracket_structure(2)
        # {h_1, h_2} = h_12, everything else vanishes
        np.testing.assert_array_equal(c[0, 1], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(c[1, 0], [0.0, 0.0, -1.0])
        first_level = c[:2, :2]
        assert np.count_nonzero(first_level[np.triu_indices(2, 1)]) == 1

    @pytest.mark.parametrize("k,expected", [(3, 3), (4, 6)])
    def test_first_level_bracket_count(self, k, expected):
        c = bracket_structure(k)
        count = sum(
            1 for i in range(k) for j in range(i + 1, k)
            if c[i, j].any()
        )
        assert count == expected
        # the second layer is central: all its brackets vanish
        assert not c[k:, :, :].any()
        assert not c[:, k:, :].any()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_antisymmetry_and_jacobi(self, k):
        c = bracket_structure(k)
        np.testing.assert_array_equal(c, -np.swapaxes(c, 0, 1))
        # sum over cyclic permutations of {e_a, {e_b, e_c}}
        inner = np.einsum("bcm,amd->abcd", c, c)
        jacobi = inner + np.einsum("abcd->bcad", inner) + np.einsum("abcd->cabd", inner)
        assert not jacobi.any()


class TestKernelBasis:
    def test_single_generator_kernel(self):
        m = SkewMatrix.from_entries(3, {(1, 2): 1.0})
        basis = kernel_basis(m)
        assert len(basis) == 1
        np.testing.assert_allclose(basis.vectors[0], [0.0, 0.0, 1.0], atol=1e-15)

    def test_zero_matrix_full_kernel(self):
        for k in (2, 3, 5):
            basis = kernel_basis(SkewMatrix.zero(k))
            np.testing.assert_array_equal(basis.vectors, np.eye(k))

    def test_two_frequency_block_matrix_has_trivial_kernel(self):
        m = SkewMatrix.from_entries(4, {(1, 2): 1.0, (3, 4): np.sqrt(2.0)})
        assert abs(np.linalg.det(m.matrix)) > 1e-12  # = (alpha beta)^2
        assert len(kernel_basis(m)) == 0

    def test_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 4, 5, 6):
            for _ in range(20):
                m = random_skew(rng, k)
                basis = kernel_basis(m)
                v = basis.vectors
                if len(basis):
                    gram = v @ v.T
                    assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12
                    residual = np.abs(m.matrix @ v.T).max()
                    assert residual <= 1e-10 * max(1.0, basis.sigma_max)

    def test_kernel_dimension_parity(self):
        rng = np.random.default_rng(4)
        for k in (2, 3, 4, 5, 6):
            for _ in range(20):
                assert len(kernel_basis(random_skew(rng, k))) % 2 == k % 2

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            basis = kernel_basis(random_skew(rng, 3))
            lead = basis.vectors[0][np.abs(basis.vectors[0]) > 1e-12][0]
            assert lead > 0.0

    def test_near_singular_flag(self):
        m = SkewMatrix.from_entries(4, {(1, 2): 1.0, (3, 4): 1e-8})
        basis = kernel_basis(m)
        assert len(basis) == 0
        assert basis.near_singular
        clean = kernel_basis(SkewMatrix.from_entries(4, {(1, 2): 1.0, (3, 4): 1.0}))
        assert not clean.near_singular

    def test_decision_does_not_depend_on_the_scale_of_m(self):
        # M -> lambda M only rescales time, so the kernel and the flag of
        # lambda * (e12 + r e34) are those of lambda = 1 at every scale.
        expected = {1.0: (0, False), 1e-5: (0, False), 1e-8: (0, True), 1e-12: (2, False)}
        for r, (dim, near) in expected.items():
            for lam in (1.0, *SCALES):
                basis = kernel_basis(SkewMatrix.from_entries(4, {(1, 2): lam, (3, 4): lam * r}))
                assert (len(basis), basis.near_singular) == (dim, near), (r, lam)
                assert basis.sigma_max == pytest.approx(lam, rel=1e-15)

    def test_random_kernels_are_scale_free(self):
        rng = np.random.default_rng(21)
        for k in (2, 3, 4, 5, 6):
            for _ in range(10):
                m = random_skew(rng, k)
                ref = kernel_basis(m)
                for lam in SCALES:
                    basis = kernel_basis(SkewMatrix(lam * m.matrix))
                    assert (len(basis), basis.near_singular) == (len(ref), ref.near_singular)
                # scaling by a power of two is exact, so the SVD input is too
                for e in (-1000, -40, 1000):
                    basis = kernel_basis(SkewMatrix(np.ldexp(m.matrix, e)))
                    np.testing.assert_array_equal(basis.vectors, ref.vectors)
                    assert basis.sigma_max == np.ldexp(ref.sigma_max, e)

    def test_k3_kernel_dimension_down_to_tiny_norms(self):
        rng = np.random.default_rng(20)
        for scale in (1.0, 1e-4, 1e-8, 1e-15, 1e-200, 1e-300):
            flat = rng.standard_normal(3)
            m = SkewMatrix.from_flat(3, scale * flat / np.linalg.norm(flat))
            assert len(kernel_basis(m)) == 1
        assert len(kernel_basis(SkewMatrix.zero(3))) == 3
        denormal = kernel_basis(SkewMatrix.from_entries(3, {(1, 2): 5e-324, (1, 3): 3e-323}))
        assert len(denormal) == 1
        # the axis of m12 e12 + m13 e13 is (0, m13, -m12), here m13 = 6 m12
        np.testing.assert_allclose(denormal.vectors[0], np.array([0.0, 6.0, -1.0]) / np.sqrt(37.0),
                                   atol=1e-15)


def test_casimirs_poisson_commute_with_coordinates():
    # Evaluate {I_a, h_i} through the structure table at the point (h, M):
    # the result must equal -(M a)_i, hence vanish for a in ker M.
    rng = np.random.default_rng(6)
    table = bracket_structure(3)
    for _ in range(50):
        m = random_skew(rng, 3)
        flat = m.flat()
        a = kernel_basis(m).vectors[0]
        for i in range(3):
            bracket = sum(a[j] * table[j, i, 3:] @ flat for j in range(3))
            assert abs(bracket - (-(m.matrix @ a)[i])) <= 1e-14
            assert abs(bracket) <= 1e-10


class TestLeafClassify:
    def test_zero_matrix_gives_point_leaf(self):
        leaf = leaf_classify(SkewMatrix.zero(3), [1.0, 2.0, 3.0])
        assert leaf.kind == "zero_dim"
        np.testing.assert_array_equal(leaf.point, [1.0, 2.0, 3.0])
        assert leaf.casimir is None

    def test_single_generator_leaf(self):
        leaf = leaf_classify(SkewMatrix.from_entries(3, {(1, 2): 1.0}), [1.0, 0.0, 0.0])
        assert leaf.kind == "two_dim"
        np.testing.assert_allclose(leaf.casimir, [0.0, 0.0, 1.0], atol=1e-15)
        assert leaf.casimir_level == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(leaf.skew_levels, [1.0, 0.0, 0.0])

    def test_fully_populated_matrix(self):
        m = SkewMatrix.from_entries(3, {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
        leaf = leaf_classify(m, np.zeros(3))
        assert leaf.kind == "two_dim"
        np.testing.assert_allclose(leaf.casimir, np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0),
                                   atol=1e-12)
        assert leaf.casimir_level == pytest.approx(0.0, abs=1e-15)

    def test_casimir_matches_independent_null_space(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_skew(rng, 3)
            leaf = leaf_classify(m, rng.standard_normal(3))
            expected = so3_kernel_direction(m.matrix)
            nz = expected[np.abs(expected) > 1e-12]
            if nz[0] < 0:
                expected = -expected
            np.testing.assert_allclose(leaf.casimir, expected, atol=1e-10)

    def test_rejects_other_ranks(self):
        with pytest.raises(UnsupportedRankError):
            leaf_classify(SkewMatrix.zero(4), np.zeros(4))

    def test_denormal_scale_matrix_still_classifies(self):
        m = SkewMatrix.from_entries(3, {(1, 2): 1e-200})
        leaf = leaf_classify(m, [1.0, 0.0, 0.0])
        assert leaf.kind == "two_dim"
        np.testing.assert_allclose(leaf.casimir, [0.0, 0.0, 1.0], atol=1e-15)
