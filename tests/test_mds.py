"""Classical MDS: recovered distances, Gram eigenpairs, stress."""

import numpy as np
import pytest

import treealgebra as ta
from treealgebra.mds import classical_mds, mds_stress, pairwise_distances


class TestClassicalMDS:
    def test_equilateral_triangle(self):
        dist = np.ones((3, 3)) - np.eye(3)
        coords = classical_mds(dist, 2)
        recovered = pairwise_distances(coords)
        assert np.allclose(recovered, dist, atol=1e-9)

    def test_known_configuration_roundtrip(self, rng):
        # expected distances derived from the generating configuration
        config = rng.normal(size=(4, 2)) * 3.0
        dist = pairwise_distances(config)
        coords = classical_mds(dist, 2)
        assert np.allclose(pairwise_distances(coords), dist, atol=1e-6)

    @staticmethod
    def random_configurations(rng, count=20):
        for _ in range(count):
            p = int(rng.integers(1, 5))
            n = int(rng.integers(p + 2, 14))
            yield p, rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0)

    def test_random_configurations_recover_distances(self, rng):
        for p, config in self.random_configurations(rng):
            dist = pairwise_distances(config)
            coords = classical_mds(dist, p)
            assert np.max(np.abs(pairwise_distances(coords) - dist)) <= 1e-10 * max(
                1.0, dist.max()
            )

    def test_columns_are_gram_eigenpairs(self, rng):
        """Each coordinate column c is sqrt(w) v for an eigenpair (w, v) of
        the double-centred Gram matrix, in descending eigenvalue order."""
        for p, config in self.random_configurations(rng):
            dist = pairwise_distances(config)
            n = len(dist)
            j = np.eye(n) - np.ones((n, n)) / n
            gram = -0.5 * j @ (dist * dist) @ j
            coords = classical_mds(dist, p)
            evals = (coords * coords).sum(axis=0)
            assert (np.diff(evals) <= 1e-10 * np.linalg.norm(gram)).all()
            for w, c in zip(evals, coords.T):
                v = c / np.sqrt(w)
                residual = np.linalg.norm(gram @ v - w * v)
                assert residual <= 1e-10 * np.linalg.norm(gram)

    def test_zero_matrix_gives_zero_coordinates(self):
        coords = classical_mds(np.zeros((2, 2)), 1)
        assert coords.shape == (2, 1)
        assert (coords == 0.0).all()

    def test_excess_dims_padded_with_zeros(self):
        dist = np.ones((3, 3)) - np.eye(3)
        coords = classical_mds(dist, 3)
        assert coords.shape == (3, 3)
        assert (coords[:, 2] == 0.0).all()
        assert np.allclose(pairwise_distances(coords), dist, atol=1e-9)

    def test_rejects_asymmetric_input(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ta.DomainError):
            classical_mds(bad, 1)

    def test_rejects_nonzero_diagonal(self):
        bad = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ta.DomainError):
            classical_mds(bad, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        dist = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ta.DomainError, match="non-finite"):
            classical_mds(dist, 1)
        with pytest.raises(ta.DomainError, match="must be finite"):
            mds_stress(np.ones((2, 2)) - np.eye(2), np.array([[0.0], [bad]]))

    def test_stress_zero_for_exact_embedding(self, rng):
        config = rng.normal(size=(6, 3))
        dist = pairwise_distances(config)
        coords = classical_mds(dist, 3)
        assert mds_stress(dist, coords) <= 1e-12

    def test_stress_positive_for_non_euclidean(self):
        # a 4-point star metric does not embed exactly in one dimension
        dist = np.array(
            [
                [0.0, 2.0, 2.0, 2.0],
                [2.0, 0.0, 2.0, 2.0],
                [2.0, 2.0, 0.0, 2.0],
                [2.0, 2.0, 2.0, 0.0],
            ]
        )
        coords = classical_mds(dist, 1)
        stress = mds_stress(dist, coords)
        assert np.isfinite(stress) and stress > 0.0


    @pytest.mark.parametrize("rows", [2, 4])
    def test_stress_needs_one_coordinate_row_per_point(self, rows):
        with pytest.raises(ta.DomainError) as raised:
            mds_stress(np.ones((3, 3)) - np.eye(3), np.zeros((rows, 1)))
        assert str(raised.value) == f"coordinates have shape ({rows}, 1), not one row per point (3)"

    def test_stress_checks_its_distance_matrix(self):
        # the zero matrix gave 0 for any coordinates
        with pytest.raises(ta.DomainError, match="^coordinates have shape"):
            mds_stress(np.zeros((3, 3)), np.zeros((2, 1)))
        with pytest.raises(ta.DomainError, match="^distance matrix is not symmetric$"):
            mds_stress(np.array([[0.0, 1.0], [2.0, 0.0]]), np.zeros((2, 1)))
        with pytest.raises(ta.DomainError, match="^distance matrix must be square$"):
            mds_stress(np.zeros(3), np.zeros((3, 1)))


class TestTreeDistancePipeline:
    def test_distances_from_trees_embed(self, stump4, stump6, stump_y5, uniform):
        D = ta.distance_matrix([stump4, stump6, stump_y5], uniform)
        coords = classical_mds(D, 2)
        assert np.isfinite(mds_stress(D, coords))
