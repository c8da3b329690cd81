"""Self-test of the benchmark: every check fails on a wrong input, and every
workload runs end to end at a tiny size, untraced and traced.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from equiguide.gmm import gmm_posterior_exact, sample_gmm  # noqa: E402
from equiguide.metrics import sliced_wasserstein  # noqa: E402
from equiguide.operators import forward, make_operator  # noqa: E402
from workloads import RING_MASK, ring_operator_spec, ring_prior  # noqa: E402


class ChecksRejectWrongInputs(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(0)

    def test_bit_identical(self):
        a = self.rng.standard_normal((4, 3))
        self.assertTrue(checks.bit_identical("x", a, a.copy()).ok)
        self.assertFalse(checks.bit_identical("x", a, a + 1e-15).ok)
        self.assertFalse(checks.bit_identical("x", a, a[:3]).ok)

    def test_equi_grad_arithmetic(self):
        # A7's counts for 300 steps at periods 1, 2, 5 and 10
        got = [checks.expected_equi_grads(300, p, 0.1) for p in (1, 2, 5, 10)]
        self.assertEqual(got, [270, 135, 54, 27])
        self.assertEqual(checks.expected_equi_grads(100, 3, 0.1), 30)

    def test_counts_off_by_one(self):
        expected = {"score_evals": 800, "guidance_grads": 800, "equi_grads": 720}
        self.assertTrue(checks.counts_match("c", dict(expected), expected).ok)
        for key in expected:
            wrong = {**expected, key: expected[key] + 1}
            self.assertFalse(checks.counts_match("c", wrong, expected).ok, key)
        self.assertFalse(checks.counts_match("c", {}, expected).ok)

    def test_unguided_in_place_of_guided(self):
        truth = self.rng.uniform(0, 1, (6, 16, 16))
        mask = np.ones((16, 16))
        mask[4:12, 4:12] = 0.0
        guided = truth + 0.05 * self.rng.standard_normal(truth.shape)
        unguided = self.rng.standard_normal(truth.shape) * 2.0
        self.assertTrue(checks.guided_fits_observations("g", guided, unguided, truth, mask).ok)
        self.assertFalse(checks.guided_fits_observations("g", unguided, unguided, truth, mask).ok)

    def test_masked_rms_ignores_unobserved(self):
        truth = np.zeros((2, 4))
        samples = np.array([[3.0, 1.0, 1.0, 3.0], [3.0, -1.0, 1.0, 3.0]])
        self.assertEqual(checks.masked_rms(samples, truth, np.array(RING_MASK)), 1.0)

    def test_equi_error_order(self):
        self.assertTrue(checks.regularizer_lowers_equi_error(0.9, 1.0).ok)
        self.assertFalse(checks.regularizer_lowers_equi_error(1.0, 0.9).ok)
        self.assertFalse(checks.regularizer_lowers_equi_error(1.0, 1.0).ok)

    def test_below(self):
        self.assertTrue(checks.below("b", 0.2, 0.5, "v").ok)
        self.assertFalse(checks.below("b", 0.5, 0.5, "v").ok)

    def test_same_hashes(self):
        self.assertTrue(checks.same_hashes("h", ["a", "a", "a"]).ok)
        self.assertFalse(checks.same_hashes("h", ["a", "b", "a"]).ok)
        self.assertFalse(checks.same_hashes("h", ["a"]).ok)

    def _ring_case(self):
        prior = ring_prior()
        op = make_operator(ring_operator_spec())
        self.assertEqual(op.mask.tolist(), RING_MASK)
        y = forward(op, sample_gmm(prior, 1, self.rng)[0], 5).y
        return prior, op, y

    def test_oracle_agreement(self):
        prior, op, y = self._ring_case()
        post = gmm_posterior_exact(prior, op, op.sigma_y, y).posterior
        args = (prior.weights, prior.means, prior.covariances)
        ok = checks.oracle_agrees(post, *checks.condition_components(*args, [1, 2], y[[1, 2]],
                                                                     op.sigma_y))
        self.assertTrue(ok.ok, ok.detail)
        wrong_coords = checks.condition_components(*args, [0, 1], y[[0, 1]], op.sigma_y)
        self.assertFalse(checks.oracle_agrees(post, *wrong_coords).ok)
        wrong_noise = checks.condition_components(*args, [1, 2], y[[1, 2]], 2 * op.sigma_y)
        self.assertFalse(checks.oracle_agrees(post, *wrong_noise).ok)

    def test_prior_draws_in_place_of_posterior_samples(self):
        prior, op, y = self._ring_case()
        post = gmm_posterior_exact(prior, op, op.sigma_y, y).posterior
        ref = sample_gmm(post, 512, np.random.default_rng(1))
        exact = sample_gmm(post, 128, np.random.default_rng(2))
        prior_draws = sample_gmm(prior, 128, np.random.default_rng(3))

        def sw(x):
            return [sliced_wasserstein(x, ref, rng=np.random.default_rng(4))]

        self.assertTrue(checks.closer_than_prior("s", sw(exact), sw(prior_draws)).ok)
        self.assertFalse(checks.closer_than_prior("s", sw(prior_draws), sw(prior_draws)).ok)


# checks that hold at any size; the quality checks need the full training budget
STRUCTURAL = ("repeat_", "counts_", "lambda0_reduction", "oracle_agrees")


class TinyWorkloads(unittest.TestCase):
    def _run(self, workload: str, trace: bool):
        (HERE / "_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "_out") as tmp:
            result, bench = run.run(workload, 3, 1.0, trace, size="tiny", out_dir=Path(tmp))
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = [m["name"] for m in run.metric_specs(trace)]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, m in result["metrics"].items():
            self.assertTrue(np.isfinite(m["value"]), name)
        structural = [c for c in bench.checks if any(s in c.name for s in STRUCTURAL)]
        self.assertTrue(structural)
        for c in structural:
            self.assertTrue(c.ok, f"{c.name}: {c.detail}")
        return result, bench

    def test_grid_restore(self):
        _, plain = self._run("grid-restore", False)
        _, traced = self._run("grid-restore", True)
        self.assertEqual(plain.hashes, traced.hashes)

    def test_ring_posterior(self):
        _, plain = self._run("ring-posterior", False)
        _, traced = self._run("ring-posterior", True)
        self.assertEqual(plain.hashes, traced.hashes)

    def test_ring_cli(self):
        _, plain = self._run("ring-cli", False)
        result, traced = self._run("ring-cli", True)
        self.assertEqual(plain.hashes, traced.hashes)
        self.assertEqual(result["metrics"]["harness.sampler_calls_per_run"]["value"], 8.0)


if __name__ == "__main__":
    unittest.main()
