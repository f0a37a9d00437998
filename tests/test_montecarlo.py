"""Mismatch sampling determinism, propagation, and population statistics."""

import dataclasses
import json
import math

import numpy as np
import pytest

from rfneuron import CircuitParams, MismatchModel, derive_params, montecarlo, sample_die
from rfneuron.cli import main
from rfneuron.experiments import RingdownSetup
from rfneuron.integrator import IntegratorConfig
from rfneuron.montecarlo import run_population

FIELDS = ("C1", "C2", "I_IU", "I_IV", "g_damp")


def fast_setup() -> RingdownSetup:
    """Shortened per-die ringdown for test-speed population runs."""
    return RingdownSetup(
        t0=1e-3, width=100e-6, amplitude=0.4, horizon=0.12, settle_window=0.02,
        integrator=IntegratorConfig(dt=2e-6, t_end=0.12, sample_stride=25),
    )


class TestSampleDie:
    def test_zero_sigmas_return_base_values(self):
        base = CircuitParams()
        m = MismatchModel(sigma_ln_In0_alpha=0, sigma_ln_In0_beta=0,
                          sigma_C=0, sigma_I_bias=0, sigma_ln_g_damp=0, seed=7)
        die = sample_die(base, m, 3)
        for f in FIELDS:
            assert getattr(die, f) == getattr(base, f)
        assert die.In0_alpha == base.In0_alpha
        assert die.In0_beta == base.In0_beta

    def test_sampled_fields_are_python_floats(self):
        die = sample_die(CircuitParams(), MismatchModel(seed=42), 0)
        for f in dataclasses.fields(die):
            assert type(getattr(die, f.name)) is float, f.name

    def test_deterministic_per_seed_and_index(self):
        base = CircuitParams()
        m = MismatchModel(seed=42)
        a = sample_die(base, m, 17)
        b = sample_die(base, m, 17)
        assert a == b
        c = sample_die(base, m, 18)
        assert a != c

    def test_different_seeds_differ(self):
        base = CircuitParams()
        a = sample_die(base, MismatchModel(seed=1), 0)
        b = sample_die(base, MismatchModel(seed=2), 0)
        assert a != b

    def test_branches_perturbed_independently(self):
        base = CircuitParams()
        m = MismatchModel(sigma_ln_In0_alpha=0.15, sigma_ln_In0_beta=0.15,
                          sigma_C=0, sigma_I_bias=0, sigma_ln_g_damp=0, seed=5)
        ratios = []
        for i in range(40):
            die = sample_die(base, m, i)
            ratios.append(math.log(die.In0_alpha / base.In0_alpha)
                          - math.log(die.In0_beta / base.In0_beta))
        # if both branches shared one factor the difference would vanish
        assert np.std(ratios) > 0.05

    def test_closed_form_propagation_of_branch_mismatch(self):
        # a perturbed alpha-branch shifts U* by -d(ln In0a)/a exactly and
        # leaves the resonant frequency untouched
        base = CircuitParams()
        m = MismatchModel(sigma_ln_In0_alpha=0.15, sigma_ln_In0_beta=0.15,
                          sigma_C=0, sigma_I_bias=0, sigma_ln_g_damp=0, seed=11)
        a = base.exp_slope
        dp0 = derive_params(base)
        for i in range(10):
            die = sample_die(base, m, i)
            dp = derive_params(die)
            predicted = dp0.U_star - math.log(die.In0_alpha / base.In0_alpha) / a
            assert dp.U_star == pytest.approx(predicted, rel=1e-12)
            assert dp.omega == pytest.approx(dp0.omega, rel=1e-12)

    def test_invalid_draws_are_resampled_not_clamped(self):
        base = CircuitParams()
        m = MismatchModel(sigma_C=0.65, seed=3)
        for i in range(60):
            die = sample_die(base, m, i)  # never raises, always valid
            assert die.C1 > 0 and die.C2 > 0


class TestRunPopulation:
    def test_reproducible_statistics(self):
        base = CircuitParams()
        m = MismatchModel(seed=99)
        s1 = run_population(base, m, 6, fast_setup())
        s2 = run_population(base, m, 6, fast_setup())
        assert s1.stats == s2.stats
        assert s1.records == s2.records

    def test_zero_sigma_population_has_zero_cv(self):
        base = CircuitParams()
        m = MismatchModel(sigma_ln_In0_alpha=0, sigma_ln_In0_beta=0,
                          sigma_C=0, sigma_I_bias=0, sigma_ln_g_damp=0, seed=1)
        stats = run_population(base, m, 4, fast_setup())
        for name in ("baseline_U", "f_res"):
            assert stats.cv_percent(name) == pytest.approx(0.0, abs=1e-9)

    def test_needs_at_least_two_dies(self):
        with pytest.raises(ValueError):
            run_population(CircuitParams(), MismatchModel(), 1, fast_setup())

    def test_cv_first_order_scaling(self):
        # at small sigma, doubling every sigma doubles the analytic CVs of
        # the derived quantities (checked without simulation for speed)
        base = CircuitParams()

        def analytic_cvs(scale):
            m = MismatchModel(
                sigma_ln_In0_alpha=0.01 * scale, sigma_ln_In0_beta=0.01 * scale,
                sigma_C=0.01 * scale, sigma_I_bias=0.01 * scale,
                sigma_ln_g_damp=0.01 * scale, seed=2024,
            )
            us, fs, qs = [], [], []
            for i in range(400):
                dp = derive_params(sample_die(base, m, i))
                us.append(dp.U_star)
                fs.append(dp.f_res)
                qs.append(dp.Q)
            out = []
            for vals in (us, fs, qs):
                arr = np.asarray(vals)
                out.append(np.std(arr, ddof=1) / np.mean(arr))
            return out

        cv1 = analytic_cvs(1.0)
        cv2 = analytic_cvs(2.0)
        for c1, c2 in zip(cv1, cv2):
            assert c2 / c1 == pytest.approx(2.0, rel=0.25)

    def test_population_csv_and_json(self, tmp_path):
        # the CLI's outputs for 4 dies of the fast_setup() protocol
        config = tmp_path / "mc.yaml"
        config.write_text(
            "ringdown: {t0: 1.0e-3, width: 1.0e-4, horizon: 0.12, settle_window: 0.02,\n"
            "           integrator: {dt: 2.0e-6, t_end: 0.12, sample_stride: 25}}\n"
            "montecarlo: {n_dies: 4, amplitude: 0.4, model: {seed: 5}}\n")
        assert main(["montecarlo", "--config", str(config), "--outdir", str(tmp_path)]) == 0
        pop = json.loads((tmp_path / "population.json").read_text())
        assert pop["n_dies"] == 4
        assert pop["metrics"]["f_res"]["n_defined"] == 4
        lines = (tmp_path / "dies.csv").read_text().splitlines()
        assert lines[0].startswith("die,baseline_U")
        assert len(lines) == 5

    @pytest.mark.parametrize("cpus, processes", [(64, 3), (2, 2), (None, None)])
    def test_pool_size_is_capped(self, monkeypatch, cpus, processes):
        sizes, _ = self.install_inline_pool(monkeypatch, cpus)
        base, m = CircuitParams(), MismatchModel(seed=77)
        serial = run_population(base, m, 3, fast_setup(), workers=1)
        stats = run_population(base, m, 3, fast_setup(), workers=5000)
        assert sizes == ([] if processes is None else [processes])
        assert stats.records == serial.records
        assert stats.n_resampled == serial.n_resampled

    @pytest.mark.parametrize("n_dies, workers, chunksize",
                             [(2, 2, 1), (4, 2, 2), (5, 2, 3), (8, 2, 4), (7, 3, 3)])
    def test_every_process_gets_one_chunk(self, monkeypatch, n_dies, workers, chunksize):
        # a population of 4 dies in chunks of 4 ran on one worker of the pool
        _, chunks = self.install_inline_pool(monkeypatch, cpus=64)
        setup = RingdownSetup(t0=1e-3, width=1e-4, horizon=0.01, settle_window=2e-3,
                              integrator=IntegratorConfig(t_end=0.01))
        run_population(CircuitParams(), MismatchModel(seed=77), n_dies, setup, workers=workers)
        assert chunks == [chunksize]

    @staticmethod
    def install_inline_pool(monkeypatch, cpus):
        """A stand-in pool that records its size and chunk size and maps in-process,
        so no process starts."""
        sizes, chunks = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                chunks.append(chunksize)
                return map(fn, jobs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        return sizes, chunks

    def test_worker_pool_matches_sequential(self):
        base = CircuitParams()
        m = MismatchModel(seed=77)
        seq = run_population(base, m, 4, fast_setup(), workers=1)
        par = run_population(base, m, 4, fast_setup(), workers=2)
        assert seq.records == par.records
        assert seq.stats == par.stats
