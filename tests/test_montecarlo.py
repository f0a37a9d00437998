"""Mismatch sampling determinism, propagation, and population statistics."""

import dataclasses
import json
import math
import os
import threading
import time

import numpy as np
import pytest

from rfneuron import (
    CircuitParams, ConfigError, MismatchModel, analysis, derive_params, montecarlo, sample_die,
)
from rfneuron.analysis import MAX_LANES
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

    @pytest.mark.parametrize("n_dies, cpus, workers, lanes", [
        (2, 64, 5000, 2), (4, None, 5000, 1), (4, 1, 5000, 1), (4, 64, 2, 2),
        (8, 64, 5000, MAX_LANES), (8, 64, 1, 1), (8, 64, None, MAX_LANES)])
    def test_lane_count_is_capped(self, monkeypatch, n_dies, cpus, workers, lanes):
        # the calling thread is one lane, and every other lane is a thread it starts;
        # workers None leaves the keyword out, as `rfneuron montecarlo` does
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(analysis, "Thread", CountedThread)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cap = {} if workers is None else {"workers": workers}
        run_population(CircuitParams(), MismatchModel(seed=77), n_dies, fast_setup(), **cap)
        assert len(started) == lanes - 1
        assert not any(t.is_alive() for t in started)

    def test_results_do_not_depend_on_the_lane_count(self, on_cpus):
        base, m = CircuitParams(), MismatchModel(seed=77)
        runs = {(cpus, workers): on_cpus(cpus, lambda: run_population(
                    base, m, 5, fast_setup(), workers=workers))
                for cpus in (1, 4) for workers in (1, 2, 5000)}
        serial = runs[1, 1]
        assert serial.stats["f_res"]["n_defined"] == 5
        for stats in runs.values():
            assert repr(stats.records) == repr(serial.records)
            assert repr(stats.stats) == repr(serial.stats)
            assert stats.n_resampled == serial.n_resampled

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_failing_die_stops_the_dies_after_it(self, monkeypatch, on_cpus, cpus):
        sample, started = montecarlo._sample_die_counted, []

        def sample_or_fail(base, m, die_index):
            started.append(die_index)
            if die_index in (3, 4):
                raise ConfigError(f"die {die_index}: no valid draw")
            time.sleep(0.1)  # the lanes of dies 0-2 and 5 outlast the failure of die 3
            return sample(base, m, die_index)

        monkeypatch.setattr(montecarlo, "_sample_die_counted", sample_or_fail)
        with pytest.raises(ConfigError, match="die 3"):
            on_cpus(cpus, lambda: run_population(CircuitParams(), MismatchModel(seed=77), 8,
                                                 fast_setup(), workers=5000))
        assert set(range(4)) <= set(started) <= set(range(6))
        if cpus == 1:
            assert started == [0, 1, 2, 3]

    def test_worker_pool_matches_sequential(self):
        base = CircuitParams()
        m = MismatchModel(seed=77)
        seq = run_population(base, m, 4, fast_setup(), workers=1)
        par = run_population(base, m, 4, fast_setup(), workers=2)
        assert seq.records == par.records
        assert seq.stats == par.stats
