"""Validated env-knob parsing (REPRO_SAMPLES / REPRO_M / the dbf kernel knob)."""

import pytest

from repro.util.env import (
    DBF_KERNELS,
    OBS_MODES,
    RUNNER_BACKENDS,
    RUNNER_STORES,
    demand_kernel_from_env,
    heartbeat_interval_from_env,
    journal_flush_interval_from_env,
    journal_path_from_env,
    lease_timeout_from_env,
    m_values_from_env,
    straggler_factor_from_env,
    obs_mode_from_env,
    positive_float_env,
    positive_int_env,
    runner_backend_from_env,
    runner_store_from_env,
    samples_from_env,
)


class TestPositiveIntEnv:
    def test_fallback_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLES", raising=False)
        assert positive_int_env("REPRO_SAMPLES", 42) == 42

    def test_parses_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "1000")
        assert samples_from_env() == 1000

    @pytest.mark.parametrize("bad", ["0", "-3", "ten", "3.5"])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SAMPLES", bad)
        with pytest.raises(ValueError, match="REPRO_SAMPLES"):
            samples_from_env()


class TestDemandKernelKnob:
    def test_default_is_qpa(self, monkeypatch):
        monkeypatch.delenv("REPRO_DBF_KERNEL", raising=False)
        assert demand_kernel_from_env() == "qpa"
        assert demand_kernel_from_env(fallback="forward") == "forward"

    @pytest.mark.parametrize("name", DBF_KERNELS)
    def test_parses_every_kernel(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_DBF_KERNEL", name)
        assert demand_kernel_from_env() == name

    @pytest.mark.parametrize(
        "bad", ["qpa2", "VEC", "vec", "fast", " qpa", "Block", "forward,qpa"]
    )
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_DBF_KERNEL", bad)
        with pytest.raises(
            ValueError, match="REPRO_DBF_KERNEL must be one of forward\\|qpa\\|block"
        ):
            demand_kernel_from_env()

    def test_kernel_module_reads_knob(self):
        from repro.analysis import dbf

        assert dbf._KERNEL in DBF_KERNELS


class TestObsMode:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert obs_mode_from_env() == "off"

    @pytest.mark.parametrize("mode", OBS_MODES)
    def test_parses_every_mode(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_OBS", mode)
        assert obs_mode_from_env() == mode

    @pytest.mark.parametrize("bad", ["on", "TRACE", "metrics,trace", "1"])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_OBS", bad)
        with pytest.raises(ValueError, match="REPRO_OBS"):
            obs_mode_from_env()


class TestRunnerBackendKnob:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_BACKEND", raising=False)
        assert runner_backend_from_env() == ""

    @pytest.mark.parametrize("name", RUNNER_BACKENDS)
    def test_parses_every_backend(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", name)
        assert runner_backend_from_env() == name

    @pytest.mark.parametrize("bad", ["threads", "POOL", "serial,pool", "1"])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", bad)
        with pytest.raises(ValueError, match="REPRO_RUNNER_BACKEND"):
            runner_backend_from_env()

    def test_retired_pool_backend_names_the_valid_ones(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", "pool")
        with pytest.raises(ValueError, match=r"serial\|cluster, got 'pool'"):
            runner_backend_from_env()


class TestRunnerStoreKnob:
    def test_default_is_fs(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_STORE", raising=False)
        assert runner_store_from_env() == "fs"

    @pytest.mark.parametrize("name", RUNNER_STORES)
    def test_parses_every_store(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_RUNNER_STORE", name)
        assert runner_store_from_env() == name

    @pytest.mark.parametrize("bad", ["s3", "FS", "fs,object"])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_RUNNER_STORE", bad)
        with pytest.raises(ValueError, match="REPRO_RUNNER_STORE"):
            runner_store_from_env()


class TestClusterTimingKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_HEARTBEAT", raising=False)
        monkeypatch.delenv("REPRO_RUNNER_LEASE", raising=False)
        assert heartbeat_interval_from_env() == 2.0
        # unset: no lease, so a slow shard on a live worker is never killed
        assert lease_timeout_from_env() is None

    def test_parses_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_HEARTBEAT", "0.5")
        monkeypatch.setenv("REPRO_RUNNER_LEASE", "30")
        assert heartbeat_interval_from_env() == 0.5
        assert lease_timeout_from_env() == 30.0

    @pytest.mark.parametrize("knob,reader", [
        ("REPRO_RUNNER_HEARTBEAT", heartbeat_interval_from_env),
        ("REPRO_RUNNER_LEASE", lease_timeout_from_env),
    ])
    @pytest.mark.parametrize("bad", ["0", "-1.5", "soon"])
    def test_rejects_invalid(self, monkeypatch, knob, reader, bad):
        monkeypatch.setenv(knob, bad)
        with pytest.raises(ValueError, match=knob):
            reader()


class TestJournalKnobs:
    def test_journal_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_JOURNAL", raising=False)
        assert journal_path_from_env() == ""
        assert journal_path_from_env("fallback.jsonl") == "fallback.jsonl"

    def test_journal_path_parses(self, monkeypatch, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        monkeypatch.setenv("REPRO_OBS_JOURNAL", path)
        assert journal_path_from_env() == path

    @pytest.mark.parametrize("bad", [" padded.jsonl", "trailing.jsonl ", "  "])
    def test_journal_rejects_malformed_paths(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_OBS_JOURNAL", bad)
        with pytest.raises(ValueError, match="REPRO_OBS_JOURNAL"):
            journal_path_from_env()

    def test_journal_rejects_directories(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(tmp_path))
        with pytest.raises(ValueError, match="REPRO_OBS_JOURNAL"):
            journal_path_from_env()

    def test_flush_interval_default_and_parse(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_JOURNAL_FLUSH", raising=False)
        assert journal_flush_interval_from_env() == 2.0
        monkeypatch.setenv("REPRO_OBS_JOURNAL_FLUSH", "0.25")
        assert journal_flush_interval_from_env() == 0.25

    @pytest.mark.parametrize("bad", ["0", "-2", "often"])
    def test_flush_interval_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_OBS_JOURNAL_FLUSH", bad)
        with pytest.raises(ValueError, match="REPRO_OBS_JOURNAL_FLUSH"):
            journal_flush_interval_from_env()

    def test_straggler_factor_default_and_parse(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_STRAGGLER", raising=False)
        assert straggler_factor_from_env() == 4.0
        monkeypatch.setenv("REPRO_OBS_STRAGGLER", "2.5")
        assert straggler_factor_from_env() == 2.5
        monkeypatch.setenv("REPRO_OBS_STRAGGLER", "1")
        assert straggler_factor_from_env() == 1.0

    @pytest.mark.parametrize("bad", ["0", "-4", "0.5", "0.999", "lots"])
    def test_straggler_factor_rejects_invalid(self, monkeypatch, bad):
        """Below 1 would flag faster-than-typical units — always a typo."""
        monkeypatch.setenv("REPRO_OBS_STRAGGLER", bad)
        with pytest.raises(ValueError, match="REPRO_OBS_STRAGGLER"):
            straggler_factor_from_env()


class TestPositiveFloatEnv:
    def test_fallback_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_LEASE", raising=False)
        assert positive_float_env("REPRO_RUNNER_LEASE", 1.25) == 1.25

    def test_accepts_scientific_notation(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_LEASE", "1e2")
        assert positive_float_env("REPRO_RUNNER_LEASE", 1.0) == 100.0


class TestMValues:
    def test_fallback_is_paper_sweep(self, monkeypatch):
        monkeypatch.delenv("REPRO_M", raising=False)
        assert m_values_from_env() == (2, 4, 8)

    def test_parses_csv_with_spaces(self, monkeypatch):
        monkeypatch.setenv("REPRO_M", "2, 4")
        assert m_values_from_env() == (2, 4)

    @pytest.mark.parametrize("bad", ["0", "2,-4", "two", ","])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_M", bad)
        with pytest.raises(ValueError, match="REPRO_M"):
            m_values_from_env()


class TestRetiredKnobs:
    def test_verdict_cache_knobs_are_gone(self):
        """The verdict cache and its three knobs were removed together."""
        from repro.util import env

        assert not [n for n in env.__all__ if "verdict" in n]
        assert not [n for n in vars(env) if "verdict" in n]
        assert "REPRO_VERDICT_CACHE" not in (env.__doc__ or "")
