"""Unit tests for the fair MC task-set generator."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.generator import GeneratorConfig, MCTaskSetGenerator
from repro.model import validate_taskset

#: recorded CLI outputs (see TestRecordedOutput)
DATA = Path(__file__).parent / "data"


def rng(seed=0):
    return np.random.default_rng(seed)


class TestGeneratorConfig:
    def test_paper_defaults(self):
        cfg = GeneratorConfig(m=4)
        assert cfg.u_min == 0.001
        assert cfg.u_max == 0.99
        assert cfg.p_high == 0.5
        assert cfg.task_count_range == (5, 20)
        assert cfg.t_min == 10 and cfg.t_max == 500

    def test_custom_count_range(self):
        cfg = GeneratorConfig(m=2, n_min=3, n_max=6)
        assert cfg.task_count_range == (3, 6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"m": 2, "u_min": 0.0},
            {"m": 2, "u_min": 0.5, "u_max": 0.4},
            {"m": 2, "p_high": 0.0},
            {"m": 2, "p_high": 1.0},
            {"m": 2, "deadline_type": "arbitrary"},
            {"m": 2, "t_min": 0},
            {"m": 2, "t_min": -10},
            {"m": 2, "t_min": 600, "t_max": 500},
            {"m": 2, "n_min": 1},
            {"m": 2, "max_attempts": 0},
            {"m": 2, "max_attempts": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)

    def test_bad_count_range_rejected(self):
        with pytest.raises(ValueError, match="task count range"):
            GeneratorConfig(m=2, n_min=10, n_max=5)


class TestGeneration:
    def test_valid_model_output(self):
        gen = MCTaskSetGenerator(m=4)
        ts = gen.generate(rng(), 0.6, 0.3, 0.3)
        assert ts is not None
        validate_taskset(ts, require_dual_criticality=True)

    def test_task_count_in_paper_range(self):
        gen = MCTaskSetGenerator(m=4)
        for seed in range(10):
            ts = gen.generate(rng(seed), 0.5, 0.25, 0.3)
            assert ts is not None
            assert 5 <= len(ts) <= 20

    def test_ph_half_splits_tasks(self):
        gen = MCTaskSetGenerator(m=4, p_high=0.5)
        ts = gen.generate(rng(1), 0.5, 0.25, 0.3)
        assert ts is not None
        assert abs(len(ts.high_tasks) - len(ts.low_tasks)) <= 1

    def test_extreme_ph_still_dual_criticality(self):
        gen = MCTaskSetGenerator(m=2, p_high=0.9)
        ts = gen.generate(rng(2), 0.5, 0.25, 0.2)
        assert ts is not None
        assert len(ts.low_tasks) >= 1
        assert len(ts.high_tasks) >= 1

    def test_targets_hit_up_to_ceil_slack(self):
        """Realized utilizations overshoot targets only by the ceil() bias.

        Each task overshoots by < 1/T_min utilization, so the sum is within
        n/t_min of the target from above (and never below).
        """
        gen = MCTaskSetGenerator(m=4)
        for seed in range(8):
            ts = gen.generate(rng(seed + 100), 0.6, 0.3, 0.35)
            assert ts is not None
            util = ts.utilization.normalized(4)
            slack = len(ts) / 10 / 4  # n/t_min normalized by m
            for realized, target in (
                (util.u_hh, 0.6),
                (util.u_lh, 0.3),
                (util.u_ll, 0.35),
            ):
                assert realized >= target - 1e-9
                assert realized <= target + slack + 1e-9

    def test_hc_lo_below_hi_per_task(self):
        gen = MCTaskSetGenerator(m=4)
        ts = gen.generate(rng(3), 0.7, 0.65, 0.2)
        assert ts is not None
        for task in ts.high_tasks:
            assert task.wcet_lo <= task.wcet_hi

    def test_deadline_types(self):
        implicit = MCTaskSetGenerator(m=2).generate(rng(4), 0.5, 0.2, 0.3)
        assert implicit is not None and implicit.is_implicit_deadline
        constrained_gen = MCTaskSetGenerator(m=2, deadline_type="constrained")
        constrained = constrained_gen.generate(rng(4), 0.5, 0.2, 0.3)
        assert constrained is not None
        assert constrained.is_constrained_deadline
        assert any(t.deadline < t.period for t in constrained)

    def test_deterministic_given_seed(self):
        gen = MCTaskSetGenerator(m=2)
        a = gen.generate(rng(42), 0.5, 0.25, 0.3)
        b = MCTaskSetGenerator(m=2).generate(rng(42), 0.5, 0.25, 0.3)
        assert a is not None and b is not None
        assert a.to_dicts() == [
            {**d, "name": a[i].name} for i, d in enumerate(b.to_dicts())
        ] or [t.period for t in a] == [t.period for t in b]

    def test_infeasible_targets_return_none(self):
        # U_HH * m = 9.9 over at most 10 tasks with u_max 0.99 needs every
        # task at the cap -- the generator gives up.
        gen = MCTaskSetGenerator(m=10, n_min=4, n_max=10, max_attempts=8)
        assert gen.generate(rng(5), 0.99, 0.5, 0.3) is None

    def test_invalid_target_order_rejected(self):
        gen = MCTaskSetGenerator(m=2)
        with pytest.raises(ValueError, match="U_LH"):
            gen.generate(rng(), 0.3, 0.5, 0.2)

    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_targets_rejected_before_any_draw(self, slot, bad):
        targets = [0.5, 0.3, 0.3]
        targets[slot] = bad
        gen = MCTaskSetGenerator(m=2)
        generator = rng()
        state = generator.bit_generator.state
        for entry in (gen.generate, gen.generate_columns, gen.draw):
            with pytest.raises(ValueError):
                entry(generator, *targets)
        with pytest.raises(ValueError):
            gen.generate_batch([generator], *targets)
        assert generator.bit_generator.state == state
        assert gen.stats["retries"] == 0

    def test_stats_tracked(self):
        gen = MCTaskSetGenerator(m=2)
        gen.generate(rng(7), 0.5, 0.25, 0.3)
        assert gen.stats["generated"] == 1

    def test_config_kwargs_constructor(self):
        gen = MCTaskSetGenerator(m=3, p_high=0.7)
        assert gen.config.m == 3
        assert gen.config.p_high == 0.7
        with pytest.raises(TypeError):
            MCTaskSetGenerator(GeneratorConfig(m=2), m=3)


GENERATE_ARGS = [
    "generate", "--m", "4", "--uhh", "0.5", "--ulh", "0.25",
    "--ull", "0.3", "--deadline", "constrained",
    "--degradation-factor", "0.5", "--seed", "3",
]


class TestRecordedOutput:
    def test_constrained_degraded_cli_output(self, tmp_path):
        """The constrained-deadline, degraded-budget realization equals the
        recorded one-set-at-a-time output of the same command, task names
        included (CI also ``cmp``s the file byte for byte)."""
        out = tmp_path / "ts.json"
        assert main([*GENERATE_ARGS, "-o", str(out)]) == 0
        recorded = (DATA / "generate-m4-constrained-deg0.5-seed3.json").read_text()
        assert out.read_text() == recorded
        got = json.loads(recorded)
        assert any(row["deadline"] < row["period"] for row in got)
        assert all("wcet_degraded" in row for row in got if row["criticality"] == "LC")

    def test_repeated_in_one_process(self, tmp_path):
        """Tasks are numbered from 1 per output, not from the process-wide
        task counter: the same command twice gives the same bytes."""
        outputs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outputs:
            assert main([*GENERATE_ARGS, "-o", str(out)]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        names = [row["name"] for row in json.loads(outputs[0].read_text())]
        assert [int(name[2:]) for name in names] == list(range(1, len(names) + 1))
