import dataclasses
import hashlib
import re

import pytest

from ppmkit.blocks import detect_blocks
from ppmkit.classify import classify_session
from ppmkit.eventlog import EventKind, ObjectType, parse_log, serialize_log
from ppmkit.replay import replay
from ppmkit.simulate import (
    EPOCH,
    PROFILES,
    SimulationProfile,
    SplitMix64,
    default_template,
    simulate,
    simulate_cohort,
)


class TestSplitMix64:
    def test_known_answer_vector(self):
        # reference outputs for seed 0, as produced by
        # java.util.SplittableRandom and the C reference implementation
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_draw_known_answers(self):
        # the draws every cohort is made of, pinned so a faster generator
        # must keep the stream: randint(-40, 40) rejects masked draws
        rng = SplitMix64(0)
        assert [rng.random() for _ in range(3)] == [
            0.8833108082136426, 0.43152799704850997, 0.026433771592597743]
        rng = SplitMix64(0)
        assert [rng.randint(-40, 40) for _ in range(6)] == [7, 39, -13, 20, 27, -2]
        rng = SplitMix64(0)
        assert [rng.randint(0, 1000) for _ in range(4)] == [431, 500, 335, 492]
        rng = SplitMix64(0)
        assert [rng.choice("abcdefg") for _ in range(6)] == list("eedcbe")
        items = list(range(10))
        SplitMix64(0).shuffle(items)
        assert items == [2, 0, 9, 5, 7, 8, 6, 3, 1, 4]

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_random_unit_interval(self):
        rng = SplitMix64(123)
        draws = [rng.random() for _ in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_randint_inclusive(self):
        rng = SplitMix64(7)
        draws = {rng.randint(3, 6) for _ in range(200)}
        assert draws == {3, 4, 5, 6}
        assert rng.randint(9, 9) == 9

    def test_randint_empty_range(self):
        with pytest.raises(ValueError, match=r"empty range \[5, 4\]"):
            SplitMix64(0).randint(5, 4)

    def test_choice(self):
        rng = SplitMix64(1)
        assert rng.choice(["only"]) == "only"
        with pytest.raises(ValueError, match="empty sequence"):
            rng.choice([])

    def test_shuffle_preserves_multiset_and_is_seeded(self):
        items = list(range(12)) + [3, 3]
        a, b = items[:], items[:]
        SplitMix64(99).shuffle(a)
        SplitMix64(99).shuffle(b)
        assert a == b
        assert sorted(a) == sorted(items)
        assert a != items  # vanishingly unlikely to be identity


class TestProfiles:
    def test_builtin_profiles(self):
        assert set(PROFILES) == {"structured", "chaotic", "slow", "fast"}
        assert PROFILES["chaotic"].p_defect == 0.7
        assert PROFILES["structured"].p_defect == 0.0
        assert PROFILES["slow"].mean_gap > PROFILES["fast"].mean_gap

    def test_validation(self):
        with pytest.raises(ValueError, match="block_interleave_prob"):
            SimulationProfile("x", 1.5, 0.2, 4.0)
        with pytest.raises(ValueError, match="p_defect must be in"):
            SimulationProfile("x", 0.0, 0.2, 4.0, p_defect=-0.1)
        with pytest.raises(ValueError, match="move_rate must be non-negative"):
            SimulationProfile("x", 0.0, -1.0, 4.0)
        with pytest.raises(ValueError, match="mean_gap must be positive"):
            SimulationProfile("x", 0.0, 0.2, 0.0)
        for value in (float("nan"), float("inf"), float("-inf")):
            for prob in ("block_interleave_prob", "p_defect"):
                with pytest.raises(ValueError, match=rf"{prob} must be in \[0, 1\], got {value}"):
                    dataclasses.replace(PROFILES["structured"], **{prob: value})
            with pytest.raises(ValueError,
                               match=f"move_rate must be non-negative and finite, got {value}"):
                SimulationProfile("x", 0.0, value, 4.0)
            with pytest.raises(ValueError,
                               match=f"mean_gap must be positive and finite, got {value}"):
                SimulationProfile("x", 0.0, 0.2, value)

    def test_mean_gap_past_the_clock_range_is_refused(self):
        # 1e10 s a gap runs the clock past year 9999; 1e300 overflows timedelta
        for gap in (1e10, 1e300):
            profile = dataclasses.replace(PROFILES["structured"], mean_gap=gap)
            refusal = f"mean_gap must keep a session's clock within datetime's range, got {gap}"
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                simulate(profile)
        assert simulate(dataclasses.replace(PROFILES["structured"], mean_gap=1e9)).events


def test_default_template_shape():
    template = default_template()
    assert len(template.nodes) == 16
    assert len(template.edges) == 18
    labels = {n.label for n in template.nodes.values() if n.label}
    assert "crew briefing" in labels and "request clearance" in labels


def test_structured_session_rebuilds_template_exactly():
    log = simulate(PROFILES["structured"])
    assert replay(log) == default_template()


def test_defective_session_leaves_the_template_alone():
    # every session edits its own copy of the one template a process builds
    defective = dataclasses.replace(PROFILES["chaotic"], p_defect=1.0, seed=5)
    assert replay(simulate(defective)) != default_template()
    template = default_template()
    assert template.nodes["and2s"].type is ObjectType.AND
    assert template.nodes["and2j"].type is ObjectType.AND
    log = simulate(PROFILES["structured"])
    assert replay(log) == template
    # detect_blocks refuses a model whose graph is not the log's, so this
    # also sees a copy that shares its graph with the template
    assert len(detect_blocks(template, log)) == 3


def test_structured_sessions_are_perspicuous():
    for seed in (0, 1, 2):
        profile = dataclasses.replace(PROFILES["structured"], seed=seed)
        report = classify_session(simulate(profile))
        assert report.verdict.perspicuous is True


def test_defect_always_breaks_the_model():
    profile = dataclasses.replace(PROFILES["chaotic"], p_defect=1.0, seed=5)
    report = classify_session(simulate(profile))
    assert report.verdict.perspicuous is False
    assert report.verdict.stage == "Unsound"


def test_session_ids_default_to_profile_and_seed():
    profile = dataclasses.replace(PROFILES["structured"], seed=42)
    assert simulate(profile).session_id == "structured_42"
    assert simulate(profile, session_id="named").session_id == "named"


def test_byte_determinism():
    profile = dataclasses.replace(PROFILES["structured"], seed=42)
    assert serialize_log(simulate(profile)) == serialize_log(simulate(profile))
    chaotic = dataclasses.replace(PROFILES["chaotic"], seed=42)
    assert serialize_log(simulate(chaotic)) == serialize_log(simulate(chaotic))


def test_different_seeds_differ():
    a = simulate(dataclasses.replace(PROFILES["chaotic"], seed=1))
    b = simulate(dataclasses.replace(PROFILES["chaotic"], seed=2))
    assert serialize_log(a) != serialize_log(b)


def test_sessions_start_at_epoch():
    log = simulate(PROFILES["structured"])
    assert log.events[0].timestamp == EPOCH
    assert log.events[0].seq == 1


def test_simulated_logs_round_trip():
    for name in ("structured", "chaotic"):
        profile = dataclasses.replace(PROFILES[name], seed=3)
        log = simulate(profile)
        assert parse_log(serialize_log(log), session_id=log.session_id) == log


def test_chaotic_sessions_churn_throwaway_tasks():
    profile = dataclasses.replace(PROFILES["chaotic"],
                                  block_interleave_prob=1.0, p_defect=0.0,
                                  seed=11)
    log = simulate(profile)
    deletes = [ev for ev in log.events if ev.kind is EventKind.DELETE_ACTIVITY]
    assert deletes, "interleaved sessions discard draft tasks"
    assert any(ev.kind is EventKind.CREATE_EDGE_BENDPOINT for ev in log.events)


def test_slow_profile_takes_longer_than_fast():
    from ppmkit.metrics import tot_time

    slow = simulate(dataclasses.replace(PROFILES["slow"], seed=4))
    fast = simulate(dataclasses.replace(PROFILES["fast"], seed=4))
    assert tot_time(slow) > tot_time(fast)


class TestCohort:
    def test_ids_and_count(self):
        logs = simulate_cohort(PROFILES["structured"], sessions=3, seed=9)
        assert [log.session_id for log in logs] == [
            "structured_9_000", "structured_9_001", "structured_9_002",
        ]

    def test_deterministic(self):
        a = simulate_cohort(PROFILES["chaotic"], sessions=4, seed=7)
        b = simulate_cohort(PROFILES["chaotic"], sessions=4, seed=7)
        assert [serialize_log(x) for x in a] == [serialize_log(x) for x in b]

    def test_sessions_vary_within_cohort(self):
        logs = simulate_cohort(PROFILES["chaotic"], sessions=3, seed=7)
        texts = {serialize_log(x) for x in logs}
        assert len(texts) == 3

    # sha256 of the serialized logs of simulate_cohort(PROFILES[name], 3, seed)
    @pytest.mark.parametrize("name, seed, digest", [
        ("structured", 0, "5d7fd513a4edf51de0df95aba3d9b88b57870e2792d3537fccb1ceab699b6bb5"),
        ("structured", 7, "1a2a2b7a2a5bacbe3ff6ee6b983d3fa8e6c2e7b5fd991eb8e926dfc0349bb837"),
        ("chaotic", 0, "6b66da0289fb35fb3ef0daa337778deab21a66d2c3005c31e2e7a5dd9f6db55c"),
        ("chaotic", 7, "78910b63680dad26a49f00b713543bf852bc2dca29bcdef89f526e9dcbce5472"),
        ("slow", 0, "27c10ec5468b160cc23db037a0a0c376b0af6ecb0775d615778f9e78f0e31a3e"),
        ("slow", 7, "83f7339b9f47b326f1e35bc532f27ebc5fc0f1b26c45a20dc381e3247176788d"),
        ("fast", 0, "7a168c3d3bbf65991e318a6a12c0826f49512352331dfc84907463f478f7fa22"),
        ("fast", 7, "1f6f787baae82c56e088e79b1bb5ac0843646ff4d72baae2579d443f5032abfd"),
    ])
    def test_cohort_bytes_pinned(self, name, seed, digest):
        logs = simulate_cohort(PROFILES[name], 3, seed)
        text = "".join(serialize_log(log) for log in logs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_positive_count_required(self):
        with pytest.raises(ValueError, match="sessions must be positive"):
            simulate_cohort(PROFILES["structured"], sessions=0, seed=1)
