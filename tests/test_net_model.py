import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import net_model
from edgesim.errors import ConfigurationError, TimeRegressionError
from edgesim.net_model import (
    EmaWeights,
    Nlm,
    StableParams,
    sample_stable,
    sample_stable_many,
    substreams,
)
from edgesim.profiler_health import CRITICAL, PASS, WARNING, classify

from reference_engine import EmaState, composite_score, ema_update, generator_at, stream_of

NO_FLOOR = -math.inf


def link_generator(seed, a, b):
    """A ``Generator`` on the stream a matrix seeded with ``seed`` gives the
    link between ``a`` and ``b``."""
    return generator_at(substreams(seed, [f"link:{min(a, b)}:{max(a, b)}"])[0])


def ema_of(nlm, a, b):
    """The link's EMA columns, as the reference's ``EmaState``."""
    i = nlm._index(a, b)
    return EmaState(*(column[i] for column in nlm._emas), nlm._last_update[i], bool(nlm._initialized[i]))


def row(nlm, a, b):
    """The link's ``Nlm.snapshot()`` row, for either order of its endpoints."""
    return nlm.snapshot()[f"{min(a, b)}|{max(a, b)}"]


def one_link(weights=None, budget_ms=net_model.DEFAULT_LINK_BUDGET_MS):
    nlm = Nlm(weights, budget_ms=budget_ms, seed=0)
    nlm.add_link("edge-a", "edge-b", StableParams(alpha=2.0))
    return nlm


class TestStableParams:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.1])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ConfigurationError):
            StableParams(alpha=alpha).validate()

    @pytest.mark.parametrize("beta", [-1.5, 1.5])
    def test_bad_beta(self, beta):
        with pytest.raises(ConfigurationError):
            StableParams(alpha=1.5, beta=beta).validate()

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            StableParams(alpha=1.5, scale=0.0).validate()

    def test_valid(self):
        StableParams(alpha=1.6878, beta=0.0, scale=0.0980, location=13.405).validate()


class TestSampler:
    def test_gaussian_reduction(self, rng):
        # alpha=2 collapses to Normal(location, 2 scale^2)
        params = StableParams(alpha=2.0, beta=0.0, scale=1.25, location=3.0)
        draws = sample_stable_many(params, rng, 200_000, floor_ms=NO_FLOOR)
        assert abs(draws.mean() - 3.0) < 0.02
        assert abs(draws.var() / (2 * 1.25**2) - 1.0) < 0.03

    def test_cauchy_reduction(self, rng):
        params = StableParams(alpha=1.0, beta=0.0, scale=1.0, location=0.0)
        draws = sample_stable_many(params, rng, 1_000_000, floor_ms=NO_FLOOR)
        assert abs(np.median(draws)) < 0.01

    def test_floor_clamp(self, rng):
        params = StableParams(alpha=1.5, beta=0.0, scale=5.0, location=0.0)
        draws = sample_stable_many(params, rng, 10_000)
        assert draws.min() >= 0.1
        assert (draws == 0.1).any()

    def test_bit_reproducible(self):
        params = StableParams(alpha=1.6878, beta=0.0, scale=0.098, location=13.405)
        a = sample_stable_many(params, np.random.default_rng(7), 4096)
        b = sample_stable_many(params, np.random.default_rng(7), 4096)
        assert np.array_equal(a, b)

    def test_scalar_matches_vector_stream(self):
        params = StableParams(alpha=1.6878, beta=0.0, scale=0.098, location=13.405)
        vec = sample_stable_many(params, np.random.default_rng(11), 64)
        gen = np.random.default_rng(11)
        scalars = np.array([sample_stable(params, gen) for _ in range(64)])
        assert np.array_equal(vec, scalars)

    def test_skewed_branch_runs(self, rng):
        params = StableParams(alpha=1.5, beta=0.7, scale=1.0, location=0.0)
        draws = sample_stable_many(params, rng, 1000, floor_ms=NO_FLOOR)
        assert np.isfinite(draws).all()

    def test_invalid_params_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            sample_stable(StableParams(alpha=3.0), rng)


#: One parameter set per branch of the Chambers-Mallows-Stuck transform.
CMS_BRANCHES = {
    "gaussian": StableParams(alpha=2.0, beta=0.0, scale=1.25, location=3.0),
    "cauchy": StableParams(alpha=1.0, beta=0.0, scale=0.5, location=1.0),
    "alpha-one-skewed": StableParams(alpha=1.0, beta=0.6, scale=2.0, location=1.0),
    "symmetric": StableParams(alpha=1.6878, beta=0.0, scale=0.098, location=13.405),
    "skewed": StableParams(alpha=1.5, beta=0.7, scale=1.0, location=0.0),
}


class TestLinkBuffer:
    @pytest.mark.parametrize("branch", sorted(CMS_BRANCHES))
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 63, 64, 65, 200])
    def test_buffered_draws_equal_scalar_draws(self, branch, k):
        params = CMS_BRANCHES[branch]
        nlm = Nlm(floor_ms=NO_FLOOR, seed=11)
        nlm.add_link("edge-a", "cam-1", params)
        buffered = np.array([nlm.sample_and_observe("edge-a", "cam-1", 0.0) for _ in range(k)])
        gen = link_generator(11, "edge-a", "cam-1")
        scalars = np.array([sample_stable(params, gen, floor_ms=NO_FLOOR) for _ in range(k)])
        assert np.array_equal(buffered, scalars)

    # after one leg the cursor is mid-row; after 64 the failed leg refills
    @pytest.mark.parametrize("before", [1, 64])
    def test_failed_leg_consumes_no_draw(self, before):
        params = StableParams(alpha=2.0)
        nlm = Nlm(seed=0)
        nlm.add_link("edge-a", "cam-1", params)
        gen = link_generator(0, "edge-a", "cam-1")
        stream = [sample_stable(params, gen) for _ in range(before + 1)]
        assert [nlm.sample_and_observe("edge-a", "cam-1", 5.0) for _ in range(before)] == stream[:before]
        with pytest.raises(TimeRegressionError):
            nlm.sample_and_observe("edge-a", "cam-1", 4.0)
        assert row(nlm, "edge-a", "cam-1")["latest_ms"] == stream[before - 1]
        assert nlm.sample_and_observe("edge-a", "cam-1", 6.0) == stream[before]


class TestSharedBits:
    """A matrix draws every row on its one bit generator, set to the
    link's stream before each draw; the link stores its stream advanced
    past the row."""

    PARAMS = CMS_BRANCHES["symmetric"]

    def _matrix(self, seed, cams):
        nlm = Nlm(floor_ms=NO_FLOOR, seed=seed)
        for k in cams:
            nlm.add_link("edge-a", f"cam-{k}", self.PARAMS)
        return nlm

    @staticmethod
    def _draws(nlm, cams, step):
        return [nlm.sample_and_observe("edge-a", f"cam-{k}", float(step)) for k in cams]

    def test_matrices_refilling_in_turn_draw_as_each_alone(self):
        matrices = [(1, (1, 2)), (3, (1,))]  # (seed, cams)
        steps = range(9)  # a row of 2 is refilled 5 times per link
        with mock.patch.object(net_model, "_BLOCK_CAP", 2):
            alone = []
            for seed, cams in matrices:
                nlm = self._matrix(seed, cams)
                alone.append([self._draws(nlm, cams, t) for t in steps])
            built = [self._matrix(seed, cams) for seed, cams in matrices]
            in_turn = [[] for _ in matrices]
            for t in steps:
                for draws, nlm, (_, cams) in zip(in_turn, built, matrices):
                    draws.append(self._draws(nlm, cams, t))
        assert in_turn == alone
        assert alone[0][0][0] != alone[1][0][0]  # edge-a<->cam-1 under two seeds

    @pytest.mark.parametrize("cap", [1, 2, 64])
    @pytest.mark.parametrize("refills", [1, 2, 5])
    def test_stored_stream_is_advanced_past_every_drawn_row(self, cap, refills):
        with mock.patch.object(net_model, "_BLOCK_CAP", cap):
            nlm = self._matrix(4, [4])
            for t in range(refills * cap):
                self._draws(nlm, [4], t)
        expected = link_generator(4, "edge-a", "cam-4")
        expected.random(2 * refills * cap)
        assert net_model._stream_at(nlm._streams, 0) == stream_of(expected)


class TestEmaUpdate:
    """``Nlm.observe`` folds a sample into the link's EMA columns."""

    @staticmethod
    def _observed(*samples):
        nlm = one_link()
        for sample_ms, now_s in samples:
            nlm.observe("edge-a", "edge-b", sample_ms, now_s)
        return ema_of(nlm, "edge-a", "edge-b")

    def test_initialization(self):
        state = self._observed((10.0, 5.0))
        assert state.initialized
        assert state.ema_1m == state.ema_5m == state.ema_15m == 10.0
        assert state.last_update == 5.0

    def test_fixed_point(self):
        state = self._observed((10.0, 0.0), (10.0, 123.0))
        assert state.ema_1m == pytest.approx(10.0, abs=1e-12)

    def test_decay_hand_value(self):
        # one horizon worth of elapsed time decays the gap by e^-1
        state = self._observed((10.0, 0.0), (20.0, 60.0))
        assert state.ema_1m == pytest.approx(20.0 - 10.0 * math.exp(-1.0), abs=1e-12)
        assert state.ema_1m == pytest.approx(16.321, abs=1e-3)
        assert state.ema_5m == pytest.approx(20.0 - 10.0 * math.exp(-60.0 / 300.0), abs=1e-12)
        assert state.ema_15m == pytest.approx(20.0 - 10.0 * math.exp(-60.0 / 900.0), abs=1e-12)

    def test_time_regression_rejected(self):
        nlm = one_link()
        nlm.observe("edge-a", "edge-b", 10.0, 5.0)
        with pytest.raises(TimeRegressionError):
            nlm.observe("edge-a", "edge-b", 11.0, 4.0)

    @given(
        ema0=st.floats(0.0, 1e4),
        sample=st.floats(0.0, 1e4),
        dt=st.floats(0.0, 3600.0),
    )
    @settings(max_examples=200)
    def test_tick_granularity_independence(self, ema0, sample, dt):
        # one step of dt equals two chained steps of dt/2 with equal samples
        one = self._observed((ema0, 0.0), (sample, dt))
        half = self._observed((ema0, 0.0), (sample, dt / 2.0), (sample, dt))
        assert one.ema_1m == pytest.approx(half.ema_1m, abs=1e-9)
        assert one.ema_5m == pytest.approx(half.ema_5m, abs=1e-9)
        assert one.ema_15m == pytest.approx(half.ema_15m, abs=1e-9)


class TestCompositeScore:
    """``Nlm.score`` weighs the link's EMA columns."""

    @staticmethod
    def _score(emas, weights=None):
        nlm = one_link(weights)
        nlm.observe("edge-a", "edge-b", 0.0, 0.0)
        for column, value in zip(nlm._emas, emas):
            column[0] = value
        return nlm.score("edge-a", "edge-b")

    def test_constant_vector(self):
        assert self._score((12.0, 12.0, 12.0)) == pytest.approx(12.0)

    def test_direct_arithmetic(self):
        assert self._score((10.0, 20.0, 30.0), EmaWeights(0.2, 0.3, 0.5)) == pytest.approx(23.0)

    def test_not_ready(self):
        # before any sample a link has no score: it ranks last, reports none
        nlm = one_link()
        assert nlm.score("edge-a", "edge-b") == math.inf
        assert row(nlm, "edge-a", "edge-b")["score_ms"] is None

    @given(
        a=st.tuples(st.floats(0, 1e4), st.floats(0, 1e4), st.floats(0, 1e4)),
        delta=st.tuples(st.floats(0, 1e3), st.floats(0, 1e3), st.floats(0, 1e3)),
    )
    @settings(max_examples=200)
    def test_componentwise_dominance(self, a, delta):
        hi = tuple(x + d for x, d in zip(a, delta))
        assert self._score(a) <= self._score(hi) + 1e-9


class TestEmaWeights:
    def test_defaults_valid(self):
        EmaWeights().validate()

    def test_decreasing_rejected(self):
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            EmaWeights(0.5, 0.3, 0.2).validate()

    def test_sum_must_be_one(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            EmaWeights(0.2, 0.3, 0.4).validate()


class TestClassifyLink:
    """A link's status is its score classified against the matrix's budget."""

    @staticmethod
    def _status_at(score_ms, budget_ms):
        nlm = one_link(budget_ms=budget_ms)
        nlm.observe("edge-a", "edge-b", score_ms, 0.0)
        return row(nlm, "edge-a", "edge-b")["status"]

    def test_boundaries_are_warning(self):
        assert self._status_at(75.0, 100.0) == WARNING
        assert self._status_at(90.0, 100.0) == WARNING

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError, match="budget must be > 0"):
            self._status_at(10.0, 0.0)


class TestNlm:
    def _nlm(self):
        nlm = Nlm(seed=0)
        nlm.add_link("edge-a", "edge-b", StableParams(alpha=2.0, scale=0.01, location=10.0))
        return nlm

    def test_symmetric_coverage(self):
        nlm = self._nlm()
        assert nlm._index("edge-a", "edge-b") == nlm._index("edge-b", "edge-a")

    def test_observe_updates_both_directions(self):
        nlm = self._nlm()
        nlm.observe("edge-a", "edge-b", 15.0, 1.0)
        assert nlm.score("edge-b", "edge-a") == pytest.approx(15.0)
        assert row(nlm, "edge-b", "edge-a")["latest_ms"] == 15.0

    def test_status_consistent_with_classifier(self):
        nlm = self._nlm()
        nlm.observe("edge-a", "edge-b", 10.0, 0.0)
        assert row(nlm, "edge-a", "edge-b")["status"] == classify(nlm.score("edge-a", "edge-b"), 50.0)
        # a persistent shift (many horizons elapsed) converges all EMAs
        nlm.observe("edge-a", "edge-b", 500.0, 100_000.0)
        assert nlm.score("edge-a", "edge-b") == pytest.approx(500.0)
        assert row(nlm, "edge-a", "edge-b")["status"] == CRITICAL
        assert row(nlm, "edge-a", "edge-b")["status"] == classify(nlm.score("edge-a", "edge-b"), 50.0)

    def test_uninitialized_score_is_inf(self):
        nlm = self._nlm()
        assert math.isinf(nlm.score("edge-a", "edge-b"))

    def test_never_observed_link_is_pass(self):
        nlm = self._nlm()
        assert nlm.snapshot()["edge-a|edge-b"] == {
            "score_ms": None,
            "latest_ms": None,
            "status": PASS,
            "budget_ms": 50.0,
        }

    def test_snapshot_status_classifies_the_score_against_the_budget(self):
        nlm = one_link(budget_ms=20.0)
        nlm.observe("edge-a", "edge-b", 16.0, 0.0)  # 80% of the budget
        entry = nlm.snapshot()["edge-a|edge-b"]
        assert (entry["score_ms"], entry["status"], entry["budget_ms"]) == (16.0, "warning", 20.0)

    def test_link_score_ranks_missing_and_unsampled_links_last(self):
        # the engine links every pair it ranks, so a missing link is a
        # configuration error, not a link that ranks last
        nlm = self._nlm()
        with pytest.raises(ConfigurationError, match="no link registered between 'edge-a' and 'nope'"):
            nlm.score("edge-a", "nope")
        assert nlm.score("edge-a", "edge-b") == math.inf
        nlm.observe("edge-a", "edge-b", 12.0, 0.0)
        assert nlm.score("edge-b", "edge-a") == pytest.approx(12.0)

    def test_self_link_rejected(self):
        nlm = Nlm(seed=0)
        with pytest.raises(ConfigurationError):
            nlm.add_link("edge-a", "edge-a", StableParams(alpha=2.0))

    def test_unknown_link_rejected(self):
        nlm = self._nlm()
        with pytest.raises(ConfigurationError):
            nlm.score("edge-a", "nope")

    def test_pairs_are_canonical(self):
        nlm = self._nlm()
        assert nlm.pairs() == [("edge-a", "edge-b")]
        # a link added after the first call must show up in the next one
        nlm.add_link("edge-c", "edge-a", StableParams(alpha=2.0))
        assert nlm.pairs() == [("edge-a", "edge-b"), ("edge-a", "edge-c")]


def _bits(*values):
    """Exact bit patterns, so -0.0 and 0.0 differ and NaN equals itself."""
    return [np.float64(v).tobytes() if isinstance(v, float) else v for v in values]


@st.composite
def probe_scripts(draw):
    """A matrix floor and links mixing the CMS branches, then a run of
    epoch probes and scalar legs at non-decreasing times."""
    floor_ms = draw(st.sampled_from([NO_FLOOR, 0.1, 2.0]))
    links = [draw(st.sampled_from(sorted(CMS_BRANCHES))) for _ in range(draw(st.integers(1, 50)))]
    steps = []
    t = 0.0
    for _ in range(draw(st.integers(1, 12))):
        t += draw(st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0]), st.floats(0.0, 400.0)))
        if draw(st.booleans()):
            steps.append(("probe", t, None))
        else:
            # a leg on one link, in either orientation
            steps.append(("leg", t, (draw(st.integers(0, len(links) - 1)), draw(st.booleans()))))
    return floor_ms, links, steps


class TestProbeAll:
    """``Nlm.probe_all`` against each link run alone through ``sample_stable``
    and the reference ``ema_update`` on its own generator: the values must
    be the same to the bit."""

    @given(
        script=probe_scripts(),
        seed=st.integers(0, 2**64 - 1),
        cap=st.sampled_from([1, net_model._BLOCK_CAP]),
        chunk=st.sampled_from([1, 3, net_model._REFILL_CHUNK]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_link_reference(self, script, seed, cap, chunk):
        floor_ms, links, steps = script
        reference = []

        def ref_step(i, now_s):
            gen, ema, _ = reference[i]
            sample = sample_stable(CMS_BRANCHES[links[i]], gen, floor_ms=floor_ms)
            reference[i][1:] = [ema_update(ema, sample, now_s), sample]
            return sample

        with mock.patch.object(net_model, "_BLOCK_CAP", cap), mock.patch.object(
            net_model, "_REFILL_CHUNK", chunk
        ):
            # the row width is read when the table is built
            nlm = Nlm(floor_ms=floor_ms, seed=seed)
            nlm.add_links((f"edge-{i}", f"cam-{i}", CMS_BRANCHES[branch]) for i, branch in enumerate(links))
            streams = substreams(seed, [f"link:cam-{i}:edge-{i}" for i in range(len(links))])
            reference.extend([generator_at(stream), EmaState(), None] for stream in streams)
            for kind, now_s, leg in steps:
                if kind == "probe":
                    nlm.probe_all(now_s)
                    for i in range(len(links)):
                        ref_step(i, now_s)
                else:
                    i, reverse = leg
                    a, b = (f"cam-{i}", f"edge-{i}") if reverse else (f"edge-{i}", f"cam-{i}")
                    assert _bits(nlm.sample_and_observe(a, b, now_s)) == _bits(ref_step(i, now_s))

        snapshot = nlm.snapshot()
        for i, (_, ema, latest) in enumerate(reference):
            got = ema_of(nlm, f"edge-{i}", f"cam-{i}")
            assert _bits(*astuple(got)) == _bits(*astuple(ema))
            assert _bits(snapshot[f"cam-{i}|edge-{i}"]["latest_ms"]) == _bits(latest)
            assert _bits(nlm.score(f"cam-{i}", f"edge-{i}")) == _bits(composite_score(ema, nlm.weights))

    def test_time_regression_raises_and_changes_nothing(self):
        params = CMS_BRANCHES["symmetric"]
        nlm = Nlm(seed=1)
        nlm.add_link("edge-a", "cam-1", params)
        nlm.add_link("edge-a", "cam-2", params)
        nlm.sample_and_observe("edge-a", "cam-2", 5.0)
        before = (ema_of(nlm, "edge-a", "cam-1"), ema_of(nlm, "edge-a", "cam-2"))
        with pytest.raises(TimeRegressionError):
            nlm.probe_all(4.0)
        assert (ema_of(nlm, "edge-a", "cam-1"), ema_of(nlm, "edge-a", "cam-2")) == before
        # no draw was consumed either: the next probe takes each link's next value
        nlm.probe_all(6.0)
        expected = sample_stable(params, link_generator(1, "edge-a", "cam-1"))
        assert row(nlm, "edge-a", "cam-1")["latest_ms"] == expected

    def test_failed_probe_changes_nothing(self):
        params = StableParams(alpha=2.0)
        nlm = Nlm(seed=0)
        nlm.add_link("edge-a", "edge-b", params)
        nlm.add_link("edge-a", "edge-c", params)
        nlm.sample_and_observe("edge-a", "edge-c", 2.0)
        with pytest.raises(TimeRegressionError) as failed:
            nlm.probe_all(1.0)
        # ``failed`` still holds the traceback: a numpy view kept by one of
        # its frames would make growing the columns raise BufferError
        nlm.add_link("edge-a", "edge-d", params)
        nlm.add_link("edge-b", "edge-c", params)
        assert failed.traceback
        # edge-a<->edge-b drew nothing in the failed probe
        nlm.probe_all(3.0)
        expected = sample_stable(params, link_generator(0, "edge-a", "edge-b"))
        assert row(nlm, "edge-a", "edge-b")["latest_ms"] == expected

    def test_empty_matrix_probe_is_a_no_op(self):
        Nlm(seed=0).probe_all(1.0)


class TestAddLinks:
    """``add_links`` registers a batch as ``add_link`` on each entry in
    turn, and a batch with a bad entry changes nothing."""

    PARAMS = StableParams(alpha=1.5, scale=0.2, location=5.0)
    OTHER = StableParams(alpha=2.0, location=9.0)

    def _probed(self):
        nlm = Nlm(seed=3)
        nlm.add_link("edge-a", "edge-b", self.PARAMS)
        nlm.add_link("edge-a", "edge-c", self.PARAMS)
        nlm.probe_all(1.0)
        return nlm

    def _entries(self):
        return [
            ("edge-b", "edge-c", self.OTHER),
            ("edge-a", "cam-1", self.PARAMS),
            ("cam-2", "edge-c", self.PARAMS),
            ("cam-1", "edge-b", self.OTHER),
        ]

    @staticmethod
    def _table(nlm):
        return (
            dict(nlm._number),
            [column.tobytes() for column in nlm._columns],
            nlm._draws.tobytes(),
            nlm._cursor.tobytes(),
            list(nlm.pairs()),
            list(nlm._params),
            nlm._streams.tobytes(),
        )

    def test_batch_equals_one_link_at_a_time(self):
        one_by_one, batch = self._probed(), self._probed()
        for a, b, params in self._entries():
            one_by_one.add_link(a, b, params)
        batch.add_links(self._entries())
        assert batch._number[("cam-2", "edge-c")] == 4
        # each link's stream is labelled by its sorted endpoints
        assert net_model._stream_at(batch._streams, 4) == substreams(3, ["link:cam-2:edge-c"])[0]
        assert self._table(batch) == self._table(one_by_one)
        one_by_one.probe_all(2.0)
        batch.probe_all(2.0)
        assert self._table(batch) == self._table(one_by_one)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (("edge-d", "edge-d", PARAMS), "differ"),
            (("edge-d", "cam-3", StableParams(alpha=2.5)), "alpha"),
            # a pair registered before, in either order
            (("edge-a", "edge-b", PARAMS), "'edge-a' and 'edge-b' registered twice"),
            (("edge-b", "edge-a", OTHER), "'edge-a' and 'edge-b' registered twice"),
            # a pair of this batch again, in either order
            (("edge-a", "cam-1", PARAMS), "'cam-1' and 'edge-a' registered twice"),
            (("cam-1", "edge-a", OTHER), "'cam-1' and 'edge-a' registered twice"),
        ],
    )
    def test_bad_entry_changes_nothing(self, bad, match):
        nlm = self._probed()
        before = self._table(nlm)
        entries = self._entries()
        with pytest.raises(ConfigurationError, match=match):
            nlm.add_links([*entries[:2], bad, *entries[2:]])
        assert self._table(nlm) == before
