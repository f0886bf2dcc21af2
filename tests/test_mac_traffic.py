"""Tests for the CSMA MAC and traffic sources."""

import numpy as np
import pytest

from repro.sim.mac import CsmaConfig, CsmaMac
from repro.sim.traffic import PoissonSource
from repro.utils.units import dbm_to_mw
from repro.utils.rng import ensure_rng


class TestCsmaConfig:
    def test_threshold_conversion(self):
        cfg = CsmaConfig()
        assert cfg.cs_threshold_mw == pytest.approx(dbm_to_mw(-75.0))


class TestCsmaMac:
    def _mac(self, **kwargs):
        cfg = CsmaConfig(**kwargs)
        return CsmaMac(cfg, ensure_rng(0)), cfg

    def test_disabled_always_transmits(self):
        mac, _ = self._mac(enabled=False)
        go, delay = mac.attempt(sensed_power_mw=1e9)
        assert go and delay == 0.0

    def test_clear_channel_transmits(self):
        mac, cfg = self._mac(enabled=True)
        go, _ = mac.attempt(sensed_power_mw=cfg.cs_threshold_mw / 10)
        assert go

    def test_busy_channel_backs_off(self):
        mac, cfg = self._mac(enabled=True)
        go, delay = mac.attempt(sensed_power_mw=cfg.cs_threshold_mw * 10)
        assert not go
        assert 0 <= delay <= cfg.INITIAL_BACKOFF_S

    def test_backoff_window_grows(self):
        mac, cfg = self._mac(enabled=True)
        busy = cfg.cs_threshold_mw * 10
        delays = []
        for _ in range(cfg.MAX_ATTEMPTS - 1):
            go, delay = mac.attempt(busy)
            if not go:
                delays.append(delay)
        # Windows double, so later delays *can* exceed the first window.
        assert len(delays) == cfg.MAX_ATTEMPTS - 1
        assert max(delays) <= cfg.MAX_BACKOFF_S

    def test_sends_anyway_after_max_attempts(self):
        mac, cfg = self._mac(enabled=True)
        busy = cfg.cs_threshold_mw * 10
        outcomes = [mac.attempt(busy)[0] for _ in range(cfg.MAX_ATTEMPTS)]
        assert outcomes == [False] * (cfg.MAX_ATTEMPTS - 1) + [True]

    def test_backoff_state_resets_after_send(self):
        mac, cfg = self._mac(enabled=True)
        busy = cfg.cs_threshold_mw * 10
        mac.attempt(busy)
        mac.attempt(cfg.cs_threshold_mw / 10)  # clear -> sends
        # a fresh frame again gets MAX_ATTEMPTS - 1 backoffs
        outcomes = [mac.attempt(busy)[0] for _ in range(cfg.MAX_ATTEMPTS)]
        assert outcomes == [False] * (cfg.MAX_ATTEMPTS - 1) + [True]


class TestTrafficSources:
    def test_poisson_mean_interval(self):
        source = PoissonSource(
            load_bits_per_s=3500.0,
            payload_bytes=1500,
            rng=ensure_rng(1),
        )
        draws = [source.next_interval() for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(1500 * 8 / 3500, rel=0.05)

    def test_poisson_validation(self):
        rng = ensure_rng(0)
        with pytest.raises(ValueError):
            PoissonSource(0, 100, rng)
        with pytest.raises(ValueError):
            PoissonSource(100, 0, rng)
