"""Tests for execution configuration, and the ratchet on every
option the system exposes."""

import argparse
import dataclasses
import inspect

import pytest

from repro.cli import _build_parser
from repro.common.config import DelayModel, ExecutionConfig, SharingMode
from repro.service.server import QService
from repro.service.shard import ServiceConfig
from repro.service.sharding import ShardedQService


class TestDelayModel:
    def test_defaults_match_paper(self):
        delays = DelayModel()
        assert delays.stream_read_mean == 0.002
        assert delays.random_probe_mean == 0.002

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayModel(stream_read_mean=-0.1)

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            DelayModel(cpu_probe=-1e-9)


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.k == 50
        assert config.batch_size == 5
        assert config.max_cqs_per_uq == 20
        assert config.mode is SharingMode.ATC_FULL

    @pytest.mark.parametrize("field,value", [
        ("k", 0), ("k", -1), ("batch_size", 0), ("max_cqs_per_uq", 0),
        ("memory_budget_tuples", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ExecutionConfig(**{field: value})

    def test_jaccard_range_enforced(self):
        with pytest.raises(ValueError):
            ExecutionConfig(cluster_jaccard=1.5)

    def test_with_mode_copies(self):
        base = ExecutionConfig(k=10)
        derived = base.with_mode(SharingMode.ATC_CQ)
        assert derived.mode is SharingMode.ATC_CQ
        assert derived.k == 10
        assert base.mode is SharingMode.ATC_FULL

    def test_with_overrides(self):
        config = ExecutionConfig().with_overrides(batch_size=1, k=7)
        assert config.batch_size == 1
        assert config.k == 7

    @pytest.mark.parametrize("mode,within,across,reuse", [
        (SharingMode.ATC_CQ, False, False, False),
        (SharingMode.ATC_UQ, True, False, False),
        (SharingMode.ATC_FULL, True, True, True),
        (SharingMode.ATC_CL, True, True, True),
    ])
    def test_sharing_flags(self, mode, within, across, reuse):
        config = ExecutionConfig(mode=mode)
        assert config.shares_within_uq is within
        assert config.shares_across_uqs is across
        assert config.reuses_state is reuse

    def test_mode_str_matches_paper_names(self):
        assert str(SharingMode.ATC_CQ) == "ATC-CQ"
        assert str(SharingMode.ATC_FULL) == "ATC-FULL"


class TestOptionRatchet:
    """Every knob the system exposes, pinned by name.  A change that
    adds or removes an option edits the pinned set in the same diff,
    so no option arrives or leaves unnoticed."""

    @pytest.mark.parametrize("cls,fields", [
        (ExecutionConfig, {
            "mode", "k", "batch_size", "batch_window", "max_cqs_per_uq",
            "tau_probe_threshold", "min_sharing_queries",
            "low_cardinality_bonus", "cluster_min_refs", "cluster_jaccard",
            "memory_budget_tuples",
            "adaptive_probe_ordering", "probe_caching",
            "optimizer_time_scale", "scheduler", "delays", "seed"}),
        (DelayModel, {
            "stream_read_mean", "random_probe_mean", "cpu_probe",
            "cpu_insert", "deterministic"}),
        (ServiceConfig, {
            "cache_ttl", "cache_capacity", "max_in_flight",
            "admission_policy", "coalesce", "default_deadline"}),
    ])
    def test_config_fields(self, cls, fields):
        assert {f.name for f in dataclasses.fields(cls)} == fields

    @pytest.mark.parametrize("cls,keywords", [
        (ShardedQService, {
            "federation", "config", "n_shards", "routing", "service",
            "index", "tracer", "clock", "workers", "worker_spec"}),
        (QService, {
            "federation", "config", "service", "index", "tracer",
            "clock"}),
    ])
    def test_service_constructor_keywords(self, cls, keywords):
        params = inspect.signature(cls.__init__).parameters
        assert set(params) - {"self"} == keywords

    def test_serve_options(self):
        subparsers = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        serve = subparsers.choices["serve"]
        options = {option for action in serve._actions
                   for option in action.option_strings}
        assert options == {
            "-h", "--help", "--queries", "--mode", "--corpus", "--rate",
            "-k", "--templates", "--theta", "--seed", "--batch-window",
            "--cache-ttl", "--max-in-flight", "--policy", "--deadline",
            "--shards", "--workers", "--routing", "--cluster-jaccard",
            "--trace-dir", "--metrics-out", "--http", "--host", "--port",
            "--clock", "--tick"}
