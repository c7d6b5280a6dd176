"""Unit tests for the declarative perturbation spec and its plumbing.

Covers the CLI grammar (``parse_perturb``), JSON round trips, validation,
label/token duality, and the two stability contracts that let the axis
retrofit onto existing artifacts: unperturbed requests hash to their
pre-field keys, and unperturbed wire payloads are byte-identical to the
pre-field format.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.runner import SweepSpec
from repro.core import ClusterSpec, PredictionRequest, PerturbSpec
from repro.core.pipeline import request_key
from repro.util.artifacts import MODEL_VERSION
from repro.perturb import parse_perturb
from repro.util.artifacts import stable_hash


class TestParseGrammar:
    def test_none_tokens(self):
        assert parse_perturb("none") is None
        assert parse_perturb("") is None
        assert parse_perturb("  none  ") is None

    def test_null_spec_normalises_to_none(self):
        # A token whose clauses all cancel (seed alone perturbs nothing)
        # is the clean machine, not a distinct sweep point.
        assert parse_perturb("seed:9") is None
        assert parse_perturb("noise:0") is None

    def test_full_grammar(self):
        spec = parse_perturb(
            "noise:0.1+straggler:0.05x8+degrade:0.5+fail:2@1x0.01+churn:0.2+seed:7"
        )
        assert spec == PerturbSpec(
            seed=7, compute_noise=0.1, straggler_prob=0.05, straggler_factor=8.0,
            link_degrade=0.5, fail_rank=2, fail_iteration=1,
            restart_seconds=0.01, churn_prob=0.2,
        )

    def test_partial_clauses_default(self):
        spec = parse_perturb("straggler:0.2")
        assert spec.straggler_factor == 3.0  # the dataclass default
        spec = parse_perturb("fail:1")
        assert (spec.fail_iteration, spec.restart_seconds) == (1, 0.0)

    def test_label_reparses_to_same_spec(self):
        for token in ("noise:0.1+seed:3", "straggler:0.2x8",
                      "fail:2@1x0.01+churn:0.3", "degrade:1.5"):
            spec = parse_perturb(token)
            assert parse_perturb(spec.label) == spec

    def test_malformed_rejected(self):
        for token in ("noise", "noise:abc", "bogus:1", "fail:x@1"):
            with pytest.raises(ValueError):
                parse_perturb(token)


class TestSpecValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            PerturbSpec(compute_noise=-0.1)
        with pytest.raises(ValueError):
            PerturbSpec(straggler_prob=1.5)
        with pytest.raises(ValueError):
            PerturbSpec(straggler_factor=0.5)
        with pytest.raises(ValueError):
            PerturbSpec(restart_seconds=-1.0)
        with pytest.raises(ValueError):
            PerturbSpec(churn_prob=-0.2)

    def test_dict_round_trip(self):
        spec = PerturbSpec(seed=3, compute_noise=0.1, fail_rank=2)
        assert PerturbSpec.from_dict(spec.to_dict()) == spec
        assert PerturbSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown PerturbSpec keys"):
            PerturbSpec.from_dict({"noise": 0.1})


class TestRequestIntegration:
    def test_json_round_trip_with_perturb(self):
        request = PredictionRequest(
            deck="16x8", ranks=4, max_side=16,
            perturb=PerturbSpec(seed=3, compute_noise=0.1),
        )
        assert PredictionRequest.from_json(request.to_json()) == request

    def test_wire_format_unchanged_when_unperturbed(self):
        # Pre-field payloads (and goldens) must keep loading, and fresh
        # unperturbed payloads must not grow a key old readers reject.
        request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
        payload = request.to_dict()
        assert "perturb" not in payload
        assert PredictionRequest.from_dict(payload) == request

    def test_churn_requires_dynamic(self):
        with pytest.raises(ValueError, match="churn"):
            PredictionRequest(
                deck="16x8", ranks=4, perturb=PerturbSpec(churn_prob=0.5)
            )

    def test_fail_rank_bounds_checked(self):
        with pytest.raises(ValueError, match="fail_rank"):
            PredictionRequest(
                deck="16x8", ranks=4, perturb=PerturbSpec(fail_rank=4)
            )

    def test_weak_decks_reject_perturb(self):
        with pytest.raises(ValueError, match="weak-scaled"):
            PredictionRequest(
                deck="weak:1000", ranks=64, models=("sparse",),
                perturb=PerturbSpec(compute_noise=0.1),
            )


class TestHashStability:
    def test_unperturbed_request_hashes_to_pre_field_layout(self):
        # Rebuild the request as a structurally identical dataclass that
        # simply lacks the perturb field — i.e. the pre-field layout — and
        # require the same content hash.  This is the guarantee that every
        # sweep/service result stored before the axis existed stays
        # addressable.
        request = PredictionRequest(deck="16x8", ranks=4, max_side=16)
        names = [
            f.name for f in dataclasses.fields(PredictionRequest)
            if f.name not in PredictionRequest._HASH_OPTIONAL_FIELDS_
        ]
        legacy_type = dataclasses.make_dataclass(
            "PredictionRequest", names, frozen=True
        )
        legacy = legacy_type(**{name: getattr(request, name) for name in names})
        assert stable_hash(request) == stable_hash(legacy)
        assert request_key(request) == stable_hash(
            {"kind": "core-prediction", "version": MODEL_VERSION,
             "mode": "predict", "request": legacy}
        )

    def test_perturbed_request_hashes_differently(self):
        base = PredictionRequest(deck="16x8", ranks=4, max_side=16)
        noisy = dataclasses.replace(
            base, perturb=PerturbSpec(seed=1, compute_noise=0.1)
        )
        assert request_key(base) != request_key(noisy)
        # And the perturbation seed is hash-significant.
        reseeded = dataclasses.replace(
            base, perturb=PerturbSpec(seed=2, compute_noise=0.1)
        )
        assert request_key(noisy) != request_key(reseeded)

    def test_sweep_task_keys_stable_without_perturb(self):
        spec = SweepSpec(decks=("8x4",), rank_counts=(2,),
                         clusters=(ClusterSpec(),), models=(), max_side=16)
        task = spec.tasks()[0]
        perturbed = dataclasses.replace(
            task,
            request=dataclasses.replace(
                task.request, perturb=PerturbSpec(seed=1, compute_noise=0.1)
            ),
        )
        assert task.store_key() != perturbed.store_key()
        # perturb=None tasks must key identically to the pre-field layout;
        # the request key only hashes the field when the axis is used.
        assert task.perturb is None
