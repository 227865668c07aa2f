"""The matrix renderer of ``dumps_json`` against the ``json`` encoder.

The oracle is the encoder ``dumps_json`` used to call on the whole payload:
``json.dumps(..., sort_keys=True, indent=2)`` with every matrix written out
as the nested ``[re, im]`` lists of ``complex_pairs``.
"""

import json

import numpy as np
import pytest

from qswitch_lab import (
    ResourceState,
    dfs_phase_encodings,
    fixed_configuration_baseline,
    privacy_report,
    run_bipartite_establishment,
    run_ghz_distribution,
    run_private_dit,
)
from qswitch_lab import serialize
from qswitch_lab.serialize import complex_pairs, dumps_json, transcript_to_dict


def _oracle(payload) -> str:
    def lists(obj):
        if isinstance(obj, np.ndarray):
            return complex_pairs(obj)
        if isinstance(obj, dict):
            return {k: lists(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [lists(v) for v in obj]
        return obj

    return json.dumps(lists(payload), sort_keys=True, indent=2) + "\n"


def _assert_oracle(payload) -> None:
    fast = dumps_json(payload)
    assert fast.encode() == _oracle(payload).encode()


def _cli_payload(t, protocol, privacy=None):
    """The payload ``qswitch-lab run --out`` writes."""
    payload = transcript_to_dict(t, header={"command": "run", "protocol": protocol})
    if privacy is not None:
        payload["privacy"] = {
            "max_pairwise_trace_distance": privacy["max_pairwise_trace_distance"],
            "max_pairwise_outcome_tv": privacy["max_pairwise_outcome_tv"],
            "helstrom_errors": {f"{i},{j}": v for (i, j), v in privacy["helstrom_errors"].items()},
        }
    return payload


class TestProtocolTranscripts:
    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2)])
    def test_ghz(self, d, n):
        t = run_ghz_distribution(d, n, ResourceState.maximally_entangled(d))
        _assert_oracle(_cli_payload(t, "ghz"))

    def test_bipartite(self):
        t = run_bipartite_establishment(3, ResourceState.maximally_entangled(3))
        _assert_oracle(_cli_payload(t, "bipartite"))

    @pytest.mark.parametrize("with_privacy", [False, True])
    def test_private_dit_d8(self, with_privacy):
        res = ResourceState.maximally_entangled(8)
        ensemble = [run_private_dit(8, x, res) for x in range(8)]
        privacy = privacy_report(ensemble) if with_privacy else None
        _assert_oracle(_cli_payload(ensemble[3], "private-dit", privacy))

    def test_skewed_schmidt_resource(self):
        t = run_private_dit(3, 2, ResourceState.from_schmidt([0.2, 0.3, 0.5]))
        _assert_oracle(_cli_payload(t, "private-dit"))

    def test_fixed_baseline_payload_has_no_matrix(self):
        report = fixed_configuration_baseline(3, dfs_phase_encodings(3))
        payload = {"schema": serialize.SCHEMA,
                   "header": {"protocol": "fixed-baseline", "d": 3, "encodings": "dfs-phase"},
                   "metrics": serialize._plain(report)}
        _assert_oracle(payload)

    def test_entries_stay_the_state_arrays(self):
        t = run_ghz_distribution(2, 2, ResourceState.maximally_entangled(2))
        payload = transcript_to_dict(t)
        for stage, out in zip(t.stages, payload["stages"]):
            assert out["state"]["entries"] is stage.state.entries


class TestSyntheticMatrices:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-17, 0.1, -0.5, 1.0 / 3.0,
               1e300, 123456789.125, float("nan"), float("inf"), float("-inf")]

    def test_special_floats(self, rng):
        vals = np.array(self.SPECIAL)
        m = np.empty((6, 6), dtype=complex)
        # set the parts one by one: re + 1j * im would turn -0.0 into 0.0
        m.real = rng.choice(vals, size=(6, 6))
        m.imag = rng.choice(vals, size=(6, 6))
        _assert_oracle({"a": {"entries": m}})

    def test_signed_zeros_side_by_side(self):
        m = np.zeros((3, 3), dtype=complex)
        m.imag[0, 1] = m.real[1, 2] = m.real[2, 0] = -0.0
        m.imag[2, 2] = np.nan
        _assert_oracle({"entries": m})
        _assert_oracle({"entries": m.T})

    def test_one_by_one_and_rectangular(self):
        _assert_oracle({"x": np.array([[-0.0 + 1j]]), "y": np.arange(6.0).reshape(2, 3) - 2.5})

    def test_matrices_at_every_nesting_level(self, rng):
        def m(n):
            return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

        payload = {"top": m(2), "list": [m(1), [m(3), {"deep": m(2)}]], "z": [1.5, None, "s"]}
        _assert_oracle(payload)
        _assert_oracle({"solo": [m(2)]})

    def test_marker_text_in_payload_comes_out_as_itself(self, rng):
        mark = serialize._MARKER
        m = rng.normal(size=(2, 2)) + 0j
        payload = {
            "header": {"note": mark, mark: "key", "longer": mark + "@", "quoted": 'x"' + mark},
            "params": {"label": mark},
            "state": {"entries": m},
            "more": [m, mark],
        }
        _assert_oracle(payload)
        _assert_oracle({"header": {"note": mark}})

    def test_unserializable_objects_still_raise(self):
        for obj in (np.int64(3), np.zeros(3), np.zeros((0, 0)), object()):
            with pytest.raises(TypeError, match="not JSON serializable"):
                dumps_json({"x": obj})
