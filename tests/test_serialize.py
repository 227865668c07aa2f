"""The matrix renderer of ``dumps_json`` and ``write_text`` against the
``json`` encoder.

The oracle is the encoder ``dumps_json`` used to call on the whole payload:
``json.dumps(..., sort_keys=True, indent=2)`` with every matrix (a state's
whole ``entries``, or an array) written out as the nested ``[re, im]`` lists
of ``complex_pairs``.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from qswitch_lab import (
    DensityMatrix,
    ResourceState,
    dfs_phase_encodings,
    fixed_configuration_baseline,
    privacy_report,
    run_bipartite_establishment,
    run_ghz_distribution,
    run_private_dit,
)
from qswitch_lab import serialize
from qswitch_lab.serialize import dumps_json, json_chunks, transcript_to_dict, write_text


def complex_pairs(arr: np.ndarray):
    """Nested lists of [re, im] pairs: the JSON form of a complex array."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _oracle(payload) -> str:
    def lists(obj):
        if isinstance(obj, DensityMatrix):
            return complex_pairs(obj.entries)
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


def _assert_oracle_and_file(payload, tmp_path) -> None:
    """The oracle, and the file ``write_text`` streams holds the same bytes."""
    _assert_oracle(payload)
    path = tmp_path / "out.json"
    write_text(path, json_chunks(payload))
    assert path.read_bytes() == dumps_json(payload).encode()


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
    def test_ghz(self, d, n, tmp_path):
        t = run_ghz_distribution(d, n, ResourceState.maximally_entangled(d))
        _assert_oracle_and_file(_cli_payload(t, "ghz"), tmp_path)

    def test_bipartite(self, tmp_path):
        t = run_bipartite_establishment(3, ResourceState.maximally_entangled(3))
        _assert_oracle_and_file(_cli_payload(t, "bipartite"), tmp_path)

    @pytest.mark.parametrize("with_privacy", [False, True])
    def test_private_dit_d8(self, with_privacy, tmp_path):
        res = ResourceState.maximally_entangled(8)
        ensemble = [run_private_dit(8, x, res) for x in range(8)]
        privacy = privacy_report(ensemble) if with_privacy else None
        _assert_oracle_and_file(_cli_payload(ensemble[3], "private-dit", privacy), tmp_path)

    def test_skewed_schmidt_resource(self, tmp_path):
        t = run_private_dit(3, 2, ResourceState.from_schmidt([0.2, 0.3, 0.5]))
        _assert_oracle_and_file(_cli_payload(t, "private-dit"), tmp_path)

    def test_fixed_baseline_payload_has_no_matrix(self, tmp_path):
        report = fixed_configuration_baseline(3, dfs_phase_encodings(3))
        payload = {"schema": serialize.SCHEMA,
                   "header": {"protocol": "fixed-baseline", "d": 3, "encodings": "dfs-phase"},
                   "metrics": serialize._plain(report)}
        _assert_oracle_and_file(payload, tmp_path)

    def test_entries_stay_the_state_arrays(self):
        # each state goes to the renderer as itself, its support block
        # unexpanded
        t = run_ghz_distribution(3, 2, ResourceState.maximally_entangled(3))
        payload = transcript_to_dict(t)
        for stage, out in zip(t.stages, payload["stages"]):
            assert out["state"]["entries"] is stage.state


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


class TestSparseRows:
    """The rows ``dumps_json`` writes as constant text next to the ones it
    formats: a row is formatted only when it holds a float other than +0.0."""

    def test_all_rows_zero_but_one(self, rng):
        for live in (0, 3, 6):
            m = np.zeros((7, 5), dtype=complex)
            m[live] = rng.normal(size=5) + 1j * rng.normal(size=5)
            m[live, 2] = 0.0
            _assert_oracle({"entries": m, "after": [1, {"entries": m.T}]})

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_lone_negative_zero_in_a_zero_row(self, part):
        for row in (0, 2, 3):
            m = np.zeros((4, 4), dtype=complex)
            getattr(m, part)[row, 1] = -0.0
            _assert_oracle({"entries": m})

    def test_zero_real_with_nonzero_imaginary_part(self):
        m = np.zeros((5, 5), dtype=complex)
        m.imag[1, 3] = 0.25
        m.imag[4, 0] = -1e-300
        _assert_oracle({"entries": m})

    def test_nan_and_infinities_in_a_sparse_row(self):
        m = np.zeros((4, 6), dtype=complex)
        m.real[2, 0], m.imag[2, 3], m.real[2, 5] = np.nan, np.inf, -np.inf
        m.imag[3, 5] = np.nan
        _assert_oracle({"entries": m})

    def test_dense_random_256(self, rng):
        m = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        _assert_oracle({"entries": m})

    def test_single_row_and_single_column(self, rng):
        for shape in ((1, 9), (9, 1)):
            dense = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            sparse = np.zeros(shape, dtype=complex)
            sparse.flat[4] = 1.5 - 0.5j
            for m in (dense, sparse, np.zeros(shape, dtype=complex)):
                _assert_oracle({"entries": m})


class TestWriteText:
    def test_unserializable_payload_creates_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_text(path, json_chunks({"entries": np.eye(2) + 0j, "x": object()}))
        assert not path.exists()

    def test_unserializable_payload_leaves_an_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"earlier run\n")
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_text(path, json_chunks({"x": np.zeros(3)}))
        assert path.read_bytes() == b"earlier run\n"

    def test_csv_lines_are_written_as_given(self, tmp_path):
        path = tmp_path / "out.csv"
        write_text(path, ["a,b\n", "1,2\n"])
        assert path.read_bytes() == b"a,b\n1,2\n"

    def test_ghz_transcript_streams_in_a_fraction_of_its_size(self, tmp_path):
        # the transcript as a whole text would take about twice the file size
        t = run_ghz_distribution(3, 3, ResourceState.maximally_entangled(3))
        payload = _cli_payload(t, "ghz")
        path = tmp_path / "ghz.json"
        tracemalloc.start()
        try:
            write_text(path, json_chunks(payload))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) / 4
