"""The matrix renderer of ``dumps_json`` and ``write_text`` against the
``json`` encoder.

The oracle is the encoder ``dumps_json`` used to call on the whole payload:
``json.dumps(..., sort_keys=True, indent=2)`` with every matrix (a state's
whole ``entries``, or an array) written out as the nested ``[re, im]`` lists
of ``complex_pairs``.
"""

import itertools
import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from qswitch_lab import (
    DensityMatrix,
    ResourceState,
    SubsystemLayout,
    dfs_phase_encodings,
    fixed_configuration_baseline,
    privacy_report,
    run_bipartite_establishment,
    run_ghz_distribution,
    run_private_dit,
)
from qswitch_lab import serialize
from qswitch_lab.serialize import (
    dumps_json,
    json_chunks,
    report_to_dict,
    transcript_to_dict,
    write_text,
)


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


class TestProtocolTranscripts:
    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2)])
    def test_ghz(self, d, n, tmp_path):
        t = run_ghz_distribution(d, n, ResourceState.maximally_entangled(d))
        header = {"command": "run", "protocol": "ghz"}
        _assert_oracle_and_file(transcript_to_dict(t, header), tmp_path)

    def test_bipartite(self, tmp_path):
        t = run_bipartite_establishment(3, ResourceState.maximally_entangled(3))
        header = {"command": "run", "protocol": "bipartite"}
        _assert_oracle_and_file(transcript_to_dict(t, header), tmp_path)

    @pytest.mark.parametrize("with_privacy", [False, True])
    def test_private_dit_d8(self, with_privacy, tmp_path):
        res = ResourceState.maximally_entangled(8)
        ensemble = [run_private_dit(8, x, res) for x in range(8)]
        privacy = privacy_report(ensemble) if with_privacy else None
        header = {"command": "run", "protocol": "private-dit"}
        _assert_oracle_and_file(transcript_to_dict(ensemble[3], header, privacy), tmp_path)

    def test_skewed_schmidt_resource(self, tmp_path):
        t = run_private_dit(3, 2, ResourceState.from_schmidt([0.2, 0.3, 0.5]))
        header = {"command": "run", "protocol": "private-dit"}
        _assert_oracle_and_file(transcript_to_dict(t, header), tmp_path)

    def test_fixed_baseline_payload_has_no_matrix(self, tmp_path):
        report = fixed_configuration_baseline(3, dfs_phase_encodings(3))
        header = {"protocol": "fixed-baseline", "d": 3, "encodings": "dfs-phase"}
        _assert_oracle_and_file(report_to_dict(header, report), tmp_path)

    def test_flags_load_as_booleans(self):
        t = run_bipartite_establishment(3, ResourceState.maximally_entangled(3))
        payload = json.loads(dumps_json(transcript_to_dict(t)))
        assert payload["metrics"]["maximally_entangled_all_branches"] is True
        for branch in payload["branches"]:
            assert branch["metrics"]["maximally_entangled"] is True
            assert branch["null"] is False
        report = fixed_configuration_baseline(3, dfs_phase_encodings(3))
        payload = json.loads(dumps_json(report_to_dict({}, report)))
        assert payload["metrics"]["leak_certified"] is False

    def test_privacy_block_keys_each_pair(self):
        res = ResourceState.maximally_entangled(3)
        ensemble = [run_private_dit(3, x, res) for x in range(3)]
        privacy = privacy_report(ensemble)
        block = transcript_to_dict(ensemble[0], privacy=privacy)["privacy"]
        assert block["helstrom_errors"] == {
            f"{i},{j}": v for (i, j), v in privacy["helstrom_errors"].items()
        }
        assert sorted(block["helstrom_errors"]) == ["0,1", "0,2", "1,2"]
        assert block["max_pairwise_trace_distance"] == privacy["max_pairwise_trace_distance"]
        assert block["max_pairwise_outcome_tv"] == privacy["max_pairwise_outcome_tv"]

    def test_entries_stay_the_state_arrays(self):
        # each state goes to the renderer as itself, its support block
        # unexpanded
        t = run_ghz_distribution(3, 2, ResourceState.maximally_entangled(3))
        payload = transcript_to_dict(t)
        for (name, state), out in zip(t.stages.items(), payload["stages"]):
            assert out["name"] == name and out["state"]["entries"] is state


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
        for obj in (np.int64(3), np.bool_(True), np.zeros(3), np.zeros((0, 0)), object()):
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

    def test_zero_rows_are_one_shared_buffer(self, rng):
        m = np.zeros((6, 4), dtype=complex)
        m[2] = rng.normal(size=4) + 1j * rng.normal(size=4)
        chunks = list(json_chunks({"a": m, "b": m}))
        assert all(isinstance(c, bytes) for c in chunks)
        assert b"".join(chunks).decode() == _oracle({"a": m, "b": m})
        # the rows after the first that hold only 0.0: one object per matrix
        zero_rows = [c for c in chunks if c.startswith(b",") and c.count(b"0.0") == 8]
        assert len(zero_rows) == 8 and len({id(c) for c in zero_rows}) == 2


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
        write_text(path, [b"a,b\n", b"1,2\n"])
        assert path.read_bytes() == b"a,b\n1,2\n"

    def test_ghz_transcript_streams_in_a_fraction_of_its_size(self, tmp_path):
        # the transcript as a whole text would take about twice the file size
        t = run_ghz_distribution(3, 3, ResourceState.maximally_entangled(3))
        payload = transcript_to_dict(t, {"command": "run", "protocol": "ghz"})
        path = tmp_path / "ghz.json"
        tracemalloc.start()
        try:
            write_text(path, json_chunks(payload))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) / 4

    def test_dense_matrix_is_held_a_bounded_part_at_a_time(self, rng, tmp_path):
        # every row of a full-support state is formatted; a batch bounded by
        # its count of chunks alone would hold the whole text (amplitudes of
        # a few values keep the run short under tracemalloc)
        v = (rng.choice([-1.0, 1.0], size=512) + 1j * rng.choice([-1.0, 1.0], size=512)) / 32
        state = DensityMatrix(np.outer(v, v.conj()), SubsystemLayout((512,), ("A",)))
        assert state.support.size == 512
        path = tmp_path / "dense.json"
        tracemalloc.start()
        try:
            write_text(path, json_chunks({"state": {"entries": state}}))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) / 4
        pairs = np.array(json.loads(path.read_bytes())["state"]["entries"])
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], state.entries)

    def test_a_repeated_zero_row_is_counted_once_per_batch(self, tmp_path, monkeypatch):
        # 11.7 MB of text, but under 0.2 MB of distinct chunks: mostly one
        # shared zero row, so no byte bound ends a batch and only the bound
        # on buffers per writev call can
        writev, calls = os.writev, []

        def counted_writev(fd, buffers):
            calls.append(len(buffers))
            return writev(fd, buffers)

        monkeypatch.setattr(os, "writev", counted_writev)
        t = run_ghz_distribution(3, 3, ResourceState.maximally_entangled(3))
        payload = transcript_to_dict(t, {"command": "run", "protocol": "ghz"})
        chunks = list(json_chunks(payload))
        distinct = {id(c): c for c in chunks}.values()
        assert sum(map(len, distinct)) < serialize._BATCH_BYTES < sum(map(len, chunks))
        path = tmp_path / "ghz.json"
        write_text(path, chunks)
        assert path.read_bytes() == b"".join(chunks)
        assert sum(calls) == len(chunks)
        assert len(calls) == -(-len(chunks) // serialize._BATCH_CHUNKS)
        # joined for os.write, a batch holds every repeat: each one counts
        write, sizes = os.write, []

        def counted_write(fd, data):
            sizes.append(len(data))
            return write(fd, data)

        monkeypatch.delattr(os, "writev")
        monkeypatch.setattr(os, "write", counted_write)
        write_text(path, chunks)
        assert path.read_bytes() == b"".join(chunks)
        assert max(sizes) < serialize._BATCH_BYTES + max(map(len, chunks))

    def test_short_writev_calls_still_write_every_byte(self, tmp_path, monkeypatch):
        writev, sizes, calls = os.writev, itertools.cycle([1, 7, 3, 40]), []

        def short_writev(fd, buffers):
            calls.append(len(buffers))
            return writev(fd, [b"".join(buffers)[:next(sizes)]])

        monkeypatch.setattr(os, "writev", short_writev)
        t = run_bipartite_establishment(2, ResourceState.maximally_entangled(2))
        payload = transcript_to_dict(t, {"command": "run", "protocol": "bipartite"})
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 50000)
        write_text(path, json_chunks(payload))
        assert path.read_bytes() == _oracle(payload).encode()
        assert len(calls) > 100 and max(calls) > 1

    def test_without_writev_a_batch_is_written_joined(self, tmp_path, monkeypatch):
        write, sizes, calls = os.write, itertools.cycle([5, 4096, 1]), []

        def short_write(fd, data):
            calls.append(len(data))
            return write(fd, data[:next(sizes)])

        monkeypatch.delattr(os, "writev")
        monkeypatch.setattr(os, "write", short_write)
        t = run_ghz_distribution(2, 2, ResourceState.maximally_entangled(2))
        payload = transcript_to_dict(t, {"command": "run", "protocol": "ghz"})
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 50000)
        write_text(path, json_chunks(payload))
        assert path.read_bytes() == _oracle(payload).encode()
        # the file is less than one batch: the first write is offered all of it
        assert calls[0] == os.path.getsize(path) and len(calls) > 1

    # an existing file is written over in place and cut to the length written,
    # which must leave what open(path, "w") leaves

    def test_shorter_text_over_a_longer_file_leaves_only_the_text(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 5000 + b"old tail\n")
        write_text(path, [b"new\n", b"text\n"])
        assert path.read_bytes() == b"new\ntext\n"

    def test_existing_mode_is_kept(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"earlier run, a longer one\n")
        path.chmod(0o640)
        write_text(path, [b"a,b\n"])
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_bytes() == b"a,b\n"

    def test_new_file_mode_is_0o666_less_the_umask(self, tmp_path):
        path = tmp_path / "out.csv"
        umask = os.umask(0o027)
        try:
            write_text(path, [b"a,b\n"])
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_symlink_is_followed_and_kept(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"earlier run, a longer one\n")
        link.symlink_to(target)
        write_text(link, [b"new\n"])
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"

    def test_hard_link_reads_the_new_text(self, tmp_path):
        path, other = tmp_path / "out.json", tmp_path / "other.json"
        path.write_bytes(b"earlier run, a longer one\n")
        os.link(path, other)
        write_text(path, [b"new\n"])
        assert other.read_bytes() == b"new\n"
        assert os.path.samefile(path, other)

    def test_dev_null_is_written_without_a_truncate_error(self):
        write_text(os.devnull, [b"a,b\n", b"1,2\n"])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_fifo_is_written_without_a_truncate_error(self, tmp_path):
        path = tmp_path / "fifo"
        os.mkfifo(path)
        got = []
        reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
        reader.start()
        try:
            write_text(path, [b"a,b\n", b"1,2\n"])
        finally:
            reader.join(timeout=10)
        assert got == [b"a,b\n1,2\n"]

    def test_chunk_that_raises_leaves_the_written_prefix(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 5000 + b"old tail\n")

        def chunks():
            yield b"first\n"
            yield b"second\n"
            raise RuntimeError("renderer failed")

        with pytest.raises(RuntimeError, match="renderer failed"):
            write_text(path, chunks())
        assert path.read_bytes() == b"first\nsecond\n"
