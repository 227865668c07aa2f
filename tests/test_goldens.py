"""CLI outputs pinned byte for byte.

``GOLDENS`` maps every pinned output file to the CLI arguments that write it
and the sha256 of its bytes.  The test regenerates all of them through the
CLI in one fresh interpreter with one BLAS thread, the way the pins were
taken, and compares the hashes.  ``goldens.tar.xz`` next to this file holds
the pinned bytes themselves (about 22 kB for 105 MB of output), so a
mismatch names the first line that differs.  A second regeneration runs
under another OpenBLAS kernel (``OPENBLAS_CORETYPE=Prescott``, which every
x86-64 CPU runs) with numpy's AVX2 and AVX-512 dispatch disabled: the
protocols' stages, branches and probabilities pass through no BLAS product
and no fused complex multiply, so every output keeps its bytes there.

To re-pin, run ``python tests/test_goldens.py``: it regenerates every
output, prints for each changed one its old and new hash and the first line
that moved, rewrites the archive and prints the new hashes for ``GOLDENS``.
"""

import hashlib
import json
import lzma
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import pytest

_ARCHIVE = Path(__file__).with_name("goldens.tar.xz")
_SRC = Path(__file__).resolve().parent.parent / "src"

_GHZ_D3_N3 = ("run", "ghz", "--d", "3", "--receivers", "3")
_GHZ_D4_N2 = ("run", "ghz", "--d", "4", "--receivers", "2")
_GHZ_D2_N4 = ("run", "ghz", "--d", "2", "--receivers", "4")
_PD8 = ("run", "private-dit", "--d", "8", "--x", "3")
_BIP3 = ("run", "bipartite", "--d", "3")
_PDSKEW = ("run", "private-dit", "--d", "3", "--x", "2", "--resource", "schmidt:0.2,0.3,0.5")
_CSV = ("--format", "csv")
_ALPHA = ("--receivers", "2", "--d", "2", "--alpha", "0:1:101")
_SWEEP_BIP = "f36a4d0fe3c08064dda7770ca24673d12464116db0ee7ccb1d92a5e76f19611c"

GOLDENS = {
    "ghz_d3_n3.json": (_GHZ_D3_N3, "f61cd26dee9db86ffcc8f1021c47aaec8c77bd101452ea2f5a29942fee38cbd4"),
    "ghz_d4_n2.json": (_GHZ_D4_N2, "401011ce79b011eefe92528c263cbede7769789d68332377af399c9876ecb4d3"),
    "ghz_d2_n4.json": (_GHZ_D2_N4, "a16ed0194c1faa47873dca1a6be039b98328fadd78b6211b79383bab2692b3ce"),
    "pd8.json": (_PD8, "539e6d0d7bb61ac21d0c671b60a341df8b8f16a31b35f1c241412e4d78505532"),
    "bip3.json": (_BIP3, "49c00e0970e023c76ee85aab8cd29e6104f8d2791bb61434e95f33beebbdeee7"),
    "pdskew.json": (_PDSKEW, "3df55c911301fc44f86ebc45750bdada6ede60df30e5d2efd3dd6d26d1bc1333"),
    "ghz_d3_n3.csv": (_GHZ_D3_N3 + _CSV, "01d2f078683c31526df7ae49881caaa8cffa43c44e8eba857a9f786241074648"),
    "ghz_d4_n2.csv": (_GHZ_D4_N2 + _CSV, "fcee5bc68f34fb1967b04fb6b1f6a9003d647fea290ace6ded3bcb92a88dba8e"),
    "ghz_d2_n4.csv": (_GHZ_D2_N4 + _CSV, "01ce71963b625570d884874d7d26aa313e354bd3cbedd21864ad014c59a53a2d"),
    "pd8.csv": (_PD8 + _CSV, "43f4b1fc2d7d015678a22fdfce349dfd7f7c6c1015f99dc17dce68948fe56a8c"),
    "bip3.csv": (_BIP3 + _CSV, "84ffc237c28442c0db122860c132f7b02b14038828d825dbe7ca0536f43645a1"),
    "pdskew.csv": (_PDSKEW + _CSV, "38c8a293f5c622a29968bce55e6929cd88d7b6ef4f9f41980b626bfd438bd9e5"),
    "sweep_pd.csv": (("sweep", "private-dit") + _ALPHA, "155aa4fe7b32d7cbea802715c4a36d9662281d353d1f5403051e0408a33058b0"),
    "sweep_bip.csv": (("sweep", "bipartite") + _ALPHA, _SWEEP_BIP),
    "sweep_ghz.csv": (("sweep", "ghz") + _ALPHA, _SWEEP_BIP),
    # three and four receivers: dimensions 32 and 64, the product endpoints
    # on a trimmed support
    "sweep_ghz3.csv": (("sweep", "ghz", "--receivers", "3") + _ALPHA[2:], _SWEEP_BIP),
    "sweep_ghz4.csv": (("sweep", "ghz", "--receivers", "4") + _ALPHA[2:], _SWEEP_BIP),
    "fixed_d3.json": (("run", "fixed-baseline", "--d", "3"), "100ff92093f7065837d5e8e40d7dd17dcafdc21e945483ee8b222427721855cd"),
    "ghz_d5_n2.json": (("run", "ghz", "--d", "5", "--receivers", "2"), "0b190ffa0121da2233d539a9d654b81050b86c2d20a16660ed7aa1947131bd22"),
    "ghz_d2_n5.json": (("run", "ghz", "--d", "2", "--receivers", "5"), "ac484a1c0588564bf25999cd307ec4364c8fd18427019e9978a6d899ae2043d2"),
    # the establishment from a non-maximal resource, and the classical-flag encodings
    "bip3_skew.json": (_BIP3 + _PDSKEW[-2:], "8398ddd75af61efead3816d518cd90e3910be0695bc03052074cf9b1a08177f5"),
    "fixed_d3_flag.json": (("run", "fixed-baseline", "--d", "3", "--encodings", "classical-flag"), "e15ba50aead1144eda5eac7e3ce6539970239d38c7d6e5bd9b3558cbc8039f0e"),
}

# runs each argument list through the CLI's own entry point; a nonzero exit
# ends the interpreter with that code
_DRIVER = """
import json, sys
from qswitch_lab.cli import main
for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        if exc.code:
            raise
"""


def regenerate(out_dir: Path, env: dict | None = None, names=GOLDENS) -> None:
    """Write the pinned outputs ``names`` (every one by default) into
    ``out_dir``, one BLAS thread, default guards; ``env`` adds variables to
    the interpreter's environment."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    env.pop("QSWITCH_MAX_DIM", None)
    commands = [[*GOLDENS[name][0], "--out", name] for name in names]
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(commands)],
        cwd=out_dir, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned_bytes(name: str) -> bytes:
    with tarfile.open(_ARCHIVE, "r:xz") as tar:
        return tar.extractfile(name).read()


def first_difference(pinned: bytes, got: bytes) -> str:
    """The first line (1-based) where two texts differ, with both versions."""
    old, new = pinned.splitlines(keepends=True), got.splitlines(keepends=True)
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {number}: pinned {a[:200]!r}, got {b[:200]!r}"
    return f"pinned text has {len(old)} lines, regenerated text {len(new)}"


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("goldens")
    regenerate(out_dir)
    return out_dir


def assert_pinned(out_dir: Path, name: str) -> None:
    got = (out_dir / name).read_bytes()
    if _sha256(got) != GOLDENS[name][1]:
        pytest.fail(f"{name} differs from its pin at {first_difference(_pinned_bytes(name), got)}")


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_pinned_hash(regenerated, name):
    assert_pinned(regenerated, name)


def test_output_over_a_longer_stale_file(tmp_path):
    # the file holds the pinned text and a stale tail, as a later run finds an
    # earlier one's output; writing over it in place must cut the tail
    name = "pdskew.json"
    (tmp_path / name).write_bytes(_pinned_bytes(name) + b"stale tail\n")
    regenerate(tmp_path, names=[name])
    assert_pinned(tmp_path, name)


@pytest.fixture(scope="module")
def regenerated_on_prescott(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("goldens_prescott")
    # a numpy built without one of these dispatch groups only warns (ImportWarning)
    regenerate(out_dir, {"OPENBLAS_CORETYPE": "Prescott",
                         "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})
    return out_dir


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_pinned_hash_on_another_blas_kernel(regenerated_on_prescott, name):
    assert_pinned(regenerated_on_prescott, name)


def test_archive_holds_the_pinned_bytes():
    with tarfile.open(_ARCHIVE, "r:xz") as tar:
        names = tar.getnames()
        assert sorted(names) == sorted(GOLDENS)
        for name in names:
            assert _sha256(tar.extractfile(name).read()) == GOLDENS[name][1], name


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nB\nc\n") == "line 2: pinned b'b\\n', got b'B\\n'"
    assert first_difference(b"a\n", b"a\nb\n") == "pinned text has 1 lines, regenerated text 2"


if __name__ == "__main__":
    with tarfile.open(_ARCHIVE, "r:xz") as tar:
        archived = set(tar.getnames())
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
        for name in sorted(GOLDENS):
            got = Path(tmp, name).read_bytes()
            if _sha256(got) != GOLDENS[name][1]:
                print(f"{name}: {GOLDENS[name][1]} -> {_sha256(got)}")
                if name in archived:  # a new output has no pinned text yet
                    print(f"  {first_difference(_pinned_bytes(name), got)}")
        with tarfile.open(_ARCHIVE, "w:xz", preset=9 | lzma.PRESET_EXTREME) as tar:
            for name in sorted(GOLDENS):
                info = tar.gettarinfo(Path(tmp, name), arcname=name)
                info.mtime, info.uid, info.gid, info.uname, info.gname = 0, 0, 0, "", ""
                with open(Path(tmp, name), "rb") as fh:
                    tar.addfile(info, fh)
                print(_sha256(Path(tmp, name).read_bytes()), name)
