"""CLI outputs pinned byte for byte.

``GOLDENS`` maps every pinned output file to the CLI arguments that write it
and the sha256 of its bytes.  The test regenerates all of them through the
CLI in one fresh interpreter with one BLAS thread, the way the pins were
taken, and compares the hashes.  ``goldens.tar.xz`` next to this file holds
the pinned bytes themselves (about 22 kB for 105 MB of output), so a
mismatch names the first line that differs.

To re-pin, run ``python tests/test_goldens.py``: it regenerates every
output, rewrites the archive and prints the new hashes for ``GOLDENS``.
"""

import hashlib
import json
import lzma
import os
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

GOLDENS = {
    "ghz_d3_n3.json": (_GHZ_D3_N3, "613be0d465e2daaa7c60c5594f8700043b9872500acbd2722fba0d0f9c532185"),
    "ghz_d4_n2.json": (_GHZ_D4_N2, "f78e40515621a75684e611a3eb946ba681c4cb9df450e247298e0095b2e65d1d"),
    "ghz_d2_n4.json": (_GHZ_D2_N4, "f0cab689940f5a90aab5318d25e1146a248ca00c467541209b1efa7d6785033a"),
    "pd8.json": (_PD8, "028e6e5f954930efdb5da5970d4d7e5d46c9a6d77b1147b0193b745d4a4b848c"),
    "bip3.json": (_BIP3, "fb88faed571d90383069f3ed08b96749a6e77597951891f9ac7afcdfd8eb4460"),
    "pdskew.json": (_PDSKEW, "7afa500b0259db8b4589da6397507c8f708bc4e41b8bb6d6b8afe8a4dcc7fd88"),
    "ghz_d3_n3.csv": (_GHZ_D3_N3 + _CSV, "01d2f078683c31526df7ae49881caaa8cffa43c44e8eba857a9f786241074648"),
    "ghz_d4_n2.csv": (_GHZ_D4_N2 + _CSV, "fcee5bc68f34fb1967b04fb6b1f6a9003d647fea290ace6ded3bcb92a88dba8e"),
    "ghz_d2_n4.csv": (_GHZ_D2_N4 + _CSV, "01ce71963b625570d884874d7d26aa313e354bd3cbedd21864ad014c59a53a2d"),
    "pd8.csv": (_PD8 + _CSV, "43f4b1fc2d7d015678a22fdfce349dfd7f7c6c1015f99dc17dce68948fe56a8c"),
    "bip3.csv": (_BIP3 + _CSV, "84ffc237c28442c0db122860c132f7b02b14038828d825dbe7ca0536f43645a1"),
    "pdskew.csv": (_PDSKEW + _CSV, "900f227496c7515d75b3f22c367f36acea5bc0e355c4e328c925b66c23af7ba7"),
    "sweep_pd.csv": (("sweep", "private-dit") + _ALPHA, "155aa4fe7b32d7cbea802715c4a36d9662281d353d1f5403051e0408a33058b0"),
    "sweep_bip.csv": (("sweep", "bipartite") + _ALPHA, "f36a4d0fe3c08064dda7770ca24673d12464116db0ee7ccb1d92a5e76f19611c"),
    "sweep_ghz.csv": (("sweep", "ghz") + _ALPHA, "f36a4d0fe3c08064dda7770ca24673d12464116db0ee7ccb1d92a5e76f19611c"),
    "fixed_d3.json": (("run", "fixed-baseline", "--d", "3"), "6affcd9857a4b238fa66314a5fbdf683e95bac95614348e15cb17f9ad025c63d"),
    "ghz_d5_n2.json": (("run", "ghz", "--d", "5", "--receivers", "2"), "f1d78d1d5dcb9b7396b2d0ed10893788da78e0b96d7ba877b7cb7f4f19597e70"),
    "ghz_d2_n5.json": (("run", "ghz", "--d", "2", "--receivers", "5"), "9afc90247948ec2003104b7d0774555095cec6fe9116889e24f8b6b515fb3044"),
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


def regenerate(out_dir: Path) -> None:
    """Write every pinned output into ``out_dir``, one BLAS thread, default guards."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    env.pop("QSWITCH_MAX_DIM", None)
    commands = [[*args, "--out", name] for name, (args, _) in GOLDENS.items()]
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


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_output_matches_pinned_hash(regenerated, name):
    got = (regenerated / name).read_bytes()
    if _sha256(got) != GOLDENS[name][1]:
        pytest.fail(f"{name} differs from its pin at {first_difference(_pinned_bytes(name), got)}")


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
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
        with tarfile.open(_ARCHIVE, "w:xz", preset=9 | lzma.PRESET_EXTREME) as tar:
            for name in sorted(GOLDENS):
                info = tar.gettarinfo(Path(tmp, name), arcname=name)
                info.mtime, info.uid, info.gid, info.uname, info.gname = 0, 0, 0, "", ""
                with open(Path(tmp, name), "rb") as fh:
                    tar.addfile(info, fh)
                print(_sha256(Path(tmp, name).read_bytes()), name)
