#!/usr/bin/env python3
"""Run presets through execute() and print a SHA-256 digest of every artifact.

Each named preset (all eight when none is named) runs at full length into
OUTDIR/<preset>, and one `<preset>/<file> <sha256>` line is printed per
artifact, by preset and then by file name. A snapshots.npz is hashed key by key, because its zip
entries record the time they were written. Two checkouts give byte-identical
artifacts exactly when their outputs compare equal:

    PYTHONPATH=src python3 scripts/artifact_digests.py /tmp/a > a.txt
    diff a.txt b.txt
"""

import argparse
import hashlib
from pathlib import Path

import numpy as np

from gkdv.harness import execute, preset, preset_names


def digest(path: Path) -> str:
    """sha256 of the file's bytes, or of an npz archive's keys and arrays."""
    h = hashlib.sha256()
    if path.suffix != ".npz":
        h.update(path.read_bytes())
        return h.hexdigest()
    with np.load(path) as archive:
        for key in sorted(archive.files):
            arr = archive[key]
            h.update(f"{key} {arr.dtype.str} {arr.shape}\n".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def preset_digests(outdir: Path, names) -> list:
    """'<preset>/<file> <sha256>' for every artifact of every named preset."""
    lines = []
    for name in names:
        execute(preset(name), outdir / name)
        lines += [f"{name}/{f.name} {digest(f)}" for f in sorted((outdir / name).iterdir())]
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="directory the runs write into")
    parser.add_argument("presets", nargs="*", metavar="PRESET",
                        help=f"any of {', '.join(preset_names())}; all when none is named")
    args = parser.parse_args()
    unknown = sorted(set(args.presets) - set(preset_names()))
    if unknown:
        parser.error(f"unknown presets {unknown}")
    print("\n".join(preset_digests(args.outdir, args.presets or preset_names())))


if __name__ == "__main__":
    main()
