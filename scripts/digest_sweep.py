"""Digest every artifact of the shipped configs and of the benchmark's configs.

    python3 scripts/digest_sweep.py ROOT

ROOT must not exist yet. The sweep runs the configs in ``configs/`` and
seeds 1-3 of every benchmark workload (the full-size configs that
``perfbench/workloads.py`` writes) through ``recurlab.cli.run_config`` of
the checkout that holds this script, all outputs under ROOT. It then
writes ``ROOT/digests.txt``: one ``relative-path exit-code`` line per run
and one ``relative-path sha256`` line per artifact (each report.json,
translation set, signal file and sidecar; not the manifests, which record
wall times). Two checkouts give byte-identical artifacts when
``diff A/digests.txt B/digests.txt`` prints nothing.
"""

import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
sys.dont_write_bytecode = True   # leave no cache files in the benchmark's directory

import workloads  # noqa: E402
from recurlab.cli import run_config  # noqa: E402

SEEDS = (1, 2, 3)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep(root):
    """Run every config into root; returns the lines of digests.txt."""
    runs = [(root / "configs", path) for path in sorted((REPO / "configs").glob("*.yaml"))]
    for workload in workloads.SIZES["full"]:
        for seed in SEEDS:
            run_root = root / f"{workload}-{seed}"
            runs += [(run_root, case.path)
                     for case in workloads.generate(workload, seed, run_root)]
    lines = []
    for run_root, path in runs:
        code, _ = run_config(path, run_root)
        lines.append(f"{run_root.relative_to(root) / path.name} exit {code}")
    # a run root holds its inputs; each run's artifacts sit one directory down
    run_roots = {run_root for run_root, _ in runs}
    lines += [f"{p.relative_to(root)} {_sha256(p)}" for p in sorted(root.rglob("*"))
              if p.is_file() and p.parent not in run_roots and p.name != "manifest.json"]
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    root.mkdir(parents=True)
    lines = sweep(root)
    (root / "digests.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} lines in {root / 'digests.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
