"""Record the reference output digests in refs/ from the current program.

    python3 perfbench/record.py [part ...]

Run at the commit whose outputs are the reference (the seed commit).  A
change that must keep outputs bit-identical never re-records them.
"""

from __future__ import annotations

import os
import shutil
import sys

from workloads import HERE, PARTS, REFS, load_program


def record(name: str, modules) -> int:
    workload = PARTS[name]()
    work = HERE / ".work" / f"record-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.prepare(modules, workload.build_urns(modules), work)
        lines = [f"# {name}: output digests of every pooled operation, by key"]
        lines += [f"{op.key} {op.check(op.run())}" for op in workload.pool()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFS.mkdir(exist_ok=True)
    (REFS / f"{name}.txt").write_text("\n".join(lines) + "\n")
    return len(lines) - 1


def main(argv) -> int:
    modules = load_program(HERE.parent)
    for name in argv or [n for n in PARTS if n != "verify"]:
        print(f"{name}: {record(name, modules)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
