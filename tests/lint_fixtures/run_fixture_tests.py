#!/usr/bin/env python3
"""Golden fixture tests for tools/lint_ast.py (run from CTest).

Each fixture directory contains a `bad/` tree that must produce findings of
a specific rule in specific files and/or a `clean/` tree that must produce
none. For every rule whose violation hides behind an alias, a member
typedef, or a line break, the runner additionally proves the REGEX lint
misses it: tools/lint_determinism.py must exit 0 on the violating file that
lint_ast flags. That asymmetry — semantic engine catches, regex engine
passes — is the contract this whole fixture suite pins down.

Exit status: 0 all expectations hold, 1 otherwise.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINT_AST = REPO / "tools" / "lint_ast.py"
LINT_REGEX = REPO / "tools" / "lint_determinism.py"

failures: list[str] = []


def run(cmd: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable] + cmd, capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout + proc.stderr


def lint_ast(paths: list[Path], extra: list[str] | None = None):
    return run([str(LINT_AST), *map(str, paths), *(extra or [])])


def check(name: str, ok: bool, detail: str = ""):
    if ok:
        print(f"  PASS  {name}")
    else:
        print(f"  FAIL  {name}\n{detail}")
        failures.append(name)


def expect_finding(name: str, target: Path, rule: str, in_file: str,
                   extra: list[str] | None = None):
    code, out = lint_ast([target], extra)
    hit = any(f"[{rule}]" in line and in_file in line
              for line in out.splitlines())
    check(name, code == 1 and hit, out)


def expect_clean(name: str, target: Path, extra: list[str] | None = None):
    code, out = lint_ast([target], extra)
    check(name, code == 0, out)


def expect_regex_misses(name: str, violating_file: Path):
    code, out = run([str(LINT_REGEX), str(violating_file)])
    check(name, code == 0,
          f"regex lint unexpectedly caught it:\n{out}")


def main() -> int:
    # rng via file-level alias: lint_ast flags the use site, regex cannot.
    expect_finding("rng alias: semantic engine flags use.cpp",
                   HERE / "rng_alias" / "bad", "rng", "use.cpp")
    expect_regex_misses("rng alias: regex lint misses use.cpp",
                        HERE / "rng_alias" / "bad" / "use.cpp")
    expect_clean("rng alias: util::Prng alias stays clean",
                 HERE / "rng_alias" / "clean")

    # rng via member typedef: second alias shape the regex provably misses.
    expect_finding("rng member typedef: semantic engine flags use.cpp",
                   HERE / "rng_member_typedef" / "bad", "rng", "use.cpp")
    expect_regex_misses("rng member typedef: regex lint misses use.cpp",
                        HERE / "rng_member_typedef" / "bad" / "use.cpp")

    # unordered iteration via alias declared in a header.
    expect_finding("unordered alias: semantic engine flags iterate.cpp",
                   HERE / "unordered_alias" / "bad",
                   "unordered-iteration", "iterate.cpp")
    expect_regex_misses("unordered alias: regex lint misses iterate.cpp",
                        HERE / "unordered_alias" / "bad" / "iterate.cpp")
    expect_clean("unordered alias: ordered iteration stays clean",
                 HERE / "unordered_alias" / "clean")

    # multi-line [&] into parallel_for.
    expect_finding("sweep capture: multi-line [&] flagged",
                   HERE / "sweep_capture" / "bad",
                   "sweep-capture", "sweep.cpp")
    expect_regex_misses("sweep capture: regex lint misses multi-line [&]",
                        HERE / "sweep_capture" / "bad" / "sweep.cpp")
    expect_clean("sweep capture: named captures stay clean",
                 HERE / "sweep_capture" / "clean")

    # hot-path-alloc: tagged files ban raw new / std::vector spellings and
    # node-based or hashed containers.
    expect_finding("hot-path alloc: raw new flagged in tagged file",
                   HERE / "hot_path_alloc" / "bad",
                   "hot-path-alloc", "hot.cpp")
    code, out = lint_ast([HERE / "hot_path_alloc" / "bad" / "hot.cpp"])
    check("hot-path alloc: vector spelling also flagged",
          code == 1 and sum("[hot-path-alloc]" in line
                            for line in out.splitlines()) >= 2, out)
    code, out = lint_ast(
        [HERE / "hot_path_alloc" / "bad" / "node_containers.cpp"])
    flagged = [line for line in out.splitlines() if "[hot-path-alloc]" in line]
    check("hot-path alloc: map/set/unordered_map/unordered_set all flagged",
          code == 1 and all(
              any(f"std::{name}<" in line for line in flagged)
              for name in ("map", "set", "unordered_map", "unordered_set")),
          out)
    expect_clean("hot-path alloc: arena alias + allow markers stay clean",
                 HERE / "hot_path_alloc" / "clean")

    # layer DAG: upward and same-rank edges, against the real layers.toml.
    expect_finding("layer DAG: upward include flagged",
                   HERE / "layer_dag" / "bad", "layer-dag", "up.hpp")
    expect_finding("layer DAG: same-rank include flagged",
                   HERE / "layer_dag" / "bad", "layer-dag", "peer.hpp")
    expect_clean("layer DAG: downward includes stay clean",
                 HERE / "layer_dag" / "clean")

    # policy-dispatch: recovery strategy switches stay behind the registry.
    expect_finding("policy dispatch: case arm flagged outside src/policy",
                   HERE / "policy_dispatch" / "bad",
                   "policy-dispatch", "dispatch.cpp")
    code, out = lint_ast([HERE / "policy_dispatch" / "bad"])
    check("policy dispatch: every arm and the switch expression flagged",
          code == 1 and sum("[policy-dispatch]" in line
                            for line in out.splitlines()) >= 4, out)
    expect_clean("policy dispatch: src/policy path and allow markers clean",
                 HERE / "policy_dispatch" / "clean")

    # allow() suppressions silence both rules.
    expect_clean("suppression: allow() markers honored",
                 HERE / "suppression")

    print()
    if failures:
        print(f"lint fixtures: {len(failures)} expectation(s) FAILED")
        return 1
    print("lint fixtures: all expectations hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
