#!/usr/bin/env python3
"""AST-grounded semantic lint + module-layer DAG check (DESIGN.md §13).

tools/lint_determinism.py matches source *text*, so a type alias defeats it:
`using Rng = std::mt19937; Rng rng;` never spells the banned token on the
use site, and a range-for over a member whose unordered type lives in a
header two includes away never matches the same-file declaration regex.
This lint closes those holes by looking at what names *mean*:

  rng        — a declaration whose CANONICAL type is a std RNG engine
               (std::mt19937 is an alias for mersenne_twister_engine<...>;
               resolving to the canonical spelling means user aliases,
               `auto`, and member typedefs cannot hide it).
  unordered-iteration — a range-for whose range expression's canonical type
               is std::unordered_{map,set,multimap,multiset}, wherever the
               declaration lives (other file, alias, member typedef).
  sweep-capture — a default-by-reference capture `[&]`/`[&, ...]` anywhere
               inside the argument list of a run::parallel_for or
               run::run_sweep call, across line breaks (the regex lint only
               sees same-line captures).
  layer-dag  — an #include edge that climbs the module-layer DAG declared
               in tools/layers.toml: module A may include module B only if
               A == B or B's rank is strictly lower. Same-rank modules are
               mutually off limits; a src/ module absent from layers.toml
               is itself a finding.
  hot-path-alloc — a direct heap allocation in a file tagged as engine hot
               path (a comment containing `streamcast: hot-path`): any
               `new` expression or `std::vector<` spelling, and any
               node-based or hashed container spelling (`std::map<`,
               `std::set<`, `std::unordered_map<`, `std::unordered_set<`),
               which allocates per element and chases pointers on every
               lookup. Hot-path containers live on the per-engine
               util::Arena (util::ArenaVector) or in flat, indexed vectors;
               cold-path members that allocate once at construction carry a
               suppression. Uniquely for this rule the
               suppression may sit on the line ABOVE the declaration
               (long member declarations cannot fit an 80-column trailing
               comment).
  policy-dispatch — a `case Recovery...::` arm or a switch over a
               RecoveryMode expression outside src/policy/: strategy
               dispatch was extracted behind the policy registry
               (src/policy/registry.hpp), and a re-inlined switch is a
               site every future strategy silently misses. Callers route
               through policy::recovery_policy(name) instead.

Engines (--engine auto|clang|builtin, default auto):

  clang    — libclang (python `clang.cindex`): real canonical types from a
             real parse. CI pins and installs it; see .github/workflows.
  builtin  — no dependencies: a whole-tree alias/typedef table resolved to
             canonical type names, plus paren-balanced scanning for
             multi-line sweep captures. Strictly stronger than the regex
             lint on these rules, but an approximation of the clang
             engine; `auto` picks clang when importable and prints a
             visible warning when it has to fall back.

The layer-dag and hot-path-alloc rules are textual and run under both
engines.

Suppress a deliberate use with a same-line comment:  // lint: allow(<rule>)

Usage: tools/lint_ast.py [dir|file ...] [--layers tools/layers.toml]
                         [--engine auto|clang|builtin]
Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_determinism import ALLOW, strip_comments_and_strings  # noqa: E402

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
    tomllib = None

REPO = Path(__file__).resolve().parent.parent
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}
DEFAULT_DIRS = ["src", "tests", "bench"]

# The std <random> engine names (all alias templates except random_device)
# and the class templates they canonicalize to. Both spellings are banned:
# the builtin engine resolves aliases down to whichever name the chain ends
# at, the clang engine sees only the canonical template.
RNG_ALIASES = {
    "std::mt19937", "std::mt19937_64", "std::minstd_rand", "std::minstd_rand0",
    "std::default_random_engine", "std::knuth_b", "std::ranlux24",
    "std::ranlux48", "std::ranlux24_base", "std::ranlux48_base",
    "std::random_device",
}
RNG_CANONICAL = re.compile(
    r"\bstd::(mersenne_twister_engine|linear_congruential_engine|"
    r"subtract_with_carry_engine|discard_block_engine|"
    r"shuffle_order_engine|random_device)\b"
)
UNORDERED = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")

Finding = tuple[Path, int, str, str]


def relpath(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(REPO))
    except ValueError:
        return str(path)


class Source:
    """One parsed file: raw lines for reporting/suppression, stripped lines
    (comments and strings blanked) for matching."""

    def __init__(self, path: Path):
        self.path = path
        text = path.read_text(encoding="utf-8")
        self.raw_lines = text.splitlines()
        self.code = strip_comments_and_strings(text)
        self.code_lines = self.code.splitlines()

    def allowed(self, lineno: int, rule: str) -> bool:
        if lineno < 1 or lineno > len(self.raw_lines):
            return False
        m = ALLOW.search(self.raw_lines[lineno - 1])
        return bool(m) and m.group(1) == rule

    def snippet(self, lineno: int) -> str:
        if lineno < 1 or lineno > len(self.raw_lines):
            return ""
        return self.raw_lines[lineno - 1].strip()


# --------------------------------------------------------------------------
# layer-dag (textual; both engines)
# --------------------------------------------------------------------------

INCLUDE_SRC = re.compile(r'^\s*#\s*include\s+"src/([^"]+)"')


def load_layers(layers_path: Path):
    if tomllib is None:
        raise RuntimeError("tomllib unavailable; cannot check layer DAG")
    with open(layers_path, "rb") as fh:
        data = tomllib.load(fh)
    rank = {}
    for level, group in enumerate(data.get("ranks", [])):
        for module in group:
            rank[module] = level
    overrides = dict(data.get("overrides", {}))
    return rank, overrides


def module_of(rel_to_src: str, overrides: dict[str, str]) -> str:
    """Module of a path expressed relative to a src/ root, e.g.
    'core/config.hpp' -> the override 'config', 'sim/engine.cpp' -> 'sim'."""
    if rel_to_src in overrides:
        return overrides[rel_to_src]
    return rel_to_src.split("/", 1)[0]


def src_relative(path: Path) -> str | None:
    """Path relative to the innermost src/ component, None if not under
    one (tests and benches are above the DAG and exempt)."""
    parts = path.resolve().parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "src":
            return "/".join(parts[i:])
    return None


def check_layers(src: Source, rank, overrides) -> list[Finding]:
    rel = src_relative(src.path)
    if rel is None:
        return []
    me = module_of(rel, overrides)
    findings: list[Finding] = []
    if me not in rank:
        findings.append(
            (src.path, 1, "layer-dag",
             f"module '{me}' is not declared in layers.toml")
        )
        return findings
    # Raw lines: the include path is a string literal, which the
    # comment/string stripper would blank out.
    for lineno, line in enumerate(src.raw_lines, start=1):
        m = INCLUDE_SRC.match(line)
        if not m:
            continue
        target = module_of(m.group(1), overrides)
        if target == me:
            continue
        if target not in rank:
            if not src.allowed(lineno, "layer-dag"):
                findings.append(
                    (src.path, lineno, "layer-dag",
                     f"include of undeclared module '{target}'")
                )
            continue
        if rank[target] >= rank[me] and not src.allowed(lineno, "layer-dag"):
            findings.append(
                (src.path, lineno, "layer-dag",
                 f"'{me}' (rank {rank[me]}) must not include '{target}' "
                 f"(rank {rank[target]}): edges go strictly down the DAG")
            )
    return findings


# --------------------------------------------------------------------------
# hot-path-alloc (textual; both engines)
# --------------------------------------------------------------------------

HOT_PATH_TAG = re.compile(r"streamcast:\s*hot-path")
HOT_ALLOC = re.compile(
    r"\bnew\b|\bstd::(?:vector|map|set|unordered_map|unordered_set)\s*<")


def check_hot_path_alloc(src: Source) -> list[Finding]:
    """In files carrying the hot-path tag, every `new` expression and every
    `std::vector<`, `std::map<`, `std::set<`, `std::unordered_map<` or
    `std::unordered_set<` spelling needs an explicit allow — the hot path
    allocates through the engine arena (util::ArenaVector) or keeps flat,
    indexed state, and anything else must be visibly declared cold."""
    if not any(HOT_PATH_TAG.search(line) for line in src.raw_lines):
        return []
    findings: list[Finding] = []
    for lineno, line in enumerate(src.code_lines, start=1):
        if not HOT_ALLOC.search(line):
            continue
        if (src.allowed(lineno, "hot-path-alloc")
                or src.allowed(lineno - 1, "hot-path-alloc")):
            continue
        findings.append(
            (src.path, lineno, "hot-path-alloc", src.snippet(lineno)))
    return findings


# --------------------------------------------------------------------------
# policy-dispatch (textual; both engines)
# --------------------------------------------------------------------------

POLICY_DISPATCH = re.compile(
    r"\bcase\s+(?:\w+\s*::\s*)*Recovery\w*\s*::"
    r"|\bswitch\s*\([^)]*\bRecoveryMode\b"
)


def check_policy_dispatch(src: Source) -> list[Finding]:
    """Outside src/policy/, switching on a recovery strategy type re-inlines
    the monolithic RecoveryMode dispatch the policy registry replaced — a
    site every future strategy silently misses. Callers select behavior via
    policy::recovery_policy(name) instead."""
    if "src/policy/" in relpath(src.path).replace("\\", "/"):
        return []
    findings: list[Finding] = []
    for lineno, line in enumerate(src.code_lines, start=1):
        if not POLICY_DISPATCH.search(line):
            continue
        if src.allowed(lineno, "policy-dispatch"):
            continue
        findings.append(
            (src.path, lineno, "policy-dispatch", src.snippet(lineno)))
    return findings


# --------------------------------------------------------------------------
# builtin engine: whole-tree alias resolution + paren-balanced scanning
# --------------------------------------------------------------------------

USING_ALIAS = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+?)\s*;")
TYPEDEF = re.compile(r"\btypedef\s+(.+?)\s+(\w+)\s*;")


def collect_aliases(sources: list[Source]) -> dict[str, str]:
    """name -> right-hand type text, across the whole tree. Scope-less by
    design: a lint prefers a rare false positive (suppressible) to an
    evasion, and the repo's alias names are unique in practice."""
    aliases: dict[str, str] = {}
    for src in sources:
        for line in src.code_lines:
            for m in USING_ALIAS.finditer(line):
                aliases[m.group(1)] = m.group(2)
            for m in TYPEDEF.finditer(line):
                aliases[m.group(2)] = m.group(1)
    return aliases


def canonical_type(text: str, aliases: dict[str, str]) -> str:
    """Resolve a type expression through the alias table to the name its
    chain bottoms out at (template arguments and qualifiers stripped)."""
    seen: set[str] = set()
    t = text.strip()
    while True:
        t = re.sub(r"\b(const|volatile|typename|struct|class)\b", " ", t)
        t = t.replace("&", " ").replace("*", " ").strip()
        base = t.split("<", 1)[0].strip()
        # Member typedefs are looked up by their last component.
        key = base.split("::")[-1].strip()
        if key in aliases and key not in seen:
            seen.add(key)
            t = aliases[key]
            continue
        return base


def banned_alias_names(aliases: dict[str, str], pattern: re.Pattern,
                       direct: set[str] | None = None) -> set[str]:
    names = set()
    for name in aliases:
        canon = canonical_type(name, aliases)
        if pattern.search(canon) or (direct and canon in direct):
            names.add(name)
    return names


def builtin_rng(sources: list[Source], aliases: dict[str, str]
                ) -> list[Finding]:
    """Flag the std engines by name AND any declaration/construction
    through an alias that canonicalizes to one."""
    rng_aliases = banned_alias_names(
        aliases, RNG_CANONICAL, RNG_ALIASES)
    direct = re.compile(
        r"\b(" + "|".join(re.escape(n) for n in sorted(RNG_ALIASES)) + r")\b"
        + "|" + RNG_CANONICAL.pattern
    )
    use_patterns = [
        # Declaration or construction through the alias:  Rng r;  Rng{...}
        re.compile(r"\b(" + re.escape(n) + r")\s*(?:<[^;]*>)?\s*"
                   r"(?:\w+\s*[;({=]|[({])")
        for n in sorted(rng_aliases)
    ] + [
        # Member-typedef use:  Foo::engine_type r;
        re.compile(r"\w+::(" + re.escape(n) + r")\b")
        for n in sorted(rng_aliases)
    ]
    findings: list[Finding] = []
    for src in sources:
        for lineno, line in enumerate(src.code_lines, start=1):
            hit = bool(direct.search(line)) or any(
                p.search(line) for p in use_patterns)
            if hit and not src.allowed(lineno, "rng"):
                findings.append(
                    (src.path, lineno, "rng", src.snippet(lineno)))
    return findings


RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*([^)]+)\)")
LAST_IDENT = re.compile(r"(\w+)\s*(?:\(\s*\))?\s*$")


def builtin_unordered(sources: list[Source], aliases: dict[str, str]
                      ) -> list[Finding]:
    """Range-for over a variable whose declared type canonicalizes to an
    unordered container — declaration may live in any file (headers
    included), through any alias chain."""
    unordered_aliases = banned_alias_names(aliases, UNORDERED)
    type_names = [r"std::unordered_(?:map|set|multimap|multiset)"] + [
        re.escape(n) for n in sorted(unordered_aliases)
    ]
    decl = re.compile(
        r"\b(?:" + "|".join(type_names) + r")\s*(?:<[^;{}()]*>)?\s+(\w+)\s*[;{=(]"
    )
    unordered_vars: set[str] = set()
    for src in sources:
        for line in src.code_lines:
            for m in decl.finditer(line):
                unordered_vars.add(m.group(1))
    findings: list[Finding] = []
    if not unordered_vars:
        return findings
    for src in sources:
        for lineno, line in enumerate(src.code_lines, start=1):
            m = RANGE_FOR.search(line)
            if not m:
                continue
            last = LAST_IDENT.search(m.group(1).strip())
            if (last and last.group(1) in unordered_vars
                    and not src.allowed(lineno, "unordered-iteration")):
                findings.append(
                    (src.path, lineno, "unordered-iteration",
                     src.snippet(lineno))
                )
    return findings


SWEEP_CALL = re.compile(r"\b(parallel_for|run_sweep)\s*\(")
REF_DEFAULT = re.compile(r"\[\s*&\s*[\],]")


def builtin_sweep_capture(sources: list[Source]) -> list[Finding]:
    """Default-by-reference capture anywhere inside the parenthesized
    argument list of a parallel_for/run_sweep call — across newlines,
    which the one-line regex rule cannot see."""
    findings: list[Finding] = []
    for src in sources:
        code = src.code
        for call in SWEEP_CALL.finditer(code):
            depth = 0
            i = call.end() - 1
            while i < len(code):
                c = code[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif c == "[":
                    m = REF_DEFAULT.match(code, i)
                    if m:
                        lineno = code.count("\n", 0, i) + 1
                        if not src.allowed(lineno, "sweep-capture"):
                            findings.append(
                                (src.path, lineno, "sweep-capture",
                                 src.snippet(lineno))
                            )
                i += 1
    return findings


def run_builtin(sources: list[Source]) -> list[Finding]:
    aliases = collect_aliases(sources)
    findings: list[Finding] = []
    findings += builtin_rng(sources, aliases)
    findings += builtin_unordered(sources, aliases)
    findings += builtin_sweep_capture(sources)
    return findings


# --------------------------------------------------------------------------
# clang engine: canonical types from a real parse
# --------------------------------------------------------------------------

LIBCLANG_CANDIDATES = [
    "/usr/lib/llvm-14/lib/libclang-14.so.1",
    "/usr/lib/llvm-14/lib/libclang.so.1",
    "/usr/lib/x86_64-linux-gnu/libclang-14.so.1",
]


def load_cindex():
    """Returns (cindex module, None) or (None, reason)."""
    try:
        import clang.cindex as ci
    except ImportError as exc:
        return None, f"python clang bindings unavailable ({exc})"
    for candidate in LIBCLANG_CANDIDATES:
        if Path(candidate).is_file():
            try:
                ci.Config.set_library_file(candidate)
            except Exception:  # already configured; keep going
                pass
            break
    try:
        ci.Index.create()
    except Exception as exc:
        return None, f"libclang not loadable ({exc})"
    return ci, None


def clang_lint_file(ci, index, src: Source) -> list[Finding]:
    tu = index.parse(
        str(src.path),
        args=["-std=c++20", f"-I{REPO}", "-x", "c++"],
    )
    findings: list[Finding] = []
    this_file = str(src.path)

    def canonical(node_type) -> str:
        try:
            return node_type.get_canonical().spelling
        except Exception:
            return ""

    def emit(node, rule: str):
        lineno = node.location.line
        if not src.allowed(lineno, rule):
            findings.append((src.path, lineno, rule, src.snippet(lineno)))

    def lambda_has_ref_default(node) -> bool:
        tokens = []
        for tok in node.get_tokens():
            tokens.append(tok.spelling)
            if tok.spelling == "]" or len(tokens) > 8:
                break
        return (len(tokens) >= 3 and tokens[0] == "["
                and tokens[1] == "&" and tokens[2] in ("]", ","))

    def walk(node, in_sweep_call: bool):
        loc = node.location
        in_this_file = loc.file is not None and loc.file.name == this_file
        kind = node.kind.name
        if in_this_file:
            if kind in ("VAR_DECL", "FIELD_DECL", "PARM_DECL"):
                if RNG_CANONICAL.search(canonical(node.type)):
                    emit(node, "rng")
            elif kind == "CXX_FOR_RANGE_STMT":
                children = list(node.get_children())
                # Layout: [loop variable decl, range expression, body].
                for child in children:
                    if child.kind.name in ("VAR_DECL", "COMPOUND_STMT"):
                        continue
                    if UNORDERED.search(canonical(child.type)):
                        emit(node, "unordered-iteration")
                    break
            elif kind == "LAMBDA_EXPR" and in_sweep_call:
                if lambda_has_ref_default(node):
                    emit(node, "sweep-capture")
        sweep = in_sweep_call
        if kind == "CALL_EXPR" and node.spelling in (
                "parallel_for", "run_sweep"):
            sweep = True
        for child in node.get_children():
            walk(child, sweep)

    walk(tu.cursor, False)
    return findings


def run_clang(ci, sources: list[Source]) -> list[Finding]:
    index = ci.Index.create()
    findings: list[Finding] = []
    for src in sources:
        findings.extend(clang_lint_file(ci, index, src))
    return findings


# --------------------------------------------------------------------------


def gather_files(roots: list[str]) -> list[Path] | None:
    files: list[Path] = []
    for root in roots:
        base = Path(root) if Path(root).exists() else REPO / root
        if base.is_file():
            files.append(base)
        elif base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*"))
                if p.suffix in SOURCE_SUFFIXES
                # Deliberately-violating golden fixtures are linted only
                # when named explicitly (their runner passes the dir).
                and ("lint_fixtures" not in p.parts
                     or "lint_fixtures" in base.parts)
            )
        else:
            print(f"lint_ast: no such file or directory: {root}",
                  file=sys.stderr)
            return None
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="AST-grounded semantic lint + layer DAG check")
    parser.add_argument("roots", nargs="*", default=DEFAULT_DIRS,
                        help="directories or files (default: src tests bench)")
    parser.add_argument("--layers", default=str(REPO / "tools/layers.toml"),
                        help="layer DAG declaration (TOML)")
    parser.add_argument("--engine", choices=["auto", "clang", "builtin"],
                        default="auto")
    parser.add_argument("--no-layers", action="store_true",
                        help="skip the layer-dag rule (fixture runs)")
    args = parser.parse_args(argv[1:])

    files = gather_files(args.roots or DEFAULT_DIRS)
    if files is None:
        return 2
    sources = [Source(p) for p in files]

    engine = args.engine
    ci = None
    if engine in ("auto", "clang"):
        ci, reason = load_cindex()
        if ci is None:
            if engine == "clang":
                print(f"lint_ast: --engine clang requested but {reason}",
                      file=sys.stderr)
                return 2
            print(
                "lint_ast: WARNING: falling back to builtin semantic engine "
                f"({reason}); canonical-type checks are approximated",
                file=sys.stderr,
            )
            engine = "builtin"
        else:
            engine = "clang"

    if engine == "clang":
        findings = run_clang(ci, sources)
    else:
        findings = run_builtin(sources)

    for src in sources:
        findings.extend(check_hot_path_alloc(src))
        findings.extend(check_policy_dispatch(src))

    if not args.no_layers:
        layers_path = Path(args.layers)
        if not layers_path.is_file():
            print(f"lint_ast: layers file not found: {layers_path}",
                  file=sys.stderr)
            return 2
        try:
            rank, overrides = load_layers(layers_path)
        except RuntimeError as exc:
            print(f"lint_ast: {exc}", file=sys.stderr)
            return 2
        for src in sources:
            findings.extend(check_layers(src, rank, overrides))

    findings.sort(key=lambda f: (str(f[0]), f[1], f[2]))
    for path, lineno, rule, detail in findings:
        print(f"{relpath(path)}:{lineno}: [{rule}] {detail}")

    if findings:
        print(
            f"lint_ast: {len(findings)} finding(s) in {len(files)} files "
            f"(engine: {engine})",
            file=sys.stderr,
        )
        return 1
    print(f"lint_ast: clean ({len(files)} files, engine: {engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
