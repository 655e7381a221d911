#!/usr/bin/env python
"""Cross-reference checker for the repository's Markdown documentation.

Four classes of reference are validated so broken pointers fail the build
(via ``tests/test_docs.py`` and ``tools/smoke.sh``):

1. **Markdown links** — every relative ``[text](path#anchor)`` in a ``*.md``
   file must point at an existing file, and the ``#anchor`` (if any) must
   match a heading slug (GitHub style) or an explicit ``<a id="...">`` in the
   target.
2. **Source mentions** — ``SOMEFILE.md``, ``SOMEFILE.md#anchor``, and
   ``SOMEFILE.md Section N`` references inside Python docstrings/comments
   under ``src/``, ``examples/``, ``benchmarks/``, ``tests/``, and
   ``tools/`` must resolve against the repository root: the file must exist,
   a ``#anchor`` must resolve, and ``Section N`` must match a numbered
   heading (``## N. ...``).
3. **Benchmark references** — every ``BENCH_<name>.json`` named in
   ``BENCH_DOCS`` must exist at the repository root, so a claim never cites
   a reference file that is not there.  ROADMAP.md is exempt: it names
   planned benchmarks that do not exist yet.
4. **Code references** — every backticked dotted name in ``CODE_DOCS`` that
   starts with a ``repro`` subpackage (``service.shards``,
   ``repro.core.plancache``, ``bench.parallel.TaskPool``) must name an
   existing module, and the component after the module, if any, must be
   defined or imported at that module's top level.  CHANGES.md and
   ROADMAP.md are exempt: they name deleted and planned code.

Run directly (``python tools/check_doc_links.py``); exits nonzero listing
every broken reference.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories scanned for SOMEFILE.md mentions in Python sources.
SOURCE_DIRS = ("src", "examples", "benchmarks", "tests", "tools")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MD_EXPLICIT_ANCHOR = re.compile(r'<a\s+id="([^"]+)"')
#: UPPERCASE.md[#anchor] mentions in source text (README.md, DESIGN.md, ...).
SRC_MENTION = re.compile(r"\b([A-Z][A-Z_]*\.md)(#[A-Za-z0-9_-]+)?")
SRC_SECTION = re.compile(r"\b([A-Z][A-Z_]*\.md)\s+Section\s+(\d+)")

#: Documents whose ``BENCH_<name>.json`` mentions must name committed files.
BENCH_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md")
BENCH_MENTION = re.compile(r"\bBENCH_\w+\.json\b")

#: Documents whose backticked ``repro`` dotted names must name real code.
CODE_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
#: A backticked span that is exactly a dotted name (``a.b`` or longer).
DOTTED_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug: lowercase, punctuation dropped."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


#: Generated research-note files whose outbound links we do not police
#: (arxiv extractions carry image references that were never downloaded).
GENERATED_MD = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}


def md_files() -> list[Path]:
    return sorted(p for p in REPO_ROOT.rglob("*.md")
                  if ".git" not in p.parts and "output" not in p.parts
                  and p.name not in GENERATED_MD)


@functools.lru_cache(maxsize=None)
def anchors_of(md_path: Path) -> frozenset[str]:
    """All valid ``#anchor`` targets of one Markdown file (parsed once)."""
    anchors: set[str] = set()
    text = md_path.read_text(encoding="utf-8")
    in_code = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        m = re.match(r"#{1,6}\s+(.*)", line)
        if m:
            anchors.add(github_slug(m.group(1)))
    anchors.update(MD_EXPLICIT_ANCHOR.findall(text))
    return frozenset(anchors)


def check_markdown_links(errors: list[str]) -> None:
    for md in md_files():
        base = md.parent
        for target in MD_LINK.findall(md.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = md if not path_part else (base / path_part)
            rel = md.relative_to(REPO_ROOT)
            if not dest.exists():
                errors.append(f"{rel}: link target {target!r} does not exist")
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in anchors_of(dest):
                    errors.append(
                        f"{rel}: anchor {target!r} not found in "
                        f"{dest.relative_to(REPO_ROOT)}")


def check_source_mentions(errors: list[str]) -> None:
    for top in SOURCE_DIRS:
        root = REPO_ROOT / top
        if not root.exists():
            continue
        for py in sorted(root.rglob("*.py")):
            if py.resolve() == Path(__file__).resolve():
                continue  # this file's docstring uses placeholder names
            text = py.read_text(encoding="utf-8")
            rel = py.relative_to(REPO_ROOT)
            for name, anchor in SRC_MENTION.findall(text):
                doc = REPO_ROOT / name
                if not doc.exists():
                    errors.append(f"{rel}: mentions missing document {name}")
                elif anchor and anchor[1:] not in anchors_of(doc):
                    errors.append(f"{rel}: anchor {name}{anchor} not found")
            for name, number in SRC_SECTION.findall(text):
                doc = REPO_ROOT / name
                if not doc.exists():
                    continue  # already reported above
                headings = re.findall(r"#{1,6}\s+(.*)", doc.read_text())
                if not any(re.match(rf"{number}[.\s]", h) for h in headings):
                    errors.append(
                        f"{rel}: {name} has no numbered heading for "
                        f"'Section {number}'")


def check_bench_references(errors: list[str]) -> None:
    for name in BENCH_DOCS:
        text = (REPO_ROOT / name).read_text(encoding="utf-8")
        for bench in sorted(set(BENCH_MENTION.findall(text))):
            if not (REPO_ROOT / bench).exists():
                errors.append(f"{name}: names {bench}, which is not at the "
                              "repository root")


@functools.lru_cache(maxsize=None)
def top_level_names(module_path: Path) -> frozenset[str]:
    """Names a module defines or imports at its top level."""
    names: set[str] = set()
    for node in ast.parse(module_path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return frozenset(names)


def resolve_code_reference(dotted: str) -> str | None:
    """Why ``dotted`` names no code, or ``None`` if it does.

    Names whose first part (after an optional ``repro.``) is not a
    ``repro`` subpackage are not code references and always resolve.
    """
    parts = dotted.split(".")
    if parts[0] == "repro":
        parts = parts[1:]
    module = PACKAGE_ROOT / parts[0] / "__init__.py"
    if not module.exists():
        return None
    for i, part in enumerate(parts[1:], start=1):
        package = module.parent if module.name == "__init__.py" else None
        if package and (package / part / "__init__.py").exists():
            module = package / part / "__init__.py"
        elif package and (package / f"{part}.py").exists():
            module = package / f"{part}.py"
        elif part in top_level_names(module):
            return None
        else:
            return f"{'.'.join(parts[:i])} has no module or name {part!r}"
    return None


def check_code_references(errors: list[str], docs=CODE_DOCS,
                          root: Path = REPO_ROOT) -> None:
    for name in docs:
        text = FENCE.sub("", (root / name).read_text(encoding="utf-8"))
        for dotted in sorted(set(DOTTED_NAME.findall(text))):
            problem = resolve_code_reference(dotted)
            if problem is not None:
                errors.append(f"{name}: `{dotted}` names no code: {problem}")


def main() -> int:
    """Run all four checks; print a report and return the exit code."""
    errors: list[str] = []
    check_markdown_links(errors)
    check_source_mentions(errors)
    check_bench_references(errors)
    check_code_references(errors)
    if errors:
        print(f"{len(errors)} broken documentation reference(s):")
        for err in errors:
            print(f"  {err}")
        return 1
    print("documentation cross-references OK "
          f"({len(md_files())} markdown files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
