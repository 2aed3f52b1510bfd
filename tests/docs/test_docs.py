"""Documentation health checks: links, code references, doc contracts.

The docs suite (``docs/*.md`` + ``README.md``) names files, modules and
symbols; nothing stops them rotting as the code moves — except this
module:

* every relative markdown link resolves to an existing file;
* every backtick-quoted ``repro...`` module path imports, and every
  backtick-quoted repo path (``src/...``, ``tests/...``,
  ``benchmarks/...``, ``examples/...``, ``docs/...``) exists;
* the docstring contracts of ISSUE 4 hold: public classes/functions in
  the core subsystem modules carry docstrings (mirrors the ruff
  ``D1xx`` selection in ``ruff.toml``, so the check also runs where
  ruff is not installed), and every benchmark/example states what it
  demonstrates, its expected runtime and the ``REPRO_*`` knobs;
* ``docs/benchmarks.md`` indexes every benchmark and example file;
* every public definition in ``src/repro`` is used by the library, a
  benchmark or an example (or is listed, with a reason, as kept), and
  every ``__all__`` entry resolves (mirrors ruff ``F822``).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOCS = sorted((REPO / "docs").glob("*.md"))
DOC_FILES = DOCS + [REPO / "README.md"]

#: backtick-quoted repo-relative paths, e.g. `benchmarks/bench_fleet_scaling.py`
PATH_REF = re.compile(
    r"`((?:src|tests|benchmarks|examples|docs)/[\w./\-]+|[\w.\-]+\.(?:md|py|toml|yml))`"
)
#: backtick-quoted module dotted paths, e.g. `repro.core.autoscaling`
MODULE_REF = re.compile(r"`(repro(?:\.\w+)+)`")
#: markdown links [text](target)
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def doc_ids(paths):
    return [str(path.relative_to(REPO)) for path in paths]


def heading_slugs(md_path: Path) -> set[str]:
    """GitHub-style anchor slugs for every heading in a markdown file."""
    slugs = set()
    for line in md_path.read_text().splitlines():
        match = re.match(r"#{1,6}\s+(.*)", line)
        if match:
            title = re.sub(r"[^\w\s-]", "", match.group(1).lower()).strip()
            slugs.add(title.replace(" ", "-"))
    return slugs


@pytest.mark.parametrize("doc", DOC_FILES, ids=doc_ids(DOC_FILES))
def test_markdown_links_resolve(doc):
    """Every relative link resolves — including its heading anchor."""
    text = doc.read_text()
    for target in LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path, _, fragment = target.partition("#")
        resolved = (doc.parent / path).resolve() if path else doc
        assert resolved.exists(), f"{doc.name}: broken link -> {target}"
        if fragment and resolved.suffix == ".md":
            assert fragment in heading_slugs(resolved), (
                f"{doc.name}: link anchor #{fragment} matches no heading "
                f"in {resolved.name}"
            )


@pytest.mark.parametrize("doc", DOC_FILES, ids=doc_ids(DOC_FILES))
def test_referenced_paths_exist(doc):
    """Backtick-quoted repo paths in the docs exist on disk."""
    text = doc.read_text()
    missing = []
    for ref in PATH_REF.findall(text):
        if "*" in ref:
            continue  # glob illustrations like benchmarks/results/*.txt
        if not (REPO / ref).exists():
            missing.append(ref)
    assert not missing, f"{doc.name}: dangling path references: {missing}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=doc_ids(DOC_FILES))
def test_referenced_modules_import(doc):
    """Backtick-quoted ``repro.*`` module paths in the docs import."""
    text = doc.read_text()
    for ref in set(MODULE_REF.findall(text)):
        module = ref
        for _ in range(2):
            try:
                importlib.import_module(module)
                break
            except ModuleNotFoundError:
                # the last component may be an attribute (class/function)
                module = module.rsplit(".", 1)[0]
        else:
            pytest.fail(f"{doc.name}: cannot import referenced module {ref}")


def test_docs_suite_exists():
    """The three ISSUE-4 guides ship and are non-trivial."""
    for name in ("architecture.md", "scaling.md", "benchmarks.md"):
        path = REPO / "docs" / name
        assert path.exists(), f"docs/{name} missing"
        assert len(path.read_text()) > 1000, f"docs/{name} looks like a stub"


# ---------------------------------------------------------------------------
# docstring contracts
# ---------------------------------------------------------------------------
CORE_MODULES = sorted((REPO / "src/repro/core").glob("*.py")) + [
    REPO / "src/repro/eval/runner.py"
]


def missing_docstrings(path: Path) -> list[str]:
    """Public defs without docstrings (mirrors ruff D100/D101/D102/D103)."""
    tree = ast.parse(path.read_text())
    out = []
    if ast.get_docstring(tree) is None:
        out.append("module")

    def walk(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not child.name.startswith("_") and ast.get_docstring(child) is None:
                    out.append(prefix + child.name)
                walk(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_") and ast.get_docstring(child) is None:
                    out.append(prefix + child.name)
                walk(child, prefix + child.name + ".")

    walk(tree)
    return out


@pytest.mark.parametrize("module", CORE_MODULES, ids=doc_ids(CORE_MODULES))
def test_core_public_api_is_documented(module):
    """Public classes/methods/functions in core modules have docstrings."""
    missing = missing_docstrings(module)
    assert not missing, f"{module.name}: missing docstrings on {missing}"


SCRIPTS = sorted((REPO / "benchmarks").glob("bench_*.py")) + sorted(
    (REPO / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", SCRIPTS, ids=doc_ids(SCRIPTS))
def test_benchmark_and_example_headers(script):
    """Each script states what it shows, its runtime and its env knobs."""
    doc = ast.get_docstring(ast.parse(script.read_text()))
    assert doc, f"{script.name} has no module docstring"
    assert "runtime" in doc.lower(), f"{script.name}: no expected-runtime note"
    assert "REPRO_" in doc, f"{script.name}: no REPRO_* env-knob note"


def test_benchmarks_index_covers_every_script():
    """docs/benchmarks.md lists every benchmark and example file."""
    index = (REPO / "docs" / "benchmarks.md").read_text()
    missing = [
        str(script.relative_to(REPO))
        for script in SCRIPTS
        if str(script.relative_to(REPO)) not in index
    ]
    assert not missing, f"docs/benchmarks.md does not index: {missing}"


# ---------------------------------------------------------------------------
# no dead definitions, no dangling exports
# ---------------------------------------------------------------------------
SRC = REPO / "src" / "repro"
#: ``.py`` files whose text counts as a use of a library definition
USING_FILES = [
    path
    for path in sorted((REPO / "src").rglob("*.py"))
    + sorted((REPO / "benchmarks").rglob("*.py"))
    + sorted((REPO / "examples").rglob("*.py"))
    if path.name != "__init__.py"
]

#: public definitions that nothing in the library, the benchmarks or the
#: examples names, kept on purpose
UNUSED_BY_DESIGN = {
    "nms": "public entry point the exactness tests drive into the live nms_keep",
    "match_greedy": "public entry point the exactness tests drive into the live greedy_matches",
    "fleet_fingerprint": "fingerprint helper the determinism and pin tests share",
    "paper_scale_config": "the paper's own hyper-parameters (Sec. IV-A) as a config, "
    "the documented mapping from the simulation-scale defaults",
    "estimate_alpha": "the paper's accuracy estimate α over a list of frames; the edge "
    "keeps running counts instead, and its test holds them to this definition",
}


def names_in_code(nodes) -> set[str]:
    """The identifiers code reads or binds under ``nodes``: names and
    attribute names, not words in comments, docstrings or strings."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def unused_definitions() -> set[str]:
    """Public top-level classes and functions in ``src/repro`` that no
    code names outside their own definition.

    A name counts as used where code in any other non-``__init__`` module
    of ``src/``, ``benchmarks/`` or ``examples/`` names it, or code in its
    own module outside its definition. ``__all__`` lists strings, and a
    package's re-export is not a use.
    """
    trees = {path: ast.parse(path.read_text()) for path in USING_FILES}
    names = {path: names_in_code([tree]) for path, tree in trees.items()}
    unused = set()
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        others = set().union(*(used for other, used in names.items() if other != path))
        for node in tree.body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)) or node.name.startswith("_"):
                continue
            own = names_in_code(other for other in tree.body if other is not node)
            if node.name not in own and node.name not in others:
                unused.add(node.name)
    return unused


def test_every_public_definition_is_used():
    """Library code that only its own tests call is deleted, not kept."""
    unused = unused_definitions()
    dead = sorted(unused - set(UNUSED_BY_DESIGN))
    assert not dead, f"public definitions nothing uses: {dead}"
    stale = sorted(set(UNUSED_BY_DESIGN) - unused)
    assert not stale, f"UNUSED_BY_DESIGN entries that are now used or gone: {stale}"


MODULES = sorted(
    ".".join(path.relative_to(REPO / "src").with_suffix("").parts).removesuffix(".__init__")
    for path in SRC.rglob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    """Each ``__all__`` entry names an attribute of its module (ruff F822)."""
    loaded = importlib.import_module(module)
    missing = [name for name in getattr(loaded, "__all__", ()) if not hasattr(loaded, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
