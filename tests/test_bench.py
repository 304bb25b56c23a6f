"""scripts/bench.py: the schema of a BENCH_<TAG>.json file, and what the benchmark's metrics assume of src/."""

import ast
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _check_schema(data: dict, workloads) -> None:
    assert set(data) == {"tag", "seed", "seconds", "provenance", "workloads"}
    prov = data["provenance"]
    assert set(prov) == {*bench.PROVENANCE, "checkout"}
    assert set(prov["checkout"]) == {"name", "path_sha256"} and len(prov["checkout"]["path_sha256"]) == 64
    assert isinstance(prov["nproc"], int) and prov["nproc"] >= 1
    assert set(data["workloads"]) == set(workloads)
    for last in data["workloads"].values():
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == {"setup_s", "pass_cal_ratio", "peak_rss_mib"}
        for metric in last["metrics"].values():
            assert set(metric) == {"value", "unit"} and metric["value"] > 0


def test_bench_writes_its_schema_on_a_one_second_energy_run(tmp_path, capsys):
    argv = ["--tag", "smoke", "--workloads", "energy", "--seconds", "1", "--out", str(tmp_path)]
    assert bench.main(argv) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "BENCH_smoke.json")
    data = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    _check_schema(data, ["energy"])
    assert (data["tag"], data["seed"], data["seconds"]) == ("smoke", 0, 1.0)
    assert data["workloads"]["energy"]["correct"] is True
    assert data["provenance"]["checkout"]["name"] == ROOT.name


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_follow_the_schema(path):
    data = json.loads(path.read_text())
    _check_schema(data, bench.WORKLOADS)
    assert path.name == f"BENCH_{data['tag']}.json"
    assert all(last["correct"] is True for last in data["workloads"].values())


def test_bench_refuses_a_tag_that_is_not_a_file_name(tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        bench.main(["--tag", "../x", "--out", str(tmp_path)])
    assert stop.value.code == 2
    assert "--tag" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _nested_imports(source: str) -> set[int]:
    """The line of every import statement inside a function or lambda of source."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return {
        inner.lineno
        for node in ast.walk(ast.parse(source)) if isinstance(node, functions)
        for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))
    }


def test_no_module_in_src_imports_inside_a_function():
    # the benchmark runs each kdvlab exp pass in a fresh interpreter without
    # bytecode files: an import inside a function would move its import and
    # compile cost out of setup_s and into pass_cal_ratio and peak_rss_mib
    assert _nested_imports("import math\ndef f():\n    from os import path\ng = lambda: __import__('os')\n") == {3}
    modules = sorted((ROOT / "src" / "kdvlab").glob("*.py"))
    assert len(modules) >= 10
    assert {path.name: lines for path in modules if (lines := _nested_imports(path.read_text()))} == {}


def _references(node: ast.AST) -> Counter:
    """How often each name is used in node, as a name or an attribute: strings, comments and imports do not count."""
    return Counter(
        inner.id if isinstance(inner, ast.Name) else inner.attr
        for inner in ast.walk(node) if isinstance(inner, (ast.Name, ast.Attribute))
    )


def _attributes(node: ast.AST) -> Counter:
    """How often each name is used in node as an attribute."""
    return Counter(inner.attr for inner in ast.walk(node) if isinstance(inner, ast.Attribute))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreferenced(modules: list[str], callers: list[str]) -> list[str]:
    """Top-level functions and classes of modules used nowhere but in their own definition, and methods and
    properties of those classes (dunders aside) that no attribute access reaches outside their own body;
    a name used only by other such names counts as unused too.  Attribute accesses are matched by name
    alone, so a method whose name another class's attribute shares is always counted as used."""
    trees = [ast.parse(source) for source in modules + callers]
    refs = sum(map(_references, trees), Counter())
    attrs = sum(map(_attributes, trees), Counter())
    # each definition: its label, the uses it is looked up in and how its own body counts them
    defs = {}
    for node in (node for tree in trees[: len(modules)] for node in tree.body):
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            defs[node] = (node.name, refs, _references)
        if isinstance(node, ast.ClassDef):
            defs.update({
                method: (f"{node.name}.{method.name}", attrs, _attributes) for method in node.body
                if isinstance(method, _FUNCTIONS) and not (method.name.startswith("__") and method.name.endswith("__"))
            })
    dead = []
    while found := [d for d, (_, uses, own) in defs.items() if d not in dead and uses[d.name] == own(d)[d.name]]:
        for d in found:
            refs -= _references(d)
            attrs -= _attributes(d)
        dead += found
    return sorted(defs[d][0] for d in dead)


def test_every_top_level_name_in_src_is_used_outside_the_tests():
    # src/ holds what a run, a command, the benchmark or a script calls: a
    # function, class, method or property that only tests call is deleted,
    # and its behaviour is tested through the names that src/ keeps
    toy = "def f():\n    return g('h')\n\n\ndef g():\n    return g()\n\n\ndef h():\n    pass\n"
    assert _unreferenced([toy], ["h()  # f\n"]) == ["f", "g"]
    toy = (
        "class C:\n    def used(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.unused()\n\n    def __len__(self):\n        return 0\n"
    )
    assert _unreferenced([toy], ["C().used()  # unused\n"]) == ["C.unused"]

    def sources(folder: str) -> list[str]:
        return [path.read_text() for path in sorted((ROOT / folder).glob("*.py"))]

    assert _unreferenced(sources("src/kdvlab"), sources("perfbench") + sources("scripts")) == []
