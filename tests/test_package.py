"""The package's public surface, its import layering and the README's Python examples."""

import ast
import re
import types
from pathlib import Path

import pvdstego
from pvdstego.codec import DEFAULT_WIDTHS
from pvdstego.imagery import save_pgm, synthetic_cover

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# each module imports only from modules before it; README gives the same order
LAYERS = ("codec", "imagery", "metrics", "pvd", "apvd", "oracle", "cli")


def test_public_surface():
    for name in pvdstego.__all__:
        getattr(pvdstego, name)
    public = {
        name
        for name, value in vars(pvdstego).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(pvdstego.__all__)
    assert pvdstego.build_range_table is pvdstego.RangeTable
    assert pvdstego.RangeTable().widths == pvdstego.RangeTable(DEFAULT_WIDTHS).widths


def test_modules_import_downward_and_use_what_they_import():
    sources = {p.stem: p for p in (ROOT / "src" / "pvdstego").glob("*.py") if p.stem != "__init__"}
    assert set(sources) == set(LAYERS)
    for layer, module in enumerate(LAYERS):
        tree = ast.parse(sources[module].read_text(), str(sources[module]))
        imported, used = {}, set()
        for node in ast.walk(tree):  # function bodies too
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
                if isinstance(node, ast.ImportFrom) and node.level:
                    targets = [node.module] if node.module else [a.name for a in node.names]
                    for target in targets:
                        assert LAYERS.index(target) < layer, (
                            f"{module}.py:{node.lineno} imports {target}, which is not below it"
                        )
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, f"{module}.py imports names it never uses: {unused}"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cover.pgm").write_bytes(save_pgm(synthetic_cover("noise", 64, 64)))
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"<README.md python block {number}>", "exec"), namespace)
