"""The package's public surface and the README's Python examples."""

import re
import types
from pathlib import Path

import pvdstego
from pvdstego.codec import DEFAULT_WIDTHS
from pvdstego.imagery import save_pgm, synthetic_cover

README = Path(__file__).resolve().parent.parent / "README.md"


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
    assert pvdstego.RangeTable() == pvdstego.RangeTable(DEFAULT_WIDTHS)


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cover.pgm").write_bytes(save_pgm(synthetic_cover("noise", 64, 64)))
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"<README.md python block {number}>", "exec"), namespace)
