import importlib
import json
import pathlib
import pkgutil
import re

import cycleflow
from cycleflow.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    # the README's Python example runs as written, asserts included
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_readme_sample_run_prints_what_it_shows(tmp_path, capsys,
                                                monkeypatch):
    # the README's harris_discrete model file, run through its sample
    # command: the lines it shows, up to "...", open the printed report
    text = README.read_text(encoding="utf-8")
    models = text[text.index("\n## Model files\n"):]
    block = re.search(r"```jsonc\n(.*?)```", models, re.S).group(1)
    doc = block[block.index('{"kind": "harris_discrete"'):]
    doc = json.loads(re.sub(r"//[^\n]*", "", doc))
    run = re.search(r"```\n\$ cycleflow (.*?)\n(.*?\n)\.\.\.\n", text, re.S)
    args = run.group(1).split()
    shown = run.group(2).splitlines()
    (tmp_path / args[1]).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CYCLEFLOW_SEED", raising=False)
    assert main(args) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[:len(shown)] == shown


def test_readme_dotted_names_resolve():
    # every backticked dotted name whose head, after a leading
    # "cycleflow.", is a package module or a public name still exists
    modules = {info.name for info in pkgutil.iter_modules(cycleflow.__path__)}
    text = README.read_text(encoding="utf-8")
    checked = []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text))):
        head, *rest = name.removeprefix("cycleflow.").split(".")
        if head in modules:
            obj = importlib.import_module("cycleflow." + head)
        elif head in cycleflow.__all__:
            obj = getattr(cycleflow, head)
        else:
            continue
        for attr in rest:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        checked.append(name)
    assert checked
