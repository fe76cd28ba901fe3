import inspect
import re
from pathlib import Path

from fmasim import errors, fma, scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_rule_list_names_every_ruled_field():
    text = README.read_text(encoding="utf-8")
    rules = text[text.index("A scenario is checked and sized when it is built") : text.index("## Determinism")]
    ruled = [
        (cls.__name__, name)
        for module in (fma, scenario)
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        for name in getattr(cls, "RULES", {})
    ]
    assert {cls for cls, _ in ruled} == {
        "StarCompoundGeometry", "PrimeMoverParams", "DualActuatorModel",
        "BurrDisturbance", "FmaScenario", "ForceControlScenario",
    }
    assert [pair for pair in ruled if f"`{pair[1]}`" not in rules] == []


def test_readme_library_layout_names_every_shared_check():
    text = README.read_text(encoding="utf-8")
    layout = next(part for part in text.split("\n## ") if part.startswith("Library layout"))
    public = [
        name
        for name, f in vars(errors).items()
        if inspect.isfunction(f) and f.__module__ == errors.__name__ and not name.startswith("_")
    ]
    assert public
    assert [name for name in public if f"`{name}`" not in layout] == []
