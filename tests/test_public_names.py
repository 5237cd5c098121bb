"""Code that no driver reaches gets deleted: every public function and
public method in ``src/star_isac`` must be referenced from some package
module or from the benchmark (``perfbench/*.py``). A name that only
tests call is a second way in to code the drivers already reach.

A module function counts as referenced only where the reference names
its module: ``physics.reward``, ``from .physics import reward``, or a
load of ``reward`` inside ``physics`` itself. A method counts by its
bare name, since its receiver's class is not known without running.

The check reads the sources with ``ast`` and imports nothing.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "star_isac"
DRIVERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# public names that no driver calls, each kept for the reason given
ALLOWED = {
    "physics.optimal_filter":
        "the paper's receive filter, which tests hold evaluate's closed-form "
        "echo SNR to",
    "physics.echo_snr_lower_bound":
        "the paper's echo SNR bound, which tests hold evaluate's closed "
        "form to",
    "ddpg.train":
        "DDPG's training loop, which run_seed reaches through "
        "AGENTS[...][0].train",
    "sac.train":
        "SAC's training loop, which run_seed reaches through "
        "AGENTS[...][0].train",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_callables():
    """{"module.name" or "module.Class.name": bare name} of every public
    module function and every public method of a public class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            public = not getattr(node, "name", "_").startswith("_")
            if isinstance(node, FUNCTIONS) and public:
                found[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and public:
                for item in node.body:
                    if (isinstance(item, FUNCTIONS)
                            and not item.name.startswith("_")):
                        found[f"{path.stem}.{node.name}.{item.name}"] = \
                            item.name
    return found


def references(source: str, module: str):
    """Every bare name ``source`` (the text of module ``module``) loads,
    imports or reads as an attribute, and a "module.name" for each
    reference that names its module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
            if isinstance(node.ctx, ast.Load):
                names.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            value = node.value
            owner = getattr(value, "id", getattr(value, "attr", None))
            if owner is not None:
                names.add(f"{owner}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            stem = node.module.rsplit(".", 1)[-1]
            names.update(f"{stem}.{alias.name}" for alias in node.names)
        if isinstance(node, ast.alias):
            names.add(node.name)
    return names


def referenced_names():
    """``references`` over every driver."""
    return set().union(*(references(path.read_text(), path.stem)
                         for path in DRIVERS))


def reached(qualified: str, name: str, used) -> bool:
    """A module function by its qualified name, a method by its bare one."""
    return (qualified if qualified.count(".") == 1 else name) in used


def test_module_functions_match_by_qualified_name():
    def reaches(source, module="driver"):
        return reached("physics.reward", "reward", references(source, module))

    assert not reaches("out.reward")
    assert not reaches("reward(x)")
    assert reaches("physics.reward(cfg, out)")
    assert reaches("x.physics.reward")
    assert reaches("from .physics import reward")
    assert reaches("from star_isac.physics import reward")
    assert reaches("reward(x)", module="physics")
    # a method still counts by its bare name, whatever its receiver
    assert reached("env.SecureIsacEnv.step", "step",
                   references("e.step()", "driver"))


def test_every_public_callable_is_reached_by_a_driver():
    used = referenced_names()
    unreached = sorted(qualified for qualified, name in public_callables().items()
                       if not reached(qualified, name, used)
                       and qualified not in ALLOWED)
    assert unreached == [], ("no driver references these public names; delete "
                             "them or make them private: "
                             + ", ".join(unreached))


def test_allowlist_names_only_unreached_callables():
    found, used = public_callables(), referenced_names()
    stale = sorted(qualified for qualified in ALLOWED
                   if qualified not in found
                   or reached(qualified, found[qualified], used))
    assert stale == []
