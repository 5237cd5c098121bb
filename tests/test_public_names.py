"""Code that no driver reaches gets deleted: every public function and
public method in ``src/star_isac`` must be referenced by name from some
package module or from the benchmark (``perfbench/*.py``). A name that
only tests call is a second way in to code the drivers already reach.

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


def referenced_names():
    """Every name the drivers load, import or read as an attribute."""
    names = set()
    for path in DRIVERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_callable_is_reached_by_a_driver():
    used = referenced_names()
    unreached = sorted(qualified for qualified, name in public_callables().items()
                       if name not in used and qualified not in ALLOWED)
    assert unreached == [], ("no driver references these public names; delete "
                             "them or make them private: "
                             + ", ".join(unreached))


def test_allowlist_names_only_unreached_callables():
    found, used = public_callables(), referenced_names()
    stale = sorted(qualified for qualified in ALLOWED
                   if qualified not in found or found[qualified] in used)
    assert stale == []
