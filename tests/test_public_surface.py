"""Every public name of clawlab has a program caller or a stated reason.

A public function or class of a clawlab module (every one in
clawlab.__all__ among them), and a public method or property of such a
class, counts as used when program code refers to it: a module of
src/clawlab other than __init__.py (outside the name's own definition),
demos/*.py or bench/*.py. References are read from the
syntax trees, so a docstring or comment that mentions a name does not
count. A name that only tests call is folded into the sibling that
computes the same bits, or it is listed in KEEP with the reason it stays.
This test reads bench/ and never writes it.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import clawlab

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted(
    [p for p in (ROOT / "src" / "clawlab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "bench").glob("*.py"))
)

KEEP = {
    # reference implementations that tests compare the fast paths against
    "interface_flux": "the extremum-rule flux through interface_state; the max-rule "
    "kernel of run_godunov is checked against it bit for bit",
    "godunov_step": "one literal Godunov step; test_run_matches_public_step_by_step "
    "checks run_godunov against it step by step",
    "numerical_ep": "the per-step entropy ledger of a list of grids; the same test "
    "checks run_godunov's step_ep against it",
    "jump_ep_rate_kinetic": "the signed rate by level quadrature without F, the check "
    "of jump_ep_rate that shares nothing with it",
    # checks and constructions a user needs
    "validate_pair": "audits a user's entropy pair against the flux",
    "kruzhkov_pair": "the Kruzhkov entropy pairs of the selection principle",
    "check_e_condition_samples": "the E-condition on a user's own point samples",
    "check_e_condition_fan": "the E-condition on an exact Riemann fan, beside "
    "check_e_condition_state on a tracked snapshot",
    "resolve_jump": "the tracker's jump resolution, for one jump",
    "from_fan": "a Riemann fan as a snapshot at time t",
    "hopf_lax_minimizer": "the minimizer y* of the Hopf-Lax formula, which the exact "
    "Lax-Oleinik values will read",
    "fan_from_dict": "reads back and re-validates the fans that clawlab riemann writes "
    "with fan_to_dict",
    "validate_flux": "audits a user flux built by make_convex_flux",
    "fan_ordering_holds": "whether a chain of states can form a fan at all; "
    "test_descending_splits_always_regress reads it unedited",
    "fan_weak_residual": "a fan's signed residual against one bump; fan_max_residual "
    "takes the max of the same front sums over a battery",
    "BumpTest.dt_part": "T', which the pre-telescoping reference _pointwise_front_sum "
    "in tests/test_weak.py integrates",
}


def _references() -> set[tuple[str, bool, str | None]]:
    """(identifier, whether it is an attribute, its owner) for every Name
    and Attribute that program code reads.

    The owner is the enclosing top-level function or class, or "Class.method"
    inside a method, so a definition's references to itself can be told apart.
    """
    refs = set()
    for path in PROGRAM:
        for top in ast.parse(path.read_text()).body:
            parts = [(getattr(top, "name", None), top)]
            if isinstance(top, ast.ClassDef):
                parts = [(f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body]
            for owner, node in parts:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        refs.add((sub.id, False, owner))
                    elif isinstance(sub, ast.Attribute):
                        refs.add((sub.attr, True, owner))
    return refs


def _definition(member) -> str:
    """Qualified name of the def behind a function, class, property or classmethod."""
    member = getattr(member, "fget", None) or getattr(member, "__func__", member)
    return member.__qualname__


def _public_surface() -> dict[str, str]:
    """The public functions and classes of every clawlab module, those of
    clawlab.__all__ among them, and the public methods and properties of
    those classes, each mapped to the definition it names."""
    surface = {}
    for info in pkgutil.iter_modules(clawlab.__path__):
        module = importlib.import_module(f"clawlab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                surface[name] = _definition(obj)
            elif inspect.isclass(obj):
                surface[name] = _definition(obj)
                for base in obj.__mro__:
                    if not base.__module__.startswith("clawlab."):
                        continue
                    for attr, member in vars(base).items():
                        if not attr.startswith("_") and (
                            inspect.isfunction(member)
                            or isinstance(member, (property, classmethod, staticmethod))
                        ):
                            surface.setdefault(f"{name}.{attr}", _definition(member))
    return surface


REFERENCES = _references()
SURFACE = _public_surface()


def _has_caller(name: str) -> bool:
    """A method is read as an attribute; a function or class either way."""
    cls, _, ident = name.rpartition(".")
    defn = SURFACE[name]
    return any(
        ref == ident and (attr or not cls)
        and owner != defn and not str(owner).startswith(defn + ".")
        for ref, attr, owner in REFERENCES
    )


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_public_name_has_a_program_caller_or_a_reason(name):
    assert _has_caller(name) or name in KEEP, (
        f"{name} has no caller in src/clawlab, demos or bench: fold it into its "
        "sibling or give it a reason in KEEP"
    )


def test_every_kept_name_is_public_and_has_no_program_caller():
    for name in KEEP:
        assert name in SURFACE, f"{name} is not public"
        assert not _has_caller(name), f"{name} has a program caller; drop it from KEEP"
