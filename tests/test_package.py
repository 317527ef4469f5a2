"""The package namespace: every public name resolves on first access to
its submodule's own object, and ``import qfcert`` loads no submodule."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import qfcert

README = Path(__file__).resolve().parent.parent / "README.md"

# every name qfcert re-exported when it imported its submodules eagerly,
# by the submodule that defines it
EXPORTED = {
    "moebius": [
        "BASEPOINT", "BoundaryPoint", "BusemannGap", "Geodesic3", "INF",
        "IsometryClass", "IsometryKind", "LoxodromicData", "MoebiusError",
        "MoebiusMap", "Point3", "busemann_gap", "classify", "dist_h3",
        "dist_to_geodesic", "fixed_points", "geodesic_point",
        "normalizer_to_axis", "point_near_geodesic", "translation_length",
        "wrap_turns"],
    "surface_group": [
        "Word", "WordError", "enumerate_words", "word_from_text",
        "word_to_text"],
    "representations": [
        "BEND_ANGLE_ENVELOPE", "OCTAGON_TRANSLATION_LENGTH",
        "GrowthEstimate", "LengthSpectrum", "Representation",
        "RepresentationError", "bend", "bending_curve_word",
        "compute_spectrum", "conjugate_representation", "estimate_growth",
        "evaluate", "find_complex_trace_element", "fuchsian_octagon",
        "normalize_spectrum", "orbit_length_estimate",
        "orbit_point_distances", "power_displacement",
        "representation_hash", "representation_json",
        "representation_to_dict", "stable_length"],
    "check": [
        "AXIS_CROSS_TOL", "BoundaryError", "BoundaryPointRef",
        "CertificateError", "DEGENERATE_TOL", "PairConfig",
        "SeparationCertificate", "SpiralWitness", "certificate_from_dict",
        "certificate_problems", "certificate_to_dict", "certify",
        "classify_angle_pairs", "classify_pairs", "classify_real_pairs",
        "disk_angle", "fixed_angles", "reference_representation",
        "verify_witness_orders", "witness_from_dict", "witness_image_points",
        "witness_to_dict"],
    "boundary": [
        "LimitSetSample", "MIN_THETA", "find_spiral_witness",
        "limit_set_sample", "normalize_at", "sample_to_csv", "sample_to_svg"],
    "certificates": [
        "MIN_CERTIFICATE_MARGIN", "DlipRatioBound", "TriangleRecords",
        "diagnostic_delta", "find_separation_certificate",
        "ratio_lower_bound", "triangle_harness"],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_names_resolve_to_the_submodule_objects(module):
    home = importlib.import_module("qfcert." + module)
    for name in EXPORTED[module]:
        scope = {}
        exec("from qfcert import %s as got" % name, scope)
        assert scope["got"] is getattr(home, name), name


def test_dir_and_all_list_the_names():
    assert set(NAMES) <= set(qfcert.__all__)
    assert set(qfcert.__all__) <= set(dir(qfcert))
    assert "InvariantError" in qfcert.__all__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qfcert.no_such_name
    with pytest.raises(ImportError):
        exec("from qfcert import no_such_name", {})


def run_fresh(script):
    """Run script in a fresh interpreter: this one has loaded every
    submodule already."""
    env = dict(os.environ, PYTHONPATH=str(Path(qfcert.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_submodule_import_still_works():
    # the package's __getattr__ refuses the name, so the import system
    # imports the submodule
    run_fresh("import sys\n"
              "from qfcert import boundary\n"
              "assert boundary is sys.modules['qfcert.boundary']\n")


def test_import_loads_no_submodule():
    run_fresh("import sys\n"
              "import qfcert\n"
              "loaded = [m for m in sys.modules if m.startswith('qfcert.')]\n"
              "assert not loaded, loaded\n"
              "assert 'Word' in dir(qfcert) and 'Word' in qfcert.__all__\n"
              "assert not [m for m in sys.modules if m.startswith('qfcert.')]\n"
              "qfcert.Word\n"
              "assert 'qfcert.boundary' not in sys.modules\n")


def test_readme_imports_resolve():
    # every qfcert import in README's python blocks names something the
    # package still has
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    imports = [node for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "qfcert"]
    assert imports
    for node in imports:
        exec(ast.unparse(node), {})


def test_check_imports_no_search():
    # the checker is the trusted base: the standard library, numpy and the
    # scalar modules, never boundary, certificates or _wordarrays
    path = Path(qfcert.__file__).with_name("check.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level
            found.update([base + node.module] if node.module
                         else [base + alias.name for alias in node.names])
    allowed = {".moebius", ".surface_group", ".representations", "numpy"}
    outside = {name for name in found if name not in allowed
               and name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside
    assert {".moebius", ".surface_group", ".representations"} <= found


def _annotated():
    """(qualified name, object) for every class and function that a
    module of the package defines, and every function in a class body."""
    modules = [qfcert] + [importlib.import_module("qfcert." + info.name)
                          for info in pkgutil.iter_modules(qfcert.__path__)]
    for module in modules:
        for name, obj in sorted(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (module.__name__, name), obj
            elif inspect.isclass(obj):
                yield "%s.%s" % (module.__name__, name), obj
                for attr, member in sorted(vars(obj).items()):
                    member = getattr(member, "fget", member)
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield "%s.%s.%s" % (module.__name__, name,
                                            attr), member


def test_annotations_resolve():
    # every annotation names something its module can see, so
    # typing.get_type_hints works on the whole package
    found = dict(_annotated())
    assert {"qfcert.check.SeparationCertificate",
            "qfcert.check.CertificateError.__init__",
            "qfcert.certificates.triangle_harness"} <= set(found)
    unresolved = []
    for name, obj in found.items():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append("%s: %s" % (name, exc))
    assert not unresolved
