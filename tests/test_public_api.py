"""Tests for the public API surface and repo-level consistency.

These guard the contract downstream users depend on: everything in
``repro.__all__`` is importable and real, the README's examples exist,
and DESIGN.md's experiment index points at bench files that exist.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]

#: Packages whose public names resolve lazily, on first access.
LAZY_PACKAGES = ("repro", "repro.core", "repro.obs", "repro.verify", "repro.report")


class TestPublicAPI:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_all_names_resolve(self, package):
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            assert getattr(pkg, name, None) is not None, name
        assert not hasattr(pkg, "no_such_export")

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_export_table_matches_all(self, package):
        pkg = importlib.import_module(package)
        # __version__ is the one public name a package binds itself.
        assert set(pkg._EXPORTS) == set(pkg.__all__) - {"__version__"}
        assert len(set(pkg.__all__)) == len(pkg.__all__)
        assert set(pkg.__all__) <= set(dir(pkg))
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(pkg.__all__) <= set(namespace)

    def test_version_is_semver(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_headline_types_importable(self):
        from repro import (
            CMPSystem,
            SystemConfig,
            SimulationResult,
            WorkloadSpec,
            TracePack,
        )

        assert all((CMPSystem, SystemConfig, SimulationResult, WorkloadSpec, TracePack))

    def test_quickstart_snippet_from_docstring_runs(self):
        """The module docstring's quickstart must actually work."""
        from repro import CMPSystem, SystemConfig

        config = SystemConfig().scaled(16).with_features(
            cache_compression=True, link_compression=True, prefetching=True
        )
        result = CMPSystem(config, "zeus", seed=0).run(events_per_core=300)
        assert "zeus" in result.summary()

    def test_workloads_registered(self):
        from repro import WORKLOADS

        assert set(WORKLOADS) == {
            "apache", "zeus", "oltp", "jbb", "art", "apsi", "fma3d", "mgrid",
            "chase",
        }


class TestRepoConsistency:
    @pytest.mark.skipif(not (REPO / "README.md").exists(), reason="not an editable checkout")
    def test_readme_examples_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert (REPO / "examples" / match).exists(), match

    @pytest.mark.skipif(not (REPO / "DESIGN.md").exists(), reason="not an editable checkout")
    def test_design_bench_targets_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for match in re.findall(r"benchmarks/(test_\w+\.py)", design):
            assert (REPO / "benchmarks" / match).exists(), match

    @pytest.mark.skipif(not (REPO / "DESIGN.md").exists(), reason="not an editable checkout")
    def test_design_module_map_exists(self):
        design = (REPO / "DESIGN.md").read_text()
        src = REPO / "src" / "repro"
        for match in re.findall(r"^  (\w+(?:/\w+\.py))", design, re.M):
            assert (src / match).exists(), match

    @pytest.mark.skipif(not (REPO / "examples").exists(), reason="not an editable checkout")
    def test_all_examples_compile(self):
        import py_compile

        for path in (REPO / "examples").glob("*.py"):
            py_compile.compile(str(path), doraise=True)

    @pytest.mark.skipif(not (REPO / "examples").exists(), reason="not an editable checkout")
    def test_at_least_three_examples(self):
        assert len(list((REPO / "examples").glob("*.py"))) >= 3
