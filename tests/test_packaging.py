"""Package-surface sanity: exports resolve, version, metadata coherence."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.graph",
            "repro.core",
            "repro.baselines",
            "repro.apps",
            "repro.bench",
            "repro.viz",
            "repro.cli",
        ],
    )
    def test_submodule_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_error_hierarchy(self):
        from repro import (
            GraphError,
            InfeasibleQueryError,
            LimitExceededError,
            QueryError,
            ReproError,
        )

        assert issubclass(GraphError, ReproError)
        assert issubclass(QueryError, ReproError)
        assert issubclass(InfeasibleQueryError, QueryError)
        assert issubclass(LimitExceededError, ReproError)

    def test_solver_registry_matches_exports(self):
        from repro.core.solver import ALGORITHMS

        assert set(ALGORITHMS) == {
            "basic", "pruneddp", "pruneddp+", "pruneddp++", "dpbf",
        }

    def test_bench_algorithm_registry_complete(self):
        from repro.bench.runner import ALL_ALGORITHMS, _SOLVERS

        assert set(ALL_ALGORITHMS) == set(_SOLVERS)

    def test_cli_entry_point_declared(self):
        import tomllib

        with open("pyproject.toml", "rb") as handle:
            meta = tomllib.load(handle)
        assert meta["project"]["scripts"]["repro-gst"] == "repro.cli:main"

    def test_no_runtime_dependencies(self):
        import tomllib

        with open("pyproject.toml", "rb") as handle:
            meta = tomllib.load(handle)
        assert meta["project"]["dependencies"] == []


def _callables(owner, module_name):
    """Functions and methods defined in ``module_name``, nested classes too."""
    for name, value in vars(owner).items():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        if inspect.isclass(value):
            if value.__module__ == module_name and value is not owner:
                yield from _callables(value, module_name)
        elif inspect.isfunction(value) and value.__module__ == module_name:
            yield f"{getattr(owner, '__qualname__', module_name)}.{name}", value


class TestAnnotations:
    def test_every_annotation_resolves(self):
        """``typing.get_type_hints`` resolves every function and method."""
        unresolved, checked = [], 0
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for qualname, function in _callables(module, info.name):
                checked += 1
                try:
                    typing.get_type_hints(function)
                except NameError as exc:
                    unresolved.append(f"{info.name}:{qualname}: {exc}")
        assert checked > 500
        assert not unresolved, unresolved


def _limit_entry_points():
    """Every solver and service entry point a query's limits pass."""
    from repro.apps import ExpertNetwork, KeywordSearchEngine
    from repro.baselines import Banks1Solver, Banks2Solver
    from repro.baselines.blinks import BlinksSolver
    from repro.baselines.distance_network import DistanceNetworkSolver
    from repro.bench import run_query, run_suite
    from repro.core import exact_top_r_trees, solve_gst, top_r_trees
    from repro.core.directed import DirectedGSTSolver
    from repro.core.engine import SearchEngine
    from repro.core.solver import ALGORITHMS
    from repro.service import (
        FleetPool,
        GraphIndex,
        QueryExecutor,
        checkpointed_execute,
        resume_query,
    )

    return [
        *ALGORITHMS.values(),
        DirectedGSTSolver,
        Banks1Solver,
        Banks2Solver,
        BlinksSolver,
        DistanceNetworkSolver,
        SearchEngine,
        solve_gst,
        top_r_trees,
        exact_top_r_trees,
        run_query,
        run_suite,
        GraphIndex.solve,
        GraphIndex.execute,
        GraphIndex.cached_outcome,
        QueryExecutor.submit,
        QueryExecutor.cached,
        QueryExecutor.enqueue,
        QueryExecutor.run_batch,
        FleetPool.execute,
        checkpointed_execute,
        resume_query,
        KeywordSearchEngine.search,
        ExpertNetwork.find_team,
    ]


class TestOneWayIn:
    def test_limits_arrive_only_in_a_budget(self):
        """No entry point takes ``time_limit``/``epsilon``/``max_states``
        beside ``budget=``: with a second way in, a layer that reads one
        (a retry rung, a checkpoint's meta) disagrees with the other."""
        loose = {"time_limit", "epsilon", "max_states"}
        offenders = []
        for entry in _limit_entry_points():
            taken = loose & set(inspect.signature(entry).parameters)
            if taken:
                offenders.append((entry.__qualname__, sorted(taken)))
        assert offenders == []

    def test_serving_path_names_every_keyword(self):
        """Between ``QueryExecutor`` and a solve backend no hop forwards
        ``**kwargs`` or takes ``use_result_cache``: a stray keyword fails
        at the call, and ``QueryExecutor.cached`` is the one result-cache
        lookup (only ``GraphIndex.execute`` keeps the switch)."""
        offenders = []
        for entry in _serving_path():
            params = inspect.signature(entry).parameters.values()
            loose = [
                p.name
                for p in params
                if p.kind is p.VAR_KEYWORD or p.name == "use_result_cache"
            ]
            if loose:
                offenders.append((entry.__qualname__, loose))
        assert offenders == []


def _serving_path():
    """Every hop a served query takes from the executor to a backend."""
    from repro.bench import run_throughput
    from repro.service import (
        FleetPool,
        QueryExecutor,
        ResiliencePipeline,
        checkpointed_execute,
        resume_query,
    )
    from repro.service.durability import _execute

    return [
        QueryExecutor.submit,
        QueryExecutor.enqueue,
        QueryExecutor.run_batch,
        QueryExecutor._run_one,
        ResiliencePipeline.run,
        FleetPool.execute,
        FleetPool._execute_on,
        checkpointed_execute,
        _execute,
        resume_query,
        run_throughput,
    ]
