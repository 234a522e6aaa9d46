"""Public-API surface tests: ``__all__`` completeness and key exports.

Run with ``-W error::DeprecationWarning`` in CI together with
``test_config_session.py``: importing and exercising the public surface must
never trip a deprecation.
"""

import pytest

import repro
import repro.core
import repro.sim
import repro.workloads

PUBLIC_MODULES = [repro, repro.core, repro.sim, repro.workloads]


@pytest.mark.parametrize(
    "module", PUBLIC_MODULES, ids=lambda m: m.__name__
)
class TestAllCompleteness:
    def test_every_all_entry_resolves(self, module):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing: {missing}"

    def test_no_duplicates(self, module):
        assert len(module.__all__) == len(set(module.__all__))

    def test_star_import_clean(self, module):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        for name in module.__all__:
            assert name in namespace


class TestKeyExports:
    def test_top_level_configuration_api(self):
        for name in ("RunConfig", "Session", "session", "check_program",
                     "StatisticalAssertionChecker", "DebugReport"):
            assert name in repro.__all__
        assert repro.session is repro.core.session
        assert repro.RunConfig is repro.core.RunConfig

    def test_sim_registry_api(self):
        for name in (
            "BackendCapabilities",
            "register_backend",
            "unregister_backend",
            "list_backends",
            "backend_capabilities",
            "make_backend",
            "make_noisy_backend",
        ):
            assert name in repro.sim.__all__

    def test_sim_exports_no_unitary_oracles(self):
        # The closed-form unitary oracles are test helpers
        # (tests/unitary_oracles.py), not part of the simulator's surface.
        import importlib.util

        for name in ("embed_matrix", "unitary_from_applications", "dft_matrix",
                     "permutation_matrix", "adder_permutation",
                     "modular_multiplication_permutation"):
            assert name not in repro.sim.__all__
            assert not hasattr(repro.sim, name)
        assert importlib.util.find_spec("repro.sim.unitary") is None

    def test_core_exports_config_and_session(self):
        for name in ("RunConfig", "Session", "session"):
            assert name in repro.core.__all__

    def test_public_functions_documented(self):
        # Every public callable/class on the facade carries a docstring.
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"
