"""The records are NamedTuples: immutable, checked however they are built,
and cheap to import.

``State``, ``ShootingResult``, ``ComparisonReport`` and ``ShootingConfig``
are plain NamedTuples.  ``IntegratorConfig``, ``ProblemParams`` and
``RunConfig`` check their fields on every construction, ``_make``,
``_replace`` and unpickling included; each is one class.  ``Trajectory``
is a plain object, since it caches its interpolants on itself.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gmspike
from gmspike import (
    ComparisonReport,
    IntegratorConfig,
    InwardRun,
    ProblemParams,
    ShootingConfig,
    ShootingResult,
    SpikeKind,
    State,
    integrate,
)
from gmspike.cli import RunConfig

SRC = Path(gmspike.__file__).resolve().parents[1]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter with no site hooks: the modules left behind are
    # those gmspike.cli imports, whatever else is installed.
    code = (
        "import sys, gmspike.cli\n"
        "print(gmspike.cli.__file__)\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-s", "-S", "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    origin, loaded = done.stdout.split("\n")[:2]
    assert Path(origin).resolve().parent == SRC / "gmspike"
    assert loaded == ""


class TestRepr:
    # The integrate/ and shoot/ golden digests hash these reprs.
    def test_state(self):
        assert repr(State(1.0, 0.0)) == "State(u=1.0, v=0.0)"

    def test_inward_run(self):
        assert repr(InwardRun(1e-7, 1.5, 17.9)) == "InwardRun(u0=1e-07, a_star=1.5, sigma_pk=17.9)"

    def test_checked_records_repr_as_their_public_class(self):
        assert repr(IntegratorConfig()) == "IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)"
        assert repr(ProblemParams.boundary(3.0)) == (
            "ProblemParams(p=3.0, epsilon=0.1, half_length=1.0, "
            "kind=<SpikeKind.BOUNDARY: 'boundary'>)"
        )


class TestReplaceChecks:
    """A bare NamedTuple's ``_replace`` builds through ``tuple.__new__``,
    past the checks; a checked record's raises what its constructor would."""

    def test_problem_params(self):
        with pytest.raises(ValueError, match=r"exponent p must lie in \[1.01, 100.0\], got 0.5"):
            ProblemParams.inner(2.0)._replace(p=0.5)

    def test_integrator_config(self):
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            IntegratorConfig()._replace(rel_tol=-1.0)

    def test_run_config(self):
        params = ProblemParams.boundary(2.0)
        config = RunConfig("compare", params, IntegratorConfig(), (0.0, 5.0, 3))
        with pytest.raises(ValueError, match="rho=20.0 lies outside the domain"):
            config._replace(grid=(0.0, 20.0, 5))

    @pytest.mark.parametrize(
        "record, field, value",
        [
            (ProblemParams.inner(2.0), "p", "2"),
            (IntegratorConfig(), "rel_tol", "1"),
            (RunConfig("shoot", ProblemParams.inner(2.0), IntegratorConfig()), "command", []),
        ],
    )
    def test_a_wrong_typed_field_is_a_bad_field(self, record, field, value):
        # The TypeError the check meets is kept as the cause.
        words = f"bad {type(record).__name__} field: "
        with pytest.raises(ValueError, match=words) as excinfo:
            type(record)(**{**record._asdict(), field: value})
        assert isinstance(excinfo.value.__cause__, TypeError)
        with pytest.raises(ValueError, match=words):
            record._replace(**{field: value})

    @pytest.mark.parametrize(
        "record, fields",
        [
            (ProblemParams.inner(2.0), (2.0, 0.0, 1.0, SpikeKind.INNER)),
            (IntegratorConfig(), (1e-10, float("nan"))),
        ],
    )
    def test_make(self, record, fields):
        with pytest.raises(ValueError):
            type(record)._make(fields)

    def test_unpickling_runs_the_check(self):
        # A bad record can only be built past the constructor.
        bad = tuple.__new__(IntegratorConfig, (-1.0, 1e-12))
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            pickle.loads(pickle.dumps(bad))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize(
        "bad, words",
        [
            ((IntegratorConfig, (-1.0, 1e-12)), "tolerances must be positive and finite"),
            ((ProblemParams, (0.5, 0.1, 1.0, SpikeKind.INNER)), "exponent p must lie in"),
            (
                (RunConfig, ("compare", ProblemParams.boundary(2.0), IntegratorConfig(),
                             (0.0, 20.0, 5), None, "csv")),
                "rho=20.0 lies outside the domain",
            ),
        ],
        ids=["IntegratorConfig", "ProblemParams", "RunConfig"],
    )
    def test_unpickling_checks_at_every_protocol(self, bad, words, protocol):
        # Protocols 0 and 1 used to rebuild a tuple subclass with
        # tuple.__new__, past the check; __reduce__ sends all of them
        # through the constructor.
        record = tuple.__new__(*bad)
        with pytest.raises(ValueError, match=words):
            pickle.loads(pickle.dumps(record, protocol))

    def test_a_valid_replace_keeps_the_class(self):
        params = ProblemParams.inner(2.0)._replace(p=3.0, kind=SpikeKind.BOUNDARY)
        assert type(params) is ProblemParams
        assert params == ProblemParams.boundary(3.0)
        assert params.peak_rho == 10.0


class TestRecords:
    def test_fields_and_asdict(self):
        assert ProblemParams._fields == ("p", "epsilon", "half_length", "kind")
        assert RunConfig._fields == ("command", "params", "integrator", "grid", "out", "fmt")
        assert ComparisonReport._fields == (
            "grid", "analytic", "numeric", "numeric_v", "max_abs_err", "l2_err", "abs_err",
            "sum_sq_err", "points",
        )
        assert ShootingResult._fields == ("trajectory", "classifications", "params", "config")
        assert IntegratorConfig()._asdict() == {"rel_tol": 1e-10, "abs_tol": 1e-12}

    @pytest.mark.parametrize("cls", [IntegratorConfig, ProblemParams, RunConfig])
    def test_each_checked_record_is_one_class(self, cls):
        assert cls.__bases__ == (tuple,)

    @pytest.mark.parametrize(
        "record",
        [
            IntegratorConfig(rel_tol=1e-9),
            ProblemParams.boundary(3.0),
            RunConfig("compare", ProblemParams.boundary(2.0), IntegratorConfig(), (0.0, 5.0, 3)),
        ],
    )
    def test_a_valid_record_round_trips_through_pickle(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is type(record)
            assert copy == record

    def test_records_equal_plain_tuples(self):
        assert State(1.0, 0.0) == (1.0, 0.0)
        assert IntegratorConfig() == (1e-10, 1e-12)
        assert ShootingConfig() == ()

    @pytest.mark.parametrize(
        "record, name",
        [
            (State(1.0, 0.0), "u"),
            (IntegratorConfig(), "rel_tol"),
            (ProblemParams.inner(2.0), "p"),
            (RunConfig("shoot", ProblemParams.inner(2.0), IntegratorConfig()), "fmt"),
        ],
    )
    def test_immutable_and_without_a_dict(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")

    def test_trajectory_is_a_plain_object(self):
        trajectory = integrate(State(1.4, 0.0), 0.0, 1.0, 2.0)
        assert not isinstance(trajectory, tuple)
        trajectory.eval([0.5])
        # eval cached the interpolant of the step it read on the object.
        assert "_interpolants" in vars(trajectory)
