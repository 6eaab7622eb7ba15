"""The error contract: every netfit exception is an InputError or an ItemFailure.

An InputError (the user's file or flag) ends a command with exit 2 and
one line; an ItemFailure (one graph or model) is reported, the command
goes on and exits 1. Anything else is a bug and propagates.
"""

import importlib
import inspect
import json
import pickle
import pkgutil

import pytest

import netfit
import netfit.cli
import netfit.stability
from netfit.cli import main
from netfit.data import corpus_manifest
from netfit.fitting import params_from_json_obj
from netfit.graph import InputError, ItemFailure, ParameterError
from netfit.metrics import EigenvectorError

# constructor arguments of the classes that take more than a message
SAMPLE_ARGS = {EigenvectorError: (1e-3, 5)}


def netfit_exceptions():
    """Every Exception subclass defined in a netfit module."""
    found = set()
    for info in pkgutil.walk_packages(netfit.__path__, "netfit."):
        module = importlib.import_module(info.name)
        found.update(obj for _, obj in inspect.getmembers(module, inspect.isclass)
                     if issubclass(obj, Exception) and obj.__module__ == module.__name__)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


def sample(cls):
    return cls(*SAMPLE_ARGS.get(cls, ("sample message",)))


def test_discovery_finds_both_bases_and_their_subclasses():
    names = {cls.__name__ for cls in netfit_exceptions()}
    assert {"InputError", "ItemFailure", "EdgeListError", "EigenvectorError",
            "StabilityError"} <= names


@pytest.mark.parametrize("cls", netfit_exceptions(), ids=lambda cls: cls.__name__)
class TestContract:
    def test_one_base(self, cls):
        assert issubclass(cls, InputError) != issubclass(cls, ItemFailure)

    def test_pickle_round_trip(self, cls):
        exc = sample(cls)
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert str(copy) == str(exc)

    def test_exit_code(self, cls, tmp_path, capsys, monkeypatch):
        exc = sample(cls)

        def failing(*args):
            raise exc

        monkeypatch.setattr(netfit.cli, "_fit", failing)
        graph = corpus_manifest().parent / "chems_04.txt"
        code = main(["fit", str(graph), "--model", "WS", "--seed", "1",
                     "--out", str(tmp_path / "fits")])
        err = capsys.readouterr().err
        if issubclass(cls, InputError):
            assert (code, err) == (2, f"error: {exc}\n")
        else:
            assert (code, err) == (1, f"error: WS: {exc}\n")


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["fit", "--model", "WS", "--seed", "1"], netfit.cli, "_fit"),
        (["measure"], netfit.cli, "feature_vector"),
        (["stability", "--replicates", "2", "--budget", "3", "--fit-replicates", "1",
          "--seed", "1"], netfit.cli, "_fit"),
        (["stability", "--replicates", "2", "--budget", "3", "--fit-replicates", "1",
          "--seed", "1"], netfit.stability, "generate"),
    ],
    ids=["fit", "measure", "stability-fit", "stability-replicate"],
)
def test_any_other_exception_propagates(tmp_path, monkeypatch, argv, module, name):
    def broken(*args):
        raise ValueError("a bug")

    monkeypatch.setattr(module, name, broken)
    graph = corpus_manifest().parent / "chems_04.txt"
    command, *options = argv
    with pytest.raises(ValueError, match="a bug"):
        main([command, str(graph), *options, "--out", str(tmp_path / "out")])


def test_eigenvector_error_keeps_its_message():
    exc = pickle.loads(pickle.dumps(EigenvectorError(1e-3, 5)))
    assert str(exc) == "Lanczos did not converge after 5 steps (residual 1.000e-03)"
    assert (exc.residual, exc.steps) == (1e-3, 5)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"model": "ER", "params": {}}, "unknown model 'ER'"),
        ({"model": "DD", "params": {"n": 5, "p": 0.5}, "seed": -1},
         "seed must be a non-negative integer, got -1"),
        ({"model": "2K", "params": {"jdm": {"entries": [[1, 1]]}}},
         "jdm entries must be a list of [k, l, count] integer triples"),
        ({"model": "2K", "params": {"jdm": {"entries": [[1, 2, 1.0]]}}},
         "jdm entries must be a list of [k, l, count] integer triples"),
        ({"model": "2K", "params": {"jdm": [[1, 2, 1]]}},
         "jdm entries must be a list of [k, l, count] integer triples"),
        ({"model": "2K", "params": {"entries": [[1, 2, 1]]}}, "missing key 'jdm'"),
        ({"model": "CBA", "params": {"n": 10, "m": 2, "p": 10**400}},
         "p is out of the float range"),
    ],
    ids=["unknown-model", "negative-seed", "jdm-entries", "jdm-float-count", "jdm-not-object",
         "jdm-missing", "huge-integer-p"],
)
def test_fit_json_faults_are_parameter_errors(tmp_path, capsys, obj, message):
    with pytest.raises(ParameterError) as caught:
        params_from_json_obj(obj)
    assert str(caught.value) == message
    params = tmp_path / "fit.json"
    params.write_text(json.dumps(obj))
    assert main(["generate", str(params), "--out", str(tmp_path / "g.txt")]) == 2
    assert capsys.readouterr().err == f"error: params {params}: {message}\n"
