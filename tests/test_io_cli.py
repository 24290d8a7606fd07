import ast
import dataclasses
import errno
import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import document_array, nested_document_array, one_matrix_eigendecompose
from vurkit import (FileFormatError, InvalidStateError, OracleConfig, Tolerances, eigendecompose,
                    optimize_alpha, user_supplied)
from vurkit.cli import main
from vurkit.config import DEFAULT_TOLERANCES, with_overrides
from vurkit.core import HermitianMatrix
from vurkit.fixtures import (PAULI_X, PAULI_Z, ket00, maximally_mixed, pauli3,
                             qutrit4, qutrit4_matrices, singlet)
from vurkit.io import _to_array, load_observable, load_state, parse_observable, parse_state, serialize_state
from vurkit.oracle import random_hermitian


def _matrix_doc(m):
    return {"matrix": [[[z.real, z.imag] for z in row] for row in np.asarray(m, complex)]}


def _density_doc(rho):
    return {"density": [[[z.real, z.imag] for z in row] for row in np.asarray(rho, complex)]}


def _spectral_doc(obs):
    """The spectral document of an observable: its eigenvalues and its eigenvector columns as pairs."""
    return {"spectral": {"eigenvalues": obs.eigenvalues.tolist(),
                         "eigenvectors": [[[z.real, z.imag] for z in col] for col in obs.eigenvectors.T.tolist()]}}


# --- documents ---------------------------------------------------------------

def test_parse_matrix_document():
    # a matrix document is checked, not decomposed; it decomposes as the matrix it holds
    checked = parse_observable(_matrix_doc(PAULI_X))
    assert isinstance(checked, HermitianMatrix)
    obs, (evals, evecs) = eigendecompose(checked), one_matrix_eigendecompose(PAULI_X)
    assert obs.eigenvalues.tobytes() == evals.tobytes()
    assert obs.eigenvectors.tobytes() == evecs.tobytes()
    assert obs.eigenvalues.tolist() == [-1.0, 1.0]


def test_parse_rejects_ambiguous_documents():
    with pytest.raises(FileFormatError):
        parse_observable({})
    doc = _matrix_doc(PAULI_X)
    doc["spectral"] = {"eigenvalues": [0.0], "eigenvectors": [[[1.0, 0.0]]]}
    with pytest.raises(FileFormatError):
        parse_observable(doc)


def test_parse_rejects_malformed_matrices():
    with pytest.raises(FileFormatError):
        parse_observable({"matrix": [[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    with pytest.raises(FileFormatError):
        parse_observable({"matrix": [[[0.0, 0.0], [math.inf, 0.0]],
                                     [[0.0, 0.0], [0.0, 0.0]]]})
    with pytest.raises(FileFormatError):
        parse_observable({"matrix": [[["x", 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [0.0, 0.0]]]})


@pytest.mark.parametrize("bad, reason", [
    (True, "a number, got True"),
    ("0.5", "a number, got '0.5'"),
    (None, "a number, got None"),
    (math.nan, "finite"),
    (-math.inf, "finite"),
    pytest.param(10**400, "finite", id="beyond-float-range"),
])
@pytest.mark.parametrize("kind", ["matrix", "density", "eigenvectors"])
def test_parse_names_the_first_bad_entry(kind, bad, reason):
    # numpy alone would read True and "0.5" as numbers and None as nan
    rows = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    rows[1][0][0] = bad
    rows[1][1][1] = "later"
    doc = {"matrix": {"matrix": rows},
           "density": {"density": rows},
           "eigenvectors": {"spectral": {"eigenvalues": [0.0, 1.0], "eigenvectors": rows}}}[kind]
    parse = parse_state if kind == "density" else parse_observable
    with pytest.raises(FileFormatError, match=re.escape(f"{kind}[1][0] must be {reason}")):
        parse(doc)
    with pytest.raises(FileFormatError, match=re.escape(f"pure[1] must be {reason}")):
        parse_state({"pure": [[1.0, 0.0], [bad, 0.0]]})


def test_parse_rejects_bad_pairs_and_shapes():
    with pytest.raises(FileFormatError, match=r"density\[0\]\[1\] must be a \[re, im\] pair"):
        parse_state({"density": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]]})
    with pytest.raises(FileFormatError, match=r"pure\[0\] must be a \[re, im\] pair"):
        parse_state({"pure": [[1.0, 0.0, 0.0]]})
    with pytest.raises(FileFormatError, match="square; row 1 has length 1"):
        parse_state({"density": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]})
    with pytest.raises(FileFormatError, match="square; row 0 has length 1"):
        parse_observable({"matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]})
    with pytest.raises(FileFormatError, match="eigenvectors must be square; row 1 has length 1"):
        parse_observable({"spectral": {"eigenvalues": [0.0, 1.0],
                                       "eigenvectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}})


def _mostly(good, bad, odds):
    """``good``, or ``bad`` once in ``odds`` draws."""
    return st.integers(1, odds).flatmap(lambda k: bad if k == 1 else good)


# the largest int that float() rounds to a finite value; one more overflows
_EDGE = 2**1024 - 2**970 - 1
_floats = st.floats(allow_nan=False, allow_infinity=False)
_numbers = _mostly(
    st.one_of(st.integers(-9, 9), _floats, _floats.map(np.float64),
              st.integers(-2**1023, 2**1023), st.sampled_from([_EDGE, -_EDGE])),
    st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.integers(-3, 3).map(np.int64),
              st.sampled_from([math.nan, math.inf, -math.inf, 10**400, _EDGE + 1, "0.5"]),
              st.dictionaries(st.text(max_size=1), st.integers(), max_size=2),
              st.lists(st.integers(-3, 3), max_size=2)),
    odds=16)
_pairs = _mostly(
    st.tuples(_numbers, _numbers).flatmap(lambda p: st.sampled_from([list(p), p])),
    st.one_of(_numbers, st.lists(_numbers, max_size=3), st.tuples(_floats, _floats).map(np.array)),
    odds=16)


@st.composite
def _document_arrays(draw):
    kind = draw(st.sampled_from(["eigenvalues", "pure", "density", "eigenvectors"]))
    n = draw(st.integers(1, 3))
    if kind in ("eigenvalues", "pure"):
        return kind, draw(st.lists(_numbers if kind == "eigenvalues" else _pairs, min_size=n, max_size=n))
    row = st.lists(_pairs, min_size=n, max_size=n)
    bad_row = st.one_of(st.lists(_pairs, max_size=4), row.map(tuple), _numbers)
    return kind, draw(st.lists(_mostly(row, bad_row, odds=8), min_size=n, max_size=n))


def _io_array(items, kind):
    return _to_array(items, kind, kind in ("density", "eigenvectors"), kind != "eigenvalues")


def _outcome(convert, items, kind):
    """A conversion's array as (dtype, shape, bytes), or its refusal message."""
    try:
        out = convert(items, kind)
    except FileFormatError as exc:
        return str(exc)
    return out.dtype, out.shape, out.tobytes()


_edge_numbers = [[[0, -0.0], [1e308, -1e308]], [[np.float64(0.25), 2**60], (1, np.float64(-0.0))]]


@settings(max_examples=300, deadline=None)
@given(_document_arrays())
@example(("eigenvalues", [0, -0.0, 1e308, np.float64(-2.5), 10**300]))
@example(("pure", [(0, -0.0), [1e308, np.float64(0.5)]]))
@example(("density", _edge_numbers))
def test_document_arrays_convert_as_the_per_entry_reference(doc):
    # valid entries include numpy floats, tuple pairs and big ints; the
    # reference's first refusal in row order must be io's message too, and
    # the nested np.array conversion io used before must give the same bytes
    kind, items = doc
    expected = _outcome(document_array, items, kind)
    assert _outcome(_io_array, items, kind) == expected
    assert _outcome(nested_document_array, items, kind) == expected


_good_rows = '[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]'


@pytest.mark.parametrize("text", [
    _good_rows.replace("0.5, 0]]]", "true, 0]]]"),
    _good_rows.replace("0.5, 0]]]", '"1.5", 0]]]'),
    _good_rows.replace("0.5, 0]]]", "null, 0]]]"),
    _good_rows.replace("0.5, 0]]]", "1e400, 0]]]"),
    _good_rows.replace("0.5, 0]]]", f"{10**400}, 0]]]"),
    '[[[0.5, 0], [0, 0]], [[0.5, 0]]]',  # a ragged row
    _good_rows.replace("[0.5, 0]]]", "[0.5, 0, 0]]]"),  # a 3-entry pair
    '[[[0.5, 0], [0, 0]], {"re": 0.5}]',  # an object as a row
])
def test_refused_document_arrays_name_what_the_nested_reference_names(text):
    items = json.loads(text)
    refusal = _outcome(nested_document_array, items, "density")
    assert isinstance(refusal, str)
    assert _outcome(_io_array, items, "density") == refusal


_loads = {
    "state": (load_state, serialize_state(singlet()), {"pure": [[True, 0.0]]}, "pure[0]"),
    "observable": (load_observable, _matrix_doc(PAULI_X), {"matrix": [[[True, 0.0]]]}, "matrix[0][0]"),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("good", [True, False])
@pytest.mark.parametrize("kind", sorted(_loads))
def test_load_restores_the_collector(tmp_path, kind, good, enabled):
    # a load pauses the cyclic collector and hands back the caller's setting,
    # after a refused document too
    load, doc, bad, label = _loads[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc if good else bad))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if good:
            assert load(path).dim == (4 if kind == "state" else 2)
        else:
            with pytest.raises(FileFormatError, match=re.escape(f"{label} must be a number, got True")):
                load(path)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def test_parse_spectral_document_checks():
    good = _spectral_doc(eigendecompose(PAULI_X))
    parsed = parse_observable(good)
    assert np.allclose(parsed.eigenvalues, [-1.0, 1.0])

    bad_order = json.loads(json.dumps(good))
    bad_order["spectral"]["eigenvalues"] = [1.0, -1.0]
    with pytest.raises(FileFormatError, match="ascending"):
        parse_observable(bad_order)

    huge = json.loads(json.dumps(good))
    huge["spectral"]["eigenvalues"][1] = 10**400  # beyond the float range
    with pytest.raises(FileFormatError, match=re.escape("eigenvalues[1] must be finite")):
        parse_observable(huge)

    skewed = json.loads(json.dumps(good))
    skewed["spectral"]["eigenvectors"][0] = [[1.0, 0.0], [0.0, 0.0]]
    skewed["spectral"]["eigenvectors"][1] = [[1.0, 0.0], [0.0, 0.0]]
    with pytest.raises(FileFormatError, match="orthonormal"):
        parse_observable(skewed)


def test_observable_roundtrip_is_exact_for_fixtures():
    for obs in [*pauli3(), *qutrit4()]:
        doc = json.loads(json.dumps(_spectral_doc(obs)))
        again = parse_observable(doc)
        assert np.array_equal(again.eigenvalues, obs.eigenvalues)
        assert np.array_equal(again.eigenvectors, obs.eigenvectors)
        # the parsed observable writes the same document again
        assert _spectral_doc(again) == _spectral_doc(obs)


def test_state_roundtrip():
    for state in (singlet(), ket00(), maximally_mixed(4)):
        doc = json.loads(json.dumps(serialize_state(state)))
        again = parse_state(doc)
        assert again.is_pure == state.is_pure
        if state.is_pure:
            assert np.array_equal(again.vector, state.vector)
        else:
            assert np.array_equal(again.matrix, state.matrix)


def test_parse_state_validation():
    with pytest.raises(FileFormatError):
        parse_state({"pure": [[1.0, 0.0]], "density": [[[1.0, 0.0]]]})
    with pytest.raises(InvalidStateError):
        parse_state({"pure": [[1.0, 0.0], [1.0, 0.0]]})
    with pytest.raises(InvalidStateError):
        parse_state({"density": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})


def test_load_observable_with_loosened_tolerance(tmp_path):
    near = np.array(PAULI_X, dtype=complex)
    near[0, 1] += 1e-8
    path = tmp_path / "near.json"
    path.write_text(json.dumps(_matrix_doc(near)))
    from vurkit import NotHermitianError
    with pytest.raises(NotHermitianError):
        load_observable(path)
    loose = with_overrides(DEFAULT_TOLERANCES, {"hermiticity": 1e-6})
    obs = load_observable(path, loose)
    assert obs.dim == 2


# --- command line ------------------------------------------------------------

def test_cli_bound_fixed_alpha(capsys):
    code = main(["bound", "pauli3", "--C", "1.3862943611198906", "--alpha", "0.597"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.724314500" in out


def test_cli_bound_auto_constant_json(capsys):
    code = main(["bound", "qutrit4", "--auto-C", "--alpha", "1.92", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"]
    payload = doc["payload"]
    assert payload["constant"]["source"] == "wu_mub"
    assert payload["constant"]["value"] == pytest.approx(4 * math.log(2), abs=1e-12)
    assert payload["lower_bound"] == pytest.approx(0.908368013, abs=1e-8)
    # the schema is the result dataclasses' fields, in declaration order
    assert list(payload) == ["alpha", "constant", "per_operator", "raw_bound", "lower_bound",
                             "clamped", "bracket", "refine_steps"]
    assert list(payload["per_operator"][0]) == ["beta_star", "max_value", "iterations", "modes"]
    assert payload["bracket"] is None
    assert payload["per_operator"][0]["modes"] == 1


def test_cli_bound_zero_constant(capsys):
    code = main(["bound", "sigma-z", "--C", "0", "--alpha", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower bound = 0.000000000 (clamped: yes)" in out


def test_cli_bound_optimize(capsys):
    code = main(["bound", "pauli3", "--auto-C", "--optimize", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert 1.7243 <= payload["lower_bound"] <= 2.0
    lo, hi = payload["bracket"]
    assert lo * (1 - 1e-7) <= payload["alpha"] <= hi
    assert [r["modes"] for r in payload["per_operator"]] == [2, 2, 2]
    assert 1 <= payload["refine_steps"] <= 8

    assert main(["bound", "pauli3", "--auto-C", "--optimize"]) == 0
    out = capsys.readouterr().out
    assert f"alpha bracket = [{lo!r}, {hi!r}]" in out
    assert f"kernel calls after the first: {payload['refine_steps']}" in out
    assert "2 mode(s)" in out and "iteration(s)" in out

    assert main(["bound", "pauli3", "--auto-C", "--alpha", "0.597", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["refine_steps"] == 0


def test_cli_bound_optimize_ends(capsys):
    # C >= ln 2 is false for one qubit observable: refused, not searched
    assert main(["bound", "sigma-z", "--C", "1", "--optimize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "0.6931471805599453" in captured.err
    # C <= ln 1 = 0: the floor is 0 at every alpha, certified without a search
    assert main(["bound", "sigma-z", "--C", "0", "--optimize", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["bracket"] is None and payload["refine_steps"] == 0 and payload["lower_bound"] == 0.0
    assert main(["bound", "sigma-z", "--C", "0", "--optimize"]) == 0
    assert "alpha bracket = none" in capsys.readouterr().out


def test_cli_entropic(capsys):
    assert main(["entropic", "sigma-z", "sigma-x"]) == 0
    out = capsys.readouterr().out
    assert "0.707106781" in out and "0.693147181" in out

    assert main(["entropic", "pauli3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["selected"]["source"] == "wu_mub"

    assert main(["entropic", "sigma-z", "sigma-z"]) == 0
    out = capsys.readouterr().out
    assert "selected: C = 0.000000000" in out


@pytest.mark.parametrize("argv", [
    ["entropic", "sigma-z"],
    ["bound", "sigma-z", "--auto-C", "--alpha", "1"],
    ["lur", "--state", "singlet", "--pairs", "sigma-z", "sigma-z", "--auto-C"],
], ids=["entropic", "bound", "lur"])
def test_cli_one_observable_set_has_no_constant(capsys, argv):
    # one refusal, from the constant's selection, whichever command asks
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least two observables\n"


def _one_by_one_files(tmp_path) -> list[str]:
    paths = []
    for name, value in (("one", 0.5), ("two", -1.0), ("three", 2.0)):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps({"matrix": [[[value, 0.0]]]}))
    return paths


def test_cli_auto_constant_in_dimension_one(tmp_path, capsys):
    paths = _one_by_one_files(tmp_path)
    assert main(["bound", *paths, "--auto-C", "--optimize", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["constant"]["value"] == 0.0
    assert payload["lower_bound"] == 0.0
    assert main(["entropic", *paths]) == 0
    assert "selected: C = 0.000000000 nats (pairwise_matching" in capsys.readouterr().out


def test_cli_entropic_in_dimension_one_reports_no_unbiased_bases(tmp_path, capsys):
    # every overlap of 1x1 observables is 1 = 1/sqrt(1), but the report must
    # agree with the selection, which is the pairwise matching
    paths = _one_by_one_files(tmp_path)
    assert main(["entropic", *paths]) == 0
    assert ("mutually unbiased: no\ncandidate: C = 0.000000000 nats (pairwise_matching"
            in capsys.readouterr().out)
    assert main(["entropic", *paths, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["mutually_unbiased"] is False
    assert payload["selected"]["source"] == "pairwise_matching"


def test_cli_closed_pipe_exits_quietly():
    # the reader is gone before vurkit prints, as with `| head -1`
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    # as a context manager, Popen closes the stderr pipe and waits for the child
    with subprocess.Popen([sys.executable, "-m", "vurkit", "demo", "--seed", "0", "--restarts", "4"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
    assert err == ""  # no Traceback, no message


def test_cli_mub_tolerance_selects_constant(capsys):
    argv = ["entropic", "sigma-x", "sigma-z", "sigma-z", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["mutually_unbiased"] is False
    assert payload["selected"]["source"] == "pairwise_matching"

    # sigma-z twice is unbiased to within 1 - 1/sqrt(2) only
    assert main(argv + ["--tol", "mub=1"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["mutually_unbiased"] is True
    # the pairing is weighed too, and selected only where it is larger
    assert [k["source"] for k in payload["candidates"]] == ["wu_mub", "pairwise_matching"]
    assert payload["selected"] == payload["candidates"][0]

    assert main(["bound", "sigma-x", "sigma-z", "sigma-z", "--auto-C", "--alpha", "1",
                 "--tol", "mub=1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["constant"]["source"] == "wu_mub"


@pytest.mark.parametrize("observables", [
    ["sigma-z", "sigma-x"], ["sigma-z", "sigma-z"], ["pauli3"], ["qutrit4"],
    ["sigma-z", "sigma-x", "sigma-z"], ["sigma-x", "sigma-z", "sigma-z", "--tol", "mub=1"]])
def test_cli_entropic_lists_the_selected_candidate(capsys, observables):
    assert main(["entropic", *observables, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["selected"] in payload["candidates"]


def test_cli_oracle(capsys):
    code = main(["oracle", "pauli3", "--restarts", "8", "--seed", "0", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 0
    assert list(doc["payload"]) == ["minimum", "restarts", "restarts_agreeing", "stops", "iterations",
                                    "argmin_restart", "gradient_norms", "argmin_state"]
    assert doc["payload"]["minimum"] == pytest.approx(2.0, abs=1e-6)
    assert doc["payload"]["restarts_agreeing"] == 8
    assert doc["payload"]["stops"] == {"gradient": 8, "step_underflow": 0, "max_iters": 0}
    assert doc["payload"]["iterations"] == 0
    assert 0 <= doc["payload"]["argmin_restart"] < 8
    assert len(doc["payload"]["gradient_norms"]) == 8
    assert max(doc["payload"]["gradient_norms"]) <= 1e-12
    assert "pure" in doc["payload"]["argmin_state"]

    assert main(["oracle", "qutrit4", "--restarts", "4", "--max-iters", "5"]) == 0
    out = capsys.readouterr().out
    assert "restart stops: 0 gradient, 0 step_underflow, 4 max_iters" in out
    assert "iterations (slowest restart) = 5" in out
    assert re.search(r"gradient norm = \S+ at the argmin restart \(\d\), \S+ at most", out)


def test_cli_lur_fixture_state(capsys):
    code = main(["lur", "--state", "singlet", "--pairs", "pauli-pairs", "--auto-C"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: Entangled" in out
    assert "lhs (variance sum of the pair operators) = 0.000000000" in out
    assert "pair 3: variance = 0.000000000" in out

    code = main(["lur", "--state", "ket00", "--pairs", "pauli-pairs", "--auto-C", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["payload"]) == ["lhs", "pair_variances", "u_a", "u_b", "margin", "verdict"]
    assert doc["payload"]["verdict"] == "NotDetected"
    assert doc["payload"]["lhs"] == pytest.approx(4.0, abs=1e-9)
    assert doc["payload"]["pair_variances"] == pytest.approx([2.0, 2.0, 0.0], abs=1e-12)


def test_cli_lur_explicit_floors(capsys):
    code = main(["lur", "--state", "mixed2", "--pairs", "sigma-x", "sigma-x",
                 "sigma-y", "sigma-y", "sigma-z", "sigma-z", "--u-a", "1.7", "--u-b", "1.7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: NotDetected" in out
    assert "6.000000000" in out


def test_cli_lur_needs_a_floor_source_per_side(capsys):
    # each side takes --u-x, or the optimized floor for --C-x or --auto-C
    base = ["lur", "--state", "ket00", "--pairs", "pauli-pairs"]
    for extra, side in (([], "a"), (["--u-a", "1"], "b")):
        assert main(base + extra) == 2
        assert f"lur needs --u-{side}, --C-{side} or --auto-C" in capsys.readouterr().err
    assert main(base + ["--C-a", "0.7", "--u-b", "1.2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["u_b"] == 1.2
    assert payload["u_a"] == optimize_alpha(pauli3(), user_supplied(0.7)).lower_bound


def test_cli_continuous(capsys):
    c = repr(1.0 + math.log(math.pi))
    assert main(["continuous", "--C", c, "--alpha", "1"]) == 0
    assert "lower bound = 1.000000000" in capsys.readouterr().out
    assert main(["continuous", "--C", c, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["alpha_used"] == pytest.approx(1.0, abs=1e-12)
    assert payload["lower_bound"] == pytest.approx(1.0, abs=1e-12)
    assert payload["closed_form_alpha"] is True
    assert main(["continuous", "--C", "1.0"]) == 0
    assert "0.318309886" in capsys.readouterr().out


def test_cli_continuous_overflow_is_an_error(capsys):
    for c in ("-1000", "800"):
        assert main(["continuous", "--C", c]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["oracle pauli3", "demo"])
def test_cli_restarts_beyond_maxsize_is_an_error(capsys, command):
    # refused by OracleConfig with one message, before a start block is allocated
    assert main([*command.split(), "--restarts", str(10**20)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: restarts must not exceed")


@pytest.mark.parametrize("command", ["oracle pauli3", "demo"])
def test_cli_negative_seed_is_an_error(capsys, command):
    # refused by OracleConfig by name, not by numpy's SeedSequence
    assert main([*command.split(), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must be an integer")


def test_cli_demo(capsys):
    assert main(["demo", "--seed", "0", "--restarts", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "qubit triple:  floor 1.7243 at alpha 0.597, optimized 1.7243 at alpha 0.5973, "
        "true minimum 2.0000",
        "qutrit quadruple: floor 0.9084 at alpha 1.92, optimized 0.9084 at alpha 1.9180, "
        "true minimum 1.0000",
        "continuous pair (C = 1 + ln pi): floor 1.000000 at alpha 1, closed-form alpha* 1.000000",
        "separability test with the qubit triple on both sides (U_A = U_B = 1.7243):",
        "  singlet: lhs 0.0000, margin -3.4486 -> Entangled",
        "  ket00: lhs 4.0000, margin +0.5514 -> NotDetected",
        "  mixed2: lhs 6.0000, margin +2.5514 -> NotDetected",
    ]
    code = main(["demo", "--seed", "0", "--restarts", "4", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 0
    assert doc["payload"]["lur"]["singlet"]["verdict"] == "Entangled"
    assert doc["payload"]["pauli3"]["oracle"]["minimum"] == pytest.approx(2.0, abs=1e-6)


def test_cli_oracle_and_demo_default_to_the_oracle_config(capsys):
    # the parser takes its defaults from OracleConfig, so the echoed run is the library's default run
    defaults = OracleConfig()
    assert main(["oracle", "pauli3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"]["restarts"] == doc["payload"]["restarts"] == defaults.restarts
    assert (doc["inputs"]["max_iters"], doc["seed"]) == (defaults.max_iters, defaults.seed)
    assert main(["demo", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == defaults.seed


def test_cli_exit_code_parse_failure(capsys):
    code = main(["bound", "does-not-exist.json", "--C", "1", "--alpha", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["bound", "pauli3", "--auto-C", "--optimize", "--tol", "mub"], "--tol expects NAME=VALUE"),
    (["bound", "pauli3", "--auto-C", "--optimize", "--tol", "mub=x"], "is not a number"),
    (["lur", "--state", "ket00", "--pairs", "sigma-x", "--u-a", "1", "--u-b", "1"],
     "an even number of observables"),
    (["lur", "--state", "ket00", "--pairs", "pauli3", "pauli3", "--u-a", "1", "--u-b", "1"],
     "each --pairs entry must name a single observable"),
], ids=["tol-no-value", "tol-not-a-number", "odd-pairs", "pairs-of-sets"])
def test_cli_input_error_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def _os_error(code: int, name: str) -> str:
    return f"[Errno {code}] {os.strerror(code)}: {name!r}"


_LONG_NAME = "a" * 5000  # past any file system's limit on a name


# each token's exact stderr line and exit code, with the working directory holding the files
_INPUT_ERRORS = {
    "missing": ("missing.json", 2, "no such file or fixture: missing.json"),
    "nul-byte": ("a\0b", 2, "no such file or fixture: a\0b"),
    "directory": ("./src/", 2, f"cannot read src: {_os_error(errno.EISDIR, 'src')}"),
    "empty": ("", 2, f"cannot read .: {_os_error(errno.EISDIR, '.')}"),
    "name-too-long": (_LONG_NAME, 2, f"cannot read {_LONG_NAME}: {_os_error(errno.ENAMETOOLONG, _LONG_NAME)}"),
    "not-utf8": ("latin1.json", 2,
                 "cannot read latin1.json: 'utf-8' codec can't decode byte 0xff in position 26: invalid start byte"),
    "utf8-bom": ("bom.json", 2,
                 "bom.json is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "malformed": ("malformed.json", 2, "matrix[0][1] must be a [re, im] pair, got [1.0]"),
    "non-hermitian": ("nonherm.json", 4, "matrix is not Hermitian: max asymmetry 2.000e+00 exceeds 1.0e-10"),
}


_ARGV = {"bound": ["bound", "{}", "--C", "0", "--alpha", "1"],
         "lur-pairs": ["lur", "--state", "ket00", "--pairs", "{}", "sigma-x", "--u-a", "1", "--u-b", "1"],
         "lur-state": ["lur", "--state", "{}", "--pairs", "pauli-pairs", "--u-a", "1", "--u-b", "1"]}


@pytest.mark.parametrize("command, case", [
    *[(command, case) for command in ("bound", "lur-pairs") for case in _INPUT_ERRORS],
    *[("lur-state", case) for case in _INPUT_ERRORS if case not in ("malformed", "non-hermitian")]])
def test_cli_input_errors_keep_their_message_and_exit_code(tmp_path, monkeypatch, capsys, command, case):
    token, code, message = _INPUT_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"matrix": [[[1.0, 0.0]]]}\xff')
    (tmp_path / "bom.json").write_bytes(b'\xef\xbb\xbf{"matrix": [[[1.0, 0.0]]]}')
    _order_files(tmp_path)
    assert main([token if arg == "{}" else arg for arg in _ARGV[command]]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_exit_code_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["bound", str(path), "--C", "1", "--alpha", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_exit_code_dimension_mismatch(capsys):
    code = main(["bound", "sigma-z", "qutrit-sigma0", "--C", "1", "--alpha", "1"])
    assert code == 3
    assert capsys.readouterr().out == ""


def test_cli_exit_code_non_hermitian(tmp_path, capsys):
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"matrix": [[[0.0, 0.0], [0.0, 1.0]],
                                           [[0.0, 1.0], [0.0, 0.0]]]}))
    assert main(["bound", str(path), "--C", "1", "--alpha", "1"]) == 4
    assert capsys.readouterr().out == ""


def _order_files(tmp_path) -> dict:
    """A good, a non-Hermitian and a malformed observable document, and a path to no file."""
    files = {"ok": _matrix_doc(PAULI_X), "nonherm": {"matrix": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]},
             "malformed": {"matrix": [[[0.0, 0.0], [1.0]], [[1.0, 0.0], [0.0, 0.0]]]}}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(tmp_path / f"{name}.json") for name in [*files, "missing"]}


@pytest.mark.parametrize("names, code", [
    (["ok", "nonherm", "malformed"], 4),
    (["malformed", "nonherm"], 2),
    (["nonherm", "missing"], 4),    # a file is looked for only when its turn comes
    (["missing", "nonherm"], 2),
    (["ok", "ok", "nonherm"], 4),
])
def test_cli_first_bad_file_in_token_order_decides(tmp_path, capsys, names, code):
    files = _order_files(tmp_path)
    assert main(["bound", *[files[n] for n in names], "--C", "0", "--alpha", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    first_bad = next(n for n in names if n != "ok")
    assert {"nonherm": "not Hermitian", "malformed": "matrix[0][1]", "missing": "no such file"}[first_bad] in captured.err


def test_cli_resolves_fixtures_and_files_in_token_order(tmp_path, monkeypatch):
    from vurkit import cli, io
    files = _order_files(tmp_path)
    reads, load = [], io.load_observable
    monkeypatch.setattr(io, "load_observable", lambda path, tol: reads.append(path) or load(path, tol))
    got = cli._resolve_observables(["sigma-z", files["ok"], "pauli3", files["ok"], "sigma-y"], DEFAULT_TOLERANCES)
    expected = [pauli3()[2], eigendecompose(PAULI_X), *pauli3(), eigendecompose(PAULI_X), pauli3()[1]]
    assert [o.eigenvalues.tobytes() for o in got] == [o.eigenvalues.tobytes() for o in expected]
    assert [o.eigenvectors.tobytes() for o in got] == [o.eigenvectors.tobytes() for o in expected]
    # each distinct file is read once, and each place it holds gets the same bits
    assert reads == [Path(files["ok"])]


def test_cli_odd_pairs_refuses_before_reading_a_file(tmp_path, capsys, monkeypatch):
    from vurkit import io
    files = _order_files(tmp_path)
    monkeypatch.setattr(io, "load_observable", lambda path, tol: pytest.fail(f"read {path}"))
    assert main(["lur", "--state", "ket00", "--pairs", files["nonherm"], files["ok"], files["ok"],
                 "--u-a", "1", "--u-b", "1"]) == 2
    assert "an even number of observables" in capsys.readouterr().err


@pytest.mark.parametrize("names, code", [(["ok", "nonherm", "ok", "malformed"], 4),
                                         (["ok", "malformed", "ok", "nonherm"], 2)])
def test_cli_lur_given_floors_still_check_every_pair_file_in_order(tmp_path, capsys, names, code):
    # with both floors given nothing is decomposed, yet each file is read and checked in turn
    files = _order_files(tmp_path)
    assert main(["lur", "--state", "ket00", "--pairs", *[files[n] for n in names], "--u-a", "1", "--u-b", "1"]) == code
    assert {4: "not Hermitian", 2: "matrix[0][1]"}[code] in capsys.readouterr().err


@pytest.fixture
def core_eigh_calls(monkeypatch):
    """The shape of every matrix ``vurkit.core`` hands to ``np.linalg.eigh``, one per call;
    other callers, the oracle's Hessian steps among them, go uncounted."""
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "vurkit.core":
            calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _write_docs(tmp_path) -> dict:
    """Matrix documents of X and Z on each qubit side and of two qutrit matrices, and two states."""
    docs = {"a1": _matrix_doc(PAULI_X), "a2": _matrix_doc(PAULI_Z),
            "b1": _matrix_doc(PAULI_X), "b2": _matrix_doc(PAULI_Z),
            "t1": _matrix_doc(qutrit4_matrices()[0]), "t2": _matrix_doc(qutrit4_matrices()[2]),
            "rho4": _density_doc(singlet().density_matrix()), "rho6": _density_doc(np.eye(6) / 6)}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return docs


_QUBIT, _QUTRIT = (2, 2), (3, 3)


@pytest.mark.parametrize("argv, calls, code", [
    ("lur --state rho4 --pairs a1 b1 a2 b2 --u-a 1 --u-b 1", [], 0),
    ("lur --state rho6 --pairs a1 t1 a2 t2 --u-a 1 --C-b 1", [_QUTRIT, _QUTRIT], 0),
    ("lur --state rho6 --pairs a1 t1 a2 t2 --C-a 1 --u-b 1", [_QUBIT, _QUBIT], 0),
    ("lur --state rho4 --pairs a1 b1 a2 b2 --auto-C", [_QUBIT] * 4, 0),
    ("oracle a1 a2 t1 --restarts 4", [], 3),
    ("oracle a1 a2 --restarts 4", [], 0),
    ("bound t1 a1 t2 a2 --C 1 --alpha 1", [_QUTRIT, _QUBIT, _QUTRIT, _QUBIT], 3),
    ("bound a1 a2 a1 --C 1 --alpha 1", [_QUBIT] * 3, 0),  # a repeated file at each occurrence
    ("entropic a1 a2", [_QUBIT] * 2, 0),
])
def test_cli_decomposes_only_where_a_spectrum_is_read(tmp_path, core_eigh_calls, argv, calls, code):
    # lur's pair variances and the oracle's forms read the checked matrices; the
    # floors, the entropy constants and the overlaps read spectra
    docs = _write_docs(tmp_path)
    assert main([str(tmp_path / f"{t}.json") if t in docs else t for t in argv.split()]) == code
    assert core_eigh_calls == calls


@pytest.mark.parametrize("argv, loads, decompositions", [
    ("bound a1 a2 b1 --C 1 --alpha 1", 3, 3),
    ("lur --state rho4 --pairs a1 b1 a2 b2 --u-a 1 --u-b 1", 4, 0),
    ("oracle a1 a2 --restarts 4", 2, 0),
])
def test_cli_calls_the_layers_the_benchmark_traces(tmp_path, monkeypatch, argv, loads, decompositions):
    # wrapped in every vurkit module that bound them, as the benchmark's tracer wraps
    # them: command-line loads and decompositions go through these two names
    from vurkit import core, io
    counts = {}
    for fn in (io.load_observable, core.eigendecompose):
        def counted(*args, fn=fn, **kwargs):
            counts[fn.__name__] = counts.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "vurkit" or name.startswith("vurkit."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    docs = _write_docs(tmp_path)
    assert main([str(tmp_path / f"{t}.json") if t in docs else t for t in argv.split()]) == 0
    assert counts.get("load_observable", 0) == loads
    assert counts.get("eigendecompose", 0) == decompositions


def test_cli_exit_code_invalid_state(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"density": [[[1.0, 0.0], [0.0, 0.0]],
                                            [[0.0, 0.0], [1.0, 0.0]]]}))
    assert main(["lur", "--state", str(path), "--pairs", "pauli-pairs", "--auto-C"]) == 5
    assert capsys.readouterr().out == ""


def test_cli_exit_code_bad_alpha(capsys):
    assert main(["continuous", "--C", "1.0", "--alpha", "-1"]) == 6
    capsys.readouterr()
    assert main(["bound", "pauli3", "--C", "1", "--alpha", "-0.5"]) == 6
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("evals, argv, code", [
    # a spread a_n - a_1 past the float range, at a fixed width and optimized
    ([-1e308, 1e308], ["--C", "0.5", "--alpha", "1e-300"], 1),
    ([-1e308, 1e308], ["--C", "0.5", "--optimize"], 1),
    # a finite half-spread whose square overflows: the alpha range does not exist
    ([-1e160, 1e160], ["--C", "0.5", "--optimize"], 1),
    # a width so small that the floor (C - sum ln M) / alpha overflows
    (None, ["pauli3", "--C", "1", "--alpha", "1e-320"], 6),
])
def test_cli_refuses_floors_past_the_float_range(tmp_path, capsys, evals, argv, code):
    if evals is not None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"spectral": {"eigenvalues": evals, "eigenvectors": [
            [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}}))
        argv = [str(path), "sigma-x", *argv]
    assert main(["bound", *argv, "--json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_tolerance_override(tmp_path, capsys):
    near = np.array(PAULI_X, dtype=complex)
    near[0, 1] += 1e-8
    path = tmp_path / "near.json"
    path.write_text(json.dumps(_matrix_doc(near)))
    assert main(["bound", str(path), "--C", "1", "--alpha", "1"]) == 4
    capsys.readouterr()
    assert main(["bound", str(path), "--C", "1", "--alpha", "1",
                 "--tol", "hermiticity=1e-6"]) == 0
    capsys.readouterr()
    assert main(["bound", str(path), "--C", "1", "--alpha", "1",
                 "--tol", "bogus=1"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cli_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    with pytest.raises(ValueError):
        with_overrides(DEFAULT_TOLERANCES, {"mub": float(value)})
    path = tmp_path / "skew.json"  # the anti-Hermitian [[0, i], [i, 0]]
    path.write_text(json.dumps({"matrix": [[[0.0, 0.0], [0.0, 1.0]],
                                           [[0.0, 1.0], [0.0, 0.0]]]}))
    for argv in (["bound", str(path), "--C", "1", "--alpha", "1", "--tol", f"hermiticity={value}"],
                 ["lur", "--state", "mixed2", "--pairs", "pauli-pairs", "--auto-C",
                  "--tol", f"lur_margin={value}"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and >= 0" in captured.err


def test_cli_zero_tolerance_is_valid(capsys):
    assert main(["lur", "--state", "mixed2", "--pairs", "pauli-pairs", "--auto-C",
                 "--tol", "lur_margin=0"]) == 0
    assert "verdict: NotDetected" in capsys.readouterr().out


@pytest.mark.parametrize("content", [b'\xff\xfe{"matrix": []}', b"[" * 200000],
                         ids=["not-utf8", "deeply-nested"])
def test_cli_unreadable_file_is_a_parse_failure(tmp_path, capsys, content):
    path = tmp_path / "obs.json"
    path.write_bytes(content)
    assert main(["bound", str(path), "--C", "1", "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("item", ["bogus=1", "hermiticity"])
def test_cli_continuous_takes_no_tolerance(capsys, item):
    # the closed form reads no tolerance, so argparse rejects --tol like any unknown option
    with pytest.raises(SystemExit) as exc:
        main(["continuous", "--C", "1", "--tol", item])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


# 5000 digits is past Python's limit for parsing an integer
@pytest.mark.parametrize("digits", [400, 5000], ids=["beyond-float-range", "digit-limit"])
def test_cli_huge_integer_is_a_parse_failure(tmp_path, capsys, digits):
    path = tmp_path / "big.json"
    path.write_text('{"matrix": [[[0, 0], [1, 0]], [[1, 0], [1%s, 0]]]}' % ("0" * digits))
    assert main(["bound", str(path), "--C", "1", "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_scripts_exit_zero():
    # the scripts import from the package, private names included; RuntimeWarnings
    # are errors here, as in pytest's filterwarnings
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    for argv in (["alpha_landscape.py", "pauli3"], ["alpha_landscape.py", "qutrit4"],
                 ["alpha_landscape.py", "sigma-x", "sigma-z"]):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(scripts / argv[0]), *argv[1:]],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_traced_layers_resolve():
    # the benchmark's tracer wraps these by name, and no command-line path calls
    # engine.inner_max or core.variance: a rename would otherwise go unseen here
    tracer = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    assert layers
    for name in layers:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"vurkit.{module}"), function, None)), name


@pytest.mark.parametrize("module, allowed", [("oracle", {"config", "core"}),
                                             ("lur", {"config", "core", "errors"})])
def test_library_layers_import_only_below(module, allowed):
    # the oracle and the separability test stand on the core alone: the
    # engine's floors reach lur through its caller
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "vurkit" / f"{module}.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert imported <= allowed, imported - allowed


def _tolerance_cases(tmp_path):
    """For each tolerance: an input file, a command reading it, and a value of
    the tolerance extreme enough to change that command's outcome."""
    near_x = np.array(PAULI_X, dtype=complex)
    near_x[0, 1] += 1e-7
    skewed = _spectral_doc(eigendecompose(PAULI_X))
    skewed["spectral"]["eigenvectors"][0][0][0] += 1e-7
    generic = random_hermitian(3, np.random.default_rng(7))
    docs = {
        "near_x": _matrix_doc(near_x),
        "skewed": skewed,
        "generic": _matrix_doc(generic),
        "long": {"pure": [[1.0 + 1e-7, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        "heavy": _density_doc(np.diag([0.5 + 1e-7, 0.5, 0.0, 0.0])),
        "negative": _density_doc(np.diag([1.0 + 1e-7, -1e-7, 0.0, 0.0])),
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))

    def bound(name):
        return ["bound", str(tmp_path / f"{name}.json"), "--C", "1", "--alpha", "1", "--json"]

    def lur(name):
        return ["lur", "--state", str(tmp_path / f"{name}.json"), "--pairs", "pauli-pairs",
                "--u-a", "1", "--u-b", "1", "--json"]

    return {
        "hermiticity": (bound("near_x"), 1e-3),
        "orthonormality": (bound("skewed"), 1e-3),
        "reconstruction": (bound("generic"), 0.0),
        "unit_norm": (lur("long"), 1e-3),
        "trace": (lur("heavy"), 1e-3),
        "density_eigenvalue": (lur("negative"), 1e-3),
        "mub": (["entropic", "sigma-x", "sigma-z", "sigma-z", "--json"], 1.0),
        "lur_margin": (["lur", "--state", "singlet", "--pairs", "pauli-pairs",
                        "--u-a", "1e-3", "--u-b", "1e-3", "--json"], 1.0),
        "oracle_agreement": (["oracle", "qutrit4", "--restarts", "64", "--json"], 10.0),
    }


@pytest.mark.parametrize("name", sorted(Tolerances.__dataclass_fields__))
def test_cli_every_tolerance_takes_effect(tmp_path, capsys, name):
    argv, value = _tolerance_cases(tmp_path)[name]

    def outcome(args):
        code = main(args)
        out = capsys.readouterr().out
        return code, json.loads(out)["payload"] if out else None

    assert outcome(argv) != outcome(argv + ["--tol", f"{name}={value!r}"])


def test_cli_without_tol_runs_on_the_pinned_defaults(monkeypatch, capsys):
    # pinned here, as no other test reads an outcome that a moved default changes; mub is a soundness
    # gate, and oracle_agreement and reconstruction decide what a run reports
    assert dataclasses.asdict(Tolerances()) == {
        "hermiticity": 1e-10, "orthonormality": 1e-10, "reconstruction": 1e-9, "unit_norm": 1e-10, "trace": 1e-10,
        "density_eigenvalue": 1e-9, "mub": 1e-8, "lur_margin": 1e-9, "oracle_agreement": 1e-6}
    from vurkit import cli
    used, parse = [], cli._parse_tolerances
    monkeypatch.setattr(cli, "_parse_tolerances", lambda items: used.append(parse(items)) or used[-1])
    assert main(["entropic", "pauli3"]) == 0
    assert main(["entropic", "pauli3", "--tol", "mub=1e-8"]) == 0
    capsys.readouterr()
    assert used[0] is DEFAULT_TOLERANCES and used[0] == used[1] == Tolerances()


def test_cli_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; an option given to one call
    # must not carry over to the next
    argv = ["entropic", "sigma-x", "sigma-z", "sigma-z", "--json"]
    assert main(argv + ["--tol", "mub=1"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["mutually_unbiased"] is True
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == argv
    assert doc["payload"]["mutually_unbiased"] is False


def test_cli_json_repeatable_in_process(capsys):
    argv = ["oracle", "qutrit4", "--restarts", "6", "--seed", "11", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
