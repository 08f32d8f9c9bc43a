"""JSON chain description loading."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

import mcmc_certify as mc
from mcmc_certify.chain import _MAX_STATES
from mcmc_certify.errors import NotReversible, TooLarge

TWO_STATE = {
    "labels": ["a", "b"],
    "P": [[0.7, 0.3], [0.6, 0.4]],
    "nu": [1.0, 0.0],
    "f": [1.0, 0.0],
}


def write(tmp_path, doc, name="chain.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_full_document(tmp_path):
    data = mc.load_chain_file(write(tmp_path, TWO_STATE))
    assert data.chain.size == 2
    assert data.labels == ["a", "b"]
    assert data.nu == pytest.approx([1.0, 0.0])
    assert data.f == pytest.approx([1.0, 0.0])


def test_minimal_document(tmp_path):
    data = mc.load_chain_file(write(tmp_path, {"P": TWO_STATE["P"]}))
    assert data.nu is None and data.f is None and data.labels is None


def test_explicit_pi_is_used(tmp_path):
    doc = {"P": [[0.7, 0.3], [0.3, 0.7]], "pi": [0.5, 0.5]}
    data = mc.load_chain_file(write(tmp_path, doc))
    assert data.chain.pi[0] == 0.5


def test_unknown_key_rejected(tmp_path):
    doc = dict(TWO_STATE, Q=[[1.0]])
    with pytest.raises(ValueError, match="unknown keys"):
        mc.load_chain_file(write(tmp_path, doc))


def test_missing_matrix_rejected(tmp_path):
    # A string is refused by its key as well, also one longer than the state cap.
    for doc in ({"nu": [1.0, 0.0]}, {"P": "x" * 50}, {"P": "x" * 5000}):
        path = write(tmp_path, doc)
        with pytest.raises(ValueError) as info:
            mc.load_chain_file(path)
        assert str(info.value) == f'{path}: required key "P" must be a list of rows'


def test_label_validation(tmp_path):
    with pytest.raises(ValueError):
        mc.load_chain_file(write(tmp_path, dict(TWO_STATE, labels=["a"])))
    with pytest.raises(ValueError):
        mc.load_chain_file(write(tmp_path, dict(TWO_STATE, labels=["a", "a"])))
    with pytest.raises(ValueError):
        mc.load_chain_file(write(tmp_path, dict(TWO_STATE, labels=["a", 2])))


def test_vector_length_validation(tmp_path):
    with pytest.raises(ValueError, match='"nu"'):
        mc.load_chain_file(write(tmp_path, dict(TWO_STATE, nu=[0.5, 0.3, 0.2])))
    with pytest.raises(ValueError, match='"f"'):
        mc.load_chain_file(write(tmp_path, dict(TWO_STATE, f=[1.0])))


def test_vector_length_message_names_the_file(tmp_path):
    path = write(tmp_path, dict(TWO_STATE, nu=[0.5, 0.3, 0.2]))
    with pytest.raises(ValueError) as info:
        mc.load_chain_file(path)
    assert str(info.value) == f'{path}: "nu" has length 3, chain has 2 states'


def test_size_cap_before_the_matrix_is_built(tmp_path):
    path = write(tmp_path, {"P": [[1.0]] * (_MAX_STATES + 1)})
    message = f"transition matrix has {_MAX_STATES + 1} rows, cap is {_MAX_STATES} states"
    with pytest.raises(TooLarge, match=f"^{message}$"):
        mc.load_chain_file(path)


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 the caller keeps a call's arguments alive until it returns",
)
def test_loader_frees_the_file_text_and_rows_before_the_checks(tmp_path):
    # The parsed rows take about 4 d x d doubles (a float object and a list
    # slot per entry) and the file text about 0.6 more; build_chain then adds
    # about 3.2 above its copy of P.  With the text freed after parsing and
    # the rows as soon as that copy exists, the loader peaks at about 5.2
    # (tracemalloc at d = 512); holding both through build_chain reads 7.85.
    d = 512
    P = mc.birth_death_matrix(np.full(d - 1, 0.306), np.full(d - 1, 0.3))
    w = np.cumprod(np.concatenate([[1.0], np.full(d - 1, 1.02)]))
    path = write(tmp_path, {"P": P.tolist(), "pi": (w / w.sum()).tolist()})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = mc.load_chain_file(path)
        peak = (tracemalloc.get_traced_memory()[1] - before) / (8.0 * d * d)
    finally:
        tracemalloc.stop()
    assert data.chain.size == d
    assert peak <= 6.0, peak


def test_malformed_json_is_value_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        mc.load_chain_file(str(path))
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="top level"):
        mc.load_chain_file(str(path))


def test_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        mc.load_chain_file(str(tmp_path / "nope.json"))


def test_chain_errors_propagate(tmp_path):
    cycle = {"P": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]}
    with pytest.raises(NotReversible):
        mc.load_chain_file(write(tmp_path, cycle))
