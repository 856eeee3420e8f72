"""Property-based checks: the input readers refuse only with their named
errors, and the paper's two invariants hold on random shapes.

Every search is derandomized and keeps no example database, so a run is
deterministic; ``conftest.py`` moves hypothesis's other on-disk cache to a
temporary directory.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hlop.config import ConfigError, ExperimentConfig, load_config
from hlop.harness.data import DatasetError, load_idx_images, load_idx_labels
from hlop.lateral import LateralSubspace
from hlop.linalg import make_rng
from hlop.spiking import dense_layer
from hlop.training import LayerGrad, sgd_update
from reference import lateral_response


def _search(n):
    return settings(max_examples=n, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# config text

_KEYS = ["seed", "trainer", "hlop", "lr", "lambda", "T", "hidden_sizes",
         "subspace_schedule", "v_th", "output_dir", "conv_kernel",
         "task", "n_tasks", "conv_pool", "mystery", ""]
# ASCII plus line and paragraph separators, a NUL, a BOM and a non-Latin letter.
_CHARS = [chr(c) for c in range(32, 127)] + ["\t", "\r", "\x00", "\x0b", "\x1c",
                                             "\x85", "\u2028", "\ufeff", "é", "ж"]
_junk = st.lists(st.sampled_from(_CHARS), max_size=30).map("".join)
_atoms = st.one_of(
    st.integers(min_value=-10**400, max_value=10**400).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["true", "false", "True", "None", "nan", "-inf", "1e999", "ottt",
                     "'x'", '"a#b"', "b'\\xff'", "1j", "...", "()", "{}", "[]", "{[]}",
                     "{[]: 1}", "'\\N{nope}'"]),
    _junk,
)
_values = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda v: "[" + ", ".join(v) + "]"),
        st.lists(inner, max_size=3).map(lambda v: "{" + ", ".join(v) + "}"),
        st.tuples(inner, inner).map(lambda kv: "{" + kv[0] + ": " + kv[1] + "}"),
        st.tuples(st.sampled_from(["-", "+", "~", "not ", "(", "["]),
                  st.integers(1, 6000), inner).map(lambda t: t[0] * t[1] + t[2]),
    ),
    max_leaves=8,
)
_lines = st.one_of(
    st.tuples(st.sampled_from(_KEYS), st.sampled_from([" = ", "=", " == "]), _values,
              st.sampled_from(["", " # note", "#"])).map("".join),
    _junk,
)
_documents = st.lists(_lines, max_size=6).map("\n".join)


def _load_or_refuse(path):
    try:
        assert isinstance(load_config(str(path)), ExperimentConfig)
    except ConfigError as e:
        assert e.problems and all(isinstance(p, str) for p in e.problems)


@_search(300)
@given(text=_documents)
@example(text="lr = 1" + "0" * 400)  # ints beyond float range, in float fields
@example(text="lambda = -1" + "0" * 400)
def test_config_text_loads_or_raises_config_error(tmp_path, text):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    _load_or_refuse(path)


@_search(150)
@given(blob=st.binary(max_size=80))
def test_config_bytes_load_or_raise_config_error(tmp_path, blob):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(b"lr = 0.1\n" + blob)
    _load_or_refuse(path)


# ---------------------------------------------------------------------------
# IDX files

def _idx_files():
    rng = make_rng(5, 0)
    images = rng.integers(0, 256, size=(3, 5, 5)).astype(np.uint8)
    labels = np.array([1, 9, 0], dtype=np.uint8)
    image_blob = (np.array([0x803, 3, 5, 5], dtype=">i4").tobytes() + images.tobytes())
    label_blob = np.array([0x801, 3], dtype=">i4").tobytes() + labels.tobytes()
    return [(load_idx_images, image_blob, images), (load_idx_labels, label_blob, labels)]


def _variants(blob):
    """Every cut of ``blob`` short of its full length, and the blob with its
    last byte flipped."""
    yield from (blob[:n] for n in range(len(blob)))
    yield blob[:-1] + bytes([blob[-1] ^ 0xFF])


@pytest.mark.parametrize("reader, blob, want", _idx_files(), ids=["images", "labels"])
def test_idx_cuts_and_flips_load_or_raise_dataset_error(tmp_path, reader, blob, want):
    path = tmp_path / "f.idx"
    path.write_bytes(blob)
    assert np.array_equal(reader(str(path)), want)
    loaded = refused = 0
    for variant in _variants(blob):
        path.write_bytes(variant)
        try:
            reader(str(path))
            loaded += 1
        except DatasetError:
            refused += 1
    # Only the flipped payload byte still parses; every cut is refused.
    assert (loaded, refused) == (1, len(blob))


@_search(200)
@given(which=st.sampled_from([0, 1]), at=st.integers(0, 200), value=st.integers(0, 255),
       cut=st.integers(0, 200))
def test_idx_byte_edits_load_or_raise_dataset_error(tmp_path, which, at, value, cut):
    reader, blob, _ = _idx_files()[which]
    edited = bytearray(blob[:cut])
    if at < len(edited):
        edited[at] = value
    path = tmp_path / "f.idx"
    path.write_bytes(bytes(edited))
    try:
        out = reader(str(path))
    except DatasetError:
        return
    header = 16 if which == 0 else 8  # a file that loads holds exactly its header's payload
    assert out.dtype == np.uint8 and out.size == len(edited) - header


# ---------------------------------------------------------------------------
# the lateral circuit on random shapes

def _orthonormal_rows(rng, k, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return q.T.copy()


_shapes = st.integers(2, 24).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, 12),
                        st.integers(0, 2**32 - 1)))


@_search(60)
@given(shape=_shapes)
def test_projection_null_space_contract(shape):
    # Traces inside the consolidated span project to zero, any projected
    # trace is orthogonal to it, and an update on projected traces leaves
    # the layer's response to that span unchanged.
    n, k, rows, seed = shape
    rng = make_rng(seed, 0)
    h = _orthonormal_rows(rng, k, n)
    sub = LateralSubspace(n=n, H=h)
    inside = rng.normal(size=(rows, k)) @ h
    norms = np.linalg.norm(inside, axis=1)
    assert np.all(np.linalg.norm(sub.project_trace(inside), axis=1) <= 1e-10 * norms)
    x = rng.normal(size=(rows, n))
    x_hat = sub.project_trace(x)
    assert np.max(np.abs(x_hat @ h.T)) <= 1e-10 * np.max(np.linalg.norm(x, axis=1))
    layer = dense_layer(3, n, make_rng(seed, 1))
    w0 = layer.weight.copy()
    grad = LayerGrad(delta=rng.normal(size=(rows, 3)), trace=x)
    sgd_update(layer, replace(grad, trace=x_hat), lr=0.5, batch=rows)
    drift = np.abs((layer.weight - w0) @ inside.T).max(axis=0)
    assert np.all(drift <= 1e-10 * norms)


@_search(60)
@given(shape=_shapes, k_new=st.integers(1, 24), spiking=st.booleans())
def test_two_stage_update_equals_oja_form(shape, k_new, spiking):
    # y' x^T + y' x_tilde^T from the full circuit response equals the Oja
    # form y' x_hat^T - (y'^T y') H', with or without consolidated rows.
    n, k, rows, seed = shape
    rng = make_rng(seed, 0)
    k = k % n  # 0 .. n-1 consolidated rows
    k_new = 1 + (k_new - 1) % (n - k)
    mode = "spiking" if spiking else "linear"
    sub = LateralSubspace(n=n, H=_orthonormal_rows(rng, k, n), H_new=rng.normal(size=(k_new, n)),
                          mode=mode)
    x = rng.normal(size=(rows, n))
    _, _, y_new, _, x_tilde = lateral_response(sub, x)
    two_stage = y_new.T @ x + y_new.T @ x_tilde
    oja = y_new.T @ sub.project_trace(x) - (y_new.T @ y_new) @ sub.H_new
    assert np.max(np.abs(two_stage - oja)) < 1e-12
