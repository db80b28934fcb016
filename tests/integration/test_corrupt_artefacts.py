"""Damaged artefacts fail as one typed error, before anything runs.

The grid is artefact kind (training checkpoint, index trace, batch trace)
× damage: an empty file, truncation at several offsets, a file that is
not a zip, one byte flipped inside each member's compressed data, each
member dropped (every parameter's optimizer state is written, so none is
optional), and each header field rewritten as a vector.
Every cell must raise ``ValueError`` naming the path (and the member where
one is at fault), leave no archive open, and — for a checkpoint — leave
the trainer it was being restored into exactly as it was.  The CLI cells
check that ``--resume`` and ``--trace`` turn the same damage into exit 2
with one ``error:`` line.
"""

import io
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.data.generator import SyntheticCTRStream
from repro.data.trace import (
    TraceReplaySource,
    load_trace,
    record_trace,
    save_trace,
)
from repro.experiments.overlap import OVERLAP_CONFIG
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import Adagrad
from repro.runtime.checkpoint import restore_trainer, save_checkpoint
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=2, rows_per_table=16,
    bottom_mlp=(4, 2), top_mlp=(2, 1), embedding_dim=2,
)


def _stream():
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=0,
    )


def _trainer():
    return FunctionalTrainer(
        DLRM(CONFIG, rng=np.random.default_rng(0)), _stream(), Adagrad(lr=0.1)
    )


def _write_checkpoint(directory):
    trainer = _trainer()
    trainer.train(4, 1, np.random.default_rng(1))
    return save_checkpoint(directory / "artefact.npz", trainer, 1)


def _write_index_trace(directory):
    batch = _stream().next_batch(4, np.random.default_rng(1))
    return save_trace(directory / "artefact.npz", batch.indices)


def _write_batch_trace(directory):
    return record_trace(
        _stream(), directory / "artefact.npz", 4, 2, np.random.default_rng(1)
    )


def _restore(path):
    """Restore into a fresh trainer; on failure, check nothing changed."""
    trainer = _trainer()
    before = [param.copy() for param in trainer.model.all_parameters()]
    try:
        restore_trainer(trainer, path)
    except ValueError:
        after = trainer.model.all_parameters()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        state = trainer.optimizer.export_state(trainer.named_parameters())
        assert not any(tensor.any() for tensor in state.values())
        raise


def _replay(path):
    with TraceReplaySource(path) as source:
        for _ in range(source.num_steps):
            source.next_batch(None)


#: kind -> (writer, loader, header fields that must be scalars).
KINDS = {
    "checkpoint": (_write_checkpoint, _restore,
                   ("checkpoint_version", "step", "optimizer_class",
                    "hyper/lr", "hyper/eps")),
    "index-trace": (_write_index_trace, load_trace,
                    ("num_tables", "num_rows_0", "num_outputs_0",
                     "num_rows_1", "num_outputs_1")),
    "batch-trace": (_write_batch_trace, _replay,
                    ("batch_trace_version", "num_steps", "num_tables",
                     "dense_features", "outs_0", "outs_1")),
}

def _members(kind):
    """The member names of ``kind``'s artefact (collection time)."""
    with tempfile.TemporaryDirectory() as scratch:
        path = KINDS[kind][0](Path(scratch))
        with zipfile.ZipFile(path) as archive:
            return [name[:-len(".npy")] for name in archive.namelist()]


MEMBERS = {kind: _members(kind) for kind in KINDS}


def _cells(select):
    return [
        pytest.param(kind, member, id=f"{kind}-{member}")
        for kind in KINDS for member in select(kind)
    ]


@pytest.fixture
def opened(monkeypatch):
    """Every archive ``np.load`` opens during the test."""
    archives = []
    real_load = np.load

    def recording_load(*args, **kwargs):
        archive = real_load(*args, **kwargs)
        archives.append(archive)
        return archive

    monkeypatch.setattr(np, "load", recording_load)
    return archives


def _fails(kind, path, opened):
    """``kind``'s loader raises ValueError on ``path``, leaving every
    archive it opened closed; returns the message."""
    with pytest.raises(ValueError) as error:
        KINDS[kind][1](path)
    for archive in opened:
        if isinstance(archive, np.lib.npyio.NpzFile):
            assert archive.zip is None, "an archive was left open"
    return str(error.value)


def _rewrite(path, drop=None, replace=None):
    """Rewrite the zip at ``path`` without ``drop`` and with ``replace``'s
    members (name -> array) stored in place of the originals."""
    replace = replace or {}
    with zipfile.ZipFile(path) as archive:
        members = {
            info.filename: archive.read(info.filename)
            for info in archive.infolist()
        }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for filename, data in members.items():
            name = filename[:-len(".npy")]
            if name == drop:
                continue
            if name in replace:
                buffer = io.BytesIO()
                np.save(buffer, replace[name])
                data = buffer.getvalue()
            archive.writestr(filename, data)


def _flip_in_member(path, member):
    """Flip one byte in the middle of ``member``'s compressed data."""
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member + ".npy")
    name_len, extra_len = struct.unpack_from(
        "<HH", data, info.header_offset + 26
    )
    start = info.header_offset + 30 + name_len + extra_len
    data[start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_an_intact_artefact_loads(kind, tmp_path, opened):
    KINDS[kind][1](KINDS[kind][0](tmp_path))
    assert all(archive.zip is None for archive in opened)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_empty_file(kind, tmp_path, opened):
    path = tmp_path / "empty.npz"
    path.write_bytes(b"")
    assert str(path) in _fails(kind, path, opened)


TRUNCATIONS = {
    "1-byte": lambda size: 1,
    "4-bytes": lambda size: 4,
    "30-bytes": lambda size: 30,
    "quarter": lambda size: size // 4,
    "half": lambda size: size // 2,
    "three-quarters": lambda size: 3 * size // 4,
    "inside-the-directory-end": lambda size: size - 12,
    "last-byte-missing": lambda size: size - 1,
}


@pytest.mark.parametrize("cut", sorted(TRUNCATIONS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_truncated(kind, cut, tmp_path, opened):
    path = KINDS[kind][0](tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:TRUNCATIONS[cut](len(data))])
    assert str(path) in _fails(kind, path, opened)


def _npy_bytes():
    buffer = io.BytesIO()
    np.save(buffer, np.arange(4))
    return buffer.getvalue()


NOT_A_ZIP = {
    "text": lambda: b"step,optimizer\n1,sgd\n",
    "npy": _npy_bytes,
    "noise": lambda: bytes(range(256)) * 4,
}


@pytest.mark.parametrize("content", sorted(NOT_A_ZIP))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_not_a_zip(kind, content, tmp_path, opened):
    path = tmp_path / "artefact.npz"
    path.write_bytes(NOT_A_ZIP[content]())
    assert str(path) in _fails(kind, path, opened)


@pytest.mark.parametrize("kind,member", _cells(lambda kind: MEMBERS[kind]))
def test_byte_flipped_in_a_member(kind, member, tmp_path, opened):
    path = KINDS[kind][0](tmp_path)
    _flip_in_member(path, member)
    message = _fails(kind, path, opened)
    assert str(path) in message and repr(member) in message


@pytest.mark.parametrize("kind,member", _cells(lambda kind: MEMBERS[kind]))
def test_required_member_dropped(kind, member, tmp_path, opened):
    path = KINDS[kind][0](tmp_path)
    _rewrite(path, drop=member)
    message = _fails(kind, path, opened)
    # A checkpoint's hyperparameters, parameters and optimizer state are
    # checked against the trainer they restore into, and that message
    # names the member.
    leaf = member.split("/")[-1]
    assert str(path) in message or leaf in message


@pytest.mark.parametrize("shape", ["length-1", "length-2"])
@pytest.mark.parametrize("kind,member", _cells(lambda kind: KINDS[kind][2]))
def test_header_field_not_a_scalar(kind, member, shape, tmp_path, opened):
    path = KINDS[kind][0](tmp_path)
    with np.load(path) as archive:
        value = archive[member]
    vector = np.stack([value] * (1 if shape == "length-1" else 2))
    _rewrite(path, replace={member: vector})
    message = _fails(kind, path, opened)
    assert str(path) in message and repr(member) in message


@pytest.mark.parametrize("bad", ["2-d", "too-short", "float"])
def test_rows_per_table_has_one_integer_per_table(bad, tmp_path, opened):
    path = _write_batch_trace(tmp_path)
    with np.load(path) as archive:
        rows = archive["rows_per_table"]
    rewritten = {"2-d": rows[:, None], "too-short": rows[:1],
                 "float": rows.astype(np.float64)}[bad]
    _rewrite(path, replace={"rows_per_table": rewritten})
    message = _fails("batch-trace", path, opened)
    assert str(path) in message and "'rows_per_table'" in message


# ----------------------------------------------------------------------
# The CLI: the same damage exits 2 with one error line
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def overlap_checkpoint(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt")
    assert cli.main(["overlap", "--batches", "16",
                     "--steps", "1", "--checkpoint-dir", str(directory)]) == 0
    return (directory / "overlap-b16.npz").read_bytes()


@pytest.fixture(scope="module")
def overlap_trace(tmp_path_factory):
    config = OVERLAP_CONFIG.with_overrides(rows_per_table=64)
    stream = SyntheticCTRStream(
        num_tables=config.num_tables, num_rows=config.rows_per_table,
        lookups_per_sample=config.gathers_per_table,
        dense_features=config.dense_features, seed=0,
    )
    path = record_trace(stream, tmp_path_factory.mktemp("trace") / "t.npz",
                        8, 3, np.random.default_rng(1))
    return path.read_bytes()


def _damage(path, how):
    if how == "empty":
        path.write_bytes(b"")
    elif how == "truncated":
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
    elif how == "not-a-zip":
        path.write_bytes(NOT_A_ZIP["text"]())
    else:
        action, member = how.split(":")
        if action == "flip":
            _flip_in_member(path, member)
        elif action == "drop":
            _rewrite(path, drop=member)
        else:
            with np.load(path) as archive:
                value = archive[member]
            _rewrite(path, replace={member: np.stack([value, value])})


def _exits_2_with_one_line(argv, path, capsys):
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0]


@pytest.mark.parametrize("how", [
    "empty", "truncated", "not-a-zip", "flip:param/table_0", "drop:step",
    "drop:optimizer_class", "vector:step",
])
def test_resume_of_a_damaged_checkpoint_exits_2(
        how, overlap_checkpoint, tmp_path, capsys):
    path = tmp_path / "damaged.npz"
    path.write_bytes(overlap_checkpoint)
    _damage(path, how)
    _exits_2_with_one_line(
        ["overlap", "--batches", "16", "--steps", "1",
         "--resume", str(path)], path, capsys)


@pytest.mark.parametrize("how", [
    "empty", "truncated", "not-a-zip", "flip:src_0_0", "flip:labels_2",
    "drop:num_steps", "drop:dst_1_1", "vector:num_tables",
])
@pytest.mark.parametrize("experiment", ["cache", "overlap"])
def test_trace_of_a_damaged_batch_trace_exits_2(
        experiment, how, overlap_trace, tmp_path, capsys):
    path = tmp_path / "damaged.npz"
    path.write_bytes(overlap_trace)
    _damage(path, how)
    argv = [experiment, "--trace", str(path), "--steps", "3"]
    _exits_2_with_one_line(argv, path, capsys)
