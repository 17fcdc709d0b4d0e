import numpy as np

import outputs


def test_two_dumps_compare_bit_identical_and_a_perturbed_field_fails(tmp_path, capsys):
    # tests/outputs.py, the parent-vs-change comparison, on the tiny 1D part:
    # two dumps of the same code are bit-identical; a field moved by 1e-9
    # fails the default bound and passes a looser one, as "differs"
    a, b = tmp_path / "a", tmp_path / "b"
    for directory in (a, b):
        assert outputs.main(["dump", str(directory), "--part", "tiny1d"]) == 0
    capsys.readouterr()
    assert outputs.main(["compare", str(a), str(b), "--bound", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.endswith(": bit-identical") for line in lines)

    path = sorted(b.glob("*.npz"))[0]
    with np.load(path) as f:
        arrays = dict(f)
    key = max(k for k in arrays if k.endswith(".u"))
    arrays[key][0] += 1e-9
    np.savez(path, **arrays)
    assert outputs.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"{path.stem}: differs" in out and "u: max |diff| 1e-09" in out
    assert outputs.main(["compare", str(a), str(b), "--bound", "1e-6"]) == 0


def test_compare_lists_changed_sweep_counts_and_missing_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    counts = {"diag.pdas_iters": np.array([2, 3, 1]), "diag.cg_iters": np.zeros(3, int)}
    np.savez(a / "run.npz", **counts)
    np.savez(a / "only_a.npz", **counts)
    np.savez(b / "run.npz", **{**counts, "diag.pdas_iters": np.array([2, 4, 1])})
    assert outputs.main(["compare", str(a), str(b), "--bound", "10"]) == 1
    out = capsys.readouterr().out
    assert "only_a: only in" in out
    assert "diag.pdas_iters changed at steps [2]: [3] -> [4]" in out
