"""``tools/cli_matrix.py --compare``: the drift table of two output matrices."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"
spec = importlib.util.spec_from_file_location("cli_matrix", TOOL)
cli_matrix = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_matrix)


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(text, np.ndarray):
            np.save(path, text)
        else:
            path.write_text(text, encoding="utf-8")


def test_compare_measures_every_kind_of_drift(tmp_path, capsys):
    base = {
        "run/exit_code.txt": "0\n",
        "run/stderr.txt": "",
        "run/report.csv": "section,key,value\npicard,iterations,8\npicard,difference_08,4e-12\n",
        "run/trajectory.csv": "t,xi_0,xi_1\n0,0,0\n0.5,2.0,1e-6\n",
        "run/same.csv": "t,xi_0\n0,1\n",
        "wide/coeff.npy": np.array([1.0, -4.0]),
    }
    head = dict(base)
    head["run/exit_code.txt"] = "2\n"
    head["run/report.csv"] = "section,key,value\npicard,iterations,9\npicard,difference_08,5e-12\n"
    head["run/trajectory.csv"] = "t,xi_0,xi_1\n0,0,0\n0.5,2.0,1.1e-6\n"
    head["wide/coeff.npy"] = np.array([1.0, -4.0 + 4e-13])
    write(tmp_path / "base", base)
    write(tmp_path / "head", head)
    assert cli_matrix.main(["--compare", str(tmp_path / "base"), str(tmp_path / "head")]) == 1
    rows = {
        line.split("`")[1]: line.split("|")[2].strip()
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("| `")
    }
    assert rows == {
        "run/exit_code.txt": "text: '0' -> '2'",
        "run/report.csv": "text or integers: picard,iterations value 8 -> 9; "
        "largest cell change 0.25 (1e-12 absolute) in picard,difference_08 value",
        # the table's deviation is 1e-7 / 2.0; xi_1's own is 1e-7 / 1e-6
        "run/trajectory.csv": "norm-relative deviation 5e-08 (largest in one column: 0.1, xi_1)",
        "wide/coeff.npy": "norm-relative deviation 1e-13",
    }


def test_identical_matrices_compare_clean(tmp_path, capsys):
    files = {"run/exit_code.txt": "0\n", "run/report.csv": "section,key,value\na,b,1.5\n"}
    write(tmp_path / "base", files)
    write(tmp_path / "head", files)
    assert cli_matrix.main(["--compare", str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    assert capsys.readouterr().out.startswith("0 of 2 files differ")
