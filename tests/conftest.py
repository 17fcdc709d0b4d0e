import os

# One BLAS/OpenMP thread, as `nlpf --threads 1` runs: the pools read these
# variables once, when numpy is first imported, which happens after this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def ex1_outputs(tmp_path_factory):
    from nlpf.repro import repro_ex1

    return repro_ex1(str(tmp_path_factory.mktemp("ex1")))


@pytest.fixture(scope="session")
def ex2_outputs(tmp_path_factory):
    from nlpf.repro import repro_ex2

    return repro_ex2(str(tmp_path_factory.mktemp("ex2")))


@pytest.fixture(scope="session")
def ex3_outputs(tmp_path_factory):
    from nlpf.repro import repro_ex3

    return repro_ex3(str(tmp_path_factory.mktemp("ex3")))


@pytest.fixture(scope="session")
def all_repro_results(ex1_outputs, ex2_outputs, ex3_outputs):
    """(label, variant, RunResult) triples of every reproduction run."""
    out = []
    for label, summary in (("ex1", ex1_outputs), ("ex2", ex2_outputs),
                           ("ex3", ex3_outputs)):
        for key, res in summary["results"].items():
            out.append((label, key, res))
    return out
