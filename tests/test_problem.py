import numpy as np
import pytest

from cdanneal.errors import ParameterError, ResourceCapError
from cdanneal.pauli import PauliSum, is_stoquastic, to_dense
from cdanneal.problem import (
    STATEVECTOR_CAP,
    ProblemInstance,
    classical_energies,
    generate_instance,
    ground_state,
    instance_seed,
    load_instance,
    mixer_hamiltonian,
    problem_hamiltonian,
    save_instance,
)


def test_generation_deterministic():
    a = generate_instance(3, 12345)
    b = generate_instance(3, 12345)
    assert a == b
    assert generate_instance(3, 12346) != a


def test_generation_structure():
    inst = generate_instance(3, 7)
    assert len(inst.couplings) == 3
    assert len(inst.fields) == 3
    assert [(i, j) for i, j, _ in inst.couplings] == [(0, 1), (0, 2), (1, 2)]


def test_negative_seeds_are_refused():
    for call in (
        lambda: generate_instance(3, -1),
        lambda: instance_seed(-1, 0),
        lambda: instance_seed(0, -1),
    ):
        with pytest.raises(ParameterError, match=">= 0"):
            call()


def test_generation_statistics():
    # 3-sigma bands for the pooled standard-normal draws (> 1e5 samples).
    values = []
    for k in range(2000):
        inst = generate_instance(10, instance_seed(2024, k))
        values.extend(v for _, _, v in inst.couplings)
        values.extend(inst.fields)
    values = np.asarray(values)
    assert values.size >= 100_000
    assert -0.02 <= values.mean() <= 0.02
    assert 0.97 <= values.var() <= 1.03


def test_generation_validation():
    with pytest.raises(ParameterError):
        generate_instance(0, 1)


def test_instance_validation():
    nan, inf = float("nan"), float("inf")
    for couplings, fields in (
        (((1, 0, 1.0),), (0.0, 0.0)),
        ((), (0.0,)),
        (((0, 1, 1.0), (0, 1, 1.3)), (0.0, 0.0)),
        ((), (nan, 0.0)),
        ((), (0.0, -inf)),
        (((0, 1, nan),), (0.0, 0.0)),
        (((0, 1, inf),), (0.0, 0.0)),
    ):
        with pytest.raises(ParameterError):
            ProblemInstance(2, couplings=couplings, fields=fields, seed=0)


def test_instance_file_round_trip(tmp_path):
    inst = generate_instance(4, 99)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again.n == inst.n
    assert again.seed == inst.seed
    assert again.couplings == inst.couplings
    assert again.fields == inst.fields


def test_instance_file_rejects_unknown(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "seed": 1, "h": [0, 0], "J": [], "extra": 1}')
    with pytest.raises(ParameterError):
        load_instance(path)
    path.write_text("{broken")
    with pytest.raises(ParameterError):
        load_instance(path)


def test_problem_hamiltonian_examples():
    single = ProblemInstance(1, (), (2.0,), seed=0)
    assert problem_hamiltonian(single).approx_eq(PauliSum.from_labels({"Z": 2.0}))

    pair = ProblemInstance(2, ((0, 1, -1.0),), (0.0, 0.0), seed=0)
    assert problem_hamiltonian(pair).approx_eq(PauliSum.from_labels({"ZZ": -1.0}))


def test_problem_hamiltonian_diagonal_and_stoquastic():
    inst = generate_instance(4, 11)
    ham = problem_hamiltonian(inst)
    assert all(s.is_diagonal for s, _ in ham)
    assert is_stoquastic(ham)


def test_problem_hamiltonian_matches_classical_energies():
    inst = generate_instance(5, 21)
    diag = np.real(np.diag(to_dense(problem_hamiltonian(inst))))
    assert np.allclose(diag, classical_energies(inst), atol=1e-12)


def test_mixer_examples():
    assert mixer_hamiltonian(1).approx_eq(PauliSum.from_labels({"X": -1.0}))
    assert mixer_hamiltonian(2).approx_eq(
        PauliSum.from_labels({"XI": -1.0, "IX": -1.0})
    )


def test_mixer_ground_state_is_uniform():
    n = 3
    dense = to_dense(mixer_hamiltonian(n))
    eigenvalues, eigenvectors = np.linalg.eigh(dense)
    assert eigenvalues[0] == pytest.approx(-n)
    uniform = np.full(1 << n, 2.0 ** (-n / 2))
    overlap = abs(np.vdot(eigenvectors[:, 0], uniform))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_ground_state_examples():
    single = ProblemInstance(1, (), (-0.5,), seed=0)
    truth = ground_state(single)
    assert truth.energy == pytest.approx(-0.5)
    assert truth.states == (0,)
    assert not truth.degenerate

    ferro = ProblemInstance(2, ((0, 1, -1.0),), (0.0, 0.0), seed=0)
    truth = ground_state(ferro)
    assert truth.energy == pytest.approx(-1.0)
    assert truth.states == (0, 3)
    assert truth.degenerate


def test_ground_state_matches_dense_diagonal():
    for seed in range(5):
        inst = generate_instance(6, instance_seed(31, seed))
        truth = ground_state(inst)
        diag = np.real(np.diag(to_dense(problem_hamiltonian(inst))))
        assert truth.energy == pytest.approx(float(diag.min()), abs=1e-12)
        assert truth.states == (int(diag.argmin()),)


def test_ground_state_cap():
    # Refused before the 2^n energy vector is allocated.
    inst = generate_instance(STATEVECTOR_CAP + 1, 3)
    with pytest.raises(ResourceCapError):
        ground_state(inst)


def test_gaussian_instances_rarely_degenerate():
    flags = [ground_state(generate_instance(5, instance_seed(47, k))).degenerate for k in range(50)]
    assert not any(flags)


def test_instance_seed_stable():
    # Frozen: the seed derivation must never drift between releases.
    assert instance_seed(20220301, 0) == instance_seed(20220301, 0)
    assert instance_seed(20220301, 0) != instance_seed(20220301, 1)
    assert 0 <= instance_seed(1, 2) < 2**64
