"""Scenario files of the three benchmark workloads, built from the benchmark seed.

Each workload is a list of ``(name, text)`` pairs in the ``bsskit`` scenario
format.  Everything random in a scenario (sources, mixing, per-repetition
seeds) follows from its ``seed`` line, which is derived from the benchmark
seed and the scenario's position, so two scenarios of one run never share
data.  The only input drawn here rather than inside ``bsskit`` is the FIR
channel of the ``unimodal`` scenario, which the scenario format takes as
literal tap matrices.
"""

import random


def _sources(kinds):
    return "".join(f"source.{i}.kind = {kind}\n" for i, kind in enumerate(kinds, start=1))


def _ar1_sources(coefficients):
    return "".join(f"source.{i}.kind = ar1\nsource.{i}.ar_coefficient = {rho!r}\n"
                   for i, rho in enumerate(coefficients, start=1))


def _fir_taps(seed, order=5, sensors=4, sources=2):
    """Random order-5 MIMO channel with unit expected power per sensor-source path."""
    rng = random.Random(seed)
    scale = (order + 1) ** -0.5
    lines = []
    for k in range(order + 1):
        rows = [" ".join(repr(rng.gauss(0.0, 1.0) * scale) for _ in range(sources))
                for _ in range(sensors)]
        lines.append(f"mixing.tap.{k} = {' ; '.join(rows)}\n")
    return "".join(lines)


# Repetitions per round, the last field of each entry, average out how much
# a seed's data moves iteration counts and the separation index.
def _tensor_batch():
    uni8 = _sources(["uniform"] * 8) + "samples = 20000\nmixing = random_orthogonal\n"
    uni6 = _sources(["uniform"] * 6) + "samples = 20000\nmixing = random_orthogonal\n"
    return [
        ("jade_n8", uni8 + "algorithm = jade\n", 2),
        ("jacobi_n6", uni6 + "algorithm = jacobi\n", 2),
        ("rank1_sea_n8", uni8 + "algorithm = rank1_sea\n", 2),
        ("fastica_n8", uni8 + "algorithm = fastica\n", 2),
    ]


def _sample_stream(seed):
    return [
        ("adaptive_n4", _sources(["uniform"] * 4)
         + "samples = 20000\nmixing = random_orthogonal\nalgorithm = adaptive\n"
         + "algorithm.step_size = 0.002\n", 2),
        ("cma_n3", _sources(["bpsk"] * 3)
         + "samples = 20000\nmixing = random_orthogonal\nalgorithm = cma\nalgorithm.epochs = 3\n", 3),
        ("unimodal_l16", _sources(["bpsk"] * 2)
         + "samples = 20000\nmixing = convolutive\n" + _fir_taps(seed)
         + "algorithm = unimodal\nalgorithm.window_length = 16\n", 3),
    ]


def _long_block():
    block = "samples = 400000\nmixing = random_condition(10)\n"
    return [
        ("amuse_ar1_n4", _ar1_sources([0.9, 0.5, 0.0, -0.5]) + block + "algorithm = amuse\n", 1),
        ("jade_n4", _sources(["uniform"] * 4) + block + "algorithm = jade\n", 1),
        ("sea_n4", _sources(["uniform"] * 4) + block + "algorithm = sea\n", 2),
        ("fastica_tanh_n4", _sources(["laplace"] * 4) + block
         + "algorithm = fastica\nalgorithm.score = tanh\n", 2),
        ("det_cm_n3", _sources(["uniform"] * 3) + block + "algorithm = det_cm\n", 2),
    ]


WORKLOADS = ("tensor-batch", "sample-stream", "long-block")


def build(workload, seed):
    """Scenario texts of ``workload`` for benchmark seed ``seed``."""
    if workload == "tensor-batch":
        bodies = _tensor_batch()
    elif workload == "sample-stream":
        bodies = _sample_stream(seed)
    elif workload == "long-block":
        bodies = _long_block()
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [(name, body + f"seed = {seed * 16 + k}\nrepetitions = {reps}\n")
            for k, (name, body, reps) in enumerate(bodies)]
