import hashlib
import math
import struct

import numpy as np

import neuronmf.particle
from neuronmf import InitialLaw, RateFunction, SystemConfig, init_system, simulate, simulate_coupled, solve_marginals
from neuronmf.rng import BLOCK_UNIFORMS, read_blocks, stream_key, uniform_array

KEY = stream_key(7, "prop")
FX2 = RateFunction.power(1, 2)


class TestUniformBlocks:
    def test_block_is_the_keyed_blake2b_digest(self):
        digest = hashlib.blake2b(struct.pack("<qQ", -3, 5), key=KEY, digest_size=64).digest()
        words = struct.unpack("<8Q", digest)
        assert uniform_array(KEY, [-3], 5, 1).tolist() == [[(w >> 11) * 2.0**-53 for w in words]]

    def test_blocks_split_across_calls(self):
        whole = uniform_array(KEY, [4, 0, 9], 0, 4).tolist()
        head, tail = uniform_array(KEY, [4, 0, 9], 0, 2).tolist(), uniform_array(KEY, [4, 0, 9], 2, 2).tolist()
        assert whole == [h + t for h, t in zip(head, tail)]
        assert all(len(row) == 4 * BLOCK_UNIFORMS for row in whole)

    def test_row_independent_of_other_labels(self):
        alone = uniform_array(KEY, [9], 0, 4).tolist()[0]
        assert uniform_array(KEY, [4, 0, 9], 0, 4).tolist()[2] == alone
        assert uniform_array(KEY, [9, -1], 0, 4).tolist()[0] == alone

    def test_read_blocks_mixes_keys(self):
        # triples under alternating keys read the blocks uniform_array reads under each key alone
        other = stream_key(8, "prop")
        triples = [(KEY, 4, 1), (other, 4, 1), (KEY, -2, 0), (KEY, 4, 3), (other, 0, 2)]
        alone = [uniform_array(key, [i], b, 1)[0] for key, i, b in triples]
        assert read_blocks(triples).tobytes() == np.concatenate(alone).tobytes()

    def test_streams_differ_by_label_and_key(self):
        rows = uniform_array(KEY, range(50), 0, 2).tolist() + uniform_array(stream_key(8, "prop"), [0], 0, 2).tolist()
        u = np.array(rows)
        assert np.unique(u).size == u.size
        assert np.all((u >= 0.0) & (u < 1.0))


def test_engine_builds_no_generator(monkeypatch):
    cfg = SystemConfig(
        n=20, lam=1.0, rate=RateFunction.power(1, 2), initial=InitialLaw.exponential(1.0), horizon=1.0, seed=3
    )
    sol = solve_marginals(cfg, snapshot_times=[1.0])

    def refuse(*args, **kwargs):
        raise AssertionError("the engine built a generator")

    monkeypatch.setattr(neuronmf.particle, "substream", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    log, _ = simulate(cfg, [1.0])
    (stats,) = simulate_coupled(cfg, sol, [1.0], seeds=[cfg.seed])
    assert log.proposals > 0 and stats.proposals > 0
    assert init_system(cfg).n == cfg.n




def test_engine_reads_the_documented_layout():
    # uniform 0 of each label is its neuron's initial potential
    cfg = SystemConfig(n=5, lam=1.0, rate=FX2, initial=InitialLaw.exponential(1.0), horizon=1.0, seed=5)
    first = [row[0] for row in uniform_array(stream_key(5, "prop"), [3, 0, 4, 1, 2], 0, 1).tolist()]
    log, _ = simulate(cfg, [], stream_labels=[3, 0, 4, 1, 2])
    assert log.initial_values.tolist() == cfg.initial.quantile(first).tolist()

    # N=2 at lam=0 from 1.0: bounds are the rates, so every proposal spikes,
    # and the neurons take turns (a reset neuron has rate 0 until kicked).
    # Uniform 1 is a neuron's first clock and its k-th proposal reads the pair
    # (2k, 2k + 1); 40 spikes read past 32 uniforms, so a row that starts at
    # one block (8 uniforms) is refilled three times
    cfg = SystemConfig(n=2, lam=0.0, rate=FX2, initial=InitialLaw.point_mass(1.0), horizon=200.0, seed=5)
    log, _ = simulate(cfg, [])
    rows = uniform_array(stream_key(5, "prop"), [0, 1], 0, 16).tolist()
    x, used, times, indices = [1.0, 1.0], [2, 2], [], []
    bounds = [max(FX2(v), 1e-300) for v in x]
    clocks = [-math.log1p(-row[1]) / b for row, b in zip(rows, bounds)]
    while len(times) < 40:
        i = int(clocks[1] < clocks[0])
        tau, next_u = clocks[i], rows[i][used[i] + 1]
        used[i] += 2
        times.append(tau)
        indices.append(i)
        x[i], x[1 - i] = 0.0, x[1 - i] + 0.5
        old, bounds = bounds, [max(FX2(v), 1e-300) for v in x]
        clocks = [(c - tau) * o / b + tau for c, o, b in zip(clocks, old, bounds)]
        clocks[i] = tau - math.log1p(-next_u) / bounds[i]
    assert max(used) > 2 * 2 * BLOCK_UNIFORMS
    assert log.indices[:40].tolist() == indices
    assert np.allclose(log.times[:40], times, rtol=1e-12, atol=0.0)
