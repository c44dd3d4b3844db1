"""The batched phase engine against the per-pass path it replaced.

`_per_pass_count` below is the phase count as it was written one pass at a
time: each pass reads G on its own intervals, forms its own coefficients
and sign count, steps (u, u') once per mesh interval over the products of
its bisected maps (`_grouped_states`, as the engine associates them), and
each whole-line pass scans G for its own lead-in. The batch
(`count_batch_pruefer`, and the channel batches of `total_count`) must
give the same counts, uncertainties, flags and side counts. A pass that
does not start from a lead-in must end at the same phase after the same
intervals, bit for bit; so must every pass of a batch of one, whose scan
is its own. A channel pass of a plane count starts from a point of the
batch's shared scan, so its final phase may move, within 1e-10. A batch
that spans couplings sweeps the mesh of the largest, so a pass at a
smaller coupling ends within 1e-8 of its phase alone. Stepped a mesh
interval at a time, a pass meets the zeros of the sweep that steps once
per sub-interval, and ends within 1e-12 of its phase.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from radcount import BoundaryMode, spectral1d, to_log, total_count
from radcount.channels import _channel_counts
from radcount.spectral1d import (
    CountResult,
    channel_energy,
    count_batch_pruefer,
    count_below_pruefer,
    counting_domain,
)
from test_spectral1d import (
    _grouped_states,
    _interval_maps,
    _random_profiles,
)

# ---------------------------------------------------------------------------
# the per-pass path


def _pass_intervals(G, alpha, E, a, z, level):
    p, q = min(a, z), max(a, z)
    nodes = spectral1d._mesh(G, alpha, p, q)
    edges = np.concatenate(([p], nodes[(nodes > p) & (nodes < q)], [q]))
    n = 2 ** level
    h = np.repeat(np.diff(edges) / n, n)
    mid = (np.repeat(edges[:-1], n)
           + h * (np.tile(np.arange(n), edges.size - 1) + 0.5))
    d = spectral1d._GAUSS * h
    g = np.asarray(G.eval(np.concatenate([mid - d, mid + d])), dtype=float)
    w1, w2 = E + alpha * g[: h.size], E + alpha * g[h.size:]
    if z < a:
        return h[::-1], w2[::-1], w1[::-1]
    return h, w1, w2


def _sweep_block(h, w1, w2, u, v, g):
    *_, maps = _interval_maps(h, w1, w2)
    us, vs = _grouped_states(maps, g, u, v)
    U = np.array(us)
    u0, u1 = U[:-1], U[1:]
    odd = (u1 == 0.0) | (((u0 < 0.0) != (u1 < 0.0)) & (u0 != 0.0))
    return us[-1], vs[-1], float(np.count_nonzero(odd))


def _magnus_sweep(h, w1, w2, theta0, g):
    u, v = math.sin(theta0), math.cos(theta0)
    zeros = 0.0
    for i in range(0, h.size, 1024):
        block = slice(i, i + 1024)
        u, v, n = _sweep_block(h[block], w1[block], w2[block], u, v, g)
        zeros += n
    return math.pi * zeros + math.atan2(u, v) % math.pi


def _pass_phase(G, alpha, E, a, z, theta0, tail):
    kappa = math.sqrt(-E)

    def final(th):
        return spectral1d._zero_tail(th, kappa, tail) if tail > 0.0 else th

    if a == z:
        return final(theta0), 0, True
    th, steps = None, 0
    for level in range(spectral1d._MAX_LEVEL + 1):
        h, w1, w2 = _pass_intervals(G, alpha, E, a, z, level)
        fine = final(_magnus_sweep(h, w1, w2, theta0, 2 ** level))
        steps += h.size
        if th is not None and abs(fine - th) <= spectral1d._SPREAD_TOL:
            return fine, steps, True
        th = fine
    return th, steps, False


def _lead_in(G, alpha, E, A, B):
    kappa = math.sqrt(-E)
    start = A, math.atan2(1.0, kappa)
    t_end = min(B, G.g_argmax)
    if kappa * (B - A) < spectral1d._LEAD_IN or not t_end > A:
        return start
    S_top = math.sqrt(max(1.0, alpha * G.g_max + E))
    ts = np.linspace(A, t_end, int(math.ceil(4.0 * S_top * (t_end - A))) + 1)
    ts = np.union1d(ts, [p for p in G.breakpoints if A < p < t_end])
    w = E + alpha * np.asarray(G.eval(ts), dtype=float)
    allowed = np.flatnonzero(w >= 0.0)
    if allowed.size == 0 or allowed[0] == 0:
        return start
    i1 = allowed[0]
    q = np.sqrt(np.maximum(-w[: i1 + 1], 0.0))
    cells = np.minimum(q[:-1], q[1:]) * np.diff(ts[: i1 + 1])
    to_t1 = np.cumsum(cells[::-1])[::-1]
    far = np.flatnonzero(to_t1 >= spectral1d._LEAD_IN)
    if far.size == 0:
        return start
    j = far[-1]
    return float(ts[j]), math.atan2(1.0, float(q[j]))


def _per_pass_count(G, alpha, E, mode=BoundaryMode.WHOLE_LINE):
    """The phase count one pass at a time, and the (theta, steps, lead-in)
    of each pass in the order the engine runs them."""
    mode = BoundaryMode(mode)
    A, B = counting_domain(G, alpha, E, mode)
    kappa = math.sqrt(-E)
    flags = ["domain-truncated"] if G.truncated else []
    if alpha * G.g_max + E <= 0.0:
        return CountResult(0, "pruefer", E, mode.value, (A, B),
                           flags=tuple(flags + ["below-spectrum"])), []
    t_lo, t_hi = G.t_support
    passes = []

    def one_pass(a, b, theta0, lead):
        if b > a:
            z = min(max(a, t_hi), b)
        elif b < a:
            z = max(min(a, t_lo), b)
        else:
            z = a
        th, n, settled = _pass_phase(G, alpha, E, a, z, theta0, abs(b - z))
        passes.append((th, n, lead))
        c, u, fl = spectral1d._zeros_from_phase(th, kappa)
        if not settled and "phase-near-node" not in fl:
            fl.insert(0, "phase-near-node")
            u = 1
        return c, u, fl, th, n

    if mode == BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0:
        right, u1, f1, _, n1 = one_pass(0.0, B, 0.0, False)
        left, u2, f2, _, n2 = one_pass(0.0, A, 0.0, False)
        count, uncertainty, steps = left + right, u1 + u2, n1 + n2
        flags += f1 + f2
        extras = {"left": left, "right": right}
    else:
        if mode == BoundaryMode.HALF_LINE_DIRICHLET:
            a, theta0, lead = 0.0, 0.0, False
        else:
            a, theta0 = _lead_in(G, alpha, E, A, B)
            lead = a != A
            a = max(a, t_lo)
        count, uncertainty, fl, th, steps = one_pass(a, B, theta0, lead)
        flags += fl
        extras = {"theta_end": th}
    return CountResult(count, "pruefer", E, mode.value, (A, B), steps,
                       uncertainty, tuple(flags), extras), passes


def _same_count(got, want, case):
    assert got.count == want.count, case
    assert got.uncertainty == want.uncertainty, case
    assert got.flags == want.flags, case
    assert got.extras.get("left") == want.extras.get("left"), case
    assert got.extras.get("right") == want.extras.get("right"), case


def _spied(monkeypatch, run):
    """run() with the passes and results of every batch recorded."""
    settle = spectral1d._pass_phases
    batches = []

    def spy(G, passes):
        batches.append((list(passes), settle(G, passes)))
        return batches[-1][1]

    with monkeypatch.context() as mp:
        mp.setattr(spectral1d, "_pass_phases", spy)
        return run(), batches


_NAMES = ("zero", "square-well", "annulus", "gaussian", "bump",
          "counterexample", "counterexample-damped",
          "counterexample-damped-strong")


@pytest.mark.parametrize("name", _NAMES)
def test_batch_of_one_is_the_per_pass_count(catalog, monkeypatch, name):
    # every mode, alpha in {3, 25, 200, 3200}, every channel up to the
    # first empty one: a count alone is a batch of one, and it is the
    # per-pass count with every final phase and step count, bit for bit
    G = to_log(catalog[name], strict=False)
    for mode in BoundaryMode:
        for alpha in (3.0, 25.0, 200.0, 3200.0):
            m = 0
            while True:
                E = channel_energy(G, alpha, m) or -1.0
                want, passes = _per_pass_count(G, alpha, E, mode)
                got, batches = _spied(monkeypatch, lambda: count_below_pruefer(
                    G, alpha, E, mode))
                case = (mode.value, alpha, m)
                _same_count(got, want, case)
                assert (got.steps, got.extras) == (want.steps,
                                                   want.extras), case
                phases = [(th, n) for _, out in batches for th, n, _ in out]
                assert phases == [(th, n) for th, n, _ in passes], case
                if not got.count:
                    break
                m += 1


@pytest.mark.parametrize("name", _NAMES)
def test_plane_count_batches_match_per_pass_counts(catalog, monkeypatch,
                                                   name):
    # alpha in {3, 25, 200, 3200}: the channel batches of total_count give
    # each channel up to the first empty one, and the Dirichlet-at-0 route,
    # the per-pass count. The Dirichlet passes end bit for bit where the
    # per-pass ones do; a channel pass that starts from a lead-in may start
    # at another point of the shared scan, and ends within 1e-10
    G = to_log(catalog[name], strict=False)
    if channel_energy(G, 1.0) is None:
        assert total_count(G, 1.0).flags == ("zero-potential",)
        return
    n_lead = 0
    for alpha in (3.0, 25.0, 200.0, 3200.0):
        [(per, rd)], batches = _spied(
            monkeypatch, lambda: _channel_counts(G, [alpha], "pruefer"))
        ran = {(ps[1], ps[2] == 0.0 and ps[4] == 0.0): out
               for passes, outs in batches
               for ps, out in zip(passes, outs)}
        E0 = channel_energy(G, alpha)
        want, passes = _per_pass_count(G, alpha, E0,
                                       BoundaryMode.WHOLE_LINE_DIRICHLET_AT_0)
        _same_count(rd, want, ("dirichlet", alpha))
        assert rd.steps == want.steps, alpha
        got = [out[:2] for passes_, outs in batches
               for ps, out in zip(passes_, outs) if ps[1] == E0
               and ps[2] == 0.0 and ps[4] == 0.0]
        assert got == [(th, n) for th, n, _ in passes], alpha
        for m, r in enumerate(per):
            E = channel_energy(G, alpha, m)
            want, passes = _per_pass_count(G, alpha, E)
            case = (alpha, m)
            _same_count(r, want, case)
            if not passes:
                continue
            (th, n, lead), = passes
            got_th, got_n, _ = ran[(E, False)]
            if lead:
                n_lead += 1
                assert abs(got_th - th) <= 1e-10, (case, got_th, th)
            else:
                assert (got_th, got_n) == (th, n), case
        assert not per[-1].count and all(r.count for r in per[:-1])
    assert n_lead > 0 or name.startswith("counterexample")


@pytest.mark.parametrize("name", _NAMES)
def test_channels_past_the_first_empty_one_are_empty(catalog, name):
    # every channel with m^2 < alpha g_max, counted in one batch: past the
    # first empty channel every count is 0, as N_m is nonincreasing in m,
    # so dropping those counts drops no state; and the plane count reads
    # the same counts up to that channel
    G = to_log(catalog[name], strict=False)
    for alpha in (3.0, 25.0, 200.0, 800.0, 3200.0):
        if channel_energy(G, alpha) is None:
            assert total_count(G, alpha).flags == ("zero-potential",)
            continue
        energies = []
        while alpha * G.g_max + (E := channel_energy(G, alpha,
                                                     len(energies))) > 0.0:
            energies.append(E)
        counts = [r.count for r in count_batch_pruefer(
            G, [(alpha, E, BoundaryMode.WHOLE_LINE) for E in energies])]
        first = counts.index(0) if 0 in counts else len(counts)
        assert not any(counts[first:]), (alpha, counts)
        b = total_count(G, alpha)
        assert list(b.per_channel.values())[:first] == counts[:first]
        assert b.extras["m_scan"] == first


def _batch_mesh(G, passes):
    # the mesh that _pass_phases sweeps the passes on
    return spectral1d._mesh(G, max(ps[0] for ps in passes),
                            min(min(ps[2:4]) for ps in passes),
                            max(max(ps[2:4]) for ps in passes))


def test_level_intervals_do_not_depend_on_the_batch(catalog, monkeypatch):
    # each pass's slice of a batch's (h, w1, w2), at levels 0..2, is its
    # arrays alone on the batch's mesh, bit for bit: the batches of plane
    # counts at alpha 25 and 3200, the Dirichlet-at-0 pair with its
    # mirrored left pass among them, and a verify-style batch of mixed
    # couplings and modes, into which go two passes inside one mesh
    # interval, no node cutting them, one each way
    rng = np.random.default_rng(5)
    kinds = set()
    for name in ("square-well", "gaussian", "bump", "counterexample-damped"):
        G = to_log(catalog[name], strict=False)
        batches = []
        for alpha in (25.0, 3200.0):
            batches += [passes for passes, _ in _spied(
                monkeypatch, lambda: total_count(G, alpha))[1]]
        queries = []
        for alpha in np.exp(rng.uniform(math.log(5.0), math.log(80.0), 40)):
            E = -float(rng.uniform(1e-4, 0.9)) * alpha * G.g_max
            queries.append((float(alpha), E,
                            list(BoundaryMode)[int(rng.integers(0, 3))]))
        mixed, _ = _spied(
            monkeypatch, lambda: count_batch_pruefer(G, queries))[1][0]
        nodes = _batch_mesh(G, mixed)
        t, step = nodes[nodes.size // 2], np.diff(nodes)[nodes.size // 2]
        p, q = t + 0.25 * step, t + 0.5 * step
        mixed[20:20] = [(mixed[0][0], -1.0, p, q, 0.3, 0.0),
                        (2.0, -0.5, q, p, 0.0, 1.0)]
        for passes in batches + [mixed]:
            live = [ps for ps in passes if ps[2] != ps[3]]
            nodes = _batch_mesh(G, live)
            for level in range(3):
                *arrays, cuts = spectral1d._level_intervals(G, nodes, live,
                                                            level)
                for ps, lo, hi in zip(live, cuts, cuts[1:]):
                    *alone, one = spectral1d._level_intervals(G, nodes, [ps],
                                                              level)
                    assert one == [0, hi - lo], (name, ps, level)
                    for x, y in zip(arrays, alone):
                        assert np.array_equal(x[lo:hi], y), (name, ps, level)
                    p, q = sorted(ps[2:4])
                    kinds.add((ps[3] < ps[2],
                               bool(np.any((nodes > p) & (nodes < q)))))
    assert kinds == {(False, False), (False, True), (True, False),
                     (True, True)}


@pytest.mark.parametrize("size", [1, 5, 1000])
def test_batch_size_does_not_move_a_plane_count(catalog, monkeypatch, size):
    # the first batch of channels holds 1, 5 or 1000 of them, not 16: the
    # breakdown is the same on every spec at alpha 25 and 800
    import radcount.channels as channels
    for name in _NAMES:
        for alpha in (25.0, 800.0):
            want = total_count(catalog[name], alpha)
            with monkeypatch.context() as mp:
                mp.setattr(channels, "_FIRST_CHANNELS", size)
                got = total_count(catalog[name], alpha)
            assert (got.per_channel, got.total, got.uncertainty, got.flags,
                    got.extras, got.radial_dirichlet_count) == (
                want.per_channel, want.total, want.uncertainty, want.flags,
                want.extras, want.radial_dirichlet_count), (name, alpha)


@seed(7)
@settings(max_examples=30, deadline=None)
@given(P=_random_profiles(), log_alpha=st.floats(math.log(3.0),
                                                 math.log(3200.0)),
       draws=st.lists(st.tuples(st.floats(1e-6, 1.2),
                                st.sampled_from(list(BoundaryMode))),
                      min_size=1, max_size=6))
def test_batch_counts_property_random_profiles(P, log_alpha, draws):
    # on random profiles, at energies down to 1.2 times the depth of
    # -alpha G, in any modes: the counts of one batch are nondecreasing in
    # E within their uncertainties, mode by mode, and each is the count of
    # its energy alone, with its flags, uncertainty and side counts; a
    # pass that starts from no lead-in ends after the same intervals
    G = to_log(P, strict=False)
    alpha = math.exp(log_alpha)
    depth = alpha * G.g_max
    assume(depth > 0.0)
    queries = sorted((-frac * depth, mode) for frac, mode in draws)
    batch = count_batch_pruefer(G, [(alpha, E, mode) for E, mode in queries])
    assert len(batch) == len(queries)
    for (E, mode), got in zip(queries, batch):
        alone = count_below_pruefer(G, alpha, E, mode)
        _same_count(got, alone, (mode.value, E))
        if mode != BoundaryMode.WHOLE_LINE:
            assert got.steps == alone.steps, (mode.value, E)
    for mode in BoundaryMode:
        seq = [r for (_, md), r in zip(queries, batch) if md == mode]
        for lo, hi in zip(seq, seq[1:]):
            assert lo.count <= hi.count + lo.uncertainty + hi.uncertainty, (
                mode.value, lo.energy, hi.energy)


@seed(11)
@settings(max_examples=60, deadline=None)
@given(P=_random_profiles(),
       log_alphas=st.lists(st.floats(math.log(3.0), math.log(3200.0)),
                           min_size=3, max_size=3, unique=True),
       draws=st.lists(st.tuples(st.floats(1e-6, 1.2),
                                st.sampled_from(list(BoundaryMode))),
                      min_size=3, max_size=7))
def test_batch_across_couplings_random_profiles(P, log_alphas, draws):
    # queries at three couplings, each at an energy down to 1.2 times the
    # depth of its -alpha G, in any modes, in one batch: it sweeps the mesh
    # of the largest coupling, which is finer than a smaller coupling's
    # own, and each query gets the count, uncertainty, flags and side
    # counts of the query counted alone. At the largest coupling a pass
    # that starts from no lead-in ends at the same phase after the same
    # intervals, bit for bit, and one that does within 1e-10 (the shared
    # scan); at a smaller one every final phase lies within 1e-8
    G = to_log(P, strict=False)
    alphas = [math.exp(x) for x in log_alphas]
    assume(G.g_max > 0.0)
    queries = [(alphas[j % 3], -frac * alphas[j % 3] * G.g_max, mode)
               for j, (frac, mode) in enumerate(draws)]
    batch, (seen,) = _spied(pytest.MonkeyPatch,
                            lambda: count_batch_pruefer(G, queries))
    outs = iter(seen[1])
    for (alpha, E, mode), got in zip(queries, batch):
        alone, runs = _spied(pytest.MonkeyPatch,
                             lambda: count_below_pruefer(G, alpha, E, mode))
        case = (alpha, mode.value, E)
        _same_count(got, alone, case)
        for want in (out for _, outs_ in runs for out in outs_):
            th, n, _ = next(outs)
            if alpha < max(alphas):
                assert abs(th - want[0]) <= 1e-8, (case, th, want[0])
            elif mode != BoundaryMode.WHOLE_LINE:
                assert (th, n) == want[:2], case
            else:
                assert abs(th - want[0]) <= 1e-10, (case, th, want[0])
    assert next(outs, None) is None


def _sequential_sweep(h, w1, w2, theta0):
    """(zeros, phase) of one pass swept a sub-interval at a time."""
    u, v, n = _sweep_block(h, w1, w2, math.sin(theta0), math.cos(theta0), 1)
    return n, math.pi * n + math.atan2(u, v) % math.pi


def test_grouped_sweep_is_the_sequential_sweep(catalog, monkeypatch):
    # every pass of the batches of the catalog's plane counts at alpha 25
    # and of its m = 0 counts in every mode, at every level 0..8: stepped
    # once per mesh interval, over the products of its 2^level maps, a
    # pass meets the zeros of the sweep that steps once per sub-interval,
    # and its final phase lies within 1e-12 of that sweep's, bit for bit
    # at level 0. Mirrored passes and passes that straddle two blocks of
    # _BATCH_INTERVALS are among them
    block = spectral1d._BATCH_INTERVALS
    kinds = set()
    for name in _NAMES[1:]:
        G = to_log(catalog[name], strict=False)
        E = channel_energy(G, 25.0)
        _, batches = _spied(monkeypatch, lambda: [total_count(G, 25.0)] + [
            count_below_pruefer(G, 25.0, E, mode) for mode in BoundaryMode])
        for passes, _ in batches:
            live = [ps for ps in passes if ps[2] != ps[3]]
            if not live:
                continue
            nodes = _batch_mesh(G, live)
            for level in range(spectral1d._MAX_LEVEL + 1):
                g = 2 ** level
                h, w1, w2, cuts = spectral1d._level_intervals(G, nodes, live,
                                                              level)
                thetas = spectral1d._magnus_sweep(
                    h, w1, w2, cuts, [ps[4] for ps in live], g)
                for ps, th, lo, hi in zip(live, thetas, cuts, cuts[1:]):
                    case = (name, ps, level)
                    n, want = _sequential_sweep(h[lo:hi], w1[lo:hi],
                                                w2[lo:hi], ps[4])
                    (_, _, got_n), = spectral1d._sweep_block(
                        h[lo:hi], w1[lo:hi], w2[lo:hi], [0, hi - lo],
                        [(math.sin(ps[4]), math.cos(ps[4]))], g)
                    assert got_n == n, case
                    if level:
                        assert abs(th - want) <= 1e-12, (case, th, want)
                    else:
                        assert th == want, case
                    kinds.add((ps[3] < ps[2],
                               lo // block != (hi - 1) // block))
    assert kinds == {(False, False), (False, True), (True, False),
                     (True, True)}


def test_grouped_sweep_meets_u_zero_inside_a_group():
    # over w = 0 and h = 1, (1/2, -1/2) maps to (0, -1), then to
    # (-1/2, -1/2): u reaches 0 exactly at the end of the first interval,
    # inside a group of 2, 4 or 8, where the group's first product puts it
    # too. That end holds the one zero, as the sequential sweep has it
    rng = np.random.default_rng(11)
    h = np.concatenate([[1.0, 1.0], rng.uniform(0.05, 0.2, 62)])
    w1, w2 = (np.concatenate([[0.0, 0.0], w])
              for w in rng.uniform(-100.0, 6.0, (2, 62)))
    *_, maps = _interval_maps(h, w1, w2)
    want = _sweep_block(h, w1, w2, 0.5, -0.5, 1)
    for g in (2, 4, 8):
        us, _ = _grouped_states(maps, g, 0.5, -0.5)
        assert us[1] == 0.0 and us[2] == -0.5, g
        (u, v, n), = spectral1d._sweep_block(h, w1, w2, [0, h.size],
                                             [(0.5, -0.5)], g)
        assert n == want[2], g
        assert (u, v) == pytest.approx(want[:2], abs=1e-14), g
        (u, v, n), = spectral1d._sweep_block(h[:2], w1[:2], w2[:2], [0, 2],
                                             [(0.5, -0.5)], 2)
        assert (u, v, n) == (-0.5, -0.5, 1.0)
