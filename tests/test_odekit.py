import numpy as np
import pytest

from confgames import (BlowUpDetected, NumericalFailure, TimeGrid,
                       integrate_backward, integrate_forward, simpson_nodes)
from confgames import odekit
from confgames.odekit import (BLOWUP_THRESHOLD, StageBlocks, backward_running_sum,
                              stage_blocks, stage_samples)
from confgames.riccati import _sym_stack


class TestTimeGrid:
    def test_uniform_strictly_increasing_hits_horizon(self):
        g = TimeGrid(2.5, 10)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.5
        assert np.all(np.diff(g.nodes) > 0)
        assert np.allclose(np.diff(g.nodes), g.dt)

    def test_stage_times_interleave_nodes(self):
        g = TimeGrid(1.0, 4)
        assert np.array_equal(g.stage_times[0::2], g.nodes)

    @pytest.mark.parametrize("horizon,steps", [(0.0, 10), (-1.0, 10), (1.0, 0),
                                               (1.0, 7), (1.0, -4)])
    def test_rejects_bad_construction(self, horizon, steps):
        with pytest.raises(ValueError):
            TimeGrid(horizon, steps)


def _textbook_check(y, t, blowups):
    """The node check written with np.linalg.norm: past the threshold a
    member is recorded once, and a recorded member is reset to zero
    whenever the whole state trips the check."""
    if float(np.linalg.norm(y.ravel())) <= BLOWUP_THRESHOLD * (1.0 - 1e-9):
        return
    found = {} if blowups is None else blowups
    members = y if blowups is not None else y[None]
    for b in range(len(members)):
        if b not in found:
            norm = float(np.linalg.norm(members[b].ravel()))
            if not np.isfinite(norm):
                raise NumericalFailure("non-finite state")
            if norm <= BLOWUP_THRESHOLD:
                continue
            found[b] = BlowUpDetected(time=t, norm=norm, state=members[b].copy())
        members[b] = 0.0
    if blowups is None and found:
        raise found[0]


def _textbook_rk4(rhs, y, grid, h, project_state=None, blowups=None):
    """Classical RK4 as a textbook writes it, the reference for every bit of
    integrate_backward and integrate_forward."""
    d = 1 if h > 0 else -1
    j = 0 if d > 0 else grid.steps
    y = np.array(y, dtype=float)
    out = np.empty((grid.steps + 1,) + y.shape)
    out[j] = y
    for _ in range(grid.steps):
        s = 2 * j
        k1 = rhs(s, y)
        k2 = rhs(s + d, y + 0.5 * h * k1)
        k3 = rhs(s + d, y + 0.5 * h * k2)
        k4 = rhs(s + 2 * d, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if project_state is not None:
            y = project_state(y)
        j += d
        _textbook_check(y, grid.nodes[j], blowups)
        out[j] = y
    return out


def _textbook_sym(Y):
    return 0.5 * (Y + np.swapaxes(Y, -1, -2))


class TestBackwardIntegration:
    def test_zero_rhs_keeps_terminal_everywhere(self):
        g = TimeGrid(1.0, 100)
        MT = np.array([[1.0, 2.0], [2.0, 5.0]])
        path = integrate_backward(lambda s, M: np.zeros_like(M), MT, g)
        assert np.array_equal(path[-1], MT)
        assert np.all(path == MT)

    def test_scalar_riccati_matches_hyperbolic_closed_form(self):
        # dP/dt = -(q - s P^2), P(T) = 0  ->  P(t) = sqrt(q/s) tanh(sqrt(qs)(T-t))
        g = TimeGrid(1.0, 1000)
        path = integrate_backward(lambda s, P: -(1.0 - P * P), np.zeros(()), g)
        assert abs(float(path[0]) - np.tanh(1.0)) < 1e-8

    def test_fourth_order_convergence(self):
        errs = []
        for steps in (250, 500, 1000):
            path = integrate_backward(lambda s, P: -(1.0 - P * P), np.zeros(()),
                                      TimeGrid(1.0, steps))
            errs.append(abs(float(path[0]) - np.tanh(1.0)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5

    def test_terminal_condition_bit_exact(self, pe_game):
        g = TimeGrid(1.0, 50)
        QfT = pe_game.Qf[0]
        path = integrate_backward(lambda s, M: np.zeros_like(M), QfT, g)
        assert np.array_equal(path[0], QfT)

    def test_blowup_reports_divergence_time(self):
        g = TimeGrid(1.0, 200)
        with pytest.raises(BlowUpDetected) as info:
            integrate_backward(lambda s, y: -y * y, np.array(10.0), g)
        assert 0.0 <= info.value.time < 1.0
        assert info.value.norm > BLOWUP_THRESHOLD

    # the 24-element starts were chosen so that summing their trip states'
    # squares in another order than np.linalg.norm does changes the last bit
    @pytest.mark.parametrize("start", [10.0] + [
        10.0 + np.random.default_rng(seed).uniform(size=(2, 3, 4)) for seed in (1, 2, 3)])
    def test_blowup_norm_is_the_states_norm(self, start):
        # one norm gates the step and is reported: the norm of the state
        # that tripped the gate, at the textbook loop's divergence time
        g = TimeGrid(1.0, 200)
        rhs = lambda s, y: -y * y
        with pytest.raises(BlowUpDetected) as info:
            integrate_backward(rhs, start, g)
        with pytest.raises(BlowUpDetected) as ref:
            _textbook_rk4(rhs, start, g, -g.dt)
        assert info.value.norm == float(np.linalg.norm(info.value.state))
        assert info.value.time == ref.value.time
        assert info.value.norm == ref.value.norm

    def test_nan_rhs_raises_numerical_failure(self):
        g = TimeGrid(1.0, 10)
        with pytest.raises(NumericalFailure):
            integrate_backward(lambda s, y: np.full_like(y, np.nan),
                               np.zeros(2), g)

    def test_member_blowup_is_recorded_and_leaves_the_others_unchanged(self):
        # y' = -y^2 backward from y(T) = y0 diverges within the horizon for
        # y0 = 10 only; members 0 and 2 must equal their own integrations
        g = TimeGrid(1.0, 200)
        rhs = lambda s, y: -y * y
        start = np.array([[0.5, 0.2], [10.0, 0.1], [0.3, 0.4]])
        blowups = {}
        path = integrate_backward(rhs, start, g, blowups=blowups)
        assert list(blowups) == [1]
        with pytest.raises(BlowUpDetected) as single:
            integrate_backward(rhs, start[1], g)
        assert blowups[1].time == single.value.time
        assert blowups[1].norm == single.value.norm
        for b in (0, 2):
            assert np.array_equal(path[:, b], integrate_backward(rhs, start[b], g))
        assert np.all(np.isfinite(path))

    def test_nan_member_raises_numerical_failure(self):
        g = TimeGrid(1.0, 10)
        rhs = lambda s, y: np.where(np.arange(2)[:, None] == 1, np.nan, 0.0) + 0.0 * y
        with pytest.raises(NumericalFailure):
            integrate_backward(rhs, np.zeros((2, 3)), g, blowups={})

    def test_deterministic(self):
        g = TimeGrid(1.0, 100)
        rhs = lambda s, P: -(1.0 - P * P)
        a = integrate_backward(rhs, np.zeros(()), g)
        b = integrate_backward(rhs, np.zeros(()), g)
        assert np.array_equal(a, b)


class TestForwardIntegration:
    def test_zero_rhs_constant_path(self):
        g = TimeGrid(1.0, 10)
        x0 = np.array([1.0, -2.0])
        path = integrate_forward(lambda s, x: np.zeros_like(x), x0, g)
        assert np.all(path == x0)

    def test_exponential_growth(self):
        g = TimeGrid(1.0, 1000)
        path = integrate_forward(lambda s, x: x, np.array(1.0), g)
        assert abs(float(path[-1]) - np.e) < 1e-9

    def test_rhs_indexes_stage_times(self):
        # dx/dt = 4 t^3 with t = stage_times[s]: RK4 on it is Simpson's rule,
        # exact for cubics, so any index offset would show
        g = TimeGrid(1.5, 10)
        path = integrate_forward(lambda s, x: 4.0 * g.stage_times[s] ** 3, np.array(0.0), g)
        assert abs(float(path[-1]) - 1.5 ** 4) < 1e-12


class TestBackwardRunningSum:
    def test_bit_identical_to_backward_integration(self):
        g = TimeGrid(1.0, 200)
        f = np.random.default_rng(3).normal(size=(2 * g.steps + 1, 3, 2))
        ref = integrate_backward(lambda s, E: -f[s], np.zeros((3, 2)), g)
        got = backward_running_sum(f, g)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_blowup_reports_the_integrators_time(self, monkeypatch):
        g = TimeGrid(1.0, 200)
        f = np.zeros((2 * g.steps + 1, 2))
        f[150:] = 1e11
        with pytest.raises(BlowUpDetected) as ref:
            integrate_backward(lambda s, E: -f[s], np.zeros(2), g)
        with pytest.raises(BlowUpDetected) as got:
            backward_running_sum(f, g)
        assert got.value.time == ref.value.time
        assert got.value.norm == ref.value.norm
        # as the member axis of a batch, beside a member that stays bounded:
        # both routes record the same blow-up and leave the other bit for bit
        both = np.stack([f, np.ones_like(f)], axis=1)
        ref_blowups, blowups = {}, {}
        path = integrate_backward(lambda s, E: -both[s], np.zeros((2, 2)), g,
                                  blowups=ref_blowups)
        out = backward_running_sum(both, g, blowups=blowups)
        assert list(blowups) == list(ref_blowups) == [0]
        assert blowups[0].time == ref_blowups[0].time == ref.value.time
        assert blowups[0].norm == ref_blowups[0].norm == ref.value.norm
        assert np.array_equal(blowups[0].state, ref_blowups[0].state)
        assert blowups[0].state.base is None  # a copy, not a view into the sums
        assert np.array_equal(out[:, 1].view(np.uint64), path[:, 1].view(np.uint64))
        assert np.array_equal(out[:, 1], backward_running_sum(np.ones_like(f), g))
        # 20 (2, 2) members, member 7 past the threshold in its last 3
        # steps: its earlier nodes are zero at once, so the check trips at
        # one node only, and its norm pass over the members runs once
        g = TimeGrid(1.0, 1000)
        many = np.ones((2 * g.steps + 1, 20, 2, 2))
        many[-6:, 7] = 1e11
        ref_blowups, blowups = {}, {}
        integrate_backward(lambda s, E: -many[s], np.zeros((20, 2, 2)), g, blowups=ref_blowups)
        calls = []
        norm = odekit._norm
        monkeypatch.setattr(odekit, "_norm", lambda y: calls.append(1) or norm(y))
        out = backward_running_sum(many, g, blowups=blowups)
        monkeypatch.undo()
        assert list(blowups) == list(ref_blowups) == [7]
        for key in ("time", "norm", "state"):
            assert np.array_equal(getattr(blowups[7], key), getattr(ref_blowups[7], key))
        bounded = backward_running_sum(np.delete(many, 7, axis=1), g)
        assert np.array_equal(np.delete(out, 7, axis=1).view(np.uint64), bounded.view(np.uint64))
        j = int(np.flatnonzero(g.nodes == blowups[7].time)[0])
        assert j >= g.steps - 3 and not out[:j + 1, 7].any()
        assert len(calls) == g.steps + 20

    def test_nan_raises_numerical_failure(self):
        g = TimeGrid(1.0, 10)
        f = np.zeros((2 * g.steps + 1, 2))
        f[7, 1] = np.nan
        with pytest.raises(NumericalFailure):
            backward_running_sum(f, g)
        # a batch: member 1 NaN beside a bounded member 0
        both = np.stack([np.ones_like(f), f], axis=1)
        with pytest.raises(NumericalFailure):
            backward_running_sum(both, g, blowups={})


class TestQuadrature:
    def test_constant_integrand(self):
        g = TimeGrid(2.5, 10)
        assert simpson_nodes(np.ones(g.steps + 1), g) == pytest.approx(2.5)

    def test_quadratic_exact(self):
        # Simpson is exact on cubics
        g = TimeGrid(1.0, 4)
        val = simpson_nodes(g.nodes * g.nodes, g)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_nan_raises(self):
        g = TimeGrid(1.0, 4)
        with pytest.raises(NumericalFailure):
            simpson_nodes(np.full(g.steps + 1, np.nan), g)

    def test_simpson_nodes_vector_valued(self):
        g = TimeGrid(1.0, 10)
        vals = np.stack([g.nodes, g.nodes ** 2], axis=1)
        out = simpson_nodes(vals, g)
        assert out[0] == pytest.approx(0.5, abs=1e-14)
        assert out[1] == pytest.approx(1.0 / 3.0, abs=1e-14)


class TestStageBlocks:
    @pytest.mark.parametrize("rows", [2, 3, 128])
    @pytest.mark.parametrize("steps", [2, 60, 64, 200])
    def test_blocks_cover_every_row_and_none_holds_one(self, rows, steps, monkeypatch):
        # 121 stage rows at 60 steps leave one row past the last 3-row
        # block, 129 at 64 one past the first 128-row block
        monkeypatch.setattr(odekit, "BLOCK_ROWS", rows)
        stages = 2 * steps + 1
        blocks = stage_blocks(stages, 1)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert blocks[0].start == 0 and blocks[-1].stop == stages
        assert all(2 <= b.stop - b.start <= rows + 1 for b in blocks)

    @pytest.mark.parametrize("steps", [2, 4, 60])
    def test_any_rows_of_stage_samples_equal_the_full_array(self, steps):
        y = np.random.default_rng(steps).normal(size=(steps + 1, 2, 3))
        full = stage_samples(y)
        for lo in range(len(full)):
            for hi in range(lo + 1, len(full) + 1):
                assert np.array_equal(stage_samples(y, slice(lo, hi)), full[lo:hi])

    def test_wide_products_get_shorter_blocks(self):
        # a block holds at most BLOCK_ELEMS elements, and never fewer than 2 rows
        cap = odekit.BLOCK_ELEMS
        assert stage_blocks(2001, cap // odekit.BLOCK_ROWS)[0] == slice(0, odekit.BLOCK_ROWS)
        assert stage_blocks(2001, 14 * 324)[0] == slice(0, cap // (14 * 324))
        assert stage_blocks(2001, 10 * cap)[0] == slice(0, 2)

    def test_backward_reads_form_each_block_once(self, monkeypatch):
        monkeypatch.setattr(odekit, "BLOCK_ROWS", 3)
        built = []

        def build(rows):
            built.append(rows)
            return np.arange(rows.start, rows.stop)

        rows = StageBlocks(build, 121, 1)
        assert [rows[s] for s in range(120, -1, -1)] == list(range(120, -1, -1))
        assert built == stage_blocks(121, 1)[::-1]


class TestTextbookStep:
    """integrate_backward and integrate_forward equal _textbook_rk4 byte for
    byte, and never write into what a right-hand side returns."""

    @staticmethod
    def _same(got, ref):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_symmetric_matrix_riccati(self):
        g = TimeGrid(1.5, 120)
        rng = np.random.default_rng(1)
        A, Q = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3, 3))
        S = rng.normal(size=(3, 3))
        S, Q = S @ S.T, Q @ np.swapaxes(Q, -1, -2)

        def rhs(s, P):
            PA = P @ (A * np.cos(g.stage_times[s]))
            return -(PA + np.swapaxes(PA, -1, -2) + Q - P @ S @ P)

        start = rng.normal(size=(2, 3, 3))
        start = start @ np.swapaxes(start, -1, -2)
        self._same(integrate_backward(rhs, start, g, project_state=_sym_stack),
                   _textbook_rk4(rhs, start, g, -g.dt, project_state=_textbook_sym))

    def test_linear_vector(self):
        g = TimeGrid(2.0, 100)
        rng = np.random.default_rng(2)
        M, c = rng.normal(size=(4, 4)), rng.normal(size=4)
        rhs = lambda s, x: M @ x + g.stage_times[s] * c
        x0 = rng.normal(size=4)
        self._same(integrate_backward(rhs, x0, g), _textbook_rk4(rhs, x0, g, -g.dt))
        self._same(integrate_forward(rhs, x0, g), _textbook_rk4(rhs, x0, g, g.dt))

    def test_scalar_state(self):
        g = TimeGrid(1.0, 100)
        rhs = lambda s, P: -(1.0 - P * P)
        self._same(integrate_backward(rhs, 0.25, g), _textbook_rk4(rhs, 0.25, g, -g.dt))
        self._same(integrate_forward(rhs, 0.25, g), _textbook_rk4(rhs, 0.25, g, g.dt))

    def test_batch_with_a_member_that_blows_up(self):
        g = TimeGrid(1.0, 200)
        rhs = lambda s, y: -y * y
        start = np.array([[0.5, 0.2], [10.0, 0.1], [0.3, 0.4]])
        got, ref = {}, {}
        self._same(integrate_backward(rhs, start, g, blowups=got),
                   _textbook_rk4(rhs, start, g, -g.dt, blowups=ref))
        assert list(got) == list(ref) == [1]
        assert got[1].time == ref[1].time and got[1].norm == ref[1].norm
        self._same(got[1].state, ref[1].state)

    @pytest.mark.parametrize("kind", ["table row", "read-only broadcast", "its input"])
    def test_never_writes_into_what_rhs_returns(self, kind):
        g = TimeGrid(1.0, 50)
        table = np.random.default_rng(3).normal(size=(2 * g.steps + 1, 3))
        kept = table.copy()
        rhs = {"table row": lambda s, y: table[s],
               "read-only broadcast": lambda s, y: np.broadcast_to(table[s, :1], y.shape),
               "its input": lambda s, y: y}[kind]
        y0 = np.array([1.0, -0.5, 0.25])
        self._same(integrate_backward(rhs, y0, g), _textbook_rk4(rhs, y0, g, -g.dt))
        self._same(integrate_forward(rhs, y0, g), _textbook_rk4(rhs, y0, g, g.dt))
        assert table.tobytes() == kept.tobytes()
