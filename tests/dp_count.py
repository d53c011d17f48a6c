"""A count of the front search's chain DP runs, for the tests that pin how
often it runs.

``DpCount`` wraps ``bounds._front_dp`` and ``bounds._fill_fronts`` for one
test.  Each DP run is kept as ``(states, alphas)``: the Ca^2 values of each
searched state's partners, in state order, and the number of alphas.  Each
front fill is kept as ``(evaluators, focus, alphas)``, with the evaluators
that lacked the column: a chunk pass's, or a lone ``front_best`` call's one.
``expected`` derives from the fills the runs that the chunk search makes:
one per fill that holds a state whose focus has a pair C above 0, over
those states only and the whole grid, and none in canonical mode.
"""

import entbounds.bounds as bounds


class DpCount:
    def __init__(self, monkeypatch):
        self.runs: list = []
        self.fills: list = []
        real_dp, real_fill = bounds._front_dp, bounds._fill_fronts

        def dp(lead, ca, h):
            m = len(lead).bit_length() - 1
            self.runs.append(([tuple(ca[1 << i, s].item() for i in range(m))
                               for s in range(ca.shape[1])], len(h)))
            return real_dp(lead, ca, h)

        def fill(evaluators, focus, grid):
            key = (focus, grid.values)
            self.fills.append(([ev for ev in evaluators if key not in ev._fronts],
                               focus, len(grid)))
            return real_fill(evaluators, focus, grid)

        monkeypatch.setattr(bounds, "_front_dp", dp)
        monkeypatch.setattr(bounds, "_fill_fronts", fill)

    def clear(self):
        self.runs.clear()
        self.fills.clear()

    def expected(self) -> list:
        want = []
        for evs, focus, alphas in self.fills:
            searched = [tuple(ev.tables(focus)[1].values()) for ev in evs
                        if ev.search == "exhaustive" and any(ev.tables(focus)[0].values())]
            if searched:
                want.append((searched, alphas))
        return want
