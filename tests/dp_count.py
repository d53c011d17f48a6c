"""A count of the front search's chain DP runs, for the tests that pin how
often it runs.

``DpCount`` wraps ``bounds._front_dp`` and ``bounds._fill_fronts`` for one
test.  Each DP run is kept as ``(entries, alphas)``: the Ca^2 values of the
partners of each searched (state, focus) entry, in entry order, and the
number of alphas.  Each front fill is kept as ``(evaluators, foci,
alphas)``, as it was called: a chunk pass's evaluators and the front foci
of its layout, or a lone ``front_best`` call's one evaluator and one
focus.  ``expected`` derives from the fills the runs that the front search
makes: one per fill that holds an entry to search, over those entries in
the fill's order (focus by focus, each focus's states in chunk order) and
the whole grid.  An entry is to be searched where its evaluator lacks the
column when the fill is called, its focus has a pair C above 0, and the
state is not in canonical mode.
"""

import entbounds.bounds as bounds


class DpCount:
    def __init__(self, monkeypatch):
        self.runs: list = []
        self.fills: list = []
        self._lacking: list = []  # per fill, its (evaluator, focus) entries that lacked a column
        real_dp, real_fill = bounds._front_dp, bounds._fill_fronts

        def dp(lead, ca, h):
            m = len(lead).bit_length() - 1
            self.runs.append(([tuple(ca[1 << i, e].item() for i in range(m))
                               for e in range(ca.shape[1])], len(h)))
            return real_dp(lead, ca, h)

        def fill(evaluators, foci, grid):
            self.fills.append((list(evaluators), tuple(foci), len(grid)))
            self._lacking.append([(ev, f) for f in foci for ev in evaluators
                                  if (f, grid.values) not in ev._fronts])
            return real_fill(evaluators, foci, grid)

        monkeypatch.setattr(bounds, "_front_dp", dp)
        monkeypatch.setattr(bounds, "_fill_fronts", fill)

    def clear(self):
        self.runs.clear()
        self.fills.clear()
        self._lacking.clear()

    def expected(self) -> list:
        want = []
        for (_, _, alphas), lacking in zip(self.fills, self._lacking):
            searched = [tuple(ev.tables(f)[1].values()) for ev, f in lacking
                        if ev.search == "exhaustive" and any(ev.tables(f)[0].values())]
            if searched:
                want.append((searched, alphas))
        return want
