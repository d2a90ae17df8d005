"""The paper's online HMM estimator (§3.2).

Estimates an HMM from a stream of ``(hidden state, observation symbol)``
pairs — available here because the Correct State Identification module
supplies the hidden states.  At each step, with ``i`` the previous hidden
state, ``j`` the current one, and ``l`` the current symbol:

* if ``j != i``, the transition row of ``i`` moves toward ``j``:
  ``a_ik = (1-β) a_ik + β δ_kj``;
* the emission row of the current hidden state moves toward ``l``:
  ``b_jk = (1-γ) b_jk + γ δ_kl``.

Both matrices start as identities and remain row-stochastic under these
updates (the paper proves this is preserved).  *Notation note*: the paper
writes the B update with index ``i``; we update the row of the current
state ``j``, which matches the semantics of emission at time ``t`` and
reproduces the paper's Tables 2-7 (see DESIGN.md §6).

Unlike a textbook HMM, the state space here is *open*: the clusterer may
spawn or merge model states at any time, and the error-track HMM ``M_CE``
uses the extra ⊥ symbol.  The estimator therefore keys rows and columns
by stable state ids and grows its matrices on demand, and it tracks
visit counts so structural analysis can ignore states it never saw
(the paper's "spurious states").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .states import BOTTOM_STATE_ID


@dataclass(frozen=True)
class EmissionMatrix:
    """A labelled snapshot of the emission matrix ``B``.

    Attributes
    ----------
    matrix:
        ``(n_states, n_symbols)`` row-stochastic array.
    state_ids:
        Hidden-state id of each row.
    symbol_ids:
        Symbol id of each column (may include ``BOTTOM_STATE_ID``).
    """

    matrix: np.ndarray
    state_ids: Tuple[int, ...]
    symbol_ids: Tuple[int, ...]

    def row_of(self, state_id: int) -> np.ndarray:
        """Emission row for one hidden state id."""
        return self.matrix[self.state_ids.index(state_id)]

    def without_symbol(self, symbol_id: int) -> "EmissionMatrix":
        """Drop one symbol column and renormalise the rows.

        Used to exclude the fictitious ⊥ symbol before classification
        ("this fictitious state is not taken into account during
        classification", §4.1).  Hidden states whose entire mass sat on
        the dropped symbol (a tracked sensor that always *agreed* there)
        carry no error evidence and are dropped with it.
        """
        if symbol_id not in self.symbol_ids:
            return self
        keep_cols = [k for k, s in enumerate(self.symbol_ids) if s != symbol_id]
        sub = self.matrix[:, keep_cols]
        sums = sub.sum(axis=1)
        keep_rows = [r for r in range(sub.shape[0]) if sums[r] > 1e-12]
        if not keep_rows or not keep_cols:
            return EmissionMatrix(matrix=np.zeros((0, 0)), state_ids=(), symbol_ids=())
        sub = sub[keep_rows, :]
        sub = sub / sub.sum(axis=1, keepdims=True)
        return EmissionMatrix(
            matrix=sub,
            state_ids=tuple(self.state_ids[r] for r in keep_rows),
            symbol_ids=tuple(self.symbol_ids[k] for k in keep_cols),
        )

    def denoised(self, floor: float = 0.2) -> "EmissionMatrix":
        """Zero out sub-``floor`` entries and renormalise the rows.

        The forgetting-factor estimator leaves small residual mass on
        symbols seen during state-boundary windows (the observable mean
        briefly disagrees with the majority at every environment
        transition).  Flooring removes that smear while preserving the
        structural signatures classification needs: a Dynamic Creation's
        0.35/0.65 row split and a Dynamic Deletion's ≈1.0 row collapse
        both sit far above any reasonable floor.  Rows whose entries all
        fall below the floor keep their single largest entry.
        """
        if not 0.0 <= floor < 1.0:
            raise ValueError("floor must be in [0, 1)")
        if self.matrix.size == 0 or floor == 0.0:
            return self
        out = self.matrix.copy()
        keep = out >= floor
        # Rows whose entries all fall below the floor keep their single
        # largest entry (one masked pass instead of a per-row loop).
        starved = ~keep.any(axis=1)
        if np.any(starved):
            keep[starved] = out[starved] == out[starved].max(axis=1, keepdims=True)
        out = np.where(keep, out, 0.0)
        sums = out.sum(axis=1, keepdims=True)
        out = out / np.maximum(sums, 1e-300)
        return EmissionMatrix(
            matrix=out, state_ids=self.state_ids, symbol_ids=self.symbol_ids
        )

    def dominant_symbols(self) -> Dict[int, int]:
        """state id -> symbol id with the largest emission probability."""
        return {
            state_id: self.symbol_ids[int(np.argmax(self.matrix[row]))]
            for row, state_id in enumerate(self.state_ids)
        }


class OnlineHMM:
    """Exponentially forgetting HMM estimator over an open state space.

    Parameters
    ----------
    transition_innovation:
        Weight of the new evidence in the A update (the multiplier of
        the Kronecker delta in the paper's formula).
    emission_innovation:
        Weight of the new evidence in the B update.

    *Interpretation note* (DESIGN.md §6): the paper's Table 1 lists
    β = γ = 0.90 as "learning factors", but a literal innovation weight
    of 0.9 would make every row ≈ 0.9 at its *last* symbol — the paper's
    own reported matrices (e.g. Table 7's 0.3546/0.6454 split) are only
    attainable with slow innovation.  We therefore read Table 1's values
    as retention factors and pass ``innovation = 1 - β = 0.10`` here;
    :class:`repro.config.PipelineConfig` performs that conversion.
    """

    def __init__(
        self,
        transition_innovation: float = 0.10,
        emission_innovation: float = 0.10,
    ):
        if not 0.0 < transition_innovation < 1.0:
            raise ValueError("transition_innovation must be in (0, 1)")
        if not 0.0 < emission_innovation < 1.0:
            raise ValueError("emission_innovation must be in (0, 1)")
        self.transition_innovation = transition_innovation
        self.emission_innovation = emission_innovation
        self._state_index: Dict[int, int] = {}
        self._symbol_index: Dict[int, int] = {}
        self._transition = np.zeros((0, 0))
        self._emission = np.zeros((0, 0))
        self._state_visits: Dict[int, int] = {}
        self._symbol_visits: Dict[int, int] = {}
        self._pair_counts: Dict[Tuple[int, int], int] = {}
        self._previous_state: Optional[int] = None
        self._n_updates = 0

    # -- alphabet management ----------------------------------------------

    def _ensure_state(self, state_id: int) -> int:
        """Add a hidden state (and its same-id symbol) if unseen."""
        if state_id in self._state_index:
            return self._state_index[state_id]
        index = len(self._state_index)
        self._state_index[state_id] = index
        # Grow A with an identity row/column: a new state initially
        # self-loops, the open-alphabet analogue of A = I at start-up.
        grown = np.zeros((index + 1, index + 1))
        grown[:index, :index] = self._transition
        grown[index, index] = 1.0
        self._transition = grown
        # Grow B with a row that points at the state's own symbol
        # (identity initialisation in the shared alphabet).  A new
        # symbol column already grew B to the new row count.
        self._state_visits.setdefault(state_id, 0)
        symbol_index = self._ensure_symbol(state_id)
        if self._emission.shape[0] <= index:
            self._grow_emission()
        self._emission[index, symbol_index] = 1.0
        return index

    def _ensure_symbol(self, symbol_id: int) -> int:
        """Add an observation symbol column if unseen."""
        if symbol_id in self._symbol_index:
            return self._symbol_index[symbol_id]
        index = len(self._symbol_index)
        self._symbol_index[symbol_id] = index
        self._grow_emission()
        self._symbol_visits.setdefault(symbol_id, 0)
        return index

    def _grow_emission(self) -> None:
        """Zero-extend B to one row per state and one column per symbol."""
        rows, cols = self._emission.shape
        grown = np.zeros((len(self._state_index), len(self._symbol_index)))
        grown[:rows, :cols] = self._emission
        self._emission = grown

    # -- the §3.2 update ----------------------------------------------------

    def observe(self, hidden_state_id: int, symbol_id: int) -> None:
        """Consume one ``(hidden state, symbol)`` pair.

        ``hidden_state_id`` is ``c_i`` from the Correct State
        Identification module; ``symbol_id`` is ``o_i`` for ``M_CO`` or
        ``e_i`` (possibly ``BOTTOM_STATE_ID``) for ``M_CE``.
        """
        j = self._ensure_state(hidden_state_id)
        l = self._ensure_symbol(symbol_id)

        # Both updates run in place on the matrix rows: scaling by the
        # retention factor then adding the innovation at the delta's
        # index performs the exact same two roundings per entry as the
        # textbook ``(1-rate)*row + rate*delta`` form, without allocating
        # a one-hot delta vector per observation.
        if self._previous_state is not None:
            i = self._state_index[self._previous_state]
            if self._previous_state != hidden_state_id:
                rate = self.transition_innovation
                row = self._transition[i]
                row *= 1.0 - rate
                row[j] += rate

        rate = self.emission_innovation
        row = self._emission[j]
        row *= 1.0 - rate
        row[l] += rate

        self._previous_state = hidden_state_id
        self._state_visits[hidden_state_id] += 1
        self._symbol_visits[symbol_id] += 1
        pair = (hidden_state_id, symbol_id)
        self._pair_counts[pair] = self._pair_counts.get(pair, 0) + 1
        self._n_updates += 1

    # -- snapshots ------------------------------------------------------------

    @property
    def n_updates(self) -> int:
        """How many (state, symbol) pairs were consumed."""
        return self._n_updates

    @property
    def state_ids(self) -> List[int]:
        """Hidden-state ids, in matrix row order."""
        return sorted(self._state_index, key=self._state_index.get)

    @property
    def symbol_ids(self) -> List[int]:
        """Symbol ids, in matrix column order."""
        return sorted(self._symbol_index, key=self._symbol_index.get)

    def state_visits(self, state_id: int) -> int:
        """Visit count of one hidden state (0 if never seen)."""
        return self._state_visits.get(state_id, 0)

    def transition_matrix(self) -> "tuple[np.ndarray, Tuple[int, ...]]":
        """Snapshot of ``A`` plus the state ids labelling its rows."""
        return self._transition.copy(), tuple(self.state_ids)

    def emission_matrix(
        self, min_state_visits: int = 0, min_symbol_visits: int = 0
    ) -> EmissionMatrix:
        """Snapshot of ``B``, optionally restricted to well-visited parts.

        Restricting to visited states/symbols implements the paper's
        dropping of spurious states before structural analysis.  Rows are
        renormalised after column filtering so the snapshot stays
        row-stochastic.
        """
        states = [
            s for s in self.state_ids if self._state_visits.get(s, 0) >= min_state_visits
        ]
        symbols = [
            s
            for s in self.symbol_ids
            if self._symbol_visits.get(s, 0) >= min_symbol_visits
        ]
        if not states or not symbols:
            return EmissionMatrix(
                matrix=np.zeros((0, 0)), state_ids=(), symbol_ids=()
            )
        rows = [self._state_index[s] for s in states]
        cols = [self._symbol_index[s] for s in symbols]
        sub = self._emission[np.ix_(rows, cols)]
        sums = sub.sum(axis=1, keepdims=True)
        sub = np.where(sums > 0, sub / np.maximum(sums, 1e-300), 0.0)
        return EmissionMatrix(
            matrix=sub, state_ids=tuple(states), symbol_ids=tuple(symbols)
        )

    def emission_without_bottom(
        self, min_state_visits: int = 0
    ) -> EmissionMatrix:
        """Emission snapshot with the ⊥ column removed and renormalised.

        Hidden states that never actually emitted a non-⊥ symbol (they
        only ever *agreed* with the majority while tracked) carry no
        error evidence — their rows would otherwise surface their
        identity-initialisation residue — so they are dropped here.
        """
        snapshot = self.emission_matrix(min_state_visits=min_state_visits)
        informative = {
            state
            for (state, symbol), count in self._pair_counts.items()
            if symbol != BOTTOM_STATE_ID and count > 0
        }
        keep = [
            r for r, state in enumerate(snapshot.state_ids) if state in informative
        ]
        if len(keep) != len(snapshot.state_ids):
            if not keep:
                return EmissionMatrix(
                    matrix=np.zeros((0, 0)), state_ids=(), symbol_ids=()
                )
            snapshot = EmissionMatrix(
                matrix=snapshot.matrix[keep, :],
                state_ids=tuple(snapshot.state_ids[r] for r in keep),
                symbol_ids=snapshot.symbol_ids,
            )
        return snapshot.without_symbol(BOTTOM_STATE_ID)

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of the full estimator state.

        Matrices are stored at full float precision (via ``repr``-exact
        floats once JSON-encoded) so a restored estimator continues the
        exponential-forgetting recursion bit-identically.
        """
        return {
            "transition_innovation": self.transition_innovation,
            "emission_innovation": self.emission_innovation,
            "state_index": [
                [state_id, index] for state_id, index in self._state_index.items()
            ],
            "symbol_index": [
                [symbol_id, index] for symbol_id, index in self._symbol_index.items()
            ],
            "transition": [[float(x) for x in row] for row in self._transition],
            "emission": [[float(x) for x in row] for row in self._emission],
            "state_visits": [
                [state_id, count] for state_id, count in self._state_visits.items()
            ],
            "symbol_visits": [
                [symbol_id, count] for symbol_id, count in self._symbol_visits.items()
            ],
            "pair_counts": [
                [state_id, symbol_id, count]
                for (state_id, symbol_id), count in self._pair_counts.items()
            ],
            "previous_state": self._previous_state,
            "n_updates": self._n_updates,
        }

    @classmethod
    def from_state_dict(cls, payload: Dict[str, object]) -> "OnlineHMM":
        """Rebuild an estimator from :meth:`state_dict` output."""
        model = cls(
            transition_innovation=float(payload["transition_innovation"]),
            emission_innovation=float(payload["emission_innovation"]),
        )
        model._state_index = {int(s): int(i) for s, i in payload["state_index"]}
        model._symbol_index = {int(s): int(i) for s, i in payload["symbol_index"]}
        n_states = len(model._state_index)
        n_symbols = len(model._symbol_index)
        model._transition = np.asarray(payload["transition"], dtype=float).reshape(
            n_states, n_states
        )
        model._emission = np.asarray(payload["emission"], dtype=float).reshape(
            n_states, n_symbols
        )
        model._state_visits = {int(s): int(c) for s, c in payload["state_visits"]}
        model._symbol_visits = {int(s): int(c) for s, c in payload["symbol_visits"]}
        model._pair_counts = {
            (int(s), int(o)): int(c) for s, o, c in payload["pair_counts"]
        }
        previous = payload["previous_state"]
        model._previous_state = None if previous is None else int(previous)
        model._n_updates = int(payload["n_updates"])
        return model

    def row_defects(self, atol: float = 1e-8) -> List[str]:
        """Rows violating row-stochasticity, described (empty = healthy).

        A row is defective when it contains a non-finite entry, a
        negative entry, or a sum off unity by more than ``atol``.  Used
        by the invariant supervisor; :meth:`is_row_stochastic` stays the
        cheap boolean form.
        """
        defects: List[str] = []
        for label, matrix, ids in (
            ("A", self._transition, self.state_ids),
            ("B", self._emission, self.state_ids),
        ):
            if matrix.size == 0:
                continue
            finite = np.isfinite(matrix).all(axis=1)
            negative = (matrix < 0.0).any(axis=1)
            sums = np.where(finite, matrix.sum(axis=1), np.nan)
            off = ~finite | negative | ~np.isclose(sums, 1.0, atol=atol)
            for row in np.flatnonzero(off):
                defects.append(
                    f"{label} row of state {ids[row]} "
                    f"(sum={float(matrix[row].sum())!r})"
                )
        return defects

    def renormalize_rows(self, atol: float = 1e-8) -> List[str]:
        """Bounded repair: rescale near-degenerate rows back to unit sum.

        Rows whose entries are finite, non-negative, and sum to
        something positive are divided by their sum; rows that cannot be
        renormalized that way (non-finite entries, negative mass, or an
        all-zero row) are reset to the identity initialisation — a
        one-hot at the state's own index in ``A`` and at the state's own
        symbol in ``B``, exactly the paper's ``A = B = I`` start-up (the
        estimator then relearns the row from subsequent windows).
        Returns descriptions of the repaired rows.
        """
        actions: List[str] = []
        for label, matrix in (("A", self._transition), ("B", self._emission)):
            if matrix.size == 0:
                continue
            for row_index, state_id in enumerate(self.state_ids):
                row = matrix[row_index]
                total = row.sum()
                if np.isfinite(total) and np.isclose(total, 1.0, atol=atol) and (
                    row >= 0.0
                ).all():
                    continue
                if (
                    np.isfinite(row).all()
                    and (row >= 0.0).all()
                    and float(total) > 0.0
                ):
                    matrix[row_index] = row / total
                    actions.append(
                        f"renormalized {label} row of state {state_id}"
                    )
                else:
                    matrix[row_index] = 0.0
                    if label == "A":
                        matrix[row_index, row_index] = 1.0
                    else:
                        matrix[row_index, self._symbol_index[state_id]] = 1.0
                    actions.append(
                        f"re-initialized {label} row of state {state_id} "
                        "to identity"
                    )
        return actions

    def reinitialize_identity(self) -> None:
        """Reset both matrices to the paper's ``A = B = I`` start-up.

        The alphabet (state/symbol indices) and the visit bookkeeping
        are preserved — only the learned probability mass is discarded.
        The supervisor applies this when a model is poisoned beyond
        row-level repair.
        """
        n = len(self._state_index)
        self._transition = np.eye(n)
        self._emission = np.zeros((n, len(self._symbol_index)))
        for state_id, row in self._state_index.items():
            self._emission[row, self._symbol_index[state_id]] = 1.0
        self._previous_state = None

    def is_row_stochastic(self, atol: float = 1e-8) -> bool:
        """Invariant check: both matrices keep unit row sums."""
        if self._transition.size == 0:
            return True
        ok_a = np.allclose(self._transition.sum(axis=1), 1.0, atol=atol)
        ok_b = np.allclose(self._emission.sum(axis=1), 1.0, atol=atol)
        return bool(ok_a and ok_b)
