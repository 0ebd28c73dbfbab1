"""Optimal instruction-to-module assignment (section 4.1, Figure 2).

Given the operations issued this cycle and each module's latched
previous inputs, build the cost matrix of Figure 2 — the Hamming
distance of each operation's operands to each module's previous
operands, taking the cheaper operand order for commutative operations —
then pick the assignment minimising total cost.

The paper notes this is too expensive for hardware (it is the *upper
bound* labelled "Full Ham" in Figure 4); here it is also reused, with a
1-bit operand summary, for the "1-bit Ham" policy.  Matching is exact:
brute force over permutations for small module counts, Hungarian
(scipy) beyond that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..cpu.trace import MicroOp

# cost_fn(op1, op2, prev1, prev2) -> non-negative cost
CostFn = Callable[[int, int, int, int], float]

_BRUTE_FORCE_LIMIT = 6


@dataclass(frozen=True)
class Assignment:
    """Result of assigning one cycle's operations to modules.

    ``modules[k]`` is the module index for operation ``k``;
    ``swapped[k]`` says whether its operands should be exchanged before
    driving the module; ``total_cost`` is the matrix cost of the chosen
    assignment.
    """

    modules: Tuple[int, ...]
    swapped: Tuple[bool, ...]
    total_cost: float

    def __post_init__(self) -> None:
        if len(set(self.modules)) != len(self.modules):
            raise ValueError("assignment must map operations to distinct modules")


def cost_matrix(ops: Sequence[MicroOp],
                module_inputs: Sequence[Tuple[int, int]],
                cost_fn: CostFn,
                allow_swap: bool = True) -> Tuple[List[List[float]], List[List[bool]]]:
    """Figure 2: cost of every (operation, module) pairing.

    Returns ``(costs, swaps)`` where ``costs[k][m]`` is the best cost of
    running operation ``k`` on module ``m`` and ``swaps[k][m]`` records
    whether that best cost requires swapping the operands (only ever
    True for hardware-swappable operations).
    """
    costs: List[List[float]] = []
    swaps: List[List[bool]] = []
    for op in ops:
        op_costs: List[float] = []
        op_swaps: List[bool] = []
        for prev1, prev2 in module_inputs:
            direct = cost_fn(op.op1, op.op2, prev1, prev2)
            if allow_swap and op.hardware_swappable:
                exchanged = cost_fn(op.op2, op.op1, prev1, prev2)
                if exchanged < direct:
                    op_costs.append(exchanged)
                    op_swaps.append(True)
                    continue
            op_costs.append(direct)
            op_swaps.append(False)
        costs.append(op_costs)
        swaps.append(op_swaps)
    return costs, swaps


def solve(costs: Sequence[Sequence[float]]) -> Tuple[Tuple[int, ...], float]:
    """Minimum-cost injective assignment of rows (ops) to columns (modules).

    Requires ``len(costs) <= len(costs[0])``.  Results are deterministic.
    Up to ``_BRUTE_FORCE_LIMIT`` modules, ties break toward the
    lexicographically smallest module tuple; wider machines use the
    Hungarian method (scipy), which returns *a* minimum-cost matching in
    its own tie order, not necessarily the lexicographically smallest.
    """
    num_ops = len(costs)
    if num_ops == 0:
        return (), 0.0
    num_modules = len(costs[0])
    if num_ops > num_modules:
        raise ValueError(
            f"cannot place {num_ops} operations on {num_modules} modules")
    if num_modules <= _BRUTE_FORCE_LIMIT:
        return _solve_brute(costs, num_ops, num_modules)
    return _solve_hungarian(costs)


def _solve_brute(costs, num_ops: int, num_modules: int):
    best_total: Optional[float] = None
    best: Optional[Tuple[int, ...]] = None
    for modules in itertools.permutations(range(num_modules), num_ops):
        total = sum(costs[k][m] for k, m in enumerate(modules))
        if best_total is None or total < best_total:
            best_total = total
            best = modules
    assert best is not None
    return best, best_total


def _solve_hungarian(costs):
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    matrix = np.asarray(costs, dtype=float)
    rows, cols = linear_sum_assignment(matrix)
    modules = tuple(int(cols[list(rows).index(k)]) for k in range(len(costs)))
    total = float(matrix[rows, cols].sum())
    return modules, total


def optimal_assignment(ops: Sequence[MicroOp],
                       module_inputs: Sequence[Tuple[int, int]],
                       cost_fn: CostFn,
                       allow_swap: bool = True) -> Assignment:
    """Best assignment (and per-op swap choices) for one cycle."""
    costs, swaps = cost_matrix(ops, module_inputs, cost_fn, allow_swap)
    modules, total = solve(costs)
    swapped = tuple(swaps[k][m] for k, m in enumerate(modules))
    return Assignment(modules=modules, swapped=swapped, total_cost=total)
