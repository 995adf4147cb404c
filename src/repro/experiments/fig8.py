"""Fig. 8 — SpMV speedup and energy-efficiency gain vs. CPU and GPU.

Paper setup: real-world graphs (vsp, twitter, youtube, pokec), vector
density swept 0.001..1.0, CoSPARSE on a 16x16 system against MKL on an
i7-6700K and cuSPARSE on a V100.  Headline: average speedup (energy
gain) of 4.5x (282.5x) over the CPU and 17.3x (730.6x) over the GPU,
growing as the vector gets sparser; the IP->OP switch happens below
d_v = 0.01 except for pokec (largest dimension), which switches only at
0.001.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..baselines import cpu_spmv, gpu_spmv
from ..core.decision import DecisionTree, MatrixInfo
from ..formats import CSRMatrix
from ..hardware import Geometry
from ..workloads import FIG8_DENSITIES, random_frontier
from .common import price_task, sweep_tasks, table3_graph
from .report import ExperimentResult, geomean

__all__ = ["run_fig8", "FIG8_GRAPHS"]

FIG8_GRAPHS = ("vsp", "twitter", "youtube", "pokec")


def run_fig8(
    scale: int = 16,
    geometry_name: str = "16x16",
    graphs: Sequence[str] = FIG8_GRAPHS,
    densities: Sequence[float] = FIG8_DENSITIES,
    seed: int = 31,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 8; one row per (graph, density) plus an average."""
    geometry = Geometry.parse(geometry_name)
    result = ExperimentResult(
        experiment="fig8",
        title="SpMV speedup / energy-efficiency gain over CPU and GPU",
        columns=[
            "graph",
            "vector_density",
            "config",
            "cosparse_us",
            "cpu_us",
            "gpu_us",
            "speedup_vs_cpu",
            "speedup_vs_gpu",
            "effgain_vs_cpu",
            "effgain_vs_gpu",
        ],
        notes=f"CoSPARSE {geometry_name}, Table III graphs at scale=1/{scale}",
    )
    tasks, meta = [], []
    for name in graphs:
        graph = table3_graph(name, scale=scale)
        coo = graph.operand.coo  # G.T, the SpMV operand
        csc = graph.operand.csc
        csr = CSRMatrix.from_coo(coo)  # baselines stream the same operand
        tree = DecisionTree(geometry)
        info = MatrixInfo.of(coo)
        token = f"fig8:{name}@{scale}"
        for i, d in enumerate(densities):
            frontier = random_frontier(coo.n_cols, d, seed=seed + 7 * i)
            decision = tree.decide(info, frontier.density)
            spec = {"n": coo.n_cols, "density": d, "seed": seed + 7 * i}
            if decision.algorithm == "ip":
                tasks.append(
                    price_task("ip", decision.hw_mode, geometry_name, coo,
                               spec, use_partition=True, token=token)
                )
            else:
                tasks.append(
                    price_task("op", decision.hw_mode, geometry_name, csc,
                               spec, use_partition=True, token=token)
                )
            dense = frontier.to_dense()
            cpu = cpu_spmv(csr, dense, compute=False)
            gpu = gpu_spmv(csr, dense, compute=False)
            meta.append((graph.name, d, decision, cpu, gpu))
    reports = sweep_tasks(tasks, "fig8", jobs)
    for (graph_name, d, decision, cpu, gpu), rep in zip(meta, reports):
        co_t = rep["cycles"] / rep["clock_hz"]
        co_e = rep["energy_j"]
        result.add(
            graph=graph_name,
            vector_density=d,
            config=f"{decision.algorithm.upper()}/{decision.hw_mode.label}",
            cosparse_us=co_t * 1e6,
            cpu_us=cpu.time_s * 1e6,
            gpu_us=gpu.time_s * 1e6,
            speedup_vs_cpu=cpu.time_s / co_t,
            speedup_vs_gpu=gpu.time_s / co_t,
            effgain_vs_cpu=cpu.energy_j / co_e,
            effgain_vs_gpu=gpu.energy_j / co_e,
        )
    result.add(
        graph="average",
        vector_density=float("nan"),
        config="",
        cosparse_us=float("nan"),
        cpu_us=float("nan"),
        gpu_us=float("nan"),
        speedup_vs_cpu=geomean(result.column("speedup_vs_cpu")),
        speedup_vs_gpu=geomean(result.column("speedup_vs_gpu")),
        effgain_vs_cpu=geomean(result.column("effgain_vs_cpu")),
        effgain_vs_gpu=geomean(result.column("effgain_vs_gpu")),
    )
    return result
