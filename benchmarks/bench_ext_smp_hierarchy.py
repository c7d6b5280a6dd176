"""Extension: SMP-aware machine (4 ranks per ES-45 node).

The paper's flat ``Tmsg`` averages over shared-memory and QsNet paths; this
bench quantifies what the two-level reality does to measured iteration time
and shows the *blended flat-equivalent* network recovering most of the
model accuracy without pairwise placement information.
"""

import pytest

from repro.analysis import TextTable
from repro.hydro import build_workload_census, measure_iteration_time
from repro.machine import es45_like_cluster
from repro.mesh import build_face_table
from repro.partition import cached_partition
from repro.perfmodel import GeneralModel


@pytest.fixture(scope="module")
def smp_rows(medium_deck, fine_cost_table):
    flat = es45_like_cluster()
    smp = flat.with_smp()
    faces = build_face_table(medium_deck.mesh)
    rows = []
    for p in (64, 128, 256):
        part = cached_partition(medium_deck, p, seed=1, faces=faces)
        census = build_workload_census(medium_deck, part, faces)
        t_flat = measure_iteration_time(
            medium_deck, part, cluster=flat, faces=faces, census=census
        ).seconds
        t_smp = measure_iteration_time(
            medium_deck, part, cluster=smp, faces=faces, census=census
        ).seconds

        # Model the SMP machine with the blended flat-equivalent network.
        lower = census.be_src < census.be_dst
        local_frac = smp.hierarchy.local_pair_fraction(
            zip(census.be_src[lower].tolist(), census.be_dst[lower].tolist())
        )
        blended = smp.hierarchy.flat_equivalent(local_frac)
        pred_flat_net = GeneralModel(
            table=fine_cost_table, network=flat.network, mode="homogeneous"
        ).predict(medium_deck.num_cells, p)
        pred_blended = GeneralModel(
            table=fine_cost_table, network=blended, mode="homogeneous"
        ).predict(medium_deck.num_cells, p)
        rows.append((p, t_flat, t_smp, local_frac, pred_flat_net.total, pred_blended.total))
    return rows


def test_smp_report(smp_rows, report_writer):
    table = TextTable(
        "Extension: SMP-aware machine vs flat network (medium deck)",
        [
            "PEs",
            "flat meas (ms)",
            "SMP meas (ms)",
            "on-node pairs",
            "flat-model err vs SMP",
            "blended-model err vs SMP",
        ],
    )
    for p, t_flat, t_smp, frac, pf, pb in smp_rows:
        table.add_row(
            p,
            t_flat * 1e3,
            t_smp * 1e3,
            f"{frac * 100:.0f}%",
            f"{(t_smp - pf) / t_smp * 100:+.1f}%",
            f"{(t_smp - pb) / t_smp * 100:+.1f}%",
        )
    report_writer("ext_smp_hierarchy", table.render())


def test_smp_is_faster(smp_rows):
    """Shared-memory paths shave real time off every configuration."""
    for p, t_flat, t_smp, *_ in smp_rows:
        assert t_smp < t_flat, p


def test_blended_model_closer_than_flat_model(smp_rows):
    """Against the SMP machine, the blended network beats the flat one."""
    for p, _, t_smp, _, pred_flat, pred_blend in smp_rows:
        err_flat = abs(t_smp - pred_flat) / t_smp
        err_blend = abs(t_smp - pred_blend) / t_smp
        assert err_blend <= err_flat + 0.01, p


def test_on_node_fraction_shrinks_with_p(smp_rows):
    """More ranks, same 4-per-node blocks: neighbour pairs increasingly
    cross nodes."""
    fracs = [frac for _, _, _, frac, _, _ in smp_rows]
    assert fracs[0] >= fracs[-1]


@pytest.mark.benchmark(group="ext-smp")
def test_bench_smp_simulation(benchmark, registry_bench):
    """Simulator overhead of per-pair network selection."""
    t = registry_bench(benchmark, "ext.smp_simulation")[2]
    assert t > 0
