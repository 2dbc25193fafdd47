"""FIG1 -- paper Fig. 1: "golden behaviour & fault dictionary items".

Regenerates the family of AC magnitude responses of the biquad CUT with
one component (R3, as in the paper's Fig. 3 narrative) swept over the
60 %-140 % fault grid, the golden curve among them. The benchmark times
the full fault-dictionary construction (56 faulty circuits x 401
frequencies), the substrate operation behind the figure.

Expected shape: a family of low-pass curves fanning around
the golden one, separating most near the pole frequency.
"""

from __future__ import annotations

import numpy as np

from repro.faults import FaultDictionary
from repro.sim import deviation_sweep
from repro.units import log_frequency_grid
from repro.viz import line_plot, response_family_csv

from _helpers import write_report


def bench_fig1_dictionary_build(benchmark, cut, cut_universe):
    """Time: full fault simulation of the paper's universe."""
    grid = log_frequency_grid(cut.f_min_hz, cut.f_max_hz, 401)

    def build():
        return FaultDictionary.build(cut_universe, cut.output_node, grid,
                                     input_source=cut.input_source)

    dictionary = benchmark(build)
    assert len(dictionary) == 56


def bench_fig1_report(benchmark, cut, cut_dictionary, out_dir):
    """Regenerate Fig. 1's data and verify its qualitative shape."""
    grid = cut_dictionary.freqs_hz
    deviations = [-0.4, -0.2, 0.2, 0.4]
    sweep = benchmark.pedantic(
        lambda: deviation_sweep(cut.circuit, cut.output_node, "R3",
                                deviations, grid),
        rounds=1, iterations=1)

    series = {"golden": sweep.nominal.magnitude_db}
    responses = {"golden": sweep.nominal}
    for deviation, response in zip(sweep.parameter_values,
                                   sweep.responses):
        label = f"R3{deviation * 100:+.0f}%"
        series[label] = response.magnitude_db
        responses[label] = response

    response_family_csv(out_dir / "fig1_fault_dictionary.csv", responses)
    plot = line_plot(grid, series,
                     title="FIG1: golden behaviour & fault dictionary "
                           "items (R3 swept 60%..140%)")

    # --- Shape checks -------------------------------------------------
    # H(0) = R3/R1 and w0^2 = 1/(R3 R4 C1 C2): the R3 family separates
    # at DC by exactly 20 log10(1.4/0.6) and fans out further near f0,
    # while far above f0 the response ~ 1/(R1 R4 C1 C2 w^2) no longer
    # depends on R3 at all -- the curves re-converge.
    spread = sweep.spread_db()
    peak_region = (grid > 300.0) & (grid < 3000.0)
    high_region = (grid > 2e4) & (grid < 1e5)
    dc_expected = 20.0 * np.log10(1.4 / 0.6)
    lines = [plot, ""]
    lines.append(f"family spread at DC: {spread[0]:.2f} dB "
                 f"(theory {dc_expected:.2f} dB)")
    lines.append(f"max family spread:   {spread.max():.2f} dB at "
                 f"{grid[int(np.argmax(spread))]:.0f} Hz")
    lines.append(f"spread at 20k-100k:  {spread[high_region].max():.2f} "
                 "dB (R3 cancels out of the high-frequency asymptote)")
    assert abs(spread[0] - dc_expected) < 0.2
    # The fan persists through the passband (> 90 % of the DC spread
    # survives at the pole) ...
    assert spread[peak_region].max() > 0.9 * dc_expected
    # ... and collapses in the stopband where R3 drops out of the
    # asymptote 1/(R1 R4 C1 C2 w^2).
    assert spread[high_region].max() < 1.0
    lines.append("shape check PASSED: curves fan out through the "
                 "passband and re-converge in the stopband")
    write_report(out_dir, "fig1_report.txt", "\n".join(lines))
