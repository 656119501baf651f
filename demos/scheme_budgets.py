"""Side-by-side pair-generation budgets for every excitation scheme.

Prints the final rate of each scheme at the reference operating point of the
bundled scenario (100 um spot, 1 mm path, 1 bar, 240 nm pump at 1e14 W/cm^2),
then the step-by-step breakdown of the sequential lamp-plus-laser scheme.
"""

from biphoton import Scenario, species
from biphoton.reporting import bundled_scenario_path
from biphoton.schemes import SCHEME_RUNNERS


def main() -> None:
    scenario = Scenario.from_file(bundled_scenario_path())
    he = species(scenario.species)
    reports = {scheme: run(scenario.config(scheme), he)
               for scheme, run in SCHEME_RUNNERS.items()}
    print(f"{'scheme':<20}  {'final rate (1/s)':>16}")
    for name, rep in reports.items():
        print(f"{name:<20}  {rep.final_rate.value:>16.4g}")

    print("\nsequential scheme, step by step:")
    for step, entry in reports["sequential"].steps.items():
        unit = f" {entry.unit}" if entry.unit else ""
        print(f"  {step:<24} {entry.value:>12.4g}{unit}   [{entry.provenance}]")


if __name__ == "__main__":
    main()
