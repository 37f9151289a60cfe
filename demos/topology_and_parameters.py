"""Structure accounting for branched residual nets: blocks, depth and parameters.

Walks through the big two-branch preset (66 bottleneck blocks, branch point
after block 39) and shows how the branch point trades parameters against
an ensemble of fully independent networks.

Run: python demos/topology_and_parameters.py
"""

import dataclasses

from branchnet import mini_config, network_report, paper_scale_config


def main():
    cfg = paper_scale_config()
    report = network_report(cfg)
    print("big preset: stages", list(cfg.stage_blocks), "widths",
          list(cfg.stage_widths), "(bottleneck)")
    print(f"  {cfg.total_blocks} base blocks, branch after {cfg.branch_after_block}, "
          f"{cfg.num_branches} branches")
    print(f"  shared blocks:          {report.shared_blocks}")
    print(f"  per-branch blocks:      {report.per_branch_blocks}")
    print(f"  materialized blocks:    {report.total_blocks_materialized}")
    print(f"  conv layers (one path): {report.conv_layers}")
    print(f"  weighted layers:        {report.weighted_layers}")
    print(f"\n  total parameters:       {report.total_params:>12,}")
    print(f"  2 independent nets:     {report.equivalent_independent_ensemble_params:>12,}")
    print(f"  sharing ratio:          {report.sharing_ratio:.4f}")

    print("\nsweeping the branch point (earlier branch = less sharing):")
    print(f"  {'B':>3} {'total params':>14} {'ratio':>8} {'blocks':>7}")
    for b in (0, 13, 26, 39, 52, 66):
        r = network_report(dataclasses.replace(cfg, branch_after_block=b))
        print(f"  {b:>3} {r.total_params:>14,} {r.sharing_ratio:>8.4f} "
              f"{r.total_blocks_materialized:>7}")

    mini = mini_config()
    print(f"\ndesk-scale preset: stages {list(mini.stage_blocks)}, widths "
          f"{list(mini.stage_widths)}, branch after {mini.branch_after_block} of "
          f"{mini.total_blocks}")
    print(f"  total parameters: {network_report(mini).total_params:,}")


if __name__ == "__main__":
    main()
