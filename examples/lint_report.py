#!/usr/bin/env python3
"""Region lint walkthrough: catching a data race before it ships.

The selector assumes its input is a race-free parallel loop nest
(docs/LINT.md).  This walkthrough takes Polybench's 2DCONV stencil and
"optimises" it the way a hurried port often does — dropping the output
grid and writing the convolved value back **in place** — and shows the
linter catching the resulting cross-thread races that the analytical
models would happily mispredict over.
"""

from repro.ir import Region
from repro.lint import lint_region
from repro.machines import PLATFORM_P9_V100
from repro.polybench import benchmark_by_name


def build_conv2d_inplace() -> Region:
    """3x3 convolution writing back into the grid it reads: a race.

    Thread i stores A[i][j] while threads i-1 and i+1 are still reading
    it — the classic in-place stencil bug.  The bundled 2dconv kernel
    avoids it with the separate A -> B output grid.
    """
    r = Region("2dconv_inplace")
    ni, nj = r.param_tuple("ni", "nj")
    A = r.array("A", (ni, nj), inout=True)
    with r.parallel_loop("i", ni - 2, start=1) as i:
        with r.parallel_loop("j", nj - 2, start=1) as j:
            r.store(
                A[i, j],
                0.2 * A[i - 1, j - 1] - 0.3 * A[i + 0, j - 1]
                + 0.5 * A[i - 1, j + 0] + 0.6 * A[i + 0, j + 0]
                - 0.8 * A[i - 1, j + 1] - 0.9 * A[i + 0, j + 1],
            )
    return r


def main() -> None:
    spec = benchmark_by_name("2dconv")
    env = spec.env("test")

    print("=== 1. the bundled (correct) kernel lints clean ===")
    (clean,) = spec.build()
    print(lint_region(clean, env=env, platform=PLATFORM_P9_V100).render_text())

    print("\n=== 2. the in-place 'optimisation' does not ===")
    racy = build_conv2d_inplace()
    print(lint_region(racy, env=env, platform=PLATFORM_P9_V100).render_text())


if __name__ == "__main__":
    main()
