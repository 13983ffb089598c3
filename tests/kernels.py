"""Shared hand-built kernels for tests (small, self-contained regions).

The ``build_*_race``/``build_undeclared_reduction`` kernels at the bottom
are *deliberately broken* lint fixtures: they exercise the race and
reduction detectors and must never be fed to the correctness executors.
"""

from repro.ir import Region, parse_region


def build_gemm() -> Region:
    """C = alpha*A*B + beta*C with parallel i loop."""
    r = Region("gemm")
    ni, nj, nk = r.param_tuple("ni", "nj", "nk")
    A = r.array("A", (ni, nk))
    B = r.array("B", (nk, nj))
    C = r.array("C", (ni, nj), inout=True)
    alpha, beta = r.scalars("alpha", "beta")
    with r.parallel_loop("i", ni) as i:
        with r.loop("j", nj) as j:
            acc = r.local("acc", C[i, j] * beta)
            with r.loop("k", nk) as k:
                r.assign(acc, acc + alpha * A[i, k] * B[k, j])
            r.store(C[i, j], acc)
    return r


def build_vecadd() -> Region:
    """z = x + y, the simplest coalesced parallel loop."""
    r = Region("vecadd")
    n = r.param("n")
    x = r.array("x", (n,))
    y = r.array("y", (n,))
    z = r.array("z", (n,), output=True)
    with r.parallel_loop("i", n) as i:
        r.store(z[i], x[i] + y[i])
    return r


def build_strided_store(factor_param: str = "max") -> Region:
    """The paper's Section IV.C example: A[max * a] = 1.0."""
    r = Region("strided")
    mx = r.param(factor_param)
    A = r.array("A", (mx * mx,), output=True)
    with r.parallel_loop("a", mx) as a:
        r.store(A[mx.sym * a], 1.0)
    return r


def build_colwise() -> Region:
    """y[j] = sum_i A[i][j] — parallel over columns, stride-1 across threads."""
    r = Region("colsum")
    n = r.param("n")
    A = r.array("A", (n, n))
    y = r.array("y", (n,), output=True)
    with r.parallel_loop("j", n) as j:
        acc = r.local("acc", 0.0)
        with r.loop("i", n) as i:
            r.assign(acc, acc + A[i, j])
        r.store(y[j], acc)
    return r


def build_rowwise() -> Region:
    """y[i] = sum_j A[i][j] — parallel over rows, stride-n across threads."""
    r = Region("rowsum")
    n = r.param("n")
    A = r.array("A", (n, n))
    y = r.array("y", (n,), output=True)
    with r.parallel_loop("i", n) as i:
        acc = r.local("acc", 0.0)
        with r.loop("j", n) as j:
            r.assign(acc, acc + A[i, j])
        r.store(y[i], acc)
    return r


def build_triangular(name="tri") -> Region:
    """symmat[j1][j2] = sum_i data[i][j1]*data[i][j2] for j2 >= j1."""
    r = Region(name)
    n, m = r.param_tuple("n", "m")
    data = r.array("data", (n, m))
    sym = r.array("symmat", (m, m), output=True)
    with r.parallel_loop("j1", m) as j1:
        with r.loop("j2", m - j1.sym, start=j1) as j2:
            acc = r.local("acc", 0.0)
            with r.loop("i", n) as i:
                r.assign(acc, acc + data[i, j1] * data[i, j2])
            r.store(sym[j1, j2], acc)
    return r


def build_guarded() -> Region:
    """Guarded work in a triangular nest: an if/else inside ``j in i..m``.

    The then-branch holds a loop whose count reads ``j`` (a nest two
    midpoints deep), the else-branch a store; SFU ops (sqrt, exp,
    division) and a select round out every op class the loadout counts.
    """
    return parse_region("""\
target region guarded {
  in f32 A[[n]][[m]]
  out f32 B[[n]][[m]]
  out f32 y[[n]]
  parallel for (i = 0; i < 0 + [n]; i++) {
    f32 %acc.1 = 0;
    for (j = [i]; j < [i] + (-1*[i] + [m]); j++) {
      if (A[[i]][[j]] > 0) {
        %acc.1 = (%acc.1 + sqrt(A[[i]][[j]]));
        for (k = 0; k < 0 + [j]; k++) {
          B[[i]][[k]] = (A[[i]][[k]] / 2);
        }
      } else {
        B[[i]][[j]] = (0 - A[[i]][[j]]);
      }
    }
    y[[i]] = ((%acc.1 < 1) ? exp(%acc.1) : %acc.1);
  }
}
""")


def build_write_write_race() -> Region:
    """LINT FIXTURE (do not execute): thread i writes A[i] *and* A[i+1].

    Adjacent threads collide on every interior element — the canonical
    cross-iteration write-write race (lint code RACE001).  The array has
    extent n+1 so the overlap is the only defect.
    """
    r = Region("ww_race")
    n = r.param("n")
    A = r.array("A", (n + 1,), output=True)
    with r.parallel_loop("i", n) as i:
        r.store(A[i.sym], 1.0)
        r.store(A[i.sym + 1], 2.0)
    return r


def build_undermapped_output() -> Region:
    """LINT FIXTURE (do not execute): z = x + y but z is mapped to-only.

    The kernel's whole product never travels back to the host — the
    silent-corruption case the map lint exists for (MAP001, blocks the
    gate).
    """
    r = Region("undermapped")
    n = r.param("n")
    x = r.array("x", (n,))
    y = r.array("y", (n,))
    z = r.array("z", (n,))  # written below, but declared input-only
    with r.parallel_loop("i", n) as i:
        r.store(z[i], x[i] + y[i])
    return r


def build_overmapped_input() -> Region:
    """LINT FIXTURE: z = x + y with z defensively mapped tofrom.

    The kernel overwrites every element of ``z`` before any read, so the
    declared host→device copy of ``z`` is pure waste (MAP002).
    """
    r = Region("overmapped")
    n = r.param("n")
    x = r.array("x", (n,))
    y = r.array("y", (n,))
    z = r.array("z", (n,), inout=True)  # should be output=True
    with r.parallel_loop("i", n) as i:
        r.store(z[i], x[i] + y[i])
    return r


def build_temp_mapped_both_ways() -> Region:
    """LINT FIXTURE: device scratch W mapped tofrom (MAP003).

    ``W`` is fully produced by the first nest and consumed by the second;
    no host value ever flows in and the final value is never used after
    the region — it should be a device-only (alloc) buffer.
    """
    r = Region("temp_both")
    n = r.param("n")
    x = r.array("x", (n,))
    W = r.array("W", (n,), inout=True)  # scratch: should be alloc-only
    y = r.array("y", (n,), output=True)
    with r.parallel_loop("i", n) as i:
        r.store(W[i], x[i] * 2.0)
        r.store(y[i], W[i] + 1.0)
    return r


def build_dead_map() -> Region:
    """LINT FIXTURE: array ``unused`` mapped but never touched (MAP004)."""
    r = Region("dead_map")
    n = r.param("n")
    x = r.array("x", (n,))
    unused = r.array("unused", (n, n), inout=True)  # noqa: F841 - the defect
    y = r.array("y", (n,), output=True)
    with r.parallel_loop("i", n) as i:
        r.store(y[i], x[i] + 1.0)
    return r


def build_unanalysable_direction() -> Region:
    """LINT FIXTURE: non-affine read index defeats the dataflow (MAP005).

    ``x[(i*i) % n]`` cannot be decomposed as an affine form over ``i``,
    so the direction of ``x`` is unknown and the declared map cannot be
    verified (or tightened).
    """
    r = Region("unanalysable")
    n = r.param("n")
    x = r.array("x", (n,))
    y = r.array("y", (n,), output=True)
    with r.parallel_loop("i", n) as i:
        r.store(y[i], x[(i.sym * i.sym) % n.sym])
    return r


def build_undeclared_reduction() -> Region:
    """LINT FIXTURE (do not execute): s[0] += x[i] with a plain store.

    Every thread read-modify-writes the same accumulator cell without a
    reduction clause (lint code RED001).
    """
    r = Region("plain_reduce")
    n = r.param("n")
    x = r.array("x", (n,))
    s = r.array("s", (1,), inout=True)
    with r.parallel_loop("i", n) as i:
        r.store(s[0], s[0] + x[i])
    return r
