"""In-house symmetric eigensolver kernels in pure NumPy.

Householder reduction to tridiagonal form followed by implicitly shifted QL
iteration, plus Sturm-sequence eigenvalue counting on tridiagonal matrices.
The Sturm count is the one-matrix reference for the batched bisection in
`min_eig_tridiag`; the dense kernels are the independent reference that the
tests compare the LAPACK solves against.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = np.finfo(np.float64).eps


def tridiagonalize(a, want_q):
    """Reduce a real symmetric matrix to tridiagonal form T = Q^T A Q.

    Returns (d, e, q) where d is the diagonal, e the subdiagonal (length
    n-1) and q the accumulated orthogonal transform (None unless requested).
    The input matrix is not modified.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    reflectors = []
    for k in range(n - 2):
        x = a[k + 1:, k]
        xnorm = np.sqrt(np.dot(x, x))
        if xnorm == 0.0:
            continue
        alpha = -math.copysign(xnorm, x[0]) if x[0] != 0.0 else -xnorm
        v = x.copy()
        v[0] -= alpha
        vnorm = np.sqrt(np.dot(v, v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        # two-sided update of the trailing block: P A22 P with P = 1 - 2vv^T
        a22 = a[k + 1:, k + 1:]
        w = a22 @ v
        tau = np.dot(v, w)
        a22 -= 2.0 * (np.outer(v, w) + np.outer(w, v)) - 4.0 * tau * np.outer(v, v)
        a[k + 1:, k] = 0.0
        a[k, k + 1:] = 0.0
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
        if want_q:
            reflectors.append((k, v))
    d = np.diagonal(a).copy()
    e = np.diagonal(a, -1).copy() if n > 1 else np.zeros(0)
    q = None
    if want_q:
        q = np.eye(n)
        # Q = P_0 P_1 ... P_{n-3}; apply in reverse onto the identity
        for k, v in reversed(reflectors):
            q[k + 1:, :] -= 2.0 * np.outer(v, v @ q[k + 1:, :])
    return d, e, q


def tql(d, e, q, max_sweeps=50):
    """Eigenvalues (and optionally vectors) of a symmetric tridiagonal matrix.

    Implicitly shifted QL iteration.  ``d`` (diagonal, length n) and ``e``
    (subdiagonal, length n-1) are consumed; ``q`` is updated in place when
    given (columns end up as eigenvectors of the tridiagonal matrix).
    Returns (eigenvalues, total_rotation_sweeps, converged).
    """
    n = d.shape[0]
    d = np.asarray(d, dtype=np.float64).copy()
    if n == 1:
        return d, 0, True
    ee = np.zeros(n)
    ee[: n - 1] = e
    total_iter = 0
    converged = True
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(ee[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            total_iter += 1
            if sweeps > max_sweeps:
                converged = False
                break
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = math.hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if q is not None:
                    col = q[:, i + 1].copy()
                    q[:, i + 1] = s * q[:, i] + c * col
                    q[:, i] = c * q[:, i] - s * col
            else:
                d[l] -= p
                ee[l] = g
                ee[m] = 0.0
    return d, total_iter, converged


def sturm_count(d, e, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below x."""
    n = d.shape[0]
    count = 0
    qv = d[0] - x
    if qv < 0.0:
        count += 1
    for i in range(1, n):
        if qv == 0.0:
            qv = _EPS * (abs(e[i - 1]) + _EPS)
        qv = d[i] - x - e[i - 1] * e[i - 1] / qv
        if qv < 0.0:
            count += 1
    return count
