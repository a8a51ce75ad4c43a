"""Reference implementations the tests check the numeric core against.

They are the plain forms: the Jacobian by central differences, the
Gauss-Newton step and the Newton projection through `np.linalg`, the
tracker's stride cut as a loop over knots, and the arm and Hopf maps
written one column at a time. The package's versions
trim numpy's per-call overhead on small blocks and must stay bit for bit
equal to these. `arm_lift_reference` and `hopf_lift_reference` are of
another kind: the arm's lift in closed form and the Hopf bundle's
horizontal lift by its holonomy, which tracked lifts must match.
"""

import numpy as np

NEWTON_BLOWUP = 1e6


def jacobian_fd(wm, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, the independent check for wm.jac."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[0]):
        step = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        cols.append((wm.f(xp) - wm.f(xm)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def gauss_newton_step(J: np.ndarray, r: np.ndarray, bound: bool = False) -> tuple:
    wide = J.shape[-2] <= J.shape[-1]
    Jt = np.swapaxes(J, 1, 2)
    normal, rhs = (J @ Jt, r) if wide else (Jt @ J, np.einsum("kpn,kp->kn", J, r))
    det = np.linalg.det(normal)
    tr = np.trace(normal, axis1=1, axis2=2)
    sigma2 = det / np.where(tr == 0.0, np.inf, tr) ** (normal.shape[-1] - 1)
    ok = np.abs(det) > 1e-300
    degenerate = not ok.all()
    if degenerate:
        normal[~ok] = np.eye(normal.shape[-1])
    sol = np.linalg.solve(normal, rhs[..., None])[..., 0]
    dx = np.einsum("kpn,kp->kn", J, sol) if wide else sol
    if degenerate:
        dx[~ok] = np.nan
    return (dx, ok, sigma2) if bound else (dx, ok)


def newton_project(f, jac, x0s, targets, tol=1e-12, max_iter=50):
    xs = np.array(x0s, dtype=float)
    ok = np.zeros(xs.shape[0], dtype=bool)
    x, t, live = xs, np.asarray(targets, dtype=float), None
    for it in range(max_iter + 1):
        if x.shape[0] == 0:
            break
        r = f(x) - t
        done = np.linalg.norm(r, axis=1) <= tol
        n_done = np.count_nonzero(done)
        if n_done == x.shape[0]:
            ok[slice(None) if live is None else live] = True
            break
        if n_done:
            live = np.arange(xs.shape[0]) if live is None else live
            ok[live[done]] = True
            xs[live[done]] = x[done]
            x, t, r, live = x[~done], t[~done], r[~done], live[~done]
        if it == max_iter:
            break
        dx, _ = gauss_newton_step(jac(x), r)
        x -= dx
        wild = ~np.isfinite(x).all(axis=1) | (np.linalg.norm(dx, axis=1) > NEWTON_BLOWUP)
        if np.count_nonzero(wild):
            live = np.arange(xs.shape[0]) if live is None else live
            xs[live[wild]] = np.nan
            x, t, live = x[~wild], t[~wild], live[~wild]
    if live is not None:
        xs[live] = x
    return xs, ok


def stride_cut(reach: np.ndarray, i: int, j: int, sigma2: float) -> int:
    """The longest stride from knot i to at most knot j, in knots, whose base
    length keeps the step rule at an anchor with sigma_min^2 >= sigma2; 0 when
    not even one knot does. reach is the row's base length from knot 0 over
    STEP_RULE, as `_Tracker.reach` holds it."""
    n = 0
    while i + n < j:
        length = reach[i + n + 1] - reach[i]
        if length * length > sigma2:
            break
        n += 1
    return n


def rr_f(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    ca = np.cos(a)
    out = np.empty(x.shape[:-1] + (3,), dtype=float)
    out[..., 0] = ca * np.cos(b)
    out[..., 1] = ca * np.sin(b)
    out[..., 2] = np.sin(a)
    return out


def rr_jac(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    J = np.empty(x.shape[:-1] + (3, 2), dtype=float)
    J[..., 0, 0] = -sa * cb
    J[..., 0, 1] = -ca * sb
    J[..., 1, 0] = -sa * sb
    J[..., 1, 1] = ca * cb
    J[..., 2, 0] = ca
    J[..., 2, 1] = 0.0
    return J


def hopf_f(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x1, x2, x3, x4 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    out = np.empty(x.shape[:-1] + (3,), dtype=float)
    out[..., 0] = 2.0 * (x1 * x3 + x2 * x4)
    out[..., 1] = 2.0 * (x2 * x3 - x1 * x4)
    out[..., 2] = x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4
    return out


def arm_lift_reference(base, knots: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The continuous arm lift of the base path at knots, on the start's sheet.

    Off the poles the fiber over a unit value gamma is (a, b) and
    (pi - a, b + pi), mod 2 pi, with a = asin(gamma_z) (taken as
    atan2(gamma_z, |(gamma_x, gamma_y)|), which is exact near the poles) and
    b = atan2(gamma_y, gamma_x). A continuous lift keeps the sheet of its
    start: pi - a and b + pi where cos a0 < 0. b is unwrapped along the base
    path itself: the knots are refined until no two neighbouring samples
    differ in azimuth by more than 0.5, so that a lift with too few knots
    near a pole cannot make its own reference. Both angles are then shifted
    into the 2 pi class of the start.
    """
    ts = np.asarray(knots, dtype=float)
    for _ in range(60):
        g = base.sample(ts)
        theta = np.arctan2(g[:, 1], g[:, 0])
        wide = np.abs(np.angle(np.exp(1j * np.diff(theta)))) > 0.5
        if not wide.any():
            break
        ts = np.sort(np.concatenate([ts, 0.5 * (ts[:-1][wide] + ts[1:][wide])]))
    else:
        raise AssertionError("the base path passes too near a pole to unwrap its azimuth")
    at = np.searchsorted(ts, knots)
    a = np.arctan2(g[at, 2], np.hypot(g[at, 0], g[at, 1]))
    b = np.unwrap(theta)[at]
    if np.cos(start[0]) < 0.0:
        a, b = np.pi - a, b + np.pi
    a += 2.0 * np.pi * np.round((start[0] - a[0]) / (2.0 * np.pi))
    b += 2.0 * np.pi * np.round((start[1] - b[0]) / (2.0 * np.pi))
    return np.stack([a, b], axis=1)


def _hopf_section(u: np.ndarray, rho: np.ndarray, north: bool) -> np.ndarray:
    """The closed-form section over unit values u on the fibers of norm^2 rho, as
    complex (z, w): z real and positive on the north chart (u_z > -1), w real and
    positive on the south chart (u_z < 1). Then 2 z conj(w) = rho (u_x + i u_y)."""
    c = rho * (u[:, 0] + 1j * u[:, 1]) / 2.0
    if north:
        z = np.sqrt(rho * (1.0 + u[:, 2]) / 2.0)
        return np.stack([z + 0j, np.conj(c) / z], axis=1)
    w = np.sqrt(rho * (1.0 - u[:, 2]) / 2.0)
    return np.stack([c / w, w + 0j], axis=1)


def hopf_lift_reference(base, knots: np.ndarray, start: np.ndarray, fine: int = 64) -> np.ndarray:
    """The horizontal Hopf lift of the base path at knots, from start.

    The lift is x(t) = e^{i theta(t)} s(gamma(t)), with s the closed-form section
    of the chart that holds gamma(t) (north where u_z >= 0) and theta' = -Im<s,
    ds/dt> / |s|^2, the Hopf bundle's holonomy. On the north chart that is
    (u_x u_y' - u_y u_x') / (2 (1 + u_z)), on the south chart minus the same
    over 2 (1 - u_z). Each knot interval is cut into `fine` steps, the 1-form is
    integrated by the midpoint rule on each step's chord, and a step that
    changes chart adds the transition phase arg<s_new, s_old> at its end.
    Knots come back in the interleaved layout (Re z, Im z, Re w, Im w).
    """
    knots = np.asarray(knots, dtype=float)
    frac = np.arange(fine) / fine
    ts = np.append((knots[:-1, None] + np.diff(knots)[:, None] * frac).ravel(), knots[-1])
    g = base.sample(ts)
    rho = np.linalg.norm(g, axis=1)
    u = g / rho[:, None]
    north = u[:, 2] >= 0.0
    mid, du = 0.5 * (u[:-1] + u[1:]), np.diff(u, axis=0)
    twist = (mid[:, 0] * du[:, 1] - mid[:, 1] * du[:, 0]) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):  # each chart's own pole
        s_n, s_s = _hopf_section(u, rho, True), _hopf_section(u, rho, False)
        step = np.where(north[:-1], twist / (1.0 + mid[:, 2]), -twist / (1.0 - mid[:, 2]))
    s = np.where(north[:, None], s_n, s_s)
    old = np.where(north[:-1, None], s_n[1:], s_s[1:])  # the end of each step, in its chart
    switch = np.angle(np.sum(np.conj(s[1:]) * old, axis=1))
    z0 = start[0::2] + 1j * start[1::2]
    theta = np.angle(np.sum(np.conj(s[0]) * z0)) + np.concatenate([[0.0], np.cumsum(step + switch)])
    x = (np.exp(1j * theta)[:, None] * s)[::fine]
    out = np.empty((knots.size, 4))
    out[:, 0::2], out[:, 1::2] = x.real, x.imag
    return out
