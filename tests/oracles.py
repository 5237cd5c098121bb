"""Independent naive-loop implementations used only as test oracles.

Everything here is written with explicit scalar loops and the textbook
formulas, sharing no code with the package under test.
"""
import numpy as np


def naive_effective_channel(direct, ris_side, phi, H):
    """h^H = ris_side^H diag(phi) H + direct^H via explicit loops; phi
    holds the surface's N coefficients."""
    L = H.shape[1]
    N = H.shape[0]
    hH = np.zeros(L, complex)
    for l in range(L):
        acc = 0.0 + 0.0j
        for n in range(N):
            acc += np.conj(ris_side[n]) * phi[n] * H[n, l]
        hH[l] = acc + np.conj(direct[l])
    return hH


def naive_sinr(hH, K_s, K_w, m, sigma2):
    """Term-by-term expansion of the SINR formula."""
    L = K_s.shape[0]
    sig = 0.0 + 0.0j
    for l in range(L):
        sig += hH[l] * K_s[l, m]
    num = abs(sig) ** 2
    denom = sigma2
    for i in range(K_s.shape[1]):
        if i == m:
            continue
        acc = 0.0 + 0.0j
        for l in range(L):
            acc += hH[l] * K_s[l, i]
        denom += abs(acc) ** 2
    for j in range(K_w.shape[1]):
        acc = 0.0 + 0.0j
        for l in range(L):
            acc += hH[l] * K_w[l, j]
        denom += abs(acc) ** 2
    return num / denom


def naive_echo_snr(g_s, K, u, P, tau, sigma_s2):
    """SNR lower bound with the Kronecker product formed explicitly."""
    L, cols = K.shape
    H_s = np.zeros((L, L), complex)
    for a in range(L):
        for b in range(L):
            H_s[a, b] = g_s[a] * np.conj(g_s[b])
    big = np.kron(np.eye(cols), H_s)
    k_vec = K.reshape(-1, order="F")
    val = np.conj(u) @ big @ k_vec
    return P * tau ** 2 * abs(val) ** 2 / (sigma_s2 * float(np.real(np.conj(u) @ u)))


def naive_echo_snr_montecarlo(g_s, K, u, P, tau, sigma_s2, draws, rng):
    """Monte-Carlo estimate of the pre-Jensen echo SNR with random
    unit-power symbol blocks C (E{C C^H} = P I)."""
    L, cols = K.shape
    H_s = np.outer(g_s, np.conj(g_s))
    k_vec = K.reshape(-1, order="F")
    total = 0.0
    for _ in range(draws):
        C = (rng.standard_normal((cols, P)) +
             1j * rng.standard_normal((cols, P))) / np.sqrt(2.0)
        big = np.kron(C @ C.conj().T, H_s)
        total += abs(np.conj(u) @ big @ k_vec) ** 2
    mean = total / draws
    return tau ** 2 * mean / (P * sigma_s2 * float(np.real(np.conj(u) @ u)))


def random_instance(rng, L=3, N=6, M=2, scale=1.0):
    """Random channels, surface coefficient vectors, and beamformers for
    oracle comparisons."""
    def cvec(n):
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    H = scale * (rng.standard_normal((N, L)) + 1j * rng.standard_normal((N, L)))
    inst = {
        "H": H,
        "h_bm": [cvec(L) for _ in range(M)],
        "h_rm": [cvec(N) for _ in range(M)],
        "h_be": cvec(L),
        "h_re": cvec(N),
        "g_bs": cvec(L),
        "g_rs": cvec(N),
        "K_s": rng.standard_normal((L, M)) + 1j * rng.standard_normal((L, M)),
        "K_w": rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L)),
    }
    theta = rng.uniform(0, np.pi / 2, N)
    phases = rng.uniform(-np.pi, np.pi, N)
    inst["phi_a"] = np.cos(theta) * np.exp(1j * (phases + np.pi / 2))
    inst["phi_b"] = np.sin(theta) * np.exp(1j * phases)
    return inst


def kernel_inputs(inst):
    """The physics kernel's inputs from a random instance: the channels
    (H, D^*, R^*), receivers stacked as users, Eve, target with unit
    amplitudes, and the beam matrix [K_s K_w]."""
    return ((inst["H"],
             np.array([*inst["h_bm"], inst["h_be"], inst["g_bs"]]).conj(),
             np.array([*inst["h_rm"], inst["h_re"], inst["g_rs"]]).conj()),
            np.concatenate([inst["K_s"], inst["K_w"]], axis=1))


def naive_episode_fading(cfg, T, seed):
    """Per-slot (H, D, R) unit-power fading of one episode of scenario
    ``cfg``, drawn slot by slot: one child stream of the SeedSequence
    ``seed`` per link, in the order BS-RIS, BS-users, RIS-users, BS-Eve,
    RIS-Eve, BS-target, RIS-target; within a stream, per slot and per
    receiver, the real parts and then the imaginary parts. D and R stack
    the users, Eve and the target."""
    L, N, M = cfg.L, cfg.N, cfg.M
    bs_ris, bs_lu, ris_lu, bs_eve, ris_eve, bs_st, ris_st = (
        np.random.default_rng(child) for child in seed.spawn(7))

    def cn(shape, rng):
        return (rng.standard_normal(shape) +
                1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    # LoS part of BS->RIS: angles from the positions, UPA at the RIS with
    # row-major indexing, ULA at the BS
    v = np.asarray(cfg.ris, float) - np.asarray(cfg.bs, float)
    d = np.linalg.norm(v)
    beta_b = np.arctan2(v[1], v[0])
    beta_r = np.arcsin(np.clip(-v[2] / d, -1.0, 1.0))
    zeta_r = np.arctan2(-v[1], -v[0])
    lam = 299_792_458.0 / (cfg.freq_ghz * 1e9)
    n = np.arange(N)
    row, col = n // cfg.n_x, n % cfg.n_x
    eta1 = np.sin(beta_r) * np.sin(zeta_r)
    eta2 = np.sin(beta_r) * np.cos(zeta_r)
    # half-wavelength element spacing on both arrays
    f_r = np.exp(1j * 2.0 * np.pi * (lam / 2.0) * (row * eta1 + col * eta2) / lam)
    f_b = np.exp(1j * 2.0 * np.pi * np.arange(L) * (lam / 2.0)
                 * np.sin(beta_b) / lam)
    los = np.outer(f_r, f_b)
    F = cfg.rician_linear

    slots = []
    for _ in range(T):
        H = np.sqrt(F / (F + 1.0)) * los + np.sqrt(1.0 / (F + 1.0)) * cn((N, L), bs_ris)
        D = np.array([*[cn(L, bs_lu) for _ in range(M)],
                      cn(L, bs_eve), cn(L, bs_st)])
        R = np.array([*[cn(N, ris_lu) for _ in range(M)],
                      cn(N, ris_eve), cn(N, ris_st)])
        slots.append((H, D, R))
    return slots


def central_differences(net, loss, coords, h):
    """Central differences of loss() in each coordinate i of ``net.flat``
    in coords, in order: flat[i] is set to x + h, then lowered by 2h, and
    put back to x before the next coordinate."""
    flat = net.flat
    numeric = np.empty(len(coords))
    for k, i in enumerate(coords):
        x = flat[i]
        flat[i] = x + h
        up = loss()
        flat[i] -= 2 * h
        dn = loss()
        flat[i] = x
        numeric[k] = (up - dn) / (2 * h)
    return numeric


# ---------------------------------------------------------------------------
# the environment step, frozen

def _wrap_pi(phi):
    out = np.mod(phi + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def _surface_periods(variant, mode, raw):
    """(weight, Phi_A, Phi_B) periods of a raw surface slice in [-1, 1]."""
    if (variant, mode) == ("star", "es"):
        n = raw.size // 3
        theta = (raw[:n] + 1.0) * np.pi / 4.0
        phi_b = _wrap_pi(raw[n:2 * n] * np.pi)
        sign = np.where(raw[2 * n:] >= 0.0, 1.0, -1.0)
        b_sq = 1.0 - (1.0 - np.sin(theta) ** 2)
        a_sq = 1.0 - b_sq
        return [(1.0,
                 np.sqrt(a_sq) * np.exp(1j * _wrap_pi(phi_b + sign * np.pi / 2.0)),
                 np.sqrt(b_sq) * np.exp(1j * phi_b))]
    if (variant, mode) == ("star", "ts"):
        n = (raw.size - 1) // 2
        pi_1 = float((raw[0] + 1.0) / 2.0)
        phi_a = (raw[1:n + 1] + 1.0) * np.pi
        phi_b = (raw[n + 1:] + 1.0) * np.pi
        dark = np.zeros(n)
        return [(pi_1, dark, dark),
                (1.0 - pi_1, np.exp(1j * np.mod(phi_a, 2.0 * np.pi)),
                 np.exp(1j * np.mod(phi_b, 2.0 * np.pi)))]
    if (variant, mode) == ("spliced", "es"):
        half = raw.size // 2
        phases = raw * np.pi
        amp_a = np.concatenate([np.ones(half), np.zeros(raw.size - half)])
        return [(1.0, amp_a * np.exp(1j * phases),
                 (1.0 - amp_a) * np.exp(1j * phases))]
    assert (variant, mode) == ("conventional", "es")
    return [(1.0, np.exp(1j * raw * np.pi), np.zeros(raw.size))]


def naive_step(env, raw_action):
    """Every ``StepOutcome`` field of ``env.step(raw_action)``, computed
    from the env's parameters, its current slot of ``env.channels`` and
    its slot counter, without calling the package.

    This is the environment's step as first written with whole-array
    numpy operations, kept as it was apart from the echo SNR, which it
    takes in closed form instead of through the filter vector: every
    array goes through the same floating-point operations in the same
    memory layouts, so a rewrite of the step that claims to compute the
    same numbers must match it bit for bit. Call it before ``env.step``,
    which advances the slot.
    """
    L, M, T, t = env.L, env.M, env.T, env.t
    sensing, sigma2 = env.sensing, env.noise_power
    raw = np.clip(np.asarray(raw_action, float), -1.0, 1.0)
    beam = 2 * L * (L + M)
    nb = beam // 2

    # beamformers: scaled per column group, projected onto the power ball
    K = (raw[:nb] + 1j * raw[nb:beam]).reshape(L, L + M, order="F")
    K[:, :M] *= np.sqrt(0.8 * env.p_max / (L * M))
    K[:, M:] *= np.sqrt(0.2 * env.p_max / (L * L))
    tr = np.sum(np.abs(K) ** 2)
    K = K if tr <= env.p_max else K * np.sqrt(env.p_max / tr)
    K = np.concatenate([K[:, :M], K[:, M:]], axis=1)
    periods = _surface_periods(env.variant, env.mode, raw[beam:])

    H, D, R = env.channels.H[t], env.channels.D[t], env.channels.R[t]
    lu = eve = st = echo = 0.0
    for weight, phi_a, phi_b in periods:
        phi = np.empty(R.shape, complex)
        phi[:-1] = phi_b
        phi[-1] = phi_a
        h_eff = (R.conj() * phi) @ H + D.conj()
        power = np.abs(h_eff @ K) ** 2
        streams = power[:, :M]
        interference = (streams.sum(axis=1, keepdims=True) - streams
                        + power[:, M:].sum(axis=1, keepdims=True))
        r = np.log2(1.0 + streams / (interference + sigma2))
        lu = lu + weight * r.diagonal()
        eve = eve + weight * r[M]
        st = st + weight * r[M + 1]
        # echo SNR at the closed-form filter u ~ (I (x) g g^H) k, whose
        # Jensen bound is P tau^2 ||u||^2 / sigma_s^2 with ||u||^2 =
        # ||g||^2 sum_c |g^H k_c|^2; skipped where the target's channel
        # leaves the filter degenerate. The target's row is g^H.
        gH = h_eff[M + 1]
        w2 = np.vdot(gH, gH).real * np.sum(np.abs(gH @ K) ** 2)
        if w2 < 1e-300:
            continue
        echo += weight * float(
            sensing.P * sensing.tau ** 2 * w2 / sensing.sigma_s2)

    sec = np.maximum(lu - eve, 0.0) + np.maximum(lu - st, 0.0)
    sum_sec = float(sec.sum())
    if echo <= sensing.kappa_t:
        reward = float(echo)
    elif np.all(lu >= env.r_min):
        reward = float(sensing.kappa_t + M * env.r_min + sum_sec)
    else:
        reward = float(sensing.kappa_t + np.minimum(lu, env.r_min).sum())

    # next state: the next slot's unit-power fading (the last slot's once
    # the episode ends), then this action and reward, then the time
    ch, s = env.channels, min(t + 1, T - 1)
    Hf, Df, Rf = ch.H_fading[s], ch.D_fading[s], ch.R_fading[s]
    z = np.concatenate([Hf.ravel(), Df[:-2].ravel(), Rf[:-2].ravel(),
                        Df[-2], Rf[-2], Df[-1], Rf[-1]])
    next_state = np.concatenate([z.real, z.imag, raw,
                                 [reward / 10.0, (t + 1) / T]])
    return {
        "reward": reward, "lu_rates": lu, "eve_rates": eve, "st_rates": st,
        "secrecy_rates": sec, "sum_secrecy_rate": sum_sec, "echo_snr": echo,
        "snr_feasible": echo > sensing.kappa_t,
        "rate_feasible": bool(np.all(lu >= env.r_min)),
        "next_state": next_state, "done": t + 1 >= T,
    }
