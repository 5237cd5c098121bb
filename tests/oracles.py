"""Independent naive-loop implementations used only as test oracles.

Everything here is written with explicit scalar loops and the textbook
formulas, sharing no code with the package under test.
"""
import numpy as np


def naive_effective_channel(direct, ris_side, phi, H):
    """h^H = ris_side^H Phi H + direct^H via explicit loops."""
    L = H.shape[1]
    N = H.shape[0]
    hH = np.zeros(L, complex)
    for l in range(L):
        acc = 0.0 + 0.0j
        for n in range(N):
            acc += np.conj(ris_side[n]) * phi[n, n] * H[n, l]
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
    """Random channels, surface matrices, and beamformers for oracle
    comparisons."""
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
    inst["phi_a"] = np.diag(np.cos(theta) * np.exp(1j * (phases + np.pi / 2)))
    inst["phi_b"] = np.diag(np.sin(theta) * np.exp(1j * phases))
    return inst


def naive_episode_fading(geometry, params, L, N, T, seed):
    """Per-slot (H, D, R) unit-power fading of one episode, drawn slot by
    slot: one child stream of the seed per link, in the order BS-RIS,
    BS-users, RIS-users, BS-Eve, RIS-Eve, BS-target, RIS-target; within
    a stream, per slot and per receiver, the real parts and then the
    imaginary parts. D and R stack the users, Eve and the target."""
    M = len(geometry.lu_positions)
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    bs_ris, bs_lu, ris_lu, bs_eve, ris_eve, bs_st, ris_st = (
        np.random.default_rng(child) for child in ss.spawn(7))

    def cn(shape, rng):
        return (rng.standard_normal(shape) +
                1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    # LoS part of BS->RIS: angles from the positions, UPA at the RIS with
    # row-major indexing, ULA at the BS
    v = geometry.ris_position - geometry.bs_position
    d = np.linalg.norm(v)
    beta_b = np.arctan2(v[1], v[0])
    beta_r = np.arcsin(np.clip(-v[2] / d, -1.0, 1.0))
    zeta_r = np.arctan2(-v[1], -v[0])
    lam = params.wavelength
    n = np.arange(N)
    row, col = n // params.n_x, n % params.n_x
    eta1 = np.sin(beta_r) * np.sin(zeta_r)
    eta2 = np.sin(beta_r) * np.cos(zeta_r)
    # half-wavelength element spacing on both arrays
    f_r = np.exp(1j * 2.0 * np.pi * (lam / 2.0) * (row * eta1 + col * eta2) / lam)
    f_b = np.exp(1j * 2.0 * np.pi * np.arange(L) * (lam / 2.0)
                 * np.sin(beta_b) / lam)
    los = np.outer(f_r, f_b)
    F = params.rician_factor

    slots = []
    for _ in range(T):
        H = np.sqrt(F / (F + 1.0)) * los + np.sqrt(1.0 / (F + 1.0)) * cn((N, L), bs_ris)
        D = np.array([*[cn(L, bs_lu) for _ in range(M)],
                      cn(L, bs_eve), cn(L, bs_st)])
        R = np.array([*[cn(N, ris_lu) for _ in range(M)],
                      cn(N, ris_eve), cn(N, ris_st)])
        slots.append((H, D, R))
    return slots
