"""Trace-driven fleet-link evaluation.

Every airborne drone sends a periodic status beacon (CAM, 190 bytes / 100 ms
by default) to the truck. Three abstracted medium-access models are provided:

* Centralized - base-station-granted uplink, two radio hops via the base
  station plus backhaul and per-hop processing.
* Csma - listen-before-talk with AIFS and random backoff; transmissions that
  overlap in time within carrier-sense range of the receiver collide.
* Sps - sensing-based semi-persistent slot reservation; a slot grid spans
  each CAM period, reservations are kept for a random number of periods, and
  two in-range senders holding the same slot lose that period's messages.

Packet loss combines a distance/LOS logistic link model with the per-model
collision rules. No retransmissions are modeled in any scheme.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .rng import generator
from .scenario import Point, Scenario, los_blocked_many
from .simcore import DeliveryTrace

# Per-model seed tag: selects each model's own random stream inside
# run_cam_traffic and, in callers, the per-model seed mix(seed, stream, tag).
MODEL_TAG = {"centralized": 0, "csma": 1, "sps": 2}

# Seed substreams. For one seed, Centralized and Csma share the per-sender
# generation phases, and all three models share the per-(sender, period)
# channel draws (common random numbers). Sps sends at slot-aligned instants,
# not at the generation phases, so only the channel draws are shared with it:
# its PDR differs from the other models' also through the instants (and so the
# positions) at which the channel is sampled, not through medium access alone.
# The draws are shared only between runs given the same seed; the sweep's net
# phase and `hybridfleet netsim` derive a separate seed for each model.
_STREAM_PHASE = 10
_STREAM_CHANNEL = 11
_STREAM_CHANNEL2 = 12


@dataclass(frozen=True)
class CamMessage:
    seq: int
    sender: str
    generated_at: float        # s
    size: int                  # bytes
    delivered: bool
    latency_ms: float          # valid when delivered
    los: bool                  # line of sight on the sender's first radio hop


@dataclass
class ChannelConfig:
    pl_exp_los: float = 2.0
    pl_exp_nlos: float = 3.2
    ref_loss_db: float = 47.0        # loss at 1 m
    tx_power_dbm: float = 23.0       # reserved; threshold encodes the budget
    loss_threshold_db: float = 125.0
    logistic_width_db: float = 4.0
    carrier_sense_m: float = 800.0

    def validate(self) -> None:
        if self.pl_exp_nlos < self.pl_exp_los:
            raise ParameterError("NLOS exponent must be >= LOS exponent")
        if self.logistic_width_db <= 0:
            raise ParameterError("logistic width must be positive")


@dataclass
class Centralized:
    grant_period_ms: float = 10.0    # uplink grant delay ~ U[0, grant_period]
    processing_ms: float = 4.0       # per radio hop
    backhaul_ms: float = 10.0
    airtime_ms: float = 1.0          # per radio hop
    name: str = field(default="centralized", init=False)


@dataclass
class Csma:
    slot_us: float = 13.0
    aifs_us: float = 58.0
    cw_slots: int = 15               # backoff ~ uniform{0..cw_slots}
    airtime_ms: float = 0.5
    name: str = field(default="csma", init=False)


@dataclass
class Sps:
    n_slots: int = 100
    slot_ms: float = 1.0
    keep_min: int = 5                # reservation lifetime ~ uniform{min..max}
    keep_max: int = 15
    reselect_prob: float = 0.8
    name: str = field(default="sps", init=False)

    @property
    def airtime_ms(self) -> float:
        return self.slot_ms


MacModel = Centralized | Csma | Sps


def default_models() -> list[MacModel]:
    return [Centralized(), Csma(), Sps()]


@dataclass
class NetStats:
    model: str
    sent: int
    delivered: int
    latencies_ms: np.ndarray          # delivered messages only
    pdr: float
    per_link: dict[str, dict]
    messages: list[CamMessage]

    def latency_percentile(self, q: float) -> float:
        if self.latencies_ms.size == 0:
            raise ParameterError("no delivered messages")
        return float(np.percentile(self.latencies_ms, q))


@dataclass(frozen=True)
class RequirementsProfile:
    """Static link requirements for command-and-control and drone delivery."""
    cc_latency_bound_ms: float = 50.0
    cc_rate_kbps: tuple[float, float] = (60.0, 100.0)
    cc_per: float = 1e-3
    pdr_target: float = 0.99
    drone_delivery_latency_ms: float = 500.0
    drone_delivery_rate_dl_kbps: float = 300.0
    drone_delivery_rate_ul_kbps: float = 200.0


@dataclass
class RequirementsReport:
    model: str
    p95_latency_ms: float
    cc_latency_ok: bool
    pdr: float
    pdr_ok: bool
    drone_delivery_latency_ok: bool

    def lines(self) -> list[str]:
        return [
            f"[{self.model}] p95 latency {self.p95_latency_ms:.3f} ms "
            f"{'<=' if self.cc_latency_ok else '>'} 50 ms C&C bound: "
            f"{'pass' if self.cc_latency_ok else 'FAIL'}",
            f"[{self.model}] PDR {self.pdr:.4f} "
            f"{'>=' if self.pdr_ok else '<'} 0.99 target: "
            f"{'pass' if self.pdr_ok else 'FAIL'}",
            f"[{self.model}] p95 latency vs 500 ms drone-delivery bound: "
            f"{'pass' if self.drone_delivery_latency_ok else 'FAIL'}",
        ]


def check_requirements(stats: NetStats,
                       profile: RequirementsProfile = RequirementsProfile()
                       ) -> RequirementsReport:
    if stats.sent == 0:
        raise ParameterError("stats are empty")
    p95 = stats.latency_percentile(95) if stats.latencies_ms.size else math.inf
    return RequirementsReport(
        model=stats.model,
        p95_latency_ms=p95,
        cc_latency_ok=p95 <= profile.cc_latency_bound_ms,
        pdr=stats.pdr,
        pdr_ok=stats.pdr >= profile.pdr_target,
        drone_delivery_latency_ok=p95 <= profile.drone_delivery_latency_ms,
    )


# ---------------------------------------------------------------------------
# link model


def link_success_probability(cfg: ChannelConfig, a: Point, b: Point,
                             los: bool) -> float:
    """Log-distance path loss pushed through a logistic reception curve."""
    d = math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)
    if d == 0.0:
        return 1.0  # collocated
    n = cfg.pl_exp_los if los else cfg.pl_exp_nlos
    pl = cfg.ref_loss_db + 10.0 * n * math.log10(d)
    return 1.0 / (1.0 + math.exp((pl - cfg.loss_threshold_db) / cfg.logistic_width_db))


def _success_probs(cfg: ChannelConfig, a_xyz: np.ndarray, b_xyz: np.ndarray,
                   los: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.sum((a_xyz - b_xyz) ** 2, axis=1))
    n_exp = np.where(los, cfg.pl_exp_los, cfg.pl_exp_nlos)
    with np.errstate(divide="ignore"):
        pl = cfg.ref_loss_db + 10.0 * n_exp * np.log10(np.maximum(d, 1e-300))
    p = 1.0 / (1.0 + np.exp(np.minimum((pl - cfg.loss_threshold_db)
                                       / cfg.logistic_width_db, 500.0)))
    return np.where(d == 0.0, 1.0, p)


# ---------------------------------------------------------------------------
# traffic runs


def run_cam_traffic(trace: DeliveryTrace, scenario: Scenario, mac: MacModel,
                    cfg: ChannelConfig = ChannelConfig(),
                    period_ms: float = 100.0, size_bytes: int = 190,
                    seed: int = 0) -> NetStats:
    """Generate periodic CAMs from every airborne drone and evaluate delivery.

    Sender and receiver positions are sampled from the trace at transmission
    instants; stowed drones do not transmit. Deterministic for a fixed seed.
    """
    if not trace.events:
        raise ParameterError("trace is empty")
    cfg.validate()
    windows = trace.airborne_windows()
    senders = sorted(windows)
    if isinstance(mac, Sps):
        if abs(mac.n_slots * mac.slot_ms - period_ms) > 1e-9:
            raise ParameterError("Sps slot grid must span exactly one CAM period")
        return _run_sps(trace, scenario, mac, cfg, period_ms, size_bytes, seed,
                        windows, senders)
    if isinstance(mac, Csma):
        return _run_csma(trace, scenario, mac, cfg, period_ms, size_bytes, seed,
                         windows, senders)
    if isinstance(mac, Centralized):
        return _run_centralized(trace, scenario, mac, cfg, period_ms, size_bytes,
                                seed, windows, senders)
    raise ParameterError(f"unknown MAC model {mac!r}")


def _interp_positions(trace: DeliveryTrace, vehicle: str, times: np.ndarray) -> np.ndarray:
    tr = trace.trajectories[vehicle]
    return np.column_stack([np.interp(times, tr.times, tr.x),
                            np.interp(times, tr.times, tr.y),
                            np.interp(times, tr.times, tr.z)])


def _sender_phases(seed: int, n_senders: int, period_s: float) -> list[float]:
    return [float(generator(seed, _STREAM_PHASE, i).uniform(0.0, period_s))
            for i in range(n_senders)]


def _channel_uniforms(seed: int, stream: int, n_senders: int,
                      n_periods: int) -> np.ndarray:
    """(sender, period) -> uniform draw, identical for every MAC model."""
    out = np.empty((n_senders, n_periods))
    for i in range(n_senders):
        out[i] = generator(seed, stream, i).random(n_periods)
    return out


def _period_index(times: np.ndarray, period_s: float, n_periods: int) -> np.ndarray:
    k = np.floor(times / period_s + 1e-12).astype(np.int64)
    return np.clip(k, 0, n_periods - 1)


def _n_periods(trace: DeliveryTrace, period_s: float) -> int:
    return int(math.ceil(trace.end_time / period_s)) + 2


def _phase_gen_times(windows, phase: float, period_s: float) -> np.ndarray:
    """Generation instants phase + k*period falling inside airborne windows."""
    out = []
    for lo, hi in windows:
        k = math.ceil((lo - phase) / period_s - 1e-12)
        t = phase + k * period_s
        while t < hi:
            if t >= lo:
                out.append(t)
            t += period_s
    return np.array(out, np.float64)


def _phase_beacons(trace: DeliveryTrace, windows, senders, seed: int,
                   period_s: float):
    """Beacons generated at each sender's phase: (gen, sidx, spos) or None.

    gen holds the generation instants inside each sender's airborne windows,
    sidx the sender index of each, spos the sender position at that instant;
    all are ordered by (time, sender). None when no beacon is generated.
    """
    phases = _sender_phases(seed, len(senders), period_s)
    gen, sidx = [], []
    for i, s in enumerate(senders):
        ts = _phase_gen_times(windows[s], phases[i], period_s)
        gen.append(ts)
        sidx.append(np.full(ts.size, i, np.int64))
    if sum(t.size for t in gen) == 0:
        return None
    gen = np.concatenate(gen)
    sidx = np.concatenate(sidx)
    order = np.lexsort((sidx, gen))
    gen, sidx = gen[order], sidx[order]
    spos = np.empty((gen.size, 3))
    for i, s in enumerate(senders):
        m = sidx == i
        spos[m] = _interp_positions(trace, s, gen[m])
    return gen, sidx, spos


def _in_window(windows, t: float) -> bool:
    return any(lo <= t < hi for lo, hi in windows)


def _collect(model_name, senders, msg_sender_idx, gen_times, delivered,
             latency_ms, los, size_bytes) -> NetStats:
    order = np.lexsort((msg_sender_idx, gen_times))
    messages = []
    seq_per = {s: 0 for s in senders}
    per_link = {s: {"sent": 0, "delivered": 0} for s in senders}
    for i in order.tolist():
        s = senders[msg_sender_idx[i]]
        messages.append(CamMessage(seq_per[s], s, float(gen_times[i]), size_bytes,
                                   bool(delivered[i]), float(latency_ms[i]),
                                   bool(los[i])))
        seq_per[s] += 1
        per_link[s]["sent"] += 1
        per_link[s]["delivered"] += int(delivered[i])
    for s, rec in per_link.items():
        rec["pdr"] = rec["delivered"] / rec["sent"] if rec["sent"] else 1.0
    sent = len(messages)
    ndel = int(np.sum(delivered))
    lats = np.sort(latency_ms[delivered.astype(bool)]) if sent else np.empty(0)
    return NetStats(model_name, sent, ndel, lats,
                    (ndel / sent) if sent else 1.0, per_link, messages)


def _empty_stats(name: str) -> NetStats:
    return NetStats(name, 0, 0, np.empty(0), 1.0, {}, [])


def _run_centralized(trace, scenario, mac: Centralized, cfg, period_ms,
                     size_bytes, seed, windows, senders) -> NetStats:
    rng = generator(seed, MODEL_TAG["centralized"])
    period_s = period_ms / 1000.0
    beacons = _phase_beacons(trace, windows, senders, seed, period_s)
    if beacons is None:
        return _empty_stats(mac.name)
    gen, sidx, spos = beacons
    n = gen.size
    rxpos = _interp_positions(trace, "truck", gen)
    bs = scenario.base_station
    bspos = np.tile([bs.x, bs.y, bs.z], (n, 1))

    los1 = ~los_blocked_many(scenario, spos, bspos)
    los2 = ~los_blocked_many(scenario, bspos, rxpos)
    p1 = _success_probs(cfg, spos, bspos, los1)
    p2 = _success_probs(cfg, bspos, rxpos, los2)

    n_periods = _n_periods(trace, period_s)
    u1 = _channel_uniforms(seed, _STREAM_CHANNEL, len(senders), n_periods)
    u2 = _channel_uniforms(seed, _STREAM_CHANNEL2, len(senders), n_periods)
    k = _period_index(gen, period_s, n_periods)
    grant = rng.uniform(0.0, mac.grant_period_ms, n)
    delivered = (u1[sidx, k] <= p1) & (u2[sidx, k] <= p2)
    latency = grant + 2.0 * mac.processing_ms + mac.backhaul_ms + 2.0 * mac.airtime_ms
    return _collect(mac.name, senders, sidx, gen, delivered, latency, los1,
                    size_bytes)


def _run_csma(trace, scenario, mac: Csma, cfg, period_ms, size_bytes, seed,
              windows, senders) -> NetStats:
    rng = generator(seed, MODEL_TAG["csma"])
    period_s = period_ms / 1000.0
    slot_s = mac.slot_us * 1e-6
    aifs_s = mac.aifs_us * 1e-6
    air_s = mac.airtime_ms * 1e-3

    beacons = _phase_beacons(trace, windows, senders, seed, period_s)
    if beacons is None:
        return _empty_stats(mac.name)
    gen, sidx, spos = beacons
    n = gen.size
    backoffs = rng.integers(0, mac.cw_slots + 1, n)

    # listen-before-talk: AIFS plus backoff counted during idle air as sensed
    # by the sender; busy intervals re-arm the AIFS and freeze the backoff.
    tx_start = np.empty(n)
    committed: list[tuple[float, float, int]] = []  # (start, end, msg index)
    cs2 = cfg.carrier_sense_m ** 2
    for i in range(n):
        busy = []
        for k in range(len(committed) - 1, -1, -1):
            st, en, j = committed[k]
            if en < gen[i] - 0.25:  # transmissions this old cannot interfere
                break
            dx = spos[j, 0] - spos[i, 0]
            dy = spos[j, 1] - spos[i, 1]
            dz = spos[j, 2] - spos[i, 2]
            if dx * dx + dy * dy + dz * dz <= cs2:
                busy.append((st, en))
        busy.sort()
        tx_start[i] = _defer(gen[i], aifs_s, float(backoffs[i]), slot_s, busy)
        committed.append((tx_start[i], tx_start[i] + air_s, i))

    # collision rule: overlapping transmissions within carrier-sense range of
    # the receiver are all lost
    rxpos = _interp_positions(trace, "truck", tx_start)
    in_rx_range = (np.sum((spos - rxpos) ** 2, axis=1) <= cs2)
    collided = np.zeros(n, bool)
    by_start = np.argsort(tx_start, kind="stable")
    open_tx: list[int] = []
    for i in by_start.tolist():
        open_tx = [j for j in open_tx if tx_start[j] + air_s > tx_start[i]]
        for j in open_tx:
            if in_rx_range[i] and in_rx_range[j]:
                collided[i] = True
                collided[j] = True
        open_tx.append(i)

    los = ~los_blocked_many(scenario, spos, rxpos)
    p = _success_probs(cfg, spos, rxpos, los)
    n_periods = _n_periods(trace, period_s)
    u = _channel_uniforms(seed, _STREAM_CHANNEL, len(senders), n_periods)
    k = _period_index(gen, period_s, n_periods)
    delivered = (~collided) & (u[sidx, k] <= p)
    latency = (tx_start + air_s - gen) * 1000.0
    return _collect(mac.name, senders, sidx, gen, delivered, latency, los,
                    size_bytes)


def _defer(gen: float, aifs_s: float, slots: float, slot_s: float,
           busy: list[tuple[float, float]]) -> float:
    """Transmission start after AIFS + backoff over the busy timeline."""
    merged: list[list[float]] = []
    for st, en in busy:
        if merged and st <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], en)
        else:
            merged.append([st, en])
    t = gen
    need_aifs = aifs_s
    slots_left = slots
    k = 0
    while True:
        while k < len(merged) and merged[k][1] <= t:
            k += 1
        if k < len(merged) and merged[k][0] <= t:
            t = merged[k][1]
            need_aifs = aifs_s
            continue
        idle_end = merged[k][0] if k < len(merged) else math.inf
        if need_aifs > 0.0:
            use = min(need_aifs, idle_end - t)
            t += use
            need_aifs -= use
            if need_aifs > 0.0:
                continue
        need_t = slots_left * slot_s
        if t + need_t <= idle_end:
            return t + need_t
        slots_left -= (idle_end - t) / slot_s
        t = idle_end


def _run_sps(trace, scenario, mac: Sps, cfg, period_ms, size_bytes, seed,
             windows, senders) -> NetStats:
    rng = generator(seed, MODEL_TAG["sps"])
    period_s = period_ms / 1000.0
    slot_s = mac.slot_ms / 1000.0
    end = trace.end_time
    n_senders = len(senders)
    if n_senders == 0:
        return _empty_stats(mac.name)
    cs2 = cfg.carrier_sense_m ** 2

    slot = [-1] * n_senders
    keep = [0] * n_senders

    def positions_at(t):
        return [(_interp_positions(trace, s, np.array([t]))[0]) for s in senders]

    def select_slot(si, t):
        pos = positions_at(t)
        occupied = set()
        for sj in range(n_senders):
            if sj != si and slot[sj] >= 0:
                d2 = float(np.sum((pos[sj] - pos[si]) ** 2))
                if d2 <= cs2:
                    occupied.add(slot[sj])
        free = [sl for sl in range(mac.n_slots) if sl not in occupied]
        if not free:
            free = list(range(mac.n_slots))
        return free[int(rng.integers(0, len(free)))]

    msg_t, msg_sidx, msg_slot, msg_period = [], [], [], []
    n_periods = int(math.ceil(end / period_s)) + 1
    for k in range(n_periods):
        t_p = k * period_s
        for si, s in enumerate(senders):
            airborne = _in_window(windows[s], t_p)
            if slot[si] < 0:
                if airborne:
                    slot[si] = select_slot(si, t_p)
                    keep[si] = int(rng.integers(mac.keep_min, mac.keep_max + 1))
            elif not airborne:
                slot[si] = -1  # landed: reservation released
        for si, s in enumerate(senders):
            if slot[si] < 0:
                continue
            t_tx = t_p + slot[si] * slot_s
            if not _in_window(windows[s], t_tx):
                continue
            msg_t.append(t_tx)
            msg_sidx.append(si)
            msg_slot.append(slot[si])
            msg_period.append(k)
            keep[si] -= 1
            if keep[si] <= 0:
                if rng.random() < mac.reselect_prob:
                    slot[si] = select_slot(si, t_tx)
                keep[si] = int(rng.integers(mac.keep_min, mac.keep_max + 1))

    if not msg_t:
        return _empty_stats(mac.name)
    gen = np.array(msg_t)
    sidx = np.array(msg_sidx, np.int64)
    n = gen.size
    spos = np.empty((n, 3))
    for i, s in enumerate(senders):
        m = sidx == i
        if np.any(m):
            spos[m] = _interp_positions(trace, s, gen[m])
    rxpos = _interp_positions(trace, "truck", gen)
    in_rx_range = (np.sum((spos - rxpos) ** 2, axis=1) <= cs2)

    collided = np.zeros(n, bool)
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        groups.setdefault((msg_period[i], msg_slot[i]), []).append(i)
    for members in groups.values():
        in_range = [i for i in members if in_rx_range[i]]
        if len(in_range) >= 2:
            for i in in_range:
                collided[i] = True

    los = ~los_blocked_many(scenario, spos, rxpos)
    p = _success_probs(cfg, spos, rxpos, los)
    n_periods = _n_periods(trace, period_s)
    u = _channel_uniforms(seed, _STREAM_CHANNEL, len(senders), n_periods)
    k = np.array(msg_period, np.int64)
    k = np.clip(k, 0, n_periods - 1)
    delivered = (~collided) & (u[sidx, k] <= p)
    latency = np.full(n, mac.airtime_ms)
    return _collect(mac.name, senders, sidx, gen, delivered, latency, los,
                    size_bytes)


# ---------------------------------------------------------------------------
# CSV outputs


def write_net_results_csv(stats_list: list[NetStats], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "sender", "seq", "gen_time_s", "delivered",
                    "latency_ms", "los"])
        for st in stats_list:
            for m in st.messages:
                w.writerow([st.model, m.sender, m.seq, repr(m.generated_at),
                            int(m.delivered),
                            repr(m.latency_ms) if m.delivered else "",
                            int(m.los)])


def write_net_summary_csv(stats_list: list[NetStats], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "sent", "delivered", "pdr", "lat_p50_ms", "lat_p95_ms"])
        for st in stats_list:
            has = st.latencies_ms.size > 0
            w.writerow([st.model, st.sent, st.delivered, repr(st.pdr),
                        repr(st.latency_percentile(50)) if has else "",
                        repr(st.latency_percentile(95)) if has else ""])
