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

import math
import os
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import fields
from .errors import ConfigError, ParameterError
from .rng import generator, mix
from .scenario import Scenario, los_blocked_many
from .simcore import DeliveryTrace

# Seed substreams. For one seed, Centralized and Csma share the per-sender
# generation phases, and all three models share the per-(sender, period)
# channel draws (common random numbers). Sps sends at slot-aligned instants,
# not at the generation phases, so only the channel draws are shared with it:
# its PDR differs from the other models' also through the instants (and so the
# positions) at which the channel is sampled, not through medium access alone.
# The draws are shared only between runs given the same seed; evaluate_links
# derives a separate seed for each model (model_seed).
_STREAM_PHASE = 10
_STREAM_CHANNEL = 11
_STREAM_CHANNEL2 = 12


@dataclass
class ChannelConfig:
    pl_exp_los: float = 2.0
    pl_exp_nlos: float = 3.2
    ref_loss_db: float = 47.0        # loss at 1 m
    loss_threshold_db: float = 125.0
    logistic_width_db: float = 4.0
    carrier_sense_m: float = 800.0

    def validate(self) -> None:
        # negated comparisons, so that NaN fails them too
        if not self.pl_exp_nlos >= self.pl_exp_los:
            raise ParameterError("NLOS exponent must be >= LOS exponent")
        if not self.logistic_width_db > 0:
            raise ParameterError("logistic width must be positive")
        if not self.carrier_sense_m > 0:
            raise ParameterError(f"carrier_sense_m must be positive, got {self.carrier_sense_m}")
        for name in ("ref_loss_db", "loss_threshold_db"):
            if math.isnan(getattr(self, name)):
                raise ParameterError(f"{name} must not be NaN")


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


@dataclass
class NetStats:
    """One model's beacons as columns, one row per beacon, ordered by
    (generation time, sender index); the totals are derived from them."""
    model: str
    senders: list[str]                # sender names; msg_sender indexes them
    msg_sender: np.ndarray            # int64
    msg_seq: np.ndarray               # int64, per-sender sequence number
    msg_gen_s: np.ndarray             # generation instant
    msg_delivered: np.ndarray         # bool
    msg_latency_ms: np.ndarray        # valid where delivered
    msg_los: np.ndarray               # bool, LOS on the sender's first radio hop
    size_bytes: int = 190
    sent: int = field(init=False)
    delivered: int = field(init=False)
    pdr: float = field(init=False)
    latencies_ms: np.ndarray = field(init=False)   # delivered only, ascending

    def __post_init__(self) -> None:
        self.sent = int(self.msg_sender.size)
        self.delivered = int(np.count_nonzero(self.msg_delivered))
        self.pdr = self.delivered / self.sent if self.sent else 1.0
        self.latencies_ms = np.sort(self.msg_latency_ms[self.msg_delivered])

    def latency_percentile(self, q: float) -> float:
        if self.latencies_ms.size == 0:
            raise ParameterError("no delivered messages")
        return float(np.percentile(self.latencies_ms, q))


# static link requirements for command-and-control (C&C) and drone delivery
CC_LATENCY_BOUND_MS = 50.0
PDR_TARGET = 0.99
DRONE_DELIVERY_LATENCY_MS = 500.0


def check_requirements(stats: NetStats) -> list[str]:
    """One model's requirement lines: its p95 latency against the C&C and
    drone-delivery bounds (inf when nothing was delivered) and its PDR
    against the target."""
    if stats.sent == 0:
        raise ParameterError("stats are empty")
    p95 = stats.latency_percentile(95) if stats.latencies_ms.size else math.inf
    cc_ok = p95 <= CC_LATENCY_BOUND_MS
    pdr_ok = stats.pdr >= PDR_TARGET
    return [
        f"[{stats.model}] p95 latency {p95:.3f} ms "
        f"{'<=' if cc_ok else '>'} {CC_LATENCY_BOUND_MS:g} ms "
        f"C&C bound: {'pass' if cc_ok else 'FAIL'}",
        f"[{stats.model}] PDR {stats.pdr:.4f} "
        f"{'>=' if pdr_ok else '<'} {PDR_TARGET:g} target: "
        f"{'pass' if pdr_ok else 'FAIL'}",
        f"[{stats.model}] p95 latency vs {DRONE_DELIVERY_LATENCY_MS:g} ms "
        f"drone-delivery bound: "
        f"{'pass' if p95 <= DRONE_DELIVERY_LATENCY_MS else 'FAIL'}",
    ]


# ---------------------------------------------------------------------------
# link model


def _success_probs(cfg: ChannelConfig, a_xyz: np.ndarray, b_xyz: np.ndarray,
                   los: np.ndarray) -> np.ndarray:
    """Per segment: log-distance path loss pushed through a logistic
    reception curve; 1 for collocated endpoints."""
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
    Each MAC model supplies its schedule and collision rule (see MODELS),
    drawing from its own generator; the channel stage and the result columns
    are shared: LOS, success probability and the (sender, period) channel
    draw of every hop, hop h on channel stream h. A trace whose senders
    send no beacon takes the same path and gives empty columns.
    """
    if not trace.events:
        raise ParameterError("trace is empty")
    cfg.validate()
    spec = MODELS.get(getattr(mac, "name", None))
    if spec is None or not isinstance(mac, spec.params):
        raise ParameterError(f"unknown MAC model {mac!r}")
    windows = trace.airborne_windows()
    senders = sorted(windows)
    period_s = period_ms / 1000.0
    sched = spec.schedule(trace, scenario, mac, cfg, seed, generator(seed, spec.tag),
                          windows, senders, period_s)
    n_periods = _n_periods(trace, period_s)
    k = np.clip(sched.period, 0, n_periods - 1)
    los = [~los_blocked_many(scenario, a, b) for a, b in sched.hops]
    delivered = sched.ok
    for stream, (a, b), hop_los in zip((_STREAM_CHANNEL, _STREAM_CHANNEL2), sched.hops,
                                       los):
        u = _channel_uniforms(seed, stream, len(senders), n_periods)
        delivered = delivered & (u[sched.sidx, k] <= _success_probs(cfg, a, b, hop_los))
    return _collect(mac.name, senders, sched.sidx, sched.gen, delivered,
                    sched.latency_ms, los[0], size_bytes)


class _Schedule(NamedTuple):
    """What a MAC model decides for each beacon, before the channel."""
    gen: np.ndarray                  # generation instants
    sidx: np.ndarray                 # sender index
    period: np.ndarray               # CAM period of the channel draws (unclipped)
    hops: list[tuple[np.ndarray, np.ndarray]]   # (tx, rx) positions per radio hop
    ok: np.ndarray                   # survived medium access
    latency_ms: np.ndarray


def _interp_positions(trace: DeliveryTrace, vehicle: str, times: np.ndarray) -> np.ndarray:
    tr = trace.trajectories[vehicle]
    return np.column_stack([np.interp(times, tr.times, tr.x),
                            np.interp(times, tr.times, tr.y),
                            np.interp(times, tr.times, tr.z)])


def _sender_positions(trace: DeliveryTrace, senders, sidx: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    pos = np.empty((times.size, 3))
    for i, s in enumerate(senders):
        m = sidx == i
        pos[m] = _interp_positions(trace, s, times[m])
    return pos


def _track_at(track, t: float) -> tuple[float, float, float]:
    """np.interp(t, ts, c) for each coordinate c of a track (ts, xs, ys, zs)
    given as lists, bit for bit, with one bisect. For strictly increasing
    finite knots and j = bisect_right(ts, t) - 1 it is np.interp's own
    formula: c[0] before the first knot, c[j] at or after the last knot or
    on knot j, else ``((c[j+1] - c[j]) / (ts[j+1] - ts[j])) * (t - ts[j]) + c[j]``.
    """
    ts, xs, ys, zs = track
    j = bisect_right(ts, t) - 1
    if j < 0 or j >= len(ts) - 1 or ts[j] == t:
        j = max(j, 0)
        return xs[j], ys[j], zs[j]
    dt, w = ts[j + 1] - ts[j], t - ts[j]
    return (((xs[j + 1] - xs[j]) / dt) * w + xs[j], ((ys[j + 1] - ys[j]) / dt) * w + ys[j],
            ((zs[j + 1] - zs[j]) / dt) * w + zs[j])


def _in_range(a_xyz: np.ndarray, b_xyz: np.ndarray, cs2: float) -> np.ndarray:
    return np.sum((a_xyz - b_xyz) ** 2, axis=1) <= cs2


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


def _gen_period(times: np.ndarray, period_s: float) -> np.ndarray:
    return np.floor(times / period_s + 1e-12).astype(np.int64)


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
    """Beacons generated at each sender's phase: (gen, sidx, spos).

    gen holds the generation instants inside each sender's airborne windows,
    sidx the sender index of each, spos the sender position at that instant;
    all are ordered by (time, sender), and empty when no beacon is generated.
    """
    phases = _sender_phases(seed, len(senders), period_s)
    gen, sidx = [np.empty(0)], [np.empty(0, np.int64)]
    for i, s in enumerate(senders):
        ts = _phase_gen_times(windows[s], phases[i], period_s)
        gen.append(ts)
        sidx.append(np.full(ts.size, i, np.int64))
    gen = np.concatenate(gen)
    sidx = np.concatenate(sidx)
    order = np.lexsort((sidx, gen))
    gen, sidx = gen[order], sidx[order]
    return gen, sidx, _sender_positions(trace, senders, sidx, gen)


def _in_window(windows, t: float) -> bool:
    return any(lo <= t < hi for lo, hi in windows)


def _collect(model_name, senders, sidx, gen, delivered, latency_ms, los,
             size_bytes) -> NetStats:
    """Result columns in (generation time, sender) order, with per-sender
    sequence numbers."""
    order = np.lexsort((sidx, gen))
    sidx = sidx[order]
    counts = np.bincount(sidx, minlength=len(senders))
    seq = np.empty(sidx.size, np.int64)
    seq[np.argsort(sidx, kind="stable")] = (
        np.arange(sidx.size) - np.repeat(np.cumsum(counts) - counts, counts))
    return NetStats(model_name, senders, sidx, seq, gen[order], delivered[order],
                    latency_ms[order], los[order], size_bytes)


def _centralized_schedule(trace, scenario, mac: Centralized, cfg, seed, rng, windows,
                          senders, period_s) -> _Schedule:
    """Granted uplink: no contention; sender -> base station -> truck."""
    gen, sidx, spos = _phase_beacons(trace, windows, senders, seed, period_s)
    n = gen.size
    rxpos = _interp_positions(trace, "truck", gen)
    bs = scenario.base_station
    bspos = np.tile([bs.x, bs.y, bs.z], (n, 1))
    grant = rng.uniform(0.0, mac.grant_period_ms, n)
    latency = grant + 2.0 * mac.processing_ms + mac.backhaul_ms + 2.0 * mac.airtime_ms
    return _Schedule(gen, sidx, _gen_period(gen, period_s),
                     [(spos, bspos), (bspos, rxpos)], np.ones(n, bool), latency)


def _csma_schedule(trace, scenario, mac: Csma, cfg, seed, rng, windows, senders,
                   period_s) -> _Schedule:
    gen, sidx, spos = _phase_beacons(trace, windows, senders, seed, period_s)
    air_s = mac.airtime_ms * 1e-3
    cs2 = cfg.carrier_sense_m * cfg.carrier_sense_m  # inf where ** 2 raises OverflowError
    backoffs = rng.integers(0, mac.cw_slots + 1, gen.size)
    tx_start = _listen_before_talk(gen, spos, backoffs, mac.aifs_us * 1e-6,
                                   mac.slot_us * 1e-6, air_s, cs2)
    rxpos = _interp_positions(trace, "truck", tx_start)
    collided = _overlap_collisions(tx_start, air_s, _in_range(spos, rxpos, cs2))
    return _Schedule(gen, sidx, _gen_period(gen, period_s), [(spos, rxpos)],
                     ~collided, (tx_start + air_s - gen) * 1000.0)


def _listen_before_talk(gen: np.ndarray, spos: np.ndarray, backoffs: np.ndarray,
                        aifs_s: float, slot_s: float, air_s: float,
                        cs2: float) -> np.ndarray:
    """Transmission starts: AIFS plus backoff counted during idle air as
    sensed by the sender; busy intervals re-arm the AIFS and freeze the backoff.

    Beacons are committed in generation order. A transmission that ended at
    or before gen[i] cannot delay beacon i, because _defer skips every busy
    interval ending at or before its start time, gen[i]. So while nothing
    committed earlier is still on air at gen[i], the start is _defer's result
    on an idle channel: the same two float operations, done here up front.
    The other beacons scan back over transmissions ending within 0.25 s and
    defer behind those in carrier-sense range.
    """
    idle = (gen + aifs_s if aifs_s > 0.0 else gen) + backoffs * slot_s
    gen_l, idle_l, pos = gen.tolist(), idle.tolist(), spos.tolist()
    starts: list[float] = []
    ends: list[float] = []
    on_air_until = -math.inf
    for i, g in enumerate(gen_l):
        if on_air_until <= g:
            st = idle_l[i]
        else:
            x, y, z = pos[i]
            horizon = g - 0.25  # transmissions this old cannot interfere
            busy = []
            for j in range(i - 1, -1, -1):
                if ends[j] < horizon:
                    break
                xj, yj, zj = pos[j]
                dx, dy, dz = xj - x, yj - y, zj - z
                if dx * dx + dy * dy + dz * dz <= cs2:
                    busy.append((starts[j], ends[j]))
            busy.sort()
            st = _defer(g, aifs_s, float(backoffs[i]), slot_s, busy)
        en = st + air_s
        starts.append(st)
        ends.append(en)
        if en > on_air_until:
            on_air_until = en
    return np.array(starts, np.float64)


def _overlap_collisions(tx_start: np.ndarray, air_s: float,
                        in_rx_range: np.ndarray) -> np.ndarray:
    """Overlapping transmissions within carrier-sense range of the receiver
    are all lost.

    In start order (stable), transmission q overlaps an earlier p when
    p's end exceeds q's start. The airtime is constant, so ends are sorted
    too: the earlier overlapping ones are a run [lo, q) and the later ones a
    run (p, hi), both counted from a cumulative sum of the in-range flags.
    """
    n = tx_start.size
    order = np.argsort(tx_start, kind="stable")
    start = tx_start[order]
    end = start + air_s
    in_rx = in_rx_range[order]
    before = np.concatenate(([0], np.cumsum(in_rx)))  # in range among [0, i)
    pos = np.arange(n)
    # an empty run (lo > q or hi < p + 1) counts <= 0 since before is monotone
    lo = np.searchsorted(end, start, side="right")
    hi = np.searchsorted(start, end, side="left")
    hit = in_rx & ((before[pos] > before[lo]) | (before[hi] > before[pos + 1]))
    collided = np.empty(n, bool)
    collided[order] = hit
    return collided


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


def _sps_schedule(trace, scenario, mac: Sps, cfg, seed, rng, windows, senders,
                  period_s) -> _Schedule:
    """Slot choices and lifetimes draw from one stream in (period, phase,
    sender) order, which fixes every slot. The loop keeps that order but
    visits only the periods where something is decided: where a sender's
    airborne flag flips (it holds a slot exactly while the flag is set),
    where a holder's keep expires, and where a holder's slot instant may
    fall outside its windows. In every other period each holder emits on
    an unchanged slot, so those beacons are recorded as runs.
    """
    if abs(mac.n_slots * mac.slot_ms - period_s * 1000.0) > 1e-9:
        raise ParameterError("Sps slot grid must span exactly one CAM period")
    n_senders = len(senders)
    slot_s = mac.slot_ms / 1000.0
    cs2 = cfg.carrier_sense_m * cfg.carrier_sense_m  # inf where ** 2 raises OverflowError
    # per sender: its track's knots and coordinates as lists, for _track_at
    tracks = [(tr.times.tolist(), tr.x.tolist(), tr.y.tolist(), tr.z.tolist())
              for tr in (trace.trajectories[s] for s in senders)]
    wins = [windows[s] for s in senders]

    # airborne[k, si]: sender si is airborne at the start of period k. In a
    # sure period the first and last slot instants lie in one window, and
    # then so does every slot's: t + x * slot_s is monotone in x.
    n_periods = _n_periods(trace, period_s)
    t_period = np.arange(n_periods) * period_s
    t_last = t_period + (mac.n_slots - 1) * slot_s
    airborne = np.zeros((n_periods, n_senders), bool)
    sure = np.zeros((n_periods, n_senders), bool)
    for si, ws in enumerate(wins):
        for lo, hi in ws:
            inside = (lo <= t_period) & (t_period < hi)
            airborne[:, si] |= inside
            sure[:, si] |= inside & (lo <= t_last) & (t_last < hi)
    flips, unsure = {}, {}
    for events, mask in ((flips, np.diff(airborne, axis=0, prepend=False)),
                         (unsure, airborne & ~sure)):
        for k, si in zip(*(ix.tolist() for ix in np.nonzero(mask))):
            events.setdefault(k, []).append(si)  # in sender order
    visits = sorted(flips.keys() | unsure.keys()) + [n_periods]
    t_period_l = t_period.tolist()

    slot = [-1] * n_senders
    due = [n_periods] * n_senders     # the period of a holder's keep expiry
    first = [0] * n_senders           # the first period of a holder's open run
    runs = []                         # (sender, slot, first period, end period)

    def select_slot(si, t):
        """A slot that no other holder within carrier-sense range of sender
        si holds at t; any slot when all are held. The squared distance
        dx * dx + dy * dy + dz * dz adds in np.sum's order over three terms."""
        x, y, z = _track_at(tracks[si], t)
        occupied = set()
        for sj, sl in enumerate(slot):
            if sl < 0 or sj == si:
                continue
            xj, yj, zj = _track_at(tracks[sj], t)
            dx, dy, dz = xj - x, yj - y, zj - z
            if dx * dx + dy * dy + dz * dz <= cs2:
                occupied.add(sl)
        n_free = mac.n_slots - len(occupied)
        r = int(rng.integers(0, n_free or mac.n_slots))
        if n_free:
            for sl in sorted(occupied):  # r becomes the r-th free slot
                if sl > r:
                    break
                r += 1
        return r

    def keep():
        return max(int(rng.integers(mac.keep_min, mac.keep_max + 1)), 1)

    i = 0
    while (k := min([visits[i], *due])) < n_periods:
        if visits[i] == k:
            i += 1
        t_p = t_period_l[k]
        for si in flips.get(k, ()):
            if slot[si] < 0:
                slot[si], due[si], first[si] = select_slot(si, t_p), k + keep() - 1, k
            else:  # landed: reservation released
                runs.append((si, slot[si], first[si], k))
                slot[si], due[si] = -1, n_periods
        check = unsure.get(k, ())
        for si, sl in enumerate(slot):
            if sl < 0 or (due[si] != k and si not in check):
                continue
            t_tx = t_p + sl * slot_s
            if si in check and not _in_window(wins[si], t_tx):
                runs.append((si, sl, first[si], k))
                first[si] = k + 1
                due[si] += 1  # keep counts only the periods it emits in
            elif due[si] == k:
                if rng.random() < mac.reselect_prob:
                    slot[si] = select_slot(si, t_tx)
                due[si] = k + keep()
                if slot[si] != sl:
                    runs.append((si, sl, first[si], k + 1))
                    first[si] = k + 1
    runs += [(si, sl, first[si], n_periods) for si, sl in enumerate(slot) if sl >= 0]

    run_sidx, run_slot, run_first, run_end = np.array(runs, np.int64).reshape(-1, 4).T
    length = run_end - run_first
    n = int(length.sum())
    sidx = np.repeat(run_sidx, length)
    msg_slot = np.repeat(run_slot, length)
    period = np.repeat(run_first - (np.cumsum(length) - length), length) + np.arange(n)
    gen = t_period[period] + msg_slot * slot_s
    spos = _sender_positions(trace, senders, sidx, gen)
    rxpos = _interp_positions(trace, "truck", gen)
    in_rx = _in_range(spos, rxpos, cs2)

    # two or more in-range senders on one (period, slot) all lose the message
    key = (period * mac.n_slots + msg_slot)[in_rx]
    _, group, size = np.unique(key, return_inverse=True, return_counts=True)
    collided = np.zeros(gen.size, bool)
    collided[in_rx] = size[group] >= 2
    return _Schedule(gen, sidx, period, [(spos, rxpos)], ~collided,
                     np.full(gen.size, mac.airtime_ms))


# ---------------------------------------------------------------------------
# model table


class _ModelSpec(NamedTuple):
    params: type                     # the model's parameter dataclass
    tag: int                         # its random stream, in a run and in model_seed
    schedule: Callable[..., _Schedule]   # called by run_cam_traffic


# The one list of MAC models: every lookup by name, each model's random
# stream and its dispatch read this table. Keys equal each class's ``name``.
MODELS = {
    "centralized": _ModelSpec(Centralized, 0, _centralized_schedule),
    "csma": _ModelSpec(Csma, 1, _csma_schedule),
    "sps": _ModelSpec(Sps, 2, _sps_schedule),
}


def default_models() -> list[MacModel]:
    return [spec.params() for spec in MODELS.values()]


def model_seed(seed: int, name: str) -> int:
    """The seed that a run seeded ``seed`` gives model ``name``'s
    run_cam_traffic in evaluate_links."""
    return mix(seed, 3, MODELS[name].tag)


def check_model_names(names) -> None:
    for name in names:
        if name not in MODELS:
            raise ConfigError(f"unknown net model {name!r}")
    if len(set(names)) < len(names):
        raise ConfigError(f"net models must not repeat a name, got {names}")


# ---------------------------------------------------------------------------
# CSV outputs


NET_SUMMARY_COLUMNS = ["model", "sent", "delivered", "pdr", "lat_p50_ms", "lat_p95_ms"]


def write_net_results_csv(stats_list: list[NetStats], path) -> None:
    def rows(st: NetStats):
        # tolist() yields Python floats, which csv writes as their repr()
        delivered = st.msg_delivered.tolist()
        latency = [x if d else "" for x, d in zip(st.msg_latency_ms.tolist(), delivered)]
        return zip(repeat(st.model), [st.senders[i] for i in st.msg_sender.tolist()],
                   st.msg_seq.tolist(), st.msg_gen_s.tolist(),
                   st.msg_delivered.view(np.uint8).tolist(), latency,
                   st.msg_los.view(np.uint8).tolist())
    fields.write_csv(path, ["model", "sender", "seq", "gen_time_s", "delivered", "latency_ms",
                            "los"], chain.from_iterable(map(rows, stats_list)))


def write_net_summary_csv(stats_list: list[NetStats], path) -> None:
    def row(st: NetStats) -> list:
        # the latency cells are empty when no beacon arrived
        has = st.latencies_ms.size > 0
        return [st.model, st.sent, st.delivered, st.pdr,
                st.latency_percentile(50) if has else "", st.latency_percentile(95) if has else ""]
    fields.write_csv(path, NET_SUMMARY_COLUMNS, map(row, stats_list))


# ---------------------------------------------------------------------------
# driver


def evaluate_links(trace: DeliveryTrace, scenario: Scenario, names: list[str],
                   channel: ChannelConfig, seed: int, out_dir: str) -> list[str]:
    """Run each named model over the trace with its model_seed, write
    net_results.csv and net_summary.csv into out_dir and return the
    requirement lines. Every name is checked, and at least one is required,
    before any model runs or any file is written. The sweep's net phase and
    `hybridfleet netsim` call it.
    """
    if not names:
        raise ConfigError("need at least one net model")
    check_model_names(names)
    stats_list = []
    lines = []
    for name in names:
        stats = run_cam_traffic(trace, scenario, MODELS[name].params(), channel,
                                seed=model_seed(seed, name))
        stats_list.append(stats)
        if stats.sent:
            lines.extend(check_requirements(stats))
        else:
            lines.append(f"[{name}] no CAM traffic in the trace")
    os.makedirs(out_dir, exist_ok=True)
    write_net_results_csv(stats_list, os.path.join(out_dir, "net_results.csv"))
    write_net_summary_csv(stats_list, os.path.join(out_dir, "net_summary.csv"))
    return lines
