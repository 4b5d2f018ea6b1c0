import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridfleet import experiment
from hybridfleet import netmodel as nm
from hybridfleet.errors import ConfigError, ParameterError
from hybridfleet.hybrid import FleetConfig, plan_hybrid
from hybridfleet.netmodel import (Centralized, ChannelConfig, Csma,
                                  NetStats, Sps,
                                  check_requirements, run_cam_traffic,
                                  write_net_results_csv, write_net_summary_csv)
from hybridfleet.rng import generator
from hybridfleet.scenario import los_blocked_many
from hybridfleet.simcore import (KIND_DRONE_LAUNCH, KIND_DRONE_RENDEZVOUS, KIND_TOUR_COMPLETE,
                                 DeliveryTrace, SimEvent, Trajectory, simulate)

from conftest import fly, job_at, line_scenario, line_timetable, random_world, sortie_plan

IDEAL = ChannelConfig(loss_threshold_db=math.inf)


def make_trace(n_drones=1, service=30.0, n_nodes=25, stagger=0.0):
    """Line-road trace with one long sortie per drone."""
    sc = line_scenario(n_nodes, 100.0, 10.0)
    fleet = FleetConfig(drone_count=n_drones, truck_speed=10.0, drone_speed=20.0,
                        drone_service=service, drone_endurance=1e9)
    tt = line_timetable(sc, truck_speed=10.0)
    sorties = []
    for d in range(n_drones):
        _, s = fly(sc, tt, d * int(stagger) if stagger else 0,
                   job_at(0.0, 300.0 + 40.0 * d, job_id=d), fleet, drone_id=d)
        sorties.append(s)
    plan = sortie_plan(sc, tt, sorties, fleet)
    return sc, simulate(sc, plan, fleet)


def link_p(cfg, a, b, los):
    """The link model's success probability for the one segment a-b."""
    return float(nm._success_probs(cfg, np.array([a], np.float64), np.array([b], np.float64),
                                   np.array([los]))[0])


def test_link_probability_close_range():
    cfg = ChannelConfig()
    p = link_p(cfg, (0, 0, 0), (1, 0, 0), los=True)
    assert p > 0.999


def test_link_probability_logistic_midpoint():
    cfg = ChannelConfig(ref_loss_db=47.0, loss_threshold_db=47.0)
    p = link_p(cfg, (0, 0, 0), (1, 0, 0), los=True)
    assert p == pytest.approx(0.5)


def test_link_probability_nlos_never_better():
    cfg = ChannelConfig()
    for d in (5.0, 50.0, 200.0, 600.0):
        los = link_p(cfg, (0, 0, 0), (d, 0, 0), True)
        nlos = link_p(cfg, (0, 0, 0), (d, 0, 0), False)
        assert nlos <= los


def test_link_probability_collocated():
    assert link_p(ChannelConfig(), (1, 2, 3), (1, 2, 3), False) == 1.0


def test_channel_config_validation():
    with pytest.raises(ParameterError):
        ChannelConfig(pl_exp_los=3.0, pl_exp_nlos=2.0).validate()


def test_sps_ideal_single_drone_pdr_one_latency_airtime():
    sc, trace = make_trace(1)
    stats = run_cam_traffic(trace, sc, Sps(), IDEAL, seed=5)
    assert stats.sent > 0
    assert stats.pdr == 1.0
    assert np.all(stats.latencies_ms == 1.0)


def test_centralized_zero_grant_constant_latency():
    sc, trace = make_trace(1)
    mac = Centralized(grant_period_ms=0.0)
    stats = run_cam_traffic(trace, sc, mac, IDEAL, seed=5)
    # 2 x processing (4 ms) + backhaul (10 ms) = 18 ms, plus two hops' airtime
    assert np.all(stats.latencies_ms == pytest.approx(18.0 + 2 * mac.airtime_ms))
    assert stats.pdr == 1.0


def test_sps_shared_slot_collision():
    sc, trace = make_trace(2)  # both drones airborne from t = 0
    mac = Sps(n_slots=1, slot_ms=100.0)
    stats = run_cam_traffic(trace, sc, mac, IDEAL, seed=5)
    assert stats.pdr < 1.0  # both hold slot 0 and collide while both airborne


def test_csma_single_sender_latency_formula():
    sc, trace = make_trace(1)
    mac = Csma()
    stats = run_cam_traffic(trace, sc, mac, IDEAL, seed=5)
    assert stats.pdr == 1.0
    # AIFS + backoff*slot + airtime, backoff in {0..15}
    allowed = np.array([0.058 + k * 0.013 + 0.5 for k in range(16)])
    for lat in stats.latencies_ms:
        assert np.min(np.abs(allowed - lat)) < 1e-9
    lo = 0.058 + 0.5
    hi = 0.058 + 15 * 0.013 + 0.5
    assert lo <= stats.latencies_ms.mean() <= hi


def test_no_contention_latency_orderings():
    sc, trace = make_trace(1)
    csma = run_cam_traffic(trace, sc, Csma(), IDEAL, seed=5)
    cent = run_cam_traffic(trace, sc, Centralized(), IDEAL, seed=5)
    sps = run_cam_traffic(trace, sc, Sps(), IDEAL, seed=5)
    assert csma.latencies_ms.max() < cent.latencies_ms.min()
    assert np.all(sps.latencies_ms == Sps().airtime_ms)


def test_latency_at_least_airtime():
    sc, trace = make_trace(2)
    for mac in (Centralized(), Csma(), Sps()):
        stats = run_cam_traffic(trace, sc, mac, ChannelConfig(), seed=9)
        if stats.latencies_ms.size:
            assert stats.latencies_ms.min() >= mac.airtime_ms - 1e-12


def test_pathloss_exponent_monotonicity():
    sc, trace = make_trace(2)
    pdrs = []
    for nlos_exp in (3.2, 3.6, 4.0):
        cfg = ChannelConfig(pl_exp_nlos=nlos_exp)
        pdrs.append(run_cam_traffic(trace, sc, Csma(), cfg, seed=11).pdr)
    assert pdrs[0] >= pdrs[1] >= pdrs[2]


def test_determinism_per_seed():
    sc, trace = make_trace(2)
    a = run_cam_traffic(trace, sc, Sps(), ChannelConfig(), seed=21)
    b = run_cam_traffic(trace, sc, Sps(), ChannelConfig(), seed=21)
    assert _columns(a) == _columns(b)
    c = run_cam_traffic(trace, sc, Sps(), ChannelConfig(), seed=22)
    assert _columns(a) != _columns(c)


def test_pdr_bounds_and_counts():
    sc, trace = make_trace(3)
    for mac in (Centralized(), Csma(), Sps()):
        stats = run_cam_traffic(trace, sc, mac, ChannelConfig(), seed=2)
        assert 0.0 <= stats.pdr <= 1.0
        assert stats.delivered == int(np.count_nonzero(stats.msg_delivered))
        assert stats.sent == len(stats.msg_sender)


def test_sps_slot_grid_must_span_period():
    sc, trace = make_trace(1)
    with pytest.raises(ParameterError):
        run_cam_traffic(trace, sc, Sps(n_slots=50), ChannelConfig(), seed=1)


def test_empty_trace_rejected():
    with pytest.raises(ParameterError):
        run_cam_traffic(DeliveryTrace([], {}, {}), None, Sps())


def test_truck_only_trace_has_no_senders():
    from hybridfleet.hybrid import FleetConfig, plan_hybrid
    from hybridfleet.jobs import DeliverySet
    sc = line_scenario(5, 100.0, 10.0)
    fleet = FleetConfig(drone_count=0, truck_speed=10.0)
    plan = plan_hybrid(sc, DeliverySet(0, [job_at(300.0, 0.0, 0)]), fleet, False)
    trace = simulate(sc, plan, fleet)
    for mac in (Centralized(), Csma(), Sps()):
        stats = run_cam_traffic(trace, sc, mac, ChannelConfig(), seed=1)
        assert stats.sent == 0
        assert stats.pdr == 1.0
        assert stats.latencies_ms.size == 0


def _columns(stats):
    return [stats.senders] + [col.tolist() for col in (
        stats.msg_sender, stats.msg_seq, stats.msg_gen_s, stats.msg_delivered,
        stats.msg_latency_ms, stats.msg_los)]


def _stats(latencies, pdr):
    """One sender whose first len(latencies) beacons of sent are delivered."""
    lat = np.asarray(latencies, float)
    n_del = max(len(lat), 1)
    sent = int(n_del / pdr) if pdr else n_del
    latency = np.ones(sent)
    latency[:len(lat)] = lat
    return NetStats("test", ["d"], np.zeros(sent, np.int64), np.arange(sent),
                    np.arange(sent) * 0.1, np.arange(sent) < n_del, latency,
                    np.ones(sent, bool))


def _verdicts(stats):
    """(C&C latency ok, PDR ok, drone-delivery latency ok) from the stats'
    requirement lines."""
    return tuple(line.endswith(": pass") for line in check_requirements(stats))


def test_check_requirements_all_pass():
    cc_latency_ok, pdr_ok, drone_delivery_latency_ok = _verdicts(_stats([1.0] * 100, 1.0))
    assert cc_latency_ok and pdr_ok and drone_delivery_latency_ok


def test_check_requirements_pdr_fails():
    cc_latency_ok, pdr_ok, _ = _verdicts(_stats([1.0] * 100, 0.95))
    assert not pdr_ok
    assert cc_latency_ok


def test_check_requirements_latency_tiers():
    cc_latency_ok, _, drone_delivery_latency_ok = _verdicts(_stats([60.0] * 100, 1.0))
    assert not cc_latency_ok          # 60 ms > 50 ms
    assert drone_delivery_latency_ok  # 60 ms <= 500 ms


def test_check_requirements_when_every_beacon_is_lost():
    n = 10
    stats = NetStats("test", ["d"], np.zeros(n, np.int64), np.arange(n), np.arange(n) * 0.1,
                     np.zeros(n, bool), np.ones(n), np.ones(n, bool))
    assert (stats.sent, stats.delivered) == (10, 0)
    assert check_requirements(stats) == [
        "[test] p95 latency inf ms > 50 ms C&C bound: FAIL",
        "[test] PDR 0.0000 < 0.99 target: FAIL",
        "[test] p95 latency vs 500 ms drone-delivery bound: FAIL",
    ]


def test_check_requirements_pass_at_the_bounds():
    stats = _stats([50.0] * 99, 0.99)
    assert (stats.sent, stats.delivered) == (100, 99)
    assert stats.latency_percentile(95) == nm.CC_LATENCY_BOUND_MS
    assert stats.pdr == nm.PDR_TARGET
    assert check_requirements(stats) == [
        "[test] p95 latency 50.000 ms <= 50 ms C&C bound: pass",
        "[test] PDR 0.9900 >= 0.99 target: pass",
        "[test] p95 latency vs 500 ms drone-delivery bound: pass",
    ]


def test_requirement_lines_print_the_bounds_they_were_checked_against():
    stats = _stats([60.0] * 9, 0.9)
    assert (stats.sent, stats.delivered) == (10, 9)
    # the bounds keep the wording of every earlier manifest
    assert check_requirements(stats) == [
        "[test] p95 latency 60.000 ms > 50 ms C&C bound: FAIL",
        "[test] PDR 0.9000 < 0.99 target: FAIL",
        "[test] p95 latency vs 500 ms drone-delivery bound: pass",
    ]


def test_model_table_names_each_model_once():
    assert [m.name for m in nm.default_models()] == list(nm.MODELS)
    assert [type(m) for m in nm.default_models()] == [Centralized, Csma, Sps]
    assert sorted(spec.tag for spec in nm.MODELS.values()) == [0, 1, 2]


def test_unknown_mac_model_rejected():
    @dataclass
    class Aloha:
        name: str = "aloha"

    sc, trace = make_trace(1)
    for mac in (Aloha(), Aloha(name="csma")):
        with pytest.raises(ParameterError, match="unknown MAC model"):
            run_cam_traffic(trace, sc, mac, ChannelConfig(), seed=1)


def test_evaluate_links_checks_every_name_before_any_run(tmp_path, monkeypatch):
    sc, trace = make_trace(1)
    ran = []
    monkeypatch.setattr(nm, "run_cam_traffic", lambda *args, **kw: ran.append(args))
    with pytest.raises(ConfigError, match="unknown net model 'bogus'"):
        nm.evaluate_links(trace, sc, ["csma", "bogus"], ChannelConfig(), 1, tmp_path)
    assert ran == []
    assert list(tmp_path.iterdir()) == []


def test_requirements_profile_constants():
    assert nm.CC_LATENCY_BOUND_MS == 50.0
    assert nm.PDR_TARGET == 0.99
    assert nm.DRONE_DELIVERY_LATENCY_MS == 500.0


def test_csv_outputs(tmp_path):
    sc, trace = make_trace(2)
    stats = [run_cam_traffic(trace, sc, mac, ChannelConfig(), seed=3)
             for mac in (Centralized(), Csma(), Sps())]
    rp = tmp_path / "net_results.csv"
    sp = tmp_path / "net_summary.csv"
    write_net_results_csv(stats, rp)
    write_net_summary_csv(stats, sp)
    lines = rp.read_text().splitlines()
    assert lines[0] == "model,sender,seq,gen_time_s,delivered,latency_ms,los"
    assert len(lines) == 1 + sum(s.sent for s in stats)
    sl = sp.read_text().splitlines()
    assert sl[0] == "model,sent,delivered,pdr,lat_p50_ms,lat_p95_ms"
    assert len(sl) == 4


# ---------------------------------------------------------------------------
# Differential tests: the per-beacon loops below are the previous
# implementation (listen-before-talk and open-transmission collision loops,
# the SPS period loop, CamMessage records and their CSV writer), kept as the
# oracle for the columnar pipeline. Columns and CSV bytes must be equal.


@dataclass(frozen=True)
class _Msg:
    seq: int
    sender: str
    generated_at: float
    size: int
    delivered: bool
    latency_ms: float
    los: bool


def _oracle_period_index(times, period_s, n_periods):
    k = np.floor(times / period_s + 1e-12).astype(np.int64)
    return np.clip(k, 0, n_periods - 1)


def _oracle_collect(senders, sidx, gen, delivered, latency_ms, los, size_bytes):
    order = np.lexsort((sidx, gen))
    messages = []
    seq_per = {s: 0 for s in senders}
    for i in order.tolist():
        s = senders[sidx[i]]
        messages.append(_Msg(seq_per[s], s, float(gen[i]), size_bytes,
                             bool(delivered[i]), float(latency_ms[i]), bool(los[i])))
        seq_per[s] += 1
    return messages


def _oracle_centralized(trace, scenario, mac, cfg, period_s, seed, windows, senders):
    rng = generator(seed, nm.MODELS["centralized"].tag)
    beacons = nm._phase_beacons(trace, windows, senders, seed, period_s)
    if beacons is None:
        return []
    gen, sidx, spos = beacons
    n = gen.size
    rxpos = nm._interp_positions(trace, "truck", gen)
    bs = scenario.base_station
    bspos = np.tile([bs.x, bs.y, bs.z], (n, 1))
    los1 = ~los_blocked_many(scenario, spos, bspos)
    los2 = ~los_blocked_many(scenario, bspos, rxpos)
    p1 = nm._success_probs(cfg, spos, bspos, los1)
    p2 = nm._success_probs(cfg, bspos, rxpos, los2)
    n_periods = nm._n_periods(trace, period_s)
    u1 = nm._channel_uniforms(seed, nm._STREAM_CHANNEL, len(senders), n_periods)
    u2 = nm._channel_uniforms(seed, nm._STREAM_CHANNEL2, len(senders), n_periods)
    k = _oracle_period_index(gen, period_s, n_periods)
    grant = rng.uniform(0.0, mac.grant_period_ms, n)
    delivered = (u1[sidx, k] <= p1) & (u2[sidx, k] <= p2)
    latency = grant + 2.0 * mac.processing_ms + mac.backhaul_ms + 2.0 * mac.airtime_ms
    return sidx, gen, delivered, latency, los1


def _oracle_csma(trace, scenario, mac, cfg, period_s, seed, windows, senders):
    rng = generator(seed, nm.MODELS["csma"].tag)
    slot_s = mac.slot_us * 1e-6
    aifs_s = mac.aifs_us * 1e-6
    air_s = mac.airtime_ms * 1e-3
    beacons = nm._phase_beacons(trace, windows, senders, seed, period_s)
    if beacons is None:
        return []
    gen, sidx, spos = beacons
    n = gen.size
    backoffs = rng.integers(0, mac.cw_slots + 1, n)
    tx_start = np.empty(n)
    committed = []
    cs2 = cfg.carrier_sense_m ** 2
    for i in range(n):
        busy = []
        for k in range(len(committed) - 1, -1, -1):
            st_, en, j = committed[k]
            if en < gen[i] - 0.25:
                break
            dx = spos[j, 0] - spos[i, 0]
            dy = spos[j, 1] - spos[i, 1]
            dz = spos[j, 2] - spos[i, 2]
            if dx * dx + dy * dy + dz * dz <= cs2:
                busy.append((st_, en))
        busy.sort()
        tx_start[i] = nm._defer(gen[i], aifs_s, float(backoffs[i]), slot_s, busy)
        committed.append((tx_start[i], tx_start[i] + air_s, i))
    rxpos = nm._interp_positions(trace, "truck", tx_start)
    in_rx_range = (np.sum((spos - rxpos) ** 2, axis=1) <= cs2)
    collided = np.zeros(n, bool)
    open_tx = []
    for i in np.argsort(tx_start, kind="stable").tolist():
        open_tx = [j for j in open_tx if tx_start[j] + air_s > tx_start[i]]
        for j in open_tx:
            if in_rx_range[i] and in_rx_range[j]:
                collided[i] = True
                collided[j] = True
        open_tx.append(i)
    los = ~los_blocked_many(scenario, spos, rxpos)
    p = nm._success_probs(cfg, spos, rxpos, los)
    n_periods = nm._n_periods(trace, period_s)
    u = nm._channel_uniforms(seed, nm._STREAM_CHANNEL, len(senders), n_periods)
    k = _oracle_period_index(gen, period_s, n_periods)
    delivered = (~collided) & (u[sidx, k] <= p)
    return sidx, gen, delivered, (tx_start + air_s - gen) * 1000.0, los


def _oracle_sps(trace, scenario, mac, cfg, period_s, seed, windows, senders):
    rng = generator(seed, nm.MODELS["sps"].tag)
    slot_s = mac.slot_ms / 1000.0
    n_senders = len(senders)
    if n_senders == 0:
        return []
    cs2 = cfg.carrier_sense_m ** 2
    slot = [-1] * n_senders
    keep = [0] * n_senders

    def select_slot(si, t):
        pos = [nm._interp_positions(trace, s, np.array([t]))[0] for s in senders]
        occupied = set()
        for sj in range(n_senders):
            if sj != si and slot[sj] >= 0:
                if float(np.sum((pos[sj] - pos[si]) ** 2)) <= cs2:
                    occupied.add(slot[sj])
        free = [sl for sl in range(mac.n_slots) if sl not in occupied]
        if not free:
            free = list(range(mac.n_slots))
        return free[int(rng.integers(0, len(free)))]

    msg_t, msg_sidx, msg_slot, msg_period = [], [], [], []
    for k in range(int(math.ceil(trace.end_time / period_s)) + 1):
        t_p = k * period_s
        for si, s in enumerate(senders):
            airborne = nm._in_window(windows[s], t_p)
            if slot[si] < 0:
                if airborne:
                    slot[si] = select_slot(si, t_p)
                    keep[si] = int(rng.integers(mac.keep_min, mac.keep_max + 1))
            elif not airborne:
                slot[si] = -1
        for si, s in enumerate(senders):
            if slot[si] < 0:
                continue
            t_tx = t_p + slot[si] * slot_s
            if not nm._in_window(windows[s], t_tx):
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
        return []
    gen = np.array(msg_t)
    sidx = np.array(msg_sidx, np.int64)
    n = gen.size
    spos = np.empty((n, 3))
    for i, s in enumerate(senders):
        m = sidx == i
        if np.any(m):
            spos[m] = nm._interp_positions(trace, s, gen[m])
    rxpos = nm._interp_positions(trace, "truck", gen)
    in_rx_range = (np.sum((spos - rxpos) ** 2, axis=1) <= cs2)
    collided = np.zeros(n, bool)
    groups = {}
    for i in range(n):
        groups.setdefault((msg_period[i], msg_slot[i]), []).append(i)
    for members in groups.values():
        in_range = [i for i in members if in_rx_range[i]]
        if len(in_range) >= 2:
            for i in in_range:
                collided[i] = True
    los = ~los_blocked_many(scenario, spos, rxpos)
    p = nm._success_probs(cfg, spos, rxpos, los)
    n_periods = nm._n_periods(trace, period_s)
    u = nm._channel_uniforms(seed, nm._STREAM_CHANNEL, len(senders), n_periods)
    k = np.clip(np.array(msg_period, np.int64), 0, n_periods - 1)
    delivered = (~collided) & (u[sidx, k] <= p)
    return sidx, gen, delivered, np.full(n, mac.airtime_ms), los


_ORACLES = {"centralized": _oracle_centralized, "csma": _oracle_csma, "sps": _oracle_sps}


def _oracle_run(trace, scenario, mac, cfg, period_ms, seed):
    """The messages of the previous per-beacon implementation."""
    windows = trace.airborne_windows()
    senders = sorted(windows)
    out = _ORACLES[mac.name](trace, scenario, mac, cfg, period_ms / 1000.0, seed,
                             windows, senders)
    if not out:
        return []
    return _oracle_collect(senders, *out, 190)


def _oracle_results_csv(model, messages, path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "sender", "seq", "gen_time_s", "delivered",
                    "latency_ms", "los"])
        for m in messages:
            w.writerow([model, m.sender, m.seq, repr(m.generated_at), int(m.delivered),
                        repr(m.latency_ms) if m.delivered else "", int(m.los)])


def _assert_matches_oracle(trace, sc, mac, cfg, period_ms, seed, tmp_path):
    stats = run_cam_traffic(trace, sc, mac, cfg, period_ms, 190, seed)
    messages = _oracle_run(trace, sc, mac, cfg, period_ms, seed)
    want = [[m.sender for m in messages], [m.seq for m in messages],
            [m.generated_at for m in messages], [m.delivered for m in messages],
            [m.latency_ms for m in messages], [m.los for m in messages]]
    got = [[stats.senders[i] for i in stats.msg_sender.tolist()]] + [
        col.tolist() for col in (stats.msg_seq, stats.msg_gen_s, stats.msg_delivered,
                                 stats.msg_latency_ms, stats.msg_los)]
    assert got == want
    assert stats.sent == len(messages)
    assert stats.delivered == sum(m.delivered for m in messages)
    assert stats.latencies_ms.tolist() == sorted(m.latency_ms for m in messages
                                                 if m.delivered)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_net_results_csv([stats], new)
    _oracle_results_csv(mac.name, messages, old)
    assert new.read_bytes() == old.read_bytes()
    return stats


_csma_macs = st.builds(
    Csma, slot_us=st.sampled_from([9.0, 13.0, 20.0]),
    aifs_us=st.sampled_from([-20.0, 0.0, 34.0, 58.0]), cw_slots=st.integers(0, 15),
    airtime_ms=st.sampled_from([0.5, 2.0, 20.0, 40.0]))
_sps_macs = st.builds(
    lambda n_slots, keep_min, spread, reselect_prob: Sps(
        n_slots=n_slots, slot_ms=100.0 / n_slots, keep_min=keep_min,
        keep_max=keep_min + spread, reselect_prob=reselect_prob),
    st.sampled_from([1, 2, 4, 10, 100]), st.integers(0, 5), st.integers(0, 10),
    st.sampled_from([0.0, 0.5, 1.0]))
_centralized_macs = st.builds(Centralized, grant_period_ms=st.sampled_from([0.0, 10.0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 4), st.integers(0, 2),
       st.sampled_from([5.0, 20.0]), st.one_of(_csma_macs, _sps_macs, _centralized_macs),
       st.sampled_from([200.0, 450.0, 800.0]))
def test_columns_match_per_beacon_oracle(tmp_path_factory, seed, n_drones, stagger,
                                         service, mac, carrier_sense_m):
    sc, trace = make_trace(n_drones, service=service, stagger=stagger)
    cfg = ChannelConfig(carrier_sense_m=carrier_sense_m)
    _assert_matches_oracle(trace, sc, mac, cfg, 100.0, seed, tmp_path_factory.mktemp("o"))


@pytest.mark.parametrize("n_drones,airtime_ms,cw_slots", [(6, 40.0, 1), (4, 60.0, 0)])
@pytest.mark.parametrize("seed", [1, 2])
def test_saturated_csma_matches_oracle(tmp_path, n_drones, airtime_ms, cw_slots, seed):
    """Offered load above the channel's capacity: deferrals outgrow the 0.25 s
    look-back, and with cw_slots=0 deferred beacons start at equal instants."""
    sc, trace = make_trace(n_drones, service=5.0, stagger=1)
    stats = _assert_matches_oracle(trace, sc, Csma(cw_slots=cw_slots, airtime_ms=airtime_ms),
                                   ChannelConfig(), 100.0, seed, tmp_path)
    delay_s = (stats.msg_latency_ms - airtime_ms) / 1000.0
    assert delay_s.max() > 0.25
    start = stats.msg_gen_s + delay_s
    assert np.unique(start).size < start.size


@pytest.mark.parametrize("case", [0, 3, 5, 8])
def test_planned_worlds_match_oracle(tmp_path, case):
    """Traces planned on grid worlds with buildings, so LOS varies."""
    sc, dset, fleet, prioritize = random_world(case, max_drones=4)
    fleet.drone_count = max(fleet.drone_count, 2)
    plan = plan_hybrid(sc, dset, fleet, prioritize)
    trace = simulate(sc, plan, fleet)
    for mac in (Centralized(), Csma(), Csma(airtime_ms=20.0, cw_slots=2), Sps()):
        stats = _assert_matches_oracle(trace, sc, mac, ChannelConfig(), 100.0, case,
                                       tmp_path)
        assert stats.sent > 0


@pytest.fixture(scope="module")
def dense_pool():
    """netsim-dense's pool (10x10 grid, 9 jobs of which 3 medical, 8 drones,
    priority on, base seed 7): the world and its four traces, planned as its
    set-up plans them."""
    cfg = experiment.ExperimentConfig(grid_rows=10, grid_cols=10, n_sets=4, per_set=9,
                                      medical_per_set=3, drone_counts=[8], base_seed=7,
                                      workers=1)
    cfg.validate()
    sc = experiment.build_scenario(cfg)
    return sc, [experiment.run_one(cfg, sc, dset, 8, True)[1]
                for dset in experiment.build_sets(cfg, sc)]


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("instance,n_senders", [(0, 8), (1, 7), (2, 8), (3, 7)])
def test_dense_sps_matches_oracle(tmp_path, dense_pool, instance, n_senders, seed):
    """Each of netsim-dense's pool traces (its instance i runs trace i mod 4):
    slot selections weigh up to seven holders, each placed by the scalar
    evaluator, against the oracle's np.interp positions."""
    sc, traces = dense_pool
    trace = traces[instance]
    windows = trace.airborne_windows()
    assert len(windows) == n_senders
    # all airborne at once, so a selection can see every other sender holding a slot
    assert max(sum(nm._in_window(ws, lo) for ws in windows.values())
               for w in windows.values() for lo, _ in w) == len(windows)
    stats = _assert_matches_oracle(trace, sc, Sps(), ChannelConfig(), 100.0, seed, tmp_path)
    assert stats.sent > 5000


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mac", [
    Sps(keep_min=0, keep_max=0),
    # every reselection returns the one slot, so a sender keeps it throughout
    Sps(n_slots=1, slot_ms=100.0, reselect_prob=1.0),
], ids=["keep-0", "one-slot-always-reselect"])
def test_sps_keep_edge_cases_match_oracle(tmp_path, mac, seed):
    sc, trace = make_trace(3, service=20.0, stagger=1)
    assert _assert_matches_oracle(trace, sc, mac, ChannelConfig(), 100.0, seed,
                                  tmp_path).sent > 0


def _hover_trace(windows, n_drones):
    """A truck on a straight road and n_drones drones, each airborne in the
    given (launch, rendezvous) windows on a slow track of its own."""
    line = np.array([0.0, 10.0])
    trajectories = {"truck": Trajectory(line, line * 10.0, np.zeros(2), np.zeros(2))}
    events = []
    for d in range(n_drones):
        name = f"drone{d}"
        trajectories[name] = Trajectory(line, line + 10.0 * d, np.full(2, 20.0),
                                        np.full(2, 30.0))
        for lo, hi in windows:
            events += [SimEvent(lo, KIND_DRONE_LAUNCH, name, None, None, 0.0, 0.0, 0.0),
                       SimEvent(hi, KIND_DRONE_RENDEZVOUS, name, None, None, 0.0, 0.0, 0.0)]
    events.sort(key=lambda ev: ev.time)
    events.append(SimEvent(3.0, KIND_TOUR_COMPLETE, "truck", None, None, 0.0, 0.0, 0.0))
    return DeliveryTrace(events, {}, trajectories)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("windows,period,allowed", [
    # ends 50 ms into period 25: only slots 0 to 2 emit in it
    ([(0.05, 2.55)], 25, {0, 1, 2}),
    # 40 ms apart inside period 12, whose start stays airborne: slot 0 emits
    # in the first window, slots 1 and 2 fall in the gap, and slots 3 and 4
    # emit in the second window
    ([(0.05, 1.21), (1.25, 2.55)], 12, {0, 3, 4}),
], ids=["window-ends-mid-period", "windows-under-a-period-apart"])
def test_sps_window_edges_match_oracle(tmp_path, seed, windows, period, allowed):
    """Four drones in range of each other hold four of a period's five
    slots, so in the given period some holder is silent and at least two of
    the allowed slots emit."""
    trace = _hover_trace(windows, 4)
    stats = _assert_matches_oracle(trace, line_scenario(5, 100.0, 10.0),
                                   Sps(n_slots=5, slot_ms=20.0), ChannelConfig(), 100.0, seed,
                                   tmp_path)
    t_p = period * 0.1
    gen = stats.msg_gen_s[(stats.msg_gen_s >= t_p) & (stats.msg_gen_s < (period + 1) * 0.1)]
    slots = {round((g - t_p) / 0.02) for g in gen.tolist()}
    assert slots <= allowed
    assert 2 <= len(slots) < 4


@pytest.mark.parametrize("mac", [Centralized(), Csma(), Sps()], ids=lambda mac: mac.name)
def test_senders_that_send_nothing_take_the_general_path(tmp_path, mac):
    """One drone airborne for 50 ms between two period starts. SPS never
    gives it a slot, as a sender holds one only while airborne at a period
    start; the phase models send one beacon when the drone's phase falls in
    the window and none otherwise. Either way the run equals the oracle."""
    trace = _hover_trace([(0.12, 0.17)], 1)
    sc = line_scenario(5, 100.0, 10.0)
    runs = [_assert_matches_oracle(trace, sc, mac, ChannelConfig(), 100.0, seed, tmp_path)
            for seed in range(8)]
    assert all(stats.senders == ["drone0"] for stats in runs)
    sent = {stats.sent for stats in runs}
    assert sent == ({0} if mac.name == "sps" else {0, 1})
    for stats in runs:
        if stats.sent == 0:
            assert (stats.delivered, stats.pdr, stats.latencies_ms.size) == (0, 1.0, 0)


# ---------------------------------------------------------------------------
# the scalar track evaluator of SPS slot selection


def _ulps(x, n):
    """x moved n ulps towards +inf (n > 0) or -inf (n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


@st.composite
def _knots(draw):
    """Strictly increasing finite knots, 1 to 25, some gaps a few ulps wide,
    with three finite coordinates per knot."""
    t = draw(st.floats(-1e4, 1e4))
    ts = [t]
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.booleans()):
            t = _ulps(t, draw(st.integers(1, 4)))
        else:
            t = t + draw(st.floats(1e-3, 1e3))
        ts.append(t)
    coords = [draw(st.lists(st.floats(-1e6, 1e6), min_size=len(ts), max_size=len(ts)))
              for _ in range(3)]
    return ts, coords


@settings(max_examples=300, deadline=None)
@given(_knots(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_track_at_equals_np_interp_bit_for_bit(knots, fractions):
    ts, coords = knots
    queries = [ts[0] - 1e3, ts[-1] + 1e3]
    for t in ts:
        queries += [_ulps(t, -1), t, _ulps(t, 1)]
    for a, b in zip(ts, ts[1:]):
        queries += [a + f * (b - a) for f in fractions]
    t_arr = np.array(ts)
    arrays = [np.interp(np.array(queries), t_arr, np.array(c)).tolist() for c in coords]
    for i, q in enumerate(queries):
        got = nm._track_at((ts, *coords), q)
        assert len(got) == 3
        for c, g, from_array in zip(coords, got, (a[i] for a in arrays)):
            assert type(g) is float
            assert g.hex() == float(np.interp(q, t_arr, np.array(c))).hex() == from_array.hex(), q
