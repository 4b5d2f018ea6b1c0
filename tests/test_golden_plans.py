"""Golden plans, traces and sweep outputs: SHA-256 digests for seeded
default-world sets.

The default sweep world (8x8 grid, 15 jobs per set of which 5 medical) is
planned for a few sets with 0, 1 and 3 drones, priority off and on. Each
plan file's canonical JSON is hashed, and so are the bytes ``save_trace``
writes for the plan's simulation: the event CSV followed by its sidecar. A
small default sweep's eight data files are hashed too (its summaries, as the
sweep scores its runs without simulating them, its net trace and net CSVs,
and the world it wrote), and its manifest's requirement lines are compared
as text. A planner, simulator or sweep change that is meant to keep its
outputs byte-identical must leave every digest as recorded; a change that is
meant to alter them must re-record them and say why.
"""
import hashlib
import json
from pathlib import Path

import pytest

from hybridfleet.cli import main
from hybridfleet.experiment import ExperimentConfig, build_scenario, build_sets
from hybridfleet.hybrid import check_plan, plan_hybrid, plan_to_dict
from hybridfleet.simcore import completion_times, save_trace, simulate, trace_sidecar_path

GOLDEN = {
    # (base_seed, set index, drones, prioritized):
    #     (sha256 of the plan's JSON, sha256 of its trace files)
    (42, 0, 0, False): ("851eb8576104be02ea08da442e69544ac4420b405f713e65be2caa407fe66f2f",
        "56929266cb1b2e86ea9e25890536bd3bbedbeb612423231424c724de27fd735c"),
    (42, 0, 0, True): ("7f3aee9a82cc606c5017f6b372fba24a966f2240c1a0593c9268c343f8da91d1",
        "e7417d5419451033164d5a6fcc410bb05f340c99154b41bfc0ac3a85c4af0ec9"),
    (42, 0, 1, False): ("49efbd227278de7aed870657a38e40b7f0a97c63d431475b5a0ad24b855ac715",
        "03dd78d50e5ec9b5f40b2b07852a8ca24ae00fdd1d1848ba9e065eb0b4869206"),
    (42, 0, 1, True): ("9cc9a291910a1d96942df5eea8292d86bfc8b71dbf9ffcdede12d4501a4e03ba",
        "fc7189032ca03e2d2ae7fa60e8771f45599e766941d6366d67a8eaeaaa5e61ea"),
    (42, 0, 3, False): ("e9b7559ef749a2d82ea4881691077bd79c7552577b8ef46c73e30564014ab7f0",
        "aaf8623042c5253152666247d24055a5e4b1bdbcf3a2b8b0027928f10cca946c"),
    (42, 0, 3, True): ("f5873521a18da598e9d51428580887eeb9291da4bde618156ee323e7a2ea2c46",
        "d890e0c293f5913513c77a1bf7e7e5f24db569b26fa75bb4bc2f1a199b8c4194"),
    (42, 1, 0, False): ("60a3e57a7fc06654172069ab63f3a16b939e7bddf11cab12f4407e8543924626",
        "2d4cb21f0e8e5a6903c9a82e04d86a67c0a2c7cf134a8dfe4573f1b126b22c4c"),
    (42, 1, 0, True): ("1922e32771e5b061d1498f43ccd204025e409c889cebcb683186461d398672fa",
        "4d65060000e0ec710936287ccf886ba3a44cf8b0a9acaddbb4181f57bcce2b5e"),
    (42, 1, 1, False): ("6a8ece1e2a6fea5c2d8c29f74dcf0c172644392fa8ab2a8d66f1346d0f27fa0c",
        "f06477f4a1ad90794cefd5dcaa3121455ca67b83e0e3f7c180370671e973e4e6"),
    (42, 1, 1, True): ("579ce24e20e8598ec92e6b56ca6736e36243676a7baf0b88b4136018047109c0",
        "8ff68feacbf9632f26fd242f223872329526c3ae0b76de9acf28e3d071df43bd"),
    (42, 1, 3, False): ("b2bf1a092a93b449b3a7327d6672b2ce9f38d79a3925c7418885c98ad75133ac",
        "5cb08df7012ffd3682928832b26e1836cf69bb55544d7e81c2aebed625696d39"),
    (42, 1, 3, True): ("e6d99af27c9674b5333de7edd7ef2a352188ab3b50dc5d485a8f0970baa9fe58",
        "8715a2256a4c8de1463deaae470ab464214d30a43c8309ead2060cd934a352bc"),
    (42, 2, 0, False): ("204f44ec7d8a96c0c3301b2ae46db54c1d26025fd2c5c3054311a3fa7495832d",
        "43d6475167ec1d17425530f85446d2cfb5247cd2e07a5b3046959a9f7800b8de"),
    (42, 2, 0, True): ("b59fa09b402421a838575aa6edddc2d1870f498f5abee83155ad6ade48695954",
        "c249d97ea1a95f8a401ff997978d20f0eaee780d231546e5b648605aafb4ec43"),
    (42, 2, 1, False): ("691baef9f32c1214119aabe12d55769823b7b43afecaf93fd2007202a84a7565",
        "b6f3e673700eb5ba9b41f994b139caa9496cf1df300e12c0a34f8d047453f3a3"),
    (42, 2, 1, True): ("c6fb4773cc73684e0c3955af460d4c9c19a1c03c4686faf76066897724ada858",
        "fd9a57d491a6082a2e63a19b274c14c5963cf9013b0cdddb14184f8625b6abd0"),
    (42, 2, 3, False): ("4f2cdda608f60d1749d3e8d956f5b431a886744a8980730e399c438fd5e96ca8",
        "d1f3d58bbf41710de3587bdf450902a33de479db7bc559219b94db17315ef357"),
    (42, 2, 3, True): ("c5b107b10cf6046ecbabdf2637e8a550b4e584505096af6cf7e24514e360ffa5",
        "3103d1b5a63a2b3fbfbb08259e760ea5c8742dea3d7e6a4d2809f4e56f1e495b"),
    (7, 0, 0, False): ("8b93c0f05499c908618b335ab783477945ef94c8e00d39965cf0ed0d413a3165",
        "f38b9ba075a19009a1a0858da4d764fcfca1f67ba77fb5ff9d1ad667bdf2dfde"),
    (7, 0, 0, True): ("a2db4aa62e568815fdb52a0e827b9db5e2ca7c218ecfab320c9b660acd1a302a",
        "d2346640477ae9acb490d0c31e79aa68af54cb3e32b96e1fed5b5562f94cb620"),
    (7, 0, 1, False): ("19ac97b748ffbeb8992f0534e63d5932676231ecfdff5b5a8604ad6dcb00445b",
        "09a07453b35917d6b40f554d30de8bef98dd0b6bbc255fe662bf2db016cccc93"),
    (7, 0, 1, True): ("4658e9e4d55eb4704c689b8ee0211512e37e711ceee97f8cdebf8157d9440cb0",
        "451671b78e0f983abfe1a3651d04f8df8cb38e0f8eae82130781bb3280e23999"),
    (7, 0, 3, False): ("f987f5ce57ee78d80aebb5fdeb2abbbb0f9c83fa85d9ef14feb362dc5e55901e",
        "f9255bd3387a92a18ee8f7cfd20da3824ec0dae10eae67049762a4981d97f1b2"),
    (7, 0, 3, True): ("c58f49bdb73a7076ea9e569f228952b45515a6e57ed7892b9d2d08f87560a706",
        "ae3c211587d13f593808eed6430354907f58a05520368d792ab5e2182f035979"),
    (7, 1, 0, False): ("f33a6d4a5e604848cfeb2052778fb25bd7386970fc64a6bdaa8163e79f124cbf",
        "8c90ade798f06982c2b38f39f07b12667259e5986bee9665b5b90e734e282932"),
    (7, 1, 0, True): ("f7d7baa65d62547bc75f1dcc07df2c1e064b7e1d37567a1fa4db3938698b0e09",
        "9a1010a8770743e935aad260fd28365a081d4f585c8d256f8ab1e20ebe8a8ce5"),
    (7, 1, 1, False): ("736e586431f3a3e33d04e92f55ce7a9174227588a94949cf72c6b49800768d1e",
        "9832014d36246729d9942a2f92e3678dfa6c1a2e81b773c084a89856028c0154"),
    (7, 1, 1, True): ("97adfc1cf2e07031deaa1653534339b9ea9902044c2704bf2ffed0a91995adf5",
        "ecc91407d4e6f4f28f7aa9c0c1120233fb715b8e9608ec957e085ba76abd175e"),
    (7, 1, 3, False): ("f323892c74854ec9022abaddf9ed8db0015c1e5d8062fefabebe8d614939da2f",
        "a0171c12ed81fbd29ca956925507dc5d3a59e10a3f7e504f8e2be55f97b51282"),
    (7, 1, 3, True): ("14601809413213c37bf13f3d9d5829f4f309ebc1459d9060a30fc687cc9a36ca",
        "45992d0c3e565d7e2a9ede10c1113412d2b673c4e9926d1529030896d89f3c06"),
    (7, 2, 0, False): ("d9dfd21e3034bf3a1e1ad51278541b93611584c156d59fff922eb9dbdfe17062",
        "78bdc97e37028869cfdf7b1703cf28c5022418b801385b09b62b357570b60b68"),
    (7, 2, 0, True): ("c758953d0ed540cb2ef6305097764e44847647929f9d844ec679ed0d024686d2",
        "b9a9800c708b9b43845facc90baf596cf0cf58d5762673b9182ecf1fda1cc5ea"),
    (7, 2, 1, False): ("17f5d73f78fd1367ebd7056f4fa3bdef7f8728a224e10618231e963d005383ed",
        "bb04df1df9dec635f58b872e06b1799cee2ec96797f473d6c193102eeb3b1256"),
    (7, 2, 1, True): ("d7e4e5446a234ad7e00481a8803b1e58f6004eb97492c96db38405419d77ccc0",
        "cfd865830e131ad2ce5dd2f1102622ce35308607ab46e0b6a3f30a8cab4f6b34"),
    (7, 2, 3, False): ("1edcbd382def17989503886197c6d7ec23d1344d8d8fa45463f3cc8de12f7f30",
        "b289ed170e5b2a4d4a1b9c2c1c9b314e50ba72ae4ff8f4655eca585bcf5a1de0"),
    (7, 2, 3, True): ("376d1bfc43255c8ff11171987de8e1b0944955a2b5a198591561b6bf5af9da16",
        "974f2108b4d64f54bb783ed8e716e415655a87b16b2e934239d9e14e983f8334"),
}


# file -> sha256 of what `sweep --seed 42 --sets 4` writes: every data file,
# that is all but manifest.json, which echoes the output directory
GOLDEN_SWEEP = {
    "summary.csv": "df3f578f0b0440cc8f249d314f19c88220acf31dd90eb5142b7528cae8a918d1",
    "capacity_curves.csv": "895f119f5e247beef0ed1228c667b2fa78337267537905ee9bd309ea66b27fe4",
    "net_results.csv": "f6dee905a0778bfc87e7e690d69ae5ceb1fccd05562408b200b70f702c1665f2",
    "net_summary.csv": "e0aec1ac9f59f31ef7f2a24a8a4bff8494e36e091be7c976afa144c919576f35",
    "net_trace.csv": "c0c95ef1ea542072fda060c2f94a5a90bc4211848eefb4ba4e6a8b7e2579811d",
    "net_trace.csv.traj.json": "f81105c3eb2dabf8260a4e742a2fdb26bbe707b9041ba0a0970a52d90a1cda14",
    "scenario.json": "92c45fa95a5368b6b412d9bc4566011cccce8577c181b13f7e7639fcaafcf7f6",
    "jobs.json": "1d6f6d8f85a0821a94c06d6edd5c4b4667d8aef204dca20764f19c457472f517",
}

# the manifest's requirement_checks of that sweep
GOLDEN_REQUIREMENT_CHECKS = [
    "[centralized] p95 latency 29.492 ms <= 50 ms C&C bound: pass",
    "[centralized] PDR 0.6541 < 0.99 target: FAIL",
    "[centralized] p95 latency vs 500 ms drone-delivery bound: pass",
    "[csma] p95 latency 0.753 ms <= 50 ms C&C bound: pass",
    "[csma] PDR 0.7780 < 0.99 target: FAIL",
    "[csma] p95 latency vs 500 ms drone-delivery bound: pass",
    "[sps] p95 latency 1.000 ms <= 50 ms C&C bound: pass",
    "[sps] PDR 0.7757 < 0.99 target: FAIL",
    "[sps] p95 latency vs 500 ms drone-delivery bound: pass",
]


def _world(base_seed):
    cfg = ExperimentConfig(base_seed=base_seed, n_sets=3, net_models=[])
    scenario = build_scenario(cfg)
    return cfg, scenario, build_sets(cfg, scenario)


def plan_digest(plan, fleet):
    text = json.dumps(plan_to_dict(plan, fleet), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(scenario, plan, fleet, csv_path):
    save_trace(simulate(scenario, plan, fleet), csv_path)
    data = Path(csv_path).read_bytes() + Path(trace_sidecar_path(csv_path)).read_bytes()
    return hashlib.sha256(data).hexdigest()


def _cases(base_seed):
    cfg, scenario, dsets = _world(base_seed)
    for (seed, set_index, drones, prioritize), want in GOLDEN.items():
        if seed == base_seed:
            fleet = cfg.fleet_for(drones)
            plan = plan_hybrid(scenario, dsets[set_index], fleet, prioritize, cfg.solver)
            yield ((seed, set_index, drones, prioritize), scenario, dsets[set_index], plan,
                   fleet, want)


@pytest.mark.parametrize("base_seed", sorted({key[0] for key in GOLDEN}))
def test_plans_match_recorded_digests(base_seed):
    for key, _, _, plan, fleet, (want, _) in _cases(base_seed):
        assert plan_digest(plan, fleet) == want, key


@pytest.mark.parametrize("base_seed", sorted({key[0] for key in GOLDEN}))
def test_traces_match_recorded_digests(base_seed, tmp_path):
    for key, scenario, _, plan, fleet, (_, want) in _cases(base_seed):
        assert trace_digest(scenario, plan, fleet, tmp_path / "trace.csv") == want, key


@pytest.mark.parametrize("base_seed", sorted({key[0] for key in GOLDEN}))
def test_completion_pass_equals_the_simulators_completions(base_seed):
    sorties = 0
    for key, scenario, dset, plan, fleet, _ in _cases(base_seed):
        assert check_plan(plan, scenario, dset, fleet) == [], key
        got = completion_times(scenario, plan, fleet)
        assert got == simulate(scenario, plan, fleet).completion, key
        sorties += len(plan.sorties)
    assert sorties > 0


def test_sweep_summaries_match_recorded_digests(tmp_path):
    assert main(["sweep", "--seed", "42", "--sets", "4", "--out", str(tmp_path)]) == 0
    for name, want in GOLDEN_SWEEP.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["requirement_checks"] == GOLDEN_REQUIREMENT_CHECKS
