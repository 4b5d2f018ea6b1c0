"""Golden plans: SHA-256 digests of ``plan_to_dict`` for seeded default-world sets.

The default sweep world (8x8 grid, 15 jobs per set of which 5 medical) is
planned for a few sets with 0, 1 and 3 drones, priority off and on, and each
plan file's canonical JSON is hashed. A planner change that is meant to keep
the plans byte-identical must leave every digest as recorded; a change that
is meant to alter plans must re-record them and say why.
"""
import hashlib
import json

import pytest

from hybridfleet.experiment import ExperimentConfig, build_scenario, build_sets
from hybridfleet.hybrid import plan_hybrid, plan_to_dict

GOLDEN = {
    # (base_seed, set index, drones, prioritized): sha256 of the plan's JSON
    (42, 0, 0, False): "851eb8576104be02ea08da442e69544ac4420b405f713e65be2caa407fe66f2f",
    (42, 0, 0, True): "7f3aee9a82cc606c5017f6b372fba24a966f2240c1a0593c9268c343f8da91d1",
    (42, 0, 1, False): "49efbd227278de7aed870657a38e40b7f0a97c63d431475b5a0ad24b855ac715",
    (42, 0, 1, True): "9cc9a291910a1d96942df5eea8292d86bfc8b71dbf9ffcdede12d4501a4e03ba",
    (42, 0, 3, False): "e9b7559ef749a2d82ea4881691077bd79c7552577b8ef46c73e30564014ab7f0",
    (42, 0, 3, True): "f5873521a18da598e9d51428580887eeb9291da4bde618156ee323e7a2ea2c46",
    (42, 1, 0, False): "60a3e57a7fc06654172069ab63f3a16b939e7bddf11cab12f4407e8543924626",
    (42, 1, 0, True): "1922e32771e5b061d1498f43ccd204025e409c889cebcb683186461d398672fa",
    (42, 1, 1, False): "6a8ece1e2a6fea5c2d8c29f74dcf0c172644392fa8ab2a8d66f1346d0f27fa0c",
    (42, 1, 1, True): "579ce24e20e8598ec92e6b56ca6736e36243676a7baf0b88b4136018047109c0",
    (42, 1, 3, False): "b2bf1a092a93b449b3a7327d6672b2ce9f38d79a3925c7418885c98ad75133ac",
    (42, 1, 3, True): "e6d99af27c9674b5333de7edd7ef2a352188ab3b50dc5d485a8f0970baa9fe58",
    (42, 2, 0, False): "204f44ec7d8a96c0c3301b2ae46db54c1d26025fd2c5c3054311a3fa7495832d",
    (42, 2, 0, True): "b59fa09b402421a838575aa6edddc2d1870f498f5abee83155ad6ade48695954",
    (42, 2, 1, False): "691baef9f32c1214119aabe12d55769823b7b43afecaf93fd2007202a84a7565",
    (42, 2, 1, True): "c6fb4773cc73684e0c3955af460d4c9c19a1c03c4686faf76066897724ada858",
    (42, 2, 3, False): "4f2cdda608f60d1749d3e8d956f5b431a886744a8980730e399c438fd5e96ca8",
    (42, 2, 3, True): "c5b107b10cf6046ecbabdf2637e8a550b4e584505096af6cf7e24514e360ffa5",
    (7, 0, 0, False): "8b93c0f05499c908618b335ab783477945ef94c8e00d39965cf0ed0d413a3165",
    (7, 0, 0, True): "a2db4aa62e568815fdb52a0e827b9db5e2ca7c218ecfab320c9b660acd1a302a",
    (7, 0, 1, False): "19ac97b748ffbeb8992f0534e63d5932676231ecfdff5b5a8604ad6dcb00445b",
    (7, 0, 1, True): "4658e9e4d55eb4704c689b8ee0211512e37e711ceee97f8cdebf8157d9440cb0",
    (7, 0, 3, False): "f987f5ce57ee78d80aebb5fdeb2abbbb0f9c83fa85d9ef14feb362dc5e55901e",
    (7, 0, 3, True): "c58f49bdb73a7076ea9e569f228952b45515a6e57ed7892b9d2d08f87560a706",
    (7, 1, 0, False): "f33a6d4a5e604848cfeb2052778fb25bd7386970fc64a6bdaa8163e79f124cbf",
    (7, 1, 0, True): "f7d7baa65d62547bc75f1dcc07df2c1e064b7e1d37567a1fa4db3938698b0e09",
    (7, 1, 1, False): "736e586431f3a3e33d04e92f55ce7a9174227588a94949cf72c6b49800768d1e",
    (7, 1, 1, True): "97adfc1cf2e07031deaa1653534339b9ea9902044c2704bf2ffed0a91995adf5",
    (7, 1, 3, False): "f323892c74854ec9022abaddf9ed8db0015c1e5d8062fefabebe8d614939da2f",
    (7, 1, 3, True): "14601809413213c37bf13f3d9d5829f4f309ebc1459d9060a30fc687cc9a36ca",
    (7, 2, 0, False): "d9dfd21e3034bf3a1e1ad51278541b93611584c156d59fff922eb9dbdfe17062",
    (7, 2, 0, True): "c758953d0ed540cb2ef6305097764e44847647929f9d844ec679ed0d024686d2",
    (7, 2, 1, False): "17f5d73f78fd1367ebd7056f4fa3bdef7f8728a224e10618231e963d005383ed",
    (7, 2, 1, True): "d7e4e5446a234ad7e00481a8803b1e58f6004eb97492c96db38405419d77ccc0",
    (7, 2, 3, False): "1edcbd382def17989503886197c6d7ec23d1344d8d8fa45463f3cc8de12f7f30",
    (7, 2, 3, True): "376d1bfc43255c8ff11171987de8e1b0944955a2b5a198591561b6bf5af9da16",
}


def _world(base_seed):
    cfg = ExperimentConfig(base_seed=base_seed, n_sets=3, net_models=[])
    scenario = build_scenario(cfg)
    return cfg, scenario, build_sets(cfg, scenario)


def plan_digest(cfg, scenario, dset, drones, prioritize):
    fleet = cfg.fleet_for(drones)
    plan = plan_hybrid(scenario, dset, fleet, prioritize, cfg.solver)
    text = json.dumps(plan_to_dict(plan, fleet), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("base_seed", sorted({key[0] for key in GOLDEN}))
def test_plans_match_recorded_digests(base_seed):
    cfg, scenario, dsets = _world(base_seed)
    for (seed, set_index, drones, prioritize), want in GOLDEN.items():
        if seed == base_seed:
            got = plan_digest(cfg, scenario, dsets[set_index], drones, prioritize)
            assert got == want, (seed, set_index, drones, prioritize)
