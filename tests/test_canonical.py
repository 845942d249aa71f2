"""Canonical form, automorphism group and classification, pinned by sha256
digests recorded before the canonical form stopped trying every seed."""

import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest

import quadtile
from quadtile.angles import VertexSignature
from quadtile.constructors import (
    DomainError,
    FlipInvalidError,
    _avc_class,
    flip_segment,
    pq_earth_map,
    quad_subdivide,
)
from quadtile.symmetry import automorphisms, classify
from quadtile.tilingmap import SLOT_NAMES, TilingMap, extract_avc


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def relabel(m: TilingMap, seed: int) -> TilingMap:
    """The map rebuilt from its JSON with tiles permuted, glue entries
    shuffled and each entry's two ends swapped at random: the same map up to
    isomorphism."""
    rng = random.Random(seed)
    data = json.loads(m.to_json())
    perm = list(range(m.f))
    rng.shuffle(perm)
    order = list(range(2 * m.f))
    rng.shuffle(order)
    glue = []
    for i in order:
        t1, s1, t2, s2 = data["glue"][i]
        ends = [[perm[t1], s1], [perm[t2], s2]]
        if rng.random() < 0.5:
            ends.reverse()
        glue.append(ends[0] + ends[1])
    orient = [0] * m.f
    for t, bit in enumerate(data["orient"]):
        orient[perm[t]] = bit
    return TilingMap.from_json(
        json.dumps({"f": m.f, "glue": glue, "orient": orient}))


# (constructor, argument) -> digests of canonical_form(), of the sorted
# automorphism list as (perm, reversing) pairs, and of classify()'s fields
GOLDEN = {
    ("pq_earth_map", 64): (
        "4345dee65f90ffccf2fbdebfa827dd74955964e613d3f80759f28665573dd502",
        "9387e355f4a680b1fab7568375d20d3773501ff1f9aa1530edab9cde6e9b852b",
        "7077cb1b4795e50866c9287c25d322a939d8be3f98fed9212d0934a469bafd77"),
    ("pq_earth_map", 256): (
        "ae8acdbb1cc328bce7fa236640d63e773e12762226cdae4f24781d1829145997",
        "c61b75c809befb388ddcb864065bcf7bd93cee6dc01aacbc1828ce1808fffd2f",
        "830d19ac9b3e14c26edadfb1453b6afc366fe4e2e4b9fbdeb0af0961062ca74d"),
    ("earth_map", 128): (
        "ff4fdcb32763629c120fa6729596c9827285527f7e17e82c20fa9fa9b011b505",
        "9e14233a6e724e479b8c4c59f27b725a0d6ae14337c47f8df0ffb5e2d4cf299f",
        "4165f3f4eac18be8f69f3699dbadf6f599ec39b164d13945bb75d464b7fa9b31"),
    ("earth_map", 256): (
        "3f8a8c3ce29b0ab5dca61859078a69d63e18cbaea39f7de1260c4b7017186bc8",
        "72f89e64dc1bef6e9f46fbfda26bf0b7169af583907eb6ea3728d8552c108418",
        "61bb03851e081189f229ae2ff810a7fa2167ded158eada398e860848eb165611"),
    ("quad_subdivide", "cube"): (
        "943db8d40f551ee0219e669d55d79964748e767646c7869e6428f6e9076d4673",
        "282fab17d0202bdf4751c2e2af0d5a9275c713ff3b478466c0ae55f5e1e8d3f8",
        "a236946b3a697253d25f5276f475c06247e6a54cf6edc4f865cb7cdeea51ed9f"),
    ("quad_subdivide", "octahedron"): (
        "943db8d40f551ee0219e669d55d79964748e767646c7869e6428f6e9076d4673",
        "317f9ba992d39f53abed3ca61a2ce771ae3b5bc27dfa555a13b8f745958fde94",
        "a236946b3a697253d25f5276f475c06247e6a54cf6edc4f865cb7cdeea51ed9f"),
    ("quad_subdivide", "triangular_prism"): (
        "a90f7b33bd2b9134ac5cdc1be2f42902c8a2dc8a6e22523913115392e5630f88",
        "91ab8cdb5000b014a12e169f8eee34ae14b14f5c471c441817cce2ad380a764c",
        "5a8dcde0089d323b02193f7f29e85feb69adf98ff4c9abbf04f5af5bee131eae"),
    ("family_alphadelta", 56): (
        "d2ea82cca0378158458c6dac507ec6493435feb189025162006193262a5be732",
        "38985c109158774f4605e75eb1541312181ff54a9de4aa2f9acd9f91993fd564",
        "906c63f1f06e186eb0251fcd10472d90b031617d75905a8814ca61ea2ec57942"),
    ("family_alphadelta", 120): (
        "ef3e26b65c3c0ce14fa5ada3b4288db260d69b4aedf31f1f9b41fbbafeb74a30",
        "9d0ccddf20a3abd8d2290afeea693289fc2e9727b0a6b2bdff89c3e171243e67",
        "906c63f1f06e186eb0251fcd10472d90b031617d75905a8814ca61ea2ec57942"),
    ("family_beta2delta", 56): (
        "9f96c889f8ca1af5bc17a026cbd858e101dbfc5e8e1569a17487c60eb2704a8c",
        "9d30598a1e3fd645948af849c58da35a52c7fd784273c6fc03c80ff113b9c426",
        "4a875261d50ab7621cfa6ff5bc2c7a3306a170029eefc118facbfc73973b8baf"),
    ("family_beta2delta", 120): (
        "653a97eb03e697f6310ff71c89c204f16988ac6998c9eb989d78ba7253c1a2c1",
        "5845336769b23c298167b928284bb8719dbd5f182f3bdf196655eb7f5099ca1a",
        "4a875261d50ab7621cfa6ff5bc2c7a3306a170029eefc118facbfc73973b8baf"),
    ("pq_earth_map", 16): (
        "55f830116a37d635c22c8875b85990da64ff9a8af275370dd1a40351d99ab1d7",
        "24be2ae9d49086af2aa44e33703e04afdfd67515e1fef574134a98de8db5d79a",
        "8b08ac49176f3d75f72cc8594ea21c24d8f9b43cbc095f9fe53cf58ab450c296"),
    ("earth_map", 8): (
        "9206dbfbb0dbd36b2cf3053de1de0402e186282d1d01fdd9cbd4807414a0015c",
        "c051369357f17e4231485bfa518c3ca9e2a747f37b5f0ec5ef6868faddc48fb3",
        "64e0b346ee4a41671857aa3c477c04bb487eda542eba6dc3d995dd1d30884833"),
    ("family_alphadelta", 24): (
        "ece5ed4d355fd8171cdb980614318f15ae7a1a8a2e702c12462dd9d2dd1b68f3",
        "c04fe024d0a3967c969ee1a315d4f65ecf37476b6ed126dbe386a689b7a6fe54",
        "906c63f1f06e186eb0251fcd10472d90b031617d75905a8814ca61ea2ec57942"),
    ("family_beta2delta", 24): (
        "7355fbb2bedd6258eee707a07889b40e02a1db892247288878e833a1b41e28d1",
        "924c89157cd00f297eea62cbfb25b8b7106d20a07c00807fefb428c1356ecc49",
        "4a875261d50ab7621cfa6ff5bc2c7a3306a170029eefc118facbfc73973b8baf"),
}

# f -> digest of the canonical forms of every flip_segment output of
# pq_earth_map(f), over whole and half zones, every start and count
FLIP_GOLDEN = {
    24: "195dab050ef89c83d450d8a354bc8512aeb32bf03fa3b2fa28992ac78b4dc171",
    40: "92391a21e2da544e5e6270f34f0c68649ea8e20dd7e40d3000366a924e11445d",
}

JSON_GOLDEN = {
    "cube": "be0d61071395cd8515eb8835b30a2d8b0d8054b6ae19442fd5ee3b3022adde7b",
    "octahedron": "6d872fb1bf17e284cb3d8db05d37bb00ac8917d61ad747eab139fc257971971a",
}


def _build(name, arg) -> TilingMap:
    return getattr(quadtile, name)(arg)


class TestGoldenDifferential:
    @pytest.mark.parametrize("name,arg", list(GOLDEN))
    def test_canonical_form(self, name, arg):
        # [DERIVED] the form itself, and the same form from two seeded
        # relabellings of the map
        m = _build(name, arg)
        want = GOLDEN[name, arg][0]
        assert _digest(m.canonical_form()) == want
        for seed in (1, 2):
            assert _digest(relabel(m, seed).canonical_form()) == want

    @pytest.mark.parametrize("name,arg", list(GOLDEN))
    def test_group(self, name, arg):
        # [DERIVED] automorphisms in their sorted order, and the class
        m = _build(name, arg)
        _, auts, cls = GOLDEN[name, arg]
        assert _digest([(g.perm, g.reversing)
                        for g in automorphisms(m)]) == auts
        assert _digest(dataclasses.astuple(classify(m))) == cls

    @pytest.mark.parametrize("f", list(FLIP_GOLDEN))
    def test_flip_segment_forms(self, f):
        # [DERIVED] the flip modifications, chiral global mirrors included
        m = pq_earth_map(f)
        lines = []
        for half in (False, True):
            k = f // 4 if half else f // 8
            for start in range(k):
                for count in range(1, k + 1):
                    try:
                        flipped = flip_segment(m, start, count,
                                               half_zones=half)
                    except (FlipInvalidError, DomainError):
                        continue
                    lines.append((half, start, count,
                                  _digest(flipped.canonical_form())))
        assert _digest(lines) == FLIP_GOLDEN[f]

    @pytest.mark.parametrize("base", list(JSON_GOLDEN))
    def test_subdivision_json(self, base):
        # [DERIVED] _vertex_subdivision picks its spoke labels by canonical
        # form, so the serialised map pins the comparison
        text = quad_subdivide(base).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == JSON_GOLDEN[base]


def _canonical_flip(m: TilingMap) -> TilingMap:
    """m relabelled as canonical_form's flip does: slot p renamed 3 - p
    (AB<->DA, BC<->CD) and every orientation bit toggled."""
    rename = dict(zip(SLOT_NAMES, reversed(SLOT_NAMES)))
    data = json.loads(m.to_json())
    glue = [[t1, rename[s1], t2, rename[s2]]
            for t1, s1, t2, s2 in data["glue"]]
    return TilingMap.from_json(json.dumps(
        {"f": m.f, "glue": glue, "orient": [1 - o for o in m.orient]}))


class TestCanonicalFlip:
    @pytest.mark.parametrize("name,arg", list(GOLDEN))
    def test_same_form_and_avc_class(self, name, arg):
        # [DERIVED] the flip renames beta<->delta, so a map isomorphic to m
        # has m's AVC or its beta<->delta exchange; flip_segment needs no
        # canonical form for a flip whose AVC is neither
        m = _build(name, arg)
        flipped = _canonical_flip(m)
        assert flipped.canonical_form() == m.canonical_form()
        assert _avc_class(flipped) == _avc_class(m)
        assert extract_avc(flipped) == Counter(
            {VertexSignature(s.a, s.d, s.c, s.b): n
             for s, n in extract_avc(m).items()})


def _every_seed_form(m: TilingMap) -> tuple:
    """The canonical form by its definition: every (seed, flip) relabelled
    in full, the least form kept."""
    forms = []
    for seed in range(m.f):
        for flip in (0, 1):
            pos = (3, 2, 1, 0) if flip else (0, 1, 2, 3)
            order, new_of = [seed], {seed: 0}
            for t in order:
                for p in pos:
                    t2 = m.glue[4 * t + p] // 4
                    if t2 not in new_of:
                        new_of[t2] = len(order)
                        order.append(t2)
            glue_desc = tuple(
                (new_of[m.glue[4 * t + p] // 4], pos[m.glue[4 * t + p] % 4])
                for t in order for p in pos)
            forms.append((m.f, glue_desc,
                          tuple(m.orient[t] ^ flip for t in order)))
    return min(forms)


class TestCanonicalForm:
    @pytest.mark.parametrize("name,arg", [
        ("pq_earth_map", 16), ("earth_map", 10), ("family_alphadelta", 24),
        ("family_beta2delta", 24), ("quad_subdivide", "triangular_prism")])
    def test_matches_every_seed_definition(self, name, arg):
        # [DERIVED] the pruned search returns the exhaustive minimum, also
        # on relabellings and on the flip modifications of pq_earth_map(24)
        maps = [_build(name, arg)]
        maps.append(relabel(maps[0], 5))
        for m in maps:
            assert m.canonical_form() == _every_seed_form(m)

    def test_flip_modifications_match_definition(self):
        m = pq_earth_map(24)
        for start, count, half in ((0, 1, False), (1, 2, True), (0, 3, True)):
            flipped = relabel(
                flip_segment(m, start, count, half_zones=half), 7)
            assert flipped.canonical_form() == _every_seed_form(flipped)

    def test_large_map_relabelled(self):
        # [DERIVED] f = 1024: a seeded relabelling is isomorphic
        m = pq_earth_map(1024)
        assert m.is_isomorphic(relabel(m, 3))

    def test_mirror_image_of_chiral_map(self):
        # [DERIVED] flipping every orientation bit is not identified with
        # the map: a chiral map and its mirror image have different forms
        for m in (quadtile.family_beta2delta(24),
                  quadtile.family_alphadelta(24),
                  quad_subdivide("triangular_prism")):
            mirror = TilingMap.from_json(json.dumps(
                {**json.loads(m.to_json()),
                 "orient": [1 - o for o in m.orient]}))
            assert not m.is_isomorphic(mirror)
        m = pq_earth_map(16)
        assert m.is_isomorphic(flip_segment(m, 0, 2))
