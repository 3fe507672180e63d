"""Command line interface: outputs, files, exit codes."""

import argparse
import hashlib
import json
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import cycbrauer.cli
import cycbrauer.gram
from cycbrauer.cli import main
from cycbrauer.linalg import primes_for_modular
from cycbrauer.scalars import CyclotomicField, field_with_root

REPORTS = Path(__file__).resolve().parent.parent / "reports"
CONCORD_CONFIG = REPORTS / "concordance.config.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_dim(capsys):
    code, obj = run_json(capsys, "dim", "--m", "3", "--n", "2")
    assert code == 0 and obj["dimension"] == 27


def test_relations(capsys):
    code, obj = run_json(capsys, "relations", "--m", "2", "--n", "3")
    assert code == 0 and obj["failures"] == []


def test_assoc_default_is_admissible(capsys):
    code, obj = run_json(capsys, "assoc", "--m", "3", "--n", "2",
                         "--trials", "50")
    assert code == 0 and obj["ok"] and obj["admissible"]


def test_assoc_flags_off_locus(capsys):
    code, obj = run_json(capsys, "assoc", "--m", "3", "--n", "2",
                         "--delta", "1,2,3", "--trials", "50")
    assert code == 3 and not obj["ok"] and not obj["admissible"]


def test_zset(capsys):
    code, obj = run_json(capsys, "zset", "--m", "3", "--n", "3", "--tilde")
    assert code == 0 and obj == [-1, 0, 1, 3]


def test_group(capsys):
    code, obj = run_json(capsys, "group", "--m", "2", "--n", "3")
    assert code == 0 and obj["order"] == 48


def test_decide(capsys):
    code, obj = run_json(capsys, "decide", "--m", "2", "--n", "2",
                         "--delta", "1,-1", "--variant", "gmu")
    assert code == 0 and obj["decision"] == "not-semisimple"


def test_bar_delta(capsys):
    code, obj = run_json(capsys, "bar-delta", "--m", "2", "--delta", "3,5")
    assert code == 0 and obj == ["8", "-2"]


def test_gram(capsys):
    code, obj = run_json(capsys, "gram", "--m", "3", "--n", "2")
    assert code == 0
    assert obj["shape_violations"] == []
    assert obj["equivariance"]["ok"] and obj["equivariance"]["admissible"]


@pytest.mark.parametrize("argv", [
    ("gram", "--m", "2", "--n", "4"),
    ("gram", "--m", "3", "--n", "2", "--delta", "1,2,2"),
])
def test_gram_builds_the_iota_form_once(capsys, monkeypatch, argv):
    # the equivariance check reuses the shape check's form when both use
    # the same parameters
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    build = cycbrauer.gram.gram_big
    monkeypatch.setattr(cycbrauer.cli, "gram_big", counting)
    monkeypatch.setattr(cycbrauer.gram, "gram_big", counting)
    code, obj = run_json(capsys, *argv)
    assert code == 0 and obj["equivariance"]["ok"]
    assert len(calls) == 1


def test_gram_composes_the_iota_pairing_once(capsys, strand_calls):
    # without --delta, m >= 3 checks equivariance at a second, symmetric
    # parameter set: its form is evaluated on the same pairing, so a cold
    # (3, 3) call composes 9 skeleton pairs for the pairing and 12 for the
    # generator actions (30 when the pairing was composed twice), and the
    # output is the pinned one
    cycbrauer.gram.iota_pairing.cache_clear()
    cycbrauer.gram._actions.cache_clear()
    code, out = run(capsys, "gram", "--m", "3", "--n", "3")
    assert code == 0 and strand_calls == {"_compose_skeletons": 21}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0e8d145e773cd0dafde795c9f2d58d63505081ee4ef743a595f42c2a546798c6"


def test_single_box(capsys):
    code, obj = run_json(capsys, "single-box", "--m", "2")
    assert code == 0 and obj["report"]["matches_printed_at_zero"]


@pytest.mark.parametrize("char", ["1000000009", "1000000007"])
def test_decide_at_a_large_characteristic(capsys, char):
    # the root of unity is searched for lazily: GF(p) at p = 1000000009,
    # GF(p^2) at p = 1000000007 = 2 (mod 3), where the first p candidates
    # are all cubes and are skipped
    code, obj = run_json(capsys, "decide", "--m", "3", "--n", "3",
                         "--char", char, "--delta", "1,2,2")
    assert code == 0 and obj["decision"] == "semisimple"


@pytest.mark.parametrize("m,char", [(5, "1000000007"), (5, "2147483647"),
                                    (9, "998244353")])
def test_decide_where_no_binomial_is_irreducible(capsys, m, char):
    # GF(p^4) at p = 3 (mod 4), and GF(p^6) with 3 not dividing p - 1: no
    # x^k + a is irreducible, and the modulus search skips those p codes
    code, obj = run_json(capsys, "decide", "--m", str(m), "--n", "3",
                         "--char", char, "--delta", ",".join(["2"] * m))
    assert code == 0 and obj["decision"] in ("semisimple", "not-semisimple")


@pytest.mark.parametrize("m,delta,want", [
    (3, "1,0,1", ["0,0", "0,1", "1,1"]),
    (5, "1,2,3,3,2", ["1,0,0,0", "0,1,1,0", "1,1,1,0", "1,1,1,0", "0,1,1,0"]),
])
def test_bar_delta_over_an_extension_field(capsys, m, delta, want):
    # GF(4) and GF(16): the printed coefficients depend on the modulus and
    # on the root of unity the field picks
    code, obj = run_json(capsys, "bar-delta", "--m", str(m), "--char", "2",
                         "--delta", delta)
    assert code == 0 and obj == want


@pytest.mark.parametrize("char,delta,want", [
    ("0", "1/2:1,1,1", ["5/2,1", "-1/2,1", "-1/2,1"]),
    # GF(7) and GF(25): zeta is the field's cube root of unity, not 0 or
    # the field's own generator
    ("7", "1/2:1,1,1", ["3", "0", "0"]),
    ("7", "0:1,0:1,0:1", ["5", "0", "0"]),
    ("5", "0:1,0:1,0:1", ["1,3", "0,0", "0,0"]),
])
def test_bar_delta_of_colon_vectors(capsys, char, delta, want):
    code, obj = run_json(capsys, "bar-delta", "--m", "3", "--char", char,
                         "--delta", delta)
    assert code == 0 and obj == want


def test_colon_vectors_are_sums_of_powers_of_the_root():
    # in GF(p) as the reduction of the characteristic-0 vector, in GF(p^k)
    # as sum_i c_i zeta^i with zeta of order m (outside GF(p) here)
    Q3 = CyclotomicField(3)
    for char, deltas in (("0", "1/2:1,2:-3/4:5,7"), ("7", "1/2:1,2:-3/4:5,7"),
                         ("13", "0:1,1:0:2/3,-1")):
        args = argparse.Namespace(char=int(char), m=3, delta=deltas)
        got = cycbrauer.cli._params(args).deltas
        want = [Q3.element([Fraction(c) for c in x.split(":")])
                for x in deltas.split(",")]
        if char == "0":
            assert got == want
        else:
            hom = Q3.reduction_hom(int(char))
            assert [x.coeffs[0] for x in got] == [hom(x) for x in want]
    args = argparse.Namespace(char=5, m=3, delta="0:1,0:0:1,1/2:0:3")
    F = field_with_root(5, 3)
    zeta = F.root_of_unity(3)
    assert zeta ** 3 == F.one and zeta.coeffs[1]
    assert cycbrauer.cli._params(args).deltas == [
        zeta, zeta ** 2, F.embed(Fraction(1, 2)) + 3 * zeta ** 2]


def test_oracle(capsys):
    code, obj = run_json(capsys, "oracle", "--m", "2", "--n", "2",
                         "--delta", "0,0")
    assert code == 0 and obj["verdict"] == "not-semisimple"
    assert obj["radical"] == 4


def test_oracle_omits_cross_check_below_n2(capsys):
    # n <= 1 has no k = 1 cell: no cell determinants, no cross-check flag
    for n in ("0", "1"):
        code, obj = run_json(capsys, "oracle", "--m", "2", "--n", n,
                             "--delta", "0,0")
        assert code == 0 and obj["verdict"] == "semisimple"
        assert "cell_dets" not in obj and "cross_check_agrees" not in obj


def test_oracle_replaces_every_prime_dividing_a_denominator(capsys):
    # delta_0 = 1/q, q the product of the four primes tried first at m = 2
    delta = "1/%d,3" % prod(primes_for_modular(2))
    code, obj = run_json(capsys, "oracle", "--m", "2", "--n", "4", "--cap",
                         "2000", "--delta", delta)
    assert code == 0 and obj["radical"] == 0


def test_concord_below_n2_has_no_cross_check_failures(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["concord", "--pairs", "2,1", "--out", str(out)])
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert code == 0 and rep["summary"]["cross_check_failures"] == 0
    assert rep["points"]
    assert all("cross_check_agrees" not in p["oracle"] for p in rep["points"])


@pytest.mark.parametrize("m", ["1", "2", "3"])
@pytest.mark.parametrize("delta", ["0", "1"])
def test_decide_at_n0_is_semisimple(capsys, m, delta):
    # B_{m,0} is the field, at delta = 0 too
    for variant in ("printed-z", "combinatorial-rho", "gmu"):
        code, obj = run_json(capsys, "decide", "--m", m, "--n", "0",
                             "--delta", ",".join([delta] * int(m)),
                             "--variant", variant)
        assert code == 0 and obj["decision"] == "semisimple", obj


@pytest.mark.parametrize("pairs", ["1,0", "2,0", "3,0;1,1"])
def test_concord_at_n0_agrees_with_the_oracle(tmp_path, capsys, pairs):
    out = tmp_path / "report.json"
    code = main(["concord", "--pairs", pairs, "--out", str(out)])
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert code == 0 and rep["summary"]["num_disagreements"] == 0
    assert all(p["oracle"]["verdict"] == "semisimple" for p in rep["points"])


# sha256 of stdout and the exit code of Gram and oracle invocations; the
# cell Gram code may change how it computes, never what these print
PINNED_OUTPUT = [
    (("cell-gram", "--m", "2", "--n", "2", "--mu", "[[],[]]"), 0,
     "ce8875c60416485450e5c34b32bf51e9cb9f64a9c17a8d1efec6554b163a4003"),
    (("cell-gram", "--m", "3", "--n", "2", "--mu", "[[],[],[]]"), 0,
     "807d6e914b7ddc226f50705ce3e96d627b89be65a443ca58c11776af4a9df49b"),
    (("cell-gram", "--m", "3", "--n", "2", "--mu", "[[],[],[]]",
      "--delta", "1/2,3,3"), 0,
     "26b4bcfb6e9d196438115d20ba25875543c012079c64334304d5ddc055667657"),
    (("cell-gram", "--m", "2", "--n", "3", "--mu", "[[1],[]]"), 0,
     "97aef14bd2b228de2902d2c6c9f4c90b318716dc212e550c6d0fd768fa0917b1"),
    (("cell-gram", "--m", "3", "--n", "3", "--mu", "[[],[1],[]]"), 0,
     "47d50f219f9890d283c9b0fab0bfd5fc94383856cdeda5e2a449668af82fafba"),
    (("cell-gram", "--m", "3", "--n", "3", "--mu", "[[1],[],[]]",
      "--delta", "1/2,3,3"), 0,
     "3784f62b421eaed68854b4cdb675360a418d88926b88c9cb1f3414b0e7f8b574"),
    (("cell-gram", "--m", "4", "--n", "3", "--mu", "[[],[],[1],[]]",
      "--delta", "1,2,3,2"), 0,
     "34dd4e30ebca1984e14372da2142b78fd53ccd37515db152f338ea2d9b5d61b2"),
    (("cell-gram", "--m", "2", "--n", "3", "--mu", "[[],[1]]",
      "--char", "5", "--delta", "1,2"), 0,
     "a641e2e4a0bfcdfe368d061e562c9da225bac136d9d17892bcc5760c6a5dca67"),
    (("cell-gram", "--m", "3", "--n", "3", "--mu", "[[],[],[1]]",
      "--char", "7", "--delta", "1,2,2"), 0,
     "339939eb939019f902d8c956fb4ec53fdc95abed7e9c2210c9151caef2570d71"),
    # symbolic with free parameters: 12 x 12 determinants of polynomials
    (("cell-gram", "--m", "4", "--n", "3", "--mu", "[[1],[],[],[]]"), 0,
     "1e9e58c8341afc96a125c0f2ab690567812e4209725ef2f31e7018f8e5d59f67"),
    (("cell-gram", "--m", "4", "--n", "3", "--mu", "[[],[1],[],[]]"), 0,
     "ab086818c506d48d08262034eeb7a9bfab36d3d817c803aee0c72843b3c9b334"),
    (("single-box", "--m", "2"), 0,
     "d23a890506624eef90c0bc8e8ae365fbc81301d09f3ce061968e850db289bcfb"),
    (("single-box", "--m", "3"), 0,
     "401190fd02c5dbb557488bd7a4c8cc39ea32af6bd046d2e383407ea0268f6131"),
    (("single-box", "--m", "4"), 0,
     "d0bf8596f457683713d8faf5c0dd3131a7deda1ce190f03cb71c183e30fa7ec0"),
    (("single-box", "--m", "5"), 0,
     "808eb2b77c6c133da59041872202e5d353bbf94e41a0294e45f5b1a83c64ef85"),
    (("oracle", "--m", "2", "--n", "3", "--delta", "0,0"), 0,
     "9c24d8afd6b9403176abbc57348136539cae1621a8e6bd807b7ce791f074b60f"),
    (("gram", "--m", "3", "--n", "2"), 0,
     "553a12581ca884570e6d7e61c7e94b71190855895bf7c07f89939db6b3d94c62"),
    (("gram", "--m", "2", "--n", "3"), 0,
     "928e4bfb03eb3777fb70592f0625b7e6de0b726c2f51d427712221cea43e9876"),
    (("gram", "--m", "3", "--n", "3"), 0,
     "0e8d145e773cd0dafde795c9f2d58d63505081ee4ef743a595f42c2a546798c6"),
    (("gram", "--m", "4", "--n", "3"), 0,
     "0da993987c7d65f7101f718b82aee615b64b7edcf8a23b19419323ce7a0794b6"),
    (("gram", "--m", "2", "--n", "4"), 0,
     "21becc69def40c702ac33dcdf6ed8561c6d946dc7c20775c8452122e5a4c53ed"),
    (("gram", "--m", "3", "--n", "3", "--delta", "1,2,3"), 3,
     "5ae2407d75161036f59c881658f46f559c5891cd4c3d0a4609c047663c44f9f5"),
    (("gram", "--m", "2", "--n", "2", "--char", "5"), 0,
     "09b79302ea152f47a36196da3c4f9fb8f92b18a58a5b0a6438a878cb92123841"),
    # symbolic above 12 x 12: the entries, and "det": null
    (("cell-gram", "--m", "5", "--n", "3", "--mu", "[[1],[],[],[],[]]"), 0,
     "8995cfe994e092de726508dce3719d529c6db00caac7662932d093ab1bb73f85"),
    (("gmu", "--m", "2", "--n", "4", "--delta", "1,2"), 0,
     "3cbca911aef29998be0c324300f3315ed8f08df169357c4a9c8fc2fd797b2cc3"),
    (("admissible", "--m", "2", "--mu", "[[1],[]]"), 0,
     "7567a87f605a9c52b661316b60e451f171d6dfed6124e50e836be779c79e2fdc"),
    (("group", "--m", "2", "--n", "2", "--list"), 0,
     "0b97d07370912997e9d329164a935a73d9bb1094687c622b2d0132f0b35eb76e"),
]


@pytest.mark.parametrize("argv,want_code,want_sha", PINNED_OUTPUT,
                         ids=[" ".join(a) for a, _, _ in PINNED_OUTPUT])
def test_pinned_output_bytes(capsys, argv, want_code, want_sha):
    code, out = run(capsys, *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha


def test_symbolic_cell_gram_above_12_has_no_det(capsys):
    code, obj = run_json(capsys, "cell-gram", "--m", "5", "--n", "3",
                         "--mu", "[[1],[],[],[],[]]")
    assert code == 0 and obj["size"] == 15 and obj["det"] is None


def test_admissible_by_hand(capsys):
    # mu = ((1), ()) at m = 2: two boxes in component 2 in distinct
    # columns give (2), content 0 + 1; two in component m/2 = 1 give (3),
    # content 1 + 2, and (2, 1), content 1 - 1; (1, 1) and (1, 1, 1) stack
    # two boxes in one column
    code, obj = run_json(capsys, "admissible", "--m", "2", "--mu", "[[1],[]]")
    assert code == 0
    assert obj == [{"lambda": [[1], [2]], "condition": 1, "content": 1},
                   {"lambda": [[3], []], "condition": 4, "content": 3},
                   {"lambda": [[2, 1], []], "condition": 4, "content": 0}]


def test_gmu_by_hand(capsys):
    # m = n = 2, delta = (1, 2): bar = (delta_1 + delta_0, -delta_1 + delta_0)
    # = (3, -1); mu = ((), ()) has two admissible pairs, both of content 1,
    # each giving (bar_0 - 2 + 2) * (bar_1 + 2) = 3, so g_mu = 9
    code, obj = run_json(capsys, "gmu", "--m", "2", "--n", "2",
                         "--delta", "1,2")
    assert code == 0
    assert obj == {"m": 2, "n": 2, "values": [{"mu": [[], []], "g_mu": "9"}]}


def test_group_list(capsys):
    code, obj = run_json(capsys, "group", "--m", "2", "--n", "2", "--list")
    assert code == 0 and obj["order"] == 8
    assert obj["elements"] == [{"perm": list(p), "colors": list(c)}
                               for p in ((1, 2), (2, 1))
                               for c in ((0, 0), (0, 1), (1, 0), (1, 1))]


@pytest.mark.parametrize("n,mu", [("0", "[[],[]]"), ("1", "[[],[]]"),
                                  ("4", "[[1,1],[]]")])
def test_cell_gram_names_the_supported_n(capsys, n, mu):
    code = main(["cell-gram", "--m", "2", "--n", n, "--mu", mu])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == ("error: cell Gram matrices need n = 2 or 3, "
                            "got n = %s\n" % n)


def test_oracle_rejects_char_p(capsys):
    code = main(["oracle", "--m", "2", "--n", "2", "--char", "5",
                 "--delta", "1,1"])
    capsys.readouterr()
    assert code == 2


def test_tset(capsys):
    code, obj = run_json(capsys, "tset", "--a", "6")
    assert code == 0 and obj["equal"]


def test_prop_eta(capsys):
    code, obj = run_json(capsys, "prop-eta", "--m", "3")
    assert code == 0 and obj["ok"]


def test_concord_and_csv(tmp_path, capsys):
    out = tmp_path / "report.json"
    csvf = tmp_path / "report.csv"
    code = main(["concord", "--pairs", "2,2", "--seed", "4",
                 "--out", str(out), "--csv", str(csvf)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema_version"] == 1
    assert rep["summary"]["cross_check_failures"] == 0
    assert csvf.read_text().startswith("m,n,provenance")


def test_concord_jobs_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["concord", "--pairs", "2,2;3,2", "--seed", "9", "--jobs", "1",
          "--out", str(a)])
    main(["concord", "--pairs", "2,2;3,2", "--seed", "9", "--jobs", "2",
          "--out", str(b)])
    capsys.readouterr()
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_concord_config_regenerates_the_tracked_report(tmp_path, capsys,
                                                       jobs):
    # the CLI draws its points as the library does, at any --jobs, and the
    # tracked reports are its output byte for byte
    out, csvf = tmp_path / "report.json", tmp_path / "report.csv"
    code = main(["concord", "--config", str(CONCORD_CONFIG), "--jobs", jobs,
                 "--out", str(out), "--csv", str(csvf)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (REPORTS / "concordance.json").read_bytes()
    assert csvf.read_bytes() == (REPORTS / "concordance.csv").read_bytes()


def test_concord_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": [{"m": 2, "n": 2, "deltas": [[1, -1], ["1/2", -3]]}],
        "generic_points": 1, "hyperplane_points": 1}))
    out = tmp_path / "rep.json"
    code = main(["concord", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    fixture = [p for p in rep["points"] if p["provenance"] == "fixture"]
    assert fixture and fixture[0]["oracle"]["verdict"] == "not-semisimple"
    assert fixture[1]["deltas"] == ["1/2", "-3"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--m", "2"])
    assert exc.value.code == 1


def test_compute_error_exit_code(capsys):
    # G(2,1,3) has 48 elements, more than the cap allows listing
    code = main(["group", "--m", "2", "--n", "3", "--list", "--cap", "1"])
    assert code == 2 and "exceeds cap 1" in capsys.readouterr().err


def usage_error(capsys, *argv):
    """Exit code and stderr of a command that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_dim_rejects_negative_n(capsys):
    code, err = usage_error(capsys, "dim", "--m", "2", "--n", "-1")
    assert code == 1 and "--n" in err


def test_dim_rejects_m_zero(capsys):
    code, err = usage_error(capsys, "dim", "--m", "0", "--n", "2")
    assert code == 1 and "--m" in err


def test_relations_rejects_m_zero(capsys):
    code, err = usage_error(capsys, "relations", "--m", "0", "--n", "2")
    assert code == 1 and "--m" in err


@pytest.mark.parametrize("jobs", ["0", "-1", "x"])
def test_concord_rejects_jobs_below_one(capsys, jobs):
    code, err = usage_error(capsys, "concord", "--pairs", "2,2",
                            "--jobs", jobs)
    assert code == 1 and "--jobs" in err and repr(jobs) in err, err


def test_concord_rejects_malformed_pairs(capsys):
    for pairs, chunk in (("2", "'2'"), ("2,2;3", "'3'"), ("2,2,2", "'2,2,2'"),
                         ("0,2", "'0,2'")):
        code, err = usage_error(capsys, "concord", "--pairs", pairs)
        assert code == 1 and chunk in err, (pairs, err)


@pytest.mark.parametrize("argv", [
    ("cell-gram", "--m", "2", "--n", "3", "--mu", "[[1]]"),
    ("admissible", "--m", "2", "--mu", "[[1]]"),
    ("admissible", "--m", "2", "--mu", "[[1, 2], []]"),
    ("cell-gram", "--m", "2", "--n", "3", "--mu", "5"),
    ("admissible", "--m", "2", "--mu", "[[true], []]"),
])
def test_malformed_mu_rejected(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "mu must be 2 partitions" in captured.err


@pytest.mark.parametrize("argv", [
    ("gram", "--m", "3", "--n", "2"),
    ("gram", "--m", "2", "--n", "2", "--char", "5"),
    ("cell-gram", "--m", "2", "--n", "3", "--mu", "[[1],[]]"),
    ("cell-gram", "--m", "3", "--n", "2", "--mu", "[[],[],[]]"),
    ("single-box", "--m", "3"),
])
def test_scalar_json_has_no_repr(capsys, argv):
    # symbolic entries print their coefficients in the field's own format
    code, out = run(capsys, *argv)
    assert code == 0 and "<" not in out
    assert "*d0^1" in out or "d1^" in out


@pytest.mark.parametrize("cfg,key", [
    ({"grid": [{"m": 0, "n": 2}]}, "'grid'"),
    ({"grid": [[2, -1]]}, "'grid'"),
    ({"grid": [[2, 2]], "cap": "x"}, "'cap'"),
    ({"grid": [[2, 2]], "generic_points": -1}, "'generic_points'"),
    ({"grid": [{"m": 2, "n": 2, "deltas": [[1, "x"]]}]}, "'grid'"),
    ({"grid": [{"m": 2, "n": 2, "deltas": [[1]]}]}, "'grid'"),
    ({"grid": "2,2"}, "'grid'"),
    ({"grid": [[2, 2]], "jobs": 2}, "'jobs'"),
    ({"grid": [[2, 2]], "cap": 0}, "'cap'"),
    # a misspelt key once dropped the fixture points silently
    ({"grid": [{"m": 2, "n": 2, "detlas": [[1, -1]]}]}, "'grid'"),
    # a float or a bool once became a rational delta with exit 0
    ({"grid": [{"m": 2, "n": 2, "deltas": [[0.1, 1], [True, 1]]}]}, "'grid'"),
])
def test_concord_rejects_malformed_config(tmp_path, capsys, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, err = usage_error(capsys, "concord", "--config", str(path))
    assert code == 1 and key in err, err


@pytest.mark.parametrize("name", ["missing.json", "."])  # "." is a directory
def test_concord_rejects_unreadable_config(tmp_path, capsys, name):
    path = str(tmp_path / name)
    code, err = usage_error(capsys, "concord", "--config", path)
    assert code == 1 and repr(path) in err, err


def test_concord_rejects_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff{}")
    code, err = usage_error(capsys, "concord", "--config", str(path))
    assert code == 1 and "not JSON" in err, err


@pytest.mark.parametrize("argv", [
    ("decide", "--m", "2", "--n", "2"),
    ("gmu", "--m", "2", "--n", "3"),
    ("oracle", "--m", "2", "--n", "2"),
    ("cell-gram", "--m", "2", "--n", "2", "--mu", "[[],[]]"),
    ("assoc", "--m", "2", "--n", "2", "--trials", "1"),
    ("bar-delta", "--m", "2"),
])
@pytest.mark.parametrize("delta", ["1,x", "1,2,3", "1", "1/0,1", "1:,2"])
def test_malformed_delta_is_a_usage_error(capsys, argv, delta):
    code, err = usage_error(capsys, *argv, "--delta", delta)
    assert code == 1 and "--delta" in err and repr(delta) in err, err


@pytest.mark.parametrize("argv", [
    ("gmu", "--m", "2", "--n", "3"),
    ("bar-delta", "--m", "2"),
    ("decide", "--m", "2", "--n", "2"),
    ("oracle", "--m", "2", "--n", "2"),
])
def test_missing_delta_is_a_usage_error(capsys, argv):
    code, err = usage_error(capsys, *argv)
    assert code == 1 and "--delta" in err, err


@pytest.mark.parametrize("argv", [
    ("assoc", "--m", "2", "--n", "2", "--trials", "0"),
    ("assoc", "--m", "2", "--n", "2", "--trials", "-5"),
    ("group", "--m", "2", "--n", "2", "--cap", "0"),
    ("gram", "--m", "2", "--n", "2", "--cap", "-1"),
    ("oracle", "--m", "2", "--n", "2", "--delta", "1,1", "--cap", "0"),
    ("concord", "--pairs", "2,2", "--cap", "-1"),
])
def test_counts_below_one_are_usage_errors(capsys, argv):
    code, err = usage_error(capsys, *argv)
    assert code == 1 and argv[-2] in err and repr(argv[-1]) in err, err


@pytest.mark.parametrize("argv", [
    ("assoc", "--m", "2", "--n", "2", "--trials", "1"),
    ("gmu", "--m", "2", "--n", "3", "--delta", "1,1"),
    ("bar-delta", "--m", "2", "--delta", "1,1"),
    ("decide", "--m", "2", "--n", "2", "--delta", "1,1"),
    ("gram", "--m", "2", "--n", "2"),
    ("cell-gram", "--m", "2", "--n", "2", "--mu", "[[],[]]"),
    ("oracle", "--m", "2", "--n", "2", "--delta", "1,1"),
])
@pytest.mark.parametrize("char", ["4", "9", "-3", "1"])
def test_char_must_be_zero_or_prime(capsys, argv, char):
    code, err = usage_error(capsys, *argv, "--char", char)
    assert code == 1 and "--char" in err and repr(char) in err, err


def test_char_without_the_root_is_a_compute_error(capsys):
    # a prime characteristic is accepted; GF(2^k) has no order-2 root
    code = main(["decide", "--m", "2", "--n", "2", "--delta", "1,1",
                 "--char", "2"])
    assert code == 2 and "characteristic 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("decide", "--m", "2", "--n", "2", "--delta", "1,1"),
    ("zset", "--m", "2", "--n", "2"),
])
def test_unknown_variant_is_a_usage_error(capsys, argv):
    code, err = usage_error(capsys, *argv, "--variant", "bogus")
    assert code == 1 and "--variant" in err and "'bogus'" in err, err


def test_decide_flags_off_locus_points(capsys):
    code, obj = run_json(capsys, "decide", "--m", "3", "--n", "3",
                         "--delta", "1,2,3")
    assert code == 0 and obj["admissible"] is False
    _, oracle = run_json(capsys, "oracle", "--m", "3", "--n", "2",
                         "--delta", "1,2,3")
    assert obj["note"] == oracle["note"]
    # on the locus the verdict is printed as before, with no flag
    code, obj = run_json(capsys, "decide", "--m", "3", "--n", "3",
                         "--delta", "1,2,2")
    assert code == 0 and set(obj) == {"decision", "reasons", "variant"}
