"""End-to-end checks of the command line interface.

Everything goes through main(argv) in-process; stdout is captured with
capsys.  The heavyweight f=2 homology suites are exercised once.
"""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weightcalc
from weightcalc import cli
from weightcalc.cli import ConfigError, RunConfig, SUITES, main, run
from weightcalc.weights import SYMBOLS

import reference


# the memos that configs share within one process
SHARED_MEMOS = (
    "weightcalc.weights._family",
    "weightcalc.monomial._type_ideal",
    "weightcalc.monomial._ideal_ijd",
    "weightcalc.monomial._ideal_a1",
    "weightcalc.cycles.cycle_of",
    "weightcalc.homology.taylor._canonical_gens",
    "weightcalc.homology.taylor._is_cm",
    "weightcalc.homology.taylor._codim",
    "weightcalc.homology.resolution._module_resolution",
    "weightcalc.homology.resolution._verified",
    "weightcalc.suites._closed_form_counts",
    "weightcalc.suites._shellable",
)
# lru_caches that may grow without a bound, each with why that is safe
UNBOUNDED_MEMOS = {
    "weightcalc.homology.resolution._local_keys": "one factor's (degree, character) slices within the windows",
    "weightcalc.homology.resolution.slice_keys": "(f, degree, character) slices within the windows",
    "weightcalc.homology.resolution._char_range": "one entry per (f, degree budget)",
    "weightcalc.homology.resolution._slice_parts": "(f, degree, character) slices within the windows, once per window's radix",
    "weightcalc.homology.pbw._local_product": "pairs of one-factor monomials within the windows, shared by every prime",
    "weightcalc.weights._check_star_contract": "one None per (f, j_rho)",
}


def _package_memos() -> dict[str, object]:
    """Every module-level lru_cache of the package, by qualified name."""
    out = {}
    for info in pkgutil.walk_packages(weightcalc.__path__, "weightcalc."):
        mod = importlib.import_module(info.name)
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                out[f"{mod.__name__}.{attr}"] = obj
    return out


def test_every_memo_is_bounded_or_allowed():
    # a sweep runs many configs in one process, so its memos must not
    # grow without limit
    memos = _package_memos()
    assert set(SHARED_MEMOS) <= set(memos)
    unbounded = {n for n, m in memos.items() if m.cache_parameters()["maxsize"] is None}
    assert unbounded == set(UNBOUNDED_MEMOS)


def test_oracles_read_no_memo():
    # the independent checks must not share results with the code they check
    from weightcalc.cycles import cycle_of_subquotient, total_mult_formula
    from weightcalc.monomial import Monomial, MonomialIdeal
    from weightcalc.repmodel import _bottom_by_scan
    from weightcalc.weights import TTag

    big = MonomialIdeal(2, (Monomial.y(0, 2), Monomial.z(1, 2)))
    small = MonomialIdeal(2, (Monomial((1, -1)),))
    gens = big.lift_exponents()
    memos = _package_memos().values()
    for memo in memos:
        memo.cache_clear()
    assert cycle_of_subquotient(big, small).total == 2
    assert len(_bottom_by_scan(big, small)) == 2
    assert reference.taylor_primal_check(gens, 4)
    assert reference.hilbert_euler_check(gens, 4, 3)
    assert reference.cm_by_taylor(gens, 4)
    assert total_mult_formula({0}, {1}, 1, (TTag.YZ, TTag.YZ), 2) == 1
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)


def _config(**kw) -> RunConfig:
    base = dict(
        f=1,
        p=29,
        j_rho=frozenset({0}),
        r=(13,),
        suites=tuple(SUITES),
    )
    base.update(kw)
    return RunConfig(**base)


class TestRun:
    def test_reference_config_all_pass(self):
        report = run(_config())
        counts = report.counts()
        assert counts["fail"] == 0
        assert counts["inconclusive"] == 0
        assert counts["pass"] == sum(counts.values())
        assert report.exit_code == 0

    def test_every_registered_suite_reports(self):
        report = run(_config())
        assert [s.name for s in report.suites] == list(SUITES)
        assert all(s.checks for s in report.suites)

    def test_check_id_format(self):
        report = run(_config())
        for suite in report.suites:
            for check in suite.checks:
                module, tag, idx = check.id.rsplit(".", 2)
                assert module in {
                    "weights",
                    "characters",
                    "cycles",
                    "homology",
                    "repmodel",
                }
                assert tag and idx.isdigit()
                assert check.anchor
                assert check.status in ("pass", "fail", "inconclusive")

    def test_genericity_gate(self):
        # 9 <= r <= p - 12 has no solutions at p = 7
        with pytest.raises(ConfigError, match="9-genericity"):
            run(_config(p=7, r=(3,), suites=("cycles",)))

    def test_unknown_suite_lists_choices(self):
        with pytest.raises(ConfigError, match="enumeration"):
            run(_config(suites=("bogus",)))

    def test_split_outside_split_regime(self):
        with pytest.raises(ConfigError, match="split regime"):
            run(
                _config(
                    f=2,
                    p=61,
                    j_rho=frozenset({0}),
                    r=(13, 16),
                    suites=("split",),
                )
            )

    def test_bad_params_become_config_error(self):
        with pytest.raises(ConfigError):
            run(_config(p=10))

    def test_rerun_is_deterministic(self):
        one = run(_config()).as_dict(with_timings=False)
        two = run(_config()).as_dict(with_timings=False)
        assert one == two

    def test_report_shape(self):
        report = run(_config(suites=("enumeration",)))
        doc = report.as_dict()
        assert set(doc) == {"config", "suites", "summary", "timings"}
        assert doc["config"]["f"] == 1
        assert doc["summary"]["checks"] == sum(
            doc["summary"][k] for k in ("pass", "fail", "inconclusive")
        )
        parsed = json.loads(report.to_json())
        assert parsed == doc

    def test_small_window_turns_inconclusive(self):
        report = run(_config(suites=("tor",), max_degree=2))
        assert report.counts()["inconclusive"] >= 1
        assert report.counts()["fail"] == 0
        assert report.exit_code == 3
        # the f = 1 tables are certified from window 4f = 4 on
        for window in range(7):
            (suite,) = run(_config(suites=("tor",), max_degree=window)).suites
            (dims,) = [c for c in suite.checks if c.id.startswith("homology.tor-dims.")]
            assert (dims.status == "inconclusive") == (window < 4)
            assert dims.details.startswith(f"window {window} ") == (window < 4)

    def test_small_window_resolves_only_its_window(self, monkeypatch):
        from weightcalc.homology import resolution as reso

        windows = []
        inner = reso.minimal_resolution

        def counted(gens, imax, dmax, p, f):
            windows.append(dmax)
            return inner(gens, imax, dmax, p, f)

        monkeypatch.setattr(reso, "minimal_resolution", counted)
        reso._module_resolution.cache_clear()
        f2 = dict(f=2, p=61, j_rho=frozenset({0, 1}), r=(13, 16))
        run(_config(**f2, suites=("tor",), max_degree=5))
        assert windows and max(windows) == 5

    def test_blind_spot_residue_still_passes(self):
        # r = 13 at p = 29 makes pairs of base characters collide at
        # residue level; the scan and multifree checks must classify
        # those as forced rather than fail
        report = run(_config(suites=("characters", "tor")))
        assert report.exit_code == 0
        multifree = [
            c
            for s in report.suites
            for c in s.checks
            if "tau-multifree" in c.id
        ]
        assert multifree
        assert any("forced" in c.details for c in multifree)

    def test_each_module_resolved_once_per_run(self, monkeypatch):
        from weightcalc.homology import resolution as reso

        calls = []
        inner = reso.minimal_resolution

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(reso, "minimal_resolution", counted)
        reso._module_resolution.cache_clear()
        run(_config(suites=("resolutions", "tor")))
        # the six factor tables form four symmetry classes (Z is the twist
        # of Y), which the dual check and the tor suite share
        assert len(calls) == 4
        calls.clear()
        f2 = dict(f=2, p=61, j_rho=frozenset({0, 1}), r=(13, 16))
        reso._module_resolution.cache_clear()
        run(_config(**f2, suites=("resolutions", "tor")))
        # four factor classes and the three classes of the nine plain
        # two-index patterns, which the dual check and the tor suite share
        assert len(calls) == 7

        def tor_checks(suites):
            reso._module_resolution.cache_clear()
            doc = run(_config(**f2, suites=suites)).as_dict(with_timings=False)
            return [s["checks"] for s in doc["suites"] if s["name"] == "tor"]

        alone = tor_checks(("tor",))
        assert alone and alone == tor_checks(tuple(SUITES))

    def test_failed_recheck_is_a_failed_check(self, monkeypatch):
        from weightcalc.homology import resolution as reso

        monkeypatch.setattr(reso, "verify_resolution", lambda res: False)
        reso._verified.cache_clear()
        try:
            (suite,) = run(_config(suites=("resolutions",))).suites
        finally:
            reso._verified.cache_clear()
        tags = [c.id.split(".")[1] for c in suite.checks]
        assert tags == ["factor-table"] * 6 + ["dual-top-shift"] * 3
        for check in suite.checks[:6]:
            assert check.status == "fail"
            assert "exactness recheck" in check.details
        assert all(c.status == "pass" for c in suite.checks[6:])

    def test_each_class_rechecked_once_and_only_when_read(self, monkeypatch):
        from weightcalc.homology import resolution as reso

        calls = []
        inner = reso.verify_resolution

        def counted(res):
            calls.append(res.shifts)
            return inner(res)

        monkeypatch.setattr(reso, "verify_resolution", counted)
        reso._verified.cache_clear()
        f2 = dict(f=2, p=61, j_rho=frozenset({0, 1}), r=(13, 16))
        # the tor suite reads tables only
        run(_config(**f2, suites=("tor",)))
        assert calls == []
        # the six factor tables form four classes, one recheck each
        run(_config(**f2, suites=("resolutions",)))
        assert len(calls) == 4
        # `tor` prints `verified` in JSON only, and rechecks only then
        argv = "tor --tags Y,Z --full --max-degree 8".split()
        assert main(argv) == 0
        assert len(calls) == 4
        assert main(argv + ["--format", "json"]) == 0
        assert len(calls) == 5

    def test_shared_memos_cover_their_inputs(self):
        # the package's memos are shared across configs; each config's
        # report must not depend on what ran before it, in either order
        suites = ("enumeration", "characters", "cycles", "cm", "lattice", "chain")
        configs = [
            _config(f=3, p=p, j_rho=frozenset(j_rho), r=r, suites=suites)
            for p, r in ((29, (13, 16, 10)), (61, (13, 16, 19)))
            for j_rho in ((), (0,), (1, 2), (0, 1, 2))
        ]
        memos = _package_memos().values()

        def reports(order, clear: bool) -> dict[RunConfig, str]:
            out = {}
            for config in order:
                if clear:
                    for memo in memos:
                        memo.cache_clear()
                out[config] = run(config).to_json(with_timings=False)
            return out

        cold = reports(configs, clear=True)
        assert reports(configs, clear=False) == cold
        assert reports(configs[::-1], clear=False) == cold

    def test_f2_cycles_and_lattice(self):
        report = run(
            _config(
                f=2,
                p=61,
                j_rho=frozenset({0, 1}),
                r=(13, 16),
                suites=("cycles", "lattice"),
            )
        )
        assert report.exit_code == 0
        mult_add = [
            c
            for s in report.suites
            for c in s.checks
            if "mult-additivity" in c.id
        ]
        # one record per (family member, threshold level)
        assert len(mult_add) == 10 * 4

    def test_partial_jrho_f2(self):
        report = run(
            _config(
                f=2,
                p=61,
                j_rho=frozenset({1}),
                r=(13, 16),
                suites=("enumeration", "characters", "cycles", "lattice", "chain"),
            )
        )
        assert report.exit_code == 0


class TestMainVerify:
    def test_text_output_and_exit(self, capsys):
        code = main(
            "verify --f 1 --p 29 --jrho 0 --r 13 --suite enumeration".split()
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "weights.family-count.0" in out
        assert out.strip().endswith("inconclusive 0")

    def test_json_output(self, capsys):
        code = main(
            "verify --f 1 --p 29 --jrho 0 --r 13 --suite enumeration --format json".split()
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["summary"]["exit_code"] == 0
        assert doc["suites"][0]["name"] == "enumeration"

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            f"verify --f 1 --p 29 --jrho 0 --r 13 --suite enumeration --out {out} "
            "--format json".split()
        )
        printed = json.loads(capsys.readouterr().out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "suites", "summary", "timings"}
        assert doc == printed

    def test_gate_failure_exit_2(self, capsys):
        code = main("verify --f 1 --p 7 --jrho 0 --r 3 --suite cycles".split())
        err = capsys.readouterr().err
        assert code == 2
        assert "9-genericity" in err

    def test_unknown_suite_exit_2(self, capsys):
        code = main("verify --f 1 --p 29 --jrho 0 --r 13 --suite nope".split())
        err = capsys.readouterr().err
        assert code == 2
        assert "enumeration" in err and "chain" in err

    def test_inconclusive_exit_3(self, capsys):
        code = main(
            "verify --f 1 --p 29 --jrho 0 --r 13 --suite tor --max-degree 2".split()
        )
        capsys.readouterr()
        assert code == 3

    def test_jrho_none(self, capsys):
        code = main(
            "verify --f 1 --p 29 --jrho none --r 13 --suite enumeration".split()
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "marked-diagonal-count" in out

    def test_large_prime_homology_is_exact(self, capsys):
        # products of two residues near 2**32 overflow fixed-width integers
        code = main(
            "verify --f 1 --p 4294967291 --jrho none --r 13 "
            "--suite tor,resolutions".split()
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.out + captured.err
        assert "pass 20  fail 0  inconclusive 0" in captured.out

    def test_f5_cm_suite_finishes_without_fail(self, capsys):
        # split ideals of up to 15 generators are decided, with no cap
        code = main(
            "verify --f 5 --p 61 --jrho none --r 20,20,20,20,20 --suite cm".split()
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("pass 172  fail 0  inconclusive 0")

    def test_all_leaves_out_split_unless_every_index_is_marked(self, capsys):
        code = main("verify --f 1 --p 61 --jrho none --r 13 --format json".split())
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "split" not in doc["config"]["suites"]
        assert [s["name"] for s in doc["suites"]] == [n for n in SUITES if n != "split"]
        code = main("verify --f 1 --p 61 --jrho none --r 13 --suite split".split())
        assert code == 2
        assert "split regime only" in capsys.readouterr().err

    def test_oversized_prime_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code = main(
            "verify --f 1 --p 2305843009213693951 --jrho none --r 13 "
            "--suite enumeration".split()
        )
        elapsed = time.perf_counter() - start
        assert code == 2
        assert "2**40" in capsys.readouterr().err
        assert elapsed < 0.5

    def test_uncaught_exception_is_a_failed_check(self, capsys, monkeypatch):
        def broken(params, max_degree):
            raise ZeroDivisionError("boom")

        monkeypatch.setitem(cli.SUITES, "characters", broken)
        code = main(
            "verify --f 1 --p 29 --jrho 0 --r 13 "
            "--suite enumeration,characters,cycles --format json".split()
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.out + captured.err
        doc = json.loads(captured.out)
        assert [s["name"] for s in doc["suites"]] == ["enumeration", "characters", "cycles"]
        assert doc["suites"][1]["checks"] == [
            {
                "id": "characters.uncaught.0",
                "anchor": "the suite completes",
                "status": "fail",
                "details": "ZeroDivisionError: boom",
            }
        ]
        for other in (doc["suites"][0], doc["suites"][2]):
            assert other["checks"]
            assert all(c["status"] == "pass" for c in other["checks"])


class TestSubcommands:
    def test_enumerate_counts(self, capsys):
        assert main("enumerate --f 1 --p 29 --jrho 0 --r 13".split()) == 0
        out = capsys.readouterr().out
        assert "full: 4" in out
        assert "diagonal: 2" in out

    def test_enumerate_json(self, capsys):
        assert (
            main("enumerate --f 1 --p 29 --jrho 0 --r 13 --format json".split())
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["full"]["count"] == 4
        assert doc["restricted"]["count"] == 4
        assert len(doc["full"]["tuples"]) == 4

    def test_ideal_plain(self, capsys):
        assert main("ideal --f 1 --p 29 --jrho 0 --r 13 --lam x".split()) == 0
        assert "(z0)" in capsys.readouterr().out

    def test_ideal_with_threshold(self, capsys):
        argv = "ideal --f 2 --p 61 --jrho none --r 13,16 --lam x,x --i0 1 --format json".split()
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ideal"] == "(z0*z1)"

    def test_ideal_rejects_outsider(self, capsys):
        argv = "ideal --f 2 --p 61 --jrho none --r 13,16 --lam p-1-x,x --i0 1".split()
        assert main(argv) == 2
        assert "restricted parameter family" in capsys.readouterr().err

    def test_cycle_total(self, capsys):
        argv = "cycle --f 2 --p 61 --jrho none --r 13,16 --lam x,x --i0 1 --format json".split()
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 3
        assert doc["multiplicities"] == [0, 1, 1, 1]

    def test_hilbert_dims(self, capsys):
        argv = "hilbert --f 1 --p 29 --jrho 0 --r 13 --lam x --max-degree 4 --format json".split()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [1, 1, 1, 1, 1]

    def test_tor_table(self, capsys):
        assert main("tor --tags YZ --p 29 --format json".split()) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dims"] == [1, 2, 1]
        assert doc["complete"] is True
        assert doc["verified"] is True

    @pytest.mark.parametrize(
        "argv, complete",
        [
            # the quotient's top degree is 4, and Chevalley-Eilenberg bounds
            # every generator by 4 + 8
            ("tor --tags Y,Z --full --max-degree 8", None),
            ("tor --tags Y,Z --full --max-degree 12", True),
            ("tor --tags Y,Z --full --max-degree 14", True),
            ("tor --tags Y --full --max-degree 3", None),
        ],
    )
    def test_tor_complete_only_past_the_degree_bound(self, capsys, argv, complete):
        assert main(argv.split() + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["complete"] is complete
        assert doc["verified"] is True

    def test_tor_full_default_window_ends_at_the_degree_bound(self, capsys, monkeypatch):
        from weightcalc.homology import resolution as reso

        resolve = reso.minimal_resolution
        windows = []

        def recorded(gens, imax, dmax, p, f):
            windows.append((imax, dmax))
            return resolve(gens, imax, dmax, p, f)

        monkeypatch.setattr(reso, "minimal_resolution", recorded)
        reso._module_resolution.cache_clear()
        assert main("tor --tags Y,Z --full --format json".split()) == 0
        doc = json.loads(capsys.readouterr().out)
        # top degree 4 plus the top degree 8 of the exterior algebra
        assert windows == [(6, 12)]
        assert doc["complete"] is True

    def test_tor_resolves_once_per_symmetry_class(self, capsys, monkeypatch):
        from weightcalc.homology import resolution as reso

        calls = []
        inner = reso.minimal_resolution

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(reso, "minimal_resolution", counted)
        reso._module_resolution.cache_clear()
        for tags in ("Y,Z", "Z,Y"):
            assert main(f"tor --tags {tags} --full --max-degree 8".split()) == 0
        # both patterns are twists of (Y, Y)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv, dmax, dims",
        [
            ("tor --tags Y,Z --full --max-degree 2", 2, [1, 4, 1]),
            ("tor --tags Y --max-degree 0", 0, [1]),
        ],
    )
    def test_tor_prints_only_generators_in_window(self, capsys, argv, dmax, dims):
        assert main(argv.split() + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(e <= dmax for row in doc["rows"] for e, _ in row)
        assert doc["dims"] == dims
        assert doc["verified"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            "tor --tags Y",
            "hilbert --f 1 --p 29 --jrho 0 --r 13 --lam x",
            "verify --f 1 --p 29 --jrho 0 --r 13 --suite tor",
        ],
        ids=["tor", "hilbert", "verify"],
    )
    def test_negative_max_degree_exits_2(self, capsys, argv):
        assert main(argv.split() + ["--max-degree", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-degree" in captured.err

    def test_tor_bad_tag(self, capsys):
        assert main("tor --tags Q --p 29".split()) == 2
        assert "type tag" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0", "1", "15", str(1 << 61)])
    def test_tor_refuses_bad_prime(self, capsys, p):
        assert main(["tor", "--tags", "Y", "--p", p]) == 2
        assert "prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "cycle --f 1 --p 29 --jrho 0 --r 40 --lam x",
            "enumerate --f 1 --p 29 --jrho 0 --r -4",
            "verify --f 2 --p 61 --jrho none --r 13,61 --suite enumeration",
        ],
        ids=["cycle", "enumerate", "verify"],
    )
    def test_residue_outside_prime_exits_2(self, capsys, argv):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0..p-1" in captured.err

    def test_lam_length_mismatch(self, capsys):
        argv = "ideal --f 2 --p 61 --jrho none --r 13,16 --lam x".split()
        assert main(argv) == 2
        assert "entries" in capsys.readouterr().err


def test_import_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, weightcalc.cli; print('numpy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


# primes the CLI accepts, and integers near its bounds 5 <= p < 2**40
# that it refuses: 2**40 - 87 is the largest accepted prime and
# 2**40 + 15 the least prime beyond the bound
GOOD_PRIMES = (5, 7, 11, 29, 61, 1_099_511_627_609, 1_099_511_627_689)
BAD_PRIMES = (-5, 0, 1, 2, 3, 4, 9, (1 << 40) - 1, 1 << 40, (1 << 40) + 15)


@st.composite
def _verify_argv(draw) -> list[str]:
    f = draw(st.sampled_from((1, 2, 3, 1, 2, 3, 0, -1)))
    p = draw(st.sampled_from(GOOD_PRIMES) | st.sampled_from(GOOD_PRIMES + BAD_PRIMES))
    # residues inside the gates, and at and beyond their low end and p's
    # top end
    residue = st.integers(9, max(9, p - 12)) | st.integers(-2, 12) | st.integers(p - 14, p + 1)
    n = draw(st.sampled_from((f, f, f, f - 1, f + 1)).map(lambda n: max(n, 0)))
    r = draw(st.lists(residue, min_size=n, max_size=n))
    j_rho = draw(
        st.sets(st.integers(0, max(f - 1, 0)))
        | st.lists(st.integers(-1, 3), max_size=4, unique=True)
    )
    suites = draw(
        st.lists(
            st.sampled_from(("enumeration", "characters", "cycles")),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    argv = [
        "verify",
        f"--f={f}",
        f"--p={p}",
        "--jrho=" + (",".join(map(str, sorted(j_rho))) or "none"),
        "--r=" + ",".join(map(str, r)),
        "--suite=" + ",".join(suites),
    ]
    max_degree = draw(st.none() | st.integers(-3, 20))
    if max_degree is not None:
        argv.append(f"--max-degree={max_degree}")
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_verify_argv())
def test_any_verify_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert ".uncaught." not in out.getvalue()


@st.composite
def _inspect_argv(draw) -> list[str]:
    command = draw(st.sampled_from(("ideal", "cycle", "hilbert", "tor")))
    if command == "tor":
        # at most two tags and a bounded window keep each resolution small;
        # p = 5 and 7 reach products whose coefficients vanish mod p
        tags = st.sampled_from(("Y", "Z", "YZ", "Y", "Z", "YZ", "y", "X", ""))
        argv = [
            "tor",
            "--tags=" + ",".join(draw(st.lists(tags, min_size=1, max_size=2))),
            f"--p={draw(st.sampled_from((5, 7, 29)))}",
            f"--max-degree={draw(st.integers(-3, 8))}",
        ]
        return argv + (["--full"] if draw(st.booleans()) else [])
    f = draw(st.integers(1, 3))
    p = draw(st.sampled_from((29, 61)))
    r = draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f))
    lam = draw(st.lists(st.sampled_from(SYMBOLS), min_size=f, max_size=f))
    j_rho = sorted(draw(st.sets(st.integers(0, f - 1))))
    # at most one malformed field, so that most draws reach the library
    bad = draw(st.sampled_from((None, None, None, "r", "lam", "jrho")))
    if bad == "r":
        r = draw(st.sampled_from((r[:-1], r + [0], r[:-1] + [p])))
    elif bad == "lam":
        lam = draw(st.sampled_from((lam[:-1], lam + ["x"], lam[:-1] + ["y"])))
    elif bad == "jrho":
        j_rho.append(draw(st.sampled_from((-1, f))))
    argv = [
        command,
        f"--f={f}",
        f"--p={p}",
        "--jrho=" + (",".join(map(str, j_rho)) or "none"),
        "--r=" + ",".join(map(str, r)),
        "--lam=" + ",".join(lam),
    ]
    i0 = draw(st.none() | st.integers(-3, f + 2))
    if i0 is not None:
        argv.append(f"--i0={i0}")
    if command == "hilbert":
        argv.append(f"--max-degree={draw(st.integers(-3, 10))}")
    return argv + ["--format=" + draw(st.sampled_from(("text", "json")))]


@settings(max_examples=60, deadline=None)
@given(argv=_inspect_argv())
def test_any_inspection_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
