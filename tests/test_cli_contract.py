"""The CLI contract on fuzzed argument lists, config files and lamination
files: every run exits 0, 1 or 2, and every exit 1 prints a JSON object with
an ``error`` key.

Sizes stay small so the whole property runs in seconds: depth <= 6,
level <= 40, q <= 16, trials <= 2, grid <= 16, and config values are ints
below 10, specials or junk.
"""

import contextlib
import io
import json
import os
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yoccoz.cli import main
from yoccoz.config import Config
from yoccoz.errors import YoccozError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a case-3 lamination file and a private trace cache;
    runs happen inside it, so default output files land there."""
    root = tmp_path_factory.mktemp("contract")
    old_cwd, old_cache = os.getcwd(), os.environ.get("YOCCOZ_CACHE_DIR")
    os.chdir(root)
    os.environ["YOCCOZ_CACHE_DIR"] = str(root / "cache")
    try:
        assert main(["lamination", "--p", "1", "--q", "2", "--theta-v", "222/511",
                     "--depth", "6", "--out", "lam.json"]) == 0
        yield root
    finally:
        os.chdir(old_cwd)
        if old_cache is None:
            del os.environ["YOCCOZ_CACHE_DIR"]
        else:
            os.environ["YOCCOZ_CACHE_DIR"] = old_cache


def num(lo, hi):
    return st.integers(lo, hi).map(str)


junk = st.sampled_from(["", "x", "1/", "/3", "-", "1e3", "nan", "--", "1,2,3"])
angle = st.one_of(st.builds("{}/{}".format, st.integers(-3, 40), st.integers(-2, 40)),
                  num(-2, 3), junk)
point = st.one_of(st.sampled_from(["-1,0", "0,0", "0.282,0.53", "-0.123,0.745", "2,0",
                                   "0,1", "nan,0", "inf,0", "1e300,0"]), junk)
word = st.one_of(st.text(alphabet="01", min_size=1, max_size=4), junk)
LAM = ["--lam", "lam.json"]


def req(flag, values):
    return values.map(lambda v: [flag, v])


def opt(flag, values):
    """An optional flag: absent, or present with one of the values."""
    return st.one_of(st.just([]), req(flag, values))


commands = st.one_of(
    st.tuples(st.just(["lamination"]),
              st.one_of(st.just(["--p", "1", "--q", "2"]),
                        st.tuples(req("--p", num(-1, 16)), req("--q", num(-1, 16))).map(
                            lambda t: sum(t, []))),
              req("--theta-v", angle), req("--depth", num(-1, 6))),
    st.tuples(st.just(["tau"]), st.just(LAM),
              req("--theta", st.one_of(angle, st.just("CRITICAL"))), req("--n", num(-2, 40))),
    st.tuples(st.just(["descendants"]), st.just(LAM), opt("--level", num(-2, 40)),
              opt("--budget", num(-1, 6))),
    st.tuples(st.just(["tile"]),
              st.one_of(st.just(LAM),
                        st.tuples(opt("--p", num(-1, 16)), opt("--q", num(-1, 16)),
                                  opt("--theta-v", angle)).map(lambda t: sum(t, []))),
              req("--level", num(-1, 40)), opt("--max-tile-level", num(-1, 40))),
    st.tuples(st.just(["certify"]), st.just(LAM), opt("--samples", num(0, 2)),
              opt("--depth", num(-1, 6))),
    st.tuples(st.just(["renorm"]), st.just(LAM), opt("--budget", num(-1, 40))),
    st.tuples(st.just(["tune"]), req("--a0", word), req("--a1", word), req("--theta", angle)),
    st.tuples(st.just(["trace"]), req("--c", point), req("--theta", angle)),
    # render draws a ray per vertex of every piece: the level stays at most 2
    st.tuples(st.just(["render"]), st.just(LAM), req("--c", point), req("--level", num(-1, 2))),
    st.tuples(st.just(["qc"]), st.sampled_from([["phi"], ["strip"], ["diamond"]]),
              opt("--depth", num(-1, 6)), opt("--grid", num(-1, 16))),
    st.tuples(st.just(["sobolev", "verify"]), opt("--depth", num(-1, 6)),
              opt("--trials", num(0, 2))),
).map(lambda parts: sum(parts, []))

# usage errors: a stray token, or a required value dropped
mangle = st.sampled_from([lambda a: a] * 4 + [lambda a: a + ["--bogus"], lambda a: a[:-1]])
argv = st.tuples(opt("--seed", num(-1, 9)), commands, mangle).map(lambda t: t[0] + t[2](t[1]))


def run(args):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(args):
    code, out, _ = run(args)
    assert code in (0, 1, 2), (args, code)
    if code == 1:
        err = json.loads(out)
        assert isinstance(err, dict) and "error" in err, (args, out)


@settings(max_examples=200, deadline=None)
@given(args=argv)
def test_cli_exit_codes_and_error_objects(workdir, args):
    check_contract(args)


# config files: a few Config keys set to small valid ints, at most one key set
# to zero, a negative, a non-finite float or junk, and now and then a comment
# or a malformed line; every cheap command runs under each file
CONFIG_KEYS = [f.name for f in fields(Config)]
odd_value = st.one_of(num(-2, 0), st.sampled_from(["nan", "inf", "-inf"]),
                      st.sampled_from(["1.5", "", "x", "1/2", "--", "0x10"]))
config_text = st.tuples(
    st.dictionaries(st.sampled_from(CONFIG_KEYS), num(1, 9), max_size=3),
    st.one_of(st.just({}), st.tuples(st.sampled_from(CONFIG_KEYS), odd_value).map(
        lambda kv: dict([kv]))),
    st.one_of(st.just([]), st.just(["# comment"]),
              st.sampled_from(["no equals sign", "bogus_key = 1", "= 3"]).map(lambda x: [x])),
).map(lambda t: "\n".join([f"{k} = {v}" for k, v in {**t[0], **t[1]}.items()] + t[2]) + "\n")
CHEAP_COMMANDS = [
    ["trace", "--c=-0.123,0.745", "--theta", "1/7"],
    ["sobolev", "verify", "--trials", "1", "--depth", "3"],
    ["qc", "strip"],
    ["tau", *LAM, "--theta", "CRITICAL", "--n", "12"],
]


@settings(max_examples=300, deadline=None)
@given(text=config_text)
def test_cli_contract_on_fuzzed_config_files(workdir, text):
    with open("fuzz.cfg", "w") as fh:
        fh.write(text)
    for args in CHEAP_COMMANDS:
        check_contract(["--config", "fuzz.cfg", *args])


# lamination files: the valid file with one key dropped or set to junk, a
# JSON document of another shape, or text that is not JSON
def subclass_names(cls):
    return {cls.__name__}.union(*(subclass_names(sub) for sub in cls.__subclasses__()))


YOCCOZ_ERRORS = subclass_names(YoccozError)
LAM_KEYS = ["p", "q", "theta_v", "depth", "sector", "critical_leaf", "polygons", "version"]
json_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
                      st.text(max_size=6), angle, st.lists(st.integers(0, 3), max_size=3),
                      st.just({}))
lam_edit = st.one_of(
    st.sampled_from(LAM_KEYS).map(lambda key: ("drop", key, None)),
    st.tuples(st.just("set"), st.sampled_from(LAM_KEYS), json_junk),
    json_junk.map(lambda doc: ("replace", None, doc)),
    st.integers(0, 400).map(lambda cut: ("truncate", cut, None)),
)


@settings(max_examples=200, deadline=None)
@given(edit=lam_edit)
def test_cli_contract_on_fuzzed_lamination_files(workdir, edit):
    """No traceback and nothing on stderr: a malformed file exits 1 with a
    YoccozError (a subclass, such as Case1DegenerateError, when the edited
    theta_v is one the rebuild rejects)."""
    with open("lam.json") as fh:
        text = fh.read()
    kind, key, value = edit
    if kind == "truncate":
        text = text[:key]
    else:
        data = json.loads(text)
        if kind == "drop":
            data.pop(key, None)
        elif kind == "set":
            data[key] = value
        else:
            data = value
        text = json.dumps(data)
    with open("fuzz_lam.json", "w") as fh:
        fh.write(text)
    for args in (["tau", "--lam", "fuzz_lam.json", "--theta", "CRITICAL", "--n", "12"],
                 ["renorm", "--lam", "fuzz_lam.json", "--budget", "4"]):
        code, out, err = run(args)
        assert code in (0, 1) and err == "", (edit, code, err)
        if code == 1:
            assert json.loads(out)["error"] in YOCCOZ_ERRORS, (edit, out)
