import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import settings, given, strategies as st

from dp6kit import dp6
from dp6kit.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_brauer_index(capsys):
    code, out = _run(capsys, ["brauer", "index", '{"primes":{"7":"1/6","13":"5/6"}}'])
    assert code == 0
    assert json.loads(out) == {"schema": "dp6kit/1", "index": 6}


def test_surface_count(capsys):
    code, out = _run(capsys, ["surface", "count", "--model", "split", "--q", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 13 and data["predicted"] == 13


def test_hexagon_report_all(capsys):
    code, out = _run(capsys, ["hexagon", "--all-subgroups"])
    assert code == 0
    data = json.loads(out)
    assert len(data["reports"]) == 16
    assert all(r["h1"] == [] for r in data["reports"])


@pytest.mark.parametrize("subgroup", ["-1", "16", "99"])
def test_hexagon_subgroup_out_of_range(capsys, subgroup):
    code, out = _run(capsys, ["hexagon", "--subgroup", subgroup])
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "Dp6kitError" and "outside 0..15" in data["message"]


def test_surface_unknown_model_builds_nothing(capsys, monkeypatch):
    def no_build(field):
        raise AssertionError("twists built for an unknown model")
    monkeypatch.setattr(dp6, "standard_twists", no_build)
    code, out = _run(capsys, ["surface", "count", "--model", "nope", "--q", "7"])
    assert code == 1
    assert json.loads(out) == {
        "schema": "dp6kit/1", "error": "Dp6kitError",
        "message": f"unknown model nope; choose from {dp6.TWIST_NAMES}"}


def test_surface_lines_non_injective_coordinates(capsys, monkeypatch):
    # two coordinates with the same image: a refusal, not an assert
    real = dp6._sigma_matrices

    def collapsed(surface, big):
        sig = real(surface, big)
        return [sig[0], sig[0]] + sig[2:]
    monkeypatch.setattr(dp6, "_sigma_matrices", collapsed)
    code, out = _run(capsys, ["surface", "lines", "--model", "split", "--q", "2"])
    assert code == 1
    assert json.loads(out) == {
        "schema": "dp6kit/1", "error": "WrongLineCount",
        "message": "coordinate map must be injective"}


_SRC = os.path.dirname(os.path.dirname(dp6.__file__))


def _fresh_process(args, **env):
    """Stdout of `python args...` in a fresh interpreter with dp6kit on the path."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": _SRC, **env}).stdout


def _loaded_by_cli_import(modules, commands=()):
    """Which of the modules a fresh `import dp6kit.cli` loads, after running
    cli.main on each of the commands (their stdout discarded)."""
    probe = ("import contextlib, io, sys\n"
             "from dp6kit.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    codes = [main(argv) for argv in {list(commands)!r}]\n"
             "print(codes)\n"
             f"print([m for m in {modules!r} if m in sys.modules])")
    codes, loaded = _fresh_process(["-c", probe]).splitlines()
    assert codes == str([0] * len(commands))
    return loaded


def test_cli_import_leaves_numpy_unloaded():
    assert _loaded_by_cli_import(["numpy"]) == "[]"


def test_surface_commands_leave_fractions_unloaded():
    commands = [["surface", "build", "--model", "split", "--q", "2"],
                ["surface", "frobenius", "--model", "kinert-l3", "--q", "2"],
                ["surface", "check-zeta", "--model", "ksplit-l21", "--q", "2"]]
    assert _loaded_by_cli_import(["fractions"], commands) == "[]"


def test_surface_counts_leave_numpy_unloaded():
    commands = [["surface", "count", "--model", "kinert-l21", "--q", "2"],
                ["surface", "check-zeta", "--model", "split", "--q", "3"]]
    assert _loaded_by_cli_import(["numpy"], commands) == "[]"


def test_cli_import_leaves_proofkit_and_selftest_unloaded():
    assert _loaded_by_cli_import(["dp6kit.proofkit", "dp6kit.selftest"]) == "[]"


def _layers(*names):
    return [f"dp6kit.{name}" for name in names]


# surface commands and Brauer classes are plain classes: no dataclasses
@pytest.mark.parametrize("commands, unloaded", [
    ([], _layers("fields", "algebra3", "dp6", "hexagon", "intlattice", "brauer")),
    ([["surface", "build", "--model", "ksplit-l3", "--q", "2"],
      ["surface", "lines", "--model", "kinert-l21", "--q", "2"]],
     _layers("brauer", "hexagon", "intlattice") + ["dataclasses"]),
    ([["surface", "count", "--model", "split", "--q", "2"],
      ["surface", "frobenius", "--model", "kinert-l3", "--q", "2"],
      ["surface", "check-zeta", "--model", "ksplit-l21", "--q", "2"]],
     _layers("brauer", "intlattice") + ["dataclasses"]),
    ([["lattice", "snf", "[[2,0],[0,3]]"]], _layers("dp6", "algebra3", "brauer")),
    ([["brauer", "index", '{"primes":{"7":"1/6","13":"5/6"}}']],
     _layers("dp6", "algebra3", "hexagon") + ["dataclasses"]),
    ([["replay", "--proof", "first", "--corollary",
       "--algebra", '{"primes":{"7":"1/6","13":"5/6"}}'],
      ["replay", "--proof", "second", "--transcript",
       "--algebra", '{"primes":{"7":"1/6","13":"5/6"}}']],
     _layers("dp6", "algebra3", "hexagon", "intlattice")),
], ids=["import", "surface build|lines", "surface count|frobenius|check-zeta",
        "lattice", "brauer", "replay"])
def test_subcommands_load_only_their_layers(commands, unloaded):
    assert _loaded_by_cli_import(unloaded, commands) == "[]"


@pytest.mark.parametrize("argv", [
    ["lattice", "snf", "[[0.5]]"],
    ["lattice", "snf", "[[2.5,1],[0,3]]"],
    ["lattice", "hnf", "[[true,2]]"],
    ["lattice", "snf", "[1,2]"],
    ["lattice", "snf", "[]"],
    ["lattice", "snf", "[[]]"],
    ["brauer", "index", "[1]"],
    ["brauer", "index", '{"primes":[1]}'],
    ["brauer", "index", '{"primes":{"7":"1/0"}}'],
    ["brauer", "index", '{"primes":{"7":[1]}}'],
    ["brauer", "hilbert", '{"a":1,"b":1,"place":[1]}'],
    ["brauer", "corestriction", '{"classK":{"d":5,"inf":5}}'],
    ["brauer", "involution", '{"classK":{"d":5,"primes":{"7":"1/2"}}}'],
    ["replay", "--proof", "first", "--algebra", "[1]"],
    # a payload that begins with "-" is a value, not an option
    ["brauer", "index", "-1e+20"],
    ["lattice", "snf", "-1e3"],
    ["replay", "--proof", "first", "--algebra", "-1e+20"],
], ids=lambda argv: " ".join(argv[:2] + argv[-1:]))
def test_malformed_payload_gives_error_json(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "Dp6kitError" and "must be a JSON" in data["message"]


@pytest.mark.parametrize("argv, message", [
    (["brauer", "index", '{"primes":{"7":"1/3","07":"1/3","13":"1/3"}}'],
     "prime key '07' is not the canonical decimal 7"),
    (["brauer", "index", '{"primes":{"+7":"1/3","13":"2/3"}}'],
     "prime key '+7' is not the canonical decimal 7"),
    (["brauer", "index", '{"primes":{" 13":"1/3","7":"2/3"}}'],
     "prime key ' 13' is not the canonical decimal 13"),
    (["brauer", "index", '{"primes":{"7":"1/3","7":"1/3","13":"1/3"}}'],
     "JSON object names the key '7' twice"),
    (["brauer", "order3", '{"primes":{"7":"1/3","13":"1/3","013":"1/3"}}'],
     "prime key '013' is not the canonical decimal 13"),
    (["brauer", "corestriction",
      '{"classK":{"d":2,"primes":{"5":["1/2"],"5":["1/2"],"13":["1/2"]}}}'],
     "JSON object names the key '5' twice"),
    (["replay", "--proof", "first", "--algebra",
      '{"primes":{"7":"1/6","13":"5/6"},"primes":{"5":"1/6","7":"5/6"}}'],
     "JSON object names the key 'primes' twice"),
], ids=lambda x: x if isinstance(x, str) else x[1])
def test_prime_named_twice_or_not_canonically_is_refused(capsys, argv, message):
    code, out = _run(capsys, argv)
    assert code == 1
    assert json.loads(out) == {"schema": "dp6kit/1", "error": "Dp6kitError",
                               "message": message}


# entries that are zero are checked like any other: a key that names no
# place, or a slot list of the wrong length, is refused
@pytest.mark.parametrize("argv, message", [
    (["brauer", "index", '{"primes":{"4":"0","1":"3/3"}}'], "not a place of Q: 1"),
    (["brauer", "corestriction",
      '{"classK":{"d":2,"primes":{"7":["0","0","0"],"4":["0"]}}}'], "not a place of Q: 4"),
    (["brauer", "corestriction", '{"classK":{"d":2,"primes":{"7":["0","0","0"]}}}'],
     "place 7 needs 2 slot(s)"),
    (["brauer", "involution", '{"classK":{"d":2,"primes":{"7":[]}}}'],
     "place 7 needs 2 slot(s)"),
], ids=["index", "corestriction-place", "corestriction-slots", "involution-empty"])
def test_zero_entries_are_checked_before_they_are_dropped(capsys, argv, message):
    code, out = _run(capsys, argv)
    assert code == 1
    assert json.loads(out) == {"schema": "dp6kit/1", "error": "ValueError",
                               "message": message}


# a class payload without "primes" is read as "primes": {}, by every op
@pytest.mark.parametrize("op, stdout", [
    ("order3", '{"class":{"primes":{}},"schema":"dp6kit/1"}'),
    ("inverse", '{"class":{"primes":{}},"schema":"dp6kit/1"}'),
    ("index", '{"index":1,"schema":"dp6kit/1"}'),
    ("is-split", '{"schema":"dp6kit/1","split":true}'),
], ids=["order3", "inverse", "index", "is-split"])
def test_missing_primes_is_read_as_empty(capsys, op, stdout):
    assert _run(capsys, ["brauer", op, "{}"]) == (0, stdout + "\n")


MERSENNE_61 = str(2**61 - 1)


@pytest.mark.parametrize("argv, answer", [
    (["brauer", "index", '{"primes":{"%s":"1/2","7":"1/2"}}' % MERSENNE_61],
     {"index": 2}),
    (["brauer", "hilbert", '{"a":2,"b":3,"place":"%s"}' % MERSENNE_61],
     {"symbol": 1}),
], ids=["index", "hilbert"])
def test_large_prime_place_answers_at_once(argv, answer):
    _answers_at_once(argv, answer)


def _answers_at_once(argv, answer, code=0):
    done = subprocess.run([sys.executable, "-m", "dp6kit.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": _SRC})
    assert done.returncode == code
    assert json.loads(done.stdout) == {"schema": "dp6kit/1", **answer}


@pytest.mark.parametrize("argv, answer", [
    (["brauer", "quaternion", '{"a":"%s","b":3}' % MERSENNE_61],
     {"class": {"primes": {"2": "1/2", MERSENNE_61: "1/2"}}}),
    (["brauer", "quaternion", '{"a":"1000000016000000063","b":3}'],  # 1000000007 * 1000000009
     {"class": {"primes": {"2": "1/2", "3": "1/2"}}}),
    (["brauer", "restriction", '{"class":{"primes":{}},"d":%s}' % MERSENNE_61],
     {"classK": {"d": 2**61 - 1, "inf": ["0", "0"], "primes": {}}}),
], ids=["quaternion-prime", "quaternion-semiprime", "restriction"])
def test_large_factorisations_answer_at_once(argv, answer):
    _answers_at_once(argv, answer)


@pytest.mark.parametrize("argv, field", [
    (["surface", "build", "--q", MERSENNE_61], f"{MERSENNE_61}^1"),
    (["surface", "build", "--q", "8388617"], "8388617^1"),
    # GF(2053) fits, but K = GF(2053^2) does not: refused before any twist
    (["surface", "build", "--model", "split", "--q", "2053"], "2053^2"),
], ids=["mersenne-61", "prime-over-cap", "square-over-cap"])
def test_large_q_is_refused_at_once(argv, field):
    _answers_at_once(argv, {"error": "ValueError", "message": (
        f"GF({field}) is too large for its log tables (more than 4194304 elements)")},
        code=1)


BOUND = "3317044064679887385961981"


@pytest.mark.parametrize("argv", [
    ["brauer", "index", '{"primes":{"%s":"1/2","7":"1/2"}}' % BOUND],
    ["brauer", "hilbert", '{"a":2,"b":3,"place":"%s"}' % BOUND],
], ids=["index", "hilbert"])
def test_place_at_the_primality_bound_is_refused(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 1
    assert json.loads(out) == {
        "schema": "dp6kit/1", "error": "Dp6kitError",
        "message": f"{BOUND} is too large: primality is decided only below {BOUND}"}


def test_surface_count_over_budget(capsys):
    # check-zeta counts k = 1 at least, so a q over the budget is refused, not
    # passed with no records
    for argv, field, points in (
            (["count", "--model", "split", "--q", "2", "--k", "24"], 2 ** 24,
             (2 ** 168 - 1) // (2 ** 24 - 1)),
            (["count", "--model", "ksplit-l3", "--q", "64"], 64, 69810262081),
            (["check-zeta", "--model", "kinert-l3", "--q", "11"], 11, 1948717)):
        code, out = _run(capsys, ["surface", *argv])
        assert code == 1
        assert json.loads(out) == {
            "schema": "dp6kit/1", "error": "EnumerationBudgetExceeded",
            "message": f"|P^6(F_{field})| = {points} exceeds the budget 600000"}


@pytest.mark.parametrize("k", ["0", "-1"])
def test_surface_count_refuses_k_below_one(capsys, k):
    code, out = _run(capsys, ["surface", "count", "--model", "split", "--q", "2",
                              "--k", k])
    assert code == 1
    assert json.loads(out) == {"schema": "dp6kit/1", "error": "Dp6kitError",
                               "message": f"k must be >= 1, got {k}"}


def test_lattice_snf(capsys):
    code, out = _run(capsys, ["lattice", "snf", "[[2,0],[0,3]]"])
    assert code == 0
    data = json.loads(out)
    assert data["S"] == [["1", "0"], ["0", "6"]]


def test_replay_json(capsys):
    code, out = _run(capsys, ["replay", "--proof", "second", "--algebra",
                              '{"primes":{"7":"1/6","13":"5/6"}}'])
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["certificate"]["contradiction"] is True


def test_replay_transcript(capsys):
    code, out = _run(capsys, ["replay", "--proof", "first", "--algebra",
                              '{"primes":{"7":"1/6","13":"5/6"}}', "--transcript"])
    assert code == 0
    assert "[VERIFIED]" in out and "verdict" in out


def test_domain_error_exit_code(capsys):
    code, out = _run(capsys, ["replay", "--proof", "first", "--algebra",
                              '{"primes":{"7":"1/2","11":"1/2"}}'])
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "IndexMismatch"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["surface", "count", "--nonsense"])
    assert exc.value.code == 2


def test_determinism_byte_identical(capsys):
    argv = ["surface", "check-zeta", "--model", "kinert-l21", "--q", "2"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second
    data = json.loads(first)
    assert data["all_ok"] is True


# sha256 of the full selftest's stdout.  Update it only together with a
# declared stdout change.
_SELFTEST_STDOUT_SHA256 = "0cd00951278a95b2ae72fc056267b3f36e017c2cd9c7de9b2cbe6903323ba8b6"


def test_selftest_stdout_is_identical_across_hash_seeds():
    # the two interpreters run side by side
    procs = [subprocess.Popen([sys.executable, "-m", "dp6kit.cli", "selftest"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              env={**os.environ, "PYTHONPATH": _SRC, "PYTHONHASHSEED": seed})
             for seed in ("1", "987")]
    first, second = (proc.communicate(timeout=120)[0] for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0]
    assert json.loads(first)["all_passed"] is True
    assert first == second
    assert hashlib.sha256(first.encode()).hexdigest() == _SELFTEST_STDOUT_SHA256


def test_selftest_refuses_an_empty_selection(capsys):
    code, out = _run(capsys, ["selftest", "--filter", "nothing"])
    assert code == 1
    assert json.loads(out) == {"schema": "dp6kit/1", "error": "Dp6kitError",
                               "message": "filter 'nothing' selects no criterion"}


def test_selftest_filter(capsys):
    code = main(["selftest", "--filter", "brauer"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert [r["id"] for r in report["results"]] == ["1", "2", "3"]
    lines = captured.err.splitlines()
    assert len(lines) == 3
    for r, line in zip(report["results"], lines):
        assert re.fullmatch(rf"\[PASS\] criterion {r['id']}: {re.escape(r['name'])}"
                            r" \(\d+\.\d\ds\)", line), line


# sha256 of the concatenated stdout of every surface action x twist at
# q = 2..5: any change to a byte of the surface CLI's output fails here.
# Update it only together with a declared stdout change.
_SURFACE_COMMANDS = [["surface", action, "--model", model, "--q", str(q)]
                     for q in (2, 3, 4, 5)
                     for action in ("build", "count", "lines", "frobenius", "check-zeta")
                     for model in dp6.TWIST_NAMES]
_SURFACE_STDOUT_SHA256 = "20831bac6cc2d988bb522f78f637e1ba91e703b3a6e9dbdb73b4e40ad050005e"


def test_surface_stdout_matches_recorded_digest(capsys):
    digest = hashlib.sha256()
    for argv in _SURFACE_COMMANDS:
        code, out = _run(capsys, argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert len(_SURFACE_COMMANDS) == 120
    assert digest.hexdigest() == _SURFACE_STDOUT_SHA256


# sha256 of `surface build` stdout for every twist at larger q, emitted in
# process from one standard_twists call per q (the CLI builds all six for each
# command).  Update it only together with a declared stdout change.
_LARGE_Q = (7, 8, 9, 11, 16, 25, 27, 32, 49, 64)
_LARGE_Q_BUILD_SHA256 = "233a902ab24129bbe3138ff1116db7a0824609564ba58f49c92c96b6a7a3bee8"


def test_large_q_build_stdout_matches_recorded_digest(capsys):
    from dp6kit.cli import _emit
    from dp6kit.fields import GF
    digest = hashlib.sha256()
    for q in _LARGE_Q:
        twists = dp6.standard_twists(GF(*dp6._parse_prime_power(q)))
        for name in dp6.TWIST_NAMES:
            _emit(twists[name].descriptor_json())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _LARGE_Q_BUILD_SHA256


# sha256 of the exit codes and concatenated stdout of these commands: the
# Q-side twin of the surface digest above.  It pins the replays (JSON,
# corollary, transcript) on three index-6 classes and every brauer op,
# refusals included.  Update it only together with a declared stdout change.
_INDEX6_CLASSES = ('{"primes":{"7":"1/6","13":"5/6"}}',
                   '{"inf":"1/2","primes":{"2":"1/2","7":"1/3","13":"2/3"}}',
                   '{"primes":{"5":"5/6","11":"1/2","17":"2/3"}}')
_BRAUER_PAYLOADS = (
    ("index", '{"primes":{"7":"1/6","13":"5/6"}}'),
    ("index", '{"primes":{"7":"7/6","13":"-1/6"}}'),
    ("index", '{"primes":{"7":"1/3"}}'),
    ("index", '{"inf":"1/3","primes":{"7":"2/3"}}'),
    ("tensor", '{"left":{"inf":"1/2","primes":{"2":"1/2"}},'
               '"right":{"primes":{"7":"1/6","13":"5/6"}}}'),
    ("tensor", '{"left":{"primes":{"7":"1/6","13":"5/6"}},'
               '"right":{"primes":{"7":"5/6","13":"1/6"}}}'),
    ("inverse", '{"inf":"1/2","primes":{"2":"1/2","7":"1/3","13":"2/3"}}'),
    ("is-split", '{"primes":{"7":"1/3","13":"2/3"}}'),
    ("is-split", '{"primes":{"7":"1","13":"-2"}}'),
    ("quaternion", '{"a":-1,"b":"-3/5"}'),
    ("quaternion", '{"a":"0","b":5}'),
    ("order3", '{"primes":{"7":"1/3","13":"2/3"}}'),
    ("order3", '{"primes":{"7":"1/2","13":"1/2"}}'),
    ("hilbert", '{"a":-1,"b":-1,"place":2}'),
    ("hilbert", '{"a":"2/3","b":-5,"place":"inf"}'),
    ("splitting", '{"d":-7,"place":"2"}'),
    ("restriction", '{"class":{"primes":{"5":"5/6","11":"1/2","17":"2/3"}},"d":2}'),
    ("restriction", '{"class":{"inf":"1/2","primes":{"2":"1/2","7":"1/3",'
                    '"13":"2/3"}},"d":-1}'),
    ("restriction", '{"class":{"primes":{"7":"1/6","13":"5/6"}}}'),
    ("corestriction", '{"classK":{"d":2,"inf":["0","0"],'
                      '"primes":{"7":["1/3","1/3"],"13":["1/3"]}}}'),
    ("corestriction", '{"classK":{"inf":["1/2","1/2"],'
                      '"primes":{"2":["1/2","-1/2"],"7":["1/3","5/3"]}}}'),
    ("corestriction", '{"classK":{"d":-1,"inf":["1/2"]}}'),
    ("corestriction", '{"classK":{"d":5,"primes":{"7":["1/3"]}}}'),
    ("involution", '{"classK":{"d":2,"primes":{"7":["1/3","2/3"]}}}'),
    ("involution", '{"classK":{"d":2,"inf":["0","0"],'
                   '"primes":{"7":["1/3","1/3"],"13":["1/3"]}}}'),
    ("decompose", '{"primes":{"5":"5/6","11":"1/2","17":"2/3"}}'),
    ("decompose", '{"primes":{"5":"1/5","11":"4/5"}}'),
    ("chatelet", '{"inf":"1/2","primes":{"2":"1/2","7":"1/3","13":"2/3"}}'),
)
_Q_SIDE_COMMANDS = (
    [["replay", "--proof", proof, "--algebra", algebra, *flags]
     for proof in ("first", "second")
     for algebra in _INDEX6_CLASSES
     for flags in ([], ["--corollary"], ["--transcript"],
                   ["--corollary", "--transcript"])]
    + [["brauer", op, payload] for op, payload in _BRAUER_PAYLOADS])
_Q_SIDE_STDOUT_SHA256 = "e03b1d2545fc1865911fef94b5a1cf875a3d429aef39cb46d8ba2e94075a783a"


def test_q_side_stdout_matches_recorded_digest(capsys):
    digest = hashlib.sha256()
    for argv in _Q_SIDE_COMMANDS:
        code, out = _run(capsys, argv)
        digest.update(f"{code}\n{out}".encode())
    assert len({op for op, _ in _BRAUER_PAYLOADS}) == 13  # every brauer op
    assert len(_Q_SIDE_COMMANDS) == 52
    assert digest.hexdigest() == _Q_SIDE_STDOUT_SHA256


# sha256 of `hexagon --all-subgroups` stdout, and of the concatenated stdout
# of `hexagon --subgroup 0` .. `--subgroup 15`.  Update them only together
# with a declared stdout change.
_HEXAGON_ALL_STDOUT_SHA256 = "294ad43fbe8f2eed8011833a11a430115cc254b517093cae4674e40834ebe67a"
_HEXAGON_EACH_STDOUT_SHA256 = "1e8710d68314643e32debf1a6ae5ccdcfeaf1f6583d493ce77ed5408a509fee0"


def test_hexagon_stdout_matches_recorded_digests(capsys):
    code, out = _run(capsys, ["hexagon", "--all-subgroups"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _HEXAGON_ALL_STDOUT_SHA256
    digest = hashlib.sha256()
    for index in range(16):
        code, out = _run(capsys, ["hexagon", "--subgroup", str(index)])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == _HEXAGON_EACH_STDOUT_SHA256


# ---------------------------------------------------------------------------
# any JSON payload: one line of schema JSON on stdout, exit 0 or 1

_INTS = st.one_of(
    st.integers(-50, 50),
    st.integers(-2**90, 2**90),
    st.sampled_from([2**61 - 1, 1000000007 * 1000000009, int(BOUND), int(BOUND) + 2]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), _INTS, _INTS.map(str), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds("{}/{}".format, st.integers(-13, 13), st.integers(0, 13)))
_KEYS = st.one_of(
    st.sampled_from(["a", "b", "d", "place", "class", "classK", "left", "right",
                     "primes", "inf", "2", "3", "7", "13", "07", "+7"]),
    _INTS.map(str), st.text(max_size=4))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=12)
_PRIMES = st.dictionaries(_KEYS, _SCALARS | st.lists(_SCALARS, max_size=3), max_size=4)
_CLASS = st.fixed_dictionaries(
    {}, optional={"d": _SCALARS, "inf": _SCALARS | st.lists(_SCALARS, max_size=3),
                  "primes": _PRIMES})
_PAYLOAD = st.one_of(_JSON, _CLASS, st.fixed_dictionaries({}, optional={
    "a": _SCALARS, "b": _SCALARS, "d": _SCALARS, "place": _SCALARS,
    "class": _CLASS, "classK": _CLASS, "left": _CLASS, "right": _CLASS,
    "primes": _PRIMES}))
_BRAUER_OPS = sorted({op for op, _ in _BRAUER_PAYLOADS})  # all 13


def _argument(values):
    """JSON text of the values, as one command-line argument."""
    return values.map(json.dumps)


_ARGV = st.one_of(
    st.tuples(st.just("brauer"), st.sampled_from(_BRAUER_OPS), _argument(_PAYLOAD)),
    st.tuples(st.just("lattice"), st.sampled_from(["snf", "hnf", "kernel"]),
              _argument(st.lists(st.lists(_INTS, max_size=3), max_size=3) | _JSON)),
    st.tuples(st.just("replay"), st.just("--proof"), st.sampled_from(["first", "second"]),
              st.just("--algebra"), _argument(_CLASS | _JSON))
    | st.tuples(st.just("replay"), st.just("--corollary"), st.just("--proof"),
                st.sampled_from(["first", "second"]), st.just("--algebra"),
                _argument(_CLASS | _JSON)))


@settings(max_examples=400, deadline=None)
@given(argv=_ARGV)
def test_any_payload_gives_schema_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    line, = out.getvalue().splitlines()
    data = json.loads(line)
    assert data["schema"] == "dp6kit/1"
    assert code == (1 if "error" in data else 0)
