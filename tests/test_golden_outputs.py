"""Golden outputs of the estimator dispatch.

The estimator subcommands, one small campaign per estimator name and the
query audit must print exactly the texts below. They were captured from the
code before its estimator dispatch was folded into one table, so any change
in an output byte fails here, not only a difference between two runs of the
same code (which is all criterion 12 checks). The outputs that depend on the
number of colors and window samples drawn were recaptured when median
amplification gave way to one pooled sample. The RLE outputs whose planned
sample or search reads reach a quarter of n were recaptured when that share,
not n, became the point where RLE runs scan the whole string. The audit was
recaptured when its ceilings became the read bounds of the runs' plans (a
plan that scans reports n) and each row gained ``vacuous``. ``rle-est --mode
search`` was recaptured when a search began to scan as soon as its reads
pass a quarter of n, inside a round: its first round reads 1526 of 4096
positions, so it now scans and prints the exact cost. When the bucketed
estimator's scan lane began to print the exact cost instead of a sum over
its buckets, no output here moved: ``rle-est --mode bucketed`` scans the
alternating file, where that sum was already the exact cost, and the
bucketed campaign samples. ``lz-est --A 64 --epsilon 0.005``, the one case
here on the LZ window pool, was recaptured when that pool shrank from three
basic samples to one: its reads fell from 1690 to 663 and its estimate
stayed 148.48, while every other LZ output here scans. The audit's
colors-amplified entry read 20 000 of 4096 positions until the audit began
to reject reads outside [0, n], which no run can make; it now reads 4096,
the most a run can, and its row moved from over its vacuous ceiling to
within it.

``compest exact --scheme rle|lz`` prints one JSON part per run or phrase,
megabytes on the 2e5-byte inputs below, so those outputs are pinned by
their sha256 instead of their text.

To recapture after an intended output change, print ``cli_output``,
``campaign_outputs`` and ``audit_output`` for each case and paste them in.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from compest import cli
from compest.campaign import CampaignConfig, run_campaign

# The criterion-12 estimator invocations, plus an lz-est whose window
# sample is smaller than the string (the sampled lane), run on the 4096-byte
# alternating file with --seed 5.
CLI_CASES = [
    "rle-est --mode additive --epsilon 0.1",
    "rle-est --mode bucketed --epsilon 0.2 --delta 0.2",
    "rle-est --mode search",
    "rle-est --mode refined --gamma 0.5",
    "colors-est --lambda 3",
    "colors-est --lambda 3 --delta 0.1",
    "lz-est --A 4 --epsilon 0.1",
    "lz-est --A 64 --epsilon 0.005",
    "lz-distinguish --lo 64 --hi 1024",
]

# One two-trial campaign per estimator name. Omitted parameters pin their
# defaults (delta = 1/3 for rle-bucketed and colors-amplified).
CAMPAIGN_CASES = {
    "rle-additive": ({"epsilon": 0.1}, "run-mix"),
    "rle-bucketed": ({"epsilon": 0.2}, "run-mix"),
    "rle-search": ({}, "run-mix"),
    "rle-refined": ({"gamma": 0.5}, "run-mix"),
    "colors": ({"lambda": 3}, "random-bytes"),
    "colors-amplified": ({"lambda": 3}, "random-bytes"),
    "lz": ({"A": 4, "epsilon": 0.1}, "random-binary"),
}

# One audit entry per estimator name with a ceiling. Omitted keys pin their
# defaults (sigma = 2, delta = 1/3).
AUDIT_ENTRIES = [
    {"estimator": "rle-additive", "n": 4096, "epsilon": 0.1, "queries_used": 1500},
    {"estimator": "rle-bucketed", "n": 4096, "epsilon": 0.2, "sigma": 4, "queries_used": 4000},
    {"estimator": "rle-search", "n": 100_000, "exact": 40_000.0, "queries_used": 99_000},
    {"estimator": "colors", "n": 4096, "lambda": 3, "queries_used": 455},
    {"estimator": "colors-amplified", "n": 4096, "lambda": 3, "delta": 0.1,
     "queries_used": 4096},
    {"estimator": "lz", "n": 4096, "A": 4, "epsilon": 0.1, "queries_used": 4096},
]

# sha256 of the ``exact`` outputs, keyed "SCHEME on INPUT" (see exact_inputs).
EXACT_SHA256 = {
    "rle on random-bytes": "6d3b7e51a0bea839bfc62726c11899d1bbbe58962f3ff5832891b66bf8a1300e",
    "rle on random-binary": "1053cf34feb76b8d837280041bc8528a2485104a5b77a8a73be6fcbd1b7691a3",
    "lz on random-bytes": "43dcff18a9fd043eb4300bfb427f0a0c312c420c830ac9ab83e24cf9a246c8f7",
    "lz on random-binary": "d5d732835bb448b025abb38faed45e1f18bc6ab12a64b50e7b68ad1c7e288199",
}


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code in (0, 1)
    return f"exit {code}\n" + buf.getvalue()


def cli_output(case: str, path: str) -> str:
    return _run_cli(case.split() + ["--seed", "5", path])


def campaign_outputs(name: str) -> tuple[str, str]:
    params, builtin = CAMPAIGN_CASES[name]
    cfg = CampaignConfig(
        estimator=name,
        params=params,
        instance={"kind": "builtin", "name": builtin, "n": 20_000, "seed": 2},
        trials=2,
        base_seed=17,
    )
    result = run_campaign(cfg)
    return json.dumps(result.to_json_dict(), sort_keys=True), result.to_csv_text()


def audit_output(reports_path: str) -> str:
    with open(reports_path, "w", encoding="utf-8") as fh:
        json.dump(AUDIT_ENTRIES, fh)
    return _run_cli(["campaign", "audit", "--reports", reports_path])


@pytest.fixture
def alternating_file(tmp_path):
    path = tmp_path / "w.bin"
    path.write_bytes(bytes((np.arange(4096) % 2).astype(np.uint8)))
    return str(path)


@pytest.fixture(scope="module")
def exact_inputs(tmp_path_factory):
    """2e5 bytes from SHAKE-256 (stable on every platform) and their low bits."""
    raw = np.frombuffer(hashlib.shake_256(b"compest exact golden").digest(200_000), dtype=np.uint8)
    paths = {}
    for name, data in (("random-bytes", raw), ("random-binary", raw & 1)):
        paths[name] = tmp_path_factory.mktemp("exact") / f"{name}.bin"
        paths[name].write_bytes(data.tobytes())
    return paths


@pytest.mark.parametrize("case", sorted(EXACT_SHA256))
def test_exact_output_is_golden(case, exact_inputs):
    scheme, name = case.split(" on ")
    text = _run_cli(["exact", "--scheme", scheme, str(exact_inputs[name])])
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_SHA256[case]


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_estimator_output_is_golden(case, alternating_file):
    assert cli_output(case, alternating_file) == CLI_EXPECTED[case]


@pytest.mark.parametrize("name", sorted(CAMPAIGN_CASES))
def test_campaign_artifacts_are_golden(name):
    assert campaign_outputs(name) == CAMPAIGN_EXPECTED[name]


def test_audit_output_is_golden(tmp_path):
    assert audit_output(str(tmp_path / "reports.json")) == AUDIT_EXPECTED


CLI_EXPECTED = {
    'rle-est --mode additive --epsilon 0.1': (
        'exit 0\n'
        '{\n'
        '  "confidence": 0.6666666666666666,\n'
        '  "epsilon": 0.1,\n'
        '  "estimate": 8192.0,\n'
        '  "lambda": 1.0,\n'
        '  "queries_used": 1839,\n'
        '  "seed": 5\n'
        '}\n'
    ),
    'rle-est --mode bucketed --epsilon 0.2 --delta 0.2': (
        'exit 0\n'
        '{\n'
        '  "confidence": 0.8,\n'
        '  "epsilon": 0.2,\n'
        '  "estimate": 8192.0,\n'
        '  "lambda": 3.0,\n'
        '  "queries_used": 4096,\n'
        '  "seed": 5\n'
        '}\n'
    ),
    'rle-est --mode search': (
        'exit 0\n'
        '{\n'
        '  "confidence": 0.6666666666666666,\n'
        '  "epsilon": 0.0,\n'
        '  "estimate": 8192.0,\n'
        '  "lambda": 4.0,\n'
        '  "queries_used": 4096,\n'
        '  "seed": 5\n'
        '}\n'
    ),
    'rle-est --mode refined --gamma 0.5': (
        'exit 0\n'
        '{\n'
        '  "confidence": 0.6666666666666666,\n'
        '  "epsilon": 0.0,\n'
        '  "estimate": 8192.0,\n'
        '  "lambda": 1.5,\n'
        '  "queries_used": 4096,\n'
        '  "seed": 5\n'
        '}\n'
    ),
    'colors-est --lambda 3': (
        'exit 0\n'
        '{\n'
        '  "confidence": 0.6666666666666666,\n'
        '  "epsilon": 0.0,\n'
        '  "estimate": 6.0,\n'
        '  "lambda": 3.0,\n'
        '  "queries_used": 2722,\n'
        '  "seed": 5\n'
        '}\n'
    ),
    'colors-est --lambda 3 --delta 0.1': (
        'exit 0\n'
        '{\n'
        '  "confidence": 0.9,\n'
        '  "epsilon": 0.0,\n'
        '  "estimate": 6.0,\n'
        '  "lambda": 3.0,\n'
        '  "queries_used": 3959,\n'
        '  "seed": 5\n'
        '}\n'
    ),
    'lz-est --A 4 --epsilon 0.1': (
        'exit 0\n'
        '{\n'
        '  "confidence": 0.6666666666666666,\n'
        '  "epsilon": 0.1,\n'
        '  "estimate": 415.69514967151736,\n'
        '  "lambda": 4.0,\n'
        '  "queries_used": 4096,\n'
        '  "seed": 5\n'
        '}\n'
    ),
    'lz-est --A 64 --epsilon 0.005': (
        'exit 0\n'
        '{\n'
        '  "confidence": 0.6666666666666666,\n'
        '  "epsilon": 0.005,\n'
        '  "estimate": 148.48,\n'
        '  "lambda": 64.0,\n'
        '  "queries_used": 663,\n'
        '  "seed": 5\n'
        '}\n'
    ),
    'lz-distinguish --lo 64 --hi 1024': (
        'exit 0\n'
        '{\n'
        '  "A": 2.0,\n'
        '  "epsilon": 0.03125,\n'
        '  "midpoint": 313.53468707624677,\n'
        '  "report": {\n'
        '    "confidence": 0.6666666666666666,\n'
        '    "epsilon": 0.03125,\n'
        '    "estimate": 132.0,\n'
        '    "lambda": 2.0,\n'
        '    "queries_used": 4096,\n'
        '    "seed": 5\n'
        '  },\n'
        '  "threshold_hi": 1024.0,\n'
        '  "threshold_lo": 64.0,\n'
        '  "verdict": "LOW"\n'
        '}\n'
    ),
}

CAMPAIGN_EXPECTED = {
    'rle-additive': (
        (
            '{"base_seed": 17, "estimator": "rle-additive", "instance": {"kind": "builtin", "'
            'n": 20000, "name": "run-mix", "seed": 2}, "mean_queries": 6186.0, "min_success_r'
            'ate": 0.9, "params": {"epsilon": 0.1}, "rows": [{"contract_pass": 1, "error": ""'
            ', "estimate": 15229.95580808081, "exact": 15522.0, "queries": 6228, "seed": 1813'
            '511692531532696, "trial": 0, "valid": 1}, {"contract_pass": 1, "error": "", "est'
            'imate": 15648.895202020201, "exact": 15522.0, "queries": 6144, "seed": 823120017'
            '7987496774, "trial": 1, "valid": 1}], "success_rate": 1.0, "trials": 2}'
        ),
        (
            'trial,seed,estimate,exact,queries,contract_pass,valid,error\n'
            '0,1813511692531532696,15229.95580808081,15522.0,6228,1,1,\n'
            '1,8231200177987496774,15648.895202020201,15522.0,6144,1,1,\n'
        ),
    ),
    'rle-bucketed': (
        (
            '{"base_seed": 17, "estimator": "rle-bucketed", "instance": {"kind": "builtin", "'
            'n": 20000, "name": "run-mix", "seed": 2}, "mean_queries": 15610.5, "min_success_'
            'rate": 0.9, "params": {"epsilon": 0.2}, "rows": [{"contract_pass": 1, "error": "'
            '", "estimate": 15254.42477876106, "exact": 15522.0, "queries": 15663, "seed": 18'
            '13511692531532696, "trial": 0, "valid": 1}, {"contract_pass": 1, "error": "", "e'
            'stimate": 15431.415929203538, "exact": 15522.0, "queries": 15558, "seed": 823120'
            '0177987496774, "trial": 1, "valid": 1}], "success_rate": 1.0, "trials": 2}'
        ),
        (
            'trial,seed,estimate,exact,queries,contract_pass,valid,error\n'
            '0,1813511692531532696,15254.42477876106,15522.0,15663,1,1,\n'
            '1,8231200177987496774,15431.415929203538,15522.0,15558,1,1,\n'
        ),
    ),
    'rle-search': (
        (
            '{"base_seed": 17, "estimator": "rle-search", "instance": {"kind": "builtin", "n"'
            ': 20000, "name": "run-mix", "seed": 2}, "mean_queries": 20000.0, "min_success_ra'
            'te": 0.9, "params": {}, "rows": [{"contract_pass": 1, "error": "", "estimate": 1'
            '5522.0, "exact": 15522.0, "queries": 20000, "seed": 1813511692531532696, "trial"'
            ': 0, "valid": 1}, {"contract_pass": 1, "error": "", "estimate": 15522.0, "exact"'
            ': 15522.0, "queries": 20000, "seed": 8231200177987496774, "trial": 1, "valid": 1'
            '}], "success_rate": 1.0, "trials": 2}'
        ),
        (
            'trial,seed,estimate,exact,queries,contract_pass,valid,error\n'
            '0,1813511692531532696,15522.0,15522.0,20000,1,1,\n'
            '1,8231200177987496774,15522.0,15522.0,20000,1,1,\n'
        ),
    ),
    'rle-refined': (
        (
            '{"base_seed": 17, "estimator": "rle-refined", "instance": {"kind": "builtin", "n'
            '": 20000, "name": "run-mix", "seed": 2}, "mean_queries": 20000.0, "min_success_r'
            'ate": 0.9, "params": {"gamma": 0.5}, "rows": [{"contract_pass": 1, "error": "", '
            '"estimate": 15522.0, "exact": 15522.0, "queries": 20000, "seed": 181351169253153'
            '2696, "trial": 0, "valid": 1}, {"contract_pass": 1, "error": "", "estimate": 155'
            '22.0, "exact": 15522.0, "queries": 20000, "seed": 8231200177987496774, "trial": '
            '1, "valid": 1}], "success_rate": 1.0, "trials": 2}'
        ),
        (
            'trial,seed,estimate,exact,queries,contract_pass,valid,error\n'
            '0,1813511692531532696,15522.0,15522.0,20000,1,1,\n'
            '1,8231200177987496774,15522.0,15522.0,20000,1,1,\n'
        ),
    ),
    'colors': (
        (
            '{"base_seed": 17, "estimator": "colors", "instance": {"kind": "builtin", "n": 20'
            '000, "name": "random-bytes", "seed": 2}, "mean_queries": 13413.5, "min_success_r'
            'ate": 0.9, "params": {"lambda": 3}, "rows": [{"contract_pass": 1, "error": "", "'
            'estimate": 768.0, "exact": 256.0, "queries": 13403, "seed": 1813511692531532696,'
            ' "trial": 0, "valid": 1}, {"contract_pass": 1, "error": "", "estimate": 768.0, "'
            'exact": 256.0, "queries": 13424, "seed": 8231200177987496774, "trial": 1, "valid'
            '": 1}], "success_rate": 1.0, "trials": 2}'
        ),
        (
            'trial,seed,estimate,exact,queries,contract_pass,valid,error\n'
            '0,1813511692531532696,768.0,256.0,13403,1,1,\n'
            '1,8231200177987496774,768.0,256.0,13424,1,1,\n'
        ),
    ),
    'colors-amplified': (
        (
            '{"base_seed": 17, "estimator": "colors-amplified", "instance": {"kind": "builtin'
            '", "n": 20000, "name": "random-bytes", "seed": 2}, "mean_queries": 13413.5, "min'
            '_success_rate": 0.9, "params": {"lambda": 3}, "rows": [{"contract_pass": 1, "err'
            'or": "", "estimate": 768.0, "exact": 256.0, "queries": 13403, "seed": 1813511692'
            '531532696, "trial": 0, "valid": 1}, {"contract_pass": 1, "error": "", "estimate"'
            ': 768.0, "exact": 256.0, "queries": 13424, "seed": 8231200177987496774, "trial":'
            ' 1, "valid": 1}], "success_rate": 1.0, "trials": 2}'
        ),
        (
            'trial,seed,estimate,exact,queries,contract_pass,valid,error\n'
            '0,1813511692531532696,768.0,256.0,13403,1,1,\n'
            '1,8231200177987496774,768.0,256.0,13424,1,1,\n'
        ),
    ),
    'lz': (
        (
            '{"base_seed": 17, "estimator": "lz", "instance": {"kind": "builtin", "n": 20000,'
            ' "name": "random-binary", "seed": 2}, "mean_queries": 20000.0, "min_success_rate'
            '": 0.9, "params": {"A": 4, "epsilon": 0.1}, "rows": [{"contract_pass": 1, "error'
            '": "", "estimate": 2019.5044789488554, "exact": 1545.0, "queries": 20000, "seed"'
            ': 1813511692531532696, "trial": 0, "valid": 1}, {"contract_pass": 1, "error": ""'
            ', "estimate": 2019.5044789488554, "exact": 1545.0, "queries": 20000, "seed": 823'
            '1200177987496774, "trial": 1, "valid": 1}], "success_rate": 1.0, "trials": 2}'
        ),
        (
            'trial,seed,estimate,exact,queries,contract_pass,valid,error\n'
            '0,1813511692531532696,2019.5044789488554,1545.0,20000,1,1,\n'
            '1,8231200177987496774,2019.5044789488554,1545.0,20000,1,1,\n'
        ),
    ),
}

AUDIT_EXPECTED = (
    'exit 1\n'
    '{\n'
    '  "all_within": false,\n'
    '  "rows": [\n'
    '    {\n'
    '      "ceiling": 405600.0,\n'
    '      "label": "rle-additive",\n'
    '      "queries_used": 1500,\n'
    '      "vacuous": true,\n'
    '      "within": true\n'
    '    },\n'
    '    {\n'
    '      "ceiling": 4096.0,\n'
    '      "label": "rle-bucketed",\n'
    '      "queries_used": 4000,\n'
    '      "vacuous": true,\n'
    '      "within": true\n'
    '    },\n'
    '    {\n'
    '      "ceiling": 45822.94097111732,\n'
    '      "label": "rle-search",\n'
    '      "queries_used": 99000,\n'
    '      "vacuous": false,\n'
    '      "within": false\n'
    '    },\n'
    '    {\n'
    '      "ceiling": 4552.0,\n'
    '      "label": "colors",\n'
    '      "queries_used": 455,\n'
    '      "vacuous": true,\n'
    '      "within": true\n'
    '    },\n'
    '    {\n'
    '      "ceiling": 13656.0,\n'
    '      "label": "colors-amplified",\n'
    '      "queries_used": 4096,\n'
    '      "vacuous": true,\n'
    '      "within": true\n'
    '    },\n'
    '    {\n'
    '      "ceiling": 4096.0,\n'
    '      "label": "lz",\n'
    '      "queries_used": 4096,\n'
    '      "vacuous": true,\n'
    '      "within": true\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
