"""Command-line front end.

Subcommands: ``exact``, ``rle-est``, ``colors-est``, ``lz-est``,
``lz-distinguish``, ``gen``, ``campaign run``, ``campaign audit``. Inputs are
raw byte files; the alphabet size defaults to the number of distinct bytes
unless ``--alphabet-size`` overrides it. All stochastic subcommands take
``--seed`` (default from $COMPEST_SEED, else 0) and print deterministic JSON:
replaying with the same seed reproduces the output byte for byte.

Exit codes, for every subcommand: 0 when done; 1 only when ``campaign run``
measures a success rate below ``min_success_rate`` or a ``campaign audit`` row
reads past its ceiling; 2 for a usage or input fault, which prints one
``compest: error: <message>`` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .accessor import QueryCountedString, distinct_count
from .campaign import ESTIMATORS, CampaignConfig, audit_queries, run_campaign, write_result
from .generators import FAMILIES, GeneratorSpec
from .lz import distinguish_compressible
from .oracles import (
    exact_color_count,
    exact_distinct_substrings,
    exact_lz_cost,
    rle_part_chunks,
    rle_total_cost,
)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


_PART = '    {\n      "cost": %d,\n      "length": %d,\n      "start": %d\n    }'
_CHUNK = 1 << 12  # parts formatted per write, and symbols per run chunk of an RLE breakdown


def _emit_breakdown(scheme: str, parts) -> None:
    """Print what ``_emit`` prints for a breakdown's scheme, total_cost and
    list of part dicts, written from ``parts``, an iterable of (starts,
    lengths, costs) column chunks, ``_CHUNK`` parts at a time, so neither
    the text nor the columns need to exist whole. total_cost, the sum of
    the costs, comes last, as the keys sort."""
    out = sys.stdout
    out.write('{\n  "parts": [')
    sep = "\n"
    total = 0
    for starts, lengths, costs in parts:
        total += int(costs.sum())
        for lo in range(0, starts.size, _CHUNK):
            rows = zip(*(col[lo : lo + _CHUNK].tolist() for col in (costs, lengths, starts)))
            out.write(sep + ",\n".join(map(_PART.__mod__, rows)))
            sep = ",\n"
    out.write("]" if sep == "\n" else "\n  ]")
    out.write(f',\n  "scheme": {json.dumps(scheme)},\n  "total_cost": {total}\n}}\n')


def _cmd_exact(args) -> int:
    acc = QueryCountedString.from_file(args.file, args.alphabet_size)
    data = acc.session().read_all()
    if args.scheme == "rle":
        _emit_breakdown("rle", rle_part_chunks(data, acc.alphabet_size, _CHUNK))
    elif args.scheme == "lz":
        b = exact_lz_cost(data)
        _emit_breakdown(b.scheme, [(b.starts, b.lengths, b.costs)])
    elif args.scheme == "distinct":
        if args.ell is None:
            raise ValueError("--ell is required with --scheme distinct")
        _emit({"ell": args.ell, "count": exact_distinct_substrings(data, args.ell)})
    else:
        _emit({"colors": exact_color_count(data)})
    return 0


def _cmd_estimate(args) -> int:
    """Run one ESTIMATORS row; the option names are its params keys."""
    if args.command == "rle-est":
        name = f"rle-{args.mode}"
    elif args.command == "colors-est":
        name = "colors" if args.delta is None else "colors-amplified"
    else:
        name = "lz"
    acc = QueryCountedString.from_file(args.file, args.alphabet_size)
    _emit(ESTIMATORS[name].run(acc, vars(args), args.seed).to_json_dict())
    return 0


def _cmd_lz_distinguish(args) -> int:
    acc = QueryCountedString.from_file(args.file, args.alphabet_size)
    result = distinguish_compressible(acc, args.lo, args.hi, args.seed)
    _emit(result.to_json_dict())
    return 0


def _token_bytes(arr: np.ndarray) -> tuple[bytes, int]:
    """Fixed-width little-endian token encoding; width 1 when symbols fit a byte."""
    high = int(arr.max())
    width = max(1, (max(high, 1).bit_length() + 7) // 8)
    if width == 1:
        return arr.astype(np.uint8).tobytes(), 1
    return arr.astype(f"<u{width}").tobytes(), width


def _cmd_gen(args) -> int:
    """Build one GeneratorSpec; the option names are its params keys."""
    params = vars(args)
    if args.source:
        params["tau"] = np.frombuffer(Path(args.source).read_bytes(), dtype=np.uint8)
    spec = GeneratorSpec(args.family, params, args.seed)
    built = spec.build()
    arr = built.materialize() if isinstance(built, QueryCountedString) else built
    raw, width = _token_bytes(arr)
    with open(args.out, "wb") as fh:
        fh.write(raw)
    if args.emit_meta:
        alphabet = max(2, distinct_count(arr))
        meta = {
            "family": args.family,
            "seed": args.seed,
            "n": int(arr.size),
            "token_width_bytes": width,
            "alphabet_size": alphabet,
            "exact_rle_cost": rle_total_cost(arr, alphabet),
            "exact_lz_cost": exact_lz_cost(arr).total_cost,
        }
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _cmd_campaign_run(args) -> int:
    config = CampaignConfig.from_json_file(args.config)
    result = run_campaign(config)
    if config.output:
        write_result(result, config.output)
    print(
        f"campaign: {config.estimator} trials={config.trials} "
        f"success_rate={result.success_rate:.3f} mean_queries={result.mean_queries:.1f} "
        f"wall={result.wall_time_s:.2f}s",
        file=sys.stderr,
    )
    _emit(result.to_json_dict())
    return 0 if result.passed else 1


def _cmd_campaign_audit(args) -> int:
    with open(args.reports, "r", encoding="utf-8") as fh:
        rows = audit_queries(json.load(fh))
    _emit(
        {
            "rows": [
                {
                    "label": r.label,
                    "queries_used": r.queries_used,
                    "ceiling": r.ceiling,
                    "vacuous": r.vacuous,
                    "within": r.within,
                }
                for r in rows
            ],
            "all_within": all(r.within for r in rows),
        }
    )
    return 0 if all(r.within for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compest",
        description="Estimate RLE/LZ77 compressibility in sublinear time, "
        "with exact oracles and adversarial generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A string default goes through type=int only for the subcommand parsed,
    # so a malformed $COMPEST_SEED fails only a seeded subcommand.
    seed_default = os.environ.get("COMPEST_SEED", "0")

    def add_common(p, needs_seed=True):
        p.add_argument("file", help="input file (raw bytes)")
        p.add_argument("--alphabet-size", type=int, default=None,
                       help="override the alphabet size (default: distinct bytes)")
        if needs_seed:
            p.add_argument("--seed", type=int, default=seed_default,
                           help="RNG seed (default: $COMPEST_SEED or 0)")

    p = sub.add_parser("exact", help="exact compression cost via the linear-time oracles")
    p.add_argument("--scheme", choices=["rle", "lz", "distinct", "colors"], default="rle")
    p.add_argument("--ell", type=int, default=None, help="substring length for --scheme distinct")
    add_common(p, needs_seed=False)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("rle-est", help="sublinear RLE cost estimators")
    p.add_argument("--mode", default="additive",
                   choices=[k.removeprefix("rle-") for k in ESTIMATORS if k.startswith("rle-")])
    p.add_argument("--epsilon", type=float, default=0.05, help="additive error fraction")
    p.add_argument("--delta", type=float, default=1 / 3, help="failure probability (bucketed)")
    p.add_argument("--gamma", type=float, default=0.5, help="multiplicative slack (refined)")
    add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("colors-est", help="distinct-symbol (colors) estimator")
    p.add_argument("--lambda", type=float, required=True, dest="lambda",
                   help="multiplicative factor (> 1)")
    p.add_argument("--delta", type=float, default=None,
                   help="run the pooled-amplified variant with this failure probability")
    add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("lz-est", help="sublinear LZ77 cost estimator")
    p.add_argument("--A", type=float, required=True, help="multiplicative factor (> 1)")
    p.add_argument("--epsilon", type=float, required=True, help="additive error fraction")
    add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("lz-distinguish", help="decide low vs high LZ cost")
    p.add_argument("--lo", type=float, required=True, help="compressible-side threshold")
    p.add_argument("--hi", type=float, required=True, help="incompressible-side threshold")
    add_common(p)
    p.set_defaults(func=_cmd_lz_distinguish)

    p = sub.add_parser("gen", help="generate adversarial instances")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, default=1024, help="length (wk, coin)")
    p.add_argument("--k", type=int, default=16, help="block count (wk)")
    p.add_argument("--p", type=float, default=0.5, help="heads bias (coin)")
    p.add_argument("--m", type=int, default=64, help="alphabet size (lztight)")
    p.add_argument("--ell0", type=int, default=16, help="phase count (lztight)")
    p.add_argument("--alpha-prime", type=float, default=0.1, help="color density (col2lz)")
    p.add_argument("--sigma", type=int, default=2, help="output alphabet size (col2lz)")
    p.add_argument("--source", default=None, help="colors-instance file (col2lz)")
    p.add_argument("--n-prime", type=int, default=500, help="colors length if no --source")
    p.add_argument("--colors", type=int, default=50, help="distinct colors if no --source")
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", required=True, help="output file (raw bytes)")
    p.add_argument("--emit-meta", action="store_true",
                   help="also write OUT.meta.json with exact oracle costs")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("campaign", help="batch experiments and query audits")
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("run", help="run a campaign config's trials")
    p.add_argument("config", help="campaign config JSON")
    p.set_defaults(func=_cmd_campaign_run)
    p = actions.add_parser("audit", help="check measured reads against query ceilings")
    p.add_argument("--reports", required=True, help="report-entry JSON file")
    p.set_defaults(func=_cmd_campaign_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        # A KeyError gets here only from a JSON object that lacks the key.
        message = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        print(f"compest: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
