"""Command-line surface: rank, topk, compare, and spectrum subcommands.

Output is CSV by default or JSON with --json, written to stdout or --out.
Node ids are echoed in the index base of the input file.  Exit codes:
0 success, 1 malformed input, 2 invalid parameters, 3 numerical failure.

Each command imports the modules it uses when it runs (``rankers`` itself
imports ``linalg`` and ``quadrature`` per method), so a process that ranks
by degree or PageRank never loads the Lanczos, quadrature, top-k or
comparison code.
"""

import argparse
import dataclasses
import gc
import io
import itertools
import sys

import numpy as np

from . import rankers
from .errors import ConvergenceError, GraphFormatError, ParameterError, SizeLimitError
from .graph import BipartiteOperator, load_edge_list, load_matrix_market

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARAMS = 2
EXIT_NUMERICAL = 3

METHOD_CHOICES = [
    "degree",
    "hits",
    "exp-exact",
    "exp-quad",
    "spectral",
    "katz",
    "resolvent",
    "expsum",
    "pagerank",
]


def _load_graph(args):
    loaders = {"edgelist": lambda p: load_edge_list(p, index_base=args.base), "mtx": lambda p: load_matrix_market(p)}
    return loaders[args.format](args.input)


def _run_method(g, method, side, args):
    """Dispatch a method name to its ranker and pull out the requested side."""
    if method == "degree":
        hub, auth = rankers.degree_scores(g)
    elif method == "hits":
        hub, auth = rankers.hits(g, tol=args.tol, max_iter=args.max_iter)
    elif method == "exp-exact":
        return rankers.exp_centrality_exact(g, side=side)
    elif method == "exp-quad":
        return rankers.exp_centrality_quadrature(g, p_max=args.pmax, side=side)
    elif method == "spectral":
        return rankers.truncated_spectral_scores(g, k=args.k if args.k else 1, side=side)
    elif method == "katz":
        hub, auth = rankers.katz_row_col(g, c=args.c)
    elif method == "resolvent":
        return rankers.resolvent_bipartite(g, c=args.c, p_max=args.pmax, side=side)
    elif method == "expsum":
        hub, auth = rankers.expA_row_col_sums(g)
    elif method == "pagerank":
        return rankers.pagerank(g, alpha=args.alpha, reverse=(side == "hub"))
    else:
        raise ParameterError(f"unknown method '{method}'")
    return hub if side == "hub" else auth


def _score_spec(precision):
    return ".12g" if precision == "full" else ".4f"


def _fmt_score(x, precision):
    return format(x, _score_spec(precision))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):  # quadrature.NodeBounds, the one kind in any diagnostics
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _json_text(payload):
    import json  # about 1.5 ms to import; CSV output never needs it

    return json.dumps(payload, indent=2) + "\n"


def _emit(text, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rank(args):
    if args.top is not None and args.top < 1:
        raise ParameterError(f"--top must be positive, got {args.top}")
    g = _load_graph(args)
    sv = _run_method(g, args.method, args.side, args)
    table = rankers.rank_table(sv)
    order = np.asarray(table.order[: args.top], dtype=np.int64)
    nodes = (order + g.index_base).tolist()
    scores = sv.scores[order].tolist()
    ranks = table.ranks[order].tolist()
    if args.json:
        rows = [{"node": v, "score": x, "rank": r} for v, x, r in zip(nodes, scores, ranks)]
        payload = {
            "method": sv.method,
            "side": sv.side,
            "params": _jsonable(sv.params),
            "diagnostics": _jsonable(sv.diagnostics),
            "index_base": g.index_base,
            "rows": rows,
        }
        text = _json_text(payload)
    else:
        row = f"%d,%{_score_spec(args.precision)},%d\n"
        cells = tuple(itertools.chain.from_iterable(zip(nodes, scores, ranks)))
        text = "node,score,rank\n" + (row * len(nodes)) % cells
    _emit(text, args)
    return EXIT_OK


def cmd_topk(args):
    from . import topk

    g = _load_graph(args)
    kwargs = dict(
        side=args.side,
        p_max=args.pmax,
        exclude_degree_one=args.exclude_degree_one,
    )
    if args.m is not None:
        report = topk.rank_in_top_m(g, args.k, args.m, **kwargs)
    else:
        report = topk.identify_top_k(g, args.k, **kwargs)
    iters = report.iterations
    if args.json:
        payload = {
            "k": report.k,
            "m": report.m,
            "side": report.side,
            "members": [
                {
                    "node": v + g.index_base,
                    "rank": rank,
                    "lower": report.bounds[v].lower,
                    "upper": report.bounds[v].upper,
                    "p": report.bounds[v].p,
                    "exact": report.bounds[v].exact,
                }
                for rank, v in enumerate(report.members, start=1)
            ],
            "certified": report.certified,
            "fully_ordered": report.fully_ordered,
            "iterations": {
                "max": report.max_iterations,
                "per_node": {str(v + g.index_base): int(p) for v, p in sorted(iters.items())},
            },
            "excluded": {
                "zero_degree": report.excluded_zero_degree,
                "degree_one": report.excluded_degree_one,
            },
            "ties": report.ties_note,
        }
        text = _json_text(_jsonable(payload))
    else:
        buf = io.StringIO()
        buf.write("node,rank,lower,upper,p,exact\n")
        for rank, v in enumerate(report.members, start=1):
            b = report.bounds[v]
            buf.write(
                f"{v + g.index_base},{rank},{_fmt_score(b.lower, args.precision)},"
                f"{_fmt_score(b.upper, args.precision)},{b.p},{int(b.exact)}\n"
            )
        buf.write(f"# certified={report.certified} fully_ordered={report.fully_ordered}\n")
        buf.write(f"# iterations_max={report.max_iterations}\n")
        buf.write(
            f"# excluded_zero_degree={report.excluded_zero_degree} "
            f"excluded_degree_one={report.excluded_degree_one}\n"
        )
        if report.ties_note:
            buf.write(f"# ties: {report.ties_note}\n")
        text = buf.getvalue()
    _emit(text, args)
    return EXIT_OK


def cmd_compare(args):
    from . import analysis

    if len(args.method) != 2:
        raise ParameterError("compare needs exactly two --method flags")
    g = _load_graph(args)
    tables = [rankers.rank_table(_run_method(g, m, args.side, args)) for m in args.method]
    ks = [int(tok) for tok in args.ks.split(",") if tok.strip()]
    if not ks or any(k < 1 for k in ks):
        raise ParameterError(f"--ks must list positive integers, got '{args.ks}'")
    report = analysis.compare(tables[0], tables[1], ks=ks)
    if args.json:
        payload = {
            "method_a": report.method_a,
            "method_b": report.method_b,
            "side": args.side,
            "kendall_tau_b": report.kendall_tau_b,
            "overlap_at": {str(k): v for k, v in report.overlap_at.items()},
            "top_members": {
                str(k): {
                    "a": [v + g.index_base for v in tops["a"]],
                    "b": [v + g.index_base for v in tops["b"]],
                }
                for k, tops in report.top_members.items()
            },
        }
        text = _json_text(_jsonable(payload))
    else:
        buf = io.StringIO()
        buf.write("metric,value\n")
        buf.write(f"method_a,{report.method_a}\n")
        buf.write(f"method_b,{report.method_b}\n")
        buf.write(f"kendall_tau_b,{_fmt_score(report.kendall_tau_b, args.precision)}\n")
        for k, frac in report.overlap_at.items():
            buf.write(f"overlap_at_{k},{_fmt_score(frac, args.precision)}\n")
        text = buf.getvalue()
    _emit(text, args)
    return EXIT_OK


def cmd_spectrum(args):
    from . import analysis

    g = _load_graph(args)
    gap = analysis.spectral_gap(g, tol=args.tol)
    sym = analysis.symmetry_fraction(g)
    try:
        estrada = analysis.estrada_index(g)
    except SizeLimitError:
        estrada = None
    ritz = None
    if args.ritz_out:
        from .linalg import LanczosRun, tridiag_eigen

        run = LanczosRun(BipartiteOperator(g), [0]).extend(args.pmax)
        alpha, beta = run.coefficients(run.steps)
        nodes, _ = tridiag_eigen(alpha[0], beta[0, :-1])
        ritz = nodes
        with open(args.ritz_out, "w", encoding="utf-8") as fh:
            for t in nodes:
                fh.write(f"{t:.12g}\n")
    if args.json:
        payload = {
            "n": g.n,
            "m": g.m,
            "sigma1": gap.sigma1,
            "sigma2": gap.sigma2,
            "relative_gap": gap.relative_gap,
            "annotation": gap.annotation,
            "symmetry_fraction": sym,
            "estrada_index": estrada,
        }
        if ritz is not None:
            payload["ritz_values"] = ritz
        text = _json_text(_jsonable(payload))
    else:
        buf = io.StringIO()
        buf.write("metric,value\n")
        buf.write(f"n,{g.n}\n")
        buf.write(f"m,{g.m}\n")
        buf.write(f"sigma1,{_fmt_score(gap.sigma1, args.precision)}\n")
        buf.write(f"sigma2,{_fmt_score(gap.sigma2, args.precision)}\n")
        buf.write(f"relative_gap,{_fmt_score(gap.relative_gap, args.precision)}\n")
        buf.write(f"symmetry_fraction,{_fmt_score(sym, args.precision)}\n")
        if estrada is not None:
            buf.write(f"estrada_index,{_fmt_score(estrada, args.precision)}\n")
        buf.write(f"annotation,{gap.annotation}\n")
        text = buf.getvalue()
    _emit(text, args)
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--input", required=True, help="path to the graph file")
    parser.add_argument("--format", choices=["edgelist", "mtx"], default="edgelist")
    parser.add_argument("--base", type=int, choices=[0, 1], default=0, help="node index base of the input")
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    parser.add_argument("--precision", choices=["default", "full"], default="default")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument(
        "--pmax", type=int, default=40,
        help="maximum quadrature order per node for exp-quad, resolvent and topk (at least 3; one order "
        "costs one product with A and one with A^T); for spectrum --ritz-out, the Lanczos steps",
    )
    parser.add_argument("--max-iter", type=int, default=1000, dest="max_iter")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hubauth",
        description="Rank hubs and authorities in directed networks with matrix-function centralities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="score and rank all nodes with one method")
    _add_common(p_rank)
    p_rank.add_argument("--method", choices=METHOD_CHOICES, required=True)
    p_rank.add_argument("--side", choices=["hub", "authority"], required=True)
    p_rank.add_argument("--top", type=int, default=None, help="print only the N best nodes")
    p_rank.add_argument("--k", type=int, default=None, help="number of spectral terms (method=spectral)")
    p_rank.add_argument("--c", type=float, default=None, help="walk damping (katz / resolvent)")
    p_rank.add_argument("--alpha", type=float, default=0.85, help="pagerank damping factor")
    p_rank.set_defaults(func=cmd_rank)

    p_topk = sub.add_parser("topk", help="identify the top-k nodes with certified brackets")
    _add_common(p_topk)
    p_topk.add_argument("--side", choices=["hub", "authority"], required=True)
    p_topk.add_argument("--k", type=int, required=True)
    p_topk.add_argument("--m", type=int, default=None, help="relax: certify top-k within top-m only")
    p_topk.add_argument("--exclude-degree-one", action="store_true")
    p_topk.set_defaults(func=cmd_topk, pmax=64)  # refinement is incremental; allow more depth

    p_cmp = sub.add_parser("compare", help="compare the rankings of two methods")
    _add_common(p_cmp)
    p_cmp.add_argument("--method", action="append", choices=METHOD_CHOICES, required=True, help="give twice")
    p_cmp.add_argument("--side", choices=["hub", "authority"], required=True)
    p_cmp.add_argument("--ks", default="1,3,5,10", help="comma list of overlap depths")
    p_cmp.add_argument("--k", type=int, default=None, help="number of spectral terms (method=spectral)")
    p_cmp.add_argument("--c", type=float, default=None)
    p_cmp.add_argument("--alpha", type=float, default=0.85)
    p_cmp.set_defaults(func=cmd_compare)

    p_spec = sub.add_parser("spectrum", help="spectral gap, symmetry, and size diagnostics")
    _add_common(p_spec)
    p_spec.add_argument("--ritz-out", default=None, help="dump Ritz values of the bipartite operator here")
    p_spec.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, SizeLimitError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


def entry():
    """Run main() on sys.argv and exit with its code: the console script and ``python -m hubauth.cli``.

    What the imports built lives until the process ends.  Frozen, it is
    skipped by the collection the interpreter runs at exit, which otherwise
    walks every object (about 20 ms a process).  main() leaves the collector
    alone, since tests and tools call it in process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
