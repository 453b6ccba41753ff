"""Command-line surface: rank, topk, compare, and spectrum subcommands.

Output is CSV by default or JSON with --json, written to stdout or --out.
Edge-list node ids are echoed in the --base index base, Matrix Market ids
0-based (--base is refused for them).  Exit codes: 0 success, 1 malformed
or unreadable input, 2 invalid parameters, 3 numerical failure.  ``rank``
and ``compare`` run their methods through the ``METHODS`` table; a method flag
that no chosen method reads exits 2 before the input is read.

Each command imports the modules it uses when it runs (``rankers`` itself
imports ``linalg`` and ``quadrature`` per method), so a process that ranks
by degree or PageRank never loads the Lanczos, quadrature, top-k or
comparison code.
"""

import argparse
import gc
import io
import itertools
import sys

import numpy as np

from . import rankers
from .errors import ConvergenceError, GraphFormatError, ParameterError, SizeLimitError
from .graph import BipartiteOperator, load_graph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARAMS = 2
EXIT_NUMERICAL = 3

# Each method of rank and compare: its ranker in ``rankers`` (looked up per
# call), called as ranker(g, side, **keywords), and the ranker keywords its
# method flags set.
METHODS = {
    "degree": ("degree_scores", ()),
    "hits": ("hits", ("tol", "max_iter")),
    "exp-exact": ("exp_centrality_exact", ()),
    "exp-quad": ("exp_centrality_quadrature", ("p_max",)),
    "spectral": ("truncated_spectral_scores", ("k",)),
    "katz": ("katz_row_col", ("c",)),
    "resolvent": ("resolvent_bipartite", ("c", "p_max")),
    "expsum": ("expA_row_col_sums", ()),
    "pagerank": ("pagerank", ("alpha",)),
}
METHOD_CHOICES = list(METHODS)

# Each method flag: the ranker keyword it sets, its type and its help.  It is
# passed on only when given, so each default is the ranker's own.
METHOD_FLAGS = {
    "--k": ("k", int, "number of spectral terms"),
    "--c": ("c", float, "walk damping"),
    "--alpha": ("alpha", float, "damping factor"),
    "--tol": ("tol", float, "stopping tolerance"),
    "--max-iter": ("max_iter", int, "step limit"),
    "--pmax": ("p_max", int, "maximum quadrature order per node, at least 3 (each order: one product with A, one with A^T)"),
}


def _load_graph(args):
    return load_graph(args.input, index_base=args.base)


def _check_method_flags(args, methods):
    """Refuse each method flag given that none of ``methods`` reads."""
    reads = {key for method in methods for key in METHODS[method][1]}
    unread = [flag for flag, (key, _, _) in METHOD_FLAGS.items() if getattr(args, key) is not None and key not in reads]
    if unread:
        raise ParameterError(f"{', '.join(unread)} not read by method {' or '.join(dict.fromkeys(methods))}")


def _run_method(g, method, side, args):
    """Run a method's ranker on one side with the method flags given."""
    name, reads = METHODS[method]
    kwargs = {key: getattr(args, key) for key in reads if getattr(args, key) is not None}
    return getattr(rankers, name)(g, side, **kwargs)


def _score_spec(precision):
    return ".12g" if precision == "full" else ".4f"


def _fmt_score(x, precision):
    return format(x, _score_spec(precision))


def _json_value(obj):
    """A NumPy value as its Python value; a quadrature.NodeBounds, the one object in any diagnostics, as its fields."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return vars(obj)


def _json_text(payload):
    import json  # about 1.5 ms to import; CSV output never needs it

    return json.dumps(payload, indent=2, default=_json_value) + "\n"


def _emit(text, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rank(args):
    if args.top is not None and args.top < 1:
        raise ParameterError(f"--top must be positive, got {args.top}")
    _check_method_flags(args, [args.method])
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
            "params": sv.params,
            "diagnostics": sv.diagnostics,
            "index_base": g.index_base,
            "rows": rows,
        }
        text = _json_text(payload)
    else:
        row = f"%d,%{_score_spec(args.precision)},%d\n"
        cells = tuple(itertools.chain.from_iterable(zip(nodes, scores, ranks)))
        text = "node,score,rank\n" + (row * len(nodes)) % cells
    _emit(text, args)


def cmd_topk(args):
    from . import topk

    g = _load_graph(args)
    kwargs = dict(side=args.side, p_max=args.pmax, exclude_degree_one=args.exclude_degree_one, m=args.m)
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
            "excluded": {"zero_degree": report.excluded_zero_degree, "degree_one": report.excluded_degree_one},
            "ties": report.ties_note,
        }
        text = _json_text(payload)
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
        buf.write(f"# excluded_zero_degree={report.excluded_zero_degree} excluded_degree_one={report.excluded_degree_one}\n")
        if report.ties_note:
            buf.write(f"# ties: {report.ties_note}\n")
        text = buf.getvalue()
    _emit(text, args)


def cmd_compare(args):
    from . import analysis

    if len(args.method) != 2:
        raise ParameterError("compare needs exactly two --method flags")
    _check_method_flags(args, args.method)
    ks = [int(tok) for tok in args.ks.split(",") if tok.strip()]
    if not ks or any(k < 1 for k in ks):
        raise ParameterError(f"--ks must list positive integers, got '{args.ks}'")
    g = _load_graph(args)
    tables = [rankers.rank_table(_run_method(g, m, args.side, args)) for m in args.method]
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
        text = _json_text(payload)
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


def cmd_spectrum(args):
    from . import analysis

    if args.ritz_out is None and args.pmax is not None:
        raise ParameterError("--pmax not read without --ritz-out")
    steps = 40 if args.pmax is None else args.pmax
    if steps < 1:
        raise ParameterError(f"--pmax must be at least 1 for --ritz-out, got {steps}")
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

        run = LanczosRun(BipartiteOperator(g), [0]).extend(steps)
        alpha, beta = run.coefficients(run.steps)
        ritz, _ = tridiag_eigen(alpha[0], beta[0, :-1])
        with open(args.ritz_out, "w", encoding="utf-8") as fh:
            for t in ritz:
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
        text = _json_text(payload)
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


def _add_common(parser):
    parser.add_argument(
        "--input", required=True,
        help="path to the graph file: Matrix Market if its first line starts with %%%%MatrixMarket, else an edge list",
    )
    parser.add_argument("--base", type=int, choices=[0, 1], help="node index base of an edge-list input (default 0)")
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    parser.add_argument("--precision", choices=["default", "full"], help="CSV score digits (not read with --json)")


def _add_method_params(parser):
    """The side and method flags of rank and compare."""
    parser.add_argument("--side", choices=["hub", "authority"], required=True)
    for flag, (key, kind, text) in METHOD_FLAGS.items():
        readers = ", ".join(method for method, (_, reads) in METHODS.items() if key in reads)
        parser.add_argument(flag, type=kind, dest=key, help=f"{text}; read by {readers}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hubauth",
        description="Rank hubs and authorities in directed networks with matrix-function centralities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="score and rank all nodes with one method")
    _add_common(p_rank)
    p_rank.add_argument("--method", choices=METHOD_CHOICES, required=True)
    p_rank.add_argument("--top", type=int, default=None, help="print only the N best nodes")
    _add_method_params(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_topk = sub.add_parser("topk", help="identify the top-k nodes with certified brackets")
    _add_common(p_topk)
    p_topk.add_argument("--side", choices=["hub", "authority"], required=True)
    p_topk.add_argument("--k", type=int, required=True)
    p_topk.add_argument("--m", type=int, default=None, help="relax: certify top-k within top-m only")
    p_topk.add_argument("--exclude-degree-one", action="store_true")
    # refinement is incremental, so top-k allows more depth than rank
    p_topk.add_argument("--pmax", type=int, default=64, help="maximum quadrature order per node (at least 3)")
    p_topk.set_defaults(func=cmd_topk)

    p_cmp = sub.add_parser("compare", help="compare the rankings of two methods")
    _add_common(p_cmp)
    p_cmp.add_argument("--method", action="append", choices=METHOD_CHOICES, required=True, help="give twice")
    p_cmp.add_argument("--ks", default="1,3,5,10", help="comma list of overlap depths")
    _add_method_params(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_spec = sub.add_parser("spectrum", help="spectral gap, symmetry, and size diagnostics")
    _add_common(p_spec)
    p_spec.add_argument("--tol", type=float, default=1e-10, help="power iteration tolerance for the spectral gap")
    p_spec.add_argument("--pmax", type=int, help="Lanczos steps for --ritz-out (default 40)")
    p_spec.add_argument("--ritz-out", default=None, help="dump Ritz values of the bipartite operator here")
    p_spec.set_defaults(func=cmd_spectrum)

    return parser


# Each error kind's exit code; the first match wins, so undecodable input
# (a UnicodeDecodeError is a ValueError) and SizeLimitError (also one) come
# before ValueError.
EXIT_CODES = (
    ((GraphFormatError, UnicodeDecodeError, OSError), EXIT_INPUT),
    ((ConvergenceError, SizeLimitError, FloatingPointError), EXIT_NUMERICAL),
    ((ParameterError, ValueError), EXIT_PARAMS),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.json and args.precision is not None:
            raise ParameterError("--precision not read with --json")
        args.func(args)
    except tuple(kind for kinds, _ in EXIT_CODES for kind in kinds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))
    return EXIT_OK


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
