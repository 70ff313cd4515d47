"""structfn benchmark: seeded documents, four workloads, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload lattice|expansion|exact|desk \
        --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: the next document is sent
when the previous one has finished. A run draws one round of documents from
its seed (see ``gen.py``) and times as many passes over it as the nominal
pass length of the workload fits into ``--seconds``; a document's time is the
fastest of its passes. Slowdowns from other tenants of the machine only ever
add time and come and go, so the fastest of several passes spread over the
run is the steadiest estimate of the program's own cost. Outputs are checked
against independent routes outside the timed region.

With ``--trace 0`` the result holds the end-to-end metrics. With ``--trace 1``
the timed passes get half the time, then every document runs once untraced
and, right after, once with every public layer function wrapped in a span
(``tracer.py``); the result holds per-layer self times and work counts per
document and the traced/untraced time ratio. Details (provenance, sample
counts, output digests, spans) go to ``perfbench/out/``; the last line of
stdout is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("lattice", "expansion", "exact", "desk")
SETUP_STARTS = 7

# End-to-end metrics of the result line (declared in BENCHMARK.json), then
# those only printed: doc_p90_s has ten or more documents beyond it only on
# desk, and failed_ratio is 0 on correct code, so neither can carry a bound.
END_TO_END = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "doc_p50_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED = {"doc_p90_s": "s", "failed_ratio": "1"}

# Per-layer metrics, all per document of the traced pass. "subfamilies" and
# "adds" are computed from the call arguments, not measured.
_TIMED = (
    "core.validate_semicoherent",
    "core.mobius_transform",
    "core.zeta_transform",
    "transform.table_from_paths",
    "transform.table_from_cuts",
    "transform.dualize_table",
    "transform.minimal_path_sets",
    "transform.minimal_cut_sets",
    "transform.simple_form_from_paths",
    "transform.dual_simple_form_from_cuts",
    "transform.formation_balance",
    "reliability.diagonal_from_paths",
    "reliability.diagonal_coefficients",
    "reliability.evaluate_inclusion_exclusion",
    "reliability.evaluate_reliability",
    "signature.signature_boland",
    "signature.signature_from_diagonal",
    "signature.signature_from_paths",
    "cli.parse_document",
    "cli.run_command",
    "cli.main",
)
_COUNTED = (
    ("core.validate_semicoherent.calls", "count/doc"),
    ("core.mobius_transform.adds", "count/doc"),
    ("transform.simple_form_from_paths.subfamilies", "count/doc"),
    ("transform.simple_form_from_paths.terms", "count/doc"),
    ("transform.dual_simple_form_from_cuts.subfamilies", "count/doc"),
    ("transform.dual_simple_form_from_cuts.terms", "count/doc"),
    ("transform.terms_per_subfamily", "ratio"),
    ("reliability.diagonal_from_paths.subfamilies", "count/doc"),
    ("reliability.evaluate_inclusion_exclusion.subfamilies", "count/doc"),
    ("cli.output_bytes", "bytes/doc"),
    ("oracle.calls", "count/doc"),
    ("trace.overhead_ratio", "ratio"),
)
_LAYER_TOTALS = ("bench", "core", "transform", "reliability", "signature", "cli", "oracle")
# Scaling: self time per layer per size bucket, where the buckets differ in n or r.
_BUCKETS = ("n20", "n22", "n24", "r12", "r14", "r16", "r18", "r19", "r20")
_SCALED_LAYERS = ("core", "transform", "reliability", "signature", "cli")

PER_LAYER = {
    **{f"{name}.self_s": "s/doc" for name in _TIMED},
    **{f"{layer}.self_s": "s/doc" for layer in _LAYER_TOTALS},
    **dict(_COUNTED),
    **{f"scale.{b}.{layer}.self_s": "s/doc" for b in _BUCKETS for layer in _SCALED_LAYERS},
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(starts: int) -> list[float]:
    """Wall time of fresh interpreters that import structfn and structfn.cli."""
    times = []
    for _ in range(starts):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import structfn, structfn.cli"],
            env=child_env(), cwd=ROOT, check=True,
        )
        times.append(perf_counter() - start)
    return times


def call_main(argv: list[str], text: str) -> tuple[int, str]:
    """``structfn.cli.main`` in this process, with the document on stdin."""
    import structfn.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = structfn.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, stdout.getvalue()


class Workload:
    """Runs one document and checks it; subclasses define the calls.

    The defaults check and digest a CLI report; the in-process API workloads
    override both.
    """

    def __init__(self, recorder):
        self.recorder = recorder

    def execute(self, doc, traced: bool):
        raise NotImplementedError

    def check(self, doc, outcome) -> list[str]:
        import checks

        return checks.check_cli(doc, outcome["code"], outcome["stdout"])

    def digest(self, outcome) -> str:
        return hashlib.sha256(outcome["stdout"].encode()).hexdigest()


class Lattice(Workload):
    """One fresh ``python -m structfn`` process per document."""

    def execute(self, doc, traced: bool):
        if traced:
            spans_file = OUT / "child-spans.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), *doc.argv]
        else:
            argv = [sys.executable, "-m", "structfn", *doc.argv]
        proc = subprocess.run(argv, input=doc.text.encode(), capture_output=True,
                              env=child_env(), cwd=ROOT)
        if traced:
            child = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            self.recorder.adopt(child["spans"])
            self.recorder.counts.update(child["counts"])
            self.recorder.counts["cli.output_bytes"] += len(proc.stdout)
        return {"code": proc.returncode, "stdout": proc.stdout.decode()}


class Desk(Workload):
    """``structfn.cli.main`` in process, one command per document."""

    def execute(self, doc, traced: bool):
        code, stdout = call_main(doc.argv, doc.text)
        if traced:
            self.recorder.counts["cli.output_bytes"] += len(stdout.encode())
        return {"code": code, "stdout": stdout}


class Expansion(Workload):
    """The path-family routes in process, float probabilities."""

    def execute(self, doc, traced: bool):
        from structfn import cli, reliability, signature, transform

        paths = cli.parse_document(doc.text).paths
        return {
            "form": transform.simple_form_from_paths(paths),
            "diagonal": reliability.diagonal_from_paths(paths),
            "signature": signature.signature_from_paths(paths),
            "balances": [transform.formation_balance(paths, s) for s in doc.subsets],
            "ie": reliability.evaluate_inclusion_exclusion(paths, doc.p),
        }

    def check(self, doc, outcome):
        import checks

        return checks.check_expansion(doc, outcome)

    def digest(self, outcome):
        form = outcome["form"]
        text = repr((sorted(form.coeffs.items()), outcome["diagonal"], outcome["signature"],
                     outcome["balances"], outcome["ie"]))
        return hashlib.sha256(text.encode()).hexdigest()


class Exact(Workload):
    """Both reliability routes and both signature routes with Fraction probabilities."""

    def execute(self, doc, traced: bool):
        from structfn import cli, reliability, signature, transform

        paths = cli.parse_document(doc.text).paths
        ie = reliability.evaluate_inclusion_exclusion(paths, doc.p)
        form = transform.simple_form_from_paths(paths)
        value = reliability.evaluate_reliability(form, doc.p)
        code, stdout = call_main(doc.argv, doc.text)
        if traced:
            self.recorder.counts["cli.output_bytes"] += len(stdout.encode())
        return {
            "ie": ie,
            "reliability": value,
            "cli_code": code,
            "cli_stdout": stdout,
            "boland": signature.signature_boland(transform.table_from_paths(paths)),
            "signature": signature.signature_from_paths(paths),
        }

    def check(self, doc, outcome):
        import checks

        return checks.check_exact(doc, outcome)

    def digest(self, outcome):
        text = repr((outcome["ie"], outcome["reliability"], outcome["cli_stdout"],
                     outcome["boland"], outcome["signature"]))
        return hashlib.sha256(text.encode()).hexdigest()


RUNNERS = {"lattice": Lattice, "expansion": Expansion, "exact": Exact, "desk": Desk}


def run_doc(runner: Workload, doc, traced: bool):
    """Time one document; returns (seconds, outcome or None, error message or None)."""
    recorder = runner.recorder
    if traced:
        recorder.doc = doc.id
        root = recorder.open("bench.doc")
    start = perf_counter()
    try:
        outcome, error = runner.execute(doc, traced), None
    except Exception:  # a document that raises is counted as failed, and the run goes on
        outcome, error = None, traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    if traced:
        recorder.close(root)
        elapsed = recorder.spans[root][2] - recorder.spans[root][1]
    return elapsed, outcome, error


def checked(runner: Workload, doc, outcome) -> list[str]:
    try:
        return runner.check(doc, outcome)
    except Exception as exc:  # output so wrong that a check route rejects it
        return [f"check raised {type(exc).__name__}: {exc}"]


def untraced_passes(runner: Workload, docs, passes: int, setup_times: list[float]):
    """Time ``passes`` passes over the documents; returns per-document times per pass.

    Taking each document's fastest pass also drops the first pass of an
    in-process workload, which fills the library's caches. The first pass
    checks every output; later passes only compare digests with it. After
    each pass, outside the timed region, one more cold start is timed for
    ``setup_s``.
    """
    times: list[list[float]] = [[] for _ in docs]
    digests: list[str] = []
    failures: list[dict] = []
    for index in range(passes):
        for i, doc in enumerate(docs):
            elapsed, outcome, error = run_doc(runner, doc, traced=False)
            digest = runner.digest(outcome) if outcome else ""
            if index == 0:
                fails = [error] if error else checked(runner, doc, outcome)
                digests.append(digest)
            else:
                fails = [error] if error else []
                if digest != digests[i]:
                    fails.append("output differs from the first pass")
            if fails:
                failures.append({"doc": doc.id, "bucket": doc.bucket, "argv": doc.argv[:4],
                                 "pass": index, "fails": fails})
            times[i].append(elapsed)
        setup_times.extend(measure_setup(1))
    return times, digests, failures


def per_layer_metrics(recorder, docs, untraced_times, traced_times) -> tuple[dict, float]:
    """Per-document layer metrics and the largest gap between a document's
    summed self times and its root span."""
    import tracer

    count = len(docs)
    summary = tracer.summarize(recorder.spans)
    by_name = summary["by_name"]
    metrics: dict[str, float] = {}
    for name in _TIMED:
        metrics[f"{name}.self_s"] = by_name.get(name, (0.0, 0))[0] / count
    for layer in _LAYER_TOTALS:
        metrics[f"{layer}.self_s"] = sum(
            s for name, (s, _) in by_name.items() if name.split(".")[0] == layer
        ) / count
    counts = recorder.counts
    metrics["core.validate_semicoherent.calls"] = by_name.get(
        "core.validate_semicoherent", (0.0, 0))[1] / count
    for name, _ in _COUNTED:
        if name in counts:
            metrics[name] = counts[name] / count
    walked = (counts["transform.simple_form_from_paths.subfamilies"]
              + counts["transform.dual_simple_form_from_cuts.subfamilies"])
    useful = (counts["transform.simple_form_from_paths.terms"]
              + counts["transform.dual_simple_form_from_cuts.terms"])
    metrics["transform.terms_per_subfamily"] = useful / walked if walked else 0.0
    metrics["oracle.calls"] = sum(c for name, (_, c) in by_name.items()
                                  if name.startswith("oracle.")) / count
    metrics["trace.overhead_ratio"] = sum(traced_times) / sum(untraced_times)
    bucket_of = {doc.id: doc.bucket for doc in docs}
    bucket_docs: dict[str, int] = {}
    for doc in docs:
        bucket_docs[doc.bucket] = bucket_docs.get(doc.bucket, 0) + 1
    scaled: dict[str, float] = {}
    for span, own in zip(recorder.spans, tracer.self_times(recorder.spans)):
        key = f"scale.{bucket_of[span[4]]}.{span[0].split('.')[0]}.self_s"
        scaled[key] = scaled.get(key, 0.0) + own
    for key in PER_LAYER:
        if key.startswith("scale."):
            bucket = key.split(".")[1]
            docs_in = bucket_docs.get(bucket)
            metrics[key] = scaled.get(key, 0.0) / docs_in if docs_in else 0.0
        metrics.setdefault(key, 0.0)
    return metrics, summary["self_vs_root_max_s"]


def provenance(args) -> dict:
    import numpy

    lines = {path.stem: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((SRC / "structfn").glob("*.py"))}
    return {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "source_lines": {**lines, "total": sum(lines.values())},
    }


def workload_profile(generator, docs, cap: int) -> dict:
    """Share of wide-cut documents and the subfamilies their families imply."""
    def walk(r):
        return 1 << r if r <= cap else 0

    total = sum(walk(len(d.paths)) + (walk(len(d.cuts)) if d.cuts is not None else 0)
                for d in docs)
    profile = {
        "wide_cut_share": sum(d.wide for d in docs) / len(docs),
        "subfamilies_per_doc_computed": total / len(docs),
        "buckets": sorted({d.bucket for d in docs}),
    }
    if generator.draws["all"]:
        profile["unfiltered_draws"] = dict(generator.draws)
    return profile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "structfn" / "__init__.py").is_file():
        print(f"perfbench: no structfn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import gen
    import tracer
    from structfn import transform

    OUT.mkdir(exist_ok=True)
    setup_times = measure_setup(2)
    generator = gen.Generator(args.workload, args.seed, ROOT / "sample_systems")
    docs = generator.round()
    recorder = tracer.Tracer()
    runner = RUNNERS[args.workload](recorder)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = max(1, int(budget // gen.PASS_SECONDS[args.workload]))
    runs, digests, failures = untraced_passes(runner, docs, passes, setup_times)
    if len(setup_times) < SETUP_STARTS:
        setup_times.extend(measure_setup(SETUP_STARTS - len(setup_times)))
    times = [min(t) for t in runs]
    if args.workload == "lattice":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed = len(docs) * passes, len(failures)

    samples = {"setup_s": len(setup_times), "docs_per_s": len(times), "doc_p50_s": len(times),
               "doc_p90_s": len(times), "peak_rss_mb": 1, "failed_ratio": attempted,
               "passes": passes}
    details: dict = {"workload": args.workload, "why": gen.WHY[args.workload],
                     "seconds": args.seconds, "trace": args.trace,
                     "provenance": provenance(args),
                     "profile": workload_profile(generator, docs, transform.R_MAX),
                     "setup_starts_s": setup_times}
    if args.trace:
        # Each document runs untraced and traced back to back, so that the
        # overhead ratio compares runs made under the same machine load; the
        # order alternates, since the second run finds the caches warm.
        paired_times, traced_times = [], []
        for i, (doc, digest) in enumerate(zip(docs, digests)):
            for traced in ((False, True) if i % 2 else (True, False)):
                uninstall = tracer.install(recorder) if traced else None
                elapsed, outcome, error = run_doc(runner, doc, traced=traced)
                if uninstall:
                    uninstall()
                (traced_times if traced else paired_times).append(elapsed)
                attempted += 1
                if error or runner.digest(outcome) != digest:
                    failed += 1
                    failures.append({"doc": doc.id, "traced": traced,
                                     "fails": [error or "output differs from the first pass"]})
        metrics, residual = per_layer_metrics(recorder, docs, paired_times, traced_times)
        if residual > 1e-6:
            failed += 1
            failures.append({"fails": [f"span self times miss root duration by {residual:.3g} s"]})
        details["self_vs_root_max_s"] = residual
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
        printed = {}
        OUT.joinpath(f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(recorder.spans), encoding="utf-8")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "docs_per_s": len(times) / sum(times),
            "doc_p50_s": statistics.median(times),
            "peak_rss_mb": peak_kb / 1024,
            "doc_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
            "failed_ratio": failed / attempted,
        }
        result_metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        printed = {k: {"value": values[k], "unit": u} for k, u in PRINTED.items()}
    details.update({
        "docs": len(docs),
        "samples": samples,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "output_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "doc_digests": digests,
        "doc_times_s": runs,
        "doc_buckets": [d.bucket for d in docs],
    })
    OUT.joinpath(f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(docs)} documents, "
          f"{passes} timed passes, {failed}/{attempted} failed")
    for name, entry in {**result_metrics, **printed}.items():
        n = samples.get(name, len(docs))
        print(f"  {name:<52} {entry['value']:>14.6g} {entry['unit']:<9} n={n}")
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
