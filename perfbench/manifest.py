"""Names, units and reasons of the benchmark, and the BENCHMARK.json they make.

    python3 perfbench/manifest.py      # rewrite BENCHMARK.json at the root

run.py reports exactly the metrics listed here, so the file and the
program cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20

# Every workload is a closed loop with one client, in a fresh process, with
# inputs drawn from --seed.  Each `why` also names the layers whose change
# should move the workload and those whose change should leave it alone.
WORKLOADS = {
    "cli-small": (
        "1 client, closed loop, --seed inputs. Interactive CLI use: argparse and "
        "documents dominate, so cli.* and document.* move ops_per_s and "
        "latency_p50_ms here and nowhere else."
    ),
    "combing-sweep": (
        "1 client, closed loop, --seed inputs. Spin^c scan: a cold solve per c on "
        "cached SNFs. solve_rational, theta_g move ops_per_s and latency; cache "
        "sizes peak_rss_mb; SNF work not."
    ),
    "large-presentation": (
        "1 client, closed loop, --seed inputs. Coefficient explosion, no cache "
        "hits: SNF, signature, unimodular_inverse self time and max_bits move "
        "latency; per-B precompute must not."
    ),
    "torsion-image": (
        "1 client, closed loop, --seed inputs. Per-class and per-vector work: "
        "us_per_class, us_per_vector, solve_rational move it; CLI share <1%, so "
        "cli.* and document.* must not."
    ),
}

# name: (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "failed_ratio": ("ratio", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# The public functions some workload calls; each gets .calls and .self_s.
TRACED_FUNCTIONS = {
    "cli": ("build_parser", "main"),
    "document": ("parse_document", "parse_rational", "format_rational"),
    "linalg": (
        "smith_normal_form",
        "signature",
        "unimodular_inverse",
        "invert_rational",
        "solve_rational",
        "solve_integer",
        "kernel_basis",
        "solve_mod2",
        "rank_mod2",
    ),
    "surgery": (
        "homology_summary",
        "enumerate_torsion",
        "linking_form",
        "meridian_pairing",
        "is_torsion_class",
        "reduce_class",
    ),
    "combing": (
        "theta_g",
        "p1",
        "p1_image",
        "spin_c_equal",
        "combing_equal",
        "gamma_orbit_modulus",
        "hf_grading",
        "parity_check",
        "reference_parallelization",
        "validate_combing",
    ),
    "framed": ("cobordism_class", "total_self_linking"),
    "theta": (),
}

# The six lru_caches: metric name -> (module, attribute).
CACHES = {
    "smith_normal_form": ("linalg", "smith_normal_form"),
    "signature": ("linalg", "signature"),
    "unimodular_inverse": ("linalg", "unimodular_inverse"),
    "homology_summary": ("surgery", "homology_summary"),
    "_snf_with_inverse": ("surgery", "_snf_with_inverse"),
    "_theta_g_cached": ("combing", "_theta_g_cached"),
}


def per_layer() -> dict[str, tuple[str, str]]:
    """name: (unit, better) for every metric of a traced run."""
    out: dict[str, tuple[str, str]] = {}
    for layer, functions in TRACED_FUNCTIONS.items():
        for fn in functions:
            out[f"{layer}.{fn}.calls"] = ("count", "lower")
            out[f"{layer}.{fn}.self_s"] = ("s", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out["linalg.snf.max_bits"] = ("bits", "lower")
    out["surgery.rep.max_bits"] = ("bits", "lower")
    out["surgery.enumerate_torsion.us_per_class"] = ("us", "lower")
    out["combing.p1_image.us_per_vector"] = ("us", "lower")
    for cache in CACHES:
        out[f"cache.{cache}.hits"] = ("count", "higher")
        out[f"cache.{cache}.misses"] = ("count", "lower")
        out[f"cache.{cache}.size"] = ("count", "lower")
    out["trace.overhead_ratio"] = ("ratio", "higher")
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": k, "unit": u, "better": b, "bound": bound}
            for k, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": k, "unit": u, "better": b} for k, (u, b) in per_layer().items()
        ],
    }


def main() -> None:
    data = benchmark_json()
    for w in data["workloads"]:
        if len(w["why"]) > 200:
            raise SystemExit(f"why of {w['name']} is {len(w['why'])} characters")
    if len(data["per_layer"]) > 128:
        raise SystemExit(f"{len(data['per_layer'])} per-layer metrics, at most 128")
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
