"""Span tracing for the traced benchmark run.

Only the traced run installs these wrappers.  Each wrapped public function
records a span (name, start, end, parent span, item id, phase); spans stay
in memory and are written out when the workload ends.  A function imported
by name into several modules is wrapped under every name.  Per-layer
metrics are computed from the spans of the timed phase.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (defining module, attribute)
TARGETS = {
    "builder.build": ("dynrmat.builder", "build"),
    "rmatrix.evaluate": ("dynrmat.rmatrix", "evaluate"),
    "rmatrix.embed_with_shift": ("dynrmat.rmatrix", "embed_with_shift"),
    "verifier.sample_lambda": ("dynrmat.verifier", "sample_lambda"),
    "verifier.check_system": ("dynrmat.verifier", "check_system"),
    "verifier.dqybe_defect": ("dynrmat.verifier", "dqybe_defect"),
    "verifier.check_invertibility": ("dynrmat.verifier", "check_invertibility"),
    "classifier.classify": ("dynrmat.classifier", "classify"),
    "classifier.detect_relations": ("dynrmat.classifier", "detect_relations"),
    "classifier.build_equivalences": ("dynrmat.classifier", "build_equivalences"),
    "classifier.incidence_matrices": ("dynrmat.classifier", "incidence_matrices"),
    "classifier.check_propagation": ("dynrmat.classifier", "check_propagation"),
    "classifier.triangularize": ("dynrmat.classifier", "triangularize"),
    "classifier.block_structure": ("dynrmat.classifier", "block_structure"),
    "classifier.recover_params": ("dynrmat.classifier", "recover_params"),
    "classifier.reference_point": ("dynrmat.classifier", "_reference_point"),
    "hecke.hecke_classify": ("dynrmat.hecke", "hecke_classify"),
    "transforms.apply_twist": ("dynrmat.transforms", "apply_twist"),
    "transforms.apply_2form": ("dynrmat.transforms", "apply_2form"),
    "transforms.contract": ("dynrmat.transforms", "contract"),
    "transforms.decouple_compose": ("dynrmat.transforms", "decouple_compose"),
    "transforms.scale_f": ("dynrmat.transforms", "scale_f"),
    "transforms.trig_to_rational_limit": ("dynrmat.transforms", "trig_to_rational_limit"),
    "transforms.check_closed": ("dynrmat.transforms", "check_closed"),
    "serialize.load_config": ("dynrmat.serialize", "load_config"),
    "serialize.parse_config": ("dynrmat.serialize", "parse_config"),
    "serialize.two_form_from_json": ("dynrmat.serialize", "two_form_from_json"),
    "serialize.matrix_from_samples": ("dynrmat.serialize", "matrix_from_samples"),
    "serialize.params_to_json": ("dynrmat.serialize", "params_to_json"),
    "serialize.complex_to_json": ("dynrmat.serialize", "complex_to_json"),
    "serialize.dense_point_to_json": ("dynrmat.rmatrix", "dense_point_to_json"),
    "serialize.partition_to_json": ("dynrmat.partition", "to_json"),
    "cli.main": ("dynrmat.cli", "main"),
}

STRUCTURE = ("classifier.build_equivalences", "classifier.incidence_matrices",
             "classifier.check_propagation", "classifier.triangularize",
             "classifier.block_structure")
TRANSFORMS = ("transforms.apply_twist", "transforms.apply_2form", "transforms.contract",
              "transforms.decouple_compose", "transforms.scale_f",
              "transforms.trig_to_rational_limit")
PARSE = ("serialize.load_config", "serialize.parse_config",
         "serialize.two_form_from_json", "serialize.matrix_from_samples")
TO_JSON = ("serialize.params_to_json", "serialize.complex_to_json",
           "serialize.dense_point_to_json", "serialize.partition_to_json")
MATRIX_OUT = TRANSFORMS[:4]
STACK_DEPTHS = (1, 2, 3)

# span record fields
NAME, START, END, PARENT, ITEM, PHASE, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.phase = None            # None: not recording
        self.tags: dict[int, tuple] = {}  # id(matrix) -> (matrix, stacked depth or "sampled")

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from dynrmat.rmatrix import DynamicalRMatrix

        for modname, _ in TARGETS.values():
            importlib.import_module(modname)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dynrmat" or name.startswith("dynrmat."))]
        for span, (modname, attr) in TARGETS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        DynamicalRMatrix.tables = self._wrap_tables(DynamicalRMatrix.tables)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item,
               self.phase, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name: str, fn):
        tracer = self
        matrix_out = name in MATRIX_OUT
        sampled_out = name == "serialize.matrix_from_samples"
        load = name == "serialize.load_config"
        dense = name == "verifier.dqybe_defect"
        sampler = name == "verifier.sample_lambda"

        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            if sampler:
                rec[EXTRA] = {"drawn": 0, "base": None}
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()
            if matrix_out:
                depth = max((tracer.depth(a) for a in args if hasattr(a, "tables")), default=0)
                tracer.tags[id(result)] = (result, depth + 1)
            elif sampled_out:
                tracer.tags[id(result)] = (result, "sampled")
            elif load:
                rec[EXTRA] = {"bytes": os.path.getsize(args[0])}
            elif dense:
                rec[EXTRA] = {"n": args[0].n}
            elif sampler:
                rec[EXTRA] = {"drawn": rec[EXTRA]["drawn"], "accepted": len(result)}
            return result

        return wrapper

    def depth(self, R) -> int:
        tag = self.tags.get(id(R))
        return tag[1] if tag and isinstance(tag[1], int) else 0

    def _wrap_tables(self, fn):
        tracer = self

        def tables(R, lam):
            if tracer.phase is None:
                return fn(R, lam)
            key = np.asarray(lam, dtype=complex)
            hit = key.tobytes() in getattr(R, "_cache", {})
            parent = tracer.spans[tracer.stack[-1]] if tracer.stack else None
            if parent is not None and parent[NAME] == "verifier.sample_lambda":
                # a draw starts with its base point; the n shifted points follow
                base = parent[EXTRA]["base"]
                diff = None if base is None or base.shape != key.shape else key - base
                if diff is None or not (np.count_nonzero(diff) == 1
                                        and abs(diff.sum() - 1.0) < 1e-9):
                    parent[EXTRA]["drawn"] += 1
                    parent[EXTRA]["base"] = key
            tag = tracer.tags.get(id(R))
            rec = tracer._open("rmatrix.tables")
            rec[EXTRA] = {"hit": hit, "tag": tag[1] if tag else 0}
            rec[START] = time.perf_counter()
            try:
                return fn(R, lam)
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()

        return tables

    # -- bookkeeping ------------------------------------------------------------

    def end_item(self) -> None:
        self.tags.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, rec in enumerate(self.spans):
                extra = rec[EXTRA]
                if extra and "base" in extra:
                    extra = {k: v for k, v in extra.items() if k != "base"}
                fh.write(json.dumps({
                    "id": idx, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "item": rec[ITEM], "phase": rec[PHASE],
                    "extra": extra,
                }) + "\n")

    # -- metrics ----------------------------------------------------------------

    def metrics(self, ops: int, setups: int) -> dict:
        spans = self.spans
        timed = [i for i, s in enumerate(spans) if s[PHASE] == "timed"]
        child_time = defaultdict(float)
        for i in timed:
            p = spans[i][PARENT]
            if p >= 0:
                child_time[p] += spans[i][END] - spans[i][START]

        def dur(i):
            return spans[i][END] - spans[i][START]

        by_name = defaultdict(list)
        for i in timed:
            by_name[spans[i][NAME]].append(i)

        def total(*names):
            return sum(dur(i) for name in names for i in by_name[name])

        def outermost(names):
            # count a span only when no enclosing span is in the same group
            names = set(names)
            out = 0.0
            for name in names:
                for i in by_name[name]:
                    p = spans[i][PARENT]
                    while p >= 0 and spans[p][NAME] not in names:
                        p = spans[p][PARENT]
                    if p < 0:
                        out += dur(i)
            return out

        def self_time(name):
            return sum(dur(i) - child_time[i] for i in by_name[name])

        per = 1000.0 / ops  # seconds per run -> ms per operation
        tables = by_name["rmatrix.tables"]
        misses = [i for i in tables if not spans[i][EXTRA]["hit"]]
        miss_s = sum(dur(i) for i in misses)

        def us_per_miss(select):
            chosen = [i for i in misses if select(spans[i][EXTRA]["tag"])]
            return 1e6 * sum(dur(i) for i in chosen) / len(chosen) if chosen else 0.0

        dense_n = [spans[i][EXTRA]["n"] for i in by_name["verifier.dqybe_defect"]]
        drawn = sum(spans[i][EXTRA]["drawn"] for i in by_name["verifier.sample_lambda"])
        accepted = sum(spans[i][EXTRA]["accepted"] for i in by_name["verifier.sample_lambda"])
        loads = by_name["serialize.load_config"]
        setup_build = sum(s[END] - s[START] for s in spans
                          if s[PHASE] == "setup" and s[NAME] == "builder.build")
        m = {
            "verifier.global_check_ms": total("verifier.dqybe_defect") * per,
            "verifier.global_check_calls": len(dense_n) / ops,
            # four N x N complex products (8 real flops per multiply-add), N = n^3
            "verifier.global_check_flop": sum(32.0 * n ** 9 for n in dense_n) / ops,
            # six embedded operands, two partial products, two sides: 16 B each
            "verifier.global_check_bytes": sum(160.0 * n ** 6 for n in dense_n) / ops,
            "verifier.component_eq_ms": self_time("verifier.check_system") * per,
            "verifier.sample_lambda_ms": total("verifier.sample_lambda") * per,
            "verifier.sample_accept_ratio": accepted / drawn if drawn else 0.0,
            "verifier.invertibility_ms": total("verifier.check_invertibility") * per,
            "rmatrix.tables_miss_ms": miss_s * per,
            "rmatrix.tables_misses": len(misses) / ops,
            "rmatrix.tables_hit_ratio": (len(tables) - len(misses)) / len(tables) if tables else 0.0,
            "rmatrix.tables_us_per_miss": 1e6 * miss_s / len(misses) if misses else 0.0,
            "rmatrix.embed_ms": total("rmatrix.embed_with_shift") * per,
            "rmatrix.evaluate_ms": total("rmatrix.evaluate") * per,
            "builder.build_ms": total("builder.build") * per,
            "builder.build_calls": len(by_name["builder.build"]) / ops,
            "builder.setup_build_ms": 1000.0 * setup_build / setups,
            "classifier.classify_ms": total("classifier.classify") * per,
            "classifier.detect_relations_ms": total("classifier.detect_relations") * per,
            "classifier.structure_ms": total(*STRUCTURE) * per,
            "classifier.recover_params_ms": total("classifier.recover_params") * per,
            "classifier.reference_point_ms": total("classifier.reference_point") * per,
            "hecke.classify_ms": total("hecke.hecke_classify") * per,
            "transforms.apply_ms": outermost(TRANSFORMS) * per,
            "transforms.check_closed_ms": total("transforms.check_closed") * per,
            "transforms.stacked_tables_us_per_miss": us_per_miss(lambda t: isinstance(t, int) and t >= 1),
            "serialize.parse_ms": outermost(PARSE) * per,
            "serialize.sampled_lookup_ms": 1000.0 * sum(
                dur(i) for i in misses if spans[i][EXTRA]["tag"] == "sampled") / ops,
            "serialize.to_json_ms": outermost(TO_JSON) * per,
            "serialize.config_bytes": sum(spans[i][EXTRA]["bytes"] for i in loads) / ops,
            "cli.self_ms": self_time("cli.main") * per,
        }
        for k in STACK_DEPTHS:
            m[f"transforms.stacked{k}_tables_us_per_miss"] = us_per_miss(lambda t, k=k: t == k)
        return m


UNITS = {
    "verifier.global_check_calls": "calls/op",
    "verifier.global_check_flop": "flop/op",
    "verifier.global_check_bytes": "B/op",
    "verifier.sample_accept_ratio": "ratio",
    "rmatrix.tables_misses": "misses/op",
    "rmatrix.tables_hit_ratio": "ratio",
    "rmatrix.tables_us_per_miss": "us",
    "builder.build_calls": "calls/op",
    "builder.setup_build_ms": "ms",
    "serialize.config_bytes": "B/op",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us_per_miss"):
        return "us"
    return "ms/op"
