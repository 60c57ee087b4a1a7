"""Spans around calls into the package, for the benchmark's traced run.

The tracer replaces the package's public functions with timing wrappers,
under every name they are looked up by: ``layers``, ``architecture`` and
``training`` import ``functional`` names directly, so each module namespace
is patched, not just ``functional``. Backward time per primitive comes from
wrapping the pull callable that ``Tape.append`` receives, labelled with the
primitive that was running when it was recorded.

Spans (name, start, end, parent, request) are kept in memory and written
out at the end. A span's self time is its duration minus the part of it its
children cover.

Work is counted from shapes, not measured. ``macs`` are multiply-accumulates
for convolutions and dense layers; for the other primitives they count one
per arithmetic update of an element (two for an eval batch norm, four for a
training batch norm, one for a residual add or an average-pool input, two
per logit for cross-entropy) and zero for primitives that only compare or
copy (ReLU, the pools that select, the embedding gather). ``bytes`` reads
every operand once and writes the output once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

OPS = (
    "conv1d_k3",
    "conv1d_k1",
    "depthwise_conv1d",
    "batch_norm_train",
    "batch_norm_eval",
    "maxpool_halve",
    "kmax_pool",
    "adaptive_avg_pool",
    "affine",
    "relu",
    "add",
    "embedding",
    "cross_entropy",
)
LEVELS = 4
SETUP = -1  # request id of spans recorded while setting up


def _bcl(t):
    s = t.shape
    return (1,) + tuple(s) if len(s) == 2 else tuple(s)


# Each cost function takes the primitive's arguments and returns
# (label, macs, bytes, kind, norm). For kind "conv" or "fc", macs / norm is
# the number of weights the call applied once per output position.
def _conv1d(x, weight, bias=None, padding=0):
    b, ci, length = _bcl(x)
    co, _, k = weight.shape
    t = length + 2 * padding - k + 1
    nbytes = x.dtype.itemsize * (b * ci * length + weight.size + b * co * t + (co if bias is not None else 0))
    return f"conv1d_k{k}", b * t * co * ci * k, nbytes, "conv", b * t


def _depthwise(x, weight, padding=0):
    b, c, length = _bcl(x)
    k = weight.shape[1]
    t = length + 2 * padding - k + 1
    return "depthwise_conv1d", b * t * c * k, x.dtype.itemsize * (b * c * length + weight.size + b * c * t), "conv", b * t


def _affine(x, weight, bias):
    b = x.shape[0] if len(x.shape) == 2 else 1
    m, n = weight.shape
    return "affine", b * m * n, x.dtype.itemsize * (b * n + m * n + m + b * m), "fc", b


def _bn_train(x, gamma, beta, eps):
    return "batch_norm_train", 4 * x.size, x.dtype.itemsize * (2 * x.size + 2 * gamma.size), None, 1


def _bn_eval(x, gamma, beta, running_mean, running_var, eps):
    return "batch_norm_eval", 2 * x.size, x.dtype.itemsize * (2 * x.size + 4 * gamma.size), None, 1


def _maxpool(x):
    b, c, length = _bcl(x)
    return "maxpool_halve", 0, x.dtype.itemsize * (b * c * length + b * c * ((length + 1) // 2)), None, 1


def _kmax(x, k):
    b, c, length = _bcl(x)
    return "kmax_pool", 0, x.dtype.itemsize * (b * c * length + b * c * k), None, 1


def _avgpool(x, out_len):
    b, c, length = _bcl(x)
    return "adaptive_avg_pool", x.size, x.dtype.itemsize * (x.size + b * c * out_len), None, 1


def _relu(x):
    return "relu", 0, 2 * x.dtype.itemsize * x.size, None, 1


def _add(a, b):
    return "add", a.size, 3 * a.dtype.itemsize * a.size, None, 1


def _embedding(indices, table):
    n = np.asarray(indices).size
    dim = table.shape[1]
    return "embedding", 0, 8 * n + 2 * table.dtype.itemsize * n * dim, None, 1


def _cross_entropy(logits, labels):
    return "cross_entropy", 2 * logits.size, logits.dtype.itemsize * logits.size + 8 * logits.shape[0], None, 1


def _union_length(intervals, lo, hi) -> float:
    covered, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            covered += e - s
            reach = e
    return covered


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _req in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [(end - start) - _union_length(children[i], start, end) for i, (_n, start, end, _p, _r) in enumerate(spans)]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.ops: list[tuple] = []  # (request id, label, macs, bytes, kind, norm)
        self.counts = defaultdict(int)  # (request id, counter) -> count
        self.request = None
        self._label = None
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent, self.request])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = self.clock()

    def timed(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def primitive(self, fn, cost):
        def traced(*args, **kwargs):
            label, macs, nbytes, kind, norm = cost(*args, **kwargs)
            self.ops.append((self.request, label, macs, nbytes, kind, norm))
            outer, self._label = self._label, label
            self.begin("functional." + label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
                self._label = outer

        return traced

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's functions and methods; undo with :meth:`uninstall`."""
        import svdcnn
        from svdcnn import architecture, autograd, data, functional, layers, training

        f = functional
        wrappers = {
            f.conv1d: self.primitive(f.conv1d, _conv1d),
            f.depthwise_conv1d: self.primitive(f.depthwise_conv1d, _depthwise),
            f.affine: self.primitive(f.affine, _affine),
            f.batch_norm_train: self.primitive(f.batch_norm_train, _bn_train),
            f.batch_norm_eval: self.primitive(f.batch_norm_eval, _bn_eval),
            f.maxpool_halve: self.primitive(f.maxpool_halve, _maxpool),
            f.kmax_pool: self.primitive(f.kmax_pool, _kmax),
            f.adaptive_avg_pool: self.primitive(f.adaptive_avg_pool, _avgpool),
            f.relu: self.primitive(f.relu, _relu),
            f.add: self.primitive(f.add, _add),
            f.embedding: self.primitive(f.embedding, _embedding),
            f.cross_entropy: self.primitive(f.cross_entropy, _cross_entropy),
            autograd.backward: self.timed("autograd.backward", autograd.backward),
            data.quantize: self.timed("data.quantize", data.quantize),
            data.load_csv: self.timed("data.load_csv", data.load_csv),
            data.make_batches: self.timed("data.make_batches", data.make_batches),
            training.load_checkpoint: self.timed("training.load_checkpoint", training.load_checkpoint),
        }
        by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
        for module in (svdcnn, functional, layers, architecture, training, data, autograd):
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._patch(module, attr, by_id[id(value)])

        model_cls, sgd_cls = architecture.Model, training.SGD
        self._patch(model_cls, "__init__", self.timed("architecture.model_init", model_cls.__init__))
        self._patch(model_cls, "forward", self.timed("architecture.forward", model_cls.forward))
        self._patch(sgd_cls, "step", self.timed("training.sgd_step", sgd_cls.step))
        self._patch(sgd_cls, "zero_grad", self.timed("training.zero_grad", sgd_cls.zero_grad))

        append = autograd.Tape.append

        def traced_append(tape, name, out, pull):
            self.counts[(self.request, "tape_entries")] += 1
            return append(tape, name, out, self.timed(f"functional.{self._label or name}.bwd", pull))

        self._patch(autograd.Tape, "append", traced_append)

        tensor_init = autograd.Tensor.__init__

        def counted_init(tensor, *args, **kwargs):
            self.counts[(self.request, "tensors_created")] += 1
            tensor_init(tensor, *args, **kwargs)

        self._patch(autograd.Tensor, "__init__", counted_init)

    def instrument(self, model) -> None:
        """Add layer spans around one model's embedding, stem, blocks and head."""
        model.embedding.forward = self.timed("layers.embedding", model.embedding.forward)
        model.first_conv.forward = self.timed("layers.stem", model.first_conv.forward)
        for i, blocks in enumerate(model.levels):
            for block in blocks:
                block.forward = self.timed(f"layers.level{i}", block.forward)
        model.head.forward = self.timed("layers.head", model.head.forward)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------
    def cross_check(self, requests, conv_weights: int, head_weights: int) -> list[str]:
        """Per request, convolution MACs / (B * L_out) must sum to ``conv_weights``
        and dense MACs / B to ``head_weights``; returns every mismatch."""
        sums = {r: {"conv": 0, "fc": 0} for r in requests}
        problems = []
        for req, label, macs, _nbytes, kind, norm in self.ops:
            if req in sums and kind is not None:
                if macs % norm:
                    problems.append(f"request {req}: {label} MACs {macs} not a multiple of {norm}")
                sums[req][kind] += macs // norm
        for req, s in sums.items():
            if s["conv"] != conv_weights:
                problems.append(f"request {req}: convolution weights {s['conv']} != count_params conv {conv_weights}")
            if s["fc"] != head_weights:
                problems.append(f"request {req}: dense weights {s['fc']} != head_weight_params {head_weights}")
        return problems

    def metrics(self, requests) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``.

        Request metrics are means over ``requests``; set-up metrics (``.s``)
        total the spans recorded under the SETUP request id. Primitive times
        are self times; layer, model and training times include their
        children.
        """
        requests = set(requests)
        n = len(requests)
        selfs = self_times(self.spans)
        own, incl, calls, setup = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(float)
        for (name, start, end, _parent, req), own_t in zip(self.spans, selfs):
            if req in requests:
                own[name] += own_t
                incl[name] += end - start
                calls[name] += 1
            elif req == SETUP:
                setup[name] += end - start
        work = defaultdict(lambda: [0, 0])
        for req, label, macs, nbytes, _kind, _norm in self.ops:
            if req in requests:
                work[label][0] += macs
                work[label][1] += nbytes

        def count(key):
            return sum(v for (req, k), v in self.counts.items() if k == key and req in requests) / n

        out = {}
        for op in OPS:
            name = f"functional.{op}"
            out[f"{name}.fwd_ms"] = (1e3 * own[name] / n, "ms")
            out[f"{name}.bwd_ms"] = (1e3 * own[name + ".bwd"] / n, "ms")
            out[f"{name}.calls"] = (calls[name] / n, "count")
            out[f"{name}.macs"] = (work[op][0] / n, "MAC")
            out[f"{name}.bytes"] = (work[op][1] / n, "B")
        out["autograd.backward.ms"] = (1e3 * incl["autograd.backward"] / n, "ms")
        out["autograd.tape_entries"] = (count("tape_entries"), "count")
        out["autograd.tensors_created"] = (count("tensors_created"), "count")
        for layer in ("embedding", "stem", *(f"level{i}" for i in range(LEVELS)), "head"):
            out[f"layers.{layer}.ms"] = (1e3 * incl[f"layers.{layer}"] / n, "ms")
        out["architecture.forward.ms"] = (1e3 * incl["architecture.forward"] / n, "ms")
        out["architecture.model_init.s"] = (setup["architecture.model_init"], "s")
        out["training.load_checkpoint.s"] = (setup["training.load_checkpoint"], "s")
        out["training.sgd_step.ms"] = (1e3 * incl["training.sgd_step"] / n, "ms")
        out["training.zero_grad.ms"] = (1e3 * incl["training.zero_grad"] / n, "ms")
        out["data.quantize.ms"] = (1e3 * incl["data.quantize"] / n, "ms")
        out["data.quantize.calls"] = (calls["data.quantize"] / n, "count")
        out["data.load_csv.s"] = (setup["data.load_csv"], "s")
        out["data.make_batches.ms"] = (1e3 * incl["data.make_batches"] / n, "ms")
        return out

    def write(self, path) -> None:
        """Write every span with its self time, plus per-name totals."""
        selfs = self_times(self.spans)
        totals = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _parent, _req), own_t in zip(self.spans, selfs):
            t = totals[name]
            t["count"] += 1
            t["total_s"] += end - start
            t["self_s"] += own_t
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "request", "self_s"],
                    "spans": [[*span, own_t] for span, own_t in zip(self.spans, selfs)],
                    "totals": totals,
                },
                fh,
            )
