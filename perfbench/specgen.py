"""Seeded scenario-spec generators for the benchmark's sweep workloads.

The benchmark never hands the simulator anything but the generated
`@regate-spec v1` text: the seed expands deterministically into spec
bytes (same seed, same bytes), in the style of genny's seeded
workload expansion. Every value stays inside the generator families'
validity envelope on NPU-D, so no case of a generated spec fails.

Both sweeps are stratified: the number of sections per family and
model is fixed and only the values inside each stratum are drawn from
the seed. Per-case cost depends mostly on the family and graph shape,
so different seeds cost about the same to simulate, which keeps run to
run spread low while the inputs still change with the seed.
"""

import random

HEADER = "@regate-spec v1\n"

LLAMA_MODELS = ("8b", "13b", "70b", "405b")

# ---- moe_sweep -------------------------------------------------------
#
# Why each varied dimension is there:
#   family   moe / llama-prefill / llama-decode: three graph builders
#            with different block structures (decode adds a KV-cache
#            step loop), so graph build and compile see varied graphs.
#   model    8b..405b: layer count and hidden size set the operator
#            shapes and, through HBM fit, the pod size.
#   experts  MoE weight residency: more experts scale the model state,
#            which scales chips up on NPU-D and changes collectives.
#   top_k    active FFN width per token: a new GEMM shape per value.
#   seq_len  sequence length, 256..8192 in steps of 128: every GEMM
#            and attention shape, so few operators repeat across cases.
#   out_len  decode length: the decode loop's repeat count.
#   batch    per-replica batch after the dp split: GEMM M dimension.
#   chips    pod size: tp/dp split, collective sizes, torus shape.
#
# Validity envelope (NPU-D): batch >= 64 keeps batch >= dp even after
# the HBM-fit rescale (405b with 32 experts rescales to 256 chips, dp
# 32); chips are powers of two up to 64; top_k <= experts. Section
# tuples (family, model, experts, top_k, seq_len, out_len) are
# distinct, so every expanded case is a distinct scenario.

MOE_SECTIONS_PER_MODEL = 40
PREFILL_SECTIONS_PER_MODEL = 12
DECODE_SECTIONS_PER_MODEL = 12
EXPERTS = (4, 8, 16, 32)
TOP_K = (1, 2, 4)
SEQ_LENS = tuple(range(256, 8193, 128))
OUT_LENS = (128, 256, 512)
BATCHES = (64, 96, 128, 192, 256, 384, 512)
CHIPS = (1, 2, 4, 8, 16, 32, 64)
BATCHES_PER_SECTION = 4
CHIPS_PER_SECTION = 3


def _pick(rng, values, count):
    """`count` distinct values of `values`, sorted."""
    return sorted(rng.sample(values, count))


def moe_sweep_sections(seed):
    """The moe_sweep spec as a list of (name, [(key, value), ...])."""
    rng = random.Random(f"moe_sweep:{seed}")
    sections = []
    for model in LLAMA_MODELS:
        combos = [(e, k, s) for e in EXPERTS for k in TOP_K
                  for s in SEQ_LENS]
        for i, (experts, top_k, seq) in enumerate(
                rng.sample(combos, MOE_SECTIONS_PER_MODEL)):
            sections.append((f"moe-{model}-{i}", [
                ("family", "moe"), ("model", model),
                ("experts", experts), ("top_k", top_k),
                ("seq_len", seq)]))
        for i, seq in enumerate(
                rng.sample(SEQ_LENS, PREFILL_SECTIONS_PER_MODEL)):
            sections.append((f"prefill-{model}-{i}", [
                ("family", "llama-prefill"), ("model", model),
                ("seq_len", seq)]))
        combos = [(s, o) for s in SEQ_LENS for o in OUT_LENS]
        for i, (seq, out) in enumerate(
                rng.sample(combos, DECODE_SECTIONS_PER_MODEL)):
            sections.append((f"decode-{model}-{i}", [
                ("family", "llama-decode"), ("model", model),
                ("seq_len", seq), ("out_len", out)]))
    rng.shuffle(sections)
    for _, keys in sections:
        keys.append(("batch", _pick(rng, BATCHES, BATCHES_PER_SECTION)))
        keys.append(("chips", _pick(rng, CHIPS, CHIPS_PER_SECTION)))
    return sections


# ---- gating_sweep ----------------------------------------------------
#
# The five §6.5 sensitivity workloads (Table-4 setups, so the simulator
# normalizes them onto the built-in workloads) crossed with a grid of
# gating overrides. Why each axis is there:
#   delay_scale  scales on/off delays and BETs: which gaps pass the
#                break-even test and the wake-up overhead charged.
#   logic_off    gated-logic leakage: SA/VU/HBM/ICI gated energy.
#   sram_sleep   drowsy-SRAM leakage (ReGate-Base/HW SRAM column).
#   sram_off     gated-SRAM leakage (ReGate-Full SRAM column).
# Envelope: delay_scale > 0; leakage ratios in (0, 1) with
# sram_off <= 0.1 < sram_sleep, the physical order of the two states.

SENSITIVITY = (
    ("Train-405B", "llama-train", "405b", 32, 16),
    ("Prefill-405B", "llama-prefill", "405b", 64, 256),
    ("Decode-405B", "llama-decode", "405b", 2048, 64),
    ("DLRM-L", "dlrm", "l", 4096, 8),
    ("DiT-XL", "diffusion", "dit-xl", 8192, 64),
)
GATING_AXES = (
    ("delay_scale", (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0), 6),
    ("logic_off", (0.01, 0.02, 0.03, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3,
                   0.4, 0.6), 5),
    ("sram_sleep", (0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.8), 5),
    ("sram_off", (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1), 5),
)


def gating_sweep_sections(seed):
    """The gating_sweep spec as a list of (name, [(key, value), ...])."""
    rng = random.Random(f"gating_sweep:{seed}")
    axes = [(key, _pick(rng, values, count))
            for key, values, count in GATING_AXES]
    combos = [[]]
    for key, values in axes:
        combos = [c + [(key, v)] for c in combos for v in values]
    sections = []
    for i, combo in enumerate(combos):
        for name, family, model, batch, chips in SENSITIVITY:
            sections.append((f"g{i}-{name}", [
                ("family", family), ("model", model), ("batch", batch),
                ("chips", chips)] + combo))
    return sections


# ---- paper_suite -----------------------------------------------------
#
# paper_suite runs the binaries' built-in axis; its spec form (the 17
# Table-1/Table-4 workloads) is what the set-up probe and the traced
# spec parse read.

PAPER_WORKLOADS = (
    ("Train-8B", "llama-train", "8b", 32, 4),
    ("Train-13B", "llama-train", "13b", 32, 4),
    ("Train-70B", "llama-train", "70b", 32, 8),
    ("Train-405B", "llama-train", "405b", 32, 16),
    ("Prefill-8B", "llama-prefill", "8b", 4, 1),
    ("Prefill-13B", "llama-prefill", "13b", 4, 1),
    ("Prefill-70B", "llama-prefill", "70b", 8192, 4096),
    ("Prefill-405B", "llama-prefill", "405b", 64, 256),
    ("Decode-8B", "llama-decode", "8b", 8, 1),
    ("Decode-13B", "llama-decode", "13b", 4, 1),
    ("Decode-70B", "llama-decode", "70b", 4096, 128),
    ("Decode-405B", "llama-decode", "405b", 2048, 64),
    ("DLRM-S", "dlrm", "s", 4096, 8),
    ("DLRM-M", "dlrm", "m", 4096, 8),
    ("DLRM-L", "dlrm", "l", 4096, 8),
    ("DiT-XL", "diffusion", "dit-xl", 8192, 64),
    ("GLIGEN", "diffusion", "gligen", 256, 64),
)


def paper_suite_sections(seed):
    """The 17 paper workloads; the seed does not change them."""
    del seed
    return [(name, [("family", family), ("model", model),
                    ("batch", batch), ("chips", chips)])
            for name, family, model, batch, chips in PAPER_WORKLOADS]


GENERATORS = {
    "paper_suite": paper_suite_sections,
    "moe_sweep": moe_sweep_sections,
    "gating_sweep": gating_sweep_sections,
}


def _value(value):
    if isinstance(value, list):
        return ",".join(_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def render(sections):
    """Spec text of `sections`."""
    out = [HEADER]
    for name, keys in sections:
        out.append(f"\n[scenario {name}]\n")
        out.extend(f"{key} = {_value(value)}\n" for key, value in keys)
    return "".join(out)


def spec_text(workload, seed):
    """The full spec of `workload` at `seed`."""
    return render(GENERATORS[workload](seed))


def one_case_text(workload, seed):
    """The spec cut to its first case: the set-up probe's input."""
    name, keys = GENERATORS[workload](seed)[0]
    return render([(name, [(k, v[0] if isinstance(v, list) else v)
                           for k, v in keys])])


def case_count(workload, seed):
    """Number of cases the spec expands to."""
    total = 0
    for _, keys in GENERATORS[workload](seed):
        n = 1
        for _, value in keys:
            if isinstance(value, list):
                n *= len(value)
        total += n
    return total
