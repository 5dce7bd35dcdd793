"""The composable locking-primitive API: registry, genes, alphabets.

Covers the PRIMITIVES registry contract, per-primitive sample → apply →
decode round-trips, repair invariants over mixed alphabets, kind-aware
operators, composite (link + scope) fitness aggregation, Verilog export
of every primitive's gates, spec/fingerprint semantics of the
``alphabet`` field, and a mixed-alphabet end-to-end engine run whose
champion record names per-gene primitive kinds.
"""

from __future__ import annotations

import json

import pytest

from repro.api.engines import genotype_from_record, genotype_record
from repro.api.spec import ExperimentSpec, SweepSpec
from repro.circuits import load_circuit
from repro.ec.fitness import SpecFitness
from repro.ec.genotype import (
    genotype_is_valid,
    genotype_key,
    genotype_kinds,
    random_genotype,
    repair_genotype,
)
from repro.ec.ga import GaConfig, GeneticAlgorithm
from repro.ec.operators import MutationConfig, mutate
from repro.errors import (
    EvolutionError,
    LockingError,
    RegistryError,
    SpecError,
)
from repro.io import load_locked_design, save_locked_design
from repro.locking import MuxGene
from repro.locking.genome_lock import genes_from_locked, lock_with_genes
from repro.locking.primitives import (
    DEFAULT_ALPHABET,
    AndOrGene,
    XorGene,
    genotype_overhead,
    get_primitive,
    primitive_for_gene,
    resolve_alphabet,
)
from repro.netlist import write_verilog
from repro.registry import PRIMITIVES
from repro.sim import check_equivalence

from reference.netlist import validate_netlist

MIXED = ("mux", "xor", "and_or")


@pytest.fixture(scope="module")
def rand100():
    return load_circuit("rand_100_7")


# ------------------------------------------------------------- registry
def test_builtin_primitives_registered():
    assert {"mux", "xor", "and_or"} <= set(PRIMITIVES.available())


def test_primitive_instances_are_shared():
    assert get_primitive("mux") is get_primitive("mux")
    assert get_primitive("mux").kind == "mux"
    assert get_primitive("mux").scoring == "link"
    assert get_primitive("xor").scoring == "scope"
    assert get_primitive("and_or").scoring == "scope"


def test_resolve_alphabet_contract():
    assert resolve_alphabet(None) == DEFAULT_ALPHABET
    assert resolve_alphabet(["xor", "mux"]) == ("xor", "mux")
    with pytest.raises(LockingError, match="at least one"):
        resolve_alphabet(())
    with pytest.raises(LockingError, match="duplicate"):
        resolve_alphabet(("mux", "mux"))
    with pytest.raises(RegistryError, match="unknown locking primitive"):
        resolve_alphabet(("mux", "bogus"))
    with pytest.raises(LockingError, match="did you mean"):
        resolve_alphabet("mux,xor")  # a string is not a name sequence
    with pytest.raises(LockingError, match="sequence of primitive names"):
        resolve_alphabet(5)  # not iterable at all
    with pytest.raises(LockingError, match="ordered sequence"):
        resolve_alphabet({"mux", "xor"})  # sets have no stable order


# --------------------------------------------- per-primitive round trip
@pytest.mark.parametrize("kind", sorted(["mux", "xor", "and_or"]))
def test_sample_apply_decode_roundtrip(rand100, kind):
    """Every primitive: sample a gene, apply it, decode it back."""
    import numpy as np

    primitive = get_primitive(kind)
    rng = np.random.default_rng(5)
    work = rand100.copy()
    gene = primitive.sample(work, rng)
    assert gene is not None and gene.kind == kind
    assert primitive.applicable(work, gene)
    rec = primitive.apply_gene(work, gene, "keyinput0")
    validate_netlist(work)
    assert primitive.can_decode(rec)
    assert primitive.decode(rec).key_tuple() == gene.key_tuple()
    # overhead accounting matches what was actually inserted
    assert len(work) - len(rand100) == primitive.overhead_gates(gene)


@pytest.mark.parametrize(
    "gene, expected",
    [
        (MuxGene("a", "b", "c", "d", 1), ("mux", "a", "b", "c", "d", 1)),
        (XorGene("a", "b", 0), ("xor", "a", "b", 0)),
        (AndOrGene("a", "b", 1), ("and_or", "a", "b", 1)),
    ],
    ids=["mux", "xor", "and_or"],
)
def test_gene_key_tuple_starts_with_its_kind(gene, expected):
    assert gene.key_tuple() == expected
    assert genotype_key([gene]) == (expected,)


def test_keygate_genes_validate_key_bit():
    with pytest.raises(LockingError, match="0/1"):
        XorGene("a", "b", 2)
    with pytest.raises(LockingError, match="0/1"):
        AndOrGene("a", "b", -1)


# ------------------------------------------------------ mixed genotypes
def test_mixed_genotype_locks_and_roundtrips(rand100):
    genes = random_genotype(rand100, 10, seed_or_rng=3, alphabet=MIXED)
    kinds = set(genotype_kinds(genes))
    assert len(kinds) >= 2, f"seed 3 should mix kinds, got {kinds}"
    assert genotype_is_valid(rand100, genes)
    locked = lock_with_genes(rand100, genes)
    validate_netlist(locked.netlist)
    assert locked.key.bits == tuple(g.k for g in genes)
    assert locked.scheme.startswith("genotype-")
    res = check_equivalence(
        rand100, locked.netlist, key_right=dict(locked.key), seed_or_rng=1
    )
    assert res.equal
    decoded = genes_from_locked(locked)
    assert genotype_key(decoded) == genotype_key(genes)


def test_pure_mux_scheme_label_unchanged(rand100):
    genes = random_genotype(rand100, 4, seed_or_rng=2)
    assert lock_with_genes(rand100, genes).scheme == "dmux-genotype"


def test_mixed_genotype_overhead_accounting(rand100):
    genes = random_genotype(rand100, 8, seed_or_rng=3, alphabet=MIXED)
    expected = sum(2 if g.kind == "mux" else 1 for g in genes)
    assert genotype_overhead(genes) == expected
    locked = lock_with_genes(rand100, genes)
    assert len(locked.netlist) - len(rand100) == expected


def test_default_alphabet_genotype_matches_pre_refactor_stream(rand100):
    """alphabet=("mux",) must draw the exact historical RNG stream."""
    legacy = random_genotype(rand100, 6, seed_or_rng=11)
    explicit = random_genotype(
        rand100, 6, seed_or_rng=11, alphabet=("mux",)
    )
    assert genotype_key(legacy) == genotype_key(explicit)
    assert all(g.kind == "mux" for g in legacy)


def test_mixed_io_roundtrip(tmp_path, rand100):
    """Mixed-primitive locked designs save/load through the sidecar."""
    genes = random_genotype(rand100, 6, seed_or_rng=3, alphabet=MIXED)
    locked = lock_with_genes(rand100, genes)
    sidecar = save_locked_design(locked, tmp_path)
    again = load_locked_design(sidecar)
    assert again.key.bits == locked.key.bits
    assert genotype_key(genes_from_locked(again)) == genotype_key(genes)


# ------------------------------------------------------ decode failures
def test_two_key_decode_error_names_index_and_scheme(rand100):
    """Satellite: the error says *which* insertion failed and the scheme."""
    from repro.locking import DMuxLocking

    locked = DMuxLocking("two_key").lock(rand100, 4, seed_or_rng=5)
    with pytest.raises(
        LockingError, match=r"insertion 0 of scheme 'dmux-two_key'.*two_key"
    ):
        genes_from_locked(locked)


def test_rll_multi_consumer_cut_decode_error_names_index(rand100):
    from repro.locking import RandomLogicLocking

    locked = RandomLogicLocking().lock(rand100, 8, seed_or_rng=21)
    multi = [
        i for i, r in enumerate(locked.insertions)
        if len(r.rewired_pins) > 1
    ]
    assert multi, "fixture seed should produce a multi-consumer net cut"
    with pytest.raises(
        LockingError, match=rf"insertion {multi[0]} of scheme 'rll'"
    ):
        genes_from_locked(locked)


def test_rll_single_consumer_cuts_decode_to_xor_genes(rand100):
    """Single-consumer RLL net cuts ARE wire-level XOR genes."""
    from repro.locking import RandomLogicLocking

    locked = RandomLogicLocking().lock(rand100, 8, seed_or_rng=21)
    singles = [r for r in locked.insertions if len(r.rewired_pins) == 1]
    assert singles, "fixture seed should produce a single-consumer cut"
    gene = get_primitive("xor").decode(singles[0])
    assert gene.kind == "xor"
    assert gene.f == singles[0].locked_signal
    assert gene.k == singles[0].key_bit


# ---------------------------------------------------- repair invariants
@pytest.mark.parametrize("kind", sorted(["mux", "xor", "and_or"]))
def test_repair_is_noop_on_valid_single_kind_genotype(rand100, kind):
    genes = random_genotype(rand100, 6, seed_or_rng=7, alphabet=(kind,))
    repaired = repair_genotype(rand100, genes, seed_or_rng=99)
    assert genotype_key(repaired) == genotype_key(genes)


def test_repair_is_noop_on_valid_mixed_genotype(rand100):
    genes = random_genotype(rand100, 10, seed_or_rng=3, alphabet=MIXED)
    repaired = repair_genotype(rand100, genes, seed_or_rng=123)
    assert genotype_key(repaired) == genotype_key(genes)


def test_repair_deterministic_and_kind_preserving(rand100):
    """Broken mixed genotypes repair deterministically, within-kind."""
    genes = random_genotype(rand100, 8, seed_or_rng=3, alphabet=MIXED)
    broken = genes[:7] + [genes[0]]  # duplicate wire usage
    assert not genotype_is_valid(rand100, broken)
    once = repair_genotype(rand100, broken, seed_or_rng=5)
    twice = repair_genotype(rand100, broken, seed_or_rng=5)
    assert genotype_key(once) == genotype_key(twice)
    assert genotype_is_valid(rand100, once)
    # repair replaced the offending gene with one of the same kind
    assert genotype_kinds(once) == genotype_kinds(broken)


def test_repair_falls_back_across_kinds_when_saturated():
    """A kind with no free sites degrades into another of the genotype's
    kinds instead of aborting the search (mirrors initialisation)."""
    from repro.locking import MuxGene
    from repro.locking.dmux import lockable_wires
    from repro.netlist import GateType, Netlist

    tiny = Netlist("tiny")
    for name in ("a", "b", "c"):
        tiny.add_input(name)
    tiny.add_gate("g_and", GateType.AND, ["a", "b"])
    tiny.add_gate("g_xor", GateType.XOR, ["g_and", "c"])
    tiny.add_gate("g_not", GateType.NOT, ["g_xor"])
    tiny.add_gate("g_or", GateType.OR, ["g_not", "a"])
    tiny.add_output("g_or")
    tiny.add_output("g_xor")

    wires = lockable_wires(tiny)
    xors = [XorGene(f, g, 0) for f, g in wires[:-1]]
    # conflicting MUX gene: one free wire left, a pair needs two — its
    # own kind cannot host it, the genotype's xor kind can.
    clash = MuxGene(
        wires[0][0], wires[0][1], wires[1][0], wires[1][1], 0
    )
    repaired = repair_genotype(tiny, xors + [clash], seed_or_rng=3)
    assert genotype_is_valid(tiny, repaired)
    assert repaired[-1].kind == "xor"


def test_repair_fixes_stale_keygate_gene(rand100):
    genes = random_genotype(rand100, 4, seed_or_rng=3, alphabet=("xor",))
    broken = genes[:3] + [XorGene("ghost_a", "ghost_b", 0)]
    repaired = repair_genotype(rand100, broken, seed_or_rng=6)
    assert genotype_is_valid(rand100, repaired)
    assert repaired[3].kind == "xor"


# ------------------------------------------------- kind-aware operators
def test_mutate_flip_key_flips_any_kind(rand100):
    genes = random_genotype(rand100, 6, seed_or_rng=3, alphabet=MIXED)
    config = MutationConfig(flip_key=1.0, relocate=0.0, reroute_partner=0.0)
    mutated = mutate(rand100, genes, config, seed_or_rng=8)
    for old, new in zip(genes, mutated):
        assert new.kind == old.kind
        assert new.k == old.k ^ 1


def test_mutate_relocate_within_kind_by_default(rand100):
    genes = random_genotype(rand100, 8, seed_or_rng=3, alphabet=MIXED)
    config = MutationConfig(flip_key=0.0, relocate=1.0, reroute_partner=0.0)
    mutated = mutate(rand100, genes, config, seed_or_rng=9)
    assert genotype_kinds(mutated) == genotype_kinds(genes)


def test_mutate_relocate_draws_kind_from_alphabet(rand100):
    genes = random_genotype(rand100, 12, seed_or_rng=3, alphabet=("mux",))
    config = MutationConfig(flip_key=0.0, relocate=1.0, reroute_partner=0.0)
    mutated = mutate(
        rand100, genes, config, seed_or_rng=10, alphabet=MIXED
    )
    assert set(genotype_kinds(mutated)) - {"mux"}, (
        "full relocation over a mixed alphabet should introduce new kinds"
    )
    repaired = repair_genotype(rand100, mutated, seed_or_rng=11)
    assert genotype_is_valid(rand100, repaired)


def test_keygate_neighbor_keeps_driver_and_bit(rand100):
    import numpy as np

    primitive = get_primitive("xor")
    rng = np.random.default_rng(3)
    gene = primitive.sample(rand100, rng)
    moved = None
    for _ in range(50):  # drivers with a single fanout have no neighbour
        moved = primitive.neighbor(rand100, gene, set(), rng)
        if moved is not None:
            break
        gene = primitive.sample(rand100, rng)
    assert moved is not None
    assert moved.f == gene.f and moved.k == gene.k and moved.g != gene.g


# ------------------------------------------------------ fitness scoring
def test_pure_mux_fitness_identical_to_attack_accuracy(rand100):
    genes = random_genotype(rand100, 6, seed_or_rng=3)
    fit = SpecFitness(
        rand100, attack="muxlink", attack_params={"predictor": "bayes"}
    )
    from repro.attacks.muxlink.attack import MuxLinkAttack

    locked = lock_with_genes(rand100, genes)
    report = MuxLinkAttack(predictor="bayes").run(
        locked, seed_or_rng=fit.attack_seed
    )
    assert fit(genes) == float(report.accuracy)


def test_keygate_bits_score_as_leaked(rand100):
    """Scope-scored primitives are weak by construction: constant
    propagation distinguishes their hypotheses, so a pure key-gate
    genotype scores 1.0 (fully recovered)."""
    fit = SpecFitness(
        rand100, attack="muxlink", attack_params={"predictor": "bayes"}
    )
    for kind in ("xor", "and_or"):
        genes = random_genotype(rand100, 6, seed_or_rng=3, alphabet=(kind,))
        assert fit(genes) == 1.0, kind


def test_mixed_fitness_aggregates_between_extremes(rand100):
    fit = SpecFitness(
        rand100, attack="muxlink", attack_params={"predictor": "bayes"}
    )
    mux_only = random_genotype(rand100, 8, seed_or_rng=3)
    mixed = random_genotype(rand100, 8, seed_or_rng=3, alphabet=MIXED)
    v_mux, v_mixed = fit(mux_only), fit(mixed)
    assert v_mux <= v_mixed <= 1.0, (
        "key-gate genes can only leak more than MUX genes"
    )


# ------------------------------------------------ records / fingerprints
def test_genotype_record_names_kinds_and_roundtrips(rand100):
    genes = random_genotype(rand100, 6, seed_or_rng=3, alphabet=MIXED)
    record = genotype_record(genes)
    assert [r["kind"] for r in record] == list(genotype_kinds(genes))
    json.dumps(record)  # JSON-safe
    again = genotype_from_record(record)
    assert genotype_key(again) == genotype_key(genes)


def test_kindless_gene_record_raises():
    record = [{"f_i": "a", "g_i": "b", "f_j": "c", "g_j": "d", "k": 1}]
    with pytest.raises(LockingError, match="kind"):
        genotype_from_record(record)


def test_alphabet_feeds_fingerprint_resolved():
    engine = ExperimentSpec(
        circuit="rand_150_5", key_length=4, engine="ga", attack="muxlink",
        seed=3,
    )
    mixed = engine.with_updates(alphabet=("mux", "xor"))
    assert mixed.fingerprint() != engine.fingerprint()
    # order matters: it indexes the per-gene kind draws
    assert (
        mixed.fingerprint()
        != engine.with_updates(alphabet=("xor", "mux")).fingerprint()
    )
    assert mixed.deterministic_dict()["alphabet"] == ["mux", "xor"]
    assert engine.deterministic_dict()["alphabet"] == ["mux"]
    # explicit default == implicit default
    assert (
        engine.with_updates(alphabet=("mux",)).fingerprint()
        == engine.fingerprint()
    )


def test_alphabet_null_means_default():
    """JSON specs may say "alphabet": null, like async_mode: null."""
    spec = ExperimentSpec.from_json(
        '{"circuit": "rand_100_7", "key_length": 4, "engine": "ga",'
        ' "alphabet": null}'
    )
    assert spec.alphabet == DEFAULT_ALPHABET
    assert (
        spec.fingerprint()
        == spec.with_updates(alphabet=("mux",)).fingerprint()
    )


def test_alphabet_spec_validation():
    engine = ExperimentSpec(
        circuit="rand_150_5", key_length=4, engine="ga", attack="muxlink",
        seed=3,
    )
    with pytest.raises(RegistryError, match="unknown locking primitive"):
        engine.with_updates(alphabet=("mystery",)).validate()
    with pytest.raises(SpecError, match="duplicate"):
        engine.with_updates(alphabet=("mux", "mux")).validate()
    static = ExperimentSpec(circuit="rand_100_7", key_length=8, seed=1)
    with pytest.raises(SpecError, match="static spec"):
        static.with_updates(alphabet=("mux", "xor")).validate()
    with pytest.raises(SpecError, match="did you mean"):
        engine.with_updates(alphabet="mux,xor")


def test_alphabet_as_sweep_axis_expands():
    sweep = SweepSpec(
        base=ExperimentSpec(
            circuit="rand_100_7", key_length=4, engine="ga",
            attack="muxlink", attack_params={"predictor": "bayes"}, seed=1,
        ),
        axes={"alphabet": [["mux"], ["mux", "xor"]]},
    )
    specs = sweep.expand()
    assert [s.alphabet for s in specs] == [
        ("mux",), ("mux", "xor"),
    ]
    assert len({s.fingerprint() for s in specs}) == 2


# ----------------------------------------------------- engine config
def test_ga_config_validates_alphabet():
    with pytest.raises(RegistryError, match="unknown locking primitive"):
        GaConfig(alphabet=("nope",))
    assert GaConfig(alphabet=["mux", "xor"]).alphabet == ("mux", "xor")


def test_engine_code_never_names_mux_gene():
    """Registry-only dispatch: engine modules must not import MuxGene."""
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    engine_modules = [
        src / "api" / "engines.py",
        src / "ec" / "loop.py",
        src / "ec" / "ga.py",
        src / "ec" / "nsga2.py",
        src / "ec" / "alternatives.py",
        src / "ec" / "autolock.py",
        src / "ec" / "evaluator.py",
    ]
    for module in engine_modules:
        assert "MuxGene" not in module.read_text(), module


# --------------------------------------------------------- end to end
def test_mixed_alphabet_ga_end_to_end(rand100):
    """A short GA over a mixed alphabet: valid heterogeneous champion."""
    config = GaConfig(
        key_length=6, population_size=4, generations=2, seed=5,
        alphabet=("mux", "xor"),
    )
    fit = SpecFitness(
        rand100, attack="muxlink", attack_params={"predictor": "bayes"}
    )
    result = GeneticAlgorithm(config).run(rand100, fit)
    champion = result.best_genotype
    assert genotype_is_valid(rand100, champion)
    assert set(genotype_kinds(champion)) <= {"mux", "xor"}
    locked = lock_with_genes(rand100, champion)
    assert check_equivalence(
        rand100, locked.netlist, key_right=dict(locked.key), seed_or_rng=2
    ).equal
    record = genotype_record(champion)
    assert all("kind" in r for r in record)


def test_mixed_alphabet_run_experiment_records_kinds(rand100, tmp_path):
    from repro.api import run_experiment

    spec = ExperimentSpec(
        circuit="rand_100_7",
        key_length=6,
        engine="ga",
        engine_params={"population_size": 4, "generations": 2},
        attack="muxlink",
        attack_params={"predictor": "bayes"},
        seed=5,
        alphabet=("mux", "xor"),
        cache_path=str(tmp_path / "cache.sqlite"),
    )
    result = run_experiment(spec)
    kinds = [g["kind"] for g in result.record["engine"]["best_genotype"]]
    assert set(kinds) <= {"mux", "xor"} and kinds
    assert result.record["spec"]["alphabet"] == ["mux", "xor"]
    # replay from the experiment cache rebuilds the mixed champion
    warm = run_experiment(spec)
    assert warm.from_cache
    rebuilt = warm.rebuild_locked()
    assert genotype_key(genes_from_locked(rebuilt)) == genotype_key(
        result.engine_outcome.best_genotype
    )


# ------------------------------------------------------ verilog export
def _verilog_for(rand100, alphabet, key_length=6, seed=3):
    genes = random_genotype(rand100, key_length, seed, alphabet=alphabet)
    locked = lock_with_genes(rand100, genes)
    return genes, locked, write_verilog(locked.netlist)


def test_verilog_export_mux_primitive(rand100):
    genes, locked, text = _verilog_for(rand100, ("mux",))
    # every key input is a module port
    for name in locked.key.names:
        assert f"input {name};  // key input" in text
    # two MUX assigns per gene, wired to the right key input
    for i, rec in enumerate(locked.insertions):
        assert f"assign {rec.mux_i} = keyinput{i} ?" in text
        assert f"assign {rec.mux_j} = keyinput{i} ?" in text
    assert text.count("?") == 2 * len(genes)


def test_verilog_export_xor_primitive(rand100):
    genes, locked, text = _verilog_for(rand100, ("xor",))
    for rec, gene in zip(locked.insertions, genes):
        expect = "xnor" if gene.k else "xor"
        assert f"{expect} " in text
        # the key gate instantiates with the cut driver and its key input
        assert f"({rec.keygate}, {rec.f}, {rec.key_name});" in text
    n_xor_gates = sum(
        1 for line in text.splitlines()
        if line.strip().startswith(("xor ", "xnor "))
    )
    base = sum(
        1 for g in rand100.gates.values() if g.gtype.value in ("XOR", "XNOR")
    )
    assert n_xor_gates == base + len(genes), "one key gate per gene, lossless"


def test_verilog_export_and_or_primitive(rand100):
    genes, locked, text = _verilog_for(rand100, ("and_or",))
    for rec, gene in zip(locked.insertions, genes):
        expect = "and" if gene.k else "or"
        assert f"({rec.keygate}, {rec.f}, {rec.key_name});" in text
        line = next(
            ln for ln in text.splitlines() if f"({rec.keygate}," in ln
        )
        assert line.strip().startswith(expect + " ")


def test_verilog_export_mixed_alphabet_fanout_rewired(rand100):
    genes, locked, text = _verilog_for(rand100, MIXED, key_length=8)
    # every key input appears exactly once as a port declaration
    for i in range(len(genes)):
        assert text.count(f"input keyinput{i};") == 1
    # key-gate outputs actually drive their rewired consumers
    for rec in locked.insertions:
        for consumer, _pin in rec.consumer_pins:
            gate_line = next(
                ln for ln in text.splitlines()
                if f"({consumer}," in ln or f"assign {consumer} =" in ln
            )
            inserted = getattr(rec, "keygate", None) or rec.mux_i
            assert any(
                name in gate_line
                for name in (
                    [rec.keygate] if hasattr(rec, "keygate")
                    else [rec.mux_i, rec.mux_j]
                )
            ), f"{consumer} not rewired to {inserted}: {gate_line}"
